//! Sharded admission front-end for the ordering service.
//!
//! The Blockchain Machine accelerates the *validation* half of a Fabric
//! peer, but in Fabric's architecture (Androulaki et al.) a transaction
//! is signature-checked and deduplicated **before** ordering — so the
//! committer mostly revisits verdicts instead of producing them. This
//! crate supplies that front-end for the software stack:
//!
//! * **admission** — [`Mempool::admit`] does a light three-layer decode
//!   (see [`admit`]), hash-shards by transaction id, and rejects
//!   duplicates against a per-shard replay window; when the pool is at
//!   capacity the submission is *shed at admission* (counted, never
//!   ordered) instead of overloading the pipeline downstream;
//! * **pre-ordering verification** — [`Mempool::verify_pending`] checks
//!   client signatures, then warms endorsement verdicts, decoupled from
//!   the commit path, on the same engine the committer's vscc stage
//!   runs on ([`fabric_crypto::Verifier`]: membership memo, claim on the
//!   *shared* [`SignatureCache`], work-stealing threads) — so every
//!   signature verified here is a cache hit there, and this crate spawns
//!   no thread and keeps no memo of its own;
//! * **draining** — [`Mempool::drain`] hands verified transactions to
//!   the orderer in admission order, flipping their dedup records into
//!   the replay window (TTL-evicted after `replay_ttl` further
//!   admissions).
//!
//! Determinism: verification parallelism never reorders transactions —
//! ready transactions are keyed by admission sequence, so the blocks an
//! orderer cuts from [`Mempool::drain`] are identical across worker
//! counts and thread schedules.

#![warn(missing_docs)]

pub mod admit;

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_crypto::{sha256, Msp, Verifier};
use fabric_protos::txflow::decode_transaction;
use parking_lot::Mutex;

pub use admit::{decode_admission, AdmissionTx};
// Re-exported so downstream crates can build a shared cache without
// depending on fabric-crypto directly.
pub use fabric_crypto::{SigCacheKey, SigCacheStats, SignatureCache};

/// Dedup/replay-window shards (the admission lock granularity).
const SHARDS: usize = 16;

/// Tuning knobs for a [`Mempool`].
#[derive(Debug, Clone, Copy)]
pub struct MempoolConfig {
    /// Backpressure bound: when `pending + ready` reaches this, new
    /// distinct transactions are shed at admission.
    pub max_pending: usize,
    /// Replay-window TTL in *admissions*: a delivered transaction's
    /// dedup record is evicted once `replay_ttl` further transactions
    /// have been admitted after it.
    pub replay_ttl: u64,
    /// Verify-pool worker threads.
    pub verify_workers: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            max_pending: 4096,
            replay_ttl: 1 << 20,
            verify_workers: 4,
        }
    }
}

/// Outcome of one [`Mempool::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Accepted into the pending set; will be verified and drained.
    Admitted,
    /// A transaction with this id is already tracked (pending, ready,
    /// or inside the replay window): dropped without a verify.
    Duplicate,
    /// Load shed: the pool is at `max_pending`; rejected *before*
    /// ordering so the overload never reaches the validators.
    Shed,
    /// The envelope failed the light admission decode.
    Malformed,
}

/// What one [`Mempool::verify_pending`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyReport {
    /// Transactions pulled from the pending queue this call.
    pub batch: usize,
    /// Of those, how many verified valid (now ready to drain).
    pub valid: usize,
    /// Rejected: bad client signature or untrusted creator.
    pub invalid: usize,
    /// Endorsement verdicts warmed into the shared cache.
    pub endorsements_warmed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Summed time the workers spent on transactions (µs).
    pub busy_us: u64,
    /// Wall-clock time of the parallel phase (µs).
    pub wall_us: u64,
}

/// Point-in-time mempool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Distinct transactions accepted.
    pub admitted: u64,
    /// Submissions rejected as duplicates (dedup hits).
    pub duplicates: u64,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Submissions that failed the light decode.
    pub malformed: u64,
    /// Admitted transactions rejected by the verify pool.
    pub invalid: u64,
    /// Transactions handed to the orderer via [`Mempool::drain`].
    pub drained: u64,
    /// Underlying ECDSA verifications run by the verify pool (cache
    /// hits and coalesced waits excluded).
    pub verifications: u64,
    /// Currently pending (admitted, not yet verified).
    pub pending: usize,
    /// Currently ready (verified, not yet drained).
    pub ready: usize,
    /// Dedup records tracked across all shards (pending + ready +
    /// replay window).
    pub tracked: usize,
}

impl MempoolStats {
    /// Total submissions that reached the dedup check.
    pub fn submissions(&self) -> u64 {
        self.admitted + self.duplicates + self.shed
    }

    /// Fraction of submissions shed by backpressure.
    pub fn shed_rate(&self) -> f64 {
        let total = self.submissions();
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

/// Dedup record lifecycle. `Pending` and `Ready` entries are immune to
/// TTL eviction (they are bounded by `max_pending` instead); `Recorded`
/// entries form the replay window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Admitted, awaiting verification.
    Pending,
    /// Verified valid, awaiting drain.
    Ready,
    /// Drained to the orderer; kept to suppress replays until TTL.
    Recorded,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, EntryState>,
    /// Admission order within this shard: `(admission seq, tx id)`,
    /// oldest first — the TTL eviction scan.
    window: VecDeque<(u64, String)>,
}

impl Shard {
    /// Evicts replay-window records whose TTL has expired. Stops at the
    /// first record still in flight: eviction strictly follows admission
    /// order, so a younger record can never be evicted before an older
    /// one (the idempotence suite's invariant).
    fn evict_expired(&mut self, now_seq: u64, ttl: u64) {
        while let Some((seq, tx_id)) = self.window.front() {
            // Expired once `ttl` *further* transactions were admitted:
            // the record itself holds admission `seq`, so the counter
            // reads `seq + 1 + ttl` when its window closes.
            if seq.saturating_add(ttl) >= now_seq {
                break;
            }
            match self.entries.get(tx_id) {
                Some(EntryState::Recorded) => {
                    let tx_id = self.window.pop_front().expect("front checked").1;
                    self.entries.remove(&tx_id);
                }
                // Entry already removed (rejected as invalid): drop the
                // stale window slot.
                None => {
                    self.window.pop_front();
                }
                // Still pending/ready: in-flight transactions are never
                // TTL-evicted, and neither is anything younger.
                Some(_) => break,
            }
        }
    }
}

/// A transaction sitting in the pending queue, carrying everything the
/// verify pool needs without re-decoding the admission layers.
#[derive(Debug)]
struct QueuedTx {
    seq: u64,
    tx_id: String,
    envelope: Vec<u8>,
    tx: AdmissionTx,
}

/// The sharded admission front-end. See the crate docs for the flow.
#[derive(Debug)]
pub struct Mempool {
    cfg: MempoolConfig,
    shards: Vec<Mutex<Shard>>,
    pending: Mutex<VecDeque<QueuedTx>>,
    ready: Mutex<BTreeMap<u64, (String, Vec<u8>)>>,
    pending_count: AtomicUsize,
    ready_count: AtomicUsize,
    seq: AtomicU64,
    /// The verification engine: trust anchors for admission-time creator
    /// validation (`None` = signature-only admission), the signature
    /// cache shared with the committer, the verify threads.
    verifier: Verifier,
    admitted: AtomicU64,
    duplicates: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    invalid: AtomicU64,
    drained: AtomicU64,
}

impl Mempool {
    /// Creates a mempool verifying against `cache` (share this `Arc`
    /// with the committer's `fabric_peer::ValidatorPipeline` so
    /// admission verdicts are committer cache hits), without
    /// membership validation.
    ///
    /// # Panics
    ///
    /// Panics if `max_pending` or `verify_workers` is zero.
    pub fn new(cfg: MempoolConfig, cache: Arc<SignatureCache>) -> Self {
        Self::with_msp(cfg, cache, None)
    }

    /// Creates a mempool that additionally validates each creator
    /// certificate against `msp` before burning a signature verify.
    ///
    /// # Panics
    ///
    /// Panics if `max_pending` or `verify_workers` is zero.
    pub fn with_msp(cfg: MempoolConfig, cache: Arc<SignatureCache>, msp: Option<Msp>) -> Self {
        assert!(cfg.max_pending > 0, "max_pending of zero sheds everything");
        Mempool {
            shards: (0..SHARDS)
                .map(|_| Mutex::named("mempool.shard", Shard::default()))
                .collect(),
            pending: Mutex::named("mempool.pending", VecDeque::new()),
            ready: Mutex::named("mempool.ready", BTreeMap::new()),
            pending_count: AtomicUsize::new(0),
            ready_count: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            verifier: Verifier::new(msp, cache, cfg.verify_workers),
            admitted: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            cfg,
        }
    }

    fn shard_of(&self, tx_id: &str) -> usize {
        let mut h = DefaultHasher::new();
        tx_id.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Admits one submitted envelope: light decode, shard dedup, replay
    /// window, backpressure — in that order, so a duplicate of a
    /// tracked transaction is reported as [`AdmitOutcome::Duplicate`]
    /// even when the pool is full.
    pub fn admit(&self, envelope: &[u8]) -> AdmitOutcome {
        let tx = match decode_admission(envelope) {
            Ok(tx) => tx,
            Err(_) => {
                // relaxed: monotonic stats counter; never gates data visibility
                self.malformed.fetch_add(1, Ordering::Relaxed);
                return AdmitOutcome::Malformed;
            }
        };
        let shard_idx = self.shard_of(&tx.tx_id);
        let mut shard = self.shards[shard_idx].lock();
        // relaxed: TTL eviction is approximate by design; a stale seq only delays expiry, and entry-state checks keep in-flight txs safe
        let now_seq = self.seq.load(Ordering::Relaxed);
        shard.evict_expired(now_seq, self.cfg.replay_ttl);
        if shard.entries.contains_key(&tx.tx_id) {
            // relaxed: monotonic stats counter; never gates data visibility
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return AdmitOutcome::Duplicate;
        }
        // relaxed: backpressure gauge is approximate by design;
        // admission never reads queue data through these counters
        let pending = self.pending_count.load(Ordering::Relaxed);
        let ready = self.ready_count.load(Ordering::Relaxed);
        let in_flight = pending + ready;
        if in_flight >= self.cfg.max_pending {
            // relaxed: monotonic stats counter; never gates data visibility
            self.shed.fetch_add(1, Ordering::Relaxed);
            return AdmitOutcome::Shed;
        }
        // relaxed: RMW uniqueness is all that matters for id allocation; the seq value is published under the shard/pending locks
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        shard.entries.insert(tx.tx_id.clone(), EntryState::Pending);
        shard.window.push_back((seq, tx.tx_id.clone()));
        let queued = QueuedTx {
            seq,
            tx_id: tx.tx_id.clone(),
            envelope: envelope.to_vec(),
            tx,
        };
        // relaxed: approximate backpressure gauge (see admit)
        self.pending_count.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().push_back(queued);
        drop(shard);
        // relaxed: monotonic stats counter; never gates data visibility
        self.admitted.fetch_add(1, Ordering::Relaxed);
        AdmitOutcome::Admitted
    }

    /// Verifies everything currently pending on the verifier's threads,
    /// moving valid transactions to the ready set (in admission order)
    /// and discarding invalid ones — a rejected id leaves the dedup
    /// window, so an honest resubmission with a good signature is
    /// re-admitted rather than swallowed as a duplicate.
    pub fn verify_pending(&self) -> VerifyReport {
        let batch: Vec<QueuedTx> = {
            let mut pending = self.pending.lock();
            pending.drain(..).collect()
        };
        if batch.is_empty() {
            return VerifyReport::default();
        }

        let n = batch.len();
        let wall = Instant::now();
        let outcomes = self.verifier.par_map(n, |i| {
            let t0 = Instant::now();
            let (valid, warmed) = self.verify_one(&batch[i]);
            (valid, warmed, t0.elapsed())
        });
        let wall_us = wall.elapsed().as_micros() as u64;

        // Sequential commit of verdicts in admission order: parallelism
        // above never reorders what the orderer will see.
        let mut report = VerifyReport {
            batch: n,
            workers: self.verifier.workers().min(n),
            wall_us,
            ..VerifyReport::default()
        };
        let mut busy = Duration::ZERO;
        for (queued, (valid, warmed, took)) in batch.into_iter().zip(outcomes) {
            report.endorsements_warmed += warmed;
            busy += took;
            let mut shard = self.shards[self.shard_of(&queued.tx_id)].lock();
            if valid {
                report.valid += 1;
                shard
                    .entries
                    .insert(queued.tx_id.clone(), EntryState::Ready);
                drop(shard);
                self.ready
                    .lock()
                    .insert(queued.seq, (queued.tx_id, queued.envelope));
                // relaxed: approximate backpressure gauge (see admit)
                self.ready_count.fetch_add(1, Ordering::Relaxed);
            } else {
                report.invalid += 1;
                // relaxed: monotonic stats counter; never gates data visibility
                self.invalid.fetch_add(1, Ordering::Relaxed);
                shard.entries.remove(&queued.tx_id);
            }
            // relaxed: approximate backpressure gauge (see admit)
            self.pending_count.fetch_sub(1, Ordering::Relaxed);
        }
        report.busy_us = busy.as_micros() as u64;
        report
    }

    /// One verify task: membership, then the client signature, then —
    /// only for a transaction whose client signature verified — a full
    /// decode off the admission path to warm every endorsement verdict,
    /// so the committer's vscc phase is lookup-only. Returns
    /// `(valid, endorsements_warmed)`.
    fn verify_one(&self, queued: &QueuedTx) -> (bool, usize) {
        let tx = &queued.tx;
        if !self.verifier.trusted(&tx.creator_cert) {
            return (false, 0);
        }
        let valid = self.verifier.check(&tx.cache_key, || {
            tx.creator_cert
                .public_key
                .verify_prehashed(&tx.payload_digest, &tx.client_signature)
                .is_ok()
        });
        if !valid {
            return (false, 0);
        }
        let Ok(decoded) = decode_transaction(&queued.envelope) else {
            return (false, 0);
        };
        let mut warmed = 0;
        for e in &decoded.endorsements {
            let digest = sha256(&e.signed_message);
            let key = SigCacheKey::compute(&e.endorser_cert.public_key, &digest, &e.signature);
            self.verifier.check(&key, || {
                warmed += 1;
                e.endorser_cert
                    .public_key
                    .verify_prehashed(&digest, &e.signature)
                    .is_ok()
            });
        }
        (true, warmed)
    }

    /// Hands up to `max` ready transactions to the orderer, oldest
    /// admission first, and moves their dedup records into the replay
    /// window.
    pub fn drain(&self, max: usize) -> Vec<Vec<u8>> {
        let taken: Vec<(u64, String, Vec<u8>)> = {
            let mut ready = self.ready.lock();
            let keys: Vec<u64> = ready.keys().take(max).copied().collect();
            keys.into_iter()
                .map(|k| {
                    let (tx_id, env) = ready.remove(&k).expect("key just listed");
                    (k, tx_id, env)
                })
                .collect()
        };
        let mut out = Vec::with_capacity(taken.len());
        for (_, tx_id, envelope) in taken {
            self.shards[self.shard_of(&tx_id)]
                .lock()
                .entries
                .insert(tx_id, EntryState::Recorded);
            // relaxed: approximate backpressure gauge (see admit)
            self.ready_count.fetch_sub(1, Ordering::Relaxed);
            // relaxed: monotonic stats counter; never gates data visibility
            self.drained.fetch_add(1, Ordering::Relaxed);
            out.push(envelope);
        }
        out
    }

    /// Number of transactions awaiting verification.
    pub fn pending_len(&self) -> usize {
        // relaxed: approximate gauge; callers treat it as a hint
        self.pending_count.load(Ordering::Relaxed)
    }

    /// Number of verified transactions awaiting drain.
    pub fn ready_len(&self) -> usize {
        // relaxed: approximate gauge; callers treat it as a hint
        self.ready_count.load(Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> MempoolStats {
        MempoolStats {
            // relaxed: stats snapshot; counters are independent and approximate
            admitted: self.admitted.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            pending: self.pending_count.load(Ordering::Relaxed),
            ready: self.ready_count.load(Ordering::Relaxed),
            verifications: self.verifier.verifications() as u64,
            tracked: self.shards.iter().map(|s| s.lock().entries.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::Role;
    use fabric_protos::txflow::{build_transaction, EnvelopeHead, TxParams};

    fn test_msp() -> (
        Msp,
        fabric_crypto::identity::SigningIdentity,
        Vec<fabric_crypto::identity::SigningIdentity>,
    ) {
        let mut msp = Msp::new(2);
        let client = msp.issue(0, Role::Client, 0).unwrap();
        let e0 = msp.issue(0, Role::Peer, 0).unwrap();
        let e1 = msp.issue(1, Role::Peer, 0).unwrap();
        (msp, client, vec![e0, e1])
    }

    fn envelope(
        client: &fabric_crypto::identity::SigningIdentity,
        endorsers: &[fabric_crypto::identity::SigningIdentity],
        nonce: u8,
    ) -> Vec<u8> {
        let endorsers: Vec<_> = endorsers.iter().collect();
        build_transaction(
            client,
            &endorsers,
            &TxParams {
                channel_id: "ch",
                chaincode: "kv",
                reads: vec![],
                writes: vec![(format!("k{nonce}"), vec![nonce])],
                nonce: vec![nonce],
                timestamp: 1,
            },
        )
        .envelope
    }

    fn pool(cfg: MempoolConfig) -> Mempool {
        Mempool::new(cfg, Arc::new(SignatureCache::new(1024)))
    }

    #[test]
    fn admit_verify_drain_roundtrip() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig::default());
        let env = envelope(&client, &endorsers, 1);
        assert_eq!(mp.admit(&env), AdmitOutcome::Admitted);
        assert_eq!(mp.pending_len(), 1);
        let report = mp.verify_pending();
        assert_eq!(report.valid, 1);
        assert_eq!(report.invalid, 0);
        assert!(report.endorsements_warmed >= 1, "endorsements warmed");
        let drained = mp.drain(usize::MAX);
        assert_eq!(drained, vec![env]);
        assert_eq!(mp.ready_len(), 0);
    }

    #[test]
    fn duplicates_are_rejected_across_all_states() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig::default());
        let env = envelope(&client, &endorsers, 2);
        assert_eq!(mp.admit(&env), AdmitOutcome::Admitted);
        // Pending.
        assert_eq!(mp.admit(&env), AdmitOutcome::Duplicate);
        mp.verify_pending();
        // Ready.
        assert_eq!(mp.admit(&env), AdmitOutcome::Duplicate);
        mp.drain(usize::MAX);
        // Recorded (replay window).
        assert_eq!(mp.admit(&env), AdmitOutcome::Duplicate);
        assert_eq!(mp.stats().duplicates, 3);
    }

    #[test]
    fn malformed_envelopes_never_reach_the_queue() {
        let mp = pool(MempoolConfig::default());
        assert_eq!(mp.admit(b"not an envelope"), AdmitOutcome::Malformed);
        assert_eq!(mp.pending_len(), 0);
        assert_eq!(mp.stats().malformed, 1);
    }

    #[test]
    fn backpressure_sheds_before_ordering() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig {
            max_pending: 2,
            ..MempoolConfig::default()
        });
        assert_eq!(
            mp.admit(&envelope(&client, &endorsers, 1)),
            AdmitOutcome::Admitted
        );
        assert_eq!(
            mp.admit(&envelope(&client, &endorsers, 2)),
            AdmitOutcome::Admitted
        );
        let third = envelope(&client, &endorsers, 3);
        assert_eq!(mp.admit(&third), AdmitOutcome::Shed);
        let stats = mp.stats();
        assert_eq!(stats.shed, 1);
        assert!(stats.shed_rate() > 0.3);
        // Shed transactions were never tracked: once the pool drains,
        // the same envelope is admissible.
        mp.verify_pending();
        mp.drain(usize::MAX);
        assert_eq!(mp.admit(&third), AdmitOutcome::Admitted);
    }

    #[test]
    fn bad_signature_is_rejected_and_resubmission_readmitted() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig::default());
        let env = envelope(&client, &endorsers, 4);
        // Corrupt the client signature the way the stream generator
        // does: flip the last DER byte in place (still parses, fails
        // verify).
        let mut corrupt = env.clone();
        let head = EnvelopeHead::walk(&corrupt).unwrap();
        let last = head.signature.as_ptr_range().end as usize - corrupt.as_ptr() as usize - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(mp.admit(&corrupt), AdmitOutcome::Admitted);
        let report = mp.verify_pending();
        assert_eq!((report.valid, report.invalid), (0, 1));
        assert!(mp.drain(usize::MAX).is_empty());
        // The rejected id left the dedup window: the honest envelope
        // (same tx id, good signature) is admitted, not swallowed.
        assert_eq!(mp.admit(&env), AdmitOutcome::Admitted);
        assert_eq!(mp.verify_pending().valid, 1);
        assert_eq!(mp.drain(usize::MAX), vec![env]);
    }

    #[test]
    fn untrusted_creator_is_rejected_when_msp_is_enforced() {
        let (msp, _, endorsers) = test_msp();
        // CA keys are deterministic per org name, so a "foreign" 2-org
        // Msp would be identical. Instead issue the client from org 2
        // of a *wider* universe: its certificate names an org the
        // 2-org trust anchors have never heard of.
        let mut foreign = Msp::new(3);
        let foreign_client = foreign.issue(2, Role::Client, 7).unwrap();
        let env = envelope(&foreign_client, &endorsers, 5);
        let mp = Mempool::with_msp(
            MempoolConfig::default(),
            Arc::new(SignatureCache::new(1024)),
            Some(msp),
        );
        assert_eq!(mp.admit(&env), AdmitOutcome::Admitted);
        let report = mp.verify_pending();
        assert_eq!((report.valid, report.invalid), (0, 1));
        assert_eq!(
            mp.stats().verifications,
            0,
            "no verify wasted on untrusted certs"
        );
    }

    #[test]
    fn replay_window_ttl_evicts_oldest_recorded_first() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig {
            replay_ttl: 2,
            ..MempoolConfig::default()
        });
        let a = envelope(&client, &endorsers, 10);
        assert_eq!(mp.admit(&a), AdmitOutcome::Admitted); // seq 0
        mp.verify_pending();
        mp.drain(usize::MAX); // `a` now Recorded
        assert_eq!(
            mp.admit(&envelope(&client, &endorsers, 11)),
            AdmitOutcome::Admitted
        ); // seq 1
        assert_eq!(mp.admit(&a), AdmitOutcome::Duplicate, "inside the window");
        assert_eq!(
            mp.admit(&envelope(&client, &endorsers, 12)),
            AdmitOutcome::Admitted
        ); // seq 2
           // Two further transactions (ttl = 2) were admitted after `a`,
           // so its window closed: the replay is re-admitted (documented
           // TTL semantics — the window is a bounded filter, not a ledger).
        assert_eq!(mp.admit(&a), AdmitOutcome::Admitted);
        let stats = mp.stats();
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.admitted, 4);
    }

    #[test]
    fn duplicates_never_evict_younger_entries() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig {
            replay_ttl: 3,
            ..MempoolConfig::default()
        });
        let a = envelope(&client, &endorsers, 20);
        let b = envelope(&client, &endorsers, 21);
        assert_eq!(mp.admit(&a), AdmitOutcome::Admitted);
        assert_eq!(mp.admit(&b), AdmitOutcome::Admitted);
        // Hammer duplicates of the *older* transaction: none of them
        // may advance the sequence or push the younger `b` out.
        for _ in 0..50 {
            assert_eq!(mp.admit(&a), AdmitOutcome::Duplicate);
        }
        assert_eq!(mp.admit(&b), AdmitOutcome::Duplicate, "b still tracked");
        let report = mp.verify_pending();
        assert_eq!(report.valid, 2, "both distinct transactions survive");
        assert_eq!(mp.drain(usize::MAX).len(), 2);
    }

    #[test]
    fn drain_preserves_admission_order_across_worker_counts() {
        let (_, client, endorsers) = test_msp();
        let envs: Vec<Vec<u8>> = (0..12).map(|i| envelope(&client, &endorsers, i)).collect();
        let mut drains = Vec::new();
        for workers in [1, 4] {
            let mp = pool(MempoolConfig {
                verify_workers: workers,
                ..MempoolConfig::default()
            });
            for env in &envs {
                assert_eq!(mp.admit(env), AdmitOutcome::Admitted);
            }
            mp.verify_pending();
            drains.push(mp.drain(usize::MAX));
        }
        assert_eq!(drains[0], envs, "drain order == admission order");
        assert_eq!(drains[0], drains[1], "worker count changes nothing");
    }

    #[test]
    fn admission_verdicts_are_committer_cache_hits() {
        let (_, client, endorsers) = test_msp();
        let cache = Arc::new(SignatureCache::new(1024));
        let mp = Mempool::new(MempoolConfig::default(), Arc::clone(&cache));
        let env = envelope(&client, &endorsers, 30);
        mp.admit(&env);
        mp.verify_pending();
        let after_pool = cache.stats();
        assert!(after_pool.misses >= 3, "client + 2 endorsements claimed");
        // A committer-side lookup of the client-signature verdict hits.
        let tx = decode_admission(&env).unwrap();
        assert_eq!(cache.get(&tx.cache_key), Some(true));
    }

    #[test]
    fn partial_drain_respects_max() {
        let (_, client, endorsers) = test_msp();
        let mp = pool(MempoolConfig::default());
        for i in 0..5 {
            mp.admit(&envelope(&client, &endorsers, 40 + i));
        }
        mp.verify_pending();
        assert_eq!(mp.drain(2).len(), 2);
        assert_eq!(mp.ready_len(), 3);
        assert_eq!(mp.drain(usize::MAX).len(), 3);
        assert_eq!(mp.stats().drained, 5);
    }
}
