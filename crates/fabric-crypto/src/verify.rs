//! The one signature-verification engine.
//!
//! The paper's block_processor feeds block_verify, tx_verify and tx_vscc
//! from one bank of `ecdsa_engine`s (§3.3), and Fabric runs the same
//! signature check before ordering and again at commit. Here the
//! committer's orderer check and vscc stage (`fabric_peer::pipeline`) and
//! the admission pool (`fabric-mempool`) all go through one [`Verifier`],
//! which owns what a verification needs and nothing else:
//!
//! * [`Verifier::trusted`] — membership: the MSP chain check behind one
//!   bounded certificate memo;
//! * [`Verifier::check`] and, for a chunk of keys verified as one
//!   batch, [`Verifier::check_batch`] — the workspace's only
//!   claim → verify → fulfill → count sites over the shared
//!   [`SignatureCache`];
//! * [`Verifier::par_map`] — the workspace's single verification
//!   `thread::scope`: `workers - 1` spawned threads plus the calling
//!   thread steal indices from one atomic counter.
//!
//! What is verified (which key, digest and signature; in which order;
//! what a verdict means for a transaction) stays with the callers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::sigcache::{Claim, ClaimGuard, SigCacheKey, SignatureCache, TryClaim};
use crate::{KnownCert, Msp};

/// Upper bound on memoized certificate verdicts before the memo resets
/// (one 32-byte fingerprint and a flag per entry, so about a megabyte
/// under pathological certificate churn — which an untrusted client can
/// cause at admission by submitting a fresh certificate per envelope).
const CERT_MEMO_CAPACITY: usize = 16 * 1024;

/// Signature verification for one peer or admission front-end: trust
/// anchors, certificate memo, shared verdict cache, worker count and the
/// counts of ECDSA verifications run, threads spawned and memo locks
/// taken.
#[derive(Debug)]
pub struct Verifier {
    /// Trust anchors; `None` skips the membership check.
    msp: Option<Msp>,
    /// Memo of certificate-chain checks by certificate fingerprint: the
    /// same few certificates recur hundreds of times a block, and each
    /// MSP validation is itself a full ECDSA verification (the CA
    /// signature over the TBS bytes).
    cert_memo: Mutex<HashMap<[u8; 32], bool>>,
    /// Verdicts keyed by `(pubkey, digest, signature)`. Behind an `Arc`
    /// so the admission side and the committer share it: a signature
    /// checked by either is a lookup for the other.
    sig_cache: Arc<SignatureCache>,
    workers: usize,
    /// Underlying ECDSA verifications run through [`Verifier::check`];
    /// cache hits and coalesced waits do not count.
    verifications: AtomicUsize,
    /// Threads [`Verifier::par_map`] spawned.
    spawned: AtomicUsize,
    /// Times [`Verifier::trusted`] took the certificate memo's lock.
    memo_locks: AtomicUsize,
}

impl Verifier {
    /// Creates a verifier over `sig_cache` that runs [`Verifier::par_map`]
    /// on `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(msp: Option<Msp>, sig_cache: Arc<SignatureCache>, workers: usize) -> Self {
        assert!(workers > 0, "at least one verification worker required");
        Verifier {
            msp,
            cert_memo: Mutex::named("peer.cert_memo", HashMap::new()),
            sig_cache,
            workers,
            verifications: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            memo_locks: AtomicUsize::new(0),
        }
    }

    /// Whether `cert` chains to the CA of its organization. The chain
    /// check runs once per distinct certificate, then is a lookup by the
    /// fingerprint `cert` was resolved with. Always `true` without trust
    /// anchors.
    pub fn trusted(&self, cert: &KnownCert) -> bool {
        let Some(msp) = &self.msp else { return true };
        let fp = cert.fingerprint();
        if let Some(&ok) = self.memo().get(&fp) {
            return ok;
        }
        let ok = msp.validate(cert).is_ok();
        let mut memo = self.memo();
        if memo.len() >= CERT_MEMO_CAPACITY {
            memo.clear();
        }
        memo.insert(fp, ok);
        ok
    }

    /// The certificate memo, locked.
    fn memo(&self) -> parking_lot::MutexGuard<'_, HashMap<[u8; 32], bool>> {
        // relaxed: monotonic stats counter; never gates data visibility
        self.memo_locks.fetch_add(1, Ordering::Relaxed);
        self.cert_memo.lock()
    }

    /// The verdict for `key`: from the cache, from a concurrent caller
    /// already verifying the same triple, or from running `verify` —
    /// exactly one caller per key runs it at a time, and each run is
    /// counted in [`Verifier::verifications`]. Under concurrent misses on
    /// one triple (two streaming verify stages, or the admission pool
    /// racing the committer) the rest wait for that one verdict.
    pub fn check(&self, key: &SigCacheKey, verify: impl FnOnce() -> bool) -> bool {
        match self.sig_cache.claim(key) {
            Claim::Verdict(valid) => valid,
            Claim::Verify(guard) => {
                // relaxed: monotonic stats counter; never gates data visibility
                self.verifications.fetch_add(1, Ordering::Relaxed);
                let valid = verify();
                guard.fulfill(valid);
                valid
            }
        }
    }

    /// [`Self::check`] for a chunk of keys whose misses are verified
    /// together: `verify` is given the indices (into `keys`, ascending)
    /// of the keys this call claimed and returns their verdicts in that
    /// order; each is counted in [`Verifier::verifications`].
    ///
    /// Keys are claimed **without waiting**, the claimed ones verified
    /// as one batch and every guard fulfilled, and only then — holding
    /// nothing — does the call wait (through [`Self::check`], which
    /// verifies the key alone if its holder gave up) for the keys another
    /// caller was verifying. Two verify lanes whose chunks share two
    /// keys in opposite order would otherwise each hold one claim and
    /// wait for the other's. A panic in `verify` drops every guard of the
    /// chunk, so waiters on any of them re-claim.
    pub fn check_batch(
        &self,
        keys: &[SigCacheKey],
        verify: impl Fn(&[usize]) -> Vec<bool>,
    ) -> Vec<bool> {
        let mut verdicts: Vec<Option<bool>> = vec![None; keys.len()];
        let mut claimed: Vec<usize> = Vec::new();
        let mut guards: Vec<ClaimGuard<'_>> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.sig_cache.try_claim(key) {
                TryClaim::Verdict(valid) => verdicts[i] = Some(valid),
                TryClaim::Verify(guard) => {
                    claimed.push(i);
                    guards.push(guard);
                }
                TryClaim::Busy => {}
            }
        }
        if !claimed.is_empty() {
            self.verifications
                // relaxed: monotonic stats counter; never gates data visibility
                .fetch_add(claimed.len(), Ordering::Relaxed);
            let verified = verify(&claimed);
            assert_eq!(verified.len(), claimed.len(), "one verdict per claimed key");
            for ((i, guard), valid) in claimed.iter().zip(guards).zip(verified) {
                guard.fulfill(valid);
                verdicts[*i] = Some(valid);
            }
        }
        verdicts
            .into_iter()
            .enumerate()
            .map(|(i, verdict)| verdict.unwrap_or_else(|| self.check(&keys[i], || verify(&[i])[0])))
            .collect()
    }

    /// `(0..n).map(f)`, in index order, computed by up to
    /// [`Verifier::workers`] threads stealing indices from one counter.
    /// Inline on the calling thread when one worker (or one item) is all
    /// there is; otherwise the calling thread is one of the workers, so
    /// `workers - 1` threads are spawned. A panic in `f` propagates once
    /// every thread has stopped.
    pub fn par_map<T: Send + Sync>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let steal = || loop {
            // relaxed: the claim needs only RMW uniqueness; results are
            // published through OnceLock and the scope join
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            assert!(slots[i].set(f(i)).is_ok(), "index {i} claimed twice");
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                // relaxed: monotonic stats counter; never gates data visibility
                self.spawned.fetch_add(1, Ordering::Relaxed);
                scope.spawn(steal);
            }
            steal();
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index was claimed"))
            .collect()
    }

    /// ECDSA verifications run so far.
    pub fn verifications(&self) -> usize {
        // relaxed: monotonic stats counter; never gates data visibility
        self.verifications.load(Ordering::Relaxed)
    }

    /// Threads [`Verifier::par_map`] has spawned so far (the calling
    /// thread, which always takes part, is not counted).
    pub fn spawned(&self) -> usize {
        // relaxed: monotonic stats counter; never gates data visibility
        self.spawned.load(Ordering::Relaxed)
    }

    /// Times [`Verifier::trusted`] has taken the certificate memo's lock.
    pub fn memo_locks(&self) -> usize {
        // relaxed: monotonic stats counter; never gates data visibility
        self.memo_locks.load(Ordering::Relaxed)
    }

    /// Threads [`Verifier::par_map`] uses, the calling one included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared verdict cache.
    pub fn sig_cache(&self) -> &Arc<SignatureCache> {
        &self.sig_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Role;
    use std::sync::atomic::AtomicBool;

    fn verifier(msp: Option<Msp>, workers: usize) -> Verifier {
        Verifier::new(msp, Arc::new(SignatureCache::new(64)), workers)
    }

    #[test]
    fn par_map_visits_every_index_exactly_once() {
        for workers in [1, 2, 8] {
            let v = verifier(None, workers);
            for n in [0, 1, 3, 100] {
                let visits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = v.par_map(n, |i| {
                    visits[i].fetch_add(1, Ordering::SeqCst);
                    i * 7
                });
                let expected: Vec<usize> = (0..n).map(|i| i * 7).collect();
                assert_eq!(out, expected, "workers {workers}, n {n}");
                assert!(
                    visits.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "workers {workers}, n {n}: an index was skipped or repeated"
                );
            }
        }
    }

    #[test]
    fn par_map_runs_on_the_calling_thread_too() {
        // Two workers, two items, and each item waits for the other to
        // start: both threads take exactly one, and one of them must be
        // the caller (one thread is spawned, not two).
        let v = verifier(None, 2);
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        let ran_on_caller = AtomicBool::new(false);
        v.par_map(2, |_| {
            both_started.wait();
            if std::thread::current().id() == caller {
                ran_on_caller.store(true, Ordering::SeqCst);
            }
        });
        assert!(ran_on_caller.load(Ordering::SeqCst));
    }

    #[test]
    fn par_map_propagates_a_panicking_item() {
        for workers in [1, 4] {
            let v = verifier(None, workers);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                v.par_map(16, |i| {
                    assert_ne!(i, 5, "item five fails");
                    i
                })
            }));
            assert!(outcome.is_err(), "workers {workers}");
        }
    }

    #[test]
    fn check_runs_its_closure_once_under_concurrent_callers_of_one_key() {
        let v = verifier(None, 1);
        let key = SigCacheKey::from_bytes([7; 32]);
        let runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let valid = v.check(&key, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        true
                    });
                    assert!(valid);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(v.verifications(), 1);
        // Negative verdicts are cached and counted the same way.
        let bad = SigCacheKey::from_bytes([8; 32]);
        assert!(!v.check(&bad, || false));
        assert!(!v.check(&bad, || unreachable!("cached verdict")));
        assert_eq!(v.verifications(), 2);
    }

    fn keys(tag: u8, n: u8) -> Vec<SigCacheKey> {
        (0..n)
            .map(|i| SigCacheKey::from_bytes([tag.wrapping_add(i); 32]))
            .collect()
    }

    #[test]
    fn check_batch_verifies_what_it_claims_as_one_batch_and_counts_exactly_that() {
        let v = verifier(None, 1);
        let keys = keys(20, 5);
        assert!(v.check(&keys[1], || true));
        assert!(!v.check(&keys[3], || false));
        assert_eq!(v.verifications(), 2);
        let calls = AtomicUsize::new(0);
        let verdicts = v.check_batch(&keys, |claimed| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(claimed, [0, 2, 4], "the three keys with no verdict yet");
            claimed.iter().map(|&i| i != 2).collect()
        });
        assert_eq!(verdicts, [true, true, false, false, true]);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one batch");
        assert_eq!(v.verifications(), 2 + 3);
        // All five are cached now: nothing to claim, nothing verified.
        let again = v.check_batch(&keys, |_| unreachable!("cached verdicts"));
        assert_eq!(again, verdicts);
        assert_eq!(v.verifications(), 5);
        assert!(v.check_batch(&[], |_| unreachable!()).is_empty());
    }

    #[test]
    fn check_batch_holds_no_claim_while_it_waits_for_a_key_another_thread_is_verifying() {
        let v = verifier(None, 1);
        let cache = Arc::clone(v.sig_cache());
        let keys = keys(40, 3);
        let Claim::Verify(held_elsewhere) = cache.claim(&keys[1]) else {
            panic!("nothing is cached yet");
        };
        std::thread::scope(|s| {
            let batch = s.spawn(|| {
                v.check_batch(&keys, |claimed| {
                    assert_eq!(claimed, [0, 2], "the held key is not waited for here");
                    vec![true, false]
                })
            });
            // Both claimed keys are published while the third is still
            // held here: the batch did not park on it with guards in
            // hand. (On failure the guard drops with this frame, so the
            // batch thread re-claims, finishes, and the panic shows.)
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while cache.stats().entries < 2 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the batch waits for a held key before fulfilling its own"
                );
                std::thread::yield_now();
            }
            assert_eq!(v.verifications(), 2);
            held_elsewhere.fulfill(true);
            assert_eq!(batch.join().expect("no panic"), [true, true, false]);
        });
        // The verdict published here answered the middle key: parked on
        // the flight, or — reaching `check` only after — cached. Either
        // way it was not verified again.
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits + stats.coalesced, 1);
        assert_eq!(v.verifications(), 2, "the two keys the batch claimed");
    }

    #[test]
    fn a_panic_inside_the_batch_drops_every_guard_so_waiters_reclaim() {
        let v = verifier(None, 1);
        let cache = Arc::clone(v.sig_cache());
        let keys = keys(60, 8);
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let waiter_runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let batch = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    v.check_batch(&keys, |claimed| {
                        claimed_tx.send(claimed.len()).expect("test is listening");
                        release_rx
                            .lock()
                            .expect("single user")
                            .recv()
                            .expect("released");
                        panic!("the batch fails with eight claims held");
                    })
                }))
            });
            assert_eq!(claimed_rx.recv().expect("batch started"), 8);
            // All eight are held: a caller that may not wait is told so.
            assert!(keys
                .iter()
                .all(|k| matches!(cache.try_claim(k), TryClaim::Busy)));
            // Two callers that may wait do, on the first and last key.
            let waiters: Vec<_> = [0, 7]
                .into_iter()
                .map(|i| {
                    let (v, key, runs) = (&v, &keys[i], &waiter_runs);
                    s.spawn(move || {
                        v.check(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            true
                        })
                    })
                })
                .collect();
            release_tx.send(()).expect("batch is waiting");
            assert!(
                batch.join().expect("caught").is_err(),
                "the panic propagates"
            );
            for waiter in waiters {
                assert!(waiter.join().expect("no panic"), "its own verdict");
            }
        });
        // No verdict came out of the failed batch: each waiter was handed
        // the claim and verified, and the six keys nobody waited for are
        // free — not busy, not cached.
        assert_eq!(waiter_runs.load(Ordering::SeqCst), 2);
        assert_eq!(v.verifications(), 8 + 2);
        for key in &keys[1..7] {
            assert!(matches!(cache.try_claim(key), TryClaim::Verify(_)));
        }
    }

    fn known(cert: &crate::Certificate) -> Arc<KnownCert> {
        KnownCert::resolve(&cert.to_bytes()).expect("a certificate's own bytes parse")
    }

    #[test]
    fn trusted_without_anchors_accepts_and_with_anchors_checks_the_chain() {
        let mut msp = Msp::new(2);
        let peer = msp.issue(0, Role::Peer, 0).unwrap();
        let cert = known(peer.certificate());
        // Still parses, no longer what the CA signed.
        let mut forged = peer.certificate().clone();
        forged.serial += 1;
        let forged = known(&forged);
        assert!(verifier(None, 1).trusted(&forged));
        let v = verifier(Some(msp), 1);
        assert!(v.trusted(&cert));
        assert!(v.trusted(&cert), "memoized");
        assert!(!v.trusted(&forged));
        assert_eq!(v.cert_memo.lock().len(), 2);
    }

    #[test]
    fn cert_memo_stays_within_its_bound_under_certificate_churn() {
        // An untrusted submitter sends a fresh certificate per envelope:
        // each names an organization the anchors do not know, so every
        // one is rejected — and none may cost memory beyond the bound.
        let _one_at_a_time = crate::identity::REGISTRY_TESTS
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut msp = Msp::new(2);
        let template = msp.issue(0, Role::Client, 0).unwrap().certificate().clone();
        let v = verifier(Some(msp), 1);
        for serial in 0..(CERT_MEMO_CAPACITY as u64 + 100) {
            let mut forged = template.clone();
            forged.node_id.org = 9;
            forged.serial = serial;
            assert!(
                !v.trusted(&known(&forged)),
                "forged certificate {serial} accepted"
            );
            assert!(v.cert_memo.lock().len() <= CERT_MEMO_CAPACITY);
        }
        assert!(
            v.trusted(&known(&template)),
            "honest certificate after the churn"
        );
    }

    #[test]
    fn concurrent_resolvers_of_one_certificate_share_one_memo_verdict() {
        let mut msp = Msp::new(1);
        let bytes = msp
            .issue(0, Role::Peer, 3)
            .unwrap()
            .certificate()
            .to_bytes();
        let v = verifier(Some(msp), 1);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    let cert = KnownCert::resolve(&bytes).unwrap();
                    assert_eq!(cert.to_bytes(), bytes);
                    assert!(v.trusted(&cert));
                });
            }
        });
        assert_eq!(v.cert_memo.lock().len(), 1);
    }
}
