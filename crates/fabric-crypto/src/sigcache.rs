//! Sharded LRU signature-verification cache.
//!
//! Fabric blocks carry heavy signature redundancy: the same endorser
//! signs many transactions, gossip can deliver the same envelope twice,
//! and re-validation after reconfiguration replays identical signatures.
//! The Blockchain Machine gets this dedup for free — its hardware
//! `ecdsa_engine` bank is fronted by the protocol's identity/annotation
//! cache — so the software validator mirrors it: a verification result
//! keyed by `SHA-256(pubkey ‖ digest ‖ r ‖ s)` is cached, and a repeated
//! `(key, message, signature)` triple never reaches the ECDSA engine
//! twice.
//!
//! The cache is sharded 16 ways (key-prefix selects the shard) so the
//! vscc worker threads rarely contend on the same lock, and each shard
//! is a classic arena-backed doubly-linked LRU with O(1) lookup, insert,
//! touch, and eviction. Both positive *and* negative verdicts are
//! cached: an attacker replaying a bad signature hits the cache instead
//! of burning a verification.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::sha256::{sha256, sha256_many};
use crate::{Signature, VerifyingKey};

const SHARDS: usize = 16;

/// Cache key: SHA-256 over the SEC1 public key, the message digest, and
/// the raw `(r, s)` pair. 32 bytes of collision-resistant identity for a
/// (key, message, signature) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigCacheKey([u8; 32]);

impl SigCacheKey {
    /// What a key is the SHA-256 of: SEC1 point ‖ digest ‖ raw `r‖s`,
    /// 161 bytes.
    fn preimage(key: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> [u8; 161] {
        let mut bytes = [0u8; 161];
        bytes[..65].copy_from_slice(&key.to_sec1_bytes());
        bytes[65..97].copy_from_slice(digest);
        bytes[97..].copy_from_slice(&sig.to_raw_bytes());
        bytes
    }

    /// Derives the cache key for a verification triple.
    pub fn compute(key: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> Self {
        SigCacheKey(sha256(&Self::preimage(key, digest, sig)))
    }

    /// [`Self::compute`] for every triple, in order, hashed as one batch
    /// ([`sha256_many`]: sixteen keys to a pass where the CPU has the
    /// lanes for it).
    pub fn compute_many<'a>(
        triples: impl IntoIterator<Item = (&'a VerifyingKey, &'a [u8; 32], &'a Signature)>,
    ) -> Vec<Self> {
        let preimages: Vec<[u8; 161]> = triples
            .into_iter()
            .map(|(key, digest, sig)| Self::preimage(key, digest, sig))
            .collect();
        let preimages: Vec<&[u8]> = preimages.iter().map(|p| &p[..]).collect();
        sha256_many(&preimages)
            .into_iter()
            .map(SigCacheKey)
            .collect()
    }

    /// Wraps a precomputed 32-byte key digest. The differential test
    /// harness uses this to pin [`Self::compute`]'s derivation to the
    /// plain byte encodings (SEC1 key ‖ digest ‖ raw `r‖s`), which is
    /// what makes cached verdicts independent of the active field
    /// backend.
    pub fn from_bytes(digest: [u8; 32]) -> Self {
        SigCacheKey(digest)
    }

    fn shard(&self) -> usize {
        self.0[0] as usize % SHARDS
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to real verification.
    pub misses: u64,
    /// Claims that waited on an in-flight verification instead of
    /// running their own (thundering-herd dedup).
    pub coalesced: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries across all shards.
    pub capacity: usize,
}

impl SigCacheStats {
    /// Hit rate in [0, 1]; 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded LRU cache of signature-verification verdicts.
#[derive(Debug)]
pub struct SignatureCache {
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// One in-flight verification: waiters block on the condvar until the
/// claimant publishes a verdict (or abandons, forcing a re-claim).
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug, Clone, Copy)]
enum FlightState {
    Pending,
    Done(bool),
    Abandoned,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::named("peer.sigcache.flight", FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, state: FlightState) {
        *self.state.lock() = state;
        self.cv.notify_all();
    }
}

/// Outcome of [`SignatureCache::claim`]: either a verdict is already
/// available (cached, or produced by a concurrent claimant we waited
/// on), or the caller holds the exclusive claim and must verify.
#[derive(Debug)]
pub enum Claim<'a> {
    /// A verdict was available without verifying.
    Verdict(bool),
    /// The caller owns the verification for this key; every concurrent
    /// `claim` on the same key blocks until the guard is fulfilled (or
    /// dropped, which wakes the waiters to re-claim).
    Verify(ClaimGuard<'a>),
}

/// Outcome of [`SignatureCache::try_claim`]: [`Claim`] for a caller that
/// must not wait.
#[derive(Debug)]
pub enum TryClaim<'a> {
    /// A verdict was cached.
    Verdict(bool),
    /// The caller owns the verification for this key, as with
    /// [`Claim::Verify`].
    Verify(ClaimGuard<'a>),
    /// Another caller holds the claim and has not published yet.
    Busy,
}

/// What a key's shard says about it, read under the shard lock.
enum Probe<'a> {
    Verdict(bool),
    Verify(ClaimGuard<'a>),
    InFlight(Arc<Flight>),
}

/// Exclusive right to verify one cache key. Call
/// [`ClaimGuard::fulfill`] with the verdict; dropping the guard without
/// fulfilling (panic, early return) releases the claim so a waiter can
/// retry instead of deadlocking.
#[derive(Debug)]
pub struct ClaimGuard<'a> {
    cache: &'a SignatureCache,
    key: SigCacheKey,
    flight: Arc<Flight>,
    done: bool,
}

impl ClaimGuard<'_> {
    /// Publishes the verdict: inserts it into the cache, then wakes
    /// every waiter coalesced behind this claim.
    pub fn fulfill(mut self, valid: bool) {
        self.done = true;
        {
            let mut shard = self.cache.shards[self.key.shard()].lock();
            shard.insert(self.key, valid);
            shard.inflight.remove(&self.key);
        }
        self.flight.resolve(FlightState::Done(valid));
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Abandoned claim (panic or early return in the verifier):
        // unpark the waiters so one of them re-claims the key.
        {
            let mut shard = self.cache.shards[self.key.shard()].lock();
            shard.inflight.remove(&self.key);
        }
        self.flight.resolve(FlightState::Abandoned);
    }
}

impl SignatureCache {
    /// Creates a cache holding up to `capacity` verdicts (rounded up to
    /// a multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        SignatureCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::named("peer.sigcache.shard", LruShard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Looks up a verdict or claims the right to produce one.
    ///
    /// Exactly one caller per key gets [`Claim::Verify`] at a time;
    /// concurrent callers for the same key block until the claimant
    /// publishes (they then return [`Claim::Verdict`] and count as
    /// `coalesced` in [`Self::stats`]) — so a thundering herd on one
    /// `(key, digest, sig)` triple runs a single ECDSA verification.
    pub fn claim(&self, key: &SigCacheKey) -> Claim<'_> {
        loop {
            let flight = match self.probe(key) {
                Probe::Verdict(valid) => return Claim::Verdict(valid),
                Probe::Verify(guard) => return Claim::Verify(guard),
                Probe::InFlight(flight) => flight,
            };
            // Wait outside the shard lock: the claimant needs it to
            // publish, and unrelated keys must not stall behind us.
            let mut state = flight.state.lock();
            loop {
                match *state {
                    FlightState::Done(valid) => {
                        // relaxed: monotonic stats counter; never gates data visibility
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Claim::Verdict(valid);
                    }
                    FlightState::Abandoned => break,
                    FlightState::Pending => {
                        state = flight.cv.wait(state);
                    }
                }
            }
            // Claimant abandoned: retry; one of the waiters re-claims.
        }
    }

    /// [`Self::claim`] that never waits: a key another caller is
    /// verifying is reported [`TryClaim::Busy`] (and counts as nothing)
    /// instead of blocking until that verdict. For a caller that
    /// already holds claims — waiting while holding one is how two
    /// callers whose key sets overlap deadlock.
    pub fn try_claim(&self, key: &SigCacheKey) -> TryClaim<'_> {
        match self.probe(key) {
            Probe::Verdict(valid) => TryClaim::Verdict(valid),
            Probe::Verify(guard) => TryClaim::Verify(guard),
            Probe::InFlight(_) => TryClaim::Busy,
        }
    }

    /// One look at `key`'s shard: the cached verdict (a counted hit), the
    /// flight of whoever is verifying it, or — neither — a new flight
    /// and its claim (a counted miss).
    fn probe(&self, key: &SigCacheKey) -> Probe<'_> {
        let mut shard = self.shards[key.shard()].lock();
        if let Some(valid) = shard.get(key) {
            // relaxed: monotonic stats counter; never gates data visibility
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Probe::Verdict(valid);
        }
        if let Some(flight) = shard.inflight.get(key) {
            return Probe::InFlight(Arc::clone(flight));
        }
        // relaxed: monotonic stats counter; never gates data visibility
        self.misses.fetch_add(1, Ordering::Relaxed);
        let flight = Arc::new(Flight::new());
        shard.inflight.insert(*key, Arc::clone(&flight));
        Probe::Verify(ClaimGuard {
            cache: self,
            key: *key,
            flight,
            done: false,
        })
    }

    /// Looks up a verdict without claiming the key. A hit counts and
    /// refreshes recency exactly as [`Self::claim`]'s does; a miss counts
    /// nothing (the `claim` that follows does); a key in flight is a miss.
    pub fn lookup(&self, key: &SigCacheKey) -> Option<bool> {
        let valid = self.shards[key.shard()].lock().get(key)?;
        // relaxed: monotonic stats counter; never gates data visibility
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(valid)
    }

    /// [`Self::lookup`] that counts a miss too.
    pub fn get(&self, key: &SigCacheKey) -> Option<bool> {
        let verdict = self.lookup(key);
        if verdict.is_none() {
            // relaxed: monotonic stats counter; never gates data visibility
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Records a verdict, evicting the least-recently-used entry if the
    /// shard is full. Also resolves any in-flight claim on the key so
    /// waiters pick up the externally supplied verdict.
    pub fn insert(&self, key: SigCacheKey, valid: bool) {
        let flight = {
            let mut shard = self.shards[key.shard()].lock();
            shard.insert(key, valid);
            shard.inflight.remove(&key)
        };
        if let Some(flight) = flight {
            flight.resolve(FlightState::Done(valid));
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> SigCacheStats {
        let entries = self.shards.iter().map(|s| s.lock().map.len()).sum();
        let capacity =
            self.shards.len() * self.shards.first().map(|s| s.lock().capacity).unwrap_or(0);
        SigCacheStats {
            // relaxed: stats snapshot; counters are independent and approximate
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: SigCacheKey,
    valid: bool,
    prev: usize,
    next: usize,
}

/// One shard: hash map into a slot arena threaded as a doubly-linked
/// recency list (head = most recent, tail = eviction candidate).
#[derive(Debug)]
struct LruShard {
    capacity: usize,
    map: HashMap<SigCacheKey, usize>,
    arena: Vec<Entry>,
    head: usize,
    tail: usize,
    /// Keys currently being verified by a claimant; waiters coalesce on
    /// the flight instead of verifying themselves.
    inflight: HashMap<SigCacheKey, Arc<Flight>>,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            capacity,
            map: HashMap::with_capacity(capacity),
            arena: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            inflight: HashMap::new(),
        }
    }

    fn get(&mut self, key: &SigCacheKey) -> Option<bool> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(self.arena[idx].valid)
    }

    fn insert(&mut self, key: SigCacheKey, valid: bool) {
        if let Some(&idx) = self.map.get(&key) {
            self.arena[idx].valid = valid;
            self.touch(idx);
            return;
        }
        let idx = if self.arena.len() < self.capacity {
            self.arena.push(Entry {
                key,
                valid,
                prev: NIL,
                next: NIL,
            });
            self.arena.len() - 1
        } else {
            // Evict the tail slot and reuse it.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = self.arena[idx].key;
            self.map.remove(&old_key);
            self.arena[idx] = Entry {
                key,
                valid,
                prev: NIL,
                next: NIL,
            };
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Moves an existing linked entry to the front.
    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.arena[idx].prev, self.arena[idx].next);
        if prev != NIL {
            self.arena[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.arena[idx].prev = NIL;
        self.arena[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.arena[idx].prev = NIL;
        self.arena[idx].next = self.head;
        if self.head != NIL {
            self.arena[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::SigningKey;
    use crate::sha256;

    fn triple(tag: u8) -> (VerifyingKey, [u8; 32], Signature) {
        let key = SigningKey::from_seed(&[tag]);
        let digest = sha256(&[tag, 1, 2, 3]);
        let sig = key.sign_prehashed(&digest);
        (key.verifying_key().clone(), digest, sig)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = SignatureCache::new(64);
        let (vk, digest, sig) = triple(1);
        let key = SigCacheKey::compute(&vk, &digest, &sig);
        assert_eq!(cache.get(&key), None);
        cache.insert(key, true);
        assert_eq!(cache.get(&key), Some(true));
        assert_eq!(cache.get(&key), Some(true));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_counts_hits_only_and_does_not_see_a_key_in_flight() {
        let cache = SignatureCache::new(64);
        let key = SigCacheKey::from_bytes(sha256(b"lookup"));
        assert_eq!(cache.lookup(&key), None);
        let Claim::Verify(guard) = cache.claim(&key) else {
            panic!("fresh key cannot have a verdict");
        };
        assert_eq!(cache.lookup(&key), None, "in flight is not cached");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "only the claim counted");
        guard.fulfill(true);
        assert_eq!(cache.lookup(&key), Some(true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn try_claim_reports_a_held_key_busy_without_waiting_or_counting() {
        let cache = SignatureCache::new(64);
        let key = SigCacheKey::from_bytes(sha256(b"try-claim"));
        let TryClaim::Verify(guard) = cache.try_claim(&key) else {
            panic!("fresh key: the claim is free");
        };
        assert!(matches!(cache.try_claim(&key), TryClaim::Busy));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.coalesced),
            (0, 1, 0),
            "only the claim that was handed out counted"
        );
        guard.fulfill(false);
        assert!(matches!(cache.try_claim(&key), TryClaim::Verdict(false)));
        assert_eq!(cache.stats().hits, 1);
        // An abandoned claim is free again, not busy.
        let other = SigCacheKey::from_bytes(sha256(b"try-claim-abandoned"));
        drop(cache.try_claim(&other));
        assert!(matches!(cache.try_claim(&other), TryClaim::Verify(_)));
    }

    #[test]
    fn lookup_refreshes_recency_like_a_claim() {
        // Two-entry shard: touching the older entry makes the other one
        // the eviction candidate.
        let cache = SignatureCache::new(2 * SHARDS);
        let same_shard: Vec<SigCacheKey> = (0..=u8::MAX)
            .map(|i| SigCacheKey(sha256(&[i])))
            .filter(|k| k.shard() == 0)
            .take(3)
            .collect();
        let (a, b, c) = (same_shard[0], same_shard[1], same_shard[2]);
        cache.insert(a, true);
        cache.insert(b, true);
        assert_eq!(cache.lookup(&a), Some(true));
        cache.insert(c, true);
        assert_eq!(cache.lookup(&a), Some(true), "refreshed, so kept");
        assert_eq!(cache.lookup(&b), None, "the stale one was evicted");
    }

    #[test]
    fn negative_verdicts_are_cached_too() {
        let cache = SignatureCache::new(64);
        let (vk, digest, mut sig) = triple(2);
        sig.r = sig.s; // garbage but in-range
        let key = SigCacheKey::compute(&vk, &digest, &sig);
        cache.insert(key, false);
        assert_eq!(cache.get(&key), Some(false));
    }

    #[test]
    fn distinct_triples_get_distinct_keys() {
        let (vk1, d1, s1) = triple(3);
        let (vk2, d2, s2) = triple(4);
        assert_ne!(
            SigCacheKey::compute(&vk1, &d1, &s1),
            SigCacheKey::compute(&vk2, &d2, &s2)
        );
        // Same key+digest, different signature: distinct entry.
        assert_ne!(
            SigCacheKey::compute(&vk1, &d1, &s1),
            SigCacheKey::compute(&vk1, &d1, &s2)
        );
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // One-entry shards: every insert evicts the shard's prior entry.
        let cache = SignatureCache::new(SHARDS);
        let (vk, digest, sig) = triple(5);
        let a = SigCacheKey::compute(&vk, &digest, &sig);
        cache.insert(a, true);
        assert_eq!(cache.get(&a), Some(true));
        // Find another key landing in the same shard, then insert it.
        let mut tag = 6u8;
        let b = loop {
            let (vk2, d2, s2) = triple(tag);
            let candidate = SigCacheKey::compute(&vk2, &d2, &s2);
            if candidate.shard() == a.shard() {
                break candidate;
            }
            tag += 1;
        };
        cache.insert(b, true);
        assert_eq!(cache.get(&b), Some(true));
        assert_eq!(cache.get(&a), None, "old entry evicted from full shard");
    }

    #[test]
    fn concurrent_probes_coalesce_into_one_verify() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let cache = SignatureCache::new(64);
        let (vk, digest, sig) = triple(7);
        let key = SigCacheKey::compute(&vk, &digest, &sig);
        const PROBES: usize = 8;
        let barrier = Barrier::new(PROBES);
        let verifies = AtomicUsize::new(0);

        std::thread::scope(|s| {
            for _ in 0..PROBES {
                s.spawn(|| {
                    barrier.wait();
                    let valid = match cache.claim(&key) {
                        Claim::Verdict(v) => v,
                        Claim::Verify(guard) => {
                            verifies.fetch_add(1, Ordering::SeqCst);
                            // Slow verify: keep the claim open long
                            // enough that the other probes pile up.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            let ok = vk.verify_prehashed(&digest, &sig).is_ok();
                            guard.fulfill(ok);
                            ok
                        }
                    };
                    assert!(valid, "all probes must see the real verdict");
                });
            }
        });

        assert_eq!(
            verifies.load(Ordering::SeqCst),
            1,
            "exactly one probe runs the ECDSA verify; the herd coalesces"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced + stats.hits, (PROBES - 1) as u64);
        assert_eq!(cache.get(&key), Some(true));
    }

    #[test]
    fn abandoned_claim_wakes_a_waiter_to_retry() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        let cache = SignatureCache::new(64);
        let key = SigCacheKey::from_bytes(sha256(b"abandoned"));
        let barrier = Barrier::new(2);
        let claims = AtomicUsize::new(0);

        std::thread::scope(|s| {
            s.spawn(|| {
                // First claimant: drop the guard without a verdict.
                if let Claim::Verify(guard) = cache.claim(&key) {
                    claims.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    drop(guard);
                } else {
                    panic!("first claim must win the verify slot");
                }
            });
            s.spawn(|| {
                barrier.wait();
                // Second probe blocks on the flight, then must be handed
                // the claim (not a verdict) once the first abandons.
                match cache.claim(&key) {
                    Claim::Verify(guard) => {
                        claims.fetch_add(1, Ordering::SeqCst);
                        guard.fulfill(false);
                    }
                    Claim::Verdict(_) => panic!("abandoned flight must not yield a verdict"),
                }
            });
        });

        assert_eq!(claims.load(Ordering::SeqCst), 2);
        assert_eq!(cache.get(&key), Some(false));
    }

    #[test]
    fn external_insert_resolves_inflight_claim() {
        let cache = SignatureCache::new(64);
        let key = SigCacheKey::from_bytes(sha256(b"external-insert"));
        let guard = match cache.claim(&key) {
            Claim::Verify(g) => g,
            Claim::Verdict(_) => panic!("fresh key cannot have a verdict"),
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.claim(&key));
            // Give the waiter a moment to park on the flight, then
            // resolve it via a plain insert (e.g. an admission-side
            // verifier publishing through the shared cache).
            std::thread::sleep(std::time::Duration::from_millis(20));
            cache.insert(key, true);
            match waiter.join().unwrap() {
                Claim::Verdict(v) => assert!(v),
                Claim::Verify(_) => panic!("insert must resolve the waiter"),
            }
        });
        // The original claimant publishing afterwards is harmless.
        guard.fulfill(true);
        assert_eq!(cache.get(&key), Some(true));
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let cache = SignatureCache::new(32);
        let keys: Vec<SigCacheKey> = (0..200u8).map(|i| SigCacheKey(sha256(&[i]))).collect();
        for (i, k) in keys.iter().enumerate() {
            cache.insert(*k, i % 2 == 0);
        }
        let stats = cache.stats();
        assert!(stats.entries <= stats.capacity);
        // Recently inserted keys should mostly be resident; verify the
        // very last one is.
        assert_eq!(cache.get(keys.last().unwrap()), Some(false));
    }
}
