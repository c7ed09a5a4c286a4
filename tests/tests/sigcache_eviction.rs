//! Eviction-safety and accounting tests for the sharded LRU signature
//! cache.
//!
//! The cache stores *verdicts*, including negative ones, so the one
//! security property that matters under churn is: an invalid signature
//! must never surface as valid — not after eviction, not after
//! re-insert, not after any interleaving of the two. These tests drive
//! the cache far past capacity and assert that invariant, plus the
//! hit/miss accounting the reference benchmark reports as
//! `sigcache.hit_rate` / `sigcache.misses` (each probe
//! increments exactly one counter; per-pass rates are derived from
//! stats deltas, never double-counted).

use fabric_crypto::ecdsa::{Signature, SigningKey};
use fabric_crypto::sha256::sha256;
use fabric_crypto::VerifyingKey;
use fabric_peer::{SigCacheKey, SignatureCache};

/// A (key, digest, signature) triple whose signature is *invalid* for
/// the digest (signed over a different message).
fn invalid_triple(tag: u8) -> (VerifyingKey, [u8; 32], Signature) {
    let key = SigningKey::from_seed(&[b'e', b'v', tag]);
    let digest = sha256(&[tag, 0xAA]);
    let sig = key.sign_prehashed(&sha256(&[tag, 0xBB])); // wrong message
    let vk = key.verifying_key().clone();
    assert!(vk.verify_prehashed(&digest, &sig).is_err());
    (vk, digest, sig)
}

/// Re-derives the cache verdict the way the validator pipeline does:
/// consult the cache, fall back to real verification, insert.
fn lookup_or_verify(
    cache: &SignatureCache,
    vk: &VerifyingKey,
    digest: &[u8; 32],
    sig: &Signature,
) -> bool {
    let key = SigCacheKey::compute(vk, digest, sig);
    if let Some(verdict) = cache.get(&key) {
        return verdict;
    }
    let valid = vk.verify_prehashed(digest, sig).is_ok();
    cache.insert(key, valid);
    valid
}

#[test]
fn evicted_invalid_verdict_never_resurfaces_as_valid() {
    // Capacity 16 → one entry per shard: every insert into a shard
    // evicts whatever was there, the most hostile configuration.
    let cache = SignatureCache::new(16);
    let (vk, digest, sig) = invalid_triple(1);
    let key = SigCacheKey::compute(&vk, &digest, &sig);

    assert!(!lookup_or_verify(&cache, &vk, &digest, &sig));
    assert_eq!(cache.get(&key), Some(false));

    // Churn the cache far past capacity, several times over, with
    // interleaved probes of the invalid triple. The probe may miss
    // (evicted) or hit `false`; it must never hit `true`, and the
    // pipeline-style re-derivation must keep answering "invalid".
    for round in 0u32..10 {
        for i in 0..64u32 {
            let filler = SigCacheKey::from_bytes(sha256(&(round * 1000 + i).to_be_bytes()));
            cache.insert(filler, true); // plausible: most real traffic is valid
        }
        match cache.get(&key) {
            None | Some(false) => {}
            Some(true) => panic!("invalid signature reported valid after eviction (round {round})"),
        }
        assert!(
            !lookup_or_verify(&cache, &vk, &digest, &sig),
            "re-derived verdict flipped to valid (round {round})"
        );
    }
}

#[test]
fn verdicts_do_not_leak_across_triples_under_churn() {
    let cache = SignatureCache::new(16);
    // Cache a *valid* triple and an *invalid* one, then churn. Whatever
    // survives, each triple's re-derived verdict must stay its own.
    let signer = SigningKey::from_seed(b"leak-check");
    let good_digest = sha256(b"good");
    let good_sig = signer.sign_prehashed(&good_digest);
    let good_vk = signer.verifying_key().clone();
    let (bad_vk, bad_digest, bad_sig) = invalid_triple(7);

    for i in 0..500u32 {
        let filler = SigCacheKey::from_bytes(sha256(&i.to_be_bytes()));
        cache.insert(filler, i % 2 == 0);
        if i % 50 == 0 {
            assert!(lookup_or_verify(&cache, &good_vk, &good_digest, &good_sig));
            assert!(!lookup_or_verify(&cache, &bad_vk, &bad_digest, &bad_sig));
        }
    }
    let stats = cache.stats();
    assert!(stats.entries <= stats.capacity, "{stats:?}");
}

#[test]
fn every_probe_increments_exactly_one_counter() {
    let cache = SignatureCache::new(64);
    let keys: Vec<SigCacheKey> = (0..100u32)
        .map(|i| SigCacheKey::from_bytes(sha256(&i.to_be_bytes())))
        .collect();
    let mut expected_probes = 0u64;
    for (i, k) in keys.iter().enumerate() {
        cache.get(k); // miss
        expected_probes += 1;
        cache.insert(*k, true);
        if i % 3 == 0 {
            cache.get(k); // hit (just inserted, still resident)
            expected_probes += 1;
        }
    }
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        expected_probes,
        "hit/miss accounting must be one increment per probe, {stats:?}"
    );
    assert!(stats.hits >= 1 && stats.misses >= keys.len() as u64);
    let rate = stats.hit_rate();
    assert_eq!(rate, stats.hits as f64 / expected_probes as f64);
}

/// Per-pass hit rates are stats *deltas*, which is what the benchmark
/// reports: a cold pass is all misses, a warm replay of the same
/// probes is all hits — the cumulative 0.5 is the blend of the two,
/// not a double-count.
#[test]
fn per_pass_hit_rates_derive_from_stats_deltas() {
    let cache = SignatureCache::new(1024);
    let keys: Vec<SigCacheKey> = (0..50u32)
        .map(|i| SigCacheKey::from_bytes(sha256(&[b'p', i as u8])))
        .collect();

    let s0 = cache.stats();
    for k in &keys {
        if cache.get(k).is_none() {
            cache.insert(*k, true);
        }
    }
    let s1 = cache.stats();
    for k in &keys {
        assert_eq!(cache.get(k), Some(true));
    }
    let s2 = cache.stats();

    let cold_hits = s1.hits - s0.hits;
    let cold_misses = s1.misses - s0.misses;
    let warm_hits = s2.hits - s1.hits;
    let warm_misses = s2.misses - s1.misses;
    assert_eq!((cold_hits, cold_misses), (0, keys.len() as u64));
    assert_eq!((warm_hits, warm_misses), (keys.len() as u64, 0));
    // The cumulative rate blends the passes to exactly 1/2 — the
    // "suspicious 0.500" the benchmark used to print. The per-pass
    // rates are the meaningful ones.
    assert_eq!(s2.hit_rate(), 0.5);
    assert_eq!(warm_hits as f64 / (warm_hits + warm_misses) as f64, 1.0);
}
