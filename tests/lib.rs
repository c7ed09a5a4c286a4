//! Integration test package; all tests live under `tests/`. What more
//! than one of them needs lives here.

use fabric_crypto::bigint::U256;
use fabric_crypto::curve::p256;
use fabric_crypto::ecdsa::{
    batch_s_inverses, verify_batch, BatchItem, Signature, SigningKey, VerifyingKey, BATCH_LANES,
};
use fabric_crypto::sha256::sha256;

/// Says on standard error when `verify_batch` has no eight-lane kernel
/// to run on this processor, so a log shows that `test`'s lane arm had
/// only the scalar loop to compare with itself.
pub fn note_if_lanes_absent(test: &str) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        return;
    }
    eprintln!("{test}: no avx512ifma on this processor, verify_batch is the scalar loop");
}

/// `s⁻¹ mod n` as `batch_s_inverses` gives it, zero for an `s` out of
/// range.
pub fn s_inverse(sig: &Signature) -> U256 {
    batch_s_inverses(&[*sig])[0]
}

/// `verify_batch`'s verdict on one triple, asserted equal to
/// `verify_prehashed_with_sinv`'s in three batches: alone; in the last
/// lane of a full chunk behind seven valid signatures of another key;
/// and first in a chunk and a half of copies of itself.
pub fn batch_verdict(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let sinv = s_inverse(sig);
    let expected = vk.verify_prehashed_with_sinv(digest, sig, &sinv).is_ok();
    let item = BatchItem {
        key: vk,
        digest: *digest,
        sig: *sig,
        sinv,
    };
    assert_eq!(verify_batch(&[item]), [expected], "alone: {vk:?} {sig:?}");
    let filler_key = SigningKey::from_seed(b"batch-verdict-filler");
    let filler_digest = sha256(b"batch-verdict-filler");
    let filler_sig = filler_key.sign_prehashed(&filler_digest);
    let mut chunk = vec![
        BatchItem {
            key: filler_key.verifying_key(),
            digest: filler_digest,
            sig: filler_sig,
            sinv: s_inverse(&filler_sig),
        };
        BATCH_LANES - 1
    ];
    chunk.push(item);
    let mut verdicts = vec![true; BATCH_LANES - 1];
    verdicts.push(expected);
    assert_eq!(verify_batch(&chunk), verdicts, "last lane: {vk:?} {sig:?}");
    let copies = vec![item; BATCH_LANES + BATCH_LANES / 2];
    assert_eq!(
        verify_batch(&copies),
        vec![expected; copies.len()],
        "copies: {vk:?} {sig:?}"
    );
    // Out of range is refused before any arithmetic, by every path.
    let n = &p256().order;
    if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
        assert!(!expected);
    }
    expected
}
