//! Wycheproof-style edge vectors for the ECDSA *scalar* arithmetic.
//!
//! Every mod-`n` quantity in verification — `bits2int` folding of the
//! digest, `s⁻¹`, the `u1`/`u2` derivation — runs on one scalar field
//! (the Montgomery domain on `n`, `p256().fn_`), so this file pins the
//! scalar values where that arithmetic saturates: `r` or `s` at
//! `n − 1`, `s = 1` (whose inverse is the identity), and digests at or
//! above `n` (which `bits2int` must fold, not truncate).
//!
//! Every ECDSA-level vector is asserted identical on the optimized and
//! the preserved Shamir path. The vectors are forged, and the
//! scalar-domain computations (`u1`/`u2`, `s⁻¹`) cross-checked, with
//! plain long division — arithmetic that shares nothing with the
//! domain under test.

use fabric_crypto::bigint::{inv_mod_odd, U256};
use fabric_crypto::curve::{mul_fixed_base, p256};
use fabric_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use fabric_crypto::sha256::sha256;

fn test_key() -> SigningKey {
    SigningKey::from_seed(b"scalar-edge-vectors")
}

/// Asserts both verification paths produce the same accept/reject
/// verdict, and returns it.
fn paths_agree(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let fast = vk.verify_prehashed(digest, sig);
    let shamir = vk.verify_prehashed_shamir(digest, sig);
    assert_eq!(
        fast.is_ok(),
        shamir.is_ok(),
        "fast ({fast:?}) and shamir ({shamir:?}) verdicts diverged for sig={sig:?}"
    );
    fast.is_ok()
}

/// Forges a digest so that the deterministic nonce relation
/// `s = k⁻¹(z + r·d) mod n` lands exactly on the requested `s`:
/// `z = s·k − r·d mod n`. Returns the signature and the digest bytes.
///
/// This is how Wycheproof builds its `s = 1` / `s = n − 1` acceptance
/// vectors: the signature is *valid* by construction, with the edge
/// value in the scalar slot.
fn forge_signature_with_s(key: &SigningKey, k: &U256, s_target: &U256) -> (Signature, [u8; 32]) {
    let n = &p256().order;
    let d = U256::from_be_bytes(&key.to_be_bytes());
    let point = mul_fixed_base(k).to_affine();
    let r = U256::from_be_bytes(&point.x_bytes()).reduce_once(n);
    assert!(!r.is_zero(), "pick a different k");
    // z = s·k − r·d (mod n), by long division.
    let sk = s_target.widening_mul(k).rem(n);
    let rd = r.widening_mul(&d).rem(n);
    let z = sk.sub_mod(&rd, n);
    let sig = Signature { r, s: *s_target };
    (sig, z.to_be_bytes())
}

#[test]
fn s_equal_one_verifies_on_both_paths() {
    // s = 1 means s⁻¹ = 1: the inverse-identity case every inversion
    // kernel (single, Fermat, batched) must map through untouched.
    let key = test_key();
    let (sig, digest) = forge_signature_with_s(&key, &U256::from_u64(0xdead_beef), &U256::ONE);
    assert_eq!(sig.s, U256::ONE);
    assert!(
        paths_agree(key.verifying_key(), &digest, &sig),
        "forged s = 1 signature must verify"
    );
    // The batched inversion agrees on the identity too.
    let sinvs = fabric_crypto::ecdsa::batch_s_inverses(&[sig]);
    assert_eq!(sinvs[0], U256::ONE);
    assert!(key
        .verifying_key()
        .verify_prehashed_with_sinv(&digest, &sig, &sinvs[0])
        .is_ok());
}

#[test]
fn s_equal_n_minus_one_verifies_on_both_paths() {
    // n − 1 ≡ −1 is its own inverse: the largest admissible s, one
    // below the range check's rejection line.
    let key = test_key();
    let n = p256().order;
    let nm1 = n.wrapping_sub(&U256::ONE);
    let (sig, digest) = forge_signature_with_s(&key, &U256::from_u64(0xc0ff_ee11), &nm1);
    assert_eq!(sig.s, nm1);
    assert!(
        paths_agree(key.verifying_key(), &digest, &sig),
        "forged s = n − 1 signature must verify"
    );
    let sinvs = fabric_crypto::ecdsa::batch_s_inverses(&[sig]);
    assert_eq!(sinvs[0], nm1, "−1 is its own inverse");
}

#[test]
fn r_equal_n_minus_one_rejected_identically() {
    // No P-256 point has x ≡ n − 1 for the test nonces used here, so
    // this is a rejection vector: what matters is that the boundary r
    // passes the range check (it is < n) and both paths walk the full
    // curve arithmetic to the same verdict.
    let key = test_key();
    let digest = sha256(b"r at n-1");
    let good = key.sign_prehashed(&digest);
    let nm1 = p256().order.wrapping_sub(&U256::ONE);
    let sig = Signature { r: nm1, s: good.s };
    assert!(
        !paths_agree(key.verifying_key(), &digest, &sig),
        "r = n − 1 with an unrelated s must not verify"
    );
}

#[test]
fn digests_at_and_above_n_fold_identically() {
    // bits2int: a 256-bit digest ≥ n must be folded mod n, and any two
    // digests that differ by exactly n (as 256-bit integers) are the
    // *same* message to ECDSA. Sign the folded digest, then present the
    // unfolded twin: both paths must accept both forms.
    let key = test_key();
    let vk = key.verifying_key();
    let n = p256().order;
    for (what, z) in [
        ("z = 0 (digest = n folds to zero)", U256::ZERO),
        ("z = 1", U256::ONE),
        ("z = 2^256 − 1 − n", U256::MAX.wrapping_sub(&n)),
        (
            "z just below the fold window",
            U256::MAX.wrapping_sub(&n).wrapping_sub(&U256::from_u64(7)),
        ),
    ] {
        let folded = z.to_be_bytes();
        let (unfolded_v, carry) = z.overflowing_add(&n);
        assert!(!carry, "{what}: twin must fit in 256 bits");
        let unfolded = unfolded_v.to_be_bytes();
        let sig = key.sign_prehashed(&folded);
        assert!(paths_agree(vk, &folded, &sig), "{what}: folded digest");
        assert!(
            paths_agree(vk, &unfolded, &sig),
            "{what}: digest + n must verify identically (bits2int folding)"
        );
        // And signing the unfolded digest yields the identical signature.
        assert_eq!(
            key.sign_prehashed(&unfolded),
            sig,
            "{what}: RFC 6979 reduces the digest before the nonce"
        );
    }
    // The all-ones digest (the largest possible bits2int input).
    let max = [0xffu8; 32];
    let sig = key.sign_prehashed(&max);
    assert!(paths_agree(vk, &max, &sig), "all-ones digest");
}

/// The scalar edge values through the scalar field the verify path
/// runs on: inversion and the `u1`/`u2` derivation must match plain
/// long division bit for bit.
#[test]
fn edge_scalars_match_long_division() {
    let m = &p256().fn_;
    let n = p256().order;
    let nm1 = n.wrapping_sub(&U256::ONE);
    let edge = [
        U256::ONE,
        U256::from_u64(2),
        nm1,
        n.wrapping_sub(&U256::from_u64(2)),
        U256::MAX.rem(&n),
        U256([0, 0, 0, 1 << 63]).rem(&n),
    ];
    for s in &edge {
        // s⁻¹ as the verify path computes it, and through the domain.
        let sinv = inv_mod_odd(s, &n).unwrap();
        assert_eq!(
            s.widening_mul(&sinv).rem(&n),
            U256::ONE,
            "s·s⁻¹ ≠ 1 for s={s:?}"
        );
        let via_domain = m.from_mont(&m.inv(&m.to_mont(s)).unwrap());
        assert_eq!(via_domain, sinv, "s⁻¹ diverged for s={s:?}");
        let sinv_m = m.to_mont(&sinv);
        for z in &edge {
            // u1 = z·s⁻¹ (and u2 = r·s⁻¹ over the same edge set) — the
            // exact per-signature flow: one domain entry, plain result.
            assert_eq!(
                m.mul(&sinv_m, z),
                z.widening_mul(&sinv).rem(&n),
                "u diverged at z={z:?} s={s:?}"
            );
        }
    }
    // Batched inversion over the whole edge set.
    let mut vals: Vec<U256> = edge.iter().map(|v| m.to_mont(v)).collect();
    assert!(m.batch_inv(&mut vals).iter().all(|&ok| ok));
    for (v, s) in vals.iter().zip(&edge) {
        assert_eq!(Some(m.from_mont(v)), inv_mod_odd(s, &n));
    }
}
