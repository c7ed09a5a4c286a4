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

use fabric_crypto::bigint::{inv_mod_odd, U256, U512};
use fabric_crypto::curve::{mul_fixed_base, p256};
use fabric_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use fabric_crypto::sha256::sha256;

fn test_key() -> SigningKey {
    SigningKey::from_seed(b"scalar-edge-vectors")
}

/// Asserts both verification paths — and `verify_batch`, which on a
/// processor with AVX-512 IFMA is the eight-lane kernel — produce the
/// same accept/reject verdict, and returns it.
fn paths_agree(vk: &VerifyingKey, digest: &[u8; 32], sig: &Signature) -> bool {
    let fast = vk.verify_prehashed(digest, sig);
    let shamir = vk.verify_prehashed_shamir(digest, sig);
    assert_eq!(
        fast.is_ok(),
        shamir.is_ok(),
        "fast ({fast:?}) and shamir ({shamir:?}) verdicts diverged for sig={sig:?}"
    );
    assert_eq!(
        bmac_integration_tests::batch_verdict(vk, digest, sig),
        fast.is_ok(),
        "batch and fast ({fast:?}) verdicts diverged for sig={sig:?}"
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

/// `a⁻¹ mod n` as `a^(n−2)`, every product reduced by long division.
fn inverse_by_long_division(a: &U256, n: &U256) -> U256 {
    let e = n.wrapping_sub(&U256::from_u64(2));
    let mut acc = U256::ONE;
    for i in (0..e.bit_len()).rev() {
        acc = acc.widening_sqr().rem(n);
        if e.bit(i) {
            acc = acc.widening_mul(a).rem(n);
        }
    }
    acc
}

/// Forges a valid signature whose verification multiplies the key by
/// exactly `u2` (and the generator by `u1`): with `R = (u1 + u2·d)·G`
/// and `r = x(R) mod n`, `s = r·u2⁻¹` and `z = u1·s` make
/// `z·s⁻¹ = u1` and `r·s⁻¹ = u2`. Long division throughout; `R` comes
/// off the fixed-base comb, which shares no table with the per-key path.
fn forge_signature_with_u2(key: &SigningKey, u1: &U256, u2: &U256) -> (Signature, [u8; 32]) {
    let n = &p256().order;
    let d = U256::from_be_bytes(&key.to_be_bytes());
    let (sum, carry) = u1.overflowing_add(&u2.widening_mul(&d).rem(n));
    let mut k = U512::from_u256(&sum);
    k.0[4] = carry as u64;
    let k = k.rem(n);
    let point = mul_fixed_base(&k).to_affine();
    let r = U256::from_be_bytes(&point.x_bytes()).reduce_once(n);
    assert!(!point.infinity && !r.is_zero(), "pick a different u1");
    let s = r.widening_mul(&inverse_by_long_division(u2, n)).rem(n);
    let z = u1.widening_mul(&s).rem(n);
    (Signature { r, s }, z.to_be_bytes())
}

/// The per-key tables split `u2` into equal pieces that share one
/// doubling ladder, each recoded to signed digits on its own (the scalar
/// path's 32-bit wNAF pieces, the lanes' radix-16 ladder), or into
/// signed radix-256 windows with no ladder at all (the lanes' comb). These
/// `u2` sit where that can go wrong for any piece
/// width from 8 to 64 bits: a piece of all ones recodes to `2^w − 1`,
/// carrying out of its top bit; zero pieces between full ones leave
/// tables unused on some ladder steps; a lone top piece leaves every
/// other table unused; a window of `0x80` is the largest digit, one of
/// `0x81` the most negative with a carry, and a carry into a top byte of
/// `0x7f` makes it `0x80`. Values at and above `2^255` are folded to
/// `n − u2` by the lanes. Each vector runs on a key the lanes multiply
/// by its ladder table and on one they multiply by its comb.
#[test]
fn u2_at_the_piece_boundaries_verifies_on_both_paths() {
    let n = p256().order;
    let u1 = U256::from_be_bytes(&sha256(b"u1 for the piece-boundary vectors")).rem(&n);
    let bytes = |b: u8| u64::from_ne_bytes([b; 8]);
    let vectors = [
        ("every byte 0x80 (folded)", U256([bytes(0x80); 4])),
        (
            "every byte 0x80, top byte 0",
            U256([bytes(0x80), bytes(0x80), bytes(0x80), bytes(0x80) >> 8]),
        ),
        ("every byte 0x81 (folded)", U256([bytes(0x81); 4])),
        (
            "every byte 0x81, top byte 0",
            U256([bytes(0x81), bytes(0x81), bytes(0x81), bytes(0x81) >> 8]),
        ),
        (
            "a carry into a top byte of 0x7f",
            U256([0, 0, 0, 0x7f81_0000_0000_0000]),
        ),
        (
            "bytes alternate 0x7f / 0x80",
            U256([0x807f_807f_807f_807f; 4]).shr_small(1),
        ),
        ("one window of 0x80, mid-limb", U256([0, 0x0080_0000, 0, 0])),
        (
            "one window of 0xff at a limb's top",
            U256([0, 0xff00_0000_0000_0000, 0, 0]),
        ),
        ("2^255 − 2^248", U256([0, 0, 0, 0x7f00_0000_0000_0000])),
        (
            "n − 2^255 (folds to 2^255)",
            n.wrapping_sub(&U256([0, 0, 0, 1 << 63])),
        ),
        (
            "every piece all ones (2^255 − 1)",
            U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]),
        ),
        (
            "all ones below bit 224, top piece 0xfffffffe",
            U256([u64::MAX, u64::MAX, u64::MAX, 0xffff_fffe_ffff_ffff]),
        ),
        (
            "64-bit pieces alternate zero / ones",
            U256([0, u64::MAX, 0, u64::MAX >> 1]),
        ),
        (
            "64-bit pieces alternate ones / zero",
            U256([u64::MAX, 0, u64::MAX, 0]),
        ),
        (
            "32-bit pieces alternate zero / ones",
            U256([0xffff_ffff_0000_0000; 4]),
        ),
        (
            "32-bit pieces alternate ones / zero",
            U256([0x0000_0000_ffff_ffff; 4]),
        ),
        (
            "16-bit pieces alternate zero / ones",
            U256([0xffff_0000_ffff_0000; 4]),
        ),
        (
            "16-bit pieces alternate ones / zero",
            U256([0x0000_ffff_0000_ffff; 4]),
        ),
        ("only the top 16 bits", U256([0, 0, 0, 0xabcd << 48])),
        ("only the top 32 bits", U256([0, 0, 0, 0xabcd_1235 << 32])),
        ("only bit 255", U256([0, 0, 0, 1 << 63])),
        ("only the bottom piece, all ones", U256::from_u64(0xffff)),
        ("one", U256::ONE),
        ("n − 1", n.wrapping_sub(&U256::ONE)),
    ];
    let (comb, ladder) = bmac_integration_tests::keys_on_each_table("scalar-edge-vectors", 1);
    if comb.is_empty() {
        bmac_integration_tests::note_if_lanes_absent(
            "u2_at_the_piece_boundaries_verifies_on_both_paths",
        );
    }
    for (what, u2) in vectors {
        for key in comb.iter().chain(&ladder) {
            u2_verifies_on_both_paths(key, &u1, &u2, what);
        }
    }
}

/// A valid signature with this `u2` verifies, and one bit off in the
/// digest, `r` or `s` does not, on every path.
fn u2_verifies_on_both_paths(key: &SigningKey, u1: &U256, u2: &U256, what: &str) {
    let vk = key.verifying_key();
    let n = p256().order;
    assert!(!u2.is_zero() && u2 < &n, "{what}: u2 out of range");
    let (sig, digest) = forge_signature_with_u2(key, u1, u2);
    // The forgery hit its target: the verifier's own u2 is ours.
    let sinv = inv_mod_odd(&sig.s, &n).unwrap();
    assert_eq!(sig.r.widening_mul(&sinv).rem(&n), *u2, "{what}: forged u2");
    assert!(paths_agree(vk, &digest, &sig), "{what}: must verify");
    // One flipped bit anywhere must be refused, by both paths.
    let mut bad_digest = digest;
    bad_digest[31] ^= 0x01;
    assert!(
        !paths_agree(vk, &bad_digest, &sig),
        "{what}: digest bit flip"
    );
    let mut bad_r = sig;
    bad_r.r.0[0] ^= 1;
    assert!(!paths_agree(vk, &digest, &bad_r), "{what}: r bit flip");
    let mut bad_s = sig;
    bad_s.s.0[1] ^= 1 << 17;
    assert!(!paths_agree(vk, &digest, &bad_s), "{what}: s bit flip");
}
