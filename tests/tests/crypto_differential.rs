//! Differential test harness for the P-256 field arithmetic.
//!
//! The convention this repo uses for every crypto fast path (see
//! `crates/fabric-crypto/README.md`): the production implementation is
//! pinned operation-by-operation against independent references on
//! random, boundary, and adversarial inputs — the same
//! verify-both-ways discipline Wycheproof-style suites apply to curve
//! code. The references are constructed here, by the tests; the shipped
//! crate wires exactly one implementation per field.
//!
//! * the Solinas-form **base field** ([`fabric_crypto::fp256`], mod the
//!   prime `p`) against two references: a generic Montgomery domain on
//!   `p` (the seed implementation) and plain 512-bit long division from
//!   [`fabric_crypto::bigint`];
//! * the **scalar field** — the Montgomery domain on the group order
//!   `n` that the ECDSA layer runs on (`p256().fn_`) — against long
//!   division, biased toward near-`n` inputs, including the
//!   single-domain-entry products the verify path uses.
//!
//! On top of the field layer, full ECDSA sign→verify round-trips and
//! the fast-vs-Shamir verification agreement.
//!
//! And under all of it, the **SHA-256 compression kernels**
//! ([`fabric_crypto::sha256::kernel`]): the CPU's SHA extensions and the
//! sixteen-lane AVX-512 kernel against the portable rounds on the same
//! blocks, and all three — padded by this file, not by the hasher —
//! against digests computed outside this code base; then
//! [`sha256_many`], the batch entry built on the lanes, against one
//! [`sha256`] per message. On a CPU without the extensions (or without
//! AVX-512) that arm has nothing to run; the tests then exercise the
//! remaining arms alone and say so.

use fabric_crypto::bigint::{inv_mod_odd, U256, U512};
use fabric_crypto::curve::p256;
use fabric_crypto::ecdsa::{Signature, SigningKey};
use fabric_crypto::fp256::{reduce_wide, Fp256};
use fabric_crypto::mont::MontgomeryDomain;
use fabric_crypto::sha256::{kernel, sha256, sha256_many, Sha256};
use fabric_peer::SigCacheKey;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The Montgomery oracle on the P-256 prime, built once.
fn oracle() -> &'static MontgomeryDomain {
    static ORACLE: OnceLock<MontgomeryDomain> = OnceLock::new();
    ORACLE.get_or_init(|| MontgomeryDomain::new(Fp256::P))
}

/// The scalar field under test: the very domain the ECDSA layer uses.
fn scalar_field() -> &'static MontgomeryDomain {
    &p256().fn_
}

/// The group order `n`.
fn order() -> U256 {
    p256().order
}

/// Field elements biased toward the places Solinas folding can go
/// wrong: zero, one, `p − k`, small values, sparse limb patterns, and
/// uniform randoms.
fn arb_fe() -> impl Strategy<Value = U256> {
    prop_oneof![
        any::<[u64; 4]>().prop_map(|l| U256(l).rem(&Fp256::P)),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(Fp256::P.wrapping_sub(&U256::ONE)),
        Just(Fp256::P.wrapping_sub(&U256::from_u64(2))),
        (1u64..4096).prop_map(|k| Fp256::P.wrapping_sub(&U256::from_u64(k))),
        (0u64..4096).prop_map(U256::from_u64),
        // Single hot limb (exercises word-shuffle edge lanes).
        (0usize..4, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U256::ZERO;
            v.0[i] = l;
            v.rem(&Fp256::P)
        }),
    ]
}

/// Arbitrary 512-bit values, with the all-ones and single-hot-limb
/// extremes mixed in.
fn arb_wide() -> impl Strategy<Value = U512> {
    prop_oneof![
        any::<[u64; 8]>().prop_map(U512),
        Just(U512([u64::MAX; 8])),
        (0usize..8, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U512::default();
            v.0[i] = l;
            v
        }),
        Just(Fp256::P.widening_mul(&Fp256::P)),
    ]
}

/// `x` in the Montgomery oracle's result space mapped back to canonical.
fn via_oracle(f: impl Fn(&MontgomeryDomain, U256, U256) -> U256, a: &U256, b: &U256) -> U256 {
    let m = oracle();
    m.from_mont(&f(m, m.to_mont(a), m.to_mont(b)))
}

/// Scalar-field elements biased toward the places a mod-`n` reduction
/// can go wrong: zero, one, `n − k`, small values, sparse limb
/// patterns, and uniform randoms (the mod-`n` mirror of [`arb_fe`]).
fn arb_se() -> impl Strategy<Value = U256> {
    prop_oneof![
        any::<[u64; 4]>().prop_map(|l| U256(l).rem(&order())),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(order().wrapping_sub(&U256::ONE)),
        Just(order().wrapping_sub(&U256::from_u64(2))),
        (1u64..4096).prop_map(|k| order().wrapping_sub(&U256::from_u64(k))),
        (0u64..4096).prop_map(U256::from_u64),
        // Single hot limb (exercises the carry lanes of REDC).
        (0usize..4, any::<u64>()).prop_map(|(i, l)| {
            let mut v = U256::ZERO;
            v.0[i] = l;
            v.rem(&order())
        }),
    ]
}

/// `f` applied inside the scalar field, canonical in and out.
fn via_scalar_field(f: impl Fn(&MontgomeryDomain, U256, U256) -> U256, a: &U256, b: &U256) -> U256 {
    let m = scalar_field();
    m.from_mont(&f(m, m.to_mont(a), m.to_mont(b)))
}

/// `a + b` as a 512-bit integer (the sum of two residues can carry
/// into bit 256), for long-division reference sums.
fn wide_sum(a: &U256, b: &U256) -> U512 {
    let (sum, carry) = a.overflowing_add(b);
    let mut wide = U512::from_u256(&sum);
    wide.0[4] = carry as u64;
    wide
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn solinas_mul_matches_montgomery(a in arb_fe(), b in arb_fe()) {
        let sol = Fp256.mul(&a, &b);
        let mon = via_oracle(|m, x, y| m.mul(&x, &y), &a, &b);
        prop_assert_eq!(sol, mon);
        // And against the long-division oracle, independently.
        prop_assert_eq!(sol, a.widening_mul(&b).rem(&Fp256::P));
    }

    #[test]
    fn solinas_sqr_matches_montgomery(a in arb_fe()) {
        let sol = Fp256.sqr(&a);
        let mon = via_oracle(|m, x, _| m.sqr(&x), &a, &a);
        prop_assert_eq!(sol, mon);
        prop_assert_eq!(Fp256.sqr(&a), Fp256.mul(&a, &a));
    }

    #[test]
    fn solinas_add_sub_neg_match_montgomery(a in arb_fe(), b in arb_fe()) {
        prop_assert_eq!(Fp256.add(&a, &b), via_oracle(|m, x, y| m.add(&x, &y), &a, &b));
        prop_assert_eq!(Fp256.sub(&a, &b), via_oracle(|m, x, y| m.sub(&x, &y), &a, &b));
        let m = oracle();
        prop_assert_eq!(Fp256.neg(&a), m.from_mont(&m.neg(&m.to_mont(&a))));
        // Algebra: a + (−a) = 0, a − b = a + (−b).
        prop_assert!(Fp256.add(&a, &Fp256.neg(&a)).is_zero());
        prop_assert_eq!(Fp256.sub(&a, &b), Fp256.add(&a, &Fp256.neg(&b)));
    }

    #[test]
    fn solinas_inverse_matches_montgomery(a in arb_fe()) {
        let m = oracle();
        let sol = Fp256.inv(&a);
        let mon = m.inv(&m.to_mont(&a)).map(|i| m.from_mont(&i));
        prop_assert_eq!(sol, mon);
        prop_assert_eq!(sol, Fp256.inv_prime(&a));
        if let Some(inv) = sol {
            prop_assert_eq!(Fp256.mul(&a, &inv), U256::ONE);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn solinas_batch_inverse_matches_individual(values in proptest::collection::vec(arb_fe(), 1..20)) {
        let mut batch = values.clone();
        let mask = Fp256.batch_inv(&mut batch);
        for i in 0..values.len() {
            if values[i].is_zero() {
                prop_assert!(!mask[i]);
                prop_assert!(batch[i].is_zero());
            } else {
                prop_assert!(mask[i]);
                prop_assert_eq!(Some(batch[i]), Fp256.inv(&values[i]));
            }
        }
    }

    #[test]
    fn solinas_reduction_matches_long_division(c in arb_wide()) {
        prop_assert_eq!(reduce_wide(&c), c.rem(&Fp256::P));
    }

    #[test]
    fn solinas_pow_matches_montgomery(a in arb_fe(), e in any::<u64>()) {
        let e = U256::from_u64(e);
        let m = oracle();
        prop_assert_eq!(
            Fp256.pow(&a, &e),
            m.from_mont(&m.pow(&m.to_mont(&a), &e))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scalar_mul_matches_long_division(a in arb_se(), b in arb_se()) {
        let expect = a.widening_mul(&b).rem(&order());
        prop_assert_eq!(via_scalar_field(|m, x, y| m.mul(&x, &y), &a, &b), expect);
        // The product as the ECDSA layer computes u1/u2/s: one operand
        // enters the domain, the other stays plain, and the result is
        // already the plain product.
        let m = scalar_field();
        prop_assert_eq!(m.mul(&m.to_mont(&a), &b), expect);
    }

    #[test]
    fn scalar_sqr_matches_long_division(a in arb_se()) {
        let sqr = via_scalar_field(|m, x, _| m.sqr(&x), &a, &a);
        prop_assert_eq!(sqr, a.widening_sqr().rem(&order()));
        prop_assert_eq!(sqr, via_scalar_field(|m, x, y| m.mul(&x, &y), &a, &a));
    }

    #[test]
    fn scalar_add_sub_neg_match_long_division(a in arb_se(), b in arb_se()) {
        let n = order();
        let add = via_scalar_field(|m, x, y| m.add(&x, &y), &a, &b);
        prop_assert_eq!(add, wide_sum(&a, &b).rem(&n));
        // a − b = a + (n − b), summed wide so the reference never wraps.
        let sub = via_scalar_field(|m, x, y| m.sub(&x, &y), &a, &b);
        prop_assert_eq!(sub, wide_sum(&a, &n.wrapping_sub(&b)).rem(&n));
        let m = scalar_field();
        let neg = m.from_mont(&m.neg(&m.to_mont(&a)));
        prop_assert_eq!(neg, n.wrapping_sub(&a).rem(&n));
        prop_assert!(wide_sum(&a, &neg).rem(&n).is_zero());
    }

    #[test]
    fn scalar_inverse_matches_fermat_and_plain_euclid(a in arb_se()) {
        let m = scalar_field();
        let euclid = m.inv(&m.to_mont(&a)).map(|i| m.from_mont(&i));
        let fermat = m.inv_prime(&m.to_mont(&a)).map(|i| m.from_mont(&i));
        prop_assert_eq!(euclid, fermat);
        // The plain-integer inverse the verify path calls directly.
        prop_assert_eq!(euclid, inv_mod_odd(&a, &order()));
        if let Some(inv) = euclid {
            prop_assert_eq!(a.widening_mul(&inv).rem(&order()), U256::ONE);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn scalar_batch_inverse_matches_individual(values in proptest::collection::vec(arb_se(), 1..20)) {
        let m = scalar_field();
        let mut batch: Vec<U256> = values.iter().map(|v| m.to_mont(v)).collect();
        let mask = m.batch_inv(&mut batch);
        for i in 0..values.len() {
            if values[i].is_zero() {
                prop_assert!(!mask[i]);
                prop_assert!(batch[i].is_zero());
            } else {
                prop_assert!(mask[i]);
                prop_assert_eq!(Some(m.from_mont(&batch[i])), inv_mod_odd(&values[i], &order()));
            }
        }
    }

    #[test]
    fn scalar_pow_matches_long_division_ladder(a in arb_se(), e in any::<u64>()) {
        let n = order();
        let m = scalar_field();
        let got = m.from_mont(&m.pow(&m.to_mont(&a), &U256::from_u64(e)));
        // Square-and-multiply with every reduction done by long division.
        let mut expect = U256::ONE;
        for i in (0..64).rev() {
            expect = expect.widening_sqr().rem(&n);
            if (e >> i) & 1 == 1 {
                expect = expect.widening_mul(&a).rem(&n);
            }
        }
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    // ECDSA-level agreement is slower per case; fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sign_verify_roundtrip_on_random_keys(seed in any::<[u8; 16]>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(&seed);
        let digest = sha256(&msg);
        let sig = key.sign_prehashed(&digest);
        let vk = key.verifying_key();
        prop_assert!(vk.verify_prehashed(&digest, &sig).is_ok());
        prop_assert!(vk.verify_prehashed_shamir(&digest, &sig).is_ok());
    }

    #[test]
    fn fast_and_shamir_verify_agree_under_corruption(
        seed in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..128),
        corrupt_sig in any::<bool>(),
        corrupt_digest in any::<bool>(),
        flip in 0usize..512,
    ) {
        let key = SigningKey::from_seed(&seed);
        let mut digest = sha256(&msg);
        let mut sig = key.sign_prehashed(&digest);
        if corrupt_sig {
            let mut raw = sig.to_raw_bytes();
            raw[flip % 64] ^= 1 << (flip % 8);
            match Signature::from_raw_bytes(&raw) {
                Ok(s) => sig = s,
                Err(_) => return Ok(()), // out of range: rejected pre-curve on both paths
            }
        }
        if corrupt_digest {
            digest[flip % 32] ^= 1 << (flip % 8);
        }
        let vk = key.verifying_key();
        prop_assert_eq!(
            vk.verify_prehashed(&digest, &sig).is_ok(),
            vk.verify_prehashed_shamir(&digest, &sig).is_ok()
        );
    }
}

/// The re-validation cache key is a digest of *plain byte* encodings
/// (SEC1 point ‖ digest ‖ raw `r‖s`), never of an internal field
/// representation, so its bytes are part of the on-the-wire meaning of
/// a cached verdict. Pinned on the RFC 6979 A.2.5 key and its "sample"
/// signature: the expected value is SHA-256 over those published bytes,
/// computed outside this code base.
#[test]
fn sig_cache_key_bytes_match_fixed_vector() {
    let key = SigningKey::from_be_bytes(&hex32(
        "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
    ))
    .unwrap();
    let digest = sha256(b"sample");
    let sig = key.sign_prehashed(&digest);
    assert_eq!(
        SigCacheKey::compute(key.verifying_key(), &digest, &sig),
        SigCacheKey::from_bytes(hex32(
            "326b83d9b4b9fba11c30b8db5009d8819093d919d94fbc45ac197f5099a14d46"
        ))
    );
}

/// Directed boundary sweep for the scalar field against long division:
/// the values where a mod-`n` reduction's final correction can be off
/// by one — `n − k`, small `k`, powers of two at every limb boundary —
/// and their pairwise products.
#[test]
fn scalar_boundary_matrix_matches_oracle() {
    let n = order();
    let mut edge = vec![U256::ZERO, U256::ONE, U256::from_u64(2)];
    for k in 1u64..=64 {
        edge.push(n.wrapping_sub(&U256::from_u64(k)));
        edge.push(U256::from_u64(k));
    }
    // Powers of two walk every limb boundary.
    for i in 0..256 {
        let mut v = U256::ZERO;
        v.0[i / 64] = 1 << (i % 64);
        edge.push(v.rem(&n));
    }
    let m = scalar_field();
    for a in &edge {
        let am = m.to_mont(a);
        for b in &edge {
            let expect = a.widening_mul(b).rem(&n);
            let full = m.from_mont(&m.mul(&am, &m.to_mont(b)));
            assert_eq!(full, expect, "mul mismatch at a={a:?} b={b:?}");
            // The single-entry product the ECDSA layer uses.
            assert_eq!(m.mul(&am, b), expect, "mixed mul at a={a:?} b={b:?}");
        }
        assert_eq!(
            m.from_mont(&m.sqr(&am)),
            a.widening_sqr().rem(&n),
            "sqr mismatch at a={a:?}"
        );
    }
}

/// Directed boundary sweep kept outside proptest so every case always
/// runs: the exact values where the nine-term fold wraps.
#[test]
fn field_boundary_matrix_matches_oracle() {
    let p = Fp256::P;
    let mut edge = vec![U256::ZERO, U256::ONE, U256::from_u64(2)];
    for k in 1u64..=64 {
        edge.push(p.wrapping_sub(&U256::from_u64(k)));
        edge.push(U256::from_u64(k));
    }
    // Powers of two walk every limb boundary.
    for i in 0..256 {
        let mut v = U256::ZERO;
        v.0[i / 64] = 1 << (i % 64);
        edge.push(v.rem(&p));
    }
    let m = oracle();
    for a in &edge {
        for b in &edge {
            let sol = Fp256.mul(a, b);
            let mon = m.from_mont(&m.mul(&m.to_mont(a), &m.to_mont(b)));
            assert_eq!(sol, mon, "mul mismatch at a={a:?} b={b:?}");
        }
        assert_eq!(
            Fp256.sqr(a),
            m.from_mont(&m.sqr(&m.to_mont(a))),
            "sqr mismatch at a={a:?}"
        );
    }
}

/// Directed matrix for the branch-free modular add/sub, on `p` and on
/// `n`: the sums and differences where the mask flips — `a + b` one
/// below, at and one above the modulus, one below, at and one above
/// `2^256` (both moduli exceed `2^255`, so a sum of residues can wrap),
/// `a − b` at `a = b`, `a = 0` and `b = m − 1` — against 512-bit long
/// division. Random inputs are the proptests' job.
#[test]
fn add_sub_mask_boundaries_match_long_division() {
    let one = U256::ONE;
    for m in [Fp256::P, order()] {
        let top = m.wrapping_sub(&one); // m − 1
        let gap = U256::ZERO.wrapping_sub(&m); // 2^256 − m
        let half = m.shr_small(1);
        let mut firsts = vec![
            U256::ZERO,
            one,
            U256::from_u64(2),
            half,
            half.wrapping_add(&one),
            gap,
            top.wrapping_sub(&one),
            top,
        ];
        for i in [63, 64, 127, 128, 191, 192, 255] {
            let mut v = U256::ZERO;
            v.0[i / 64] = 1 << (i % 64);
            firsts.extend([v, v.wrapping_sub(&one)]);
        }
        let mut pairs = Vec::new();
        for a in &firsts {
            // b placing a + b at target − 1, target, target + 1 for
            // target = m and target = 2^256 (as wrapping arithmetic).
            for target in [m, U256::ZERO] {
                for b in [
                    target.wrapping_sub(a).wrapping_sub(&one),
                    target.wrapping_sub(a),
                    target.wrapping_sub(a).wrapping_add(&one),
                ] {
                    pairs.push((*a, b));
                }
            }
            pairs.extend([(*a, *a), (U256::ZERO, *a), (*a, top), (*a, U256::ZERO)]);
        }
        let mut checked = 0;
        for (a, b) in pairs.iter().filter(|(a, b)| a < &m && b < &m) {
            let sum = wide_sum(a, b).rem(&m);
            let diff = wide_sum(a, &m.wrapping_sub(b)).rem(&m);
            assert_eq!(a.add_mod(b, &m), sum, "{a:?} + {b:?} mod {m:?}");
            assert_eq!(a.sub_mod(b, &m), diff, "{a:?} − {b:?} mod {m:?}");
            // The same through the two fields built on them.
            if m == Fp256::P {
                assert_eq!(Fp256.add(a, b), sum);
                assert_eq!(Fp256.sub(a, b), diff);
            } else {
                assert_eq!(scalar_field().add(a, b), sum);
                assert_eq!(scalar_field().sub(a, b), diff);
            }
            checked += 1;
        }
        assert!(checked > 150, "only {checked} in-range pairs for {m:?}");
    }
}

/// A SHA-256 compression kernel, as [`kernel`] exposes both.
type Kernel = fn(&mut [u32; 8], &[u8]);

/// The hardware kernel, or `None` — with a note on stderr — on a CPU (or
/// target) without SHA extensions.
fn hardware_kernel() -> Option<Kernel> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    if kernel::hardware(&mut [0; 8], &[]) {
        Some(|state, blocks| assert!(kernel::hardware(state, blocks)))
    } else {
        NOTE.call_once(|| {
            eprintln!("note: no SHA extensions on this CPU; hardware-kernel arm skipped")
        });
        None
    }
}

/// Whether [`kernel::lanes`] has lanes to run on here; says so once on
/// stderr when it has not (every `sha256_many` is then one `sha256` per
/// message, and the lane arms have nothing to add).
fn lanes_run_here() -> bool {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let run = kernel::lanes(&mut [[0; kernel::LANES]; 8], &[&[]; kernel::LANES]);
    if !run {
        NOTE.call_once(|| {
            eprintln!("note: no avx512f + avx512bw on this CPU; lane-kernel arms skipped")
        });
    }
    run
}

/// The lane kernel as a one-stream kernel: `blocks` in lane `P` from
/// `state`, the other fifteen lanes running a three-block filler from
/// `H0` — which must come out as the portable kernel's, whatever the
/// neighbour did and however much longer or shorter it ran.
fn in_lane<const P: usize>(state: &mut [u32; 8], blocks: &[u8]) {
    let filler = [0xa5u8; 192];
    let mut filler_state = H0;
    kernel::portable(&mut filler_state, &filler);
    let mut streams: [&[u8]; kernel::LANES] = [&filler; kernel::LANES];
    streams[P] = blocks;
    let mut states: kernel::LaneStates = H0.map(|word| [word; kernel::LANES]);
    for (row, word) in states.iter_mut().zip(*state) {
        row[P] = word;
    }
    assert!(kernel::lanes(&mut states, &streams));
    let columns: [[u32; 8]; kernel::LANES] =
        std::array::from_fn(|l| std::array::from_fn(|w| states[w][l]));
    for (l, lane) in columns.into_iter().enumerate() {
        if l == P {
            *state = lane;
        } else {
            assert_eq!(lane, filler_state, "filler in lane {l} beside lane {P}");
        }
    }
}

/// FIPS 180-4 §5.3.3 initial hash value, restated here so the kernels
/// are driven without the hasher.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 of `message` with `compress` as the compression function and
/// the §5.1.1 padding done here.
fn digest_with(compress: Kernel, message: &[u8]) -> [u8; 32] {
    let mut padded = message.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &padded);
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Every kernel this CPU can run, named.
fn kernels() -> Vec<(&'static str, Kernel)> {
    let mut all: Vec<(&'static str, Kernel)> = vec![("portable", kernel::portable)];
    all.extend(hardware_kernel().map(|k| ("hardware", k)));
    if lanes_run_here() {
        all.push(("lanes, first lane", in_lane::<0>));
        all.push(("lanes, sixth lane", in_lane::<5>));
        all.push(("lanes, last lane", in_lane::<15>));
    }
    all
}

/// `n` bytes that differ from message to message (`tag`) and from byte
/// to byte.
fn filler_bytes(tag: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (tag * 31 + i * 13 + 5) as u8).collect()
}

/// `sha256_many` over `messages`, held to one `sha256` each.
fn many_equals_each(messages: &[Vec<u8>]) -> Vec<[u8; 32]> {
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let digests = sha256_many(&refs);
    let each: Vec<[u8; 32]> = refs.iter().map(|m| sha256(m)).collect();
    assert_eq!(digests, each);
    digests
}

/// `message` through `sha256_many` sixteen times: in every lane of a
/// full pass (a pass is sorted by length, so `lane` shorter fillers put
/// it in lane `lane`), alone of its length among fillers of other
/// lengths, and at a different place in the input each time.
fn through_every_lane(message: &[u8], expected: [u8; 32]) {
    let n = message.len();
    for lane in 0..kernel::LANES {
        // A message of no bytes has nothing shorter: it is always first.
        let shorter = lane.min(n);
        let mut messages: Vec<Vec<u8>> = (0..kernel::LANES - 1)
            .map(|k| {
                let len = if k < shorter {
                    n * k / shorter
                } else {
                    n + 1 + 29 * (k - shorter)
                };
                filler_bytes(k, len)
            })
            .collect();
        let at = lane * 7 % kernel::LANES;
        messages.insert(at, message.to_vec());
        assert_eq!(
            many_equals_each(&messages)[at],
            expected,
            "{n} bytes, lane {lane}, input position {at}"
        );
    }
}

fn hex32(s: &str) -> [u8; 32] {
    U256::from_hex(s).unwrap().to_be_bytes()
}

/// Lengths on both sides of every padding boundary (55/56: the length
/// field stops fitting; 63/64/65 and 119/120: the same one block on),
/// each kernel and the hasher against `hashlib.sha256` over
/// `bytes((i*7+3) & 0xff for i in range(n))`.
#[test]
fn sha256_padding_boundary_vectors() {
    for (n, expected) in [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            55,
            "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
        ),
        (
            56,
            "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
        ),
        (
            63,
            "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
        ),
        (
            64,
            "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
        ),
        (
            65,
            "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
        ),
        (
            119,
            "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
        ),
        (
            120,
            "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
        ),
    ] {
        let message: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
        let expected = hex32(expected);
        assert_eq!(sha256(&message), expected, "hasher, {n} bytes");
        for (name, compress) in kernels() {
            assert_eq!(
                digest_with(compress, &message),
                expected,
                "{name}, {n} bytes"
            );
        }
        through_every_lane(&message, expected);
    }
}

/// Every length from none to 300 bytes — every tail length against both
/// padding layouts, with none to four whole blocks before it — in every
/// lane position.
#[test]
fn sha256_many_every_length_in_every_lane() {
    lanes_run_here();
    for n in 0..=300 {
        let message = filler_bytes(n, n);
        through_every_lane(&message, sha256(&message));
    }
}

/// The batch sizes around the lane kernel's pass: none, one, a thin
/// call, one pass, a pass and a thin rest, a pass and a rest worth a
/// second pass, several passes.
#[test]
fn sha256_many_every_batch_size_matches_one_sha256_per_message() {
    lanes_run_here();
    assert!(sha256_many(&[]).is_empty());
    for count in (0..=40).chain([63, 64, 65, 100]) {
        let messages: Vec<Vec<u8>> = (0..count)
            .map(|i| filler_bytes(i, (i * 53 + count) % 301))
            .collect();
        many_equals_each(&messages);
    }
}

/// A batch of cache keys is the keys one by one ([`SigCacheKey::compute`]
/// is pinned to the published bytes by the fixed vector above).
#[test]
fn sig_cache_keys_in_a_batch_match_one_by_one() {
    lanes_run_here();
    let keys: Vec<SigningKey> = (0..5u8).map(|k| SigningKey::from_seed(&[k; 16])).collect();
    let triples: Vec<_> = (0..40usize)
        .map(|i| {
            let key = &keys[i % keys.len()];
            let digest = sha256(&filler_bytes(i, i));
            (key.verifying_key(), digest, key.sign_prehashed(&digest))
        })
        .collect();
    for count in [0, 1, 7, 8, 16, 17, 24, 40] {
        let batch = SigCacheKey::compute_many(
            triples[..count]
                .iter()
                .map(|(key, digest, sig)| (*key, digest, sig)),
        );
        let each: Vec<SigCacheKey> = triples[..count]
            .iter()
            .map(|(key, digest, sig)| SigCacheKey::compute(key, digest, sig))
            .collect();
        assert_eq!(batch, each, "{count} triples");
    }
}

/// FIPS 180-4 / NIST CAVS long-message vector: one million `a`.
#[test]
fn sha256_one_million_a() {
    let message = vec![b'a'; 1_000_000];
    let expected = hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    assert_eq!(sha256(&message), expected, "hasher");
    for (name, compress) in kernels() {
        assert_eq!(digest_with(compress, &message), expected, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The hardware and the lane kernel against the portable one, called
    /// directly on the same blocks from the same (arbitrary) chaining
    /// state (the lane kernel with the stream in its first, sixth and
    /// last lane, beside fifteen streams of another length) — and the
    /// hasher, fed the message in three pieces cut at random points,
    /// against the kernels driven whole.
    #[test]
    fn sha256_kernels_and_split_updates_agree(
        message in proptest::collection::vec(any::<u8>(), 0..=8192),
        state in any::<[u32; 8]>(),
        cuts in (any::<usize>(), any::<usize>()),
    ) {
        let whole_blocks = &message[..message.len() & !63];
        let mut portable = state;
        kernel::portable(&mut portable, whole_blocks);
        for (name, compress) in kernels() {
            let mut other = state;
            compress(&mut other, whole_blocks);
            prop_assert_eq!(other, portable, "{}", name);
            // A trailing partial block is ignored, not read.
            let mut other = state;
            compress(&mut other, &message);
            prop_assert_eq!(other, portable, "{}, partial block", name);
        }

        let expected = digest_with(kernel::portable, &message);
        let (a, b) = (cuts.0 % (message.len() + 1), cuts.1 % (message.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let mut h = Sha256::new();
        h.update(&message[..a]);
        h.update(&message[a..b]);
        h.update(&message[b..]);
        prop_assert_eq!(h.finalize(), expected);
        prop_assert_eq!(sha256(&message), expected);
    }
}

/// Message lengths for the batch property: mostly short (every padding
/// layout, up to four whole blocks), one in five of 1–8 KB.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=300,
        0usize..=300,
        0usize..=300,
        0usize..=300,
        1024usize..=8192,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `sha256_many` equals one `sha256` per message, in input order,
    /// over none to forty messages: lengths as drawn, all equal, one
    /// empty, or one far longer than the pass it is sorted into.
    #[test]
    fn sha256_many_matches_one_sha256_per_message(
        mut lens in proptest::collection::vec(arb_len(), 0..=40),
        shape in 0usize..4,
        shared in 0usize..=300,
        pick in any::<usize>(),
        tag in any::<usize>(),
    ) {
        lanes_run_here();
        if let Some(count) = std::num::NonZeroUsize::new(lens.len()) {
            match shape {
                1 => lens.fill(shared),
                2 => lens[pick % count] = 0,
                3 => {
                    lens.iter_mut().for_each(|len| *len %= 301);
                    lens[pick % count] = 8000 + shared;
                }
                _ => {}
            }
        }
        let messages: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| filler_bytes(tag % 1024 + i, len))
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let each: Vec<[u8; 32]> = refs.iter().map(|m| sha256(m)).collect();
        prop_assert_eq!(sha256_many(&refs), each);
    }
}
