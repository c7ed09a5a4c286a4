//! Differential gate for the eight-lane ECDSA kernel.
//!
//! [`verify_batch`] on a processor with AVX-512 IFMA runs chunks of
//! eight through `fabric-crypto`'s lane kernel; the scalar
//! [`VerifyingKey::verify_prehashed_with_sinv`] is its portable twin, its
//! fallback and — here — its oracle: every batch below is compared,
//! item by item, with the scalar verdict on the same input. The inputs
//! are the ones where a lane schedule can go wrong and a per-item loop
//! cannot: every batch length around the chunk boundaries, keys mixed
//! and repeated within a chunk, valid beside invalid, and the two cases
//! the lane formulas do not cover and must hand back (an addition of
//! equal points, an addition of opposite points), plus an `r` with a
//! second candidate and scalars out of range.
//!
//! A key's first lane verification gives it a comb (no doubling;
//! `fabric-crypto`'s README, "Lane kernel") while the process has a
//! place for one, and a ladder table after that, so a pass can hold comb
//! lanes, ladder lanes or both: every split of a pass between the two is
//! held to the scalar path. The exceptional constructions run on
//! whichever table their key gets here; the kernel's own tests in
//! `p256x8.rs` run them on both.
//!
//! `crypto_negative_vectors.rs` and `scalar_edge_vectors.rs` send each
//! of their vectors through `verify_batch` as well (their `paths_agree`).
//! On a processor without AVX-512 IFMA `verify_batch` *is* the scalar
//! loop; everything here still passes and says so on standard error.

use bmac_integration_tests::{batch_verdict, keys_on_each_table, note_if_lanes_absent, s_inverse};
use fabric_crypto::bigint::U256;
use fabric_crypto::curve::{mul_fixed_base, p256, AffinePoint};
use fabric_crypto::ecdsa::{verify_batch, BatchItem, Signature, SigningKey, VerifyingKey};
use fabric_crypto::fp256::Fp256;
use fabric_crypto::sha256::sha256;

struct Case {
    key: VerifyingKey,
    digest: [u8; 32],
    sig: Signature,
    sinv: U256,
}

impl Case {
    fn new(key: &VerifyingKey, digest: [u8; 32], sig: Signature) -> Self {
        Case {
            key: key.clone(),
            digest,
            sig,
            sinv: s_inverse(&sig),
        }
    }

    fn item(&self) -> BatchItem<'_> {
        BatchItem {
            key: &self.key,
            digest: self.digest,
            sig: self.sig,
            sinv: self.sinv,
        }
    }

    fn scalar_verdict(&self) -> bool {
        self.key
            .verify_prehashed_with_sinv(&self.digest, &self.sig, &self.sinv)
            .is_ok()
    }
}

/// Asserts `verify_batch` over `cases` is the per-item scalar verdicts,
/// and returns them.
fn batch_matches_scalar(cases: &[&Case], what: &str) -> Vec<bool> {
    let items: Vec<BatchItem<'_>> = cases.iter().map(|c| c.item()).collect();
    let expected: Vec<bool> = cases.iter().map(|c| c.scalar_verdict()).collect();
    assert_eq!(verify_batch(&items), expected, "{what}");
    expected
}

/// Five keys, and for each of 40 digests: the valid signature, then the
/// same with `r`, `s` or the digest one bit off, then the valid
/// signature presented to the next key.
fn mixed_cases() -> Vec<Case> {
    let keys: Vec<SigningKey> = (0..5)
        .map(|i| SigningKey::from_seed(format!("lanes-differential-{i}").as_bytes()))
        .collect();
    let mut cases = Vec::new();
    for i in 0..40usize {
        let key = &keys[i % keys.len()];
        let vk = key.verifying_key();
        let digest = sha256(format!("lanes-differential-digest-{i}").as_bytes());
        let sig = key.sign_prehashed(&digest);
        cases.push(Case::new(vk, digest, sig));
        let mut bad_r = sig;
        bad_r.r.0[i % 4] ^= 1 << (i % 64);
        cases.push(Case::new(vk, digest, bad_r));
        let mut bad_s = sig;
        bad_s.s.0[(i + 1) % 4] ^= 1 << ((7 * i) % 64);
        cases.push(Case::new(vk, digest, bad_s));
        let mut bad_digest = digest;
        bad_digest[i % 32] ^= 0x10;
        cases.push(Case::new(vk, bad_digest, sig));
        let wrong = keys[(i + 1) % keys.len()].verifying_key();
        cases.push(Case::new(wrong, digest, sig));
    }
    cases
}

#[test]
fn every_batch_length_matches_the_scalar_path_item_by_item() {
    note_if_lanes_absent("every_batch_length_matches_the_scalar_path_item_by_item");
    let cases = mixed_cases();
    let (mut valid, mut invalid) = (0, 0);
    for len in 0..=17 {
        // A different window of the case list per length, so a lane
        // sees every kind of case and chunks mix and repeat keys.
        let window: Vec<&Case> = cases.iter().cycle().skip(11 * len).take(len).collect();
        for verdict in batch_matches_scalar(&window, &format!("length {len}")) {
            *(if verdict { &mut valid } else { &mut invalid }) += 1;
        }
    }
    assert!(
        valid >= 20 && invalid >= 80,
        "{valid} valid, {invalid} invalid"
    );
    // The whole list at once, and only the valid ones: a full chunk
    // with no lane masked out.
    let all: Vec<&Case> = cases.iter().collect();
    batch_matches_scalar(&all, "all 200");
    let only_valid: Vec<&Case> = cases.iter().step_by(5).collect();
    assert!(batch_matches_scalar(&only_valid, "valid only")
        .iter()
        .all(|&v| v));
    // One key in every lane, and one signature in every lane.
    let one_key: Vec<&Case> = cases.iter().step_by(25).collect();
    assert_eq!(one_key.len(), 8);
    batch_matches_scalar(&one_key, "one key in eight lanes");
    batch_matches_scalar(&[&cases[0]; 8], "one signature in eight lanes");
}

/// For each key, one digest: the valid signature, then the same with
/// `r`, `s` or the digest one bit off.
fn cases_of(keys: &[SigningKey], tag: &str) -> Vec<Case> {
    let mut cases = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let vk = key.verifying_key();
        let digest = sha256(format!("{tag}-digest-{i}").as_bytes());
        let sig = key.sign_prehashed(&digest);
        cases.push(Case::new(vk, digest, sig));
        let mut bad_r = sig;
        bad_r.r.0[(i + 2) % 4] ^= 1 << (5 * i % 64);
        cases.push(Case::new(vk, digest, bad_r));
        let mut bad_s = sig;
        bad_s.s.0[i % 4] ^= 1 << (3 * i % 64);
        cases.push(Case::new(vk, digest, bad_s));
        let mut bad_digest = digest;
        bad_digest[(7 * i) % 32] ^= 0x01;
        cases.push(Case::new(vk, bad_digest, sig));
    }
    cases
}

#[test]
fn every_split_of_a_pass_between_comb_and_ladder_keys_matches_the_scalar_path() {
    let (comb, ladder) = keys_on_each_table("lanes-split", 8);
    if comb.is_empty() {
        note_if_lanes_absent(
            "every_split_of_a_pass_between_comb_and_ladder_keys_matches_the_scalar_path",
        );
        return;
    }
    let (comb_cases, ladder_cases) = (cases_of(&comb, "comb"), cases_of(&ladder, "ladder"));
    // Every subset of the eight lanes holds the comb keys, the rest
    // ladder keys — so every count 0..=8 of each, in every position —
    // with a different mix of valid and off-by-a-bit cases each time.
    let (mut valid, mut invalid) = (0, 0);
    for combs in 0..=u8::MAX {
        let pass: Vec<&Case> = (0..8)
            .map(|l| {
                let pick = (usize::from(combs) * 7 + l * 5) % comb_cases.len();
                if combs >> l & 1 != 0 {
                    &comb_cases[pick]
                } else {
                    &ladder_cases[pick]
                }
            })
            .collect();
        for verdict in batch_matches_scalar(&pass, &format!("comb lanes {combs:#010b}")) {
            *(if verdict { &mut valid } else { &mut invalid }) += 1;
        }
    }
    assert!(
        valid >= 400 && invalid >= 1_200,
        "{valid} valid, {invalid} invalid"
    );
    // The comb keys over every batch length around the chunk boundary.
    for len in 0..=17 {
        let window: Vec<&Case> = comb_cases.iter().cycle().skip(3 * len).take(len).collect();
        batch_matches_scalar(&window, &format!("comb keys, length {len}"));
    }
    assert!(comb.iter().all(|key| key.verifying_key().has_comb()));
    assert!(ladder.iter().all(|key| !key.verifying_key().has_comb()));
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

/// The `(s, digest)` that make a verifier with this `r` multiply the
/// generator by `u1` and the key by `u2` (the `scalar_edge_vectors`
/// construction): `s = r·u2⁻¹`, `z = u1·s`.
fn forge_for_scalars(r: &U256, u1: &U256, u2: &U256) -> (Signature, [u8; 32]) {
    let n = &p256().order;
    let s = r.widening_mul(&inverse_by_long_division(u2, n)).rem(n);
    let z = u1.widening_mul(&s).rem(n);
    (Signature { r: *r, s }, z.to_be_bytes())
}

fn x_mod_n(point: &AffinePoint) -> U256 {
    assert!(!point.infinity);
    point.x.rem(&p256().order)
}

#[test]
fn an_addition_of_equal_points_is_handed_back_and_answered_valid() {
    note_if_lanes_absent("an_addition_of_equal_points_is_handed_back_and_answered_valid");
    // Q = G, u1 = u2 = 5: the ladder leaves 5·Q = 5·G in the
    // accumulator and the comb's first addition is 5·G again — the
    // doubling the lane formula does not do. R = 10·G, so the signature
    // is valid; the lane must not say otherwise.
    let key = SigningKey::from_scalar(U256::ONE).unwrap();
    assert_eq!(*key.verifying_key().point(), AffinePoint::generator());
    let five = U256::from_u64(5);
    let r = x_mod_n(&mul_fixed_base(&U256::from_u64(10)).to_affine());
    let (sig, digest) = forge_for_scalars(&r, &five, &five);
    assert!(batch_verdict(key.verifying_key(), &digest, &sig));
    let mut off_by_one = digest;
    off_by_one[31] ^= 1;
    assert!(!batch_verdict(key.verifying_key(), &off_by_one, &sig));
}

#[test]
fn an_addition_of_opposite_points_is_handed_back_and_answered_invalid() {
    note_if_lanes_absent("an_addition_of_opposite_points_is_handed_back_and_answered_invalid");
    // Q = −G, u1 = u2 = 5: 5·Q + 5·G is the identity, which has no x
    // to compare — invalid whatever r claims.
    let n = p256().order;
    let key = SigningKey::from_scalar(n.wrapping_sub(&U256::ONE)).unwrap();
    let g = AffinePoint::generator();
    assert_eq!(key.verifying_key().point().x, g.x);
    assert_eq!(key.verifying_key().point().y, Fp256.neg(&g.y));
    let five = U256::from_u64(5);
    for r in [U256::ONE, x_mod_n(&g), n.wrapping_sub(&U256::ONE)] {
        let (sig, digest) = forge_for_scalars(&r, &five, &five);
        assert!(!batch_verdict(key.verifying_key(), &digest, &sig));
    }
}

/// A curve point whose x is `n + r` for a small `r`: the first such
/// that has a square root (`p ≡ 3 mod 4`, so `y = rhs^((p+1)/4)`).
fn point_with_x_past_the_order() -> (AffinePoint, U256) {
    let f = Fp256;
    let c = p256();
    let exponent = Fp256::P.wrapping_add(&U256::ONE).shr_small(2);
    for small in 1u64.. {
        let r = U256::from_u64(small);
        let x = c.order.wrapping_add(&r);
        let rhs = f.add(&f.add(&f.mul(&f.sqr(&x), &x), &f.mul(&c.a, &x)), &c.b);
        let y = f.pow(&rhs, &exponent);
        if f.sqr(&y) == rhs {
            return (AffinePoint::from_coords(&x, &y).expect("on the curve"), r);
        }
    }
    unreachable!("half of all x have a point")
}

#[test]
fn an_r_with_a_second_candidate_is_decided_by_the_scalar_path() {
    note_if_lanes_absent("an_r_with_a_second_candidate_is_decided_by_the_scalar_path");
    // x(R) = n + r with r < p − n: valid, through the candidate the
    // lanes do not compare. The key is solved for: with u1, u2 chosen,
    // Q = u2⁻¹·(R − u1·G) makes u1·G + u2·Q = R.
    let n = p256().order;
    let (big_r, r) = point_with_x_past_the_order();
    assert!(r < Fp256::P.wrapping_sub(&n));
    let u1 = U256::from_be_bytes(&sha256(b"second candidate u1")).rem(&n);
    let u2 = U256::from_be_bytes(&sha256(b"second candidate u2")).rem(&n);
    let mut minus_u1_g = mul_fixed_base(&u1).to_affine();
    minus_u1_g.y = Fp256.neg(&minus_u1_g.y);
    let q = big_r
        .to_jacobian()
        .add(&minus_u1_g.to_jacobian())
        .to_affine()
        .mul_scalar(&inverse_by_long_division(&u2, &n));
    let key = VerifyingKey::from_point(q).unwrap();
    let (sig, digest) = forge_for_scalars(&r, &u1, &u2);
    assert_eq!(sig.r, r);
    assert!(batch_verdict(&key, &digest, &sig));
    // The same small r on a point it does not belong to.
    let other = SigningKey::from_seed(b"second candidate, other key");
    assert!(!batch_verdict(other.verifying_key(), &digest, &sig));
}

#[test]
fn out_of_range_scalars_and_wrong_inverses_are_refused_lane_by_lane() {
    note_if_lanes_absent("out_of_range_scalars_and_wrong_inverses_are_refused_lane_by_lane");
    let key = SigningKey::from_seed(b"lanes-differential-range");
    let vk = key.verifying_key();
    let digest = sha256(b"lanes-differential-range");
    let good = key.sign_prehashed(&digest);
    let n = p256().order;
    let mut cases = vec![Case::new(vk, digest, good)];
    for bad in [U256::ZERO, n, n.wrapping_add(&U256::ONE), U256::MAX] {
        cases.push(Case::new(vk, digest, Signature { r: bad, s: good.s }));
        cases.push(Case::new(vk, digest, Signature { r: good.r, s: bad }));
    }
    // A valid signature beside an inverse that is not its own: zero
    // (what `batch_s_inverses` hands out for an `s` out of range), one,
    // another signature's, the largest residue.
    for sinv in [
        U256::ZERO,
        U256::ONE,
        s_inverse(&key.sign(b"x")),
        n.wrapping_sub(&U256::ONE),
    ] {
        let mut case = Case::new(vk, digest, good);
        case.sinv = sinv;
        cases.push(case);
    }
    cases.push(Case::new(vk, digest, good));
    let all: Vec<&Case> = cases.iter().collect();
    let verdicts = batch_matches_scalar(&all, "range and inverse cases");
    assert_eq!(
        verdicts.iter().filter(|&&v| v).count(),
        2,
        "only the untouched signature, first and last, verifies"
    );
    assert!(verdicts[0] && verdicts[verdicts.len() - 1]);
}

#[test]
fn lane_field_multiply_matches_the_scalar_one() {
    #[cfg(target_arch = "x86_64")]
    {
        use fabric_crypto::p256x8::Fp256x8;
        let element = |i: usize| U256::from_be_bytes(&sha256(&i.to_be_bytes())).rem(&Fp256::P);
        let mut a: [U256; 8] = std::array::from_fn(element);
        a[0] = U256::ZERO;
        a[1] = U256::ONE;
        a[2] = Fp256::P.wrapping_sub(&U256::ONE);
        let Some(mut lanes) = Fp256x8::new(&a) else {
            note_if_lanes_absent("lane_field_multiply_matches_the_scalar_one");
            return;
        };
        assert_eq!(lanes.residues(), a);
        for round in 1..50 {
            let b: [U256; 8] = std::array::from_fn(|l| element(8 * round + l));
            lanes = lanes.mul(&Fp256x8::new(&b).expect("as before"));
            for (a, b) in a.iter_mut().zip(&b) {
                *a = Fp256.mul(a, b);
            }
            assert_eq!(lanes.residues(), a, "round {round}");
        }
    }
}
