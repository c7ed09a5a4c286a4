//! Solinas-form arithmetic in the NIST P-256 base field.
//!
//! The P-256 prime is a *generalized Mersenne* (Solinas) prime,
//!
//! ```text
//! p = 2^256 − 2^224 + 2^192 + 2^96 − 1
//! ```
//!
//! chosen by NIST precisely so that reduction of a 512-bit product needs
//! no multiplications at all: the high 256 bits fold back into the low
//! half as a fixed schedule of nine 32-bit-word shuffles added and
//! subtracted with carry chains (FIPS 186-4 §D.2 / Guide to ECC
//! Algorithm 2.29). Compared with the generic Montgomery REDC in
//! [`crate::mont`] — which spends sixteen extra 64×64 multiplies per
//! reduction — the Solinas path does a plain schoolbook multiply
//! followed by shift/add folding, and it works on *canonical* residues,
//! so entering and leaving the field representation is free.
//!
//! [`Fp256`] implements the full field API the curve layer needs (mul,
//! square, add, sub, neg, pow, Fermat and binary-Euclid inversion,
//! Montgomery-trick batch inversion) on plain integers `< p`, and
//! [`crate::curve`] calls it directly. The differential test harness
//! (`tests/tests/crypto_differential.rs`) pins every operation here
//! against a [`crate::mont::MontgomeryDomain`] on `p` and against long
//! division, on random, boundary, and near-`p` inputs.
//!
//! Like the rest of this crate, the implementation favours clarity and
//! auditability over side-channel hardening (the reduction's final
//! correction loop is input-dependent); the library signs only
//! synthetic benchmark identities.

use crate::bigint::{inv_mod_odd, U256, U512};

/// The NIST P-256 base field with Solinas fast reduction.
///
/// Stateless: the prime is a compile-time constant, so the type is a
/// unit struct and all precomputation is in the word schedule itself.
///
/// ```
/// use fabric_crypto::bigint::U256;
/// use fabric_crypto::fp256::Fp256;
/// let f = Fp256;
/// let a = U256::from_u64(1234);
/// let b = U256::from_u64(5678);
/// assert_eq!(f.mul(&a, &b), U256::from_u64(1234 * 5678));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp256;

impl Fp256 {
    /// The P-256 prime `p = 2^256 − 2^224 + 2^192 + 2^96 − 1`
    /// (`ffffffff00000001 0000000000000000 00000000ffffffff ffffffffffffffff`).
    pub const P: U256 = U256([
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_ffff,
        0x0000_0000_0000_0000,
        0xffff_ffff_0000_0001,
    ]);

    /// The field modulus.
    pub fn modulus(&self) -> &'static U256 {
        &Self::P
    }

    /// The multiplicative identity (canonical residues: just `1`).
    pub fn one(&self) -> U256 {
        U256::ONE
    }

    /// Field multiplication: schoolbook 256×256 multiply followed by
    /// the Solinas fold.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        debug_assert!(a < &Self::P && b < &Self::P);
        reduce_wide(&a.widening_mul(b))
    }

    /// Field squaring, on the dedicated squaring kernel (cross products
    /// computed once and doubled).
    pub fn sqr(&self, a: &U256) -> U256 {
        debug_assert!(a < &Self::P);
        reduce_wide(&a.widening_sqr())
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        a.add_mod(b, &Self::P)
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        a.sub_mod(b, &Self::P)
    }

    /// Field negation.
    pub fn neg(&self, a: &U256) -> U256 {
        debug_assert!(a < &Self::P);
        if a.is_zero() {
            U256::ZERO
        } else {
            Self::P.wrapping_sub(a)
        }
    }

    /// Exponentiation by a plain integer exponent, left-to-right binary.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut acc = U256::ONE;
        for i in (0..exp.bit_len()).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`a^(p-2)`).
    /// Returns `None` for zero. [`Self::inv`] is several times faster;
    /// this is the independent check it is tested against.
    pub fn inv_prime(&self, a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        let exp = Self::P.wrapping_sub(&U256::from_u64(2));
        Some(self.pow(a, &exp))
    }

    /// Multiplicative inverse via the shared binary extended Euclid
    /// ([`crate::bigint::inv_mod_odd`]). Returns `None` for zero.
    ///
    /// Unlike the Montgomery path, no domain conversions bracket the
    /// Euclidean core: canonical residues go straight in and out.
    pub fn inv(&self, a: &U256) -> Option<U256> {
        inv_mod_odd(a, &Self::P)
    }

    /// Montgomery-trick batch inversion: every invertible element in
    /// `values` is replaced by its inverse at the cost of a single
    /// field inversion plus `3(n-1)` multiplications. The mask is
    /// `true` where an inverse was written; zeros are left zero and
    /// reported `false` (`p` is prime, so every nonzero element is
    /// invertible).
    pub fn batch_inv(&self, values: &mut [U256]) -> Vec<bool> {
        let mask: Vec<bool> = values.iter().map(|v| !v.is_zero()).collect();
        if !mask.iter().any(|&ok| ok) {
            return mask; // all zero: nothing to invert
        }
        // prefix[i] = product of nonzero values[0..=i].
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = U256::ONE;
        for (v, &ok) in values.iter().zip(&mask) {
            if ok {
                acc = self.mul(&acc, v);
            }
            prefix.push(acc);
        }
        let mut inv_acc = self
            .inv(&acc)
            .expect("product of nonzero elements mod a prime");
        for i in (0..values.len()).rev() {
            if !mask[i] {
                continue;
            }
            let prev = if i == 0 { U256::ONE } else { prefix[i - 1] };
            let inv_i = self.mul(&inv_acc, &prev);
            inv_acc = self.mul(&inv_acc, &values[i]);
            values[i] = inv_i;
        }
        mask
    }
}

/// Solinas fast reduction of a full 512-bit value modulo the P-256
/// prime.
///
/// Splits the input into sixteen 32-bit words `c0..c15` and folds the
/// high half back with the nine-term add/sub schedule
///
/// ```text
/// r = s1 + 2·s2 + 2·s3 + s4 + s5 − s6 − s7 − s8 − s9  (mod p)
/// ```
///
/// where each `sᵢ` is a fixed permutation of the words (FIPS 186-4
/// §D.2.3). The per-limb sums are accumulated in signed 128-bit
/// arithmetic and carry-propagated once; the small residual carry `t`
/// (in roughly `−4..7`) is folded back in a single pass using
/// `2^256 ≡ 2^224 − 2^192 − 2^96 + 1 (mod p)`, leaving at most one
/// conditional addition and one conditional subtraction of `p`.
#[inline]
pub fn reduce_wide(c: &U512) -> U256 {
    let p = &Fp256::P;
    // 32-bit word view, little-endian: c[i] = a[2i] | a[2i+1] << 32.
    let a = [
        c.0[0] as u32,
        (c.0[0] >> 32) as u32,
        c.0[1] as u32,
        (c.0[1] >> 32) as u32,
        c.0[2] as u32,
        (c.0[2] >> 32) as u32,
        c.0[3] as u32,
        (c.0[3] >> 32) as u32,
        c.0[4] as u32,
        (c.0[4] >> 32) as u32,
        c.0[5] as u32,
        (c.0[5] >> 32) as u32,
        c.0[6] as u32,
        (c.0[6] >> 32) as u32,
        c.0[7] as u32,
        (c.0[7] >> 32) as u32,
    ];

    // Word-lane signed sums of the nine-term schedule. Against the
    // big-endian word tuples of the standard algorithm —
    //   s1 = (c7,  c6,  c5,  c4,  c3,  c2,  c1,  c0)
    //   s2 = (c15, c14, c13, c12, c11, 0,   0,   0 )   ×2
    //   s3 = (0,   c15, c14, c13, c12, 0,   0,   0 )   ×2
    //   s4 = (c15, c14, 0,   0,   0,   c10, c9,  c8)
    //   s5 = (c8,  c13, c15, c14, c13, c11, c10, c9)
    //   s6 = (c10, c8,  0,   0,   0,   c13, c12, c11)  −
    //   s7 = (c11, c9,  0,   0,   c15, c14, c13, c12)  −
    //   s8 = (c12, 0,   c10, c9,  c8,  c15, c14, c13)  −
    //   s9 = (c13, 0,   c11, c10, c9,  0,   c15, c14)  −
    // — each output word collapses to a short independent sum with
    // coefficients in −1..3 (|wᵢ| < 2^35, comfortably inside i64).
    let v = |i: usize| a[i] as i64;
    let w0 = v(0) + v(8) + v(9) - v(11) - v(12) - v(13) - v(14);
    let w1 = v(1) + v(9) + v(10) - v(12) - v(13) - v(14) - v(15);
    let w2 = v(2) + v(10) + v(11) - v(13) - v(14) - v(15);
    let w3 = v(3) + 2 * (v(11) + v(12)) + v(13) - v(15) - v(8) - v(9);
    let w4 = v(4) + 2 * (v(12) + v(13)) + v(14) - v(9) - v(10);
    let w5 = v(5) + 2 * (v(13) + v(14)) + v(15) - v(10) - v(11);
    let w6 = v(6) + v(13) + 3 * v(14) + 2 * v(15) - v(8) - v(9);
    let w7 = v(7) + 3 * v(15) + v(8) - v(10) - v(11) - v(12) - v(13);

    // Compose word pairs into 64-bit limbs with a signed carry chain;
    // |wᵢ| < 2^35 so each partial sum fits easily in i128.
    let mut out = [0u64; 4];
    let mut carry: i128 = 0;
    for (j, (lo, hi)) in [(w0, w1), (w2, w3), (w4, w5), (w6, w7)]
        .into_iter()
        .enumerate()
    {
        let s = lo as i128 + ((hi as i128) << 32) + carry;
        out[j] = s as u64; // s mod 2^64 (two's complement)
        carry = s >> 64; // arithmetic shift: floor(s / 2^64)
    }

    // Fold the residual carry t (|t| ≤ ~7) back in one pass:
    // t·2^256 ≡ t·(2^224 − 2^192 − 2^96 + 1) (mod p), i.e.
    //   limb0 += t, limb1 −= t·2^32, limb3 += t·2^32 − t.
    let t = carry;
    let mut carry: i128 = 0;
    let v = out[0] as i128 + t;
    let r0 = v as u64;
    carry += v >> 64;
    let v = out[1] as i128 - (t << 32) + carry;
    let r1 = v as u64;
    carry = v >> 64;
    let v = out[2] as i128 + carry;
    let r2 = v as u64;
    carry = v >> 64;
    let v = out[3] as i128 + (t << 32) - t + carry;
    let r3 = v as u64;
    carry = v >> 64;

    // The folded value is carry·2^256 + r with carry ∈ {−1, 0, 1}
    // (|t·(2^224 − …)| < 2^228 ≪ 2^256): one conditional ±p retires
    // it, and one more conditional −p canonicalizes.
    let mut r = U256([r0, r1, r2, r3]);
    debug_assert!((-1..=1).contains(&carry));
    if carry < 0 {
        let (sum, _) = r.overflowing_add(p);
        r = sum;
    } else if carry > 0 {
        let (diff, _) = r.overflowing_sub(p);
        r = diff;
    }
    if &r >= p {
        r = r.wrapping_sub(p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> U256 {
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn prime_constant_matches_hex_literal() {
        assert_eq!(Fp256::P, p());
        // p = 2^256 − 2^224 + 2^192 + 2^96 − 1, rebuilt from powers.
        let mut v = U256::ZERO;
        // 2^256 − 2^224 = (2^32 − 1)·2^224
        v.0[3] = 0xffff_ffff_0000_0000;
        let (v, _) = v.overflowing_add(&U256([0, 0, 0, 1])); // + 2^192
        let (v, _) = v.overflowing_add(&U256([0, 1 << 32, 0, 0])); // + 2^96
        let (v, _) = v.overflowing_sub(&U256::ONE);
        assert_eq!(v, Fp256::P);
    }

    #[test]
    fn reduce_matches_long_division_on_structured_inputs() {
        let f = Fp256;
        let m = p();
        let cases: Vec<U512> = vec![
            U512::default(),
            U512::from_u256(&U256::ONE),
            U512::from_u256(&m),                          // exactly p
            U512::from_u256(&m.wrapping_sub(&U256::ONE)), // p − 1
            U512([0, 0, 0, 0, 1, 0, 0, 0]),               // 2^256
            U512([u64::MAX; 8]),                          // 2^512 − 1
            U512([0, 0, 0, 0, 0, 0, 0, u64::MAX]),        // high-limb only
            m.widening_mul(&m),                           // p² ≡ 0
            m.wrapping_sub(&U256::ONE)
                .widening_mul(&m.wrapping_sub(&U256::ONE)), // (p−1)²
        ];
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(reduce_wide(c), c.rem(&m), "case {i}");
        }
        let _ = f;
    }

    #[test]
    fn mul_matches_widening_rem() {
        let f = Fp256;
        let m = p();
        let vals = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(u64::MAX),
            m.wrapping_sub(&U256::ONE),
            m.wrapping_sub(&U256::from_u64(12345)),
            U256([0, 0, 1 << 63, 0]),
            U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap()
                .rem(&m),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(f.mul(a, b), a.widening_mul(b).rem(&m), "a={a:?} b={b:?}");
                assert_eq!(f.sqr(a), a.widening_sqr().rem(&m), "a={a:?}");
            }
        }
    }

    #[test]
    fn inverse_agrees_with_fermat() {
        let f = Fp256;
        for v in [1u64, 2, 3, 0xdead_beef, u64::MAX] {
            let a = U256::from_u64(v);
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), U256::ONE, "v={v}");
            assert_eq!(Some(inv), f.inv_prime(&a), "v={v}");
        }
        assert_eq!(f.inv(&U256::ZERO), None);
        assert_eq!(f.inv_prime(&U256::ZERO), None);
        let pm1 = p().wrapping_sub(&U256::ONE); // −1 is its own inverse
        assert_eq!(f.inv(&pm1), Some(pm1));
    }

    #[test]
    fn batch_inversion_matches_individual() {
        let f = Fp256;
        let mut values: Vec<U256> = [7u64, 11, 0, 13, 0, 99]
            .iter()
            .map(|&v| U256::from_u64(v))
            .collect();
        let originals = values.clone();
        let mask = f.batch_inv(&mut values);
        assert_eq!(mask, vec![true, true, false, true, false, true]);
        for i in 0..values.len() {
            if mask[i] {
                assert_eq!(Some(values[i]), f.inv(&originals[i]), "i={i}");
            } else {
                assert!(values[i].is_zero());
            }
        }
        let mut zeros = vec![U256::ZERO; 3];
        assert_eq!(f.batch_inv(&mut zeros), vec![false; 3]);
    }

    #[test]
    fn add_sub_neg_wrap_correctly() {
        let f = Fp256;
        let pm1 = p().wrapping_sub(&U256::ONE);
        assert_eq!(f.add(&pm1, &U256::ONE), U256::ZERO);
        assert_eq!(f.sub(&U256::ZERO, &U256::ONE), pm1);
        assert_eq!(f.neg(&U256::ONE), pm1);
        assert_eq!(f.neg(&U256::ZERO), U256::ZERO);
        assert_eq!(f.add(&f.neg(&pm1), &pm1), U256::ZERO);
    }

    #[test]
    fn pow_small_exponents() {
        let f = Fp256;
        let three = U256::from_u64(3);
        assert_eq!(f.pow(&three, &U256::ZERO), U256::ONE);
        assert_eq!(f.pow(&three, &U256::from_u64(5)), U256::from_u64(243));
    }
}
