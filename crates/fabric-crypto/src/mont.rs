//! Montgomery-domain modular arithmetic for odd 256-bit moduli.
//!
//! Both the P-256 field prime `p` and the group order `n` are odd, so a
//! single generic Montgomery implementation can serve field arithmetic
//! (point operations) and scalar arithmetic (ECDSA). Montgomery
//! multiplication is self-contained — no precomputed reduction identities
//! to mistranscribe — and runs in a few dozen nanoseconds per multiply.
//!
//! In this crate the domain on `n` *is* the scalar field
//! ([`crate::curve::CurveParams::fn_`]; the group order has none of the
//! sparse structure that makes a specialized fold pay). The base field
//! moved to the Solinas kernel in [`crate::fp256`]; a domain on `p` is
//! built only by the differential tests, as the reference that kernel is
//! held to.
//!
//! The only non-trivial setup constants, `R mod m` and `R² mod m`
//! (`R = 2^256`), are derived at construction time with the slow-but-sure
//! binary division from [`crate::bigint`], so a [`MontgomeryDomain`] can be
//! built for any odd modulus without external tables.

use crate::bigint::{addmul_row, inv_mod_odd, propagate_carry, U256, U512};

/// Precomputed context for Montgomery arithmetic modulo an odd `m < 2^256`.
///
/// Values handled by [`MontgomeryDomain::mul`]/[`MontgomeryDomain::pow`]
/// are *Montgomery residues* (`x·R mod m`); convert with
/// [`to_mont`](Self::to_mont) / [`from_mont`](Self::from_mont).
///
/// ```
/// use fabric_crypto::bigint::U256;
/// use fabric_crypto::mont::MontgomeryDomain;
/// let m = U256::from_u64(1_000_003);
/// let dom = MontgomeryDomain::new(m);
/// let a = dom.to_mont(&U256::from_u64(1234));
/// let b = dom.to_mont(&U256::from_u64(5678));
/// let ab = dom.from_mont(&dom.mul(&a, &b));
/// assert_eq!(ab, U256::from_u64(1234 * 5678 % 1_000_003));
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryDomain {
    m: U256,
    /// `-m^-1 mod 2^64`, the REDC constant.
    n0: u64,
    /// `R mod m` — the Montgomery form of 1.
    r1: U256,
    /// `R² mod m` — multiplier to enter the domain.
    r2: U256,
}

impl MontgomeryDomain {
    /// Builds a domain for the odd modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even or zero (Montgomery reduction requires
    /// `gcd(m, 2^256) = 1`).
    pub fn new(m: U256) -> Self {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        // n0 = -m^{-1} mod 2^64 via Newton iteration on the low limb:
        // x_{k+1} = x_k * (2 - m*x_k), doubling correct bits each step.
        let m0 = m.0[0];
        let mut inv = m0; // correct to 3 bits for odd m
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0 = inv.wrapping_neg();

        // R mod m = (2^256 - m) mod m because 2^255 < m is not guaranteed;
        // use the generic 512-bit remainder instead (cold path, fine).
        let mut r = U512::default();
        r.0[4] = 1; // 2^256
        let r1 = r.rem(&m);
        // R^2 mod m by doubling R mod m 256 times.
        let mut r2 = r1;
        for _ in 0..256 {
            r2 = r2.add_mod(&r2, &m);
        }
        MontgomeryDomain { m, n0, r1, r2 }
    }

    /// The modulus this domain reduces by.
    pub fn modulus(&self) -> &U256 {
        &self.m
    }

    /// Montgomery form of `1`.
    pub fn one(&self) -> U256 {
        self.r1
    }

    /// Converts `x < m` into the Montgomery domain (`x·R mod m`).
    pub fn to_mont(&self, x: &U256) -> U256 {
        debug_assert!(x < &self.m);
        self.mul(x, &self.r2)
    }

    /// Converts a Montgomery residue back to a normal integer.
    pub fn from_mont(&self, x: &U256) -> U256 {
        self.redc(&U512::from_u256(x))
    }

    /// Montgomery multiplication: returns `a·b·R^-1 mod m`.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        self.redc(&a.widening_mul(b))
    }

    /// Montgomery squaring, using the dedicated squaring kernel (each
    /// cross limb product computed once and doubled).
    pub fn sqr(&self, a: &U256) -> U256 {
        self.redc(&a.widening_sqr())
    }

    /// Modular addition of two residues.
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        a.add_mod(b, &self.m)
    }

    /// Modular subtraction of two residues.
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        a.sub_mod(b, &self.m)
    }

    /// Modular negation of a residue.
    pub fn neg(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.m.wrapping_sub(a)
        }
    }

    /// Exponentiation of a Montgomery residue by a plain integer exponent,
    /// left-to-right binary.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut acc = self.one();
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Multiplicative inverse of a residue for a *prime* modulus, via
    /// Fermat's little theorem (`a^(m-2)`).
    ///
    /// Returns `None` for the zero residue.
    pub fn inv_prime(&self, a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        let exp = self.m.wrapping_sub(&U256::from_u64(2));
        Some(self.pow(a, &exp))
    }

    /// Multiplicative inverse of a residue via the binary extended
    /// Euclidean algorithm — shift/add only, several times faster than
    /// the Fermat ladder in [`Self::inv_prime`], and correct for any odd
    /// modulus (not just primes).
    ///
    /// Returns `None` for the zero residue or when the value is not
    /// coprime with the modulus.
    pub fn inv(&self, a: &U256) -> Option<U256> {
        let plain = self.from_mont(a);
        let inv_plain = self.inv_euclid_plain(&plain)?;
        Some(self.to_mont(&inv_plain))
    }

    /// Binary extended GCD inverse on plain (non-Montgomery) integers:
    /// returns `x` with `a·x ≡ 1 (mod m)`, or `None` when no inverse
    /// exists. `m` must be odd, which `new` already guarantees. The
    /// Euclidean core is [`inv_mod_odd`], shared with the Solinas base
    /// field in [`crate::fp256`].
    fn inv_euclid_plain(&self, a: &U256) -> Option<U256> {
        inv_mod_odd(a, &self.m)
    }

    /// Montgomery batch inversion: inverts every invertible residue in
    /// `values` at the cost of a *single* field inversion plus `3(n-1)`
    /// multiplications (Montgomery's trick), writing results in place.
    /// The returned mask is `true` exactly where `values[i]` now holds a
    /// verified inverse; zero residues (and, under a composite modulus,
    /// residues sharing a factor with it) are zeroed and reported
    /// `false`.
    ///
    /// This is the block-level amortization the validator uses for the
    /// `1/s` of every signature in a block.
    pub fn batch_inv(&self, values: &mut [U256]) -> Vec<bool> {
        let mut mask: Vec<bool> = values.iter().map(|v| !v.is_zero()).collect();
        // prefix[i] = product of nonzero values[0..=i].
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = self.one();
        for (v, &ok) in values.iter().zip(&mask) {
            if ok {
                acc = self.mul(&acc, v);
            }
            prefix.push(acc);
        }
        let mut inv_acc = match self.inv(&acc) {
            Some(inv) => inv,
            None => {
                // Degenerate (all zero, or a non-coprime residue under a
                // composite modulus): fall back to per-element inversion,
                // downgrading the mask where no inverse exists.
                for (v, ok) in values.iter_mut().zip(mask.iter_mut()) {
                    if *ok {
                        match self.inv(v) {
                            Some(inv) => *v = inv,
                            None => {
                                *v = U256::ZERO;
                                *ok = false;
                            }
                        }
                    }
                }
                return mask;
            }
        };
        for i in (0..values.len()).rev() {
            if !mask[i] {
                continue;
            }
            let prev = if i == 0 { self.one() } else { prefix[i - 1] };
            let inv_i = self.mul(&inv_acc, &prev);
            inv_acc = self.mul(&inv_acc, &values[i]);
            values[i] = inv_i;
        }
        mask
    }

    /// Montgomery reduction (REDC) of a 512-bit value `t < m·R`:
    /// returns `t·R^-1 mod m`.
    fn redc(&self, t: &U512) -> U256 {
        let m = &self.m.0;
        // Work array with one extra carry slot.
        let mut a = [0u64; 9];
        a[..8].copy_from_slice(&t.0);
        for i in 0..4 {
            let u = a[i].wrapping_mul(self.n0);
            // a += u * m << (64*i), one shared row carry chain.
            let carry = addmul_row(&mut a[i..i + 4], m, u);
            propagate_carry(&mut a[i + 4..], carry);
        }
        let mut out = U256([a[4], a[5], a[6], a[7]]);
        // At most one final subtraction (a[8] can hold a carry bit).
        if a[8] != 0 || out >= self.m {
            out = out.wrapping_sub(&self.m);
        }
        debug_assert!(out < self.m);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p256_prime() -> U256 {
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn roundtrip_small_modulus() {
        let dom = MontgomeryDomain::new(U256::from_u64(1_000_003));
        for x in [0u64, 1, 2, 999_999, 1_000_002] {
            let v = U256::from_u64(x);
            assert_eq!(dom.from_mont(&dom.to_mont(&v)), v, "x={x}");
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let m = 0xffff_ffff_ffff_fc5fu64; // odd 64-bit modulus
        let dom = MontgomeryDomain::new(U256::from_u64(m));
        let cases = [(3u64, 5u64), (m - 1, m - 1), (12345, 987654321), (1, m - 2)];
        for (a, b) in cases {
            let am = dom.to_mont(&U256::from_u64(a));
            let bm = dom.to_mont(&U256::from_u64(b));
            let got = dom.from_mont(&dom.mul(&am, &bm));
            let expect = ((a as u128 * b as u128) % m as u128) as u64;
            assert_eq!(got, U256::from_u64(expect), "{a}*{b} mod {m}");
        }
    }

    #[test]
    fn pow_matches_reference() {
        let m = 1_000_003u64;
        let dom = MontgomeryDomain::new(U256::from_u64(m));
        let base = dom.to_mont(&U256::from_u64(7));
        let got = dom.from_mont(&dom.pow(&base, &U256::from_u64(100)));
        let mut expect = 1u64;
        for _ in 0..100 {
            expect = expect * 7 % m;
        }
        assert_eq!(got, U256::from_u64(expect));
    }

    #[test]
    fn inverse_on_p256_prime() {
        let dom = MontgomeryDomain::new(p256_prime());
        let x = dom.to_mont(&U256::from_u64(0xdead_beef));
        let xi = dom.inv_prime(&x).unwrap();
        assert_eq!(dom.from_mont(&dom.mul(&x, &xi)), U256::ONE);
        assert_eq!(dom.inv_prime(&U256::ZERO), None);
    }

    #[test]
    fn one_is_identity() {
        let dom = MontgomeryDomain::new(p256_prime());
        let x = dom.to_mont(&U256::from_u64(42));
        assert_eq!(dom.mul(&x, &dom.one()), x);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        MontgomeryDomain::new(U256::from_u64(100));
    }

    #[test]
    fn euclid_inverse_matches_fermat() {
        let dom = MontgomeryDomain::new(p256_prime());
        for v in [1u64, 2, 3, 0xdead_beef, u64::MAX] {
            let x = dom.to_mont(&U256::from_u64(v));
            assert_eq!(dom.inv(&x), dom.inv_prime(&x), "v={v}");
        }
        assert_eq!(dom.inv(&U256::ZERO), None);
    }

    #[test]
    fn euclid_inverse_detects_common_factor() {
        // Composite modulus 3 * 5 * 7 = 105: multiples of 3 have no inverse.
        let dom = MontgomeryDomain::new(U256::from_u64(105));
        let x = dom.to_mont(&U256::from_u64(21));
        assert_eq!(dom.inv(&x), None);
        let y = dom.to_mont(&U256::from_u64(11));
        let yi = dom.inv(&y).unwrap();
        assert_eq!(dom.from_mont(&dom.mul(&y, &yi)), U256::ONE);
    }

    #[test]
    fn batch_inversion_matches_individual() {
        let dom = MontgomeryDomain::new(p256_prime());
        let mut values: Vec<U256> = [7u64, 11, 13, 0, 12345, 0, 99]
            .iter()
            .map(|&v| {
                if v == 0 {
                    U256::ZERO
                } else {
                    dom.to_mont(&U256::from_u64(v))
                }
            })
            .collect();
        let originals = values.clone();
        let mask = dom.batch_inv(&mut values);
        assert_eq!(mask, vec![true, true, true, false, true, false, true]);
        for i in 0..values.len() {
            if mask[i] {
                assert_eq!(Some(values[i]), dom.inv_prime(&originals[i]), "i={i}");
            } else {
                assert!(values[i].is_zero());
            }
        }
    }

    #[test]
    fn batch_inversion_all_zero() {
        let dom = MontgomeryDomain::new(p256_prime());
        let mut values = vec![U256::ZERO; 3];
        let mask = dom.batch_inv(&mut values);
        assert_eq!(mask, vec![false; 3]);
    }

    #[test]
    fn batch_inversion_composite_modulus_flags_non_invertible() {
        // 105 = 3·5·7: residues sharing a factor have no inverse and
        // must come back masked false and zeroed, not left in place.
        let dom = MontgomeryDomain::new(U256::from_u64(105));
        let mut values = vec![
            dom.to_mont(&U256::from_u64(3)),
            dom.to_mont(&U256::from_u64(11)),
            U256::ZERO,
        ];
        let mask = dom.batch_inv(&mut values);
        assert_eq!(mask, vec![false, true, false]);
        assert!(values[0].is_zero());
        assert!(values[2].is_zero());
        let eleven = dom.to_mont(&U256::from_u64(11));
        assert_eq!(dom.from_mont(&dom.mul(&eleven, &values[1])), U256::ONE);
    }

    #[test]
    fn dedicated_squaring_matches_mul() {
        let dom = MontgomeryDomain::new(p256_prime());
        for v in [0u64, 1, 3, u64::MAX, 0x1234_5678_9abc_def0] {
            let x = dom.to_mont(&U256::from_u64(v));
            assert_eq!(dom.sqr(&x), dom.mul(&x, &x), "v={v}");
        }
    }

    #[test]
    fn neg_and_sub() {
        let dom = MontgomeryDomain::new(U256::from_u64(97));
        let a = dom.to_mont(&U256::from_u64(10));
        let na = dom.neg(&a);
        assert!(dom.from_mont(&dom.add(&a, &na)).is_zero());
        assert_eq!(dom.neg(&U256::ZERO), U256::ZERO);
    }
}
