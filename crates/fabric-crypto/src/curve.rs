//! NIST P-256 (secp256r1) elliptic curve group operations.
//!
//! Fabric's default signature scheme is 256-bit ECDSA over this curve
//! (paper §2.1.1), so the whole validation pipeline — client signatures,
//! endorsements, orderer block signatures — runs on the arithmetic in this
//! module. Points are manipulated in Jacobian coordinates over the
//! Solinas base field [`Fp256`] (canonical residues, NIST fast
//! reduction); scalar arithmetic modulo the group order runs on a
//! [`MontgomeryDomain`] built on `n`. Each layer has exactly one
//! implementation here: the generic Montgomery domain on `p` and the
//! long-division remainders in [`crate::bigint`] are the references the
//! differential tests hold [`Fp256`] to, constructed only by tests.
//!
//! The implementation favours clarity and auditability over side-channel
//! hardening: this library signs only synthetic benchmark identities.

use std::fmt;
use std::sync::OnceLock;

use crate::bigint::U256;
use crate::fp256::Fp256;
use crate::mont::MontgomeryDomain;

/// Curve parameters. Field elements (`a`, `b`, `gx`, `gy`, and every
/// point coordinate) are canonical integers below the prime
/// [`Fp256::P`].
#[derive(Debug)]
pub struct CurveParams {
    /// Scalar domain (modulo the group order `n`). Values passed to its
    /// `mul` are Montgomery residues; convert with `to_mont`/`from_mont`.
    pub fn_: MontgomeryDomain,
    /// Curve coefficient `a = -3`.
    pub a: U256,
    /// Curve coefficient `b`.
    pub b: U256,
    /// Base point x in affine coordinates.
    pub gx: U256,
    /// Base point y.
    pub gy: U256,
    /// Group order `n` as a plain integer.
    pub order: U256,
}

/// Returns the process-wide P-256 parameter set, built on first use.
pub fn p256() -> &'static CurveParams {
    static PARAMS: OnceLock<CurveParams> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let n = U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
            .expect("p-256 order literal");
        let b = U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
            .expect("p-256 b literal");
        let gx = U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
            .expect("p-256 gx literal");
        let gy = U256::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
            .expect("p-256 gy literal");
        CurveParams {
            fn_: MontgomeryDomain::new(n),
            a: Fp256.neg(&U256::from_u64(3)),
            b,
            gx,
            gy,
            order: n,
        }
    })
}

/// A point on P-256 in affine coordinates, or the identity.
///
/// Coordinates are canonical integers below the field prime; use
/// [`AffinePoint::x_bytes`]/[`AffinePoint::to_sec1_bytes`] for wire
/// representations.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AffinePoint {
    /// x coordinate. Meaningless when `infinity`.
    pub x: U256,
    /// y coordinate. Meaningless when `infinity`.
    pub y: U256,
    /// Marker for the group identity.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates `(X, Y, Z)`,
/// with affine `(X/Z², Y/Z³)`; `Z = 0` encodes the identity.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: U256,
    y: U256,
    z: U256,
}

impl AffinePoint {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        AffinePoint {
            x: U256::ZERO,
            y: U256::ZERO,
            infinity: true,
        }
    }

    /// The curve base point `G`.
    pub fn generator() -> Self {
        let c = p256();
        AffinePoint {
            x: c.gx,
            y: c.gy,
            infinity: false,
        }
    }

    /// Constructs a point from affine coordinates, verifying the curve
    /// equation `y² = x³ - 3x + b`.
    ///
    /// # Errors
    ///
    /// Returns [`PointError::NotOnCurve`] when the coordinates do not
    /// satisfy the curve equation, or [`PointError::OutOfRange`] when a
    /// coordinate is `>= p`.
    pub fn from_coords(x: &U256, y: &U256) -> Result<Self, PointError> {
        if x >= &Fp256::P || y >= &Fp256::P {
            return Err(PointError::OutOfRange);
        }
        let pt = AffinePoint {
            x: *x,
            y: *y,
            infinity: false,
        };
        if pt.is_on_curve() {
            Ok(pt)
        } else {
            Err(PointError::NotOnCurve)
        }
    }

    /// Checks the curve equation. The identity is considered on-curve.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let c = p256();
        let f = Fp256;
        let y2 = f.sqr(&self.y);
        let x3 = f.mul(&f.sqr(&self.x), &self.x);
        let ax = f.mul(&c.a, &self.x);
        let rhs = f.add(&f.add(&x3, &ax), &c.b);
        y2 == rhs
    }

    /// The x coordinate as a plain 32-byte big-endian integer.
    pub fn x_bytes(&self) -> [u8; 32] {
        self.x.to_be_bytes()
    }

    /// The y coordinate as a plain 32-byte big-endian integer.
    pub fn y_bytes(&self) -> [u8; 32] {
        self.y.to_be_bytes()
    }

    /// Serializes in uncompressed SEC1 form (`04 || X || Y`, 65 bytes).
    ///
    /// # Panics
    ///
    /// Panics if called on the identity, which has no SEC1 encoding here.
    pub fn to_sec1_bytes(&self) -> [u8; 65] {
        assert!(!self.infinity, "identity has no SEC1 encoding");
        let mut out = [0u8; 65];
        out[0] = 0x04;
        out[1..33].copy_from_slice(&self.x_bytes());
        out[33..].copy_from_slice(&self.y_bytes());
        out
    }

    /// Parses an uncompressed SEC1 point.
    ///
    /// # Errors
    ///
    /// [`PointError::Encoding`] for a wrong tag/length, plus the
    /// [`Self::from_coords`] error cases.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Result<Self, PointError> {
        if bytes.len() != 65 || bytes[0] != 0x04 {
            return Err(PointError::Encoding);
        }
        let x = U256::from_be_bytes(&bytes[1..33]);
        let y = U256::from_be_bytes(&bytes[33..65]);
        Self::from_coords(&x, &y)
    }

    /// Lifts to Jacobian coordinates.
    pub fn to_jacobian(&self) -> JacobianPoint {
        if self.infinity {
            JacobianPoint::identity()
        } else {
            JacobianPoint {
                x: self.x,
                y: self.y,
                z: U256::ONE,
            }
        }
    }

    /// Scalar multiplication `k·self` using a 4-bit window.
    pub fn mul_scalar(&self, k: &U256) -> AffinePoint {
        self.to_jacobian().mul_scalar(k).to_affine()
    }
}

impl fmt::Debug for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "AffinePoint(identity)")
        } else {
            write!(
                f,
                "AffinePoint(x=0x{}, y=0x{})",
                self.x.to_hex(),
                self.y.to_hex()
            )
        }
    }
}

impl JacobianPoint {
    /// The group identity.
    pub fn identity() -> Self {
        JacobianPoint {
            x: U256::ONE,
            y: U256::ONE,
            z: U256::ZERO,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (dbl-2001-b, valid for `a = -3`).
    pub fn double(&self) -> JacobianPoint {
        if self.is_identity() || self.y.is_zero() {
            return JacobianPoint::identity();
        }
        let f = Fp256;
        // delta = Z^2, gamma = Y^2, beta = X*gamma
        let delta = f.sqr(&self.z);
        let gamma = f.sqr(&self.y);
        let beta = f.mul(&self.x, &gamma);
        // alpha = 3*(X-delta)*(X+delta)
        let t0 = f.sub(&self.x, &delta);
        let t1 = f.add(&self.x, &delta);
        let t2 = f.mul(&t0, &t1);
        let alpha = f.add(&f.add(&t2, &t2), &t2);
        // X3 = alpha^2 - 8*beta
        let beta2 = f.add(&beta, &beta);
        let beta4 = f.add(&beta2, &beta2);
        let beta8 = f.add(&beta4, &beta4);
        let x3 = f.sub(&f.sqr(&alpha), &beta8);
        // Z3 = (Y+Z)^2 - gamma - delta
        let yz = f.add(&self.y, &self.z);
        let z3 = f.sub(&f.sub(&f.sqr(&yz), &gamma), &delta);
        // Y3 = alpha*(4*beta - X3) - 8*gamma^2
        let gsq = f.sqr(&gamma);
        let gsq2 = f.add(&gsq, &gsq);
        let gsq4 = f.add(&gsq2, &gsq2);
        let g8 = f.add(&gsq4, &gsq4);
        let y3 = f.sub(&f.mul(&alpha, &f.sub(&beta4, &x3)), &g8);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian point addition (add-2007-bl).
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let f = Fp256;
        let z1z1 = f.sqr(&self.z);
        let z2z2 = f.sqr(&other.z);
        let u1 = f.mul(&self.x, &z2z2);
        let u2 = f.mul(&other.x, &z1z1);
        let s1 = f.mul(&f.mul(&self.y, &other.z), &z2z2);
        let s2 = f.mul(&f.mul(&other.y, &self.z), &z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return JacobianPoint::identity();
        }
        let h = f.sub(&u2, &u1);
        let h2 = f.add(&h, &h);
        let i = f.sqr(&h2);
        let j = f.mul(&h, &i);
        let r0 = f.sub(&s2, &s1);
        let r = f.add(&r0, &r0);
        let v = f.mul(&u1, &i);
        // X3 = r^2 - J - 2*V
        let x3 = f.sub(&f.sub(&f.sqr(&r), &j), &f.add(&v, &v));
        // Y3 = r*(V - X3) - 2*S1*J
        let s1j = f.mul(&s1, &j);
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.add(&s1j, &s1j));
        // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
        let z12 = f.add(&self.z, &other.z);
        let z3 = f.mul(&f.sub(&f.sub(&f.sqr(&z12), &z1z1), &z2z2), &h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Windowed (4-bit) scalar multiplication `k·self`.
    pub fn mul_scalar(&self, k: &U256) -> JacobianPoint {
        if k.is_zero() || self.is_identity() {
            return JacobianPoint::identity();
        }
        // Precompute 1..15 multiples.
        let mut table = [JacobianPoint::identity(); 16];
        table[1] = *self;
        for i in 2..16 {
            table[i] = if i % 2 == 0 {
                table[i / 2].double()
            } else {
                table[i - 1].add(self)
            };
        }
        let nibbles = k.bit_len().div_ceil(4);
        let mut acc = JacobianPoint::identity();
        for w in (0..nibbles).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            let idx = ((k.0[w / 16] >> ((w % 16) * 4)) & 0xf) as usize;
            if idx != 0 {
                acc = acc.add(&table[idx]);
            }
        }
        acc
    }

    /// Mixed Jacobian + affine addition (madd-2007-bl, `Z2 = 1`), ~30%
    /// cheaper than the general [`Self::add`]. The fixed-base table and
    /// wNAF tables store affine points precisely so the hot loops can
    /// use this.
    pub fn add_mixed(&self, other: &AffinePoint) -> JacobianPoint {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_jacobian();
        }
        let f = Fp256;
        let z1z1 = f.sqr(&self.z);
        let u2 = f.mul(&other.x, &z1z1);
        let s2 = f.mul(&f.mul(&other.y, &self.z), &z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return JacobianPoint::identity();
        }
        let h = f.sub(&u2, &self.x);
        let hh = f.sqr(&h);
        let i = f.add(&f.add(&hh, &hh), &f.add(&hh, &hh));
        let j = f.mul(&h, &i);
        let r0 = f.sub(&s2, &self.y);
        let r = f.add(&r0, &r0);
        let v = f.mul(&self.x, &i);
        let x3 = f.sub(&f.sub(&f.sqr(&r), &j), &f.add(&v, &v));
        let yj = f.mul(&self.y, &j);
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.add(&yj, &yj));
        let z1h = f.add(&self.z, &h);
        let z3 = f.sub(&f.sub(&f.sqr(&z1h), &z1z1), &hh);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Width-5 wNAF scalar multiplication `k·self`: odd multiples
    /// `{1,3,..,15}·self` are precomputed once, and the signed-digit
    /// recoding leaves only ~1 addition per 6 doublings (versus 15/16
    /// per nibble for the 4-bit window in [`Self::mul_scalar`]).
    pub fn mul_scalar_wnaf(&self, k: &U256) -> JacobianPoint {
        if k.is_zero() || self.is_identity() {
            return JacobianPoint::identity();
        }
        const W: u32 = 5;
        // Odd multiples 1P, 3P, ..., 15P.
        let twice = self.double();
        let mut table = [*self; 1 << (W - 2)];
        for i in 1..table.len() {
            table[i] = table[i - 1].add(&twice);
        }
        let f = Fp256;
        let mut digits = [0i8; 257];
        let len = wnaf_digits(k, W, &mut digits);
        let mut acc = JacobianPoint::identity();
        for &d in digits[..len].iter().rev() {
            acc = acc.double();
            if d > 0 {
                acc = acc.add(&table[(d as usize) / 2]);
            } else if d < 0 {
                let p = &table[(-d as usize) / 2];
                let neg = JacobianPoint {
                    x: p.x,
                    y: f.neg(&p.y),
                    z: p.z,
                };
                acc = acc.add(&neg);
            }
        }
        acc
    }

    /// Normalizes a batch of points to affine with a *single* field
    /// inversion (Montgomery's trick over the `Z` coordinates).
    pub fn batch_to_affine(points: &[JacobianPoint]) -> Vec<AffinePoint> {
        let f = Fp256;
        let mut zs: Vec<U256> = points.iter().map(|p| p.z).collect();
        let mask = f.batch_inv(&mut zs);
        points
            .iter()
            .zip(zs.iter().zip(mask))
            .map(|(p, (zinv, ok))| {
                if !ok {
                    return AffinePoint::identity();
                }
                let zinv2 = f.sqr(zinv);
                let zinv3 = f.mul(&zinv2, zinv);
                AffinePoint {
                    x: f.mul(&p.x, &zinv2),
                    y: f.mul(&p.y, &zinv3),
                    infinity: false,
                }
            })
            .collect()
    }

    /// Interleaved double-scalar multiplication `u1·G + u2·Q`
    /// (Shamir's trick), the seed implementation's hot operation in
    /// ECDSA verification. Kept as the reference the optimized
    /// fixed-base + wNAF path is cross-checked against.
    pub fn shamir(u1: &U256, g: &JacobianPoint, u2: &U256, q: &JacobianPoint) -> JacobianPoint {
        let sum = g.add(q);
        let bits = u1.bit_len().max(u2.bit_len());
        let mut acc = JacobianPoint::identity();
        for i in (0..bits).rev() {
            acc = acc.double();
            match (u1.bit(i), u2.bit(i)) {
                (true, true) => acc = acc.add(&sum),
                (true, false) => acc = acc.add(g),
                (false, true) => acc = acc.add(q),
                (false, false) => {}
            }
        }
        acc
    }

    /// Tests whether this point's affine x coordinate reduces to `r`
    /// modulo the group order — the final ECDSA check — *without* the
    /// field inversion of [`Self::to_affine`]: `x = X/Z²`, so
    /// `x ≡ r (mod n)` iff `X = x̂·Z²` for some candidate `x̂ ∈ {r, r+n}`
    /// below the field prime (`p < 2n`, so no further candidates exist).
    pub fn eq_x_mod_order(&self, r: &U256) -> bool {
        if self.is_identity() {
            return false;
        }
        let f = Fp256;
        let zz = f.sqr(&self.z);
        let mut candidate = *r;
        loop {
            if candidate >= Fp256::P {
                return false;
            }
            if f.mul(&candidate, &zz) == self.x {
                return true;
            }
            let (next, carry) = candidate.overflowing_add(&p256().order);
            if carry {
                return false;
            }
            candidate = next;
        }
    }

    /// Projects back to affine coordinates (one field inversion, by
    /// [`Fp256::inv`]: variable-time, like the rest of this crate).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_identity() {
            return AffinePoint::identity();
        }
        let f = Fp256;
        let zinv = f.inv(&self.z).expect("nonzero z");
        let zinv2 = f.sqr(&zinv);
        let zinv3 = f.mul(&zinv2, &zinv);
        AffinePoint {
            x: f.mul(&self.x, &zinv2),
            y: f.mul(&self.y, &zinv3),
            infinity: false,
        }
    }

    /// The affine `x` coordinate alone, `x / z²`: all an ECDSA signature
    /// keeps of `k·G`, so signing skips [`Self::to_affine`]'s `y` and its
    /// `z⁻³`. Zero for the identity, as [`AffinePoint::identity`] reads.
    pub fn affine_x(&self) -> U256 {
        if self.is_identity() {
            return U256::ZERO;
        }
        let f = Fp256;
        let zinv = f.inv(&self.z).expect("nonzero z");
        f.mul(&self.x, &f.sqr(&zinv))
    }
}

/// Width-`w` non-adjacent form: one signed odd digit in
/// `±{1, 3, .., 2^(w-1)-1}` per bit position, at most one nonzero digit
/// in any `w` consecutive positions. Writes the nonzero digits into the
/// caller's zeroed `out` (position `i` weighs `2^i`) and returns the
/// recoding's length, the top nonzero position plus one — at most
/// `k.bit_len() + 1`, which `out` must hold.
///
/// Reads `k` a window at a time and carries one bit between windows (a
/// negative digit borrows from the bits above it), so a scalar near
/// `2^256` needs no wider arithmetic: the carry simply lands on
/// position 256.
pub(crate) fn wnaf_digits(k: &U256, w: u32, out: &mut [i8]) -> usize {
    debug_assert!((2..=7).contains(&w));
    debug_assert!(out.iter().all(|&d| d == 0));
    let bits = k.bit_len();
    // Bits `i .. i + w` of `k`, zero past bit 255.
    let window = |i: usize| -> u64 {
        let (limb, off) = (i / 64, i % 64);
        let mut v = k.0.get(limb).map_or(0, |l| l >> off);
        if off > 0 {
            v |= k.0.get(limb + 1).map_or(0, |l| l << (64 - off));
        }
        v & ((1 << w) - 1)
    };
    let (mut i, mut carry, mut len) = (0, 0u64, 0);
    while i < bits || carry != 0 {
        let v = window(i) + carry;
        if v & 1 == 0 {
            // An even value leaves the carry as it found it.
            i += 1;
            continue;
        }
        // Odd, so at most 2^w − 1: the upper half becomes v − 2^w and
        // carries one into the window above.
        carry = v >> (w - 1);
        out[i] = (v as i64 - ((carry as i64) << w)) as i8;
        len = i + 1;
        i += w as usize;
    }
    len
}

/// Window width of the fixed-base comb table, in bits: `32 × 255`
/// precomputed points (~590 KiB resident), making any `k·G` at most 31
/// mixed additions with **zero** doublings.
/// `fixed_base_matches_windowed_mul` pins the table against the generic
/// windowed ladder.
pub const COMB_WINDOW_BITS: usize = 8;

/// Number of comb windows covering a 256-bit scalar.
pub const COMB_WINDOWS: usize = 256 / COMB_WINDOW_BITS;

/// Nonzero digit values per window (`2^w − 1`).
pub const COMB_DIGITS: usize = (1 << COMB_WINDOW_BITS) - 1;

/// Lazily built fixed-base comb table for the generator:
/// `windows[w][d-1] = d · 2^(W·w) · G` for `w ∈ 0..COMB_WINDOWS`,
/// `d ∈ 1..=COMB_DIGITS` (`W = COMB_WINDOW_BITS`), all in affine form
/// so [`JacobianPoint::add_mixed`] applies.
///
/// With it, any `k·G` costs at most `COMB_WINDOWS − 1` mixed additions
/// and **zero** doublings — the radix-`2^W` digits of `k` select one
/// entry per window. The table is built once per process (one batched
/// inversion over all entries); every ECDSA signature and the `u1·G`
/// half of every verification then reuses it.
pub(crate) struct FixedBaseTable {
    pub(crate) windows: Vec<Vec<AffinePoint>>,
}

pub(crate) fn fixed_base_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut flat: Vec<JacobianPoint> = Vec::with_capacity(COMB_WINDOWS * COMB_DIGITS);
        let mut base = AffinePoint::generator().to_jacobian();
        for _ in 0..COMB_WINDOWS {
            let mut acc = base;
            for _ in 1..=COMB_DIGITS {
                flat.push(acc);
                acc = acc.add(&base);
            }
            // acc is now 2^W·base: the next window's base.
            base = acc;
        }
        let affine = JacobianPoint::batch_to_affine(&flat);
        let windows = affine.chunks(COMB_DIGITS).map(|c| c.to_vec()).collect();
        FixedBaseTable { windows }
    })
}

/// Fixed-base scalar multiplication `k·G` via the precomputed comb
/// table: one table lookup and mixed addition per nonzero
/// radix-`2^W` digit of `k`, no doublings.
pub fn mul_fixed_base(k: &U256) -> JacobianPoint {
    let table = fixed_base_table();
    let mask = COMB_DIGITS as u64; // 2^W − 1
    let per_limb = 64 / COMB_WINDOW_BITS;
    let mut acc = JacobianPoint::identity();
    for w in 0..COMB_WINDOWS {
        let digit = ((k.0[w / per_limb] >> ((w % per_limb) * COMB_WINDOW_BITS)) & mask) as usize;
        if digit != 0 {
            acc = acc.add_mixed(&table.windows[w][digit - 1]);
        }
    }
    acc
}

/// Errors constructing or decoding curve points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointError {
    /// The coordinates fail the curve equation.
    NotOnCurve,
    /// A coordinate was `>= p`.
    OutOfRange,
    /// The byte encoding was malformed.
    Encoding,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::NotOnCurve => write!(f, "point is not on the P-256 curve"),
            PointError::OutOfRange => write!(f, "coordinate exceeds the field modulus"),
            PointError::Encoding => write!(f, "malformed SEC1 point encoding"),
        }
    }
}

impl std::error::Error for PointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn two_g_matches_known_vector() {
        // 2G from the public SEC/NIST multiplication tables.
        let g = AffinePoint::generator();
        let two_g = g.mul_scalar(&U256::from_u64(2));
        assert_eq!(
            two_g.x_bytes().to_vec(),
            hex("7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978")
        );
        assert_eq!(
            two_g.y_bytes().to_vec(),
            hex("07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1")
        );
    }

    #[test]
    fn add_and_double_agree() {
        let g = AffinePoint::generator().to_jacobian();
        let d = g.double().to_affine();
        let a = g.add(&g).to_affine();
        assert_eq!(d, a);
        assert!(d.is_on_curve());
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let g = AffinePoint::generator().to_jacobian();
        let mut acc = JacobianPoint::identity();
        for k in 1u64..=20 {
            acc = acc.add(&g);
            let fast = g.mul_scalar(&U256::from_u64(k)).to_affine();
            assert_eq!(acc.to_affine(), fast, "k={k}");
        }
    }

    #[test]
    fn order_times_g_is_identity() {
        let g = AffinePoint::generator().to_jacobian();
        let n = p256().order;
        assert!(g.mul_scalar(&n).is_identity());
        // (n-1)G = -G
        let nm1 = n.wrapping_sub(&U256::ONE);
        let p = g.mul_scalar(&nm1).to_affine();
        let f = Fp256;
        assert_eq!(p.x, AffinePoint::generator().x);
        assert_eq!(p.y, f.neg(&AffinePoint::generator().y));
    }

    #[test]
    fn shamir_equals_separate_muls() {
        let g = AffinePoint::generator().to_jacobian();
        let q = g.mul_scalar(&U256::from_u64(777));
        let u1 = U256::from_u64(123456789);
        let u2 = U256::from_u64(987654321);
        let lhs = JacobianPoint::shamir(&u1, &g, &u2, &q).to_affine();
        let rhs = g.mul_scalar(&u1).add(&q.mul_scalar(&u2)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn fixed_base_matches_windowed_mul() {
        let g = AffinePoint::generator().to_jacobian();
        for k in [1u64, 2, 3, 255, 256, 257, 65535, 0xdead_beef] {
            let k = U256::from_u64(k);
            assert_eq!(mul_fixed_base(&k).to_affine(), g.mul_scalar(&k).to_affine());
        }
        // Full-width scalar and the group order's neighbours.
        let n = p256().order;
        let nm1 = n.wrapping_sub(&U256::ONE);
        assert_eq!(
            mul_fixed_base(&nm1).to_affine(),
            g.mul_scalar(&nm1).to_affine()
        );
        assert!(mul_fixed_base(&n).is_identity());
        assert!(mul_fixed_base(&U256::ZERO).is_identity());
    }

    #[test]
    fn comb_table_dimensions_match_the_active_window() {
        // 8-bit windows: 32 × 255 entries. The digit loop, table build
        // and these constants must agree.
        assert_eq!(COMB_WINDOW_BITS * COMB_WINDOWS, 256);
        assert_eq!(COMB_DIGITS, (1 << COMB_WINDOW_BITS) - 1);
        let table = fixed_base_table();
        assert_eq!(table.windows.len(), COMB_WINDOWS);
        assert!(table.windows.iter().all(|w| w.len() == COMB_DIGITS));
        // The comb identity: entry d of window w+1 is 2^W times entry d
        // of window w (both are d·2^(W·w)·G scaled by the window base).
        let g = AffinePoint::generator().to_jacobian();
        let d = 3usize.min(COMB_DIGITS);
        let mut expect = g.mul_scalar(&U256::from_u64(d as u64));
        assert_eq!(
            table.windows[0][d - 1].to_jacobian().to_affine(),
            expect.to_affine()
        );
        for w in 1..3 {
            for _ in 0..COMB_WINDOW_BITS {
                expect = expect.double();
            }
            assert_eq!(
                table.windows[w][d - 1].to_jacobian().to_affine(),
                expect.to_affine(),
                "window {w}"
            );
        }
    }

    #[test]
    fn wnaf_matches_windowed_mul() {
        let g = AffinePoint::generator().to_jacobian();
        let q = g.mul_scalar(&U256::from_u64(31337));
        for k in [1u64, 2, 16, 17, 255, 1023, 0xffff_ffff] {
            let k = U256::from_u64(k);
            assert_eq!(
                q.mul_scalar_wnaf(&k).to_affine(),
                q.mul_scalar(&k).to_affine()
            );
        }
        let big =
            U256::from_hex("7fffffff00000001000000000000000000000000fffffffffffffffffffffffe")
                .unwrap();
        assert_eq!(
            q.mul_scalar_wnaf(&big).to_affine(),
            q.mul_scalar(&big).to_affine()
        );
        assert!(q.mul_scalar_wnaf(&U256::ZERO).is_identity());
    }

    #[test]
    fn mixed_addition_matches_general() {
        let g = AffinePoint::generator().to_jacobian();
        let p = g.mul_scalar(&U256::from_u64(123));
        let q_affine = g.mul_scalar(&U256::from_u64(456)).to_affine();
        let mixed = p.add_mixed(&q_affine).to_affine();
        let general = p.add(&q_affine.to_jacobian()).to_affine();
        assert_eq!(mixed, general);
        // Degenerate cases: doubling and cancellation.
        let p_affine = p.to_affine();
        assert_eq!(p.add_mixed(&p_affine).to_affine(), p.double().to_affine());
        let f = Fp256;
        let neg = AffinePoint {
            x: p_affine.x,
            y: f.neg(&p_affine.y),
            infinity: false,
        };
        assert!(p.add_mixed(&neg).is_identity());
        assert_eq!(p.add_mixed(&AffinePoint::identity()).to_affine(), p_affine);
        assert_eq!(
            JacobianPoint::identity().add_mixed(&p_affine).to_affine(),
            p_affine
        );
    }

    #[test]
    fn batch_normalization_matches_individual() {
        let g = AffinePoint::generator().to_jacobian();
        let points: Vec<JacobianPoint> = (1u64..8)
            .map(|k| g.mul_scalar(&U256::from_u64(k)))
            .chain([JacobianPoint::identity()])
            .collect();
        let batch = JacobianPoint::batch_to_affine(&points);
        for (p, b) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *b);
        }
    }

    #[test]
    fn wnaf_digits_recode_correctly() {
        // Reconstruct k = sum(d_i * 2^i) and check digit constraints.
        for k in [1u64, 2, 31, 32, 0xdead_beef_cafe, u64::MAX] {
            let mut digits = [0i8; 65];
            let len = super::wnaf_digits(&U256::from_u64(k), 5, &mut digits);
            assert!(len == 0 || digits[len - 1] != 0, "length ends on a digit");
            let mut acc = 0i128;
            for (i, &d) in digits.iter().enumerate() {
                assert!(d == 0 || d % 2 != 0, "wNAF digits are zero or odd");
                assert!((-15..=15).contains(&d));
                acc += (d as i128) << i;
            }
            assert_eq!(acc, k as i128, "k={k}");
        }
    }

    #[test]
    fn wnaf_handles_scalars_near_2_256() {
        // A negative top digit carries past bit 255 for these: the
        // recoding must put that carry on position 256.
        let g = AffinePoint::generator().to_jacobian();
        let q = g.mul_scalar(&U256::from_u64(997));
        for k in [
            U256::MAX,
            U256([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]),
            U256([31, 0, 0, u64::MAX]),
        ] {
            assert_eq!(
                q.mul_scalar_wnaf(&k).to_affine(),
                q.mul_scalar(&k).to_affine(),
                "k={k:?}"
            );
        }
    }

    #[test]
    fn sec1_roundtrip() {
        let p = AffinePoint::generator().mul_scalar(&U256::from_u64(31337));
        let bytes = p.to_sec1_bytes();
        let q = AffinePoint::from_sec1_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn sec1_rejects_bad_encodings() {
        assert_eq!(
            AffinePoint::from_sec1_bytes(&[0x04; 10]),
            Err(PointError::Encoding)
        );
        let mut bytes = AffinePoint::generator().to_sec1_bytes();
        bytes[0] = 0x02;
        assert_eq!(
            AffinePoint::from_sec1_bytes(&bytes),
            Err(PointError::Encoding)
        );
        bytes[0] = 0x04;
        bytes[64] ^= 1; // corrupt y
        assert_eq!(
            AffinePoint::from_sec1_bytes(&bytes),
            Err(PointError::NotOnCurve)
        );
    }

    #[test]
    fn identity_behaviour() {
        let id = JacobianPoint::identity();
        let g = AffinePoint::generator().to_jacobian();
        assert_eq!(id.add(&g).to_affine(), g.to_affine());
        assert_eq!(g.add(&id).to_affine(), g.to_affine());
        assert!(id.double().is_identity());
        assert!(AffinePoint::identity().is_on_curve());
    }

    #[test]
    fn inverse_points_cancel() {
        let f = Fp256;
        let g = AffinePoint::generator();
        let neg_g = AffinePoint {
            x: g.x,
            y: f.neg(&g.y),
            infinity: false,
        };
        assert!(g.to_jacobian().add(&neg_g.to_jacobian()).is_identity());
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }
}
