//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the scalar/coordinate type underlying the P-256
//! implementation in [`crate::curve`] and [`crate::ecdsa`]. It is a plain
//! little-endian 4×`u64` limb vector with the usual carry-propagating
//! arithmetic, plus the widening multiply and 512-by-256-bit remainder
//! needed by modular reduction.
//!
//! The type is deliberately minimal: it implements only the operations the
//! cryptographic stack needs, and every operation is checked (no implicit
//! wrap-around except where the method name says so).

use std::cmp::Ordering;
use std::fmt;

/// Adds `a + b + carry_in`, returning the low 64 bits and the carry-out.
///
/// The building block of every carry chain in this crate (generic
/// Montgomery arithmetic in [`crate::mont`] and the Solinas-form P-256
/// field in [`crate::fp256`] share it). `carry_in` may be any `u64`; the
/// carry-out is at most `1` when `carry_in <= 1`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry_in: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry_in as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtracts `a - b - borrow_in` (with `borrow_in` in `{0, 1}`),
/// returning the low 64 bits and the borrow-out (`0` or `1`).
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow_in: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow_in as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: `acc + a·b + carry_in`, returning the low 64
/// bits and the high 64 bits. Never overflows: the result of
/// `2^64-1 + (2^64-1)² + 2^64-1` still fits in 128 bits.
#[inline(always)]
pub const fn mac(acc: u64, a: u64, b: u64, carry_in: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry_in as u128;
    (t as u64, (t >> 64) as u64)
}

/// Whole-row multiply-accumulate: `acc[..a.len()] += a·b`, returning the
/// carry-out limb. This is the widened form of [`mac`] — one straight
/// lane-wise carry chain instead of per-call-site loops — shared by the
/// schoolbook multiply ([`U256::widening_mul`]) and Montgomery REDC
/// ([`crate::mont`]), and shaped so a vectorizing backend can treat the
/// row as one fused operation.
///
/// # Panics
///
/// Debug-asserts `acc.len() >= a.len()`.
#[inline(always)]
pub fn addmul_row(acc: &mut [u64], a: &[u64], b: u64) -> u64 {
    debug_assert!(acc.len() >= a.len());
    let mut carry = 0u64;
    for (dst, &src) in acc.iter_mut().zip(a.iter()) {
        (*dst, carry) = mac(*dst, src, b, carry);
    }
    carry
}

/// Propagates a carry limb into `acc`, returning the final carry-out
/// (nonzero only if the chain overflows `acc`). The tail step of
/// [`addmul_row`] when the row lands mid-array.
#[inline(always)]
pub fn propagate_carry(acc: &mut [u64], mut carry: u64) -> u64 {
    for limb in acc.iter_mut() {
        if carry == 0 {
            break;
        }
        let (sum, c) = limb.overflowing_add(carry);
        *limb = sum;
        carry = c as u64;
    }
    carry
}

/// Modular inverse of `a` for an **odd** modulus `m`, via the binary
/// extended Euclidean algorithm (shift/add only — no division, no
/// exponentiation). `a` is reduced modulo `m` first; returns `None`
/// when `a ≡ 0` or `gcd(a, m) ≠ 1`.
///
/// This is the plain-integer inverse shared by the ECDSA scalar flow
/// (`s⁻¹`, `k⁻¹`), [`crate::mont::MontgomeryDomain::inv`] and the
/// Solinas-form base field ([`crate::fp256::Fp256::inv`]).
///
/// # Panics
///
/// Debug-asserts that `m` is odd (the halving step requires it).
pub fn inv_mod_odd(a: &U256, m: &U256) -> Option<U256> {
    debug_assert!(m.is_odd(), "inv_mod_odd requires an odd modulus");
    let a = a.rem(m);
    if a.is_zero() {
        return None;
    }
    let mut u = a;
    let mut v = *m;
    let mut x1 = U256::ONE;
    let mut x2 = U256::ZERO;
    while !u.is_zero() && u != U256::ONE && v != U256::ONE {
        while !u.is_odd() {
            u = u.shr_small(1);
            x1 = half_mod(&x1, m);
        }
        while !v.is_odd() {
            v = v.shr_small(1);
            x2 = half_mod(&x2, m);
        }
        if u >= v {
            u = u.wrapping_sub(&v);
            x1 = x1.sub_mod(&x2, m);
        } else {
            v = v.wrapping_sub(&u);
            x2 = x2.sub_mod(&x1, m);
        }
    }
    if u == U256::ONE {
        Some(x1)
    } else if v == U256::ONE {
        Some(x2)
    } else {
        // gcd(a, m) != 1: not invertible.
        None
    }
}

/// Halves `x` modulo an odd `m`: `x/2` when even, `(x+m)/2` otherwise
/// (tracking the possible 257th carry bit of the addition).
fn half_mod(x: &U256, m: &U256) -> U256 {
    debug_assert!(x < m);
    if !x.is_odd() {
        x.shr_small(1)
    } else {
        let (sum, carry) = x.overflowing_add(m);
        let mut half = sum.shr_small(1);
        if carry {
            half.0[3] |= 1 << 63;
        }
        half
    }
}

/// All ones when `bit`, zero otherwise: the selector of the
/// branch-free modular add/sub.
#[inline(always)]
fn limb_mask(bit: bool) -> u64 {
    (bit as u64).wrapping_neg()
}

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
///
/// ```
/// use fabric_crypto::bigint::U256;
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// assert_eq!(a.wrapping_add(&b), U256::from_u64(12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit product of two [`U256`] values, little-endian 8×`u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512(pub [u64; 8]);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a `U256` from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a `U256` from big-endian bytes.
    ///
    /// Accepts up to 32 bytes; shorter slices are treated as left-padded
    /// with zeros (matching the interpretation of DER integers and hash
    /// outputs).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 32`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256::from_be_bytes: more than 32 bytes");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let off = 32 - 8 * (i + 1);
            *limb = u64::from_be_bytes(buf[off..off + 8].try_into().expect("8-byte slice"));
        }
        U256(limbs)
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let off = 32 - 8 * (i + 1);
            out[off..off + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, up to 64 digits).
    ///
    /// # Errors
    ///
    /// Returns [`ParseUintError`] when the input is empty, longer than 64
    /// digits, or contains a non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseUintError> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() || s.len() > 64 {
            return Err(ParseUintError { input_len: s.len() });
        }
        let mut v = U256::ZERO;
        for c in s.chars() {
            let d = c
                .to_digit(16)
                .ok_or(ParseUintError { input_len: s.len() })? as u64;
            v = v.shl_small(4);
            v.0[0] |= d;
        }
        Ok(v)
    }

    /// Formats as a 64-digit lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.to_be_bytes() {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns the value of bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Addition returning the sum and the carry-out.
    #[allow(clippy::needless_range_loop)] // lock-step carry propagation
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            (out[i], carry) = adc(self.0[i], rhs.0[i], carry);
        }
        (U256(out), carry != 0)
    }

    /// Wrapping (mod `2^256`) addition.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Subtraction returning the difference and the borrow-out.
    #[allow(clippy::needless_range_loop)] // lock-step carry propagation
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            (out[i], borrow) = sbb(self.0[i], rhs.0[i], borrow);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping (mod `2^256`) subtraction.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256×256 → 512-bit schoolbook multiplication, one
    /// [`addmul_row`] carry chain per multiplier limb.
    pub fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            out[i + 4] = addmul_row(&mut out[i..i + 4], &rhs.0, self.0[i]);
        }
        U512(out)
    }

    /// Full 256-bit squaring, ~35% cheaper than [`Self::widening_mul`]
    /// with itself: each cross product `a_i·a_j` (`i < j`) is computed
    /// once and doubled instead of twice.
    pub fn widening_sqr(&self) -> U512 {
        let a = &self.0;
        let mut out = [0u64; 8];
        // Off-diagonal products, each taken once.
        for i in 0..4 {
            let mut carry = 0u128;
            for j in (i + 1)..4 {
                let cur = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        // Double them (shift left by one across the full 512 bits).
        let mut carry = 0u64;
        for limb in out.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        // Add the diagonal squares.
        let mut carry = 0u128;
        for i in 0..4 {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = out[2 * i] as u128 + (sq as u64 as u128) + carry;
            out[2 * i] = lo as u64;
            let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            out[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0);
        U512(out)
    }

    /// Reduction modulo `m` for values known to be `< 2m`: at most one
    /// conditional subtraction, instead of the bit-serial long division
    /// in [`Self::rem`]. This covers the ECDSA hot cases — a 256-bit
    /// digest or field element reduced modulo `n` (`n > 2^255`, so any
    /// 256-bit value is `< 2n`).
    pub fn reduce_once(&self, m: &U256) -> U256 {
        debug_assert!(!m.is_zero());
        if self >= m {
            self.wrapping_sub(m)
        } else {
            *self
        }
    }

    /// Left shift by `k < 64` bits, discarding overflow.
    pub fn shl_small(&self, k: u32) -> U256 {
        if k == 0 {
            return *self;
        }
        debug_assert!(k < 64);
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            out[i] = self.0[i] << k;
            if i > 0 {
                out[i] |= self.0[i - 1] >> (64 - k);
            }
        }
        U256(out)
    }

    /// Right shift by `k < 64` bits.
    #[allow(clippy::needless_range_loop)] // lock-step carry propagation
    pub fn shr_small(&self, k: u32) -> U256 {
        if k == 0 {
            return *self;
        }
        debug_assert!(k < 64);
        let mut out = [0u64; 4];
        for i in 0..4 {
            out[i] = self.0[i] >> k;
            if i < 3 {
                out[i] |= self.0[i + 1] << (64 - k);
            }
        }
        U256(out)
    }

    /// Modular addition: `(self + rhs) mod m`.
    ///
    /// Requires `self < m` and `rhs < m`. Branch-free: whether the sum
    /// reaches `m` is a coin flip on random field elements, which a
    /// branch predictor cannot learn, so `sum − m` is always computed
    /// and a mask picks between the two.
    #[inline]
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        let (reduced, borrow) = sum.overflowing_sub(m);
        // The 257-bit sum is ≥ m when it wrapped 2^256 or `sum − m` did
        // not borrow.
        let take_reduced = limb_mask(carry | !borrow);
        let mut out = sum;
        for (o, r) in out.0.iter_mut().zip(&reduced.0) {
            *o ^= (*o ^ r) & take_reduced;
        }
        out
    }

    /// Modular subtraction: `(self - rhs) mod m`.
    ///
    /// Requires `self < m` and `rhs < m`. Branch-free like
    /// [`Self::add_mod`]: `m` masked by the borrow is added back.
    #[inline]
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        let add_back = limb_mask(borrow);
        diff.wrapping_add(&U256(m.0.map(|limb| limb & add_back)))
    }

    /// Remainder of `self` divided by `m` via binary long division.
    ///
    /// Used only on cold paths (reduction of hash outputs, Montgomery
    /// constant setup); hot-path modular multiplication lives in
    /// [`crate::mont`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        if self < m {
            return *self;
        }
        U512::from_u256(self).rem(m)
    }
}

impl U512 {
    /// Widens a [`U256`] into the low half of a [`U512`].
    pub fn from_u256(v: &U256) -> Self {
        U512([v.0[0], v.0[1], v.0[2], v.0[3], 0, 0, 0, 0])
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Returns the value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 512, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Remainder of `self` divided by a 256-bit modulus, by shift-subtract
    /// long division. `O(bits)` but only used on cold paths.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        let mlen = m.bit_len();
        let len = self.bit_len();
        if len == 0 {
            return U256::ZERO;
        }
        let mut r = U256::ZERO;
        for i in (0..len).rev() {
            // r = r*2 + bit(i); r always < 2m <= 2^257 so track the carry.
            let carry_out = r.bit(255);
            r = r.shl_small(1);
            if self.bit(i) {
                r.0[0] |= 1;
            }
            if carry_out || &r >= m {
                r = r.wrapping_sub(m);
            }
            debug_assert!(&r < m || mlen == 256);
        }
        r
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for l in self.0.iter().rev() {
            write!(f, "{l:016x}")?;
        }
        write!(f, ")")
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

/// Error returned when parsing a hex string into a [`U256`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUintError {
    input_len: usize,
}

impl fmt::Display for ParseUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid 256-bit hex integer (length {} after whitespace removal)",
            self.input_len
        )
    }
}

impl std::error::Error for ParseUintError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_hex() {
        let v = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap();
        assert_eq!(
            v.to_hex(),
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
        );
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("zz").is_err());
        assert!(U256::from_hex(&"f".repeat(65)).is_err());
    }

    #[test]
    fn be_bytes_roundtrip_short_input() {
        let v = U256::from_be_bytes(&[0x12, 0x34]);
        assert_eq!(v, U256::from_u64(0x1234));
        let be = v.to_be_bytes();
        assert_eq!(&be[30..], &[0x12, 0x34]);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, u64::MAX, 0, 0]);
        let b = U256::ONE;
        let (s, c) = a.overflowing_add(&b);
        assert!(!c);
        assert_eq!(s, U256([0, 0, 1, 0]));
    }

    #[test]
    fn add_overflow_is_reported() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert!(s.is_zero());
    }

    #[test]
    fn sub_with_borrow() {
        let a = U256([0, 0, 1, 0]);
        let b = U256::ONE;
        let (d, bor) = a.overflowing_sub(&b);
        assert!(!bor);
        assert_eq!(d, U256([u64::MAX, u64::MAX, 0, 0]));
        let (_, bor) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(bor);
    }

    #[test]
    fn widening_mul_simple() {
        let a = U256::from_u64(u64::MAX);
        let prod = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.0[0], 1);
        assert_eq!(prod.0[1], u64::MAX - 1);
        assert_eq!(prod.0[2], 0);
    }

    #[test]
    fn rem_matches_small_values() {
        let a = U256::from_u64(1_000_000_007);
        let m = U256::from_u64(97);
        assert_eq!(a.rem(&m), U256::from_u64(1_000_000_007 % 97));
    }

    #[test]
    fn rem_512() {
        // (2^256) mod 97: compute via U512
        let mut v = U512::default();
        v.0[4] = 1; // 2^256
        let m = U256::from_u64(97);
        // 2^256 mod 97 == pow_mod(2,256,97)
        let mut expect = 1u64;
        for _ in 0..256 {
            expect = expect * 2 % 97;
        }
        assert_eq!(v.rem(&m), U256::from_u64(expect));
    }

    #[test]
    fn bit_len_and_bits() {
        assert_eq!(U256::ZERO.bit_len(), 0);
        assert_eq!(U256::ONE.bit_len(), 1);
        assert_eq!(U256::from_u64(0x8000_0000_0000_0000).bit_len(), 64);
        let v = U256([0, 0, 0, 1]);
        assert_eq!(v.bit_len(), 193);
        assert!(v.bit(192));
        assert!(!v.bit(191));
    }

    #[test]
    fn shifts() {
        let v = U256::from_u64(0xff);
        assert_eq!(v.shl_small(8), U256::from_u64(0xff00));
        assert_eq!(v.shl_small(8).shr_small(8), v);
        // shift across limb boundary
        let v = U256([1 << 63, 0, 0, 0]);
        assert_eq!(v.shl_small(1), U256([0, 1, 0, 0]));
    }

    #[test]
    fn mod_add_sub() {
        let m = U256::from_u64(1000);
        let a = U256::from_u64(700);
        let b = U256::from_u64(600);
        assert_eq!(a.add_mod(&b, &m), U256::from_u64(300));
        assert_eq!(b.sub_mod(&a, &m), U256::from_u64(900));
    }

    #[test]
    fn carry_chain_helpers() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
        assert_eq!(sbb(5, 3, 1), (1, 0));
        // mac at the extreme: acc + a*b + carry fits in 128 bits.
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        let expect = u64::MAX as u128 + (u64::MAX as u128) * (u64::MAX as u128) + u64::MAX as u128;
        assert_eq!(lo, expect as u64);
        assert_eq!(hi, (expect >> 64) as u64);
    }

    #[test]
    fn inv_mod_odd_small_cases() {
        let m = U256::from_u64(97);
        for a in 1u64..97 {
            let inv = inv_mod_odd(&U256::from_u64(a), &m).unwrap();
            let prod = U256::from_u64(a).widening_mul(&inv).rem(&m);
            assert_eq!(prod, U256::ONE, "a={a}");
        }
        assert_eq!(inv_mod_odd(&U256::ZERO, &m), None);
        // Composite modulus: shared factors are not invertible.
        let m = U256::from_u64(105);
        assert_eq!(inv_mod_odd(&U256::from_u64(21), &m), None);
        assert!(inv_mod_odd(&U256::from_u64(11), &m).is_some());
    }

    #[test]
    fn ordering() {
        let a = U256([0, 0, 0, 1]);
        let b = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
