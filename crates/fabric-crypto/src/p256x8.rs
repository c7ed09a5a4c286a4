//! Eight P-256 verifications at a time, one per 64-bit lane of an
//! AVX-512 register, on the IFMA multiply-add (`vpmadd52luq` /
//! `vpmadd52huq`).
//!
//! The paper answers vscc's ECDSA bottleneck with a *bank* of
//! `ecdsa_engine`s fed in parallel (§3.3); this is that bank for one
//! core. It computes the same `u1·G + u2·Q` and the same projective
//! `x(R) ≡ r` check as [`crate::ecdsa::VerifyingKey::verify_prehashed_with_sinv`],
//! which stays the portable twin, the test oracle and the fallback: a
//! lane that meets anything the formulas here do not cover reports
//! *undecided* and the caller decides it on the scalar path, so the
//! verdicts are the scalar path's on every input. See the crate README,
//! "Lane kernel", for the bound table and the schedule. The module is
//! reached through [`crate::ecdsa::verify_batch`]; what it makes public
//! itself is [`Fp256x8`], the field multiply on its own for the bench
//! and the differential tests.
//!
//! # Representation
//!
//! A field element is five 52-bit limbs (`Fe`: one register a limb,
//! eight elements a register), in Montgomery form with `R = 2^260`,
//! *normalized* (every limb in `0..2^52`) wherever it is a multiplicand
//! — `madd52` reads only the low 52 bits of one — and kept below `2p`
//! between formulas. `p ≡ −1 (mod 2^52)`, so the Montgomery quotient of
//! a round is the low limb itself and `q·p₀` is "add `q` one limb up".
//!
//! * `amm(a, b)` — `a·b/R mod p`, below `(αβ/16 + 1)·p` for
//!   `a < αp`, `b < βp` (`R > 16p`): below `2p` whenever `αβ ≤ 16`.
//! * sums and differences are plain lane adds and subs of signed limbs
//!   (a difference adds the multiple of `p` that keeps it positive),
//!   followed by `norm` (carry propagation) when the bound allows the
//!   next multiply, by `wred` (subtract `⌊v/2^256⌋·p`, result below
//!   `2p`) when it does not.
//!
//! # Safety
//!
//! `unsafe` is the dispatch into the kernel — `verify8`, sound because
//! the two CPU features the kernel is compiled for are checked right
//! there, and [`Fp256x8::mul`], sound because an `Fp256x8` is only
//! handed out after the same check — and the unaligned register load
//! and store over a `[u64; 8]`. Everything else is safe
//! `#[target_feature]` code over value types.

use std::arch::x86_64::*;
use std::sync::OnceLock;

use crate::bigint::U256;
use crate::curve::{fixed_base_table, p256, AffinePoint, JacobianPoint, COMB_DIGITS, COMB_WINDOWS};
use crate::ecdsa::BATCH_LANES as LANES;
use crate::fp256::Fp256;

const LIMBS: usize = 5;
const LIMB_BITS: u32 = 52;
const LIMB_MASK: u64 = (1 << LIMB_BITS) - 1;

/// The field prime in 52-bit limbs: `p₀ = 2^52 − 1`, `p₂ = 0`.
const P52: [u64; LIMBS] = [LIMB_MASK, (1 << 44) - 1, 0, 1 << 36, 0xffff_ffff << 16];

/// One field element per lane, limb-major.
type Fe = [__m512i; LIMBS];

/// One field element outside the lanes: its 52-bit limbs.
type Limbs = [u64; LIMBS];

/// An affine table point in lane format: `x` then `y`, Montgomery
/// form, canonical (below `p`), 80 bytes.
type TablePoint = [u64; 2 * LIMBS];

fn to_limbs(v: &U256) -> Limbs {
    let w = &v.0;
    [
        w[0] & LIMB_MASK,
        (w[0] >> 52 | w[1] << 12) & LIMB_MASK,
        (w[1] >> 40 | w[2] << 24) & LIMB_MASK,
        (w[2] >> 28 | w[3] << 36) & LIMB_MASK,
        w[3] >> 16,
    ]
}

/// The canonical residue of a normalized value below `2p`.
fn canonical(l: &Limbs) -> U256 {
    let v = U256([
        l[0] | l[1] << 52,
        l[1] >> 12 | l[2] << 40,
        l[2] >> 24 | l[3] << 28,
        l[3] >> 36 | l[4] << 16,
    ]);
    if l[4] >> 48 != 0 || v >= Fp256::P {
        v.wrapping_sub(&Fp256::P)
    } else {
        v
    }
}

/// `R mod p = 2^260 mod p`: the lane form of one, and the factor that
/// takes a canonical residue into the lane domain.
fn r260() -> U256 {
    Fp256.mul(
        &U256::ZERO.wrapping_sub(&Fp256::P),
        &U256::from_u64(1 << (LIMBS as u32 * LIMB_BITS - 256)),
    )
}

fn table_point(p: &AffinePoint, r: &U256) -> TablePoint {
    debug_assert!(!p.infinity, "no multiple in a table is the identity");
    let mut out = [0; 2 * LIMBS];
    out[..LIMBS].copy_from_slice(&to_limbs(&Fp256.mul(&p.x, r)));
    out[LIMBS..].copy_from_slice(&to_limbs(&Fp256.mul(&p.y, r)));
    out
}

/// Per-key table for the `u2·Q` half: `u2` is 64 signed radix-16
/// digits, eight to each of eight 32-bit pieces that walk one doubling
/// ladder, and piece `i` looks its digit `d` up here as
/// `points[8·i + |d| − 1] = |d|·2^(32i)·Q`. 64 points, 5 KiB a key.
pub(crate) struct KeyLanes {
    points: Box<[TablePoint; Self::PIECES * Self::DIGITS]>,
}

impl KeyLanes {
    const PIECES: usize = 8;
    const PIECE_BITS: usize = 256 / Self::PIECES;
    /// Largest digit magnitude, and the points a piece stores.
    const DIGITS: usize = 8;
    /// Radix-16 digits to a piece.
    const STEPS: usize = Self::PIECE_BITS / 4;

    pub(crate) fn build(q: &AffinePoint) -> Self {
        let mut jac = Vec::with_capacity(Self::PIECES * Self::DIGITS);
        let mut base = q.to_jacobian();
        for piece in 0..Self::PIECES {
            if piece > 0 {
                for _ in 0..Self::PIECE_BITS {
                    base = base.double();
                }
            }
            let mut multiple = base;
            for _ in 0..Self::DIGITS {
                jac.push(multiple);
                multiple = multiple.add(&base);
            }
        }
        let r = r260();
        let points: Vec<TablePoint> = JacobianPoint::batch_to_affine(&jac)
            .iter()
            .map(|p| table_point(p, &r))
            .collect();
        KeyLanes {
            points: points.try_into().expect("PIECES × DIGITS points"),
        }
    }
}

/// The fixed-base comb ([`crate::curve::mul_fixed_base`]'s table) in
/// lane format, built from it on the first batch: 32 × 255 points,
/// 638 KiB.
struct LaneComb {
    points: Vec<TablePoint>,
    /// One in the lane domain: the `Z` of a table point.
    one: Limbs,
}

fn lane_comb() -> &'static LaneComb {
    static COMB: OnceLock<LaneComb> = OnceLock::new();
    COMB.get_or_init(|| {
        let r = r260();
        LaneComb {
            points: fixed_base_table()
                .windows
                .iter()
                .flatten()
                .map(|p| table_point(p, &r))
                .collect(),
            one: to_limbs(&r),
        }
    })
}

/// Eight field elements in the kernel's representation, and its
/// multiply on its own — what `cargo bench` times beside
/// [`Fp256::mul`] and the differential tests hold to it. Not an
/// arithmetic interface: there is one only on a processor that runs
/// the kernel, and nothing but the product.
#[derive(Clone, Copy, Debug)]
pub struct Fp256x8([[u64; LANES]; LIMBS]);

impl Fp256x8 {
    /// The canonical residues `values`, one per lane; `None` on a
    /// processor without AVX-512 IFMA.
    pub fn new(values: &[U256; LANES]) -> Option<Self> {
        if !available() {
            return None;
        }
        let r = r260();
        let mut rows = [[0; LANES]; LIMBS];
        for (l, v) in values.iter().enumerate() {
            transpose_in(&mut rows, l, &to_limbs(&Fp256.mul(v, &r)));
        }
        Some(Fp256x8(rows))
    }

    /// The lane-wise product modulo `p`.
    pub fn mul(&self, other: &Self) -> Self {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul(a: &Fp256x8, b: &Fp256x8) -> Fp256x8 {
            let product = amm(&load_fe(&a.0), &load_fe(&b.0));
            let mut rows = [[0; LANES]; LIMBS];
            for (row, &limb) in rows.iter_mut().zip(&product) {
                store(row, limb);
            }
            Fp256x8(rows)
        }
        // SAFETY: `mul` needs the `avx512f` and `avx512ifma` features,
        // and the only constructor hands out a value after `available`
        // saw both.
        unsafe { mul(self, other) }
    }

    /// The canonical residue in each lane.
    pub fn residues(&self) -> [U256; LANES] {
        let r_inv = Fp256.inv(&r260()).expect("R is a unit");
        std::array::from_fn(|l| {
            let limbs: Limbs = std::array::from_fn(|i| self.0[i][l]);
            Fp256.mul(&canonical(&limbs), &r_inv)
        })
    }
}

/// One lane's work: the key's table, the two scalars the scalar path
/// would multiply by, and the `r` to compare `x(R)` with.
pub(crate) struct Lane<'a> {
    pub(crate) table: &'a KeyLanes,
    pub(crate) u1: U256,
    pub(crate) u2: U256,
    pub(crate) r: U256,
}

/// Whether this processor runs the lane kernel.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// `x(u1·G + u2·Q) ≡ r (mod n)` for up to eight lanes at once:
/// `Some(verdict)` where the lane decided, `None` where it is empty or
/// met a case the lane formulas do not cover (the caller falls back to
/// the scalar path for it). `None` for the whole call on a processor
/// without AVX-512 IFMA.
pub(crate) fn verify8(lanes: &[Option<Lane<'_>>; LANES]) -> Option<[Option<bool>; LANES]> {
    if !available() {
        return None;
    }
    // SAFETY: `verify8_ifma`'s only requirement is that the CPU has the
    // `avx512f` and `avx512ifma` features; `available` checked exactly
    // those two.
    Some(unsafe { verify8_ifma(lanes) })
}

/// `u2 < 2^255` as 64 signed radix-16 digits in `−7..=8`, least
/// significant first. The top nibble is at most 7, so the recoding
/// carries nothing out.
fn signed_digits(k: &U256) -> [i8; 64] {
    debug_assert!(!k.bit(255));
    let mut out = [0i8; 64];
    let mut carry = 0;
    for (j, d) in out.iter_mut().enumerate() {
        let v = (k.0[j / 16] >> (j % 16 * 4) & 0xf) as i8 + carry;
        carry = (v > 8) as i8;
        *d = v - 16 * carry;
    }
    debug_assert_eq!(carry, 0);
    out
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn verify8_ifma(lanes: &[Option<Lane<'_>>; LANES]) -> [Option<bool>; LANES] {
    let c = p256();
    let comb = lane_comb();
    // `u2 ≥ 2^255` is folded to `n − u2` with `−Q`: every digit flips.
    let mut digits = [[0i8; 64]; LANES];
    for (digits, lane) in digits.iter_mut().zip(lanes) {
        let Some(lane) = lane else { continue };
        if lane.u2.bit(255) {
            *digits = signed_digits(&c.order.wrapping_sub(&lane.u2)).map(|d| -d);
        } else {
            *digits = signed_digits(&lane.u2);
        }
    }

    let one = splat(&comb.one);
    let mut acc = Acc::at_infinity();
    let mut gathered = [[0u64; LANES]; 2 * LIMBS];
    // u2·Q: the digits of all eight pieces at one position share the
    // four doublings above it — 28 doublings, 64 masked additions.
    for step in (0..KeyLanes::STEPS).rev() {
        if step + 1 < KeyLanes::STEPS {
            for _ in 0..4 {
                acc.double();
            }
        }
        for piece in 0..KeyLanes::PIECES {
            let (mut nonzero, mut negative) = (0u8, 0u8);
            for (l, lane) in lanes.iter().enumerate() {
                let Some(lane) = lane else { continue };
                let d = digits[l][piece * KeyLanes::STEPS + step];
                nonzero |= u8::from(d != 0) << l;
                negative |= u8::from(d < 0) << l;
                let index = piece * KeyLanes::DIGITS + usize::from(d.unsigned_abs().max(1)) - 1;
                transpose_in(&mut gathered, l, &lane.table.points[index]);
            }
            let (x2, y2) = load_point(&gathered);
            acc.add_affine(nonzero, &x2, &negate_where(negative, &y2), &one);
        }
    }
    // u1·G from the comb, into the same accumulator: 32 masked
    // additions, no doubling.
    for window in 0..COMB_WINDOWS {
        let mut nonzero = 0u8;
        for (l, lane) in lanes.iter().enumerate() {
            let Some(lane) = lane else { continue };
            let d = (lane.u1.0[window / 8] >> (window % 8 * 8)) as u8;
            nonzero |= u8::from(d != 0) << l;
            let index = window * COMB_DIGITS + usize::from(d.max(1)) - 1;
            transpose_in(&mut gathered, l, &comb.points[index]);
        }
        let (x2, y2) = load_point(&gathered);
        acc.add_affine(nonzero, &x2, &y2, &one);
    }

    // x(R) = r as X = r·Z², out of the lane domain: a product with a
    // plain integer drops one factor of R.
    let mut r = [[0u64; LANES]; LIMBS];
    for (l, lane) in lanes.iter().enumerate() {
        if let Some(lane) = lane {
            transpose_in(&mut r, l, &to_limbs(&lane.r));
        }
    }
    let r = load_fe(&r);
    let x = unload(&amm(&acc.x, &plain_one()));
    let z = unload(&amm(&acc.z, &plain_one()));
    let rzz = unload(&amm(&amm(&acc.z, &acc.z), &r));
    // x(R) ≡ r (mod n) has the second candidate r + n when that is
    // still below p; the lanes compare the first only.
    let second_candidate_below = Fp256::P.wrapping_sub(&c.order);
    let mut out = [None; LANES];
    for (l, (out, lane)) in out.iter_mut().zip(lanes).enumerate() {
        let Some(lane) = lane else { continue };
        // Still at infinity; or Z ≡ 0, which an addition of equal or
        // opposite points leaves and every later step preserves.
        let exceptional = acc.infinity >> l & 1 != 0 || canonical(&z[l]).is_zero();
        if !exceptional && lane.r >= second_candidate_below {
            *out = Some(canonical(&x[l]) == canonical(&rzz[l]));
        }
    }
    out
}

/// Copies limbs into lane `l` of the limb-major rows the registers are
/// loaded from.
fn transpose_in(rows: &mut [[u64; LANES]], l: usize, limbs: &[u64]) {
    for (row, &limb) in rows.iter_mut().zip(limbs) {
        row[l] = limb;
    }
}

#[target_feature(enable = "avx512f")]
fn load_fe(rows: &[[u64; LANES]]) -> Fe {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (limb, row) in out.iter_mut().zip(rows) {
        *limb = load(row);
    }
    out
}

#[target_feature(enable = "avx512f")]
fn load_point(gathered: &[[u64; LANES]; 2 * LIMBS]) -> (Fe, Fe) {
    (load_fe(&gathered[..LIMBS]), load_fe(&gathered[LIMBS..]))
}

#[target_feature(enable = "avx512f")]
fn load(src: &[u64; LANES]) -> __m512i {
    // SAFETY: `src` is 64 readable bytes, and the unaligned load has
    // no alignment requirement.
    unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
fn store(dst: &mut [u64; LANES], v: __m512i) {
    // SAFETY: `dst` is 64 writable bytes, and the unaligned store has
    // no alignment requirement.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
}

/// The same element in every lane.
#[target_feature(enable = "avx512f")]
fn splat(l: &Limbs) -> Fe {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (limb, &v) in out.iter_mut().zip(l) {
        *limb = _mm512_set1_epi64(v as i64);
    }
    out
}

/// The integer one — not the lane domain's — in every lane: a product
/// with it takes an element out of the lane domain.
#[target_feature(enable = "avx512f")]
fn plain_one() -> Fe {
    splat(&[1, 0, 0, 0, 0])
}

/// `k·p` in every lane, for `k` a power of two: the multiple a
/// difference adds to stay positive.
#[target_feature(enable = "avx512f")]
fn p_times<const LOG2: u32>() -> Fe {
    let [p0, p1, p2, p3, p4] = P52;
    splat(&[p0 << LOG2, p1 << LOG2, p2 << LOG2, p3 << LOG2, p4 << LOG2])
}

/// Each lane's element, as limbs.
#[target_feature(enable = "avx512f")]
fn unload(v: &Fe) -> [Limbs; LANES] {
    let mut rows = [[0u64; LANES]; LIMBS];
    for (row, &limb) in rows.iter_mut().zip(v) {
        store(row, limb);
    }
    std::array::from_fn(|l| std::array::from_fn(|i| rows[i][l]))
}

#[target_feature(enable = "avx512f")]
fn add(a: &Fe, b: &Fe) -> Fe {
    let mut out = *a;
    for (limb, &b) in out.iter_mut().zip(b) {
        *limb = _mm512_add_epi64(*limb, b);
    }
    out
}

#[target_feature(enable = "avx512f")]
fn sub(a: &Fe, b: &Fe) -> Fe {
    let mut out = *a;
    for (limb, &b) in out.iter_mut().zip(b) {
        *limb = _mm512_sub_epi64(*limb, b);
    }
    out
}

/// `v·2^LOG2`, limb by limb.
#[target_feature(enable = "avx512f")]
fn shl<const LOG2: u32>(v: &Fe) -> Fe {
    let mut out = *v;
    for limb in &mut out {
        *limb = _mm512_slli_epi64::<LOG2>(*limb);
    }
    out
}

/// `b` where the mask is set, `a` elsewhere.
#[target_feature(enable = "avx512f")]
fn blend(mask: __mmask8, a: &Fe, b: &Fe) -> Fe {
    let mut out = *a;
    for (limb, &b) in out.iter_mut().zip(b) {
        *limb = _mm512_mask_blend_epi64(mask, *limb, b);
    }
    out
}

/// Carry propagation over signed limbs: the same non-negative value
/// with limbs 0..4 in `0..2^52` and the rest in the top limb.
#[target_feature(enable = "avx512f")]
fn norm(mut v: Fe) -> Fe {
    let mask = _mm512_set1_epi64(LIMB_MASK as i64);
    for i in 0..LIMBS - 1 {
        let carry = _mm512_srai_epi64::<LIMB_BITS>(v[i]);
        v[i] = _mm512_and_si512(v[i], mask);
        v[i + 1] = _mm512_add_epi64(v[i + 1], carry);
    }
    v
}

/// Weak reduction of a non-negative value with limbs of magnitude
/// below `2^57`: subtracts `k·p` for `k` the top limb's bits from 48
/// up (`⌊v/2^256⌋` give or take what the lower limbs still carry) by
/// adding `k·(2^224 − 2^192 − 2^96 + 1)` limb-wise, then normalizes.
/// The result is non-negative — `k·(2^256 − p) ≥ 2^223` outweighs any
/// negative lower limbs when `k ≥ 1`, and nothing is subtracted when
/// `k = 0` — and below `2^256 + (k + 1)·2^224 < 2p`.
#[target_feature(enable = "avx512f")]
fn wred(mut v: Fe) -> Fe {
    let k = _mm512_srai_epi64::<48>(v[4]);
    v[4] = _mm512_and_si512(v[4], _mm512_set1_epi64((1 << 48) - 1));
    v[0] = _mm512_add_epi64(v[0], k);
    v[1] = _mm512_sub_epi64(v[1], _mm512_slli_epi64::<44>(k));
    v[3] = _mm512_sub_epi64(v[3], _mm512_slli_epi64::<36>(k));
    v[4] = _mm512_add_epi64(v[4], _mm512_slli_epi64::<16>(k));
    norm(v)
}

/// Almost-Montgomery multiplication `a·b/2^260 mod p` of normalized
/// operands: the 50 partial products into ten columns, then five
/// reduction rounds. With `p ≡ −1 (mod 2^52)` the quotient digit is
/// the column's low 52 bits, `q·p₀` leaves the column and adds `q` one
/// up, and `p₂ = 0`: six `madd52` a round beside the ten of a row.
/// Normalized, and below `(αβ/16 + 1)·p` for `a < αp`, `b < βp`.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm(a: &Fe, b: &Fe) -> Fe {
    let mut t = [_mm512_setzero_si512(); 2 * LIMBS];
    for i in 0..LIMBS {
        for j in 0..LIMBS {
            t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[j], b[i]);
            t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[j], b[i]);
        }
    }
    let mask = _mm512_set1_epi64(LIMB_MASK as i64);
    let [_, p1, _, p3, p4] = splat(&P52);
    for i in 0..LIMBS {
        let q = _mm512_and_si512(t[i], mask);
        let carry = _mm512_add_epi64(_mm512_srli_epi64::<LIMB_BITS>(t[i]), q);
        t[i + 1] = _mm512_add_epi64(t[i + 1], carry);
        t[i + 1] = _mm512_madd52lo_epu64(t[i + 1], q, p1);
        t[i + 2] = _mm512_madd52hi_epu64(t[i + 2], q, p1);
        t[i + 3] = _mm512_madd52lo_epu64(t[i + 3], q, p3);
        t[i + 4] = _mm512_madd52hi_epu64(t[i + 4], q, p3);
        t[i + 4] = _mm512_madd52lo_epu64(t[i + 4], q, p4);
        t[i + 5] = _mm512_madd52hi_epu64(t[i + 5], q, p4);
    }
    norm([t[5], t[6], t[7], t[8], t[9]])
}

/// `P − y` where the mask is set, `y` elsewhere; `y` canonical.
#[target_feature(enable = "avx512f")]
fn negate_where(mask: __mmask8, y: &Fe) -> Fe {
    if mask == 0 {
        return *y;
    }
    blend(mask, y, &norm(sub(&p_times::<0>(), y)))
}

/// Eight Jacobian accumulators, coordinates in the lane domain below
/// `2p`. The identity is a mask bit, never `Z = 0`: the coordinates of
/// a lane still at infinity mean nothing.
struct Acc {
    x: Fe,
    y: Fe,
    z: Fe,
    infinity: __mmask8,
}

impl Acc {
    #[target_feature(enable = "avx512f")]
    fn at_infinity() -> Self {
        let zero = [_mm512_setzero_si512(); LIMBS];
        Acc {
            x: zero,
            y: zero,
            z: zero,
            infinity: !0,
        }
    }

    /// dbl-2001-b for `a = −3`, eight multiplications. Bounds (inputs
    /// below `2p`, so their squares and products below `1.25p`):
    /// `X ∓ δ` below `4p` and `3(X + δ)` below `12p` give `α < 4p`;
    /// `2Y < 4p`; `X₃`, the `4β − X₃` factor and `Y₃` pass `4p` and are
    /// weakly reduced.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn double(&mut self) {
        let delta = amm(&self.z, &self.z);
        let gamma = amm(&self.y, &self.y);
        let beta = amm(&self.x, &gamma);
        let minus = norm(add(&sub(&self.x, &delta), &p_times::<1>()));
        let plus = add(&self.x, &delta);
        let alpha = amm(&minus, &norm(add(&shl::<1>(&plus), &plus)));
        // X3 = α² − 8β
        let x3 = wred(add(
            &sub(&amm(&alpha, &alpha), &shl::<3>(&beta)),
            &p_times::<4>(),
        ));
        // Z3 = 2Y·Z
        let z3 = amm(&norm(shl::<1>(&self.y)), &self.z);
        // Y3 = α·(4β − X3) − 8γ²
        let rest = wred(add(&sub(&shl::<2>(&beta), &x3), &p_times::<1>()));
        let gamma_sq = amm(&gamma, &gamma);
        let y3 = wred(add(
            &sub(&amm(&alpha, &rest), &shl::<3>(&gamma_sq)),
            &p_times::<4>(),
        ));
        (self.x, self.y, self.z) = (x3, y3, z3);
    }

    /// Adds the affine `(x2, y2)` (canonical, lane domain) to the lanes
    /// in `mask`: madd-2004-hmv, eleven multiplications — the doubled
    /// `r` and `I = 4HH` of madd-2007-bl would pass `4p` going into a
    /// multiply, and in lanes a square costs what a product costs. A
    /// lane still at infinity takes the point itself. Equal or opposite
    /// points are *not* handled: they leave `H ≡ 0`, so `Z ≡ 0 (mod p)`
    /// from then on, which the caller checks once at the end.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add_affine(&mut self, mask: __mmask8, x2: &Fe, y2: &Fe, one: &Fe) {
        if mask == 0 {
            return;
        }
        let two_p = p_times::<1>();
        let zz = amm(&self.z, &self.z);
        let zzz = amm(&zz, &self.z);
        let u2 = amm(&zz, x2);
        let s2 = amm(&zzz, y2);
        // H and r below 4p.
        let h = norm(add(&sub(&u2, &self.x), &two_p));
        let r = norm(add(&sub(&s2, &self.y), &two_p));
        let z3 = amm(&self.z, &h);
        let hh = amm(&h, &h);
        let hhh = amm(&h, &hh);
        let v = amm(&hh, &self.x);
        // X3 = r² − H³ − 2V
        let x3 = wred(add(
            &sub(&sub(&amm(&r, &r), &hhh), &shl::<1>(&v)),
            &p_times::<3>(),
        ));
        // Y3 = r·(V − X3) − Y1·H³
        let back = norm(add(&sub(&v, &x3), &two_p));
        let y3 = wred(add(&sub(&amm(&r, &back), &amm(&self.y, &hhh)), &two_p));
        let summed = mask & !self.infinity;
        let taken = mask & self.infinity;
        self.x = blend(taken, &blend(summed, &self.x, &x3), x2);
        self.y = blend(taken, &blend(summed, &self.y, &y3), y2);
        self.z = blend(taken, &blend(summed, &self.z, &z3), one);
        self.infinity &= !mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::mul_fixed_base;
    use crate::sha256::sha256;

    /// Runs `check` on a processor with the lanes; says so on one
    /// without.
    fn on_lanes(check: unsafe fn()) {
        if !available() {
            eprintln!("no avx512ifma on this processor: lane test skipped");
            return;
        }
        // SAFETY: `available` checked the features every `check` here is
        // compiled for.
        unsafe { check() }
    }

    fn random(tag: &str, i: usize) -> U256 {
        U256::from_be_bytes(&sha256(format!("{tag}/{i}").as_bytes())).rem(&Fp256::P)
    }

    /// `k·p + offset` as normalized limbs, `offset` possibly negative.
    fn near_multiple(k: u64, offset: i64) -> Limbs {
        let mut wide: [i128; LIMBS] = std::array::from_fn(|i| i128::from(P52[i]) * i128::from(k));
        wide[0] += i128::from(offset);
        for i in 0..LIMBS - 1 {
            wide[i + 1] += wide[i] >> LIMB_BITS;
            wide[i] &= i128::from(LIMB_MASK);
        }
        wide.map(|limb| u64::try_from(limb).expect("non-negative value"))
    }

    /// The value of signed limbs modulo `p`.
    fn residue(l: &[i64; LIMBS]) -> U256 {
        let f = Fp256;
        let radix = U256::from_u64(1 << LIMB_BITS);
        l.iter().rev().fold(U256::ZERO, |acc, &limb| {
            let limb_mod_p = if limb < 0 {
                f.neg(&U256::from_u64(limb.unsigned_abs()))
            } else {
                U256::from_u64(limb as u64)
            };
            f.add(&f.mul(&acc, &radix), &limb_mod_p)
        })
    }

    fn unsigned(l: &Limbs) -> [i64; LIMBS] {
        l.map(|limb| limb as i64)
    }

    /// Whether normalized limbs hold a value below `k·p`.
    fn below(l: &Limbs, k: u64) -> bool {
        let bound = near_multiple(k, 0);
        l[..LIMBS - 1].iter().all(|&limb| limb <= LIMB_MASK)
            && l.iter().rev().lt(bound.iter().rev())
    }

    #[target_feature(enable = "avx512f")]
    fn lanes_of(values: &[Limbs; LANES]) -> Fe {
        let rows: [[u64; LANES]; LIMBS] = std::array::from_fn(|i| values.map(|v| v[i]));
        load_fe(&rows)
    }

    #[target_feature(enable = "avx512f")]
    fn signed_lanes_of(values: &[[i64; LIMBS]; LANES]) -> Fe {
        lanes_of(&values.map(|v| v.map(|limb| limb as u64)))
    }

    #[test]
    fn limbs_round_trip_and_canonicalize() {
        for i in 0..32 {
            let v = random("limbs", i);
            assert_eq!(canonical(&to_limbs(&v)), v);
        }
        assert_eq!(canonical(&near_multiple(1, 0)), U256::ZERO);
        assert_eq!(canonical(&near_multiple(1, 5)), U256::from_u64(5));
        assert_eq!(
            canonical(&near_multiple(2, -1)),
            Fp256::P.wrapping_sub(&U256::ONE)
        );
        assert_eq!(
            residue(&unsigned(&near_multiple(4, -1))),
            Fp256.neg(&U256::ONE)
        );
    }

    #[test]
    fn signed_digits_recode_every_carry_case() {
        let cases = [
            U256::ZERO,
            U256::ONE,
            U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]),
            U256([0x8888_8888_8888_8888; 4]).shr_small(1),
            U256([0x9999_9999_9999_9999, 0, u64::MAX, 0x7000_0000_0000_0000]),
            random("digits", 0).shr_small(1),
        ];
        for k in cases {
            let digits = signed_digits(&k);
            assert!(digits.iter().all(|d| (-7..=8).contains(d)), "{k:?}");
            // Horner from the top, modulo n: the recoding's value is k.
            let fd = &p256().fn_;
            let sixteen = fd.to_mont(&U256::from_u64(16));
            let value = digits.iter().rev().fold(U256::ZERO, |acc, &d| {
                let d_mod_n = fd.to_mont(&U256::from_u64(u64::from(d.unsigned_abs())));
                let shifted = fd.mul(&acc, &sixteen);
                if d < 0 {
                    fd.sub(&shifted, &d_mod_n)
                } else {
                    fd.add(&shifted, &d_mod_n)
                }
            });
            assert_eq!(fd.from_mont(&value), k.rem(&p256().order), "{k:?}");
        }
    }

    #[test]
    fn amm_matches_fp256_on_random_inputs_and_at_the_bounds() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn check() {
            let f = Fp256;
            let r_inv = f.inv(&r260()).expect("R is a unit");
            // What the analysis leans on: 0, p, 2p − 1 and 4p − 1 going
            // in, 4p × 4p being the widest pair a formula multiplies.
            let bounds = [
                near_multiple(0, 0),
                near_multiple(0, 1),
                near_multiple(1, 0),
                near_multiple(2, -1),
                near_multiple(4, -1),
            ];
            let mut pairs: Vec<(Limbs, Limbs, u64)> = Vec::new();
            for a in &bounds {
                for b in &bounds {
                    pairs.push((*a, *b, 2));
                }
            }
            // 2p × 8p and p × 16p − 1 are αβ = 16 too.
            pairs.push((near_multiple(2, -1), near_multiple(8, -1), 2));
            pairs.push((near_multiple(1, -1), near_multiple(16, -1), 2));
            for i in 0..40 {
                pairs.push((
                    to_limbs(&random("amm.a", i)),
                    to_limbs(&random("amm.b", i)),
                    2,
                ));
            }
            pairs.resize(pairs.len().next_multiple_of(LANES), pairs[0]);
            for chunk in pairs.chunks(LANES) {
                let a: [Limbs; LANES] = std::array::from_fn(|l| chunk[l].0);
                let b: [Limbs; LANES] = std::array::from_fn(|l| chunk[l].1);
                let out = unload(&amm(&lanes_of(&a), &lanes_of(&b)));
                for (l, (a, b, bound)) in chunk.iter().enumerate() {
                    let expected = f.mul(
                        &f.mul(&residue(&unsigned(a)), &residue(&unsigned(b))),
                        &r_inv,
                    );
                    assert!(below(&out[l], *bound), "{a:?} × {b:?} = {:?}", out[l]);
                    assert_eq!(canonical(&out[l]), expected, "{a:?} × {b:?}");
                }
            }
        }
        on_lanes(check);
    }

    #[test]
    fn norm_and_wred_keep_the_residue_and_restore_the_bounds() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn check() {
            // Signed, un-normalized limbs of the size sums of a few
            // products and multiples of p reach, value non-negative.
            let mut inputs: Vec<[i64; LIMBS]> = vec![
                unsigned(&near_multiple(0, 0)),
                unsigned(&near_multiple(1, 0)),
                unsigned(&near_multiple(8, 0)),
                unsigned(&near_multiple(16, -1)),
                unsigned(&near_multiple(18, 0)),
                // 2^256 exactly, and just below, through negative limbs.
                [0, 0, 0, 0, 1 << 48],
                [-1, 0, 0, 0, 1 << 48],
                [-(1 << 56), -(1 << 56), -(1 << 56), -(1 << 56), 1 << 48],
                [
                    (1 << 56) - 1,
                    -(1 << 56),
                    (1 << 56) - 1,
                    -(1 << 56),
                    31 << 48,
                ],
            ];
            for i in 0..23 {
                let noise = random("wred", i).0;
                let mut limbs = unsigned(&to_limbs(&random("wred.v", i)));
                for (limb, noise) in limbs.iter_mut().zip(noise) {
                    *limb += (noise >> 8) as i64 >> 7; // ±2^48
                }
                limbs[4] += ((i as i64) % 17) << 48;
                inputs.push(limbs);
            }
            assert_eq!(inputs.len() % LANES, 0);
            for chunk in inputs.chunks(LANES) {
                let chunk: &[[i64; LIMBS]; LANES] = chunk.try_into().expect("whole chunks");
                let v = signed_lanes_of(chunk);
                let normalized = unload(&norm(v));
                let reduced = unload(&wred(v));
                for (l, input) in chunk.iter().enumerate() {
                    let n = &normalized[l];
                    assert!(n[..4].iter().all(|&limb| limb <= LIMB_MASK), "{input:?}");
                    assert!(n[4] < 1 << 58, "{input:?}: top limb {:#x}", n[4]);
                    assert_eq!(residue(&unsigned(n)), residue(input), "{input:?}");
                    assert!(below(&reduced[l], 2), "{input:?} → {:?}", reduced[l]);
                    assert_eq!(canonical(&reduced[l]), residue(input), "{input:?}");
                }
            }
        }
        on_lanes(check);
    }

    /// The affine point a lane of `acc` holds, or the identity.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn affine_of(acc: &Acc) -> [AffinePoint; LANES] {
        let f = Fp256;
        let x = unload(&amm(&acc.x, &plain_one()));
        let y = unload(&amm(&acc.y, &plain_one()));
        let z = unload(&amm(&acc.z, &plain_one()));
        std::array::from_fn(|l| {
            let z = canonical(&z[l]);
            if acc.infinity >> l & 1 != 0 || z.is_zero() {
                return AffinePoint::identity();
            }
            let z_inv = f.inv(&z).expect("nonzero");
            let z_inv2 = f.sqr(&z_inv);
            AffinePoint {
                x: f.mul(&canonical(&x[l]), &z_inv2),
                y: f.mul(&canonical(&y[l]), &f.mul(&z_inv2, &z_inv)),
                infinity: false,
            }
        })
    }

    #[target_feature(enable = "avx512f")]
    fn points_of(points: &[AffinePoint; LANES]) -> (Fe, Fe) {
        let r = r260();
        let mut gathered = [[0u64; LANES]; 2 * LIMBS];
        for (l, p) in points.iter().enumerate() {
            transpose_in(&mut gathered, l, &table_point(p, &r));
        }
        load_point(&gathered)
    }

    #[test]
    fn double_and_masked_add_match_the_jacobian_formulas() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn check() {
            let one = splat(&to_limbs(&r260()));
            let scalars: [U256; LANES] = std::array::from_fn(|l| random("point", l));
            let mut expected = scalars.map(|k| mul_fixed_base(&k));
            let start = expected.map(|p| p.to_affine());
            let (x, y) = points_of(&start);
            let mut acc = Acc::at_infinity();
            // Lanes 0..6 take the point; 6 and 7 stay at infinity.
            acc.add_affine(0b0011_1111, &x, &y, &one);
            assert_eq!(acc.infinity, 0b1100_0000);
            for round in 0..40 {
                acc.double();
                let addend: [AffinePoint; LANES] = std::array::from_fn(|l| {
                    mul_fixed_base(&random("addend", 8 * round + l)).to_affine()
                });
                let (x, y) = points_of(&addend);
                // A different subset each round; lane 7 never adds.
                let mask = (random("mask", round).0[0] as u8) & 0b0111_1111;
                let negative = (random("sign", round).0[0] as u8) & mask;
                acc.add_affine(mask, &x, &negate_where(negative, &y), &one);
                for l in 0..LANES {
                    expected[l] = expected[l].double();
                    if l >= 6 && round == 0 {
                        expected[l] = JacobianPoint::identity();
                    }
                    if mask >> l & 1 != 0 {
                        let mut p = addend[l];
                        if negative >> l & 1 != 0 {
                            p.y = Fp256.neg(&p.y);
                        }
                        expected[l] = expected[l].add_mixed(&p);
                    }
                }
                let got = affine_of(&acc);
                for l in 0..LANES {
                    assert_eq!(got[l], expected[l].to_affine(), "round {round}, lane {l}");
                }
                for coordinate in [&acc.x, &acc.y, &acc.z] {
                    for (l, limbs) in unload(coordinate).iter().enumerate() {
                        assert!(
                            acc.infinity >> l & 1 != 0 || below(limbs, 2),
                            "round {round}, lane {l}: a coordinate left 2p"
                        );
                    }
                }
            }
            assert_eq!(acc.infinity, 0b1000_0000, "lane 7 never left infinity");
        }
        on_lanes(check);
    }

    #[test]
    fn equal_and_opposite_points_leave_z_zero_for_good() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn check() {
            let one = splat(&to_limbs(&r260()));
            let g = AffinePoint::generator();
            let (x, y) = points_of(&[g; LANES]);
            let mut acc = Acc::at_infinity();
            acc.add_affine(!0, &x, &y, &one);
            // Lanes 0..4 add G to G, lanes 4..8 add −G to G.
            acc.add_affine(!0, &x, &negate_where(0b1111_0000, &y), &one);
            let z_is_zero =
                |acc: &Acc| unload(&amm(&acc.z, &plain_one())).map(|z| canonical(&z).is_zero());
            assert_eq!(z_is_zero(&acc), [true; LANES]);
            let other = mul_fixed_base(&U256::from_u64(77)).to_affine();
            let (x, y) = points_of(&[other; LANES]);
            for _ in 0..3 {
                acc.double();
                acc.add_affine(!0, &x, &y, &one);
                assert_eq!(z_is_zero(&acc), [true; LANES]);
            }
        }
        on_lanes(check);
    }

    fn lane<'a>(table: &'a KeyLanes, u1: u64, u2: &U256, r: &U256) -> Option<Lane<'a>> {
        Some(Lane {
            table,
            u1: U256::from_u64(u1),
            u2: *u2,
            r: *r,
        })
    }

    #[test]
    fn kernel_decides_the_ordinary_lanes_and_leaves_the_exceptional_ones() {
        let Some(_) = verify8(&Default::default()) else {
            eprintln!("no avx512ifma on this processor: lane test skipped");
            return;
        };
        let c = p256();
        let n = &c.order;
        let q = mul_fixed_base(&U256::from_u64(1234567)).to_affine();
        let key = KeyLanes::build(&q);
        let generator = KeyLanes::build(&AffinePoint::generator());
        let minus_g = KeyLanes::build(&mul_fixed_base(&n.wrapping_sub(&U256::ONE)).to_affine());
        // R = u1·G + u2·Q with Q = 1234567·G, by the comb.
        let x_of = |u1: u64, u2: &U256| {
            let k = c.fn_.mul(&c.fn_.to_mont(u2), &U256::from_u64(1234567));
            let k = k.add_mod(&U256::from_u64(u1), n);
            mul_fixed_base(&k).to_affine().x.reduce_once(n)
        };
        let top_bit = n.wrapping_sub(&U256::from_u64(99)); // folds to 99 with −Q
        let all_ones = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]);
        let five = U256::from_u64(5);
        let lanes = [
            lane(&key, 42, &U256::from_u64(7), &x_of(42, &U256::from_u64(7))),
            lane(&key, 42, &U256::from_u64(7), &x_of(42, &U256::from_u64(8))),
            lane(&key, 0, &top_bit, &x_of(0, &top_bit)),
            lane(&key, u64::MAX, &all_ones, &x_of(u64::MAX, &all_ones)),
            // 5·G + 5·G: the comb adds what the ladder left.
            lane(&generator, 5, &five, &x_of(5, &five)),
            // 5·G − 5·G.
            lane(&minus_g, 5, &five, &five),
            // Nothing to add at all.
            lane(&key, 0, &U256::ZERO, &five),
            None,
        ];
        let verdicts = verify8(&lanes).expect("lanes are available");
        assert_eq!(
            verdicts,
            [
                Some(true),
                Some(false),
                Some(true),
                Some(true),
                None,
                None,
                None,
                None
            ]
        );
        // An r with a second candidate is left to the scalar path
        // whatever the point.
        let small_r = Fp256::P.wrapping_sub(n).wrapping_sub(&U256::ONE);
        let mut lanes: [Option<Lane<'_>>; LANES] = Default::default();
        lanes[3] = lane(&key, 42, &U256::from_u64(7), &small_r);
        assert_eq!(verify8(&lanes).expect("available"), [None; LANES]);
    }
}
