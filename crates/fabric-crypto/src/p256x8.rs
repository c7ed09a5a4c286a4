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
//! "Lane kernel", for the bound table and the schedules. The module is
//! reached through [`crate::ecdsa::verify_batch`]; what it makes public
//! itself is [`Fp256x8`], the field multiply on its own for the bench
//! and the differential tests, and [`KeyComb::build`], what a key's
//! comb costs, for the bench.
//!
//! # Schedules
//!
//! Both scalars are read as signed digits after one fold (`k ≥ 2^255`
//! becomes `n − k` on the negated point). `u1·G` is 32 radix-256 digits
//! added from the generator's comb. `u2·Q` comes from the key's table:
//! a comb, for a key the caller gave one, is the same 32 additions and
//! no doubling; a ladder table takes 64 radix-16 digits over eight
//! pieces that share 28 doublings. A pass runs the ladder only when one
//! of its lanes needs it, the comb lanes masked out of its additions.
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
use crate::curve::{fixed_base_table, p256, AffinePoint, JacobianPoint, COMB_WINDOW_BITS};
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
/// `points[8·i + |d| − 1] = |d|·2^(32i)·Q`. 64 points, 5 KiB a key:
/// what every key gets on its first batch.
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

/// Windows of a comb: one signed radix-256 digit of a scalar each.
const WINDOWS: usize = 256 / COMB_WINDOW_BITS;

/// Largest digit magnitude of a comb window, and the points it stores.
const HALF: usize = 1 << (COMB_WINDOW_BITS - 1);

/// A comb in lane format: `points[128·w + |d| − 1] = |d|·2^(8w)·P` for
/// `w` in `0..32` and `d` in `1..=128`, 4 096 points, 320 KiB. With it
/// `k·P` is 32 masked additions and no doubling, one per signed
/// radix-256 digit of `k`. The generator has one for `u1·G`; a key
/// under `ecdsa`'s cap on combs has one for `u2·Q`.
pub struct KeyComb {
    points: Box<[TablePoint; WINDOWS * HALF]>,
}

impl KeyComb {
    /// `P`'s comb: 32 × 8 doublings and one batched inversion for the
    /// window bases, then 127 mixed additions a window and one batched
    /// inversion over all 4 096 multiples. Public for `cargo bench`
    /// (`key_comb_build`); the verification path builds one on a key's
    /// first lane verification, under `ecdsa`'s cap on combs.
    pub fn build(p: &AffinePoint) -> Self {
        let mut bases = Vec::with_capacity(WINDOWS);
        let mut base = p.to_jacobian();
        for w in 0..WINDOWS {
            if w > 0 {
                for _ in 0..COMB_WINDOW_BITS {
                    base = base.double();
                }
            }
            bases.push(base);
        }
        let mut multiples = Vec::with_capacity(WINDOWS * HALF);
        for base in JacobianPoint::batch_to_affine(&bases) {
            let mut multiple = base.to_jacobian();
            multiples.push(multiple);
            for _ in 1..HALF {
                multiple = multiple.add_mixed(&base);
                multiples.push(multiple);
            }
        }
        Self::from_affine(JacobianPoint::batch_to_affine(&multiples).iter())
    }

    fn from_affine<'a>(points: impl Iterator<Item = &'a AffinePoint>) -> Self {
        let r = r260();
        let points: Vec<TablePoint> = points.map(|p| table_point(p, &r)).collect();
        KeyComb {
            points: points.try_into().expect("WINDOWS × HALF points"),
        }
    }
}

/// The generator's comb, taken from the first 128 multiples of each
/// window of [`crate::curve::mul_fixed_base`]'s table on the first
/// batch.
fn generator_comb() -> &'static KeyComb {
    static COMB: OnceLock<KeyComb> = OnceLock::new();
    COMB.get_or_init(|| {
        KeyComb::from_affine(
            fixed_base_table()
                .windows
                .iter()
                .flat_map(|window| &window[..HALF]),
        )
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

/// The table a lane multiplies its key by: its comb, or its ladder
/// table once the cap on combs is reached.
#[derive(Clone, Copy)]
pub(crate) enum KeyTable<'a> {
    Ladder(&'a KeyLanes),
    Comb(&'a KeyComb),
}

/// One lane's work: the key's table, the two scalars the scalar path
/// would multiply by, and the `r` to compare `x(R)` with.
pub(crate) struct Lane<'a> {
    pub(crate) table: KeyTable<'a>,
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

/// `k < 2^255` as `N` signed digits of `W` bits in
/// `−(2^(W−1) − 1)..=2^(W−1)`, least significant first: a digit above
/// `2^(W−1)` becomes itself minus `2^W` and carries one into the next.
/// The top digit is at most `2^(W−1) − 1` before its carry, so the
/// recoding carries nothing out.
fn signed_digits<const W: usize, const N: usize>(k: &U256) -> [i16; N] {
    debug_assert!(!k.bit(255) && W * N == 256 && 64 % W == 0);
    let half = 1 << (W - 1);
    let mut out = [0; N];
    let mut carry = 0;
    for (j, d) in out.iter_mut().enumerate() {
        let bit = j * W;
        let v = (k.0[bit / 64] >> (bit % 64) & ((1 << W) - 1)) as i16 + carry;
        carry = i16::from(v > half);
        *d = v - (carry << W);
    }
    debug_assert_eq!(carry, 0);
    out
}

/// The recoding both scalars go through: `k ≥ 2^255` is folded to
/// `n − k`, whose digits, every one flipped, multiply the same point —
/// `k·P = (n − k)·(−P)`. Every digit is at most `2^(W−1)` in magnitude,
/// the largest multiple a table stores.
fn folded_digits<const W: usize, const N: usize>(k: &U256) -> [i16; N] {
    if k.bit(255) {
        signed_digits::<W, N>(&p256().order.wrapping_sub(k)).map(|d| -d)
    } else {
        signed_digits::<W, N>(k)
    }
}

/// The operand of one masked addition, lane by lane: the table points
/// in limb-major rows, and which lanes add and which add the negative.
#[derive(Default)]
struct Gathered {
    rows: [[u64; LANES]; 2 * LIMBS],
    nonzero: u8,
    negative: u8,
}

impl Gathered {
    /// Lane `l` adds `sign(d)·point`; nothing for `d = 0`, whose point
    /// is any valid one (the table's first).
    fn put(&mut self, l: usize, point: &TablePoint, d: i16) {
        transpose_in(&mut self.rows, l, point);
        self.nonzero |= u8::from(d != 0) << l;
        self.negative |= u8::from(d < 0) << l;
    }

    /// Adds what was put into the lanes that put a nonzero digit, and
    /// starts the next operand. A lane nothing was put into keeps its
    /// stale row and is masked out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add_to(&mut self, acc: &mut Acc, one: &Fe) {
        let (x2, y2) = load_point(&self.rows);
        acc.add_affine(self.nonzero, &x2, &negate_where(self.negative, &y2), one);
        (self.nonzero, self.negative) = (0, 0);
    }
}

/// Index of digit `d` in window `w` of a comb.
fn comb_index(w: usize, d: i16) -> usize {
    w * HALF + usize::from(d.unsigned_abs().max(1)) - 1
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn verify8_ifma(lanes: &[Option<Lane<'_>>; LANES]) -> [Option<bool>; LANES] {
    let c = p256();
    let g = generator_comb();
    let mut ladders: [Option<(&KeyLanes, [i16; 64])>; LANES] = [None; LANES];
    let mut combs: [Option<(&KeyComb, [i16; WINDOWS])>; LANES] = [None; LANES];
    let mut generator: [Option<(&KeyComb, [i16; WINDOWS])>; LANES] = [None; LANES];
    for (l, lane) in lanes.iter().enumerate() {
        let Some(lane) = lane else { continue };
        generator[l] = Some((g, folded_digits::<8, WINDOWS>(&lane.u1)));
        match lane.table {
            KeyTable::Ladder(table) => ladders[l] = Some((table, folded_digits::<4, 64>(&lane.u2))),
            KeyTable::Comb(table) => {
                combs[l] = Some((table, folded_digits::<8, WINDOWS>(&lane.u2)))
            }
        }
    }

    let one = splat(&to_limbs(&r260()));
    let mut acc = Acc::at_infinity();
    let mut gathered = Gathered::default();
    // u2·Q for the ladder lanes: the digits of all eight pieces at one
    // position share the four doublings above it — 28 doublings, 64
    // masked additions. The comb lanes stay at infinity through it, and
    // a pass without a ladder lane skips it.
    if ladders.iter().any(Option::is_some) {
        for step in (0..KeyLanes::STEPS).rev() {
            if step + 1 < KeyLanes::STEPS {
                for _ in 0..4 {
                    acc.double();
                }
            }
            for piece in 0..KeyLanes::PIECES {
                for (l, ladder) in ladders.iter().enumerate() {
                    let Some((table, digits)) = ladder else {
                        continue;
                    };
                    let d = digits[piece * KeyLanes::STEPS + step];
                    let index = piece * KeyLanes::DIGITS + usize::from(d.unsigned_abs().max(1)) - 1;
                    gathered.put(l, &table.points[index], d);
                }
                gathered.add_to(&mut acc, &one);
            }
        }
    }
    // u2·Q for the comb lanes, then u1·G for every lane, into the same
    // accumulator: 32 + 32 masked additions, no doubling.
    for phase in [&combs, &generator] {
        if phase.iter().all(Option::is_none) {
            continue;
        }
        for w in 0..WINDOWS {
            for (l, comb) in phase.iter().enumerate() {
                let Some((table, digits)) = comb else {
                    continue;
                };
                gathered.put(l, &table.points[comb_index(w, digits[w])], digits[w]);
            }
            gathered.add_to(&mut acc, &one);
        }
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

    /// The value of signed radix-`2^w` digits modulo `n`, Horner from
    /// the top.
    fn digits_value(digits: &[i16], w: u32) -> U256 {
        let fd = &p256().fn_;
        let radix = fd.to_mont(&U256::from_u64(1 << w));
        let value = digits.iter().rev().fold(U256::ZERO, |acc, &d| {
            let d_mod_n = fd.to_mont(&U256::from_u64(u64::from(d.unsigned_abs())));
            let shifted = fd.mul(&acc, &radix);
            if d < 0 {
                fd.sub(&shifted, &d_mod_n)
            } else {
                fd.add(&shifted, &d_mod_n)
            }
        });
        fd.from_mont(&value)
    }

    /// Both recodings, through the fold both scalars take: radix 256
    /// (`u1` on every lane, `u2` on a comb lane) and radix 16 (`u2` on a
    /// ladder lane). `k` and `n − k` are both tried, so every case is
    /// folded once.
    #[test]
    fn signed_digits_recode_every_carry_case() {
        let n = p256().order;
        let bytes = |b: u8| U256([u64::from_ne_bytes([b; 8]); 4]);
        let mut cases = vec![
            U256::ZERO,
            U256::ONE,
            // Every digit at the top of its range: carries all the way.
            U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]),
            // Runs of 0x80 (no carry, digit 128), 0x81 (a carry out of
            // every byte, digit −127) and 0xff (−1 and a carry).
            bytes(0x80).shr_small(1),
            bytes(0x80),
            bytes(0x81).shr_small(1),
            bytes(0x81),
            bytes(0xff).shr_small(1),
            U256([0x8080_8080_8080_8080, 0x8181_8181_8181_8181, u64::MAX, 0]),
            // A top byte of 0x7f with a carry coming into it: digit 128.
            U256([0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ff81]),
            U256([u64::MAX, u64::MAX, u64::MAX, 0x7f00_0000_0000_0000]),
            U256([0x8888_8888_8888_8888; 4]).shr_small(1),
            U256([0x9999_9999_9999_9999, 0, u64::MAX, 0x7000_0000_0000_0000]),
            // The fold's edges: 2^255 − 1, 2^255, n − 1.
            U256([0, 0, 0, 1 << 63]),
            n.wrapping_sub(&U256::ONE),
        ];
        cases.extend((0..8).map(|i| random("digits", i).rem(&n)));
        // Unfolded digits lie in −127..=128 (−7..=8); a fold flips them,
        // so what reaches a table is at most 128 (8) in magnitude.
        for k in cases.iter().flat_map(|k| [*k, n.wrapping_sub(k).rem(&n)]) {
            let k = k.rem(&n);
            let radix256: [i16; 32] = folded_digits::<8, 32>(&k);
            assert!(radix256.iter().all(|d| d.abs() <= 128), "{k:?}");
            assert_eq!(digits_value(&radix256, 8), k, "radix 256: {k:?}");
            let radix16: [i16; 64] = folded_digits::<4, 64>(&k);
            assert!(radix16.iter().all(|d| d.abs() <= 8), "{k:?}");
            assert_eq!(digits_value(&radix16, 4), k, "radix 16: {k:?}");
            let unfolded = if k.bit(255) { n.wrapping_sub(&k) } else { k };
            let sign = if k.bit(255) { -1 } else { 1 };
            let digits = signed_digits::<8, 32>(&unfolded);
            assert!(digits.iter().all(|d| (-127..=128).contains(d)), "{k:?}");
            assert_eq!(radix256, digits.map(|d| sign * d), "{k:?}");
            let digits = signed_digits::<4, 64>(&unfolded);
            assert!(digits.iter().all(|d| (-7..=8).contains(d)), "{k:?}");
            assert_eq!(radix16, digits.map(|d| sign * d), "{k:?}");
        }
        // The cases above hit both ends of the radix-256 range.
        let all: Vec<i16> = cases
            .iter()
            .filter(|k| !k.bit(255))
            .flat_map(signed_digits::<8, 32>)
            .collect();
        assert!(all.contains(&128) && all.contains(&-127) && all.contains(&-1));
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

    fn lane<'a>(table: KeyTable<'a>, u1: &U256, u2: &U256, r: &U256) -> Option<Lane<'a>> {
        Some(Lane {
            table,
            u1: *u1,
            u2: *u2,
            r: *r,
        })
    }

    /// `P`'s two lane tables.
    struct Tables(KeyLanes, KeyComb);

    impl Tables {
        fn of(p: &AffinePoint) -> Self {
            Tables(KeyLanes::build(p), KeyComb::build(p))
        }

        fn get(&self, comb: bool) -> KeyTable<'_> {
            if comb {
                KeyTable::Comb(&self.1)
            } else {
                KeyTable::Ladder(&self.0)
            }
        }
    }

    #[test]
    fn key_comb_holds_the_signed_multiples_of_every_window() {
        let q = mul_fixed_base(&U256::from_u64(7654321)).to_affine();
        let comb = KeyComb::build(&q);
        let r = r260();
        for (w, d) in [
            (0, 1),
            (0, 2),
            (0, 128),
            (1, 1),
            (17, 77),
            (31, 127),
            (31, 128),
        ] {
            let mut k = U256::from_u64(d);
            for _ in 0..w {
                k = k.shl_small(8);
            }
            let expected = q.mul_scalar(&k);
            assert_eq!(
                comb.points[comb_index(w, d as i16)],
                table_point(&expected, &r),
                "window {w}, digit {d}"
            );
        }
        // The generator's comb is the scalar path's table, cut to the
        // multiples a signed digit reaches.
        assert_eq!(
            generator_comb().points[..],
            KeyComb::build(&AffinePoint::generator()).points[..]
        );
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
        let key = Tables::of(&q);
        let generator = Tables::of(&AffinePoint::generator());
        let minus_g = Tables::of(&mul_fixed_base(&n.wrapping_sub(&U256::ONE)).to_affine());
        // R = u1·G + u2·Q with Q = 1234567·G, by the scalar comb.
        let x_of = |u1: &U256, u2: &U256| {
            let k = c.fn_.mul(&c.fn_.to_mont(u2), &U256::from_u64(1234567));
            let k = k.add_mod(u1, n);
            mul_fixed_base(&k).to_affine().x.reduce_once(n)
        };
        let int = U256::from_u64;
        let top_bit = n.wrapping_sub(&int(99)); // folds to 99 with −Q, or −G
        let all_ones = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]);
        let five = int(5);
        // Every split of a pass between ladder and comb lanes: lane `l`
        // holds a comb when bit `l` of `combs` is set.
        for combs in [
            0u8,
            0xff,
            0b0101_0101,
            0b1010_1010,
            0b0000_1111,
            0b1111_0000,
        ] {
            let t = |l: usize| combs >> l & 1 != 0;
            let lanes = [
                lane(key.get(t(0)), &int(42), &int(7), &x_of(&int(42), &int(7))),
                lane(key.get(t(1)), &int(42), &int(7), &x_of(&int(42), &int(8))),
                lane(key.get(t(2)), &top_bit, &top_bit, &x_of(&top_bit, &top_bit)),
                lane(
                    key.get(t(3)),
                    &all_ones,
                    &all_ones,
                    &x_of(&all_ones, &all_ones),
                ),
                // 5·G + 5·G: the u1 comb adds what the u2 half left.
                lane(generator.get(t(4)), &five, &five, &x_of(&five, &five)),
                // 5·G − 5·G.
                lane(minus_g.get(t(5)), &five, &five, &five),
                // Nothing to add at all.
                lane(key.get(t(6)), &U256::ZERO, &U256::ZERO, &five),
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
                ],
                "comb lanes {combs:#010b}"
            );
        }
        // An r with a second candidate is left to the scalar path
        // whatever the point.
        let small_r = Fp256::P.wrapping_sub(n).wrapping_sub(&U256::ONE);
        for comb in [false, true] {
            let mut lanes: [Option<Lane<'_>>; LANES] = Default::default();
            lanes[3] = lane(key.get(comb), &int(42), &int(7), &small_r);
            assert_eq!(verify8(&lanes).expect("available"), [None; LANES]);
        }
    }
}
