//! SHA-256 (FIPS 180-4) with a streaming interface.
//!
//! The Blockchain Machine computes three kinds of hashes in its
//! `HashCalculator` module (paper §3.2): a block hash over the header and
//! all transaction sections, per-transaction hashes, and per-endorsement
//! hashes. All are SHA-256, as is the digest step of every ECDSA
//! signature, so this module sits under both the software peer and the
//! hardware simulator.
//!
//! The compression function has three kernels ([`kernel`]). One stream
//! ([`Sha256`], [`sha256`]) runs on the CPU's SHA extensions on an
//! `x86_64` processor that reports them and on the portable rounds
//! everywhere else. Many messages at once ([`sha256_many`]) run sixteen
//! to a pass in the 32-bit lanes of AVX-512 registers where the processor
//! has those — the paper's *bank* of hash calculators, for one core — and
//! one [`sha256`] per message where it does not. The processor decides,
//! per call; nothing selects between them (see the crate README,
//! "SHA-256 kernels").

/// Incremental SHA-256 hasher.
///
/// ```
/// use fabric_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), fabric_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie, in one kernel call.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to 56 mod 64, then 8-byte big-endian length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs the compression function over every whole 64-byte block of
/// `blocks`, in order. The one place a kernel is chosen: the CPU's SHA
/// extensions when it has them, the portable rounds otherwise — decided
/// by what the processor reports, never by a switch.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    if !kernel::hardware(state, blocks) {
        kernel::portable(state, blocks);
    }
}

/// The three SHA-256 compression kernels, exposed one by one so the
/// differential tests can hold the hardware and the lane kernel to the
/// portable one on the same input. Not a hashing interface: no padding,
/// no length — hash with [`Sha256`], [`sha256`] or [`sha256_many`].
/// Every function compresses every whole 64-byte block of a stream into
/// that stream's state and ignores a trailing partial block.
pub mod kernel {
    use super::K;

    /// Streams the lane kernel compresses at once: one per 32-bit lane
    /// of a 512-bit register.
    pub const LANES: usize = 16;

    /// Sixteen chaining states, word-major — `states[i][l]` is word `i`
    /// of stream `l` — so that a row is one register.
    pub type LaneStates = [[u32; LANES]; 8];

    /// The FIPS 180-4 rounds in plain integer arithmetic: what every CPU
    /// without SHA extensions runs, and the reference the hardware
    /// kernel is tested against.
    pub fn portable(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }

    /// Compresses with the CPU's SHA extensions and returns `true`, or
    /// touches nothing and returns `false` when this processor (or
    /// target) has none.
    pub fn hardware(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `sha_ni`'s only requirement is that the CPU has
            // the `sha`, `sse2`, `ssse3` and `sse4.1` features; the three
            // checks above are exactly that (`sse2` is part of the
            // x86_64 baseline).
            unsafe { sha_ni(state, blocks) };
            return true;
        }
        let _ = (state, blocks);
        false
    }

    /// The compression function on `sha256rnds2` / `sha256msg1` /
    /// `sha256msg2`. The eight state words stay in two registers across
    /// all blocks of the call and are written back once.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features. Memory safety does not depend on `blocks.len()`: loads
    /// go through `chunks_exact`, so a trailing partial block is not
    /// read.
    // SAFETY: the caller contract is the `# Safety` section above; every
    // pointer below is derived from a reference to at least 16 readable
    // (or writable) bytes and accessed with the unaligned load/store.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        use std::arch::x86_64::*;

        // Four rounds: `rnds2` consumes the low two lanes of `wk`.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
                let k = _mm_loadu_si128(K[4 * $i..4 * $i + 4].as_ptr().cast());
                let wk = _mm_add_epi32($w, k);
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // The next four schedule words from the previous sixteen, then
        // their four rounds.
        macro_rules! schedule_rounds4 {
            ($abef:ident, $cdgh:ident, $w0:expr, $w1:expr, $w2:expr, $w3:expr, $w4:expr, $i:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                $w4 = _mm_sha256msg2_epu32(t, $w3);
                rounds4!($abef, $cdgh, $w4, $i);
            }};
        }

        // Big-endian words -> lanes.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // The instructions want the state as (A,B,E,F) and (C,D,G,H).
        let dcba = _mm_loadu_si128(state[..4].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block[..16].as_ptr().cast()), be);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block[16..32].as_ptr().cast()), be);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block[32..48].as_ptr().cast()), be);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block[48..].as_ptr().cast()), be);
            let mut w4;
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state[..4].as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgfe);
    }

    /// Whether this processor runs the lane kernel.
    pub(super) fn lanes_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// Compresses sixteen independent streams at once, stream `l`'s
    /// whole blocks into column `l` of `states`, in AVX-512 lanes, and
    /// returns `true`; or touches nothing and returns `false` when this
    /// processor (or target) has no `avx512f` + `avx512bw`. The streams
    /// need not be equally long: the call takes as many steps as the
    /// longest has blocks, and a stream that has run out (an empty one
    /// from the start) is left out of every later state update.
    pub fn lanes(states: &mut LaneStates, blocks: &[&[u8]; LANES]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if lanes_available() {
            // SAFETY: `sha_lanes`'s only requirement is that the CPU has
            // the `avx512f` and `avx512bw` features; `lanes_available`
            // checked exactly those two.
            unsafe { sha_lanes(states, blocks) };
            return true;
        }
        let _ = (states, blocks);
        false
    }

    /// The compression function over sixteen streams: state words and
    /// message schedule are registers of sixteen `u32`, one stream a
    /// lane. A step loads one block per running stream, turns the
    /// sixteen rows of sixteen big-endian words into sixteen schedule
    /// registers (byte shuffle, then a 16 × 16 word transposition), runs
    /// the 64 rounds on `vprord` / `vpternlogd`, and adds the result
    /// into the lanes that had a block.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn sha_lanes(states: &mut LaneStates, blocks: &[&[u8]; LANES]) {
        use std::arch::x86_64::*;

        /// What a lane with no block left loads; its result is masked out.
        static IDLE: [u8; 64] = [0; 64];

        #[target_feature(enable = "avx512f")]
        fn load_block(src: &[u8; 64]) -> __m512i {
            // SAFETY: `src` is 64 readable bytes, and the unaligned load
            // has no alignment requirement.
            unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
        }
        #[target_feature(enable = "avx512f")]
        fn load_row(src: &[u32; LANES]) -> __m512i {
            // SAFETY: `src` is 64 readable bytes, and the unaligned load
            // has no alignment requirement.
            unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
        }
        #[target_feature(enable = "avx512f")]
        fn store_row(dst: &mut [u32; LANES], v: __m512i) {
            // SAFETY: `dst` is 64 writable bytes, and the unaligned store
            // has no alignment requirement.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
        }

        /// Rows of sixteen words to columns: `rows[l]` word `j` becomes
        /// `rows[j]` lane `l`.
        #[target_feature(enable = "avx512f")]
        fn transpose(rows: &mut [__m512i; LANES]) {
            // Words within each 128-bit quarter, four rows at a time:
            // `q[4g + k]` holds, quarter by quarter, words `k`, `k + 4`,
            // `k + 8`, `k + 12` of rows `4g..4g + 4`.
            let (r, mut q) = (*rows, *rows);
            for g in 0..4 {
                let lo01 = _mm512_unpacklo_epi32(r[4 * g], r[4 * g + 1]);
                let hi01 = _mm512_unpackhi_epi32(r[4 * g], r[4 * g + 1]);
                let lo23 = _mm512_unpacklo_epi32(r[4 * g + 2], r[4 * g + 3]);
                let hi23 = _mm512_unpackhi_epi32(r[4 * g + 2], r[4 * g + 3]);
                q[4 * g] = _mm512_unpacklo_epi64(lo01, lo23);
                q[4 * g + 1] = _mm512_unpackhi_epi64(lo01, lo23);
                q[4 * g + 2] = _mm512_unpacklo_epi64(hi01, hi23);
                q[4 * g + 3] = _mm512_unpackhi_epi64(hi01, hi23);
            }
            // Then whole quarters across the four row groups.
            for k in 0..4 {
                let top_even = _mm512_shuffle_i32x4::<0x88>(q[k], q[4 + k]);
                let top_odd = _mm512_shuffle_i32x4::<0xDD>(q[k], q[4 + k]);
                let bottom_even = _mm512_shuffle_i32x4::<0x88>(q[8 + k], q[12 + k]);
                let bottom_odd = _mm512_shuffle_i32x4::<0xDD>(q[8 + k], q[12 + k]);
                rows[k] = _mm512_shuffle_i32x4::<0x88>(top_even, bottom_even);
                rows[k + 4] = _mm512_shuffle_i32x4::<0x88>(top_odd, bottom_odd);
                rows[k + 8] = _mm512_shuffle_i32x4::<0xDD>(top_even, bottom_even);
                rows[k + 12] = _mm512_shuffle_i32x4::<0xDD>(top_odd, bottom_odd);
            }
        }

        // Each of Σ0, Σ1, σ0, σ1 is one three-input XOR (truth table
        // 0x96) of rotations and shifts.
        macro_rules! xor3 {
            ($a:expr, $b:expr, $c:expr) => {
                _mm512_ternarylogic_epi32::<0x96>($a, $b, $c)
            };
        }
        macro_rules! add {
            ($a:expr, $b:expr) => {
                _mm512_add_epi32($a, $b)
            };
        }
        // One round on the working variables in the roles given; the
        // next round is the same with the names rotated by one. `Ch` is
        // truth table 0xCA (`e ? f : g`), `Maj` 0xE8.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:expr) => {{
                let s1 = xor3!(
                    _mm512_ror_epi32::<6>($e),
                    _mm512_ror_epi32::<11>($e),
                    _mm512_ror_epi32::<25>($e)
                );
                let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
                let t1 = add!(add!($h, s1), add!(ch, $wk));
                let s0 = xor3!(
                    _mm512_ror_epi32::<2>($a),
                    _mm512_ror_epi32::<13>($a),
                    _mm512_ror_epi32::<22>($a)
                );
                let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
                $d = add!($d, t1);
                $h = add!(t1, add!(s0, maj));
            }};
        }
        // Sixteen rounds, `$wk!(j)` giving round `j`'s `W + K`.
        macro_rules! rounds16 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:ident) => {{
                round!($a, $b, $c, $d, $e, $f, $g, $h, $wk!(0));
                round!($h, $a, $b, $c, $d, $e, $f, $g, $wk!(1));
                round!($g, $h, $a, $b, $c, $d, $e, $f, $wk!(2));
                round!($f, $g, $h, $a, $b, $c, $d, $e, $wk!(3));
                round!($e, $f, $g, $h, $a, $b, $c, $d, $wk!(4));
                round!($d, $e, $f, $g, $h, $a, $b, $c, $wk!(5));
                round!($c, $d, $e, $f, $g, $h, $a, $b, $wk!(6));
                round!($b, $c, $d, $e, $f, $g, $h, $a, $wk!(7));
                round!($a, $b, $c, $d, $e, $f, $g, $h, $wk!(8));
                round!($h, $a, $b, $c, $d, $e, $f, $g, $wk!(9));
                round!($g, $h, $a, $b, $c, $d, $e, $f, $wk!(10));
                round!($f, $g, $h, $a, $b, $c, $d, $e, $wk!(11));
                round!($e, $f, $g, $h, $a, $b, $c, $d, $wk!(12));
                round!($d, $e, $f, $g, $h, $a, $b, $c, $wk!(13));
                round!($c, $d, $e, $f, $g, $h, $a, $b, $wk!(14));
                round!($b, $c, $d, $e, $f, $g, $h, $a, $wk!(15));
            }};
        }

        // Big-endian words -> lanes, in every 128-bit quarter.
        let be = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
        // The round constants, sixteen rounds at a time.
        let k16 = K.as_chunks::<16>().0;
        let streams = blocks.map(|stream| stream.as_chunks::<64>().0);
        let steps = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut state = states.map(|row| load_row(&row));
        for step in 0..steps {
            let mut running: __mmask16 = 0;
            let mut w = [_mm512_setzero_si512(); LANES];
            for (l, stream) in streams.iter().enumerate() {
                let block = match stream.get(step) {
                    Some(block) => {
                        running |= 1 << l;
                        block
                    }
                    None => &IDLE,
                };
                w[l] = _mm512_shuffle_epi8(load_block(block), be);
            }
            transpose(&mut w);

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            macro_rules! first {
                ($j:expr) => {
                    add!(w[$j], _mm512_set1_epi32(k16[0][$j] as i32))
                };
            }
            rounds16!(a, b, c, d, e, f, g, h, first);
            for k in &k16[1..] {
                // The schedule is a ring of sixteen: W[t] overwrites
                // W[t − 16].
                macro_rules! next {
                    ($j:expr) => {{
                        let (w15, w2) = (w[($j + 1) & 15], w[($j + 14) & 15]);
                        let s0 = xor3!(
                            _mm512_ror_epi32::<7>(w15),
                            _mm512_ror_epi32::<18>(w15),
                            _mm512_srli_epi32::<3>(w15)
                        );
                        let s1 = xor3!(
                            _mm512_ror_epi32::<17>(w2),
                            _mm512_ror_epi32::<19>(w2),
                            _mm512_srli_epi32::<10>(w2)
                        );
                        w[$j] = add!(add!(w[$j], s0), add!(w[($j + 9) & 15], s1));
                        add!(w[$j], _mm512_set1_epi32(k[$j] as i32))
                    }};
                }
                rounds16!(a, b, c, d, e, f, g, h, next);
            }

            for (row, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *row = _mm512_mask_add_epi32(*row, running, *row, v);
            }
        }
        for (row, v) in states.iter_mut().zip(state) {
            store_row(row, v);
        }
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Fewest messages worth a pass of the lane kernel. A pass costs the
/// same whether sixteen lanes are filled or one, and SHA extensions hash
/// one stream at a little under half the lanes' combined rate: seven
/// messages are faster one by one, eight or nine (161-byte cache keys)
/// break even, more win (sweep of 1..=32 messages of 161, 960 and 3 870
/// bytes in CHANGES.md, PR 24).
const MIN_LANES: usize = 8;

#[cfg(test)]
thread_local! {
    /// Messages [`sha256_many`] hashed one by one on this thread.
    static ONE_BY_ONE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`sha256`] of every message, in input order.
///
/// On a processor with AVX-512 (`avx512f` + `avx512bw`) the messages are
/// hashed sixteen at a time in the lanes of [`kernel::lanes`]: sorted by
/// length so that the sixteen of a pass share nearly all their steps,
/// whole blocks read where they lie, and each message's last one or two
/// blocks (tail bytes, `0x80`, zeros, bit length) built in a buffer per
/// lane and run in the lanes as well. Fewer than a handful of messages —
/// in the call, or left over for the last pass — and every other
/// processor or target take one [`sha256`] per message, which is also
/// what the lanes are tested against.
///
/// ```
/// use fabric_crypto::sha256::{sha256, sha256_many};
/// let messages: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 3 * i]).collect();
/// let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
/// let each: Vec<[u8; 32]> = refs.iter().map(|m| sha256(m)).collect();
/// assert_eq!(sha256_many(&refs), each);
/// ```
pub fn sha256_many(messages: &[&[u8]]) -> Vec<[u8; 32]> {
    let mut out = vec![[0u8; 32]; messages.len()];
    let mut order: Vec<usize> = (0..messages.len()).collect();
    // How many of `order`, from its front, went through the lanes.
    let mut in_lanes = 0;
    if messages.len() >= MIN_LANES && kernel::lanes_available() {
        order.sort_unstable_by_key(|&i| messages[i].len());
        let full_enough = |pass: &&[usize]| pass.len() >= MIN_LANES;
        for pass in order.chunks(kernel::LANES).take_while(full_enough) {
            digest_pass(messages, pass, &mut out);
            in_lanes += pass.len();
        }
    }
    let one_by_one = &order[in_lanes..];
    #[cfg(test)]
    ONE_BY_ONE.with(|n| n.set(n.get() + one_by_one.len()));
    for &i in one_by_one {
        out[i] = sha256(messages[i]);
    }
    out
}

/// One pass of the lane kernel: `out[i] = sha256(messages[i])` for the up
/// to sixteen `i` of `pass`. The caller has checked that this processor
/// runs the lanes.
fn digest_pass(messages: &[&[u8]], pass: &[usize], out: &mut [[u8; 32]]) {
    use kernel::LANES;
    let mut states: kernel::LaneStates = H0.map(|word| [word; LANES]);
    // A lane's whole blocks, then its padded tail: one block when the
    // tail leaves room for 0x80 and the length, two when it does not. A
    // lane beyond `pass` keeps two empty streams and is never updated.
    let mut bodies: [&[u8]; LANES] = [&[]; LANES];
    let mut padded = [[0u8; 128]; LANES];
    let mut padded_len = [0; LANES];
    for (l, &i) in pass.iter().enumerate() {
        let (body, tail) = messages[i].split_at(messages[i].len() & !63);
        bodies[l] = body;
        padded[l][..tail.len()].copy_from_slice(tail);
        padded[l][tail.len()] = 0x80;
        let end = if tail.len() < 56 { 64 } else { 128 };
        let bit_len = (messages[i].len() as u64).wrapping_mul(8);
        padded[l][end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        padded_len[l] = end;
    }
    let tails: [&[u8]; LANES] = std::array::from_fn(|l| &padded[l][..padded_len[l]]);
    let ran = kernel::lanes(&mut states, &bodies) && kernel::lanes(&mut states, &tails);
    assert!(ran, "digest_pass on a processor without the lane kernel");
    for (l, &i) in pass.iter().enumerate() {
        for (bytes, row) in out[i].chunks_exact_mut(4).zip(&states) {
            bytes.copy_from_slice(&row[l].to_be_bytes());
        }
    }
}

/// HMAC-SHA-256 (RFC 2104). Used by the RFC 6979 deterministic nonce
/// generator in [`crate::ecdsa`].
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(message);
    let inner_hash = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner_hash);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            sha256(b"").to_vec(),
            hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            sha256(b"abc").to_vec(),
            hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_vec(),
            hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finalize().to_vec(),
            hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1024).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 512, 1023, 1024] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split={split}");
        }
    }

    /// Messages hashed one by one by `sha256_many(messages)` on this
    /// thread, after checking the digests.
    fn one_by_one(messages: &[Vec<u8>]) -> usize {
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let before = ONE_BY_ONE.with(|n| n.get());
        let digests = sha256_many(&refs);
        let each: Vec<[u8; 32]> = refs.iter().map(|m| sha256(m)).collect();
        assert_eq!(digests, each);
        ONE_BY_ONE.with(|n| n.get()) - before
    }

    #[test]
    fn many_equals_each_and_only_a_thin_call_or_a_thin_last_pass_goes_one_by_one() {
        let message = |i: usize, len: usize| -> Vec<u8> {
            (0..len).map(|j| (i * 31 + j * 7 + 3) as u8).collect()
        };
        let lanes = kernel::lanes_available();
        for (n, in_lanes) in [
            (0, 0),
            (1, 0),
            (MIN_LANES - 1, 0),
            (MIN_LANES, MIN_LANES),
            (16, 16),
            (16 + MIN_LANES - 1, 16),
            (16 + MIN_LANES, 16 + MIN_LANES),
            (40, 40),
        ] {
            // Lengths on both sides of every padding boundary, unsorted.
            let messages: Vec<Vec<u8>> = (0..n).map(|i| message(i, (i * 37) % 200)).collect();
            let expected = if lanes { n - in_lanes } else { n };
            assert_eq!(one_by_one(&messages), expected, "{n} messages");
        }
    }

    #[test]
    fn a_100_tx_block_sends_none_of_its_600_hashes_down_the_per_message_path() {
        // What vscc hashes for one reference block: 100 signed payloads
        // of about 3.87 KB, 200 `prp ‖ endorser` of about 0.96 KB, then
        // the 300 cache keys, 161 bytes each.
        let signed: Vec<Vec<u8>> = (0..300)
            .map(|i| vec![i as u8; if i < 100 { 3870 + i % 7 } else { 960 + i % 5 }])
            .collect();
        let keys: Vec<Vec<u8>> = (0..300).map(|i| vec![i as u8; 161]).collect();
        let hashed_one_by_one = one_by_one(&signed) + one_by_one(&keys);
        if kernel::lanes_available() {
            assert_eq!(hashed_one_by_one, 0);
        } else {
            eprintln!("no avx512f + avx512bw on this processor: sha256_many is one sha256 each");
            assert_eq!(hashed_one_by_one, 600);
        }
    }

    #[test]
    fn hmac_rfc4231_case1() {
        // RFC 4231 test case 1
        let key = [0x0bu8; 20];
        let got = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            got.to_vec(),
            hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let got = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            got.to_vec(),
            hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key
        let key = [0xaau8; 131];
        let got = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            got.to_vec(),
            hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        );
    }
}
