//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the record
//! checksum of every on-disk frame in this crate. Implemented locally
//! because the offline toolchain has no registry crates; the constants
//! match the ubiquitous zlib/`crc32fast` definition, verified by the
//! standard check value below.
//!
//! The running CRC has two kernels ([`kernel`]): carry-less multiply
//! folding on an `x86_64` processor that reports `pclmulqdq`, the
//! slice-by-8 tables everywhere else. The processor decides, per call;
//! nothing selects between them (see the crate README, "CRC-32
//! kernels").

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte-per-step table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, which lets eight input bytes be
/// folded in one step with eight independent lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // lint:allow(truncating-cast) i < 256, widening usize -> u32
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into the running (pre-inverted) CRC.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC-32 of `bytes` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`). The
/// one place a kernel is chosen: carry-less multiply when the CPU has
/// it, the tables otherwise — decided by what the processor reports,
/// never by a switch.
pub fn crc32(bytes: &[u8]) -> u32 {
    let init = 0xFFFF_FFFF;
    !kernel::hardware(init, bytes).unwrap_or_else(|| kernel::portable(init, bytes))
}

/// The two CRC-32 kernels, exposed one by one so the differential tests
/// can hold the hardware kernel to the portable one on the same input.
/// Not a checksum interface — checksum with [`crc32`]: both functions
/// take and return the *running* CRC, before the final xor, so a long
/// input can be fed in pieces (`crc32(ab) == !portable(portable(!0, a), b)`).
pub mod kernel {
    use super::{step, TABLES};

    /// Slice-by-8: eight table lookups fold eight bytes a step. What
    /// every CPU without carry-less multiply runs, what the hardware
    /// kernel hands its short inputs and tails to, and the reference it
    /// is tested against.
    pub fn portable(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4-byte slice")) ^ crc;
            let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4-byte slice"));
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = step(crc, b);
        }
        crc
    }

    /// Folds `bytes` into `crc` with the CPU's carry-less multiply and
    /// returns the new running CRC, or touches nothing and returns
    /// `None` when this processor (or target) has none.
    pub fn hardware(crc: u32, bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            if bytes.len() < FOLD_MIN {
                return Some(portable(crc, bytes));
            }
            // SAFETY: `clmul_fold`'s only requirement is that the CPU has
            // the `pclmulqdq`, `sse2` and `sse4.1` features; the two
            // checks above are exactly that (`sse2` is part of the
            // x86_64 baseline).
            return Some(unsafe { clmul_fold(crc, bytes) });
        }
        let _ = (crc, bytes);
        None
    }

    /// Shortest input the folding kernel takes: it starts from four
    /// 16-byte lanes. Anything shorter goes through the tables.
    #[cfg(target_arch = "x86_64")]
    const FOLD_MIN: usize = 64;

    /// The running CRC over `bytes` by folding: four 128-bit lanes each
    /// carried 64 bytes forward per step (two multiplies a lane), the
    /// lanes folded into one, that one carried over the remaining whole
    /// 16-byte chunks, reduced 128 → 64 → 32 bits; the < 16-byte tail
    /// goes through the tables.
    ///
    /// # Safety
    ///
    /// The CPU must support the `pclmulqdq`, `sse2` and `sse4.1`
    /// features. Memory safety does not depend on `bytes.len()`: loads
    /// go through bounds-checked 16-byte slices, so no byte outside
    /// `bytes` is read (an input shorter than [`FOLD_MIN`] panics
    /// instead).
    // SAFETY: the caller contract is the `# Safety` section above; every
    // pointer below is derived from a reference to exactly 16 readable
    // bytes and read with the unaligned load.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    unsafe fn clmul_fold(crc: u32, bytes: &[u8]) -> u32 {
        use std::arch::x86_64::*;

        // Folding constants for the reflected IEEE polynomial (Gopal et
        // al., *Fast CRC Computation for Generic Polynomials Using
        // PCLMULQDQ*, Intel 2009): `x^n mod P`, bit-reflected and
        // shifted left one, for the distance each fold carries its lane —
        // 512 ± 32 bits across the four-lane stride, 128 ± 32 across one
        // lane, 64 for the last 96 → 64 step — then `P` itself and
        // `µ = ⌊x^64 / P⌋` for the Barrett reduction to 32 bits.
        const K1K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
        const K3K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
        const K5: i64 = 0x1_63cd_6124;
        const POLY_MU: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

        // `lane` carried forward by the distance `keys` encodes, onto
        // `next`: low half times the low key, high half times the high.
        macro_rules! fold {
            ($lane:expr, $next:expr, $keys:expr) => {{
                let lo = _mm_clmulepi64_si128($lane, $keys, 0x00);
                let hi = _mm_clmulepi64_si128($lane, $keys, 0x11);
                _mm_xor_si128(_mm_xor_si128($next, lo), hi)
            }};
        }

        macro_rules! load {
            ($chunk:expr) => {
                _mm_loadu_si128($chunk.as_ptr().cast())
            };
        }

        let mut strides = bytes.chunks_exact(FOLD_MIN);
        let first = strides.next().expect("at least FOLD_MIN bytes");
        // The running CRC enters as the low 32 bits of the first lane.
        let mut x0 = _mm_xor_si128(load!(first[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load!(first[16..32]);
        let mut x2 = load!(first[32..48]);
        let mut x3 = load!(first[48..]);
        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        for stride in &mut strides {
            x0 = fold!(x0, load!(stride[..16]), k1k2);
            x1 = fold!(x1, load!(stride[16..32]), k1k2);
            x2 = fold!(x2, load!(stride[32..48]), k1k2);
            x3 = fold!(x3, load!(stride[48..]), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut x = fold!(x0, x1, k3k4);
        x = fold!(x, x2, k3k4);
        x = fold!(x, x3, k3k4);
        let mut chunks = strides.remainder().chunks_exact(16);
        for chunk in &mut chunks {
            x = fold!(x, load!(chunk), k3k4);
        }

        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 -> 32 bits.
        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        // lint:allow(truncating-cast) bit reinterpretation i32 -> u32, no bits lost
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        portable(crc, chunks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time CRC-32: the oracle `crc32` is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b))
    }

    /// `crc32` runs whichever kernel this CPU picks; the tables are
    /// called by name so they stay tested on a CPU that never picks
    /// them. (Kernel against kernel over long inputs, offsets and split
    /// points: `tests/tests/store_differential.rs`.)
    fn assert_matches_oracle(input: &[u8], what: &str) {
        let oracle = crc32_bytewise(input);
        assert_eq!(crc32(input), oracle, "crc32, {what}");
        assert_eq!(!kernel::portable(!0, input), oracle, "portable, {what}");
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_oracle_at_every_short_length() {
        // Every head/tail split of the 8-byte stride, at every alignment
        // of the slice start.
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                assert_matches_oracle(
                    &data[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_oracle_on_random_inputs() {
        // xorshift64: fixed seed, so a failure replays.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..500 {
            let len = (next() % 5000) as usize;
            let input: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_matches_oracle(&input, &format!("len {len}"));
        }
    }

    #[test]
    fn standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(!kernel::portable(!0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
