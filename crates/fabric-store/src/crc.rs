//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the record
//! checksum of every on-disk frame in this crate. Implemented locally
//! because the offline toolchain has no registry crates; the constants
//! match the ubiquitous zlib/`crc32fast` definition, verified by the
//! standard check value below.

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

/// CRC-32 of `bytes` (init `0xFFFFFFFF`, final xor `0xFFFFFFFF`), eight
/// bytes a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
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
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time CRC-32: the oracle `crc32` is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b))
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_oracle_at_every_short_length() {
        // Every head/tail split of the 8-byte stride, at every alignment
        // of the slice start.
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let input = &data[start..start + len];
                assert_eq!(
                    crc32(input),
                    crc32_bytewise(input),
                    "start {start} len {len}"
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
            assert_eq!(crc32(&input), crc32_bytewise(&input), "len {len}");
        }
    }

    #[test]
    fn standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
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
