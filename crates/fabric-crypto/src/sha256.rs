//! SHA-256 (FIPS 180-4) with a streaming interface.
//!
//! The Blockchain Machine computes three kinds of hashes in its
//! `HashCalculator` module (paper §3.2): a block hash over the header and
//! all transaction sections, per-transaction hashes, and per-endorsement
//! hashes. All are SHA-256, as is the digest step of every ECDSA
//! signature, so this module sits under both the software peer and the
//! hardware simulator.
//!
//! The compression function has two kernels ([`kernel`]): the CPU's SHA
//! extensions on an `x86_64` processor that reports them, the portable
//! rounds everywhere else. The processor decides, per call; nothing
//! selects between them (see the crate README, "SHA-256 kernels").

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

/// The two SHA-256 compression kernels, exposed one by one so the
/// differential tests can hold the hardware kernel to the portable one
/// on the same input. Not a hashing interface: no padding, no length —
/// hash with [`Sha256`] or [`sha256`]. Both functions compress every
/// whole 64-byte block of `blocks` into `state` and ignore a trailing
/// partial block.
pub mod kernel {
    use super::K;

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
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_hash = inner.finalize();
    let mut outer = Sha256::new();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
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
