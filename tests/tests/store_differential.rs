//! The **CRC-32 kernels** of the store's record checksum
//! ([`fabric_store::crc::kernel`]): carry-less multiply folding against
//! the slice-by-8 tables, and both against the byte-at-a-time CRC
//! restated in this file from the polynomial — so a fault shared by the
//! two kernels (they share one table) still shows. On a CPU without
//! `pclmulqdq` the hardware arm has nothing to run; the tests then
//! exercise the portable arm alone and say so.

use fabric_store::crc::{crc32, kernel};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A CRC-32 kernel, as [`kernel`] exposes both: running CRC in, running
/// CRC out, no final xor.
type Kernel = fn(u32, &[u8]) -> u32;

/// The hardware kernel, or `None` — with a note on stderr — on a CPU (or
/// target) without carry-less multiply.
fn hardware_kernel() -> Option<Kernel> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    if kernel::hardware(0, &[]).is_some() {
        Some(|crc, bytes| kernel::hardware(crc, bytes).expect("detected above"))
    } else {
        NOTE.call_once(|| eprintln!("note: no pclmulqdq on this CPU; hardware-kernel arm skipped"));
        None
    }
}

/// Every kernel this CPU can run, named.
fn kernels() -> Vec<(&'static str, Kernel)> {
    let mut all: Vec<(&'static str, Kernel)> = vec![("portable", kernel::portable)];
    all.extend(hardware_kernel().map(|k| ("hardware", k)));
    all
}

/// The oracle: the reflected IEEE polynomial one bit at a time, no
/// table. Running CRC in and out, like the kernels.
fn bitwise(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        (0..8).fold(crc ^ u32::from(b), |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(c & 1))
        })
    })
}

/// The universal check value through each kernel, and — because nine
/// bytes never reach the fold — `zlib.crc32` over
/// `bytes((i*7+3) & 0xff for i in range(n))` at the shortest folded
/// length, a record-sized one and a block-sized one.
#[test]
fn check_values_through_each_kernel() {
    let vectors: [(usize, u32); 3] = [
        (64, 0xCBD9_ECF0),
        (1_000, 0x17BC_2A46),
        (400_000, 0xC7C3_A548),
    ];
    assert_eq!(!bitwise(!0, b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    for (name, k) in kernels() {
        assert_eq!(!k(!0, b"123456789"), 0xCBF4_3926, "{name}");
        for (n, expected) in vectors {
            let input: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(!k(!0, &input), expected, "{name}: {n} bytes");
        }
    }
}

/// Every length across the table/fold threshold, four strides of the
/// fold-by-4 loop and every tail length, at every alignment of the
/// slice start within a 16-byte lane, from two different running CRCs.
#[test]
fn every_short_length_at_every_offset() {
    let data: Vec<u8> = (0..352u32).map(|i| (i * 131 + 17) as u8).collect();
    for (name, k) in kernels() {
        for start in 0..16 {
            for len in 0..=320 {
                let input = &data[start..start + len];
                for init in [!0, 0x1234_5678] {
                    assert_eq!(
                        k(init, input),
                        bitwise(init, input),
                        "{name}: start {start} len {len} init {init:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_inputs_up_to_1mib() {
    let mut rng = StdRng::seed_from_u64(0x0C4C_0032);
    let mut data = vec![0u8; 1 << 20];
    rng.fill(&mut data[..]);
    for i in 0..500 {
        // Mostly record-sized, every tenth up to the full MiB.
        let max = if i % 10 == 0 { data.len() } else { 8 * 1024 };
        let len = rng.gen_range(0..=max);
        let start = rng.gen_range(0..=data.len() - len);
        let input = &data[start..start + len];
        let oracle = bitwise(!0, input);
        for (name, k) in kernels() {
            assert_eq!(k(!0, input), oracle, "{name}: start {start} len {len}");
        }
        assert_eq!(crc32(input), !oracle, "crc32: start {start} len {len}");
    }
}

/// The kernels take a running CRC: an input fed in four pieces, cut at
/// random, is the input fed whole — with the kernels also alternating
/// between pieces.
#[test]
fn running_crc_split_at_random_cut_points() {
    let mut rng = StdRng::seed_from_u64(0x05EE_DCA7);
    let all = kernels();
    for _ in 0..200 {
        let len = rng.gen_range(0..=4096usize);
        let mut input = vec![0u8; len];
        rng.fill(&mut input);
        let mut cuts = [0usize; 3].map(|_| rng.gen_range(0..=len));
        cuts.sort_unstable();
        let pieces = [
            &input[..cuts[0]],
            &input[cuts[0]..cuts[1]],
            &input[cuts[1]..cuts[2]],
            &input[cuts[2]..],
        ];
        let whole = bitwise(!0, &input);
        for (name, k) in &all {
            let split = pieces.iter().fold(!0, |crc, piece| k(crc, piece));
            assert_eq!(split, whole, "{name}: len {len} cuts {cuts:?}");
        }
        let mixed = pieces
            .iter()
            .enumerate()
            .fold(!0, |crc, (i, piece)| all[i % all.len()].1(crc, piece));
        assert_eq!(mixed, whole, "alternating kernels: len {len} cuts {cuts:?}");
    }
}
