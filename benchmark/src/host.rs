//! What the benchmark records about the machine and the process, and
//! the conditions under which it refuses to run.

use std::time::Instant;

use crate::stats;

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses configurations whose numbers would not be comparable:
/// a debug build, or any of the runtime selectors that swap a layer's
/// implementation or turn lock checking on.
pub fn refuse_unfit_environment() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: build with --release".into());
    }
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy();
        let selector = name.starts_with("FABRIC_CHECK_")
            || (name.starts_with("FABRIC_") && name.ends_with("_BACKEND"));
        if selector {
            return Err(format!(
                "{name} is set: the benchmark measures the default backends with checking off"
            ));
        }
    }
    Ok(())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Processor seconds this process has used so far, over all its
/// threads, finished ones included: `utime + stime` of
/// `/proc/self/stat`, which Linux reports in ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name (field 2) may hold spaces: count from its ')'.
    let (_, rest) = stat
        .rsplit_once(')')
        .expect("command name in /proc/self/stat");
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let mut ticks = rest
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().expect("utime and stime are numbers"));
    let (utime, stime) = (ticks.next(), ticks.next());
    (utime.expect("utime field") + stime.expect("stime field")) / 100.0
}

/// Nanoseconds per iteration of a fixed integer loop (SHA-256-style
/// word mixing plus a 256-bit schoolbook multiply), median of five
/// repetitions. It shares no code with the crates under test, so it
/// moves with the host and never with a change to them: compare
/// results across hosts by their ratio to it.
pub fn calib_ns() -> f64 {
    const ITERS: u64 = 200_000;
    let mut reps: Vec<f64> = (0..5)
        .map(|rep| {
            let start = Instant::now();
            std::hint::black_box(calib_loop(std::hint::black_box(ITERS + rep)));
            start.elapsed().as_nanos() as f64 / (ITERS + rep) as f64
        })
        .collect();
    stats::median(&mut reps)
}

fn calib_loop(iters: u64) -> u64 {
    let mut w = [0x6a09_e667u32, 0xbb67_ae85, 0x3c6e_f372, 0xa54f_f53a];
    let mut a = [0x9e37_79b9_7f4a_7c15u64, 3, 5, 7];
    let b = [0xd1b5_4a32_d192_ed03u64, 11, 13, 17];
    for i in 0..iters {
        // Four SHA-256 message-schedule steps.
        for k in 0..4 {
            let x = w[(k + 1) % 4];
            let y = w[(k + 2) % 4];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w[k] = w[k]
                .wrapping_add(s0)
                .wrapping_add(s1)
                .wrapping_add(i as u32);
        }
        // Low half of a 4x4-limb product, folded back into `a`.
        let mut lo = [0u64; 4];
        for (r, &ar) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (c, &bc) in b.iter().enumerate().take(4 - r) {
                let t = ar as u128 * bc as u128 + lo[r + c] as u128 + carry;
                lo[r + c] = t as u64;
                carry = t >> 64;
            }
        }
        a = lo;
        a[0] ^= w[0] as u64 | 1;
    }
    a.iter().fold(w[3] as u64, |acc, &x| acc ^ x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_loop_depends_on_its_iteration_count() {
        // If the optimiser could fold the loop away, more iterations
        // would not change the result.
        assert_ne!(calib_loop(10), calib_loop(11));
        assert_eq!(calib_loop(10), calib_loop(10));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn processor_time_rises_with_work() {
        let before = cpu_seconds();
        let start = Instant::now();
        while start.elapsed().as_millis() < 60 {
            std::hint::black_box(calib_loop(1_000));
        }
        let used = cpu_seconds() - before;
        assert!((0.03..1.0).contains(&used), "used {used} s of processor");
    }
}
