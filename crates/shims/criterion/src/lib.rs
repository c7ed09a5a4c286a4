//! Offline stand-in for `criterion`.
//!
//! The build environment has no registry access, so this crate provides a
//! small timing harness with criterion's API shape: benchmark groups,
//! `bench_function`, and the `criterion_group!`/`criterion_main!` macros
//! (bench targets set `harness = false`). Each benchmark is warmed up,
//! then timed over enough iterations to smooth scheduler noise; median
//! and mean per-iteration times are printed.

use std::time::{Duration, Instant};

/// Top-level handle passed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Creates a fresh harness.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: 10,
            throughput: None,
        }
    }

    /// Registers a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, 10, None, f);
        self
    }
}

/// How much data one iteration of a benchmark processes; when set, the
/// median is also reported as a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration, reported as MB/s (10⁶ bytes).
    Bytes(u64),
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the per-iteration throughput of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, self.sample_size, self.throughput, f);
        self
    }

    /// Ends the group (prints nothing extra; provided for API parity).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the code
/// under test.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, recording per-iteration wall-clock samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: target ~20ms per sample batch.
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let per_sample =
            (Duration::from_millis(20).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u32;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(routine());
            }
            self.samples.push(t0.elapsed() / per_sample);
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("  {name:<28} (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let mean: Duration = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    let rate = throughput.map_or_else(String::new, |Throughput::Bytes(bytes)| {
        format!("  {:>9.1} MB/s", bytes as f64 / 1e6 / median.as_secs_f64())
    });
    println!(
        "  {name:<28} median {:>12?}  mean {:>12?}  ({} samples){rate}",
        median,
        mean,
        b.samples.len()
    );
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub use std::hint::black_box;

/// Declares a benchmark group runner, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::new();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
