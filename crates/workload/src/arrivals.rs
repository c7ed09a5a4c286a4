//! Open-loop arrival process for the admission front-end.
//!
//! Caliper's send rate controller submits transactions at a fixed rate
//! regardless of how fast the SUT drains them — an *open-loop* driver.
//! This module reproduces that shape: Poisson arrivals (exponential
//! interarrival times at `rate_per_sec`) attributed to a Zipf-skewed
//! sender population, so a small set of hot senders dominates while the
//! long tail stays live. The sender population can be in the millions:
//! sampling uses Hörmann & Derflinger's rejection-inversion method,
//! which is O(1) per draw with no precomputed harmonic table.
//!
//! The driver emits a deterministic schedule (a pure function of its
//! config), which the cluster's mempool-fed mode and the admission
//! benchmark replay against `fabric-mempool`'s `admit`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an open-loop arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Mean arrival rate (transactions per second).
    pub rate_per_sec: f64,
    /// Sender population size — may be in the millions.
    pub senders: u64,
    /// Zipf skew exponent `s > 0`; ~1.0 is the classic web-trace skew
    /// (larger = hotter head).
    pub zipf_exponent: f64,
    /// Total arrivals to schedule.
    pub arrivals: usize,
    /// RNG seed: the schedule is a deterministic function of the config.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            rate_per_sec: 10_000.0,
            senders: 1_000_000,
            zipf_exponent: 1.0,
            arrivals: 1_000,
            seed: 7,
        }
    }
}

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in microseconds since the schedule start.
    pub at_us: u64,
    /// Zipf-ranked sender id in `0..senders` (0 is the hottest).
    pub sender: u64,
}

/// Zipf(*n*, *s*) sampler by rejection-inversion (Hörmann &
/// Derflinger, "Rejection-inversion to generate variates from monotone
/// discrete distributions", ACM TOMACS 1996). Draws rank `k ∈ [1, n]`
/// with `P(k) ∝ k^{-s}` in constant expected time and constant memory —
/// the property that lets the sender population scale to millions where
/// an inversion table would need gigabytes.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    exponent: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `1..=n` with skew `exponent`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `exponent <= 0` (a non-positive exponent
    /// is not a Zipf law; use a uniform draw instead).
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty population");
        assert!(exponent > 0.0, "zipf exponent must be positive");
        let h_integral_x1 = h_integral(1.5, exponent) - 1.0;
        let h_integral_n = h_integral(n as f64 + 0.5, exponent);
        let s = 2.0 - h_integral_inverse(h_integral(2.5, exponent) - h(2.0, exponent), exponent);
        ZipfSampler {
            n,
            exponent,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draws one rank in `[1, n]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u: f64 = rng.gen::<f64>();
            let u = self.h_integral_n + u * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.exponent);
            let k = (x + 0.5) as u64;
            let k = k.clamp(1, self.n);
            // Accept if x landed close enough to an integer (the
            // unbounded-density shortcut) or under the hat function.
            if k as f64 - x <= self.s
                || u >= h_integral(k as f64 + 0.5, self.exponent) - h(k as f64, self.exponent)
            {
                return k;
            }
        }
    }
}

/// `H(x) = ∫₁ˣ t^{-s} dt`, evaluated in a numerically stable form near
/// `s = 1` (where the closed form degenerates to `ln x`).
fn h_integral(x: f64, exponent: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - exponent) * log_x) * log_x
}

/// The density `h(x) = x^{-s}`.
fn h(x: f64, exponent: f64) -> f64 {
    (-exponent * x.ln()).exp()
}

/// `H⁻¹(t)`.
fn h_integral_inverse(x: f64, exponent: f64) -> f64 {
    let mut t = x * (1.0 - exponent);
    if t < -1.0 {
        // Numerical guard: t crossing -1 would leave the domain.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `ln(1 + x) / x`, stable for `x → 0`.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(eˣ - 1) / x`, stable for `x → 0`.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// Generates the full open-loop schedule, arrivals sorted by time.
///
/// # Panics
///
/// Panics on a non-positive rate, an empty sender population, or a
/// non-positive Zipf exponent.
pub fn open_loop_schedule(cfg: &OpenLoopConfig) -> Vec<Arrival> {
    assert!(cfg.rate_per_sec > 0.0, "open-loop rate must be positive");
    let zipf = ZipfSampler::new(cfg.senders, cfg.zipf_exponent);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clock_us = 0.0f64;
    let mut out = Vec::with_capacity(cfg.arrivals);
    for _ in 0..cfg.arrivals {
        // Exponential interarrival: -ln(1-U)/λ, in microseconds.
        let u: f64 = rng.gen::<f64>();
        clock_us += -(1.0 - u).ln() / cfg.rate_per_sec * 1e6;
        out.push(Arrival {
            at_us: clock_us as u64,
            sender: zipf.sample(&mut rng) - 1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let cfg = OpenLoopConfig {
            arrivals: 500,
            ..OpenLoopConfig::default()
        };
        let a = open_loop_schedule(&cfg);
        let b = open_loop_schedule(&cfg);
        assert_eq!(a, b, "same config, same schedule");
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(a.iter().all(|arr| arr.sender < cfg.senders));
    }

    #[test]
    fn mean_interarrival_tracks_the_rate() {
        let cfg = OpenLoopConfig {
            rate_per_sec: 1_000.0,
            arrivals: 4_000,
            ..OpenLoopConfig::default()
        };
        let schedule = open_loop_schedule(&cfg);
        let span_us = schedule.last().unwrap().at_us as f64;
        let mean_us = span_us / cfg.arrivals as f64;
        // λ = 1000/s → 1000 µs mean gap; allow 10% sampling noise.
        assert!(
            (mean_us - 1_000.0).abs() < 100.0,
            "mean interarrival {mean_us} µs off the 1000 µs target"
        );
    }

    #[test]
    fn zipf_head_dominates_a_million_senders() {
        let zipf = ZipfSampler::new(1_000_000, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 20_000;
        let mut head = 0usize;
        let mut max_rank = 0u64;
        for _ in 0..draws {
            let k = zipf.sample(&mut rng);
            assert!((1..=1_000_000).contains(&k));
            if k <= 100 {
                head += 1;
            }
            max_rank = max_rank.max(k);
        }
        // For s=1, P(rank ≤ 100) = H(100)/H(1e6) ≈ 5.19/14.39 ≈ 0.36.
        let head_share = head as f64 / draws as f64;
        assert!(
            (0.30..0.42).contains(&head_share),
            "top-100 share {head_share} outside the s=1 expectation"
        );
        // The tail is genuinely exercised too.
        assert!(max_rank > 100_000, "tail never sampled (max {max_rank})");
    }

    #[test]
    fn zipf_rank_one_is_hottest() {
        let zipf = ZipfSampler::new(10_000, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            if (k as usize) <= counts.len() {
                counts[k as usize - 1] += 1;
            }
        }
        assert!(counts[0] > counts[1], "rank 1 beats rank 2: {counts:?}");
        assert!(counts[1] > counts[3], "rank 2 beats rank 4: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn non_positive_exponent_is_rejected() {
        let _ = ZipfSampler::new(10, 0.0);
    }
}
