//! What every workload takes and returns, and how passes are scheduled.

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::metrics::Metrics;
use crate::trace::SpanLog;

/// Command-line options of one run.
pub struct RunOpts {
    pub seed: u64,
    /// How long the timed passes go on.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Small inputs, for `run.sh --smoke`.
    pub smoke: bool,
    /// Build directory: scratch stores and trace files go under it.
    pub target_dir: PathBuf,
}

impl RunOpts {
    /// Workload blocks per closed-loop stream, after the ten set-up
    /// blocks.
    pub fn stream_blocks(&self) -> usize {
        if self.smoke {
            8
        } else {
            200
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Every oracle check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Lines for the human-readable report (stderr).
    pub notes: Vec<String>,
}

/// Runs `setup` and returns its result with the seconds it took.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let made = setup();
    (made, start.elapsed().as_secs_f64())
}

/// Pass scheduler of the closed-loop workloads: another pass is due
/// until the timed walls handed to [`Passes::spent`] add up to the
/// budget. Only measured time counts, so the checks and the recovery
/// between passes do not eat into `--seconds`.
pub struct Passes {
    budget_s: f64,
    timed_s: f64,
    started: usize,
}

impl Passes {
    pub fn new(opts: &RunOpts) -> Passes {
        Passes {
            budget_s: opts.seconds,
            timed_s: 0.0,
            started: 0,
        }
    }

    /// The index of the next pass, while one is due (the first always
    /// is).
    pub fn next_due(&mut self) -> Option<usize> {
        if self.started > 0 && self.timed_s >= self.budget_s {
            return None;
        }
        self.started += 1;
        Some(self.started - 1)
    }

    pub fn spent(&mut self, wall_s: f64) {
        self.timed_s += wall_s;
    }

    /// Timed seconds so far.
    pub fn timed_s(&self) -> f64 {
        self.timed_s
    }
}

/// Ends a traced run: writes the spans out, sets the `trace.*` and
/// `host.*` metrics, and fails the run if recording cost 5 % or more of
/// the `timed_s` seconds it ran beside.
pub fn export_trace(
    opts: &RunOpts,
    workload: &str,
    log: &SpanLog,
    timed_s: f64,
    out: &mut Outcome,
) {
    let overhead = log.cost_s() / (timed_s - log.cost_s());
    let m = &mut out.metrics;
    m.set("trace.overhead_share", overhead);
    m.set("trace.spans", log.len() as f64);
    m.set("host.cpus", host::cpus() as f64);
    m.set("host.calib_ns", host::calib_ns());
    let path = opts.target_dir.join(format!("trace-{workload}.jsonl"));
    log.write_jsonl(&path).expect("trace file writes");
    eprintln!("trace: {} spans in {}", log.len(), path.display());
    for (name, ns) in log.self_times() {
        eprintln!("  self time {name:<24} {:>12.3} ms", ns as f64 / 1e6);
    }
    if overhead >= 0.05 {
        eprintln!("FAILED: trace.overhead_share {overhead:.3} is not under 0.05");
        out.correct = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seconds: f64) -> RunOpts {
        RunOpts {
            seed: 1,
            seconds,
            trace: false,
            smoke: true,
            target_dir: PathBuf::new(),
        }
    }

    #[test]
    fn passes_run_at_least_once_and_until_the_timed_budget_is_spent() {
        let mut passes = Passes::new(&opts(0.0));
        assert_eq!(passes.next_due(), Some(0));
        assert_eq!(passes.next_due(), None);

        let mut passes = Passes::new(&opts(1.0));
        let mut ran = 0;
        while passes.next_due().is_some() {
            passes.spent(0.4);
            ran += 1;
        }
        assert_eq!(ran, 3);
        assert!((passes.timed_s() - 1.2).abs() < 1e-12);
    }
}
