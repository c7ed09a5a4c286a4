//! The repository's reference benchmark. See `benchmark/README.md`.
//!
//! `fabric-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Everything else goes to standard error.

mod e2e_workload;
mod gen;
mod harness;
mod host;
mod metrics;
mod peer_workload;
mod peerside;
mod probe;
mod run;
mod state_workload;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use workload::Workload;

use crate::peer_workload::Cache;
use crate::run::{Outcome, RunOpts};

/// A run ends within this long, whatever happens: `BENCHMARK.json`'s
/// contract stops a run at 180 s, and a run that a wait never returns
/// from must fail with a reason rather than be stopped without one. A
/// run on an idle host takes 13 to 30 s.
const WATCHDOG: Duration = Duration::from_secs(150);

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "peer_cold_smallbank",
    "peer_warm_drm",
    "e2e_open_smallbank",
    "state_zipf_1m",
];

fn main() -> ExitCode {
    let (workload, opts) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: fabric-benchmark --workload <{}> [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(reason) = host::refuse_unfit_environment() {
        eprintln!("error: refusing to run: {reason}");
        return ExitCode::from(2);
    }
    std::fs::create_dir_all(&opts.target_dir).expect("create build directory");
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "error: still running after {} s; no result. The host is too busy for this \
             benchmark, or a wait inside the program under test never returned",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });

    let mut out = match workload.as_str() {
        "peer_cold_smallbank" => {
            peer_workload::run(&workload, Workload::Smallbank, Cache::Cold, &opts)
        }
        "peer_warm_drm" => peer_workload::run(&workload, Workload::Drm, Cache::Warm, &opts),
        "e2e_open_smallbank" => e2e_workload::run(&workload, &opts),
        "state_zipf_1m" => state_workload::run(&workload, &opts),
        _ => unreachable!("parse_args checked the name"),
    };
    // At exit, so it covers set-up, every pass and every check.
    out.metrics.set("peak_rss_mb", host::peak_rss_mb());
    report(&workload, &opts, &out)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, RunOpts), String> {
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from);
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 11,
        seconds: 10.0,
        trace: false,
        smoke: false,
        target_dir,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload name")),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

/// Prints the human-readable report to stderr and the result line to
/// stdout. A run that failed its oracle still prints its numbers, and
/// exits 1.
fn report(workload: &str, opts: &RunOpts, out: &Outcome) -> ExitCode {
    for note in &out.notes {
        eprintln!("{note}");
    }
    let rows = if opts.trace {
        out.metrics.per_layer_rows()
    } else {
        out.metrics.end_to_end_rows()
    };
    eprintln!(
        "{workload} seed {} trace {}: correct {}, attempted {}, failed {} (failed_share {:.4})",
        opts.seed,
        u8::from(opts.trace),
        out.correct,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, value, unit) in &rows {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &rows)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, RunOpts), String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_invocation_parses() {
        let (workload, opts) = parse(&[
            "--workload",
            "state_zipf_1m",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(workload, "state_zipf_1m");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (42, 10.0, true));
        assert!(!opts.smoke);
    }

    #[test]
    fn malformed_invocations_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "peer_warm_drm", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "peer_warm_drm", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "peer_warm_drm", "--seed"]).is_err());
        assert!(parse(&["--workload", "peer_warm_drm", "--frobnicate", "1"]).is_err());
    }
}
