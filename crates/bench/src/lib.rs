//! Shared harness for the figure/table reproduction binaries.
//!
//! Each `src/bin/figNN_*.rs` binary regenerates one table or figure from
//! the paper's evaluation section, printing the same rows/series the
//! paper reports plus a paper-vs-measured shape comparison. This module
//! provides the table formatting, the shape-check bookkeeping, and the
//! end-to-end block transmission model used by Figure 9b.

#![warn(missing_docs)]

use std::fmt::Display;

use fabric_sim::{NetLink, Samples, SimTime, MICROS, MILLIS};

/// Prints a section header.
pub fn heading(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints an aligned table.
pub fn table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    // Size columns over headers AND rows: a row wider than the header
    // extends `widths` (previously extra cells were clamped to the last
    // header column's width, silently misaligning — and an empty header
    // list would have panicked on `widths.len() - 1`).
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        if row.len() > widths.len() {
            widths.resize(row.len(), 0);
        }
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", line.trim_end());
    };
    fmt_row(&headers);
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("{}", "-".repeat(total));
    for row in &rows {
        fmt_row(row);
    }
}

/// One paper-vs-measured shape check.
#[derive(Debug)]
pub struct ShapeCheck {
    /// What is being compared.
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured/modeled value.
    pub measured: f64,
    /// Acceptable relative deviation for a pass.
    pub tolerance: f64,
    /// When true, only a measured value at or below
    /// `paper × (1 - tolerance)` fails — for "at least X" claims like
    /// "improved by ~40x", and with zero tolerance for "above X" claims
    /// like "drm is faster" (ratio above 1).
    pub one_sided: bool,
}

impl ShapeCheck {
    /// Creates a two-sided check.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64, tolerance: f64) -> Self {
        ShapeCheck {
            metric: metric.into(),
            paper,
            measured,
            tolerance,
            one_sided: false,
        }
    }

    /// Creates a one-sided check: passes when `measured` is above
    /// `paper × (1 - tolerance)`.
    pub fn at_least(metric: impl Into<String>, paper: f64, measured: f64, tolerance: f64) -> Self {
        ShapeCheck {
            metric: metric.into(),
            paper,
            measured,
            tolerance,
            one_sided: true,
        }
    }

    /// Whether the measured value is within tolerance.
    pub fn passes(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured == 0.0;
        }
        let rel = (self.measured - self.paper) / self.paper;
        if self.one_sided {
            rel > -self.tolerance
        } else {
            rel.abs() <= self.tolerance
        }
    }
}

/// Prints a list of shape checks and returns how many failed.
pub fn report_checks(checks: &[ShapeCheck]) -> usize {
    heading("paper-vs-measured shape checks");
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.metric.clone(),
                format!("{:.1}", c.paper),
                format!("{:.1}", c.measured),
                format!("{:+.1}%", (c.measured - c.paper) / c.paper * 100.0),
                if c.passes() {
                    "ok".into()
                } else {
                    "DEVIATES".into()
                },
            ]
        })
        .collect();
    table(&["metric", "paper", "measured", "delta", "status"], &rows);
    checks.iter().filter(|c| !c.passes()).count()
}

/// End-to-end block transmission model for Figure 9b.
///
/// Both paths share the same software base cost (orderer handoff, OS and
/// scheduling jitter); they differ in wire time (Gossip's TCP framing vs
/// BMac's stripped sections) and receive-side processing (full protobuf
/// unmarshal + TCP reassembly vs cut-through hardware parsing).
#[derive(Debug)]
pub struct TransmissionModel {
    /// Deterministic software base latency.
    pub base: SimTime,
    /// Mean of the exponential jitter component.
    pub jitter_mean: SimTime,
}

impl Default for TransmissionModel {
    fn default() -> Self {
        TransmissionModel {
            base: 9 * MILLIS,
            jitter_mean: 3 * MILLIS,
        }
    }
}

impl TransmissionModel {
    /// Samples an end-to-end Gossip transmission (ms) for a block of
    /// `block_bytes`, using `u ∈ (0,1]` as the jitter variate.
    pub fn gossip_ms(&self, block_bytes: usize, unmarshal: SimTime, u: f64) -> f64 {
        let mut link = NetLink::gigabit();
        let wire = fabric_node::gossip::gossip_transmit(&mut link, 0, block_bytes);
        let jitter = (-(u.max(1e-9)).ln() * self.jitter_mean as f64) as SimTime;
        fabric_sim::as_millis(self.base + jitter + wire + unmarshal)
    }

    /// Samples an end-to-end BMac transmission (ms) for the protocol's
    /// wire bytes.
    pub fn bmac_ms(&self, bmac_wire_bytes: usize, u: f64) -> f64 {
        let mut link = NetLink::gigabit();
        let wire = link.transmit(0, bmac_wire_bytes);
        let jitter = (-(u.max(1e-9)).ln() * self.jitter_mean as f64) as SimTime;
        // Hardware parse: cut-through, sub-200 µs for any block.
        fabric_sim::as_millis(self.base + jitter + wire + 150 * MICROS)
    }
}

/// Builds a CDF summary string (p50/p95/p99) from samples.
pub fn cdf_summary(samples: &mut Samples) -> String {
    format!(
        "p50={:.1}ms p95={:.1}ms p99={:.1}ms (n={})",
        samples.percentile(50.0),
        samples.percentile(95.0),
        samples.percentile(99.0),
        samples.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_handles_ragged_rows() {
        // Rows wider than the header (and an empty header list) used to
        // misalign or panic; both must render cleanly now.
        table(
            &["a", "b"],
            &[
                vec![
                    "1".to_string(),
                    "2".to_string(),
                    "extra-wide-cell".to_string(),
                ],
                vec!["x".to_string()],
            ],
        );
        table::<&str, String>(&[], &[vec!["only".to_string(), "cells".to_string()]]);
    }

    #[test]
    fn shape_check_passes_within_tolerance() {
        assert!(ShapeCheck::new("x", 100.0, 105.0, 0.10).passes());
        assert!(!ShapeCheck::new("x", 100.0, 125.0, 0.10).passes());
        // One-sided checks hold a strict bound: equal to the floor fails.
        assert!(ShapeCheck::at_least("x", 1.0, 1.001, 0.0).passes());
        assert!(!ShapeCheck::at_least("x", 1.0, 1.0, 0.0).passes());
    }

    #[test]
    fn transmission_model_orders_paths() {
        let m = TransmissionModel::default();
        // Same jitter variate: BMac must beat Gossip for the same block.
        let gossip = m.gossip_ms(500_000, 6 * MILLIS, 0.5);
        let bmac = m.bmac_ms(120_000, 0.5);
        assert!(bmac < gossip);
    }
}
