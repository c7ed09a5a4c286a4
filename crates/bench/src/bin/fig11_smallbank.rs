//! Figure 11: smallbank commit throughput across block sizes and
//! vCPUs/tx_validators, plus the §4.3 simulator projection.

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig, SwValidatorModel};
use fabric_sim::as_millis;

fn sw_tps(block: usize, vcpus: usize) -> f64 {
    SwValidatorModel::new(vcpus)
        .validate_block(&BlockShape::smallbank(block))
        .throughput_tps(block)
}

fn hw_tps(block: usize, validators: usize) -> f64 {
    let cfg = HwModelConfig::new(Geometry::new(validators, 2));
    validate_block(&cfg, &BlockShape::smallbank(block)).throughput_tps(block, &cfg)
}

fn main() {
    heading("Figure 11: smallbank commit throughput (tps)");
    let blocks = [50usize, 100, 150, 200, 250];
    let parallel = [4usize, 8, 16];
    let mut rows = Vec::new();
    for &b in &blocks {
        let mut row = vec![format!("{b}")];
        for &p in &parallel {
            row.push(format!("{:.0}", sw_tps(b, p)));
        }
        for &p in &parallel {
            row.push(format!("{:.0}", hw_tps(b, p)));
        }
        rows.push(row);
    }
    table(
        &[
            "block",
            "sw 4vCPU",
            "sw 8vCPU",
            "sw 16vCPU",
            "bmac 4tv",
            "bmac 8tv",
            "bmac 16tv",
        ],
        &rows,
    );

    let sw4 = sw_tps(250, 4);
    let sw16 = sw_tps(250, 16);
    let hw4 = hw_tps(250, 4);
    let hw16 = hw_tps(250, 16);
    let peak_cfg = HwModelConfig::new(Geometry::new(32, 2));
    let peak = validate_block(&peak_cfg, &BlockShape::smallbank(250));
    let hw32 = peak.throughput_tps(250, &peak_cfg);
    let peak_latency_ms = as_millis(peak.total);
    println!();
    println!(
        "BMac 4 validators vs sw 16 vCPUs: {:.1}x (paper ~2x)",
        hw4 / sw16
    );
    println!(
        "peak (32 validators, block 250): {:.0} tps at {:.2} ms (paper 68,900 at 3.63 ms)",
        hw32, peak_latency_ms
    );
    println!(
        "speedup vs 16-vCPU software: {:.1}x (paper ~12x)",
        hw32 / sw16
    );

    heading("simulator projection beyond 16 tx_validators (paper §4.3)");
    let mut rows = Vec::new();
    for &(v, b) in &[(32usize, 250usize), (50, 250), (64, 500), (80, 500)] {
        let cfg = HwModelConfig::new(Geometry::new(v, 2));
        let r = validate_block(&cfg, &BlockShape::smallbank(b));
        rows.push(vec![
            format!("{v}"),
            format!("{b}"),
            format!("{:.0}", r.throughput_tps(b, &cfg)),
            format!("{:.2}", as_millis(r.total)),
        ]);
    }
    table(
        &["tx_validators", "block", "tps", "block latency (ms)"],
        &rows,
    );

    let checks = vec![
        ShapeCheck::new(
            "sw tps, block 250, 4 vCPUs (paper 3,900)",
            3_900.0,
            sw4,
            0.15,
        ),
        ShapeCheck::new(
            "sw tps, block 250, 16 vCPUs (paper 5,600)",
            5_600.0,
            sw16,
            0.14,
        ),
        ShapeCheck::new("sw scaling 4->16 vCPUs (paper 1.5x)", 1.5, sw16 / sw4, 0.13),
        ShapeCheck::new(
            "bmac tps, block 250, 4 validators (paper 10,700)",
            10_700.0,
            hw4,
            0.05,
        ),
        ShapeCheck::new(
            "bmac tps, block 250, 16 validators (paper 38,400)",
            38_400.0,
            hw16,
            0.08,
        ),
        ShapeCheck::new("bmac scaling 4->16 (paper 3.6x)", 3.6, hw16 / hw4, 0.1),
        ShapeCheck::new("bmac4 / sw16 (paper ~2x)", 2.0, hw4 / sw16, 0.1),
        ShapeCheck::new("peak tps (paper 68,900)", 68_900.0, hw32, 0.05),
        ShapeCheck::new(
            "peak block latency ms (paper 3.63)",
            3.63,
            peak_latency_ms,
            0.07,
        ),
        ShapeCheck::new("peak speedup vs sw (paper ~12x)", 12.0, hw32 / sw16, 0.12),
        ShapeCheck::new(
            "projection 50 validators (paper ~100k)",
            100_000.0,
            hw_tps(250, 50),
            0.05,
        ),
        ShapeCheck::new(
            "projection 80 validators block 500 (paper ~150k)",
            150_000.0,
            hw_tps(500, 80),
            0.05,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
