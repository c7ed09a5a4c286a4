//! Figure 10: breakdown of block validation, sw_validator vs BMac peer.

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig, SwValidatorModel};
use fabric_sim::as_millis;

fn main() {
    heading("Figure 10: block validation breakdown, sw_validator vs BMac (ms)");
    let mut rows = Vec::new();
    let mut sw200_8 = None;
    let mut hw200_8 = None;
    for &(block, par) in &[(100usize, 4usize), (100, 8), (200, 4), (200, 8)] {
        let shape = BlockShape::smallbank(block);
        let sw = SwValidatorModel::new(par).validate_block(&shape);
        let hw_cfg = HwModelConfig::new(Geometry::new(par, 2));
        let hw = validate_block(&hw_cfg, &shape);
        if (block, par) == (200, 8) {
            sw200_8 = Some(sw);
            hw200_8 = Some(hw);
        }
        rows.push(vec![
            format!("{block}"),
            format!("{par}"),
            format!("{:.1}", as_millis(sw.unmarshal)),
            format!("{:.1}", as_millis(sw.total_excl_ledger() - sw.unmarshal)),
            format!("{:.1}", as_millis(sw.total_excl_ledger())),
            format!("{:.3}", as_millis(hw.protocol)),
            format!("{:.1}", as_millis(hw.total)),
            format!(
                "{:.1}x",
                as_millis(sw.total_excl_ledger()) / as_millis(hw.total)
            ),
        ]);
    }
    table(
        &[
            "block",
            "vCPUs/validators",
            "sw unmarshal",
            "sw validation",
            "sw total",
            "hw protocol",
            "hw total",
            "speedup",
        ],
        &rows,
    );

    let sw = sw200_8.expect("row computed");
    let hw = hw200_8.expect("row computed");
    let unmarshal_speedup = as_millis(sw.unmarshal) / as_millis(hw.protocol);
    let validation_speedup =
        as_millis(sw.total_excl_ledger() - sw.unmarshal) / as_millis(hw.total - hw.protocol);
    let overall = as_millis(sw.total_excl_ledger()) / as_millis(hw.total);
    println!();
    println!("block 200 / 8 vCPUs-validators:");
    println!("  unmarshal -> protocol_processor: {unmarshal_speedup:.0}x (paper ~40x, <0.2 ms)");
    println!("  block validation: {validation_speedup:.1}x (paper ~3.7x: 35.9 -> 9.7 ms)");
    println!("  overall: {overall:.1}x (paper 4.4x)");

    let checks = vec![
        // One-sided: the paper claims "less than 0.2 ms" / "~40x".
        ShapeCheck::at_least(
            "hw protocol under 0.2ms (margin)",
            1.0,
            0.2 / as_millis(hw.protocol).max(1e-6),
            0.0,
        ),
        ShapeCheck::new(
            "sw unmarshal ms (paper ~8)",
            8.0,
            as_millis(sw.unmarshal),
            0.25,
        ),
        ShapeCheck::new(
            "sw block validation ms (paper 35.9)",
            35.9,
            as_millis(sw.total_excl_ledger() - sw.unmarshal),
            0.16,
        ),
        ShapeCheck::new(
            "hw block validation ms (paper 9.7)",
            9.7,
            as_millis(hw.total),
            0.05,
        ),
        ShapeCheck::new(
            "validation speedup (paper 3.7x)",
            3.7,
            validation_speedup,
            0.2,
        ),
        ShapeCheck::new("overall speedup (paper 4.4x)", 4.4, overall, 0.2),
        ShapeCheck::at_least(
            "unmarshal speedup (paper ~40x)",
            40.0,
            unmarshal_speedup,
            0.1,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
