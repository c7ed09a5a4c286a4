//! Figure 12: adaptability — endorsement policies, engine geometry, and
//! database request scaling. Each row builds one [`BlockShape`] and
//! feeds it to both models.

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig, SwValidatorModel};
use fabric_policy::parse;

const BLOCK: usize = 150;

/// A smallbank block whose transactions carry `ends` endorsements, of
/// which the policy needs `needed`.
fn policy_shape(ends: usize, needed: usize) -> BlockShape {
    let mut shape = BlockShape::smallbank(BLOCK);
    shape.endorsements_per_tx = ends;
    shape.needed_endorsements = needed;
    shape
}

/// A smallbank block whose transactions read and write `rw` keys each.
fn rw_shape(rw: usize) -> BlockShape {
    let mut shape = BlockShape::smallbank(BLOCK);
    shape.reads_per_tx = rw;
    shape.writes_per_tx = rw;
    shape
}

/// Software validator throughput on 8 vCPUs.
fn sw_tps(shape: &BlockShape) -> f64 {
    SwValidatorModel::new(8)
        .validate_block(shape)
        .throughput_tps(BLOCK)
}

/// BMac throughput on `v` tx_validators of `e` vscc engines.
fn hw_tps(v: usize, e: usize, shape: &BlockShape) -> f64 {
    let cfg = HwModelConfig::new(Geometry::new(v, e));
    validate_block(&cfg, shape).throughput_tps(BLOCK, &cfg)
}

fn main() {
    heading("Figure 12a: throughput vs endorsement policy (block 150, 8 vCPUs/validators)");
    // (label, endorsements carried, needed under short-circuit)
    let policies = [
        ("1of1", 1usize, 1usize),
        ("1of2", 2, 1),
        ("2of2", 2, 2),
        ("2of3", 3, 2),
        ("3of3", 3, 3),
        ("2of4", 4, 2),
        ("3of4", 4, 3),
        ("4of4", 4, 4),
    ];
    let mut rows = Vec::new();
    for (label, ends, needed) in policies {
        let shape = policy_shape(ends, needed);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", sw_tps(&shape)),
            format!("{:.0}", hw_tps(8, 2, &shape)),
        ]);
    }
    table(&["policy", "sw_validator tps", "bmac 8x2 tps"], &rows);

    heading("Figure 12b: engine geometry 8x2 vs 5x3, and the complex policy");
    let mut rows = Vec::new();
    for (label, ends, needed) in [("2of3", 3usize, 2usize), ("3of3", 3, 3), ("3of4", 4, 3)] {
        let shape = policy_shape(ends, needed);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", hw_tps(8, 2, &shape)),
            format!("{:.0}", hw_tps(5, 3, &shape)),
        ]);
    }
    table(&["policy", "bmac 8x2", "bmac 5x3"], &rows);
    // The complex OR-of-ANDs policy over 4 orgs: min 2 endorsements.
    let complex =
        parse("(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)")
            .expect("paper policy parses");
    let mut complex_shape = policy_shape(4, complex.min_satisfying());
    // Extra sequential sub-expression visits vs native k-of-n.
    complex_shape.policy_extra_visits = 11;
    let sw_complex = sw_tps(&complex_shape);
    let hw_complex = hw_tps(8, 2, &complex_shape);
    println!();
    println!("complex policy \"(Org1 & Org2) | ... | (Org3 & Org4)\":");
    println!("  sw_validator: {sw_complex:.0} tps (paper ~2,700: sequential sub-expressions)");
    println!("  bmac 8x2:     {hw_complex:.0} tps (paper ~19,800: combinational circuit)");

    heading("Figure 12c: split payment, varying database requests (rw)");
    let mut rows = Vec::new();
    let mut hw_series = Vec::new();
    let mut sw_series = Vec::new();
    for rw in [2usize, 3, 4, 5] {
        let shape = rw_shape(rw);
        let sw = sw_tps(&shape);
        let hw = hw_tps(8, 2, &shape);
        hw_series.push(hw);
        sw_series.push(sw);
        rows.push(vec![
            format!("{rw}r{rw}w"),
            format!("{:.0}", sw),
            format!("{:.0}", hw),
        ]);
    }
    table(&["rw per tx", "sw_validator tps", "bmac 8x2 tps"], &rows);

    let (p1of1, p2of2) = (policy_shape(1, 1), policy_shape(2, 2));
    let (p2of3, p3of3) = (policy_shape(3, 2), policy_shape(3, 3));
    let ratio_2of3 = hw_tps(8, 2, &p2of3) / hw_tps(5, 3, &p2of3);
    let ratio_3of3 = hw_tps(5, 3, &p3of3) / hw_tps(8, 2, &p3of3);
    let checks = vec![
        ShapeCheck::new(
            "sw 3of3 vs 2of2 drop (paper 13.5%)",
            13.5,
            (1.0 - sw_tps(&p3of3) / sw_tps(&p2of2)) * 100.0,
            0.45,
        ),
        ShapeCheck::at_least(
            "sw 1of1 over 2of2 (fewer endorsements; ratio > 1)",
            1.0,
            sw_tps(&p1of1) / sw_tps(&p2of2),
            0.0,
        ),
        ShapeCheck::new(
            "sw 2of3 == 3of3 (verifies all; ratio 1.0)",
            1.0,
            sw_tps(&p2of3) / sw_tps(&p3of3),
            0.0,
        ),
        ShapeCheck::new(
            "bmac 2of3 tps (paper 19,800)",
            19_800.0,
            hw_tps(8, 2, &p2of3),
            0.06,
        ),
        ShapeCheck::new(
            "bmac 3of3 tps (paper 10,400)",
            10_400.0,
            hw_tps(8, 2, &p3of3),
            0.06,
        ),
        ShapeCheck::new("8x2 over 5x3 on 2of3 (paper +52%)", 1.52, ratio_2of3, 0.07),
        ShapeCheck::new("5x3 over 8x2 on 3of3 (paper +25%)", 1.25, ratio_3of3, 0.07),
        ShapeCheck::new(
            "sw complex policy tps (paper ~2,700)",
            2_700.0,
            sw_complex,
            0.15,
        ),
        ShapeCheck::at_least(
            "sw 2of4 over complex (sequential visits; ratio > 1)",
            1.0,
            sw_tps(&policy_shape(4, 2)) / sw_complex,
            0.0,
        ),
        ShapeCheck::new(
            "bmac complex == 2of4 (paper 19,800)",
            19_800.0,
            hw_complex,
            0.06,
        ),
        ShapeCheck::new(
            "bmac flat under rw growth (ratio first/last)",
            1.0,
            hw_series[0] / hw_series[3],
            0.03,
        ),
        ShapeCheck::new(
            "bmac 8r8w over 2r2w (db work hidden; ratio 1.0)",
            1.0,
            hw_tps(8, 2, &rw_shape(8)) / hw_series[0],
            0.02,
        ),
        ShapeCheck::new(
            "sw drops under rw growth (paper ~16% total)",
            16.0,
            (1.0 - sw_series[3] / sw_series[0]) * 100.0,
            0.45,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
