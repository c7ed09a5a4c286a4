//! Figure 13: drm benchmark results.

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig, SwValidatorModel};

fn main() {
    heading("Figure 13: drm vs smallbank throughput (tps)");
    let mut rows = Vec::new();
    let mut pairs = Vec::new();
    for &(block, par) in &[(100usize, 8usize), (150, 8), (250, 8), (250, 16)] {
        let (small, drm) = (BlockShape::smallbank(block), BlockShape::drm(block));
        let sw = SwValidatorModel::new(par);
        let sw_small = sw.validate_block(&small).throughput_tps(block);
        let sw_drm = sw.validate_block(&drm).throughput_tps(block);
        let cfg = HwModelConfig::new(Geometry::new(par, 2));
        let hw_small = validate_block(&cfg, &small).throughput_tps(block, &cfg);
        let hw_drm = validate_block(&cfg, &drm).throughput_tps(block, &cfg);
        pairs.push((sw_small, sw_drm, hw_small, hw_drm));
        rows.push(vec![
            format!("{block}"),
            format!("{par}"),
            format!("{:.0}", sw_small),
            format!("{:.0}", sw_drm),
            format!("{:.0}", hw_small),
            format!("{:.0}", hw_drm),
        ]);
    }
    table(
        &[
            "block",
            "vCPUs/validators",
            "sw smallbank",
            "sw drm",
            "bmac smallbank",
            "bmac drm",
        ],
        &rows,
    );

    let (sw_small, sw_drm, hw_small, hw_drm) = pairs[1]; // block 150, 8
    let checks = vec![
        ShapeCheck::at_least(
            "sw drm faster than smallbank (ratio > 1)",
            1.0,
            sw_drm / sw_small,
            0.0,
        ),
        ShapeCheck::new(
            "bmac drm == smallbank (vscc-bound; ratio 1.0)",
            1.0,
            hw_drm / hw_small,
            0.02,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
