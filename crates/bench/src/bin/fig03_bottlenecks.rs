//! Figure 3: validator peer bottleneck analysis.
//!
//! Reproduces (a) the profile of the most time-consuming operations and
//! (b) the coarse-grained breakdown of block validation, as block size
//! and vCPU count vary (paper §2.1.3).

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{BlockShape, SwValidatorModel};
use fabric_sim::as_millis;

fn main() {
    heading("Figure 3a: profile of validator operations (% of CPU time)");
    let mut rows = Vec::new();
    for &(block_size, vcpus) in &[
        (50usize, 4usize),
        (50, 8),
        (100, 8),
        (200, 4),
        (200, 8),
        (200, 16),
    ] {
        let model = SwValidatorModel::new(vcpus);
        let p = model.cpu_profile(&BlockShape::smallbank(block_size));
        rows.push(vec![
            format!("{block_size}"),
            format!("{vcpus}"),
            format!("{:.1}%", p.share(p.ecdsa)),
            format!("{:.1}%", p.share(p.sha256)),
            format!("{:.1}%", p.share(p.unmarshal)),
            format!("{:.1}%", p.share(p.statedb)),
            format!("{:.1}%", p.share(p.ledger)),
            format!("{:.1}%", p.share(p.other)),
        ]);
    }
    table(
        &[
            "block",
            "vCPUs",
            "ecdsa_verify",
            "sha256",
            "unmarshal",
            "statedb",
            "ledger",
            "other",
        ],
        &rows,
    );

    heading("Figure 3b: block validation breakdown (ms)");
    let mut rows = Vec::new();
    for &(block_size, vcpus) in &[
        (50usize, 4usize),
        (100, 4),
        (200, 4),
        (50, 8),
        (100, 8),
        (200, 8),
        (200, 16),
    ] {
        let model = SwValidatorModel::new(vcpus);
        let b = model.validate_block(&BlockShape::smallbank(block_size));
        rows.push(vec![
            format!("{block_size}"),
            format!("{vcpus}"),
            format!("{:.1}", as_millis(b.unmarshal)),
            format!("{:.1}", as_millis(b.block_verify + b.verify_vscc)),
            format!("{:.1}", as_millis(b.mvcc + b.statedb_commit)),
            format!("{:.1}", as_millis(b.ledger)),
            format!("{:.1}", as_millis(b.total_excl_ledger())),
        ]);
    }
    table(
        &[
            "block",
            "vCPUs",
            "unmarshal",
            "verify_vscc",
            "statedb/mvcc",
            "ledger",
            "total(excl ledger)",
        ],
        &rows,
    );

    // Shape checks against §2.1.3's observations (block 200, 8 vCPUs).
    let model = SwValidatorModel::new(8);
    let shape = BlockShape::smallbank(200);
    let profile = model.cpu_profile(&shape);
    let b = model.validate_block(&shape);
    let statedb_share = as_millis(b.mvcc + b.statedb_commit) / as_millis(b.total_excl_ledger());
    let runner_up = [
        profile.sha256,
        profile.unmarshal,
        profile.statedb,
        profile.ledger,
    ]
    .into_iter()
    .max()
    .expect("four categories");
    let checks = vec![
        ShapeCheck::new(
            "ecdsa_verify share (%, ~40)",
            40.0,
            profile.share(profile.ecdsa),
            0.24,
        ),
        ShapeCheck::at_least(
            "ecdsa_verify the largest operation (ratio to next > 1)",
            1.0,
            profile.ecdsa as f64 / runner_up as f64,
            0.0,
        ),
        ShapeCheck::new(
            "sha256 share (%, ~10)",
            10.0,
            profile.share(profile.sha256),
            0.35,
        ),
        ShapeCheck::new(
            "unmarshal share (%, ~10)",
            10.0,
            profile.share(profile.unmarshal),
            0.45,
        ),
        ShapeCheck::new(
            "statedb share of validation (%, 10-20)",
            15.0,
            statedb_share * 100.0,
            0.5,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
