//! Ablation studies of the paper's hardware design choices:
//! short-circuit endorsement evaluation (§3.3), overlap of hardware
//! validation with the software ledger commit (§3.1), identity removal
//! in the protocol (§3.1), and engine geometry at an equal engine budget.

use bmac_bench::{heading, report_checks, table, ShapeCheck};
use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig};
use bmac_protocol::BmacSender;
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::Policy;

const BLOCK: usize = 150;

fn tps(config: &HwModelConfig, w: &BlockShape) -> f64 {
    validate_block(config, w).throughput_tps(w.num_txs, config)
}

fn main() {
    // --- Ablation 1: short-circuit evaluation (paper §3.3).
    heading("ablation: short-circuit endorsement evaluation (2of3, 8x2)");
    let mut w = BlockShape::smallbank(BLOCK);
    w.endorsements_per_tx = 3;
    w.needed_endorsements = 2;
    let mut cfg = HwModelConfig::new(Geometry::new(8, 2));
    let with_sc = tps(&cfg, &w);
    cfg.short_circuit = false;
    let without_sc = tps(&cfg, &w);
    table(
        &["config", "tps"],
        &[
            vec!["short-circuit on".to_string(), format!("{with_sc:.0}")],
            vec!["short-circuit off".to_string(), format!("{without_sc:.0}")],
        ],
    );

    // --- Ablation 2: hw/sw overlap of validation and ledger commit.
    heading("ablation: overlap of hw validation with sw ledger commit");
    let w = BlockShape::smallbank(BLOCK);
    let mut cfg = HwModelConfig::new(Geometry::new(8, 2));
    let overlapped = tps(&cfg, &w);
    cfg.overlap_commit = false;
    let serialized = tps(&cfg, &w);
    table(
        &["config", "tps"],
        &[
            vec!["overlapped (paper)".to_string(), format!("{overlapped:.0}")],
            vec!["serialized".to_string(), format!("{serialized:.0}")],
        ],
    );

    // --- Ablation 3: identity removal in the protocol.
    heading("ablation: identity removal (protocol wire bytes, 10-tx block)");
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(10)
        .chaincode("kv", Policy::k_out_of_n_orgs(2, 2))
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let mut blocks = Vec::new();
    let mut i = 0;
    while blocks.is_empty() {
        blocks = net
            .submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
            .unwrap();
        i += 1;
    }
    let block = blocks.remove(0);
    let mut sender = BmacSender::new();
    sender.send_block(&block).unwrap();
    let stats = sender.stats();
    let without_removal = stats.bmac_wire_bytes + stats.identity_bytes_removed;
    table(
        &["config", "wire bytes"],
        &[
            vec![
                "identities removed (paper)".to_string(),
                format!("{}", stats.bmac_wire_bytes),
            ],
            vec!["identities kept".to_string(), format!("{without_removal}")],
        ],
    );

    // --- Ablation 4: engine geometry sweep at equal engine budget.
    heading("ablation: geometry sweep (~16 vscc engines, 3-endorsement workload)");
    let mut rows = Vec::new();
    let mut w3 = BlockShape::smallbank(BLOCK);
    w3.endorsements_per_tx = 3;
    w3.needed_endorsements = 3;
    for (v, e) in [(16usize, 1usize), (8, 2), (5, 3), (4, 4)] {
        let cfg = HwModelConfig::new(Geometry::new(v, e));
        rows.push(vec![
            format!("{v}x{e}"),
            format!("{}", v * e),
            format!("{:.0}", tps(&cfg, &w3)),
        ]);
    }
    table(&["geometry", "vscc engines", "tps (3of3)"], &rows);

    let checks = vec![
        ShapeCheck::new(
            "short-circuit gain on 2of3 (paper 19,800/10,400)",
            19_800.0 / 10_400.0,
            with_sc / without_sc,
            0.1,
        ),
        ShapeCheck::at_least("overlap gain (>1.2x)", 1.2, overlapped / serialized, 0.0),
        ShapeCheck::at_least(
            "identity removal saves >=3x wire",
            3.0,
            without_removal as f64 / stats.bmac_wire_bytes as f64,
            0.0,
        ),
    ];
    let failed = report_checks(&checks);
    std::process::exit(failed as i32);
}
