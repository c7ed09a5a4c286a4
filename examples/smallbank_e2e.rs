//! smallbank end-to-end: the paper's primary benchmark (§4.2) through
//! both validator implementations, with the §4.1 equivalence check.
//!
//! Run with: `cargo run -p examples --bin smallbank_e2e`

use std::collections::HashMap;

use bmac_core::{BMacPeer, BmacConfig};
use bmac_hw::{BlockShape, Geometry, HwModelConfig, SwValidatorModel};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_node::network::FabricNetworkBuilder;
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_policy::parse;
use workload::{Driver, Smallbank, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Network with the smallbank chaincode under 2-of-2 endorsement.
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(8)
        .chaincode("smallbank", parse("2-outof-2 orgs")?)
        .build();
    net.install_chaincode(|| Box::new(Smallbank::new()));

    // Caliper-like driver: create accounts, then random operations.
    let mut driver = Driver::new(Workload::Smallbank, 16, 42);
    let setup_blocks = driver.prepare(&mut net)?;
    let work_blocks = driver.generate_blocks(&mut net, 4)?;
    println!(
        "generated {} setup + {} workload blocks ({} txs submitted)",
        setup_blocks.len(),
        work_blocks.len(),
        driver.counters().0
    );

    // Both peers validate the same stream.
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Peer, 0)?;
    msp.issue(1, Role::Peer, 0)?;
    msp.issue(0, Role::Orderer, 0)?;
    msp.issue(0, Role::Client, 0)?;
    let policies: HashMap<String, fabric_policy::Policy> =
        [("smallbank".to_string(), parse("2-outof-2 orgs")?)]
            .into_iter()
            .collect();
    let sw = ValidatorPipeline::new(msp, policies, 8);

    let mut msp2 = Msp::new(2);
    msp2.issue(0, Role::Orderer, 0)?;
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: smallbank\n    policy: 2-outof-2 orgs\narchitecture:\n  tx_validators: 8\n  engines_per_vscc: 2\n",
    )?;
    let mut bmac = BMacPeer::new(&config, msp2);
    let mut sender = BmacSender::new();

    let mut mismatches = 0;
    for block in setup_blocks.iter().chain(&work_blocks) {
        let sw_result = sw.validate_and_commit(block)?;
        let mut hw_records = Vec::new();
        for p in sender.send_block(block)? {
            hw_records.extend(bmac.ingest_wire(&p.encode()?, 0)?);
        }
        let hw = &hw_records[0];
        if hw.flags != sw_result.codes || hw.commit_hash != sw_result.commit_hash {
            mismatches += 1;
        }
        println!(
            "block {:>2}: {} txs, {} valid | sw {:>6} us | hw {:>6} us | hashes match: {}",
            sw_result.block_num,
            sw_result.codes.len(),
            sw_result.valid_count(),
            sw_result.timings.total_excl_ledger_us(),
            hw.hw_stats.map(|s| s.latency() / 1000).unwrap_or(0),
            hw.commit_hash == sw_result.commit_hash,
        );
    }
    println!("\nequivalence check (paper §4.1): {mismatches} mismatches");

    // Paper-scale throughput from both calibrated models, fed the one
    // block shape measured from the workload.
    let shape = BlockShape::measure(&work_blocks);
    println!(
        "\nmeasured shape: {} B/envelope, {} B/BMac section, {} endorsements, {}r{}w per tx",
        shape.tx_bytes,
        shape.tx_section_bytes,
        shape.endorsements_per_tx,
        shape.reads_per_tx,
        shape.writes_per_tx
    );
    let paper_scale = BlockShape {
        num_txs: 250,
        ..shape
    };
    let sw_tps = SwValidatorModel::new(16)
        .validate_block(&paper_scale)
        .throughput_tps(250);
    let hw_cfg = HwModelConfig::new(Geometry::new(16, 2));
    let hw_tps = bmac_hw::validate_block(&hw_cfg, &paper_scale).throughput_tps(250, &hw_cfg);
    println!("paper-scale model (block 250, 16 vCPUs/validators): sw {sw_tps:.0} tps, bmac {hw_tps:.0} tps ({:.1}x)", hw_tps / sw_tps);
    if mismatches > 0 {
        std::process::exit(1);
    }
    Ok(())
}
