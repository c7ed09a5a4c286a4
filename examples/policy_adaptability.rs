//! Adaptability (paper §3.3/§4.3): endorsement policies compiled to
//! combinational circuits, short-circuit evaluation, and choosing the
//! engine geometry for a policy mix.
//!
//! Run with: `cargo run -p examples --bin policy_adaptability`

use bmac_hw::{validate_block, BlockShape, Geometry, HwModelConfig};
use fabric_crypto::identity::{NodeId, Role};
use fabric_policy::circuit::{PolicyStatus, ShortCircuitEvaluator};
use fabric_policy::{parse, PolicyCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Compile the paper's policies into circuits.
    for expr in [
        "2-outof-3 orgs",
        "(Org1 & Org2) | (Org1 & Org4) | (Org2 & Org3) | (Org2 & Org4) | (Org3 & Org4)",
    ] {
        let policy = parse(expr)?;
        let circuit = PolicyCircuit::compile(&policy);
        println!(
            "policy {expr:?}\n  -> {circuit}, min endorsements to satisfy: {}",
            policy.min_satisfying()
        );
    }

    // Short-circuit evaluation: 2of3 stops after two valid endorsements.
    let policy = parse("2-outof-3 orgs")?;
    let circuit = PolicyCircuit::compile(&policy);
    let mut sc = ShortCircuitEvaluator::new(&circuit, 3);
    let peer = |org| NodeId::new(org, Role::Peer, 0).unwrap();
    sc.record(peer(0), true);
    let status = sc.record(peer(1), true);
    println!(
        "\nshort-circuit: after 2 valid endorsements status = {status:?}; third endorsement skipped ({} verified)",
        sc.verified_count()
    );
    assert_eq!(status, PolicyStatus::Satisfied);

    // Geometry choice: "one should use 8x2 and 5x3 architectures for
    // applications using 2ofN and 3ofN policies, respectively" (§4.3).
    println!("\nthroughput by geometry (block 150):");
    for (name, ends, needed) in [("2of3", 3usize, 2usize), ("3of3", 3, 3)] {
        let mut w = BlockShape::smallbank(150);
        w.endorsements_per_tx = ends;
        w.needed_endorsements = needed;
        for geometry in [Geometry::new(8, 2), Geometry::new(5, 3)] {
            let cfg = HwModelConfig::new(geometry);
            let tps = validate_block(&cfg, &w).throughput_tps(150, &cfg);
            println!("  {name} on {geometry}: {tps:.0} tps");
        }
    }
    println!("\n-> pick 8x2 for 2ofN policies, 5x3 for 3ofN policies.");
    Ok(())
}
