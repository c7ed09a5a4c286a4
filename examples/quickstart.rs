//! Quickstart: one transaction through the whole system.
//!
//! Builds a two-organization Fabric network, submits an endorsed
//! transaction, cuts a block, sends it through the BMac protocol, and
//! validates it on the hardware-accelerated BMac peer.
//!
//! Run with: `cargo run -p examples --bin quickstart`

use bmac_core::{BMacPeer, BmacConfig};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::parse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A Fabric network: 2 orgs, 1 endorser each, single orderer.
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(2)
        .chaincode("kv", parse("2-outof-2 orgs")?)
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));

    // 2. Clients submit transactions; the orderer cuts a block.
    net.submit_invocation(0, "kv", "put", &["hello".into(), "world".into()])?;
    let blocks =
        net.submit_invocation(0, "kv", "transfer", &["a".into(), "b".into(), "0".into()])?;
    let block = &blocks[0];
    println!(
        "orderer cut block {} with {} transactions",
        block.header.number,
        block.data.data.len()
    );

    // 3. A BMac peer configured from the YAML file of paper §3.5.
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\narchitecture:\n  tx_validators: 8\n  engines_per_vscc: 2\n",
    )?;
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Orderer, 0)?;
    let mut peer = BMacPeer::new(&config, msp);

    // 4. The orderer sends the block through the BMac protocol …
    let mut sender = BmacSender::new();
    let packets = sender.send_block(block)?;
    println!(
        "BMac protocol: {} packets, {} bytes on the wire ({}% saved vs Gossip)",
        packets.len(),
        sender.stats().bmac_wire_bytes,
        (sender.stats().savings() * 100.0) as u32
    );

    // 5. … and the peer validates it in (simulated) hardware.
    let mut committed = Vec::new();
    for p in packets {
        committed.extend(peer.ingest_wire(&p.encode()?, 0)?);
    }
    let record = &committed[0];
    println!(
        "block {}: valid={}, {}/{} transactions valid, hw latency {:.2} ms",
        record.block_num,
        record.block_valid,
        record.valid_count(),
        record.flags.len(),
        record
            .hw_stats
            .map(|s| s.latency() as f64 / 1e6)
            .unwrap_or(0.0),
    );
    println!(
        "peer state: hello = {:?}",
        String::from_utf8_lossy(&peer.state_db().get("hello").expect("committed").value)
    );
    println!("ledger height: {}", peer.ledger().height());
    Ok(())
}
