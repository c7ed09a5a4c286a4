//! Protocol inspector: dumps how a block is sectioned into BMac packets
//! (paper §3.2 / Figure 5a) — sections, annotations, identity stripping,
//! and the bandwidth comparison with Gossip.
//!
//! Run with: `cargo run -p examples --bin protocol_inspector`

use bmac_protocol::{Annotation, BmacSender, SectionType};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::parse;
use fabric_sim::gossip::gossip_wire_bytes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(3)
        .chaincode("kv", parse("2-outof-2 orgs")?)
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])?;
    net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])?;
    let block = net
        .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])?
        .remove(0);
    let raw = block.marshal().len();

    let mut sender = BmacSender::new();
    let packets = sender.send_block(&block)?;
    println!(
        "block {} | {} txs | {} bytes marshaled",
        block.header.number,
        block.data.data.len(),
        raw
    );
    println!("{} packets:", packets.len());
    for p in &packets {
        let pointers = p
            .annotations
            .iter()
            .filter(|a| matches!(a, Annotation::Pointer { .. }))
            .count();
        let locators = p
            .annotations
            .iter()
            .filter(|a| matches!(a, Annotation::Locator { .. }))
            .count();
        let kind = match p.section {
            SectionType::Header => "header",
            SectionType::Transaction => "transaction",
            SectionType::Metadata => "metadata",
            SectionType::IdentitySync => "identity-sync",
        };
        println!(
            "  [{kind:>13}] index={:<3} payload={:>5} B  wire={:>5} B  pointers={pointers} locators={locators}",
            p.index,
            p.payload.len(),
            p.wire_bytes(),
        );
    }
    let stats = sender.stats();
    println!(
        "\nidentity bytes removed: {} ({:.0}% of the block)",
        stats.identity_bytes_removed,
        stats.identity_share() * 100.0
    );
    println!("BMac wire bytes: {}", stats.bmac_wire_bytes);
    println!(
        "Gossip wire bytes for the same block: {}",
        gossip_wire_bytes(raw)
    );
    println!("bandwidth savings: {:.0}%", stats.savings() * 100.0);
    Ok(())
}
