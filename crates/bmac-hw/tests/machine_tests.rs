//! Direct tests of the BMacMachine: identity trust anchors, reg_map
//! queueing, protocol traffic accounting, and timing monotonicity.

use std::collections::HashMap;

use bmac_hw::processor::ProcessorConfig;
use bmac_hw::{BMacMachine, Geometry, MachineError};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::CertificateAuthority;
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
use fabric_policy::parse;
use fabric_protos::messages::Block;

fn kv_net(block_size: usize) -> FabricNetwork {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(block_size)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    net
}

fn policies() -> HashMap<String, fabric_policy::Policy> {
    [("kv".to_string(), parse("2-outof-2 orgs").unwrap())]
        .into_iter()
        .collect()
}

fn machine() -> BMacMachine {
    BMacMachine::new(ProcessorConfig::new(Geometry::new(4, 2), 2), &policies())
}

fn one_block(net: &mut FabricNetwork, key: &str) -> Block {
    let mut blocks = Vec::new();
    let mut i = 0;
    while blocks.is_empty() {
        blocks = net
            .submit_invocation(0, "kv", "put", &[format!("{key}{i}"), "1".into()])
            .unwrap();
        i += 1;
    }
    blocks.remove(0)
}

#[test]
fn trust_anchors_accept_chained_identities() {
    let mut net = kv_net(1);
    let mut m = machine();
    // The network's orgs are deterministic; rebuild their CA keys.
    let cas = vec![
        CertificateAuthority::new(0).public_key().clone(),
        CertificateAuthority::new(1).public_key().clone(),
    ];
    m.set_trust_anchors(cas);
    let block = one_block(&mut net, "a");
    let mut sender = BmacSender::new();
    for p in sender.send_block(&block).unwrap() {
        m.ingest_wire(&p.encode().unwrap(), 0).unwrap();
    }
    assert_eq!(m.blocks_processed(), 1);
    assert!(
        m.key_count() >= 4,
        "client, 2 endorsers, orderer registered"
    );
}

#[test]
fn trust_anchors_reject_foreign_identities() {
    let mut net = kv_net(1);
    let mut m = machine();
    // Trust only a CA that issued none of the network's identities.
    let foreign = CertificateAuthority::new(9);
    m.set_trust_anchors(vec![foreign.public_key().clone()]);
    let block = one_block(&mut net, "a");
    let mut sender = BmacSender::new();
    let mut rejected = false;
    for p in sender.send_block(&block).unwrap() {
        if let Err(MachineError::BadIdentity(_)) = m.ingest_wire(&p.encode().unwrap(), 0) {
            rejected = true;
        }
    }
    assert!(rejected, "identity syncs must fail the chain check");
    assert_eq!(m.blocks_processed(), 0);
}

#[test]
fn reg_map_queues_results_until_read() {
    let mut net = kv_net(1);
    let mut m = machine();
    let mut sender = BmacSender::new();
    let b0 = one_block(&mut net, "a");
    net.commit_to_endorsers(0, &[(0, vec![])]);
    let mut b1 = one_block(&mut net, "b");
    b1.header.previous_hash = fabric_protos::txflow::block_header_hash(&b0.header).to_vec();
    for block in [&b0, &b1] {
        for p in sender.send_block(block).unwrap() {
            m.ingest_wire(&p.encode().unwrap(), 0).unwrap();
        }
    }
    assert_eq!(m.pending_results(), 2);
    let r0 = m.get_block_data().unwrap();
    let r1 = m.get_block_data().unwrap();
    assert_eq!(r0.block_num, 0);
    assert_eq!(r1.block_num, 1);
    assert!(m.get_block_data().is_none());
}

#[test]
fn results_publish_in_fifo_order_with_monotonic_time() {
    let mut net = kv_net(2);
    let mut m = machine();
    let mut sender = BmacSender::new();
    let mut last_published = 0;
    for round in 0..3 {
        let block = {
            net.submit_invocation(0, "kv", "put", &[format!("x{round}"), "1".into()])
                .unwrap();
            net.submit_invocation(0, "kv", "put", &[format!("y{round}"), "1".into()])
                .unwrap()
                .remove(0)
        };
        for p in sender.send_block(&block).unwrap() {
            m.ingest_wire(&p.encode().unwrap(), 0).unwrap();
        }
        let r = m.get_block_data().unwrap();
        assert!(
            r.stats.published > last_published,
            "block {round} published at {} <= {last_published}",
            r.stats.published
        );
        last_published = r.stats.published;
    }
}

#[test]
fn non_bmac_traffic_is_ignored_without_error() {
    let mut m = machine();
    m.ingest_wire(&[0u8; 64], 0).unwrap();
    assert_eq!(
        m.traffic().0,
        0,
        "non-BMac packets are not counted as BMac traffic"
    );
}

#[test]
fn traffic_accounting_counts_bmac_bytes() {
    let mut net = kv_net(1);
    let mut m = machine();
    let mut sender = BmacSender::new();
    let block = one_block(&mut net, "a");
    let mut expected_bytes = 0u64;
    for p in sender.send_block(&block).unwrap() {
        let wire = p.encode().unwrap();
        expected_bytes += wire.len() as u64;
        m.ingest_wire(&wire, 0).unwrap();
    }
    let (packets, bytes) = m.traffic();
    assert!(packets >= 3, "header + tx + metadata at least");
    assert_eq!(bytes, expected_bytes);
}

#[test]
fn later_arrival_time_delays_processing() {
    let mut net = kv_net(1);
    let mut sender = BmacSender::new();
    let block = one_block(&mut net, "a");
    let wires: Vec<Vec<u8>> = sender
        .send_block(&block)
        .unwrap()
        .iter()
        .map(|p| p.encode().unwrap())
        .collect();
    let mut m_early = machine();
    let mut m_late = machine();
    for w in &wires {
        m_early.ingest_wire(w, 0).unwrap();
        m_late.ingest_wire(w, 5_000_000).unwrap(); // 5 ms later
    }
    let early = m_early.get_block_data().unwrap();
    let late = m_late.get_block_data().unwrap();
    assert!(late.stats.published > early.stats.published + 4_000_000);
    // Latency itself is arrival-invariant.
    assert_eq!(early.stats.latency(), late.stats.latency());
}

fn network_cas() -> Vec<fabric_crypto::VerifyingKey> {
    vec![
        CertificateAuthority::new(0).public_key().clone(),
        CertificateAuthority::new(1).public_key().clone(),
    ]
}

/// Sends `block` to a fresh machine whose keys come only from the
/// identity-sync packets (registered under the id on the wire, chained
/// to the network's CAs) and returns the published result.
fn process_on_fresh_machine(block: &Block) -> (bmac_hw::HwBlockResult, usize) {
    let mut m = machine();
    m.set_trust_anchors(network_cas());
    for p in BmacSender::new().send_block(block).unwrap() {
        m.ingest_wire(&p.encode().unwrap(), 0).unwrap();
    }
    (m.get_block_data().expect("block processed"), m.key_count())
}

#[test]
fn orderer_request_derived_from_the_decoded_block_verifies() {
    // The block-level request the processor forms — orderer certificate's
    // node id as key selector, SHA-256 of `signature header ++ header` as
    // digest — finds the key registered from the wire and verifies.
    let mut net = kv_net(1);
    let block = one_block(&mut net, "a");
    let (r, _) = process_on_fresh_machine(&block);
    assert!(r.block_verify);
    assert_eq!(r.valid_count(), 1);
    // Same key, same signature, different header bytes: the digest is
    // taken over what was received, so the block is refused and — early
    // abort — nothing but the block engine ran.
    // (Not `data_hash`: a header that no longer commits to the envelopes
    // is refused before the processor, see below.)
    let mut tampered = block.clone();
    tampered.header.previous_hash = vec![0xAA; 32];
    let (r, _) = process_on_fresh_machine(&tampered);
    assert!(!r.block_verify);
    assert_eq!(r.valid_count(), 0);
    assert_eq!(r.stats.verifications, 1);
}

#[test]
fn block_whose_envelopes_do_not_match_its_data_hash_is_refused() {
    let mut net = kv_net(1);
    let mut block = one_block(&mut net, "a");
    block.header.data_hash = vec![0xAA; 32];
    let mut m = machine();
    let outcomes: Vec<_> = BmacSender::new()
        .send_block(&block)
        .unwrap()
        .iter()
        .map(|p| m.ingest_wire(&p.encode().unwrap(), 0))
        .collect();
    let (last, earlier) = outcomes.split_last().unwrap();
    assert!(earlier.iter().all(Result::is_ok));
    assert!(
        matches!(last, Err(MachineError::DataHash { block: n }) if *n == block.header.number),
        "{last:?}"
    );
    assert_eq!(m.blocks_processed(), 0);
    assert_eq!(m.pending_results(), 0);
}

#[test]
fn client_and_endorsement_requests_derived_from_the_decoded_block_verify() {
    let mut net = kv_net(2);
    net.submit_invocation(0, "kv", "put", &["x".into(), "1".into()])
        .unwrap();
    let block = net
        .submit_invocation(0, "kv", "put", &["y".into(), "1".into()])
        .unwrap()
        .remove(0);
    let (r, keys) = process_on_fresh_machine(&block);
    // Four identities on the wire (orderer, client, two endorsers), and
    // every id the processor derived from a certificate's node id named
    // one of them: no `UnknownKey`, every digest verified under its key.
    assert_eq!(keys, 4);
    assert!(r.block_verify);
    assert_eq!(r.valid_count(), 2);
    // 1 block + 2 × (1 client + 2 endorsements), none skipped under 2-of-2.
    assert_eq!(r.stats.verifications, 7);
    assert_eq!(r.stats.skipped_verifications, 0);
    // Two reads-free puts: one database write each.
    assert_eq!(r.stats.db_writes, 2);
}
