//! Tests for the paper's §5 extensions: partial reconfiguration of the
//! policy evaluator, and Go-Back-N over real block traffic.

use std::collections::HashMap;

use bmac_hw::processor::ProcessorConfig;
use bmac_hw::{BMacMachine, Geometry};
use bmac_protocol::retransmit::{GoBackNReceiver, GoBackNSender};
use bmac_protocol::{BmacReceiver, BmacSender};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
use fabric_policy::parse;

fn kv_net(orgs: u8, policy: &str, block_size: usize) -> FabricNetwork {
    let mut net = FabricNetworkBuilder::new()
        .orgs(orgs)
        .block_size(block_size)
        .chaincode("kv", parse(policy).unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    net
}

#[test]
fn policy_update_without_restart_changes_decisions() {
    // Start with a 1of2 policy in hardware; the 1-endorsement txs the
    // network produces under 1of2 endorsement selection satisfy it.
    let mut net = kv_net(2, "2-outof-2 orgs", 1);
    let mut policies: HashMap<String, fabric_policy::Policy> =
        [("kv".to_string(), parse("2-outof-2 orgs").unwrap())]
            .into_iter()
            .collect();
    let mut machine = BMacMachine::new(ProcessorConfig::new(Geometry::new(4, 2), 2), &policies);
    let mut sender = BmacSender::new();

    let block = net
        .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
        .unwrap()
        .remove(0);
    for p in sender.send_block(&block).unwrap() {
        machine.ingest_wire(&p.encode().unwrap(), 0).unwrap();
    }
    let r1 = machine.get_block_data().unwrap();
    assert_eq!(r1.valid_count(), 1, "2of2 satisfied by two endorsements");

    // Chaincode upgrade: policy becomes Org1.admin-only, which the
    // peer-signed endorsements cannot satisfy. Partial reconfiguration:
    // no machine restart, identity cache and db preserved.
    policies.insert("kv".to_string(), parse("Org1.admin").unwrap());
    machine.update_policies(&policies);
    net.commit_to_endorsers(0, &[(0, vec![("a".into(), b"1".to_vec())])]);
    let block2 = net
        .submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
        .unwrap()
        .remove(0);
    for p in sender.send_block(&block2).unwrap() {
        machine.ingest_wire(&p.encode().unwrap(), 0).unwrap();
    }
    let r2 = machine.get_block_data().unwrap();
    assert_eq!(
        r2.valid_count(),
        0,
        "admin-only policy rejects peer endorsements"
    );
    // The identity cache survived: no re-sync was needed (block2's
    // packets contained no IdentitySync for already-known nodes).
}

#[test]
fn go_back_n_carries_real_blocks_over_lossy_link() {
    let mut net = kv_net(2, "2-outof-2 orgs", 3);
    let mut bsender = BmacSender::new();
    let mut breceiver = BmacReceiver::new();
    let mut gbn_tx = GoBackNSender::new(4);
    let mut gbn_rx = GoBackNReceiver::new();

    net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
        .unwrap();
    net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
        .unwrap();
    let block = net
        .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])
        .unwrap()
        .remove(0);

    // Enqueue all BMac packets into the GBN sender.
    let mut channel: std::collections::VecDeque<Vec<u8>> = Default::default();
    for p in bsender.send_block(&block).unwrap() {
        channel.extend(gbn_tx.send(p.encode().unwrap()));
    }
    // Lossy link: drop every 4th packet on its first try.
    let mut step = 0usize;
    let mut completed = 0;
    let mut rounds = 0;
    while (gbn_tx.in_flight() > 0 || !channel.is_empty()) && rounds < 100 {
        rounds += 1;
        while let Some(wire) = channel.pop_front() {
            step += 1;
            if step.is_multiple_of(4) && step < 40 {
                continue; // drop
            }
            let (inner, fb) = gbn_rx.on_wire(&wire).unwrap();
            if let Some(inner) = inner {
                completed += breceiver.ingest(&inner).unwrap().len();
            }
            channel.extend(gbn_tx.on_feedback(fb));
        }
        if gbn_tx.in_flight() > 0 {
            channel.extend(gbn_tx.on_timeout());
        }
    }
    assert_eq!(completed, 1, "block reassembles despite losses");
    assert!(
        gbn_tx.retransmissions() > 0,
        "losses actually triggered GBN"
    );
    assert!(breceiver.incomplete_blocks().is_empty());
}
