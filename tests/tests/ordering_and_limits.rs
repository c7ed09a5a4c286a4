//! Network-cut blocks on the BMac peer, in-hardware database capacity
//! limits and configuration-driven architecture geometry.

use bmac_core::{BMacPeer, BmacConfig};
use bmac_protocol::BmacSender;
use fabric_crypto::identity::{Msp, Role};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::parse;

#[test]
fn network_blocks_validate_on_the_bmac_peer() {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(2)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
        .unwrap();
    let blocks = net
        .submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
        .unwrap();
    assert_eq!(blocks.len(), 1);
    // Blocks cut by the network's orderer validate on the BMac peer.
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\n",
    )
    .unwrap();
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Orderer, 0).unwrap();
    let mut peer = BMacPeer::new(&config, msp);
    let mut sender = BmacSender::new();
    let mut committed = Vec::new();
    for p in sender.send_block(&blocks[0]).unwrap() {
        committed.extend(peer.ingest_wire(&p.encode().unwrap(), 0).unwrap());
    }
    assert_eq!(committed[0].valid_count(), 2);
}

#[test]
fn hw_database_capacity_limit_is_surfaced() {
    // A BMac architecture with a tiny database must report DbFull rather
    // than silently dropping writes.
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(1)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\narchitecture:\n  db_capacity: 2\n",
    )
    .unwrap();
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Orderer, 0).unwrap();
    let mut peer = BMacPeer::new(&config, msp);
    let mut sender = BmacSender::new();
    let mut saw_full = false;
    for i in 0..4 {
        let blocks = net
            .submit_invocation(0, "kv", "put", &[format!("key{i}"), "1".into()])
            .unwrap();
        for p in sender.send_block(&blocks[0]).unwrap() {
            match peer.ingest_wire(&p.encode().unwrap(), 0) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.to_string().contains("full"), "unexpected error {e}");
                    saw_full = true;
                }
            }
        }
        if saw_full {
            break;
        }
    }
    assert!(
        saw_full,
        "3rd distinct key must overflow a 2-entry database"
    );
}

#[test]
fn config_roundtrip_drives_architecture() {
    let config =
        BmacConfig::from_yaml("architecture:\n  tx_validators: 5\n  engines_per_vscc: 3\n")
            .unwrap();
    assert_eq!(config.geometry().to_string(), "5x3");
    let util = bmac_hw::utilization(config.geometry());
    assert!(
        (util.lut_pct - 25.4).abs() < 1.0,
        "5x3 LUT {}",
        util.lut_pct
    );
}
