//! End-to-end validation microbenchmarks: the functional software
//! pipeline vs the functional hardware simulation on real blocks.

use std::collections::HashMap;

use bmac_core::{BMacPeer, BmacConfig};
use bmac_protocol::BmacSender;
use criterion::{criterion_group, criterion_main, Criterion};
use fabric_crypto::identity::{Msp, Role};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_policy::parse;
use std::hint::black_box;

fn make_blocks(count: usize, ntx: usize) -> Vec<fabric_protos::messages::Block> {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(ntx)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let mut blocks = Vec::new();
    let mut i = 0;
    while blocks.len() < count {
        blocks.extend(
            net.submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap(),
        );
        i += 1;
    }
    blocks
}

fn test_msp() -> Msp {
    let mut msp = Msp::new(2);
    msp.issue(0, Role::Peer, 0).unwrap();
    msp.issue(1, Role::Peer, 0).unwrap();
    msp.issue(0, Role::Orderer, 0).unwrap();
    msp.issue(0, Role::Client, 0).unwrap();
    msp
}

fn bench_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation");
    group.sample_size(10);

    let blocks = make_blocks(1, 8);
    let policies: HashMap<String, fabric_policy::Policy> =
        [("kv".to_string(), parse("2-outof-2 orgs").unwrap())]
            .into_iter()
            .collect();

    group.bench_function("sw_pipeline_8tx_4workers", |b| {
        b.iter(|| {
            let validator = ValidatorPipeline::new(test_msp(), policies.clone(), 4);
            validator
                .validate_and_commit(black_box(&blocks[0]))
                .unwrap()
        })
    });

    // Full BMac peer path: packets -> hw validation -> ledger commit.
    let config = BmacConfig::from_yaml(
        "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\narchitecture:\n  tx_validators: 8\n  engines_per_vscc: 2\n",
    )
    .unwrap();
    let mut sender = BmacSender::new();
    let wires: Vec<Vec<u8>> = sender
        .send_block(&blocks[0])
        .unwrap()
        .iter()
        .map(|p| p.encode().unwrap())
        .collect();
    group.bench_function("bmac_peer_8tx_full_path", |b| {
        b.iter(|| {
            let mut peer = BMacPeer::new(&config, test_msp());
            let mut committed = 0;
            for w in &wires {
                committed += peer.ingest_wire(black_box(w), 0).unwrap().len();
            }
            assert_eq!(committed, 1);
        })
    });

    // The signature stages of a 100-transaction drm block whose 301
    // verdicts are all cached: decode, data hash, task collection, cache
    // lookups — no ECDSA, no inversion, no spawn.
    let scenario = workload::StreamScenario {
        workload: workload::Workload::Drm,
        accounts: 8,
        block_size: 100,
        num_blocks: 1,
        ..Default::default()
    };
    let block = scenario.generate().blocks.pop().expect("a workload block");
    let validator = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
    let cold = validator.verify_block_signatures(&block).unwrap();
    assert!(cold.iter().all(|c| c.is_valid()));
    group.bench_function("vscc_warm_100tx", |b| {
        b.iter(|| {
            validator
                .verify_block_signatures(black_box(&block))
                .unwrap()
        })
    });
    assert_eq!(
        validator.verifications(),
        301,
        "every iteration was all hits"
    );
    group.finish();
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);
