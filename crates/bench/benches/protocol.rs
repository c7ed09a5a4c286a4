//! Microbenchmarks of the BMac protocol sender and receiver.

use bmac_protocol::{BmacReceiver, BmacSender};
use criterion::{criterion_group, criterion_main, Criterion};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::parse;
use std::hint::black_box;
use workload::{StreamScenario, Workload};

fn one_block(ntx: usize) -> fabric_protos::messages::Block {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(ntx)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
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
    blocks.remove(0)
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    group.sample_size(20);

    let block = one_block(10);
    group.bench_function("sender_section_block_10tx", |b| {
        b.iter(|| {
            let mut sender = BmacSender::new();
            sender.send_block(black_box(&block)).unwrap()
        })
    });

    // What the orderer pays per block in a run: a warm sender (every
    // identity synced) sending and encoding 100-transaction smallbank
    // blocks, eight distinct ones in turn so that no branch learns one
    // block. Compare with a traced run's `bmac.send_us_per_block`.
    let stream = StreamScenario {
        workload: Workload::Smallbank,
        accounts: 8,
        block_size: 100,
        num_blocks: 8,
        seed: 5,
        ..StreamScenario::default()
    }
    .generate();
    let full: Vec<_> = stream
        .blocks
        .iter()
        .filter(|b| b.data.data.len() == 100)
        .collect();
    assert!(full.len() >= 8, "eight distinct 100-tx blocks");
    let mut warm = BmacSender::new();
    for block in &full {
        warm.send_block(block).unwrap();
    }
    let mut next = 0;
    group.bench_function("sender_send_encode_100tx_x8", |b| {
        b.iter(|| {
            let block = full[next % full.len()];
            next += 1;
            warm.send_block(black_box(block))
                .unwrap()
                .iter()
                .map(|p| p.encode().unwrap().len())
                .sum::<usize>()
        })
    });

    // Pre-encode packets for the receive path.
    let mut sender = BmacSender::new();
    let wires: Vec<Vec<u8>> = sender
        .send_block(&block)
        .unwrap()
        .iter()
        .map(|p| p.encode().unwrap())
        .collect();
    group.bench_function("receiver_reassemble_block_10tx", |b| {
        b.iter(|| {
            let mut receiver = BmacReceiver::new();
            let mut blocks = 0;
            for w in &wires {
                blocks += receiver.ingest(black_box(w)).unwrap().len();
            }
            assert_eq!(blocks, 1);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
