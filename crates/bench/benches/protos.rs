//! Microbenchmarks of marshaling/unmarshaling — the cost the BMac
//! protocol processor removes from the critical path (paper §3.2).

use criterion::{criterion_group, criterion_main, Criterion};
use fabric_crypto::identity::{Msp, Role};
use fabric_protos::txflow::{
    build_block, build_transaction, decode_block, decode_transaction, SectionSpans, TxParams,
};
use std::hint::black_box;
use workload::{StreamScenario, Workload};

fn bench_protos(c: &mut Criterion) {
    let mut group = c.benchmark_group("protos");
    group.sample_size(20);

    let mut msp = Msp::new(2);
    let client = msp.issue(0, Role::Client, 0).unwrap();
    let e1 = msp.issue(0, Role::Peer, 0).unwrap();
    let e2 = msp.issue(1, Role::Peer, 0).unwrap();
    let orderer = msp.issue(0, Role::Orderer, 0).unwrap();
    let params = TxParams {
        channel_id: "mychannel",
        chaincode: "smallbank",
        reads: vec![("acc1".into(), None), ("acc2".into(), None)],
        writes: vec![
            ("acc1".into(), b"10".to_vec()),
            ("acc2".into(), b"20".to_vec()),
        ],
        nonce: vec![7u8; 24],
        timestamp: 1_700_000_000,
    };

    group.bench_function("build_transaction_2ends", |b| {
        b.iter(|| build_transaction(&client, &[&e1, &e2], black_box(&params)))
    });

    let built = build_transaction(&client, &[&e1, &e2], &params);
    group.bench_function("decode_transaction", |b| {
        b.iter(|| decode_transaction(black_box(&built.envelope)).unwrap())
    });

    let envs: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            let mut p = params.clone();
            p.nonce = vec![i as u8; 24];
            build_transaction(&client, &[&e1, &e2], &p).envelope
        })
        .collect();
    let block = build_block(0, &[0u8; 32], envs, &orderer);
    let block_bytes = block.marshal();
    group.bench_function("marshal_block_10tx", |b| {
        b.iter(|| black_box(&block).marshal())
    });
    group.bench_function("decode_block_10tx", |b| {
        b.iter(|| decode_block(black_box(&block_bytes)).unwrap())
    });

    // A block as the peer meets it: 100 drm-sized transactions over a
    // handful of identities (3 clients, 2 endorsers, the orderer), so
    // its 301 certificates are 6 byte strings.
    let clients: Vec<_> = (0..3)
        .map(|i| msp.issue(i % 2, Role::Client, 1 + i).unwrap())
        .collect();
    let envs: Vec<Vec<u8>> = (0..100u8)
        .map(|i| {
            let key = format!("license:content{}:user{i}", i % 8);
            let p = TxParams {
                channel_id: "mychannel",
                chaincode: "drm",
                reads: vec![(format!("content{}", i % 8), None)],
                writes: vec![(key, vec![i; 120])],
                nonce: vec![i; 24],
                timestamp: 1_700_000_000,
            };
            build_transaction(&clients[i as usize % 3], &[&e1, &e2], &p).envelope
        })
        .collect();
    let block_bytes = build_block(1, &[0u8; 32], envs, &orderer).marshal();
    group.bench_function("decode_block_100tx", |b| {
        b.iter(|| decode_block(black_box(&block_bytes)).unwrap())
    });

    // The BMac sender's walk alone: every envelope of a 100-transaction
    // smallbank block, eight distinct blocks in turn, as `protocol`'s
    // `sender_send_encode_100tx_x8` sends them (which adds the copying
    // and encoding).
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
    let mut spans = SectionSpans::default();
    let mut next = 0;
    group.bench_function("sender_walk_100tx_x8", |b| {
        b.iter(|| {
            let block = full[next % full.len()];
            next += 1;
            let mut found = 0;
            for envelope in &block.data.data {
                spans.walk_envelope(black_box(envelope)).unwrap();
                found += spans.identities.len() + spans.fields.len();
            }
            found
        })
    });
    group.finish();
}

criterion_group!(benches, bench_protos);
criterion_main!(benches);
