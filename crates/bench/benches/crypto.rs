//! Microbenchmarks of the cryptographic substrate: the operations the
//! paper's Figure 3a profiles (ecdsa_verify ~40%, sha256 ~10%) — and, in
//! the `per_byte` group, the three per-byte loops of the commit path at
//! the sizes a 100-transaction block gives them: SHA-256 in bulk, the
//! store's CRC-32, and a whole durable append (marshal + frame + CRC +
//! group-committed write).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fabric_crypto::bigint::U256;
use fabric_crypto::curve::{AffinePoint, JacobianPoint};
use fabric_crypto::ecdsa::SigningKey;
use fabric_crypto::sha256::sha256;
use fabric_ledger::{BlockStore, CommittedBlock, TxValidationCode};
use fabric_protos::messages::{Block, BlockData};
use fabric_store::{crc::crc32, DurableBlockStore, StoreConfig};
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let key = SigningKey::from_seed(b"bench");
    let msg = vec![0xabu8; 3_400]; // smallbank envelope size
    let sig = key.sign(&msg);

    group.bench_function("ecdsa_sign", |b| b.iter(|| key.sign(black_box(&msg))));
    group.bench_function("ecdsa_verify", |b| {
        b.iter(|| key.verifying_key().verify(black_box(&msg), black_box(&sig)))
    });
    group.bench_function("sha256_64B", |b| b.iter(|| sha256(black_box(&msg[..64]))));
    group.bench_function("sha256_3400B", |b| b.iter(|| sha256(black_box(&msg))));

    let k =
        U256::from_hex("deadbeefcafebabe1122334455667788aabbccddeeff00112233445566778899").unwrap();
    group.bench_function("p256_scalar_mul", |b| {
        b.iter(|| AffinePoint::generator().mul_scalar(black_box(&k)))
    });
    let g = AffinePoint::generator().to_jacobian();
    let q = g.mul_scalar(&U256::from_u64(7777));
    group.bench_function("p256_shamir_dual_mul", |b| {
        b.iter(|| JacobianPoint::shamir(black_box(&k), &g, black_box(&k), &q))
    });
    group.finish();
}

fn bench_per_byte(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_byte");
    group.sample_size(20);

    let bulk = vec![0x5au8; 64 * 1024];
    group.throughput(Throughput::Bytes(bulk.len() as u64));
    group.bench_function("sha256_64KiB", |b| b.iter(|| sha256(black_box(&bulk))));

    // 100 envelopes of 3 950 bytes: the drm block of the reference
    // benchmark (`protos.block_bytes_per_tx`). Append never decodes, so
    // filler bytes cost what real envelopes cost.
    let block = Block {
        data: BlockData {
            data: vec![vec![0xabu8; 3_950]; 100],
        },
        ..Block::default()
    };
    let marshaled = block.marshal();
    group.throughput(Throughput::Bytes(marshaled.len() as u64));
    group.bench_function("crc32_400KB", |b| b.iter(|| crc32(black_box(&marshaled))));

    let dir = std::env::temp_dir().join(format!("bmac-bench-append-{}", std::process::id()));
    let StoreConfig {
        group_commit,
        segment_max_bytes,
    } = StoreConfig::default();
    let (mut store, _) =
        DurableBlockStore::open(&dir, group_commit, segment_max_bytes).expect("scratch store");
    let committed = CommittedBlock {
        tx_filter: vec![TxValidationCode::Valid; block.data.data.len()],
        block,
        header_hash: [0; 32],
        commit_hash: [0; 32],
    };
    group.bench_function("append_block_400KB", |b| {
        b.iter(|| store.append(black_box(&committed)).expect("append"))
    });
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_crypto, bench_per_byte);
criterion_main!(benches);
