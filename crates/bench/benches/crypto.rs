//! Microbenchmarks of the cryptographic substrate: the operations the
//! paper's Figure 3a profiles (ecdsa_verify ~40%, sha256 ~10%); in the
//! `fp256` group, the field and point operations a verification is made
//! of, so every row of `fabric-crypto/README.md`'s cost table has a
//! command behind it; and, in the `per_byte` group, the three per-byte
//! loops of the commit path at the sizes a 100-transaction block gives
//! them: SHA-256 in bulk, the store's CRC-32 (the kernel this CPU picks
//! and the portable tables), a whole durable append (marshal + frame +
//! CRC + group-committed write) and the block's journaled state apply.
//!
//! `ecdsa_verify` and the `fp256` group run over inputs that change
//! every iteration: a loop over one input lets the branch predictor
//! learn it and hides what any data-dependent branch costs (such a loop
//! read 56 µs for a verification that cost 75 µs inside a peer).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fabric_crypto::bigint::U256;
use fabric_crypto::curve::{mul_fixed_base, AffinePoint, JacobianPoint};
use fabric_crypto::ecdsa::{
    batch_s_inverses, verify_batch, BatchItem, Signature, SigningKey, VerifyingKey, BATCH_LANES,
};
use fabric_crypto::fp256::Fp256;
use fabric_crypto::sha256::{sha256, sha256_many};
use fabric_ledger::{BlockStore, CommittedBlock, TxValidationCode};
use fabric_peer::SigCacheKey;
use fabric_protos::messages::{Block, BlockData};
use fabric_statedb::{Height, StateDb, WriteBatch};
use fabric_store::crc::{crc32, kernel};
use fabric_store::frame::HEADER_LEN;
use fabric_store::journal::encode_batch;
use fabric_store::{DurableBlockStore, StateJournal, StoreConfig};
use std::hint::black_box;
use std::sync::Arc;

/// Inputs a cycling bench walks: enough that no predictor holds them.
const OPERANDS: usize = 1024;

/// The `i`-th of a fixed sequence of pseudo-random 256-bit values.
fn operand(label: &[u8], i: usize) -> [u8; 32] {
    sha256(&[label, &i.to_be_bytes()].concat())
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let key = SigningKey::from_seed(b"bench");
    let msg = vec![0xabu8; 3_400]; // smallbank envelope size

    group.bench_function("ecdsa_sign", |b| b.iter(|| key.sign(black_box(&msg))));

    // What a committer sees: a block's worth of endorser keys, every
    // signature and digest different.
    let keys: Vec<SigningKey> = (0..8)
        .map(|i| SigningKey::from_seed(format!("bench{i}").as_bytes()))
        .collect();
    let signed: Vec<_> = (0..OPERANDS)
        .map(|i| {
            let digest = operand(b"digest", i);
            let key = &keys[i % keys.len()];
            (key.verifying_key(), digest, key.sign_prehashed(&digest))
        })
        .collect();
    let mut next = 0;
    group.bench_function("ecdsa_verify", |b| {
        b.iter(|| {
            let (key, digest, sig) = &signed[next % OPERANDS];
            next += 1;
            key.verify_prehashed(black_box(digest), black_box(sig))
                .expect("valid signature")
        })
    });
    // Signatures eight at a time, as vscc hands its cache misses over:
    // one iteration is one chunk, `s⁻¹` from the batched inversion as
    // in a block. On a CPU without AVX-512 IFMA this is the scalar loop
    // and reads eight times `ecdsa_verify`, and there are no combs.
    //
    // `_comb8` and `_comb3`: the cycled signatures over eight keys, and
    // over three of them (a smallbank block's client and two
    // endorsers). They are the first keys the lanes verify, so each
    // gets a comb on that first use.
    let items = batch_items(&signed);
    let three: Vec<_> = (0..OPERANDS)
        .map(|i| {
            let digest = operand(b"comb3-digest", i);
            let key = &keys[i % 3];
            (key.verifying_key(), digest, key.sign_prehashed(&digest))
        })
        .collect();
    let three = batch_items(&three);
    verify_batch(&items);
    let combs = items.iter().all(|item| item.key.has_comb());
    // `_ladder`: the same shape over eight keys made once fresh keys
    // have taken every place left under the cap on combs, so each keeps
    // to its ladder table.
    for i in 0.. {
        let filler = SigningKey::from_seed(format!("bench-filler-{i}").as_bytes());
        let digest = operand(b"filler-digest", i);
        let sig = filler.sign_prehashed(&digest);
        verify_batch(&batch_items(&[(filler.verifying_key(), digest, sig)]));
        if !filler.verifying_key().has_comb() {
            break;
        }
    }
    let ladder_keys: Vec<SigningKey> = (0..BATCH_LANES)
        .map(|i| SigningKey::from_seed(format!("bench-ladder-{i}").as_bytes()))
        .collect();
    let ladder_signed: Vec<_> = (0..OPERANDS)
        .map(|i| {
            let digest = operand(b"ladder-digest", i);
            let key = &ladder_keys[i % BATCH_LANES];
            (key.verifying_key(), digest, key.sign_prehashed(&digest))
        })
        .collect();
    let ladder_items = batch_items(&ladder_signed);
    // Every key's ladder table built before the timing starts.
    verify_batch(&ladder_items);
    assert!(!ladder_keys.iter().any(|key| key.verifying_key().has_comb()));
    bench_batch8(&mut group, "ecdsa_verify_batch8_ladder", &ladder_items);
    if combs {
        bench_batch8(&mut group, "ecdsa_verify_batch8_comb8", &items);
        bench_batch8(&mut group, "ecdsa_verify_batch8_comb3", &three);
    }
    // What a key's comb costs, once.
    #[cfg(target_arch = "x86_64")]
    {
        let points: Vec<AffinePoint> = keys.iter().map(|k| *k.verifying_key().point()).collect();
        let mut next = 0;
        group.bench_function("key_comb_build", |b| {
            b.iter(|| {
                next += 1;
                fabric_crypto::p256x8::KeyComb::build(black_box(&points[next % points.len()]))
            })
        });
    }
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

type Signed<'a> = (&'a VerifyingKey, [u8; 32], Signature);

/// What `verify_batch` takes for `signed`, `s⁻¹` batch-inverted.
fn batch_items<'a>(signed: &[Signed<'a>]) -> Vec<BatchItem<'a>> {
    let sinvs = batch_s_inverses(&signed.iter().map(|(_, _, sig)| *sig).collect::<Vec<_>>());
    signed
        .iter()
        .zip(sinvs)
        .map(|(&(key, digest, sig), sinv)| BatchItem {
            key,
            digest,
            sig,
            sinv,
        })
        .collect()
}

/// One chunk of `items` an iteration, cycling; every verdict valid.
fn bench_batch8(group: &mut criterion::BenchmarkGroup<'_>, name: &str, items: &[BatchItem<'_>]) {
    let mut next = 0;
    group.bench_function(name, |b| {
        b.iter(|| {
            let chunk = &items[next % items.len()..][..BATCH_LANES];
            next += BATCH_LANES;
            let verdicts = verify_batch(black_box(chunk));
            assert!(verdicts.iter().all(|&valid| valid));
            verdicts
        })
    });
}

/// Each operation as a dependent chain — the result feeds the next call,
/// as in a point formula — so no two calls see the same input.
fn bench_fp256(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp256");
    group.sample_size(20);

    let f = Fp256;
    let elements: Vec<U256> = (0..OPERANDS)
        .map(|i| U256::from_be_bytes(&operand(b"fp", i)).reduce_once(&Fp256::P))
        .collect();
    let scalars: Vec<JacobianPoint> = elements.iter().map(mul_fixed_base).collect();
    let points = JacobianPoint::batch_to_affine(&scalars);

    // Monomorphized per operation, so the call under test inlines as
    // it does in the point formulas.
    fn chain(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        elements: &[U256],
        op: impl Fn(&U256, &U256) -> U256,
    ) {
        let (mut acc, mut next) = (elements[0], 0);
        group.bench_function(name, |b| {
            b.iter(|| {
                next += 1;
                acc = op(&acc, &elements[next % OPERANDS]);
                acc
            })
        });
    }
    chain(&mut group, "add", &elements, |a, b| f.add(a, b));
    chain(&mut group, "sub", &elements, |a, b| f.sub(a, b));
    chain(&mut group, "mul", &elements, |a, b| f.mul(a, b));
    // Eight products an iteration: divide by eight to set it beside
    // `mul`. Absent on a CPU without AVX-512 IFMA.
    #[cfg(target_arch = "x86_64")]
    {
        use fabric_crypto::p256x8::Fp256x8;
        let lanes: Vec<Fp256x8> = elements
            .chunks_exact(BATCH_LANES)
            .map_while(|chunk| Fp256x8::new(chunk.try_into().expect("eight elements")))
            .collect();
        if let Some(&first) = lanes.first() {
            let (mut acc, mut next) = (first, 0);
            group.bench_function("fp256x8_mul", |b| {
                b.iter(|| {
                    next += 1;
                    acc = acc.mul(&lanes[next % lanes.len()]);
                    acc
                })
            });
        }
    }
    let mut acc = elements[0];
    group.bench_function("sqr", |b| {
        b.iter(|| {
            acc = f.sqr(&acc);
            acc
        })
    });
    let mut acc = scalars[0];
    group.bench_function("double", |b| {
        b.iter(|| {
            acc = acc.double();
            acc
        })
    });
    let (mut acc, mut next) = (scalars[0], 0);
    group.bench_function("add_mixed", |b| {
        b.iter(|| {
            next += 1;
            acc = acc.add_mixed(&points[next % OPERANDS]);
            acc
        })
    });
    group.finish();
}

fn bench_per_byte(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_byte");
    group.sample_size(20);

    let bulk = vec![0x5au8; 64 * 1024];
    group.throughput(Throughput::Bytes(bulk.len() as u64));
    group.bench_function("sha256_64KiB", |b| b.iter(|| sha256(black_box(&bulk))));

    // What vscc hashes for one drm block of the reference benchmark:
    // 100 signed payloads of ≈ 3.87 KB and 200 `prp ‖ endorser` of
    // ≈ 0.96 KB, interleaved as the block carries them, then one cache
    // key per signature. `_many` is the batch entry (sixteen at a time
    // in AVX-512 lanes where the CPU has them), `_each` one `sha256` per
    // message — what `_many` is on every other CPU.
    let signed: Vec<Vec<u8>> = (0..300)
        .map(|i| {
            let len = if i % 3 == 0 {
                3_870 + i % 7
            } else {
                960 + i % 5
            };
            (0..len).map(|j| (i * 31 + j) as u8).collect()
        })
        .collect();
    let signed: Vec<&[u8]> = signed.iter().map(Vec::as_slice).collect();
    group.throughput(Throughput::Bytes(
        signed.iter().map(|m| m.len() as u64).sum(),
    ));
    group.bench_function("sha256_many_block_shape", |b| {
        b.iter(|| sha256_many(black_box(&signed)))
    });
    group.bench_function("sha256_each_block_shape", |b| {
        b.iter(|| {
            signed
                .iter()
                .map(|m| sha256(black_box(m)))
                .collect::<Vec<_>>()
        })
    });
    let signers: Vec<SigningKey> = (0..8)
        .map(|k| SigningKey::from_seed(format!("bench-cache-key-{k}").as_bytes()))
        .collect();
    let digests = sha256_many(&signed);
    let sigs: Vec<_> = (0..300)
        .map(|i| signers[i % 8].sign_prehashed(&digests[i]))
        .collect();
    group.throughput(Throughput::Bytes(300 * 161));
    group.bench_function("cache_keys_300", |b| {
        b.iter(|| {
            SigCacheKey::compute_many(
                (0..300).map(|i| (signers[i % 8].verifying_key(), &digests[i], &sigs[i])),
            )
        })
    });

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
    group.bench_function("crc32_400KB_portable", |b| {
        b.iter(|| !kernel::portable(!0, black_box(&marshaled)))
    });

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
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // The same block's state commit through an attached journal: 100
    // single-write batches (`store.journal_bytes_per_tx` ≈ 73), framed
    // into the journal's group buffer, one `write` every
    // `group_commit`-th call.
    let path = std::env::temp_dir().join(format!("bmac-bench-journal-{}", std::process::id()));
    let db = StateDb::new();
    let journal = StateJournal::open_at(&path, 0, group_commit).expect("scratch journal");
    db.attach_journal(Arc::new(journal));
    let batches: Vec<(WriteBatch, Height)> = (0..100u64)
        .map(|tx| {
            let mut batch = WriteBatch::new();
            batch.put(format!("drm-asset-{tx:08}"), vec![0x5a; 24]);
            (batch, Height::new(1, tx))
        })
        .collect();
    let journaled: usize = batches
        .iter()
        .map(|(b, h)| HEADER_LEN + encode_batch(b, *h).len())
        .sum();
    group.throughput(Throughput::Bytes(journaled as u64));
    group.bench_function("journal_apply_100tx", |b| {
        b.iter(|| db.apply_block(black_box(&batches)))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_crypto, bench_fp256, bench_per_byte);
criterion_main!(benches);
