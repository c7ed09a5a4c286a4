//! Differential-oracle gate for the state database.
//!
//! [`StateModel`] (`tests/lib.rs`) is one ordered map and a tip height,
//! trivially correct; this harness holds `StateDb` to **bit-identical**
//! results against it — dumps, state hashes, MVCC conflict flags, range
//! scans, chunked snapshots, pinned reads — over randomized batch
//! workloads, including the awkward cases: empty batches, the same key
//! written twice in one batch, the `Height(0,0)` version boundary, and
//! non-monotone heights.
//!
//! Also here: the journal record-order == apply-order regression (the
//! per-shard locking scheme must not let a parallel block commit
//! reorder its write-ahead records) and the concurrency soaks — reader
//! threads pinning height snapshots while a committer applies blocks
//! must never observe a torn block or a height they weren't pinned to.

use std::sync::Arc;

use bmac_integration_tests::{RecordingSink, StateModel};
use fabric_statedb::{Height, StateDb, VersionedValue, WriteBatch};
use proptest::prelude::*;
use workload::{StatePreload, ZipfCommitLoad};

/// One randomized state operation.
#[derive(Debug, Clone)]
enum Op {
    /// Apply a batch of (key, put-or-delete) at a height.
    Apply(Vec<(String, Option<Vec<u8>>)>, Height),
    /// Apply a whole block of per-tx batches at one block number.
    ApplyBlock(Vec<Vec<(String, Option<Vec<u8>>)>>, u64),
    /// Point-read a key on both stores and compare.
    Get(String),
    /// Range scan `[start, end)` on both and compare.
    Range(String, String),
    /// Full snapshot + state hash comparison.
    Snapshot,
}

/// Small key pool so batches collide: collisions are where version
/// chains, last-write-wins, and MVCC disagree first if anything is
/// wrong.
fn arb_key() -> impl Strategy<Value = String> {
    // `acct`-style plus short raw keys; both shard differently.
    prop_oneof![
        (0u8..20).prop_map(|i| format!("k{i:02}")),
        "[a-d]{1,2}".prop_map(|s| s),
    ]
}

fn arb_value() -> impl Strategy<Value = Option<Vec<u8>>> {
    // Branch repetition stands in for weights (the offline proptest
    // shim's prop_oneof! is unweighted): ~3 puts per delete.
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Some),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Some),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Some),
        Just(None), // delete
    ]
}

fn arb_height() -> impl Strategy<Value = Height> {
    // Includes the (0,0) boundary and deliberately NON-monotone values:
    // the tip is a high-water mark regardless.
    (0u64..6, 0u64..4).prop_map(|(b, t)| Height::new(b, t))
}

fn arb_batch() -> impl Strategy<Value = Vec<(String, Option<Vec<u8>>)>> {
    // 0..: empty batches included. Same key twice in a batch happens
    // naturally with a 24-key pool and up to 8 entries.
    proptest::collection::vec((arb_key(), arb_value()), 0..8)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_batch(), arb_height()).prop_map(|(b, h)| Op::Apply(b, h)),
        (arb_batch(), arb_height()).prop_map(|(b, h)| Op::Apply(b, h)),
        (arb_batch(), arb_height()).prop_map(|(b, h)| Op::Apply(b, h)),
        (proptest::collection::vec(arb_batch(), 1..5), 0u64..6)
            .prop_map(|(bs, n)| Op::ApplyBlock(bs, n)),
        (proptest::collection::vec(arb_batch(), 1..5), 0u64..6)
            .prop_map(|(bs, n)| Op::ApplyBlock(bs, n)),
        arb_key().prop_map(Op::Get),
        arb_key().prop_map(Op::Get),
        (arb_key(), arb_key()).prop_map(|(a, b)| {
            if a <= b {
                Op::Range(a, b)
            } else {
                Op::Range(b, a)
            }
        }),
        Just(Op::Snapshot),
    ]
}

/// The store keeps a key or value of up to this many bytes in place
/// (`fabric-statedb/src/inline.rs`) and a longer one on the heap.
const INLINE_CAP: usize = 22;

/// Byte lengths on both sides of the in-place capacity.
const BOUNDARY_LENS: [usize; 5] = [0, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 64];

/// Keys at the in-place boundary. ASCII keys of each boundary length
/// share one-letter stems, so keys of different lengths and different
/// storage sort between each other. Multi-byte UTF-8 keys (2-, 3- and
/// 4-byte characters, optionally behind one ASCII byte) land just below,
/// on and just above the capacity.
fn boundary_key() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..BOUNDARY_LENS.len(), "[ab]").prop_map(|(i, stem)| {
            let len = BOUNDARY_LENS[i];
            let mut key = stem.repeat(len.min(1));
            key.extend(std::iter::repeat_n('x', len.saturating_sub(1)));
            key
        }),
        (0usize..3, 0usize..4, "[ab]{0,1}").prop_map(|(c, extra, prefix)| {
            let ch = ['é', '€', '𝄞'][c];
            let n = INLINE_CAP / ch.len_utf8() - 1 + extra;
            prefix + &ch.to_string().repeat(n)
        }),
    ]
}

/// Values of the boundary lengths (~3 puts per delete).
fn boundary_value() -> impl Strategy<Value = Option<Vec<u8>>> {
    let put =
        || (0..BOUNDARY_LENS.len(), any::<u8>()).prop_map(|(i, b)| Some(vec![b; BOUNDARY_LENS[i]]));
    prop_oneof![put(), put(), put(), Just(None)]
}

fn to_batch(entries: &[(String, Option<Vec<u8>>)]) -> WriteBatch {
    entries.iter().cloned().collect()
}

/// Runs one op sequence on the model and `db`, asserting step-wise
/// equivalence.
fn run_differential(ops: &[Op], db: StateDb) -> Result<(), TestCaseError> {
    let mut model = StateModel::new();
    for op in ops {
        match op {
            Op::Apply(entries, height) => {
                let batch = to_batch(entries);
                model.apply(&batch, *height);
                db.apply(&batch, *height);
            }
            Op::ApplyBlock(batches, block_num) => {
                let block: Vec<(WriteBatch, Height)> = batches
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (to_batch(b), Height::new(*block_num, i as u64)))
                    .collect();
                model.apply_block(&block);
                db.apply_block(&block);
            }
            Op::Get(key) => {
                prop_assert_eq!(model.get(key), db.get(key), "get({})", key);
                prop_assert_eq!(model.get(key).map(|v| v.version), db.get_version(key));
            }
            Op::Range(start, end) => {
                prop_assert_eq!(
                    model.range(start, end),
                    db.range(start, end),
                    "range({}, {})",
                    start,
                    end
                );
            }
            Op::Snapshot => {
                prop_assert_eq!(model.snapshot(), db.snapshot());
                prop_assert_eq!(model.state_hash(), db.state_hash());
            }
        }
        // Invariants cheap enough to hold after EVERY op.
        prop_assert_eq!(model.tip(), db.tip_height());
        prop_assert_eq!(model.snapshot().len(), db.len());
    }
    // Final bit-identical closing comparison: contents, hash, and the
    // MVCC verdict for every live key.
    prop_assert_eq!(model.snapshot(), db.snapshot());
    prop_assert_eq!(model.state_hash(), db.state_hash());
    let probes: Vec<(String, Option<Height>)> = model
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k, Some(v.version)))
        .collect();
    prop_assert!(db.mvcc_validate(&probes), "current versions must validate");
    for (key, _) in &probes {
        let stale = Some(Height::new(u64::MAX, u64::MAX));
        prop_assert!(!db.mvcc_validate(&[(key.clone(), stale)]));
        prop_assert!(!db.mvcc_validate(&[(key.clone(), None)]));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core gate: randomized apply/get/range/snapshot interleavings
    /// are bit-identical to the model's.
    #[test]
    fn state_db_matches_model_on_random_interleavings(
        ops in proptest::collection::vec(arb_op(), 1..40)
    ) {
        run_differential(&ops, StateDb::new())?;
    }

    /// Shard-count independence: the keyspace partition is an
    /// implementation detail — 1, 5, and 16 shards all match the model
    /// (and hence each other) on the same op tape.
    #[test]
    fn shard_count_does_not_change_semantics(
        ops in proptest::collection::vec(arb_op(), 1..20),
        shards in prop_oneof![Just(1usize), Just(5), Just(16)],
    ) {
        run_differential(&ops, StateDb::with_shards(shards))?;
    }

    /// Pinned snapshots: the model's pin is a copy taken up front
    /// (ground truth by construction); the store's pin resolves version
    /// chains lazily. Pins taken at random points must agree on every
    /// read for the rest of their life.
    #[test]
    fn pinned_snapshots_match_materialized_oracle(
        segments in proptest::collection::vec(
            proptest::collection::vec((arb_batch(), arb_height()), 0..5),
            1..5
        ),
    ) {
        let mut model = StateModel::new();
        let db = StateDb::new();
        let mut pins = Vec::new();
        for segment in &segments {
            // Pin both at this point in the tape...
            pins.push((model.pin(), db.pin()));
            // ...then keep committing.
            for (entries, height) in segment {
                let batch = to_batch(entries);
                model.apply(&batch, *height);
                db.apply(&batch, *height);
            }
        }
        for (mp, sp) in &pins {
            prop_assert_eq!(mp.tip(), sp.height());
            prop_assert_eq!(mp.snapshot(), sp.snapshot());
            for k in ["k00", "k05", "k19", "a", "dd"] {
                prop_assert_eq!(mp.get(k), sp.get(k), "pinned get({})", k);
            }
            prop_assert_eq!(mp.range("a", "k10"), sp.range("a", "k10"));
        }
        // Live views also still agree after all that pinning.
        prop_assert_eq!(model.state_hash(), db.state_hash());
    }

    /// `from_snapshot` agrees with the model in both directions: the
    /// store's dump restores into either side, and the model's dump
    /// restores into the store, preserving contents, tip, and hash.
    #[test]
    fn snapshot_restore_agrees_with_the_model(
        ops in proptest::collection::vec((arb_batch(), arb_height()), 1..15),
    ) {
        let src = StateDb::new();
        let mut model = StateModel::new();
        for (entries, height) in &ops {
            let batch = to_batch(entries);
            src.apply(&batch, *height);
            model.apply(&batch, *height);
        }
        let dump = src.snapshot();
        let tip = src.tip_height();
        let restored_model = StateModel::from_snapshot(dump.clone(), tip);
        prop_assert_eq!(restored_model.snapshot(), dump.clone());
        prop_assert_eq!(restored_model.state_hash(), src.state_hash());
        for restored in [
            StateDb::from_snapshot(dump.clone(), tip),
            StateDb::from_snapshot(model.snapshot(), model.tip()),
        ] {
            prop_assert_eq!(restored.snapshot(), dump.clone());
            prop_assert_eq!(restored.len(), dump.len());
            prop_assert_eq!(restored.tip_height(), tip);
            prop_assert_eq!(restored.state_hash(), src.state_hash());
        }
    }

    /// On a quiescent store the chunks, flattened, are the model's dump
    /// for any chunk size.
    #[test]
    fn quiescent_snapshot_chunks_agree(
        ops in proptest::collection::vec((arb_batch(), arb_height()), 1..10),
        chunk in 1usize..40,
    ) {
        let mut model = StateModel::new();
        let db = StateDb::new();
        for (entries, height) in &ops {
            let batch = to_batch(entries);
            model.apply(&batch, *height);
            db.apply(&batch, *height);
        }
        let chunked: Vec<_> = db.snapshot_chunks(chunk).flatten().collect();
        prop_assert_eq!(chunked, model.snapshot());
    }

    /// Keys and values of lengths on both sides of the in-place
    /// capacity, and multi-byte UTF-8 keys, answer as in the model on
    /// every read path: point reads, versions, ranges, chunked dumps,
    /// pinned reads, the state hash and a `from_snapshot` round trip.
    #[test]
    fn inline_boundary_keys_and_values_match_the_model(
        segments in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec((boundary_key(), boundary_value()), 0..8), arb_height()),
                0..4,
            ),
            1..5,
        ),
        chunk in 1usize..8,
    ) {
        let mut model = StateModel::new();
        let db = StateDb::new();
        let mut pins = Vec::new();
        let mut probes = std::collections::BTreeSet::new();
        for segment in &segments {
            pins.push((model.pin(), db.pin()));
            for (entries, height) in segment {
                probes.extend(entries.iter().map(|(k, _)| k.clone()));
                let batch = to_batch(entries);
                model.apply(&batch, *height);
                db.apply(&batch, *height);
            }
        }
        probes.insert(String::new());
        let probes: Vec<String> = probes.into_iter().collect();
        for key in &probes {
            prop_assert_eq!(model.get(key), db.get(key), "get({:?})", key);
            prop_assert_eq!(model.get(key).map(|v| v.version), db.get_version(key));
        }
        for (i, start) in probes.iter().enumerate() {
            for end in &probes[i..] {
                prop_assert_eq!(model.range(start, end), db.range(start, end));
            }
        }
        let chunked: Vec<_> = db.snapshot_chunks(chunk).flatten().collect();
        prop_assert_eq!(&chunked, &model.snapshot());
        prop_assert_eq!(model.state_hash(), db.state_hash());
        for (mp, sp) in &pins {
            prop_assert_eq!(mp.snapshot(), sp.snapshot());
            for key in &probes {
                prop_assert_eq!(mp.get(key), sp.get(key), "pinned get({:?})", key);
                prop_assert_eq!(mp.get(key).map(|v| v.version), sp.get_version(key));
            }
            let (first, last) = (&probes[0], &probes[probes.len() - 1]);
            prop_assert_eq!(mp.range(first, last), sp.range(first, last));
        }
        let restored = StateDb::from_snapshot(db.snapshot(), db.tip_height());
        prop_assert_eq!(restored.snapshot(), model.snapshot());
        prop_assert_eq!(restored.state_hash(), model.state_hash());
        for key in &probes {
            prop_assert_eq!(model.get(key), restored.get(key), "restored get({:?})", key);
        }
    }
}

/// Preloaded keys and Zipf-contended blocks from `workload::state_load`
/// (the `state_zipf_1m` traffic, scaled down) land on the store exactly
/// as on the model.
#[test]
fn zipf_blocks_apply_identically_to_the_model() {
    let preload = StatePreload {
        keys: 500,
        value_len: 8,
        batch_size: 250,
    };
    let load = ZipfCommitLoad {
        population: 500,
        blocks: 5,
        txs_per_block: 20,
        first_block: 2,
        ..ZipfCommitLoad::default()
    };
    let mut model = StateModel::new();
    let db = StateDb::new();
    for (batch, height) in preload.batches() {
        model.apply(&batch, height);
    }
    preload.load(&db);
    assert_eq!(model.state_hash(), db.state_hash(), "after the preload");
    for block in load.blocks() {
        model.apply_block(&block);
        db.apply_block(&block);
    }
    assert_eq!(model.state_hash(), db.state_hash());
    assert_eq!(model.tip(), db.tip_height());
    assert_eq!(db.len(), 500);
}

// ---------------------------------------------------------------------
// Journal ordering: record order == apply order, even when a block fans
// out over shards in parallel.
// ---------------------------------------------------------------------

/// A block big enough to clear the store's parallel-apply threshold
/// (256 entries), with per-tx batches and some empty write sets mixed
/// in.
fn wide_block(block_num: u64, txs: u64, writes_per_tx: u64) -> Vec<(WriteBatch, Height)> {
    (0..txs)
        .map(|tx| {
            let mut b = WriteBatch::new();
            if tx % 7 != 3 {
                for w in 0..writes_per_tx {
                    b.put(
                        format!("key{:04}", (tx * 31 + w * 17) % 500),
                        vec![block_num as u8, tx as u8, w as u8],
                    );
                }
            }
            (b, Height::new(block_num, tx))
        })
        .collect()
}

#[test]
fn journal_order_is_apply_order_under_parallel_commit() {
    let db = StateDb::new();
    let sink = Arc::new(RecordingSink::default());
    db.attach_journal(sink.clone());
    let mut expected = Vec::new();
    for block_num in 0..6u64 {
        let block = wide_block(block_num, 40, 8); // 40*8 >> 256
        for (b, h) in &block {
            expected.push((
                b.iter()
                    .map(|(k, v)| (k.to_string(), v.map(|x| x.to_vec())))
                    .collect::<Vec<_>>(),
                *h,
            ));
        }
        db.apply_block(&block);
    }
    let records = sink.records.lock().clone();
    assert_eq!(
        records, expected,
        "journal records must be the batches in exact commit order"
    );
    // Determinism closure: replaying the journal into a fresh store and
    // into the model reproduces the state bit-for-bit.
    let replayed = StateDb::new();
    for (entries, height) in &records {
        let batch: WriteBatch = entries.iter().cloned().collect();
        replayed.replay(&batch, *height);
    }
    let mut model = StateModel::new();
    sink.replay_into(&mut model);
    for (hash, tip) in [
        (replayed.state_hash(), replayed.tip_height()),
        (model.state_hash(), model.tip()),
    ] {
        assert_eq!(hash, db.state_hash(), "replay diverged");
        assert_eq!(tip, db.tip_height());
    }
}

/// The unit a durable journal counts its group-commit window in: one
/// boundary after the records of each apply call, a block with no valid
/// transaction included, none for a replay. A block is one call.
#[test]
fn apply_boundary_closes_each_apply_call() {
    let block = wide_block(1, 3, 2);
    let db = StateDb::new();
    let sink = Arc::new(RecordingSink::default());
    db.attach_journal(sink.clone());
    db.apply(&block[0].0, Height::new(0, 0));
    db.replay(&block[0].0, Height::new(0, 1));
    db.apply_block(&block);
    db.apply_block(&[]);
    assert_eq!(*sink.boundaries.lock(), vec![1, 4, 4]);
}

// ---------------------------------------------------------------------
// Concurrency soak: pinned readers vs a committing writer.
// ---------------------------------------------------------------------

/// The committer writes ALL of `k0..k7` in every block, one per-tx batch
/// per key, each value the block number — so any reader observing two
/// keys from different blocks has seen a torn commit, and any reader
/// observing a block newer than its pin has escaped its snapshot.
/// `apply_block` publishes a whole block as one visibility step.
#[test]
fn soak_pinned_readers_never_see_torn_or_future_state() {
    const KEYS: usize = 8;
    const BLOCKS: u64 = 400;
    const READERS: usize = 4;

    let db = StateDb::new();
    // Block 0: seed every key so readers always find all 8.
    let mut seed = WriteBatch::new();
    for k in 0..KEYS {
        seed.put(format!("k{k}"), 0u64.to_le_bytes());
    }
    db.apply(&seed, Height::new(0, 0));

    std::thread::scope(|scope| {
        let committer = {
            let db = db.clone();
            scope.spawn(move || {
                for block in 1..=BLOCKS {
                    // Per-tx batches: each tx writes one key, the block
                    // is only consistent as a whole.
                    let batches: Vec<(WriteBatch, Height)> = (0..KEYS)
                        .map(|k| {
                            let mut b = WriteBatch::new();
                            b.put(format!("k{k}"), block.to_le_bytes());
                            (b, Height::new(block, k as u64))
                        })
                        .collect();
                    db.apply_block(&batches);
                }
            })
        };
        for _ in 0..READERS {
            let db = db.clone();
            scope.spawn(move || {
                let mut last_pin_block = 0u64;
                loop {
                    let pin = db.pin();
                    let pin_height = pin.height().expect("seeded store has a tip");
                    let pin_block = pin_height.block_num;
                    assert!(
                        pin_block >= last_pin_block,
                        "pins moved backwards: {last_pin_block} -> {pin_block}"
                    );
                    last_pin_block = pin_block;
                    // Read every key through the pin: all 8 must decode
                    // to the SAME block number, equal to the pinned
                    // block.
                    let blocks: Vec<u64> = (0..KEYS)
                        .map(|k| {
                            let v = pin
                                .get(&format!("k{k}"))
                                .expect("seeded key vanished from pinned view");
                            u64::from_le_bytes(v.value.as_slice().try_into().unwrap())
                        })
                        .collect();
                    for (k, b) in blocks.iter().enumerate() {
                        assert_eq!(
                            *b, pin_block,
                            "torn read at pin {pin_block}: k{k} shows block {b} \
                             (full view: {blocks:?})"
                        );
                    }
                    // Range through the pin agrees with point reads.
                    let ranged = pin.range("k", "l");
                    assert_eq!(ranged.len(), KEYS);
                    for (_, v) in &ranged {
                        let b = u64::from_le_bytes(v.value.as_slice().try_into().unwrap());
                        assert_eq!(b, pin_block, "torn range at pin {pin_block}");
                    }
                    if pin_block >= BLOCKS {
                        break;
                    }
                }
            });
        }
        committer.join().unwrap();
    });

    // Soak epilogue: final state is the last block everywhere (no pin
    // outlives the scope).
    let final_pin = db.pin();
    assert_eq!(
        final_pin.height(),
        Some(Height::new(BLOCKS, KEYS as u64 - 1))
    );
    for k in 0..KEYS {
        let v = db.get(&format!("k{k}")).unwrap();
        assert_eq!(
            u64::from_le_bytes(v.value.as_slice().try_into().unwrap()),
            BLOCKS
        );
    }
}

/// Live (unpinned) reads under commit load: never torn below batch
/// granularity — a key is always one of the committed values, never a
/// mix — and `len` stays exact.
#[test]
fn soak_live_reads_are_always_committed_values() {
    let db = StateDb::new();
    let mut seed = WriteBatch::new();
    seed.put("x", 0u64.to_le_bytes());
    db.apply(&seed, Height::new(0, 0));

    std::thread::scope(|scope| {
        let writer = {
            let db = db.clone();
            scope.spawn(move || {
                for block in 1..=2_000u64 {
                    let mut b = WriteBatch::new();
                    b.put("x", block.to_le_bytes());
                    db.apply(&b, Height::new(block, 0));
                }
            })
        };
        for _ in 0..3 {
            let db = db.clone();
            scope.spawn(move || {
                let mut last = 0u64;
                loop {
                    let v = db.get("x").expect("x always present");
                    let seen = u64::from_le_bytes(v.value.as_slice().try_into().unwrap());
                    assert_eq!(v.version, Height::new(seen, 0), "value/version torn");
                    assert!(seen >= last, "reads moved backwards: {last} -> {seen}");
                    last = seen;
                    if seen >= 2_000 {
                        break;
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(db.len(), 1);
}

// ---------------------------------------------------------------------
// Targeted regression cases the fuzzers found interesting spots around.
// ---------------------------------------------------------------------

/// `Height(0,0)` is a real version, not a sentinel: a write at the
/// origin is present and MVCC-comparable, as in the model.
#[test]
fn version_boundary_zero_zero_is_identical() {
    let mut model = StateModel::new();
    let db = StateDb::new();
    let mut b = WriteBatch::new();
    b.put("origin", vec![]);
    model.apply(&b, Height::new(0, 0));
    db.apply(&b, Height::new(0, 0));
    assert_eq!(model.get("origin"), db.get("origin"));
    assert_eq!(
        db.get("origin"),
        Some(VersionedValue {
            value: vec![],
            version: Height::new(0, 0)
        })
    );
    assert_eq!(model.tip(), db.tip_height());
    assert!(db.mvcc_validate(&[("origin".into(), Some(Height::new(0, 0)))]));
    assert!(!db.mvcc_validate(&[("origin".into(), None)]));
    assert_eq!(model.state_hash(), db.state_hash());
}

/// Empty batches advance the tip but change nothing — as in the model.
#[test]
fn empty_batches_are_identical() {
    let mut model = StateModel::new();
    let db = StateDb::new();
    let block = [
        (WriteBatch::new(), Height::new(4, 0)),
        (WriteBatch::new(), Height::new(4, 1)),
    ];
    model.apply(&WriteBatch::new(), Height::new(3, 2));
    db.apply(&WriteBatch::new(), Height::new(3, 2));
    model.apply_block(&block);
    db.apply_block(&block);
    assert_eq!(db.tip_height(), Some(Height::new(4, 1)));
    assert_eq!(model.tip(), db.tip_height());
    assert_eq!(model.state_hash(), db.state_hash());
    assert_eq!(db.len(), 0);
}

/// Same key twice in one batch: strict last-op-wins, including
/// put-then-delete and delete-then-put, as in the model.
#[test]
fn same_key_twice_in_batch_is_identical() {
    let mut model = StateModel::new();
    let db = StateDb::new();
    let mut b = WriteBatch::new();
    b.put("k", vec![1]);
    b.put("k", vec![2]);
    let mut b2 = WriteBatch::new();
    b2.put("k", vec![3]);
    b2.delete("k");
    let mut b3 = WriteBatch::new();
    b3.delete("k");
    b3.put("k", vec![4]);
    for (batch, block) in [(&b, 1), (&b2, 2), (&b3, 3)] {
        model.apply(batch, Height::new(block, 0));
        db.apply(batch, Height::new(block, 0));
    }
    assert_eq!(model.get("k"), db.get("k"));
    assert_eq!(db.get("k").unwrap().value, vec![4]);
    assert_eq!(model.state_hash(), db.state_hash());
}

// ---------------------------------------------------------------------
// The two indexes of a shard: a hash index for point reads and writes,
// an ordered index for scans. Every scan walks the ordered index and
// looks each key up in the hash index, so an index that misses a key, or
// keeps one the other dropped, shows in a scan against the model.
// ---------------------------------------------------------------------

/// A step of the index tape: writes over a four-key pool, and pins
/// taken and released, so keys often die to all-tombstone chains
/// (dropped from both indexes once no pin fences them) and come back.
#[derive(Debug, Clone)]
enum IndexOp {
    Put(usize, u8),
    Delete(usize),
    Pin,
    /// Releases the pin at this index of the live ones, if any.
    Unpin(usize),
}

const INDEX_KEYS: [&str; 4] = ["a", "ab", "b", "k05"];

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    prop_oneof![
        (0..INDEX_KEYS.len(), any::<u8>()).prop_map(|(k, v)| IndexOp::Put(k, v)),
        (0..INDEX_KEYS.len()).prop_map(IndexOp::Delete),
        (0..INDEX_KEYS.len()).prop_map(IndexOp::Delete),
        Just(IndexOp::Pin),
        (0usize..4).prop_map(IndexOp::Unpin),
    ]
}

/// Every scan of `db` against `model`: ranges over every pair of pool
/// bounds, the dump, chunked dumps and the state hash.
fn scans_agree(model: &StateModel, db: &StateDb) -> Result<(), TestCaseError> {
    let bounds = ["", "a", "ab", "b", "k", "k05", "z"];
    for (i, start) in bounds.iter().enumerate() {
        for end in &bounds[i..] {
            prop_assert_eq!(model.range(start, end), db.range(start, end));
        }
    }
    prop_assert_eq!(model.snapshot(), db.snapshot());
    for chunk in [1, 2, 3] {
        let chunked: Vec<_> = db.snapshot_chunks(chunk).flatten().collect();
        prop_assert_eq!(chunked, model.snapshot(), "chunk {}", chunk);
    }
    prop_assert_eq!(model.state_hash(), db.state_hash());
    prop_assert_eq!(model.snapshot().len(), db.len());
    for key in INDEX_KEYS {
        prop_assert_eq!(model.get(key), db.get(key), "get({})", key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash index and the ordered index hold the same keys through
    /// deletes down to all-tombstone chains, re-inserts of dropped keys,
    /// and pins that keep dead versions alive: every scan of the live
    /// store and of every live pin answers as the model.
    #[test]
    fn indexes_agree_through_deletes_reinserts_and_pins(
        ops in proptest::collection::vec(arb_index_op(), 1..60),
    ) {
        let mut model = StateModel::new();
        let db = StateDb::new();
        let mut pins = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let height = Height::new(step as u64 + 1, 0);
            let mut batch = WriteBatch::new();
            match op {
                IndexOp::Put(k, v) => {
                    batch.put(INDEX_KEYS[*k], [*v]);
                }
                IndexOp::Delete(k) => {
                    batch.delete(INDEX_KEYS[*k]);
                }
                IndexOp::Pin => pins.push((model.pin(), db.pin())),
                IndexOp::Unpin(i) => {
                    if !pins.is_empty() {
                        pins.remove(i % pins.len());
                    }
                }
            }
            if !batch.is_empty() {
                model.apply(&batch, height);
                db.apply(&batch, height);
            }
            scans_agree(&model, &db)?;
            for (mp, sp) in &pins {
                prop_assert_eq!(mp.snapshot(), sp.snapshot());
                prop_assert_eq!(mp.range("a", "k"), sp.range("a", "k"));
                for key in INDEX_KEYS {
                    prop_assert_eq!(mp.get(key), sp.get(key), "pinned get({})", key);
                }
            }
        }
    }
}

/// Each `StateDb` keys its hash indexes afresh (std `RandomState`), and
/// the order writes arrive in decides the order a hash index holds its
/// keys. Two stores fed the same writes in opposite key orders, with
/// deletes among them, still give identical dumps, chunked dumps,
/// ranges and state hashes: nothing a caller sees iterates a hash index.
#[test]
fn hasher_keys_and_insertion_order_do_not_reach_the_dumps() {
    let keys: Vec<String> = (0..3_000u64)
        .map(|i| format!("acct{:010}", i * 7_919 % 3_000))
        .collect();
    let feed = |db: &StateDb, keys: &mut dyn Iterator<Item = &String>| {
        for key in keys {
            let i: u64 = key[4..].parse().expect("numbered key");
            let mut batch = WriteBatch::new();
            batch.put(key, i.to_le_bytes());
            if i.is_multiple_of(5) {
                batch.delete(key);
            }
            db.apply(&batch, Height::new(1, i));
        }
    };
    let forward = StateDb::new();
    let backward = StateDb::new();
    feed(&forward, &mut keys.iter());
    feed(&backward, &mut keys.iter().rev());
    assert_eq!(forward.len(), 2_400);
    assert_eq!(forward.snapshot(), backward.snapshot());
    assert_eq!(forward.state_hash(), backward.state_hash());
    let chunks = |db: &StateDb| db.snapshot_chunks(97).collect::<Vec<_>>();
    assert_eq!(chunks(&forward), chunks(&backward));
    assert_eq!(
        forward.range("acct0000000100", "acct0000002000"),
        backward.range("acct0000000100", "acct0000002000")
    );
    let dump = forward.snapshot();
    assert!(dump.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
}

/// A `WriteBatch` hands back what it was given, in order, for keys and
/// values on both sides of the 22-byte in-place capacity (multi-byte
/// UTF-8 keys among them) and for deletes, whichever way it was built:
/// `put`/`delete` with owned or borrowed arguments, `FromIterator` or
/// `Extend`.
#[test]
fn write_batch_round_trips_on_both_sides_of_the_inline_capacity() {
    let mut entries: Vec<(String, Option<Vec<u8>>)> = Vec::new();
    for len in BOUNDARY_LENS {
        for (i, ch) in ['x', 'é', '€', '𝄞'].into_iter().enumerate() {
            let key: String = std::iter::repeat_n(ch, len / ch.len_utf8() + i % 2).collect();
            let value = (len % 3 != 1).then(|| vec![len as u8; BOUNDARY_LENS[i]]);
            entries.push((key, value));
        }
    }
    assert!(entries.iter().any(|(k, _)| k.len() == INLINE_CAP));
    assert!(entries.iter().any(|(k, _)| k.len() == INLINE_CAP + 1));
    assert!(entries.iter().any(|(_, v)| v.is_none()));
    let read_back = |batch: &WriteBatch| -> Vec<(String, Option<Vec<u8>>)> {
        batch
            .iter()
            .map(|(k, v)| (k.to_owned(), v.map(<[u8]>::to_vec)))
            .collect()
    };

    let mut owned = WriteBatch::new();
    let mut borrowed = WriteBatch::new();
    for (key, value) in &entries {
        match value {
            Some(v) => {
                owned.put(key.clone(), v.clone());
                borrowed.put(key.as_str(), v.as_slice());
            }
            None => {
                owned.delete(key.clone());
                borrowed.delete(key);
            }
        }
    }
    let collected: WriteBatch = entries.iter().cloned().collect();
    let (head, tail) = entries.split_at(entries.len() / 2);
    let mut extended: WriteBatch = head.iter().cloned().collect();
    extended.extend(tail.iter().cloned());

    for batch in [&owned, &borrowed, &collected, &extended, &owned.clone()] {
        assert_eq!(batch.len(), entries.len());
        assert!(!batch.is_empty());
        assert_eq!(read_back(batch), entries);
    }
    assert!(WriteBatch::new().is_empty());
}
