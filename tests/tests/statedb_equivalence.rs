//! Differential-oracle gate for the sharded MVCC state database.
//!
//! The legacy single-map `StateDb` is trivially correct and stays
//! compiled (`StateBackend::Legacy`); this harness holds the sharded
//! backend to **bit-identical** results against it — state hashes,
//! MVCC conflict flags, range scans, snapshots, pinned reads — over
//! randomized batch workloads, including the awkward cases the issue
//! calls out: empty batches, the same key written twice in one batch,
//! the `Height(0,0)` version boundary, and non-monotone heights.
//!
//! Also here: the journal record-order == apply-order regression (the
//! per-shard locking scheme must not let a parallel block commit
//! reorder its write-ahead records) and the concurrency soak — reader
//! threads pinning height snapshots while a committer applies blocks
//! must never observe a torn batch or a height they weren't pinned to.

use std::sync::Arc;

use fabric_statedb::{Height, JournalSink, StateBackend, StateDb, VersionedValue, WriteBatch};
use proptest::prelude::*;

/// One randomized state operation.
#[derive(Debug, Clone)]
enum Op {
    /// Apply a batch of (key, put-or-delete) at a height.
    Apply(Vec<(String, Option<Vec<u8>>)>, Height),
    /// Apply a whole block of per-tx batches at one block number.
    ApplyBlock(Vec<Vec<(String, Option<Vec<u8>>)>>, u64),
    /// Point-read a key on both backends and compare.
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
    // both backends must agree on high-water tip semantics regardless.
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

fn to_batch(entries: &[(String, Option<Vec<u8>>)]) -> WriteBatch {
    entries.iter().cloned().collect()
}

/// Runs one op sequence on a legacy/subject pair, asserting step-wise
/// equivalence. `subject` is usually sharded, but the harness is
/// backend-agnostic (shard-count independence reuses it).
fn run_differential(ops: &[Op], subject: StateDb) -> Result<(), TestCaseError> {
    let legacy = StateDb::with_backend(StateBackend::Legacy);
    for op in ops {
        match op {
            Op::Apply(entries, height) => {
                let batch = to_batch(entries);
                legacy.apply(&batch, *height);
                subject.apply(&batch, *height);
            }
            Op::ApplyBlock(batches, block_num) => {
                let block: Vec<(WriteBatch, Height)> = batches
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (to_batch(b), Height::new(*block_num, i as u64)))
                    .collect();
                legacy.apply_block(&block);
                subject.apply_block(&block);
            }
            Op::Get(key) => {
                prop_assert_eq!(legacy.get(key), subject.get(key), "get({})", key);
                prop_assert_eq!(legacy.get_version(key), subject.get_version(key));
            }
            Op::Range(start, end) => {
                prop_assert_eq!(
                    legacy.range(start, end),
                    subject.range(start, end),
                    "range({}, {})",
                    start,
                    end
                );
            }
            Op::Snapshot => {
                prop_assert_eq!(legacy.snapshot(), subject.snapshot());
                prop_assert_eq!(legacy.state_hash(), subject.state_hash());
            }
        }
        // Invariants cheap enough to hold after EVERY op.
        prop_assert_eq!(legacy.tip_height(), subject.tip_height());
        prop_assert_eq!(legacy.len(), subject.len());
    }
    // Final bit-identical closing comparison: contents, hash, and the
    // MVCC verdict for every key either backend has ever seen.
    prop_assert_eq!(legacy.snapshot(), subject.snapshot());
    prop_assert_eq!(legacy.state_hash(), subject.state_hash());
    let probes: Vec<(String, Option<Height>)> = legacy
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k, Some(v.version)))
        .collect();
    prop_assert!(
        subject.mvcc_validate(&probes),
        "current versions must validate"
    );
    for (key, expected) in &probes {
        let stale = Some(Height::new(u64::MAX, u64::MAX));
        prop_assert_eq!(
            legacy.mvcc_validate(&[(key.clone(), stale)]),
            subject.mvcc_validate(&[(key.clone(), stale)])
        );
        prop_assert_eq!(
            legacy.mvcc_validate(&[(key.clone(), None)]),
            subject.mvcc_validate(&[(key.clone(), None)])
        );
        let _ = expected;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core gate: randomized apply/get/range/snapshot interleavings
    /// are bit-identical across backends.
    #[test]
    fn sharded_matches_legacy_on_random_interleavings(
        ops in proptest::collection::vec(arb_op(), 1..40)
    ) {
        run_differential(&ops, StateDb::with_backend(StateBackend::Sharded))?;
    }

    /// Shard-count independence: the keyspace partition is an
    /// implementation detail — 1, 5, and 16 shards all match the oracle
    /// (and hence each other) on the same op tape.
    #[test]
    fn shard_count_does_not_change_semantics(
        ops in proptest::collection::vec(arb_op(), 1..20),
        shards in prop_oneof![Just(1usize), Just(5), Just(16)],
    ) {
        run_differential(&ops, StateDb::sharded_with_shards(shards))?;
    }

    /// Pinned snapshots: the legacy pin materializes the whole map up
    /// front (ground truth by construction); the sharded pin resolves
    /// version chains lazily. Pins taken at random points must agree on
    /// every read for the rest of their life.
    #[test]
    fn pinned_snapshots_match_materialized_oracle(
        segments in proptest::collection::vec(
            proptest::collection::vec((arb_batch(), arb_height()), 0..5),
            1..5
        ),
    ) {
        let legacy = StateDb::with_backend(StateBackend::Legacy);
        let sharded = StateDb::with_backend(StateBackend::Sharded);
        let mut pins = Vec::new();
        for segment in &segments {
            // Pin both backends at this point in the tape...
            pins.push((legacy.pin(), sharded.pin()));
            // ...then keep committing.
            for (entries, height) in segment {
                let batch = to_batch(entries);
                legacy.apply(&batch, *height);
                sharded.apply(&batch, *height);
            }
        }
        for (lp, sp) in &pins {
            prop_assert_eq!(lp.height(), sp.height());
            prop_assert_eq!(lp.snapshot(), sp.snapshot());
            for k in ["k00", "k05", "k19", "a", "dd"] {
                prop_assert_eq!(lp.get(k), sp.get(k), "pinned get({})", k);
            }
            prop_assert_eq!(lp.range("a", "k10"), sp.range("a", "k10"));
        }
        // Live views also still agree after all that pinning.
        prop_assert_eq!(legacy.state_hash(), sharded.state_hash());
    }

    /// `from_snapshot` round-trips across backends: a dump taken from
    /// either restores into either, preserving contents, tip, and hash.
    #[test]
    fn snapshot_restore_crosses_backends(
        ops in proptest::collection::vec((arb_batch(), arb_height()), 1..15),
    ) {
        let src = StateDb::with_backend(StateBackend::Sharded);
        for (entries, height) in &ops {
            src.apply(&to_batch(entries), *height);
        }
        let dump = src.snapshot();
        let tip = src.tip_height();
        for backend in [StateBackend::Legacy, StateBackend::Sharded] {
            let restored = StateDb::from_snapshot_with_backend(backend, dump.clone(), tip);
            prop_assert_eq!(restored.snapshot(), dump.clone());
            prop_assert_eq!(restored.tip_height(), tip);
            prop_assert_eq!(restored.state_hash(), src.state_hash());
        }
    }

    /// Chunked snapshots on a quiescent store are exact and identical
    /// across backends for any chunk size.
    #[test]
    fn quiescent_snapshot_chunks_agree(
        ops in proptest::collection::vec((arb_batch(), arb_height()), 1..10),
        chunk in 1usize..40,
    ) {
        let legacy = StateDb::with_backend(StateBackend::Legacy);
        let sharded = StateDb::with_backend(StateBackend::Sharded);
        for (entries, height) in &ops {
            let batch = to_batch(entries);
            legacy.apply(&batch, *height);
            sharded.apply(&batch, *height);
        }
        let l: Vec<_> = legacy.snapshot_chunks(chunk).flatten().collect();
        let s: Vec<_> = sharded.snapshot_chunks(chunk).flatten().collect();
        prop_assert_eq!(&l, &s);
        prop_assert_eq!(l, legacy.snapshot());
    }
}

// ---------------------------------------------------------------------
// Journal ordering: record order == apply order, even when the sharded
// backend fans a block out over shards in parallel.
// ---------------------------------------------------------------------

/// One journaled record: the batch's entries (owned) plus its height.
type JournaledBatch = (Vec<(String, Option<Vec<u8>>)>, Height);

#[derive(Debug, Default)]
struct RecordingSink {
    records: parking_lot::Mutex<Vec<JournaledBatch>>,
    /// `records.len()` at each `apply_boundary`.
    boundaries: parking_lot::Mutex<Vec<usize>>,
}

impl JournalSink for RecordingSink {
    fn record(&self, batch: &WriteBatch, height: Height) {
        self.records.lock().push((
            batch
                .iter()
                .map(|(k, v)| (k.to_string(), v.map(|b| b.to_vec())))
                .collect(),
            height,
        ));
    }

    fn apply_boundary(&self) {
        let at = self.records.lock().len();
        self.boundaries.lock().push(at);
    }

    fn flush(&self) {}
}

/// A block big enough to clear the sharded backend's parallel-apply
/// threshold (256 entries), with per-tx batches and some empty write
/// sets mixed in.
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
    for backend in [StateBackend::Legacy, StateBackend::Sharded] {
        let db = StateDb::with_backend(backend);
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
            "{backend:?}: journal records must be the batches in exact commit order"
        );
        // Determinism closure: replaying the journal into fresh stores
        // of BOTH backends reproduces the state bit-for-bit.
        let src_hash = db.state_hash();
        for replay_backend in [StateBackend::Legacy, StateBackend::Sharded] {
            let replayed = StateDb::with_backend(replay_backend);
            for (entries, height) in &records {
                let batch: WriteBatch = entries.iter().cloned().collect();
                replayed.replay(&batch, *height);
            }
            assert_eq!(
                replayed.state_hash(),
                src_hash,
                "replay {replay_backend:?} of a {backend:?} journal diverged"
            );
            assert_eq!(replayed.tip_height(), db.tip_height());
        }
    }
}

#[test]
fn replay_never_rejournals_on_either_backend() {
    for backend in [StateBackend::Legacy, StateBackend::Sharded] {
        let db = StateDb::with_backend(backend);
        let sink = Arc::new(RecordingSink::default());
        db.attach_journal(sink.clone());
        let mut b = WriteBatch::new();
        b.put("k", vec![1]);
        db.replay(&b, Height::new(1, 0));
        assert!(sink.records.lock().is_empty(), "{backend:?}");
        db.apply(&b, Height::new(2, 0));
        assert_eq!(sink.records.lock().len(), 1, "{backend:?}");
    }
}

/// The unit a durable journal counts its group-commit window in: one
/// boundary after the records of each apply call, a block with no valid
/// transaction included, none for a replay. The sharded backend takes a
/// block as one call; the legacy reference loops over its batches.
#[test]
fn apply_boundary_closes_each_apply_call() {
    let block = wide_block(1, 3, 2);
    for (backend, after_block) in [
        (StateBackend::Sharded, vec![1, 4, 4]),
        (StateBackend::Legacy, vec![1, 2, 3, 4]),
    ] {
        let db = StateDb::with_backend(backend);
        let sink = Arc::new(RecordingSink::default());
        db.attach_journal(sink.clone());
        db.apply(&block[0].0, Height::new(0, 0));
        db.replay(&block[0].0, Height::new(0, 1));
        db.apply_block(&block);
        db.apply_block(&[]);
        assert_eq!(*sink.boundaries.lock(), after_block, "{backend:?}");
    }
}

// ---------------------------------------------------------------------
// Concurrency soak: pinned readers vs a committing writer.
// ---------------------------------------------------------------------

/// The committer writes ALL of `k0..k7` in every block, each value the
/// block number — so any reader observing two keys from different
/// blocks has seen a torn commit, and any reader observing a block
/// newer than its pin has escaped its snapshot.
///
/// Atomicity granularity differs by design: the sharded backend's
/// `apply_block` publishes a whole block of per-tx batches as one
/// visibility step, so its leg commits per-tx batches; the legacy
/// store is only atomic per *batch* (a pin can land between a block's
/// batches), so its leg packs each block into one batch.
#[test]
fn soak_pinned_readers_never_see_torn_or_future_state() {
    const KEYS: usize = 8;
    const BLOCKS: u64 = 400;
    const READERS: usize = 4;

    for backend in [StateBackend::Sharded, StateBackend::Legacy] {
        let db = StateDb::with_backend(backend);
        // Block 0: seed every key so readers always find all 8.
        let mut seed = WriteBatch::new();
        for k in 0..KEYS {
            seed.put(format!("k{k}"), 0u64.to_le_bytes().to_vec());
        }
        db.apply(&seed, Height::new(0, 0));

        std::thread::scope(|scope| {
            let committer = {
                let db = db.clone();
                scope.spawn(move || {
                    for block in 1..=BLOCKS {
                        let batches: Vec<(WriteBatch, Height)> = match backend {
                            // Per-tx batches: each tx writes one key,
                            // the block is only consistent as a whole.
                            StateBackend::Sharded => (0..KEYS)
                                .map(|k| {
                                    let mut b = WriteBatch::new();
                                    b.put(format!("k{k}"), block.to_le_bytes().to_vec());
                                    (b, Height::new(block, k as u64))
                                })
                                .collect(),
                            // One batch per block: the legacy
                            // atomicity unit.
                            StateBackend::Legacy => {
                                let mut b = WriteBatch::new();
                                for k in 0..KEYS {
                                    b.put(format!("k{k}"), block.to_le_bytes().to_vec());
                                }
                                vec![(b, Height::new(block, 0))]
                            }
                        };
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
                        // Read every key through the pin: all 8 must
                        // decode to the SAME block number, equal to the
                        // pinned block.
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

        // Soak epilogue: final state is the last block everywhere, and
        // pruning kept chains bounded (no pin outlives the scope).
        let final_tx = match backend {
            StateBackend::Sharded => KEYS as u64 - 1,
            StateBackend::Legacy => 0,
        };
        let final_pin = db.pin();
        assert_eq!(final_pin.height(), Some(Height::new(BLOCKS, final_tx)));
        for k in 0..KEYS {
            let v = db.get(&format!("k{k}")).unwrap();
            assert_eq!(
                u64::from_le_bytes(v.value.as_slice().try_into().unwrap()),
                BLOCKS,
                "{backend:?}"
            );
        }
    }
}

/// Live (unpinned) reads under commit load: never torn below batch
/// granularity — a key is always one of the committed values, never a
/// mix — and `len` stays exact.
#[test]
fn soak_live_reads_are_always_committed_values() {
    let db = StateDb::with_backend(StateBackend::Sharded);
    let mut seed = WriteBatch::new();
    seed.put("x", 0u64.to_le_bytes().to_vec());
    db.apply(&seed, Height::new(0, 0));

    std::thread::scope(|scope| {
        let writer = {
            let db = db.clone();
            scope.spawn(move || {
                for block in 1..=2_000u64 {
                    let mut b = WriteBatch::new();
                    b.put("x", block.to_le_bytes().to_vec());
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

/// `Height(0,0)` is a real version, not a sentinel: both backends must
/// treat a write at the origin as present and MVCC-comparable.
#[test]
fn version_boundary_zero_zero_is_identical() {
    let legacy = StateDb::with_backend(StateBackend::Legacy);
    let sharded = StateDb::with_backend(StateBackend::Sharded);
    for db in [&legacy, &sharded] {
        let mut b = WriteBatch::new();
        b.put("origin", vec![]);
        db.apply(&b, Height::new(0, 0));
    }
    assert_eq!(legacy.get("origin"), sharded.get("origin"));
    assert_eq!(
        legacy.get("origin"),
        Some(VersionedValue {
            value: vec![],
            version: Height::new(0, 0)
        })
    );
    assert_eq!(legacy.tip_height(), sharded.tip_height());
    for db in [&legacy, &sharded] {
        assert!(db.mvcc_validate(&[("origin".into(), Some(Height::new(0, 0)))]));
        assert!(!db.mvcc_validate(&[("origin".into(), None)]));
    }
    assert_eq!(legacy.state_hash(), sharded.state_hash());
}

/// Empty batches advance the tip but change nothing — identically.
#[test]
fn empty_batches_are_identical() {
    let legacy = StateDb::with_backend(StateBackend::Legacy);
    let sharded = StateDb::with_backend(StateBackend::Sharded);
    for db in [&legacy, &sharded] {
        db.apply(&WriteBatch::new(), Height::new(3, 2));
        db.apply_block(&[
            (WriteBatch::new(), Height::new(4, 0)),
            (WriteBatch::new(), Height::new(4, 1)),
        ]);
    }
    assert_eq!(legacy.tip_height(), Some(Height::new(4, 1)));
    assert_eq!(legacy.tip_height(), sharded.tip_height());
    assert_eq!(legacy.state_hash(), sharded.state_hash());
    assert_eq!(legacy.len(), 0);
    assert_eq!(sharded.len(), 0);
}

/// Same key twice in one batch: strict last-op-wins, including
/// put-then-delete and delete-then-put, identically on both backends.
#[test]
fn same_key_twice_in_batch_is_identical() {
    let legacy = StateDb::with_backend(StateBackend::Legacy);
    let sharded = StateDb::with_backend(StateBackend::Sharded);
    for db in [&legacy, &sharded] {
        let mut b = WriteBatch::new();
        b.put("k", vec![1]);
        b.put("k", vec![2]);
        db.apply(&b, Height::new(1, 0));
        let mut b2 = WriteBatch::new();
        b2.put("k", vec![3]);
        b2.delete("k");
        db.apply(&b2, Height::new(2, 0));
        let mut b3 = WriteBatch::new();
        b3.delete("k");
        b3.put("k", vec![4]);
        db.apply(&b3, Height::new(3, 0));
    }
    assert_eq!(legacy.get("k"), sharded.get("k"));
    assert_eq!(legacy.get("k").unwrap().value, vec![4]);
    assert_eq!(legacy.state_hash(), sharded.state_hash());
}
