//! Crash-recovery fault-injection harness for the durable store.
//!
//! The serial-equivalence bar of the streaming validator
//! (`stream_equivalence.rs`) extends here to restarts: **crash at any
//! byte offset, reopen, and the recovered ledger/state must equal the
//! exact serial prefix a replay would have committed** — bit-identical
//! validation flags, commit hashes, and state-database contents. The
//! harness drives:
//!
//! * truncation of the journal and of every block segment at a dense
//!   stride of byte offsets (including offset 0: an empty active
//!   segment, the torn-multi-segment-write case);
//! * randomized double crashes (journal *and* active segment truncated
//!   at independent offsets) over randomized scenarios, group-commit
//!   sizes and segment sizes, via proptest;
//! * fsync-free loss: committing without a final flush may lose the
//!   buffered tail but never breaks prefix equivalence;
//! * checkpoint faults: corrupted checkpoints fall back to full journal
//!   replay, checkpoints ahead of the store are discarded;
//! * a CRC-fixed bit flip inside a stored block (corruption framing
//!   cannot catch), rejected at reopen with the offending block number;
//! * format stability: the segment bytes equal the frame and the
//!   nested marshaling restated from their definitions, byte for byte;
//! * journal record atomicity: truncation at every prefix length never
//!   yields a state mixing two batches;
//! * restart + resume: a recovered peer resumes the stream via
//!   `BmacReceiver::resuming_from` and converges to the full-chain
//!   state.
//!
//! The store always builds the sharded state database. That journal,
//! checkpoint and snapshot contents mean the same on the legacy
//! reference store is `statedb_equivalence.rs`'s job
//! (`snapshot_restore_crosses_backends`,
//! `journal_order_is_apply_order_under_parallel_commit`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabric_peer::pipeline::ValidatorPipeline;
use fabric_peer::{StreamConfig, StreamValidator, TxValidationCode};
use fabric_protos::messages::Block;
use fabric_statedb::VersionedValue;
use fabric_store::{FabricStore, StoreConfig, StoreOpenError};
use proptest::prelude::*;
use workload::{StreamScenario, Workload};

const SIG_CACHE: usize = 8192;

fn tempdir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "bmac-store-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

/// Block segment files under a store root, in index order.
fn segment_files(root: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(root.join("blocks"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs
}

fn make_validator(scenario: &StreamScenario, store: &FabricStore) -> ValidatorPipeline {
    ValidatorPipeline::with_storage(
        scenario.validator_msp(),
        scenario.policies(),
        2,
        SIG_CACHE,
        store.state_db(),
        store.ledger(),
    )
}

/// The serial-replay oracle: after each block, the commit hash, flags,
/// and full state snapshot a correct peer must hold.
struct Reference {
    blocks: Vec<Block>,
    codes: Vec<Vec<TxValidationCode>>,
    commit_hashes: Vec<[u8; 32]>,
    /// `snapshots[j]` = state after committing blocks `0..j`.
    snapshots: Vec<Vec<(String, VersionedValue)>>,
}

fn reference(scenario: &StreamScenario) -> Reference {
    let generated = scenario.generate();
    let serial = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
    let mut codes = Vec::new();
    let mut commit_hashes = Vec::new();
    let mut snapshots = vec![serial.state_db().snapshot()];
    for block in &generated.blocks {
        let r = serial.validate_and_commit(block).expect("serial replay");
        codes.push(r.codes.clone());
        commit_hashes.push(r.commit_hash);
        snapshots.push(serial.state_db().snapshot());
    }
    Reference {
        blocks: generated.blocks,
        codes,
        commit_hashes,
        snapshots,
    }
}

/// Commits the whole stream durably under `dir` (serial path), with an
/// optional checkpoint after `checkpoint_after` blocks, flushing at the
/// end unless `skip_final_flush`.
fn durable_commit(
    dir: &Path,
    scenario: &StreamScenario,
    reference: &Reference,
    config: StoreConfig,
    checkpoint_after: Option<usize>,
    skip_final_flush: bool,
) {
    let store = FabricStore::open(dir, config).unwrap();
    let validator = make_validator(scenario, &store);
    for (i, block) in reference.blocks.iter().enumerate() {
        let r = validator
            .validate_and_commit(block)
            .expect("durable commit");
        assert_eq!(
            r.commit_hash, reference.commit_hashes[i],
            "durable == serial"
        );
        if checkpoint_after == Some(i + 1) {
            store.checkpoint().unwrap();
        }
    }
    if !skip_final_flush {
        store.flush().unwrap();
    }
}

/// The central assertion: whatever prefix survived, it must be *a*
/// serial prefix — flags, commit hashes, chain, and state all agreeing
/// with the oracle at the recovered height. Returns the height.
fn assert_recovers_to_serial_prefix(dir: &Path, reference: &Reference) -> u64 {
    let store = FabricStore::open(dir, StoreConfig::default())
        .unwrap_or_else(|e| panic!("recovery must succeed after a crash, got {e}"));
    let ledger = store.ledger();
    let k = ledger.height();
    assert!(
        k <= reference.blocks.len() as u64,
        "cannot recover unseen blocks"
    );
    for n in 0..k {
        let cb = ledger.block(n).expect("recovered block readable");
        assert_eq!(cb.tx_filter, reference.codes[n as usize], "block {n} flags");
        assert_eq!(
            cb.commit_hash, reference.commit_hashes[n as usize],
            "block {n} commit hash"
        );
    }
    assert!(ledger.verify_chain().is_ok(), "recovered chain verifies");
    assert_eq!(
        store.state_db().snapshot(),
        reference.snapshots[k as usize],
        "recovered state == serial prefix state at height {k}"
    );
    k
}

fn small_scenario(seed: u64) -> StreamScenario {
    StreamScenario {
        workload: Workload::Smallbank,
        accounts: 3,
        block_size: 2,
        num_blocks: 6,
        stale_commit_pct: 30,
        corrupt_sigs: 1,
        duplicate_txs: 1,
        seed,
    }
}

/// Crash injected at a dense stride of byte offsets in the journal and
/// in every block segment — each truncation must recover to a serial
/// prefix. Small segments force multiple segments, so cuts land on
/// sealed/active boundaries (torn multi-segment writes) too.
#[test]
fn crash_at_any_offset_recovers_the_serial_prefix() {
    let scenario = small_scenario(77);
    let oracle = reference(&scenario);
    let dir = tempdir("matrix");
    durable_commit(
        &dir,
        &scenario,
        &oracle,
        StoreConfig {
            group_commit: 4,
            segment_max_bytes: 8 * 1024,
        },
        Some(oracle.blocks.len() / 2),
        false,
    );

    let mut targets: Vec<PathBuf> = segment_files(&dir);
    targets.push(dir.join("journal.log"));
    assert!(
        targets.len() >= 3,
        "want multiple segments, got {targets:?}"
    );

    let mut shorter_seen = false;
    for target in &targets {
        let len = std::fs::metadata(target).unwrap().len();
        let step = (len / 23).max(1);
        let mut offsets: Vec<u64> = (0..len).step_by(step as usize).collect();
        offsets.push(len.saturating_sub(1));
        for cut in offsets {
            let crashed = tempdir("matrix-cut");
            copy_dir(&dir, &crashed);
            truncate_file(&crashed.join(target.strip_prefix(&dir).unwrap()), cut);
            let k = assert_recovers_to_serial_prefix(&crashed, &oracle);
            shorter_seen |= k < oracle.blocks.len() as u64;
            std::fs::remove_dir_all(&crashed).unwrap();
        }
    }
    assert!(shorter_seen, "the fault matrix never actually lost a block");
    // The untouched directory recovers the whole chain.
    let k = assert_recovers_to_serial_prefix(&dir, &oracle);
    assert_eq!(k, oracle.blocks.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The on-disk format did not move when `append` stopped copying: the
/// bytes in the segments are, block for block, the frame the store has
/// always written (`len u32 LE ‖ crc32 u32 LE ‖ payload`) around the
/// marshaling `Block` has always had (each section marshaled on its own
/// and nested as a length-delimited field) — both restated here from
/// their definitions, sharing no code with the store: the CRC is the
/// bit-at-a-time polynomial division, the blocks come from an in-memory
/// ledger that never marshaled them.
#[test]
fn segment_bytes_are_the_original_frame_around_the_original_marshaling() {
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| {
            (0..8).fold(crc ^ u32::from(b), |c, _| {
                (c >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(c & 1))
            })
        })
    }
    fn nested_marshal(block: &Block) -> Vec<u8> {
        let mut w = fabric_protos::wire::ProtoWriter::new();
        w.bytes(1, &block.header.marshal());
        w.bytes(2, &block.data.marshal());
        w.bytes(3, &block.metadata.marshal());
        w.into_bytes()
    }
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);

    let scenario = small_scenario(909);
    let oracle = reference(&scenario);
    let dir = tempdir("format");
    durable_commit(
        &dir,
        &scenario,
        &oracle,
        StoreConfig {
            group_commit: 3,
            segment_max_bytes: 8 * 1024,
        },
        None,
        false,
    );
    let segments = segment_files(&dir);
    assert!(segments.len() >= 2, "want a sealed and an active segment");
    let on_disk: Vec<u8> = segments
        .iter()
        .flat_map(|seg| std::fs::read(seg).unwrap())
        .collect();

    let memory = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
    let mut expected = Vec::new();
    for block in &oracle.blocks {
        let number = memory.validate_and_commit(block).unwrap().block_num;
        let stamped = memory.ledger().block(number).unwrap().block;
        let payload = nested_marshal(&stamped);
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
        expected.extend_from_slice(&payload);
    }
    assert_eq!(on_disk.len(), expected.len());
    assert!(on_disk == expected, "segment bytes changed");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// fsync-free semantics: dropping the peer without the final flush
/// loses exactly the buffered group tails — the recovered height is the
/// last group boundary, and prefix equivalence holds regardless.
#[test]
fn unflushed_tail_loss_stops_at_the_last_group_boundary() {
    let scenario = small_scenario(101);
    let oracle = reference(&scenario);
    let n = oracle.blocks.len();
    let groups = [1usize, 3, 4, 5];
    assert!(
        groups.iter().any(|g| !n.is_multiple_of(*g)),
        "some group must leave a partial tail to lose"
    );
    for group in groups {
        let dir = tempdir("unflushed");
        durable_commit(
            &dir,
            &scenario,
            &oracle,
            StoreConfig {
                group_commit: group,
                ..StoreConfig::default()
            },
            None,
            true, // drop without flushing
        );
        let k = assert_recovers_to_serial_prefix(&dir, &oracle);
        // Both files count their group in blocks — the block store one
        // per append, the journal one per `apply_block` call whatever
        // the number of valid transactions in it — so both last wrote at
        // block `(n / group) * group`. (The block store may be further:
        // it also writes when its buffer passes a byte ceiling. Blocks
        // the journal does not cover are cut by the min-rule.)
        let expected = ((n / group) * group) as u64;
        assert_eq!(
            k, expected,
            "group={group}: recovered height vs group-boundary prediction"
        );
        if group == 1 {
            assert_eq!(k, n as u64, "group-commit 1 must lose nothing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Checkpoint faults: a corrupt checkpoint falls back to full journal
/// replay; a checkpoint ahead of the (crashed) block store is
/// discarded. Both still recover serial prefixes.
#[test]
fn checkpoint_journal_disagreement_is_reconciled() {
    let scenario = small_scenario(303);
    let oracle = reference(&scenario);
    let dir = tempdir("ckpt");
    durable_commit(
        &dir,
        &scenario,
        &oracle,
        StoreConfig {
            group_commit: 2,
            segment_max_bytes: 8 * 1024,
        },
        Some(oracle.blocks.len() - 1),
        false,
    );

    // (a) Bit-rotted checkpoint: discarded, full-journal replay matches.
    let rotted = tempdir("ckpt-rot");
    copy_dir(&dir, &rotted);
    let ckpt = rotted.join("checkpoint.bin");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();
    let store = FabricStore::open(&rotted, StoreConfig::default()).unwrap();
    assert!(
        store.recovery().checkpoint_discarded,
        "corrupt ckpt flagged"
    );
    drop(store);
    let k = assert_recovers_to_serial_prefix(&rotted, &oracle);
    assert_eq!(
        k,
        oracle.blocks.len() as u64,
        "journal replay covers everything"
    );
    std::fs::remove_dir_all(&rotted).unwrap();

    // (b) Checkpoint ahead of the store: crash the *block* files back to
    // a couple of segments while the checkpoint describes the full
    // chain. The checkpoint must be discarded, not rolled forward.
    let behind = tempdir("ckpt-ahead");
    copy_dir(&dir, &behind);
    let segs = segment_files(&behind);
    assert!(segs.len() >= 3);
    for seg in &segs[1..] {
        truncate_file(seg, 0);
    }
    let store = FabricStore::open(&behind, StoreConfig::default()).unwrap();
    assert!(
        store.recovery().checkpoint_discarded,
        "a checkpoint above the surviving store must be discarded"
    );
    drop(store);
    let k = assert_recovers_to_serial_prefix(&behind, &oracle);
    assert!(k < oracle.blocks.len() as u64);
    std::fs::remove_dir_all(&behind).unwrap();

    // (c) Journal crashed below the checkpoint: state recovers to the
    // snapshot exactly (the serial prefix at the checkpoint height).
    let jlost = tempdir("ckpt-jlost");
    copy_dir(&dir, &jlost);
    truncate_file(&jlost.join("journal.log"), 64);
    let store = FabricStore::open(&jlost, StoreConfig::default()).unwrap();
    let ck = store.recovery().checkpoint_height.expect("ckpt used");
    // Past the snapshot a block survives only while it needs no journal
    // record, i.e. has no valid transaction.
    let recordless = oracle.codes[ck.block_num as usize + 1..]
        .iter()
        .take_while(|codes| !codes.iter().any(|c| c.is_valid()))
        .count() as u64;
    assert_eq!(store.ledger().height(), ck.block_num + 1 + recordless);
    drop(store);
    assert_recovers_to_serial_prefix(&jlost, &oracle);
    std::fs::remove_dir_all(&jlost).unwrap();

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: a bit flip *inside a stored block's payload*, with the
/// record CRC recomputed so framing cannot catch it, must be rejected
/// at reopen by chain verification — naming the offending block.
#[test]
fn crc_fixed_bit_flip_is_rejected_with_the_block_number() {
    let scenario = small_scenario(505);
    let oracle = reference(&scenario);
    let dir = tempdir("bitflip");
    durable_commit(
        &dir,
        &scenario,
        &oracle,
        StoreConfig::default(),
        None,
        false,
    );

    // All blocks live in seg-00000 (default 4 MiB segments). Rewrite
    // the record of block 2 with one payload bit flipped and a *valid*
    // CRC.
    let seg = &segment_files(&dir)[0];
    let bytes = std::fs::read(seg).unwrap();
    let scan = fabric_store::frame::scan(&bytes);
    assert!(scan.records.len() > 3);
    let mut rewritten = Vec::new();
    for (i, (_, payload)) in scan.records.iter().enumerate() {
        let mut payload = payload.to_vec();
        if i == 2 {
            let mid = payload.len() / 2;
            payload[mid] ^= 0x04; // lands inside an envelope: data_hash breaks
        }
        rewritten.extend_from_slice(&fabric_store::frame::encode_record(&payload));
    }
    std::fs::write(seg, &rewritten).unwrap();

    match FabricStore::open(&dir, StoreConfig::default()) {
        Err(StoreOpenError::Chain { block }) | Err(StoreOpenError::CorruptBlock { block }) => {
            assert_eq!(block, 2, "corruption pinned to the flipped block");
        }
        Ok(_) => panic!("a tampered interior block must not recover"),
        Err(other) => panic!("wrong error class: {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: restart + resume. Crash mid-chain, reopen, and feed the
/// remaining blocks through a fresh `StreamValidator` fed by a
/// `BmacReceiver::resuming_from` at the recovered height — the final
/// state must equal the full serial replay, and the resumed chain must
/// link to the recovered tip.
#[test]
fn recovered_peer_resumes_the_stream_to_the_full_chain() {
    use bmac_protocol::{BmacReceiver, BmacSender};

    let scenario = small_scenario(707);
    let oracle = reference(&scenario);
    let dir = tempdir("resume");
    durable_commit(
        &dir,
        &scenario,
        &oracle,
        StoreConfig {
            group_commit: 2,
            segment_max_bytes: 8 * 1024,
        },
        None,
        false,
    );

    // Crash: tear the tail of the last segment and the journal.
    let segs = segment_files(&dir);
    let last = segs.last().unwrap();
    let len = std::fs::metadata(last).unwrap().len();
    truncate_file(last, len * 2 / 3);
    let jlen = std::fs::metadata(dir.join("journal.log")).unwrap().len();
    truncate_file(&dir.join("journal.log"), jlen - 11);

    let store = FabricStore::open(&dir, StoreConfig::default()).unwrap();
    let k = store.ledger().height();
    assert!(k < oracle.blocks.len() as u64, "the crash lost something");
    let recovered_tip = store.ledger().tip_hash();
    assert_eq!(
        oracle.blocks[k as usize].header.previous_hash,
        recovered_tip.to_vec(),
        "next block links to the recovered tip"
    );

    // Resume: protocol receiver attaches mid-chain, stream starts at
    // the ledger's next block.
    let pipeline = Arc::new(make_validator(&scenario, &store));
    let stream = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
    let mut sender = BmacSender::new();
    let mut receiver = BmacReceiver::resuming_from(k);
    for block in &oracle.blocks[k as usize..] {
        for packet in sender.send_block(block).unwrap() {
            for received in receiver.ingest(&packet.encode().unwrap()).unwrap() {
                stream.push(received.block).unwrap();
            }
        }
    }
    let report = stream.finish().expect("resumed stream completes");
    assert_eq!(report.results.len(), oracle.blocks.len() - k as usize);

    let n = oracle.blocks.len();
    assert_eq!(
        pipeline.ledger().tip_commit_hash(),
        oracle.commit_hashes[n - 1],
        "resumed chain reaches the full-replay tip"
    );
    assert_eq!(pipeline.state_db().snapshot(), oracle.snapshots[n]);
    drop(pipeline);
    drop(store);
    // And the resumed chain is durable in turn.
    let k2 = assert_recovers_to_serial_prefix(&dir, &oracle);
    assert_eq!(k2, n as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

// Satellite: journal batch atomicity. Encoding a batch sequence and
// crash-truncating at *every* prefix length must always replay to the
// state of some whole-batch prefix — never a state mixing two batches.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn journal_truncation_is_atomic_at_batch_granularity(
        seed in any::<u64>(),
        nbatches in 1usize..6,
    ) {
        use fabric_statedb::{Height, StateDb, WriteBatch};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        // Batches deliberately collide on a small key space so mixing
        // two batches actually changes observable state.
        let mut batches: Vec<(WriteBatch, Height)> = Vec::new();
        for b in 0..nbatches {
            let mut batch = WriteBatch::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let key = format!("k{}", rng.gen_range(0..3u8));
                if rng.gen_range(0..4u8) == 0 {
                    batch.delete(key);
                } else {
                    batch.put(key, vec![rng.gen_range(0..=255u8); rng.gen_range(1..9usize)]);
                }
            }
            batches.push((batch, Height::new(b as u64, 0)));
        }

        let stream: Vec<u8> = batches
            .iter()
            .flat_map(|(b, h)| {
                fabric_store::frame::encode_record(&fabric_store::journal::encode_batch(b, *h))
            })
            .collect();

        // Oracle states: after applying each whole-batch prefix.
        let prefix_state = |m: usize| {
            let db = StateDb::new();
            for (batch, height) in &batches[..m] {
                db.apply(batch, *height);
            }
            db.snapshot()
        };
        let oracles: Vec<_> = (0..=nbatches).map(prefix_state).collect();

        for cut in 0..=stream.len() {
            let scan = fabric_store::frame::scan(&stream[..cut]);
            prop_assert!(!matches!(scan.tail, fabric_store::frame::Tail::Corrupt { .. }));
            let m = scan.records.len();
            let db = StateDb::new();
            for (_, payload) in &scan.records {
                let (height, batch) = fabric_store::journal::decode_batch(payload)
                    .expect("CRC-valid record decodes");
                db.replay(&batch, height);
            }
            // The replayed state IS the m-batch prefix state: no torn
            // half-batch can ever have been applied.
            prop_assert_eq!(db.snapshot(), oracles[m].clone(), "cut={}, m={}", cut, m);
        }
    }
}

// Randomized double crashes over randomized scenarios and store
// configurations (the proptest arm of the acceptance criterion).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_double_crash_recovers_the_serial_prefix(
        seed in any::<u64>(),
        group in 1usize..9,
        tiny_segments in any::<bool>(),
        jcut_frac in 0.0f64..1.0,
        scut_frac in 0.0f64..1.0,
        checkpoint in any::<bool>(),
    ) {
        let scenario = StreamScenario {
            workload: Workload::Smallbank,
            accounts: 3,
            block_size: 2,
            num_blocks: 4,
            stale_commit_pct: 50,
            corrupt_sigs: 1,
            duplicate_txs: 0,
            seed,
        };
        let oracle = reference(&scenario);
        let dir = tempdir("double");
        durable_commit(
            &dir,
            &scenario,
            &oracle,
            StoreConfig {
                group_commit: group,
                segment_max_bytes: if tiny_segments { 4 * 1024 } else { 4 * 1024 * 1024 },
            },
            checkpoint.then_some(oracle.blocks.len() / 2),
            false,
        );
        // Independent cuts in the journal and the last (active) segment:
        // crash ordering across two files guarantees nothing.
        let jpath = dir.join("journal.log");
        let jlen = std::fs::metadata(&jpath).unwrap().len();
        truncate_file(&jpath, (jlen as f64 * jcut_frac) as u64);
        let segs = segment_files(&dir);
        let last = segs.last().unwrap();
        let slen = std::fs::metadata(last).unwrap().len();
        truncate_file(last, (slen as f64 * scut_frac) as u64);

        assert_recovers_to_serial_prefix(&dir, &oracle);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Crash between the block-store append and the journal flush, at every
/// block boundary: commit a prefix of `p` blocks durably, then flush
/// only *one* side (or neither) before dropping every handle — the
/// torn-tail interleavings a crash can produce with the two files at
/// independent group-commit boundaries. Whatever the interleaving, the
/// min-rule must reconcile the pair to a serial prefix no longer than
/// what was committed.
#[test]
fn one_sided_flush_at_every_block_boundary_recovers_a_serial_prefix() {
    #[derive(Clone, Copy, Debug)]
    enum Crash {
        /// Neither file flushed: both tails torn.
        Neither,
        /// State journal flushed, block store buffered: journal ahead.
        JournalOnly,
        /// Block store flushed, journal buffered: ledger ahead.
        LedgerOnly,
    }
    let scenario = small_scenario(303);
    let oracle = reference(&scenario);
    let n = oracle.blocks.len();
    // group_commit 3 keeps a real buffered tail at most boundaries, so
    // the one-sided flush actually skews the two files.
    let config = StoreConfig {
        group_commit: 3,
        segment_max_bytes: 8 * 1024,
    };
    let mut skew_seen = false;
    for p in 0..=n {
        for crash in [Crash::Neither, Crash::JournalOnly, Crash::LedgerOnly] {
            let dir = tempdir("one-sided");
            {
                let store = FabricStore::open(&dir, config).unwrap();
                let validator = make_validator(&scenario, &store);
                for block in &oracle.blocks[..p] {
                    validator
                        .validate_and_commit(block)
                        .expect("prefix commits");
                }
                match crash {
                    Crash::Neither => {}
                    Crash::JournalOnly => store.state_db().flush_journal(),
                    Crash::LedgerOnly => store.ledger().flush().unwrap(),
                }
                // Handles dropped without `store.flush()`: the crash.
            }
            let k = assert_recovers_to_serial_prefix(&dir, &oracle);
            assert!(
                k <= p as u64,
                "recovered {k} blocks but only {p} were committed ({crash:?})"
            );
            skew_seen |= k < p as u64;
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(
        skew_seen,
        "the interleaving matrix never actually lost a buffered tail"
    );
}

/// Aborting (or plainly dropping) a mid-flight streaming session is a
/// crash: storage is deliberately not flushed, the tail is torn at
/// whatever group-commit boundaries the OS already has, and recovery
/// must land on a serial prefix no longer than what the sequencer had
/// committed at the instant of the abort.
#[test]
fn stream_abort_mid_flight_leaves_a_recoverable_torn_tail() {
    let scenario = small_scenario(404);
    let oracle = reference(&scenario);
    let n = oracle.blocks.len();
    let config = StoreConfig {
        group_commit: 2,
        segment_max_bytes: 8 * 1024,
    };
    for (pushed, explicit_abort) in [(1, true), (n / 2, true), (n, true), (n, false)] {
        let dir = tempdir("stream-abort");
        let committed = {
            let store = FabricStore::open(&dir, config).unwrap();
            let validator = std::sync::Arc::new(make_validator(&scenario, &store));
            let stream = StreamValidator::new(validator, StreamConfig::default());
            for block in oracle.blocks.iter().take(pushed) {
                stream.push(block.clone()).unwrap();
            }
            if explicit_abort {
                stream.abort()
            } else {
                // Dropping an unfinished session must have the same
                // crash semantics as `abort`.
                drop(stream);
                usize::MAX
            }
        };
        let k = assert_recovers_to_serial_prefix(&dir, &oracle);
        assert!(k <= pushed as u64, "cannot recover unpushed blocks");
        if explicit_abort {
            assert!(
                k <= committed as u64,
                "recovered {k} blocks but the sequencer only committed {committed}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
