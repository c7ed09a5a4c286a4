//! Restart + recovery walkthrough: the scenario a production peer lives
//! by — commit a smallbank stream durably, die mid-stream, come back,
//! recover, and resume exactly where the crash left the chain.
//!
//! 1. open a `FabricStore` and validate half the stream through a
//!    durable `StreamValidator` (every committed block journaled and
//!    appended to the segmented block store);
//! 2. simulate the crash: drop the peer and tear the tails of the block
//!    segment and the state journal at raw byte offsets;
//! 3. reopen: the min-rule recovers the longest consistent serial
//!    prefix, the ledger re-verifies the whole hash chain;
//! 4. resume: a fresh peer attaches mid-chain with
//!    `BmacReceiver::resuming_from(next_block)` and streams the rest,
//!    asserting tip-hash continuity and final-state equality with an
//!    uninterrupted serial replay.
//!
//! Run with: `cargo run --example restart_recovery`

use std::sync::Arc;

use bmac_protocol::{BmacReceiver, BmacSender};
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_peer::{StreamConfig, StreamValidator};
use fabric_store::{FabricStore, StoreConfig};
use workload::{StreamScenario, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = StreamScenario {
        workload: Workload::Smallbank,
        accounts: 4,
        block_size: 4,
        num_blocks: 8,
        stale_commit_pct: 25,
        corrupt_sigs: 1,
        duplicate_txs: 1,
        seed: 2026,
    };
    let generated = scenario.generate();
    let blocks = &generated.blocks;
    println!(
        "generated {} blocks ({} setup) of smallbank traffic",
        blocks.len(),
        generated.setup_blocks
    );

    // The uninterrupted oracle: a plain in-memory serial replay.
    let oracle = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
    for block in blocks {
        oracle.validate_and_commit(block)?;
    }

    let root = std::env::temp_dir().join(format!("bmac-restart-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // ~17 KiB blocks, 64 KiB segments: a handful of blocks per segment,
    // so the stream spans several segments and the crash lands in the
    // active one.
    let config = StoreConfig {
        group_commit: 4,
        segment_max_bytes: 64 * 1024,
    };

    // ---- Session 1: durable peer, dies mid-stream -------------------
    let half = blocks.len() / 2;
    {
        let store = FabricStore::open(&root, config)?;
        let pipeline = Arc::new(ValidatorPipeline::with_storage(
            scenario.validator_msp(),
            scenario.policies(),
            2,
            8192,
            store.state_db(),
            store.ledger(),
        ));
        let stream = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        for block in &blocks[..half] {
            for packet in sender.send_block(block)? {
                for received in receiver.ingest(&packet.encode()?)? {
                    stream.push(received.block)?;
                }
            }
        }
        let report = stream.finish()?;
        println!(
            "session 1: committed {} blocks durably, then the peer dies",
            report.results.len()
        );
        store.checkpoint()?;
    }
    // The crash: tear raw bytes off the tails the peer was writing —
    // the active block segment (the highest-numbered one) and the
    // state journal.
    let mut torn_seg = None;
    for i in 0.. {
        let p = root.join(format!("blocks/seg-{i:05}.log"));
        if !p.exists() {
            break;
        }
        // The last non-empty segment: if the crash raced a segment
        // seal, the newest file may hold nothing yet.
        if std::fs::metadata(&p)?.len() > 0 {
            torn_seg = Some(p);
        }
    }
    for path in [
        torn_seg.expect("at least one segment"),
        root.join("journal.log"),
    ] {
        let len = std::fs::metadata(&path)?.len();
        let torn = len.saturating_sub(len / 10 + 3);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)?
            .set_len(torn)?;
        println!(
            "  crash tears {}: {len} -> {torn} bytes",
            path.file_name().unwrap().to_string_lossy()
        );
    }

    // ---- Session 2: reopen, recover, resume -------------------------
    let store = FabricStore::open(&root, config)?;
    let report = store.recovery();
    println!(
        "session 2: recovered {} of {} stored blocks \
         (checkpoint at {:?}, {} journal records replayed, {} trailing journal bytes dropped)",
        report.recovered_blocks,
        report.store_blocks_found,
        report.checkpoint_height.map(|h| h.block_num),
        report.journal_records_replayed,
        report.journal_truncated_bytes,
    );
    let next = store.ledger().next_block_number();
    assert!(next <= half as u64, "cannot recover blocks never committed");

    // Tip-hash continuity: the next block of the original stream chains
    // onto the recovered tip, so the resumed session extends the same
    // chain rather than forking a new one.
    let recovered_tip = store.ledger().tip_hash();
    assert_eq!(
        blocks[next as usize].header.previous_hash,
        recovered_tip.to_vec(),
        "block {next} must link to the recovered tip"
    );
    assert!(store.ledger().verify_chain().is_ok());

    let pipeline = Arc::new(ValidatorPipeline::with_storage(
        scenario.validator_msp(),
        scenario.policies(),
        2,
        8192,
        store.state_db(),
        store.ledger(),
    ));
    let stream = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
    let mut sender = BmacSender::new();
    // Attach mid-chain: the receiver's dedup window starts at the
    // recovered height instead of replaying the whole chain's ids.
    let mut receiver = BmacReceiver::resuming_from(next);
    for block in &blocks[next as usize..] {
        for packet in sender.send_block(block)? {
            for received in receiver.ingest(&packet.encode()?)? {
                stream.push(received.block)?;
            }
        }
    }
    let resumed = stream.finish()?;
    println!(
        "session 2: resumed blocks {}..{} through the stream validator",
        next,
        next as usize + resumed.results.len()
    );

    // The recovered-then-resumed peer is indistinguishable from one
    // that never crashed.
    assert_eq!(pipeline.ledger().height(), oracle.ledger().height());
    assert_eq!(
        pipeline.ledger().tip_commit_hash(),
        oracle.ledger().tip_commit_hash(),
        "commit-hash chain continuity across the restart"
    );
    assert_eq!(
        pipeline.state_db().snapshot(),
        oracle.state_db().snapshot(),
        "state equality with the uninterrupted replay"
    );
    println!(
        "tip commit hash matches the uninterrupted replay: {}",
        hex(&pipeline.ledger().tip_commit_hash())
    );

    std::fs::remove_dir_all(&root)?;
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
