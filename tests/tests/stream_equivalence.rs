//! Serial-equivalence harness for the streaming validator.
//!
//! The Blockchain Machine's pipelined block processor must not change
//! *what* is validated, only *when*: the paper's §4.1 methodology
//! compared valid/invalid flags and commit hashes between the baseline
//! and accelerated peers and "did not find any mismatches". This harness
//! holds `fabric_peer::stream` to the same bar against the serial
//! `validate_and_commit` path, on randomized multi-block streams with
//! cross-block MVCC conflicts, invalid signatures, and duplicate tx ids,
//! generated from both the smallbank (hot-key) and DRM (wide-keyspace)
//! workloads, pushed in randomized arrival order.
//!
//! Every case asserts bit-identical:
//! * per-block validation flags (a block the orderer did not sign is
//!   refused, never flagged, so every compared block was committed),
//! * per-block commit hashes,
//! * final state-database contents (keys, values, versions),
//! * ledger height and tip commit hash.

use std::collections::HashMap;
use std::sync::Arc;

use bmac_protocol::{BmacReceiver, BmacSender};
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_peer::{BlockValidationResult, StreamConfig, StreamValidator};
use fabric_policy::Policy;
use fabric_protos::messages::Block;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use workload::{StreamScenario, Workload};

fn make_validator(scenario: &StreamScenario, workers: usize) -> ValidatorPipeline {
    let policies: HashMap<String, Policy> = scenario.policies();
    ValidatorPipeline::new(scenario.validator_msp(), policies, workers)
}

fn serial_replay(
    scenario: &StreamScenario,
    blocks: &[Block],
) -> (ValidatorPipeline, Vec<BlockValidationResult>) {
    let validator = make_validator(scenario, 2);
    let results = blocks
        .iter()
        .map(|b| {
            validator
                .validate_and_commit(b)
                .expect("serial replay of a generated stream cannot fail structurally")
        })
        .collect();
    (validator, results)
}

/// Asserts the streaming run agrees with the serial replay on flags,
/// hashes, and final state.
fn assert_equivalent(
    serial: &ValidatorPipeline,
    serial_results: &[BlockValidationResult],
    stream: &ValidatorPipeline,
    stream_results: &[BlockValidationResult],
) {
    assert_eq!(serial_results.len(), stream_results.len(), "block count");
    for (s, t) in serial_results.iter().zip(stream_results) {
        assert_eq!(s.block_num, t.block_num);
        assert_eq!(s.codes, t.codes, "block {} flags", s.block_num);
        assert_eq!(s.tx_ids, t.tx_ids, "block {} tx ids", s.block_num);
        assert_eq!(
            s.commit_hash, t.commit_hash,
            "block {} commit hash",
            s.block_num
        );
    }
    assert_eq!(
        serial.state_db().snapshot(),
        stream.state_db().snapshot(),
        "final state database contents"
    );
    assert_eq!(serial.ledger().height(), stream.ledger().height());
    assert_eq!(
        serial.ledger().tip_commit_hash(),
        stream.ledger().tip_commit_hash()
    );
    assert!(stream.ledger().verify_chain().is_ok());
}

fn scenario_strategy() -> impl Strategy<Value = (StreamScenario, usize, u64)> {
    (
        // 0 => smallbank hot-key (2–3 accounts: every tx collides),
        // 1 => drm wide-keyspace (8–12 contents, fresh license keys).
        0usize..2,
        2usize..4,
        1usize..4, // block_size
        3usize..6, // num_blocks
        prop_oneof![Just(0u8), Just(50u8), Just(100u8)],
        0usize..3,    // corrupt_sigs
        0usize..3,    // duplicate_txs
        any::<u64>(), // scenario seed
        1usize..4,    // verify lanes
        any::<u64>(), // push-order shuffle seed
    )
        .prop_map(
            |(kind, acc, block_size, num_blocks, stale, corrupt, dup, seed, lanes, shuffle)| {
                let (workload, accounts) = if kind == 0 {
                    (Workload::Smallbank, acc) // 2–3 accounts: hot keys
                } else {
                    (Workload::Drm, acc * 4) // 8–12 contents: wide keyspace
                };
                (
                    StreamScenario {
                        workload,
                        accounts,
                        block_size,
                        num_blocks,
                        stale_commit_pct: stale,
                        corrupt_sigs: corrupt,
                        duplicate_txs: dup,
                        seed,
                    },
                    lanes,
                    shuffle,
                )
            },
        )
}

proptest! {
    // Each case builds a network and does real ECDSA for every
    // signature in the stream; a handful of cases already covers both
    // workload regimes × fault mix × lane counts on both field backends
    // (CI matrix).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_is_serially_equivalent((scenario, lanes, shuffle_seed) in scenario_strategy()) {
        let generated = scenario.generate();
        let (serial, serial_results) = serial_replay(&scenario, &generated.blocks);

        let pipeline = Arc::new(make_validator(&scenario, 2));
        let stream = StreamValidator::new(
            Arc::clone(&pipeline),
            StreamConfig { verify_lanes: lanes, max_in_flight: lanes + 2 },
        );
        // Randomized arrival order: the reorder buffer must restore
        // block order before MVCC sees anything.
        let mut arrival: Vec<Block> = generated.blocks.clone();
        arrival.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        for block in arrival {
            stream.push(block).unwrap();
        }
        let report = stream.finish().expect("stream completes");
        assert_equivalent(&serial, &serial_results, &pipeline, &report.results);

        // The harness itself must have exercised real per-block work.
        prop_assert_eq!(report.stats.blocks, generated.blocks.len());
        prop_assert!(report.stats.makespan_us > 0);
    }
}

/// The network-attached ingestion path of the paper: blocks leave the
/// orderer as BMac packets, are reassembled by the protocol receiver
/// (completing out of order under interleaving), and feed the stream —
/// and the result is still bit-identical to the serial replay.
#[test]
fn bmac_receiver_feed_is_serially_equivalent() {
    let scenario = StreamScenario {
        workload: Workload::Smallbank,
        accounts: 3,
        block_size: 2,
        num_blocks: 4,
        stale_commit_pct: 40,
        corrupt_sigs: 1,
        duplicate_txs: 1,
        seed: 20260729,
    };
    let generated = scenario.generate();
    let (serial, serial_results) = serial_replay(&scenario, &generated.blocks);

    // Packetize every block, then interleave packets round-robin across
    // blocks so completions arrive out of order at the receiver.
    let mut sender = BmacSender::new();
    let mut per_block: Vec<Vec<bmac_protocol::BmacPacket>> = generated
        .blocks
        .iter()
        .map(|b| sender.send_block(b).unwrap())
        .collect();
    let mut schedule = Vec::new();
    while per_block.iter().any(|p| !p.is_empty()) {
        for packets in per_block.iter_mut() {
            if !packets.is_empty() {
                schedule.push(packets.remove(0));
            }
        }
    }

    let pipeline = Arc::new(make_validator(&scenario, 2));
    let stream = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
    let mut receiver = BmacReceiver::new();
    let mut completed = 0usize;
    for packet in schedule {
        for received in receiver.ingest(&packet.encode().unwrap()).unwrap() {
            // Byte-exact reassembly is a precondition for equivalence.
            let original = &generated.blocks[received.block.header.number as usize];
            assert_eq!(received.block.marshal(), original.marshal());
            stream.push(received.block).unwrap();
            completed += 1;
        }
    }
    assert_eq!(completed, generated.blocks.len(), "every block reassembled");
    let report = stream.finish().expect("stream completes");
    assert_equivalent(&serial, &serial_results, &pipeline, &report.results);
}

/// Deterministic regression: a valid cross-block read-your-writes chain
/// must NOT be flagged by the stream (guards against MVCC running ahead
/// of commit), and a stale chain must be flagged exactly like serial.
#[test]
fn cross_block_dependency_and_conflict_regimes() {
    for stale_pct in [0u8, 100u8] {
        let scenario = StreamScenario {
            workload: Workload::Smallbank,
            accounts: 2, // maximally hot keys
            block_size: 1,
            num_blocks: 5,
            stale_commit_pct: stale_pct,
            corrupt_sigs: 0,
            duplicate_txs: 0,
            seed: 42,
        };
        let generated = scenario.generate();
        let (serial, serial_results) = serial_replay(&scenario, &generated.blocks);
        let pipeline = Arc::new(make_validator(&scenario, 2));
        let report = StreamValidator::run(
            Arc::clone(&pipeline),
            StreamConfig {
                verify_lanes: 3,
                max_in_flight: 5,
            },
            generated.blocks.clone(),
        )
        .expect("stream completes");
        assert_equivalent(&serial, &serial_results, &pipeline, &report.results);

        let workload_results = &report.results[generated.setup_blocks..];
        let conflicts: usize = workload_results
            .iter()
            .flat_map(|r| &r.codes)
            .filter(|c| **c == fabric_peer::TxValidationCode::MvccReadConflict)
            .count();
        if stale_pct == 0 {
            assert_eq!(conflicts, 0, "fresh endorsements must all commit");
        } else {
            assert!(
                conflicts > 0,
                "fully stale endorsements on hot keys must conflict somewhere"
            );
        }
    }
}
