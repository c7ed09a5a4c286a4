//! The single-threaded layer probe of a traced run: each layer's public
//! functions called in isolation over the first [`PROBE_BLOCKS`] blocks
//! the workload just ran, plus a serial `validate_and_commit` replay of
//! them whose stage timings must account for its wall time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fabric_crypto::{sha256, NodeId, Signature, VerifyingKey};
use fabric_ledger::Ledger;
use fabric_peer::{SignatureCache, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_protos::txflow::{decode_block_struct, DecodedBlock};
use fabric_statedb::StateDb;

use crate::gen::Stream;
use crate::metrics::Metrics;
use crate::run::Outcome;
use crate::trace::SpanLog;

/// Signatures the ECDSA probe verifies.
const VERIFY_SAMPLE: usize = 2_000;
/// Blocks the probe works on: enough for steady means, and a serial
/// replay of a whole stream with every signature verified would take as
/// long as the timed passes.
const PROBE_BLOCKS: usize = 50;

/// Runs the probe. `cache` is what the serial replay verifies through
/// (the warm cache on `peer_warm_drm`, a fresh one elsewhere);
/// `durable_ledger_us` is the mean ledger stage of the durable passes,
/// from which the in-memory replay's is subtracted to get the store's
/// append cost.
pub fn run(
    stream: &Stream,
    cache: Arc<SignatureCache>,
    durable_ledger_us: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let blocks = &stream.blocks[..stream.blocks.len().min(PROBE_BLOCKS)];
    let m = &mut out.metrics;
    let decoded = probe_decode(blocks, m);
    probe_crypto(&decoded, m);
    probe_policy(stream, &decoded, m);

    // Serial replay on in-memory storage, one vscc worker.
    let pipeline = ValidatorPipeline::with_shared_cache(
        stream.msp(),
        stream.policies(),
        1,
        cache,
        StateDb::new(),
        Ledger::new(),
    );
    let mut wall_ns = 0u64;
    let mut staged_us = 0u64;
    let mut ledger_us = 0u64;
    for (block, expected) in blocks.iter().zip(&stream.codes) {
        let t0 = Instant::now();
        let result = pipeline
            .validate_and_commit(block)
            .expect("serial replay validates");
        let t1 = Instant::now();
        wall_ns += (t1 - t0).as_nanos() as u64;
        if &result.codes != expected {
            eprintln!(
                "ORACLE DIVERGENCE in the serial replay at block {}",
                result.block_num
            );
            out.correct = false;
        }
        let t = &result.timings;
        staged_us += t.total_excl_ledger_us() + t.ledger_us;
        ledger_us += t.ledger_us;
        log.record("probe.validate_and_commit", "", result.block_num, t0, t1);
        let mut cursor = log.ns(t0);
        for (name, us) in [
            ("probe.unmarshal", t.unmarshal_us),
            ("probe.block_verify", t.block_verify_us),
            ("probe.vscc", t.verify_vscc_us),
            ("probe.mvcc", t.mvcc_us),
            ("probe.statedb_commit", t.statedb_commit_us),
            ("probe.ledger", t.ledger_us),
        ] {
            log.record_reported(
                name,
                "probe.validate_and_commit",
                result.block_num,
                &mut cursor,
                us * 1_000,
            );
        }
    }
    let replayed = blocks.len() as f64;
    let share = staged_us as f64 * 1e3 / wall_ns as f64;
    m.set("probe.serial_replay_ms", wall_ns as f64 / 1e6);
    m.set("probe.stage_sum_share", share);
    m.set("ledger.commit_us_per_block", ledger_us as f64 / replayed);
    m.set(
        "store.append_us_per_block",
        durable_ledger_us - ledger_us as f64 / replayed,
    );
    let within = (0.9..=1.1).contains(&share);
    out.notes.push(format!(
        "probe: stage timings sum to {:.1} % of the serial replay's wall over {replayed} blocks ({})",
        share * 100.0,
        if within {
            "within 10 %"
        } else {
            "FAILED: outside 10 %, the stage timings no longer account for the call"
        }
    ));
    out.correct &= within;
}

fn probe_decode(blocks: &[Block], m: &mut Metrics) -> Vec<DecodedBlock> {
    let t0 = Instant::now();
    let decoded: Vec<DecodedBlock> = blocks
        .iter()
        .map(|b| decode_block_struct(black_box(b), 0).expect("generated blocks decode"))
        .collect();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    m.set("protos.decode_us_per_block", us / blocks.len() as f64);
    decoded
}

fn probe_crypto(decoded: &[DecodedBlock], m: &mut Metrics) {
    let mut sample: Vec<(&VerifyingKey, [u8; 32], &Signature)> = Vec::new();
    'collect: for block in decoded {
        for tx in &block.txs {
            sample.push((
                &tx.creator_cert.public_key,
                sha256(&tx.signed_payload),
                &tx.client_signature,
            ));
            for e in &tx.endorsements {
                sample.push((
                    &e.endorser_cert.public_key,
                    sha256(&e.signed_message),
                    &e.signature,
                ));
            }
            if sample.len() >= VERIFY_SAMPLE {
                break 'collect;
            }
        }
    }
    let t0 = Instant::now();
    for (key, digest, sig) in &sample {
        black_box(key.verify_prehashed(black_box(digest), sig)).expect("stream signatures verify");
    }
    m.set(
        "crypto.verify_us",
        t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
    );

    let buf = vec![0x5au8; 4096];
    const ROUNDS: usize = 4_000;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        black_box(sha256(black_box(&buf)));
    }
    let mb = (ROUNDS * buf.len()) as f64 / 1e6;
    m.set("crypto.sha256_mb_per_s", mb / t0.elapsed().as_secs_f64());
}

fn probe_policy(stream: &Stream, decoded: &[DecodedBlock], m: &mut Metrics) {
    let policies = stream.policies();
    let sets: Vec<(&fabric_policy::Policy, Vec<NodeId>)> = decoded
        .iter()
        .flat_map(|b| &b.txs)
        .map(|tx| {
            let endorsers = tx
                .endorsements
                .iter()
                .map(|e| e.endorser_cert.node_id)
                .collect();
            (&policies[tx.chaincode.as_str()], endorsers)
        })
        .collect();
    let t0 = Instant::now();
    for (policy, endorsers) in &sets {
        black_box(policy.evaluate_sequential(black_box(endorsers)));
    }
    m.set(
        "policy.eval_ns",
        t0.elapsed().as_nanos() as f64 / sets.len() as f64,
    );
}
