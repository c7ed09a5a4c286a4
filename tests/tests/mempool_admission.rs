//! Admission idempotence: resubmission never changes what gets ordered.
//!
//! The mempool sits in front of ordering precisely so that client
//! retries, gossip echoes and replay attacks cannot alter the chain.
//! This suite pins that property end to end:
//!
//! * a **proptest matrix** over `(resubmission cadence, verify batch,
//!   worker count)` — every knob combination must order *exactly* the
//!   first occurrence of each validly-signed transaction of the
//!   generated stream, in admission order, with no duplicate tx id ever
//!   reaching a block (no double-commit) and no younger distinct
//!   transaction lost (no eviction by duplicates);
//! * the **kill+rejoin leg**: the mempool-fed stream driven through the
//!   full fault-plane cluster — a peer crashed mid-stream and rejoined
//!   from its torn store must still converge bit-identically to the
//!   serial oracle of the mempool-produced blocks;
//! * **cache sharing**: the verdicts the admission pool produced are
//!   hits, not re-verifications, for a committer wired to the same
//!   signature cache;
//! * **one verification engine**: on a fixed scenario the verification
//!   counts of the admission pool and of the committer, the drained
//!   order and every verdict are the same for 1, 2 and 4 workers, and
//!   equal to what the tree recorded before both sides were rewritten
//!   on `fabric_peer::Verifier`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use fabric_cluster::{
    mempool_feed_blocks, run_with_oracle, ClusterConfig, FaultPlan, KillPoint, MempoolFeed,
    SerialOracle,
};
use fabric_ledger::Ledger;
use fabric_mempool::{decode_admission, AdmitOutcome, Mempool, MempoolConfig, SignatureCache};
use fabric_peer::ValidatorPipeline;
use fabric_protos::txflow::{block_header_hash, build_block};
use fabric_sim::MILLIS;
use fabric_statedb::StateDb;
use proptest::prelude::*;
use workload::{StreamScenario, Workload};

fn tempdir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "bmac-mempool-admission-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> StreamScenario {
    StreamScenario {
        workload: Workload::Smallbank,
        accounts: 3,
        block_size: 2,
        num_blocks: 5,
        stale_commit_pct: 25,
        corrupt_sigs: 2,
        duplicate_txs: 2,
        seed: 1717,
    }
}

/// The ground truth the feed must reproduce: the tx ids of the *first*
/// occurrence of every distinct, validly-signed envelope, in stream
/// order. (All copies of a tx id in a generated stream are verbatim,
/// so validity is a property of the id.)
fn expected_order(scenario: &StreamScenario) -> Vec<String> {
    let msp = scenario.validator_msp();
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    for block in &scenario.generate().blocks {
        for env in &block.data.data {
            let tx = decode_admission(env).expect("generated envelopes decode");
            if !seen.insert(tx.tx_id.clone()) {
                continue;
            }
            let trusted = msp.validate(&tx.creator_cert).is_ok();
            let valid = trusted
                && tx
                    .creator_cert
                    .public_key
                    .verify_prehashed(&tx.payload_digest, &tx.client_signature)
                    .is_ok();
            if valid {
                order.push(tx.tx_id);
            }
        }
    }
    order
}

fn ordered_tx_ids(blocks: &[fabric_protos::messages::Block]) -> Vec<String> {
    blocks
        .iter()
        .flat_map(|b| &b.data.data)
        .map(|env| {
            decode_admission(env)
                .expect("ordered envelopes decode")
                .tx_id
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the resubmission cadence, batching granularity, or
    /// verify parallelism, the ordered stream is exactly the distinct
    /// valid transactions in first-arrival order.
    #[test]
    fn resubmission_never_changes_the_ordered_stream(
        resubmit_every in 1usize..5,
        verify_batch in 1usize..12,
        workers in 1usize..5,
    ) {
        let scenario = scenario();
        let feed = MempoolFeed {
            resubmit_every,
            verify_batch,
            mempool: MempoolConfig {
                verify_workers: workers,
                ..MempoolConfig::default()
            },
        };
        let outcome = mempool_feed_blocks(&scenario, &feed);
        let ordered = ordered_tx_ids(&outcome.blocks);

        // No double-commit: every ordered tx id is unique.
        let distinct: HashSet<&String> = ordered.iter().collect();
        prop_assert_eq!(distinct.len(), ordered.len(), "duplicate tx id ordered");

        // No loss, no reordering, no younger-transaction eviction:
        // the stream is exactly the expected first-occurrence order.
        prop_assert_eq!(ordered, expected_order(&scenario));

        // The duplicates really were presented (scenario replays plus
        // our resubmissions) and absorbed at admission.
        prop_assert!(outcome.stats.duplicates > 0);
        prop_assert_eq!(outcome.stats.shed, 0);
    }
}

/// The fault-plane leg: a mempool-fed cluster with a peer killed at a
/// packet boundary and rejoined from its torn store converges to the
/// serial oracle of the mempool-produced stream — admission idempotence
/// composes with crash recovery.
#[test]
fn mempool_fed_cluster_survives_kill_and_rejoin() {
    let dir = tempdir("kill-rejoin");
    let scenario = scenario();
    let fed = mempool_feed_blocks(&scenario, &MempoolFeed::default());
    let oracle = SerialOracle::from_blocks(&scenario, fed.blocks);
    let cfg = ClusterConfig {
        peers: 3,
        ..ClusterConfig::new(&dir, scenario)
    };
    let plan = FaultPlan {
        kills: vec![KillPoint {
            peer: 1,
            after_packets: 7,
            rejoin_after: Some(20 * MILLIS),
        }],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, &oracle);
    report.assert_converged();
    let killed = &report.peers[1];
    assert!(killed.alive, "the killed peer rejoined");
    assert_eq!(killed.rejoins, 1);
    assert_eq!(killed.height, report.blocks, "caught back up fully");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resubmitting the *entire* stream a second time through the same
/// mempool orders nothing new: the replay window holds every recorded
/// transaction, so the chain a validator commits cannot be extended by
/// replays (the no-double-commit guarantee at the chain level).
#[test]
fn full_stream_replay_orders_nothing() {
    let scenario = scenario();
    let generated = scenario.generate();
    let mempool = Mempool::with_msp(
        MempoolConfig::default(),
        Arc::new(SignatureCache::new(4096)),
        Some(scenario.validator_msp()),
    );
    let mut first = 0u64;
    for env in generated.blocks.iter().flat_map(|b| &b.data.data) {
        if mempool.admit(env) == AdmitOutcome::Admitted {
            first += 1;
        }
    }
    mempool.verify_pending();
    let ordered_first = mempool.drain(usize::MAX).len();
    assert!(first > 0 && ordered_first > 0);

    // Replay the whole stream: every distinct id is now pending-free
    // and recorded (or was rejected as invalid, in which case its
    // replay is re-admitted and re-rejected — still never ordered).
    for env in generated.blocks.iter().flat_map(|b| &b.data.data) {
        let outcome = mempool.admit(env);
        assert_ne!(outcome, AdmitOutcome::Shed);
    }
    mempool.verify_pending();
    assert_eq!(
        mempool.drain(usize::MAX).len(),
        0,
        "a full replay must order zero transactions"
    );
    let stats = mempool.stats();
    assert_eq!(stats.drained as usize, ordered_first);
}

/// Cache sharing across the admission/commit boundary: a serial oracle
/// replay of the mempool-produced blocks, wired to the *same* signature
/// cache the admission pool filled, performs its client-signature
/// lookups as hits.
#[test]
fn admission_verdicts_are_shared_with_the_committer() {
    let scenario = scenario();
    let feed = MempoolFeed::default();
    let generated = scenario.generate();
    let cache = Arc::new(SignatureCache::new(8192));
    let mempool = Mempool::with_msp(
        feed.mempool,
        Arc::clone(&cache),
        Some(scenario.validator_msp()),
    );
    for env in generated.blocks.iter().flat_map(|b| &b.data.data) {
        mempool.admit(env);
    }
    mempool.verify_pending();
    assert!(cache.stats().misses > 0, "the pool did real ECDSA work");

    // Every ordered envelope's client-signature verdict is already in
    // the shared cache — the committer's vscc lookup is a pure hit.
    let before = cache.stats();
    for env in mempool.drain(usize::MAX) {
        let tx = decode_admission(&env).expect("ordered envelopes decode");
        assert_eq!(
            cache.get(&tx.cache_key),
            Some(true),
            "committer lookup missed for an ordered tx"
        );
    }
    let after = cache.stats();
    assert_eq!(
        after.misses, before.misses,
        "committer-side lookups must not fall through to re-verification"
    );
}

/// Oracle-level equivalence: the stream the feed produces validates and
/// audits exactly like any pregenerated stream (the mempool-fed blocks
/// are first-class citizens of the serial-equivalence harness).
#[test]
fn feed_blocks_audit_against_their_own_oracle() {
    let scenario = scenario();
    let outcome = mempool_feed_blocks(&scenario, &MempoolFeed::default());
    let oracle = SerialOracle::from_blocks(&scenario, outcome.blocks);
    assert_eq!(oracle.height() as usize, oracle.blocks.len());
    // Every ordered transaction carries a valid client signature, so no
    // block may flag BadSignature — the admission pool already ate them.
    for codes in &oracle.codes {
        for code in codes {
            assert_ne!(
                format!("{code:?}"),
                "BadSignature",
                "a bad signature leaked past admission"
            );
        }
    }
}

/// Everything countable about one admission-then-commit pass over the
/// fixed scenario below.
#[derive(Debug, PartialEq, Eq)]
struct EnginePass {
    /// `(valid, invalid, endorsements_warmed)` of each `verify_pending`.
    verify_calls: Vec<(usize, usize, usize)>,
    admission_verifications: u64,
    duplicates: u64,
    /// First eight bytes of SHA-256 over the drained envelopes, in
    /// drain order.
    drained_digest: String,
    drained: usize,
    committer_verifications: usize,
    /// The committer's flags, one string per block, one letter per
    /// transaction (the first of the code's name: `V`alid,
    /// `M`vccReadConflict, `B`adSignature, ...).
    codes: Vec<String>,
}

/// Admits a stream with corrupted client signatures and replayed
/// envelopes (verifying every five admissions, so a replay of a
/// rejected envelope is re-admitted and answered from the cache), cuts
/// the drained envelopes into blocks, and commits them on a validator
/// that shares the admission pool's signature cache.
fn engine_pass(workers: usize) -> EnginePass {
    let scenario = StreamScenario {
        workload: Workload::Smallbank,
        accounts: 64,
        block_size: 4,
        num_blocks: 6,
        stale_commit_pct: 0,
        corrupt_sigs: 3,
        duplicate_txs: 4,
        seed: 4242,
    };
    let generated = scenario.generate();
    let cache = Arc::new(SignatureCache::new(8192));
    let mempool = Mempool::with_msp(
        MempoolConfig {
            verify_workers: workers,
            ..MempoolConfig::default()
        },
        Arc::clone(&cache),
        Some(scenario.validator_msp()),
    );
    let mut verify_calls = Vec::new();
    let mut verify = |mempool: &Mempool| {
        let r = mempool.verify_pending();
        verify_calls.push((r.valid, r.invalid, r.endorsements_warmed));
    };
    let envelopes = generated.blocks.iter().flat_map(|b| &b.data.data);
    for (i, env) in envelopes.enumerate() {
        assert_ne!(mempool.admit(env), AdmitOutcome::Shed);
        if (i + 1) % 5 == 0 {
            verify(&mempool);
        }
    }
    verify(&mempool);
    let drained = mempool.drain(usize::MAX);
    let stats = mempool.stats();

    let committer = ValidatorPipeline::with_shared_cache(
        scenario.validator_msp(),
        scenario.policies(),
        workers,
        cache,
        StateDb::new(),
        Ledger::new(),
    );
    let orderer = scenario.orderer();
    let mut prev = [0u8; 32];
    let mut codes = Vec::new();
    for (number, chunk) in drained.chunks(scenario.block_size).enumerate() {
        let block = build_block(number as u64, &prev, chunk.to_vec(), &orderer);
        prev = block_header_hash(&block.header);
        // A block the orderer did not sign would be refused, not flagged.
        let result = committer
            .validate_and_commit(&block)
            .expect("the orderer signed every block");
        let letters = result
            .codes
            .iter()
            .map(|c| format!("{c:?}")[..1].to_string());
        codes.push(letters.collect());
    }
    let digest = fabric_crypto::sha256(&drained.concat());
    EnginePass {
        verify_calls,
        admission_verifications: stats.verifications,
        duplicates: stats.duplicates,
        drained_digest: digest[..8].iter().map(|b| format!("{b:02x}")).collect(),
        drained: drained.len(),
        committer_verifications: committer.verifications(),
        codes,
    }
}

/// The admission pool and the committer run on one verification engine:
/// worker count changes nothing countable, and the rewrite changed
/// nothing either — the expected values were recorded by running this
/// test's body at commit 668b41e, where the mempool still had its own
/// thread pool, certificate memo and claim loops.
#[test]
fn verification_counts_and_verdicts_match_the_recorded_parent_for_every_worker_count() {
    let mut verify_calls = vec![(5, 0, 10); 12];
    verify_calls.extend([(4, 1, 8), (5, 0, 10), (4, 1, 8), (3, 0, 6)]);
    verify_calls.extend([(4, 1, 8), (3, 0, 6), (2, 0, 4)]);
    let mut codes = vec!["VVVV"; 17];
    codes.extend(["VMVV", "VVMV", "MVVM", "VMMM", "V"]);
    let recorded = EnginePass {
        verify_calls,
        // 85 drained × (client + 2 endorsements) + 3 rejected clients.
        admission_verifications: 258,
        duplicates: 4,
        drained_digest: "ea407933248fcdb8".into(),
        drained: 85,
        // One orderer signature a block; every other lookup is a hit.
        committer_verifications: 22,
        codes: codes.into_iter().map(String::from).collect(),
    };
    for workers in [1, 2, 4] {
        assert_eq!(engine_pass(workers), recorded, "{workers} workers");
    }
}
