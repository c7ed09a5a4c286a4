//! Closed-loop cluster fault matrix: kill-any-node-under-load.
//!
//! The `fabric-cluster` harness wires the whole stack together —
//! orderer → adaptive retransmission supervisor → lossy links → per-peer
//! Go-Back-N + BMac reassembly → durable streaming validators — and
//! this suite throws the fault plane at it:
//!
//! * the **acceptance scenario**: a 3-peer cluster under 5% per-link
//!   loss with one peer killed mid-block and rejoined, converging
//!   bit-identically to the serial-replay oracle, with the supervisor
//!   never exceeding its retransmission-storm cap;
//! * a **proptest scenario matrix** over random `(loss rate, kill
//!   point, rejoin delay, burst size)` tuples;
//! * **double-kill** and **kill-during-recovery** (the second crash
//!   lands while the peer is still catching up from the first);
//! * a peer that **stays dead** — the survivors still converge and the
//!   corpse's torn store still recovers to a serial prefix, after the
//!   circuit breaker declared it unreachable;
//! * **slow-follower stall** and **backpressure shedding** under a
//!   tiny backlog cap and burst traffic.
//!
//! Every scenario audits against the same oracle, a serial replay whose
//! own state is held to the sequential model of `tests/lib.rs` by
//! `serial_replay_state_matches_the_sequential_model`.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use bmac_integration_tests::{RecordingSink, StateModel};
use fabric_cluster::{
    run_with_oracle, ClusterConfig, ClusterReport, FaultPlan, KillPoint, LinkFaults, SerialOracle,
    StallSpec,
};
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_sim::MILLIS;
use fabric_store::{FabricStore, StoreConfig};
use proptest::prelude::*;
use workload::{StreamScenario, Workload};

fn tempdir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "bmac-cluster-faults-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The shared scenario: smallbank with hot keys, cross-block MVCC
/// conflicts, one corrupt signature and one duplicate tx, so the
/// validators have real per-tx flag diversity to agree on.
fn scenario() -> StreamScenario {
    StreamScenario {
        workload: Workload::Smallbank,
        accounts: 3,
        block_size: 2,
        num_blocks: 6,
        stale_commit_pct: 30,
        corrupt_sigs: 1,
        duplicate_txs: 1,
        seed: 4242,
    }
}

/// The serial-replay oracle is the expensive part (full ECDSA replay);
/// build it once and share it across every scenario in this file.
fn oracle() -> &'static SerialOracle {
    static ORACLE: OnceLock<SerialOracle> = OnceLock::new();
    ORACLE.get_or_init(|| SerialOracle::build(&scenario()))
}

fn config(root: &PathBuf) -> ClusterConfig {
    ClusterConfig::new(root, scenario())
}

fn check(report: &ClusterReport) {
    report.assert_converged();
    assert!(
        report.within_storm_cap(),
        "a stuck-base episode exceeded the storm cap: {:?}",
        report
            .links
            .iter()
            .map(|l| (l.max_episode_retransmissions, l.storm_cap))
            .collect::<Vec<_>>()
    );
}

/// The audits compare peers with a serial replay on the same store
/// type; this holds that replay's state to the sequential model of
/// `tests/lib.rs`. Every batch the serial commit stage applies for the
/// shared scenario (stale commits, a corrupt signature, a duplicate tx
/// id) reaches a recording journal sink; the batches, applied to the
/// model, must give the replay's dump and tip.
#[test]
fn serial_replay_state_matches_the_sequential_model() {
    let scenario = scenario();
    let serial = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
    let sink = Arc::new(RecordingSink::default());
    serial.state_db().attach_journal(sink.clone());
    let mut codes = Vec::new();
    for block in &scenario.generate().blocks {
        let r = serial.validate_and_commit(block).expect("serial replay");
        codes.extend(r.codes);
    }
    let valid = codes.iter().filter(|c| c.is_valid()).count();
    assert!(valid < codes.len(), "the faults must refuse some tx");
    assert_eq!(sink.records.lock().len(), valid, "one record per valid tx");

    let mut model = StateModel::new();
    sink.replay_into(&mut model);
    let db = serial.state_db();
    assert_eq!(model.snapshot(), db.snapshot());
    assert_eq!(model.tip(), db.tip_height());
}

/// The ISSUE's acceptance scenario: 3 peers, 5% per-link loss, one peer
/// killed mid-block under load and rejoined, bit-identical convergence.
#[test]
fn three_peers_five_pct_loss_kill_and_rejoin_converge() {
    let dir = tempdir("accept");
    let cfg = config(&dir);
    let plan = FaultPlan {
        default_link: LinkFaults::lossy(5, 99),
        // Kill peer 1 after 9 packets: with ~4 packets per block that
        // lands mid-block, well inside the stream.
        kills: vec![KillPoint {
            peer: 1,
            after_packets: 9,
            rejoin_after: Some(20 * MILLIS),
        }],
        ..FaultPlan::default()
    };
    let mut report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    let killed = &report.peers[1];
    assert!(killed.alive && killed.rejoins == 1);
    assert_eq!(killed.height, report.blocks);
    assert!(
        report.total_retransmissions() > 0,
        "5% loss must exercise the ARQ"
    );
    assert!(!report.delivery_latency_ms.is_empty());
    let p50 = report.delivery_latency_ms.percentile(50.0);
    let p99 = report.delivery_latency_ms.percentile(99.0);
    assert!(p50 > 0.0 && p99 >= p50);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Double-kill: the same peer crashes twice (second life), each time
/// recovering from its torn store and catching back up.
#[test]
fn double_kill_same_peer_converges() {
    let dir = tempdir("double");
    let cfg = config(&dir);
    let plan = FaultPlan {
        default_link: LinkFaults::lossy(2, 7),
        kills: vec![
            KillPoint {
                peer: 0,
                after_packets: 6,
                rejoin_after: Some(15 * MILLIS),
            },
            KillPoint {
                peer: 0,
                after_packets: 8,
                rejoin_after: Some(15 * MILLIS),
            },
        ],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    assert_eq!(report.peers[0].rejoins, 2);
    assert_eq!(report.peers[0].height, report.blocks);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill-during-recovery: the second crash lands almost immediately
/// after the rejoin, while the peer is still replaying catch-up
/// traffic — recovery of a store that was itself written by a recovery.
#[test]
fn kill_during_recovery_converges() {
    let dir = tempdir("kdr");
    let cfg = config(&dir);
    let plan = FaultPlan {
        kills: vec![
            KillPoint {
                peer: 2,
                after_packets: 10,
                rejoin_after: Some(5 * MILLIS),
            },
            // Dies again after only 2 catch-up packets of its new life.
            KillPoint {
                peer: 2,
                after_packets: 2,
                rejoin_after: Some(5 * MILLIS),
            },
        ],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    assert_eq!(report.peers[2].rejoins, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A peer that never rejoins: the circuit breaker must declare it
/// unreachable (bounding the retransmission storm into the corpse), the
/// survivors converge to the full chain, and the corpse's torn store
/// still recovers to a serial prefix.
#[test]
fn peer_that_stays_dead_is_declared_unreachable_and_audits_as_prefix() {
    let dir = tempdir("dead");
    let cfg = config(&dir);
    let plan = FaultPlan {
        kills: vec![KillPoint {
            peer: 1,
            after_packets: 7,
            rejoin_after: None,
        }],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    let dead = &report.peers[1];
    assert!(!dead.alive);
    assert!(dead.height <= report.blocks);
    assert_eq!(
        report.links[1].unreachable_events, 1,
        "the breaker must trip exactly once for the dead peer"
    );
    for (i, peer) in report.peers.iter().enumerate() {
        if i != 1 {
            assert!(peer.alive);
            assert_eq!(peer.height, report.blocks, "survivor {i} at full height");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Slow follower + burst traffic + a tiny backpressure cap: the orderer
/// must shed (defer) load at the source instead of queueing without
/// bound, and still converge once the stall lifts.
#[test]
fn stalled_follower_with_tiny_backlog_sheds_and_converges() {
    let dir = tempdir("stall");
    let mut cfg = config(&dir);
    cfg.burst = 3;
    cfg.max_backlog = 2;
    let plan = FaultPlan {
        stalls: vec![StallSpec {
            peer: 0,
            from: 0,
            until: 30 * MILLIS,
        }],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    assert!(
        report.links.iter().any(|l| l.shed > 0),
        "burst through a 2-packet backlog cap must shed at the orderer"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Everything at once: loss + duplication + reordering + corruption on
/// every link, a mid-stream kill, and lossy feedback. The FCS framing
/// must keep corrupted packets out of the ARQ layer (they degrade to
/// loss) so reassembly never sees a mangled byte.
#[test]
fn combined_fault_soup_converges() {
    let dir = tempdir("soup");
    let cfg = config(&dir);
    let plan = FaultPlan {
        default_link: LinkFaults {
            loss_pct: 5,
            dup_pct: 5,
            reorder_pct: 5,
            corrupt_pct: 5,
            feedback_loss_pct: 5,
            seed: 1234,
        },
        kills: vec![KillPoint {
            peer: 2,
            after_packets: 12,
            rejoin_after: Some(25 * MILLIS),
        }],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    let corrupted: u64 = report.links.iter().map(|l| l.tally.corrupted).sum();
    let fcs_drops: u64 = report.links.iter().map(|l| l.tally.fcs_drops).sum();
    assert!(corrupted > 0, "corruption must actually fire");
    // Not every corrupted frame reaches the FCS check — some are
    // addressed to a connection that died in flight and are discarded
    // as stale — but the ones that do must all be caught there.
    assert!(fcs_drops > 0, "the FCS check must catch live corruption");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The scenario matrix: random (loss rate, kill point, rejoin
    /// delay, burst size) tuples. Whatever the tuple, the cluster must
    /// converge bit-identically to the serial oracle and stay inside
    /// the storm cap.
    #[test]
    fn random_fault_tuples_converge(
        loss in 0u8..9,
        kill_after in 3u64..40,
        rejoin_ms in 4u64..40,
        burst in 1usize..4,
        seed in any::<u64>(),
    ) {
        let dir = tempdir("matrix");
        let mut cfg = config(&dir);
        cfg.burst = burst;
        let plan = FaultPlan {
            default_link: LinkFaults::lossy(loss, seed),
            kills: vec![KillPoint {
                peer: (seed % 3) as usize,
                after_packets: kill_after,
                rejoin_after: Some(rejoin_ms * MILLIS),
            }],
            ..FaultPlan::default()
        };
        let report = run_with_oracle(&cfg, &plan, oracle());
        check(&report);
        for peer in &report.peers {
            prop_assert!(peer.alive);
            prop_assert_eq!(peer.height, report.blocks);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The rejoined peer's store, reopened cold after the run, holds the
/// exact full chain — crash-rejoin leaves no residue that a fresh
/// recovery would trip over.
#[test]
fn rejoined_store_reopens_to_the_full_chain() {
    let dir = tempdir("reopen");
    let cfg = config(&dir);
    let plan = FaultPlan {
        kills: vec![KillPoint {
            peer: 0,
            after_packets: 8,
            rejoin_after: Some(10 * MILLIS),
        }],
        ..FaultPlan::default()
    };
    let report = run_with_oracle(&cfg, &plan, oracle());
    check(&report);
    // Recovery reads what is on disk; the store's write tuning plays no part.
    let store = FabricStore::open(dir.join("peer-0"), StoreConfig::default()).unwrap();
    let h = oracle()
        .audit(&store.ledger(), &store.state_db(), true)
        .expect("cold reopen after rejoin audits clean");
    assert_eq!(h, report.blocks);
    std::fs::remove_dir_all(&dir).unwrap();
}
