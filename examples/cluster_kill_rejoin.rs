//! Kill-any-node-under-load walkthrough: the `fabric-cluster` harness
//! end to end, narrated.
//!
//! A 3-peer cluster validates a smallbank stream fanned out by one
//! orderer over independently lossy links (5% loss, plus duplication,
//! reordering, corruption and lossy acks). Mid-stream, peer 1 is killed
//! at a packet boundary — its validator aborted without a final flush,
//! leaving a torn store tail — and rejoins 20 simulated milliseconds
//! later: crash recovery reopens the store to the longest durable
//! prefix, the stream resumes at that height, and the orderer opens a
//! fresh connection generation whose cursor rewinds to the recovered
//! block. The run ends with a divergence audit holding every peer
//! bit-identical to a serial-replay oracle.
//!
//! Run with: `cargo run --example cluster_kill_rejoin`

use fabric_cluster::{run, ClusterConfig, FaultPlan, KillPoint, LinkFaults};
use fabric_sim::{as_millis, MILLIS};
use workload::{StreamScenario, Workload};

fn main() {
    let scenario = StreamScenario {
        workload: Workload::Smallbank,
        accounts: 4,
        block_size: 3,
        num_blocks: 8,
        stale_commit_pct: 25,
        corrupt_sigs: 1,
        duplicate_txs: 1,
        seed: 777,
    };

    let root = std::env::temp_dir().join(format!("bmac-cluster-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ClusterConfig::new(&root, scenario);

    // The fault plane: every link drops/mangles packets on its own
    // dice, and peer 1 dies under load and comes back.
    let plan = FaultPlan {
        default_link: LinkFaults {
            loss_pct: 5,
            dup_pct: 2,
            reorder_pct: 2,
            corrupt_pct: 2,
            feedback_loss_pct: 2,
            seed: 20_22,
        },
        kills: vec![KillPoint {
            peer: 1,
            after_packets: 10,
            rejoin_after: Some(20 * MILLIS),
        }],
        ..FaultPlan::default()
    };

    println!(
        "running {} peers over lossy links; peer 1 will be killed after 10 packets\n",
        config.peers
    );
    let mut report = run(&config, &plan);

    for (i, peer) in report.peers.iter().enumerate() {
        println!(
            "peer {i}: alive={} height={}/{} rejoins={} audit={}",
            peer.alive,
            peer.height,
            report.blocks,
            peer.rejoins,
            match &peer.divergence {
                None => "bit-identical".to_string(),
                Some(d) => format!("DIVERGED: {d}"),
            }
        );
    }
    println!();
    for (i, link) in report.links.iter().enumerate() {
        println!(
            "link {i}: sent={} lost={} dup={} reordered={} fcs_drops={} | \
             retransmissions={} timeouts={} worst_episode={}/{}",
            link.tally.sent,
            link.tally.lost,
            link.tally.duplicated,
            link.tally.reordered,
            link.tally.fcs_drops,
            link.retransmissions,
            link.timeouts,
            link.max_episode_retransmissions,
            link.storm_cap,
        );
    }

    let p50 = report.delivery_latency_ms.percentile(50.0);
    let p99 = report.delivery_latency_ms.percentile(99.0);
    println!(
        "\ndelivery latency p50={p50:.3}ms p99={p99:.3}ms over {} block deliveries",
        report.blocks * config.peers as u64
    );
    for (i, t) in report.catchup.iter().enumerate() {
        println!(
            "rejoin {i}: caught back up to the tip {:.3}ms after restart",
            as_millis(*t)
        );
    }
    println!(
        "sim ran {:.3}ms across {} events",
        as_millis(report.sim_duration),
        report.events
    );

    report.assert_converged();
    assert!(report.within_storm_cap());
    println!("\nconverged: every peer bit-identical to the serial-replay oracle");

    let _ = std::fs::remove_dir_all(&root);
}
