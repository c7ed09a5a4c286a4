//! The closed-loop cluster: one orderer, N validating peers, faulty
//! links, and a deterministic event-driven clock.
//!
//! Topology and flow:
//!
//! 1. The **orderer** releases the oracle's blocks every 500 µs
//!    (optionally in [`ClusterConfig::burst`]-sized groups), encodes
//!    each through a per-peer [`BmacSender`] and hands the wire packets
//!    to that peer's [`RetransmitSupervisor`] (Go-Back-N window of 8 +
//!    adaptive RTO).
//! 2. Each packet crosses a [`LossyLink`] — gigabit bandwidth, 100 µs
//!    latency, queueing, plus the [`FaultPlan`]'s loss/duplication/
//!    reordering/corruption rolls — framed with an FCS so corruption is
//!    dropped at the NIC instead of being acked and then failing
//!    reassembly.
//! 3. Each **peer** runs the full receive stack: [`GoBackNReceiver`]
//!    (ARQ, feedback generation) → [`BmacReceiver`] (block reassembly)
//!    → a durable [`StreamValidator`] over a [`FabricStore`]
//!    (write-ahead journal + block store).
//! 4. The fault plane can **kill** any peer at an arbitrary packet
//!    boundary (dropping its validator mid-flight leaves the store tail
//!    torn-but-recoverable), **rejoin** it after a delay
//!    (`FabricStore::open` recovery + `BmacReceiver::resuming_from`
//!    catch-up on a fresh connection generation), and **stall** a slow
//!    follower.
//! 5. When the event queue drains, every surviving peer is audited
//!    against the [`SerialOracle`]: bit-identical validation flags,
//!    commit hashes, chain links and state. Dead peers must still
//!    recover to a serial *prefix*.
//!
//! Time is [`fabric_sim`] virtual nanoseconds end to end — the same
//! run replays the same packet schedule, which is what makes the
//! proptest fault matrix in `tests/tests/cluster_faults.rs` viable.
//! (The *recovered height* after a kill does depend on OS thread timing
//! inside the killed validator, so rejoin traffic varies run to run;
//! the audit outcome — convergence — does not.)

use std::path::PathBuf;
use std::sync::Arc;

use bmac_protocol::{
    BmacReceiver, BmacSender, Feedback, GoBackNReceiver, RetransmitError, RetransmitSupervisor,
    RtoPolicy,
};
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_peer::{StreamConfig, StreamValidator};
use fabric_sim::{as_millis, EventQueue, NetLink, Samples, SimTime, MICROS};
use fabric_store::{FabricStore, StoreConfig};
use workload::StreamScenario;

use crate::faults::{FaultPlan, KillPoint};
use crate::link::{LinkTally, LossyLink};
use crate::oracle::SerialOracle;

/// Signature-cache capacity of every peer validator and of the
/// admission front-end.
pub(crate) const SIG_CACHE: usize = 8192;
/// vscc workers per peer validator.
const WORKERS: usize = 2;
/// Go-Back-N window (packets) per orderer→peer connection.
const WINDOW: usize = 8;
/// Pacing between block releases at the orderer.
const BLOCK_INTERVAL: SimTime = 500 * MICROS;
/// Data/feedback link bandwidth (bits per second).
const BANDWIDTH_BPS: u64 = 1_000_000_000;
/// Data/feedback link propagation latency.
const LINK_LATENCY: SimTime = 100 * MICROS;

/// Durable-store tuning of every peer: each block goes to the OS as it
/// commits, so a kill tears the store at a block boundary.
fn store_config() -> StoreConfig {
    StoreConfig {
        group_commit: 1,
        ..StoreConfig::default()
    }
}

/// Static shape of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of validating peers.
    pub peers: usize,
    /// The workload scenario every peer must agree on.
    pub scenario: StreamScenario,
    /// Directory holding one durable store per peer (`peer-<i>/`).
    pub root: PathBuf,
    /// Blocks released per interval (burst traffic when > 1).
    pub burst: usize,
    /// Backpressure cap: when a peer's supervisor backlog (packets
    /// queued behind the window) reaches this, the orderer defers that
    /// peer's next block instead of queueing more (counted as shed).
    pub max_backlog: usize,
}

impl ClusterConfig {
    /// A 3-peer gigabit cluster over `scenario`, stores under `root`.
    pub fn new(root: impl Into<PathBuf>, scenario: StreamScenario) -> Self {
        ClusterConfig {
            peers: 3,
            scenario,
            root: root.into(),
            burst: 1,
            max_backlog: 64,
        }
    }
}

/// Events of the cluster simulation. Data and feedback deliveries carry
/// the connection generation they were sent on; events from a
/// connection that died in the meantime are discarded on arrival.
#[derive(Debug)]
enum Ev {
    /// The orderer has released blocks `..hi`.
    Release(usize),
    /// A framed data packet arrives at a peer.
    Deliver {
        peer: usize,
        conn: u64,
        framed: Vec<u8>,
    },
    /// An ack/nack arrives back at the orderer.
    Feedback {
        peer: usize,
        conn: u64,
        fb: Feedback,
    },
    /// A retransmission-timer wakeup for one connection.
    Timer { peer: usize, conn: u64 },
    /// A killed peer comes back.
    Rejoin { peer: usize },
}

/// One peer's receive stack and durable storage.
struct PeerNode {
    dir: PathBuf,
    conn: u64,
    alive: bool,
    gbn: GoBackNReceiver,
    bmac: BmacReceiver,
    store: Option<FabricStore>,
    validator: Option<StreamValidator>,
    delivered_in_life: u64,
    /// Remaining kill points, front = next to arm.
    kills: Vec<KillPoint>,
    rejoins: u32,
    rejoined_at: Option<SimTime>,
}

/// The orderer's per-peer send stack.
struct Uplink {
    sender: BmacSender,
    sup: RetransmitSupervisor,
    link: LossyLink,
    /// Next block index to hand to the sender.
    cursor: usize,
    /// The breaker tripped (or the peer died): stop transmitting until
    /// the connection is replaced at rejoin.
    down: bool,
    shed: u64,
    unreachable_events: u32,
    // Stats carried over from connection generations torn down at
    // rejoin (the supervisor is replaced wholesale).
    acc_retrans: u64,
    acc_timeouts: u64,
    acc_suppressed: u64,
    acc_max_episode: u64,
}

/// Final state of one peer after the audit.
#[derive(Debug)]
pub struct PeerOutcome {
    /// The peer survived to the end of the run.
    pub alive: bool,
    /// Audited chain height.
    pub height: u64,
    /// Crash-rejoin cycles the peer went through.
    pub rejoins: u32,
    /// `None` when the peer is bit-identical to the oracle (full chain
    /// for survivors, a serial prefix for dead peers); otherwise the
    /// first divergence found.
    pub divergence: Option<String>,
}

/// Per-link transport statistics.
#[derive(Debug)]
pub struct LinkReport {
    /// What the fault plane injected.
    pub tally: LinkTally,
    /// Packets retransmitted (all connection generations).
    pub retransmissions: u64,
    /// Retransmission-timer expiries.
    pub timeouts: u64,
    /// NACKs suppressed by the storm control.
    pub suppressed_nacks: u64,
    /// Worst single stuck-base episode, across generations.
    pub max_episode_retransmissions: u64,
    /// The policy's cap that episode must stay under.
    pub storm_cap: u64,
    /// Blocks deferred by backpressure at the orderer.
    pub shed: u64,
    /// Times the circuit breaker declared the peer unreachable.
    pub unreachable_events: u32,
}

/// Everything a cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-peer audit outcomes.
    pub peers: Vec<PeerOutcome>,
    /// Per-link transport statistics.
    pub links: Vec<LinkReport>,
    /// End-to-end block latency samples (ms of sim time): orderer
    /// release → complete delivery into the peer's validator.
    pub delivery_latency_ms: Samples,
    /// Sim time from each rejoin to that peer's full catch-up.
    pub catchup: Vec<SimTime>,
    /// Sim time when the last event fired.
    pub sim_duration: SimTime,
    /// Blocks in the scenario.
    pub blocks: u64,
    /// Events processed.
    pub events: u64,
}

impl ClusterReport {
    /// Panics with every divergence when the cluster did not converge.
    pub fn assert_converged(&self) {
        let diverged: Vec<String> = self
            .peers
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                p.divergence
                    .as_ref()
                    .map(|d| format!("peer {i} (alive={}, h={}): {d}", p.alive, p.height))
            })
            .collect();
        assert!(
            diverged.is_empty(),
            "cluster diverged:\n{}",
            diverged.join("\n")
        );
    }

    /// No stuck-base episode on any link exceeded the storm cap.
    pub fn within_storm_cap(&self) -> bool {
        self.links
            .iter()
            .all(|l| l.max_episode_retransmissions <= l.storm_cap)
    }

    /// Total retransmitted packets across all links and generations.
    pub fn total_retransmissions(&self) -> u64 {
        self.links.iter().map(|l| l.retransmissions).sum()
    }
}

/// Runs the cluster described by `config` under `plan` over the
/// scenario's generated blocks, building their serial oracle first.
/// Prefer [`run_with_oracle`] when several runs share a scenario — the
/// oracle replay is the expensive part.
pub fn run(config: &ClusterConfig, plan: &FaultPlan) -> ClusterReport {
    run_with_oracle(config, plan, &SerialOracle::build(&config.scenario))
}

/// Runs the cluster against a pre-built oracle, transmitting the
/// oracle's blocks. A mempool-fed run passes the oracle of the blocks
/// [`mempool_feed_blocks`](crate::mempool_feed_blocks) cut
/// ([`SerialOracle::from_blocks`]).
///
/// # Panics
///
/// Panics on harness bugs (undeliverable event budget, store-open
/// failure at rejoin) — *divergence* is reported, not panicked, so the
/// proptest matrix can shrink it.
pub fn run_with_oracle(
    config: &ClusterConfig,
    plan: &FaultPlan,
    oracle: &SerialOracle,
) -> ClusterReport {
    assert!(config.peers > 0, "a cluster needs at least one peer");
    assert!(config.burst > 0, "burst must be positive");
    let mut sim = Sim::new(config, plan, oracle);
    sim.schedule_releases();
    sim.drain();
    sim.into_report()
}

struct Sim<'a> {
    cfg: &'a ClusterConfig,
    plan: &'a FaultPlan,
    oracle: &'a SerialOracle,
    q: EventQueue<Ev>,
    peers: Vec<PeerNode>,
    uplinks: Vec<Uplink>,
    /// Blocks `..released` have been released by the orderer.
    released: usize,
    release_time: Vec<SimTime>,
    latency: Samples,
    catchup: Vec<SimTime>,
    events: u64,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a ClusterConfig, plan: &'a FaultPlan, oracle: &'a SerialOracle) -> Self {
        let peers = (0..cfg.peers)
            .map(|i| {
                let dir = cfg.root.join(format!("peer-{i}"));
                std::fs::create_dir_all(&dir).expect("create peer store dir");
                let store = FabricStore::open(&dir, store_config()).expect("open fresh peer store");
                let validator = make_validator(&cfg.scenario, &store);
                PeerNode {
                    dir,
                    conn: 0,
                    alive: true,
                    gbn: GoBackNReceiver::new(),
                    bmac: BmacReceiver::new(),
                    store: Some(store),
                    validator: Some(validator),
                    delivered_in_life: 0,
                    kills: plan.kills_for(i),
                    rejoins: 0,
                    rejoined_at: None,
                }
            })
            .collect();
        let uplinks = (0..cfg.peers)
            .map(|i| {
                let faults = plan.link_for(i);
                Uplink {
                    sender: BmacSender::new(),
                    sup: RetransmitSupervisor::new(WINDOW, RtoPolicy::default()),
                    link: LossyLink::new(
                        NetLink::new(BANDWIDTH_BPS, LINK_LATENCY),
                        NetLink::new(BANDWIDTH_BPS, LINK_LATENCY),
                        faults,
                    ),
                    cursor: 0,
                    down: false,
                    shed: 0,
                    unreachable_events: 0,
                    acc_retrans: 0,
                    acc_timeouts: 0,
                    acc_suppressed: 0,
                    acc_max_episode: 0,
                }
            })
            .collect();
        let n = oracle.blocks.len();
        Sim {
            cfg,
            plan,
            oracle,
            q: EventQueue::new(),
            peers,
            uplinks,
            released: 0,
            release_time: vec![0; n],
            latency: Samples::new(),
            catchup: Vec::new(),
            events: 0,
        }
    }

    fn schedule_releases(&mut self) {
        let n = self.oracle.blocks.len();
        let mut t = 0;
        let mut i = 0;
        while i < n {
            let hi = (i + self.cfg.burst).min(n);
            for b in i..hi {
                self.release_time[b] = t;
            }
            self.q.schedule_at(t, Ev::Release(hi));
            i = hi;
            t += BLOCK_INTERVAL;
        }
    }

    fn drain(&mut self) {
        // Convergence budget: far above anything a working cluster
        // needs, so exhausting it means the protocol livelocked.
        let cap = 500_000 + self.oracle.blocks.len() as u64 * self.cfg.peers as u64 * 10_000;
        while let Some((now, ev)) = self.q.pop() {
            self.events += 1;
            assert!(
                self.events < cap,
                "cluster failed to converge: event budget exhausted at t={now}"
            );
            match ev {
                Ev::Release(hi) => {
                    self.released = self.released.max(hi);
                    for p in 0..self.peers.len() {
                        self.pump(p, now);
                    }
                }
                Ev::Deliver { peer, conn, framed } => self.on_deliver(peer, conn, framed, now),
                Ev::Feedback { peer, conn, fb } => self.on_feedback(peer, conn, fb, now),
                Ev::Timer { peer, conn } => self.on_timer(peer, conn, now),
                Ev::Rejoin { peer } => self.rejoin(peer, now),
            }
        }
    }

    /// Hands released blocks to `p`'s send stack until the release
    /// horizon or the backpressure cap stops it.
    fn pump(&mut self, p: usize, now: SimTime) {
        loop {
            if self.uplinks[p].down || !self.peers[p].alive {
                return;
            }
            if self.uplinks[p].cursor >= self.released {
                return;
            }
            if self.uplinks[p].sup.backlog() >= self.cfg.max_backlog {
                // Shed at the source: the block stays unsent until
                // feedback drains the backlog (counted per deferral).
                self.uplinks[p].shed += 1;
                return;
            }
            let cursor = self.uplinks[p].cursor;
            self.uplinks[p].cursor += 1;
            let packets = self.uplinks[p]
                .sender
                .send_block(&self.oracle.blocks[cursor])
                .expect("generated blocks encode");
            let mut wires = Vec::new();
            for packet in packets {
                let wire = packet.encode().expect("BMac packets encode");
                wires.extend(self.uplinks[p].sup.send(now, wire));
            }
            self.transmit(p, now, wires);
        }
    }

    /// Pushes wire packets through `p`'s lossy link and schedules the
    /// surviving deliveries; re-arms the retransmission timer.
    fn transmit(&mut self, p: usize, now: SimTime, wires: Vec<Vec<u8>>) {
        let conn = self.peers[p].conn;
        for wire in wires {
            for (at, framed) in self.uplinks[p].link.transmit(now, &wire) {
                self.q.schedule_at(
                    at,
                    Ev::Deliver {
                        peer: p,
                        conn,
                        framed,
                    },
                );
            }
        }
        self.arm_timer(p);
    }

    /// Schedules a timer wakeup at the supervisor's current deadline.
    /// Stale wakeups (the deadline moved) are no-ops at pop time.
    fn arm_timer(&mut self, p: usize) {
        if self.uplinks[p].down {
            return;
        }
        if let Some(dl) = self.uplinks[p].sup.next_deadline() {
            let conn = self.peers[p].conn;
            self.q.schedule_at(dl, Ev::Timer { peer: p, conn });
        }
    }

    fn on_deliver(&mut self, p: usize, conn: u64, framed: Vec<u8>, now: SimTime) {
        if !self.peers[p].alive || self.peers[p].conn != conn {
            return; // stale: sent to a connection that died
        }
        if let Some(stall) = self.plan.stall_at(p, now) {
            // Slow follower: hold the packet until the stall ends
            // (stable queue order keeps arrivals in order).
            let until = stall.until;
            self.q.schedule_at(
                until,
                Ev::Deliver {
                    peer: p,
                    conn,
                    framed,
                },
            );
            return;
        }
        if let Some(k) = self.peers[p].kills.first().copied() {
            if self.peers[p].delivered_in_life >= k.after_packets {
                self.kill(p, now, k);
                return;
            }
        }
        self.peers[p].delivered_in_life += 1;
        // NIC-level FCS check: mangled frames are dropped here, before
        // the ARQ layer can acknowledge them.
        let Some(wire) = self.uplinks[p].link.deliver(&framed) else {
            return;
        };
        let (inner, fb) = match self.peers[p].gbn.on_wire(&wire) {
            Ok(x) => x,
            Err(_) => return, // unframeable; treat as loss
        };
        if let Some(at) = self.uplinks[p].link.transmit_feedback(now) {
            self.q.schedule_at(at, Ev::Feedback { peer: p, conn, fb });
        }
        let Some(data) = inner else { return };
        let received = self.peers[p]
            .bmac
            .ingest(&data)
            .expect("FCS-clean in-order packets reassemble");
        for rb in received {
            let number = rb.block.header.number;
            self.latency.add(as_millis(
                now.saturating_sub(self.release_time[number as usize]),
            ));
            self.peers[p]
                .validator
                .as_ref()
                .expect("alive peer has a stream session")
                .push(rb.block)
                .expect("Go-Back-N delivers each block exactly once");
            if number + 1 == self.oracle.height() {
                if let Some(rj) = self.peers[p].rejoined_at.take() {
                    self.catchup.push(now - rj);
                }
            }
        }
    }

    fn on_feedback(&mut self, p: usize, conn: u64, fb: Feedback, now: SimTime) {
        if self.peers[p].conn != conn || self.uplinks[p].down {
            return;
        }
        let wires = self.uplinks[p].sup.on_feedback(now, fb);
        self.transmit(p, now, wires);
        // Acks may have drained the backlog below the cap.
        self.pump(p, now);
    }

    fn on_timer(&mut self, p: usize, conn: u64, now: SimTime) {
        if self.peers[p].conn != conn || self.uplinks[p].down {
            return;
        }
        match self.uplinks[p].sup.poll(now) {
            Ok(wires) => {
                if wires.is_empty() {
                    self.arm_timer(p); // deadline moved; chase it
                } else {
                    self.transmit(p, now, wires);
                }
            }
            Err(RetransmitError::PeerUnreachable { .. }) => {
                // The breaker tripped: the orderer declares the peer
                // down and stops transmitting until a rejoin replaces
                // the connection.
                self.uplinks[p].down = true;
                self.uplinks[p].unreachable_events += 1;
            }
        }
    }

    /// Crashes peer `p`: the validator session is aborted mid-flight
    /// (storage deliberately not flushed — the on-disk tail is torn at
    /// whatever group-commit boundaries the OS already has) and every
    /// handle is dropped. Packets already in flight to the old
    /// connection will be discarded on arrival.
    fn kill(&mut self, p: usize, now: SimTime, k: KillPoint) {
        let peer = &mut self.peers[p];
        peer.kills.remove(0);
        peer.alive = false;
        peer.rejoined_at = None;
        if let Some(v) = peer.validator.take() {
            v.abort();
        }
        peer.store = None;
        if let Some(delay) = k.rejoin_after {
            self.q.schedule_at(now + delay, Ev::Rejoin { peer: p });
        }
    }

    /// Rejoins peer `p`: recover the durable store (min-rule over the
    /// journal and block store), resume the stream at the recovered
    /// height, and replace the whole connection — fresh identity-cache
    /// sender, fresh ARQ pair, next generation number — with the
    /// orderer's cursor reset to the recovered height.
    fn rejoin(&mut self, p: usize, now: SimTime) {
        let store = FabricStore::open(&self.peers[p].dir, store_config())
            .expect("crash recovery must reopen the store");
        let k = store.ledger().height();
        let validator = make_validator(&self.cfg.scenario, &store);
        let peer = &mut self.peers[p];
        peer.validator = Some(validator);
        peer.bmac = BmacReceiver::resuming_from(k);
        peer.gbn = GoBackNReceiver::new();
        peer.store = Some(store);
        peer.conn += 1;
        peer.alive = true;
        peer.delivered_in_life = 0;
        peer.rejoined_at = Some(now);
        peer.rejoins += 1;
        let up = &mut self.uplinks[p];
        up.acc_retrans += up.sup.retransmissions();
        up.acc_timeouts += up.sup.timeouts();
        up.acc_suppressed += up.sup.suppressed_nacks();
        up.acc_max_episode = up.acc_max_episode.max(up.sup.max_episode_retransmissions());
        up.sender = BmacSender::new();
        up.sup = RetransmitSupervisor::new(WINDOW, RtoPolicy::default());
        up.down = false;
        up.cursor = k as usize;
        self.pump(p, now);
    }

    /// Final audit: close every surviving session (flushing storage),
    /// then compare each peer against the oracle.
    fn into_report(mut self) -> ClusterReport {
        let sim_duration = self.q.now();
        let mut outcomes = Vec::with_capacity(self.peers.len());
        for peer in &mut self.peers {
            if peer.alive {
                let session = peer.validator.take().expect("alive peer has a session");
                let finish_err = match session.finish() {
                    Ok(_) => None,
                    Err(e) => Some(format!("stream close failed: {e}")),
                };
                let store = peer.store.as_ref().expect("alive peer holds its store");
                let (height, divergence) = match finish_err {
                    Some(d) => (store.ledger().height(), Some(d)),
                    None => match self.oracle.audit(&store.ledger(), &store.state_db(), true) {
                        Ok(h) => (h, None),
                        Err(d) => (store.ledger().height(), Some(d)),
                    },
                };
                outcomes.push(PeerOutcome {
                    alive: true,
                    height,
                    rejoins: peer.rejoins,
                    divergence,
                });
            } else {
                // A peer that never rejoined: its torn store must still
                // recover to a serial prefix.
                let (height, divergence) = match FabricStore::open(&peer.dir, store_config()) {
                    Ok(store) => {
                        match self.oracle.audit(&store.ledger(), &store.state_db(), false) {
                            Ok(h) => (h, None),
                            Err(d) => (store.ledger().height(), Some(d)),
                        }
                    }
                    Err(e) => (0, Some(format!("dead peer store failed recovery: {e}"))),
                };
                outcomes.push(PeerOutcome {
                    alive: false,
                    height,
                    rejoins: peer.rejoins,
                    divergence,
                });
            }
        }
        let links = self
            .uplinks
            .iter()
            .map(|up| LinkReport {
                tally: up.link.tally(),
                retransmissions: up.acc_retrans + up.sup.retransmissions(),
                timeouts: up.acc_timeouts + up.sup.timeouts(),
                suppressed_nacks: up.acc_suppressed + up.sup.suppressed_nacks(),
                max_episode_retransmissions: up
                    .acc_max_episode
                    .max(up.sup.max_episode_retransmissions()),
                storm_cap: up.sup.storm_cap(),
                shed: up.shed,
                unreachable_events: up.unreachable_events,
            })
            .collect();
        ClusterReport {
            peers: outcomes,
            links,
            delivery_latency_ms: self.latency,
            catchup: self.catchup,
            sim_duration,
            blocks: self.oracle.height(),
            events: self.events,
        }
    }
}

fn make_validator(scenario: &StreamScenario, store: &FabricStore) -> StreamValidator {
    let pipeline = ValidatorPipeline::with_storage(
        scenario.validator_msp(),
        scenario.policies(),
        WORKERS,
        SIG_CACHE,
        store.state_db(),
        store.ledger(),
    );
    StreamValidator::new(Arc::new(pipeline), StreamConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFaults;

    fn tempdir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("bmac-cluster-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_scenario() -> StreamScenario {
        StreamScenario {
            accounts: 3,
            block_size: 2,
            num_blocks: 4,
            stale_commit_pct: 25,
            corrupt_sigs: 1,
            duplicate_txs: 1,
            seed: 21,
            ..StreamScenario::default()
        }
    }

    #[test]
    fn clean_cluster_converges_bit_identically() {
        let dir = tempdir("clean");
        let cfg = ClusterConfig {
            peers: 2,
            ..ClusterConfig::new(&dir, small_scenario())
        };
        let report = run(&cfg, &FaultPlan::default());
        report.assert_converged();
        assert!(report.within_storm_cap());
        assert_eq!(report.total_retransmissions(), 0, "clean links");
        assert_eq!(report.peers.len(), 2);
        for p in &report.peers {
            assert!(p.alive);
            assert_eq!(p.height, report.blocks);
        }
        assert_eq!(
            report.delivery_latency_ms.len() as u64,
            report.blocks * 2,
            "every block sampled on every peer"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The ISSUE's acceptance gate: a mempool-fed cluster run — dedup,
    /// pre-ordering verification, re-cut blocks — must stay
    /// bit-identical to the serial oracle of the stream it produced.
    #[test]
    fn mempool_fed_cluster_matches_its_serial_oracle() {
        use crate::admission::{mempool_feed_blocks, MempoolFeed};
        let dir = tempdir("mempool-fed");
        let scenario = small_scenario();
        let fed = mempool_feed_blocks(&scenario, &MempoolFeed::default());
        let oracle = SerialOracle::from_blocks(&scenario, fed.blocks);
        let cfg = ClusterConfig {
            peers: 2,
            ..ClusterConfig::new(&dir, scenario)
        };
        let report = run_with_oracle(&cfg, &FaultPlan::default(), &oracle);
        report.assert_converged();
        assert!(report.blocks > 0, "the feed produced a stream");
        for p in &report.peers {
            assert!(p.alive);
            assert_eq!(p.height, report.blocks);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_links_recover_through_retransmission() {
        let dir = tempdir("lossy");
        let cfg = ClusterConfig {
            peers: 2,
            ..ClusterConfig::new(&dir, small_scenario())
        };
        let plan = FaultPlan::uniform(LinkFaults {
            loss_pct: 10,
            dup_pct: 5,
            reorder_pct: 5,
            corrupt_pct: 5,
            feedback_loss_pct: 5,
            ..LinkFaults::default()
        });
        let report = run(&cfg, &plan);
        report.assert_converged();
        assert!(report.within_storm_cap());
        assert!(report.total_retransmissions() > 0, "loss exercised the ARQ");
        let injected: u64 = report
            .links
            .iter()
            .map(|l| l.tally.lost + l.tally.corrupted)
            .sum();
        assert!(injected > 0, "the fault plane actually fired");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
