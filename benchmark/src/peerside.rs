//! One pass of packets through link receiver → stream validator →
//! durable store, and the per-layer numbers read off it from outside.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fabric_peer::{SignatureCache, StreamConfig, StreamValidator, ValidatorPipeline};
use fabric_store::{FabricStore, StoreConfig};

use crate::gen::Stream;
use crate::harness::{
    diverging_txs, timed_recovery, DiskBytes, LinkReceiver, LinkSender, Watcher, VSCC_WORKERS,
};
use crate::host;
use crate::metrics::Metrics;
use crate::stats;
use crate::trace::SpanLog;

/// A durable validator peer under test, with its half of the link and
/// its watcher, for the length of one pass.
pub struct PeerSide<'a> {
    stream: &'a Stream,
    dir: &'a Path,
    pipeline: Arc<ValidatorPipeline>,
    validator: StreamValidator,
    /// Held so the journal stays attached for the life of the peer.
    store: FabricStore,
    link: LinkReceiver,
    pub watcher: Watcher,
    /// When each block was handed to `StreamValidator::push`.
    pushed: Vec<Instant>,
    /// Time the calling thread spent inside `deliver`.
    busy_ns: u64,
    /// Processor seconds of the process when the peer was opened.
    cpu_at_open_s: f64,
}

/// What a closed pass hands back to its workload.
pub struct ClosedPass {
    /// When `finish()` returned: every block committed and flushed.
    pub end: Instant,
    /// When the watcher first saw each block committed.
    pub commits: Vec<Instant>,
    /// Transactions diverging from the oracle (0 on a correct pass).
    pub diverged: u64,
    /// Recovery reproduced the oracle's height and hashes.
    pub recovered: bool,
}

impl<'a> PeerSide<'a> {
    /// Opens a fresh store under `dir` and starts a stream validator
    /// over it, verifying through `cache`.
    pub fn open(stream: &'a Stream, dir: &'a Path, cache: Arc<SignatureCache>) -> Self {
        let store = FabricStore::open(dir, StoreConfig::default()).expect("fresh store opens");
        let pipeline = Arc::new(ValidatorPipeline::with_shared_cache(
            stream.msp(),
            stream.policies(),
            VSCC_WORKERS,
            cache,
            store.state_db(),
            store.ledger(),
        ));
        let validator = StreamValidator::new(Arc::clone(&pipeline), StreamConfig::default());
        let watcher = Watcher::start(pipeline.ledger());
        PeerSide {
            stream,
            dir,
            pipeline,
            validator,
            store,
            link: LinkReceiver::default(),
            watcher,
            pushed: Vec::with_capacity(stream.blocks.len()),
            busy_ns: 0,
            cpu_at_open_s: host::cpu_seconds(),
        }
    }

    /// Ingests the packets of block `number` and pushes what the
    /// receiver reassembles from them.
    pub fn deliver(&mut self, number: u64, packets: &[Vec<u8>], log: &mut SpanLog) {
        let t0 = Instant::now();
        for received in self.link.ingest(number, packets, log) {
            let number = received.header.number;
            let t1 = Instant::now();
            self.validator
                .push(received)
                .expect("blocks are pushed once, in order");
            let t2 = Instant::now();
            log.record("peer.push", "harness.block", number, t1, t2);
            self.pushed.push(t2);
        }
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Waits for the last commit, finishes the stream (the flush), runs
    /// the oracle gate, measures the disk, times recovery, and folds
    /// the pass into `layers`.
    pub fn close(self, start: Instant, log: &mut SpanLog, layers: &mut PeerLayers) -> ClosedPass {
        let PeerSide {
            stream,
            dir,
            pipeline,
            validator,
            store,
            link,
            watcher,
            pushed,
            busy_ns,
            cpu_at_open_s,
        } = self;
        let blocks = stream.blocks.len() as u64;
        // With every block committed the lanes are idle, so `finish` is
        // thread joins plus `flush_storage`: its span is the flush.
        // Wait for what was pushed, not for what the oracle has: a pass
        // that lost transactions pushes fewer blocks, and must reach the
        // oracle gate below instead of waiting for ever.
        watcher.wait_for(pushed.len() as u64);
        let t0 = Instant::now();
        let report = validator.finish().expect("stream finishes");
        let end = Instant::now();
        layers.cpu_s += host::cpu_seconds() - cpu_at_open_s;
        log.record("store.flush", "", blocks, t0, end);
        let watch = watcher.stop();
        let diverged = diverging_txs(stream, &pipeline, &report);

        layers.blocks += blocks;
        layers.txs += stream.txs() as u64;
        layers.wall_ns += (end - start).as_nanos() as u64;
        layers.feeder_busy_ns += busy_ns;
        layers.flush_ms.push((end - t0).as_secs_f64() * 1e3);
        for (result, (&pushed, &committed)) in
            report.results.iter().zip(pushed.iter().zip(&watch.commits))
        {
            let t = &result.timings;
            let stages = [
                ("peer.unmarshal", t.unmarshal_us),
                ("peer.block_verify", t.block_verify_us),
                ("peer.vscc", t.verify_vscc_us),
                ("peer.mvcc", t.mvcc_us),
                ("peer.statedb_commit", t.statedb_commit_us),
                ("peer.ledger", t.ledger_us),
            ];
            log.record(
                "peer.block",
                "harness.block",
                result.block_num,
                pushed,
                committed,
            );
            let mut cursor = log.ns(pushed);
            let mut staged_us = 0;
            for (i, (name, us)) in stages.into_iter().enumerate() {
                log.record_reported(
                    name,
                    "peer.block",
                    result.block_num,
                    &mut cursor,
                    us * 1_000,
                );
                layers.stage_us[i] += us;
                staged_us += us;
            }
            // push→commit = stage timings + queue wait, by definition;
            // the watcher's resolution can make a wait read below 0.
            let span_ms = committed.saturating_duration_since(pushed).as_secs_f64() * 1e3;
            layers.queue_wait_ms.push(span_ms - staged_us as f64 / 1e3);
        }
        layers.verify_occupancy.push(report.stats.verify_occupancy);
        layers.commit_occupancy.push(report.stats.commit_occupancy);
        layers.overlap_factor.push(report.stats.overlap_factor);
        layers.max_in_flight = layers
            .max_in_flight
            .max(report.stats.max_in_flight_observed);
        layers.recv_ns += link.recv_ns;
        layers.wire_bytes += link.wire_bytes;
        layers.peer_verifications += pipeline.verifications() as u64;
        layers.watch_polls += watch.polls;
        layers.watch_poll_ns += watch.poll_ns;

        // Close every handle on the store before measuring and
        // re-opening it.
        drop(pipeline);
        drop(store);
        let disk = DiskBytes::measure(dir);
        layers.journal_bytes += disk.journal;
        layers.segment_bytes += disk.segments;
        layers.disk_bytes += disk.total;
        let (open_s, recovered) = timed_recovery(stream, dir, log);
        layers.open_s.push(open_s);
        let _ = std::fs::remove_dir_all(dir);

        ClosedPass {
            end,
            commits: watch.commits,
            diverged,
            recovered,
        }
    }
}

/// Per-layer accumulators over the passes of a stream workload.
#[derive(Default)]
pub struct PeerLayers {
    blocks: u64,
    pub txs: u64,
    wall_ns: u64,
    /// Processor seconds the whole process used during the passes.
    cpu_s: f64,
    feeder_busy_ns: u64,
    /// unmarshal, block_verify, vscc, mvcc, statedb_commit, ledger.
    stage_us: [u64; 6],
    queue_wait_ms: Vec<f64>,
    verify_occupancy: Vec<f64>,
    commit_occupancy: Vec<f64>,
    overlap_factor: Vec<f64>,
    max_in_flight: usize,
    sent_blocks: u64,
    send_ns: u64,
    recv_ns: u64,
    packets: u64,
    wire_bytes: u64,
    block_bytes: u64,
    savings: f64,
    pub peer_verifications: u64,
    flush_ms: Vec<f64>,
    open_s: Vec<f64>,
    journal_bytes: u64,
    segment_bytes: u64,
    disk_bytes: u64,
    watch_polls: u64,
    watch_poll_ns: u64,
}

impl PeerLayers {
    /// Folds in what a sender did: once per stream where the stream
    /// is sent in set-up, once per pass where it is sent live.
    pub fn absorb_sender(&mut self, sender: &LinkSender) {
        let stats = sender.stats();
        self.sent_blocks += sender.blocks;
        self.send_ns += sender.send_ns;
        self.packets += stats.packets;
        self.block_bytes += stats.block_bytes;
        self.savings = stats.savings();
    }

    /// Mean durable `ledger_us` per block (for `store.append`).
    pub fn ledger_us_per_block(&self) -> f64 {
        self.stage_us[5] as f64 / self.blocks.max(1) as f64
    }

    pub fn export(&mut self, m: &mut Metrics) {
        let blocks = self.blocks.max(1) as f64;
        let sent_blocks = self.sent_blocks.max(1) as f64;
        let txs = self.txs.max(1) as f64;
        let names = [
            "peer.unmarshal_us_per_block",
            "peer.block_verify_us_per_block",
            "peer.vscc_us_per_block",
            "peer.mvcc_us_per_block",
            "peer.statedb_commit_us_per_block",
            "peer.ledger_us_per_block",
        ];
        for (name, us) in names.into_iter().zip(self.stage_us) {
            m.set(name, us as f64 / blocks);
        }
        m.set(
            "peer.verify_occupancy",
            stats::median(&mut self.verify_occupancy),
        );
        m.set(
            "peer.commit_occupancy",
            stats::median(&mut self.commit_occupancy),
        );
        m.set(
            "peer.overlap_factor",
            stats::median(&mut self.overlap_factor),
        );
        m.set("peer.max_in_flight", self.max_in_flight as f64);
        m.set(
            "peer.queue_wait_ms_p50",
            stats::median(&mut self.queue_wait_ms),
        );
        m.set(
            "bmac.send_us_per_block",
            self.send_ns as f64 / 1e3 / sent_blocks,
        );
        m.set("bmac.recv_us_per_block", self.recv_ns as f64 / 1e3 / blocks);
        m.set("bmac.packets_per_block", self.packets as f64 / sent_blocks);
        m.set("bmac.savings", self.savings);
        m.set("bmac.wire_bytes_per_tx", self.wire_bytes as f64 / txs);
        m.set(
            "protos.block_bytes_per_tx",
            self.block_bytes as f64 * blocks / sent_blocks / txs,
        );
        m.set("store.flush_ms", stats::median(&mut self.flush_ms));
        m.set("store.open_s", stats::median(&mut self.open_s));
        m.set(
            "store.journal_bytes_per_tx",
            self.journal_bytes as f64 / txs,
        );
        m.set(
            "store.segment_bytes_per_tx",
            self.segment_bytes as f64 / txs,
        );
        m.set("store.disk_bytes_per_tx", self.disk_bytes as f64 / txs);
        m.set(
            "loadgen.feeder_busy_share",
            self.feeder_busy_ns as f64 / self.wall_ns.max(1) as f64,
        );
        m.set("host.cpu_busy_share", self.cpu_busy_share());
        m.set(
            "loadgen.watch_poll_us",
            self.watch_poll_ns as f64 / 1e3 / self.watch_polls.max(1) as f64,
        );
    }

    /// Share of the host's processors the process kept busy during the
    /// passes.
    fn cpu_busy_share(&self) -> f64 {
        self.cpu_s / (self.wall_ns.max(1) as f64 / 1e9 * host::cpus() as f64)
    }

    /// What limits the pass rate, as the output must state: the stage
    /// whose occupancy is near 1, else the host's processors when all
    /// of them are busy, else nothing (the open loop below saturation).
    pub fn bottleneck(&mut self) -> String {
        let verify = stats::median(&mut self.verify_occupancy);
        let commit = stats::median(&mut self.commit_occupancy);
        let feeder = self.feeder_busy_ns as f64 / self.wall_ns.max(1) as f64;
        let cpu = self.cpu_busy_share();
        let (name, share) = [
            ("verify lanes (vscc)", verify),
            ("commit sequencer", commit),
            ("receiving thread (bmac ingest + push)", feeder),
        ]
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("three candidates");
        let verdict = if share >= 0.9 {
            format!("bottleneck: {name} at occupancy {share:.2}")
        } else if cpu >= 0.85 {
            format!(
                "bottleneck: the host's {} processors, {cpu:.2} busy; no stage is saturated \
                 (busiest: {name} at occupancy {share:.2}), so a layer's saving converts by its \
                 share of the processor time per block",
                host::cpus()
            )
        } else {
            format!("nothing saturated: busiest stage is {name} at occupancy {share:.2}")
        };
        format!(
            "{verdict} (verify {verify:.2}, commit {commit:.2}, receiving thread {feeder:.2}, \
             processors {cpu:.2})"
        )
    }
}
