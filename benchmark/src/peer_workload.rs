//! `peer_cold_smallbank` and `peer_warm_drm`: a closed loop of blocks,
//! as the packets an orderer put on the wire, through link receiver →
//! stream validator → durable store, [`WINDOW`] blocks outstanding. The
//! two differ in the application and in whether the signature cache
//! starts each pass empty or holding every verdict.
//!
//! The sending half of the link runs in set-up: it is the orderer's
//! work, and run live on the feeding thread it, not the peer, was what
//! `peer_warm_drm` measured (see the README, "What measuring showed").

use std::sync::Arc;
use std::time::Instant;

use fabric_peer::{SigCacheStats, SignatureCache};
use workload::Workload;

use crate::gen::{Stream, WARM_CACHE_CAPACITY};
use crate::harness::{LinkSender, WorkDir, COLD_CACHE_CAPACITY, WINDOW};
use crate::metrics::Metrics;
use crate::peerside::{PeerLayers, PeerSide};
use crate::probe;
use crate::run::{export_trace, timed_setup, Outcome, Passes, RunOpts};
use crate::stats;
use crate::trace::SpanLog;

/// Which of the two peer workloads to run.
#[derive(Clone, Copy)]
pub enum Cache {
    /// Fresh cache per pass: every signature is verified.
    Cold,
    /// Cache warmed in set-up and shared by all passes: every lookup
    /// hits, the state a peer is in behind the mempool.
    Warm,
}

pub fn run(name: &str, application: Workload, cache: Cache, opts: &RunOpts) -> Outcome {
    let warm = matches!(cache, Cache::Warm);
    let mut log = SpanLog::new(Instant::now(), opts.trace);
    let mut layers = PeerLayers::default();
    let ((stream, warm_cache, wire), setup_s) = timed_setup(|| {
        let warm_cache = warm.then(|| Arc::new(SignatureCache::new(WARM_CACHE_CAPACITY)));
        let stream = Stream::generate(
            application,
            opts.stream_blocks(),
            opts.seed,
            warm_cache.clone(),
        );
        let mut sender = LinkSender::default();
        let wire: Vec<Vec<Vec<u8>>> = stream
            .blocks
            .iter()
            .map(|block| sender.packets(block, "", &mut log))
            .collect();
        layers.absorb_sender(&sender);
        (stream, warm_cache, wire)
    });

    let work = WorkDir::create(&opts.target_dir);
    let mut passes = Passes::new(opts);
    let mut tps = Vec::new();
    let mut latency_ms = Vec::new();
    let mut cache_stats = SigCacheStats::default();
    let mut failed = 0u64;
    let mut correct = true;
    let txs = stream.txs() as u64;

    while let Some(pass) = passes.next_due() {
        let cache = warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(SignatureCache::new(COLD_CACHE_CAPACITY)));
        let before = cache.stats();
        let verified_before = layers.peer_verifications;
        let dir = work.pass(pass);
        let mut side = PeerSide::open(&stream, &dir, Arc::clone(&cache));

        let start = Instant::now();
        let mut sent = Vec::with_capacity(wire.len());
        for (n, packets) in wire.iter().enumerate() {
            side.watcher.wait_for((n as u64 + 1).saturating_sub(WINDOW));
            sent.push(Instant::now());
            side.deliver(n as u64, packets, &mut log);
        }
        let closed = side.close(start, &mut log, &mut layers);

        let wall_s = (closed.end - start).as_secs_f64();
        passes.spent(wall_s);
        tps.push(txs as f64 / wall_s);
        for (n, (&sent, &committed)) in sent.iter().zip(&closed.commits).enumerate() {
            latency_ms.push((committed - sent).as_secs_f64() * 1e3);
            log.record("harness.block", "", n as u64, sent, committed);
        }
        let after = cache.stats();
        cache_stats.hits += after.hits - before.hits;
        cache_stats.misses += after.misses - before.misses;

        // Exact counts: every signature verified once on a cold pass,
        // none on a warm one.
        let verified = layers.peer_verifications - verified_before;
        let expected = if warm { 0 } else { stream.oracle_verifications };
        if verified != expected {
            eprintln!(
                "ORACLE DIVERGENCE: pass {pass} ran {verified} verifications, expected {expected}"
            );
            correct = false;
        }
        failed += closed.diverged;
        correct &= closed.diverged == 0 && closed.recovered;
    }

    let per_pass = format!("pass tx/s, in order: {tps:.0?}");
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("commit_tps", stats::median(&mut tps));
    latency_ms.sort_by(f64::total_cmp);
    m.set("latency_p50_ms", stats::quantile_sorted(&latency_ms, 0.50));
    m.set("latency_tail_ms", stats::quantile_sorted(&latency_ms, 0.95));
    let mut out = Outcome {
        correct,
        attempted: layers.txs,
        failed,
        metrics: m,
        notes: vec![
            format!(
                "{name}: {} passes of {} blocks / {txs} txs ({} valid), {} block latencies \
                 (tail reported p95, sample supports p{})",
                tps.len(),
                stream.blocks.len(),
                stream.valid_txs(),
                latency_ms.len(),
                stats::supported_tail(latency_ms.len()) * 100.0
            ),
            layers.bottleneck(),
            per_pass,
        ],
    };
    if opts.trace {
        layers.export(&mut out.metrics);
        out.metrics.set(
            "crypto.verifications_per_tx",
            layers.peer_verifications as f64 / layers.txs as f64,
        );
        out.metrics.set("sigcache.hit_rate", cache_stats.hit_rate());
        out.metrics
            .set("sigcache.misses", cache_stats.misses as f64);
        let probe_cache =
            warm_cache.unwrap_or_else(|| Arc::new(SignatureCache::new(WARM_CACHE_CAPACITY)));
        probe::run(
            &stream,
            probe_cache,
            layers.ledger_us_per_block(),
            &mut log,
            &mut out,
        );
        export_trace(opts, name, &log, passes.timed_s(), &mut out);
    }
    out
}
