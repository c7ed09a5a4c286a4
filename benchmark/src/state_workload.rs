//! `state_zipf_1m`: `fabric-statedb` alone, with state far larger than
//! the CPU caches and reads beside writes. One committer thread applies
//! Zipf-contended blocks over a million preloaded keys; one reader
//! thread does point reads the whole time, and now and then pins a
//! snapshot and scans a range on it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fabric_statedb::{Height, StateDb, WriteBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{StatePreload, ZipfCommitLoad, ZipfSampler};

use crate::metrics::Metrics;
use crate::run::{export_trace, timed_setup, Outcome, Passes, RunOpts};
use crate::stats;
use crate::trace::SpanLog;

/// Distinct keys the reader cycles through: even slots Zipf-hot (the
/// keys the committer is rewriting), odd slots strided-cold.
const READ_RING: usize = 1 << 16;
/// One read latency in this many is kept (all are timed), which bounds
/// the sample's memory. Odd, so that the kept reads alternate between
/// the hot and the cold slots of the ring like the reads themselves.
const KEEP_EVERY: u64 = 7;
/// Every this-many reads the reader pins a snapshot and scans
/// [`RANGE_KEYS`] keys on it.
const PIN_EVERY: u64 = 1_000;
const RANGE_KEYS: u64 = 100;

type Block = Vec<(WriteBatch, Height)>;

struct Fixture {
    db: StateDb,
    preload: StatePreload,
    blocks: Vec<Block>,
    ring: Vec<String>,
    preload_s: f64,
}

/// What the reader thread measured.
struct Reads {
    count: u64,
    none: u64,
    wall_s: f64,
    get_ns: Vec<u32>,
    pin_us: Vec<f64>,
    range_us: Vec<f64>,
    short_ranges: u64,
    log: SpanLog,
}

pub fn run(name: &str, opts: &RunOpts) -> Outcome {
    let (keys, load_blocks) = if opts.smoke {
        (100_000, 500)
    } else {
        (StatePreload::default().keys, 5_000)
    };
    let (mut fx, setup_s) = timed_setup(|| fixture(keys, load_blocks, opts.seed));
    let txs_per_pass: u64 = fx.blocks.iter().map(|b| b.len() as u64).sum();

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, opts.trace);
    let mut passes = Passes::new(opts);
    let mut tps = Vec::new();
    let mut apply_ns = 0u64;
    let mut applied_blocks = 0u64;
    let stop = AtomicBool::new(false);

    let db = fx.db.clone();
    let reads = std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn_scoped(scope, || {
                read_loop(&db, &fx.ring, &stop, SpanLog::new(epoch, opts.trace))
            })
            .expect("spawn reader");

        // The committer thread (this one).
        while let Some(pass) = passes.next_due() {
            if pass > 0 {
                // Same writes, next heights: versions keep rising.
                for (_, height) in fx.blocks.iter_mut().flatten() {
                    height.block_num += load_blocks;
                }
            }
            let start = Instant::now();
            for block in &fx.blocks {
                let t0 = Instant::now();
                fx.db.apply_block(block);
                let t1 = Instant::now();
                log.record("statedb.apply_block", "", block[0].1.block_num, t0, t1);
                apply_ns += (t1 - t0).as_nanos() as u64;
            }
            let wall_s = start.elapsed().as_secs_f64();
            applied_blocks += fx.blocks.len() as u64;
            passes.spent(wall_s);
            tps.push(txs_per_pass as f64 / wall_s);
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });

    let per_pass = format!("pass tx/s, in order: {tps:.0?}");
    let mismatches = mismatches_against_model(&fx);
    let committed = txs_per_pass * tps.len() as u64;
    let failed = reads.none + reads.short_ranges + mismatches;
    let mut get_ms: Vec<f64> = reads.get_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    get_ms.sort_by(f64::total_cmp);

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("commit_tps", stats::median(&mut tps));
    m.set("latency_p50_ms", stats::quantile_sorted(&get_ms, 0.50));
    m.set("latency_tail_ms", stats::quantile_sorted(&get_ms, 0.99));
    let mut out = Outcome {
        correct: mismatches == 0,
        attempted: committed + reads.count,
        failed,
        metrics: m,
        notes: vec![format!(
            "{name}: {} committer passes of {load_blocks} blocks / {txs_per_pass} txs over {keys} keys; \
             {} reads beside them, {} latencies kept (tail reported p99, sample supports p{}), \
             {} pins with a {RANGE_KEYS}-key range",
            tps.len(),
            reads.count,
            get_ms.len(),
            stats::supported_tail(get_ms.len()) * 100.0,
            reads.pin_us.len()
        ), per_pass],
    };
    if opts.trace {
        let m = &mut out.metrics;
        m.set(
            "statedb.apply_us_per_block",
            apply_ns as f64 / 1e3 / applied_blocks as f64,
        );
        m.set(
            "statedb.get_ns_p50",
            stats::quantile_sorted(&get_ms, 0.50) * 1e6,
        );
        m.set("statedb.reads_per_s", reads.count as f64 / reads.wall_s);
        m.set("statedb.pin_us", stats::mean(&reads.pin_us));
        m.set("statedb.range100_us", stats::mean(&reads.range_us));
        m.set("statedb.preload_keys_per_s", keys as f64 / fx.preload_s);
        m.set("statedb.keys", fx.db.len() as f64);
        log.append(reads.log);
        // The reader's recording is charged to the committer's wall too:
        // an upper bound, since the two run side by side.
        export_trace(opts, name, &log, passes.timed_s(), &mut out);
    }
    out
}

fn fixture(keys: u64, load_blocks: u64, seed: u64) -> Fixture {
    let db = StateDb::new();
    let preload = StatePreload {
        keys,
        ..StatePreload::default()
    };
    let t0 = Instant::now();
    let first_block = preload.load(&db);
    let preload_s = t0.elapsed().as_secs_f64();
    let blocks = ZipfCommitLoad {
        population: keys,
        blocks: load_blocks,
        first_block,
        seed,
        ..ZipfCommitLoad::default()
    }
    .blocks();
    let zipf = ZipfSampler::new(keys, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAD);
    // An odd stride is coprime to nothing in particular but walks the
    // key space far from the Zipf head.
    let stride = (keys / READ_RING as u64) | 1;
    let ring = (0..READ_RING as u64)
        .map(|slot| {
            let index = if slot % 2 == 0 {
                zipf.sample(&mut rng) - 1
            } else {
                (keys / 2 + slot * stride) % keys
            };
            StatePreload::key(index)
        })
        .collect();
    Fixture {
        db,
        preload,
        blocks,
        ring,
        preload_s,
    }
}

fn read_loop(db: &StateDb, ring: &[String], stop: &AtomicBool, log: SpanLog) -> Reads {
    let mut r = Reads {
        count: 0,
        none: 0,
        wall_s: 0.0,
        get_ns: Vec::with_capacity(1 << 22),
        pin_us: Vec::new(),
        range_us: Vec::new(),
        short_ranges: 0,
        log,
    };
    let start = Instant::now();
    'run: loop {
        for key in ring {
            let t0 = Instant::now();
            let value = db.get(key);
            let t1 = Instant::now();
            r.count += 1;
            r.none += u64::from(value.is_none());
            if r.count.is_multiple_of(KEEP_EVERY) {
                r.get_ns
                    .push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
            }
            if r.count.is_multiple_of(PIN_EVERY) {
                // One span per pin and per range; point reads are far
                // too many to keep a span each, so one in PIN_EVERY is.
                r.log.record("statedb.get", "", r.count, t0, t1);
                let index = r.count % (ring.len() as u64 - RANGE_KEYS);
                let (lo, hi) = (
                    StatePreload::key(index),
                    StatePreload::key(index + RANGE_KEYS),
                );
                let t2 = Instant::now();
                let snapshot = db.pin();
                let t3 = Instant::now();
                let rows = snapshot.range(&lo, &hi);
                let t4 = Instant::now();
                r.log.record("statedb.pin", "", r.count, t2, t3);
                r.log.record("statedb.range", "", r.count, t3, t4);
                r.pin_us.push((t3 - t2).as_secs_f64() * 1e6);
                r.range_us.push((t4 - t3).as_secs_f64() * 1e6);
                r.short_ranges += u64::from(rows.len() as u64 != RANGE_KEYS);
                if stop.load(Ordering::SeqCst) {
                    break 'run;
                }
            }
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// The oracle for this workload is a model, not a second database:
/// every write is a blind put, so the final state is "last writer
/// wins" over the last pass, and every untouched key still holds its
/// preload value. Returns the number of keys that disagree.
fn mismatches_against_model(fx: &Fixture) -> u64 {
    let mut model: HashMap<&str, (&[u8], Height)> = HashMap::new();
    for (batch, height) in fx.blocks.iter().flatten() {
        for (key, value) in batch.iter() {
            model.insert(key, (value.expect("the load only puts"), *height));
        }
    }
    let mut mismatches = 0u64;
    let mut first = true;
    let mut check = |key: &str, value: &[u8], version: Option<Height>| {
        let got = fx.db.get(key);
        let ok = got
            .as_ref()
            .is_some_and(|g| g.value == value && version.is_none_or(|v| g.version == v));
        if !ok {
            mismatches += 1;
            if std::mem::take(&mut first) {
                eprintln!(
                    "ORACLE DIVERGENCE: key {key}: expected {value:?} at {version:?}, got {got:?}"
                );
            }
        }
    };
    for (key, (value, height)) in &model {
        check(key, value, Some(*height));
    }
    let keys = fx.preload.keys;
    for index in (0..keys).step_by((keys / 1_000).max(1) as usize) {
        let key = StatePreload::key(index);
        if !model.contains_key(key.as_str()) {
            check(&key, &fx.preload.value(index), None);
        }
    }
    if fx.db.len() as u64 != keys {
        eprintln!(
            "ORACLE DIVERGENCE: {} keys in the database, {keys} preloaded",
            fx.db.len()
        );
        mismatches += 1;
    }
    mismatches
}
