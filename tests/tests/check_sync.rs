//! Integration tests for the fabric-check lock-order/race analysis
//! layer wired through the parking_lot shim.
//!
//! Gated behind the `check-sync` feature so the default build (and the
//! default `cargo test` run) carries no instrumentation:
//!
//! ```text
//! cargo test -p bmac-integration-tests --features check-sync
//! ```
//!
//! The checker state (order graph, enable flag, seed) is process-wide,
//! so every test here serializes on one mutex and uses `test.`-prefixed
//! lock labels (exempt from the LOCK_ORDER.txt manifest) with names
//! unique to that test — the order graph accumulates edges for the
//! lifetime of the process.
#![cfg(feature = "check-sync")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric_statedb::{Height, JournalSink, StateDb, WriteBatch};
use parking_lot::Mutex;

/// Serializes tests in this binary: they all mutate the process-wide
/// checker (enable flag, seed, lock-order graph).
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// The deliberate ABBA fixture: establish `test.abba_a -> test.abba_b`,
/// then acquire in the reverse order. The checker must panic at the
/// moment the inverted edge is registered — before blocking, so this
/// runs deterministically on one thread — and the message must name
/// both conflicting acquisition sites.
#[test]
fn abba_inversion_panics_naming_both_sites() {
    let _serial = test_lock();
    fabric_check::enable();

    let a = Mutex::named("test.abba_a", ());
    let b = Mutex::named("test.abba_b", ());

    {
        let _ga = a.lock();
        let _gb = b.lock(); // records test.abba_a -> test.abba_b
    }

    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock(); // inversion: test.abba_b -> test.abba_a
    }))
    .expect_err("inverted acquisition order must panic under check-sync");

    let msg = panic_text(err);
    assert!(
        msg.contains("LOCK-ORDER INVERSION"),
        "unexpected panic: {msg}"
    );
    assert!(msg.contains("test.abba_a"), "missing first label: {msg}");
    assert!(msg.contains("test.abba_b"), "missing second label: {msg}");
    // Both stacks are rendered: the inverted acquisition and the
    // first-observed conflicting one.
    assert!(
        msg.contains("this acquisition") && msg.contains("conflicting prior acquisition"),
        "must render both acquisition sites: {msg}"
    );
}

/// A lock-order violation found under perturbation echoes the seed so
/// the schedule can be replayed exactly.
#[test]
fn perturbation_failure_echoes_replay_seed() {
    let _serial = test_lock();
    fabric_check::enable();
    fabric_check::set_seed(0xD00D_F00D);

    let a = Mutex::named("test.seed_a", ());
    let b = Mutex::named("test.seed_b", ());
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    }))
    .expect_err("inversion must panic");
    let msg = panic_text(err);
    assert!(
        msg.contains(&format!("FABRIC_CHECK_SEED={}", 0xD00D_F00Du64)),
        "panic must echo the perturbation seed for replay: {msg}"
    );
    assert_eq!(fabric_check::current_seed(), 0xD00D_F00D);
    fabric_check::set_seed(0);
}

/// The perturbation decision stream is a pure function of (seed,
/// thread index): the same seed replays the same schedule and a
/// different seed genuinely perturbs it.
#[test]
fn perturbation_trace_replays_deterministically() {
    let _serial = test_lock();
    let t1 = fabric_check::perturb_trace(42, 0, 512);
    let t2 = fabric_check::perturb_trace(42, 0, 512);
    assert_eq!(t1, t2, "same seed + thread must replay identically");

    let other_seed = fabric_check::perturb_trace(43, 0, 512);
    assert_ne!(t1, other_seed, "different seed must perturb differently");
    let other_thread = fabric_check::perturb_trace(42, 1, 512);
    assert_ne!(t1, other_thread, "threads must not share one stream");
}

/// `holding()` tracks the shim guards of the calling thread only.
#[test]
fn holding_reflects_shim_guard_lifetime() {
    let _serial = test_lock();
    fabric_check::enable();
    let m = Mutex::named("test.holding_probe", ());
    assert!(!fabric_check::holding("test.holding_probe"));
    {
        let _g = m.lock();
        assert!(fabric_check::holding("test.holding_probe"));
        // Another thread holding nothing sees an empty stack.
        std::thread::scope(|s| {
            s.spawn(|| assert!(!fabric_check::holding("test.holding_probe")));
        });
    }
    assert!(!fabric_check::holding("test.holding_probe"));
}

/// Journal sink that checks the journal-order invariant from the
/// outside: every `record` call must arrive while the writer holds
/// `statedb.order`, and heights must arrive in apply order.
#[derive(Debug, Default)]
struct OrderProbe {
    records: std::sync::Mutex<Vec<Height>>,
    out_of_lock: AtomicU64,
}

impl JournalSink for OrderProbe {
    fn record(&self, _batch: &WriteBatch, height: Height) {
        if !fabric_check::holding("statedb.order") {
            self.out_of_lock.fetch_add(1, Ordering::Relaxed);
        }
        self.records
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(height);
    }

    fn flush(&self) {}
}

/// Shard-parallel `apply_block` (enough entries to cross the internal
/// parallel-apply threshold) must keep the journal-order invariant:
/// records are emitted under `statedb.order`, in exactly the order the
/// batches were applied.
#[test]
fn shard_parallel_apply_block_keeps_journal_order() {
    let _serial = test_lock();
    fabric_check::enable();

    let db = StateDb::with_shards(8);
    let probe = Arc::new(OrderProbe::default());
    db.attach_journal(probe.clone());

    // 4 blocks × 8 batches × 20 keys = 640 entries per block, well
    // past the 256-entry parallel-apply threshold.
    let mut expected = Vec::new();
    for block in 1..=4u64 {
        let mut batches = Vec::new();
        for tx in 0..8u64 {
            let mut batch = WriteBatch::new();
            for k in 0..20u64 {
                batch.put(
                    format!("key-{:02}-{:02}", (tx * 20 + k) % 59, k),
                    vec![block as u8, tx as u8, k as u8],
                );
            }
            let h = Height::new(block, tx);
            expected.push(h);
            batches.push((batch, h));
        }
        db.apply_block(&batches);
    }

    assert_eq!(
        probe.out_of_lock.load(Ordering::Relaxed),
        0,
        "journal records must be emitted under `statedb.order`"
    );
    let records = probe
        .records
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    assert_eq!(
        records, expected,
        "journal record order must equal apply order"
    );
    assert_eq!(db.tip_height(), Some(Height::new(4, 7)));
}

/// The statedb's declared lock edges hold under live checking while
/// readers, writers, and snapshot pins race — the manifest in
/// LOCK_ORDER.txt matches what the code actually does.
#[test]
fn statedb_concurrent_traffic_is_order_clean() {
    let _serial = test_lock();
    fabric_check::enable();

    let db = Arc::new(StateDb::with_shards(16));
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..32u64 {
                    let mut batch = WriteBatch::new();
                    batch.put(format!("w{w}-k{i}"), vec![w as u8, i as u8]);
                    db.apply(&batch, Height::new(w * 100 + i + 1, 0));
                }
            });
        }
        for _ in 0..2 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..64u64 {
                    let _ = db.get(&format!("w0-k{i}"));
                    let pin = db.pin();
                    let _ = pin.height();
                }
            });
        }
    });
    assert_eq!(db.len(), 4 * 32);
}
