//! Exact allocation counts of the state database's block path, held
//! to a checked-in budget.
//!
//! A counting global allocator sees every heap allocation this binary
//! makes, on every thread; the binary has one test so that nothing else
//! runs beside the steps it counts. The block is the peer's shape: 100
//! transactions of two short-key writes, one `WriteBatch` a transaction,
//! applied with one `apply_block` to keys a preload already holds.
//!
//! Run with `-- --nocapture` to see the table. A change that adds an
//! allocation to a counted step fails here; a change that removes some
//! lowers the budget in the same commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fabric_statedb::{Height, StateDb, WriteBatch};

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and
/// hands every call to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so the caller's `GlobalAlloc` obligations carry over
// unchanged; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: a plain event count, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // relaxed: a plain event count, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: a plain event count, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `step` makes, with its result.
fn counted<T>(step: impl FnOnce() -> T) -> (T, u64) {
    // relaxed: this thread is the only one allocating during the step
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = step();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const PRELOAD_KEYS: u64 = 4_096;
const TXS: u64 = 100;
const WRITES_PER_TX: u64 = 2;

/// The checked-in budget: allocation calls a step may make, at most.
/// Today's exact counts; see the module docs for when they move.
const BUDGET: [(&str, u64); 4] = [
    // One entry vector a batch, plus the block's vector. Short keys and
    // values are held in the entries.
    ("build 100 batches", 101),
    // The regrouping by shard (four vectors), and each touched chain
    // growing from the preload's one entry to room for two.
    ("apply, first touch", 204),
    // The regrouping alone: the chains already have their room.
    ("apply again", 4),
    // Point reads allocate nothing.
    ("get_version x200", 0),
];

/// The key of account `i`: 14 bytes, like the benchmark's.
fn key(i: u64) -> String {
    format!("acct{i:010}")
}

fn block(keys: &[String], block_num: u64) -> Vec<(WriteBatch, Height)> {
    let mut batches = Vec::with_capacity(TXS as usize);
    for tx in 0..TXS {
        let mut batch = WriteBatch::new();
        for w in 0..WRITES_PER_TX {
            let value = [(block_num + tx + w) as u8; 16];
            batch.put(&keys[(tx * WRITES_PER_TX + w) as usize], value);
        }
        batches.push((batch, Height::new(block_num, tx)));
    }
    batches
}

#[test]
fn block_path_allocations_stay_within_budget() {
    let db = StateDb::new();
    let mut preload = WriteBatch::new();
    for i in 0..PRELOAD_KEYS {
        preload.put(key(i), i.to_le_bytes());
    }
    db.apply(&preload, Height::new(0, 0));
    // Distinct keys spread over the preload, made before counting.
    let keys: Vec<String> = (0..TXS * WRITES_PER_TX)
        .map(|i| key(i * 19 % PRELOAD_KEYS))
        .collect();

    let (first, build) = counted(|| block(&keys, 1));
    let ((), apply_first) = counted(|| db.apply_block(&first));
    let second = block(&keys, 2);
    let ((), apply_again) = counted(|| db.apply_block(&second));
    let (found, gets) = counted(|| keys.iter().filter_map(|k| db.get_version(k)).count());
    assert_eq!(found, keys.len());
    assert_eq!(db.get_version(&keys[0]), Some(Height::new(2, 0)));

    let counts = [build, apply_first, apply_again, gets];
    let mut over = Vec::new();
    println!("{:<22} {:>8} {:>8}", "step", "allocs", "budget");
    for ((step, budget), count) in BUDGET.iter().zip(counts) {
        println!("{step:<22} {count:>8} {budget:>8}");
        if count > *budget {
            over.push(format!("{step}: {count} > {budget}"));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}
