//! Exact allocation counts of the state database's block path, and the
//! exact heap bytes a write batch and a key of a preloaded store hold,
//! held to a checked-in budget.
//!
//! A counting global allocator sees every heap allocation this binary
//! makes, on every thread; the binary has one test so that nothing else
//! runs beside the steps it counts. The block is the peer's shape: 100
//! transactions of two short-key writes, one `WriteBatch` a transaction,
//! applied with one `apply_block` to keys a preload already holds; its
//! batches' heap bytes, divided by 100, are the bytes a batch. The
//! scan is the state benchmark's: one pinned 100-key `range`. The
//! heap bytes a key are the requested sizes live after a preload of
//! 50 000 and of 60 000 keys into a fresh store, divided by the key
//! count. A 16-shard store then holds about 3 125 and 3 750 keys a shard, and
//! the point index keeps its table at least twice a shard's keys
//! (`table_len` in `sharded.rs`), so both counts sit in one 8 192-position
//! table: the two rows differ only by the arena's pages and the ordered
//! index's chunks, not by a growth step of the table.
//!
//! Run with `-- --nocapture` to see the table. A change that adds an
//! allocation or a held byte to a counted step fails here; a change that
//! removes some lowers the budget in the same commit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use fabric_statedb::{Height, StateDb, WriteBatch};

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the
/// bytes requested and not yet freed, and hands every call to the
/// system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so the caller's `GlobalAlloc` obligations carry over
// unchanged; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: plain event and byte counts, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // relaxed: plain event and byte counts, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: plain event and byte counts, read after the counted step
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // relaxed: a plain byte count, read after the counted step
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
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

/// Heap bytes a key that a fresh store holds after a preload of `keys`
/// keys, rounded up: what the store and its preload leave allocated.
fn heap_bytes_a_key(keys: u64) -> u64 {
    let mut preload = WriteBatch::new();
    for i in 0..keys {
        preload.put(key(i), i.to_le_bytes());
    }
    // relaxed: the store's threads are joined before `apply` returns
    let before = LIVE.load(Ordering::Relaxed);
    let db = StateDb::new();
    db.apply(&preload, Height::new(0, 0));
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(db.len() as u64, keys);
    (held as u64).div_ceil(keys)
}

const PRELOAD_KEYS: u64 = 4_096;
const TXS: u64 = 100;
const WRITES_PER_TX: u64 = 2;

/// The checked-in budget: allocation calls a step may make, and heap
/// bytes a key a preloaded store may hold, at most. Today's exact
/// counts; see the module docs for when they move.
const BUDGET: [(&str, u64); 8] = [
    // One encoded buffer a batch, plus the block's vector.
    ("build 100 batches", 101),
    // The buffer the first write reserves, room for two writes of its
    // size: 4 + 2 × (4 + 14 + 1 + 4 + 16).
    ("heap bytes a batch", 82),
    // The regrouping by shard (three vectors), and each touched chain
    // leaving its slot for a vector with room for two entries.
    ("apply, first touch", 203),
    // The regrouping alone: the chains already have their room.
    ("apply again", 3),
    // Point reads allocate nothing.
    ("get_version x200", 0),
    // A key string and a value vector a row (200); each shard's run,
    // sized from its keys in the range, the vector of runs, the merge's
    // cursors and the merged run, sized from the runs (19); the pin's
    // entry and the two bound keys (5).
    ("pin, range 100", 224),
    // A 72-byte arena slot, the point index and the ordered index.
    ("heap bytes a key, 50k", 92),
    ("heap bytes a key, 60k", 88),
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

    // relaxed: this thread is the only one allocating during the build
    let live_before = LIVE.load(Ordering::Relaxed);
    let (first, build) = counted(|| block(&keys, 1));
    let block_vec = first.capacity() * std::mem::size_of::<(WriteBatch, Height)>();
    let batch_bytes = (LIVE.load(Ordering::Relaxed) - live_before) as u64 - block_vec as u64;
    let ((), apply_first) = counted(|| db.apply_block(&first));
    let second = block(&keys, 2);
    let ((), apply_again) = counted(|| db.apply_block(&second));
    let (found, gets) = counted(|| keys.iter().filter_map(|k| db.get_version(k)).count());
    assert_eq!(found, keys.len());
    let (rows, range) = counted(|| db.pin().range(&key(1_000), &key(1_100)).len());
    assert_eq!(rows, 100);
    assert_eq!(db.get_version(&keys[0]), Some(Height::new(2, 0)));

    let counts = [
        build,
        batch_bytes.div_ceil(TXS),
        apply_first,
        apply_again,
        gets,
        range,
        heap_bytes_a_key(50_000),
        heap_bytes_a_key(60_000),
    ];
    let mut over = Vec::new();
    println!("{:<22} {:>8} {:>8}", "step", "count", "budget");
    for ((step, budget), count) in BUDGET.iter().zip(counts) {
        println!("{step:<22} {count:>8} {budget:>8}");
        if count > *budget {
            over.push(format!("{step}: {count} > {budget}"));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}
