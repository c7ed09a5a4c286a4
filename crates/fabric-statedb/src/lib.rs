//! Versioned key-value state database (the LevelDB role in Fabric).
//!
//! Each peer "maintains its own copy of the ledger and current global
//! state of the data in a state database" (paper §2.1.1). Values are
//! versioned by *height* — the `(block, tx)` coordinate of the committing
//! transaction — and the MVCC check of the validation phase compares the
//! version observed at endorsement time against the current version
//! (paper §2.1.2 step 3).
//!
//! The stores:
//!
//! * [`StateDb`] — the unbounded, thread-safe store every software peer
//!   runs: hash-sharded, with each key and its version chain in one
//!   slot of a per-shard arena, found through a per-shard hash index
//!   that serves every point read and write, so reads can pin a height
//!   snapshot ([`StateDb::pin`]) without blocking the committer; a
//!   per-shard ordered key set, k-way merged, that serves range/prefix
//!   scans; and per-shard write batches so a block's commit goes wide
//!   over disjoint shards;
//! * [`BoundedStateDb`] — a capacity-limited store with an explicit
//!   read/write-lock discipline, modeling the in-hardware BRAM/URAM
//!   key-value store of the Blockchain Machine (paper §3.3: 8192
//!   entries, "internal locking mechanism to disallow reading of a key
//!   if it is currently being written").
//!
//! # The reference it is held to
//!
//! For every sequential interleaving of `apply`/`get`/`range`/
//! `snapshot`/`pin`, [`StateDb`] answers exactly what one ordered map
//! and a tip height would. That sequential model lives with the tests
//! (`tests/lib.rs`), not in this crate, and the proptest differential
//! harness `tests/tests/statedb_equivalence.rs` holds the store to it:
//! bit-identical dumps and [`hash_dump`] state hashes, MVCC flags, and
//! range-scan results on randomized batches, plus reader/committer
//! soaks for what only concurrency can break.

#![warn(missing_docs)]

use std::fmt;

use inline::{InlineBytes, Key};

mod bounded;
mod inline;
mod sharded;

pub use bounded::{BoundedDbError, BoundedStateDb, HW_DB_DEFAULT_CAPACITY};
pub use sharded::{
    hash_dump, SnapshotChunks, StateDb, StateSnapshot, DEFAULT_SHARDS, SNAPSHOT_CHUNK,
};

/// A `(block, tx)` height: the version tag Fabric stores with each value
/// ("its version created from block number and transaction sequence
/// number", paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Height {
    /// Committing block number.
    pub block_num: u64,
    /// Transaction index within the block.
    pub tx_num: u64,
}

impl Height {
    /// Creates a height.
    pub fn new(block_num: u64, tx_num: u64) -> Self {
        Height { block_num, tx_num }
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block_num, self.tx_num)
    }
}

/// A stored value with its version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The application value.
    pub value: Vec<u8>,
    /// Height of the transaction that wrote it.
    pub version: Height,
}

/// A batch of writes applied atomically at commit.
///
/// A key or value of at most 22 bytes is held inside the batch's own
/// entry, as the state database holds it; longer ones are copied to the
/// heap. `put` and `delete` copy what they are given, so a caller that
/// keeps its strings passes them by reference.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    entries: Vec<(Key, Option<InlineBytes>)>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues a put.
    pub fn put(&mut self, key: impl AsRef<str>, value: impl AsRef<[u8]>) -> &mut Self {
        self.entries.push((
            Key::new(key.as_ref()),
            Some(InlineBytes::new(value.as_ref())),
        ));
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: impl AsRef<str>) -> &mut Self {
        self.entries.push((Key::new(key.as_ref()), None));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value-or-delete)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&[u8]>)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_ref().map(InlineBytes::as_slice)))
    }
}

impl FromIterator<(String, Option<Vec<u8>>)> for WriteBatch {
    fn from_iter<I: IntoIterator<Item = (String, Option<Vec<u8>>)>>(iter: I) -> Self {
        let mut batch = WriteBatch::new();
        batch.extend(iter);
        batch
    }
}

impl Extend<(String, Option<Vec<u8>>)> for WriteBatch {
    fn extend<I: IntoIterator<Item = (String, Option<Vec<u8>>)>>(&mut self, iter: I) {
        self.entries.extend(
            iter.into_iter()
                .map(|(k, v)| (Key::new(&k), v.as_deref().map(InlineBytes::new))),
        );
    }
}

/// A write-ahead journal attached to a [`StateDb`].
///
/// When a sink is attached (see [`StateDb::attach_journal`]), every
/// [`StateDb::apply`] forwards the batch and height to the sink *before*
/// mutating the in-memory map — the write-ahead ordering a durable
/// backend (`fabric-store`'s state journal) needs so that any state a
/// reader can observe is also recoverable from the journal. Empty
/// batches are journaled too: recovery counts one record per valid
/// transaction, including transactions with empty write sets.
///
/// **Record order is apply order.** The store records under its
/// commit-order mutex, which is held across the whole (possibly
/// shard-parallel) apply — so even when a block's batches fan out over
/// shards concurrently, the journal sees them in exact commit order and
/// a replay reproduces the state byte-for-byte
/// (`journal_order_is_apply_order_under_parallel_commit` in the
/// equivalence harness).
///
/// Sinks must be infallible from the caller's perspective; a durable
/// implementation that cannot write its journal should panic rather
/// than let commits proceed unlogged.
pub trait JournalSink: Send + Sync + std::fmt::Debug {
    /// Records one batch at its commit height, before it becomes
    /// visible in memory.
    fn record(&self, batch: &WriteBatch, height: Height);
    /// Marks the end of one apply call — after the last
    /// [`JournalSink::record`] of a [`StateDb::apply`] or
    /// [`StateDb::apply_block`] (a block with no batches included),
    /// under the same lock. The unit a buffering sink counts its
    /// group-commit window in: the peer applies a block per call, so
    /// one boundary is one block. Sinks that do not buffer ignore it.
    fn apply_boundary(&self) {}
    /// Forces buffered journal bytes down to the backing medium (the
    /// group-commit boundary).
    fn flush(&self);
}

/// Statistics counters for a state database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDbStats {
    /// Total point reads served.
    pub reads: u64,
    /// Total writes applied.
    pub writes: u64,
    /// Reads that found no value.
    pub misses: u64,
}

/// The unit tests of the single-map store this crate shipped before
/// [`StateDb`] replaced it, kept under their names and run on
/// [`StateDb`]: the contract that store defined still holds.
#[cfg(test)]
mod legacy {
    mod tests {
        use crate::*;
        use parking_lot::Mutex;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[test]
        fn put_get_roundtrip() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            b.put("a", b"1");
            db.apply(&b, Height::new(1, 0));
            assert_eq!(db.get("a").unwrap().value, b"1");
            assert_eq!(db.get_version("a"), Some(Height::new(1, 0)));
            assert_eq!(db.get("missing"), None);
        }

        #[test]
        fn later_write_bumps_version() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            b.put("a", b"1");
            db.apply(&b, Height::new(1, 0));
            db.apply(&b, Height::new(2, 3));
            assert_eq!(db.get_version("a"), Some(Height::new(2, 3)));
        }

        #[test]
        fn delete_removes_key() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            b.put("a", b"1");
            db.apply(&b, Height::new(1, 0));
            let mut d = WriteBatch::new();
            d.delete("a");
            db.apply(&d, Height::new(2, 0));
            assert_eq!(db.get("a"), None);
            assert_eq!(db.len(), 0);
        }

        #[test]
        fn mvcc_validation_semantics() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            b.put("a", b"1");
            db.apply(&b, Height::new(1, 0));
            // matching version -> valid
            assert!(db.mvcc_validate(&[("a".into(), Some(Height::new(1, 0)))]));
            // stale version -> conflict
            assert!(!db.mvcc_validate(&[("a".into(), Some(Height::new(0, 0)))]));
            // read of a missing key expected missing -> valid
            assert!(db.mvcc_validate(&[("nope".into(), None)]));
            // key appeared since endorsement -> conflict
            assert!(!db.mvcc_validate(&[("a".into(), None)]));
        }

        #[test]
        fn range_scan_is_ordered() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            for k in ["b", "a", "c", "d"] {
                b.put(k, k.as_bytes());
            }
            db.apply(&b, Height::new(1, 0));
            let keys: Vec<String> = db.range("a", "d").into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, vec!["a", "b", "c"]);
        }

        #[test]
        fn stats_track_reads_and_misses() {
            let db = StateDb::new();
            db.get("x");
            let mut b = WriteBatch::new();
            b.put("x", vec![1]);
            db.apply(&b, Height::new(1, 0));
            db.get("x");
            let s = db.stats();
            assert_eq!(s.reads, 2);
            assert_eq!(s.misses, 1);
            assert_eq!(s.writes, 1);
        }

        #[test]
        fn clones_share_state() {
            let db = StateDb::new();
            let db2 = db.clone();
            let mut b = WriteBatch::new();
            b.put("k", vec![7]);
            db.apply(&b, Height::new(1, 0));
            assert_eq!(db2.get("k").unwrap().value, vec![7]);
        }

        #[derive(Debug, Default)]
        struct CountingSink {
            records: Mutex<Vec<(usize, Height)>>,
            flushes: AtomicUsize,
        }

        impl JournalSink for CountingSink {
            fn record(&self, batch: &WriteBatch, height: Height) {
                self.records.lock().push((batch.len(), height));
            }

            fn flush(&self) {
                self.flushes.fetch_add(1, Ordering::Relaxed);
            }
        }

        #[test]
        fn journal_sink_sees_every_apply_including_empty_batches() {
            let db = StateDb::new();
            let sink = Arc::new(CountingSink::default());
            db.attach_journal(sink.clone());
            let mut b = WriteBatch::new();
            b.put("a", vec![1]);
            db.apply(&b, Height::new(1, 0));
            // Empty batches must be journaled too: recovery counts one
            // record per valid transaction.
            db.apply(&WriteBatch::new(), Height::new(1, 1));
            assert_eq!(
                *sink.records.lock(),
                [(1, Height::new(1, 0)), (0, Height::new(1, 1))]
            );
            db.flush_journal();
            assert_eq!(sink.flushes.load(Ordering::Relaxed), 1);
        }

        #[test]
        fn replay_does_not_rejournal() {
            let db = StateDb::new();
            let sink = Arc::new(CountingSink::default());
            db.attach_journal(sink.clone());
            let mut b = WriteBatch::new();
            b.put("a", vec![1]);
            db.replay(&b, Height::new(3, 0));
            assert!(sink.records.lock().is_empty(), "replay must not journal");
            assert_eq!(db.get("a").unwrap().version, Height::new(3, 0));
            assert_eq!(db.tip_height(), Some(Height::new(3, 0)));
            // The sink stays attached: the next apply is journaled.
            db.apply(&b, Height::new(4, 0));
            assert_eq!(sink.records.lock().len(), 1);
        }

        #[test]
        fn snapshot_restore_roundtrips_values_and_tip() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            for i in 0..300 {
                b.put(format!("k{i:04}"), vec![(i % 251) as u8]);
            }
            db.apply(&b, Height::new(4, 1));
            let restored = StateDb::from_snapshot(db.snapshot(), db.tip_height());
            assert_eq!(restored.snapshot(), db.snapshot());
            assert_eq!(restored.tip_height(), Some(Height::new(4, 1)));
            assert_eq!(restored.state_hash(), db.state_hash());
            assert_eq!(restored.len(), 300);
        }

        #[test]
        fn snapshot_chunks_release_the_lock_so_applies_interleave() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            for i in 0..10 {
                b.put(format!("k{i:02}"), vec![i]);
            }
            db.apply(&b, Height::new(1, 0));

            // Pull one chunk, then apply ON THE SAME THREAD before
            // pulling the rest: the write locks inside apply() are free
            // between chunks.
            let mut chunks = db.snapshot_chunks(3);
            let first = chunks.next().unwrap();
            assert_eq!(first.len(), 3);

            let mut w = WriteBatch::new();
            w.put("k00", vec![99]); // behind the cursor: not revisited
            w.put("k99", vec![42]); // ahead of the cursor: picked up
            db.apply(&w, Height::new(2, 0));

            let mut all = first;
            all.extend(chunks.flatten());
            // Ascending, duplicate-free key order across chunk boundaries.
            let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_str()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(keys, sorted);
            // The fuzzy-snapshot contract: the ahead-of-cursor write is
            // visible, the behind-the-cursor one keeps its chunk-time value.
            assert_eq!(all.iter().find(|(k, _)| k == "k99").unwrap().1.value, [42]);
            assert_eq!(all.iter().find(|(k, _)| k == "k00").unwrap().1.value, [0]);
        }

        #[test]
        fn quiescent_chunked_snapshot_is_exact() {
            let db = StateDb::new();
            let mut b = WriteBatch::new();
            for i in 0..257 {
                b.put(format!("key{i:04}"), vec![(i % 251) as u8]);
            }
            db.apply(&b, Height::new(1, 0));
            // With no concurrent writers, chunked assembly must equal the
            // ordered dump regardless of chunk size (including sizes that
            // do not divide the key count).
            for chunk in [1, 3, 64, 256, 1000] {
                let assembled: Vec<_> = db.snapshot_chunks(chunk).flatten().collect();
                assert_eq!(assembled, db.snapshot(), "chunk={chunk}");
            }
            assert_eq!(db.snapshot().len(), 257);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_hash_is_the_hash_of_the_ordered_dump() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        for i in 0..64 {
            b.put(format!("key{i:03}"), vec![i as u8; 3]);
        }
        db.apply(&b, Height::new(1, 0));
        let mut d = WriteBatch::new();
        d.delete("key007");
        d.put("key100", vec![9]);
        db.apply(&d, Height::new(2, 1));
        assert_eq!(db.state_hash(), hash_dump(db.snapshot()));
        assert_ne!(db.state_hash(), StateDb::new().state_hash());
    }

    #[test]
    fn apply_block_equals_sequential_applies() {
        let serial = StateDb::new();
        let blockwise = StateDb::new();
        let mut batches = Vec::new();
        for tx in 0..8u64 {
            let mut b = WriteBatch::new();
            b.put(format!("k{}", tx % 3), vec![tx as u8]);
            if tx % 2 == 0 {
                b.delete("k0");
            }
            batches.push((b, Height::new(5, tx)));
        }
        // One empty batch (a valid tx with an empty write set).
        batches.push((WriteBatch::new(), Height::new(5, 8)));
        for (b, h) in &batches {
            serial.apply(b, *h);
        }
        blockwise.apply_block(&batches);
        assert_eq!(serial.snapshot(), blockwise.snapshot());
        assert_eq!(serial.tip_height(), blockwise.tip_height());
    }

    #[test]
    fn pinned_snapshot_is_stable_across_later_commits() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("a", vec![1]);
        b.put("b", vec![2]);
        db.apply(&b, Height::new(1, 0));
        let pin = db.pin();
        assert_eq!(pin.height(), Some(Height::new(1, 0)));
        let mut later = WriteBatch::new();
        later.put("a", vec![9]);
        later.delete("b");
        later.put("c", vec![3]);
        db.apply(&later, Height::new(2, 0));
        // The live view moved...
        assert_eq!(db.get("a").unwrap().value, vec![9]);
        assert_eq!(db.get("b"), None);
        // ...the pinned view did not.
        assert_eq!(pin.get("a").unwrap().value, vec![1]);
        assert_eq!(pin.get("b").unwrap().value, vec![2]);
        assert_eq!(pin.get("c"), None);
        let keys: Vec<String> = pin.range("", "zzz").into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn pin_of_empty_store_sees_nothing_ever() {
        let db = StateDb::new();
        let pin = db.pin();
        assert_eq!(pin.height(), None);
        let mut b = WriteBatch::new();
        b.put("a", vec![1]);
        db.apply(&b, Height::new(0, 0));
        assert_eq!(pin.get("a"), None);
        assert!(pin.snapshot().is_empty());
    }

    #[test]
    fn write_batch_from_iterator() {
        let batch: WriteBatch = vec![("a".to_string(), Some(vec![1])), ("b".to_string(), None)]
            .into_iter()
            .collect();
        assert_eq!(batch.len(), 2);
    }
}
