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

/// A batch of writes applied atomically at commit, held as the entry
/// part of its state-journal record.
///
/// The batch is one byte buffer in the journal's encoding, integers
/// little-endian:
///
/// ```text
/// n_entries u32 | ( key_len u32 | key | tag u8 (0=delete, 1=put) |
///                   [ value_len u32 | value ] )*
/// ```
///
/// A journal appends [`WriteBatch::encoded`] as it is, and recovery
/// checks a record's bytes once with [`WriteBatch::from_encoded`] and
/// keeps them. An empty batch holds no allocation; the first `put` or
/// `delete` reserves room for two entries of its own size, so a
/// two-write transaction of like-sized writes makes one allocation.
/// `put` and `delete` copy what they are given, so a caller that keeps
/// its strings passes them by reference.
#[derive(Clone, Default)]
pub struct WriteBatch {
    /// Empty, or the encoding above with `n_entries` at least 1.
    buf: Vec<u8>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues a put.
    ///
    /// # Panics
    ///
    /// If the key or the value is longer than `u32::MAX` bytes, or the
    /// batch already holds `u32::MAX` entries.
    pub fn put(&mut self, key: impl AsRef<str>, value: impl AsRef<[u8]>) -> &mut Self {
        self.push(key.as_ref(), Some(value.as_ref()))
    }

    /// Queues a delete.
    ///
    /// # Panics
    ///
    /// As [`WriteBatch::put`].
    pub fn delete(&mut self, key: impl AsRef<str>) -> &mut Self {
        self.push(key.as_ref(), None)
    }

    fn push(&mut self, key: &str, value: Option<&[u8]>) -> &mut Self {
        let n = u32::try_from(self.len() + 1).expect("batch exceeds u32::MAX entries");
        if self.buf.is_empty() {
            let entry = 5 + key.len() + value.map_or(0, |v| 4 + v.len());
            self.buf.reserve_exact(4 + 2 * entry);
            self.buf.extend_from_slice(&[0; 4]);
        }
        self.buf[..4].copy_from_slice(&n.to_le_bytes());
        put_field(&mut self.buf, key.as_bytes());
        match value {
            Some(v) => {
                self.buf.push(1);
                put_field(&mut self.buf, v);
            }
            None => self.buf.push(0),
        }
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        split_u32(&self.buf).map_or(0, |(n, _)| n as usize)
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterates over `(key, value-or-delete)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&[u8]>)> {
        let mut rest = self.buf.get(4..).unwrap_or_default();
        std::iter::from_fn(move || {
            (!rest.is_empty())
                .then(|| next_entry(&mut rest).expect("a WriteBatch holds a valid encoding"))
        })
    }

    /// The batch's encoding (see the type's docs); four zero bytes for
    /// an empty batch.
    pub fn encoded(&self) -> &[u8] {
        if self.buf.is_empty() {
            &[0; 4]
        } else {
            &self.buf
        }
    }

    /// The batch `bytes` encode, or `None` unless they are exactly one
    /// well-formed encoding: every length inside the input, every tag
    /// 0 or 1, every key UTF-8, and no byte after the last entry. Never
    /// panics, and allocates no more than `bytes.len()`.
    pub fn from_encoded(bytes: &[u8]) -> Option<WriteBatch> {
        let (n, mut rest) = split_u32(bytes)?;
        for _ in 0..n {
            next_entry(&mut rest)?;
        }
        if !rest.is_empty() {
            return None;
        }
        Some(if n == 0 {
            WriteBatch::new()
        } else {
            WriteBatch {
                buf: bytes.to_vec(),
            }
        })
    }
}

/// Splits a little-endian `u32` off the front of `bytes`.
fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, tail) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), tail))
}

/// Appends one `len u32 | bytes` field.
fn put_field(buf: &mut Vec<u8>, field: &[u8]) {
    let len = u32::try_from(field.len()).expect("batch key or value exceeds u32::MAX bytes");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(field);
}

/// Takes one `len u32 | bytes` field off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (len, tail) = split_u32(rest)?;
    let (field, tail) = tail.split_at_checked(usize::try_from(len).ok()?)?;
    *rest = tail;
    Some(field)
}

/// Takes one encoded entry off the front of `rest`; `None` if it is not
/// a well-formed one.
fn next_entry<'a>(rest: &mut &'a [u8]) -> Option<(&'a str, Option<&'a [u8]>)> {
    let key = std::str::from_utf8(take_field(rest)?).ok()?;
    let (&tag, tail) = rest.split_first()?;
    *rest = tail;
    let value = match tag {
        0 => None,
        1 => Some(take_field(rest)?),
        _ => return None,
    };
    Some((key, value))
}

/// Lists the entries, as `iter` yields them.
impl fmt::Debug for WriteBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteBatch")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
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
        for (key, value) in iter {
            self.push(&key, value.as_deref());
        }
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
    fn a_batch_is_its_journal_encoding() {
        assert_eq!(std::mem::size_of::<WriteBatch>(), 24);
        let empty = WriteBatch::new();
        assert_eq!(empty.encoded(), [0; 4]);
        assert!(empty.is_empty());
        let mut b = WriteBatch::new();
        b.put("ab", [7]).delete("é");
        assert_eq!(
            b.encoded(),
            [2, 0, 0, 0, 2, 0, 0, 0, b'a', b'b', 1, 1, 0, 0, 0, 7, 2, 0, 0, 0, 0xC3, 0xA9, 0]
        );
        assert_eq!(b.len(), 2);
        let entries: Vec<_> = b.iter().collect();
        assert_eq!(entries, [("ab", Some([7u8].as_slice())), ("é", None)]);
        assert_eq!(
            format!("{b:?}"),
            r#"WriteBatch { entries: [("ab", Some([7])), ("é", None)] }"#
        );
    }

    #[test]
    fn a_two_write_batch_fills_its_first_reservation() {
        let mut b = WriteBatch::new();
        b.put("acct0000000042", [1; 16]);
        let reserved = b.buf.capacity();
        assert_eq!(reserved, 4 + 2 * (4 + 14 + 1 + 4 + 16));
        b.put("acct0000000043", [2; 16]);
        assert_eq!(b.buf.capacity(), reserved);
        assert_eq!(b.buf.len(), reserved);
    }

    #[test]
    fn from_encoded_takes_back_exactly_what_encoded_gives() {
        let mut b = WriteBatch::new();
        b.put("k", [1, 2, 3]).delete("gone").put("", []);
        let bytes = b.encoded().to_vec();
        let back = WriteBatch::from_encoded(&bytes).unwrap();
        assert_eq!(back.encoded(), bytes);
        assert!(back.iter().eq(b.iter()));
        for cut in 0..bytes.len() {
            assert!(
                WriteBatch::from_encoded(&bytes[..cut]).is_none(),
                "cut={cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(
            WriteBatch::from_encoded(&trailing).is_none(),
            "trailing byte"
        );
        let mut bad_tag = bytes.clone();
        bad_tag[4 + 4 + 1] = 2;
        assert!(WriteBatch::from_encoded(&bad_tag).is_none(), "tag 2");
        let mut bad_key = bytes.clone();
        bad_key[4 + 4] = 0xFF;
        assert!(
            WriteBatch::from_encoded(&bad_key).is_none(),
            "key not UTF-8"
        );
        // A count far past the input, and lengths far past it.
        assert!(WriteBatch::from_encoded(&[0xFF; 4]).is_none());
        assert!(WriteBatch::from_encoded(&[1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]).is_none());
        let empty = WriteBatch::from_encoded(&[0; 4]).unwrap();
        assert!(empty.is_empty() && empty.buf.capacity() == 0);
    }

    #[test]
    fn write_batch_from_iterator() {
        let batch: WriteBatch = vec![("a".to_string(), Some(vec![1])), ("b".to_string(), None)]
            .into_iter()
            .collect();
        assert_eq!(batch.len(), 2);
    }
}
