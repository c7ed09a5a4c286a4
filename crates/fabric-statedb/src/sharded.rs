//! [`StateDb`], the hash-sharded MVCC state store every peer runs. The
//! single-lock store it replaced (one `BTreeMap` behind one `RwLock`)
//! funnelled every read, scan and apply through that lock: the
//! bottleneck at million-key populations and a blocker for a wide commit.
//!
//! # Structure
//!
//! * **Shards, each with two indexes.** Keys hash (FNV-1a,
//!   [`DEFAULT_SHARDS`] shards by default) to independent `RwLock`ed
//!   shards. A shard holds its keys twice under its one lock: a
//!   `HashMap` from key to version chain, and a `BTreeSet` of the same
//!   keys in order. Point reads touch exactly one shard lock; a block's
//!   write batches group by shard and disjoint shard groups apply
//!   concurrently ([`StateDb::apply_block`]).
//! * **Point path against scan path.** `get`, `get_version`,
//!   `mvcc_validate`, pinned `get`s and every write go through the hash
//!   map alone: one probe, whatever the shard's size, where a `BTreeMap`
//!   descended some six levels of nodes, each searched key by key, in a
//!   62 500-key shard at 1 M keys. The ordered set is touched on the
//!   point path only when a write creates a key or drops its
//!   all-tombstone chain. The scans (`range`, `snapshot`,
//!   `snapshot_chunks`, `state_hash` and [`StateSnapshot`]'s `range` and
//!   `snapshot`) walk the ordered set and look each key's chain up in
//!   the hash map; [`StateDb::from_snapshot`] fills both.
//! * **A keyed hasher, and no hash order anywhere.** The hash maps use
//!   std's `RandomState`, keyed afresh per map: state keys are chosen by
//!   clients, and an unkeyed hash would let them aim every key at one
//!   bucket chain, a worst case the `BTreeMap` never had. Nothing
//!   iterates a hash map, so neither the key nor insertion order can
//!   reach a dump, a scan or a state hash.
//! * **Memory.** At 1 M keys of the state benchmark's shape (14-byte
//!   keys, 8-byte values, one version each) the two indexes, the chains
//!   and the allocator's overhead take ≈ 220 bytes a key, against ≈ 161
//!   for the one `BTreeMap` they replaced (resident-set growth over the
//!   preload, 16 shards, x86-64 glibc). The hash buckets are ≈ 100 of
//!   them (48 bytes each, and a 62 500-key shard fills about half of its
//!   131 072), the one-entry chains ≈ 64 and the ordered set ≈ 50.
//! * **Short keys and values in place.** A key of at most 22 bytes is
//!   stored inside its hash bucket and its tree node, and a value of at
//!   most 22 bytes inside its chain entry (`crate::inline`); longer ones
//!   go to the heap. Keys hash and order as their bytes, whose order is
//!   `str` order.
//! * **Version chains (MVCC).** Each key maps to a short chain of
//!   `(epoch, height, value-or-tombstone)` entries in apply order.
//!   Live reads resolve the newest entry; a pinned snapshot
//!   ([`StateDb::pin`]) resolves the newest entry at or below its
//!   pinned *epoch* — so readers execute at a height snapshot without
//!   blocking the committer, and the committer never blocks behind
//!   readers. Chains are pruned below the oldest live pin on every
//!   touch, so hot keys stay short.
//! * **Epochs, not heights, order visibility.** Every apply completes
//!   one epoch (a monotone counter); the `(epoch, tip-height)` pair
//!   advances *after* the whole apply — a whole block for
//!   `apply_block` — is in place. Pins capture that pair, which is why
//!   a pinned reader can never observe a torn batch or a half-applied
//!   block, even while shard groups commit in parallel, and why
//!   non-monotone heights (exercised by the equivalence harness) don't
//!   confuse snapshot reads.
//! * **Ordered scans.** `range`/`snapshot`/`snapshot_chunks` k-way
//!   merge the per-shard ordered sets (shards partition the keyspace
//!   disjointly, so the merge is a plain heap-less cursor sweep over at
//!   most `shards` tails).
//! * **Journal ordering.** A commit-order mutex is held across journal
//!   record *and* in-memory apply: record order is exactly apply order
//!   even when the in-memory fan-out runs shard-parallel. See
//!   [`crate::JournalSink`].
//!
//! Lock order: `order` → `pins` → shard locks → `committed`. Readers
//! take only shard locks; `pin()` takes `pins` → `committed`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use crate::inline::{InlineBytes, Key};
use crate::{Height, JournalSink, StateDbStats, VersionedValue, WriteBatch};

/// Default shard count: enough to spread a wide commit stage's batches
/// with low collision probability at harness thread counts, small
/// enough that the k-way merge cursor sweep stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// Entries cloned per visit of the shard locks by snapshotting: large
/// enough to amortize the lock round-trips, small enough that a writer
/// blocked behind a chunk waits microseconds, not the whole copy.
pub const SNAPSHOT_CHUNK: usize = 1024;

/// Minimum total entries in an [`StateDb::apply_block`] before the
/// per-shard apply fans out to threads; below this the spawn cost
/// dominates the map work.
const PARALLEL_APPLY_THRESHOLD: usize = 256;

/// `check-sync` runtime assertion for the journal-order invariant:
/// journal records and the epoch/tip publish must happen under the
/// `statedb.order` commit lock, which is what makes record order equal
/// apply order (the property recovery replay depends on). Compiles to
/// nothing without the feature; costs one atomic load when the feature
/// is built but checking is off.
#[cfg(feature = "check-sync")]
#[inline]
fn assert_order_held(stage: &str) {
    if fabric_check::enabled() {
        assert!(
            fabric_check::holding("statedb.order"),
            "statedb journal-order invariant violated: {stage} without holding `statedb.order`"
        );
    }
}

#[cfg(not(feature = "check-sync"))]
#[inline]
fn assert_order_held(_stage: &str) {}

/// One version of one key. Chains are kept in apply order (last =
/// newest); `value: None` is a tombstone.
#[derive(Debug)]
struct VersionEntry {
    /// The apply epoch that wrote this entry (see module docs).
    epoch: u64,
    /// Commit height stamped on the write.
    height: Height,
    value: Option<InlineBytes>,
}

/// One shard: the same keys in two indexes, both under the shard's
/// lock. Every key of `chains` is in `order` and the other way round.
#[derive(Default)]
struct Shard {
    /// Each key's version chain, keyed by std's `RandomState` (see the
    /// module docs): what every point read and write goes through.
    chains: HashMap<Key, Vec<VersionEntry>>,
    /// The keys in byte order: what only the scans read.
    order: BTreeSet<Key>,
    /// Keys whose newest entry is a put (i.e. visible to a live read).
    live: usize,
}

/// Counts only: listing `chains` would print them in the hasher's
/// order, which differs from map to map and run to run.
impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("keys", &self.order.len())
            .field("live", &self.live)
            .finish()
    }
}

impl Shard {
    /// The keys of `bounds` in order, each with its chain.
    fn scan<'s>(
        &'s self,
        bounds: (Bound<&[u8]>, Bound<&[u8]>),
    ) -> impl Iterator<Item = (&'s Key, &'s [VersionEntry])> + 's {
        self.order.range::<[u8], _>(bounds).map(|key| {
            let chain = self.chains.get(key).expect("every ordered key has a chain");
            (key, chain.as_slice())
        })
    }
}

/// State guarded by the commit-order mutex: held across journal record
/// and in-memory apply so record order == apply order.
#[derive(Debug, Default)]
struct OrderState {
    journal: Option<Arc<dyn JournalSink>>,
    /// Epochs completed so far (0 = nothing ever applied).
    epoch: u64,
    /// High-water mark of applied heights.
    tip: Option<Height>,
}

#[derive(Debug)]
struct SharedInner {
    shards: Vec<RwLock<Shard>>,
    order: Mutex<OrderState>,
    /// `(epoch, tip)` of the last *completed* apply — advanced only
    /// after every entry of the apply is in place, so a pin taken from
    /// it can never observe a torn batch.
    committed: RwLock<(u64, Option<Height>)>,
    /// Live pins: epoch → refcount. Version pruning is fenced below the
    /// smallest key.
    pins: Mutex<BTreeMap<u64, usize>>,
    reads: AtomicU64,
    writes: AtomicU64,
    misses: AtomicU64,
}

/// The unbounded, thread-safe versioned store used by software peers:
/// the hash-sharded MVCC store of the module docs.
///
/// Cloning is cheap: clones share the same shards, matching how a
/// peer's components all see one state database.
///
/// ```
/// use fabric_statedb::{Height, StateDb, WriteBatch};
/// let db = StateDb::new();
/// let mut batch = WriteBatch::new();
/// batch.put("k", b"v".to_vec());
/// db.apply(&batch, Height::new(1, 0));
/// assert_eq!(db.get("k").unwrap().value, b"v");
/// ```
#[derive(Debug, Clone)]
pub struct StateDb {
    inner: Arc<SharedInner>,
}

impl Default for StateDb {
    fn default() -> Self {
        StateDb::new()
    }
}

/// The processor count, read once per process: std reads the cgroup
/// quota files on every `available_parallelism` call (20–30 µs a call in
/// a 2-vCPU Linux container), and every apply needs the count.
fn processors() -> usize {
    static PROCESSORS: OnceLock<usize> = OnceLock::new();
    *PROCESSORS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl VersionEntry {
    /// The entry as a read returns it: `None` for a tombstone.
    fn read(&self) -> Option<VersionedValue> {
        Some(VersionedValue {
            value: self.value.as_ref()?.as_slice().to_vec(),
            version: self.height,
        })
    }

    /// The entry's version as a read sees it: `None` for a tombstone.
    fn version(&self) -> Option<Height> {
        self.value.as_ref().map(|_| self.height)
    }
}

/// The bounds of a `[start, end)` scan over a shard map, borrowed.
fn key_range<'a>(start: &'a str, end: &'a str) -> (Bound<&'a [u8]>, Bound<&'a [u8]>) {
    (
        Bound::Included(start.as_bytes()),
        Bound::Excluded(end.as_bytes()),
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn shard_index(key: &str, shards: usize) -> usize {
    (fnv1a(FNV_OFFSET, key.as_bytes()) % shards as u64) as usize
}

/// Deterministic 64-bit digest (FNV-1a) of an ordered dump — keys,
/// values, and versions, each length-prefixed. [`StateDb::state_hash`]
/// is this over [`StateDb::snapshot`], and a reference that hashes its
/// own dump with the same function compares on contents alone: equal
/// state hashes ⇔ bit-identical dumps.
pub fn hash_dump(dump: impl IntoIterator<Item = (String, VersionedValue)>) -> u64 {
    let mut hash = FNV_OFFSET;
    for (key, v) in dump {
        hash = fnv1a(hash, &(key.len() as u64).to_le_bytes());
        hash = fnv1a(hash, key.as_bytes());
        hash = fnv1a(hash, &(v.value.len() as u64).to_le_bytes());
        hash = fnv1a(hash, &v.value);
        hash = fnv1a(hash, &v.version.block_num.to_le_bytes());
        hash = fnv1a(hash, &v.version.tx_num.to_le_bytes());
    }
    hash
}

impl StateDb {
    /// Creates an empty database with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        StateDb::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty database with an explicit shard count
    /// (shard-count independence is itself a tested property).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        StateDb {
            inner: Arc::new(SharedInner {
                shards: (0..shards)
                    .map(|_| RwLock::named("statedb.shard", Shard::default()))
                    .collect(),
                order: Mutex::named("statedb.order", OrderState::default()),
                committed: RwLock::named("statedb.committed", (0, None)),
                pins: Mutex::named("statedb.pins", BTreeMap::new()),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Rebuilds a database from a checkpoint snapshot: the entries of a
    /// previous [`StateDb::snapshot`] (ascending keys) plus the tip
    /// height recorded with it. Entries land in their home shards as
    /// single-entry chains at epoch 1; the journal replay that follows a
    /// snapshot restore continues from this tip.
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        let db = StateDb::new();
        let epoch = if entries.is_empty() && tip.is_none() {
            0
        } else {
            1
        };
        {
            let mut order = db.inner.order.lock();
            for (key, v) in entries {
                let shard = &db.inner.shards[db.shard_of(&key)];
                let mut g = shard.write();
                let chain = vec![VersionEntry {
                    epoch,
                    height: v.version,
                    value: Some(InlineBytes::new(&v.value)),
                }];
                if g.chains.insert(Key::new(&key), chain).is_none() {
                    g.order.insert(Key::new(&key));
                    g.live += 1;
                }
            }
            order.epoch = epoch;
            order.tip = tip;
            *db.inner.committed.write() = (epoch, tip);
        }
        db
    }

    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.inner.shards.len())
    }

    /// Attaches a write-ahead journal sink. Every subsequent
    /// [`StateDb::apply`] records to the sink before touching the
    /// shards. Attach *after* recovery replay so replayed batches are
    /// not re-journaled.
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink>) {
        self.inner.order.lock().journal = Some(sink);
    }

    /// Flushes the attached journal (a no-op without one): the durable
    /// group-commit boundary.
    pub fn flush_journal(&self) {
        let sink = self.inner.order.lock().journal.clone();
        if let Some(sink) = sink {
            sink.flush();
        }
    }

    /// Point read of the current value and version: one shard read
    /// lock, newest chain entry.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        self.read_newest(key, VersionEntry::read)
    }

    /// Reads just the version (the MVCC hot path): the same lookup as
    /// [`StateDb::get`], counted the same, without copying the value.
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.read_newest(key, VersionEntry::version)
    }

    /// Applies `read` to the newest entry of `key`'s chain under its
    /// shard's read lock, counting a read, and a miss when `read` finds
    /// nothing (an absent key or a tombstone).
    fn read_newest<T>(
        &self,
        key: &str,
        read: impl FnOnce(&VersionEntry) -> Option<T>,
    ) -> Option<T> {
        // relaxed: monotonic stats counter; never gates data visibility
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        let shard = self.inner.shards[self.shard_of(key)].read();
        let hit = shard
            .chains
            .get(key.as_bytes())
            .and_then(|chain| read(chain.last()?));
        if hit.is_none() {
            // relaxed: monotonic stats counter; never gates data visibility
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Applies a write batch, stamping every entry at `height`. With a
    /// journal attached the batch is recorded first (write-ahead),
    /// under the lock that orders commits — so the journal's record
    /// order is exactly the apply order. Sinks must not call back into
    /// this database.
    pub fn apply(&self, batch: &WriteBatch, height: Height) {
        self.apply_batches(&[(batch, height)], true);
    }

    /// Re-applies a journaled batch during recovery: identical to
    /// [`StateDb::apply`] except the batch is *never* forwarded to an
    /// attached journal (replaying must not re-journal).
    pub fn replay(&self, batch: &WriteBatch, height: Height) {
        self.apply_batches(&[(batch, height)], false);
    }

    /// Applies one block's worth of per-transaction batches in commit
    /// order — the streaming validator's commit stage calls this once
    /// per block. Journal records are emitted for *every* batch
    /// (including empty ones: recovery counts one record per valid
    /// transaction) in exact batch order, before any entry becomes
    /// visible; the in-memory apply then fans out over disjoint shards
    /// concurrently when the block is large enough to pay for the
    /// threads. The contents equal `for (b, h) in batches { self.apply(b, h) }`,
    /// but an attached journal sees one [`JournalSink::apply_boundary`]
    /// for the whole call (also when `batches` is empty), and a pinned
    /// reader sees all of the block or none of it.
    pub fn apply_block(&self, batches: &[(WriteBatch, Height)]) {
        let refs: Vec<(&WriteBatch, Height)> = batches.iter().map(|(b, h)| (b, *h)).collect();
        self.apply_batches(&refs, true);
    }

    fn apply_batches(&self, batches: &[(&WriteBatch, Height)], journal: bool) {
        let inner = &self.inner;
        // The commit-order mutex is held for the WHOLE apply: journal
        // record order == apply order, and concurrent apply calls
        // serialize. Parallelism lives *inside* one apply (disjoint
        // shard groups), not across them.
        let mut order = inner.order.lock();
        if journal {
            if let Some(sink) = &order.journal {
                for (batch, height) in batches {
                    assert_order_held("journal record emitted");
                    sink.record(batch, *height);
                }
                // Also for a block with no valid transaction: the sink
                // counts its group-commit window in apply calls.
                sink.apply_boundary();
            }
        }
        if batches.is_empty() {
            return;
        }
        let epoch_pre = order.epoch;
        // Prune fence: nothing at or below this epoch is dropped except
        // dead history. Any pin taken concurrently lands at an epoch
        // >= epoch_pre (committed never moves backwards), and pruning
        // keeps the newest entry at-or-below the fence — so every live
        // or future pin still resolves.
        let horizon = {
            let pins = inner.pins.lock();
            match pins.keys().next() {
                Some(&oldest) => oldest.min(epoch_pre),
                None => epoch_pre,
            }
        };

        // Group entries by home shard, preserving batch order within
        // each group (same-shard writes from later batches come later,
        // so last-write-wins holds across the whole block): a counting
        // sort into one vector, shard `s`'s run ending at `ends[s]` and
        // starting where shard `s - 1`'s ends.
        let total: usize = batches.iter().map(|(batch, _)| batch.len()).sum();
        let mut homes = Vec::with_capacity(total);
        let mut ends = vec![0usize; inner.shards.len()];
        let mut tip = order.tip;
        for (batch, height) in batches {
            tip = Some(match tip {
                Some(t) => t.max(*height),
                None => *height,
            });
            for (key, _) in batch.iter() {
                let home = self.shard_of(key);
                ends[home] += 1;
                homes.push(home);
            }
        }
        let mut start = 0;
        for end in &mut ends {
            let count = *end;
            *end = start;
            start += count;
        }
        let mut entries: Vec<GroupEntry> = vec![("", None, 0, Height::default()); total];
        let mut homes = homes.into_iter();
        for (i, (batch, height)) in batches.iter().enumerate() {
            let epoch = epoch_pre + 1 + i as u64;
            for (key, value) in batch.iter() {
                let home = homes.next().expect("one home per entry");
                entries[ends[home]] = (key, value, epoch, *height);
                ends[home] += 1;
            }
        }
        let group = |idx: usize| {
            let start = if idx == 0 { 0 } else { ends[idx - 1] };
            &entries[start..ends[idx]]
        };
        // relaxed: monotonic stats counter; never gates data visibility
        inner.writes.fetch_add(total as u64, Ordering::Relaxed);

        let busy = (0..ends.len())
            .filter(|&idx| !group(idx).is_empty())
            .count();
        let workers = processors().min(busy);
        if total >= PARALLEL_APPLY_THRESHOLD && workers > 1 {
            // Wide commit: at most `processors()` threads, each
            // applying a stripe of shard groups (thread w takes groups
            // w, w+workers, ...). Each group goes to exactly one thread
            // and groups touch disjoint shards, so the shard write
            // locks never contend; capping at the core count keeps the
            // spawn overhead from swamping the fan-out on small hosts.
            let group = &group;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        for idx in (w..inner.shards.len()).step_by(workers) {
                            if !group(idx).is_empty() {
                                apply_group(&inner.shards[idx], group(idx), horizon);
                            }
                        }
                    });
                }
            });
        } else {
            for (idx, shard) in inner.shards.iter().enumerate() {
                if !group(idx).is_empty() {
                    apply_group(shard, group(idx), horizon);
                }
            }
        }

        // Publish: the new epoch/tip become pinnable only now, after
        // every shard group is fully applied.
        assert_order_held("epoch/tip published");
        order.epoch = epoch_pre + batches.len() as u64;
        order.tip = tip;
        *inner.committed.write() = (order.epoch, tip);
    }

    /// Pins a read snapshot at the current *committed* height: every
    /// read through the returned handle observes exactly the state as
    /// of that height, whatever the committer applies afterwards.
    ///
    /// O(1): the pin registers its epoch in the pin table, readers
    /// resolve against per-key version chains, and version pruning is
    /// fenced below the oldest live pin until the handle drops.
    pub fn pin(&self) -> StateSnapshot {
        let inner = &self.inner;
        let mut pins = inner.pins.lock();
        let (epoch, height) = *inner.committed.read();
        // Epoch 0 = pre-genesis: the snapshot sees nothing, needs no
        // retained versions, so it does not fence pruning.
        if epoch > 0 {
            *pins.entry(epoch).or_insert(0) += 1;
        }
        drop(pins);
        StateSnapshot {
            inner: Arc::clone(&self.inner),
            epoch,
            height,
        }
    }

    /// Range scan over `[start, end)`, in key order: per-shard ordered
    /// scans k-way merged (shards partition the keyspace, so this is a
    /// cursor sweep, not a sort).
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.inner.shards {
            let g = shard.read();
            per_shard.push(
                g.scan(key_range(start, end))
                    .filter_map(|(k, chain)| Some((k.as_str().to_owned(), chain.last()?.read()?)))
                    .collect(),
            );
        }
        merge_sorted(per_shard, usize::MAX)
    }

    /// Number of live keys (O(shards): summed per-shard counters).
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().live).sum()
    }

    /// Whether the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StateDbStats {
        StateDbStats {
            // relaxed: approximate stats snapshot; counters are
            // independent and never gate data visibility
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Highest height ever passed to [`StateDb::apply`], or `None` for a
    /// database that has never committed. Commit heights in Fabric are
    /// monotone, so this is "the visibility horizon": a reader at this
    /// height sees every committed write.
    pub fn tip_height(&self) -> Option<Height> {
        self.inner.order.lock().tip
    }

    /// Full ordered dump of the live keys with values and versions — the
    /// serial-equivalence harness compares final database contents with
    /// this (a `range` over the whole keyspace would need a sentinel
    /// upper bound). Assembled from bounded chunks (see
    /// [`StateDb::snapshot_chunks`]), so a checkpoint of a large store
    /// does not stall concurrent writers for the whole copy.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.snapshot_chunks(SNAPSHOT_CHUNK).flatten().collect()
    }

    /// Chunked snapshot iterator: each `next()` visits the shard locks
    /// once, merges up to `chunk` entries after the previous chunk's
    /// last key, and releases them — writers interleave freely between
    /// chunks. Keys are yielded in ascending order; a key inserted
    /// *behind* the cursor mid-scan is not revisited. Quiesced (no
    /// concurrent writers) the result is an exact point-in-time image;
    /// under concurrency it is a *fuzzy* snapshot, which
    /// `fabric-store`'s checkpoint squares up by replaying a journal
    /// tail over it.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn snapshot_chunks(&self, chunk: usize) -> SnapshotChunks {
        assert!(chunk > 0, "snapshot chunk size must be non-zero");
        SnapshotChunks {
            db: self.clone(),
            cursor: None,
            chunk,
            done: false,
        }
    }

    /// [`hash_dump`] of the full ordered dump, computed chunk by chunk.
    /// The recovery cross-checks and the benchmark's oracle compare
    /// stores with it.
    pub fn state_hash(&self) -> u64 {
        hash_dump(self.snapshot_chunks(SNAPSHOT_CHUNK).flatten())
    }

    /// MVCC validation of a read set: every `(key, expected)` pair must
    /// match the current version exactly ("the read set of each
    /// transaction is computed again by accessing the state database, and
    /// is compared to the read set from the endorsement phase",
    /// paper §2.1.2).
    pub fn mvcc_validate(&self, reads: &[(String, Option<Height>)]) -> bool {
        reads
            .iter()
            .all(|(key, expected)| self.get_version(key) == *expected)
    }
}

/// One write destined for a shard: key, value (`None` = delete), the
/// epoch of its batch, and the batch's commit height.
type GroupEntry<'a> = (&'a str, Option<&'a [u8]>, u64, Height);

/// Applies one shard's slice of a block under that shard's write lock,
/// pruning each touched chain below the retention fence.
fn apply_group(shard: &RwLock<Shard>, group: &[GroupEntry], horizon: u64) {
    let mut guard = shard.write();
    let g = &mut *guard;
    for &(key, value, epoch, height) in group {
        let entry = VersionEntry {
            epoch,
            height,
            value: value.map(InlineBytes::new),
        };
        match g.chains.get_mut(key.as_bytes()) {
            Some(chain) => {
                let was_live = chain.last().is_some_and(|e| e.value.is_some());
                let now_live = entry.value.is_some();
                // The new entry's epoch is above the horizon, so pruning
                // before the push keeps what pruning after it would; an
                // unpinned chain then needs room for two entries, never
                // the four a doubling push would give a one-entry chain.
                prune_chain(chain, horizon);
                if chain.len() == 1 {
                    chain.reserve_exact(1);
                }
                chain.push(entry);
                match (was_live, now_live) {
                    (false, true) => g.live += 1,
                    (true, false) => g.live -= 1,
                    _ => {}
                }
                // A chain of only tombstones reads as "absent" at every
                // epoch — exactly what a missing chain reads as. Drop
                // the key rather than let delete-heavy workloads
                // accumulate dead chains.
                if chain.iter().all(|e| e.value.is_none()) {
                    g.chains.remove(key.as_bytes());
                    g.order.remove(key.as_bytes());
                }
            }
            None => {
                // A tombstone for an absent key carries no information:
                // readers at every epoch already resolve the key to
                // None. Only a put starts a chain.
                if entry.value.is_some() {
                    g.chains.insert(Key::new(key), vec![entry]);
                    g.order.insert(Key::new(key));
                    g.live += 1;
                }
            }
        }
    }
}

/// Drops chain entries no pinned or future reader can resolve: every
/// entry strictly before the newest entry at-or-below `horizon`. The
/// newest at-or-below entry itself is kept — it is the answer for any
/// reader pinned in `[horizon, its-successor)`.
fn prune_chain(chain: &mut Vec<VersionEntry>, horizon: u64) {
    let mut keep_from = 0;
    for (i, e) in chain.iter().enumerate() {
        if e.epoch <= horizon {
            keep_from = i;
        } else {
            break;
        }
    }
    if keep_from > 0 {
        chain.drain(..keep_from);
    }
}

/// Merges per-shard ascending runs into one ascending run, taking at
/// most `limit` entries. Runs are disjoint (shards partition the
/// keyspace), so a simple min-cursor sweep suffices.
fn merge_sorted(
    mut runs: Vec<Vec<(String, VersionedValue)>>,
    limit: usize,
) -> Vec<(String, VersionedValue)> {
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::new();
    while out.len() < limit {
        let mut min: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            if cursors[i] >= run.len() {
                continue;
            }
            min = Some(match min {
                Some(m) if runs[m][cursors[m]].0 <= run[cursors[i]].0 => m,
                _ => i,
            });
        }
        let Some(m) = min else { break };
        let idx = cursors[m];
        cursors[m] += 1;
        out.push(std::mem::replace(
            &mut runs[m][idx],
            (
                String::new(),
                VersionedValue {
                    value: Vec::new(),
                    version: Height::default(),
                },
            ),
        ));
    }
    out
}

/// Iterator over bounded snapshot chunks of a [`StateDb`]; see
/// [`StateDb::snapshot_chunks`].
#[derive(Debug)]
pub struct SnapshotChunks {
    db: StateDb,
    /// Last key yielded by the previous chunk; the next chunk resumes
    /// strictly after it.
    cursor: Option<String>,
    chunk: usize,
    done: bool,
}

impl Iterator for SnapshotChunks {
    type Item = Vec<(String, VersionedValue)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Collect up to `chunk` entries after the cursor from each
        // shard (each shard lock held only for its own scan), then
        // merge down to the overall next `chunk` keys.
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.db.inner.shards {
            let g = shard.read();
            let after = match &self.cursor {
                Some(last) => Bound::Excluded(last.as_bytes()),
                None => Bound::Unbounded,
            };
            per_shard.push(
                g.scan((after, Bound::Unbounded))
                    .filter_map(|(k, chain)| Some((k.as_str().to_owned(), chain.last()?.read()?)))
                    .take(self.chunk)
                    .collect(),
            );
        }
        let batch = merge_sorted(per_shard, self.chunk);
        if batch.len() < self.chunk {
            self.done = true;
        }
        let last = batch.last()?;
        self.cursor = Some(last.0.clone());
        Some(batch)
    }
}

/// A height-pinned read view of a [`StateDb`]; see [`StateDb::pin`].
///
/// Every read resolves against the version chains at the pinned epoch,
/// so reads never observe a torn batch: the pinned height is the
/// commit high-water mark at pin time, and every write at or below it
/// was fully applied before that mark advanced. Reads through this
/// handle do not touch the statistics counters; dropping it releases
/// the prune fence.
#[derive(Debug)]
pub struct StateSnapshot {
    inner: Arc<SharedInner>,
    /// Pinned epoch (0 = pre-genesis, sees nothing).
    epoch: u64,
    /// Committed tip height at pin time (what callers reason about).
    height: Option<Height>,
}

impl StateSnapshot {
    /// The height this snapshot is pinned at (`None` = pre-genesis:
    /// every read sees an empty store).
    pub fn height(&self) -> Option<Height> {
        self.height
    }

    /// The newest entry of `chain` at or below the pinned epoch.
    fn resolve<'c>(&self, chain: &'c [VersionEntry]) -> Option<&'c VersionEntry> {
        chain.iter().rev().find(|e| e.epoch <= self.epoch)
    }

    /// Applies `read` to `key`'s entry as of the pinned epoch, under its
    /// shard's read lock.
    fn read_pinned<T>(
        &self,
        key: &str,
        read: impl FnOnce(&VersionEntry) -> Option<T>,
    ) -> Option<T> {
        if self.epoch == 0 {
            return None;
        }
        let g = self.inner.shards[shard_index(key, self.inner.shards.len())].read();
        g.chains
            .get(key.as_bytes())
            .and_then(|chain| read(self.resolve(chain)?))
    }

    /// Point read as of the pinned height.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        self.read_pinned(key, VersionEntry::read)
    }

    /// Version-only read as of the pinned height, without copying the
    /// value.
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.read_pinned(key, VersionEntry::version)
    }

    /// Range scan over `[start, end)` as of the pinned height.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        if self.epoch == 0 {
            return Vec::new();
        }
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.inner.shards {
            let g = shard.read();
            per_shard.push(
                g.scan(key_range(start, end))
                    .filter_map(|(k, chain)| {
                        Some((k.as_str().to_owned(), self.resolve(chain)?.read()?))
                    })
                    .collect(),
            );
        }
        merge_sorted(per_shard, usize::MAX)
    }

    /// Full ordered dump as of the pinned height.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        if self.epoch == 0 {
            return Vec::new();
        }
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.inner.shards {
            let g = shard.read();
            per_shard.push(
                g.scan((Bound::Unbounded, Bound::Unbounded))
                    .filter_map(|(k, chain)| {
                        Some((k.as_str().to_owned(), self.resolve(chain)?.read()?))
                    })
                    .collect(),
            );
        }
        merge_sorted(per_shard, usize::MAX)
    }
}

impl Drop for StateSnapshot {
    fn drop(&mut self) {
        if self.epoch == 0 {
            return;
        }
        let mut pins = self.inner.pins.lock();
        if let Some(count) = pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(db: &StateDb, key: &str, val: u8, h: Height) {
        let mut b = WriteBatch::new();
        b.put(key, vec![val]);
        db.apply(&b, h);
    }

    /// Whether `key` has a chain, after checking that both of its
    /// shard's indexes say the same.
    fn holds(db: &StateDb, key: &str) -> bool {
        let g = db.inner.shards[db.shard_of(key)].read();
        let chained = g.chains.contains_key(key.as_bytes());
        assert_eq!(
            chained,
            g.order.contains(key.as_bytes()),
            "indexes disagree on {key:?}"
        );
        chained
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let db = StateDb::with_shards(1);
        put(&db, "a", 1, Height::new(1, 0));
        put(&db, "b", 2, Height::new(1, 1));
        assert_eq!(db.len(), 2);
        let keys: Vec<String> = db.range("a", "z").into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn dead_tombstone_chains_are_dropped() {
        let db = StateDb::new();
        let pin0 = db.pin();
        // Deleting an absent key starts no chain...
        let mut d = WriteBatch::new();
        d.delete("ghost");
        db.apply(&d, Height::new(1, 0));
        assert_eq!(db.get("ghost"), None);
        assert_eq!(pin0.get("ghost"), None);
        drop(pin0);
        assert!(!holds(&db, "ghost"));
        // ...and deleting a live key leaves a chain only as long as a
        // pinned reader might still resolve the put below it.
        put(&db, "k", 1, Height::new(2, 0));
        let pin = db.pin();
        let mut d2 = WriteBatch::new();
        d2.delete("k");
        db.apply(&d2, Height::new(3, 0));
        assert_eq!(pin.get("k").unwrap().value, vec![1], "pin fences the put");
        assert!(holds(&db, "k"));
        drop(pin);
        // Next touch prunes the put; the all-tombstone chain drops.
        let mut d3 = WriteBatch::new();
        d3.delete("k");
        db.apply(&d3, Height::new(4, 0));
        assert!(
            !holds(&db, "k"),
            "dead tombstone chain should have been dropped"
        );
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn chains_stay_short_without_pins() {
        let db = StateDb::new();
        for i in 0..100 {
            put(&db, "hot", i as u8, Height::new(i, 0));
        }
        let shard = db.inner.shards[db.shard_of("hot")].read();
        let chain = shard.chains.get("hot".as_bytes()).unwrap();
        assert!(
            chain.len() <= 2,
            "unpinned hot-key chain grew to {} entries",
            chain.len()
        );
    }

    #[test]
    fn pin_fences_pruning_and_drop_releases_it() {
        let db = StateDb::new();
        put(&db, "k", 0, Height::new(0, 0));
        let pin = db.pin();
        for i in 1..50 {
            put(&db, "k", i as u8, Height::new(i, 0));
        }
        // The pinned version must still resolve...
        assert_eq!(pin.get("k").unwrap().value, vec![0]);
        assert_eq!(pin.get("k").unwrap().version, Height::new(0, 0));
        drop(pin);
        // ...and after release, the next touch prunes the history.
        put(&db, "k", 99, Height::new(99, 0));
        let shard = db.inner.shards[db.shard_of("k")].read();
        assert!(shard.chains.get("k".as_bytes()).unwrap().len() <= 2);
    }

    #[test]
    fn version_boundary_height_zero_zero() {
        let db = StateDb::new();
        put(&db, "k", 7, Height::new(0, 0));
        assert_eq!(db.get_version("k"), Some(Height::new(0, 0)));
        assert_eq!(db.tip_height(), Some(Height::new(0, 0)));
        assert!(db.mvcc_validate(&[("k".into(), Some(Height::new(0, 0)))]));
    }

    #[test]
    fn same_key_twice_in_batch_is_last_op_wins() {
        let db = StateDb::new();
        let mut b = WriteBatch::new();
        b.put("k", vec![1]);
        b.delete("k");
        b.put("k", vec![3]);
        db.apply(&b, Height::new(1, 0));
        assert_eq!(db.get("k").unwrap().value, vec![3]);
        assert_eq!(db.len(), 1);

        let mut b2 = WriteBatch::new();
        b2.put("k", vec![4]);
        b2.delete("k");
        db.apply(&b2, Height::new(2, 0));
        assert_eq!(db.get("k"), None);
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn parallel_apply_block_matches_sequential() {
        // Enough entries to clear PARALLEL_APPLY_THRESHOLD.
        let wide = StateDb::new();
        let serial = StateDb::new();
        let mut batches = Vec::new();
        for tx in 0..8u64 {
            let mut b = WriteBatch::new();
            for i in 0..64 {
                b.put(
                    format!("k{:03}", (tx * 37 + i) % 200),
                    vec![tx as u8, i as u8],
                );
            }
            batches.push((b, Height::new(1, tx)));
        }
        wide.apply_block(&batches);
        for (b, h) in &batches {
            serial.apply(b, *h);
        }
        assert_eq!(wide.snapshot(), serial.snapshot());
        assert_eq!(wide.tip_height(), serial.tip_height());
        assert_eq!(wide.len(), serial.len());
    }

    #[test]
    fn stats_count_reads_writes_misses() {
        let db = StateDb::new();
        db.get("nope");
        put(&db, "k", 1, Height::new(1, 0));
        db.get("k");
        let s = db.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn shard_count_independence_of_contents() {
        let mut snaps = Vec::new();
        for shards in [1, 3, 16] {
            let db = StateDb::with_shards(shards);
            for i in 0..100 {
                put(&db, &format!("key{i:03}"), i as u8, Height::new(1, i));
            }
            let mut d = WriteBatch::new();
            d.delete("key050");
            db.apply(&d, Height::new(2, 0));
            snaps.push(db.snapshot());
        }
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[1], snaps[2]);
    }
}
