//! [`StateDb`], the hash-sharded MVCC state store every peer runs. The
//! single-lock store it replaced (one `BTreeMap` behind one `RwLock`)
//! funnelled every read, scan and apply through that lock: the
//! bottleneck at million-key populations and a blocker for a wide commit.
//!
//! # Structure
//!
//! * **Shards, each with two indexes over one arena.** Keys hash
//!   (FNV-1a, [`DEFAULT_SHARDS`] shards by default) to independent
//!   `RwLock`ed shards. Under its one lock a shard holds each key and
//!   its version chain once, in a slot of its arena (pages of 256
//!   slots, so growth moves no slot; a freed slot is reused before the
//!   arena grows), and indexes the slots twice, both times by 4-byte
//!   slot number: a point index, an open-addressing table probed
//!   linearly, and an ordered index, sorted chunks of at most 512 slot
//!   numbers. The one invariant between them: the ordered index holds
//!   exactly the point index's slot numbers, in key order. Point reads
//!   touch exactly one shard lock; a block's write batches group by
//!   shard and disjoint shard groups apply concurrently
//!   ([`StateDb::apply_block`]).
//! * **Point path against scan path.** `get`, `get_version`,
//!   `mvcc_validate`, pinned `get`s and every write go through the point
//!   index alone: one short probe run, whatever the shard's size, where a
//!   `BTreeMap` descended some six levels of nodes, each searched key by
//!   key, in a 62 500-key shard at 1 M keys. The table is at least twice
//!   the keys it holds, so a run ends at an empty position soon; a
//!   deleted key's position is closed by shifting the rest of its run
//!   back, so no tombstone lengthens a run. The ordered index is touched
//!   on the point path only when a write creates a key or drops it. The
//!   scans (`range`, `snapshot`, `snapshot_chunks`, `state_hash` and
//!   [`StateSnapshot`]'s `range` and `snapshot`) find their first key
//!   with two binary searches, over the chunks and then inside one, each
//!   key read through the arena, and walk on from there, reading each
//!   key and chain straight from its slot. A key above the shard's last
//!   one, as every key of a preload and of [`StateDb::from_snapshot`]
//!   is, goes at the end, so those fill chunks to the brim; a key
//!   inserted into a full chunk splits it in halves; a chunk emptied by
//!   deletes is dropped, and one that fits beside a neighbour in half a
//!   chunk joins it, so the index stays more than a quarter full.
//! * **A keyed hasher, and no hash order anywhere.** Each shard's point
//!   index hashes with its own std `RandomState`: state keys are chosen
//!   by clients, and an unkeyed hash would let them aim every key at one
//!   probe run, a worst case the `BTreeMap` never had. Under a key they
//!   cannot know, their keys land as random keys do, and the half-empty
//!   table keeps a run a few positions long. Nothing iterates the point
//!   index or the arena for a reader, so neither the hasher's key nor
//!   insertion order can reach a dump, a scan or a state hash.
//! * **Memory.** At 1 M keys of the state benchmark's shape (14-byte
//!   keys, 8-byte values, one version each) a shard takes ≈ 86 bytes a
//!   key, against ≈ 134 with a `BTreeSet` of the keys as its ordered
//!   index, ≈ 218 for the hash map of chains before that and ≈ 161 for
//!   the one `BTreeMap` before that (resident-set growth over the
//!   preload, 16 shards, x86-64 glibc; ≈ 90 against ≈ 137 at 0.8 M
//!   keys). The arena slot is 72 of them (a 24-byte key and a
//!   48-byte one-entry chain, in place), the point index ≈ 8 (131 072
//!   positions of 4 bytes for a 62 500-key shard; ≈ 10.5 at 0.8 M) and
//!   the ordered index ≈ 4. A touched key adds its two-entry chain, a
//!   96-byte heap block (≈ 112 bytes with the allocator's header).
//! * **Short keys and values in place.** A key of at most 22 bytes is
//!   stored inside its arena slot, and a value of at
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
//!   touch, so hot keys stay short. A deleted key whose chain a pin
//!   still needs is noted with its tombstone's epoch, and the first
//!   apply whose prune fence reaches that epoch drops it, in whichever
//!   shard it sits, rather than its next write, which may never come.
//! * **Epochs, not heights, order visibility.** Every apply completes
//!   one epoch (a monotone counter); the `(epoch, tip-height)` pair
//!   advances *after* the whole apply — a whole block for
//!   `apply_block` — is in place. Pins capture that pair, which is why
//!   a pinned reader can never observe a torn batch or a half-applied
//!   block, even while shard groups commit in parallel, and why
//!   non-monotone heights (exercised by the equivalence harness) don't
//!   confuse snapshot reads.
//! * **Ordered scans.** `range`/`snapshot`/`snapshot_chunks` k-way
//!   merge the per-shard ordered indexes (shards partition the keyspace
//!   disjointly, so the merge is a plain heap-less cursor sweep over at
//!   most `shards` tails).
//! * **Journal ordering.** A commit-order mutex is held across journal
//!   record *and* in-memory apply: record order is exactly apply order
//!   even when the in-memory fan-out runs shard-parallel. See
//!   [`crate::JournalSink`].
//!
//! Lock order: `order` → `pins` → shard locks → `committed`. Readers
//! take only shard locks; `pin()` takes `pins` → `committed`.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::ops::{Bound, RangeBounds};
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

/// A key's versions: one entry in place, a vector from two up. A
/// preloaded or restored key owns no heap block of its own.
enum Chain {
    One(VersionEntry),
    Many(Vec<VersionEntry>),
}

impl Chain {
    /// The entries in apply order; never empty.
    fn entries(&self) -> &[VersionEntry] {
        match self {
            Chain::One(entry) => std::slice::from_ref(entry),
            Chain::Many(entries) => entries,
        }
    }

    /// Prunes the chain below `horizon`, then appends `entry`, whose
    /// epoch is above it: pruning before the push keeps what pruning
    /// after it would. A one-entry chain becomes a vector with room for
    /// exactly two, what an unpinned chain keeps.
    fn push(&mut self, entry: VersionEntry, horizon: u64) {
        let entries = match std::mem::replace(self, Chain::Many(Vec::new())) {
            Chain::One(first) => vec![first, entry],
            Chain::Many(mut entries) => {
                prune_chain(&mut entries, horizon);
                entries.push(entry);
                entries
            }
        };
        *self = Chain::Many(entries);
    }
}

/// What an arena slot holds: a key and its chain, in one place.
struct Slot {
    key: Key,
    chain: Chain,
}

/// Slots a page of the arena holds. The arena grows a page at a time,
/// so growth moves no slot, and a shard leaves at most one page part
/// empty.
const PAGE: usize = 256;

/// The point index's mark for a position that holds no slot number.
const EMPTY: u32 = u32::MAX;

/// The point index's smallest non-empty length.
const MIN_TABLE: usize = 16;

/// The point index's length for `keys` keys: a power of two at least
/// twice the count, so that a probe run ends at an empty position soon.
fn table_len(keys: usize) -> usize {
    if keys == 0 {
        0
    } else {
        (keys * 2).next_power_of_two().max(MIN_TABLE)
    }
}

/// Writes slot number `slot` into the first empty position of `table`
/// from `hash`'s home on.
fn place(table: &mut [u32], hash: u64, slot: u32) {
    let mask = table.len() - 1;
    let mut pos = hash as usize & mask;
    while table[pos] != EMPTY {
        pos = (pos + 1) & mask;
    }
    table[pos] = slot;
}

/// Slot numbers a chunk of the ordered index holds at most: 2 KB.
const CHUNK: usize = 512;

/// A new chunk of the ordered index holding `n` alone, with room for
/// [`CHUNK`].
fn chunk_of(n: u32) -> Vec<u32> {
    let mut chunk = Vec::with_capacity(CHUNK);
    chunk.push(n);
    chunk
}

/// One shard: each key once, in a slot of the arena, and its slot
/// number in two indexes, both under the shard's lock. The point index
/// finds a slot by hash; the ordered index holds exactly the point
/// index's slot numbers, in key order.
struct Shard<S = RandomState> {
    /// The slot arena, in pages of [`PAGE`]: slot `n` is
    /// `pages[n / PAGE][n % PAGE]`, `None` once freed.
    pages: Vec<Vec<Option<Slot>>>,
    /// Freed slot numbers, reused before the arena grows.
    free: Vec<u32>,
    /// The point index: slot numbers, or [`EMPTY`], in an open-addressing
    /// table probed linearly from the key's hash. Its length is zero or
    /// a power of two at least twice the keys it holds.
    table: Box<[u32]>,
    /// The key of the point index's hash (see the module docs).
    hasher: S,
    /// The ordered index, what only the scans read: the slot numbers in
    /// their keys' byte order, cut into chunks of at most [`CHUNK`].
    /// No chunk is empty, and any two neighbouring chunks hold more than
    /// half a chunk between them.
    order: Vec<Vec<u32>>,
    /// Keys the shard holds: the slot numbers in each index.
    keys: usize,
    /// Keys whose newest entry is a put (i.e. visible to a live read).
    live: usize,
    /// `(epoch, slot number)` of each tombstone written onto a chain it
    /// left held, in epoch order: the keys [`Shard::sweep`] may drop. A
    /// slot may have been freed, reused or written again since.
    tombstones: Vec<(u64, u32)>,
}

/// Counts only: listing the slots would print them in the order their
/// keys were first written, which the scans must not see.
impl<S> std::fmt::Debug for Shard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("keys", &self.keys)
            .field("live", &self.live)
            .finish()
    }
}

impl<S: BuildHasher> Shard<S> {
    /// An empty shard whose arena and point index hold `keys` keys
    /// without growing.
    fn with_capacity(keys: usize, hasher: S) -> Self {
        Shard {
            pages: Vec::with_capacity(keys.div_ceil(PAGE)),
            free: Vec::new(),
            table: vec![EMPTY; table_len(keys)].into_boxed_slice(),
            hasher,
            order: Vec::new(),
            keys: 0,
            live: 0,
            tombstones: Vec::new(),
        }
    }

    fn slot(&self, n: u32) -> &Slot {
        let n = n as usize;
        self.pages[n / PAGE][n % PAGE]
            .as_ref()
            .expect("the point index holds live slots only")
    }

    fn slot_mut(&mut self, n: u32) -> &mut Slot {
        let n = n as usize;
        self.pages[n / PAGE][n % PAGE]
            .as_mut()
            .expect("the point index holds live slots only")
    }

    /// The position in the point index of `key`'s slot number.
    fn position(&self, hash: u64, key: &[u8]) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let n = self.table[pos];
            if n == EMPTY {
                return None;
            }
            if self.slot(n).key.as_bytes() == key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// `key`'s chain: one probe run of the point index.
    fn chain(&self, key: &[u8]) -> Option<&[VersionEntry]> {
        let pos = self.position(self.hasher.hash_one(key), key)?;
        Some(self.slot(self.table[pos]).chain.entries())
    }

    /// Where the ordered index's first key inside lower bound `lo` sits:
    /// a chunk, and a position in it that is short of the chunk's end
    /// unless the chunk is one past the last. Two binary searches, the
    /// first over the chunks' last keys, each key read through the arena.
    fn seek(&self, lo: Bound<&[u8]>) -> (usize, usize) {
        let before = |n: &u32| !(lo, Bound::Unbounded).contains(&self.slot(*n).key.as_bytes());
        let c = self
            .order
            .partition_point(|chunk| before(chunk.last().expect("no chunk is empty")));
        let i = self
            .order
            .get(c)
            .map_or(0, |chunk| chunk.partition_point(before));
        (c, i)
    }

    /// How many keys `bounds` holds, and those keys in order, each with
    /// its chain, read straight from the ordered index's slot numbers.
    /// The count is a seek to each end and a sum of the chunk lengths
    /// between them.
    fn scan<'s>(
        &'s self,
        (lo, hi): (Bound<&[u8]>, Bound<&[u8]>),
    ) -> (
        usize,
        impl Iterator<Item = (&'s Key, &'s [VersionEntry])> + 's,
    ) {
        let start = self.seek(lo);
        let end = match hi {
            Bound::Included(h) => self.seek(Bound::Excluded(h)),
            Bound::Excluded(h) => self.seek(Bound::Included(h)),
            Bound::Unbounded => (self.order.len(), 0),
        };
        let keys = if start < end {
            let whole: usize = self.order[start.0..end.0].iter().map(Vec::len).sum();
            whole + end.1 - start.1
        } else {
            0
        };
        let rows = self.order[start.0..]
            .iter()
            .flatten()
            .skip(start.1)
            .take(keys)
            .map(|&n| {
                let slot = self.slot(n);
                (&slot.key, slot.chain.entries())
            });
        (keys, rows)
    }

    /// Puts slot number `n`, whose key the ordered index does not hold,
    /// in its place. A key above the shard's last one, as every preloaded
    /// and restored key is, goes at the end, packing chunks full; a key
    /// inside a full chunk splits that chunk in halves.
    fn order_insert(&mut self, n: u32) {
        let key = self.slot(n).key.as_bytes();
        let last = self.order.last().and_then(|chunk| chunk.last());
        if last.is_none_or(|&last| self.slot(last).key.as_bytes() < key) {
            match self.order.last_mut() {
                Some(chunk) if chunk.len() < CHUNK => chunk.push(n),
                _ => self.order.push(chunk_of(n)),
            }
            return;
        }
        let (c, i) = self.seek(Bound::Included(key));
        let chunk = &mut self.order[c];
        if chunk.len() < CHUNK {
            chunk.insert(i, n);
            return;
        }
        let mut upper = Vec::with_capacity(CHUNK);
        upper.extend(chunk.drain(CHUNK / 2..));
        if i <= CHUNK / 2 {
            chunk.insert(i, n);
        } else {
            upper.insert(i - CHUNK / 2, n);
        }
        self.order.insert(c + 1, upper);
    }

    /// Takes slot number `n`, whose key is still in its slot, out of the
    /// ordered index. A chunk left empty is dropped, and one that fits
    /// beside a neighbour in half a chunk joins it, so that no order of
    /// deletes leaves the index mostly empty chunks.
    fn order_remove(&mut self, n: u32) {
        let (c, i) = self.seek(Bound::Included(self.slot(n).key.as_bytes()));
        let chunk = &mut self.order[c];
        assert_eq!(chunk[i], n, "the ordered index holds every held slot");
        chunk.remove(i);
        if chunk.is_empty() {
            self.order.remove(c);
            return;
        }
        let fits = |order: &[Vec<u32>], a: usize| order[a].len() + order[a + 1].len() <= CHUNK / 2;
        let join = if c + 1 < self.order.len() && fits(&self.order, c) {
            c
        } else if c > 0 && fits(&self.order, c - 1) {
            c - 1
        } else {
            return;
        };
        let next = self.order.remove(join + 1);
        self.order[join].extend_from_slice(&next);
    }

    /// Adds `key`, which the shard does not hold, with the one-entry
    /// chain of a put: into a free slot or a new one, and both indexes.
    fn insert(&mut self, hash: u64, key: &str, put: VersionEntry) {
        if (self.keys + 1) * 2 > self.table.len() {
            self.grow();
        }
        let slot = Some(Slot {
            key: Key::new(key),
            chain: Chain::One(put),
        });
        let n = match self.free.pop() {
            Some(n) => {
                self.pages[n as usize / PAGE][n as usize % PAGE] = slot;
                n
            }
            None => {
                if self.pages.last().is_none_or(|page| page.len() == PAGE) {
                    self.pages.push(Vec::with_capacity(PAGE));
                }
                let last = self.pages.len() - 1;
                let page = &mut self.pages[last];
                page.push(slot);
                u32::try_from(last * PAGE + page.len() - 1)
                    .ok()
                    .filter(|&n| n != EMPTY)
                    .expect("a shard holds fewer than 2^32 - 1 slots")
            }
        };
        place(&mut self.table, hash, n);
        self.order_insert(n);
        self.keys += 1;
        self.live += 1;
    }

    /// Doubles the point index and places every held slot number anew,
    /// walking the arena in slot order.
    fn grow(&mut self) {
        let mut table = vec![EMPTY; (self.table.len() * 2).max(MIN_TABLE)].into_boxed_slice();
        for (p, page) in self.pages.iter().enumerate() {
            for (i, slot) in page.iter().enumerate() {
                if let Some(slot) = slot {
                    place(
                        &mut table,
                        self.hasher.hash_one(&slot.key),
                        (p * PAGE + i) as u32,
                    );
                }
            }
        }
        self.table = table;
    }

    /// Drops the key whose slot number sits at `pos` of the point index:
    /// takes the number out of the ordered index, closes the gap in the
    /// point index by shifting the rest of its probe run back (no
    /// tombstones) and frees the slot for reuse.
    fn remove(&mut self, pos: usize) {
        let mask = self.table.len() - 1;
        let n = self.table[pos];
        self.order_remove(n);
        let mut hole = pos;
        let mut next = (pos + 1) & mask;
        while self.table[next] != EMPTY {
            let home = self.hasher.hash_one(&self.slot(self.table[next]).key) as usize & mask;
            // The entry at `next` may fill the hole unless its home lies
            // after the hole in its probe run.
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.table[hole] = self.table[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.table[hole] = EMPTY;
        self.pages[n as usize / PAGE][n as usize % PAGE] = None;
        self.free.push(n);
        self.keys -= 1;
    }

    /// Applies one shard's slice of a block, pruning each touched chain
    /// below the retention fence.
    fn apply(&mut self, group: &[GroupEntry], horizon: u64) {
        for &(key, value, epoch, height) in group {
            let entry = VersionEntry {
                epoch,
                height,
                value: value.map(InlineBytes::new),
            };
            let hash = self.hasher.hash_one(key.as_bytes());
            match self.position(hash, key.as_bytes()) {
                Some(pos) => {
                    let n = self.table[pos];
                    let chain = &mut self.slot_mut(n).chain;
                    let was_live = chain.entries().last().is_some_and(|e| e.value.is_some());
                    let now_live = entry.value.is_some();
                    chain.push(entry, horizon);
                    // A chain of only tombstones reads as "absent" at
                    // every epoch — exactly what a missing chain reads
                    // as. Drop the key rather than let delete-heavy
                    // workloads accumulate dead chains.
                    let dead = chain.entries().iter().all(|e| e.value.is_none());
                    match (was_live, now_live) {
                        (false, true) => self.live += 1,
                        (true, false) => self.live -= 1,
                        _ => {}
                    }
                    if dead {
                        self.remove(pos);
                    } else if !now_live {
                        self.tombstones.push((epoch, n));
                    }
                }
                None => {
                    // A tombstone for an absent key carries no
                    // information: readers at every epoch already
                    // resolve the key to None. Only a put starts a chain.
                    if entry.value.is_some() {
                        self.insert(hash, key, entry);
                    }
                }
            }
        }
    }

    /// Drops the keys whose newest entry is a tombstone at or below
    /// `horizon`, the retention fence of the apply that calls it: pruned
    /// to the fence, their chains hold tombstones alone, which every
    /// reader resolves as it does a missing key. Returns the epoch of
    /// the oldest tombstone left to sweep, `u64::MAX` for none.
    fn sweep(&mut self, horizon: u64) -> u64 {
        let mut tombstones = std::mem::take(&mut self.tombstones);
        let due = tombstones.partition_point(|&(epoch, _)| epoch <= horizon);
        for &(_, n) in &tombstones[..due] {
            let dead = match &mut self.pages[n as usize / PAGE][n as usize % PAGE] {
                Some(Slot {
                    chain: Chain::Many(entries),
                    ..
                }) if entries.last().is_some_and(|e| e.value.is_none()) => {
                    prune_chain(entries, horizon);
                    entries.iter().all(|e| e.value.is_none())
                }
                // Freed, or written with a put since.
                _ => false,
            };
            if dead {
                let key = self.slot(n).key.as_bytes();
                let pos = self
                    .position(self.hasher.hash_one(key), key)
                    .expect("a held slot is in the point index");
                self.remove(pos);
            }
        }
        tombstones.drain(..due);
        self.tombstones = tombstones;
        self.tombstones
            .first()
            .map_or(u64::MAX, |&(epoch, _)| epoch)
    }

    /// Restores one checkpoint entry as a one-entry chain; a repeated
    /// key keeps its last entry.
    fn restore(&mut self, key: &str, entry: VersionEntry) {
        let hash = self.hasher.hash_one(key.as_bytes());
        match self.position(hash, key.as_bytes()) {
            Some(pos) => {
                let n = self.table[pos];
                self.slot_mut(n).chain = Chain::One(entry);
            }
            None => self.insert(hash, key, entry),
        }
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
    /// For each shard, an epoch at or below that of its oldest tombstone
    /// left to sweep, `u64::MAX` for none: an apply whose horizon is
    /// below it leaves the shard unlocked.
    tombstoned: Vec<u64>,
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
        StateDb::from_shards(
            (0..shards)
                .map(|_| Shard::with_capacity(0, RandomState::new()))
                .collect(),
        )
    }

    fn from_shards(shards: Vec<Shard>) -> Self {
        let order = OrderState {
            tombstoned: vec![u64::MAX; shards.len()],
            ..OrderState::default()
        };
        StateDb {
            inner: Arc::new(SharedInner {
                shards: shards
                    .into_iter()
                    .map(|shard| RwLock::named("statedb.shard", shard))
                    .collect(),
                order: Mutex::named("statedb.order", order),
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
    /// snapshot restore continues from this tip. Each shard is built
    /// once, before any lock exists, with its arena and point index
    /// sized to its entry count, so a restore never regrows either.
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        let epoch = if entries.is_empty() && tip.is_none() {
            0
        } else {
            1
        };
        let mut counts = vec![0usize; DEFAULT_SHARDS];
        for (key, _) in &entries {
            counts[shard_index(key, DEFAULT_SHARDS)] += 1;
        }
        let mut shards: Vec<Shard> = counts
            .into_iter()
            .map(|keys| Shard::with_capacity(keys, RandomState::new()))
            .collect();
        for (key, v) in entries {
            let entry = VersionEntry {
                epoch,
                height: v.version,
                value: Some(InlineBytes::new(&v.value)),
            };
            shards[shard_index(&key, DEFAULT_SHARDS)].restore(&key, entry);
        }
        let db = StateDb::from_shards(shards);
        {
            let mut order = db.inner.order.lock();
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
            .chain(key.as_bytes())
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
        self.apply_batches(batches, true);
    }

    fn apply_batches<B: Borrow<WriteBatch>>(&self, batches: &[(B, Height)], journal: bool) {
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
                    sink.record(batch.borrow(), *height);
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
        let total: usize = batches.iter().map(|(batch, _)| batch.borrow().len()).sum();
        let mut homes = Vec::with_capacity(total);
        let mut ends = vec![0usize; inner.shards.len()];
        let mut tip = order.tip;
        for (batch, height) in batches {
            tip = Some(match tip {
                Some(t) => t.max(*height),
                None => *height,
            });
            for (key, _) in batch.borrow().iter() {
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
            for (key, value) in batch.borrow().iter() {
                let home = homes.next().expect("one home per entry");
                entries[ends[home]] = (key, value, epoch, *height);
                ends[home] += 1;
                if value.is_none() {
                    order.tombstoned[home] = order.tombstoned[home].min(epoch);
                }
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
                                inner.shards[idx].write().apply(group(idx), horizon);
                            }
                        }
                    });
                }
            });
        } else {
            for (idx, shard) in inner.shards.iter().enumerate() {
                if !group(idx).is_empty() {
                    shard.write().apply(group(idx), horizon);
                }
            }
        }

        // A key deleted at or below the fence reads as absent to every
        // reader the fence keeps: drop it now, in whichever shard it
        // sits, rather than at its next write, which may never come. A
        // shard with no such key due stays unlocked.
        for (idx, shard) in inner.shards.iter().enumerate() {
            if order.tombstoned[idx] <= horizon {
                order.tombstoned[idx] = shard.write().sweep(horizon);
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
        self.inner
            .scan(key_range(start, end), usize::MAX, <[VersionEntry]>::last)
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

impl SharedInner {
    /// The first `limit` keys of `bounds` in key order, each with the
    /// entry `resolve` picks from its chain, skipping the keys for which
    /// it picks none or a tombstone: each shard's scan under its own read
    /// lock in turn, then merged (shards partition the keyspace, so this
    /// is a cursor sweep, not a sort). Each shard's run is allocated once,
    /// for its keys in `bounds` up to `limit`, and the merged run once,
    /// for the runs' rows up to `limit`.
    fn scan(
        &self,
        bounds: (Bound<&[u8]>, Bound<&[u8]>),
        limit: usize,
        resolve: impl Fn(&[VersionEntry]) -> Option<&VersionEntry>,
    ) -> Vec<(String, VersionedValue)> {
        let per_shard = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.read();
                let (keys, rows) = shard.scan(bounds);
                let mut run = Vec::with_capacity(keys.min(limit));
                run.extend(
                    rows.filter_map(|(key, chain)| {
                        Some((key.as_str().to_owned(), resolve(chain)?.read()?))
                    })
                    .take(limit),
                );
                run
            })
            .collect();
        merge_sorted(per_shard, limit)
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
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum::<usize>().min(limit));
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
        let after = match &self.cursor {
            Some(last) => Bound::Excluded(last.as_bytes()),
            None => Bound::Unbounded,
        };
        let batch = self.db.inner.scan(
            (after, Bound::Unbounded),
            self.chunk,
            <[VersionEntry]>::last,
        );
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

    /// The newest entry of `chain` at or below the pinned epoch: none at
    /// epoch 0, since every apply writes at epoch 1 or above.
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
        g.chain(key.as_bytes())
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
        self.inner.scan(key_range(start, end), usize::MAX, |chain| {
            self.resolve(chain)
        })
    }

    /// Full ordered dump as of the pinned height.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.inner
            .scan((Bound::Unbounded, Bound::Unbounded), usize::MAX, |chain| {
                self.resolve(chain)
            })
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
    use std::collections::BTreeSet;

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
        let chained = g.chain(key.as_bytes()).is_some();
        let only = Bound::Included(key.as_bytes());
        assert_eq!(
            chained,
            g.scan((only, only)).1.next().is_some(),
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
        let chain = shard.chain("hot".as_bytes()).unwrap();
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
        assert!(shard.chain("k".as_bytes()).unwrap().len() <= 2);
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

    /// Forces colliding hashes: a key whose last byte is odd hashes to
    /// `u64::MAX`, one whose last byte is even to `u64::MAX - 2`. Their
    /// homes are the point index's last and third-last positions, so
    /// every key lands in one probe run that wraps to position 0.
    struct Colliding(u8);

    impl BuildHasher for Colliding {
        type Hasher = Colliding;

        fn build_hasher(&self) -> Colliding {
            Colliding(0)
        }
    }

    impl std::hash::Hasher for Colliding {
        fn finish(&self) -> u64 {
            u64::MAX - 2 * u64::from(self.0.is_multiple_of(2))
        }

        fn write(&mut self, bytes: &[u8]) {
            if let Some(&last) = bytes.last() {
                self.0 = last;
            }
        }
    }

    /// Slots the arena has handed out, freed ones included.
    fn arena_len<S>(shard: &Shard<S>) -> usize {
        shard.pages.iter().map(Vec::len).sum()
    }

    #[test]
    fn a_slot_holds_a_key_and_one_entry_in_72_bytes() {
        assert_eq!(std::mem::size_of::<Chain>(), 48);
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 72);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn index_holds_a_wrapped_probe_run_to_a_map(
            ops in proptest::collection::vec(
                (0..10usize, proptest::option::of(proptest::prelude::any::<u8>())),
                1..200,
            ),
        ) {
            let mut shard = Shard::with_capacity(0, Colliding(0));
            let mut model = std::collections::HashMap::new();
            let keys: Vec<String> = (0..10).map(|i| format!("key{i}")).collect();
            for (i, &(k, value)) in ops.iter().enumerate() {
                // One apply an op, unpinned: the horizon is the epoch
                // before it, so a second delete drops the key's slot.
                let epoch = i as u64 + 1;
                let put = value.map(|v| [v]);
                let write = put.as_ref().map(|v| &v[..]);
                shard.apply(&[(&keys[k], write, epoch, Height::new(epoch, 0))], epoch - 1);
                match value {
                    Some(v) => model.insert(k, v),
                    None => model.remove(&k),
                };
                for (k, key) in keys.iter().enumerate() {
                    let newest = shard.chain(key.as_bytes()).and_then(|chain| {
                        chain.last()?.value.as_ref().map(|v| v.as_slice()[0])
                    });
                    proptest::prop_assert_eq!(newest, model.get(&k).copied(), "{}", key);
                }
                proptest::prop_assert_eq!(shard.live, model.len());
                // Linear probing's invariant: no empty position between
                // a held slot number and its home, so backward shifts
                // left no gap; and the index holds the shard's keys, the
                // ordered index's, no more.
                let mask = shard.table.len().wrapping_sub(1);
                let mut held = 0;
                for (pos, &n) in shard.table.iter().enumerate() {
                    if n == EMPTY {
                        continue;
                    }
                    held += 1;
                    let mut at = shard.hasher.hash_one(&shard.slot(n).key) as usize & mask;
                    while at != pos {
                        proptest::prop_assert!(shard.table[at] != EMPTY, "gap at {}", at);
                        at = (at + 1) & mask;
                    }
                }
                proptest::prop_assert_eq!(held, shard.keys);
                for (key, _) in shard.scan((Bound::Unbounded, Bound::Unbounded)).1 {
                    proptest::prop_assert!(shard.chain(key.as_bytes()).is_some());
                }
            }
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let db = StateDb::with_shards(1);
        let mut peak = 0;
        for i in 0..10_000u64 {
            let key = format!("fresh{i:05}");
            put(&db, &key, 1, Height::new(3 * i, 0));
            peak = peak.max(db.inner.shards[0].read().keys);
            // The first delete keeps the put for a reader pinned before
            // it; the second prunes the put and drops the key.
            for h in 1..3 {
                let mut d = WriteBatch::new();
                d.delete(&key);
                db.apply(&d, Height::new(3 * i + h, 0));
            }
            assert!(!holds(&db, &key));
        }
        let shard = db.inner.shards[0].read();
        assert!(
            arena_len(&shard) <= peak,
            "arena of {} slots for at most {peak} keys",
            arena_len(&shard)
        );
    }

    #[test]
    fn a_deleted_key_leaves_at_the_next_apply() {
        let db = StateDb::new();
        // Later applies write a key of another shard than the deleted ones.
        let other = (0..)
            .map(|i| format!("other{i}"))
            .find(|o| db.shard_of(o) != db.shard_of("k") && db.shard_of(o) != db.shard_of("p"))
            .expect("some key lives in a third shard");
        let delete = |key: &str, h: Height| {
            let mut d = WriteBatch::new();
            d.delete(key);
            db.apply(&d, h);
        };

        put(&db, "k", 1, Height::new(1, 0));
        delete("k", Height::new(2, 0));
        // The put stays for a reader pinned at the epoch before the delete.
        assert!(holds(&db, "k"));
        put(&db, &other, 1, Height::new(3, 0));
        assert!(!holds(&db, "k"), "no pin: gone after one more apply");
        assert_eq!(db.get("k"), None);

        put(&db, "p", 1, Height::new(4, 0));
        let pin = db.pin();
        delete("p", Height::new(5, 0));
        put(&db, &other, 2, Height::new(6, 0));
        assert!(holds(&db, "p"), "the pin fences the put");
        assert_eq!(pin.get("p").unwrap().value, vec![1]);
        assert_eq!(pin.range("p", "q").len(), 1);
        drop(pin);
        assert!(holds(&db, "p"), "nothing sweeps between applies");
        put(&db, &other, 3, Height::new(7, 0));
        assert!(!holds(&db, "p"), "gone at the first apply after the pin");
        assert_eq!(db.get("p"), None);
        assert_eq!(db.len(), 1);
    }

    /// Keys the ordered-index proptest draws from: more than three full
    /// chunks.
    const ORDERED_KEYS: usize = 4 * CHUNK;

    /// One lower or upper bound from a drawn `(kind, key)` pair.
    fn bound(keys: &[String], (kind, k): (u8, usize)) -> Bound<&[u8]> {
        match kind {
            0 => Bound::Included(keys[k].as_bytes()),
            1 => Bound::Excluded(keys[k].as_bytes()),
            _ => Bound::Unbounded,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Each op writes `count` keys `first`, `first + step`, ... (mod
        /// the key space) in one apply, puts or deletes, and sweeps as
        /// the next unpinned apply would; then every scan and the
        /// index's shape are held to a `BTreeSet` of the live keys. Runs
        /// of step 1 into an empty stretch append and empty chunks; wider
        /// steps insert between held keys and split full chunks; a put
        /// after a delete fills a freed slot.
        #[test]
        fn ordered_index_holds_to_a_sorted_set(
            ops in proptest::collection::vec(
                (
                    0..3u8,
                    0..ORDERED_KEYS,
                    1..CHUNK * 2,
                    1..6usize,
                    (0..3u8, 0..ORDERED_KEYS),
                    (0..3u8, 0..ORDERED_KEYS),
                ),
                1..16,
            ),
        ) {
            let keys: Vec<String> = (0..ORDERED_KEYS).map(|i| format!("acct{i:010}")).collect();
            let mut shard = Shard::with_capacity(0, RandomState::new());
            let mut model = BTreeSet::new();
            for (i, &(kind, first, count, step, lo, hi)) in ops.iter().enumerate() {
                let epoch = i as u64 + 1;
                let put = kind < 2;
                let group: Vec<GroupEntry> = (0..count)
                    .map(|j| {
                        let key = &keys[(first + j * step) % ORDERED_KEYS];
                        if put {
                            model.insert(key.clone());
                        } else {
                            model.remove(key);
                        }
                        (key.as_str(), put.then_some(&b"v"[..]), epoch, Height::new(epoch, 0))
                    })
                    .collect();
                shard.apply(&group, epoch - 1);
                shard.sweep(epoch);

                let bounds = (bound(&keys, lo), bound(&keys, hi));
                let (count, rows) = shard.scan(bounds);
                let scanned: Vec<&str> = rows.map(|(key, _)| key.as_str()).collect();
                proptest::prop_assert_eq!(count, scanned.len());
                let expected: Vec<&str> = model
                    .iter()
                    .map(String::as_str)
                    .filter(|key| bounds.contains(&key.as_bytes()))
                    .collect();
                proptest::prop_assert_eq!(scanned, expected, "scan {:?}", bounds);

                let held: Vec<u32> = shard.order.iter().flatten().copied().collect();
                let in_order: Vec<&str> = held.iter().map(|&n| shard.slot(n).key.as_str()).collect();
                proptest::prop_assert!(in_order.iter().eq(model.iter()), "index != model");
                proptest::prop_assert_eq!(shard.keys, model.len());
                proptest::prop_assert_eq!(shard.live, model.len());
                for &n in &held {
                    let key = shard.slot(n).key.as_bytes();
                    let pos = shard.position(shard.hasher.hash_one(key), key);
                    proptest::prop_assert_eq!(pos.map(|pos| shard.table[pos]), Some(n));
                }
                for chunk in &shard.order {
                    proptest::prop_assert!((1..=CHUNK).contains(&chunk.len()));
                }
                for pair in shard.order.windows(2) {
                    proptest::prop_assert!(pair[0].len() + pair[1].len() > CHUNK / 2);
                }
            }
        }
    }
}
