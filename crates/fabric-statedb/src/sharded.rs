//! Hash-sharded MVCC state store — the commit-path rework of ROADMAP
//! item 3.
//!
//! # Why
//!
//! The legacy store is one `BTreeMap` behind one `RwLock`: every point
//! read, range scan, snapshot chunk, and batch apply funnels through a
//! single lock, and its `get` even takes the *write* lock to bump
//! statistics. Fine for 25-tx harness blocks; the bottleneck at the
//! million-key populations `workload::arrivals` generates, and a hard
//! blocker for a wide commit stage.
//!
//! # Structure
//!
//! * **Shards.** Keys hash (FNV-1a, [`DEFAULT_SHARDS`] shards by
//!   default) to independent `RwLock<BTreeMap<key, version-chain>>`
//!   shards. Point reads touch exactly one shard lock; a block's write
//!   batches group by shard and disjoint shard groups apply
//!   concurrently ([`ShardedStateDb::apply_block`]).
//! * **Version chains (MVCC).** Each key maps to a short chain of
//!   `(epoch, height, value-or-tombstone)` entries in apply order.
//!   Live reads resolve the newest entry; a pinned snapshot
//!   ([`ShardedStateDb::pin`]) resolves the newest entry at or below
//!   its pinned *epoch* — so readers execute at a height snapshot
//!   without blocking the committer, and the committer never blocks
//!   behind readers. Chains are pruned below the oldest live pin on
//!   every touch, so hot keys stay short.
//! * **Epochs, not heights, order visibility.** Every apply completes
//!   one epoch (a monotone counter); the `(epoch, tip-height)` pair
//!   advances *after* the whole apply — a whole block for
//!   `apply_block` — is in place. Pins capture that pair, which is why
//!   a pinned reader can never observe a torn batch or a half-applied
//!   block, even while shard groups commit in parallel, and why
//!   non-monotone heights (exercised by the equivalence harness) don't
//!   confuse snapshot reads.
//! * **Ordered index.** `range`/`snapshot`/`snapshot_chunks` k-way
//!   merge the per-shard ordered maps (shards partition the keyspace
//!   disjointly, so the merge is a plain heap-less cursor sweep over at
//!   most `shards` tails).
//! * **Journal ordering.** A commit-order mutex is held across journal
//!   record *and* in-memory apply: record order is exactly apply order
//!   even when the in-memory fan-out runs shard-parallel. See
//!   [`crate::JournalSink`].
//!
//! Lock order: `order` → `pins` → shard locks → `committed`. Readers
//! take only shard locks; `pin()` takes `pins` → `committed`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::{Height, JournalSink, StateDbStats, VersionedValue, WriteBatch};

/// Default shard count: enough to spread a wide commit stage's batches
/// with low collision probability at harness thread counts, small
/// enough that the k-way merge cursor sweep stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// Minimum total entries in an [`ShardedStateDb::apply_block`] before
/// the per-shard apply fans out to threads; below this the spawn cost
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
#[derive(Debug, Clone)]
struct VersionEntry {
    /// The apply epoch that wrote this entry (see module docs).
    epoch: u64,
    /// Commit height stamped on the write.
    height: Height,
    value: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Shard {
    map: BTreeMap<String, Vec<VersionEntry>>,
    /// Keys whose newest entry is a put (i.e. visible to a live read).
    live: usize,
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

/// The hash-sharded MVCC store; see the module docs. Constructed
/// through the [`crate::StateDb`] facade in normal use.
///
/// Cloning is cheap: clones share the same shards.
#[derive(Debug, Clone)]
pub struct ShardedStateDb {
    inner: Arc<SharedInner>,
}

impl Default for ShardedStateDb {
    fn default() -> Self {
        ShardedStateDb::new()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ShardedStateDb {
    /// Creates an empty store with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedStateDb::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        ShardedStateDb {
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

    /// Rebuilds a store from a checkpoint snapshot (see
    /// [`crate::StateDb::from_snapshot`]): entries land in their home
    /// shards as single-entry chains at epoch 1.
    pub fn from_snapshot(entries: Vec<(String, VersionedValue)>, tip: Option<Height>) -> Self {
        let db = ShardedStateDb::new();
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
                g.map.insert(
                    key,
                    vec![VersionEntry {
                        epoch,
                        height: v.version,
                        value: Some(v.value),
                    }],
                );
                g.live += 1;
            }
            order.epoch = epoch;
            order.tip = tip;
            *db.inner.committed.write() = (epoch, tip);
        }
        db
    }

    fn shard_of(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.inner.shards.len() as u64) as usize
    }

    /// Attaches a write-ahead journal sink (see
    /// [`crate::StateDb::attach_journal`]).
    pub fn attach_journal(&self, sink: Arc<dyn JournalSink>) {
        self.inner.order.lock().journal = Some(sink);
    }

    /// Flushes the attached journal (a no-op without one).
    pub fn flush_journal(&self) {
        let sink = self.inner.order.lock().journal.clone();
        if let Some(sink) = sink {
            sink.flush();
        }
    }

    /// Point read of the current value and version: one shard read
    /// lock, newest chain entry.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        // relaxed: monotonic stats counter; never gates data visibility
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        let shard = self.inner.shards[self.shard_of(key)].read();
        let hit = shard.map.get(key).and_then(|chain| {
            let newest = chain.last()?;
            Some(VersionedValue {
                value: newest.value.clone()?,
                version: newest.height,
            })
        });
        if hit.is_none() {
            // relaxed: monotonic stats counter; never gates data visibility
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Reads just the version (the MVCC hot path).
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.get(key).map(|v| v.version)
    }

    /// Applies one batch; journals it first when a sink is attached.
    pub fn apply(&self, batch: &WriteBatch, height: Height) {
        self.apply_batches(&[(batch, height)], true);
    }

    /// Re-applies a journaled batch during recovery — never re-journals.
    pub fn replay(&self, batch: &WriteBatch, height: Height) {
        self.apply_batches(&[(batch, height)], false);
    }

    /// Applies a block's per-transaction batches in commit order, with
    /// the in-memory work fanned out over disjoint shards when the
    /// block is large enough to pay for the threads. Journal records
    /// are emitted for every batch, in batch order, before any entry
    /// becomes visible. Semantically identical to applying each batch
    /// in sequence.
    pub fn apply_block(&self, batches: &[(WriteBatch, Height)]) {
        let refs: Vec<(&WriteBatch, Height)> = batches.iter().map(|(b, h)| (b, *h)).collect();
        self.apply_batches(&refs, true);
    }

    fn apply_batches(&self, batches: &[(&WriteBatch, Height)], journal: bool) {
        let inner = &self.inner;
        // The commit-order mutex is held for the WHOLE apply: journal
        // record order == apply order, and concurrent apply calls
        // serialize exactly like the legacy store. Parallelism lives
        // *inside* one apply (disjoint shard groups), not across them.
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
        // so last-write-wins holds across the whole block).
        let mut groups: Vec<Vec<GroupEntry>> = vec![Vec::new(); inner.shards.len()];
        let mut total = 0usize;
        let mut tip = order.tip;
        for (i, (batch, height)) in batches.iter().enumerate() {
            let epoch = epoch_pre + 1 + i as u64;
            tip = Some(match tip {
                Some(t) => t.max(*height),
                None => *height,
            });
            for (key, value) in batch.iter() {
                groups[self.shard_of(key)].push((key, value, epoch, *height));
                total += 1;
            }
        }
        // relaxed: monotonic stats counter; never gates data visibility
        inner.writes.fetch_add(total as u64, Ordering::Relaxed);

        let busy = groups.iter().filter(|g| !g.is_empty()).count();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(busy);
        if total >= PARALLEL_APPLY_THRESHOLD && workers > 1 {
            // Wide commit: at most `available_parallelism` threads, each
            // applying a stripe of shard groups (thread w takes groups
            // w, w+workers, ...). Each group goes to exactly one thread
            // and groups touch disjoint shards, so the shard write
            // locks never contend; capping at the core count keeps the
            // spawn overhead from swamping the fan-out on small hosts.
            let groups = &groups;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        for idx in (w..groups.len()).step_by(workers) {
                            if !groups[idx].is_empty() {
                                apply_group(&inner.shards[idx], &groups[idx], horizon);
                            }
                        }
                    });
                }
            });
        } else {
            for (idx, group) in groups.iter().enumerate() {
                if !group.is_empty() {
                    apply_group(&inner.shards[idx], group, horizon);
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

    /// Pins a read snapshot at the last completed epoch; see
    /// [`crate::StateDb::pin`]. O(1): registers the epoch in the pin
    /// table, fencing version pruning below it.
    pub fn pin(&self) -> ShardedSnapshot {
        let inner = &self.inner;
        let mut pins = inner.pins.lock();
        let (epoch, height) = *inner.committed.read();
        // Epoch 0 = pre-genesis: the snapshot sees nothing, needs no
        // retained versions, so it does not fence pruning.
        if epoch > 0 {
            *pins.entry(epoch).or_insert(0) += 1;
        }
        drop(pins);
        ShardedSnapshot {
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
                g.map
                    .range(start.to_string()..end.to_string())
                    .filter_map(|(k, chain)| {
                        let newest = chain.last()?;
                        Some((
                            k.clone(),
                            VersionedValue {
                                value: newest.value.clone()?,
                                version: newest.height,
                            },
                        ))
                    })
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

    /// Highest height ever applied (`None` = never committed).
    pub fn tip_height(&self) -> Option<Height> {
        self.inner.order.lock().tip
    }

    /// Full ordered dump of the live keys; see
    /// [`crate::StateDb::snapshot`].
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        self.snapshot_chunks(crate::SNAPSHOT_CHUNK)
            .flatten()
            .collect()
    }

    /// Chunked snapshot iterator with the same fuzzy contract as the
    /// legacy store (see [`crate::StateDb::snapshot_chunks`]): each
    /// chunk visits the shard locks once, merges the per-shard tails
    /// after the cursor, and releases — writers interleave between
    /// chunks; keys behind the cursor are not revisited.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn snapshot_chunks(&self, chunk: usize) -> ShardedSnapshotChunks {
        assert!(chunk > 0, "snapshot chunk size must be non-zero");
        ShardedSnapshotChunks {
            db: self.clone(),
            cursor: None,
            chunk,
            done: false,
        }
    }

    /// MVCC validation of a read set (see
    /// [`crate::StateDb::mvcc_validate`]).
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
            value: value.map(|v| v.to_vec()),
        };
        match g.map.get_mut(key) {
            Some(chain) => {
                let was_live = chain.last().is_some_and(|e| e.value.is_some());
                let now_live = entry.value.is_some();
                chain.push(entry);
                prune_chain(chain, horizon);
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
                    g.map.remove(key);
                }
            }
            None => {
                // A tombstone for an absent key carries no information:
                // readers at every epoch already resolve the key to
                // None. Only a put starts a chain.
                if entry.value.is_some() {
                    g.map.insert(key.to_string(), vec![entry]);
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

/// Iterator over bounded snapshot chunks of a [`ShardedStateDb`]; see
/// [`ShardedStateDb::snapshot_chunks`].
#[derive(Debug)]
pub struct ShardedSnapshotChunks {
    db: ShardedStateDb,
    /// Last key yielded by the previous chunk; the next chunk resumes
    /// strictly after it.
    cursor: Option<String>,
    chunk: usize,
    done: bool,
}

impl Iterator for ShardedSnapshotChunks {
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
            let range = match &self.cursor {
                Some(last) => g.map.range::<str, _>((
                    std::ops::Bound::Excluded(last.as_str()),
                    std::ops::Bound::Unbounded,
                )),
                None => g.map.range::<str, _>((
                    std::ops::Bound::<&str>::Unbounded,
                    std::ops::Bound::Unbounded,
                )),
            };
            per_shard.push(
                range
                    .filter_map(|(k, chain)| {
                        let newest = chain.last()?;
                        Some((
                            k.clone(),
                            VersionedValue {
                                value: newest.value.clone()?,
                                version: newest.height,
                            },
                        ))
                    })
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

/// A pinned read view of a [`ShardedStateDb`]: every read resolves
/// against the version chains at the pinned epoch. Created by
/// [`ShardedStateDb::pin`]; dropping it releases the prune fence.
#[derive(Debug)]
pub struct ShardedSnapshot {
    inner: Arc<SharedInner>,
    /// Pinned epoch (0 = pre-genesis, sees nothing).
    epoch: u64,
    /// Committed tip height at pin time (what callers reason about).
    height: Option<Height>,
}

impl ShardedSnapshot {
    /// The height this snapshot is pinned at.
    pub fn height(&self) -> Option<Height> {
        self.height
    }

    fn resolve(chain: &[VersionEntry], epoch: u64) -> Option<VersionedValue> {
        let e = chain.iter().rev().find(|e| e.epoch <= epoch)?;
        Some(VersionedValue {
            value: e.value.clone()?,
            version: e.height,
        })
    }

    /// Point read as of the pinned epoch.
    pub fn get(&self, key: &str) -> Option<VersionedValue> {
        if self.epoch == 0 {
            return None;
        }
        let idx = (fnv1a64(key.as_bytes()) % self.inner.shards.len() as u64) as usize;
        let g = self.inner.shards[idx].read();
        g.map
            .get(key)
            .and_then(|chain| Self::resolve(chain, self.epoch))
    }

    /// Version-only read as of the pinned epoch.
    pub fn get_version(&self, key: &str) -> Option<Height> {
        self.get(key).map(|v| v.version)
    }

    /// Range scan over `[start, end)` as of the pinned epoch.
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, VersionedValue)> {
        if self.epoch == 0 {
            return Vec::new();
        }
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.inner.shards {
            let g = shard.read();
            per_shard.push(
                g.map
                    .range(start.to_string()..end.to_string())
                    .filter_map(|(k, chain)| Some((k.clone(), Self::resolve(chain, self.epoch)?)))
                    .collect(),
            );
        }
        merge_sorted(per_shard, usize::MAX)
    }

    /// Full ordered dump as of the pinned epoch.
    pub fn snapshot(&self) -> Vec<(String, VersionedValue)> {
        if self.epoch == 0 {
            return Vec::new();
        }
        let mut per_shard: Vec<Vec<(String, VersionedValue)>> = Vec::new();
        for shard in &self.inner.shards {
            let g = shard.read();
            per_shard.push(
                g.map
                    .iter()
                    .filter_map(|(k, chain)| Some((k.clone(), Self::resolve(chain, self.epoch)?)))
                    .collect(),
            );
        }
        merge_sorted(per_shard, usize::MAX)
    }
}

impl Drop for ShardedSnapshot {
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

    fn put(db: &ShardedStateDb, key: &str, val: u8, h: Height) {
        let mut b = WriteBatch::new();
        b.put(key, vec![val]);
        db.apply(&b, h);
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let db = ShardedStateDb::with_shards(1);
        put(&db, "a", 1, Height::new(1, 0));
        put(&db, "b", 2, Height::new(1, 1));
        assert_eq!(db.len(), 2);
        let keys: Vec<String> = db.range("a", "z").into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn dead_tombstone_chains_are_dropped() {
        let db = ShardedStateDb::new();
        let pin0 = db.pin();
        // Deleting an absent key starts no chain...
        let mut d = WriteBatch::new();
        d.delete("ghost");
        db.apply(&d, Height::new(1, 0));
        assert_eq!(db.get("ghost"), None);
        assert_eq!(pin0.get("ghost"), None);
        drop(pin0);
        assert!(!db.inner.shards[db.shard_of("ghost")]
            .read()
            .map
            .contains_key("ghost"));
        // ...and deleting a live key leaves a chain only as long as a
        // pinned reader might still resolve the put below it.
        put(&db, "k", 1, Height::new(2, 0));
        let pin = db.pin();
        let mut d2 = WriteBatch::new();
        d2.delete("k");
        db.apply(&d2, Height::new(3, 0));
        assert_eq!(pin.get("k").unwrap().value, vec![1], "pin fences the put");
        assert!(db.inner.shards[db.shard_of("k")]
            .read()
            .map
            .contains_key("k"));
        drop(pin);
        // Next touch prunes the put; the all-tombstone chain drops.
        let mut d3 = WriteBatch::new();
        d3.delete("k");
        db.apply(&d3, Height::new(4, 0));
        assert!(
            !db.inner.shards[db.shard_of("k")]
                .read()
                .map
                .contains_key("k"),
            "dead tombstone chain should have been dropped"
        );
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn chains_stay_short_without_pins() {
        let db = ShardedStateDb::new();
        for i in 0..100 {
            put(&db, "hot", i as u8, Height::new(i, 0));
        }
        let shard = db.inner.shards[db.shard_of("hot")].read();
        let chain = shard.map.get("hot").unwrap();
        assert!(
            chain.len() <= 2,
            "unpinned hot-key chain grew to {} entries",
            chain.len()
        );
    }

    #[test]
    fn pin_fences_pruning_and_drop_releases_it() {
        let db = ShardedStateDb::new();
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
        assert!(shard.map.get("k").unwrap().len() <= 2);
    }

    #[test]
    fn version_boundary_height_zero_zero() {
        let db = ShardedStateDb::new();
        put(&db, "k", 7, Height::new(0, 0));
        assert_eq!(db.get_version("k"), Some(Height::new(0, 0)));
        assert_eq!(db.tip_height(), Some(Height::new(0, 0)));
        assert!(db.mvcc_validate(&[("k".into(), Some(Height::new(0, 0)))]));
    }

    #[test]
    fn same_key_twice_in_batch_is_last_op_wins() {
        let db = ShardedStateDb::new();
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
        let wide = ShardedStateDb::new();
        let serial = ShardedStateDb::new();
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
        let db = ShardedStateDb::new();
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
            let db = ShardedStateDb::with_shards(shards);
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
