//! Capacity-limited store modeling the Blockchain Machine's in-hardware
//! database (BRAM/URAM, 8192 entries in the paper's configuration).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Height, StateDbStats, VersionedValue};

/// Outcome of a bounded-store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedDbError {
    /// The store is at capacity and the key was not already present.
    Full {
        /// Configured entry capacity.
        capacity: usize,
    },
    /// The key is currently locked by a writer.
    Locked,
}

impl fmt::Display for BoundedDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundedDbError::Full { capacity } => {
                write!(f, "in-hardware state database full ({capacity} entries)")
            }
            BoundedDbError::Locked => write!(f, "key is locked by an in-flight write"),
        }
    }
}

impl std::error::Error for BoundedDbError {}

/// Capacity-limited store modeling the Blockchain Machine's in-hardware
/// database (BRAM/URAM, 8192 entries in the paper's configuration).
///
/// Writes take a per-key lock for the duration of
/// [`BoundedStateDb::begin_write`] .. [`BoundedStateDb::finish_write`];
/// reads of a locked key fail with [`BoundedDbError::Locked`],
/// reproducing the hardware's "internal locking mechanism to disallow
/// reading of a key if it is currently being written" (paper §3.3).
///
/// One ordered map, unlike [`crate::StateDb`]'s hash index: at most
/// 8 192 keys keep every lookup in cache, the card model charges each
/// access a modelled latency (`bmac_hw::timing`) rather than timing this
/// map, and an ordered map has no worst case to key a hasher against.
#[derive(Debug)]
pub struct BoundedStateDb {
    map: BTreeMap<String, VersionedValue>,
    locked: std::collections::HashSet<String>,
    capacity: usize,
    stats: StateDbStats,
}

/// The paper's configured in-hardware database capacity (§4.1).
pub const HW_DB_DEFAULT_CAPACITY: usize = 8192;

impl BoundedStateDb {
    /// Creates a store holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        BoundedStateDb {
            map: BTreeMap::new(),
            locked: std::collections::HashSet::new(),
            capacity,
            stats: StateDbStats::default(),
        }
    }

    /// Point read; fails when the key is write-locked.
    ///
    /// # Errors
    ///
    /// [`BoundedDbError::Locked`] if a write is in flight on `key`.
    pub fn get(&mut self, key: &str) -> Result<Option<VersionedValue>, BoundedDbError> {
        if self.locked.contains(key) {
            return Err(BoundedDbError::Locked);
        }
        self.stats.reads += 1;
        let hit = self.map.get(key).cloned();
        if hit.is_none() {
            self.stats.misses += 1;
        }
        Ok(hit)
    }

    /// Reads just the version.
    ///
    /// # Errors
    ///
    /// [`BoundedDbError::Locked`] if a write is in flight on `key`.
    pub fn get_version(&mut self, key: &str) -> Result<Option<Height>, BoundedDbError> {
        Ok(self.get(key)?.map(|v| v.version))
    }

    /// Acquires the write lock on `key` (the hardware write port claiming
    /// the address).
    ///
    /// # Errors
    ///
    /// [`BoundedDbError::Locked`] when already locked, or
    /// [`BoundedDbError::Full`] when the key is new and capacity is
    /// exhausted.
    pub fn begin_write(&mut self, key: &str) -> Result<(), BoundedDbError> {
        if self.locked.contains(key) {
            return Err(BoundedDbError::Locked);
        }
        if !self.map.contains_key(key) && self.map.len() + self.locked.len() >= self.capacity {
            return Err(BoundedDbError::Full {
                capacity: self.capacity,
            });
        }
        self.locked.insert(key.to_string());
        Ok(())
    }

    /// Completes a write started with [`BoundedStateDb::begin_write`].
    ///
    /// # Panics
    ///
    /// Panics if the key was not locked — that is a protocol bug in the
    /// caller, not a runtime condition.
    pub fn finish_write(&mut self, key: &str, value: Vec<u8>, version: Height) {
        assert!(
            self.locked.remove(key),
            "finish_write without begin_write: {key}"
        );
        self.stats.writes += 1;
        self.map
            .insert(key.to_string(), VersionedValue { value, version });
    }

    /// Convenience: locked write in one call.
    ///
    /// # Errors
    ///
    /// Same as [`BoundedStateDb::begin_write`].
    pub fn put(
        &mut self,
        key: &str,
        value: Vec<u8>,
        version: Height,
    ) -> Result<(), BoundedDbError> {
        self.begin_write(key)?;
        self.finish_write(key, value, version);
        Ok(())
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StateDbStats {
        self.stats
    }
}

impl Default for BoundedStateDb {
    fn default() -> Self {
        BoundedStateDb::new(HW_DB_DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_capacity_enforced() {
        let mut db = BoundedStateDb::new(2);
        db.put("a", vec![1], Height::new(1, 0)).unwrap();
        db.put("b", vec![2], Height::new(1, 1)).unwrap();
        assert_eq!(
            db.put("c", vec![3], Height::new(1, 2)),
            Err(BoundedDbError::Full { capacity: 2 })
        );
        // overwriting an existing key is fine at capacity
        db.put("a", vec![9], Height::new(2, 0)).unwrap();
        assert_eq!(db.get("a").unwrap().unwrap().value, vec![9]);
    }

    #[test]
    fn bounded_lock_blocks_reads() {
        let mut db = BoundedStateDb::new(8);
        db.put("k", vec![1], Height::new(1, 0)).unwrap();
        db.begin_write("k").unwrap();
        assert_eq!(db.get("k"), Err(BoundedDbError::Locked));
        assert_eq!(db.begin_write("k"), Err(BoundedDbError::Locked));
        db.finish_write("k", vec![2], Height::new(2, 0));
        assert_eq!(db.get("k").unwrap().unwrap().value, vec![2]);
    }

    #[test]
    #[should_panic(expected = "finish_write without begin_write")]
    fn bounded_finish_without_begin_panics() {
        let mut db = BoundedStateDb::new(8);
        db.finish_write("k", vec![1], Height::new(1, 0));
    }

    #[test]
    fn bounded_locked_slots_count_toward_capacity() {
        let mut db = BoundedStateDb::new(1);
        db.begin_write("a").unwrap();
        assert_eq!(
            db.begin_write("b"),
            Err(BoundedDbError::Full { capacity: 1 })
        );
        db.finish_write("a", vec![1], Height::new(1, 0));
    }

    #[test]
    fn default_capacity_matches_paper() {
        let db = BoundedStateDb::default();
        assert_eq!(db.capacity(), 8192);
    }
}
