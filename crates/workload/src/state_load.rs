//! State-database load scenarios: bulk preload to realistic population
//! sizes and Zipf-contended commit traffic.
//!
//! The stream scenarios in [`crate::stream_gen`] exercise the whole
//! validation pipeline but cap out at harness-scale state (tens of
//! accounts). The accelerator question ROADMAP item 3 asks — does the
//! software commit stage keep up once verification is off the critical
//! path? — needs the state database itself under load: millions of
//! keys resident ([`StatePreload`]) and skewed write traffic hammering
//! a hot set while readers pin snapshots ([`ZipfCommitLoad`]). Both
//! produce plain `(WriteBatch, Height)` streams, so the `statedb`
//! benchmark section and the equivalence tests feed the same traffic to
//! a [`fabric_statedb::StateDb`] and to its reference.

use fabric_statedb::{Height, StateDb, WriteBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrivals::ZipfSampler;

/// Bulk key preload: `keys` accounts with fixed-width zero-padded names
/// (`acct0000000042`-style, so range scans by prefix are meaningful),
/// loaded in `batch_size`-key batches at consecutive heights starting
/// at block 0.
#[derive(Debug, Clone, Copy)]
pub struct StatePreload {
    /// Total keys to load.
    pub keys: u64,
    /// Bytes per value (deterministic contents derived from the key
    /// index).
    pub value_len: usize,
    /// Keys per [`WriteBatch`] (one batch = one commit height).
    pub batch_size: u64,
}

impl Default for StatePreload {
    fn default() -> Self {
        StatePreload {
            keys: 1_000_000,
            value_len: 8,
            batch_size: 10_000,
        }
    }
}

impl StatePreload {
    /// The canonical key of account index `i` (`0 <= i < keys`).
    pub fn key(i: u64) -> String {
        let mut key = String::new();
        Self::key_into(&mut key, i);
        key
    }

    /// Writes [`StatePreload::key`]`(i)` over `buf`: the generators
    /// reuse one buffer rather than allocate a key a write.
    fn key_into(buf: &mut String, i: u64) -> &str {
        use std::fmt::Write;
        buf.clear();
        write!(buf, "acct{i:010}").expect("writing to a String cannot fail");
        buf
    }

    /// The deterministic value stored for account index `i`.
    pub fn value(&self, i: u64) -> Vec<u8> {
        let mut v = Vec::new();
        self.value_into(&mut v, i);
        v
    }

    /// Writes [`StatePreload::value`]`(i)` over `buf`.
    fn value_into<'b>(&self, buf: &'b mut Vec<u8>, i: u64) -> &'b [u8] {
        buf.clear();
        buf.extend_from_slice(&i.to_le_bytes());
        buf.resize(self.value_len, 0xA5);
        buf
    }

    /// Iterates the preload as `(batch, height)` pairs: batch `b`
    /// commits at `Height(b, 0)`.
    pub fn batches(&self) -> impl Iterator<Item = (WriteBatch, Height)> + '_ {
        let total_batches = self.keys.div_ceil(self.batch_size);
        (0..total_batches).map(move |b| {
            let start = b * self.batch_size;
            let end = (start + self.batch_size).min(self.keys);
            let (mut key, mut value) = (String::new(), Vec::new());
            let mut batch = WriteBatch::new();
            for i in start..end {
                batch.put(Self::key_into(&mut key, i), self.value_into(&mut value, i));
            }
            (batch, Height::new(b, 0))
        })
    }

    /// Loads the full population into `db`, returning the number of
    /// batches applied. The next free block number is the return value
    /// (heights used were `0..batches`).
    pub fn load(&self, db: &StateDb) -> u64 {
        let mut batches = 0;
        for (batch, height) in self.batches() {
            db.apply(&batch, height);
            batches += 1;
        }
        batches
    }
}

/// Zipf-contended commit traffic over a preloaded population:
/// smallbank-shaped transactions (a couple of writes each) whose
/// account ranks draw from [`ZipfSampler`], grouped into blocks of
/// per-transaction batches — the shape
/// [`fabric_statedb::StateDb::apply_block`] consumes.
#[derive(Debug, Clone, Copy)]
pub struct ZipfCommitLoad {
    /// Account population the ranks map into (use
    /// [`StatePreload::keys`] to hit the preloaded keys).
    pub population: u64,
    /// Zipf skew; the paper's Caliper runs and the YCSB convention sit
    /// near 1.0 (higher = hotter hot set).
    pub exponent: f64,
    /// Writes per transaction (smallbank's send-payment touches 2).
    pub writes_per_tx: usize,
    /// Transactions (= batches) per block.
    pub txs_per_block: usize,
    /// Blocks to generate.
    pub blocks: u64,
    /// Block number of the first generated block (follow on from a
    /// preload's last height).
    pub first_block: u64,
    /// RNG seed — same seed, same traffic.
    pub seed: u64,
}

impl Default for ZipfCommitLoad {
    fn default() -> Self {
        ZipfCommitLoad {
            population: 1_000_000,
            exponent: 1.0,
            writes_per_tx: 2,
            txs_per_block: 100,
            blocks: 50,
            first_block: 0,
            seed: 0xB10C_F00D,
        }
    }
}

impl ZipfCommitLoad {
    /// Generates the blocks: each is a vector of per-transaction
    /// `(WriteBatch, Height)` pairs at consecutive tx indices.
    pub fn blocks(&self) -> Vec<Vec<(WriteBatch, Height)>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = ZipfSampler::new(self.population, self.exponent);
        let mut key = String::new();
        (0..self.blocks)
            .map(|b| {
                let block_num = self.first_block + b;
                (0..self.txs_per_block)
                    .map(|tx| {
                        let mut batch = WriteBatch::new();
                        for _ in 0..self.writes_per_tx {
                            let rank = zipf.sample(&mut rng);
                            // Rank 1 = hottest; spread ranks over the key
                            // space deterministically so the hot set isn't
                            // one contiguous run of shard hashes.
                            let i = (rank - 1) % self.population;
                            let mut value = [0; 16];
                            value[..8].copy_from_slice(&block_num.to_le_bytes());
                            value[8..].copy_from_slice(&(tx as u64).to_le_bytes());
                            batch.put(StatePreload::key_into(&mut key, i), value);
                        }
                        (batch, Height::new(block_num, tx as u64))
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_loads_exactly_keys() {
        let p = StatePreload {
            keys: 2_500,
            value_len: 8,
            batch_size: 1_000,
        };
        let db = StateDb::new();
        let batches = p.load(&db);
        assert_eq!(batches, 3);
        assert_eq!(db.len(), 2_500);
        assert_eq!(db.tip_height(), Some(Height::new(2, 0)));
        assert_eq!(db.get(&StatePreload::key(0)).unwrap().value, p.value(0));
        assert_eq!(
            db.get(&StatePreload::key(2_499)).unwrap().value.len(),
            p.value_len
        );
        assert_eq!(db.get(&StatePreload::key(2_500)), None);
    }

    #[test]
    fn zipf_load_is_deterministic_and_contended() {
        let load = ZipfCommitLoad {
            population: 1_000,
            blocks: 10,
            ..ZipfCommitLoad::default()
        };
        let a = load.blocks();
        let b = load.blocks();
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].len(), load.txs_per_block);
        // Determinism: same seed, same traffic.
        let flat = |blocks: &Vec<Vec<(WriteBatch, Height)>>| -> Vec<(String, Height)> {
            blocks
                .iter()
                .flatten()
                .flat_map(|(batch, h)| {
                    batch
                        .iter()
                        .map(|(k, _)| (k.to_string(), *h))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(flat(&a), flat(&b));
        // Contention: the hottest key appears far more often than the
        // uniform expectation.
        let keys = flat(&a);
        let mut counts = std::collections::HashMap::new();
        for (k, _) in &keys {
            *counts.entry(k.clone()).or_insert(0usize) += 1;
        }
        let hottest = counts.values().max().unwrap();
        let uniform = keys.len() / 1_000 + 1;
        assert!(
            *hottest > uniform * 5,
            "zipf(1.0) hot key hit {hottest} times, uniform would be ~{uniform}"
        );
    }
}
