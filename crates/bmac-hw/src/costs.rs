//! Calibrated cost constants for the software validator model.
//!
//! The paper's environment (Fabric v1.4 in Go on 2.2 GHz Xeon vCPUs) is
//! reproduced as a cost model. Every constant below is derived from
//! numbers the paper itself reports; the derivations are spelled out so
//! the calibration is auditable, and the bench crate's `fig*` binaries
//! check the resulting figure shapes against the paper (`cargo test`
//! runs them all through `crates/bench/tests/figures.rs`).
//!
//! Derivations (paper references):
//!
//! * **ECDSA verify + hash ≈ 190 µs/verification.** Figure 12a: with 8
//!   vCPUs and 150-tx blocks, "evaluation of one more endorsement takes
//!   about 5 ms" per block → `150/8 × t_v ≈ 3.5–5 ms` → `t_v ≈
//!   190–260 µs`. Jointly fit with Figure 11's weak scaling (3,900 →
//!   5,600 tps from 4 → 16 vCPUs at block 250), which requires a serial
//!   per-transaction overhead, yielding `t_v = 190 µs` split 150 µs
//!   ECDSA + 40 µs SHA-256 (matching Figure 3a's ~40%/~10% profile
//!   shares).
//! * **Serial vscc overhead ≈ 70 µs/tx.** The residual that reproduces
//!   the paper's 1.5× throughput scaling from 4 to 16 vCPUs (Amdahl
//!   fraction of the Go validator loop: dispatch, per-tx unmarshal
//!   inside vscc, policy machinery). Also consistent with Figure 12a's
//!   "fixed cost of policy evaluation is quite high (∼13 ms)" per
//!   150-tx block.
//! * **Unmarshal ≈ 36 µs/tx + 3 µs/KB.** Figure 10: block data parse
//!   and retrieval improved "∼40× to less than 0.2 ms" for a 200-tx
//!   block → software unmarshal ≈ 8 ms ≈ 40 µs/tx; "unmarshaling
//!   accounts for ∼17% of validation latency".
//! * **State DB read 8 µs / write 10 µs.** Keeps statedb at 10–20% of
//!   validation latency (Figure 3b) for smallbank's 2-read/2-write
//!   transactions.
//! * **Ledger commit 3 ms + 10 µs/KB.** Figure 3b: ledger commit is
//!   I/O-bound, takes longer than state DB access, grows with block
//!   size; excluded from throughput metrics like the paper (§4.2). The
//!   hardware model's serialized-commit ablation charges the same fixed
//!   part (`HwModelConfig::new`).
//! * **Policy sub-expression visit ≈ 85 µs.** Figure 12b: the complex
//!   OR-of-ANDs policy drops the software peer to ~2,700 tps because
//!   "Fabric implementation evaluates all sub-expressions of a policy
//!   sequentially"; 85 µs per extra visit reproduces that drop.

use fabric_sim::{SimTime, MICROS, MILLIS};

/// Cost constants for the software validator peer.
#[derive(Debug, Clone, Copy)]
pub struct SwCosts {
    /// ECDSA P-256 verification on one vCPU.
    pub ecdsa_verify: SimTime,
    /// SHA-256 + data marshaling feeding one verification.
    pub hash_per_verify: SimTime,
    /// Serial per-transaction validator overhead (not parallelized).
    pub vscc_overhead_per_tx: SimTime,
    /// Per-transaction unmarshal cost (fixed part).
    pub unmarshal_per_tx: SimTime,
    /// Per-KB unmarshal cost.
    pub unmarshal_per_kb: SimTime,
    /// One state DB read.
    pub statedb_read: SimTime,
    /// One state DB write.
    pub statedb_write: SimTime,
    /// MVCC version comparison per transaction.
    pub mvcc_compare_per_tx: SimTime,
    /// Fixed ledger-commit cost per block.
    pub ledger_commit_fixed: SimTime,
    /// Ledger-commit cost per KB of block.
    pub ledger_commit_per_kb: SimTime,
    /// Extra cost per policy sub-expression visit beyond the native
    /// k-of-n path.
    pub policy_visit: SimTime,
    /// Per-block fixed cost of receiving + scheduling (gossip handoff).
    pub block_fixed: SimTime,
    /// One sharded-LRU signature-cache probe (hash of the
    /// key‖digest‖signature triple plus a locked map lookup). Only the
    /// cache-aware model variants use this; the calibrated baseline
    /// matches the paper's cacheless Fabric v1.4.
    pub sig_cache_lookup: SimTime,
}

impl Default for SwCosts {
    fn default() -> Self {
        SwCosts {
            ecdsa_verify: 150 * MICROS,
            hash_per_verify: 40 * MICROS,
            vscc_overhead_per_tx: 70 * MICROS,
            unmarshal_per_tx: 36 * MICROS,
            unmarshal_per_kb: 3 * MICROS,
            statedb_read: 8 * MICROS,
            statedb_write: 10 * MICROS,
            mvcc_compare_per_tx: 2 * MICROS,
            ledger_commit_fixed: 3 * MILLIS,
            ledger_commit_per_kb: 10 * MICROS,
            policy_visit: 85 * MICROS,
            block_fixed: 100 * MICROS,
            sig_cache_lookup: 2 * MICROS,
        }
    }
}

impl SwCosts {
    /// Cost of one signature verification (ECDSA + hashing).
    pub fn verify(&self) -> SimTime {
        self.ecdsa_verify + self.hash_per_verify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documented_derivations() {
        let c = SwCosts::default();
        assert_eq!(c.verify(), 190 * MICROS);
        // Marginal endorsement cost per 150-tx block at 8 vCPUs lands in
        // the paper's "about 5 ms" neighbourhood.
        let marginal = 150 * c.verify() / 8;
        assert!((3_000..6_000).contains(&(marginal / MICROS)), "{marginal}");
        // Unmarshal for a 200-tx block ≈ 8 ms (Figure 10), assuming
        // ~3.5 KB/tx envelopes.
        let unm = 200 * c.unmarshal_per_tx + 700 * c.unmarshal_per_kb;
        assert!((7_000..10_000).contains(&(unm / MICROS)), "{unm}");
    }
}
