//! Calibrated performance model of the software validator peer.
//!
//! Computes the per-stage latency breakdown of Figure 3b / Figure 10 and
//! the commit throughput of Figure 11 for any [`BlockShape`],
//! using the [`SwCosts`] constants derived from the paper. The model's
//! structure mirrors Fabric v1.4's validator: unmarshal and MVCC/commit
//! are sequential, verify+vscc fans out over a bounded worker pool, and
//! consecutive blocks do not overlap ("mvcc and commit operations are
//! executed sequentially without any pipelining", §4.3).

use fabric_sim::{throughput_per_sec, ServerPool, SimTime};

use crate::costs::SwCosts;
use crate::shape::BlockShape;

/// Per-stage latency breakdown for one block (software peer).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwBreakdown {
    /// Unmarshal / block+tx data retrieval.
    pub unmarshal: SimTime,
    /// Orderer signature verification.
    pub block_verify: SimTime,
    /// Parallel verify + vscc makespan (including the serial dispatch
    /// overhead).
    pub verify_vscc: SimTime,
    /// Sequential MVCC re-reads and comparisons.
    pub mvcc: SimTime,
    /// State DB write-back of valid transactions.
    pub statedb_commit: SimTime,
    /// Ledger commit (reported but excluded from throughput, §4.2).
    pub ledger: SimTime,
}

impl SwBreakdown {
    /// Block validation latency excluding ledger commit.
    pub fn total_excl_ledger(&self) -> SimTime {
        self.unmarshal + self.block_verify + self.verify_vscc + self.mvcc + self.statedb_commit
    }

    /// Commit throughput implied for a stream of identical blocks.
    pub fn throughput_tps(&self, num_txs: usize) -> f64 {
        throughput_per_sec(num_txs as u64, self.total_excl_ledger())
    }
}

/// CPU-time attribution by operation category (Figure 3a's profile).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuProfile {
    /// ECDSA verification time.
    pub ecdsa: SimTime,
    /// SHA-256 hashing time.
    pub sha256: SimTime,
    /// Protobuf unmarshaling time.
    pub unmarshal: SimTime,
    /// State database access time.
    pub statedb: SimTime,
    /// Ledger (block store) time.
    pub ledger: SimTime,
    /// Everything else: validator loop, policy evaluation, gossip/grpc.
    pub other: SimTime,
}

impl CpuProfile {
    /// Total attributed CPU time.
    pub fn total(&self) -> SimTime {
        self.ecdsa + self.sha256 + self.unmarshal + self.statedb + self.ledger + self.other
    }

    /// Share of a category in the total, in percent.
    pub fn share(&self, category: SimTime) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        category as f64 * 100.0 / self.total() as f64
    }
}

/// The software validator performance model.
#[derive(Debug, Clone)]
pub struct SwValidatorModel {
    costs: SwCosts,
    workers: usize,
}

impl SwValidatorModel {
    /// Creates a model with `workers` vCPUs/vscc threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        Self::with_costs(workers, SwCosts::default())
    }

    /// Creates a model with explicit cost constants.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_costs(workers: usize, costs: SwCosts) -> Self {
        assert!(workers > 0, "at least one worker");
        SwValidatorModel { costs, workers }
    }

    /// Number of modeled vCPUs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The cost constants in use.
    pub fn costs(&self) -> &SwCosts {
        &self.costs
    }

    /// Computes the stage breakdown for one block.
    pub fn validate_block(&self, p: &BlockShape) -> SwBreakdown {
        let c = &self.costs;
        let kb = p.block_bytes() as u64 / 1024;
        let unmarshal =
            c.block_fixed + p.num_txs as u64 * c.unmarshal_per_tx + kb * c.unmarshal_per_kb;
        let block_verify = c.verify();

        let verify_vscc = self.vscc_stage(p, c.verify());

        let mvcc =
            p.num_txs as u64 * (p.reads_per_tx as u64 * c.statedb_read + c.mvcc_compare_per_tx);
        let statedb_commit = p.num_txs as u64 * p.writes_per_tx as u64 * c.statedb_write;
        let ledger = c.ledger_commit_fixed + kb * c.ledger_commit_per_kb;

        SwBreakdown {
            unmarshal,
            block_verify,
            verify_vscc,
            mvcc,
            statedb_commit,
            ledger,
        }
    }

    /// Computes the stage breakdown for one block when the validator
    /// runs the signature cache at a given hit rate (fraction of
    /// verification tasks answered without ECDSA, in `[0, 1]`).
    ///
    /// The calibrated baseline ([`Self::validate_block`]) deliberately
    /// models the paper's cacheless Fabric v1.4; this variant quantifies
    /// what the pipeline's dedup layer recovers on redundant traffic —
    /// each cached task costs one [`SwCosts::sig_cache_lookup`] instead
    /// of a full [`SwCosts::verify`].
    ///
    /// # Panics
    ///
    /// Panics if `hit_rate` is outside `[0, 1]`.
    pub fn validate_block_cached(&self, p: &BlockShape, hit_rate: f64) -> SwBreakdown {
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "hit rate must be in [0, 1]"
        );
        let c = &self.costs;
        let mut b = self.validate_block(p);
        let check = (hit_rate * c.sig_cache_lookup as f64 + (1.0 - hit_rate) * c.verify() as f64)
            .round() as SimTime;
        b.verify_vscc = self.vscc_stage(p, check);
        // The orderer check is one more cached-or-verified signature.
        b.block_verify = check;
        b
    }

    /// The verify+vscc stage cost given the cost of one signature
    /// check: each tx carries (1 client + E endorsements) checks plus
    /// any extra policy-evaluation visits, fanned out over the worker
    /// pool, plus the serial per-tx dispatch overhead. Software
    /// verifies ALL endorsements regardless of the policy. Shared by
    /// the baseline and cache-aware models so their cost structure
    /// cannot drift apart.
    fn vscc_stage(&self, p: &BlockShape, check: SimTime) -> SimTime {
        let c = &self.costs;
        let per_tx_parallel = (1 + p.endorsements_per_tx) as u64 * check
            + p.policy_extra_visits as u64 * c.policy_visit;
        let mut pool = ServerPool::new(self.workers);
        let mut makespan = 0;
        for _ in 0..p.num_txs {
            let (_, finish) = pool.run(0, per_tx_parallel);
            makespan = makespan.max(finish);
        }
        p.num_txs as u64 * c.vscc_overhead_per_tx + makespan
    }

    /// Makespan of a *stream* of `num_blocks` identical blocks through
    /// the pipelined validator: `lanes` concurrent verify servers feed a
    /// single in-order commit sequencer, so verification of block N+1
    /// overlaps MVCC/commit of block N (the paper's Figure 2b stage
    /// overlap). The serial reference is
    /// `num_blocks × (validate_block total + ledger)`; for any
    /// `num_blocks ≥ 2` the stream makespan is strictly smaller. This is
    /// the hardware-independent view of the streaming validator's
    /// scaling — wall-clock overlap on a 1-vCPU CI host is bounded by
    /// the host, not the architecture.
    pub fn stream_makespan(&self, p: &BlockShape, num_blocks: usize, lanes: usize) -> SimTime {
        let b = self.validate_block(p);
        let verify = b.unmarshal + b.block_verify + b.verify_vscc;
        let commit = b.mvcc + b.statedb_commit + b.ledger;
        let mut pool = ServerPool::new(lanes.max(1));
        let mut commit_free: SimTime = 0;
        for _ in 0..num_blocks {
            // All blocks are assumed queued at t=0 (a saturated stream).
            let (_, verified_at) = pool.run(0, verify);
            let start = verified_at.max(commit_free);
            commit_free = start + commit;
        }
        commit_free
    }

    /// The serial (one block at a time) reference cost for the same
    /// stream: `num_blocks` × the full per-block latency including the
    /// ledger append the stream also pays.
    pub fn serial_stream_cost(&self, p: &BlockShape, num_blocks: usize) -> SimTime {
        let b = self.validate_block(p);
        num_blocks as u64 * (b.total_excl_ledger() + b.ledger)
    }

    /// CPU-time attribution for one block (drives Figure 3a).
    pub fn cpu_profile(&self, p: &BlockShape) -> CpuProfile {
        let c = &self.costs;
        let verifies = p.num_txs as u64 * (1 + p.endorsements_per_tx) as u64 + 1;
        let kb = p.block_bytes() as u64 / 1024;
        let b = self.validate_block(p);
        // The per-tx vscc overhead is dominated by protobuf work inside
        // vscc (Fabric re-unmarshals the transaction to evaluate the
        // policy), so Go's profiler attributes it to unmarshaling.
        let unmarshal_cpu = b.unmarshal + p.num_txs as u64 * c.vscc_overhead_per_tx;
        // Gossip/grpc receive + scheduling overhead estimated at ~25% of
        // the accounted CPU, consistent with Figure 3a where
        // ecdsa+sha+unmarshal+statedb together account for ~70-80%.
        let accounted = verifies * c.ecdsa_verify
            + verifies * c.hash_per_verify
            + unmarshal_cpu
            + b.mvcc
            + b.statedb_commit
            + b.ledger
            + p.num_txs as u64 * p.policy_extra_visits as u64 * c.policy_visit;
        let gossip_grpc = accounted * 25 / 100 + kb * fabric_sim::MICROS / 2;
        CpuProfile {
            ecdsa: verifies * c.ecdsa_verify,
            sha256: verifies * c.hash_per_verify,
            unmarshal: unmarshal_cpu,
            statedb: b.mvcc + b.statedb_commit,
            ledger: b.ledger,
            other: p.num_txs as u64 * p.policy_extra_visits as u64 * c.policy_visit + gossip_grpc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::MILLIS;

    #[test]
    fn fig11_shape_sw_scaling_is_weak() {
        // Paper: block 250, 4 -> 16 vCPUs gives only ~1.5x (3,900 ->
        // 5,600 tps).
        let p = BlockShape::smallbank(250);
        let t4 = SwValidatorModel::new(4)
            .validate_block(&p)
            .throughput_tps(250);
        let t16 = SwValidatorModel::new(16)
            .validate_block(&p)
            .throughput_tps(250);
        let scaling = t16 / t4;
        assert!(t4 > 2_800.0 && t4 < 4_500.0, "4 vCPU tps {t4}");
        assert!(t16 > 4_800.0 && t16 < 6_500.0, "16 vCPU tps {t16}");
        assert!(scaling > 1.3 && scaling < 1.9, "scaling {scaling}");
    }

    #[test]
    fn cached_model_reduces_to_baseline_at_zero_hit_rate() {
        let p = BlockShape::smallbank(100);
        let m = SwValidatorModel::new(4);
        let base = m.validate_block(&p);
        let cached = m.validate_block_cached(&p, 0.0);
        assert_eq!(base.verify_vscc, cached.verify_vscc);
        assert_eq!(base.block_verify, cached.block_verify);
    }

    #[test]
    fn cached_model_scales_with_hit_rate() {
        let p = BlockShape::smallbank(100);
        let m = SwValidatorModel::new(4);
        let cold = m.validate_block_cached(&p, 0.0);
        let warm = m.validate_block_cached(&p, 0.9);
        let hot = m.validate_block_cached(&p, 1.0);
        assert!(warm.verify_vscc < cold.verify_vscc);
        assert!(hot.verify_vscc < warm.verify_vscc);
        // At full hit rate only cache probes + serial overhead remain.
        let c = m.costs();
        let floor = 100 * c.vscc_overhead_per_tx;
        assert!(hot.verify_vscc >= floor);
        assert!(hot.verify_vscc < floor + 100 * c.verify());
    }

    #[test]
    fn fig10_shape_block200_breakdown() {
        // Paper: block 200, 8 vCPUs: unmarshal ~8 ms, block validation
        // (excl unmarshal) ~35.9 ms.
        let p = BlockShape::smallbank(200);
        let b = SwValidatorModel::new(8).validate_block(&p);
        let unm_ms = b.unmarshal as f64 / MILLIS as f64;
        let validation_ms = (b.total_excl_ledger() - b.unmarshal) as f64 / MILLIS as f64;
        assert!((6.0..10.5).contains(&unm_ms), "unmarshal {unm_ms} ms");
        assert!(
            (30.0..42.0).contains(&validation_ms),
            "validation {validation_ms} ms"
        );
    }

    #[test]
    fn throughput_grows_with_block_size() {
        let model = SwValidatorModel::new(8);
        let t50 = model
            .validate_block(&BlockShape::smallbank(50))
            .throughput_tps(50);
        let t250 = model
            .validate_block(&BlockShape::smallbank(250))
            .throughput_tps(250);
        assert!(t250 > t50, "amortization: {t50} -> {t250}");
    }

    #[test]
    fn endorsements_reduce_throughput_linearly() {
        // Figure 12a: throughput decreases almost linearly with the
        // number of endorsements; 2of3 == 3of3 for software.
        let model = SwValidatorModel::new(8);
        let mut p = BlockShape::smallbank(150);
        p.endorsements_per_tx = 1;
        let t1 = model.validate_block(&p).throughput_tps(150);
        p.endorsements_per_tx = 2;
        let t2 = model.validate_block(&p).throughput_tps(150);
        p.endorsements_per_tx = 3;
        let t3 = model.validate_block(&p).throughput_tps(150);
        assert!(t1 > t2 && t2 > t3);
        // 2of3 vs 3of3: same endorsement count -> identical time.
        let mut p2of3 = p;
        p2of3.needed_endorsements = 2;
        assert_eq!(
            model.validate_block(&p).total_excl_ledger(),
            model.validate_block(&p2of3).total_excl_ledger()
        );
    }

    #[test]
    fn complex_policy_slows_software_peer() {
        // Figure 12b: the OR-of-ANDs policy drops software to ~2,700 tps.
        let model = SwValidatorModel::new(8);
        let mut simple = BlockShape::smallbank(150);
        simple.endorsements_per_tx = 4;
        simple.needed_endorsements = 2;
        let mut complex = simple;
        complex.policy_extra_visits = 11;
        let t_simple = model.validate_block(&simple).throughput_tps(150);
        let t_complex = model.validate_block(&complex).throughput_tps(150);
        assert!(t_complex < t_simple);
        assert!(
            (2_200.0..3_200.0).contains(&t_complex),
            "complex {t_complex}"
        );
    }

    #[test]
    fn stream_makespan_shows_stage_overlap() {
        let p = BlockShape::smallbank(100);
        let m = SwValidatorModel::new(4);
        let serial = m.serial_stream_cost(&p, 8);
        let one_lane = m.stream_makespan(&p, 8, 1);
        let two_lanes = m.stream_makespan(&p, 8, 2);
        // Even a single verify lane overlaps verify(N+1) with commit(N).
        assert!(one_lane < serial, "one lane {one_lane} vs serial {serial}");
        // More lanes can only help (verify is the long stage here).
        assert!(two_lanes <= one_lane);
        // A one-block stream degenerates to the serial latency.
        assert_eq!(m.stream_makespan(&p, 1, 2), m.serial_stream_cost(&p, 1));
        // The pipeline bound: makespan can never beat the serial commit
        // chain (commit is strictly in-order).
        let b = m.validate_block(&p);
        assert!(two_lanes >= 8 * (b.mvcc + b.statedb_commit + b.ledger));
    }

    #[test]
    fn drm_faster_than_smallbank_for_software() {
        // Figure 13: drm has fewer db accesses -> faster mvcc/commit.
        let model = SwValidatorModel::new(8);
        let t_small = model
            .validate_block(&BlockShape::smallbank(150))
            .throughput_tps(150);
        let t_drm = model
            .validate_block(&BlockShape::drm(150))
            .throughput_tps(150);
        assert!(t_drm > t_small);
    }
}
