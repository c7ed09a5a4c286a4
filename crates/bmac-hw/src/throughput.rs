//! Closed-form steady-state performance model of the block_processor.
//!
//! This is the reproduction of the paper's own "high-level simulator for
//! BMac architecture" (§4.1), used for the paper-scale sweeps in the
//! figure harness and for geometries beyond what the detailed per-block
//! simulation needs. The detailed simulator in [`crate::processor`] and
//! this model agree on block latency (see the cross-check test in the
//! integration suite).
//!
//! Model (validated against every BMac number the paper reports):
//!
//! * Each tx_validator is a 2-stage pipe: tx_verify (1 engine, 360 µs)
//!   feeding tx_vscc (`E` engines). A transaction needs
//!   `rounds = ceil(needed / E)` sequential engine waves in tx_vscc,
//!   where `needed` is the number of endorsement verifications actually
//!   issued — `min_satisfying` of the policy under short-circuit
//!   evaluation (§3.3), or all endorsements without it.
//! * Per-validator issue interval: `max(t_verify, rounds × t_engine)`.
//! * Block latency = block_verify + pipeline fill + steady drain +
//!   mvcc/commit tail (hidden under vscc latency unless database work
//!   exceeds the engine time — the Figure 12c observation).

use fabric_sim::{throughput_per_sec, SimTime};

use crate::costs::SwCosts;
use crate::resources::Geometry;
use crate::shape::BlockShape;
use crate::timing::{
    protocol_processing_time, ECDSA_ENGINE_LATENCY, HW_DB_ACCESS, MVCC_FIXED, PACKET_LATENCY,
    RESULT_PUBLISH,
};

/// Ablation/configuration switches of the hardware model.
#[derive(Debug, Clone, Copy)]
pub struct HwModelConfig {
    /// Architecture geometry.
    pub geometry: Geometry,
    /// Short-circuit endorsement evaluation (§3.3). Disabling verifies
    /// all endorsements like software (ablation 1 of the `ablations` bin).
    pub short_circuit: bool,
    /// Overlap hardware validation of block n+1 with software ledger
    /// commit of block n (§3.1). Disabling serializes them.
    pub overlap_commit: bool,
    /// Software-side ledger commit time per block (only matters when
    /// `overlap_commit` is false); the software model's fixed
    /// [`SwCosts::ledger_commit_fixed`] by default.
    pub ledger_commit: SimTime,
}

impl HwModelConfig {
    /// The paper's default configuration for a geometry.
    pub fn new(geometry: Geometry) -> Self {
        HwModelConfig {
            geometry,
            short_circuit: true,
            overlap_commit: true,
            ledger_commit: SwCosts::default().ledger_commit_fixed,
        }
    }
}

/// Latency breakdown of one block through the hardware.
#[derive(Debug, Clone, Copy)]
pub struct HwBreakdown {
    /// protocol_processor time for the block's sections (overlapped with
    /// arrival; reported for Figure 10's "<0.2 ms" comparison).
    pub protocol: SimTime,
    /// block_verify stage.
    pub block_verify: SimTime,
    /// tx_verify + tx_vscc drain (the dominant term).
    pub validate: SimTime,
    /// mvcc/commit tail beyond the vscc drain (usually ~0: hidden).
    pub mvcc_tail: SimTime,
    /// Total block validation latency (block_verify + validate + tail +
    /// result publication).
    pub total: SimTime,
    /// Endorsement verifications issued per transaction (shows the
    /// short-circuit effect).
    pub verifications_per_tx: usize,
}

impl HwBreakdown {
    /// Steady-state commit throughput for a stream of such blocks.
    pub fn throughput_tps(&self, num_txs: usize, config: &HwModelConfig) -> f64 {
        let mut period = self.total;
        if !config.overlap_commit {
            period += config.ledger_commit;
        }
        throughput_per_sec(num_txs as u64, period)
    }
}

/// Computes the hardware latency breakdown for one block shape.
pub fn validate_block(config: &HwModelConfig, w: &BlockShape) -> HwBreakdown {
    let t = ECDSA_ENGINE_LATENCY;
    let v = config.geometry.tx_validators.max(1);
    let e = config.geometry.engines_per_vscc.max(1);
    // Endorsements actually verified per tx.
    let issued = if config.short_circuit {
        w.needed_endorsements.min(w.endorsements_per_tx)
    } else {
        w.endorsements_per_tx
    };
    // Sequential engine waves in tx_vscc.
    let rounds = issued.div_ceil(e).max(1);
    // Per-validator issue interval: the slower of the two pipe stages.
    let interval = t.max(rounds as u64 * t);
    // Transactions per validator (max over validators).
    let per_validator = w.num_txs.div_ceil(v);
    // Drain: first tx leaves vscc after verify + vscc; subsequent txs at
    // `interval` spacing on each validator.
    let validate = t + rounds as u64 * t + (per_validator.saturating_sub(1)) as u64 * interval;
    // mvcc/commit: sequential per tx; hidden while shorter than the
    // inter-completion gap (Figure 12c).
    let db_per_tx = MVCC_FIXED + (w.reads_per_tx + w.writes_per_tx) as u64 * HW_DB_ACCESS;
    let completion_gap = interval / v.min(w.num_txs.max(1)) as u64;
    let mvcc_tail = if db_per_tx > completion_gap {
        (db_per_tx - completion_gap) * w.num_txs as u64
    } else {
        db_per_tx // only the last transaction's commit peeks out
    };
    // Cut-through protocol processing: the block's sections stream at
    // the 11 Gbps line rate; per-packet latencies overlap.
    let protocol = protocol_processing_time(w.num_txs * w.tx_section_bytes + 1024) + PACKET_LATENCY;
    let block_verify = t;
    let total = block_verify + validate + mvcc_tail + RESULT_PUBLISH;
    HwBreakdown {
        protocol,
        block_verify,
        validate,
        mvcc_tail,
        total,
        verifications_per_tx: issued + 1, // + client signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::{as_millis, MILLIS};

    fn tput(v: usize, e: usize, w: BlockShape) -> f64 {
        let config = HwModelConfig::new(Geometry::new(v, e));
        validate_block(&config, &w).throughput_tps(w.num_txs, &config)
    }

    #[test]
    fn fig11_bmac_block250_4_to_16_validators() {
        // Paper: 10,700 tps (4 validators) -> 38,400 tps (16 validators).
        let t4 = tput(4, 2, BlockShape::smallbank(250));
        let t16 = tput(16, 2, BlockShape::smallbank(250));
        assert!(
            (t4 - 10_700.0).abs() / 10_700.0 < 0.05,
            "4 validators: {t4}"
        );
        assert!(
            (t16 - 38_400.0).abs() / 38_400.0 < 0.08,
            "16 validators: {t16}"
        );
        // "throughput of BMac peer increases by 3.6x with 4 to 16".
        let scaling = t16 / t4;
        assert!((3.2..4.0).contains(&scaling), "scaling {scaling}");
    }

    #[test]
    fn peak_throughput_matches_68900() {
        // Paper: "up to 68,900 tps with block latency of 3.63ms"
        // (32 validators, block 250 reproduce both numbers).
        let config = HwModelConfig::new(Geometry::new(32, 2));
        let b = validate_block(&config, &BlockShape::smallbank(250));
        let lat_ms = as_millis(b.total);
        let tps = b.throughput_tps(250, &config);
        assert!((3.3..3.9).contains(&lat_ms), "latency {lat_ms} ms");
        assert!((tps - 68_900.0).abs() / 68_900.0 < 0.05, "tps {tps}");
    }

    #[test]
    fn projection_100k_and_150k() {
        // §4.3: ~100,000 tps at 50 validators/block 250; ~150,000 tps at
        // 80 validators/block 500.
        let t50 = tput(50, 2, BlockShape::smallbank(250));
        let t80 = tput(80, 2, BlockShape::smallbank(500));
        assert!(
            (t50 - 100_000.0).abs() / 100_000.0 < 0.05,
            "50 validators {t50}"
        );
        assert!(
            (t80 - 150_000.0).abs() / 150_000.0 < 0.05,
            "80 validators {t80}"
        );
    }

    #[test]
    fn fig10_block200_8validators_latency() {
        // Paper: block validation improved to 9.7 ms.
        let config = HwModelConfig::new(Geometry::new(8, 2));
        let b = validate_block(&config, &BlockShape::smallbank(200));
        let ms = as_millis(b.total);
        assert!((9.2..10.2).contains(&ms), "block 200 latency {ms} ms");
    }

    #[test]
    fn fig12a_short_circuit_2of3_vs_3of3() {
        // Paper: 19,800 tps with 2of3 vs 10,400 tps with 3of3 (8x2,
        // block 150).
        let mut w = BlockShape::smallbank(150);
        w.endorsements_per_tx = 3;
        w.needed_endorsements = 2; // 2of3
        let t_2of3 = tput(8, 2, w);
        w.needed_endorsements = 3; // 3of3
        let t_3of3 = tput(8, 2, w);
        assert!((t_2of3 - 19_800.0).abs() / 19_800.0 < 0.06, "2of3 {t_2of3}");
        assert!((t_3of3 - 10_400.0).abs() / 10_400.0 < 0.06, "3of3 {t_3of3}");
    }

    #[test]
    fn fig12b_geometry_tradeoff() {
        // Paper: 8x2 beats 5x3 by ~52% on 2of3; 5x3 beats 8x2 by ~25% on
        // 3of3.
        let mut w = BlockShape::smallbank(150);
        w.endorsements_per_tx = 3;
        w.needed_endorsements = 2;
        let r_2of3 = tput(8, 2, w) / tput(5, 3, w);
        assert!((1.4..1.65).contains(&r_2of3), "8x2/5x3 on 2of3 = {r_2of3}");
        w.needed_endorsements = 3;
        let r_3of3 = tput(5, 3, w) / tput(8, 2, w);
        assert!((1.15..1.4).contains(&r_3of3), "5x3/8x2 on 3of3 = {r_3of3}");
    }

    #[test]
    fn fig12c_database_work_is_hidden() {
        // Paper: BMac throughput unchanged as rw set grows (hidden by
        // tx_vscc latency).
        let base = tput(8, 2, BlockShape::smallbank(150));
        let mut heavy = BlockShape::smallbank(150);
        heavy.reads_per_tx = 8;
        heavy.writes_per_tx = 8;
        let t_heavy = tput(8, 2, heavy);
        assert!(
            (base - t_heavy).abs() / base < 0.02,
            "db work visible: {base} vs {t_heavy}"
        );
    }

    #[test]
    fn short_circuit_ablation_doubles_vscc_rounds() {
        let mut config = HwModelConfig::new(Geometry::new(8, 2));
        let mut w = BlockShape::smallbank(150);
        w.endorsements_per_tx = 3;
        w.needed_endorsements = 2;
        let with_sc = validate_block(&config, &w);
        config.short_circuit = false;
        let without = validate_block(&config, &w);
        assert!(without.total > with_sc.total);
        assert_eq!(with_sc.verifications_per_tx, 3); // client + 2
        assert_eq!(without.verifications_per_tx, 4); // client + all 3
    }

    #[test]
    fn overlap_ablation_adds_ledger_commit() {
        let mut config = HwModelConfig::new(Geometry::new(8, 2));
        config.ledger_commit = 5 * MILLIS;
        let w = BlockShape::smallbank(150);
        let overlapped = validate_block(&config, &w).throughput_tps(150, &config);
        config.overlap_commit = false;
        let serialized = validate_block(&config, &w).throughput_tps(150, &config);
        assert!(overlapped > serialized * 1.3);
    }

    #[test]
    fn fig13_drm_equals_smallbank_for_hardware() {
        // "throughput of BMac peer is very similar to smallbank because
        // its dominated by vscc latency".
        let s = tput(8, 2, BlockShape::smallbank(150));
        let d = tput(8, 2, BlockShape::drm(150));
        assert!((s - d).abs() / s < 0.02);
    }
}
