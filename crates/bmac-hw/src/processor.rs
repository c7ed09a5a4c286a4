//! The block_processor: integrated block-level and transaction-level
//! pipeline (paper §3.3, Figure 6).
//!
//! Functional behaviour and timing are simulated together: every ECDSA
//! verification is *actually performed* (with the keys extracted from
//! the identity cache), the endorsement policy is evaluated on the
//! compiled combinational circuit with short-circuit evaluation, and
//! MVCC/commit run against the bounded in-hardware key-value store —
//! while the event clocks advance per the module latencies in
//! [`crate::timing`]. This mirrors how the paper validated functional
//! equivalence (identical valid/invalid flags and commit hash, §4.1)
//! alongside performance.
//!
//! The processor consumes the same [`DecodedBlock`] the software peer
//! validates (the machine decodes each completed block once). The
//! fixed-width `ecdsa_engine` requests of §3.3 are formed here, where
//! the engine is charged: the key selector is the signer certificate's
//! 16-bit node id and the HashCalculator's SHA-256 runs only for a
//! verification that is actually executed.

use std::collections::HashMap;

use fabric_crypto::{sha256, Certificate, Signature, VerifyingKey};
use fabric_ledger::TxValidationCode;
use fabric_policy::circuit::{PolicyStatus, ShortCircuitEvaluator};
use fabric_policy::{Policy, PolicyCircuit};
use fabric_protos::txflow::{DecodedBlock, DecodedTransaction};
use fabric_sim::SimTime;
use fabric_statedb::{BoundedStateDb, Height};

use crate::resources::Geometry;
use crate::timing::{
    ECDSA_ENGINE_LATENCY, HW_DB_ACCESS, MVCC_FIXED, RESULT_PUBLISH, SCHEDULE_LATENCY,
};

/// Configuration of the block_processor. Short-circuit endorsement
/// evaluation and early abort (§3.3) are how the card works, so neither
/// is a setting: a transaction is skipped as soon as it becomes invalid,
/// and a vscc stops issuing verifications once its policy is satisfied.
#[derive(Debug, Clone)]
pub struct ProcessorConfig {
    /// Architecture geometry (tx_validators × engines).
    pub geometry: Geometry,
    /// In-hardware database capacity.
    pub db_capacity: usize,
    /// Number of organizations (register-file width).
    pub num_orgs: usize,
}

impl ProcessorConfig {
    /// A processor of `geometry` for `num_orgs` organizations, with the
    /// paper's 8192-entry database
    /// ([`fabric_statedb::HW_DB_DEFAULT_CAPACITY`]).
    pub fn new(geometry: Geometry, num_orgs: usize) -> Self {
        ProcessorConfig {
            geometry,
            db_capacity: fabric_statedb::HW_DB_DEFAULT_CAPACITY,
            num_orgs,
        }
    }
}

/// Per-block timing statistics collected by the `block_monitor` and
/// exposed through `reg_map` (§3.4: "block statistics").
#[derive(Debug, Clone, Copy, Default)]
pub struct HwBlockStats {
    /// When the block's data was fully available to the processor.
    pub data_ready: SimTime,
    /// block_verify completion.
    pub block_verified: SimTime,
    /// Last tx_vscc completion.
    pub vscc_done: SimTime,
    /// Last tx_mvcc_commit completion.
    pub mvcc_done: SimTime,
    /// Result published to reg_map.
    pub published: SimTime,
    /// ECDSA verifications actually executed.
    pub verifications: u64,
    /// Endorsement verifications skipped by short-circuit evaluation.
    pub skipped_verifications: u64,
    /// In-hardware database reads issued.
    pub db_reads: u64,
    /// In-hardware database writes issued.
    pub db_writes: u64,
}

impl HwBlockStats {
    /// Total in-hardware validation latency for this block.
    pub fn latency(&self) -> SimTime {
        self.published.saturating_sub(self.data_ready)
    }
}

/// The validation result published via `reg_map` (§3.4: "block number,
/// block valid/invalid status, number of transactions in the block,
/// transactions' valid/invalid flags, and block statistics").
#[derive(Debug, Clone)]
pub struct HwBlockResult {
    /// Block number.
    pub block_num: u64,
    /// The block_verify bit: the orderer signature verified.
    pub block_verify: bool,
    /// Per-transaction flags, in order.
    pub flags: Vec<TxValidationCode>,
    /// Timing statistics.
    pub stats: HwBlockStats,
}

impl HwBlockResult {
    /// Number of valid transactions.
    pub fn valid_count(&self) -> usize {
        self.flags.iter().filter(|f| f.is_valid()).count()
    }
}

/// Errors from processing.
#[derive(Debug)]
pub enum ProcessError {
    /// A verification request referenced a key id the processor does not
    /// know (identity cache desync).
    UnknownKey(u16),
    /// The in-hardware database is full.
    DbFull,
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::UnknownKey(id) => write!(f, "no public key for id {id:#06x}"),
            ProcessError::DbFull => write!(f, "in-hardware state database is full"),
        }
    }
}

impl std::error::Error for ProcessError {}

/// The block_processor simulation.
#[derive(Debug)]
pub struct BlockProcessor {
    config: ProcessorConfig,
    circuits: HashMap<String, (Policy, PolicyCircuit)>,
    db: BoundedStateDb,
    // Engine clocks (persist across blocks: the hardware never resets).
    block_verify_free: SimTime,
    validate_free: SimTime,
    verify_free: Vec<SimTime>,
    vscc_free: Vec<SimTime>,
    mvcc_free: SimTime,
    blocks_processed: u64,
}

impl BlockProcessor {
    /// Creates a processor with compiled policy circuits for each
    /// chaincode (the `ends_policy_evaluator` generation of §3.5).
    pub fn new(config: ProcessorConfig, policies: &HashMap<String, Policy>) -> Self {
        let circuits = policies
            .iter()
            .map(|(name, p)| (name.clone(), (p.clone(), PolicyCircuit::compile(p))))
            .collect();
        let v = config.geometry.tx_validators.max(1);
        BlockProcessor {
            db: BoundedStateDb::new(config.db_capacity),
            circuits,
            block_verify_free: 0,
            validate_free: 0,
            verify_free: vec![0; v],
            vscc_free: vec![0; v],
            mvcc_free: 0,
            blocks_processed: 0,
            config,
        }
    }

    /// Recompiles the policy circuits in place (partial reconfiguration,
    /// paper §5): timing state and database contents are untouched.
    pub fn update_policies(&mut self, policies: &HashMap<String, Policy>) {
        self.circuits = policies
            .iter()
            .map(|(name, p)| (name.clone(), (p.clone(), PolicyCircuit::compile(p))))
            .collect();
    }

    /// Blocks processed so far.
    pub fn blocks_processed(&self) -> u64 {
        self.blocks_processed
    }

    /// Processes one decoded block: functional validation plus timing.
    /// `keys` maps 16-bit ids to public keys (the DataProcessor's X.509
    /// key extraction output); `ready` is when the block's data became
    /// available from the protocol_processor.
    ///
    /// # Errors
    ///
    /// [`ProcessError::UnknownKey`] if a signer id has no registered key.
    pub fn process_block(
        &mut self,
        block: &DecodedBlock,
        keys: &HashMap<u16, VerifyingKey>,
        ready: SimTime,
    ) -> Result<HwBlockResult, ProcessError> {
        let mut stats = HwBlockStats {
            data_ready: ready,
            ..Default::default()
        };
        let t = ECDSA_ENGINE_LATENCY;

        // --- Stage 1: block_verify (dedicated engine).
        let bv_start = ready.max(self.block_verify_free);
        let bv_end = bv_start + t;
        self.block_verify_free = bv_end;
        stats.verifications += 1;
        let block_verify = self.check(
            &block.orderer_cert,
            &block.orderer_signed_message,
            &block.orderer_signature,
            keys,
        )?;
        stats.block_verified = bv_end;

        // --- Stage 2: block_validate (one block at a time in the stage).
        let vstart = bv_end.max(self.validate_free);

        // tx_verify + tx_vscc per transaction, scheduled by tx_scheduler
        // onto the first free tx_verify instance.
        let n = block.txs.len();
        let mut vscc_end = vec![0u64; n];
        // Pre-MVCC outcome per transaction (precise codes so the
        // software-combined transactions filter — and hence the commit
        // hash — matches the software peer exactly).
        let mut tx_code = vec![TxValidationCode::Valid; n];
        for (i, tx) in block.txs.iter().enumerate() {
            // Pick the validator whose verify engine frees first.
            let v = (0..self.verify_free.len())
                .min_by_key(|&v| self.verify_free[v].max(vstart))
                .expect("at least one validator");
            let vs = vstart.max(self.verify_free[v]) + SCHEDULE_LATENCY;
            let (valid_so_far, ve) = if !block_verify {
                // Skip: the block is already invalid (§3.3 tx_verify skip).
                tx_code[i] = TxValidationCode::BadSignature;
                (false, vs)
            } else {
                stats.verifications += 1;
                let ok = self.check(
                    &tx.creator_cert,
                    &tx.signed_payload,
                    &tx.client_signature,
                    keys,
                )?;
                if !ok {
                    tx_code[i] = TxValidationCode::BadSignature;
                }
                (ok, vs + t)
            };
            self.verify_free[v] = ve;

            // tx_vscc: waves of endorsement verifications on this
            // validator's engines with short-circuit evaluation.
            let ss = ve.max(self.vscc_free[v]);
            let (ok, waves, executed, skipped) = self.run_vscc(tx, keys, valid_so_far)?;
            stats.verifications += executed;
            stats.skipped_verifications += skipped;
            let se = ss + waves * t;
            self.vscc_free[v] = se;
            vscc_end[i] = se;
            if valid_so_far && !ok {
                tx_code[i] = TxValidationCode::EndorsementPolicyFailure;
            }
        }

        // tx_collector: in-order hand-off to tx_mvcc_commit.
        let mut flags = Vec::with_capacity(n);
        let mut collected = vstart;
        for (i, tx) in block.txs.iter().enumerate() {
            collected = collected.max(vscc_end[i]);
            let m_start = collected.max(self.mvcc_free);
            let mut m_end = m_start + MVCC_FIXED;
            if tx_code[i] != TxValidationCode::Valid {
                // Early abort: both mvcc and commit skipped (§3.3).
                flags.push(tx_code[i]);
                self.mvcc_free = m_start;
                continue;
            }
            // MVCC: read each key, compare versions.
            let mut conflict = false;
            for (key, expected) in &tx.reads {
                stats.db_reads += 1;
                m_end += HW_DB_ACCESS;
                let current = self
                    .db
                    .get_version(key)
                    .expect("sequential mvcc stage never sees locks");
                let expected = expected.map(|v| Height::new(v.block_num, v.tx_num));
                if current != expected {
                    conflict = true;
                }
            }
            if conflict {
                flags.push(TxValidationCode::MvccReadConflict);
                self.mvcc_free = m_end;
                continue;
            }
            // Commit: write each entry with its created version.
            for (key, value) in &tx.writes {
                stats.db_writes += 1;
                m_end += HW_DB_ACCESS;
                self.db
                    .put(key, value.clone(), Height::new(block.number, i as u64))
                    .map_err(|_| ProcessError::DbFull)?;
            }
            flags.push(TxValidationCode::Valid);
            self.mvcc_free = m_end;
        }
        stats.vscc_done = vscc_end.iter().copied().max().unwrap_or(vstart);
        stats.mvcc_done = self.mvcc_free.max(stats.vscc_done);
        stats.published = stats.mvcc_done + RESULT_PUBLISH;
        self.validate_free = stats.published;
        self.blocks_processed += 1;

        Ok(HwBlockResult {
            block_num: block.number,
            block_verify,
            flags,
            stats,
        })
    }

    /// tx_vscc: issues endorsement verifications in waves of `E` engines;
    /// the ends_scheduler stops as soon as the policy circuit is
    /// satisfied (short-circuit) or endorsements are exhausted. Returns
    /// `(policy_satisfied, waves, executed, skipped)`.
    fn run_vscc(
        &self,
        tx: &DecodedTransaction,
        keys: &HashMap<u16, VerifyingKey>,
        valid_so_far: bool,
    ) -> Result<(bool, u64, u64, u64), ProcessError> {
        if !valid_so_far {
            // Endorsements discarded (§3.3).
            return Ok((false, 0, 0, tx.endorsements.len() as u64));
        }
        let Some((_, circuit)) = self.circuits.get(&tx.chaincode) else {
            return Ok((false, 0, 0, tx.endorsements.len() as u64));
        };
        let e = self.config.geometry.engines_per_vscc.max(1);
        let mut sc = ShortCircuitEvaluator::new(circuit, self.config.num_orgs);
        let mut waves = 0u64;
        let mut executed = 0u64;
        let mut idx = 0usize;
        let mut satisfied = false;
        while idx < tx.endorsements.len() && !satisfied {
            waves += 1;
            let wave_end = (idx + e).min(tx.endorsements.len());
            for end in &tx.endorsements[idx..wave_end] {
                executed += 1;
                let ok = self.check(
                    &end.endorser_cert,
                    &end.signed_message,
                    &end.signature,
                    keys,
                )?;
                if sc.record(end.endorser_cert.node_id, ok) == PolicyStatus::Satisfied {
                    satisfied = true;
                }
            }
            idx = wave_end;
        }
        let skipped = (tx.endorsements.len() - idx) as u64;
        let ok = valid_so_far && (satisfied || sc.status() == PolicyStatus::Satisfied);
        Ok((ok, waves, executed, skipped))
    }

    /// One ecdsa_engine invocation: the request is the signer's 16-bit
    /// id (key selector), the SHA-256 digest of `message` (the
    /// HashCalculator) and the signature, verified against the key
    /// registered under that id.
    fn check(
        &self,
        signer: &Certificate,
        message: &[u8],
        signature: &Signature,
        keys: &HashMap<u16, VerifyingKey>,
    ) -> Result<bool, ProcessError> {
        let id = signer.node_id.encode();
        let key = keys.get(&id).ok_or(ProcessError::UnknownKey(id))?;
        Ok(key.verify_prehashed(&sha256(message), signature).is_ok())
    }
}
