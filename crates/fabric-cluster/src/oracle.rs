//! The serial-replay oracle and the divergence audit.
//!
//! A correct cluster, however many faults it absorbed, must end with
//! every surviving peer holding *exactly* the chain and state a single
//! serial `validate_and_commit` replay produces — bit-identical
//! validation flags, commit hashes, chain links, and state-database
//! contents. [`SerialOracle`] computes that ground truth once per
//! scenario; [`SerialOracle::audit`] compares one peer's recovered
//! storage against it.

use fabric_ledger::Ledger;
use fabric_peer::pipeline::ValidatorPipeline;
use fabric_peer::TxValidationCode;
use fabric_protos::messages::Block;
use fabric_statedb::{StateDb, VersionedValue};
use workload::StreamScenario;

/// Ground truth for one scenario: the blocks and, after each prefix,
/// the flags/hashes/state a correct peer must hold.
#[derive(Debug)]
pub struct SerialOracle {
    /// The ordered block stream (setup blocks included).
    pub blocks: Vec<Block>,
    /// `codes[n]` = per-tx validation flags of block `n`.
    pub codes: Vec<Vec<TxValidationCode>>,
    /// `commit_hashes[n]` = commit hash of block `n`.
    pub commit_hashes: Vec<[u8; 32]>,
    /// `snapshots[k]` = full state after committing blocks `0..k`.
    pub snapshots: Vec<Vec<(String, VersionedValue)>>,
}

impl SerialOracle {
    /// Replays `scenario` through a fresh in-memory serial validator and
    /// records the reference after every block.
    pub fn build(scenario: &StreamScenario) -> Self {
        let blocks = scenario.generate().blocks;
        Self::from_blocks(scenario, blocks)
    }

    /// Builds the oracle for an arbitrary ordered block stream validated
    /// under `scenario`'s MSP and policies — a mempool-fed stream
    /// ([`crate::mempool_feed_blocks`]) is cut by its own orderer, and
    /// needs the same serial ground truth as the generated one.
    pub fn from_blocks(scenario: &StreamScenario, blocks: Vec<Block>) -> Self {
        let serial = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
        let mut codes = Vec::new();
        let mut commit_hashes = Vec::new();
        let mut snapshots = vec![serial.state_db().snapshot()];
        for block in &blocks {
            let r = serial
                .validate_and_commit(block)
                .expect("serial replay of a generated scenario cannot fail");
            codes.push(r.codes.clone());
            commit_hashes.push(r.commit_hash);
            snapshots.push(serial.state_db().snapshot());
        }
        SerialOracle {
            blocks,
            codes,
            commit_hashes,
            snapshots,
        }
    }

    /// Chain length of the full scenario.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Audits one peer's storage against the oracle. When `require_full`
    /// (a surviving peer), the peer must hold the *whole* chain; a dead
    /// peer's store only has to be a serial *prefix*. Returns the
    /// audited height, or a description of the first divergence.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first divergence found.
    pub fn audit(
        &self,
        ledger: &Ledger,
        state_db: &StateDb,
        require_full: bool,
    ) -> Result<u64, String> {
        let h = ledger.height();
        if h > self.height() {
            return Err(format!(
                "peer holds {h} blocks but the scenario only has {}",
                self.height()
            ));
        }
        if require_full && h != self.height() {
            return Err(format!(
                "surviving peer stopped at height {h}, expected {}",
                self.height()
            ));
        }
        for n in 0..h {
            let cb = ledger
                .block(n)
                .ok_or_else(|| format!("block {n} unreadable below height {h}"))?;
            if cb.tx_filter != self.codes[n as usize] {
                return Err(format!(
                    "block {n} validation flags diverge: {:?} != {:?}",
                    cb.tx_filter, self.codes[n as usize]
                ));
            }
            if cb.commit_hash != self.commit_hashes[n as usize] {
                return Err(format!("block {n} commit hash diverges"));
            }
        }
        if let Err(e) = ledger.verify_chain() {
            return Err(format!("recovered chain fails verification: {e}"));
        }
        if state_db.snapshot() != self.snapshots[h as usize] {
            return Err(format!("state database diverges at height {h}"));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> StreamScenario {
        StreamScenario {
            accounts: 3,
            block_size: 2,
            num_blocks: 3,
            stale_commit_pct: 30,
            corrupt_sigs: 1,
            seed: 11,
            ..StreamScenario::default()
        }
    }

    #[test]
    fn serial_replay_passes_its_own_audit() {
        let scenario = scenario();
        let oracle = SerialOracle::build(&scenario);
        let replay = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
        for block in &oracle.blocks {
            replay.validate_and_commit(block).unwrap();
        }
        let h = oracle
            .audit(&replay.ledger(), &replay.state_db(), true)
            .expect("serial replay is the reference");
        assert_eq!(h, oracle.height());
    }

    #[test]
    fn a_prefix_passes_only_the_prefix_audit() {
        let scenario = scenario();
        let oracle = SerialOracle::build(&scenario);
        let replay = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
        for block in &oracle.blocks[..oracle.blocks.len() - 1] {
            replay.validate_and_commit(block).unwrap();
        }
        let err = oracle
            .audit(&replay.ledger(), &replay.state_db(), true)
            .unwrap_err();
        assert!(err.contains("stopped at height"), "{err}");
        let h = oracle
            .audit(&replay.ledger(), &replay.state_db(), false)
            .expect("a serial prefix audits clean for a dead peer");
        assert_eq!(h, oracle.height() - 1);
    }

    #[test]
    fn divergent_state_is_reported() {
        let scenario = scenario();
        let oracle = SerialOracle::build(&scenario);
        let replay = ValidatorPipeline::new(scenario.validator_msp(), scenario.policies(), 2);
        for block in &oracle.blocks {
            replay.validate_and_commit(block).unwrap();
        }
        // Tamper with one state key behind the validator's back.
        let db = replay.state_db();
        let mut batch = fabric_statedb::WriteBatch::new();
        batch.put("rogue_key", b"rogue".to_vec());
        db.apply(&batch, fabric_statedb::Height::new(999, 0));
        let err = oracle
            .audit(&replay.ledger(), &replay.state_db(), true)
            .unwrap_err();
        assert!(err.contains("state database diverges"), "{err}");
    }
}
