//! Oracle-faithful block-stream generator.
//!
//! `workload::StreamScenario::generate()` commits *every* transaction's
//! writes back to the endorsers, including those a validator will flag
//! MVCC-invalid, so endorser versions drift away from validator
//! versions and the valid share decays with stream length (see the
//! README, "Defects found while building the benchmark"). A benchmark
//! whose inputs rot as they get longer cannot compare runs of
//! different length, so this generator drives the network and the
//! workload driver directly: every cut block is validated on an
//! in-memory oracle [`ValidatorPipeline`] first, and only the writes
//! of transactions the oracle marked valid go back to the endorsers.
//! The same oracle pass yields the expected per-transaction codes, the
//! final state hash and the tip commit hash every timed pass is held
//! to — and, when handed a shared [`SignatureCache`], leaves it warm.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_crypto::identity::{Msp, SigningIdentity};
use fabric_ledger::{Ledger, TxValidationCode};
use fabric_node::endorser::TxWrites;
use fabric_node::network::{FabricNetwork, FabricNetworkBuilder};
use fabric_peer::{SignatureCache, ValidatorPipeline};
use fabric_policy::Policy;
use fabric_protos::messages::Block;
use fabric_protos::txflow::decode_block_struct;
use fabric_statedb::StateDb;
use workload::{Driver, Drm, Smallbank, StreamScenario, Workload};

/// Transactions per block in every stream workload.
pub const BLOCK_SIZE: usize = 100;
/// Capacity of a signature cache that must hold every verdict of a
/// stream: ≈63 k for 21 000 transactions, and four times that because
/// the cache evicts shard by shard, so some shards fill before the
/// whole does.
pub const WARM_CACHE_CAPACITY: usize = 1 << 18;
/// Pre-created accounts (smallbank) or contents (drm): ten full set-up
/// blocks, no partial one.
pub const ACCOUNTS: usize = 1_000;

/// A generated stream plus what the oracle says a correct peer makes
/// of it.
pub struct Stream {
    scenario: StreamScenario,
    /// Set-up blocks first, then the workload blocks, numbered from 0.
    pub blocks: Vec<Block>,
    /// Oracle validation codes, one vector per block.
    pub codes: Vec<Vec<TxValidationCode>>,
    /// State hash after the oracle committed the last block.
    pub state_hash: u64,
    /// Ledger tip commit hash after the oracle committed the last block.
    pub tip_commit_hash: [u8; 32],
    /// ECDSA verifications the oracle ran starting from an empty cache:
    /// what a cold pass must run, exactly.
    pub oracle_verifications: u64,
}

impl Stream {
    /// Generates `workload_blocks` blocks after the set-up blocks. With
    /// `warm`, the oracle verifies through that cache and leaves every
    /// verdict of the stream in it.
    pub fn generate(
        workload: Workload,
        workload_blocks: usize,
        seed: u64,
        warm: Option<Arc<SignatureCache>>,
    ) -> Stream {
        let scenario = StreamScenario {
            workload,
            accounts: ACCOUNTS,
            block_size: BLOCK_SIZE,
            num_blocks: workload_blocks,
            seed,
            ..StreamScenario::default()
        };
        let cache = warm.unwrap_or_else(|| Arc::new(SignatureCache::new(WARM_CACHE_CAPACITY)));
        let oracle = ValidatorPipeline::with_shared_cache(
            scenario.validator_msp(),
            scenario.policies(),
            2,
            cache,
            StateDb::new(),
            Ledger::new(),
        );
        let mut net = network(&scenario);
        let mut driver = Driver::new(workload, ACCOUNTS, seed);
        let mut stream = Stream {
            scenario,
            blocks: Vec::new(),
            codes: Vec::new(),
            state_hash: 0,
            tip_commit_hash: [0; 32],
            oracle_verifications: 0,
        };

        // `prepare` commits the set-up writes back itself; every set-up
        // transaction creates a distinct key, so all are valid and the
        // oracle only has to catch up.
        for block in driver
            .prepare(&mut net)
            .expect("set-up invocations succeed")
        {
            let codes = oracle_commit(&oracle, &block);
            assert!(
                codes.iter().all(|c| c.is_valid()),
                "set-up block {} has an invalid transaction",
                block.header.number
            );
            stream.push(block, codes);
        }
        let setup_blocks = stream.blocks.len();
        while stream.blocks.len() < setup_blocks + workload_blocks {
            for block in driver.submit_one(&mut net).expect("workload submission") {
                let codes = oracle_commit(&oracle, &block);
                commit_valid_writes(&mut net, &block, &codes);
                stream.push(block, codes);
            }
        }
        stream.state_hash = oracle.state_db().state_hash();
        stream.tip_commit_hash = oracle.ledger().tip_commit_hash();
        stream.oracle_verifications = oracle.verifications() as u64;
        stream
    }

    fn push(&mut self, block: Block, codes: Vec<TxValidationCode>) {
        self.blocks.push(block);
        self.codes.push(codes);
    }

    /// Transactions in the stream.
    pub fn txs(&self) -> usize {
        self.codes.iter().map(Vec::len).sum()
    }

    /// Transactions the oracle marked valid.
    pub fn valid_txs(&self) -> usize {
        self.valid_in(0..self.codes.len())
    }

    fn valid_in(&self, blocks: std::ops::Range<usize>) -> usize {
        self.codes[blocks]
            .iter()
            .flatten()
            .filter(|c| c.is_valid())
            .count()
    }

    /// The MSP a validator of this stream trusts.
    pub fn msp(&self) -> Msp {
        self.scenario.validator_msp()
    }

    /// The chaincode policies a validator of this stream needs.
    pub fn policies(&self) -> HashMap<String, Policy> {
        self.scenario.policies()
    }

    /// The identity that signed the blocks (for a mempool-fed orderer
    /// cutting the same blocks again).
    pub fn orderer(&self) -> SigningIdentity {
        self.scenario.orderer()
    }
}

fn network(scenario: &StreamScenario) -> FabricNetwork {
    let chaincode = scenario.workload.chaincode();
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .block_size(scenario.block_size)
        .seed(scenario.seed)
        .chaincode(chaincode, scenario.policies()[chaincode].clone())
        .build();
    match scenario.workload {
        Workload::Drm => net.install_chaincode(|| Box::new(Drm::new())),
        _ => net.install_chaincode(|| Box::new(Smallbank::new())),
    }
    net
}

fn oracle_commit(oracle: &ValidatorPipeline, block: &Block) -> Vec<TxValidationCode> {
    oracle
        .validate_and_commit(block)
        .expect("generated blocks validate on the oracle")
        .codes
}

/// Commits back to the endorsers only what a validator commits.
fn commit_valid_writes(net: &mut FabricNetwork, block: &Block, codes: &[TxValidationCode]) {
    let decoded = decode_block_struct(block, 0).expect("generated blocks decode");
    let writes: Vec<TxWrites> = decoded
        .txs
        .into_iter()
        .zip(codes)
        .enumerate()
        .filter(|(_, (_, code))| code.is_valid())
        .map(|(i, (tx, _))| (i as u64, tx.writes))
        .collect();
    net.commit_to_endorsers(decoded.number, &writes);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defect this module exists to avoid: with every write
    /// committed back, the valid share of a long smallbank stream
    /// decays; with valid-only commit-back it must stay flat.
    #[test]
    fn valid_share_does_not_decay_along_the_stream() {
        let stream = Stream::generate(Workload::Smallbank, 200, 11, None);
        let setup = stream.blocks.len() - 200;
        let quarter = |q: usize| {
            let lo = setup + q * 50;
            stream.valid_in(lo..lo + 50) as f64 / (50 * BLOCK_SIZE) as f64
        };
        let (first, last) = (quarter(0), quarter(3));
        assert!(
            (first - last).abs() <= 0.02,
            "valid share drifted from {first:.3} to {last:.3}"
        );
        assert!(first > 0.8, "valid share {first:.3} unexpectedly low");
    }
}
