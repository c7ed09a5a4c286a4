//! Caliper-equivalent workload driver.
//!
//! "Caliper clients create random transactions, and a total of 150,000
//! transactions (30,000 repeated 5 times) are used to compute average
//! metrics" (paper §4.2). The driver generates random operations against
//! a [`FabricNetwork`] and collects the blocks the ordering service cuts
//! (`bmac_hw::BlockShape::measure` reads the performance models' block
//! shape off them).
//!
//! Endorsers commit blocks too, and what they commit must be what a
//! validator commits: [`Driver::commit_back`] replays every cut block on
//! a serial oracle [`ValidatorPipeline`] and hands the endorsers the
//! writes of the transactions it flags valid, and no others. (Handing
//! them every write set lets endorser versions drift from validator
//! versions, and the valid share of a stream decays with its length.)

use fabric_crypto::identity::Msp;
use fabric_node::client::ClientError;
use fabric_node::endorser::TxWrites;
use fabric_node::network::FabricNetwork;
use fabric_peer::{TxValidationCode, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_protos::txflow::{decode_block_struct, DecodedBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which benchmark application to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// smallbank (banking operations).
    Smallbank,
    /// drm (digital asset management).
    Drm,
    /// smallbank's split-payment variant with `n` destinations
    /// (Figure 12c's rw knob).
    SplitPayment(usize),
}

impl Workload {
    /// The chaincode name this workload invokes.
    pub fn chaincode(&self) -> &'static str {
        match self {
            Workload::Smallbank | Workload::SplitPayment(_) => "smallbank",
            Workload::Drm => "drm",
        }
    }
}

/// The workload driver.
#[derive(Debug)]
pub struct Driver {
    workload: Workload,
    accounts: usize,
    rng: StdRng,
    submitted: u64,
    aborted: u64,
    /// The serial validator [`Driver::commit_back`] replays blocks on;
    /// built on first use, it must see every block from number 0.
    oracle: Option<ValidatorPipeline>,
}

impl Driver {
    /// Creates a driver over `accounts` pre-created customers/contents.
    pub fn new(workload: Workload, accounts: usize, seed: u64) -> Self {
        Driver {
            workload,
            accounts: accounts.max(2),
            rng: StdRng::seed_from_u64(seed),
            submitted: 0,
            aborted: 0,
            oracle: None,
        }
    }

    fn oracle(&mut self, net: &FabricNetwork) -> &ValidatorPipeline {
        self.oracle.get_or_insert_with(|| {
            // The org CAs are a function of the org index alone, so a
            // fresh MSP of the same width trusts what the network issued.
            ValidatorPipeline::new(
                Msp::new(net.num_orgs()),
                net.chaincodes().iter().cloned().collect(),
                1,
            )
        })
    }

    /// Replays `block` on the driver's oracle validator and commits back
    /// to the endorsers the writes of the transactions it flags valid —
    /// what every validator of the stream commits — so follow-up
    /// simulations read the versions validators hold. With `withhold`
    /// the oracle still commits the block but the endorsers learn nothing
    /// of it: their later endorsements of its keys read stale versions.
    ///
    /// Blocks must come in order from number 0, [`Driver::prepare`]'s
    /// set-up blocks (which it feeds itself) first.
    ///
    /// # Panics
    ///
    /// Panics if the oracle rejects the block: driver-produced blocks
    /// decode and chain, so that is a bug, not an input condition.
    pub fn commit_back(&mut self, net: &mut FabricNetwork, block: &Block, withhold: bool) {
        let codes = self
            .oracle(net)
            .validate_and_commit(block)
            .expect("driver-produced blocks validate")
            .codes;
        if !withhold {
            let decoded = decode_block_struct(block, 0).expect("driver-produced blocks decode");
            commit_valid_writes(net, decoded, &codes);
        }
    }

    /// Creates the initial accounts/contents, committing the resulting
    /// blocks to the endorsers so later simulations see them.
    ///
    /// # Errors
    ///
    /// Propagates [`ClientError`] from the setup invocations.
    pub fn prepare(&mut self, net: &mut FabricNetwork) -> Result<Vec<Block>, ClientError> {
        let mut blocks = Vec::new();
        for i in 0..self.accounts {
            let result = match self.workload {
                Workload::Smallbank | Workload::SplitPayment(_) => net.submit_invocation(
                    0,
                    "smallbank",
                    "create_account",
                    &[format!("acc{i}"), "10000".into(), "10000".into()],
                ),
                Workload::Drm => net.submit_invocation(
                    0,
                    "drm",
                    "register_content",
                    &[format!("content{i}"), format!("owner{i}"), "10".into()],
                ),
            }?;
            blocks.extend(result);
        }
        if let Some(block) = net.cut_partial_block() {
            blocks.push(block);
        }
        // Every set-up transaction creates a key of its own, so all of
        // them are valid: the oracle catches up without checking a
        // signature, and the endorsers get every write.
        for block in &blocks {
            let decoded = decode_block_struct(block, 0).expect("driver-produced blocks decode");
            let codes = vec![TxValidationCode::Valid; decoded.txs.len()];
            self.oracle(net)
                .commit_flagged(block.clone(), decoded.clone(), codes.clone())
                .expect("driver-produced blocks chain");
            commit_valid_writes(net, decoded, &codes);
        }
        Ok(blocks)
    }

    /// Submits one random operation; returns any blocks cut.
    ///
    /// Operations mix: for smallbank, the Caliper distribution across the
    /// six functions (send_payment-heavy); for drm, purchase-heavy.
    ///
    /// # Errors
    ///
    /// Propagates [`ClientError`]; business aborts (insufficient funds)
    /// are counted and retried with a deposit instead.
    pub fn submit_one(&mut self, net: &mut FabricNetwork) -> Result<Vec<Block>, ClientError> {
        self.submitted += 1;
        let a = self.rng.gen_range(0..self.accounts);
        let b = (a + 1 + self.rng.gen_range(0..self.accounts - 1)) % self.accounts;
        let result = match self.workload {
            Workload::Smallbank => {
                let op = self.rng.gen_range(0..100);
                if op < 40 {
                    net.submit_invocation(
                        0,
                        "smallbank",
                        "send_payment",
                        &[format!("acc{a}"), format!("acc{b}"), "5".into()],
                    )
                } else if op < 55 {
                    net.submit_invocation(
                        0,
                        "smallbank",
                        "deposit_checking",
                        &[format!("acc{a}"), "10".into()],
                    )
                } else if op < 70 {
                    net.submit_invocation(
                        0,
                        "smallbank",
                        "transact_savings",
                        &[format!("acc{a}"), "10".into()],
                    )
                } else if op < 85 {
                    net.submit_invocation(
                        0,
                        "smallbank",
                        "write_check",
                        &[format!("acc{a}"), "5".into()],
                    )
                } else {
                    net.submit_invocation(
                        0,
                        "smallbank",
                        "amalgamate",
                        &[format!("acc{a}"), format!("acc{b}")],
                    )
                }
            }
            Workload::SplitPayment(n) => {
                let mut args = vec![format!("acc{a}"), "2".into()];
                for k in 0..n {
                    args.push(format!("acc{}", (b + k) % self.accounts));
                }
                net.submit_invocation(0, "smallbank", "send_payment_split", &args)
            }
            Workload::Drm => {
                let op = self.rng.gen_range(0..100);
                if op < 70 {
                    net.submit_invocation(
                        0,
                        "drm",
                        "purchase_license",
                        &[format!("content{a}"), format!("user{}", self.submitted)],
                    )
                } else {
                    net.submit_invocation(
                        0,
                        "drm",
                        "transfer_ownership",
                        &[format!("content{a}"), format!("owner{}", self.submitted)],
                    )
                }
            }
        };
        match result {
            Err(ClientError::Endorse(_)) => {
                // Business abort (e.g. insufficient funds): Caliper counts
                // these as failed submissions; top the account up instead.
                self.aborted += 1;
                net.submit_invocation(
                    0,
                    self.workload.chaincode(),
                    if self.workload == Workload::Drm {
                        "register_content"
                    } else {
                        "deposit_checking"
                    },
                    &if self.workload == Workload::Drm {
                        vec![format!("content{a}"), "owner".into(), "1".into()]
                    } else {
                        vec![format!("acc{a}"), "1000".into()]
                    },
                )
            }
            other => other,
        }
    }

    /// Generates blocks until `count` of them have been cut, committing
    /// each block's valid writes back to the endorsers
    /// ([`Driver::commit_back`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ClientError`] from submissions.
    pub fn generate_blocks(
        &mut self,
        net: &mut FabricNetwork,
        count: usize,
    ) -> Result<Vec<Block>, ClientError> {
        let mut blocks = Vec::new();
        while blocks.len() < count {
            for block in self.submit_one(net)? {
                self.commit_back(net, &block, false);
                blocks.push(block);
            }
        }
        Ok(blocks)
    }

    /// `(submitted, aborted)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.submitted, self.aborted)
    }
}

/// Commits to the endorsers the writes of the transactions `codes` flags
/// valid, at the heights a validator commits them.
fn commit_valid_writes(net: &mut FabricNetwork, decoded: DecodedBlock, codes: &[TxValidationCode]) {
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
    use crate::smallbank::Smallbank;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn smallbank_net(block_size: usize) -> FabricNetwork {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(block_size)
            .chaincode("smallbank", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(Smallbank::new()));
        net
    }

    #[test]
    fn prepare_creates_accounts() {
        let mut net = smallbank_net(4);
        let mut driver = Driver::new(Workload::Smallbank, 8, 42);
        let blocks = driver.prepare(&mut net).unwrap();
        assert!(!blocks.is_empty());
        // Endorser state sees the accounts.
        let db = net.reference_db();
        assert!(db.get("acc0_checking").is_some());
        assert!(db.get("acc7_savings").is_some());
    }

    #[test]
    fn generates_blocks_of_configured_size() {
        let mut net = smallbank_net(5);
        let mut driver = Driver::new(Workload::Smallbank, 8, 42);
        driver.prepare(&mut net).unwrap();
        let blocks = driver.generate_blocks(&mut net, 3).unwrap();
        assert_eq!(blocks.len(), 3);
        for b in &blocks {
            assert_eq!(b.data.data.len(), 5);
        }
    }
}
