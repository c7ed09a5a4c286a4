//! The BMac peer: hardware-accelerated validator (paper Figure 4b).
//!
//! The peer couples the simulated FPGA card ([`BMacMachine`]) with the
//! Fabric software side: blocks arrive as BMac packets, the hardware
//! validates them, and the software reads the result with
//! `GetBlockData()` "right before the ledger commit operation" (§3.5).
//! It drops a block whose card-computed block_verify bit failed, and
//! commits any other through [`ValidatorPipeline::commit_flagged`] with
//! the card's flags (MVCC ran on the card): check → apply the valid
//! write sets to its queryable state database → append. When a block
//! arrives through Gossip instead (a software-only sender), the peer
//! falls back to the full software validation pipeline — the
//! compatibility goal of §1.

use std::collections::HashMap;

use bmac_hw::processor::HwBlockStats;
use bmac_hw::{BMacMachine, MachineError, ProcessorConfig};
use fabric_crypto::Msp;
use fabric_ledger::{Ledger, TxValidationCode};
use fabric_peer::pipeline::{ValidateError, ValidatorPipeline};
use fabric_protos::messages::Block;
use fabric_sim::SimTime;
use fabric_statedb::StateDb;

use crate::config::BmacConfig;

/// Outcome of committing one block on the BMac peer.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Block number.
    pub block_num: u64,
    /// Per-transaction validation flags.
    pub flags: Vec<TxValidationCode>,
    /// Running commit hash after the block.
    pub commit_hash: [u8; 32],
    /// Hardware timing statistics (`None` for the Gossip fallback path).
    pub hw_stats: Option<HwBlockStats>,
}

impl CommitRecord {
    /// Number of valid transactions.
    pub fn valid_count(&self) -> usize {
        self.flags.iter().filter(|f| f.is_valid()).count()
    }
}

/// Errors from the BMac peer.
#[derive(Debug)]
pub enum PeerError {
    /// Hardware machine error.
    Machine(MachineError),
    /// The block was refused: by the software fallback's validation, or
    /// by the host, before commit, when the card's block_verify bit
    /// failed ([`ValidateError::OrdererSignature`]) or the commit did.
    Refused(ValidateError),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Machine(e) => write!(f, "hardware: {e}"),
            PeerError::Refused(e) => write!(f, "block refused: {e}"),
        }
    }
}

impl std::error::Error for PeerError {}

/// The hardware-accelerated validator peer.
#[derive(Debug)]
pub struct BMacPeer {
    machine: BMacMachine,
    /// The software pipeline: owns the ledger and the queryable state
    /// database, commits hardware-validated blocks and validates
    /// Gossip-delivered ones.
    fallback: ValidatorPipeline,
}

impl BMacPeer {
    /// Builds a peer from a [`BmacConfig`] and the network MSP (for the
    /// Gossip-fallback software validation and optional hardware trust
    /// anchors).
    pub fn new(config: &BmacConfig, msp: Msp) -> Self {
        let processor_config = ProcessorConfig {
            geometry: config.geometry(),
            db_capacity: config.db_capacity,
            num_orgs: config.orgs as usize,
        };
        let policies: HashMap<String, fabric_policy::Policy> = config.policy_map();
        let machine = BMacMachine::new(processor_config, &policies);
        // The BMac peer VM runs with 4 vCPUs in the paper — its software
        // only commits blocks; fallback validation uses those vCPUs.
        let fallback = ValidatorPipeline::new(msp, policies, 4);
        BMacPeer { machine, fallback }
    }

    /// The peer's ledger.
    pub fn ledger(&self) -> Ledger {
        self.fallback.ledger()
    }

    /// The peer's (software-visible) state database.
    pub fn state_db(&self) -> StateDb {
        self.fallback.state_db()
    }

    /// Ingests one wire packet at `arrival` (simulated time), then
    /// commits any block whose hardware result became available.
    ///
    /// # Errors
    ///
    /// [`PeerError::Machine`] on hardware failures, [`PeerError::Refused`]
    /// when the host refuses a block.
    pub fn ingest_wire(
        &mut self,
        wire: &[u8],
        arrival: SimTime,
    ) -> Result<Vec<CommitRecord>, PeerError> {
        self.machine
            .ingest_wire(wire, arrival)
            .map_err(PeerError::Machine)?;
        self.drain_hw_results()
    }

    /// Gossip fallback: a block arriving from a software-only sender is
    /// validated entirely in software (compatibility path, §3.2).
    ///
    /// # Errors
    ///
    /// [`PeerError::Refused`] when software validation refuses the
    /// block.
    pub fn receive_gossip_block(&self, block: &Block) -> Result<CommitRecord, PeerError> {
        let result = self
            .fallback
            .validate_and_commit(block)
            .map_err(PeerError::Refused)?;
        Ok(CommitRecord {
            block_num: result.block_num,
            flags: result.codes,
            commit_hash: result.commit_hash,
            hw_stats: None,
        })
    }

    /// `GetBlockData()` + ledger commit of each pending hardware result
    /// (Figure 4b's software side), dropping one whose block_verify failed.
    fn drain_hw_results(&mut self) -> Result<Vec<CommitRecord>, PeerError> {
        let mut out = Vec::new();
        while let Some((result, block, decoded)) = self.machine.get_block_data_full() {
            if !result.block_verify {
                return Err(PeerError::Refused(ValidateError::OrdererSignature {
                    block: result.block_num,
                }));
            }
            // Ledger append plus the mirror of the valid write sets into
            // the software-visible state DB, so queries and the Gossip
            // fallback stay consistent with the in-hardware database.
            let committed = self
                .fallback
                .commit_flagged(block, decoded, result.flags)
                .map_err(PeerError::Refused)?;
            out.push(CommitRecord {
                block_num: committed.block_num,
                flags: committed.codes,
                commit_hash: committed.commit_hash,
                hw_stats: Some(result.stats),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmac_protocol::BmacSender;
    use fabric_crypto::identity::Role;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn test_config() -> BmacConfig {
        BmacConfig::from_yaml(
            "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\narchitecture:\n  tx_validators: 4\n  engines_per_vscc: 2\n",
        )
        .unwrap()
    }

    fn test_msp() -> Msp {
        let mut msp = Msp::new(2);
        msp.issue(0, Role::Peer, 0).unwrap();
        msp.issue(1, Role::Peer, 0).unwrap();
        msp.issue(0, Role::Orderer, 0).unwrap();
        msp.issue(0, Role::Client, 0).unwrap();
        msp
    }

    fn make_network() -> fabric_node::FabricNetwork {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(3)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        net
    }

    #[test]
    fn hardware_path_commits_blocks() {
        let mut net = make_network();
        let mut peer = BMacPeer::new(&test_config(), test_msp());
        let mut sender = BmacSender::new();
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])
            .unwrap();
        let mut records = Vec::new();
        for p in sender.send_block(&blocks[0]).unwrap() {
            records.extend(peer.ingest_wire(&p.encode().unwrap(), 0).unwrap());
        }
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.valid_count(), 3);
        assert!(r.hw_stats.is_some());
        assert_eq!(peer.ledger().height(), 1);
        assert_eq!(peer.state_db().get("a").unwrap().value, b"1");
    }

    #[test]
    fn hw_and_sw_peers_agree_on_flags_and_commit_hash() {
        // The §4.1 equivalence check: same blocks through both peers.
        let mut net = make_network();
        let mut bmac = BMacPeer::new(&test_config(), test_msp());
        let sw = ValidatorPipeline::new(
            test_msp(),
            [("kv".to_string(), parse("2-outof-2 orgs").unwrap())]
                .into_iter()
                .collect(),
            4,
        );
        let mut sender = BmacSender::new();
        for round in 0..3 {
            let mut blocks = Vec::new();
            let mut i = 0;
            while blocks.is_empty() {
                blocks = net
                    .submit_invocation(
                        0,
                        "kv",
                        "put",
                        &[format!("k{round}_{i}"), format!("{round}")],
                    )
                    .unwrap();
                i += 1;
            }
            let block = blocks.remove(0);
            let sw_result = sw.validate_and_commit(&block).unwrap();
            let mut hw_records = Vec::new();
            for p in sender.send_block(&block).unwrap() {
                hw_records.extend(bmac.ingest_wire(&p.encode().unwrap(), 0).unwrap());
            }
            let hw = &hw_records[0];
            assert_eq!(hw.flags, sw_result.codes, "round {round} flags");
            assert_eq!(hw.commit_hash, sw_result.commit_hash, "round {round} hash");
        }
    }

    #[test]
    fn gossip_fallback_works() {
        let mut net = make_network();
        let peer = BMacPeer::new(&test_config(), test_msp());
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let blocks = net
            .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])
            .unwrap();
        let record = peer.receive_gossip_block(&blocks[0]).unwrap();
        assert_eq!(record.valid_count(), 3);
        assert!(record.hw_stats.is_none());
        assert_eq!(peer.ledger().height(), 1);
    }

    #[test]
    fn mixed_hw_and_gossip_blocks_chain() {
        let mut net = make_network();
        let mut peer = BMacPeer::new(&test_config(), test_msp());
        let mut sender = BmacSender::new();
        // Block 0 via hardware.
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let b0 = net
            .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])
            .unwrap()
            .remove(0);
        for p in sender.send_block(&b0).unwrap() {
            peer.ingest_wire(&p.encode().unwrap(), 0).unwrap();
        }
        // Block 1 via gossip fallback.
        net.commit_to_endorsers(
            0,
            &[
                (0, vec![("a".into(), b"1".to_vec())]),
                (1, vec![("b".into(), b"2".to_vec())]),
                (2, vec![("c".into(), b"3".to_vec())]),
            ],
        );
        net.submit_invocation(0, "kv", "put", &["d".into(), "4".into()])
            .unwrap();
        net.submit_invocation(0, "kv", "put", &["e".into(), "5".into()])
            .unwrap();
        let b1 = net
            .submit_invocation(0, "kv", "put", &["f".into(), "6".into()])
            .unwrap()
            .remove(0);
        let record = peer.receive_gossip_block(&b1).unwrap();
        assert_eq!(record.block_num, 1);
        assert_eq!(record.valid_count(), 3);
        assert_eq!(peer.ledger().height(), 2);
        assert!(peer.ledger().verify_chain().is_ok());
    }

    #[test]
    fn hardware_stats_reflect_short_circuit() {
        let mut net = make_network();
        let mut peer = BMacPeer::new(&test_config(), test_msp());
        let mut sender = BmacSender::new();
        net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])
            .unwrap();
        net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])
            .unwrap();
        let block = net
            .submit_invocation(0, "kv", "put", &["c".into(), "3".into()])
            .unwrap()
            .remove(0);
        let mut records = Vec::new();
        for p in sender.send_block(&block).unwrap() {
            records.extend(peer.ingest_wire(&p.encode().unwrap(), 0).unwrap());
        }
        let stats = records[0].hw_stats.unwrap();
        // 2of2: both endorsements needed, none skipped.
        assert_eq!(stats.skipped_verifications, 0);
        // 1 block + 3 × (1 client + 2 endorsements) = 10 verifications.
        assert_eq!(stats.verifications, 10);
        assert!(stats.latency() > 0);
    }
}
