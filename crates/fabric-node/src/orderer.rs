//! The ordering service: envelopes cut into signed blocks.
//!
//! "The ordering service consists of one or more orderers, which use a
//! consensus mechanism to establish a total order for the transactions"
//! (paper §2.1.1). The paper's evaluation runs a single orderer (§4.1),
//! and so does this service: envelopes are ordered as they arrive, cut
//! into blocks of a configured size and signed. Consensus among several
//! orderers is a pluggable service outside the validator the paper
//! accelerates, and is not modelled.

use std::convert::Infallible;

use fabric_crypto::identity::SigningIdentity;
use fabric_protos::messages::Block;
use fabric_protos::txflow::{block_header_hash, build_block};

/// Configuration of the ordering service.
#[derive(Debug, Clone)]
pub struct OrdererConfig {
    /// Transactions per block ("block size" throughout the paper's
    /// evaluation).
    pub block_size: usize,
    /// Number of orderer nodes. Only the paper's single orderer exists:
    /// [`OrderingService::new`] refuses any other value.
    pub cluster_size: usize,
    /// Unread: a single orderer has nothing to randomize. Kept so
    /// existing configuration literals still compile.
    pub seed: u64,
}

impl Default for OrdererConfig {
    fn default() -> Self {
        OrdererConfig {
            block_size: 150,
            cluster_size: 1,
            seed: 7,
        }
    }
}

/// The ordering service: one orderer that cuts and signs blocks.
#[derive(Debug)]
pub struct OrderingService {
    identity: SigningIdentity,
    block_size: usize,
    /// Envelopes ordered but not yet cut into a block.
    pending: Vec<Vec<u8>>,
    next_block_number: u64,
    previous_hash: [u8; 32],
}

impl OrderingService {
    /// Creates the service with the orderer's identity.
    ///
    /// # Panics
    ///
    /// Panics if `config.cluster_size` is not 1: only a single orderer
    /// is modelled.
    pub fn new(identity: SigningIdentity, config: OrdererConfig) -> Self {
        assert!(
            config.cluster_size == 1,
            "only a single orderer is modelled (the paper's \u{a7}4.1 setup); \
             cluster_size {} is not supported",
            config.cluster_size
        );
        OrderingService {
            identity,
            block_size: config.block_size,
            pending: Vec::new(),
            next_block_number: 0,
            previous_hash: [0u8; 32],
        }
    }

    /// Number of transactions per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The orderer's identity.
    pub fn identity(&self) -> &SigningIdentity {
        &self.identity
    }

    /// Submits a marshaled envelope for ordering. Returns any blocks cut
    /// as a consequence (usually zero or one).
    pub fn submit(&mut self, envelope: Vec<u8>) -> Vec<Block> {
        self.pending.push(envelope);
        self.cut_ready_blocks()
    }

    /// Drains every verified-and-ready transaction from `mempool` into
    /// ordering, returning the blocks cut along the way. This is the
    /// mempool-fed mode: transactions reach the orderer already
    /// deduplicated and signature-checked, in admission order, so the
    /// blocks cut here are deterministic for a given admission
    /// sequence regardless of verify-pool parallelism.
    ///
    /// Never fails; the `Result` keeps existing `expect` call sites
    /// compiling.
    pub fn ingest_mempool(
        &mut self,
        mempool: &fabric_mempool::Mempool,
    ) -> Result<Vec<Block>, Infallible> {
        self.pending.extend(mempool.drain(usize::MAX));
        Ok(self.cut_ready_blocks())
    }

    /// Cuts a block from whatever is pending, even if smaller than the
    /// configured block size (Fabric's batch timeout path).
    pub fn cut_partial_block(&mut self) -> Option<Block> {
        if self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(self.block_size);
        let envs: Vec<Vec<u8>> = self.pending.drain(..take).collect();
        Some(self.cut(envs))
    }

    /// Blocks cut so far.
    pub fn blocks_cut(&self) -> u64 {
        self.next_block_number
    }

    fn cut_ready_blocks(&mut self) -> Vec<Block> {
        let mut out = Vec::new();
        while self.pending.len() >= self.block_size {
            let envs: Vec<Vec<u8>> = self.pending.drain(..self.block_size).collect();
            out.push(self.cut(envs));
        }
        out
    }

    fn cut(&mut self, envelopes: Vec<Vec<u8>>) -> Block {
        let block = build_block(
            self.next_block_number,
            &self.previous_hash,
            envelopes,
            &self.identity,
        );
        self.previous_hash = block_header_hash(&block.header);
        self.next_block_number += 1;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::{Msp, Role};

    fn orderer_identity() -> SigningIdentity {
        let mut msp = Msp::new(1);
        msp.issue(0, Role::Orderer, 0).unwrap()
    }

    fn service(block_size: usize) -> OrderingService {
        OrderingService::new(
            orderer_identity(),
            OrdererConfig {
                block_size,
                ..OrdererConfig::default()
            },
        )
    }

    #[test]
    fn cuts_block_at_configured_size() {
        let mut svc = service(3);
        assert!(svc.submit(vec![1]).is_empty());
        assert!(svc.submit(vec![2]).is_empty());
        let blocks = svc.submit(vec![3]);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].data.data.len(), 3);
        assert_eq!(blocks[0].header.number, 0);
    }

    #[test]
    fn blocks_chain_hashes() {
        let mut svc = service(1);
        let b0 = svc.submit(vec![1]).remove(0);
        let b1 = svc.submit(vec![2]).remove(0);
        assert_eq!(
            b1.header.previous_hash,
            block_header_hash(&b0.header).to_vec()
        );
        assert_eq!(svc.blocks_cut(), 2);
    }

    #[test]
    fn partial_block_on_timeout() {
        let mut svc = service(10);
        svc.submit(vec![1]);
        svc.submit(vec![2]);
        let block = svc.cut_partial_block().expect("partial block");
        assert_eq!(block.data.data.len(), 2);
        assert!(svc.cut_partial_block().is_none());
    }

    #[test]
    fn mempool_fed_blocks_follow_admission_order() {
        use fabric_mempool::{AdmitOutcome, Mempool, MempoolConfig};
        use fabric_protos::txflow::{build_transaction, TxParams};
        use std::sync::Arc;

        let mut msp = Msp::new(1);
        let client = msp.issue(0, Role::Client, 1).unwrap();
        let endorser = msp.issue(0, Role::Peer, 1).unwrap();
        let envs: Vec<Vec<u8>> = (0..4u8)
            .map(|i| {
                build_transaction(
                    &client,
                    &[&endorser],
                    &TxParams {
                        channel_id: "ch",
                        chaincode: "kv",
                        reads: vec![],
                        writes: vec![(format!("k{i}"), vec![i])],
                        nonce: vec![i],
                        timestamp: 1,
                    },
                )
                .envelope
            })
            .collect();

        let mempool = Mempool::new(
            MempoolConfig::default(),
            Arc::new(fabric_mempool::SignatureCache::new(1024)),
        );
        for env in &envs {
            assert_eq!(mempool.admit(env), AdmitOutcome::Admitted);
        }
        mempool.verify_pending();

        let mut svc = service(2);
        let Ok(blocks) = svc.ingest_mempool(&mempool);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].data.data, envs[..2].to_vec());
        assert_eq!(blocks[1].data.data, envs[2..].to_vec());
        assert_eq!(mempool.ready_len(), 0, "mempool fully drained");
    }

    #[test]
    #[should_panic(expected = "only a single orderer is modelled")]
    fn several_orderers_are_refused_at_construction() {
        OrderingService::new(
            orderer_identity(),
            OrdererConfig {
                cluster_size: 3,
                ..OrdererConfig::default()
            },
        );
    }
}
