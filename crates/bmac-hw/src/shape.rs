//! The shape of one block, as both performance models read it.
//!
//! The software validator model ([`crate::model`]) and the closed-form
//! hardware model ([`crate::throughput`]) take the same [`BlockShape`],
//! so a figure that compares the two peers compares them on one block.

use bmac_protocol::{BmacSender, SectionType};
use fabric_protos::messages::Block;
use fabric_protos::txflow::decode_block_struct;

/// Workload shape of one block.
#[derive(Debug, Clone, Copy)]
pub struct BlockShape {
    /// Transactions in the block (the paper's "block size").
    pub num_txs: usize,
    /// Endorsements carried by each transaction.
    pub endorsements_per_tx: usize,
    /// Endorsement verifications needed to satisfy the policy in the
    /// common all-valid case (`Policy::min_satisfying`); the hardware's
    /// short-circuit evaluation (§3.3) uses this, software verifies all
    /// endorsements.
    pub needed_endorsements: usize,
    /// State DB reads per transaction.
    pub reads_per_tx: usize,
    /// State DB writes per transaction.
    pub writes_per_tx: usize,
    /// Marshaled envelope bytes per transaction (Gossip form).
    pub tx_bytes: usize,
    /// Bytes of one identity-stripped transaction section on the BMac
    /// wire (sets the protocol_processor time).
    pub tx_section_bytes: usize,
    /// Extra policy sub-expression visits per transaction beyond the
    /// native k-of-n path (0 for simple policies; the paper's complex
    /// OR-of-ANDs policy costs 11 extra visits in software).
    pub policy_extra_visits: usize,
}

impl BlockShape {
    /// smallbank under the default 2-of-2 policy: 2 reads, 2 writes,
    /// ~3.4 KB envelopes, ~900 B transaction sections.
    pub fn smallbank(num_txs: usize) -> Self {
        BlockShape {
            num_txs,
            endorsements_per_tx: 2,
            needed_endorsements: 2,
            reads_per_tx: 2,
            writes_per_tx: 2,
            tx_bytes: 3_400,
            tx_section_bytes: 900,
            policy_extra_visits: 0,
        }
    }

    /// drm under the default 2-of-2 policy: fewer database accesses
    /// than smallbank (§4.3: "drm application has less accesses to
    /// database").
    pub fn drm(num_txs: usize) -> Self {
        BlockShape {
            num_txs,
            endorsements_per_tx: 2,
            needed_endorsements: 2,
            reads_per_tx: 1,
            writes_per_tx: 1,
            tx_bytes: 3_300,
            tx_section_bytes: 850,
            policy_extra_visits: 0,
        }
    }

    /// Measures the mean shape of real blocks: envelope and BMac section
    /// sizes, endorsements and rwset shape. This grounds the models in
    /// the actual wire data rather than the paper's assumed constants.
    /// `needed_endorsements` is the endorsement count (the policy is not
    /// on the wire) and `policy_extra_visits` is 0.
    ///
    /// # Panics
    ///
    /// Panics if a block does not decode or the BMac sender refuses it.
    pub fn measure(blocks: &[Block]) -> Self {
        let mut sender = BmacSender::new();
        let (mut txs, mut bytes, mut sections) = (0usize, 0usize, 0usize);
        let (mut ends, mut reads, mut writes) = (0usize, 0usize, 0usize);
        for block in blocks {
            let decoded = decode_block_struct(block, 0).expect("blocks decode");
            for tx in &decoded.txs {
                txs += 1;
                bytes += tx.envelope_len;
                ends += tx.endorsements.len();
                reads += tx.reads.len();
                writes += tx.writes.len();
            }
            sections += sender
                .send_block(block)
                .expect("the sender takes every decodable block")
                .iter()
                .filter(|p| p.section == SectionType::Transaction)
                .map(|p| p.wire_bytes())
                .sum::<usize>();
        }
        let txs_nz = txs.max(1);
        let per_tx = |n: usize| (n + txs_nz / 2) / txs_nz;
        BlockShape {
            num_txs: txs / blocks.len().max(1),
            endorsements_per_tx: per_tx(ends),
            needed_endorsements: per_tx(ends),
            reads_per_tx: per_tx(reads),
            writes_per_tx: per_tx(writes),
            tx_bytes: bytes / txs_nz,
            tx_section_bytes: sections / txs_nz,
            policy_extra_visits: 0,
        }
    }

    /// Total block bytes in Gossip form.
    pub fn block_bytes(&self) -> usize {
        self.num_txs * self.tx_bytes + 512
    }
}
