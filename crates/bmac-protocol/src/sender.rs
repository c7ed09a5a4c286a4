//! The BMac protocol sender (the orderer-side `Send()` of §3.5).
//!
//! A block is broken into 1 header + N transaction + 1 metadata sections
//! (§3.2, Figure 5a). The orderer knows where every identity and
//! signature of a section sits, so one walk of the section in place
//! ([`SectionSpans`]) serves both of its transformations:
//!
//! * **DataRemover** — the marshaled `SerializedIdentity` (~900 bytes)
//!   in each *named* identity field — the payload's creator, each
//!   action's creator, each endorser; in the metadata section, the
//!   orderer — is cut out and replaced by a locator annotation carrying
//!   its 16-bit encoded id. Bytes that merely equal an identity
//!   elsewhere (inside a write value, say) stay where they are. A new
//!   identity is filed under the node id its certificate embeds and
//!   synchronized to the receiver with an `IdentitySync` packet ahead of
//!   the first section that locates it. An identity the sender cannot
//!   file is sent inline: one that is not a `SerializedIdentity` with a
//!   certificate that parses, and one whose id is already filed under
//!   other bytes (re-enrolment under another serial, or a forgery),
//!   since the receiver refuses a sync that re-points a known id.
//! * **AnnotationGenerator** — pointer annotations record the offset and
//!   length of the fields the hardware needs (signatures, signed
//!   regions, rwsets) *in reconstructed-section coordinates*, each at
//!   its own field, so the `DataExtractor` can fetch them without
//!   recursive protobuf decoding.
//!
//! The sender refuses a block for an envelope that fails a layer
//! function the peer's `decode_transaction` calls on it (the walk reads
//! envelopes through them, so the peer rejects that envelope too), for
//! a metadata section whose signature slot does not parse, or for a
//! section too large for one packet. A block is sent whole or not at
//! all: its new identities join the cache, and [`SenderStats`] moves,
//! only once every section is built and passes [`BmacPacket::check`]. A
//! refused block leaves the sender as it was, so the next syncs what it needs.
//!
//! # Cost
//!
//! Per envelope: one walk through `decode_transaction`'s layer functions
//! (slices only, no certificate or signature parsed, an endorsement list
//! per action), one `TailHasher` lookup per identity field (the hash of
//! its last 32 bytes and one compare), and one copy of the bytes that
//! stay into a buffer of exact size. The block itself is
//! never re-marshaled: `block_bytes` is [`Block::encoded_len`], the
//! wire bytes are [`BmacPacket::wire_bytes`], and nothing is encoded
//! here — the caller encodes each packet once. Sending and encoding a
//! 100-transaction, ≈ 400 KB smallbank block costs ≈ 0.17 ms on a 2-vCPU
//! x86-64 host reading `host.calib_ns` ≈ 16–20 (`cargo bench -p
//! bmac-bench --bench protocol`; ≈ 4.2 ms for the byte-search reference
//! in `tests/tests/sender_equivalence.rs`); a traced benchmark run
//! reports it as `bmac.send_us_per_block`.

use std::ops::Range;

use bytes::Bytes;
use fabric_crypto::identity::{Certificate, NodeId};
use fabric_protos::messages::{Block, SerializedIdentity};
use fabric_protos::txflow::SectionSpans;
use fabric_protos::wire::WireError;

use crate::cache::IdentityCache;
use crate::packet::{u16_of, u32_of, Annotation, BmacPacket, PacketError, SectionType};

/// Statistics for the bandwidth comparison of Figure 9a. Only blocks
/// that were sent count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Blocks sent.
    pub blocks: u64,
    /// Packets emitted (including identity syncs).
    pub packets: u64,
    /// Total BMac bytes on the wire.
    pub bmac_wire_bytes: u64,
    /// What the same blocks would cost via Gossip (marshaled block +
    /// gossip/gRPC/TCP framing).
    pub gossip_wire_bytes: u64,
    /// Identity bytes removed by the DataRemover.
    pub identity_bytes_removed: u64,
    /// Marshaled (pre-strip) block bytes.
    pub block_bytes: u64,
}
impl SenderStats {
    /// Bandwidth saving fraction vs Gossip.
    pub fn savings(&self) -> f64 {
        if self.gossip_wire_bytes == 0 {
            return 0.0;
        }
        1.0 - self.bmac_wire_bytes as f64 / self.gossip_wire_bytes as f64
    }

    /// Identity share of the raw block bytes (the paper's ≥73%).
    pub fn identity_share(&self) -> f64 {
        if self.block_bytes == 0 {
            return 0.0;
        }
        self.identity_bytes_removed as f64 / self.block_bytes as f64
    }
}

/// Errors from sending a block.
#[derive(Debug)]
pub enum SendError {
    /// The block could not be decoded for annotation generation.
    Decode(WireError),
    /// A section exceeded the packet size limit.
    Packet(PacketError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Decode(e) => write!(f, "cannot decode block for sending: {e}"),
            SendError::Packet(e) => write!(f, "cannot packetize section: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

/// The protocol sender. One instance per (orderer, BMac peer) pair —
/// its identity cache is what the receiver has been sent.
#[derive(Debug, Default)]
pub struct BmacSender {
    cache: IdentityCache,
    stats: SenderStats,
}

impl BmacSender {
    /// Creates a sender with an empty identity cache.
    pub fn new() -> Self {
        BmacSender::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Sections a block into self-contained packets.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the block is structurally undecodable or a
    /// section exceeds the jumbo-frame payload limit; the sender is then
    /// left as it was.
    pub fn send_block(&mut self, block: &Block) -> Result<Vec<BmacPacket>, SendError> {
        // The tx count and per-tx section index travel as u16; a block
        // beyond 65535 transactions must be rejected up front, not have
        // its count wrap and its sections alias each other.
        let total_txs =
            u16_of("transaction count", block.data.data.len()).map_err(SendError::Packet)?;
        let mut out = Outgoing {
            block_num: block.header.number,
            total_txs,
            packets: Vec::with_capacity(block.data.data.len() + 4),
            new: Vec::new(),
            removed: 0,
            spans: SectionSpans::default(),
            cuts: Vec::new(),
        };

        // --- Header section: the marshaled BlockHeader (no identities).
        out.push(
            SectionType::Header,
            0,
            Vec::new(),
            block.header.marshal().into(),
        );

        // --- Transaction sections.
        for (i, envelope) in block.data.data.iter().enumerate() {
            let index = u16_of("transaction index", i).map_err(SendError::Packet)?;
            out.spans
                .walk_envelope(envelope)
                .map_err(SendError::Decode)?;
            out.section(&self.cache, SectionType::Transaction, index, envelope)?;
        }

        // --- Metadata section (holds the orderer identity + signature).
        let metadata = block.metadata.marshal();
        out.spans
            .walk_metadata(&metadata)
            .map_err(SendError::Decode)?;
        out.section(&self.cache, SectionType::Metadata, 0, &metadata)?;

        for p in &out.packets {
            p.check().map_err(SendError::Packet)?;
        }

        // The block goes out: commit what it introduced, and count it.
        for (node_id, identity) in out.new {
            self.cache.insert(node_id, identity.to_vec());
        }
        let block_bytes = block.encoded_len();
        self.stats.blocks += 1;
        self.stats.packets += out.packets.len() as u64;
        self.stats.bmac_wire_bytes += out
            .packets
            .iter()
            .map(|p| p.wire_bytes() as u64)
            .sum::<u64>();
        self.stats.gossip_wire_bytes += fabric_node::gossip::gossip_wire_bytes(block_bytes) as u64;
        self.stats.identity_bytes_removed += out.removed as u64;
        self.stats.block_bytes += block_bytes as u64;
        Ok(out.packets)
    }
}

/// One block in the making. Nothing here reaches the sender unless the
/// whole block is sent.
struct Outgoing {
    block_num: u64,
    total_txs: u16,
    packets: Vec<BmacPacket>,
    /// Identities first met in this block, in sync order.
    new: Vec<(NodeId, Bytes)>,
    /// Identity bytes cut out so far.
    removed: usize,
    /// The current section's walk.
    spans: SectionSpans,
    /// The current section's identity spans that are cut, with the id
    /// each is located by.
    cuts: Vec<(Range<usize>, u16)>,
}

impl Outgoing {
    fn push(
        &mut self,
        section: SectionType,
        index: u16,
        annotations: Vec<Annotation>,
        payload: Bytes,
    ) {
        self.packets.push(BmacPacket {
            block_num: self.block_num,
            section,
            index,
            total_txs: self.total_txs,
            annotations,
            payload,
        });
    }

    /// Packets a section whose walk is in `spans`: the syncs of the
    /// identities it introduces, then the section with its identities
    /// cut out, their locators (stripped coordinates) and the pointers
    /// (section coordinates).
    fn section(
        &mut self,
        cache: &IdentityCache,
        section: SectionType,
        index: u16,
        bytes: &[u8],
    ) -> Result<(), SendError> {
        self.cuts.clear();
        for i in 0..self.spans.identities.len() {
            let span = self.spans.identities[i].clone();
            if let Some(id) = self.resolve(cache, &bytes[span.clone()]) {
                self.cuts.push((span, id));
            }
        }
        self.cuts.sort_unstable_by_key(|(span, _)| span.start);
        let removed: usize = self.cuts.iter().map(|(span, _)| span.len()).sum();
        let mut payload = Vec::with_capacity(bytes.len() - removed);
        let mut annotations = Vec::with_capacity(self.cuts.len() + self.spans.fields.len());
        let mut pos = 0;
        for (span, id) in &self.cuts {
            payload.extend_from_slice(&bytes[pos..span.start]);
            annotations.push(Annotation::Locator {
                offset: u32_of("locator offset", payload.len()).map_err(SendError::Packet)?,
                id: *id,
            });
            pos = span.end;
        }
        payload.extend_from_slice(&bytes[pos..]);
        for (kind, span) in &self.spans.fields {
            annotations.push(Annotation::Pointer {
                kind: *kind,
                offset: u32_of("pointer offset", span.start).map_err(SendError::Packet)?,
                length: u32_of("pointer length", span.len()).map_err(SendError::Packet)?,
            });
        }
        self.removed += removed;
        self.push(section, index, annotations, payload.into());
        Ok(())
    }

    /// The id `identity` is located by — synced first when this block
    /// introduces it — or `None` to send it inline.
    fn resolve(&mut self, cache: &IdentityCache, identity: &[u8]) -> Option<u16> {
        if let Some(id) = cache.id_of(identity) {
            return Some(id);
        }
        if let Some((node_id, _)) = self.new.iter().find(|(_, known)| **known == *identity) {
            return Some(node_id.encode());
        }
        let si = SerializedIdentity::unmarshal(identity).ok()?;
        let node_id = Certificate::from_bytes(&si.id_bytes).ok()?.node_id;
        let id = node_id.encode();
        if cache.bytes_of(id).is_some() || self.new.iter().any(|(n, _)| n.encode() == id) {
            // The id is filed under another certificate.
            return None;
        }
        let identity = Bytes::copy_from_slice(identity);
        self.push(SectionType::IdentitySync, id, Vec::new(), identity.clone());
        self.new.push((node_id, identity));
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FieldKind;
    use fabric_node::chaincode::KvChaincode;
    use fabric_node::network::FabricNetworkBuilder;
    use fabric_policy::parse;

    fn one_block(ntx: usize) -> Block {
        let mut net = FabricNetworkBuilder::new()
            .orgs(2)
            .block_size(ntx)
            .chaincode("kv", parse("2-outof-2 orgs").unwrap())
            .build();
        net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
        let mut blocks = Vec::new();
        let mut i = 0;
        while blocks.is_empty() {
            blocks = net
                .submit_invocation(0, "kv", "put", &[format!("k{i}"), "1".into()])
                .unwrap();
            i += 1;
        }
        blocks.remove(0)
    }

    #[test]
    fn block_becomes_n_plus_2_sections() {
        let block = one_block(5);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        let sections = packets
            .iter()
            .filter(|p| p.section != SectionType::IdentitySync)
            .count();
        // "a block with 5 transactions will be broken down into 7
        // sections (1 header + 5 transaction sections + 1 metadata)"
        assert_eq!(sections, 7);
    }

    #[test]
    fn identities_are_stripped_and_synced_once() {
        let block1 = one_block(3);
        let mut sender = BmacSender::new();
        let p1 = sender.send_block(&block1).unwrap();
        let syncs1 = p1
            .iter()
            .filter(|p| p.section == SectionType::IdentitySync)
            .count();
        // client + 2 endorsers + orderer = 4 identities
        assert_eq!(syncs1, 4);
        // Sending another block re-syncs nothing.
        let block2 = one_block(3);
        let p2 = sender.send_block(&block2).unwrap();
        let syncs2 = p2
            .iter()
            .filter(|p| p.section == SectionType::IdentitySync)
            .count();
        assert_eq!(syncs2, 0);
    }

    #[test]
    fn bandwidth_savings_match_paper_band() {
        let block = one_block(10);
        let mut sender = BmacSender::new();
        sender.send_block(&block).unwrap();
        // Resend-equivalent: steady state (identities already synced).
        let block2 = one_block(10);
        let mut steady = BmacSender::new();
        steady.send_block(&block).unwrap();
        steady.send_block(&block2).unwrap();
        let stats = steady.stats();
        // Identity share of raw blocks ≥ 70% (paper: at least 73%).
        assert!(
            stats.identity_share() > 0.65,
            "share {}",
            stats.identity_share()
        );
        // Savings vs Gossip well above 60% (paper: up to 85%).
        assert!(stats.savings() > 0.6, "savings {}", stats.savings());
    }

    #[test]
    fn tx_sections_carry_pointer_annotations() {
        let block = one_block(2);
        let mut sender = BmacSender::new();
        let packets = sender.send_block(&block).unwrap();
        let tx_packet = packets
            .iter()
            .find(|p| p.section == SectionType::Transaction)
            .unwrap();
        let kinds: Vec<FieldKind> = tx_packet
            .annotations
            .iter()
            .filter_map(|a| match a {
                Annotation::Pointer { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&FieldKind::ClientSignature));
        assert!(kinds.contains(&FieldKind::SignedPayload));
        assert!(kinds.contains(&FieldKind::ProposalResponse));
        assert!(kinds.contains(&FieldKind::RwSet));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == FieldKind::EndorsementSignature)
                .count(),
            2
        );
        // Locators present too (identities stripped).
        assert!(tx_packet
            .annotations
            .iter()
            .any(|a| matches!(a, Annotation::Locator { .. })));
    }

    #[test]
    fn oversized_block_rejected_not_wrapped() {
        // 65536 transactions used to wrap total_txs to 0 and the
        // section indices back onto 0..: the receiver would have seen a
        // "complete" empty block and aliased sections. The count is now
        // rejected before any section is built.
        let block = fabric_protos::messages::Block {
            header: Default::default(),
            data: fabric_protos::messages::BlockData {
                data: vec![Vec::new(); u16::MAX as usize + 1],
            },
            metadata: Default::default(),
        };
        let mut sender = BmacSender::new();
        match sender.send_block(&block) {
            Err(SendError::Packet(PacketError::TooLarge { what, value })) => {
                assert_eq!(what, "transaction count");
                assert_eq!(value, u16::MAX as usize + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Stats stay untouched on the failure path.
        assert_eq!(sender.stats().blocks, 0);
    }
}
