//! The BMac protocol sender (the orderer-side `Send()` of §3.5).
//!
//! A block is broken into 1 header + N transaction + 1 metadata sections
//! (§3.2, Figure 5a). Each section passes through two transformations:
//!
//! * **DataRemover** — every identity (marshaled `SerializedIdentity`,
//!   ~900 bytes) found in the section is removed and replaced by a
//!   locator annotation carrying its 16-bit encoded id. New identities
//!   are auto-registered (their certificate embeds the node id) and
//!   synchronized to the receiver with an `IdentitySync` packet.
//! * **AnnotationGenerator** — pointer annotations record the offset and
//!   length of the fields the hardware needs (signatures, signed
//!   regions, rwsets), *in reconstructed-section coordinates*, so the
//!   `DataExtractor` can fetch them without recursive protobuf decoding.

use std::collections::HashSet;

use bytes::Bytes;
use fabric_crypto::identity::Certificate;
use fabric_protos::messages::{
    metadata_index, Block, ChaincodeActionPayload, Envelope, MetadataSignature, Payload,
    SerializedIdentity, Transaction,
};
use fabric_protos::wire::WireError;

use crate::cache::IdentityCache;
use crate::packet::{u16_of, u32_of, Annotation, BmacPacket, FieldKind, PacketError, SectionType};

/// Statistics for the bandwidth comparison of Figure 9a.
#[derive(Debug, Clone, Copy, Default)]
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
/// it tracks which cache entries the receiver already has.
#[derive(Debug, Default)]
pub struct BmacSender {
    cache: IdentityCache,
    synced: HashSet<u16>,
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
    /// section exceeds the jumbo-frame payload limit.
    pub fn send_block(&mut self, block: &Block) -> Result<Vec<BmacPacket>, SendError> {
        // The tx count and per-tx section index travel as u16; a block
        // beyond 65535 transactions must be rejected up front, not have
        // its count wrap and its sections alias each other.
        let total_txs =
            u16_of("transaction count", block.data.data.len()).map_err(SendError::Packet)?;
        let block_num = block.header.number;
        let mut packets: Vec<BmacPacket> = Vec::with_capacity(block.data.data.len() + 4);

        // --- Header section: the marshaled BlockHeader (no identities).
        let header_bytes = block.header.marshal();
        packets.push(BmacPacket {
            block_num,
            section: SectionType::Header,
            index: 0,
            total_txs,
            annotations: Vec::new(),
            payload: Bytes::from(header_bytes),
        });

        // --- Transaction sections.
        for (i, env_bytes) in block.data.data.iter().enumerate() {
            let mut sync = Vec::new();
            let (payload, mut annotations, removed) =
                self.strip_identities(env_bytes, block_num, total_txs, &mut sync)?;
            packets.extend(sync);
            annotations.extend(tx_pointers(env_bytes)?);
            self.stats.identity_bytes_removed += removed as u64;
            packets.push(BmacPacket {
                block_num,
                section: SectionType::Transaction,
                index: u16_of("transaction index", i).map_err(SendError::Packet)?,
                total_txs,
                annotations,
                payload: Bytes::from(payload),
            });
        }

        // --- Metadata section (holds the orderer identity + signature).
        let md_bytes = block.metadata.marshal();
        let mut sync = Vec::new();
        let (payload, mut annotations, removed) =
            self.strip_identities(&md_bytes, block_num, total_txs, &mut sync)?;
        packets.extend(sync);
        annotations.extend(metadata_pointers(
            &block.metadata.metadata[metadata_index::SIGNATURES],
            &md_bytes,
        )?);
        self.stats.identity_bytes_removed += removed as u64;
        packets.push(BmacPacket {
            block_num,
            section: SectionType::Metadata,
            index: 0,
            total_txs,
            annotations,
            payload: Bytes::from(payload),
        });

        // Accounting.
        let block_bytes = block.marshal().len();
        self.stats.blocks += 1;
        self.stats.packets += packets.len() as u64;
        self.stats.bmac_wire_bytes += packets
            .iter()
            .map(|p| p.encode().map(|w| w.len()).unwrap_or(0) as u64)
            .sum::<u64>();
        self.stats.gossip_wire_bytes += fabric_node::gossip::gossip_wire_bytes(block_bytes) as u64;
        self.stats.block_bytes += block_bytes as u64;
        // Validate sizes late so stats stay consistent on failure paths.
        for p in &packets {
            p.encode().map_err(SendError::Packet)?;
        }
        Ok(packets)
    }

    /// The DataRemover: finds every cached-or-discoverable identity in
    /// `bytes`, removes it, and emits locator annotations (in stripped
    /// coordinates) plus `IdentitySync` packets for new identities.
    fn strip_identities(
        &mut self,
        bytes: &[u8],
        block_num: u64,
        total_txs: u16,
        sync_out: &mut Vec<BmacPacket>,
    ) -> Result<(Vec<u8>, Vec<Annotation>, usize), SendError> {
        // Discover identities present in this section and register them.
        for ident_bytes in find_serialized_identities(bytes) {
            if self.cache.id_of(&ident_bytes).is_none() {
                let si = SerializedIdentity::unmarshal(&ident_bytes).map_err(SendError::Decode)?;
                let cert = Certificate::from_bytes(&si.id_bytes)
                    .map_err(|_| SendError::Decode(WireError::Semantic("bad certificate")))?;
                self.cache.insert(cert.node_id, ident_bytes.clone());
            }
            let id = self.cache.id_of(&ident_bytes).expect("just inserted");
            if self.synced.insert(id) {
                sync_out.push(BmacPacket {
                    block_num,
                    section: SectionType::IdentitySync,
                    index: id,
                    total_txs,
                    annotations: Vec::new(),
                    payload: Bytes::from(ident_bytes.clone()),
                });
            }
        }
        // Remove every occurrence of every cached identity.
        let mut matches: Vec<(usize, usize, u16)> = Vec::new(); // (offset, len, id)
        for (ident, id) in self.cache.known_identities() {
            let mut start = 0;
            while let Some(pos) = find_subslice(&bytes[start..], ident) {
                matches.push((start + pos, ident.len(), id));
                start += pos + ident.len();
            }
        }
        matches.sort_unstable_by_key(|&(off, _, _)| off);
        // Drop overlaps (cannot happen with distinct certificates, but
        // stay defensive).
        let mut kept: Vec<(usize, usize, u16)> = Vec::with_capacity(matches.len());
        let mut last_end = 0;
        for m in matches {
            if m.0 >= last_end {
                last_end = m.0 + m.1;
                kept.push(m);
            }
        }
        let mut stripped = Vec::with_capacity(bytes.len());
        let mut locators = Vec::with_capacity(kept.len());
        let mut pos = 0;
        let mut removed = 0;
        for (off, len, id) in kept {
            stripped.extend_from_slice(&bytes[pos..off]);
            locators.push(Annotation::Locator {
                offset: u32_of("locator offset", stripped.len()).map_err(SendError::Packet)?,
                id,
            });
            pos = off + len;
            removed += len;
        }
        stripped.extend_from_slice(&bytes[pos..]);
        Ok((stripped, locators, removed))
    }
}

/// Pointer annotations for a transaction section, in original-envelope
/// coordinates (§3.2 AnnotationGenerator).
fn tx_pointers(env_bytes: &[u8]) -> Result<Vec<Annotation>, SendError> {
    let env = Envelope::unmarshal(env_bytes).map_err(SendError::Decode)?;
    let mut out = Vec::new();
    push_pointer(
        &mut out,
        env_bytes,
        &env.signature,
        FieldKind::ClientSignature,
    )?;
    push_pointer(&mut out, env_bytes, &env.payload, FieldKind::SignedPayload)?;
    let payload = Payload::unmarshal(&env.payload).map_err(SendError::Decode)?;
    let tx = Transaction::unmarshal(&payload.data).map_err(SendError::Decode)?;
    if let Some(action) = tx.actions.first() {
        let cap = ChaincodeActionPayload::unmarshal(&action.payload).map_err(SendError::Decode)?;
        push_pointer(
            &mut out,
            env_bytes,
            &cap.action.proposal_response_payload,
            FieldKind::ProposalResponse,
        )?;
        for e in &cap.action.endorsements {
            push_pointer(
                &mut out,
                env_bytes,
                &e.signature,
                FieldKind::EndorsementSignature,
            )?;
        }
        let prp = fabric_protos::messages::ProposalResponsePayload::unmarshal(
            &cap.action.proposal_response_payload,
        )
        .map_err(SendError::Decode)?;
        let cc_action = fabric_protos::messages::ChaincodeAction::unmarshal(&prp.extension)
            .map_err(SendError::Decode)?;
        push_pointer(&mut out, env_bytes, &cc_action.results, FieldKind::RwSet)?;
    }
    Ok(out)
}

/// Pointer annotation for the orderer signature in the metadata section.
fn metadata_pointers(sig_slot: &[u8], md_bytes: &[u8]) -> Result<Vec<Annotation>, SendError> {
    let mut out = Vec::new();
    if !sig_slot.is_empty() {
        let md_sig = MetadataSignature::unmarshal(sig_slot).map_err(SendError::Decode)?;
        push_pointer(
            &mut out,
            md_bytes,
            &md_sig.signature,
            FieldKind::BlockSignature,
        )?;
    }
    Ok(out)
}

fn push_pointer(
    out: &mut Vec<Annotation>,
    haystack: &[u8],
    needle: &[u8],
    kind: FieldKind,
) -> Result<(), SendError> {
    if needle.is_empty() {
        return Ok(());
    }
    if let Some(off) = find_subslice(haystack, needle) {
        out.push(Annotation::Pointer {
            kind,
            offset: u32_of("pointer offset", off).map_err(SendError::Packet)?,
            length: u32_of("pointer length", needle.len()).map_err(SendError::Packet)?,
        });
    }
    Ok(())
}

/// Finds marshaled `SerializedIdentity` values inside `bytes` by decoding
/// the envelope layers (the sender-side equivalent of "checks for the
/// presence of identities in a section").
fn find_serialized_identities(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut push_unique = |v: Vec<u8>| {
        if !v.is_empty() && !out.contains(&v) {
            out.push(v);
        }
    };
    // Try as an envelope.
    if let Ok(env) = Envelope::unmarshal(bytes) {
        if let Ok(payload) = Payload::unmarshal(&env.payload) {
            if let Ok(sh) = fabric_protos::messages::SignatureHeader::unmarshal(
                &payload.header.signature_header,
            ) {
                if looks_like_identity(&sh.creator) {
                    push_unique(sh.creator);
                }
            }
            if let Ok(tx) = Transaction::unmarshal(&payload.data) {
                for action in &tx.actions {
                    if let Ok(sh) =
                        fabric_protos::messages::SignatureHeader::unmarshal(&action.header)
                    {
                        if looks_like_identity(&sh.creator) {
                            push_unique(sh.creator);
                        }
                    }
                    if let Ok(cap) = ChaincodeActionPayload::unmarshal(&action.payload) {
                        for e in &cap.action.endorsements {
                            if looks_like_identity(&e.endorser) {
                                push_unique(e.endorser.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    // Try as block metadata (orderer identity in the signatures slot).
    if let Ok(md) = fabric_protos::messages::BlockMetadata::unmarshal(bytes) {
        if let Some(slot) = md.metadata.first() {
            if let Ok(md_sig) = MetadataSignature::unmarshal(slot) {
                if let Ok(sh) =
                    fabric_protos::messages::SignatureHeader::unmarshal(&md_sig.signature_header)
                {
                    if looks_like_identity(&sh.creator) {
                        push_unique(sh.creator);
                    }
                }
            }
        }
    }
    out
}

fn looks_like_identity(bytes: &[u8]) -> bool {
    SerializedIdentity::unmarshal(bytes)
        .map(|si| !si.id_bytes.is_empty())
        .unwrap_or(false)
}

/// Naive subslice search (identities are high-entropy; early exit makes
/// this effectively linear).
pub(crate) fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || needle.len() > haystack.len() {
        return None;
    }
    let first = needle[0];
    let mut i = 0;
    while i + needle.len() <= haystack.len() {
        if haystack[i] == first && &haystack[i..i + needle.len()] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn find_subslice_works() {
        assert_eq!(find_subslice(b"hello world", b"world"), Some(6));
        assert_eq!(find_subslice(b"hello", b"xyz"), None);
        assert_eq!(find_subslice(b"", b"x"), None);
        assert_eq!(find_subslice(b"abc", b""), None);
        assert_eq!(find_subslice(b"aaab", b"aab"), Some(1));
    }
}
