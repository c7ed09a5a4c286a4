//! BMac receiver: reassembly; the consumer decodes.
//!
//! The link half of the hardware `protocol_processor` (§3.2, Figure
//! 5b): classify packets, keep the identity cache in sync, and put the
//! cached identity bytes back at each locator (DataInserter) so every
//! section — and hence the block — is restored byte-exactly. A block is
//! parked while a locator names an identity whose sync packet has not
//! arrived.
//!
//! Nothing here looks inside an envelope. Field extraction and hashing
//! (DataExtractor / DataProcessor / HashCalculator) happen once, in
//! whoever consumes the [`ReceivedBlock`]: `fabric-peer`'s verify stage
//! and the `bmac-hw` machine both run
//! `fabric_protos::txflow::decode_block_struct` on the completed block,
//! and that single decode is also what rejects an envelope that does not
//! parse.

use std::collections::HashMap;

use fabric_crypto::identity::Certificate;
use fabric_protos::messages::{Block, BlockData, BlockHeader, BlockMetadata, SerializedIdentity};
use fabric_protos::wire::WireError;

use crate::cache::IdentityCache;
use crate::packet::{Annotation, BmacPacket, PacketError, SectionType};

/// A block fully reassembled from BMac packets.
#[derive(Debug, Clone)]
pub struct ReceivedBlock {
    /// The byte-exact reconstructed block.
    pub block: Block,
    /// Total wire bytes consumed for this block (excluding syncs).
    pub wire_bytes: usize,
}

/// Errors from packet ingestion.
#[derive(Debug)]
pub enum ReceiveError {
    /// Packet-level decode failure.
    Packet(PacketError),
    /// A locator referenced an id missing from the cache (a lost
    /// IdentitySync packet).
    UnknownIdentity(u16),
    /// The reconstructed header or metadata section failed to decode.
    Decode(WireError),
    /// The reconstructed section failed a structural expectation.
    Malformed(&'static str),
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiveError::Packet(e) => write!(f, "bad packet: {e}"),
            ReceiveError::UnknownIdentity(id) => {
                write!(f, "identity {id:#06x} not in cache (lost sync packet?)")
            }
            ReceiveError::Decode(e) => write!(f, "reconstructed section undecodable: {e}"),
            ReceiveError::Malformed(what) => write!(f, "malformed section: {what}"),
        }
    }
}

impl std::error::Error for ReceiveError {}

#[derive(Debug, Default)]
struct PartialBlock {
    header: Option<Vec<u8>>,
    metadata: Option<(Vec<u8>, Vec<Annotation>)>,
    /// Transaction sections by index; every key is below `total_txs`.
    txs: HashMap<u16, (Vec<u8>, Vec<Annotation>)>,
    /// The block's transaction count, fixed by its first packet.
    total_txs: Option<u16>,
    wire_bytes: usize,
}

impl PartialBlock {
    /// All keys of `txs` are distinct and below `total_txs`, so a full
    /// count means indices `0..total_txs` are all present.
    fn is_complete(&self) -> bool {
        self.header.is_some()
            && self.metadata.is_some()
            && self.total_txs.map(usize::from) == Some(self.txs.len())
    }
}

/// Receiver statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// BMac packets accepted.
    pub packets: u64,
    /// Non-BMac packets forwarded to the host.
    pub forwarded: u64,
    /// Blocks completed.
    pub blocks: u64,
    /// Identity-cache entries installed.
    pub identities: u64,
    /// Section packets discarded because their block had already
    /// completed (late duplicates on the wire).
    pub late_duplicates: u64,
}

/// The software BMac receiver.
#[derive(Debug, Default)]
pub struct BmacReceiver {
    cache: IdentityCache,
    partial: HashMap<u64, PartialBlock>,
    /// Numbers of blocks already delivered: a duplicate section arriving
    /// after its block completed must be dropped, not allowed to seed a
    /// ghost partial block (which would both report a phantom loss and,
    /// under full duplication, deliver the block twice). Only the
    /// out-of-order frontier is stored; everything at or below
    /// `completed_watermark` is pruned, so memory stays O(reorder depth)
    /// when numbering is dense from the watermark (block 0 for
    /// [`BmacReceiver::new`]; use [`BmacReceiver::resuming_from`] when
    /// attaching mid-chain, otherwise the set grows by one entry per
    /// delivered block).
    completed: std::collections::HashSet<u64>,
    /// All blocks `0..=watermark` are considered delivered.
    completed_watermark: Option<u64>,
    stats: ReceiverStats,
}

impl BmacReceiver {
    /// Creates a receiver with an empty identity cache.
    pub fn new() -> Self {
        BmacReceiver::default()
    }

    /// Creates a receiver attached to a chain whose next expected block
    /// is `next_block` (the resuming peer's `Ledger::next_block_number`):
    /// sections for blocks below it are discarded as late duplicates,
    /// and the completed-block memory stays bounded by the reorder depth
    /// instead of growing per delivered block.
    pub fn resuming_from(next_block: u64) -> Self {
        BmacReceiver {
            completed_watermark: next_block.checked_sub(1),
            ..BmacReceiver::default()
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Block numbers currently incomplete (for loss detection; the
    /// protocol has no retransmission, §5).
    pub fn incomplete_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.partial.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Ingests one wire packet. Returns any blocks completed by this
    /// packet (usually zero or one; an identity-sync packet can release
    /// several blocks that were waiting on it). Non-BMac packets are
    /// counted as forwarded.
    ///
    /// # Errors
    ///
    /// [`ReceiveError`] on malformed BMac packets or reconstruction
    /// failures.
    pub fn ingest(&mut self, wire: &[u8]) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let packet = match BmacPacket::decode(wire) {
            Ok(p) => p,
            Err(PacketError::NotBmac) => {
                self.stats.forwarded += 1;
                return Ok(Vec::new());
            }
            Err(e) => return Err(ReceiveError::Packet(e)),
        };
        self.stats.packets += 1;
        self.ingest_packet(packet, wire.len())
    }

    /// Ingests an already-parsed packet (the hardware simulator path).
    ///
    /// Blocks whose sections are all present but which reference an
    /// identity not yet synchronized are held back until the sync
    /// arrives — UDP gives no ordering guarantee between a sync packet
    /// and a later block's sections.
    ///
    /// # Errors
    ///
    /// [`ReceiveError::Malformed`] for a transaction index at or above
    /// the block's transaction count, a count that differs from the one
    /// the block's first packet announced, or an identity sync that is
    /// not a certificate for the id it names or that re-points a known
    /// id at other bytes (the packet is dropped); otherwise
    /// [`ReceiveError`] on reconstruction failures.
    pub fn ingest_packet(
        &mut self,
        packet: BmacPacket,
        wire_len: usize,
    ) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        if packet.section == SectionType::IdentitySync {
            self.sync_identity(packet.index, &packet.payload)?;
            // The new identity may unblock complete-but-waiting blocks.
            return self.drain_ready();
        }
        if self.is_completed(packet.block_num) {
            self.stats.late_duplicates += 1;
            return Ok(Vec::new());
        }
        if packet.section == SectionType::Transaction && packet.index >= packet.total_txs {
            return Err(ReceiveError::Malformed(
                "transaction index not below the block's transaction count",
            ));
        }
        let partial = self.partial.entry(packet.block_num).or_default();
        if *partial.total_txs.get_or_insert(packet.total_txs) != packet.total_txs {
            return Err(ReceiveError::Malformed(
                "transaction count differs from the block's first packet",
            ));
        }
        partial.wire_bytes += wire_len;
        match packet.section {
            SectionType::Header => partial.header = Some(packet.payload.to_vec()),
            SectionType::Metadata => {
                partial.metadata = Some((packet.payload.to_vec(), packet.annotations))
            }
            SectionType::Transaction => {
                partial
                    .txs
                    .insert(packet.index, (packet.payload.to_vec(), packet.annotations));
            }
            SectionType::IdentitySync => unreachable!("handled above"),
        }
        if !self.partial[&packet.block_num].is_complete() {
            return Ok(Vec::new());
        }
        self.complete_one(packet.block_num)
    }

    /// Installs a synchronized identity. Every later block is
    /// reassembled from these bytes, so a sync must carry a certificate
    /// whose node id is the id it is filed under, and may never replace
    /// the bytes of an id already known (a retransmitted, identical sync
    /// is idempotent).
    fn sync_identity(&mut self, id: u16, payload: &[u8]) -> Result<(), ReceiveError> {
        let cert = SerializedIdentity::unmarshal(payload)
            .ok()
            .and_then(|si| Certificate::from_bytes(&si.id_bytes).ok())
            .ok_or(ReceiveError::Malformed(
                "identity sync payload is not a certificate",
            ))?;
        if cert.node_id.encode() != id {
            return Err(ReceiveError::Malformed(
                "identity sync id does not match its certificate",
            ));
        }
        match self.cache.bytes_of(id) {
            Some(known) if known == payload => Ok(()),
            Some(_) => Err(ReceiveError::Malformed(
                "identity sync re-points a known id at different bytes",
            )),
            None => {
                self.cache.insert_raw(id, payload.to_vec());
                self.stats.identities += 1;
                Ok(())
            }
        }
    }

    fn is_completed(&self, block_num: u64) -> bool {
        match self.completed_watermark {
            Some(w) if block_num <= w => true,
            _ => self.completed.contains(&block_num),
        }
    }

    fn mark_completed(&mut self, block_num: u64) {
        self.completed.insert(block_num);
        // Advance the dense prefix and prune everything under it.
        loop {
            let next = self.completed_watermark.map_or(0, |w| w + 1);
            if self.completed.remove(&next) {
                self.completed_watermark = Some(next);
            } else {
                break;
            }
        }
    }

    /// Attempts to finish every structurally complete block.
    fn drain_ready(&mut self) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let ready: Vec<u64> = self
            .partial
            .iter()
            .filter(|(_, p)| p.is_complete())
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::new();
        for n in ready {
            out.extend(self.complete_one(n)?);
        }
        Ok(out)
    }

    /// Finishes one complete block, or leaves it parked when an identity
    /// is still missing (reassembly is side-effect free).
    fn complete_one(&mut self, block_num: u64) -> Result<Vec<ReceivedBlock>, ReceiveError> {
        let result = {
            let partial = self.partial.get(&block_num).expect("present");
            self.reassemble(partial)
        };
        match result {
            Ok(block) => {
                self.partial.remove(&block_num);
                self.mark_completed(block_num);
                self.stats.blocks += 1;
                Ok(vec![block])
            }
            Err(ReceiveError::UnknownIdentity(_)) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// The DataInserter: reinsert cached identity bytes at each locator
    /// offset, restoring the original section byte-exactly.
    fn reconstruct(
        &self,
        stripped: &[u8],
        annotations: &[Annotation],
    ) -> Result<Vec<u8>, ReceiveError> {
        let mut locators: Vec<(u32, u16)> = annotations
            .iter()
            .filter_map(|a| match a {
                Annotation::Locator { offset, id } => Some((*offset, *id)),
                _ => None,
            })
            .collect();
        locators.sort_by_key(|&(off, _)| off);
        // Every locator is resolved before the output is allocated, once,
        // at its exact size: a section naming identities this receiver
        // does not hold reserves nothing for them.
        let inserts = locators
            .into_iter()
            .map(|(offset, id)| {
                let offset = offset as usize;
                if offset > stripped.len() {
                    return Err(ReceiveError::Malformed("locator offset out of range"));
                }
                let ident = self.cache.bytes_of(id);
                Ok((offset, ident.ok_or(ReceiveError::UnknownIdentity(id))?))
            })
            .collect::<Result<Vec<(usize, &[u8])>, ReceiveError>>()?;
        let inserted: usize = inserts.iter().map(|(_, ident)| ident.len()).sum();
        let mut out = Vec::with_capacity(stripped.len() + inserted);
        #[cfg(test)]
        RESERVED.with(|r| r.set(r.get() + out.capacity()));
        let mut pos = 0usize;
        for (offset, ident) in inserts {
            out.extend_from_slice(&stripped[pos..offset]);
            out.extend_from_slice(ident);
            pos = offset;
        }
        out.extend_from_slice(&stripped[pos..]);
        Ok(out)
    }

    fn reassemble(&self, partial: &PartialBlock) -> Result<ReceivedBlock, ReceiveError> {
        const INCOMPLETE: ReceiveError = ReceiveError::Malformed("block section missing");
        let header_bytes = partial.header.as_ref().ok_or(INCOMPLETE)?;
        let (md_stripped, md_annotations) = partial.metadata.as_ref().ok_or(INCOMPLETE)?;
        let header = BlockHeader::unmarshal(header_bytes).map_err(ReceiveError::Decode)?;
        let md_bytes = self.reconstruct(md_stripped, md_annotations)?;
        let metadata = BlockMetadata::unmarshal(&md_bytes).map_err(ReceiveError::Decode)?;

        // Envelopes, in order; the capacity is the number of sections
        // actually received, not a count read off the wire.
        let mut envelopes = Vec::with_capacity(partial.txs.len());
        for i in 0..partial.total_txs.ok_or(INCOMPLETE)? {
            let (stripped, annotations) = partial.txs.get(&i).ok_or(INCOMPLETE)?;
            envelopes.push(self.reconstruct(stripped, annotations)?);
        }

        Ok(ReceivedBlock {
            block: Block {
                header,
                data: BlockData { data: envelopes },
                metadata,
            },
            wire_bytes: partial.wire_bytes,
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes [`BmacReceiver::reconstruct`] reserved on this thread.
    static RESERVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::BmacSender;
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

    fn roundtrip(block: &Block) -> ReceivedBlock {
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(block).unwrap();
        let mut done = None;
        for p in packets {
            let wire = p.encode().unwrap();
            for b in receiver.ingest(&wire).unwrap() {
                done = Some(b);
            }
        }
        done.expect("block completed")
    }

    #[test]
    fn reconstruction_is_byte_exact() {
        let block = one_block(3);
        let received = roundtrip(&block);
        assert_eq!(received.block.marshal(), block.marshal());
    }

    #[test]
    fn out_of_order_packets_still_complete() {
        let block = one_block(4);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let mut packets = sender.send_block(&block).unwrap();
        // Keep syncs first (sender guarantees delivery ordering of syncs
        // before first use in our in-order link; reverse only the rest).
        let syncs: Vec<_> = packets
            .iter()
            .filter(|p| p.section == SectionType::IdentitySync)
            .cloned()
            .collect();
        packets.retain(|p| p.section != SectionType::IdentitySync);
        packets.reverse();
        let mut done = None;
        for p in syncs.into_iter().chain(packets) {
            for b in receiver.ingest(&p.encode().unwrap()).unwrap() {
                done = Some(b);
            }
        }
        assert!(done.is_some());
        assert_eq!(done.unwrap().block.marshal(), block.marshal());
    }

    #[test]
    fn lost_packet_leaves_block_incomplete() {
        let block = one_block(3);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = false;
        let mut dropped = false;
        for p in packets.iter() {
            // Drop the first transaction section.
            if p.section == SectionType::Transaction && !dropped {
                dropped = true;
                continue;
            }
            if !receiver.ingest(&p.encode().unwrap()).unwrap().is_empty() {
                completed = true;
            }
        }
        assert!(dropped);
        assert!(!completed);
        assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
    }

    #[test]
    fn lost_sync_packet_is_detected() {
        let block = one_block(1);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = 0;
        for p in packets {
            if p.section == SectionType::IdentitySync {
                continue; // lose all syncs
            }
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        // The block never completes — it stays parked waiting for the
        // identity sync, and loss is observable via incomplete_blocks().
        assert_eq!(completed, 0);
        assert_eq!(receiver.incomplete_blocks(), vec![block.header.number]);
    }

    #[test]
    fn unresolved_locators_reserve_nothing_and_resolved_ones_their_exact_size() {
        // 65 535 locators in one section used to reserve 59 MB before
        // the first id was looked up.
        let receiver = BmacReceiver::new();
        let locators = vec![Annotation::Locator { offset: 0, id: 7 }; u16::MAX as usize];
        RESERVED.with(|r| r.set(0));
        assert!(matches!(
            receiver.reconstruct(b"stripped", &locators),
            Err(ReceiveError::UnknownIdentity(7))
        ));
        assert_eq!(RESERVED.with(|r| r.get()), 0);
        // With every identity held, each section is allocated once at
        // the size it comes out at.
        let block = one_block(3);
        let received = roundtrip(&block);
        let sections = received.block.data.data.iter();
        let exact: usize =
            sections.map(Vec::len).sum::<usize>() + received.block.metadata.marshal().len();
        assert_eq!(RESERVED.with(|r| r.get()), exact);
    }

    #[test]
    fn late_duplicates_after_completion_are_dropped() {
        let block = one_block(2);
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let packets = sender.send_block(&block).unwrap();
        let mut completed = 0;
        for p in &packets {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 1);
        // Replaying the whole block (a full wire-level duplicate) must
        // not deliver it twice NOR seed a ghost partial that would read
        // as a phantom loss.
        for p in &packets {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 1);
        assert!(receiver.incomplete_blocks().is_empty());
        assert!(receiver.stats().late_duplicates > 0);
    }

    #[test]
    fn resuming_receiver_drops_blocks_below_the_chain_tip() {
        let mut current = one_block(1);
        current.header.number = 5;
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::resuming_from(5);
        let mut done = 0;
        for p in sender.send_block(&current).unwrap() {
            done += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(done, 1, "the expected block still completes");
        // A replayed block from below the resume point is discarded as a
        // late duplicate — no ghost partial, no phantom loss report.
        let mut old = one_block(1);
        old.header.number = 3;
        for p in sender.send_block(&old).unwrap() {
            assert!(receiver.ingest(&p.encode().unwrap()).unwrap().is_empty());
        }
        assert!(receiver.stats().late_duplicates > 0);
        assert!(receiver.incomplete_blocks().is_empty());
    }

    #[test]
    fn non_bmac_traffic_is_forwarded() {
        let mut receiver = BmacReceiver::new();
        let result = receiver.ingest(&[0u8; 100]).unwrap();
        assert!(result.is_empty());
        assert_eq!(receiver.stats().forwarded, 1);
    }

    #[test]
    fn multiple_blocks_interleaved() {
        let b1 = one_block(2);
        let mut b2 = one_block(2);
        // Give the second block a different number so both are tracked.
        b2.header.number = 1;
        let mut sender = BmacSender::new();
        let mut receiver = BmacReceiver::new();
        let mut p1 = sender.send_block(&b1).unwrap();
        let mut p2 = sender.send_block(&b2).unwrap();
        // Interleave sections of the two blocks (alternating, preserving
        // per-block order so identity syncs precede their first use).
        let mut interleaved = Vec::with_capacity(p1.len() + p2.len());
        while !p1.is_empty() || !p2.is_empty() {
            if !p1.is_empty() {
                interleaved.push(p1.remove(0));
            }
            if !p2.is_empty() {
                interleaved.push(p2.remove(0));
            }
        }
        let mut completed = 0;
        for p in interleaved {
            completed += receiver.ingest(&p.encode().unwrap()).unwrap().len();
        }
        assert_eq!(completed, 2);
    }
}
