//! The BMac sender held to the scan it replaced.
//!
//! `BmacSender` finds a section's identities and annotated fields with
//! one walk of it in place (`fabric_protos::txflow::SectionSpans`). The
//! sender before it is kept below as [`ReferenceSender`]: it unmarshaled
//! every layer into owned structs, searched each envelope for every
//! annotated field and for every cached identity, marshaled the block
//! for its length and encoded every packet to size it. Over smallbank,
//! drm and kv streams — fault-injected, with clients and endorsers
//! whose identities first appear mid-stream and mid-block — the two
//! must emit equal packets, byte-identical once encoded, and equal
//! `SenderStats`, and every block must reassemble byte-exactly.
//!
//! They differ by design in two places no generated stream reaches,
//! each with a test below that shows the block still crosses the link
//! byte-exactly:
//!
//! * a pointer gives its own field's offset; the reference gave the
//!   first occurrence of the same bytes (a duplicated endorsement);
//! * a known identity's bytes outside the named identity fields (inside
//!   a write value) stay inline; the reference cut every occurrence.
//!
//! Where the reference refused a block the peer accepts — an identity
//! in an action header or a later action whose certificate does not
//! parse — the sender sends it, that identity inline. Where the peer's
//! decode rejects an envelope at a layer the sender walks with the
//! decode's own function — no action, a tx id or chaincode name that is
//! not UTF-8 — the sender refuses the block (the reference sent the
//! first two).
//!
//! And over hostile input — every envelope of `decode_differential`'s
//! corpus placed in a block, and the orderer-signature slot mutated at
//! every offset — the sender either refuses the block with
//! `SendError::Decode`, leaving itself as it was, or emits packets that
//! `BmacReceiver` reassembles byte-exactly. Nothing panics. A refused
//! block stalls every BMac peer at its number, so the sender refuses
//! one only where the peer's `decode_transaction` rejects an envelope of
//! it, or where the reference refuses it too.

use std::collections::HashMap;

use bmac_protocol::{
    Annotation, BmacPacket, BmacReceiver, BmacSender, FieldKind, PacketError, SectionType,
    SendError, SenderStats,
};
use fabric_crypto::identity::{Certificate, Msp, Role, SigningIdentity};
use fabric_node::chaincode::KvChaincode;
use fabric_node::network::FabricNetworkBuilder;
use fabric_policy::parse;
use fabric_protos::messages::{
    metadata_index, Block, ChaincodeActionPayload, Envelope, MetadataSignature, Payload,
    SerializedIdentity, Transaction,
};
use fabric_protos::txflow::{
    block_header_hash, build_block, build_transaction, decode_transaction, serialize_identity,
    TxParams,
};
use fabric_protos::wire::WireError;
use workload::{StreamScenario, Workload};

mod corpus;

// ---------------------------------------------------------------------
// The reference: the sender as it was before the walk.
// ---------------------------------------------------------------------

/// The reference's identity cache: bytes ↔ id, scanned in full.
#[derive(Debug, Default)]
struct ReferenceCache {
    by_bytes: HashMap<Vec<u8>, u16>,
    by_id: HashMap<u16, Vec<u8>>,
}

impl ReferenceCache {
    fn insert(&mut self, raw: u16, identity_bytes: Vec<u8>) {
        if let Some(existing) = self.by_id.get(&raw) {
            assert_eq!(
                existing, &identity_bytes,
                "id {raw:#06x} already cached with different identity bytes"
            );
            return;
        }
        self.by_bytes.insert(identity_bytes.clone(), raw);
        self.by_id.insert(raw, identity_bytes);
    }

    fn id_of(&self, identity_bytes: &[u8]) -> Option<u16> {
        self.by_bytes.get(identity_bytes).copied()
    }
}

fn u16_of(what: &'static str, value: usize) -> Result<u16, PacketError> {
    u16::try_from(value).map_err(|_| PacketError::TooLarge { what, value })
}

fn u32_of(what: &'static str, value: usize) -> Result<u32, PacketError> {
    u32::try_from(value).map_err(|_| PacketError::TooLarge { what, value })
}

/// The sender before the walk.
#[derive(Debug, Default)]
struct ReferenceSender {
    cache: ReferenceCache,
    synced: std::collections::HashSet<u16>,
    stats: SenderStats,
}

impl ReferenceSender {
    fn send_block(&mut self, block: &Block) -> Result<Vec<BmacPacket>, SendError> {
        let total_txs =
            u16_of("transaction count", block.data.data.len()).map_err(SendError::Packet)?;
        let block_num = block.header.number;
        let mut packets: Vec<BmacPacket> = Vec::with_capacity(block.data.data.len() + 4);

        let header_bytes = block.header.marshal();
        packets.push(BmacPacket {
            block_num,
            section: SectionType::Header,
            index: 0,
            total_txs,
            annotations: Vec::new(),
            payload: header_bytes.into(),
        });

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
                payload: payload.into(),
            });
        }

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
            payload: payload.into(),
        });

        let block_bytes = block.marshal().len();
        self.stats.blocks += 1;
        self.stats.packets += packets.len() as u64;
        self.stats.bmac_wire_bytes += packets
            .iter()
            .map(|p| p.encode().map(|w| w.len()).unwrap_or(0) as u64)
            .sum::<u64>();
        self.stats.gossip_wire_bytes += fabric_sim::gossip::gossip_wire_bytes(block_bytes) as u64;
        self.stats.block_bytes += block_bytes as u64;
        for p in &packets {
            p.encode().map_err(SendError::Packet)?;
        }
        Ok(packets)
    }

    fn strip_identities(
        &mut self,
        bytes: &[u8],
        block_num: u64,
        total_txs: u16,
        sync_out: &mut Vec<BmacPacket>,
    ) -> Result<(Vec<u8>, Vec<Annotation>, usize), SendError> {
        for ident_bytes in find_serialized_identities(bytes) {
            if self.cache.id_of(&ident_bytes).is_none() {
                let si = SerializedIdentity::unmarshal(&ident_bytes).map_err(SendError::Decode)?;
                let cert = Certificate::from_bytes(&si.id_bytes)
                    .map_err(|_| SendError::Decode(WireError::Semantic("bad certificate")))?;
                self.cache
                    .insert(cert.node_id.encode(), ident_bytes.clone());
            }
            let id = self.cache.id_of(&ident_bytes).expect("just inserted");
            if self.synced.insert(id) {
                sync_out.push(BmacPacket {
                    block_num,
                    section: SectionType::IdentitySync,
                    index: id,
                    total_txs,
                    annotations: Vec::new(),
                    payload: ident_bytes.clone().into(),
                });
            }
        }
        let mut matches: Vec<(usize, usize, u16)> = Vec::new();
        for (ident, &id) in &self.cache.by_bytes {
            let mut start = 0;
            while let Some(pos) = find_subslice(&bytes[start..], ident) {
                matches.push((start + pos, ident.len(), id));
                start += pos + ident.len();
            }
        }
        matches.sort_unstable_by_key(|&(off, _, _)| off);
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

fn find_serialized_identities(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut push_unique = |v: Vec<u8>| {
        if !v.is_empty() && !out.contains(&v) {
            out.push(v);
        }
    };
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

/// Naive subslice search.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
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

#[test]
fn find_subslice_works() {
    assert_eq!(find_subslice(b"hello world", b"world"), Some(6));
    assert_eq!(find_subslice(b"hello", b"xyz"), None);
    assert_eq!(find_subslice(b"", b"x"), None);
    assert_eq!(find_subslice(b"abc", b""), None);
    assert_eq!(find_subslice(b"aaab", b"aab"), Some(1));
}

// ---------------------------------------------------------------------
// Streams.
// ---------------------------------------------------------------------

/// Re-chains `blocks` from block 0 under `orderer` (data hashes,
/// previous hashes, orderer signatures).
fn rechain(blocks: &mut [Block], orderer: &SigningIdentity) {
    let mut prev = [0u8; 32];
    for (number, block) in blocks.iter_mut().enumerate() {
        *block = build_block(number as u64, &prev, block.data.data.clone(), orderer);
        prev = block_header_hash(&block.header);
    }
}

/// `scenario`'s stream with one envelope from another client — three
/// clients in turn, two of them in the other organization — endorsed by
/// a second pair of endorsers, put in the middle of each block of the
/// second half: those identities first appear mid-stream and mid-block.
fn with_more_clients(scenario: StreamScenario) -> Vec<Block> {
    let mut blocks = scenario.generate().blocks;
    let mut msp = Msp::new(2);
    let clients: Vec<SigningIdentity> = [(0, 1), (1, 0), (1, 1)]
        .into_iter()
        .map(|(org, seq)| msp.issue(org, Role::Client, seq).unwrap())
        .collect();
    let endorsers = [
        msp.issue(0, Role::Peer, 1).unwrap(),
        msp.issue(1, Role::Peer, 1).unwrap(),
    ];
    let half = blocks.len() / 2;
    for (k, block) in blocks.iter_mut().enumerate().skip(half) {
        let params = TxParams {
            channel_id: "mychannel",
            chaincode: scenario.workload.chaincode(),
            reads: vec![],
            writes: vec![(format!("extra{k}"), b"1".to_vec())],
            nonce: (k as u64).to_be_bytes().to_vec(),
            timestamp: 1_700_000_000,
        };
        let client = &clients[k % clients.len()];
        let envelope = build_transaction(client, &[&endorsers[0], &endorsers[1]], &params);
        let at = block.data.data.len() / 2;
        block.data.data.insert(at, envelope.envelope);
    }
    rechain(&mut blocks, &scenario.orderer());
    blocks
}

/// A kv stream from four clients over two organizations, each taking
/// over from the last every seven transactions.
fn kv_stream() -> Vec<Block> {
    let mut net = FabricNetworkBuilder::new()
        .orgs(2)
        .clients(4)
        .block_size(5)
        .chaincode("kv", parse("2-outof-2 orgs").unwrap())
        .build();
    net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
    let mut blocks: Vec<Block> = (0..30)
        .flat_map(|i| {
            net.submit_invocation(i / 7 % 4, "kv", "put", &[format!("k{i}"), format!("{i}")])
                .unwrap()
        })
        .collect();
    blocks.extend(net.cut_partial_block());
    blocks
}

fn streams() -> Vec<(&'static str, Vec<Block>)> {
    vec![
        (
            "smallbank",
            with_more_clients(StreamScenario {
                workload: Workload::Smallbank,
                accounts: 8,
                block_size: 10,
                num_blocks: 6,
                stale_commit_pct: 30,
                corrupt_sigs: 2,
                duplicate_txs: 2,
                seed: 41,
            }),
        ),
        (
            "drm",
            with_more_clients(StreamScenario {
                workload: Workload::Drm,
                accounts: 8,
                block_size: 10,
                num_blocks: 6,
                stale_commit_pct: 0,
                corrupt_sigs: 1,
                duplicate_txs: 1,
                seed: 43,
            }),
        ),
        ("kv", kv_stream()),
    ]
}

/// Feeds `packets` to `receiver` and returns the one block they
/// complete.
fn reassemble(receiver: &mut BmacReceiver, packets: &[BmacPacket]) -> Block {
    let mut done = Vec::new();
    for p in packets {
        done.extend(receiver.ingest(&p.encode().unwrap()).unwrap());
    }
    assert_eq!(done.len(), 1, "one block completes");
    done.pop().unwrap().block
}

fn syncs(packets: &[BmacPacket]) -> usize {
    packets
        .iter()
        .filter(|p| p.section == SectionType::IdentitySync)
        .count()
}

#[test]
fn the_walk_sends_what_the_scan_sent_on_every_generated_stream() {
    for (name, blocks) in streams() {
        let mut sender = BmacSender::new();
        let mut reference = ReferenceSender::default();
        let mut receiver = BmacReceiver::new();
        let mut later_syncs = 0;
        for block in &blocks {
            let packets = sender.send_block(block).unwrap();
            let expected = reference.send_block(block).unwrap();
            let n = block.header.number;
            assert_eq!(packets, expected, "{name}: block {n}");
            for (p, q) in packets.iter().zip(&expected) {
                assert_eq!(
                    p.encode().unwrap(),
                    q.encode().unwrap(),
                    "{name}: block {n}"
                );
            }
            assert_eq!(sender.stats(), reference.stats, "{name}: block {n}");
            if n > 0 {
                later_syncs += syncs(&packets);
            }
            assert_eq!(
                reassemble(&mut receiver, &packets).marshal(),
                block.marshal(),
                "{name}: block {n}"
            );
        }
        assert!(
            later_syncs >= 3,
            "{name}: only {later_syncs} identities first appear after block 0"
        );
        assert!(receiver.incomplete_blocks().is_empty());
    }
}

// ---------------------------------------------------------------------
// The two declared differences.
// ---------------------------------------------------------------------

/// An MSP's client, two endorsers (one per org) and orderer.
fn identities(msp: &mut Msp) -> [SigningIdentity; 4] {
    [
        msp.issue(0, Role::Client, 0).unwrap(),
        msp.issue(0, Role::Peer, 0).unwrap(),
        msp.issue(1, Role::Peer, 0).unwrap(),
        msp.issue(0, Role::Orderer, 0).unwrap(),
    ]
}

fn params(nonce: u8, writes: Vec<(String, Vec<u8>)>) -> TxParams<'static> {
    TxParams {
        channel_id: "mychannel",
        chaincode: "kv",
        reads: vec![],
        writes,
        nonce: vec![nonce; 8],
        timestamp: 1_700_000_000,
    }
}

/// The transaction section of `packets`' block, with index `index`.
fn tx_section(packets: &[BmacPacket], index: u16) -> &BmacPacket {
    packets
        .iter()
        .find(|p| p.section == SectionType::Transaction && p.index == index)
        .unwrap()
}

fn pointers(packet: &BmacPacket, kind: FieldKind) -> Vec<(u32, u32)> {
    packet
        .annotations
        .iter()
        .filter_map(|a| match *a {
            Annotation::Pointer {
                kind: k,
                offset,
                length,
            } if k == kind => Some((offset, length)),
            _ => None,
        })
        .collect()
}

fn locators(packet: &BmacPacket) -> usize {
    packet
        .annotations
        .iter()
        .filter(|a| matches!(a, Annotation::Locator { .. }))
        .count()
}

#[test]
fn a_duplicated_endorsement_is_pointed_at_where_it_is() {
    // Deterministic ECDSA: the same endorser twice signs the same bytes
    // twice, so the two endorsements are equal byte strings.
    let mut msp = Msp::new(2);
    let [client, endorser, _, orderer] = identities(&mut msp);
    let built = build_transaction(&client, &[&endorser, &endorser], &params(1, vec![]));
    let block = build_block(0, &[0; 32], vec![built.envelope], &orderer);

    let packets = BmacSender::new().send_block(&block).unwrap();
    let expected = ReferenceSender::default().send_block(&block).unwrap();
    let ours = pointers(tx_section(&packets, 0), FieldKind::EndorsementSignature);
    let theirs = pointers(tx_section(&expected, 0), FieldKind::EndorsementSignature);
    assert_eq!(ours.len(), 2);
    assert_eq!(
        theirs,
        vec![ours[0], ours[0]],
        "the scan finds the first twice"
    );
    assert!(ours[1].0 > ours[0].0, "the walk points at each field");
    // Each pointer names the signature bytes at its own offset.
    let envelope = &block.data.data[0];
    for (offset, length) in &ours {
        let at = *offset as usize..(*offset + *length) as usize;
        assert!(fabric_crypto::der::decode_signature(&envelope[at]).is_ok());
    }
    // Nothing else differs, and the block crosses byte-exactly.
    let without = |packets: &[BmacPacket]| {
        let mut packets = packets.to_vec();
        for p in &mut packets {
            p.annotations.retain(|a| {
                !matches!(
                    a,
                    Annotation::Pointer {
                        kind: FieldKind::EndorsementSignature,
                        ..
                    }
                )
            });
        }
        packets
    };
    assert_eq!(without(&packets), without(&expected));
    let mut receiver = BmacReceiver::new();
    assert_eq!(
        reassemble(&mut receiver, &packets).marshal(),
        block.marshal()
    );
}

#[test]
fn a_known_identity_inside_a_write_value_stays_inline() {
    let mut msp = Msp::new(2);
    let [client, e0, e1, orderer] = identities(&mut msp);
    let known = serialize_identity(&client);
    let first = build_transaction(&client, &[&e0, &e1], &params(1, vec![]));
    let carrying = build_transaction(
        &client,
        &[&e0, &e1],
        &params(2, vec![("k".into(), known.clone())]),
    );
    let mut blocks = vec![
        build_block(0, &[0; 32], vec![first.envelope], &orderer),
        build_block(0, &[0; 32], vec![carrying.envelope], &orderer),
    ];
    rechain(&mut blocks, &orderer);

    let mut sender = BmacSender::new();
    let mut reference = ReferenceSender::default();
    let mut receiver = BmacReceiver::new();
    assert_eq!(
        sender.send_block(&blocks[0]).unwrap(),
        reference.send_block(&blocks[0]).unwrap()
    );
    let packets = sender.send_block(&blocks[1]).unwrap();
    let expected = reference.send_block(&blocks[1]).unwrap();
    let (ours, theirs) = (tx_section(&packets, 0), tx_section(&expected, 0));
    // Client twice, two endorsers: four named fields. The scan also cut
    // the copy in the value.
    assert_eq!(locators(ours), 4);
    assert_eq!(locators(theirs), 5);
    assert_eq!(ours.payload.len(), theirs.payload.len() + known.len());
    let sent = sender.stats().identity_bytes_removed;
    assert_eq!(
        sent + known.len() as u64,
        reference.stats.identity_bytes_removed
    );

    let mut fresh = BmacSender::new();
    for block in &blocks {
        let packets = fresh.send_block(block).unwrap();
        assert_eq!(
            reassemble(&mut receiver, &packets).marshal(),
            block.marshal()
        );
    }
}

// ---------------------------------------------------------------------
// What the peer never reads.
// ---------------------------------------------------------------------

/// `envelope`'s first action, with `edit` applied at `path` (a path
/// into the whole envelope that leads through that action).
fn edited_action(envelope: &[u8], path: &[u32], edit: &dyn Fn(&mut Vec<corpus::Raw>)) -> Vec<u8> {
    let edited = corpus::at_layer(envelope, path, edit);
    let action = corpus::layer(&edited, corpus::TRANSACTION).remove(0);
    action.payload.expect("a length-delimited action")
}

/// `decode_transaction` reads neither an action's header nor any action
/// but the first. Junk there, which the peer never sees, must not get
/// the block refused: it crosses byte-exactly, with the packets the
/// reference sent. An identity there whose certificate does not parse,
/// which got the block refused by the reference, travels inline.
#[test]
fn what_the_peer_never_reads_never_refuses_a_block() {
    const ACTION_CREATOR: &[u32] = &[1, 2, 1, 1, 1];
    let template = corpus::workload_block(Workload::Smallbank, 2);
    let envelope = &template.data.data[1];
    let no_cert = |f: &mut Vec<corpus::Raw>| {
        let at = f.iter().position(|r| r.number == 2).unwrap();
        f[at] = corpus::ld(2, b"not a certificate");
    };
    let later = |action: Vec<u8>| {
        corpus::at_layer(envelope, corpus::TRANSACTION, &|f| {
            f.push(corpus::ld(1, &action))
        })
    };
    let junk_header = |f: &mut Vec<corpus::Raw>| {
        let at = f.iter().position(|r| r.number == 1).unwrap();
        f[at] = corpus::ld(1, b"other header");
    };
    let header = corpus::layer(envelope, corpus::ACTION).remove(0);
    assert_eq!(header.number, 1);
    let torn = corpus::join(&[header, corpus::ld(2, &[0x0a, 0x05, 1])]);
    let cases: Vec<(&str, Vec<u8>, bool)> = vec![
        (
            "junk action header",
            corpus::at_layer(envelope, corpus::ACTION, &junk_header),
            true,
        ),
        (
            "second action with a junk header",
            corpus::second_actions(envelope)[0].1.clone(),
            true,
        ),
        ("torn second action payload", later(torn), true),
        (
            "action creator without a certificate",
            corpus::at_layer(envelope, ACTION_CREATOR, &no_cert),
            false,
        ),
        (
            "second action's endorser without a certificate",
            later(edited_action(envelope, corpus::ENDORSER, &no_cert)),
            false,
        ),
    ];
    for (what, mutated, reference_sends) in cases {
        assert!(
            decode_transaction(&mutated).is_ok(),
            "{what}: the peer decodes it"
        );
        let mut block = template.clone();
        block.header.number = 1;
        block.data.data[1] = mutated;

        let (mut sender, mut reference) = (BmacSender::new(), ReferenceSender::default());
        let mut receiver = BmacReceiver::new();
        let first = sender.send_block(&template).unwrap();
        assert_eq!(first, reference.send_block(&template).unwrap(), "{what}");
        reassemble(&mut receiver, &first);

        let packets = sender.send_block(&block).unwrap();
        assert_eq!(
            reassemble(&mut receiver, &packets).marshal(),
            block.marshal(),
            "{what}"
        );
        match reference.send_block(&block) {
            Ok(expected) => {
                assert!(reference_sends, "{what}: the reference sends it");
                assert_eq!(packets, expected, "{what}");
            }
            Err(e) => assert!(!reference_sends, "{what}: the reference refuses it: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// The declared refusals.
// ---------------------------------------------------------------------

/// The sender walks an envelope with the peer's own layer functions, so
/// an envelope the decode rejects at one of them gets its block refused:
/// no action, a tx id or a chaincode name that is not UTF-8. Each
/// refusal leaves the link as it was.
#[test]
fn what_the_peer_rejects_at_a_shared_layer_refuses_the_block() {
    let template = corpus::workload_block(Workload::Smallbank, 2);
    let envelope = &template.data.data[1];
    let non_utf8 = |number: u32| {
        move |f: &mut Vec<corpus::Raw>| {
            let at = f.iter().position(|r| r.number == number).unwrap();
            f[at] = corpus::ld(number, &[b'a', 0xff, 0xfe]);
        }
    };
    let no_action = |f: &mut Vec<corpus::Raw>| f.retain(|r| r.number != 1);
    let cases = [
        (
            "no action",
            corpus::at_layer(envelope, corpus::TRANSACTION, &no_action),
        ),
        (
            "tx id not UTF-8",
            corpus::at_layer(envelope, corpus::CHANNEL_HEADER, &non_utf8(5)),
        ),
        (
            "chaincode name not UTF-8",
            corpus::at_layer(envelope, corpus::CHAINCODE_ID, &non_utf8(2)),
        ),
    ];
    let mut link = Link::new();
    assert!(!link.offer(template.clone(), "intact first", false));
    for (what, mutated) in cases {
        assert!(
            decode_transaction(&mutated).is_err(),
            "{what}: the peer rejects it"
        );
        let mut block = template.clone();
        block.data.data[1] = mutated;
        assert!(link.offer(block, what, true), "{what}: sent");
    }
    assert!(!link.offer(template, "intact after", false));
    assert!(link.receiver.incomplete_blocks().is_empty());
}

// ---------------------------------------------------------------------
// Hostile input.
// ---------------------------------------------------------------------

/// Sends blocks through one sender and one receiver for as long as the
/// test runs: a refused block must leave both able to go on.
struct Link {
    sender: BmacSender,
    receiver: BmacReceiver,
    next: u64,
    sent: usize,
    refused: usize,
}

/// Whether a fresh [`ReferenceSender`] sends `block`. It panics on a
/// second certificate for a node id it has filed: that block it does
/// not send.
fn reference_sends(block: &Block) -> bool {
    let sent = std::panic::catch_unwind(|| ReferenceSender::default().send_block(block));
    matches!(sent, Ok(Ok(_)))
}

impl Link {
    fn new() -> Self {
        Link {
            sender: BmacSender::new(),
            receiver: BmacReceiver::new(),
            next: 0,
            sent: 0,
            refused: 0,
        }
    }

    /// Offers `block` as the next block; whether it was refused. Unless
    /// the peer rejects the block anyway (`peer_rejects`), the sender
    /// must not refuse a block the reference sends: no declared
    /// difference refuses one.
    fn offer(&mut self, mut block: Block, what: &str, peer_rejects: bool) -> bool {
        block.header.number = self.next;
        let before = self.sender.stats();
        match self.sender.send_block(&block) {
            Ok(packets) => {
                let got = reassemble(&mut self.receiver, &packets);
                assert_eq!(got.marshal(), block.marshal(), "{what}");
                self.next += 1;
                self.sent += 1;
                false
            }
            Err(SendError::Decode(e)) => {
                assert_eq!(self.sender.stats(), before, "{what}: refused but counted");
                assert!(
                    peer_rejects || !reference_sends(&block),
                    "{what}: refused ({e}) a block the reference sends"
                );
                self.refused += 1;
                true
            }
            Err(e) => panic!("{what}: {e}"),
        }
    }
}

#[test]
fn every_corpus_envelope_is_refused_or_crosses_byte_exactly() {
    for (name, envelope) in corpus::envelopes() {
        let mut link = Link::new();
        let template = corpus::workload_block(Workload::Smallbank, 2);
        let mutations = corpus::truncations(&envelope)
            .chain(corpus::byte_flips(&envelope))
            .chain(corpus::layer_edits(&envelope))
            .chain(corpus::second_actions(&envelope))
            .chain(corpus::repeated_endorsed_actions(&envelope))
            .chain(corpus::repeated_chaincode_ids(&envelope))
            .chain(corpus::non_utf8_strings(&envelope));
        for (what, mutated) in mutations {
            let mut block = template.clone();
            let peer_rejects = decode_transaction(&mutated).is_err();
            block.data.data[1] = mutated;
            let what = format!("{name}: {what}");
            // The walk is no stricter than the peer's decode.
            let refused = link.offer(block, &what, peer_rejects);
            assert!(!refused || peer_rejects, "{what}: the peer decodes it");
        }
        assert!(
            link.sent > 0 && link.refused > 0,
            "{name}: {} sent, {} refused",
            link.sent,
            link.refused
        );
        // The link still carries an intact block afterwards.
        assert!(!link.offer(template, &format!("{name}: intact"), false));
        assert!(link.receiver.incomplete_blocks().is_empty());
    }
}

#[test]
fn a_mutated_orderer_signature_slot_is_refused_or_crosses_byte_exactly() {
    let template = corpus::workload_block(Workload::Drm, 2);
    let slot = template.metadata.metadata[metadata_index::SIGNATURES].clone();
    let mut link = Link::new();
    for at in 0..slot.len() {
        let mut flipped = template.clone();
        flipped.metadata.metadata[metadata_index::SIGNATURES][at] ^= 0xff;
        link.offer(flipped, &format!("slot byte {at} flipped"), false);
        let mut cut = template.clone();
        cut.metadata.metadata[metadata_index::SIGNATURES].truncate(at);
        link.offer(cut, &format!("slot cut at {at}"), false);
    }
    assert!(link.sent > 0 && link.refused > 0);
}
