//! Differential harness for the in-place envelope decode.
//!
//! `txflow::decode_transaction` walks the nested protobuf layers over
//! borrowed slices; the owned `unmarshal` chain it replaced (every layer
//! materialised as its `messages` struct) is kept here as the oracle. The
//! two must accept and reject exactly the same inputs — same `Ok`/`Err`,
//! same [`WireError`], field-for-field equal output, equal
//! `DecodeMeter::fields_decoded` — and neither may panic, over:
//!
//! * truncation at every offset and every single-byte flip of a
//!   smallbank and a drm envelope;
//! * at each of the 22 message layers inside an envelope: every field
//!   dropped, duplicated (so a second `TransactionAction`, a repeated
//!   `ChaincodeActionPayload.action`, a second namespace, … all occur),
//!   the fields reversed, unknown fields and wrong-wire-type twins of
//!   the known ones added in front and behind;
//! * non-UTF-8 bytes in every string field, including the ones the peer
//!   never reads (`mspid`, `path`, `version`, `namespace`);
//! * a 100-transaction block: intact, one mutated envelope per
//!   transaction, and the orderer-signature slot truncated and flipped
//!   at every offset.
//!
//! Mempool admission reads the head of the same envelopes with the
//! decode's layer functions; its owned chain is kept here too
//! ([`owned_admission`]), and every envelope above goes through both:
//! same `Ok`/`Err`, same [`WireError`], equal tx id, creator, client
//! signature and payload digest.
//!
//! This is the first instalment of ROADMAP item 4's "decoders never
//! panic" harness.

use fabric_crypto::der::decode_signature;
use fabric_crypto::KnownCert;
use fabric_mempool::{decode_admission, AdmissionTx, SigCacheKey};
use fabric_protos::messages::*;
use fabric_protos::txflow::{
    block_header_hash, block_signature_message, decode_block_struct, decode_transaction,
    DecodedBlock, DecodedEndorsement, DecodedTransaction,
};
use fabric_protos::wire::{DecodeMeter, WireError};
use workload::Workload;

mod corpus;

use corpus::{envelopes, workload_block};

/// The decode as it was before it walked in place: one owned struct per
/// layer, `to_vec()` at every level.
fn owned_decode_transaction(envelope_bytes: &[u8]) -> Result<DecodedTransaction, WireError> {
    let envelope = Envelope::unmarshal(envelope_bytes)?;
    let payload = Payload::unmarshal(&envelope.payload)?;
    let ch = ChannelHeader::unmarshal(&payload.header.channel_header)?;
    let sig_header = SignatureHeader::unmarshal(&payload.header.signature_header)?;
    let creator = SerializedIdentity::unmarshal(&sig_header.creator)?;
    let creator_cert = KnownCert::resolve(&creator.id_bytes)
        .map_err(|_| WireError::Semantic("bad creator certificate"))?;
    let client_signature = decode_signature(&envelope.signature)
        .map_err(|_| WireError::Semantic("bad client signature DER"))?;

    let tx = Transaction::unmarshal(&payload.data)?;
    let action = tx
        .actions
        .first()
        .ok_or(WireError::Semantic("transaction has no actions"))?;
    let cap = ChaincodeActionPayload::unmarshal(&action.payload)?;
    let prp_bytes = &cap.action.proposal_response_payload;
    let prp = ProposalResponsePayload::unmarshal(prp_bytes)?;
    let cc_action = ChaincodeAction::unmarshal(&prp.extension)?;
    let txrw = TxReadWriteSet::unmarshal(&cc_action.results)?;

    let mut chaincode = cc_action.chaincode_id.name.clone();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for ns in &txrw.ns_rwset {
        if chaincode.is_empty() {
            chaincode = ns.namespace.clone();
        }
        let kv = KvRwSet::unmarshal(&ns.rwset)?;
        for r in kv.reads {
            reads.push((r.key, r.version));
        }
        for w in kv.writes {
            if !w.is_delete {
                writes.push((w.key, w.value));
            }
        }
    }

    let mut endorsements = Vec::with_capacity(cap.action.endorsements.len());
    for e in &cap.action.endorsements {
        let ident = SerializedIdentity::unmarshal(&e.endorser)?;
        let endorser_cert = KnownCert::resolve(&ident.id_bytes)
            .map_err(|_| WireError::Semantic("bad endorser certificate"))?;
        let signature = decode_signature(&e.signature)
            .map_err(|_| WireError::Semantic("bad endorsement DER"))?;
        let mut signed_message = prp_bytes.clone();
        signed_message.extend_from_slice(&e.endorser);
        endorsements.push(DecodedEndorsement {
            endorser_cert,
            signature,
            signed_message,
        });
    }

    Ok(DecodedTransaction {
        tx_id: ch.tx_id,
        channel_id: ch.channel_id,
        chaincode,
        creator_cert,
        client_signature,
        signed_payload: envelope.payload,
        reads,
        writes,
        endorsements,
        envelope_len: envelope_bytes.len(),
    })
}

/// Mempool admission as it was before it shared the decode's layer
/// functions: five owned layers, then the identity.
fn owned_admission(envelope_bytes: &[u8]) -> Result<AdmissionTx, WireError> {
    let envelope = Envelope::unmarshal(envelope_bytes)?;
    let payload = Payload::unmarshal(&envelope.payload)?;
    let ch = ChannelHeader::unmarshal(&payload.header.channel_header)?;
    if ch.tx_id.is_empty() {
        return Err(WireError::Semantic("empty tx id"));
    }
    let sig_header = SignatureHeader::unmarshal(&payload.header.signature_header)?;
    let creator = SerializedIdentity::unmarshal(&sig_header.creator)?;
    let creator_cert = KnownCert::resolve(&creator.id_bytes)
        .map_err(|_| WireError::Semantic("bad creator certificate"))?;
    let client_signature = decode_signature(&envelope.signature)
        .map_err(|_| WireError::Semantic("bad client signature DER"))?;
    let payload_digest = fabric_crypto::sha256(&envelope.payload);
    let cache_key =
        SigCacheKey::compute(&creator_cert.public_key, &payload_digest, &client_signature);
    Ok(AdmissionTx {
        tx_id: ch.tx_id,
        creator_cert,
        client_signature,
        payload_digest,
        cache_key,
    })
}

/// [`decode_block_struct`] over the owned chain.
fn owned_decode_block(block: &Block) -> Result<DecodedBlock, WireError> {
    let md_sig =
        MetadataSignature::unmarshal(&block.metadata.metadata[metadata_index::SIGNATURES])?;
    let sig_header = SignatureHeader::unmarshal(&md_sig.signature_header)?;
    let orderer_ident = SerializedIdentity::unmarshal(&sig_header.creator)?;
    let orderer_cert = KnownCert::resolve(&orderer_ident.id_bytes)
        .map_err(|_| WireError::Semantic("bad orderer certificate"))?;
    let orderer_signature = decode_signature(&md_sig.signature)
        .map_err(|_| WireError::Semantic("bad orderer signature DER"))?;
    let txs = block
        .data
        .data
        .iter()
        .map(|env| owned_decode_transaction(env))
        .collect::<Result<_, _>>()?;
    Ok(DecodedBlock {
        number: block.header.number,
        header_hash: block_header_hash(&block.header),
        previous_hash: block.header.previous_hash.clone(),
        data_hash: block.header.data_hash.clone(),
        orderer_cert,
        orderer_signature,
        orderer_signed_message: block_signature_message(&md_sig.signature_header, &block.header),
        txs,
        block_len: 0,
    })
}

fn assert_same_tx(a: &DecodedTransaction, b: &DecodedTransaction, what: &str) {
    assert_eq!(a.tx_id, b.tx_id, "{what}: tx_id");
    assert_eq!(a.channel_id, b.channel_id, "{what}: channel_id");
    assert_eq!(a.chaincode, b.chaincode, "{what}: chaincode");
    assert_eq!(**a.creator_cert, **b.creator_cert, "{what}: creator");
    assert_eq!(a.client_signature, b.client_signature, "{what}: client sig");
    assert_eq!(a.signed_payload, b.signed_payload, "{what}: signed payload");
    assert_eq!(a.reads, b.reads, "{what}: reads");
    assert_eq!(a.writes, b.writes, "{what}: writes");
    assert_eq!(a.envelope_len, b.envelope_len, "{what}: envelope_len");
    assert_eq!(
        a.endorsements.len(),
        b.endorsements.len(),
        "{what}: endorsement count"
    );
    for (x, y) in a.endorsements.iter().zip(&b.endorsements) {
        assert_eq!(**x.endorser_cert, **y.endorser_cert, "{what}: endorser");
        assert_eq!(x.signature, y.signature, "{what}: endorsement sig");
        assert_eq!(x.signed_message, y.signed_message, "{what}: signed message");
    }
}

/// `decode` and the fields it walked, counted whether it succeeds or not.
fn metered<T>(decode: impl FnOnce() -> Result<T, WireError>) -> (Result<T, WireError>, u64) {
    let meter = DecodeMeter::start();
    let out = decode();
    (out, meter.fields_decoded())
}

/// Accepted and rejected inputs seen so far: a harness in which every
/// variant is rejected (or none is) compares very little.
#[derive(Default)]
struct Tally {
    ok: usize,
    err: usize,
}

impl Tally {
    /// Decodes `envelope` both ways and holds the two to each other.
    fn envelope(&mut self, envelope: &[u8], what: &str) {
        let (owned, owned_fields) = metered(|| owned_decode_transaction(envelope));
        let (in_place, in_place_fields) = metered(|| decode_transaction(envelope));
        assert_eq!(owned_fields, in_place_fields, "{what}: fields decoded");
        match (owned, in_place) {
            (Ok(a), Ok(b)) => {
                assert_same_tx(&a, &b, what);
                self.ok += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{what}: error");
                self.err += 1;
            }
            (a, b) => panic!(
                "{what}: owned {:?} but in place {:?}",
                a.map(|t| t.tx_id),
                b.map(|t| t.tx_id)
            ),
        }
        match (owned_admission(envelope), decode_admission(envelope)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.tx_id, b.tx_id, "{what}: admission tx_id");
                assert_eq!(
                    **a.creator_cert, **b.creator_cert,
                    "{what}: admission creator"
                );
                assert_eq!(
                    a.client_signature, b.client_signature,
                    "{what}: admission sig"
                );
                assert_eq!(
                    a.payload_digest, b.payload_digest,
                    "{what}: admission digest"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}: admission error"),
            (a, b) => panic!(
                "{what}: owned admission {:?} but in place {:?}",
                a.map(|t| t.tx_id),
                b.map(|t| t.tx_id)
            ),
        }
    }

    /// The same for a whole block.
    fn block(&mut self, block: &Block, what: &str) {
        let (owned, owned_fields) = metered(|| owned_decode_block(block));
        let (in_place, in_place_fields) = metered(|| decode_block_struct(block, 0));
        assert_eq!(owned_fields, in_place_fields, "{what}: fields decoded");
        match (owned, in_place) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.number, b.number, "{what}");
                assert_eq!(a.header_hash, b.header_hash, "{what}");
                assert_eq!(a.previous_hash, b.previous_hash, "{what}");
                assert_eq!(a.data_hash, b.data_hash, "{what}");
                assert_eq!(**a.orderer_cert, **b.orderer_cert, "{what}");
                assert_eq!(a.orderer_signature, b.orderer_signature, "{what}");
                assert_eq!(a.orderer_signed_message, b.orderer_signed_message, "{what}");
                assert_eq!(a.txs.len(), b.txs.len(), "{what}");
                for (i, (x, y)) in a.txs.iter().zip(&b.txs).enumerate() {
                    assert_same_tx(x, y, &format!("{what}, tx {i}"));
                }
                self.ok += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{what}: error");
                self.err += 1;
            }
            (a, b) => panic!("{what}: owned {:?} but in place {:?}", a.is_ok(), b.is_ok()),
        }
    }

    fn assert_both_outcomes_seen(&self, what: &str) {
        assert!(
            self.ok > 0 && self.err > 0,
            "{what}: {} accepted, {} rejected",
            self.ok,
            self.err
        );
    }
}

#[test]
fn truncation_at_every_offset() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (what, variant) in corpus::truncations(&envelope) {
            tally.envelope(&variant, &format!("{name} {what}"));
        }
        tally.assert_both_outcomes_seen(name);
    }
}

#[test]
fn every_single_byte_flip() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (what, variant) in corpus::byte_flips(&envelope) {
            tally.envelope(&variant, &format!("{name} {what}"));
        }
        tally.assert_both_outcomes_seen(name);
    }
}

#[test]
fn dropped_duplicated_reordered_and_unknown_fields_at_each_layer() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (what, variant) in corpus::layer_edits(&envelope) {
            tally.envelope(&variant, &format!("{name}, {what}"));
        }
        tally.assert_both_outcomes_seen(name);
    }
}

#[test]
fn a_second_action_is_walked_and_the_first_one_used() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        let [(both_what, both), (torn_what, torn), (first_what, first)] =
            corpus::second_actions(&envelope);
        // Well-formed but different: the decode must still be the first.
        let intact = decode_transaction(&envelope).unwrap();
        tally.envelope(&both, &format!("{name}: {both_what}"));
        assert_same_tx_but_len(&decode_transaction(&both).unwrap(), &intact);
        // Malformed: walked, so rejected, although it would not be used.
        tally.envelope(&torn, &format!("{name}: {torn_what}"));
        assert_eq!(decode_transaction(&torn).unwrap_err(), WireError::Truncated);
        // Put first, the empty action is the one used.
        tally.envelope(&first, &format!("{name}: {first_what}"));
        tally.assert_both_outcomes_seen(name);
    }
}

/// Equal but for `envelope_len` and the bytes the client signed, which
/// the added action is part of.
fn assert_same_tx_but_len(a: &DecodedTransaction, b: &DecodedTransaction) {
    let mut a = a.clone();
    a.envelope_len = b.envelope_len;
    a.signed_payload = b.signed_payload.clone();
    assert_same_tx(&a, b, "but for the length");
}

#[test]
fn a_repeated_endorsed_action_replaces_response_and_endorsements_alike() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        let intact = decode_transaction(&envelope).unwrap();
        assert!(!intact.endorsements.is_empty());
        let [(bare_what, bare), (only_what, only_endorsements), (empty_what, emptied)] =
            corpus::repeated_endorsed_actions(&envelope);
        // A second `action` carrying only a proposal response payload:
        // the endorsements of the first must not survive it.
        tally.envelope(&bare, &format!("{name}: {bare_what}"));
        let decoded = decode_transaction(&bare).unwrap();
        assert!(decoded.endorsements.is_empty());
        assert_eq!(decoded.writes, intact.writes);
        // And one carrying only endorsements leaves no response payload.
        tally.envelope(&only_endorsements, &format!("{name}: {only_what}"));
        let decoded = decode_transaction(&only_endorsements).unwrap();
        assert_eq!(decoded.endorsements.len(), intact.endorsements.len());
        assert!(decoded.writes.is_empty() && decoded.chaincode.is_empty());
        // An empty one ends it: nothing left to use.
        tally.envelope(&emptied, &format!("{name}: {empty_what}"));
        assert_eq!(tally.err, 0);
    }
}

#[test]
fn a_repeated_chaincode_id_replaces_the_name_even_with_none() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        let namespace = decode_transaction(&envelope).unwrap().chaincode;
        let [(renamed_what, renamed), (unnamed_what, unnamed)] =
            corpus::repeated_chaincode_ids(&envelope);
        tally.envelope(&renamed, &format!("{name}: {renamed_what}"));
        assert_eq!(decode_transaction(&renamed).unwrap().chaincode, "other");
        // A later id without a name leaves none: the namespace is used.
        tally.envelope(&unnamed, &format!("{name}: {unnamed_what}"));
        assert_eq!(decode_transaction(&unnamed).unwrap().chaincode, namespace);
    }
}

#[test]
fn non_utf8_in_every_string_field_is_rejected_alike() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (what, bad) in corpus::non_utf8_strings(&envelope) {
            tally.envelope(&bad, &format!("{name}: {what}"));
            assert_eq!(
                decode_transaction(&bad).unwrap_err(),
                WireError::Semantic("invalid utf-8"),
                "{name}: {what}"
            );
        }
        assert_eq!(tally.ok, 0);
    }
}

#[test]
fn a_hundred_transaction_block() {
    let block = workload_block(Workload::Drm, 100);
    assert_eq!(block.data.data.len(), 100);
    let mut tally = Tally::default();
    tally.block(&block, "intact");
    assert_eq!(tally.ok, 1);
    // One mutated envelope per transaction, somewhere else in each.
    for i in 0..block.data.data.len() {
        let at = (i * 41) % block.data.data[i].len();
        let mut flipped = block.clone();
        flipped.data.data[i][at] ^= 0x10;
        tally.block(&flipped, &format!("tx {i} byte {at} flipped"));
        let mut cut = block.clone();
        cut.data.data[i].truncate(at);
        tally.block(&cut, &format!("tx {i} cut at {at}"));
    }
    // The orderer-signature slot, exhaustively, over a block short
    // enough to decode a few thousand times.
    let mut short = block.clone();
    short.data.data.truncate(1);
    let slot = short.metadata.metadata[metadata_index::SIGNATURES].clone();
    for at in 0..slot.len() {
        let mut flipped = short.clone();
        flipped.metadata.metadata[metadata_index::SIGNATURES][at] ^= 0xff;
        tally.block(&flipped, &format!("signature slot byte {at} flipped"));
        let mut cut = short.clone();
        cut.metadata.metadata[metadata_index::SIGNATURES].truncate(at);
        tally.block(&cut, &format!("signature slot cut at {at}"));
    }
    tally.assert_both_outcomes_seen("block");
}
