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
//! This is the first instalment of ROADMAP item 4's "decoders never
//! panic" harness.

use fabric_crypto::der::decode_signature;
use fabric_crypto::KnownCert;
use fabric_protos::messages::*;
use fabric_protos::txflow::{
    block_header_hash, block_signature_message, decode_block_struct, decode_transaction,
    DecodedBlock, DecodedEndorsement, DecodedTransaction,
};
use fabric_protos::wire::{put_varint, DecodeMeter, WireError};
use workload::{StreamScenario, Workload};

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

/// The last (workload) block of a generated stream.
fn workload_block(workload: Workload, block_size: usize) -> Block {
    let scenario = StreamScenario {
        workload,
        accounts: 8,
        block_size,
        num_blocks: 1,
        seed: 17,
        ..StreamScenario::default()
    };
    scenario.generate().blocks.pop().expect("a workload block")
}

fn envelopes() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "smallbank",
            workload_block(Workload::Smallbank, 2).data.data.remove(0),
        ),
        ("drm", workload_block(Workload::Drm, 2).data.data.remove(0)),
    ]
}

#[test]
fn truncation_at_every_offset() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for cut in 0..=envelope.len() {
            tally.envelope(&envelope[..cut], &format!("{name} cut at {cut}"));
        }
        tally.assert_both_outcomes_seen(name);
    }
}

#[test]
fn every_single_byte_flip() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for at in 0..envelope.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = envelope.clone();
                flipped[at] ^= mask;
                tally.envelope(&flipped, &format!("{name} byte {at} ^ {mask:#x}"));
            }
        }
        tally.assert_both_outcomes_seen(name);
    }
}

/// One encoded field of a message.
#[derive(Clone)]
struct Raw {
    number: u32,
    /// Tag, length and value as they go on the wire.
    encoded: Vec<u8>,
    /// The value of a length-delimited field; `None` for the others.
    payload: Option<Vec<u8>>,
}

fn varint_at(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
    }
    panic!("varint overflow in a well-formed message");
}

/// Splits a well-formed message into its fields.
fn split(bytes: &[u8]) -> Vec<Raw> {
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        let tag = varint_at(bytes, &mut pos);
        let mut payload = None;
        match tag & 7 {
            0 => {
                varint_at(bytes, &mut pos);
            }
            1 => pos += 8,
            5 => pos += 4,
            2 => {
                let len = varint_at(bytes, &mut pos) as usize;
                payload = Some(bytes[pos..pos + len].to_vec());
                pos += len;
            }
            other => panic!("wire type {other} in a well-formed message"),
        }
        fields.push(Raw {
            number: (tag >> 3) as u32,
            encoded: bytes[start..pos].to_vec(),
            payload,
        });
    }
    fields
}

fn join(fields: &[Raw]) -> Vec<u8> {
    fields.iter().flat_map(|f| f.encoded.clone()).collect()
}

/// A length-delimited field, written even when empty.
fn ld(number: u32, payload: &[u8]) -> Raw {
    let mut encoded = Vec::new();
    put_varint(&mut encoded, u64::from(number) << 3 | 2);
    put_varint(&mut encoded, payload.len() as u64);
    encoded.extend_from_slice(payload);
    Raw {
        number,
        encoded,
        payload: Some(payload.to_vec()),
    }
}

fn varint(number: u32, value: u64) -> Raw {
    let mut encoded = Vec::new();
    put_varint(&mut encoded, u64::from(number) << 3);
    put_varint(&mut encoded, value);
    Raw {
        number,
        encoded,
        payload: None,
    }
}

/// `message` with `edit` applied to the field list of the layer `path`
/// leads to: each step descends into the first length-delimited field
/// of that number. Panics when the path does not exist, so a layer the
/// harness means to cover cannot silently go uncovered.
fn at_layer(message: &[u8], path: &[u32], edit: &dyn Fn(&mut Vec<Raw>)) -> Vec<u8> {
    let mut fields = split(message);
    match path.split_first() {
        None => edit(&mut fields),
        Some((&step, rest)) => {
            let field = fields
                .iter_mut()
                .find(|f| f.number == step && f.payload.is_some())
                .unwrap_or_else(|| panic!("no field {step} on the way to {path:?}"));
            let inner = at_layer(field.payload.as_deref().expect("checked"), rest, edit);
            *field = ld(step, &inner);
        }
    }
    join(&fields)
}

/// The fields of that layer.
fn layer(message: &[u8], path: &[u32]) -> Vec<Raw> {
    let found = std::cell::RefCell::new(Vec::new());
    at_layer(message, path, &|fields| {
        *found.borrow_mut() = fields.clone()
    });
    found.into_inner()
}

const PAYLOAD: &[u32] = &[1];
const HEADER: &[u32] = &[1, 1];
const CHANNEL_HEADER: &[u32] = &[1, 1, 1];
const SIGNATURE_HEADER: &[u32] = &[1, 1, 2];
const CREATOR: &[u32] = &[1, 1, 2, 1];
const TRANSACTION: &[u32] = &[1, 2];
const ACTION: &[u32] = &[1, 2, 1];
const ACTION_PAYLOAD: &[u32] = &[1, 2, 1, 2];
const ENDORSED_ACTION: &[u32] = &[1, 2, 1, 2, 2];
const ENDORSEMENT: &[u32] = &[1, 2, 1, 2, 2, 2];
const ENDORSER: &[u32] = &[1, 2, 1, 2, 2, 2, 1];
const PRP: &[u32] = &[1, 2, 1, 2, 2, 1];
const CC_ACTION: &[u32] = &[1, 2, 1, 2, 2, 1, 2];
const RESPONSE: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 3];
const CHAINCODE_ID: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 4];
const TX_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1];
const NS_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2];
const KV_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2];
const KV_READ: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1];
const VERSION: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2];
const KV_WRITE: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 3];

/// Every message layer of an envelope (the action's own signature
/// header, `[1, 2, 1, 1]`, is carried and never decoded).
const LAYERS: &[(&str, &[u32])] = &[
    ("Envelope", &[]),
    ("Payload", PAYLOAD),
    ("Header", HEADER),
    ("ChannelHeader", CHANNEL_HEADER),
    ("SignatureHeader", SIGNATURE_HEADER),
    ("creator SerializedIdentity", CREATOR),
    ("Transaction", TRANSACTION),
    ("TransactionAction", ACTION),
    ("ChaincodeActionPayload", ACTION_PAYLOAD),
    ("ChaincodeEndorsedAction", ENDORSED_ACTION),
    ("Endorsement", ENDORSEMENT),
    ("endorser SerializedIdentity", ENDORSER),
    ("ProposalResponsePayload", PRP),
    ("ChaincodeAction", CC_ACTION),
    ("Response", RESPONSE),
    ("ChaincodeID", CHAINCODE_ID),
    ("TxReadWriteSet", TX_RWSET),
    ("NsReadWriteSet", NS_RWSET),
    ("KVRWSet", KV_RWSET),
    ("KVRead", KV_READ),
    ("Version", VERSION),
    ("KVWrite", KV_WRITE),
];

#[test]
fn dropped_duplicated_reordered_and_unknown_fields_at_each_layer() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (layer_name, path) in LAYERS {
            let n = layer(&envelope, path).len();
            assert!(n > 0, "{name}: {layer_name} is empty");
            let mut run = |what: String, edit: &dyn Fn(&mut Vec<Raw>)| {
                tally.envelope(
                    &at_layer(&envelope, path, edit),
                    &format!("{name}, {layer_name}: {what}"),
                );
            };
            for i in 0..n {
                run(format!("field {i} dropped"), &|f| drop(f.remove(i)));
                run(format!("field {i} repeated in place"), &|f| {
                    f.insert(i, f[i].clone())
                });
                run(format!("field {i} repeated at the end"), &|f| {
                    f.push(f[i].clone())
                });
                run(format!("field {i} moved to the front"), &|f| {
                    let moved = f.remove(i);
                    f.insert(0, moved);
                });
            }
            run("reversed".into(), &|f| f.reverse());
            for front in [true, false] {
                let place = |f: &mut Vec<Raw>, extra: Raw| {
                    if front {
                        f.insert(0, extra)
                    } else {
                        f.push(extra)
                    }
                };
                run(format!("unknown varint, front {front}"), &|f| {
                    place(f, varint(99, 7))
                });
                run(format!("unknown bytes, front {front}"), &|f| {
                    place(f, ld(98, b"xyz"))
                });
                // The known numbers under the wrong wire type, and
                // present but empty (which `marshal` never writes).
                for number in 1..=6 {
                    run(format!("field {number} as varint, front {front}"), &|f| {
                        place(f, varint(number, 3))
                    });
                    run(format!("field {number} empty, front {front}"), &|f| {
                        place(f, ld(number, b""))
                    });
                }
            }
        }
        tally.assert_both_outcomes_seen(name);
    }
}

#[test]
fn a_second_action_is_walked_and_the_first_one_used() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        // Well-formed but different: the decode must still be the first.
        let intact = decode_transaction(&envelope).unwrap();
        let second = ld(1, &join(&[ld(1, b"other header"), ld(2, b"")]));
        let both = at_layer(&envelope, TRANSACTION, &|f| f.push(second.clone()));
        tally.envelope(&both, &format!("{name}: second action"));
        assert_same_tx_but_len(&decode_transaction(&both).unwrap(), &intact);
        // Malformed: walked, so rejected, although it would not be used.
        let torn = at_layer(&envelope, TRANSACTION, &|f| f.push(ld(1, &[0x0a, 0x05, 1])));
        tally.envelope(&torn, &format!("{name}: torn second action"));
        assert_eq!(decode_transaction(&torn).unwrap_err(), WireError::Truncated);
        // Put first, the empty action is the one used.
        let first = at_layer(&envelope, TRANSACTION, &|f| f.insert(0, ld(1, b"")));
        tally.envelope(&first, &format!("{name}: empty action first"));
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
        // A second `action` carrying only a proposal response payload:
        // the endorsements of the first must not survive it.
        let endorsed = layer(&envelope, ENDORSED_ACTION);
        let prp = endorsed.iter().find(|f| f.number == 1);
        let bare = ld(2, &prp.expect("a response payload").encoded);
        let replaced = at_layer(&envelope, ACTION_PAYLOAD, &|f| f.push(bare.clone()));
        tally.envelope(&replaced, &format!("{name}: bare second action"));
        let decoded = decode_transaction(&replaced).unwrap();
        assert!(decoded.endorsements.is_empty());
        assert_eq!(decoded.writes, intact.writes);
        // And one carrying only endorsements leaves no response payload.
        let kept: Vec<Raw> = endorsed.into_iter().filter(|f| f.number == 2).collect();
        let only_endorsements =
            at_layer(&envelope, ACTION_PAYLOAD, &|f| f.push(ld(2, &join(&kept))));
        tally.envelope(&only_endorsements, &format!("{name}: no response payload"));
        let decoded = decode_transaction(&only_endorsements).unwrap();
        assert_eq!(decoded.endorsements.len(), intact.endorsements.len());
        assert!(decoded.writes.is_empty() && decoded.chaincode.is_empty());
        // An empty one ends it: nothing left to use.
        let emptied = at_layer(&envelope, ACTION_PAYLOAD, &|f| f.push(ld(2, b"")));
        tally.envelope(&emptied, &format!("{name}: empty second action"));
        assert_eq!(tally.err, 0);
    }
}

#[test]
fn a_repeated_chaincode_id_replaces_the_name_even_with_none() {
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        let namespace = decode_transaction(&envelope).unwrap().chaincode;
        let renamed = at_layer(&envelope, CC_ACTION, &|f| {
            f.push(ld(4, &ld(2, b"other").encoded));
        });
        tally.envelope(&renamed, &format!("{name}: renamed"));
        assert_eq!(decode_transaction(&renamed).unwrap().chaincode, "other");
        // A later id without a name leaves none: the namespace is used.
        let unnamed = at_layer(&renamed, CC_ACTION, &|f| {
            f.push(ld(4, &ld(3, b"2.0").encoded));
        });
        tally.envelope(&unnamed, &format!("{name}: unnamed"));
        assert_eq!(decode_transaction(&unnamed).unwrap().chaincode, namespace);
    }
}

#[test]
fn non_utf8_in_every_string_field_is_rejected_alike() {
    let strings: &[(&str, &[u32], u32)] = &[
        ("channel_id", CHANNEL_HEADER, 4),
        ("tx_id", CHANNEL_HEADER, 5),
        ("creator mspid", CREATOR, 1),
        ("endorser mspid", ENDORSER, 1),
        ("chaincode path", CHAINCODE_ID, 1),
        ("chaincode name", CHAINCODE_ID, 2),
        ("chaincode version", CHAINCODE_ID, 3),
        ("namespace", NS_RWSET, 1),
        ("read key", KV_READ, 1),
        ("write key", KV_WRITE, 1),
    ];
    for (name, envelope) in envelopes() {
        let mut tally = Tally::default();
        for (field, path, number) in strings {
            for front in [true, false] {
                let bad = at_layer(&envelope, path, &|f| {
                    let at = if front { 0 } else { f.len() };
                    f.insert(at, ld(*number, &[b'a', 0xff, 0xfe]));
                });
                tally.envelope(&bad, &format!("{name}: {field}, front {front}"));
                assert_eq!(
                    decode_transaction(&bad).unwrap_err(),
                    WireError::Semantic("invalid utf-8"),
                    "{name}: {field}, front {front}"
                );
            }
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
