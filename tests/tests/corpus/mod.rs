//! The hostile-envelope corpus: every mutation of a smallbank and a drm
//! envelope that `decode_differential` holds the in-place decode to its
//! owned oracle with, and that `sender_equivalence` puts through the
//! BMac sender. Each generator yields `(what, envelope)` pairs.

use fabric_protos::messages::Block;
use fabric_protos::wire::put_varint;
use workload::{StreamScenario, Workload};

/// A named mutated envelope.
pub type Variant = (String, Vec<u8>);

/// The last (workload) block of a generated stream.
pub fn workload_block(workload: Workload, block_size: usize) -> Block {
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

/// A smallbank and a drm envelope, each the first of its block.
pub fn envelopes() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "smallbank",
            workload_block(Workload::Smallbank, 2).data.data.remove(0),
        ),
        ("drm", workload_block(Workload::Drm, 2).data.data.remove(0)),
    ]
}

/// One encoded field of a message.
#[derive(Clone)]
pub struct Raw {
    pub number: u32,
    /// Tag, length and value as they go on the wire.
    pub encoded: Vec<u8>,
    /// The value of a length-delimited field; `None` for the others.
    pub payload: Option<Vec<u8>>,
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
pub fn split(bytes: &[u8]) -> Vec<Raw> {
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

pub fn join(fields: &[Raw]) -> Vec<u8> {
    fields.iter().flat_map(|f| f.encoded.clone()).collect()
}

/// A length-delimited field, written even when empty.
pub fn ld(number: u32, payload: &[u8]) -> Raw {
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

pub fn varint(number: u32, value: u64) -> Raw {
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
pub fn at_layer(message: &[u8], path: &[u32], edit: &dyn Fn(&mut Vec<Raw>)) -> Vec<u8> {
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
pub fn layer(message: &[u8], path: &[u32]) -> Vec<Raw> {
    let found = std::cell::RefCell::new(Vec::new());
    at_layer(message, path, &|fields| {
        *found.borrow_mut() = fields.clone()
    });
    found.into_inner()
}

pub const PAYLOAD: &[u32] = &[1];
pub const HEADER: &[u32] = &[1, 1];
pub const CHANNEL_HEADER: &[u32] = &[1, 1, 1];
pub const SIGNATURE_HEADER: &[u32] = &[1, 1, 2];
pub const CREATOR: &[u32] = &[1, 1, 2, 1];
pub const TRANSACTION: &[u32] = &[1, 2];
pub const ACTION: &[u32] = &[1, 2, 1];
pub const ACTION_PAYLOAD: &[u32] = &[1, 2, 1, 2];
pub const ENDORSED_ACTION: &[u32] = &[1, 2, 1, 2, 2];
pub const ENDORSEMENT: &[u32] = &[1, 2, 1, 2, 2, 2];
pub const ENDORSER: &[u32] = &[1, 2, 1, 2, 2, 2, 1];
pub const PRP: &[u32] = &[1, 2, 1, 2, 2, 1];
pub const CC_ACTION: &[u32] = &[1, 2, 1, 2, 2, 1, 2];
pub const RESPONSE: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 3];
pub const CHAINCODE_ID: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 4];
pub const TX_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1];
pub const NS_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2];
pub const KV_RWSET: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2];
pub const KV_READ: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1];
pub const VERSION: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2];
pub const KV_WRITE: &[u32] = &[1, 2, 1, 2, 2, 1, 2, 1, 2, 2, 3];

/// Every message layer of an envelope (the action's own signature
/// header, `[1, 2, 1, 1]`, is carried and never decoded).
pub const LAYERS: &[(&str, &[u32])] = &[
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

/// Every prefix of `envelope`, from empty to whole.
pub fn truncations(envelope: &[u8]) -> impl Iterator<Item = Variant> + '_ {
    (0..=envelope.len()).map(move |cut| (format!("cut at {cut}"), envelope[..cut].to_vec()))
}

/// Every byte flipped under the masks `0x01`, `0x80` and `0xff`.
pub fn byte_flips(envelope: &[u8]) -> impl Iterator<Item = Variant> + '_ {
    (0..envelope.len()).flat_map(move |at| {
        [0x01u8, 0x80, 0xff].into_iter().map(move |mask| {
            let mut flipped = envelope.to_vec();
            flipped[at] ^= mask;
            (format!("byte {at} ^ {mask:#x}"), flipped)
        })
    })
}

/// At each of [`LAYERS`]: every field dropped, duplicated in place and
/// at the end, and moved to the front; the fields reversed; an unknown
/// varint and bytes field, and each of the field numbers 1–6 as a
/// varint and as an empty length-delimited field, in front and behind.
pub fn layer_edits(envelope: &[u8]) -> Vec<Variant> {
    let mut out = Vec::new();
    for (layer_name, path) in LAYERS {
        let n = layer(envelope, path).len();
        assert!(n > 0, "{layer_name} is empty");
        let mut run = |what: String, edit: &dyn Fn(&mut Vec<Raw>)| {
            out.push((
                format!("{layer_name}: {what}"),
                at_layer(envelope, path, edit),
            ));
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
    out
}

/// A second, well-formed action; a torn one; an empty one put first.
pub fn second_actions(envelope: &[u8]) -> [Variant; 3] {
    let second = ld(1, &join(&[ld(1, b"other header"), ld(2, b"")]));
    [
        (
            "second action".into(),
            at_layer(envelope, TRANSACTION, &|f| f.push(second.clone())),
        ),
        (
            "torn second action".into(),
            at_layer(envelope, TRANSACTION, &|f| f.push(ld(1, &[0x0a, 0x05, 1]))),
        ),
        (
            "empty action first".into(),
            at_layer(envelope, TRANSACTION, &|f| f.insert(0, ld(1, b""))),
        ),
    ]
}

/// A second endorsed action carrying only the proposal response
/// payload; one carrying only the endorsements; an empty one.
pub fn repeated_endorsed_actions(envelope: &[u8]) -> [Variant; 3] {
    let endorsed = layer(envelope, ENDORSED_ACTION);
    let prp = endorsed.iter().find(|f| f.number == 1);
    let bare = ld(2, &prp.expect("a response payload").encoded);
    let kept: Vec<Raw> = endorsed.into_iter().filter(|f| f.number == 2).collect();
    let only_endorsements = ld(2, &join(&kept));
    [
        (
            "bare second action".into(),
            at_layer(envelope, ACTION_PAYLOAD, &|f| f.push(bare.clone())),
        ),
        (
            "no response payload".into(),
            at_layer(envelope, ACTION_PAYLOAD, &|f| {
                f.push(only_endorsements.clone())
            }),
        ),
        (
            "empty second action".into(),
            at_layer(envelope, ACTION_PAYLOAD, &|f| f.push(ld(2, b""))),
        ),
    ]
}

/// A second chaincode id renaming the chaincode; then a third without
/// a name.
pub fn repeated_chaincode_ids(envelope: &[u8]) -> [Variant; 2] {
    let renamed = at_layer(envelope, CC_ACTION, &|f| {
        f.push(ld(4, &ld(2, b"other").encoded));
    });
    let unnamed = at_layer(&renamed, CC_ACTION, &|f| {
        f.push(ld(4, &ld(3, b"2.0").encoded));
    });
    [("renamed".into(), renamed), ("unnamed".into(), unnamed)]
}

/// Every string field of an envelope, the ones the peer never reads
/// included, given a non-UTF-8 twin in front and behind.
pub fn non_utf8_strings(envelope: &[u8]) -> Vec<Variant> {
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
    let mut out = Vec::new();
    for (field, path, number) in strings {
        for front in [true, false] {
            let bad = at_layer(envelope, path, &|f| {
                let at = if front { 0 } else { f.len() };
                f.insert(at, ld(*number, &[b'a', 0xff, 0xfe]));
            });
            out.push((format!("{field}, front {front}"), bad));
        }
    }
    out
}
