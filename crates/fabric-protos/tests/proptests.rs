//! Property-based tests for the protobuf wire format and Fabric
//! messages: arbitrary-value roundtrips through the crate's decoders and
//! decoder robustness.

use fabric_crypto::identity::{Msp, Role};
use fabric_protos::messages::*;
use fabric_protos::txflow::{build_transaction, decode_transaction, SectionSpans, TxParams};
use fabric_protos::wire::{put_varint, varint_len, ProtoReader, ProtoWriter, WireError};
use proptest::prelude::*;

/// Each field of `bytes` as the reader gives it: number, value (the
/// varint, or the length of a length-delimited field) and data.
fn read_fields(bytes: &[u8]) -> Vec<(u32, u64, Vec<u8>)> {
    let mut r = ProtoReader::new(bytes);
    let fields = std::iter::from_fn(|| r.next_field().unwrap());
    fields
        .map(|f| (f.number, f.value, f.data.to_vec()))
        .collect()
}

/// What [`read_fields`] gives for a length-delimited field: nothing when
/// it is empty, as `ProtoWriter::bytes` skips it.
fn bytes_field(number: u32, data: &[u8]) -> Option<(u32, u64, Vec<u8>)> {
    (!data.is_empty()).then(|| (number, data.len() as u64, data.to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        prop_assert_eq!(buf.len(), varint_len(v));
        let mut w = ProtoWriter::new();
        w.uint64(1, v);
        let bytes = w.into_bytes();
        if v != 0 {
            let mut r = ProtoReader::new(&bytes);
            let f = r.next_field().unwrap().unwrap();
            prop_assert_eq!(f.value, v);
        }
    }

    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = ProtoReader::new(&bytes);
        // Drain until end or error; must never panic.
        while let Ok(Some(_)) = r.next_field() {}
    }

    #[test]
    fn envelope_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..256),
                          signature in proptest::collection::vec(any::<u8>(), 0..96)) {
        let e = Envelope { payload, signature };
        let expected = [bytes_field(1, &e.payload), bytes_field(2, &e.signature)];
        let expected: Vec<_> = expected.into_iter().flatten().collect();
        prop_assert_eq!(read_fields(&e.marshal()), expected);
    }

    #[test]
    fn channel_header_roundtrip(
        header_type in 0u64..10,
        version in 0u64..5,
        timestamp in any::<u32>(),
        channel in "[a-z]{0,16}",
        tx_id in "[0-9a-f]{0,64}",
    ) {
        let ch = ChannelHeader {
            header_type,
            version,
            timestamp: timestamp as u64,
            channel_id: channel,
            tx_id,
            epoch: 0,
        };
        let varints = [(1, ch.header_type), (2, ch.version), (3, ch.timestamp)];
        let nonzero = varints.into_iter().filter(|&(_, v)| v != 0);
        let expected: Vec<_> = nonzero.map(|(n, v)| (n, v, vec![]))
            .chain(bytes_field(4, ch.channel_id.as_bytes()))
            .chain(bytes_field(5, ch.tx_id.as_bytes()))
            .collect();
        prop_assert_eq!(read_fields(&ch.marshal()), expected);
    }

    #[test]
    fn kv_rwset_roundtrip(
        reads in proptest::collection::vec(("[a-z0-9_]{1,24}", proptest::option::of((any::<u32>(), any::<u16>()))), 0..8),
        writes in proptest::collection::vec(("[a-z0-9_]{1,24}", proptest::collection::vec(any::<u8>(), 0..32)), 0..8),
    ) {
        // The builder marshals the rwset, the peer's decode reads it.
        let reads: Vec<_> = reads
            .into_iter()
            .map(|(key, v)| (key, v.map(|(b, t)| Version { block_num: b as u64, tx_num: t as u64 })))
            .collect();
        let mut msp = Msp::new(1);
        let client = msp.issue(0, Role::Client, 0).unwrap();
        let peer = msp.issue(0, Role::Peer, 0).unwrap();
        let params = TxParams {
            channel_id: "ch", chaincode: "cc", reads, writes, nonce: vec![1], timestamp: 0,
        };
        let built = build_transaction(&client, &[&peer], &params);
        let decoded = decode_transaction(&built.envelope).unwrap();
        prop_assert_eq!((decoded.reads, decoded.writes), (params.reads, params.writes));
    }

    #[test]
    fn block_roundtrip(
        number in any::<u32>(),
        envelopes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 0..6),
    ) {
        let block = Block {
            header: BlockHeader {
                number: number as u64,
                previous_hash: vec![1; 32],
                data_hash: vec![2; 32],
            },
            data: BlockData { data: envelopes },
            metadata: BlockMetadata::default(),
        };
        prop_assert_eq!(Block::unmarshal(&block.marshal()).unwrap(), block);
    }

    /// `Block::marshal_into` writes every section where it lands; the
    /// definition it replaced marshaled each into a temporary and copied
    /// it into the parent. Same bytes, including the skipped cases: a
    /// zero block number, empty hashes, empty envelopes, no envelopes.
    #[test]
    fn block_marshals_in_place_to_the_nested_definition(
        number in prop_oneof![Just(0u64), any::<u64>()],
        hash_len in prop_oneof![Just(0usize), Just(32usize)],
        envelopes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..6),
        filter in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut block = Block {
            header: BlockHeader {
                number,
                previous_hash: vec![1; hash_len],
                data_hash: vec![2; hash_len],
            },
            data: BlockData { data: envelopes },
            metadata: BlockMetadata::default(),
        };
        block.metadata.metadata[metadata_index::TRANSACTIONS_FILTER] = filter;
        let mut nested = ProtoWriter::new();
        nested.bytes(1, &block.header.marshal());
        nested.bytes(2, &block.data.marshal());
        nested.bytes(3, &block.metadata.marshal());
        let nested = nested.into_bytes();
        prop_assert_eq!(block.encoded_len(), nested.len());
        prop_assert_eq!(block.header.encoded_len(), block.header.marshal().len());
        prop_assert_eq!(block.data.encoded_len(), block.data.marshal().len());
        prop_assert_eq!(block.metadata.encoded_len(), block.metadata.marshal().len());
        let mut out = vec![0xEE; 3];
        block.marshal_into(&mut out);
        prop_assert_eq!(&out[..3], &[0xEE; 3][..]);
        prop_assert_eq!(&out[3..], &nested[..]);
        prop_assert_eq!(block.marshal(), nested);
    }

    #[test]
    fn unmarshal_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Block::unmarshal(&bytes);
        let _ = BlockMetadata::unmarshal(&bytes);
        let _ = SerializedIdentity::unmarshal(&bytes);
        let _ = fabric_protos::txflow::decode_transaction(&bytes);
        let _ = fabric_protos::txflow::decode_block(&bytes);
        let _ = fabric_protos::txflow::EnvelopeHead::walk(&bytes);
        // The sender's walks, complete or not, give spans of the input.
        let mut spans = SectionSpans::default();
        for walk in [SectionSpans::walk_envelope, SectionSpans::walk_metadata] {
            let _ = walk(&mut spans, &bytes);
            let fields = spans.fields.iter().map(|(_, span)| span);
            for span in spans.identities.iter().chain(fields) {
                prop_assert!(span.start < span.end && span.end <= bytes.len());
            }
        }
    }
}

/// A length prefix close to `u64::MAX` must not wrap the reader's bounds
/// check into a slice panic: every reader sees a truncated field.
#[test]
fn a_length_beyond_the_address_space_is_a_truncation() {
    let mut bytes = vec![0x0a];
    bytes.extend([0xff; 9]);
    bytes.push(0x01);
    assert_eq!(Block::unmarshal(&bytes), Err(WireError::Truncated));
    assert_eq!(BlockMetadata::unmarshal(&bytes), Err(WireError::Truncated));
    assert_eq!(
        SerializedIdentity::unmarshal(&bytes),
        Err(WireError::Truncated)
    );
    let decoded = fabric_protos::txflow::decode_transaction(&bytes);
    assert_eq!(decoded.unwrap_err(), WireError::Truncated);
    let head = fabric_protos::txflow::EnvelopeHead::walk(&bytes);
    assert_eq!(head.unwrap_err(), WireError::Truncated);
    let mut spans = SectionSpans::default();
    assert_eq!(spans.walk_envelope(&bytes), Err(WireError::Truncated));
    assert_eq!(spans.walk_metadata(&bytes), Err(WireError::Truncated));
}
