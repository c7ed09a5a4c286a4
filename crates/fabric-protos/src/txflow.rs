//! Building and decoding complete Fabric transactions and blocks.
//!
//! These helpers assemble the full nested message stack from
//! [`crate::messages`] — the same layering a real Fabric client, endorser
//! and orderer produce — and decode it back for validation.
//!
//! # What a decode allocates
//!
//! The decode is faithful to what Fabric's recursive unmarshaling
//! *checks*: every layer is **walked** to its end — a field truncated,
//! mistyped or not UTF-8 anywhere rejects the envelope whether the peer
//! reads it or not, and a repeated field means what protobuf says (the
//! last scalar wins, repeated messages accumulate) — which is the
//! per-byte cost the BMac protocol processor avoids in hardware (paper
//! §3.2 reason 1). It does not *materialise* the layers:
//! [`decode_transaction`] reads borrowed slices of the envelope and
//! builds none of the [`crate::messages`] structs. It allocates what a
//! [`DecodedTransaction`] owns — `signed_payload` (one copy of the
//! envelope's bulk), a `prp ‖ endorser` concatenation per endorsement,
//! rwset keys and values, `tx_id`, `channel_id`, `chaincode` — plus two
//! short scratch lists (endorsement and namespace slices: all are walked
//! before the first is used). A certificate is resolved
//! ([`KnownCert::resolve`]): parsed once per distinct byte string.
//!
//! The owned `marshal`/`unmarshal` types stay for the builders and
//! tests; `tests/tests/decode_differential.rs` holds this decode and
//! admission to the `unmarshal` chains they replaced. This decode, the
//! BMac sender's [`SectionSpans`] and mempool admission read each layer
//! of an envelope with one function here, so they agree on every layer.

use std::ops::Range;
use std::sync::Arc;

use fabric_crypto::identity::{KnownCert, SigningIdentity};
use fabric_crypto::sha256::sha256;
use fabric_crypto::Signature;

use crate::messages::*;
use crate::wire::WireError;

/// A read of `key` at an expected [`Version`].
pub type ReadEntry = (String, Option<Version>);
/// A write of `key` to a new value.
pub type WriteEntry = (String, Vec<u8>);

/// Inputs to [`build_transaction`].
#[derive(Debug, Clone)]
pub struct TxParams<'a> {
    /// Channel name.
    pub channel_id: &'a str,
    /// Chaincode invoked by this transaction.
    pub chaincode: &'a str,
    /// Keys read during endorsement simulation.
    pub reads: Vec<ReadEntry>,
    /// Keys written.
    pub writes: Vec<WriteEntry>,
    /// Uniquifying nonce (normally random; deterministic in tests).
    pub nonce: Vec<u8>,
    /// Wall-clock seconds for the channel header.
    pub timestamp: u64,
}

/// A fully built transaction: the marshaled envelope plus its id.
#[derive(Debug, Clone)]
pub struct BuiltTransaction {
    /// Hex transaction id (`sha256(nonce ++ creator)`).
    pub tx_id: String,
    /// The marshaled [`Envelope`] ready for ordering.
    pub envelope: Vec<u8>,
}

/// Builds a complete endorsed transaction envelope.
///
/// The construction mirrors the real flow: the client assembles the
/// proposal, each endorser signs `proposal_response_payload ++
/// endorser-identity`, and the client signs the final payload.
pub fn build_transaction(
    client: &SigningIdentity,
    endorsers: &[&SigningIdentity],
    params: &TxParams<'_>,
) -> BuiltTransaction {
    let creator = serialize_identity(client);
    let tx_id = compute_tx_id(&params.nonce, &creator);

    // Layer: KVRWSet -> NsReadWriteSet -> TxReadWriteSet
    let kv = KvRwSet {
        reads: params
            .reads
            .iter()
            .map(|(k, v)| KvRead {
                key: k.clone(),
                version: *v,
            })
            .collect(),
        writes: params
            .writes
            .iter()
            .map(|(k, v)| KvWrite {
                key: k.clone(),
                is_delete: false,
                value: v.clone(),
            })
            .collect(),
    };
    let txrw = TxReadWriteSet {
        data_model: 0,
        ns_rwset: vec![NsReadWriteSet {
            namespace: params.chaincode.to_string(),
            rwset: kv.marshal(),
        }],
    };

    // Layer: ChaincodeAction -> ProposalResponsePayload
    let cc_action = ChaincodeAction {
        results: txrw.marshal(),
        events: Vec::new(),
        response_status: 200,
        chaincode_id: ChaincodeId {
            path: String::new(),
            name: params.chaincode.to_string(),
            version: "1.0".into(),
        },
    };
    let prp = ProposalResponsePayload {
        proposal_hash: sha256(&params.nonce).to_vec(),
        extension: cc_action.marshal(),
    };
    let prp_bytes = prp.marshal();

    // Endorsements: sign prp ++ endorser identity (Fabric semantics).
    let endorsements: Vec<Endorsement> = endorsers
        .iter()
        .map(|e| {
            let endorser_bytes = serialize_identity(e);
            let mut msg = prp_bytes.clone();
            msg.extend_from_slice(&endorser_bytes);
            let sig = e.sign(&msg);
            Endorsement {
                endorser: endorser_bytes,
                signature: fabric_crypto::der::encode_signature(&sig),
            }
        })
        .collect();

    // Layer: ChaincodeEndorsedAction -> ChaincodeActionPayload ->
    // TransactionAction -> Transaction
    let cap = ChaincodeActionPayload {
        chaincode_proposal_payload: params.nonce.clone(),
        action: ChaincodeEndorsedAction {
            proposal_response_payload: prp_bytes,
            endorsements,
        },
    };
    let sig_header = SignatureHeader {
        creator: creator.clone(),
        nonce: params.nonce.clone(),
    };
    let tx = Transaction {
        actions: vec![TransactionAction {
            header: sig_header.marshal(),
            payload: cap.marshal(),
        }],
    };

    // Layer: ChannelHeader/SignatureHeader -> Header -> Payload -> Envelope
    let ch = ChannelHeader {
        header_type: header_type::ENDORSER_TRANSACTION,
        version: 1,
        timestamp: params.timestamp,
        channel_id: params.channel_id.to_string(),
        tx_id: tx_id.clone(),
        epoch: 0,
    };
    let payload = Payload {
        header: Header {
            channel_header: ch.marshal(),
            signature_header: sig_header.marshal(),
        },
        data: tx.marshal(),
    };
    let payload_bytes = payload.marshal();
    let client_sig = client.sign(&payload_bytes);
    let envelope = Envelope {
        payload: payload_bytes,
        signature: fabric_crypto::der::encode_signature(&client_sig),
    };
    BuiltTransaction {
        tx_id,
        envelope: envelope.marshal(),
    }
}

/// Fabric's transaction id: hex of `sha256(nonce ++ creator)`.
pub fn compute_tx_id(nonce: &[u8], creator: &[u8]) -> String {
    let mut material = nonce.to_vec();
    material.extend_from_slice(creator);
    to_hex(&sha256(&material))
}

/// Serializes a node identity as a marshaled [`SerializedIdentity`].
pub fn serialize_identity(identity: &SigningIdentity) -> Vec<u8> {
    SerializedIdentity {
        mspid: identity.certificate().org_name.clone(),
        id_bytes: identity.certificate().to_bytes(),
    }
    .marshal()
}

/// One endorsement, decoded for verification.
#[derive(Debug, Clone)]
pub struct DecodedEndorsement {
    /// The endorser's certificate.
    pub endorser_cert: Arc<KnownCert>,
    /// Parsed signature.
    pub signature: Signature,
    /// The message the endorser signed (`prp ++ endorser-identity`).
    pub signed_message: Vec<u8>,
}

/// A fully decoded endorser transaction, ready for verify/vscc/mvcc.
#[derive(Debug, Clone)]
pub struct DecodedTransaction {
    /// Hex transaction id from the channel header.
    pub tx_id: String,
    /// Channel name.
    pub channel_id: String,
    /// Invoked chaincode (namespace of the rwset).
    pub chaincode: String,
    /// Creator (client) certificate.
    pub creator_cert: Arc<KnownCert>,
    /// The client's parsed envelope signature.
    pub client_signature: Signature,
    /// Bytes covered by the client signature (marshaled payload).
    pub signed_payload: Vec<u8>,
    /// Decoded reads.
    pub reads: Vec<ReadEntry>,
    /// Decoded writes.
    pub writes: Vec<WriteEntry>,
    /// Decoded endorsements.
    pub endorsements: Vec<DecodedEndorsement>,
    /// Size of the marshaled envelope in bytes.
    pub envelope_len: usize,
}

/// Fields 1 and 2 of a message, the last occurrence of each, empty when
/// absent: [`Envelope`], [`Header`], [`SignatureHeader`],
/// [`TransactionAction`], [`Endorsement`], [`ProposalResponsePayload`]
/// and [`MetadataSignature`] are all this shape.
fn fields_1_2(bytes: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    let (mut first, mut second): (&[u8], &[u8]) = (&[], &[]);
    unmarshal_loop!(bytes, f => match f.number {
        1 => first = f.data,
        2 => second = f.data,
        _ => {}
    });
    Ok((first, second))
}

/// [`fields_1_2`] with field 1 a string: [`SerializedIdentity`] and
/// [`NsReadWriteSet`].
fn name_and_bytes(bytes: &[u8]) -> Result<(&str, &[u8]), WireError> {
    let (mut name, mut rest): (&str, &[u8]) = ("", &[]);
    unmarshal_loop!(bytes, f => match f.number {
        1 => name = utf8_str(f.data)?,
        2 => rest = f.data,
        _ => {}
    });
    Ok((name, rest))
}

/// The certificate inside a marshaled [`SerializedIdentity`].
fn identity_cert(identity: &[u8], what: &'static str) -> Result<Arc<KnownCert>, WireError> {
    let (_mspid, id_bytes) = name_and_bytes(identity)?;
    KnownCert::resolve(id_bytes).map_err(|_| WireError::Semantic(what))
}

fn parse_signature(der: &[u8], what: &'static str) -> Result<Signature, WireError> {
    fabric_crypto::der::decode_signature(der).map_err(|_| WireError::Semantic(what))
}

/// An envelope's layers above its transaction, walked in place:
/// [`Envelope`], [`Payload`] and its [`Header`], [`ChannelHeader`] and
/// [`SignatureHeader`]. Every reader of an envelope starts here.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvelopeHead<'a> {
    /// The marshaled [`Payload`] the client signed.
    pub payload: &'a [u8],
    /// The client's signature over it (DER).
    pub signature: &'a [u8],
    /// Channel name.
    pub channel_id: &'a str,
    /// Hex transaction id.
    pub tx_id: &'a str,
    /// The creator's marshaled [`SerializedIdentity`].
    pub creator: &'a [u8],
    /// The marshaled [`Transaction`].
    pub transaction: &'a [u8],
}

impl<'a> EnvelopeHead<'a> {
    /// Walks a marshaled [`Envelope`] down to its signature header; a
    /// [`WireError`] when one of these layers is malformed.
    pub fn walk(envelope: &'a [u8]) -> Result<Self, WireError> {
        let mut head = EnvelopeHead::default();
        (head.payload, head.signature) = fields_1_2(envelope)?;
        let (mut channel_header, mut signature_header): (&[u8], &[u8]) = (&[], &[]);
        unmarshal_loop!(head.payload, f => match f.number {
            1 => (channel_header, signature_header) = fields_1_2(f.data)?,
            2 => head.transaction = f.data,
            _ => {}
        });
        unmarshal_loop!(channel_header, f => match f.number {
            4 => head.channel_id = utf8_str(f.data)?,
            5 => head.tx_id = utf8_str(f.data)?,
            _ => {}
        });
        (head.creator, _) = fields_1_2(signature_header)?;
        Ok(head)
    }

    /// The creator's certificate and the client's signature; a
    /// [`WireError`] when either does not parse.
    pub fn signer(&self) -> Result<(Arc<KnownCert>, Signature), WireError> {
        let creator = identity_cert(self.creator, "bad creator certificate")?;
        let signature = parse_signature(self.signature, "bad client signature DER")?;
        Ok((creator, signature))
    }
}

/// A [`Transaction`]'s actions, each given to `each` in order (with
/// whether it is the first); returns the first once all are walked.
fn transaction_actions<'a>(
    transaction: &'a [u8],
    mut each: impl FnMut(bool, &'a [u8], &'a [u8]),
) -> Result<(&'a [u8], &'a [u8]), WireError> {
    let mut first = None;
    unmarshal_loop!(transaction, f => if f.number == 1 {
        let (header, payload) = fields_1_2(f.data)?;
        each(first.is_none(), header, payload);
        first.get_or_insert((header, payload));
    });
    first.ok_or(WireError::Semantic("transaction has no actions"))
}

/// An endorsement's marshaled endorser identity and signature (DER).
type Endorsed<'a> = (&'a [u8], &'a [u8]);

/// A [`ChaincodeActionPayload`]'s endorsed action: the marshaled
/// [`ProposalResponsePayload`] and each endorsement. A repeated endorsed
/// action replaces both alike.
fn endorsed_action(action_payload: &[u8]) -> Result<(&[u8], Vec<Endorsed<'_>>), WireError> {
    let mut prp: &[u8] = &[];
    let mut endorsements = Vec::new();
    unmarshal_loop!(action_payload, f => if f.number == 2 {
        prp = &[];
        endorsements.clear();
        unmarshal_loop!(f.data, g => match g.number {
            1 => prp = g.data,
            2 => endorsements.push(fields_1_2(g.data)?),
            _ => {}
        });
    });
    Ok((prp, endorsements))
}

/// A [`ProposalResponsePayload`]'s [`ChaincodeAction`]: its results (a
/// marshaled [`TxReadWriteSet`]) and the chaincode id's name.
fn chaincode_action(prp: &[u8]) -> Result<(&[u8], &str), WireError> {
    let (_proposal_hash, extension) = fields_1_2(prp)?;
    let (mut results, mut chaincode): (&[u8], &str) = (&[], "");
    unmarshal_loop!(extension, f => match f.number {
        1 => results = f.data,
        3 => unmarshal_loop!(f.data, _response => {}),
        4 => {
            chaincode = "";
            unmarshal_loop!(f.data, g => match g.number {
                2 => chaincode = utf8_str(g.data)?,
                1 | 3 => { utf8_str(g.data)?; }
                _ => {}
            });
        }
        _ => {}
    });
    Ok((results, chaincode))
}

/// Fully decodes a marshaled envelope, walking every nested layer in
/// place (the module docs say what that allocates and what it must agree
/// with).
///
/// # Errors
///
/// Returns [`WireError`] when any layer is structurally malformed — a
/// missing action, unparsable certificate, or invalid DER signature.
pub fn decode_transaction(envelope_bytes: &[u8]) -> Result<DecodedTransaction, WireError> {
    let head = EnvelopeHead::walk(envelope_bytes)?;
    let (creator_cert, client_signature) = head.signer()?;
    // Every action is walked, the first one is used.
    let (_, action_payload) = transaction_actions(head.transaction, |_, _, _| {})?;
    let (prp, endorsed) = endorsed_action(action_payload)?;
    let (results, mut chaincode) = chaincode_action(prp)?;
    // TxReadWriteSet: every namespace is walked before any rwset is.
    let mut namespaces: Vec<(&str, &[u8])> = Vec::new();
    unmarshal_loop!(results, f => if f.number == 2 {
        namespaces.push(name_and_bytes(f.data)?);
    });
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for (namespace, rwset) in namespaces {
        if chaincode.is_empty() {
            chaincode = namespace;
        }
        unmarshal_loop!(rwset, f => match f.number {
            1 => reads.push(kv_read(f.data)?),
            3 => writes.extend(kv_write(f.data)?),
            _ => {}
        });
    }

    let mut endorsements = Vec::with_capacity(endorsed.len());
    for (endorser, der) in endorsed {
        let endorser_cert = identity_cert(endorser, "bad endorser certificate")?;
        let signature = parse_signature(der, "bad endorsement DER")?;
        let mut signed_message = Vec::with_capacity(prp.len() + endorser.len());
        signed_message.extend_from_slice(prp);
        signed_message.extend_from_slice(endorser);
        endorsements.push(DecodedEndorsement {
            endorser_cert,
            signature,
            signed_message,
        });
    }

    Ok(DecodedTransaction {
        tx_id: head.tx_id.to_owned(),
        channel_id: head.channel_id.to_owned(),
        chaincode: chaincode.to_owned(),
        creator_cert,
        client_signature,
        signed_payload: head.payload.to_vec(),
        reads,
        writes,
        endorsements,
        envelope_len: envelope_bytes.len(),
    })
}

/// One [`KvRead`].
fn kv_read(bytes: &[u8]) -> Result<ReadEntry, WireError> {
    let (mut key, mut version) = ("", None);
    unmarshal_loop!(bytes, f => match f.number {
        1 => key = utf8_str(f.data)?,
        2 => version = Some(Version::unmarshal(f.data)?),
        _ => {}
    });
    Ok((key.to_owned(), version))
}

/// One [`KvWrite`]; `None` for a delete.
fn kv_write(bytes: &[u8]) -> Result<Option<WriteEntry>, WireError> {
    let (mut key, mut is_delete, mut value): (&str, bool, &[u8]) = ("", false, &[]);
    unmarshal_loop!(bytes, f => match f.number {
        1 => key = utf8_str(f.data)?,
        2 => is_delete = f.value != 0,
        3 => value = f.data,
        _ => {}
    });
    Ok((!is_delete).then(|| (key.to_owned(), value.to_vec())))
}

/// A field of a block section that the BMac AnnotationGenerator points
/// the hardware `DataExtractor` at (paper §3.2). Its wire code is
/// `bmac-protocol`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// The orderer's block signature (DER), in the metadata section.
    BlockSignature,
    /// The client's envelope signature (DER).
    ClientSignature,
    /// One endorsement signature (DER) of the first action.
    EndorsementSignature,
    /// The first action's marshaled [`ProposalResponsePayload`] (the
    /// endorsement hash input).
    ProposalResponse,
    /// The first action's rwset ([`ChaincodeAction`]`.results`).
    RwSet,
    /// The marshaled [`Payload`] the client signed.
    SignedPayload,
}

/// Where the identities and the named fields of one block section lie,
/// as byte ranges of it: what the BMac sender strips and what it points
/// at, found by one walk of the section in place.
///
/// An envelope is walked with the layer functions [`decode_transaction`]
/// calls on it, so the walk fails only where that decode fails. On top
/// of them it reads, for identities only and never failing, each
/// action's header and a later action's endorsers. It parses no
/// identity, certificate, signature or rwset, and allocates an
/// endorsement list per action (its own lists only when they outgrow an
/// earlier walk's). Every non-empty identity or named field is given,
/// whatever it holds: the sender checks an identity it does not know.
#[derive(Debug, Clone, Default)]
pub struct SectionSpans {
    /// Identities, in discovery order. In an envelope: the payload's
    /// creator, then each action's creator followed by its endorsers. In
    /// the metadata section: the orderer.
    pub identities: Vec<Range<usize>>,
    /// Named fields, in annotation order. In an envelope: client
    /// signature, signed payload, then — for the first action — the
    /// proposal response, each endorsement signature and the rwset. In
    /// the metadata section: the block signature.
    pub fields: Vec<(FieldKind, Range<usize>)>,
}

impl SectionSpans {
    /// Walks a marshaled [`Envelope`] (a transaction section).
    ///
    /// # Errors
    ///
    /// [`WireError`] from a layer function [`decode_transaction`] calls
    /// on the same bytes; the spans are then incomplete.
    pub fn walk_envelope(&mut self, envelope: &[u8]) -> Result<(), WireError> {
        self.identities.clear();
        self.fields.clear();
        let head = EnvelopeHead::walk(envelope)?;
        self.field(envelope, FieldKind::ClientSignature, head.signature);
        self.field(envelope, FieldKind::SignedPayload, head.payload);
        self.identity(envelope, head.creator);
        // Where the first action's endorsers go: after its creator.
        let mut first_ends = 0;
        let (_, first) = transaction_actions(head.transaction, |is_first, header, payload| {
            if let Ok((creator, _nonce)) = fields_1_2(header) {
                self.identity(envelope, creator);
            }
            if is_first {
                first_ends = self.identities.len();
            } else if let Ok((_, endorsements)) = endorsed_action(payload) {
                for (endorser, _) in endorsements {
                    self.identity(envelope, endorser);
                }
            }
        })?;
        let (prp, endorsements) = endorsed_action(first)?;
        let (results, _chaincode) = chaincode_action(prp)?;
        self.field(envelope, FieldKind::ProposalResponse, prp);
        let later = self.identities.len();
        for (endorser, signature) in endorsements {
            self.identity(envelope, endorser);
            self.field(envelope, FieldKind::EndorsementSignature, signature);
        }
        self.field(envelope, FieldKind::RwSet, results);
        self.identities[first_ends..].rotate_left(later - first_ends);
        Ok(())
    }

    /// Walks a marshaled [`BlockMetadata`] (the metadata section): the
    /// orderer's [`MetadataSignature`] in the first slot.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the first slot is not a [`MetadataSignature`];
    /// the spans are then incomplete.
    pub fn walk_metadata(&mut self, metadata: &[u8]) -> Result<(), WireError> {
        self.identities.clear();
        self.fields.clear();
        let mut signatures: Option<&[u8]> = None;
        unmarshal_loop!(metadata, f => if f.number == 1 && signatures.is_none() {
            signatures = Some(fields_1_2(f.data)?.0);
        });
        let (signature_header, signature) = fields_1_2(signatures.unwrap_or_default())?;
        if let Ok((orderer, _nonce)) = fields_1_2(signature_header) {
            self.identity(metadata, orderer);
        }
        self.field(metadata, FieldKind::BlockSignature, signature);
        Ok(())
    }

    fn identity(&mut self, section: &[u8], identity: &[u8]) {
        if !identity.is_empty() {
            self.identities.push(span_of(section, identity));
        }
    }

    fn field(&mut self, section: &[u8], kind: FieldKind, value: &[u8]) {
        if !value.is_empty() {
            self.fields.push((kind, span_of(section, value)));
        }
    }
}

/// Where `part`, a non-empty slice of `section`, lies in it.
fn span_of(section: &[u8], part: &[u8]) -> Range<usize> {
    let start = part.as_ptr() as usize - section.as_ptr() as usize;
    debug_assert!(start + part.len() <= section.len());
    start..start + part.len()
}

/// Builds a block from ordered envelopes, with the orderer's signature in
/// the metadata (paper Figure 1 step 2 / §2.1.2 step 1).
pub fn build_block(
    number: u64,
    previous_hash: &[u8],
    envelopes: Vec<Vec<u8>>,
    orderer: &SigningIdentity,
) -> Block {
    let data = BlockData { data: envelopes };
    let data_hash = hash_block_data(&data);
    let header = BlockHeader {
        number,
        previous_hash: previous_hash.to_vec(),
        data_hash: data_hash.to_vec(),
    };
    let mut metadata = BlockMetadata::default();
    metadata.metadata[metadata_index::TRANSACTIONS_FILTER] = vec![0u8; data.data.len()];
    let sig_header = SignatureHeader {
        creator: serialize_identity(orderer),
        nonce: number.to_be_bytes().to_vec(),
    };
    let signed = block_signature_message(&sig_header.marshal(), &header);
    let sig = orderer.sign(&signed);
    let md_sig = MetadataSignature {
        signature_header: sig_header.marshal(),
        signature: fabric_crypto::der::encode_signature(&sig),
    };
    metadata.metadata[metadata_index::SIGNATURES] = md_sig.marshal();
    Block {
        header,
        data,
        metadata,
    }
}

/// The bytes covered by the orderer's block signature.
pub fn block_signature_message(sig_header_bytes: &[u8], header: &BlockHeader) -> Vec<u8> {
    let mut msg = sig_header_bytes.to_vec();
    msg.extend_from_slice(&header.marshal());
    msg
}

/// SHA-256 over the serialized block data (Fabric's `data_hash`).
pub fn hash_block_data(data: &BlockData) -> [u8; 32] {
    let mut h = fabric_crypto::Sha256::new();
    for env in &data.data {
        h.update(env);
    }
    h.finalize()
}

/// SHA-256 of the marshaled block header — the block hash chained into the
/// next block's `previous_hash`.
pub fn block_header_hash(header: &BlockHeader) -> [u8; 32] {
    sha256(&header.marshal())
}

/// A decoded block: header facts plus every transaction decoded.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    /// Block number.
    pub number: u64,
    /// Header hash (chains to the next block).
    pub header_hash: [u8; 32],
    /// `previous_hash` from the header.
    pub previous_hash: Vec<u8>,
    /// `data_hash` from the header.
    pub data_hash: Vec<u8>,
    /// Orderer certificate recovered from the signature metadata.
    pub orderer_cert: Arc<KnownCert>,
    /// Parsed orderer signature.
    pub orderer_signature: Signature,
    /// Bytes the orderer signed.
    pub orderer_signed_message: Vec<u8>,
    /// Every transaction, fully decoded in order.
    pub txs: Vec<DecodedTransaction>,
    /// Size of the marshaled block: caller-supplied, `0` when unknown;
    /// no reader in the workspace.
    pub block_len: usize,
}

/// Fully decodes a marshaled block: header, orderer signature and all
/// transactions. This is the software peer's "retrieve block and
/// transaction data" step (paper §2.1.3 bottleneck 1).
///
/// # Errors
///
/// Returns [`WireError`] when any layer of any transaction is malformed.
pub fn decode_block(block_bytes: &[u8]) -> Result<DecodedBlock, WireError> {
    let block = Block::unmarshal(block_bytes)?;
    decode_block_struct(&block, block_bytes.len())
}

/// Decodes an already-unmarshaled [`Block`] structure. `block_len` is
/// stored in [`DecodedBlock::block_len`] as given; pass `0` when the
/// marshaled length is not at hand.
///
/// # Errors
///
/// Returns [`WireError`] when any nested layer is malformed.
pub fn decode_block_struct(block: &Block, block_len: usize) -> Result<DecodedBlock, WireError> {
    let (signature_header, orderer_der) =
        fields_1_2(&block.metadata.metadata[metadata_index::SIGNATURES])?;
    let (creator, _nonce) = fields_1_2(signature_header)?;
    let orderer_cert = identity_cert(creator, "bad orderer certificate")?;
    let orderer_signature = parse_signature(orderer_der, "bad orderer signature DER")?;
    let orderer_signed_message = block_signature_message(signature_header, &block.header);

    let mut txs = Vec::with_capacity(block.data.data.len());
    for env in &block.data.data {
        txs.push(decode_transaction(env)?);
    }
    Ok(DecodedBlock {
        number: block.header.number,
        header_hash: block_header_hash(&block.header),
        previous_hash: block.header.previous_hash.clone(),
        data_hash: block.header.data_hash.clone(),
        orderer_cert,
        orderer_signature,
        orderer_signed_message,
        txs,
        block_len,
    })
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::{Msp, Role};

    fn test_identities() -> (
        SigningIdentity,
        SigningIdentity,
        SigningIdentity,
        SigningIdentity,
    ) {
        let mut msp = Msp::new(2);
        let client = msp.issue(0, Role::Client, 0).unwrap();
        let e1 = msp.issue(0, Role::Peer, 0).unwrap();
        let e2 = msp.issue(1, Role::Peer, 0).unwrap();
        let orderer = msp.issue(0, Role::Orderer, 0).unwrap();
        (client, e1, e2, orderer)
    }

    fn sample_params() -> TxParams<'static> {
        TxParams {
            channel_id: "mychannel",
            chaincode: "smallbank",
            reads: vec![(
                "acc1".into(),
                Some(Version {
                    block_num: 1,
                    tx_num: 0,
                }),
            )],
            writes: vec![("acc1".into(), b"950".to_vec())],
            nonce: vec![1, 2, 3, 4, 5, 6, 7, 8],
            timestamp: 1_700_000_000,
        }
    }

    #[test]
    fn build_and_decode_transaction() {
        let (client, e1, e2, _) = test_identities();
        let built = build_transaction(&client, &[&e1, &e2], &sample_params());
        let decoded = decode_transaction(&built.envelope).unwrap();
        assert_eq!(decoded.tx_id, built.tx_id);
        assert_eq!(decoded.chaincode, "smallbank");
        assert_eq!(decoded.reads.len(), 1);
        assert_eq!(decoded.writes.len(), 1);
        assert_eq!(decoded.endorsements.len(), 2);
        assert_eq!(**decoded.creator_cert, *client.certificate());
    }

    #[test]
    fn client_signature_verifies() {
        let (client, e1, _, _) = test_identities();
        let built = build_transaction(&client, &[&e1], &sample_params());
        let decoded = decode_transaction(&built.envelope).unwrap();
        assert!(decoded
            .creator_cert
            .public_key
            .verify(&decoded.signed_payload, &decoded.client_signature)
            .is_ok());
    }

    #[test]
    fn endorsement_signatures_verify() {
        let (client, e1, e2, _) = test_identities();
        let built = build_transaction(&client, &[&e1, &e2], &sample_params());
        let decoded = decode_transaction(&built.envelope).unwrap();
        for e in &decoded.endorsements {
            assert!(e
                .endorser_cert
                .public_key
                .verify(&e.signed_message, &e.signature)
                .is_ok());
        }
    }

    #[test]
    fn tampered_payload_fails_client_signature() {
        let (client, e1, _, _) = test_identities();
        let built = build_transaction(&client, &[&e1], &sample_params());
        let mut env = Envelope::unmarshal(&built.envelope).unwrap();
        // Flip a byte inside the signed payload.
        let n = env.payload.len() / 2;
        env.payload[n] ^= 0xff;
        let decoded = decode_transaction(&env.marshal()).unwrap();
        assert!(decoded
            .creator_cert
            .public_key
            .verify(&decoded.signed_payload, &decoded.client_signature)
            .is_err());
    }

    #[test]
    fn block_build_and_decode() {
        let (client, e1, e2, orderer) = test_identities();
        let envs: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                let mut p = sample_params();
                p.nonce = vec![i as u8; 8];
                build_transaction(&client, &[&e1, &e2], &p).envelope
            })
            .collect();
        let block = build_block(7, &[0u8; 32], envs, &orderer);
        let bytes = block.marshal();
        let decoded = decode_block(&bytes).unwrap();
        assert_eq!(decoded.number, 7);
        assert_eq!(decoded.txs.len(), 4);
        assert_eq!(**decoded.orderer_cert, *orderer.certificate());
        // Orderer signature verifies.
        assert!(decoded
            .orderer_cert
            .public_key
            .verify(&decoded.orderer_signed_message, &decoded.orderer_signature)
            .is_ok());
    }

    #[test]
    fn tampered_block_header_fails_orderer_signature() {
        let (client, e1, _, orderer) = test_identities();
        let env = build_transaction(&client, &[&e1], &sample_params()).envelope;
        let mut block = build_block(1, &[0u8; 32], vec![env], &orderer);
        block.header.number = 99; // forge
        let decoded = decode_block(&block.marshal()).unwrap();
        assert!(decoded
            .orderer_cert
            .public_key
            .verify(&decoded.orderer_signed_message, &decoded.orderer_signature)
            .is_err());
    }

    #[test]
    fn data_hash_matches_contents() {
        let (client, e1, _, orderer) = test_identities();
        let env = build_transaction(&client, &[&e1], &sample_params()).envelope;
        let block = build_block(1, &[0u8; 32], vec![env], &orderer);
        assert_eq!(
            block.header.data_hash,
            hash_block_data(&block.data).to_vec()
        );
    }

    #[test]
    fn tx_id_is_deterministic_in_nonce_and_creator() {
        let (client, e1, _, _) = test_identities();
        let a = build_transaction(&client, &[&e1], &sample_params());
        let b = build_transaction(&client, &[&e1], &sample_params());
        assert_eq!(a.tx_id, b.tx_id);
        let mut p2 = sample_params();
        p2.nonce = vec![9; 8];
        let c = build_transaction(&client, &[&e1], &p2);
        assert_ne!(a.tx_id, c.tx_id);
    }

    #[test]
    fn decode_rejects_actionless_transaction() {
        let (client, _, _, _) = test_identities();
        // Build a payload with an empty Transaction.
        let sig_header = SignatureHeader {
            creator: serialize_identity(&client),
            nonce: vec![1],
        };
        let payload = Payload {
            header: Header {
                channel_header: ChannelHeader::default().marshal(),
                signature_header: sig_header.marshal(),
            },
            data: Transaction::default().marshal(),
        };
        let pb = payload.marshal();
        let sig = client.sign(&pb);
        let env = Envelope {
            payload: pb,
            signature: fabric_crypto::der::encode_signature(&sig),
        };
        assert!(decode_transaction(&env.marshal()).is_err());
    }

    #[test]
    fn envelope_size_is_dominated_by_certificates() {
        // The paper: "at least 73% size of a block is attributed to
        // repetitive appearance of the same identities".
        let (client, e1, e2, _) = test_identities();
        let built = build_transaction(&client, &[&e1, &e2], &sample_params());
        // The client identity appears twice (payload signature header and
        // transaction action header), plus one certificate per endorser.
        let cert_len = 2 * client.certificate().to_bytes().len()
            + e1.certificate().to_bytes().len()
            + e2.certificate().to_bytes().len();
        let frac = cert_len as f64 / built.envelope.len() as f64;
        assert!(
            frac > 0.7,
            "certificates are {:.0}% of the envelope",
            frac * 100.0
        );
    }
}
