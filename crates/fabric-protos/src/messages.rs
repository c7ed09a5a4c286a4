//! Hyperledger Fabric message structures (v1.4 wire layout).
//!
//! Field numbers follow the real Fabric `.proto` definitions
//! (`common/common.proto`, `peer/transaction.proto`,
//! `peer/proposal_response.proto`, `ledger/rwset/*.proto`, `msp/identities.proto`),
//! so a marshaled block produced here has the same nested structure — and
//! the same ~20-layer decode cost — that the paper's §3.2 analysis
//! describes for real Fabric blocks.
//!
//! Every type provides `marshal`/`unmarshal`; unknown fields are skipped
//! on decode, mirroring protobuf semantics.

use crate::wire::{bytes_field_len, message_field_len, uint64_field_len, ProtoWriter, WireError};

/// Generates `marshal`/`unmarshal` boilerplate-free accessors is overkill
/// here; each message is written out explicitly for auditability.
macro_rules! unmarshal_loop {
    ($bytes:expr, $field:ident => $body:expr) => {{
        let mut reader = $crate::wire::ProtoReader::new($bytes);
        while let Some($field) = reader.next_field()? {
            $body
        }
    }};
}
pub(crate) use unmarshal_loop;

/// Outermost wrapper of a transaction: signed payload.
/// (`common.Envelope`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Envelope {
    /// Marshaled [`Payload`].
    pub payload: Vec<u8>,
    /// Client signature over `payload`.
    pub signature: Vec<u8>,
}

impl Envelope {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::with_capacity(self.payload.len() + self.signature.len() + 8);
        w.bytes(1, &self.payload);
        w.bytes(2, &self.signature);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Envelope::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.payload = f.data.to_vec(),
                2 => m.signature = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Payload of an envelope: header + app data. (`common.Payload`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Payload {
    /// The transaction header pair.
    pub header: Header,
    /// Marshaled [`Transaction`] (for endorser transactions).
    pub data: Vec<u8>,
}

impl Payload {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        let hdr = self.header.marshal();
        w.bytes(1, &hdr);
        w.bytes(2, &self.data);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Payload::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.header = Header::unmarshal(f.data)?,
                2 => m.data = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Channel + signature header pair. (`common.Header`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Header {
    /// Marshaled [`ChannelHeader`].
    pub channel_header: Vec<u8>,
    /// Marshaled [`SignatureHeader`].
    pub signature_header: Vec<u8>,
}

impl Header {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.channel_header);
        w.bytes(2, &self.signature_header);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Header::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.channel_header = f.data.to_vec(),
                2 => m.signature_header = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Transaction type discriminators used in [`ChannelHeader::header_type`].
pub mod header_type {
    /// Orderer configuration transaction.
    pub const CONFIG: u64 = 1;
    /// Standard endorser transaction.
    pub const ENDORSER_TRANSACTION: u64 = 3;
}

/// Channel-scoped routing metadata. (`common.ChannelHeader`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelHeader {
    /// One of [`header_type`].
    pub header_type: u64,
    /// Message protocol version.
    pub version: u64,
    /// Seconds since epoch (simplified from `google.protobuf.Timestamp`).
    pub timestamp: u64,
    /// Channel name.
    pub channel_id: String,
    /// Transaction id (hex of SHA-256 over nonce++creator).
    pub tx_id: String,
    /// Epoch (unused, kept for layout fidelity).
    pub epoch: u64,
}

impl ChannelHeader {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.uint64(1, self.header_type);
        w.uint64(2, self.version);
        w.uint64(3, self.timestamp);
        w.string(4, &self.channel_id);
        w.string(5, &self.tx_id);
        w.uint64(6, self.epoch);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ChannelHeader::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.header_type = f.value,
                2 => m.version = f.value,
                3 => m.timestamp = f.value,
                4 => m.channel_id = utf8(f.data)?,
                5 => m.tx_id = utf8(f.data)?,
                6 => m.epoch = f.value,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Creator identity + nonce. (`common.SignatureHeader`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SignatureHeader {
    /// Marshaled [`SerializedIdentity`] of the creator.
    pub creator: Vec<u8>,
    /// Random nonce ensuring tx-id uniqueness.
    pub nonce: Vec<u8>,
}

impl SignatureHeader {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.creator);
        w.bytes(2, &self.nonce);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = SignatureHeader::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.creator = f.data.to_vec(),
                2 => m.nonce = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// MSP identity wrapper: org MSP id + certificate bytes.
/// (`msp.SerializedIdentity`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SerializedIdentity {
    /// MSP name, e.g. `"Org1MSP"`.
    pub mspid: String,
    /// The X.509-lite certificate bytes (the ~860-byte payload the BMac
    /// protocol replaces with a 16-bit id).
    pub id_bytes: Vec<u8>,
}

impl SerializedIdentity {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.string(1, &self.mspid);
        w.bytes(2, &self.id_bytes);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = SerializedIdentity::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.mspid = utf8(f.data)?,
                2 => m.id_bytes = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// The transaction action list. (`peer.Transaction`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Transaction {
    /// Usually exactly one action for endorser transactions.
    pub actions: Vec<TransactionAction>,
}

impl Transaction {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        for a in &self.actions {
            w.bytes(1, &a.marshal());
        }
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Transaction::default();
        unmarshal_loop!(bytes, f => {
            if f.number == 1 {
                m.actions.push(TransactionAction::unmarshal(f.data)?);
            }
        });
        Ok(m)
    }
}

/// One action of a transaction. (`peer.TransactionAction`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransactionAction {
    /// Marshaled [`SignatureHeader`] (proposal creator).
    pub header: Vec<u8>,
    /// Marshaled [`ChaincodeActionPayload`].
    pub payload: Vec<u8>,
}

impl TransactionAction {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.header);
        w.bytes(2, &self.payload);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = TransactionAction::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.header = f.data.to_vec(),
                2 => m.payload = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Proposal payload + endorsed action. (`peer.ChaincodeActionPayload`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaincodeActionPayload {
    /// Marshaled chaincode proposal payload (invocation args).
    pub chaincode_proposal_payload: Vec<u8>,
    /// The endorsed action.
    pub action: ChaincodeEndorsedAction,
}

impl ChaincodeActionPayload {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.chaincode_proposal_payload);
        w.bytes(2, &self.action.marshal());
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ChaincodeActionPayload::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.chaincode_proposal_payload = f.data.to_vec(),
                2 => m.action = ChaincodeEndorsedAction::unmarshal(f.data)?,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Proposal response + endorsements. (`peer.ChaincodeEndorsedAction`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaincodeEndorsedAction {
    /// Marshaled [`ProposalResponsePayload`] — the bytes every endorser
    /// signed.
    pub proposal_response_payload: Vec<u8>,
    /// One endorsement per endorsing peer.
    pub endorsements: Vec<Endorsement>,
}

impl ChaincodeEndorsedAction {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.proposal_response_payload);
        for e in &self.endorsements {
            w.bytes(2, &e.marshal());
        }
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ChaincodeEndorsedAction::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.proposal_response_payload = f.data.to_vec(),
                2 => m.endorsements.push(Endorsement::unmarshal(f.data)?),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// A single endorsement. (`peer.Endorsement`)
///
/// The signature covers `proposal_response_payload ++ endorser` — the
/// "endorsement data" the BMac `HashCalculator` hashes per endorsement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Endorsement {
    /// Marshaled [`SerializedIdentity`] of the endorser peer.
    pub endorser: Vec<u8>,
    /// ECDSA signature (DER).
    pub signature: Vec<u8>,
}

impl Endorsement {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.endorser);
        w.bytes(2, &self.signature);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Endorsement::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.endorser = f.data.to_vec(),
                2 => m.signature = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// What endorsers signed. (`peer.ProposalResponsePayload`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProposalResponsePayload {
    /// Hash of the original proposal.
    pub proposal_hash: Vec<u8>,
    /// Marshaled [`ChaincodeAction`].
    pub extension: Vec<u8>,
}

impl ProposalResponsePayload {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.proposal_hash);
        w.bytes(2, &self.extension);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ProposalResponsePayload::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.proposal_hash = f.data.to_vec(),
                2 => m.extension = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// The simulated execution result. (`peer.ChaincodeAction`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaincodeAction {
    /// Marshaled [`TxReadWriteSet`].
    pub results: Vec<u8>,
    /// Chaincode events (opaque).
    pub events: Vec<u8>,
    /// Chaincode response status (200 = OK).
    pub response_status: u64,
    /// Invoked chaincode id.
    pub chaincode_id: ChaincodeId,
}

impl ChaincodeAction {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.results);
        w.bytes(2, &self.events);
        if self.response_status != 0 {
            w.message(3, |r| r.uint64(1, self.response_status));
        }
        w.bytes(4, &self.chaincode_id.marshal());
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ChaincodeAction::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.results = f.data.to_vec(),
                2 => m.events = f.data.to_vec(),
                3 => {
                    unmarshal_loop!(f.data, g => {
                        if g.number == 1 {
                            m.response_status = g.value;
                        }
                    });
                }
                4 => m.chaincode_id = ChaincodeId::unmarshal(f.data)?,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Chaincode coordinates. (`peer.ChaincodeID`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaincodeId {
    /// Deployment path (unused here).
    pub path: String,
    /// Chaincode name, e.g. `"smallbank"`.
    pub name: String,
    /// Chaincode version.
    pub version: String,
}

impl ChaincodeId {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.string(1, &self.path);
        w.string(2, &self.name);
        w.string(3, &self.version);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = ChaincodeId::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.path = utf8(f.data)?,
                2 => m.name = utf8(f.data)?,
                3 => m.version = utf8(f.data)?,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Read/write sets across namespaces. (`rwset.TxReadWriteSet`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxReadWriteSet {
    /// Data model discriminator (0 = KV).
    pub data_model: u64,
    /// Per-namespace rwsets.
    pub ns_rwset: Vec<NsReadWriteSet>,
}

impl TxReadWriteSet {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.uint64(1, self.data_model);
        for ns in &self.ns_rwset {
            w.bytes(2, &ns.marshal());
        }
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = TxReadWriteSet::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.data_model = f.value,
                2 => m.ns_rwset.push(NsReadWriteSet::unmarshal(f.data)?),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// One namespace's rwset. (`rwset.NsReadWriteSet`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NsReadWriteSet {
    /// Namespace = chaincode name.
    pub namespace: String,
    /// Marshaled [`KvRwSet`].
    pub rwset: Vec<u8>,
}

impl NsReadWriteSet {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.string(1, &self.namespace);
        w.bytes(2, &self.rwset);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = NsReadWriteSet::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.namespace = utf8(f.data)?,
                2 => m.rwset = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Key-level reads and writes. (`kvrwset.KVRWSet`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvRwSet {
    /// Keys read during simulation, with their observed versions.
    pub reads: Vec<KvRead>,
    /// Keys to write on commit. (Field 3 in the real proto; field 2 is
    /// range query info, which we do not model.)
    pub writes: Vec<KvWrite>,
}

impl KvRwSet {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        for r in &self.reads {
            w.bytes(1, &r.marshal());
        }
        for wr in &self.writes {
            w.bytes(3, &wr.marshal());
        }
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = KvRwSet::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.reads.push(KvRead::unmarshal(f.data)?),
                3 => m.writes.push(KvWrite::unmarshal(f.data)?),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// A read with its expected version. (`kvrwset.KVRead`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvRead {
    /// State key.
    pub key: String,
    /// Version observed at simulation time; `None` for a missing key.
    pub version: Option<Version>,
}

impl KvRead {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.string(1, &self.key);
        if let Some(v) = &self.version {
            // A present version must survive the roundtrip even when both
            // fields are zero, so emit the submessage unconditionally
            // rather than with skip-if-empty `bytes` semantics.
            w.message(2, |m| {
                m.uint64(1, v.block_num);
                m.uint64(2, v.tx_num);
            });
        }
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = KvRead::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.key = utf8(f.data)?,
                2 => m.version = Some(Version::unmarshal(f.data)?),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Height-based version: block number + tx index. (`kvrwset.Version`)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// Committing block number.
    pub block_num: u64,
    /// Transaction index within that block.
    pub tx_num: u64,
}

impl Version {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.uint64(1, self.block_num);
        w.uint64(2, self.tx_num);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Version::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.block_num = f.value,
                2 => m.tx_num = f.value,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// A write. (`kvrwset.KVWrite`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvWrite {
    /// State key.
    pub key: String,
    /// Whether the key is deleted.
    pub is_delete: bool,
    /// New value (empty for deletes).
    pub value: Vec<u8>,
}

impl KvWrite {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.string(1, &self.key);
        w.boolean(2, self.is_delete);
        w.bytes(3, &self.value);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = KvWrite::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.key = utf8(f.data)?,
                2 => m.is_delete = f.value != 0,
                3 => m.value = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// A block. (`common.Block`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Block header (number + hashes).
    pub header: BlockHeader,
    /// Marshaled envelopes.
    pub data: BlockData,
    /// Block metadata (orderer signature, tx validation flags, ...).
    pub metadata: BlockMetadata,
}

impl Block {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.marshal_into(&mut out);
        out
    }

    /// Appends the protobuf bytes to `out`, each section written once,
    /// where it lands: nothing is marshaled into a temporary and copied
    /// into its parent, and `out` grows by exactly
    /// [`Block::encoded_len`].
    pub fn marshal_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let mut w = ProtoWriter::appending_to(std::mem::take(out));
        w.bytes_in_place(1, self.header.encoded_len(), |w| {
            self.header.write_fields(w)
        });
        w.bytes_in_place(2, self.data.encoded_len(), |w| self.data.write_fields(w));
        w.bytes_in_place(3, self.metadata.encoded_len(), |w| {
            self.metadata.write_fields(w)
        });
        *out = w.into_bytes();
    }

    /// Length of [`Block::marshal`]'s output, without producing it.
    pub fn encoded_len(&self) -> usize {
        bytes_field_len(1, self.header.encoded_len())
            + bytes_field_len(2, self.data.encoded_len())
            + bytes_field_len(3, self.metadata.encoded_len())
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Block::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.header = BlockHeader::unmarshal(f.data)?,
                2 => m.data = BlockData::unmarshal(f.data)?,
                3 => m.metadata = BlockMetadata::unmarshal(f.data)?,
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Block header. (`common.BlockHeader`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockHeader {
    /// Block sequence number.
    pub number: u64,
    /// Hash of the previous block header.
    pub previous_hash: Vec<u8>,
    /// Hash over the block data.
    pub data_hash: Vec<u8>,
}

impl BlockHeader {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::with_capacity(self.encoded_len());
        self.write_fields(&mut w);
        w.into_bytes()
    }

    /// Length of [`BlockHeader::marshal`]'s output.
    pub fn encoded_len(&self) -> usize {
        uint64_field_len(1, self.number)
            + bytes_field_len(2, self.previous_hash.len())
            + bytes_field_len(3, self.data_hash.len())
    }

    fn write_fields(&self, w: &mut ProtoWriter) {
        w.uint64(1, self.number);
        w.bytes(2, &self.previous_hash);
        w.bytes(3, &self.data_hash);
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = BlockHeader::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.number = f.value,
                2 => m.previous_hash = f.data.to_vec(),
                3 => m.data_hash = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

/// Block body: repeated marshaled envelopes. (`common.BlockData`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockData {
    /// One marshaled [`Envelope`] per transaction.
    pub data: Vec<Vec<u8>>,
}

impl BlockData {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::with_capacity(self.encoded_len());
        self.write_fields(&mut w);
        w.into_bytes()
    }

    /// Length of [`BlockData::marshal`]'s output.
    pub fn encoded_len(&self) -> usize {
        self.data.iter().map(|d| bytes_field_len(1, d.len())).sum()
    }

    fn write_fields(&self, w: &mut ProtoWriter) {
        for d in &self.data {
            w.bytes(1, d);
        }
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = BlockData::default();
        unmarshal_loop!(bytes, f => {
            if f.number == 1 {
                m.data.push(f.data.to_vec());
            }
        });
        Ok(m)
    }
}

/// Indexes into [`BlockMetadata::metadata`] (matching Fabric's
/// `common.BlockMetadataIndex`).
pub mod metadata_index {
    /// Orderer signatures over the block.
    pub const SIGNATURES: usize = 0;
    /// (Legacy last-config index.)
    pub const LAST_CONFIG: usize = 1;
    /// Per-transaction validation codes, one byte per tx.
    pub const TRANSACTIONS_FILTER: usize = 2;
    /// Commit hash written by the peer.
    pub const COMMIT_HASH: usize = 3;
    /// Number of metadata slots.
    pub const COUNT: usize = 4;
}

/// Block metadata. (`common.BlockMetadata`)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMetadata {
    /// Fixed slots per [`metadata_index`].
    pub metadata: Vec<Vec<u8>>,
}

impl Default for BlockMetadata {
    fn default() -> Self {
        BlockMetadata {
            metadata: vec![Vec::new(); metadata_index::COUNT],
        }
    }
}

impl BlockMetadata {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::with_capacity(self.encoded_len());
        self.write_fields(&mut w);
        w.into_bytes()
    }

    /// Length of [`BlockMetadata::marshal`]'s output.
    pub fn encoded_len(&self) -> usize {
        self.metadata
            .iter()
            .map(|d| message_field_len(1, bytes_field_len(1, d.len())))
            .sum()
    }

    fn write_fields(&self, w: &mut ProtoWriter) {
        for d in &self.metadata {
            // Fabric always emits all metadata slots, even empty ones, so
            // slot positions are preserved: use message framing.
            w.message(1, |inner| {
                inner.bytes(1, d);
            });
        }
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut slots = Vec::new();
        unmarshal_loop!(bytes, f => {
            if f.number == 1 {
                let mut value = Vec::new();
                unmarshal_loop!(f.data, g => {
                    if g.number == 1 {
                        value = g.data.to_vec();
                    }
                });
                slots.push(value);
            }
        });
        while slots.len() < metadata_index::COUNT {
            slots.push(Vec::new());
        }
        Ok(BlockMetadata { metadata: slots })
    }
}

/// Metadata signature wrapper. (`common.Metadata` + `MetadataSignature`)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetadataSignature {
    /// Marshaled [`SignatureHeader`] of the signer (the orderer).
    pub signature_header: Vec<u8>,
    /// Signature over `value ++ signature_header ++ block header bytes`.
    pub signature: Vec<u8>,
}

impl MetadataSignature {
    /// Serializes to protobuf bytes.
    pub fn marshal(&self) -> Vec<u8> {
        let mut w = ProtoWriter::new();
        w.bytes(1, &self.signature_header);
        w.bytes(2, &self.signature);
        w.into_bytes()
    }

    /// Parses from protobuf bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for malformed input.
    pub fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = MetadataSignature::default();
        unmarshal_loop!(bytes, f => {
            match f.number {
                1 => m.signature_header = f.data.to_vec(),
                2 => m.signature = f.data.to_vec(),
                _ => {}
            }
        });
        Ok(m)
    }
}

fn utf8(b: &[u8]) -> Result<String, WireError> {
    utf8_str(b).map(str::to_owned)
}

/// A string field, borrowed.
pub(crate) fn utf8_str(b: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(b).map_err(|_| WireError::Semantic("invalid utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let e = Envelope {
            payload: vec![1, 2, 3],
            signature: vec![4, 5],
        };
        assert_eq!(Envelope::unmarshal(&e.marshal()).unwrap(), e);
    }

    #[test]
    fn channel_header_roundtrip() {
        let ch = ChannelHeader {
            header_type: header_type::ENDORSER_TRANSACTION,
            version: 1,
            timestamp: 1_700_000_000,
            channel_id: "mychannel".into(),
            tx_id: "abcd1234".into(),
            epoch: 0,
        };
        assert_eq!(ChannelHeader::unmarshal(&ch.marshal()).unwrap(), ch);
    }

    #[test]
    fn rwset_roundtrip() {
        let rw = KvRwSet {
            reads: vec![
                KvRead {
                    key: "acc1".into(),
                    version: Some(Version {
                        block_num: 5,
                        tx_num: 2,
                    }),
                },
                KvRead {
                    key: "acc2".into(),
                    version: None,
                },
            ],
            writes: vec![
                KvWrite {
                    key: "acc1".into(),
                    is_delete: false,
                    value: b"100".to_vec(),
                },
                KvWrite {
                    key: "old".into(),
                    is_delete: true,
                    value: vec![],
                },
            ],
        };
        assert_eq!(KvRwSet::unmarshal(&rw.marshal()).unwrap(), rw);
    }

    #[test]
    fn block_roundtrip_with_metadata_slots() {
        let mut b = Block {
            header: BlockHeader {
                number: 42,
                previous_hash: vec![9; 32],
                data_hash: vec![7; 32],
            },
            data: BlockData {
                data: vec![vec![1, 2], vec![3, 4, 5]],
            },
            metadata: BlockMetadata::default(),
        };
        b.metadata.metadata[metadata_index::TRANSACTIONS_FILTER] = vec![0, 1];
        let parsed = Block::unmarshal(&b.marshal()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.metadata.metadata.len(), metadata_index::COUNT);
    }

    #[test]
    fn metadata_preserves_empty_slots() {
        let mut md = BlockMetadata::default();
        md.metadata[metadata_index::COMMIT_HASH] = vec![0xaa; 32];
        let parsed = BlockMetadata::unmarshal(&md.marshal()).unwrap();
        assert!(parsed.metadata[metadata_index::SIGNATURES].is_empty());
        assert_eq!(parsed.metadata[metadata_index::COMMIT_HASH], vec![0xaa; 32]);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut w = ProtoWriter::new();
        w.bytes(1, b"payload");
        w.uint64(99, 7); // unknown field
        w.bytes(2, b"sig");
        let e = Envelope::unmarshal(&w.into_bytes()).unwrap();
        assert_eq!(e.payload, b"payload");
        assert_eq!(e.signature, b"sig");
    }

    #[test]
    fn nested_transaction_roundtrip() {
        let tx = Transaction {
            actions: vec![TransactionAction {
                header: vec![1],
                payload: vec![2, 3],
            }],
        };
        assert_eq!(Transaction::unmarshal(&tx.marshal()).unwrap(), tx);
    }

    #[test]
    fn chaincode_action_with_response() {
        let ca = ChaincodeAction {
            results: vec![1],
            events: vec![],
            response_status: 200,
            chaincode_id: ChaincodeId {
                path: String::new(),
                name: "smallbank".into(),
                version: "1.0".into(),
            },
        };
        let parsed = ChaincodeAction::unmarshal(&ca.marshal()).unwrap();
        assert_eq!(parsed, ca);
    }
}
