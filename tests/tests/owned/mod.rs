//! The owned `unmarshal` chain: each layer of a transaction decoded into
//! its `fabric_protos::messages` struct, with a `to_vec()` at every level.
//!
//! Production code decodes these layers in place, with the layer
//! functions of `fabric_protos::txflow`. This chain is what they
//! replaced, kept as the one reference the tests hold them to:
//! `decode_differential` (the peer's decode and mempool admission),
//! `sender_equivalence` (the BMac sender's walk) and `e2e_equivalence`
//! (which edits envelopes with it). It reads field by field through
//! `wire::ProtoReader`, as the decoders it replaced did.
//!
//! `SerializedIdentity`, `Version` and the block types are read whole in
//! production, so they keep their own `unmarshal` and are not here.

use fabric_protos::messages::*;
use fabric_protos::wire::{Field, ProtoReader, WireError};

/// An owned decode: every field of `bytes`, in wire order, given to
/// [`Unmarshal::field`]. Unknown fields are skipped; a repeated scalar
/// keeps its last value and a repeated message accumulates.
pub trait Unmarshal: Default {
    fn unmarshal(bytes: &[u8]) -> Result<Self, WireError> {
        let mut m = Self::default();
        let mut reader = ProtoReader::new(bytes);
        while let Some(f) = reader.next_field()? {
            m.field(f)?;
        }
        Ok(m)
    }

    /// Takes one field into `self`.
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError>;
}

fn utf8(b: &[u8]) -> Result<String, WireError> {
    std::str::from_utf8(b)
        .map(str::to_owned)
        .map_err(|_| WireError::Semantic("invalid utf-8"))
}

/// Messages whose fields 1 and 2 are both bytes.
macro_rules! bytes_1_2 {
    ($($ty:ident { $first:ident, $second:ident })*) => {$(
        impl Unmarshal for $ty {
            fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
                match f.number {
                    1 => self.$first = f.data.to_vec(),
                    2 => self.$second = f.data.to_vec(),
                    _ => {}
                }
                Ok(())
            }
        }
    )*};
}

bytes_1_2! {
    Envelope { payload, signature }
    Header { channel_header, signature_header }
    SignatureHeader { creator, nonce }
    TransactionAction { header, payload }
    Endorsement { endorser, signature }
    ProposalResponsePayload { proposal_hash, extension }
    MetadataSignature { signature_header, signature }
}

impl Unmarshal for Payload {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.header = Header::unmarshal(f.data)?,
            2 => self.data = f.data.to_vec(),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for ChannelHeader {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.header_type = f.value,
            2 => self.version = f.value,
            3 => self.timestamp = f.value,
            4 => self.channel_id = utf8(f.data)?,
            5 => self.tx_id = utf8(f.data)?,
            6 => self.epoch = f.value,
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for Transaction {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        if f.number == 1 {
            self.actions.push(TransactionAction::unmarshal(f.data)?);
        }
        Ok(())
    }
}

impl Unmarshal for ChaincodeActionPayload {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.chaincode_proposal_payload = f.data.to_vec(),
            2 => self.action = ChaincodeEndorsedAction::unmarshal(f.data)?,
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for ChaincodeEndorsedAction {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.proposal_response_payload = f.data.to_vec(),
            2 => self.endorsements.push(Endorsement::unmarshal(f.data)?),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for ChaincodeAction {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.results = f.data.to_vec(),
            2 => self.events = f.data.to_vec(),
            3 => {
                // `peer.Response`: only its status is kept.
                let mut response = ProtoReader::new(f.data);
                while let Some(g) = response.next_field()? {
                    if g.number == 1 {
                        self.response_status = g.value;
                    }
                }
            }
            4 => self.chaincode_id = ChaincodeId::unmarshal(f.data)?,
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for ChaincodeId {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.path = utf8(f.data)?,
            2 => self.name = utf8(f.data)?,
            3 => self.version = utf8(f.data)?,
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for TxReadWriteSet {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.data_model = f.value,
            2 => self.ns_rwset.push(NsReadWriteSet::unmarshal(f.data)?),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for NsReadWriteSet {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.namespace = utf8(f.data)?,
            2 => self.rwset = f.data.to_vec(),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for KvRwSet {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.reads.push(KvRead::unmarshal(f.data)?),
            3 => self.writes.push(KvWrite::unmarshal(f.data)?),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for KvRead {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.key = utf8(f.data)?,
            2 => self.version = Some(Version::unmarshal(f.data)?),
            _ => {}
        }
        Ok(())
    }
}

impl Unmarshal for KvWrite {
    fn field(&mut self, f: Field<'_>) -> Result<(), WireError> {
        match f.number {
            1 => self.key = utf8(f.data)?,
            2 => self.is_delete = f.value != 0,
            3 => self.value = f.data.to_vec(),
            _ => {}
        }
        Ok(())
    }
}
