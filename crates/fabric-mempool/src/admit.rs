//! Light admission-time decode of a transaction envelope.
//!
//! Admission needs exactly four facts about a submitted envelope: its
//! transaction id (for dedup), the creator certificate and client
//! signature (for the verify pool), and the signed payload digest (the
//! signature-cache key). The full recursive unmarshal — actions,
//! proposal response, read/write sets, endorsements — is deferred to
//! the verify workers, keeping the admission hot path to three protobuf
//! layers and one SHA-256.

use std::sync::Arc;

use fabric_crypto::{sha256, KnownCert, Signature};
use fabric_peer::SigCacheKey;
use fabric_protos::messages::{
    ChannelHeader, Envelope, Payload, SerializedIdentity, SignatureHeader,
};
use fabric_protos::wire::WireError;

/// The admission-relevant slice of a transaction envelope.
#[derive(Debug, Clone)]
pub struct AdmissionTx {
    /// Hex transaction id from the channel header.
    pub tx_id: String,
    /// The submitting client's certificate.
    pub creator_cert: Arc<KnownCert>,
    /// The client signature over the envelope payload.
    pub client_signature: Signature,
    /// `sha256(envelope.payload)` — the digest the client signed, and
    /// exactly what the committer's verify stage digests for the same
    /// check (so the cache key below matches its lookup).
    pub payload_digest: [u8; 32],
    /// Shared signature-cache key for the client-signature verdict.
    pub cache_key: SigCacheKey,
}

/// Decodes just the admission-relevant layers of an envelope.
///
/// # Errors
///
/// [`WireError`] when any of the envelope, payload, headers, creator
/// identity, certificate, or DER signature fail to parse — the caller
/// rejects such submissions as malformed without burning a verify.
pub fn decode_admission(envelope_bytes: &[u8]) -> Result<AdmissionTx, WireError> {
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
    let client_signature = fabric_crypto::der::decode_signature(&envelope.signature)
        .map_err(|_| WireError::Semantic("bad client signature DER"))?;
    let payload_digest = sha256(&envelope.payload);
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
