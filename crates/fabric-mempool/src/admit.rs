//! Light admission-time decode of a transaction envelope.
//!
//! Admission needs exactly four facts about a submitted envelope: its
//! transaction id (for dedup), the creator certificate and client
//! signature (for the verify pool), and the signed payload digest (the
//! signature-cache key). It reads them with the peer's own layer code
//! (`txflow::EnvelopeHead`: five protobuf layers, then the creator's
//! identity and the DER signature) and one SHA-256; the rest — actions,
//! proposal response, read/write sets, endorsements — is deferred to the
//! verify workers.

use std::sync::Arc;

use fabric_crypto::{sha256, KnownCert, SigCacheKey, Signature};
use fabric_protos::txflow::EnvelopeHead;
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
    let head = EnvelopeHead::walk(envelope_bytes)?;
    if head.tx_id.is_empty() {
        return Err(WireError::Semantic("empty tx id"));
    }
    let (creator_cert, client_signature) = head.signer()?;
    let payload_digest = sha256(head.payload);
    let cache_key =
        SigCacheKey::compute(&creator_cert.public_key, &payload_digest, &client_signature);
    Ok(AdmissionTx {
        tx_id: head.tx_id.to_owned(),
        creator_cert,
        client_signature,
        payload_digest,
        cache_key,
    })
}
