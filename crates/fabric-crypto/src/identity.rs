//! X.509-lite certificates, node identities and the membership service.
//!
//! Every Fabric node has an identity issued by its organization's
//! certificate authority; each identity is "essentially an X.509
//! certificate with a size of ∼860 bytes" (paper §3.2), and these
//! certificates make up at least 73% of a marshaled block — the redundancy
//! the BMac protocol removes. This module provides:
//!
//! * [`Certificate`] — a self-describing certificate of the same size
//!   class as Fabric's PEM-encoded X.509 material, carrying a real P-256
//!   public key and a real CA signature chain;
//! * [`KnownCert`] — a certificate resolved from its wire bytes through
//!   a process-wide registry: a block repeats the same few identities, so
//!   each is parsed and fingerprinted once per distinct byte string;
//! * [`NodeId`] — the paper's 16-bit encoded id (8-bit org, 4-bit role,
//!   4-bit sequence number), the compressed stand-in used on the wire;
//! * [`Identity`] / [`SigningIdentity`] — certificate + key material;
//! * [`Msp`] — the membership service provider: per-org CAs, identity
//!   issuance and certificate validation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use crate::ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
use crate::sha256::sha256;

/// The predefined Fabric roles encoded in the 4-bit role field of a
/// [`NodeId`] (paper §3.2: "orderer, admin, peer or client").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// Ordering service node.
    Orderer,
    /// Organization administrator.
    Admin,
    /// Peer node (endorser or validator).
    Peer,
    /// Application client.
    Client,
}

impl Role {
    /// The 4-bit wire encoding.
    pub fn code(self) -> u8 {
        match self {
            Role::Orderer => 0,
            Role::Admin => 1,
            Role::Peer => 2,
            Role::Client => 3,
        }
    }

    /// Decodes the 4-bit wire value.
    ///
    /// # Errors
    ///
    /// Returns [`IdentityError::UnknownRole`] for values above 3.
    pub fn from_code(code: u8) -> Result<Self, IdentityError> {
        match code {
            0 => Ok(Role::Orderer),
            1 => Ok(Role::Admin),
            2 => Ok(Role::Peer),
            3 => Ok(Role::Client),
            other => Err(IdentityError::UnknownRole(other)),
        }
    }

    /// All roles, in wire-code order.
    pub const ALL: [Role; 4] = [Role::Orderer, Role::Admin, Role::Peer, Role::Client];
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Orderer => write!(f, "orderer"),
            Role::Admin => write!(f, "admin"),
            Role::Peer => write!(f, "peer"),
            Role::Client => write!(f, "client"),
        }
    }
}

/// The paper's 16-bit encoded identity: 8-bit organization index, 4-bit
/// role, 4-bit per-org node sequence number. "This scheme results in
/// unique ids across all the nodes of a Fabric network" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Organization index (0-based).
    pub org: u8,
    /// Node role.
    pub role: Role,
    /// Sequence number of the node within its organization and role
    /// (e.g. 0 for `Org1.Peer0`). Must fit in 4 bits.
    pub seq: u8,
}

impl NodeId {
    /// Builds an id, checking the 4-bit sequence constraint.
    ///
    /// # Errors
    ///
    /// Returns [`IdentityError::SequenceOverflow`] if `seq > 15`.
    pub fn new(org: u8, role: Role, seq: u8) -> Result<Self, IdentityError> {
        if seq > 0x0f {
            return Err(IdentityError::SequenceOverflow(seq));
        }
        Ok(NodeId { org, role, seq })
    }

    /// The 16-bit wire encoding: `org << 8 | role << 4 | seq`.
    pub fn encode(&self) -> u16 {
        ((self.org as u16) << 8) | ((self.role.code() as u16) << 4) | (self.seq as u16)
    }

    /// Decodes the 16-bit wire form.
    ///
    /// # Errors
    ///
    /// Returns [`IdentityError::UnknownRole`] for a bad role nibble.
    pub fn decode(raw: u16) -> Result<Self, IdentityError> {
        Ok(NodeId {
            org: (raw >> 8) as u8,
            role: Role::from_code(((raw >> 4) & 0x0f) as u8)?,
            seq: (raw & 0x0f) as u8,
        })
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Org{}.{}{}",
            self.org + 1,
            capitalized(self.role),
            self.seq
        )
    }
}

fn capitalized(role: Role) -> &'static str {
    match role {
        Role::Orderer => "Orderer",
        Role::Admin => "Admin",
        Role::Peer => "Peer",
        Role::Client => "Client",
    }
}

/// An X.509-lite certificate.
///
/// Structure: subject (org name + node id + common name), issuer name,
/// serial, validity window, SEC1 public key, an extensions blob (padding
/// the encoding into the ~860-byte class of real Fabric PEM certificates),
/// and the issuing CA's ECDSA signature over everything above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Organization name, e.g. `"Org1MSP"`.
    pub org_name: String,
    /// The subject's compact node id.
    pub node_id: NodeId,
    /// Subject common name, e.g. `"peer0.org1.example.com"`.
    pub common_name: String,
    /// Issuer common name, e.g. `"ca.org1.example.com"`.
    pub issuer: String,
    /// Certificate serial number.
    pub serial: u64,
    /// Not-before timestamp (seconds).
    pub not_before: u64,
    /// Not-after timestamp (seconds).
    pub not_after: u64,
    /// Subject public key, SEC1 uncompressed.
    pub public_key: VerifyingKey,
    /// Opaque extensions (key usage, SAN, authority key id in real X.509).
    pub extensions: Vec<u8>,
    /// CA signature over the TBS ("to-be-signed") encoding.
    pub signature: Signature,
}

/// Default extensions-blob size chosen so that [`Certificate::to_bytes`]
/// lands near the ~860-byte certificate size the paper measured.
pub const DEFAULT_EXTENSIONS_LEN: usize = 600;

impl Certificate {
    /// The to-be-signed serialization (everything except the signature).
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.extensions.len());
        write_str(&mut out, &self.org_name);
        out.extend_from_slice(&self.node_id.encode().to_be_bytes());
        write_str(&mut out, &self.common_name);
        write_str(&mut out, &self.issuer);
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.extend_from_slice(&self.not_before.to_be_bytes());
        out.extend_from_slice(&self.not_after.to_be_bytes());
        out.extend_from_slice(&self.public_key.to_sec1_bytes());
        write_bytes(&mut out, &self.extensions);
        out
    }

    /// The full wire serialization (TBS + DER signature).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.tbs_bytes();
        let der = crate::der::encode_signature(&self.signature);
        write_bytes(&mut out, &der);
        out
    }

    /// Parses the wire serialization.
    ///
    /// # Errors
    ///
    /// Returns [`IdentityError::Malformed`] on structural problems and the
    /// underlying key/signature errors otherwise.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IdentityError> {
        let mut cur = Reader { bytes, pos: 0 };
        let org_name = cur.read_str()?;
        let node_id = NodeId::decode(cur.read_u16()?)?;
        let common_name = cur.read_str()?;
        let issuer = cur.read_str()?;
        let serial = cur.read_u64()?;
        let not_before = cur.read_u64()?;
        let not_after = cur.read_u64()?;
        let key_bytes = cur.read_exact(65)?;
        let public_key = VerifyingKey::from_sec1_bytes(key_bytes).map_err(IdentityError::BadKey)?;
        let extensions = cur.read_bytes()?.to_vec();
        let der = cur.read_bytes()?;
        let signature = crate::der::decode_signature(der)
            .map_err(|_| IdentityError::Malformed("bad DER signature"))?;
        if cur.pos != bytes.len() {
            return Err(IdentityError::Malformed("trailing bytes"));
        }
        Ok(Certificate {
            org_name,
            node_id,
            common_name,
            issuer,
            serial,
            not_before,
            not_after,
            public_key,
            extensions,
            signature,
        })
    }

    /// A stable digest identifying this certificate (used as the identity
    /// cache key by the BMac protocol).
    pub fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.to_bytes())
    }

    /// Verifies the CA signature with the given CA public key.
    ///
    /// # Errors
    ///
    /// Propagates [`EcdsaError::InvalidSignature`] when the chain check
    /// fails.
    pub fn verify_issued_by(&self, ca: &VerifyingKey) -> Result<(), EcdsaError> {
        ca.verify(&self.tbs_bytes(), &self.signature)
    }
}

/// Distinct certificates the registry holds before it is cleared, at
/// ≈ 1.7 KiB each (the wire bytes and the parse).
const KNOWN_CERTS_CAP: usize = 1024;

/// A certificate as resolved from its wire bytes: the parse and its
/// [`Certificate::fingerprint`], computed once per distinct byte string
/// and shared. Immutable, and reads as the [`Certificate`] it holds.
#[derive(Debug)]
pub struct KnownCert {
    cert: Certificate,
    fingerprint: [u8; 32],
}

type KnownCerts =
    parking_lot::Mutex<HashMap<Box<[u8]>, Arc<KnownCert>, BuildHasherDefault<TailHasher>>>;

/// The process-wide registry behind [`KnownCert::resolve`].
fn known_certs() -> &'static KnownCerts {
    static REGISTRY: OnceLock<KnownCerts> = OnceLock::new();
    REGISTRY.get_or_init(|| parking_lot::Mutex::named("crypto.known_certs", HashMap::default()))
}

impl std::ops::Deref for KnownCert {
    type Target = Certificate;

    fn deref(&self) -> &Certificate {
        &self.cert
    }
}

impl KnownCert {
    /// The certificate these `bytes` encode: from the process-wide
    /// registry when they have been seen — a hit is byte equality, never
    /// a digest match — else parsed and remembered. The registry is
    /// cleared when it holds 1 024 entries (those in use live on through
    /// their `Arc`); bytes that do not parse are not remembered.
    ///
    /// # Errors
    ///
    /// As [`Certificate::from_bytes`].
    pub fn resolve(bytes: &[u8]) -> Result<Arc<KnownCert>, IdentityError> {
        if let Some(known) = known_certs().lock().get(bytes) {
            return Ok(Arc::clone(known));
        }
        // Parsed outside the lock (the parse takes the precomp
        // registry's); of two racing resolvers the first insert wins.
        let cert = Certificate::from_bytes(bytes)?;
        let known = Arc::new(KnownCert {
            fingerprint: cert.fingerprint(),
            cert,
        });
        let mut map = known_certs().lock();
        if map.len() >= KNOWN_CERTS_CAP {
            map.clear();
        }
        Ok(Arc::clone(map.entry(bytes.into()).or_insert(known)))
    }

    /// [`Certificate::fingerprint`], as computed at [`Self::resolve`].
    pub fn fingerprint(&self) -> [u8; 32] {
        self.fingerprint
    }
}

/// Hashes a byte string by its length and last 32 bytes — of a
/// certificate, the CA signature, its high-entropy end — instead of all
/// ≈ 830. A map compares whole keys, so strings sharing a tail cost a
/// compare and can never answer for each other. Unkeyed: repeating a tail
/// collides either way, so a map hashed with it bounds its size — the
/// [`KnownCert::resolve`] registry at 1 024 entries, a map keyed by
/// 16-bit node ids at 65 536. Also fits keys that end in a certificate,
/// such as a marshaled `SerializedIdentity`.
#[derive(Debug, Default)]
pub struct TailHasher(DefaultHasher);

impl Hasher for TailHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(&bytes[bytes.len().saturating_sub(32)..]);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// A verifiable identity: a certificate whose private key is *not* held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// The identity's certificate.
    pub certificate: Certificate,
}

impl Identity {
    /// The compact node id.
    pub fn node_id(&self) -> NodeId {
        self.certificate.node_id
    }

    /// Verifies a signature made by this identity.
    ///
    /// # Errors
    ///
    /// Propagates verification failure from [`VerifyingKey::verify`].
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), EcdsaError> {
        self.certificate.public_key.verify(message, signature)
    }
}

/// An identity plus its private key: can sign.
#[derive(Debug, Clone)]
pub struct SigningIdentity {
    /// The public identity.
    pub identity: Identity,
    key: SigningKey,
}

impl SigningIdentity {
    /// Signs a message with this identity's key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.key.sign(message)
    }

    /// The compact node id.
    pub fn node_id(&self) -> NodeId {
        self.identity.node_id()
    }

    /// The certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.identity.certificate
    }
}

/// A per-organization certificate authority.
#[derive(Debug)]
pub struct CertificateAuthority {
    org_index: u8,
    org_name: String,
    key: SigningKey,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Creates the CA for organization `org_index` (0-based) with a
    /// deterministic key derived from the org name.
    pub fn new(org_index: u8) -> Self {
        let org_name = format!("Org{}MSP", org_index + 1);
        let key = SigningKey::from_seed(format!("ca.{org_name}").as_bytes());
        CertificateAuthority {
            org_index,
            org_name,
            key,
            next_serial: 1,
        }
    }

    /// The CA's verification key (trust anchor for the org).
    pub fn public_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }

    /// The organization name, e.g. `"Org1MSP"`.
    pub fn org_name(&self) -> &str {
        &self.org_name
    }

    /// Issues a signing identity for a node of this organization.
    ///
    /// # Errors
    ///
    /// Returns [`IdentityError::SequenceOverflow`] for `seq > 15` and
    /// [`IdentityError::WrongOrg`] if the caller passes a mismatched org.
    pub fn issue(&mut self, role: Role, seq: u8) -> Result<SigningIdentity, IdentityError> {
        let node_id = NodeId::new(self.org_index, role, seq)?;
        let key = SigningKey::from_seed(format!("{}.{}{}", self.org_name, role, seq).as_bytes());
        let common_name = format!("{}{}.org{}.example.com", role, seq, self.org_index + 1);
        // Deterministic pseudo-random extensions blob: same identity always
        // serializes identically, so certificate fingerprints are stable.
        let mut extensions = Vec::with_capacity(DEFAULT_EXTENSIONS_LEN);
        let mut state = sha256(common_name.as_bytes());
        while extensions.len() < DEFAULT_EXTENSIONS_LEN {
            extensions.extend_from_slice(&state);
            state = sha256(&state);
        }
        extensions.truncate(DEFAULT_EXTENSIONS_LEN);
        let mut cert = Certificate {
            org_name: self.org_name.clone(),
            node_id,
            common_name,
            issuer: format!("ca.org{}.example.com", self.org_index + 1),
            serial: self.next_serial,
            not_before: 1_600_000_000,
            not_after: 1_900_000_000,
            public_key: key.verifying_key().clone(),
            extensions,
            signature: Signature {
                r: crate::bigint::U256::ONE,
                s: crate::bigint::U256::ONE,
            },
        };
        self.next_serial += 1;
        cert.signature = self.key.sign(&cert.tbs_bytes());
        Ok(SigningIdentity {
            identity: Identity { certificate: cert },
            key,
        })
    }
}

/// The membership service provider: all organizations' CAs plus a registry
/// of issued identities, as configured from the BMac YAML file (§3.5).
#[derive(Debug, Default)]
pub struct Msp {
    cas: Vec<CertificateAuthority>,
    by_id: HashMap<NodeId, Identity>,
}

impl Msp {
    /// Creates an MSP with `num_orgs` organizations.
    pub fn new(num_orgs: u8) -> Self {
        let cas = (0..num_orgs).map(CertificateAuthority::new).collect();
        Msp {
            cas,
            by_id: HashMap::new(),
        }
    }

    /// Number of organizations.
    pub fn num_orgs(&self) -> u8 {
        self.cas.len() as u8
    }

    /// Issues (and registers) an identity.
    ///
    /// # Errors
    ///
    /// [`IdentityError::WrongOrg`] for an unknown org, plus the
    /// [`CertificateAuthority::issue`] error cases.
    pub fn issue(
        &mut self,
        org: u8,
        role: Role,
        seq: u8,
    ) -> Result<SigningIdentity, IdentityError> {
        let ca = self
            .cas
            .get_mut(org as usize)
            .ok_or(IdentityError::WrongOrg(org))?;
        let signing = ca.issue(role, seq)?;
        self.by_id
            .insert(signing.node_id(), signing.identity.clone());
        Ok(signing)
    }

    /// Looks up a registered identity by compact id.
    pub fn identity(&self, id: NodeId) -> Option<&Identity> {
        self.by_id.get(&id)
    }

    /// Validates that a certificate chains to the CA of its organization.
    ///
    /// # Errors
    ///
    /// [`IdentityError::WrongOrg`] for an unknown org index, or
    /// [`IdentityError::BadChain`] when the CA signature fails.
    pub fn validate(&self, cert: &Certificate) -> Result<(), IdentityError> {
        let ca = self
            .cas
            .get(cert.node_id.org as usize)
            .ok_or(IdentityError::WrongOrg(cert.node_id.org))?;
        cert.verify_issued_by(ca.public_key())
            .map_err(|_| IdentityError::BadChain)
    }

    /// All registered identities.
    pub fn identities(&self) -> impl Iterator<Item = &Identity> {
        self.by_id.values()
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn read_exact(&mut self, n: usize) -> Result<&'a [u8], IdentityError> {
        if self.pos + n > self.bytes.len() {
            return Err(IdentityError::Malformed("truncated"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn read_u16(&mut self) -> Result<u16, IdentityError> {
        let b = self.read_exact(2)?;
        Ok(u16::from_be_bytes(
            b.try_into().expect("read_exact(2) returned 2 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64, IdentityError> {
        let b = self.read_exact(8)?;
        Ok(u64::from_be_bytes(
            b.try_into().expect("read_exact(8) returned 8 bytes"),
        ))
    }

    fn read_bytes(&mut self) -> Result<&'a [u8], IdentityError> {
        let len = u32::from_be_bytes(
            self.read_exact(4)?
                .try_into()
                .expect("read_exact(4) returned 4 bytes"),
        ) as usize;
        self.read_exact(len)
    }

    fn read_str(&mut self) -> Result<String, IdentityError> {
        let b = self.read_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| IdentityError::Malformed("bad utf-8"))
    }
}

/// Errors from identity handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentityError {
    /// Role nibble outside 0..=3.
    UnknownRole(u8),
    /// Node sequence number does not fit in 4 bits.
    SequenceOverflow(u8),
    /// Organization index not present in the MSP.
    WrongOrg(u8),
    /// Certificate failed to chain to its org CA.
    BadChain,
    /// Embedded public key was invalid.
    BadKey(EcdsaError),
    /// Structural decoding failure.
    Malformed(&'static str),
}

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentityError::UnknownRole(c) => write!(f, "unknown role code {c}"),
            IdentityError::SequenceOverflow(s) => {
                write!(f, "node sequence {s} does not fit in 4 bits")
            }
            IdentityError::WrongOrg(o) => write!(f, "organization index {o} not in MSP"),
            IdentityError::BadChain => write!(f, "certificate does not chain to its org CA"),
            IdentityError::BadKey(e) => write!(f, "invalid certificate key: {e}"),
            IdentityError::Malformed(why) => write!(f, "malformed certificate encoding: {why}"),
        }
    }
}

impl std::error::Error for IdentityError {}

/// [`KnownCert::resolve`]'s registry is process-wide and cleared when
/// full: the tests that reason about what it holds and the tests that
/// flood it (here and in `verify`) run one at a time.
#[cfg(test)]
pub(crate) static REGISTRY_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_encoding_matches_paper_scheme() {
        // Org1.Peer0 => org index 0, role peer (2), seq 0
        let id = NodeId::new(0, Role::Peer, 0).unwrap();
        assert_eq!(id.encode(), 0x0020);
        let id = NodeId::new(3, Role::Client, 5).unwrap();
        assert_eq!(id.encode(), 0x0335);
        assert_eq!(NodeId::decode(0x0335).unwrap(), id);
    }

    #[test]
    fn node_id_rejects_wide_seq() {
        assert_eq!(
            NodeId::new(0, Role::Peer, 16).unwrap_err(),
            IdentityError::SequenceOverflow(16)
        );
    }

    #[test]
    fn node_id_display() {
        let id = NodeId::new(0, Role::Peer, 0).unwrap();
        assert_eq!(id.to_string(), "Org1.Peer0");
    }

    #[test]
    fn certificate_size_is_in_the_860_byte_class() {
        let mut ca = CertificateAuthority::new(0);
        let ident = ca.issue(Role::Peer, 0).unwrap();
        let size = ident.certificate().to_bytes().len();
        assert!(
            (800..=920).contains(&size),
            "expected ~860-byte certificate, got {size}"
        );
    }

    #[test]
    fn certificate_roundtrip() {
        let mut ca = CertificateAuthority::new(1);
        let ident = ca.issue(Role::Orderer, 0).unwrap();
        let bytes = ident.certificate().to_bytes();
        let parsed = Certificate::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, ident.certificate());
    }

    #[test]
    fn certificate_rejects_corruption() {
        let mut ca = CertificateAuthority::new(0);
        let ident = ca.issue(Role::Peer, 1).unwrap();
        let bytes = ident.certificate().to_bytes();
        // Truncations must all fail cleanly.
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(Certificate::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn chain_verification() {
        let mut ca = CertificateAuthority::new(0);
        let ident = ca.issue(Role::Peer, 0).unwrap();
        assert!(ident
            .certificate()
            .verify_issued_by(ca.public_key())
            .is_ok());
        let mut other = CertificateAuthority::new(1);
        let _ = other.issue(Role::Peer, 0);
        assert!(ident
            .certificate()
            .verify_issued_by(other.public_key())
            .is_err());
    }

    #[test]
    fn msp_issue_and_validate() {
        let mut msp = Msp::new(2);
        let peer = msp.issue(0, Role::Peer, 0).unwrap();
        assert!(msp.validate(peer.certificate()).is_ok());
        assert!(msp.identity(peer.node_id()).is_some());
        assert!(msp.issue(5, Role::Peer, 0).is_err());
    }

    #[test]
    fn msp_detects_forged_certificates() {
        let mut msp = Msp::new(2);
        let peer = msp.issue(0, Role::Peer, 0).unwrap();
        let mut forged = peer.certificate().clone();
        forged.common_name = "evil.example.com".into();
        assert_eq!(msp.validate(&forged), Err(IdentityError::BadChain));
    }

    #[test]
    fn signing_identity_signs_verifiably() {
        let mut msp = Msp::new(1);
        let client = msp.issue(0, Role::Client, 0).unwrap();
        let sig = client.sign(b"proposal");
        assert!(client.identity.verify(b"proposal", &sig).is_ok());
        assert!(client.identity.verify(b"other", &sig).is_err());
    }

    #[test]
    fn deterministic_issuance() {
        let mut msp1 = Msp::new(1);
        let mut msp2 = Msp::new(1);
        let a = msp1.issue(0, Role::Peer, 0).unwrap();
        let b = msp2.issue(0, Role::Peer, 0).unwrap();
        assert_eq!(a.certificate().fingerprint(), b.certificate().fingerprint());
    }

    #[test]
    fn fingerprints_unique_across_nodes() {
        let mut msp = Msp::new(2);
        let a = msp.issue(0, Role::Peer, 0).unwrap();
        let b = msp.issue(0, Role::Peer, 1).unwrap();
        let c = msp.issue(1, Role::Peer, 0).unwrap();
        let fps = [
            a.certificate().fingerprint(),
            b.certificate().fingerprint(),
            c.certificate().fingerprint(),
        ];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
    }

    #[test]
    fn a_certificate_is_parsed_and_fingerprinted_once_per_byte_string() {
        let _one_at_a_time = REGISTRY_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ca = CertificateAuthority::new(0);
        let cert = ca.issue(Role::Client, 7).unwrap().certificate().clone();
        let bytes = cert.to_bytes();
        let first = KnownCert::resolve(&bytes).unwrap();
        // A block's worth of the same identity: the one parse, shared.
        for _ in 0..300 {
            let again = KnownCert::resolve(&bytes).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        assert_eq!(**first, cert);
        assert_eq!(first.fingerprint(), cert.fingerprint());
        assert_eq!(
            first.public_key, cert.public_key,
            "reads as the certificate"
        );
        // Bytes that do not parse are refused every time, not remembered.
        let held = known_certs().lock().len();
        for _ in 0..2 {
            assert!(KnownCert::resolve(&bytes[..bytes.len() - 1]).is_err());
        }
        assert_eq!(known_certs().lock().len(), held);
    }

    #[test]
    fn same_length_and_tail_but_another_body_is_another_certificate() {
        let _one_at_a_time = REGISTRY_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ca = CertificateAuthority::new(1);
        let cert = ca.issue(Role::Peer, 2).unwrap().certificate().clone();
        // One byte of the extensions: still parses, same length, same
        // CA signature — everything the registry's hash looks at.
        let mut forged = cert.clone();
        forged.extensions[100] ^= 1;
        let (bytes, forged_bytes) = (cert.to_bytes(), forged.to_bytes());
        assert_eq!(bytes.len(), forged_bytes.len());
        assert_eq!(bytes[bytes.len() - 32..], forged_bytes[bytes.len() - 32..]);
        let honest = KnownCert::resolve(&bytes).unwrap();
        let other = KnownCert::resolve(&forged_bytes).unwrap();
        assert!(!Arc::ptr_eq(&honest, &other));
        assert_eq!((&**honest, &**other), (&cert, &forged));
        assert_ne!(honest.fingerprint(), other.fingerprint());
        assert!(honest.verify_issued_by(ca.public_key()).is_ok());
        assert!(other.verify_issued_by(ca.public_key()).is_err());
        // Each keeps answering for itself, whichever was asked last.
        assert!(Arc::ptr_eq(&honest, &KnownCert::resolve(&bytes).unwrap()));
        assert!(Arc::ptr_eq(
            &other,
            &KnownCert::resolve(&forged_bytes).unwrap()
        ));
    }

    #[test]
    fn the_registry_stays_within_its_cap_and_handed_out_entries_outlive_a_clear() {
        let _one_at_a_time = REGISTRY_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let mut ca = CertificateAuthority::new(0);
        let template = ca.issue(Role::Client, 1).unwrap().certificate().clone();
        let first_bytes = template.to_bytes();
        let first = KnownCert::resolve(&first_bytes).unwrap();
        let mut held = Vec::new();
        for serial in 0..(KNOWN_CERTS_CAP as u64 + 8) {
            let mut cert = template.clone();
            cert.serial = 1_000_000 + serial;
            held.push((KnownCert::resolve(&cert.to_bytes()).unwrap(), cert));
            assert!(known_certs().lock().len() <= KNOWN_CERTS_CAP);
        }
        // The registry was cleared on the way; what it handed out before
        // is still whole, and resolving it again gives equal content.
        assert_eq!(**first, template);
        for (known, cert) in &held {
            assert_eq!(&***known, cert);
        }
        let again = KnownCert::resolve(&first_bytes).unwrap();
        assert_eq!(**again, **first);
        assert_eq!(again.fingerprint(), first.fingerprint());
    }
}
