//! The identity cache: certificates ↔ 16-bit encoded ids.
//!
//! "The identity cache is a map of identities (i.e., certificates) to
//! their ids, where each id is a 16-bit integer with first 8 bits
//! representing the organization, the next 4 bits representing one of
//! the predefined roles ..., and the last 4 bits representing the node
//! sequence number" (paper §3.2). The sender and the hardware receiver
//! each hold one; the sender keeps them in sync with
//! [`SectionType::IdentitySync`](crate::packet::SectionType) packets.

use std::collections::HashMap;

use fabric_crypto::identity::NodeId;

/// The identity cache.
///
/// Keys are the *full identity bytes as they appear on the wire* (the
/// marshaled `SerializedIdentity`), values are 16-bit encoded node ids.
/// The sender looks identities up by bytes (to strip them); the receiver
/// only ever goes from id to bytes (to put them back), so entries
/// installed with [`IdentityCache::insert_raw`] have no bytes → id side.
#[derive(Debug, Clone, Default)]
pub struct IdentityCache {
    by_bytes: HashMap<Vec<u8>, u16>,
    by_id: HashMap<u16, Vec<u8>>,
}

impl IdentityCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        IdentityCache::default()
    }

    /// Inserts a mapping. Returns `false` if the id was already present
    /// (with identical bytes — re-insertion is idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the id is already mapped to *different* bytes: ids are
    /// unique across the network by construction, so a collision is a
    /// configuration error.
    pub fn insert(&mut self, id: NodeId, identity_bytes: Vec<u8>) -> bool {
        let raw = id.encode();
        if let Some(existing) = self.by_id.get(&raw) {
            assert_eq!(
                existing, &identity_bytes,
                "id {raw:#06x} already cached with different identity bytes"
            );
            return false;
        }
        self.by_bytes.insert(identity_bytes.clone(), raw);
        self.by_id.insert(raw, identity_bytes);
        true
    }

    /// Inserts by raw 16-bit id (receiver side, from a sync packet):
    /// resolvable with [`IdentityCache::bytes_of`] only. Replaces what
    /// the id held; the receiver refuses a sync that would.
    pub fn insert_raw(&mut self, raw: u16, identity_bytes: Vec<u8>) {
        self.by_id.insert(raw, identity_bytes);
    }

    /// Looks up the id for identity bytes.
    pub fn id_of(&self, identity_bytes: &[u8]) -> Option<u16> {
        self.by_bytes.get(identity_bytes).copied()
    }

    /// Looks up the identity bytes for an id.
    pub fn bytes_of(&self, raw: u16) -> Option<&[u8]> {
        self.by_id.get(&raw).map(|v| v.as_slice())
    }

    /// Number of cached identities.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// All known identity byte strings (used by the DataRemover's
    /// search).
    pub fn known_identities(&self) -> impl Iterator<Item = (&[u8], u16)> {
        self.by_bytes.iter().map(|(b, &id)| (b.as_slice(), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::identity::Role;

    fn node(org: u8, seq: u8) -> NodeId {
        NodeId::new(org, Role::Peer, seq).unwrap()
    }

    #[test]
    fn roundtrip() {
        let mut c = IdentityCache::new();
        assert!(c.insert(node(0, 0), b"org1peer0".to_vec()));
        assert_eq!(c.id_of(b"org1peer0"), Some(0x0020));
        assert_eq!(c.bytes_of(0x0020), Some(&b"org1peer0"[..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut c = IdentityCache::new();
        assert!(c.insert(node(0, 0), b"x".to_vec()));
        assert!(!c.insert(node(0, 0), b"x".to_vec()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different identity bytes")]
    fn conflicting_bytes_panic() {
        let mut c = IdentityCache::new();
        c.insert(node(0, 0), b"a".to_vec());
        c.insert(node(0, 0), b"b".to_vec());
    }

    #[test]
    fn unknown_lookups_return_none() {
        let c = IdentityCache::new();
        assert_eq!(c.id_of(b"nope"), None);
        assert_eq!(c.bytes_of(0xffff), None);
    }
}
