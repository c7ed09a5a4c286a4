//! Keys and values stored in place: the byte strings of
//! [`crate::StateDb`]'s shard maps.
//!
//! A byte string of at most [`INLINE_CAP`] bytes lives inside the map
//! node or chain entry that holds it, so a key comparison during a
//! descent reads the node it is already on and a short value costs no
//! allocation of its own. Longer ones go to the heap.

use std::borrow::Borrow;
use std::cmp::Ordering;

/// Bytes a string may have and still be stored in place. With its
/// length byte and the variant tag an [`InlineBytes`] is 24 bytes, the
/// size of a `String`.
pub(crate) const INLINE_CAP: usize = 22;

/// A byte string held in place up to [`INLINE_CAP`] bytes, on the heap
/// beyond.
pub(crate) enum InlineBytes {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Heap(Box<[u8]>),
}

impl InlineBytes {
    pub(crate) fn new(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_CAP {
            let mut buf = [0; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            InlineBytes::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            InlineBytes::Heap(bytes.into())
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            InlineBytes::Inline { len, buf } => &buf[..usize::from(*len)],
            InlineBytes::Heap(bytes) => bytes,
        }
    }
}

impl std::fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A shard map key: the UTF-8 bytes of a `&str`, ordered as bytes.
/// Byte order is `str` order, so the map answers lookups and ranges
/// keyed by `key.as_bytes()` ([`Borrow<[u8]>`]) in the order a
/// `BTreeMap<String, _>` would.
#[derive(Debug)]
pub(crate) struct Key(InlineBytes);

impl Key {
    pub(crate) fn new(key: &str) -> Self {
        Key(InlineBytes::new(key.as_bytes()))
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(self.0.as_slice()).expect("a Key is only built from a &str")
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_slice() == other.0.as_slice()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.as_slice().cmp(other.0.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_strings_stay_the_size_of_a_string() {
        assert_eq!(std::mem::size_of::<InlineBytes>(), 24);
        assert_eq!(std::mem::size_of::<Option<InlineBytes>>(), 24);
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<String>());
    }

    #[test]
    fn bytes_round_trip_on_both_sides_of_the_capacity() {
        for len in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 64] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let stored = InlineBytes::new(&bytes);
            assert_eq!(stored.as_slice(), &bytes[..], "length {len}");
            assert_eq!(
                matches!(stored, InlineBytes::Inline { .. }),
                len <= INLINE_CAP,
                "length {len}"
            );
        }
    }

    #[test]
    fn keys_order_as_their_strs() {
        let mut strs = vec![
            "",
            "a",
            "ab",
            "b",
            "é",
            "z",
            "acct0000000001",
            "acct0000000001_longer_than_inline",
            "ü",
            "€",
        ];
        let mut keys: Vec<Key> = strs.iter().map(|s| Key::new(s)).collect();
        strs.sort();
        keys.sort();
        let sorted: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(sorted, strs);
    }
}
