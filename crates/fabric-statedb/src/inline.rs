//! Keys and values stored in place: the byte strings of
//! [`crate::StateDb`]'s arena slots and version chains.
//!
//! A byte string of at most [`INLINE_CAP`] bytes lives inside the arena
//! slot or chain entry that holds it, so a key comparison reads the
//! slot it is already on and a short key or value costs no allocation
//! of its own. Longer ones go to the heap. A [`crate::WriteBatch`] holds
//! neither: its keys and values sit in its one encoded buffer.

use std::hash::{Hash, Hasher};

/// Bytes a string may have and still be stored in place. With its
/// length byte and the variant tag an [`InlineBytes`] is 24 bytes, the
/// size of a `String`.
pub(crate) const INLINE_CAP: usize = 22;

/// A byte string held in place up to [`INLINE_CAP`] bytes, on the heap
/// beyond.
#[derive(Clone)]
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

/// A state key: the UTF-8 bytes of a `&str`, hashed and ordered as
/// bytes. Byte order is `str` order, so the ordered index, which
/// compares `key.as_bytes()`, answers ranges in the order a
/// `BTreeSet<String>` would; and a `Key` hashes exactly as its `[u8]`
/// does, so the point index, which hashes a held `Key` when it moves it
/// and a looked-up key's bytes, finds both at one home.
#[derive(Clone)]
pub(crate) struct Key(InlineBytes);

impl Key {
    pub(crate) fn new(key: &str) -> Self {
        Key(InlineBytes::new(key.as_bytes()))
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(self.0.as_slice()).expect("a Key is only built from a &str")
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

/// Equal to `<[u8] as Hash>::hash` of the same bytes, which is what a
/// lookup by `&[u8]` hashes.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.as_slice().hash(state);
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
    fn keys_hash_as_their_bytes() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        for s in [
            "",
            "a",
            "acct0000000001",
            "acct0000000001_longer_than_inline",
            "€",
        ] {
            assert_eq!(
                hasher.hash_one(Key::new(s)),
                hasher.hash_one(s.as_bytes()),
                "{s:?}"
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
        keys.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        let sorted: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(sorted, strs);
    }
}
