//! Length + CRC record framing shared by every on-disk file in this
//! crate (block segments, the state journal, segment index sidecars and
//! the checkpoint).
//!
//! ```text
//! RECORD := len: u32 LE | crc32(payload): u32 LE | payload
//! ```
//!
//! A file is a plain concatenation of records written by a single
//! append-only writer, so a crash leaves at most a *prefix* of a record
//! at the tail. Scanning therefore distinguishes exactly three tail
//! states:
//!
//! * **clean** — the file ends on a record boundary;
//! * **torn** — the trailing bytes are shorter than the record they
//!   announce (the signature of a crash mid-write): recovery truncates
//!   them away;
//! * **corrupt** — a record is fully present but its CRC does not match
//!   (or its header is structurally impossible) *and* it is followed by
//!   further bytes. A single writer cannot produce that by crashing, so
//!   it is flagged as data corruption rather than silently truncated.
//!   A bad CRC on the *final* record is indistinguishable from a torn
//!   write under fsync-free commit and is treated as torn.

use crate::crc::crc32;

/// Upper bound on a single record payload (1 GiB) — a sanity guard so a
/// corrupted length field cannot drive a multi-gigabyte allocation.
pub const MAX_RECORD_LEN: usize = 1 << 30;

/// Bytes of the record header (length + CRC).
pub const HEADER_LEN: usize = 8;

/// Consumes the first `n` bytes of `bytes`, advancing the cursor;
/// `None` when fewer remain. The bounds-checked primitive every record
/// payload decoder in this crate is built on.
pub(crate) fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Some(head)
}

/// Appends one framed record to `out`, its payload written in place by
/// `fill`: the header goes down first as a placeholder and is patched
/// with the length and CRC once the payload's bytes are there, so a
/// payload that can serialize itself into a buffer is never copied.
/// Returns the payload length. The one framing implementation:
/// [`encode_record`] is this with a `fill` that copies a slice.
///
/// # Panics
///
/// Panics (leaving `out` as it was) if the payload exceeds
/// [`MAX_RECORD_LEN`].
pub fn append_record(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    fill(out);
    let payload = start + HEADER_LEN;
    let len = out.len() - payload;
    let len32 = match u32::try_from(len) {
        Ok(len32) if len <= MAX_RECORD_LEN => len32,
        _ => {
            out.truncate(start);
            panic!("record payload too large");
        }
    };
    let crc = crc32(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len32.to_le_bytes());
    out[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
    len
}

/// Serializes one framed record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    append_record(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// How a scanned byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Ends exactly on a record boundary.
    Clean,
    /// Trailing partial record (crash artifact); `valid_len` excludes it.
    Torn,
    /// A complete record failed its CRC (or carried an impossible
    /// header) with more data after it — data corruption, not a crash.
    Corrupt {
        /// Byte offset of the bad record.
        offset: usize,
    },
}

/// Result of scanning a framed byte stream.
#[derive(Debug)]
pub struct Scan<'a> {
    /// `(offset, payload)` of each valid record, in file order; the
    /// payloads are slices of the scanned bytes.
    pub records: Vec<(usize, &'a [u8])>,
    /// Bytes covered by the valid records (the truncation point when the
    /// tail is torn).
    pub valid_len: usize,
    /// State of the tail.
    pub tail: Tail,
}

/// Scans a byte stream into its valid record prefix. Never fails: the
/// tail classification tells the caller whether (and how) the stream
/// degraded.
pub fn scan(bytes: &[u8]) -> Scan<'_> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        if remaining.len() < HEADER_LEN {
            return Scan {
                records,
                valid_len: offset,
                tail: Tail::Torn,
            };
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4-byte slice")) as usize;
        let expected_crc = u32::from_le_bytes(remaining[4..8].try_into().expect("4-byte slice"));
        if len > MAX_RECORD_LEN {
            // An impossible length. The full 8-byte header is present
            // (checked above), and a torn write only ever removes a
            // suffix — so this length field was written as-is, and the
            // single writer never emits records this large: corruption,
            // not a crash, wherever it sits in the file.
            return Scan {
                records,
                valid_len: offset,
                tail: Tail::Corrupt { offset },
            };
        }
        if remaining.len() < HEADER_LEN + len {
            return Scan {
                records,
                valid_len: offset,
                tail: Tail::Torn,
            };
        }
        let payload = &remaining[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != expected_crc {
            // Fully-present record with a bad CRC: if bytes follow, a
            // single append-only writer cannot have crashed here.
            let tail = if remaining.len() > HEADER_LEN + len {
                Tail::Corrupt { offset }
            } else {
                Tail::Torn
            };
            return Scan {
                records,
                valid_len: offset,
                tail,
            };
        }
        records.push((offset, payload));
        offset += HEADER_LEN + len;
    }
    Scan {
        records,
        valid_len: offset,
        tail: Tail::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().flat_map(|p| encode_record(p)).collect()
    }

    #[test]
    fn roundtrip_and_clean_tail() {
        let bytes = stream(&[b"alpha", b"", b"gamma"]);
        let scan = scan(&bytes);
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.valid_len, bytes.len());
        let payloads: Vec<&[u8]> = scan.records.iter().map(|&(_, p)| p).collect();
        assert_eq!(payloads, vec![b"alpha".as_slice(), b"", b"gamma"]);
    }

    #[test]
    fn append_record_frames_in_place_after_existing_bytes() {
        // The header is spelled out, not taken from `encode_record`,
        // which is built on the function under test.
        let mut out = encode_record(b"first");
        let before = out.len();
        let len = append_record(&mut out, |out| {
            out.extend_from_slice(b"sec");
            out.extend_from_slice(b"ond");
        });
        assert_eq!(len, 6);
        assert_eq!(&out[before..before + 4], &6u32.to_le_bytes());
        assert_eq!(
            &out[before + 4..before + 8],
            &crc32(b"second").to_le_bytes()
        );
        assert_eq!(&out[before + 8..], b"second");
        let s = scan(&out);
        assert_eq!(s.tail, Tail::Clean);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1], (before, b"second".as_slice()));
    }

    #[test]
    fn every_truncation_point_yields_a_record_prefix() {
        let bytes = stream(&[b"first", b"second", b"third-record"]);
        let full = scan(&bytes).records.len();
        assert_eq!(full, 3);
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]);
            // The valid prefix is always complete records.
            assert!(s.records.len() <= full);
            for (&(_, got), want) in
                s.records
                    .iter()
                    .zip([b"first".as_slice(), b"second", b"third-record"])
            {
                assert_eq!(got, want);
            }
            // And never classified as corruption: truncation is a crash.
            assert!(!matches!(s.tail, Tail::Corrupt { .. }), "cut={cut}");
        }
    }

    #[test]
    fn interior_bitflip_is_corruption_tail_bitflip_is_torn() {
        let bytes = stream(&[b"first", b"second"]);
        // Flip a payload byte of the FIRST record: corruption (more
        // valid data follows).
        let mut interior = bytes.clone();
        interior[HEADER_LEN] ^= 0x01;
        match scan(&interior).tail {
            Tail::Corrupt { offset } => assert_eq!(offset, 0),
            t => panic!("expected Corrupt, got {t:?}"),
        }
        // Flip a payload byte of the LAST record: indistinguishable from
        // a torn tail under fsync-free commit.
        let mut tail = bytes.clone();
        let last = tail.len() - 1;
        tail[last] ^= 0x01;
        let s = scan(&tail);
        assert_eq!(s.tail, Tail::Torn);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn absurd_length_field_is_corruption_not_a_torn_tail() {
        // A fully-present header announcing an impossible length cannot
        // come from a torn write (tears only remove a suffix, and the
        // writer never emits such lengths): it must be flagged loudly,
        // even at the tail — silently truncating here would destroy any
        // records after the flipped length field.
        let good = encode_record(b"ok");
        let mut bytes = good.clone();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        let s = scan(&bytes);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.tail, Tail::Corrupt { offset: good.len() });
        // Same with further records after it (the interior case).
        bytes.extend_from_slice(&encode_record(b"after"));
        assert_eq!(scan(&bytes).tail, Tail::Corrupt { offset: good.len() });
        // A header torn mid-length-field stays a torn tail.
        let mut torn = good.clone();
        torn.extend_from_slice(&u32::MAX.to_le_bytes()[..3]);
        assert_eq!(scan(&torn).tail, Tail::Torn);
    }
}
