//! The state journal's record codec, held to the per-entry codec it
//! replaced.
//!
//! A journal record is a height and then a `WriteBatch`'s own encoding
//! (`fabric-store/src/journal.rs`, `fabric-statedb`'s `WriteBatch`
//! docs); recovery decodes it with `WriteBatch::from_encoded`. The
//! reference below is the codec that walked a batch entry by entry
//! instead: it writes and reads the same format, one field at a time,
//! into plain owned entries. Every payload, well formed or not, must
//! decode to what the reference decodes it to (`None`, or the same
//! entries at the same height), and every batch must encode to the
//! reference's bytes. A golden record pins those bytes to the ones the
//! journal wrote before a batch was held encoded.

use fabric_statedb::{Height, WriteBatch};
use fabric_store::journal::{decode_batch, encode_batch};
use proptest::prelude::*;

/// A batch as plain owned entries: `(key, value-or-delete)`.
type Entries = Vec<(String, Option<Vec<u8>>)>;

/// The reference encoder: the record payload written field by field.
fn reference_encode(entries: &Entries, height: Height) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&height.block_num.to_le_bytes());
    out.extend_from_slice(&height.tx_num.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, value) in entries {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        match value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
    out
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if rest.len() < n {
        return None;
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Some(head)
}

fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(rest, 4)?.try_into().ok()?))
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(rest, 8)?.try_into().ok()?))
}

/// The reference decoder: the record payload read entry by entry.
/// `None` on any structural mismatch.
fn reference_decode(payload: &[u8]) -> Option<(Height, Entries)> {
    let mut rest = payload;
    let block = take_u64(&mut rest)?;
    let tx = take_u64(&mut rest)?;
    let n = take_u32(&mut rest)?;
    let mut entries = Vec::new();
    for _ in 0..n {
        let klen = take_u32(&mut rest)? as usize;
        let key = std::str::from_utf8(take(&mut rest, klen)?).ok()?;
        match take(&mut rest, 1)?[0] {
            1 => {
                let vlen = take_u32(&mut rest)? as usize;
                entries.push((key.to_owned(), Some(take(&mut rest, vlen)?.to_vec())));
            }
            0 => entries.push((key.to_owned(), None)),
            _ => return None,
        }
    }
    if !rest.is_empty() {
        return None;
    }
    Some((Height::new(block, tx), entries))
}

fn entries_of(batch: &WriteBatch) -> Entries {
    batch
        .iter()
        .map(|(k, v)| (k.to_owned(), v.map(<[u8]>::to_vec)))
        .collect()
}

/// `decode_batch`'s outcome in the reference's terms.
fn decoded(payload: &[u8]) -> Option<(Height, Entries)> {
    decode_batch(payload).map(|(height, batch)| (height, entries_of(&batch)))
}

const LENS: [usize; 4] = [0, 22, 23, 64];

/// Keys of the lengths around the in-place capacity, or of 2-, 3- and
/// 4-byte characters.
fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..LENS.len(), "[a-c]").prop_map(|(i, c)| c.repeat(LENS[i])),
        (0usize..3, 1usize..9).prop_map(|(c, n)| ['é', '€', '𝄞'][c].to_string().repeat(n)),
    ]
}

/// Values of the same lengths, with deletes.
fn arb_value() -> impl Strategy<Value = Option<Vec<u8>>> {
    let put = || (0..LENS.len(), any::<u8>()).prop_map(|(i, b)| Some(vec![b; LENS[i]]));
    prop_oneof![put(), put(), Just(None)]
}

fn arb_entries() -> impl Strategy<Value = Entries> {
    proptest::collection::vec((arb_key(), arb_value()), 0..6)
}

fn arb_height() -> impl Strategy<Value = Height> {
    (any::<u64>(), any::<u64>()).prop_map(|(b, t)| Height::new(b, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn well_formed_records_match_the_reference(entries in arb_entries(), height in arb_height()) {
        let batch: WriteBatch = entries.iter().cloned().collect();
        let payload = encode_batch(&batch, height);
        prop_assert_eq!(&payload, &reference_encode(&entries, height));
        prop_assert_eq!(decoded(&payload), Some((height, entries.clone())));
        prop_assert_eq!(decoded(&payload), reference_decode(&payload));
    }

    #[test]
    fn cut_and_flipped_records_match_the_reference(
        entries in arb_entries(),
        height in arb_height(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let payload = reference_encode(&entries, height);
        let at = at as usize % (payload.len() + 1);
        let cut = &payload[..at];
        prop_assert_eq!(decoded(cut), reference_decode(cut));
        let mut longer = payload.clone();
        longer.push(flip);
        prop_assert_eq!(decoded(&longer), None);
        if at < payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= flip;
            prop_assert_eq!(decoded(&flipped), reference_decode(&flipped));
        }
    }

    #[test]
    fn arbitrary_bytes_match_the_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
        count in 0u32..4,
        tag in 0u8..3,
    ) {
        prop_assert_eq!(decoded(&bytes), reference_decode(&bytes));
        // The same bytes behind a height and a small entry count, so the
        // decoders get into the entries; then behind a first key length
        // that fits, so they get to a tag.
        let mut framed = vec![0; 16];
        framed.extend_from_slice(&count.to_le_bytes());
        framed.extend_from_slice(&bytes);
        prop_assert_eq!(decoded(&framed), reference_decode(&framed));
        let key_len = bytes.len().min(3) as u32;
        let mut keyed = framed[..20].to_vec();
        keyed.extend_from_slice(&key_len.to_le_bytes());
        keyed.extend_from_slice(&bytes[..key_len as usize]);
        keyed.push(tag);
        keyed.extend_from_slice(&bytes[key_len as usize..]);
        prop_assert_eq!(decoded(&keyed), reference_decode(&keyed));
    }
}

fn golden_batch() -> WriteBatch {
    let mut b = WriteBatch::new();
    b.put("acct0000000042", [7u8; 16]);
    b.delete("gone");
    b.put("", []);
    b.put("k€ü", [0xFF, 0x00, 0x01]);
    b.put("a key of twenty-three b", (0..23u8).collect::<Vec<_>>());
    b
}

/// The record the per-entry journal wrote for [`golden_batch`] at
/// height `0x0102030405060708:9`.
const GOLDEN: &str = concat!(
    "0807060504030201",
    "0900000000000000",
    "05000000",
    "0e000000",
    "6163637430303030303030303432",
    "01",
    "10000000",
    "07070707070707070707070707070707",
    "04000000",
    "676f6e65",
    "00",
    "00000000",
    "01",
    "00000000",
    "06000000",
    "6be282acc3bc",
    "01",
    "03000000",
    "ff0001",
    "17000000",
    "61206b6579206f66207477656e74792d74687265652062",
    "01",
    "17000000",
    "000102030405060708090a0b0c0d0e0f10111213141516",
);

#[test]
fn the_journal_writes_the_golden_record() {
    let height = Height::new(0x0102_0304_0506_0708, 9);
    let bytes = encode_batch(&golden_batch(), height);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    let (back, batch) = decode_batch(&bytes).expect("the golden record decodes");
    assert_eq!(back, height);
    assert_eq!(entries_of(&batch), entries_of(&golden_batch()));
}
