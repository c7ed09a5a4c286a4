//! Protocol-buffers wire format (proto3 subset), implemented from scratch.
//!
//! Fabric stores block and transaction data as marshaled protobufs; a
//! block contains "up to 23 layers" of nested messages, and "to retrieve a
//! value from a protobuf embedded in a particular layer, the receiver has
//! to recursively decode all the outer layers first" (paper §3.2). This
//! module provides the varint/length-delimited encoding those layers are
//! built from.

use std::fmt;

/// Wire types from the protobuf encoding spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Base-128 varint.
    Varint,
    /// Fixed 64-bit little-endian.
    Fixed64,
    /// Length-delimited bytes (strings, bytes, nested messages).
    LengthDelimited,
    /// Fixed 32-bit little-endian.
    Fixed32,
}

impl WireType {
    fn from_tag_bits(bits: u64) -> Result<Self, WireError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(WireError::BadWireType(other as u8)),
        }
    }

    fn tag_bits(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }
}

/// Appends a base-128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Length of the varint encoding of `v` in bytes.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

fn key_len(field: u32) -> usize {
    varint_len(u64::from(field) << 3)
}

/// Bytes [`ProtoWriter::uint64`] emits for value `v`: zero when `v` is
/// zero (proto3 default semantics).
pub fn uint64_field_len(field: u32, v: u64) -> usize {
    if v == 0 {
        0
    } else {
        key_len(field) + varint_len(v)
    }
}

/// Bytes [`ProtoWriter::bytes`] emits for a `len`-byte value: zero when
/// it is empty.
pub fn bytes_field_len(field: u32, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        message_field_len(field, len)
    }
}

/// Bytes [`ProtoWriter::message`] emits for a nested message of `len`
/// bytes — emitted even when empty.
pub fn message_field_len(field: u32, len: usize) -> usize {
    key_len(field) + varint_len(len as u64) + len
}

/// Serializer for protobuf messages.
///
/// ```
/// use fabric_protos::wire::ProtoWriter;
/// let mut w = ProtoWriter::new();
/// w.uint64(1, 42);
/// w.bytes(2, b"hi");
/// let buf = w.into_bytes();
/// assert_eq!(buf, vec![0x08, 42, 0x12, 2, b'h', b'i']);
/// ```
#[derive(Debug, Default)]
pub struct ProtoWriter {
    buf: Vec<u8>,
}

impl ProtoWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ProtoWriter { buf: Vec::new() }
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ProtoWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer that appends to `buf`; [`ProtoWriter::into_bytes`]
    /// hands the grown buffer back.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        ProtoWriter { buf }
    }

    /// Writes a `uint64`/`uint32`/`enum` field. Zero values are skipped
    /// (proto3 default semantics).
    pub fn uint64(&mut self, field: u32, v: u64) {
        if v == 0 {
            return;
        }
        self.key(field, WireType::Varint);
        put_varint(&mut self.buf, v);
    }

    /// Writes a `bool` field (skipped when false).
    pub fn boolean(&mut self, field: u32, v: bool) {
        self.uint64(field, v as u64);
    }

    /// Writes a length-delimited field (bytes, string, or an already
    /// marshaled nested message). Empty values are skipped.
    pub fn bytes(&mut self, field: u32, v: &[u8]) {
        if v.is_empty() {
            return;
        }
        self.key(field, WireType::LengthDelimited);
        put_varint(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a string field.
    pub fn string(&mut self, field: u32, v: &str) {
        self.bytes(field, v.as_bytes());
    }

    /// Writes a nested message built by `f`, even when empty — callers
    /// use [`ProtoWriter::bytes`] for skip-if-empty semantics.
    pub fn message<F: FnOnce(&mut ProtoWriter)>(&mut self, field: u32, f: F) {
        let mut inner = ProtoWriter::new();
        f(&mut inner);
        self.key(field, WireType::LengthDelimited);
        put_varint(&mut self.buf, inner.buf.len() as u64);
        self.buf.extend_from_slice(&inner.buf);
    }

    /// Writes a length-delimited field whose `len`-byte value `f` writes
    /// straight into this writer — a nested message marshaled where it
    /// lands instead of into a temporary. Skipped when `len` is zero,
    /// like [`ProtoWriter::bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `f` writes a number of bytes other than `len`: the
    /// length prefix is already on the wire by then.
    pub fn bytes_in_place<F: FnOnce(&mut ProtoWriter)>(&mut self, field: u32, len: usize, f: F) {
        if len == 0 {
            return;
        }
        self.key(field, WireType::LengthDelimited);
        put_varint(&mut self.buf, len as u64);
        let start = self.buf.len();
        f(self);
        assert_eq!(
            self.buf.len() - start,
            len,
            "encoded_len disagrees with the encoder"
        );
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn key(&mut self, field: u32, wt: WireType) {
        put_varint(&mut self.buf, ((field as u64) << 3) | wt.tag_bits());
    }
}

/// A decoded field: number, wire type and (for length-delimited) payload.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// Field number from the tag.
    pub number: u32,
    /// Wire type from the tag.
    pub wire_type: WireType,
    /// Varint value (for [`WireType::Varint`]) or fixed-width value.
    pub value: u64,
    /// Payload for [`WireType::LengthDelimited`]; empty otherwise.
    pub data: &'a [u8],
}

/// Streaming protobuf reader over a byte slice.
///
/// Unknown fields are skippable, mirroring real protobuf decoders.
#[derive(Debug)]
pub struct ProtoReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ProtoReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ProtoReader { buf, pos: 0 }
    }

    /// Whether all input has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Decodes the next field.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed varints, bad wire types or
    /// truncated payloads. Returns `Ok(None)` at end of input.
    pub fn next_field(&mut self) -> Result<Option<Field<'a>>, WireError> {
        if self.is_at_end() {
            return Ok(None);
        }
        let tag = self.read_varint()?;
        let number = (tag >> 3) as u32;
        if number == 0 {
            return Err(WireError::ZeroFieldNumber);
        }
        let wire_type = WireType::from_tag_bits(tag & 0x7)?;
        let (value, data): (u64, &[u8]) = match wire_type {
            WireType::Varint => (self.read_varint()?, &[]),
            WireType::Fixed64 => {
                let b = self.take(8)?;
                (
                    u64::from_le_bytes(b.try_into().expect("take(8) returned 8 bytes")),
                    &[],
                )
            }
            WireType::Fixed32 => {
                let b = self.take(4)?;
                (
                    u32::from_le_bytes(b.try_into().expect("take(4) returned 4 bytes")) as u64,
                    &[],
                )
            }
            WireType::LengthDelimited => {
                let len = self.read_varint()? as usize;
                let b = self.take(len)?;
                (len as u64, b)
            }
        };
        Ok(Some(Field {
            number,
            wire_type,
            value,
            data,
        }))
    }

    fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Errors decoding the protobuf wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a varint or payload.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// Reserved/unsupported wire type bits.
    BadWireType(u8),
    /// Field number zero is invalid.
    ZeroFieldNumber,
    /// A submessage failed structural validation.
    Semantic(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated protobuf input"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::BadWireType(w) => write!(f, "unsupported wire type {w}"),
            WireError::ZeroFieldNumber => write!(f, "field number zero"),
            WireError::Semantic(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let mut r = ProtoReader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ProtoWriter::new();
        w.uint64(1, 150);
        w.string(2, "testing");
        w.bytes(3, &[1, 2, 3]);
        w.boolean(4, true);
        let buf = w.into_bytes();
        let mut r = ProtoReader::new(&buf);
        let f1 = r.next_field().unwrap().unwrap();
        assert_eq!((f1.number, f1.value), (1, 150));
        let f2 = r.next_field().unwrap().unwrap();
        assert_eq!((f2.number, f2.data), (2, &b"testing"[..]));
        let f3 = r.next_field().unwrap().unwrap();
        assert_eq!((f3.number, f3.data), (3, &[1u8, 2, 3][..]));
        let f4 = r.next_field().unwrap().unwrap();
        assert_eq!((f4.number, f4.value), (4, 1));
        assert!(r.next_field().unwrap().is_none());
    }

    #[test]
    fn zero_and_empty_fields_are_skipped() {
        let mut w = ProtoWriter::new();
        w.uint64(1, 0);
        w.bytes(2, b"");
        w.boolean(3, false);
        assert!(w.is_empty());
    }

    #[test]
    fn nested_messages() {
        let mut w = ProtoWriter::new();
        w.message(1, |inner| {
            inner.uint64(1, 7);
            inner.message(2, |inner2| inner2.string(1, "deep"));
        });
        let buf = w.into_bytes();
        let mut r = ProtoReader::new(&buf);
        let outer = r.next_field().unwrap().unwrap();
        assert_eq!(outer.number, 1);
        let mut r2 = ProtoReader::new(outer.data);
        let f = r2.next_field().unwrap().unwrap();
        assert_eq!(f.value, 7);
        let inner2 = r2.next_field().unwrap().unwrap();
        let mut r3 = ProtoReader::new(inner2.data);
        assert_eq!(r3.next_field().unwrap().unwrap().data, b"deep");
    }

    #[test]
    fn in_place_fields_match_the_copying_forms_and_the_len_helpers() {
        let mut inner = ProtoWriter::new();
        inner.uint64(1, 300);
        inner.bytes(2, &[9u8; 200]);
        let inner = inner.into_bytes();
        assert_eq!(
            inner.len(),
            uint64_field_len(1, 300) + bytes_field_len(2, 200)
        );
        assert_eq!(uint64_field_len(1, 0) + bytes_field_len(2, 0), 0);

        let mut copying = ProtoWriter::new();
        copying.bytes(7, &inner);
        copying.bytes(8, b"");
        copying.message(9, |_| {});
        let mut in_place = ProtoWriter::appending_to(vec![0xEE]);
        in_place.bytes_in_place(7, inner.len(), |w| {
            w.uint64(1, 300);
            w.bytes(2, &[9u8; 200]);
        });
        in_place.bytes_in_place(8, 0, |_| unreachable!("empty fields are skipped"));
        in_place.message(9, |_| {});
        let copying = copying.into_bytes();
        assert_eq!(
            copying.len(),
            bytes_field_len(7, inner.len()) + message_field_len(9, 0)
        );
        let in_place = in_place.into_bytes();
        assert_eq!(in_place[0], 0xEE, "appends, does not overwrite");
        assert_eq!(&in_place[1..], &copying[..]);
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = ProtoWriter::new();
        w.bytes(1, &[0u8; 100]);
        let buf = w.into_bytes();
        for cut in 1..buf.len() {
            let mut r = ProtoReader::new(&buf[..cut]);
            assert!(
                matches!(r.next_field(), Err(_) | Ok(None)),
                "cut={cut} should fail or end"
            );
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let buf = [0xffu8; 11];
        let mut r = ProtoReader::new(&buf);
        assert_eq!(r.next_field().unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn bad_wire_type_detected() {
        // tag = field 1, wire type 3 (group start, unsupported)
        let buf = [0x0b];
        let mut r = ProtoReader::new(&buf);
        assert_eq!(r.next_field().unwrap_err(), WireError::BadWireType(3));
    }

    #[test]
    fn decode_meter_counts_fields() {
        let mut w = ProtoWriter::new();
        for i in 1..=10 {
            w.uint64(i, i as u64);
        }
        let buf = w.into_bytes();
        let mut r = ProtoReader::new(&buf);
        let mut fields = 0;
        while r.next_field().unwrap().is_some() {
            fields += 1;
        }
        assert_eq!(fields, 10);
    }

    #[test]
    fn fixed_width_fields() {
        // Hand-encode fixed64 and fixed32 fields.
        let mut buf = Vec::new();
        put_varint(&mut buf, (1 << 3) | 1); // field 1, fixed64
        buf.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        put_varint(&mut buf, (2 << 3) | 5); // field 2, fixed32
        buf.extend_from_slice(&0xcafe_u32.to_le_bytes());
        let mut r = ProtoReader::new(&buf);
        assert_eq!(r.next_field().unwrap().unwrap().value, 0xdead_beef);
        assert_eq!(r.next_field().unwrap().unwrap().value, 0xcafe);
    }
}
