//! BMac packet format: self-contained UDP packets with an L7 header.
//!
//! "Each section is sent in its own packet, which is constructed with
//! standard L2, IP and UDP headers. The BMac protocol header is inserted
//! as L7 header which has two parts: the fixed part contains block
//! number, type of section in payload ..., number of annotations and the
//! payload size, while the variable part contains the actual annotations"
//! (paper §3.2).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// UDP destination port identifying BMac traffic (the `PacketProcessor`
/// filter key, §3.2).
pub const BMAC_UDP_PORT: u16 = 0xB3AC;

/// Ethernet + IPv4 + UDP header bytes prepended to every packet.
pub const L2_L3_L4_HEADER_BYTES: usize = 14 + 20 + 8;

/// Maximum payload carried by one section packet (jumbo frames per the
/// paper's §5 MTU discussion).
pub const MAX_PAYLOAD: usize = 8900;

/// Section types carried in the fixed L7 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionType {
    /// Block header section (block number, hashes, orderer signature).
    Header,
    /// One transaction (envelope with identities removed).
    Transaction,
    /// Block metadata section.
    Metadata,
    /// Identity-cache synchronization (id + certificate bytes).
    IdentitySync,
}

impl SectionType {
    fn code(self) -> u8 {
        match self {
            SectionType::Header => 0,
            SectionType::Transaction => 1,
            SectionType::Metadata => 2,
            SectionType::IdentitySync => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, PacketError> {
        match code {
            0 => Ok(SectionType::Header),
            1 => Ok(SectionType::Transaction),
            2 => Ok(SectionType::Metadata),
            3 => Ok(SectionType::IdentitySync),
            other => Err(PacketError::BadSectionType(other)),
        }
    }
}

/// Kinds of data fields a pointer annotation can mark for the hardware
/// `DataExtractor` (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Orderer block signature (DER).
    BlockSignature,
    /// Client transaction signature (DER).
    ClientSignature,
    /// One endorsement signature (DER).
    EndorsementSignature,
    /// The proposal-response payload region (endorsement hash input).
    ProposalResponse,
    /// The rwset region (reads + writes).
    RwSet,
    /// The payload region covered by the client signature.
    SignedPayload,
}

impl FieldKind {
    fn code(self) -> u8 {
        match self {
            FieldKind::BlockSignature => 0,
            FieldKind::ClientSignature => 1,
            FieldKind::EndorsementSignature => 2,
            FieldKind::ProposalResponse => 3,
            FieldKind::RwSet => 4,
            FieldKind::SignedPayload => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, PacketError> {
        match code {
            0 => Ok(FieldKind::BlockSignature),
            1 => Ok(FieldKind::ClientSignature),
            2 => Ok(FieldKind::EndorsementSignature),
            3 => Ok(FieldKind::ProposalResponse),
            4 => Ok(FieldKind::RwSet),
            5 => Ok(FieldKind::SignedPayload),
            other => Err(PacketError::BadFieldKind(other)),
        }
    }
}

/// An annotation in the variable part of the L7 header: "either a
/// pointer (data field offset and length) or locator (offset of removed
/// identity and its encoded id)" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    /// Marks where a data field lives in the payload.
    Pointer {
        /// What the field is.
        kind: FieldKind,
        /// Byte offset in the (stripped) payload.
        offset: u32,
        /// Field length in bytes.
        length: u32,
    },
    /// Marks where an identity was removed.
    Locator {
        /// Byte offset in the stripped payload where the identity's bytes
        /// must be reinserted.
        offset: u32,
        /// The 16-bit encoded node id whose cached bytes to insert.
        id: u16,
    },
}

/// A parsed BMac packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmacPacket {
    /// Block this section belongs to.
    pub block_num: u64,
    /// Section type.
    pub section: SectionType,
    /// Index of this section among sections of the same type (the
    /// transaction number for [`SectionType::Transaction`]).
    pub index: u16,
    /// Total transactions in the block (lets the receiver know when the
    /// block is complete without waiting for other packets).
    pub total_txs: u16,
    /// Annotations.
    pub annotations: Vec<Annotation>,
    /// The (identity-stripped) section payload.
    pub payload: Bytes,
}

/// Errors decoding packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Packet shorter than its headers claim.
    Truncated,
    /// Wrong magic/port — not a BMac packet.
    NotBmac,
    /// Unknown section type code.
    BadSectionType(u8),
    /// Unknown field kind code.
    BadFieldKind(u8),
    /// Unknown annotation discriminator.
    BadAnnotation(u8),
    /// Payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(usize),
    /// A count or offset exceeds its wire-format field width (the
    /// annotation count is `u16`, section indices/tx counts are `u16`,
    /// annotation offsets/lengths are `u32`). Returned instead of
    /// silently truncating the value on encode.
    TooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "packet truncated"),
            PacketError::NotBmac => write!(f, "not a BMac packet"),
            PacketError::BadSectionType(c) => write!(f, "unknown section type {c}"),
            PacketError::BadFieldKind(c) => write!(f, "unknown field kind {c}"),
            PacketError::BadAnnotation(c) => write!(f, "unknown annotation type {c}"),
            PacketError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes too large"),
            PacketError::TooLarge { what, value } => {
                write!(f, "{what} of {value} exceeds the wire-format field width")
            }
        }
    }
}

impl std::error::Error for PacketError {}

/// Checked narrowing to a `u16` wire field.
pub(crate) fn u16_of(what: &'static str, value: usize) -> Result<u16, PacketError> {
    u16::try_from(value).map_err(|_| PacketError::TooLarge { what, value })
}

/// Checked narrowing to a `u32` wire field.
pub(crate) fn u32_of(what: &'static str, value: usize) -> Result<u32, PacketError> {
    u32::try_from(value).map_err(|_| PacketError::TooLarge { what, value })
}

impl BmacPacket {
    /// Serializes the packet including L2/L3/L4 framing, ready for the
    /// wire. The IP/UDP headers are simplified but structurally present
    /// so the `PacketProcessor` filter has real bytes to classify.
    ///
    /// # Errors
    ///
    /// [`PacketError::PayloadTooLarge`] when the payload exceeds
    /// [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Result<Vec<u8>, PacketError> {
        if self.payload.len() > MAX_PAYLOAD {
            return Err(PacketError::PayloadTooLarge(self.payload.len()));
        }
        // The annotation count travels as u16; more than 65535 would
        // silently wrap and desynchronize the variable-part parse.
        let num_annotations = u16_of("annotation count", self.annotations.len())?;
        let payload_len = u32_of("payload length", self.payload.len())?;
        let mut buf = BytesMut::with_capacity(
            L2_L3_L4_HEADER_BYTES + 24 + self.annotations.len() * 10 + self.payload.len(),
        );
        // L2: dst/src MAC + ethertype (IPv4).
        buf.put_slice(&[0x02; 6]);
        buf.put_slice(&[0x01; 6]);
        buf.put_u16(0x0800);
        // L3: minimal IPv4 header (version/IHL, ..., protocol=UDP).
        buf.put_u8(0x45);
        buf.put_u8(0);
        buf.put_u16(0); // total length patched by real stacks; unused here
        buf.put_u32(0);
        buf.put_u8(64); // TTL
        buf.put_u8(17); // UDP
        buf.put_u16(0); // checksum (not modeled)
        buf.put_u32(0x0a00_0001); // src 10.0.0.1
        buf.put_u32(0x0a00_0002); // dst 10.0.0.2
                                  // L4: UDP src/dst/len/checksum.
        buf.put_u16(BMAC_UDP_PORT);
        buf.put_u16(BMAC_UDP_PORT);
        buf.put_u16(0);
        buf.put_u16(0);
        // L7 fixed part.
        buf.put_u64(self.block_num);
        buf.put_u8(self.section.code());
        buf.put_u16(self.index);
        buf.put_u16(self.total_txs);
        buf.put_u16(num_annotations);
        buf.put_u32(payload_len);
        // L7 variable part: annotations.
        for a in &self.annotations {
            match a {
                Annotation::Pointer {
                    kind,
                    offset,
                    length,
                } => {
                    buf.put_u8(0);
                    buf.put_u8(kind.code());
                    buf.put_u32(*offset);
                    buf.put_u32(*length);
                }
                Annotation::Locator { offset, id } => {
                    buf.put_u8(1);
                    buf.put_u32(*offset);
                    buf.put_u16(*id);
                }
            }
        }
        buf.put_slice(&self.payload);
        Ok(buf.to_vec())
    }

    /// Parses a wire packet. Non-BMac packets (wrong UDP port or not
    /// UDP/IPv4 at all) yield [`PacketError::NotBmac`] — the
    /// `PacketProcessor` forwards those to the host unmodified.
    ///
    /// # Errors
    ///
    /// [`PacketError`] for truncated or malformed packets.
    pub fn decode(wire: &[u8]) -> Result<Self, PacketError> {
        if wire.len() < L2_L3_L4_HEADER_BYTES {
            return Err(PacketError::NotBmac);
        }
        let mut buf = wire;
        // L2.
        buf.advance(12);
        if buf.get_u16() != 0x0800 {
            return Err(PacketError::NotBmac);
        }
        // L3.
        if buf.get_u8() != 0x45 {
            return Err(PacketError::NotBmac);
        }
        buf.advance(8);
        if buf.get_u8() != 17 {
            return Err(PacketError::NotBmac);
        }
        buf.advance(10);
        // L4.
        let _src = buf.get_u16();
        let dst = buf.get_u16();
        if dst != BMAC_UDP_PORT {
            return Err(PacketError::NotBmac);
        }
        buf.advance(4);
        // L7 fixed part.
        if buf.remaining() < 19 {
            return Err(PacketError::Truncated);
        }
        let block_num = buf.get_u64();
        let section = SectionType::from_code(buf.get_u8())?;
        let index = buf.get_u16();
        let total_txs = buf.get_u16();
        let num_annotations = buf.get_u16() as usize;
        let payload_len = buf.get_u32() as usize;
        // L7 variable part.
        // An announced count reserves no more than the bytes that
        // arrived can hold (a locator, the smaller annotation, is 7).
        let mut annotations = Vec::with_capacity(num_annotations.min(buf.remaining() / 7));
        #[cfg(test)]
        RESERVED.with(|r| r.set(annotations.capacity() * std::mem::size_of::<Annotation>()));
        for _ in 0..num_annotations {
            if buf.remaining() < 1 {
                return Err(PacketError::Truncated);
            }
            match buf.get_u8() {
                0 => {
                    if buf.remaining() < 9 {
                        return Err(PacketError::Truncated);
                    }
                    let kind = FieldKind::from_code(buf.get_u8())?;
                    let offset = buf.get_u32();
                    let length = buf.get_u32();
                    annotations.push(Annotation::Pointer {
                        kind,
                        offset,
                        length,
                    });
                }
                1 => {
                    if buf.remaining() < 6 {
                        return Err(PacketError::Truncated);
                    }
                    let offset = buf.get_u32();
                    let id = buf.get_u16();
                    annotations.push(Annotation::Locator { offset, id });
                }
                other => return Err(PacketError::BadAnnotation(other)),
            }
        }
        if buf.remaining() < payload_len {
            return Err(PacketError::Truncated);
        }
        let payload = Bytes::copy_from_slice(&buf[..payload_len]);
        Ok(BmacPacket {
            block_num,
            section,
            index,
            total_txs,
            annotations,
            payload,
        })
    }

    /// Total bytes on the wire for this packet.
    pub fn wire_bytes(&self) -> usize {
        L2_L3_L4_HEADER_BYTES
            + 19
            + self
                .annotations
                .iter()
                .map(|a| match a {
                    Annotation::Pointer { .. } => 10,
                    Annotation::Locator { .. } => 7,
                })
                .sum::<usize>()
            + self.payload.len()
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes the last [`BmacPacket::decode`] on this thread reserved for
    /// annotations.
    static RESERVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BmacPacket {
        BmacPacket {
            block_num: 42,
            section: SectionType::Transaction,
            index: 3,
            total_txs: 150,
            annotations: vec![
                Annotation::Pointer {
                    kind: FieldKind::ClientSignature,
                    offset: 10,
                    length: 71,
                },
                Annotation::Locator {
                    offset: 5,
                    id: 0x0120,
                },
            ],
            payload: Bytes::from_static(b"section payload bytes"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        let wire = p.encode().unwrap();
        let q = BmacPacket::decode(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn wire_bytes_matches_encoding() {
        let p = sample();
        assert_eq!(p.encode().unwrap().len(), p.wire_bytes());
    }

    #[test]
    fn non_bmac_packets_are_classified_out() {
        // Wrong UDP port.
        let p = sample();
        let mut wire = p.encode().unwrap();
        wire[36] = 0x00;
        wire[37] = 0x50; // dst port 80
        assert_eq!(BmacPacket::decode(&wire), Err(PacketError::NotBmac));
        // Not UDP.
        let mut wire = p.encode().unwrap();
        wire[23] = 6; // TCP
        assert_eq!(BmacPacket::decode(&wire), Err(PacketError::NotBmac));
        // Not IPv4.
        let mut wire = p.encode().unwrap();
        wire[12] = 0x86;
        wire[13] = 0xdd; // IPv6 ethertype
        assert_eq!(BmacPacket::decode(&wire), Err(PacketError::NotBmac));
        // Random short garbage.
        assert_eq!(BmacPacket::decode(&[0u8; 10]), Err(PacketError::NotBmac));
    }

    #[test]
    fn truncation_is_detected() {
        let wire = sample().encode().unwrap();
        for cut in L2_L3_L4_HEADER_BYTES..wire.len() {
            let r = BmacPacket::decode(&wire[..cut]);
            assert!(r.is_err(), "cut={cut}");
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut p = sample();
        p.payload = Bytes::from(vec![0u8; MAX_PAYLOAD + 1]);
        assert_eq!(
            p.encode(),
            Err(PacketError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn annotation_count_overflow_rejected_not_wrapped() {
        // u16::MAX + 1 annotations used to wrap the wire count to 0,
        // leaving the parser to read the annotation bytes as payload.
        let mut p = sample();
        p.annotations = vec![Annotation::Locator { offset: 0, id: 1 }; u16::MAX as usize + 1];
        assert_eq!(
            p.encode(),
            Err(PacketError::TooLarge {
                what: "annotation count",
                value: u16::MAX as usize + 1,
            })
        );
        // Exactly u16::MAX still encodes and round-trips.
        p.annotations.truncate(u16::MAX as usize);
        let q = BmacPacket::decode(&p.encode().unwrap()).unwrap();
        assert_eq!(q.annotations.len(), u16::MAX as usize);
    }

    #[test]
    fn announced_annotation_count_reserves_no_more_than_the_packet_can_hold() {
        // A 40-byte BMac message claiming 65 535 annotations and carrying
        // three: the count is a wire u16 and must not size an allocation.
        let mut p = sample();
        p.annotations = vec![Annotation::Locator { offset: 0, id: 1 }; 3];
        p.payload = Bytes::new();
        let mut wire = p.encode().unwrap();
        assert_eq!(wire.len() - L2_L3_L4_HEADER_BYTES, 40);
        let count_at = L2_L3_L4_HEADER_BYTES + 13;
        assert_eq!(wire[count_at..count_at + 2], [0, 3]);
        wire[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(BmacPacket::decode(&wire), Err(PacketError::Truncated));
        let reserved = RESERVED.with(|r| r.get());
        assert!(
            reserved <= 4 * wire.len(),
            "{reserved} bytes reserved for a {}-byte packet",
            wire.len()
        );
        // The honest count still round-trips.
        assert_eq!(BmacPacket::decode(&p.encode().unwrap()).unwrap(), p);
    }

    #[test]
    fn all_section_types_roundtrip() {
        for s in [
            SectionType::Header,
            SectionType::Transaction,
            SectionType::Metadata,
            SectionType::IdentitySync,
        ] {
            let mut p = sample();
            p.section = s;
            let q = BmacPacket::decode(&p.encode().unwrap()).unwrap();
            assert_eq!(q.section, s);
        }
    }
}
