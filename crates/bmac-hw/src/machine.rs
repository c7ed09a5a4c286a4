//! The Blockchain Machine: protocol_processor + block_processor + reg_map.
//!
//! Top-level simulation of the FPGA card (paper Figure 4a): Ethernet
//! packets come in, the protocol_processor classifies and parses them
//! (timing per [`crate::timing`]), identities synchronize the key
//! registry, and each block the link reassembles is decoded **once**
//! with [`decode_block_struct`] — the model of the protocol_processor's
//! DataExtractor, and the same decoded form the software peer validates.
//! The decoded block streams into the
//! [`processor::BlockProcessor`](crate::processor::BlockProcessor), which
//! forms and hashes each verification request where it charges the
//! `ecdsa_engine`; results are published through the `reg_map` for the
//! host CPU to read with `GetBlockData()`. A block with an envelope that
//! does not decode ([`MachineError::Decode`]), or whose envelopes are not
//! the ones its header commits to ([`MachineError::DataHash`] — the
//! paper's `HashCalculator`, §3.2, which hashes at line rate and so
//! costs the timing model nothing), is refused here and never reaches
//! the processor.

use std::collections::{HashMap, VecDeque};

use bmac_protocol::packet::{BmacPacket, PacketError, SectionType};
use bmac_protocol::receiver::{BmacReceiver, ReceiveError};
use fabric_crypto::identity::Certificate;
use fabric_crypto::VerifyingKey;
use fabric_policy::Policy;
use fabric_protos::messages::{Block, SerializedIdentity};
use fabric_protos::txflow::{decode_block_struct, hash_block_data, DecodedBlock};
use fabric_protos::wire::WireError;
use fabric_sim::SimTime;

use crate::processor::{BlockProcessor, HwBlockResult, ProcessError, ProcessorConfig};
use crate::timing::{protocol_processing_time, PACKET_LATENCY};

/// Errors surfaced by the machine.
#[derive(Debug)]
pub enum MachineError {
    /// Protocol-level receive failure.
    Receive(ReceiveError),
    /// Packet decode failure.
    Packet(PacketError),
    /// A reassembled block failed its one structural decode.
    Decode(WireError),
    /// A reassembled block's envelopes do not hash to its header's
    /// `data_hash`.
    DataHash {
        /// Number of the refused block.
        block: u64,
    },
    /// Block processing failure.
    Process(ProcessError),
    /// An identity-sync certificate failed to parse or chain.
    BadIdentity(&'static str),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Receive(e) => write!(f, "receive: {e}"),
            MachineError::Packet(e) => write!(f, "packet: {e}"),
            MachineError::Decode(e) => write!(f, "reassembled block undecodable: {e}"),
            MachineError::DataHash { block } => {
                write!(
                    f,
                    "block {block}: envelopes do not match the header's data hash"
                )
            }
            MachineError::Process(e) => write!(f, "process: {e}"),
            MachineError::BadIdentity(why) => write!(f, "bad identity sync: {why}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// The simulated FPGA card.
#[derive(Debug)]
pub struct BMacMachine {
    receiver: BmacReceiver,
    keys: HashMap<u16, VerifyingKey>,
    ca_keys: Vec<VerifyingKey>,
    processor: BlockProcessor,
    /// reg_map result queue: results wait here until the CPU reads them
    /// ("a mechanism to block writing of new data to the registers until
    /// the previous data has been read", §3.4). Each result keeps its
    /// block, raw and decoded, so the host software can ledger-commit it.
    results: VecDeque<(HwBlockResult, Block, DecodedBlock)>,
    /// protocol_processor availability (packets stream through at line
    /// rate, cut-through).
    protocol_free: SimTime,
    packets_seen: u64,
    bytes_seen: u64,
}

impl BMacMachine {
    /// Builds the machine from a processor configuration and the
    /// chaincode endorsement policies (compiled into circuits at
    /// generation time, §3.5).
    pub fn new(config: ProcessorConfig, policies: &HashMap<String, Policy>) -> Self {
        BMacMachine {
            receiver: BmacReceiver::new(),
            keys: HashMap::new(),
            ca_keys: Vec::new(),
            processor: BlockProcessor::new(config, policies),
            results: VecDeque::new(),
            protocol_free: 0,
            packets_seen: 0,
            bytes_seen: 0,
        }
    }

    /// Installs CA trust anchors: identity syncs must then chain to one
    /// of them or be rejected.
    pub fn set_trust_anchors(&mut self, cas: Vec<VerifyingKey>) {
        self.ca_keys = cas;
    }

    /// Registered public keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Ingests one wire packet arriving at `arrival`. Completed blocks
    /// are processed immediately and queued for [`Self::get_block_data`].
    ///
    /// # Errors
    ///
    /// [`MachineError`] on protocol or processing failures; non-BMac
    /// packets are forwarded silently.
    pub fn ingest_wire(&mut self, wire: &[u8], arrival: SimTime) -> Result<(), MachineError> {
        let packet = match BmacPacket::decode(wire) {
            Ok(p) => p,
            Err(PacketError::NotBmac) => return Ok(()), // forwarded to host
            Err(e) => return Err(MachineError::Packet(e)),
        };
        // Cut-through timing: the packet streams at line rate once the
        // processor is free.
        let start = arrival.max(self.protocol_free);
        let done = start + protocol_processing_time(wire.len()) + PACKET_LATENCY;
        self.protocol_free = done - PACKET_LATENCY;
        self.packets_seen += 1;
        self.bytes_seen += wire.len() as u64;

        if packet.section == SectionType::IdentitySync {
            self.register_identity(&packet)?;
        }
        let completed = self
            .receiver
            .ingest_packet(packet, wire.len())
            .map_err(MachineError::Receive)?;
        for received in completed {
            // `0`: the marshaled length is not known here and has no reader.
            let decoded = decode_block_struct(&received.block, 0).map_err(MachineError::Decode)?;
            if received.block.header.data_hash != hash_block_data(&received.block.data) {
                return Err(MachineError::DataHash {
                    block: received.block.header.number,
                });
            }
            let result = self
                .processor
                .process_block(&decoded, &self.keys, done)
                .map_err(MachineError::Process)?;
            self.results.push_back((result, received.block, decoded));
        }
        Ok(())
    }

    /// The host-side `GetBlockData()`: pops the oldest published result.
    pub fn get_block_data(&mut self) -> Option<HwBlockResult> {
        self.results.pop_front().map(|(r, _, _)| r)
    }

    /// `GetBlockData()` variant that also hands back the reassembled
    /// block and its decoded form, which the host needs for the ledger
    /// commit ("the software reads validation result of the block from
    /// hardware, and combines it with the original block", §3.4).
    pub fn get_block_data_full(&mut self) -> Option<(HwBlockResult, Block, DecodedBlock)> {
        self.results.pop_front()
    }

    /// Pending results not yet read by the CPU.
    pub fn pending_results(&self) -> usize {
        self.results.len()
    }

    /// Blocks processed by the block_processor.
    pub fn blocks_processed(&self) -> u64 {
        self.processor.blocks_processed()
    }

    /// `(packets, bytes)` seen by the protocol_processor.
    pub fn traffic(&self) -> (u64, u64) {
        (self.packets_seen, self.bytes_seen)
    }

    /// Incomplete blocks at the receiver (lost packets).
    pub fn incomplete_blocks(&self) -> Vec<u64> {
        self.receiver.incomplete_blocks()
    }

    /// Regenerates the `ends_policy_evaluator` circuits for a new
    /// chaincode/policy set without restarting the peer — the paper's §5
    /// partial-reconfiguration enhancement ("reprogram only the
    /// endorsement policy evaluator module"). Engine clocks, the
    /// identity cache and the in-hardware database are preserved.
    pub fn update_policies(&mut self, policies: &HashMap<String, Policy>) {
        self.processor.update_policies(policies);
    }

    fn register_identity(&mut self, packet: &BmacPacket) -> Result<(), MachineError> {
        let si = SerializedIdentity::unmarshal(&packet.payload)
            .map_err(|_| MachineError::BadIdentity("unparsable SerializedIdentity"))?;
        let cert = Certificate::from_bytes(&si.id_bytes)
            .map_err(|_| MachineError::BadIdentity("unparsable certificate"))?;
        if !self.ca_keys.is_empty()
            && !self
                .ca_keys
                .iter()
                .any(|ca| cert.verify_issued_by(ca).is_ok())
        {
            return Err(MachineError::BadIdentity(
                "certificate does not chain to a CA",
            ));
        }
        if cert.node_id.encode() != packet.index {
            return Err(MachineError::BadIdentity(
                "sync id does not match certificate",
            ));
        }
        self.keys.insert(packet.index, cert.public_key);
        Ok(())
    }
}
