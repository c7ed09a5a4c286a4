//! The BMac protocol: hardware-friendly block dissemination (paper §3.2).
//!
//! Replaces Fabric's Gossip/gRPC/HTTP2/TCP stack with self-contained UDP
//! packets: a block is split into 1 header + N transaction + 1 metadata
//! sections, ~900-byte identity certificates are replaced with 16-bit
//! encoded ids via a synchronized [`cache::IdentityCache`], and L7-header
//! annotations (pointers + locators) tell the hardware where every field
//! lives. Reconstruction on the receiver is byte-exact, so all signatures
//! verify over the original bytes.
//!
//! * [`packet`] — wire format (L2/L3/L4 framing + BMac L7 header);
//! * [`cache`] — the identity cache;
//! * [`sender`] — sectioning, and the DataRemover (the named identity
//!   fields cut out) and AnnotationGenerator (the named fields pointed
//!   at) from one walk of each section through the decode's layer code;
//! * [`receiver`] — reassembly: the DataInserter half of the hardware
//!   `protocol_processor`. It restores blocks byte-exactly and stops
//!   there; whoever consumes a [`ReceivedBlock`] decodes it, once.
//!
//! # Example
//!
//! ```
//! use bmac_protocol::{BmacReceiver, BmacSender};
//! use fabric_node::chaincode::KvChaincode;
//! use fabric_node::network::FabricNetworkBuilder;
//! use fabric_policy::parse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = FabricNetworkBuilder::new()
//!     .orgs(2)
//!     .block_size(1)
//!     .chaincode("kv", parse("2-outof-2 orgs")?)
//!     .build();
//! net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
//! let block = net
//!     .submit_invocation(0, "kv", "put", &["a".into(), "1".into()])?
//!     .remove(0);
//!
//! let mut sender = BmacSender::new();
//! let mut receiver = BmacReceiver::new();
//! let mut received = None;
//! for packet in sender.send_block(&block)? {
//!     for b in receiver.ingest(&packet.encode()?)? {
//!         received = Some(b);
//!     }
//! }
//! // Byte-exact reconstruction.
//! assert_eq!(received.unwrap().block.marshal(), block.marshal());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod packet;
pub mod receiver;
pub mod retransmit;
pub mod sender;

pub use cache::IdentityCache;
pub use packet::{Annotation, BmacPacket, FieldKind, PacketError, SectionType};
pub use receiver::{BmacReceiver, ReceiveError, ReceivedBlock};
pub use retransmit::{
    Feedback, GoBackNReceiver, GoBackNSender, RetransmitError, RetransmitSupervisor, RtoPolicy, Seq,
};
pub use sender::{BmacSender, SendError, SenderStats};
