//! Protobuf wire format and Hyperledger Fabric message layering.
//!
//! Fabric stores blocks as deeply nested marshaled protobufs — "there
//! could be up to 23 layers in the marshaled block protobuf" (paper §3.2)
//! — and the software validator pays ~10% of its time unmarshaling them
//! (Figure 3a). This crate rebuilds that stack from scratch:
//!
//! * [`wire`] — the varint/length-delimited protobuf wire format, and a
//!   per-thread count of the fields decoded that the tests compare;
//! * [`messages`] — Fabric's message types with the real field numbers
//!   (`Envelope`, `Payload`, `Transaction`, endorsements, rwsets, blocks);
//! * [`txflow`] — building complete endorsed transactions and signed
//!   blocks, and fully decoding them for validation.
//!
//! # Example
//!
//! ```
//! use fabric_crypto::identity::{Msp, Role};
//! use fabric_protos::txflow::{build_transaction, decode_transaction, TxParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut msp = Msp::new(1);
//! let client = msp.issue(0, Role::Client, 0)?;
//! let endorser = msp.issue(0, Role::Peer, 0)?;
//! let built = build_transaction(&client, &[&endorser], &TxParams {
//!     channel_id: "mychannel",
//!     chaincode: "smallbank",
//!     reads: vec![],
//!     writes: vec![("k".into(), b"v".to_vec())],
//!     nonce: vec![1, 2, 3],
//!     timestamp: 0,
//! });
//! let decoded = decode_transaction(&built.envelope)?;
//! assert_eq!(decoded.chaincode, "smallbank");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod messages;
pub mod txflow;
pub mod wire;

pub use messages::{Block, BlockHeader, Envelope, Version};
pub use txflow::{
    build_block, build_transaction, decode_block, decode_transaction, BuiltTransaction,
    DecodedBlock, DecodedTransaction, TxParams,
};
