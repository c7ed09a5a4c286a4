//! Blockchain Machine: the hardware-accelerated Fabric validator peer.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrates: the [`BMacPeer`] receives blocks from the orderer through
//! the BMac protocol (`bmac_protocol`), validates them on the simulated
//! network-attached FPGA ([`bmac_hw`]), reads the result with the
//! `GetBlockData()` host API, and commits blocks to the ledger exactly
//! like a software-only peer — while remaining compatible with Gossip
//! senders via a full software fallback ([`fabric_peer`]).
//!
//! Configuration follows the paper's YAML file (§3.5): organizations,
//! chaincode endorsement policies (compiled into hardware circuits), and
//! the architecture geometry (`tx_validators` × `engines_per_vscc`).
//!
//! # Example
//!
//! ```
//! use bmac_core::{BMacPeer, BmacConfig};
//! use bmac_protocol::BmacSender;
//! use fabric_crypto::identity::{Msp, Role};
//! use fabric_node::chaincode::KvChaincode;
//! use fabric_node::network::FabricNetworkBuilder;
//! use fabric_policy::parse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A Fabric network producing blocks…
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
//! // …and a BMac peer validating them in hardware.
//! let config = BmacConfig::from_yaml(
//!     "network:\n  orgs: 2\nchaincodes:\n  - name: kv\n    policy: 2-outof-2 orgs\n",
//! )?;
//! let mut msp = Msp::new(2);
//! msp.issue(0, Role::Orderer, 0)?;
//! let mut peer = BMacPeer::new(&config, msp);
//! let mut sender = BmacSender::new();
//! let mut committed = Vec::new();
//! for packet in sender.send_block(&block)? {
//!     committed.extend(peer.ingest_wire(&packet.encode()?, 0)?);
//! }
//! assert_eq!(committed.len(), 1);
//! assert_eq!(committed[0].valid_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod peer;

pub use config::{BmacConfig, ChaincodeConfig, ConfigError};
pub use peer::{BMacPeer, CommitRecord, PeerError};
