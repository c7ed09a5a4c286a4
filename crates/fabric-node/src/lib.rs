//! Fabric network roles: endorser peers, clients, orderers.
//!
//! Everything a validator peer consumes is produced here: endorser peers
//! simulate proposals against their state databases ([`endorser`]),
//! clients gather endorsements and sign envelopes ([`client`]), and the
//! single orderer cuts signed blocks ([`orderer`]). [`network`] wires a
//! complete topology (paper Figure 8). The Gossip wire model that the
//! BMac protocol is compared against is `fabric_sim::gossip`, beside the
//! simulated links it transmits over.
//!
//! # Example
//!
//! ```
//! use fabric_node::chaincode::KvChaincode;
//! use fabric_node::network::FabricNetworkBuilder;
//! use fabric_policy::parse;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = FabricNetworkBuilder::new()
//!     .orgs(2)
//!     .block_size(2)
//!     .chaincode("kv", parse("2-outof-2 orgs")?)
//!     .build();
//! net.install_chaincode(|| Box::new(KvChaincode::new("kv")));
//! net.submit_invocation(0, "kv", "put", &["a".into(), "1".into()])?;
//! let blocks = net.submit_invocation(0, "kv", "put", &["b".into(), "2".into()])?;
//! assert_eq!(blocks.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaincode;
pub mod client;
pub mod endorser;
pub mod network;
pub mod orderer;

pub use chaincode::{Chaincode, ChaincodeError, ChaincodeRegistry, SimulationResult};
pub use client::{Client, ClientError};
pub use endorser::EndorserPeer;
pub use network::{FabricNetwork, FabricNetworkBuilder};
pub use orderer::{OrdererConfig, OrderingService};
