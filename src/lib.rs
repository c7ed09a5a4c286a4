//! Workspace façade for the Blockchain Machine reproduction.
//!
//! This crate exists to host the runnable `examples/` and to re-export
//! the workspace's main entry points under one name. The real code lives
//! in the `crates/` members:
//!
//! * [`fabric_crypto`] — ECDSA P-256 / SHA-256 substrate with the
//!   precomputed fixed-base, wNAF, and batch-inversion fast paths;
//! * [`fabric_peer`] — software validator pipeline (parallel vscc,
//!   signature cache);
//! * [`bmac_core`] / `bmac_hw` / `bmac_protocol` — the hardware
//!   Blockchain Machine simulation and its network protocol; `bmac_hw`
//!   also holds the paper's two performance models (the card's
//!   closed-form model and the calibrated software-peer model) and the
//!   `BlockShape` both read;
//! * `fabric_node`, `fabric_policy`, `fabric_protos`, `fabric_statedb`,
//!   `fabric_ledger`, `fabric_sim`, `workload` —
//!   supporting network, policy, wire-format, state, and workload crates.

pub use bmac_core;
pub use bmac_hw;
pub use bmac_protocol;
pub use fabric_crypto;
pub use fabric_mempool;
pub use fabric_node;
pub use fabric_peer;
pub use fabric_policy;
pub use fabric_protos;
pub use fabric_sim;
pub use workload;
