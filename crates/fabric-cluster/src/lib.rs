//! Closed-loop multi-peer cluster harness with fault injection.
//!
//! The rest of the workspace proves each layer of the Blockchain
//! Machine reproduction in isolation: the BMac wire protocol round
//! trips, the Go-Back-N layer survives loss, the streaming validator is
//! serially equivalent, the durable store recovers from any crash
//! point. This crate closes the loop and proves they compose: an
//! orderer drives sustained smallbank/DRM load over per-peer lossy
//! links into N durable validating peers while a declarative fault
//! plane kills nodes under load, stalls slow followers, and mangles
//! packets — and a divergence auditor then holds every surviving peer
//! to *bit-identical* agreement with a serial-replay oracle.
//!
//! * [`faults`] — the declarative fault plane ([`FaultPlan`]):
//!   per-link loss/duplication/reordering/corruption rates, peer kills
//!   at arbitrary packet boundaries, slow-follower stalls;
//! * [`link`] — [`LossyLink`]: bandwidth/latency/queueing plus the
//!   fault rolls, with FCS framing so corruption degrades to loss
//!   instead of poisoning the ARQ layer;
//! * [`cluster`] — the deterministic event-driven loop
//!   ([`run`]/[`run_with_oracle`]) wiring orderer → supervisor → link →
//!   peer stacks, with crash-rejoin via store recovery and
//!   `BmacReceiver::resuming_from`;
//! * [`oracle`] — [`SerialOracle`], the serial-replay ground truth and
//!   the audit that defines convergence;
//! * [`admission`] — mempool-fed ordering ([`mempool_feed_blocks`]):
//!   the scenario's envelopes pass through `fabric-mempool`'s admission
//!   front-end (dedup, pre-order signature verification, shedding) and
//!   a fresh ordering service cuts the surviving stream; the cluster
//!   transmits it, via [`run_with_oracle`] over
//!   [`SerialOracle::from_blocks`], and audits it bit-identically like
//!   any other.
//!
//! See `README.md` for the topology diagram, the fault-plane knobs and
//! the scenario catalog exercised by `tests/tests/cluster_faults.rs`.

#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod faults;
pub mod link;
pub mod oracle;

pub use admission::{mempool_feed_blocks, FeedOutcome, MempoolFeed};
pub use cluster::{run, run_with_oracle, ClusterConfig, ClusterReport, LinkReport, PeerOutcome};
pub use faults::{FaultPlan, KillPoint, LinkFaults, StallSpec};
pub use link::{LinkTally, LossyLink};
pub use oracle::SerialOracle;
