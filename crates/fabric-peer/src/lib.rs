//! The software-only Fabric validator peer (the paper's baseline).
//!
//! Two complementary implementations of the same validation semantics:
//!
//! * [`pipeline`] — the *functional* peer: real ECDSA/SHA-256, real
//!   protobuf unmarshaling, vscc over the one signature-verification
//!   engine ([`verify::Verifier`], which the mempool's admission pool
//!   calls too), sequential MVCC and commit against a real state
//!   database and ledger. Used for
//!   correctness (including the software-vs-hardware equivalence check
//!   of §4.1) and for wall-clock microbenchmarks.
//! * [`model`] — the *calibrated performance model*: reproduces the
//!   paper's latency breakdowns and throughput curves (Figures 3, 10,
//!   11, 12, 13) at paper scale using the constants in [`costs`],
//!   exactly as the paper itself used a validated simulator for
//!   configurations beyond its hardware (§4.1).
//!
//! Both implement Fabric v1.4 semantics, bottleneck-for-bottleneck: the
//! peer verifies *all* endorsements regardless of policy, evaluates
//! policy sub-expressions sequentially, and — in the baseline
//! `validate_and_commit` path — never overlaps consecutive blocks.
//!
//! The [`stream`] module lifts that last restriction: it reproduces the
//! Blockchain Machine's *pipelined* block processor (verification of
//! block N+1 overlapping MVCC/commit of block N) while provably
//! preserving the serial path's results; see `crates/fabric-peer/README.md`.

#![warn(missing_docs)]

pub mod costs;
pub mod model;
pub mod pipeline;
pub mod sigcache;
pub mod stream;
pub mod verify;

pub use costs::SwCosts;
pub use fabric_ledger::TxValidationCode;
pub use model::{BlockProfile, CpuProfile, SwBreakdown, SwValidatorModel};
pub use pipeline::{BlockValidationResult, StageTimings, ValidateError, ValidatorPipeline};
pub use sigcache::{Claim, ClaimGuard, SigCacheKey, SigCacheStats, SignatureCache};
pub use stream::{StreamConfig, StreamError, StreamReport, StreamStats, StreamValidator};
pub use verify::Verifier;
