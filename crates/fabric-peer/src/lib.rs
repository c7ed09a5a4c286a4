//! The software-only Fabric validator peer (the paper's baseline).
//!
//! [`pipeline`] is the *functional* peer: real ECDSA/SHA-256, real
//! protobuf unmarshaling, vscc over the one signature-verification
//! engine ([`verify::Verifier`], which the mempool's admission pool
//! calls too), sequential MVCC and commit against a real state database
//! and ledger. It is used for correctness (including the
//! software-vs-hardware equivalence check of §4.1) and for wall-clock
//! measurement. The paper-scale *performance model* of this peer
//! (Figures 3, 10–13) is not here: it lives beside the hardware model in
//! `bmac_hw::model`, since no peer path calls it.
//!
//! It implements Fabric v1.4 semantics, bottleneck-for-bottleneck: the
//! peer verifies *all* endorsements regardless of policy, evaluates
//! policy sub-expressions sequentially, and — in the baseline
//! `validate_and_commit` path — never overlaps consecutive blocks.
//!
//! The [`stream`] module lifts that last restriction: it reproduces the
//! Blockchain Machine's *pipelined* block processor (verification of
//! block N+1 overlapping MVCC/commit of block N) while provably
//! preserving the serial path's results; see `crates/fabric-peer/README.md`.

#![warn(missing_docs)]

pub mod pipeline;
pub mod sigcache;
pub mod stream;
pub mod verify;

pub use fabric_ledger::TxValidationCode;
pub use pipeline::{BlockValidationResult, StageTimings, ValidateError, ValidatorPipeline};
pub use sigcache::{Claim, ClaimGuard, SigCacheKey, SigCacheStats, SignatureCache};
pub use stream::{StreamConfig, StreamError, StreamReport, StreamStats, StreamValidator};
pub use verify::Verifier;
