//! Cryptographic substrate for the Blockchain Machine reproduction.
//!
//! Hyperledger Fabric's validation phase is dominated by 256-bit ECDSA
//! verification and SHA-256 hashing (paper §2.1.3, Figure 3a: ~40% and
//! ~10% of validator time respectively). This crate implements that stack
//! from scratch in pure Rust:
//!
//! * [`bigint`] — fixed-width 256-bit integers, with a dedicated
//!   squaring kernel, single-subtraction reduction for `< 2m` values,
//!   and the shared carry-chain primitives (`adc`/`sbb`/`mac`) and
//!   binary-Euclid modular inverse;
//! * [`fp256`] — the base field: Solinas-form (NIST fast-reduction)
//!   arithmetic specialized to the P-256 prime. Reduction is a fixed
//!   nine-term word shuffle with no multiplications, on canonical
//!   residues;
//! * [`mont`] — Montgomery modular arithmetic for odd 256-bit moduli:
//!   REDC multiply/square, Fermat and binary-Euclid inversion, and
//!   Montgomery-trick *batch* inversion (one inversion per block of
//!   signatures). Built on the group order `n` it is the scalar field
//!   of the ECDSA layer; built on `p` by the differential tests it is
//!   the reference [`fp256`] is held to;
//! * [`curve`] — NIST P-256 group operations: Jacobian/mixed addition,
//!   windowed and width-5 wNAF scalar multiplication, Shamir
//!   double-scalar multiplication, a lazily built fixed-base comb table
//!   for `k·G` (zero doublings per multiplication), batched affine
//!   normalization, and a projective x-coordinate check that removes
//!   the final inversion from ECDSA verification;
//! * [`ecdsa`] — ECDSA sign/verify with RFC 6979 deterministic nonces.
//!   Verification is the validator's hottest operation and runs on the
//!   fixed-base + per-key split-wNAF fast path (see the module docs);
//!   [`ecdsa::verify_batch`] is the same for a list, eight at a time in
//!   AVX-512 IFMA lanes (`p256x8`, an `x86_64`-only module) on a CPU that has
//!   them; the seed's Shamir/Fermat path is preserved for
//!   cross-checking;
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 (on the CPU's SHA
//!   extensions where it has them; [`sha256::sha256_many`] hashes a list
//!   sixteen messages at a time in AVX-512 lanes where it has those)
//!   and HMAC-SHA-256;
//! * [`der`] — strict DER encoding of `ECDSA-Sig-Value`;
//! * [`identity`] — X.509-lite certificates (~860-byte class, like the
//!   certificates whose redundancy the BMac protocol removes), the 16-bit
//!   encoded node ids of paper §3.2, and a membership service provider.
//!
//! # Example
//!
//! ```
//! use fabric_crypto::identity::{Msp, Role};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut msp = Msp::new(2);
//! let endorser = msp.issue(0, Role::Peer, 0)?;
//! let sig = endorser.sign(b"endorsement payload");
//! endorser.identity.verify(b"endorsement payload", &sig)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod curve;
pub mod der;
pub mod ecdsa;
pub mod fp256;
pub mod identity;
pub mod mont;
#[cfg(target_arch = "x86_64")]
pub mod p256x8;
pub mod sha256;

pub use bigint::U256;
pub use ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
pub use identity::{Certificate, Identity, KnownCert, Msp, NodeId, Role, SigningIdentity};
pub use sha256::{sha256, Sha256};
