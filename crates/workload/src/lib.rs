//! Caliper-equivalent workloads for the Blockchain Machine evaluation.
//!
//! Implements the benchmarks of paper §4.2: [`smallbank`] (six banking
//! operations plus the Figure 12c split-payment extension) and [`drm`]
//! (digital asset management with fewer database accesses), plus a
//! Caliper-like [`driver`] that generates random transactions against a
//! `FabricNetwork`.

#![warn(missing_docs)]

pub mod arrivals;
pub mod driver;
pub mod drm;
pub mod smallbank;
pub mod state_load;
pub mod stream_gen;

pub use arrivals::{open_loop_schedule, Arrival, OpenLoopConfig, ZipfSampler};
pub use driver::{Driver, Workload};
pub use drm::Drm;
pub use smallbank::Smallbank;
pub use state_load::{StatePreload, ZipfCommitLoad};
pub use stream_gen::{GeneratedStream, StreamScenario};
