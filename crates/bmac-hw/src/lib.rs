//! Discrete-event simulator of the Blockchain Machine FPGA accelerator.
//!
//! The paper's hardware (Xilinx Alveo U250 + OpenNIC) is reproduced as a
//! simulation that executes the *real functional logic* — actual ECDSA
//! verification with extracted keys, compiled policy circuits with
//! short-circuit evaluation, MVCC against the bounded in-hardware store —
//! under modeled latencies (250 MHz clock, 360 µs ecdsa_engine, 11 Gbps
//! protocol_processor). This follows the paper's own methodology: its
//! evaluation beyond 16 tx_validators came from "a high-level simulator
//! ... always within 1% of actual measurements" (§4.1).
//!
//! * [`timing`] — the latency constants;
//! * [`resources`] — the Table-1 FPGA utilization model;
//! * [`shape`] — [`BlockShape`], the one block description both
//!   performance models read, measured from real blocks or set to
//!   smallbank / drm;
//! * [`throughput`] — the closed-form steady-state model for sweeps;
//! * [`model`] and [`costs`] — the calibrated model of the *software*
//!   validator peer the paper compares BMac with (Fabric v1.4 on Xeon
//!   vCPUs, Figures 3 and 10–13), with its cost constants derived from
//!   the paper. No peer calls either model; the `fig*` binaries of the
//!   bench crate do;
//! * [`processor`] — the detailed functional+timed block_processor; it
//!   forms each `ecdsa_engine` request (key id, SHA-256 digest,
//!   signature) at the point the engine is charged;
//! * [`machine`] — the full card: protocol_processor + processor +
//!   reg_map, with `GetBlockData()` semantics. The link
//!   (`bmac_protocol::BmacReceiver`) only reassembles; the machine decodes
//!   each completed block once, with the same
//!   `fabric_protos::txflow::decode_block_struct` the software peer uses,
//!   so field extraction and hashing are modelled in this crate and both
//!   peers validate one decoded form.

#![warn(missing_docs)]

pub mod costs;
pub mod machine;
pub mod model;
pub mod processor;
pub mod resources;
pub mod shape;
pub mod throughput;
pub mod timing;

pub use costs::SwCosts;
pub use machine::{BMacMachine, MachineError};
pub use model::{CpuProfile, SwBreakdown, SwValidatorModel};
pub use processor::{BlockProcessor, HwBlockResult, HwBlockStats, ProcessorConfig};
pub use resources::{utilization, Geometry, Utilization};
pub use shape::BlockShape;
pub use throughput::{validate_block, HwBreakdown, HwModelConfig};
