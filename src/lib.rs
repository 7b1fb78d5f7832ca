//! `mpcp` — Real-time synchronization protocols for shared-memory
//! multiprocessors.
//!
//! This is the facade crate of the workspace reproducing Rajkumar,
//! *"Real-Time Synchronization Protocols for Shared Memory
//! Multiprocessors"*, ICDCS 1990 — the paper defining the shared-memory
//! **multiprocessor priority ceiling protocol (MPCP)**. It re-exports every
//! sub-crate under a stable module path:
//!
//! | module | contents |
//! |--------|----------|
//! | [`model`] | tasks, resources, priorities, machine model |
//! | [`core`] | priority ceilings, gcs priorities, protocol state machines |
//! | [`sim`] | discrete-event multiprocessor scheduler simulation |
//! | [`protocols`] | MPCP, DPCP, PIP, PCP, FIFO, non-preemptive policies |
//! | [`dga`] | dependency-graph approach: offline critical-section scheduling and replay |
//! | [`analysis`] | blocking bounds (§5.1) and schedulability (Theorem 3) |
//! | [`taskgen`] | deterministic synthetic workload generation |
//! | [`alloc`] | task-to-processor allocation heuristics |
//! | [`runtime`] | threaded MPCP runtime and lock primitives |
//! | [`verify`] | static lints, structured diagnostics and the incremental analysis engine |
//! | [`service`] | online admission-control server, wire protocol, load generator |
//! | [`sweep`] | deterministic multi-threaded scenario sweeps with a differential oracle, and the small-scope model checker that judges through the same oracle |
//!
//! # Quickstart
//!
//! ```
//! use mpcp::model::{Body, System, TaskDef};
//! use mpcp::core::CeilingTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = System::builder();
//! let procs = b.add_processors(2);
//! let s = b.add_resource("S_G0");
//! b.add_task(
//!     TaskDef::new("tau1", procs[0])
//!         .period(100)
//!         .body(Body::builder().compute(10).critical(s, |c| c.compute(5)).build()),
//! );
//! b.add_task(
//!     TaskDef::new("tau2", procs[1])
//!         .period(200)
//!         .body(Body::builder().compute(20).critical(s, |c| c.compute(5)).build()),
//! );
//! let system = b.build()?;
//! let ceilings = CeilingTable::compute(&system);
//! assert!(ceilings.ceiling(s).is_global());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use mpcp_alloc as alloc;
pub use mpcp_analysis as analysis;
pub use mpcp_core as core;
pub use mpcp_dga as dga;
pub use mpcp_model as model;
pub use mpcp_protocols as protocols;
pub use mpcp_runtime as runtime;
pub use mpcp_service as service;
pub use mpcp_sim as sim;
pub use mpcp_sweep as sweep;
pub use mpcp_taskgen as taskgen;
pub use mpcp_verify as verify;
