//! The dependency-graph approach (DGA) to multiprocessor real-time
//! synchronization: offline critical-section scheduling.
//!
//! Where the paper's protocols (MPCP, DPCP, …) arbitrate semaphore
//! access *online* with priority queues and ceilings, the
//! dependency-graph approach of Chen et al. decides everything
//! *offline*: every critical section of every job in a scheduling
//! window becomes a vertex of a dependency graph, precedence edges
//! encode mutual exclusion (per-semaphore chains) and intra-job section
//! order, a deterministic list scheduler assigns each section a start
//! slot, and at run time jobs simply *replay* the schedule — idling,
//! non-work-conservingly, until their slot arrives.
//!
//! The pipeline:
//!
//! 1. [`DependencyGraph::build`] — vertices and intra-job edges from
//!    the task model ([`graph`]).
//! 2. [`DgaSchedule::from_graph`] ([`DgaSchedule::compute`] is steps 1
//!    and 2 together) — O(n log n) list scheduling fixes per-resource
//!    chains, then one deterministic construction run pins exact slots,
//!    per-task response bounds, makespan, and a feasibility verdict
//!    ([`schedule`]).
//! 3. [`DgaReplay`] — a [`Protocol`](mpcp_sim::Protocol) that replays
//!    the schedule in the simulator, with the monitor's schedule
//!    conformance check proving the replay follows it ([`policy`]).
//!
//! Because acceptance is "the constructed schedule is feasible" rather
//! than a closed-form blocking bound, DGA admits task sets whose
//! pessimistic online-protocol analyses reject them — the comparison
//! the sweep's acceptance curves draw.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod policy;
#[cfg(test)]
mod reference;
pub mod schedule;

pub use graph::{DependencyGraph, DgaError, Edge, Vertex};
pub use policy::DgaReplay;
pub use schedule::{default_horizon, horizon_capped, ChainEntry, DgaSchedule, TaskBound};
