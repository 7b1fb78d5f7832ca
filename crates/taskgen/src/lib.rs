//! Deterministic synthetic real-time workload generation.
//!
//! The paper's analytical comparison (§5.2) and schedulability results
//! (§5.3) are exercised in this reproduction over randomly generated task
//! systems. This crate produces them: per-processor utilizations via
//! UUniFast, log-uniform periods, critical sections carved out of each
//! task's WCET over configurable local/global resource pools, optional
//! self-suspensions and nested global sections. Everything is
//! reproducible bit-for-bit from a `u64` seed via a built-in xoshiro256++
//! generator ([`Rng`]).
//!
//! # Example
//!
//! ```
//! use mpcp_taskgen::{generate, WorkloadConfig};
//!
//! let config = WorkloadConfig::default()
//!     .processors(4)
//!     .tasks_per_processor(5)
//!     .utilization(0.4)
//!     .resources(1, 3);
//! let system = generate(&config, 2024);
//! assert_eq!(system.processors().len(), 4);
//! assert_eq!(system.tasks().len(), 20);
//! // Same seed, same system:
//! assert_eq!(system, generate(&config, 2024));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
pub mod paper;
mod rng;
mod stream;

pub use gen::{generate, poisson_arrivals, WorkloadConfig};
pub use rng::{uunifast, Rng};
pub use stream::{Scenario, ScenarioStream};
