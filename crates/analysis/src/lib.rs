//! Worst-case blocking bounds and schedulability analysis for the
//! shared-memory multiprocessor priority ceiling protocol (MPCP) and the
//! message-based baseline (DPCP).
//!
//! This crate implements the analytical results of the paper:
//!
//! * the **five blocking factors** of §5.1 composing a task's worst-case
//!   waiting time `B_i` under MPCP ([`mpcp_bounds`],
//!   [`BlockingBreakdown`]), plus the deferred-execution penalty;
//! * the **DPCP counterparts** used in the §5.2 comparison
//!   ([`dpcp_bounds`], [`DpcpBreakdown`]);
//! * **Theorem 3**: the per-processor rate-monotonic utilization test with
//!   blocking ([`theorem3`]), plus exact response-time analysis
//!   ([`response_times`]) and breakdown-utilization search
//!   ([`breakdown_scale`]) as modern extensions;
//! * **lock collapsing** for nested global critical sections
//!   ([`collapse_nested_globals`]), the transformation §5.1 proposes;
//! * table renderers matching the paper's Tables 4-1/4-2 formats
//!   ([`report`]).
//!
//! # The analysis contract
//!
//! A blocking bound plus a schedulability test is one shape, whatever
//! the protocol. [`Analysis`] selects MPCP, DPCP, MSRP or FMLP+, and
//! [`Analysis::bounds`] returns the same [`BoundSet`] for each: per task
//! the bound on measured blocking, the rate-monotonic row, and that
//! protocol's named terms. [`mpcp_bounds`] and [`dpcp_bounds`] remain as
//! the typed source of the §5.1/§5.2 factors.
//!
//! # Example
//!
//! ```
//! use mpcp_analysis::{Analysis, BlockingConfig};
//! use mpcp_model::{Body, System, TaskDef};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = System::builder();
//! let p = b.add_processors(2);
//! let s = b.add_resource("SG");
//! b.add_task(TaskDef::new("a", p[0]).period(100).priority(2).body(
//!     Body::builder().compute(10).critical(s, |c| c.compute(2)).build(),
//! ));
//! b.add_task(TaskDef::new("b", p[1]).period(200).priority(1).body(
//!     Body::builder().compute(20).critical(s, |c| c.compute(5)).build(),
//! ));
//! let system = b.build()?;
//!
//! let bounds = Analysis::Mpcp.bounds(&system, BlockingConfig::paper())?;
//! // Task "a" can wait for one lower-priority gcs of 5 ticks (factor 2).
//! assert_eq!(bounds.per_task()[0].term("F2").map(|d| d.ticks()), Some(5));
//! assert!(bounds.schedulable());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod bounds;
mod collapse;
mod counts;
mod deadlock;
mod delta;
mod depgraph;
mod dpcp;
mod error;
mod fmlp;
mod msrp;
pub mod report;
mod sched;
mod server;

pub use blocking::{
    mpcp_bound_set, mpcp_bounds, mpcp_bounds_with, BlockingBreakdown, BlockingConfig,
};
pub use bounds::{Analysis, BoundSet, ParseAnalysisError, TaskBounds};
pub use collapse::{collapse_nested_globals, LockGroup};
pub use deadlock::{lock_order_cycle, validate_lock_ordering};
pub use delta::{DeltaBounds, DeltaStats};
pub use depgraph::{dirty_set, DepGraph, DirtySet, Edit};
pub use dpcp::{default_hosts, dpcp_bounds, dpcp_bounds_with, DpcpBreakdown};
pub use error::AnalysisError;
pub use fmlp::fmlp_bound_set;
pub use msrp::msrp_bound_set;
pub use sched::{
    breakdown_scale, liu_layland_bound, response_times, response_times_suspension_aware,
    rta_schedulable, rta_with_jitter_schedulable, scale_system, theorem3, SchedReport, TaskSched,
};
pub use server::{aperiodic_response_bound, PollingServer};
