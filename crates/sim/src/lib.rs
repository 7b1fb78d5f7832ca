//! Discrete-event fixed-priority preemptive multiprocessor scheduler
//! simulation.
//!
//! The paper's evaluation platform is a tightly coupled shared-memory
//! multiprocessor (Figure 4-1). This crate substitutes a deterministic
//! discrete-event simulation of that platform: per-processor fixed-priority
//! preemptive dispatching (rate-monotonic assignment), periodic job
//! release, critical-section execution, self-suspension, and a pluggable
//! [`Protocol`] policy deciding all semaphore behaviour. The substitution
//! is faithful for the paper's claims because they concern scheduling-level
//! blocking, which depends only on preemption and queueing semantics;
//! hardware costs can be injected via
//! [`Machine`](mpcp_model::Machine) overheads.
//!
//! # Example
//!
//! Run a periodic task under a trivial always-grant protocol:
//!
//! ```
//! use mpcp_model::{Body, System, TaskDef};
//! use mpcp_sim::{Ctx, LockResult, Protocol, Simulator};
//! use mpcp_model::{JobId, ResourceId};
//!
//! struct AlwaysGrant;
//! impl Protocol for AlwaysGrant {
//!     fn name(&self) -> &'static str { "always-grant" }
//!     fn init(&mut self, _: &mpcp_model::System) {}
//!     fn on_lock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) -> LockResult {
//!         LockResult::Granted
//!     }
//!     fn on_unlock(&mut self, _: &mut Ctx<'_>, _: JobId, _: ResourceId) {}
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = System::builder();
//! let p = b.add_processor("P0");
//! b.add_task(TaskDef::new("t", p).period(10).body(Body::builder().compute(3).build()));
//! let system = b.build()?;
//!
//! let mut sim = Simulator::new(&system, AlwaysGrant);
//! sim.run_until(100);
//! assert_eq!(sim.records().len(), 10);
//! assert_eq!(sim.misses(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod engine;
mod event;
pub mod export;
mod job;
mod metrics;
mod monitor;
mod observe;
mod op;
mod policy;
mod queue;
mod trace;

pub use check::ExpectedGrants;
pub use engine::{SimConfig, Simulator};
pub use event::{EventKind, TraceEvent};
pub use job::{ExecState, JobState, Jobs};
pub use metrics::{JobRecord, Metrics, TaskMetrics};
pub use monitor::{Monitor, MonitorSpec};
pub use observe::ObservedBlocking;
pub use op::{Op, Program};
pub use policy::{Ctx, LockResult, Protocol};
pub use trace::{task_symbol, Band, Slice, Trace};
