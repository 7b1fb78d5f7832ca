//! Protocol core for the shared-memory multiprocessor priority ceiling
//! protocol (MPCP).
//!
//! This crate holds the *pure* pieces of the protocol defined in Rajkumar,
//! ICDCS 1990 — everything the protocol policies (`mpcp-protocols`) need,
//! independent of how jobs are actually executed (the discrete-event
//! simulator and the threaded runtime both run those policies, through
//! `mpcp-sim`):
//!
//! * [`CeilingTable`] — priority ceilings of local and global semaphores
//!   (§4.4, Table 4-1): a local semaphore's ceiling is the highest priority
//!   of its users; a global semaphore's ceiling is `P_G + P_S` where `P_S`
//!   is the highest priority of any user, expressed here as
//!   [`Priority::global`](mpcp_model::Priority::global).
//! * [`GcsPriorities`] — the fixed execution priority of each task's
//!   global critical sections (§4.4, Table 4-2): a gcs of a job on
//!   processor `p` guarded by `S_G` runs at `P_G + P_H` where `P_H` is the
//!   highest priority of *remote* users of `S_G`.
//! * [`Pcp`] — the uniprocessor priority ceiling protocol decision
//!   procedure used for local semaphores (§5, rule 2).
//! * [`GlobalSemaphore`] — the shared-memory global semaphore state
//!   machine with a priority-ordered wait queue (§5, rules 5–7).
//! * [`PrioQueue`] — a stable max-priority queue (FIFO among equal
//!   priorities, matching the paper's FCFS tie-break).
//!
//! # Example
//!
//! ```
//! use mpcp_core::{CeilingTable, GcsPriorities};
//! use mpcp_model::{Body, Priority, System, TaskDef};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = System::builder();
//! let p = b.add_processors(2);
//! let s = b.add_resource("SG");
//! b.add_task(TaskDef::new("hi", p[0]).period(10).priority(2).body(
//!     Body::builder().critical(s, |c| c.compute(1)).build(),
//! ));
//! b.add_task(TaskDef::new("lo", p[1]).period(20).priority(1).body(
//!     Body::builder().critical(s, |c| c.compute(2)).build(),
//! ));
//! let sys = b.build()?;
//!
//! let ceilings = CeilingTable::compute(&sys);
//! assert_eq!(ceilings.ceiling(s), Priority::global(2)); // P_G + P(hi)
//!
//! let gcs = GcsPriorities::compute(&sys);
//! // "hi"'s gcs runs at P_G + priority of the highest remote user ("lo").
//! assert_eq!(gcs.of(sys.tasks()[0].id(), s), Some(Priority::global(1)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ceiling;
mod error;
mod gcs;
mod pcp;
mod queue;
mod sem;

pub use ceiling::CeilingTable;
pub use error::CoreError;
pub use gcs::GcsPriorities;
pub use pcp::{Pcp, PcpDecision};
pub use queue::PrioQueue;
pub use sem::{GlobalSemaphore, ReleaseOutcome};
