//! Threaded MPCP runtime: the simulator's MPCP policy on virtual
//! processors, and priority-queued lock primitives.
//!
//! Two layers, both implementing §5.4's "implementation considerations":
//!
//! * [`MpcpMutex`] / [`FifoMutex`] — standalone lock primitives for
//!   ordinary threads: bounded spin ("busy-wait on the cached flag"),
//!   then a **priority-ordered** wait queue with direct hand-off on
//!   release. These are what a downstream user embeds in an application.
//! * [`Runtime`] — a full executor that runs a model
//!   [`System`](mpcp_model::System)'s jobs as OS threads on *virtual
//!   processors*, enforcing fixed-priority preemptive dispatching in user
//!   space (portable substitute for the RT-kernel priorities the 1990
//!   implementation assumed). The protocol is the simulator's own
//!   [`Mpcp`](mpcp_protocols::Mpcp) policy, run by an
//!   [`mpcp_sim::Host`]; an execution returns the host's
//!   [`Trace`](mpcp_sim::Trace), which the simulator's
//!   [`Monitor`](mpcp_sim::Monitor) judges like a simulated run.
//!
//! # Concurrency checking
//!
//! This crate is all safe Rust (`forbid(unsafe_code)`), but its whole
//! point is cross-thread hand-off, so CI additionally runs its test
//! suite (and the service crate's) under **ThreadSanitizer**
//! (`RUSTFLAGS=-Zsanitizer=thread` on nightly; see
//! `.github/workflows/sanitizers.yml`) to catch data races that the
//! type system cannot, e.g. in the spin/queue hand-off windows or the
//! [`Runtime`]'s waits on the host it shares among its threads. Debug
//! builds also enforce a lock-order discipline for ceiling-tagged
//! mutexes — see [`MpcpMutex::with_ceiling`].
//!
//! # Example
//!
//! ```
//! use mpcp_model::Priority;
//! use mpcp_runtime::MpcpMutex;
//! use std::sync::Arc;
//!
//! let counter = Arc::new(MpcpMutex::new(0u64));
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let counter = Arc::clone(&counter);
//!         std::thread::spawn(move || {
//!             *counter.lock(Priority::task(i)) += 1;
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(Priority::task(0)), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod locks;
mod monitor;
mod vproc;

pub use locks::{FifoMutex, FifoMutexGuard, MpcpMutex, MpcpMutexGuard};
pub use monitor::Monitor;
pub use vproc::Runtime;
