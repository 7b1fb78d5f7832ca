//! `mpcp-verify` — static lints, structured diagnostics and the
//! incremental analysis engine for MPCP task systems. It analyses and
//! never simulates: the crate links neither the simulator nor the
//! protocol policies, so the admission server that depends on it does
//! not either.
//!
//! * **[`lint`]** — a static pass over a built [`mpcp_model::System`]:
//!   lock-order cycles among nested global semaphores (§5.1's partial
//!   ordering), mis-scoped resources, the §4 scope-nesting rules,
//!   suspension inside critical sections, per-processor utilization
//!   against the Liu–Layland bound, rate-monotonic priority inversions,
//!   global sections that already exceed a user's deadline, and the
//!   advisories for single-user semaphores, back-to-back sections on one
//!   semaphore and local ceilings their users' global sections dominate
//!   (V001–V012, one row each of [`LINTS`]). Run [`lint_system`] and
//!   render the [`Report`] for humans or as JSON.
//! * **[`diag`]** — the [`Diagnostic`]/[`Report`] API, which the model
//!   checker (`mpcp_sweep::checker`) reports through as well.
//! * **[`delta`]** — [`IncrementalAnalysis`], the admission server's
//!   edit engine, and the audit script that certifies it.
//!
//! The CLI's `mpcp lint` and `mpcp verify` exit nonzero when any
//! error-severity finding is produced.
//!
//! # Example
//!
//! ```
//! use mpcp_model::{Body, System, TaskDef};
//!
//! // Two tasks on two processors nest the same pair of global
//! // semaphores in opposite orders: a classic cross-processor deadlock.
//! let mut b = System::builder();
//! let procs = b.add_processors(2);
//! let sa = b.add_resource("SA");
//! let sb = b.add_resource("SB");
//! b.add_task(TaskDef::new("tau1", procs[0]).period(100).body(
//!     Body::builder()
//!         .critical(sa, |c| c.compute(1).critical(sb, |c| c.compute(1)))
//!         .build(),
//! ));
//! b.add_task(TaskDef::new("tau2", procs[1]).period(200).body(
//!     Body::builder()
//!         .critical(sb, |c| c.compute(1).critical(sa, |c| c.compute(1)))
//!         .build(),
//! ));
//! let system = b.build().unwrap();
//!
//! let report = mpcp_verify::lint_system(&system);
//! assert!(report.has_errors());
//! assert!(report.render_human().contains("V001"));
//! ```

#![forbid(unsafe_code)]

pub mod delta;
pub mod diag;
pub mod lint;

pub use delta::{
    audit_script, full_snapshot_json, with_body, with_scaled_period, with_task_from, without_task,
    EngineStats, IncrementalAnalysis,
};
pub use diag::{Diagnostic, Report, Severity};
pub use lint::{lint_system, Lint, LintScope, LINTS};
