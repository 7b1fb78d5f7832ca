//! Experiment harness regenerating the paper's tables and figures.
//!
//! * [`paper`] — reconstructions of the worked examples: Example 1
//!   (Figure 3-1), Example 2 (Figure 3-2), Example 3/4 (Figure 4-2,
//!   Tables 4-1/4-2, Figure 5-1) and the §3.2 Dhall-effect set.
//! * [`experiments`] — one function per experiment (E1–E12 in
//!   DESIGN.md), each returning a printable report; the `mpcp` CLI and
//!   the bench targets drive these.
//! * [`harness`] — the minimal timing harness behind the
//!   `harness = false` bench targets.
//!
//! # Example
//!
//! ```
//! let table = mpcp_bench::experiments::e3_ceiling_table();
//! assert!(table.contains("SG0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub use mpcp_taskgen::paper;
