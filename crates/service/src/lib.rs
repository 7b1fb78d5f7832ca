//! mpcp-service: an online admission-control server for MPCP task
//! systems.
//!
//! The repo's analyses (the blocking bounds and schedulability tests
//! behind [`mpcp_analysis::Analysis::bounds`], the [`mpcp_verify`] lints
//! and the [`mpcp_alloc`] partitioner) are batch tools: one system in,
//! one verdict out. This crate turns them into a long-running *service* —
//! the operational shape admission control actually has in Rajkumar's
//! setting, where task arrivals are online events and the analysis
//! must answer "can this task set be admitted *now*" under load.
//!
//! The pieces:
//!
//! - [`json`]: the dependency-free JSON parser/encoder, re-exported
//!   from the `mpcp-json` leaf crate under the path it has always had
//!   here.
//! - [`wire`]: the JSON ⇄ [`mpcp_model::System`] mapping
//!   ([`wire::SystemSpec`]) plus canonical hashing for cache keys.
//! - [`proto`]: request/response schema with stable error codes.
//! - [`session`]: named live systems and the pure
//!   [`session::analyze`] admission pipeline
//!   (allocate? → lint → the selected analysis' `BoundSet`).
//! - [`cache`]: sharded memoization of analyses with hit/miss
//!   counters.
//! - [`pool`]: bounded worker pool — overload sheds, never stalls.
//! - [`sys`]: the one `unsafe` module — a minimal FFI shim over
//!   epoll/`poll(2)` exposing the safe [`sys::Poller`].
//! - [`server`] + [`reactor`]: the accept loop dealing connections to
//!   nonblocking event-loop shards with pipelined request batching,
//!   plus a small blocking [`server::Client`].
//! - [`persist`]: session journal + snapshot persistence, replayed on
//!   startup.
//! - [`loadgen`]: a submission-stream load generator (closed- and
//!   open-loop, pipelined) reporting throughput and latency
//!   percentiles.
//!
//! Run it with `mpcp serve` and drive it with `mpcp loadgen`.

#![deny(unsafe_code)] // granted only to `sys`, the FFI shim

pub mod cache;
pub mod loadgen;
pub mod persist;
pub mod pool;
pub mod proto;
mod reactor;
pub mod reply;
pub mod server;
pub mod session;
pub mod sys;
pub mod wire;

pub use mpcp_json as json;

pub use cache::{AnalysisCache, CacheStats};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use persist::{JournalStats, Persistence, RestoredSession};
pub use pool::{Overloaded, WorkerPool};
pub use proto::{AllocDirective, ErrorCode, Request};
pub use server::{spawn, Client, ServerConfig, ServerHandle};
pub use session::{
    analyze, analyze_incremental, engine_for, AdmissionResult, Session, SessionMap, TaskVerdict,
};
pub use wire::{SegSpec, SystemSpec, TaskSpec};
