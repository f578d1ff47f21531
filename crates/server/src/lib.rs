//! # cqa-server
//!
//! The multi-tenant serving layer over the CQA stack: a std-only TCP server
//! (`cqa-serverd`) that keeps hot tenants' instance families *resident* —
//! each with a frozen, `Arc`-shared copy-on-write base store built once per
//! `LOAD` — and answers certain-answer queries over a line-framed text
//! protocol.
//!
//! Layers, bottom-up:
//!
//! * [`proto`] — the wire protocol: `LOAD` (length-framed family text in
//!   the [`cqa_db::codec`] sectioned format), `APPEND`/`RETRACT`
//!   (length-framed plain-codec facts mutating one resident request's
//!   delta in place), `QUERY`, `BATCH`, `STATS`, `METRICS`, `EVICT`,
//!   `QUIT`; single-line `OK`/`ERR` replies with typed error codes.
//! * [`metrics`] — the per-instance observability surface scraped by
//!   `METRICS`: Prometheus-style counters, gauges, and log2-ns latency
//!   histograms (queue wait vs service time per command, per-route solver
//!   latency) built on `cqa-obs`.
//! * [`registry`] — the residency cache: tenant → family + base store,
//!   LRU-by-generation eviction under tenant-count and fact caps, and the
//!   counters `STATS` reports (including cumulative base index builds, the
//!   "built exactly once per residency" pin).
//! * [`server`] — the dispatch loop: per-connection reader threads feed a
//!   *bounded* condvar queue (`ServerConfig::max_queue`; overflow is
//!   rejected with retryable `ERR busy`) drained by parked workers, which
//!   answer through
//!   one warm [`cqa_solver::session::CertaintySession`] via
//!   `certain_batch_family_resident` on the resident base. Answers are
//!   byte-identical to a fresh in-process
//!   [`cqa_solver::dispatch::DispatchSolver`] — pinned by the loopback
//!   integration tests.
//! * [`client`] — a typed blocking client, used by the tests. Serving
//!   throughput and the trace-knob overhead (`obs.trace_overhead_pct`) are
//!   measured by perfbench.
//!
//! The protocol spec and a "run the server" walkthrough live in this
//! crate's `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::client::{Client, ClientError, LoadSummary};
    pub use crate::metrics::ServerMetrics;
    pub use crate::proto::{Command, CommandKind, ErrorCode, Reply, WireError};
    pub use crate::registry::{
        MutateError, RegistryStats, ResidencyLimits, TenantRegistry, TenantStats,
    };
    pub use crate::server::{start, ServerConfig, ServerHandle};
}
