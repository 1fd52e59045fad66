//! `nws-service`: a long-running control-plane daemon for network-wide
//! sampling.
//!
//! The daemon owns mutable network state — topology, tracked demand, the
//! sampling budget θ, and the currently installed rate configuration — and
//! processes a JSON-lines protocol (one request object per line, one
//! response object per line) over stdin/stdout, TCP, or Unix sockets. Every
//! mutating event (demand update, link failure/restore, OD add/remove,
//! θ change) triggers an incremental re-solve warm-started from the
//! previous optimum, re-projected onto the new feasible set; responses
//! carry full solve diagnostics (iterations, KKT status, objective delta,
//! wall time).
//!
//! Module map:
//! - [`json`] — hand-rolled JSON parser/encoder (no external deps).
//! - [`protocol`] — the request grammar ([`protocol::parse_request`]).
//! - [`state`] — mutable network state with transactional events,
//!   warm-started re-solves, and snapshot/rollback.
//! - [`persist`] — durable state: journals state-changing commands into an
//!   `nws-store` write-ahead log, snapshots periodically and on exit, and
//!   recovers (snapshot + deterministic replay) on boot.
//! - [`daemon`] — the one event loop behind every transport
//!   ([`daemon::Daemon::run`] serves a stdin/stdout pair as one connection,
//!   [`daemon::Daemon::serve`] the listeners' connections); also runs an
//!   always-on `nws-obs` recorder, the daemon's one counter registry
//!   (request, error and re-solve counts, per-command and warm/cold
//!   re-solve latency, queue depth, solver spans) behind `stats`,
//!   `health`, `metrics`, the run summary and the `--metrics-out`
//!   exposition.
//! - [`net`] — connections: TCP/Unix listeners, connection limits, idle
//!   timeouts, and the per-connection reader/writer threads every
//!   transport (stdio included) runs.
//! - [`read_path`] — the read path: an atomically-swapped immutable
//!   [`read_path::ReadSnapshot`] from which connection threads answer
//!   read-only commands lock-free, and the event loop answers reads
//!   queued behind their own connection's request, with the same code;
//!   also renders `stats` from the registry.
//! - [`sli`] — RFC-0019-style SLI rate windows behind the extended
//!   `health` payload: 1s/10s/60s request, read, mutate, shed, error and
//!   degraded-solve rates with OK/WARN/CRIT classification, taken as
//!   deltas of the registry's counters between per-second samples.
//!
//! See `DESIGN.md` §8 for the protocol grammar and the state machine,
//! §9 for the observability substrate, and §14 for the serving
//! architecture (read path, coalescing, SLIs).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod daemon;
pub mod json;
pub mod net;
pub mod persist;
pub mod protocol;
pub mod read_path;
pub mod sli;
pub mod state;

pub use daemon::{Daemon, DaemonOptions, DaemonSummary};
pub use net::fault::{NetFaultKind, NetFaultPlan};
pub use net::{NetOptions, Server};
pub use nws_store::{FaultPlan, FsyncPolicy};
pub use persist::{OpenError, PersistConfig, RecoveryReport, StateStore};
pub use protocol::{parse_incoming, parse_request, Incoming, Request};
pub use read_path::{ReadSnapshot, SnapshotCell};
pub use sli::{RateWindows, SliLevel};
pub use state::{ServiceState, SolveReport, SolverChaos};

use nws_core::CoreError;

/// Errors surfaced by the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// Invalid state transition or malformed specification (unknown node,
    /// duplicate OD, empty snapshot stack, I/O problems, …).
    State(String),
    /// A solver/task error from the core layer (infeasible θ, unroutable
    /// OD, non-convergence).
    Core(CoreError),
}

impl ServiceError {
    /// Wraps an I/O error (transport writes, bench-report output).
    pub fn io(e: std::io::Error) -> Self {
        ServiceError::State(format!("i/o error: {e}"))
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::State(msg) => write!(f, "{msg}"),
            ServiceError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::State(_) => None,
            ServiceError::Core(e) => Some(e),
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}
