//! `nws-store`: a durable state store for the control-plane daemon.
//!
//! The store is deliberately *payload-agnostic*: it persists opaque
//! single-line text records (the service layer feeds it JSON) and knows
//! nothing about placement state. What it does own is everything that makes
//! those records survive a crash:
//!
//! - **Write-ahead log** — an append-only sequence of length-prefixed,
//!   CRC32-framed records (one per line, see [`frame`]) split across
//!   numbered segment files.
//! - **Snapshots** — a full-state payload written atomically (temp file +
//!   rename + fsync) that covers every WAL record up to its sequence
//!   number. Writing a snapshot rotates the log onto a fresh segment and
//!   compacts (deletes) the rotated segments and older snapshots.
//! - **Crash recovery** — [`Store::open`] loads the newest valid snapshot,
//!   returns the WAL suffix after it for the caller to replay, and
//!   *truncates* the log at the first torn or corrupt record instead of
//!   failing (a torn tail is the expected artifact of a crash mid-append).
//! - **Locking** — an exclusive `flock` on a `LOCK` file that carries the
//!   owner's PID, so two daemons can never silently interleave appends
//!   into one directory; the kernel drops the lock when its owner dies,
//!   so a crash leaves no stale lock behind (see [`lock`]).
//! - **Fsync policy** — [`FsyncPolicy`] trades durability against append
//!   latency: `always` syncs every append, `every-N` amortizes, `never`
//!   leaves syncing to the OS. Every policy still flushes to the kernel per
//!   append, so records survive a killed *process* under all three; the
//!   policy only governs what a power failure can lose.
//!
//! Observability: an [`nws_obs::Recorder`] threaded into [`Store::open`]
//! receives `wal_appends` / `wal_bytes` / `wal_fsyncs` counters, the
//! `snapshot_ms` histogram, and a `wal_segments` gauge.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crc;
pub mod fault;
pub mod frame;
pub mod io;
pub mod lock;
mod store;

pub use fault::{FaultKind, FaultPlan, FaultyIo};
pub use io::{Io, IoFile, RealIo};
pub use store::{Recovery, Store, StoreOptions, WalStats};

/// When appends are flushed from the kernel to stable storage.
///
/// Independent of the policy, every append is written through to the OS
/// (so a SIGKILL-ed process loses nothing already acknowledged); the
/// policy decides how often `fdatasync` is issued on top, i.e. how much a
/// *power loss* can take back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append — maximum durability, slowest.
    Always,
    /// `fdatasync` after every N appends (N ≥ 1).
    EveryN(u64),
    /// Never sync explicitly; the OS writes back on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parses the command-line spelling: `always`, `never`, or `every-N`.
    ///
    /// # Errors
    /// A usage message for anything else (including `every-0`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every-") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
                    _ => Err(format!(
                        "bad fsync policy '{other}': N in 'every-N' must be a positive integer"
                    )),
                },
                None => Err(format!(
                    "bad fsync policy '{other}' (expected 'always', 'never', or 'every-N')"
                )),
            },
        }
    }

    /// The canonical command-line spelling (inverse of [`FsyncPolicy::parse`]).
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// The state directory is locked by another live daemon.
    Locked {
        /// PID recorded in the lockfile.
        pid: u32,
        /// Lockfile path, for the error message.
        path: String,
    },
    /// An I/O failure, tagged with the operation that failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Invalid input from the caller (payload with a newline, …).
    Invalid(String),
}

impl StoreError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        StoreError::Io {
            context: context.into(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Locked { pid, path } => write!(
                f,
                "state directory is locked by a live daemon (pid {pid}, lockfile {path}); \
                 stop it or point --state-dir elsewhere"
            ),
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_and_labels() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("every-8").unwrap(),
            FsyncPolicy::EveryN(8)
        );
        for bad in ["", "Always", "every-", "every-0", "every-x", "sometimes"] {
            assert!(FsyncPolicy::parse(bad).is_err(), "accepted {bad:?}");
        }
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(3),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.label()).unwrap(), p);
        }
    }
}
