//! The daemon event loop: one bounded request queue fed by connection
//! readers, one JSON response line per request, graceful shutdown, and an
//! optional per-event latency report (`BENCH_recover.json` format).
//!
//! Every transport is a connection of the same loop: [`Daemon::run`]
//! serves any `BufRead` + `Write` pair (stdin/stdout, in-memory test
//! harnesses) as one connection, [`Daemon::serve`] the TCP/Unix
//! listeners' connections (`crate::net`). Each connection answers
//! read-only commands from the published snapshot unless one of its own
//! requests is still queued, in which case the read queues behind it.
//!
//! Fault tolerance (DESIGN.md §11): every queued request is handled under
//! `catch_unwind`; state changes build the next state and swap it in, so
//! a panicking handler answers an error response with the state exactly
//! as it was instead of killing the loop. Store I/O failures downgrade
//! persistence to a *degraded* (non-durable) mode rather than aborting;
//! and when the bounded queue is full the connection reader *sheds* the
//! request with an `overloaded` error plus a `retry_after_ms` hint
//! instead of back-pressuring the peer forever.

use crate::json::{obj, Json};
use crate::net::{conn, Job, Registry, Server};
use crate::persist::{OpenError, PersistConfig, RecoveryReport, StateStore};
use crate::protocol::{Incoming, Request};
use crate::read_path::{
    count_request, stats_json, ReadHandle, ReadSnapshot, SnapshotCell, DEGRADED_SOLVES, ERRORS,
    LAST_GOOD_FALLBACKS, PAIRED_WARM_ITERATIONS, READS_LOCKFREE, RESOLVE_LATENCY,
    SHADOW_COLD_ITERATIONS, SHADOW_COLD_LATENCY, SHED, WARM_ITERATIONS,
};
use crate::sli::RateWindows;
use crate::state::{ColdComparison, ServiceState, SolveReport};
use crate::ServiceError;
use nws_obs::{Recorder, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Entries the idempotency dedup window retains (FIFO by first commit).
/// Sized for the realistic in-flight window — a client retries the *one*
/// mutation it never got acked, not a thousand — while bounding daemon
/// memory against hostile key churn.
const DEDUP_WINDOW: usize = 1024;

/// Daemon tunables.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Bounded request-queue capacity; 0 means the default (64). When the
    /// queue is full the connection reader *sheds* the request: the peer gets
    /// an immediate `overloaded` error with a `retry_after_ms` hint
    /// instead of silent back-pressure.
    pub queue_capacity: usize,
    /// Run a from-scratch cold solve next to every warm re-solve and report
    /// both (iteration savings + latency comparison). Doubles solve cost;
    /// meant for benchmarking and acceptance runs.
    pub shadow_cold: bool,
    /// Write a `BENCH_recover.json`-style per-event latency report here when
    /// the daemon exits. Only then does the daemon keep a per-event log.
    pub bench_out: Option<String>,
    /// Write a Prometheus-style text exposition of the observability
    /// snapshot here when the daemon exits (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Append the aggregated span tree to the exposition (`--trace`).
    pub trace: bool,
    /// Persist state to a durable store (`--state-dir`): journal every
    /// state-changing command to a write-ahead log, snapshot periodically
    /// and on exit, and recover on boot.
    pub persist: Option<PersistConfig>,
    /// Wall-clock budget per re-solve (`--solve-deadline-ms`). A solve
    /// that exhausts it returns its best feasible iterate marked
    /// *degraded*; the daemon then escalates (cold retry, then last-good
    /// fallback) rather than blocking the event loop indefinitely.
    pub solve_deadline_ms: Option<u64>,
    /// Batching window for demand updates (`--coalesce-ms`): bursts of
    /// `update_demand`/`update_demands` arriving within the window merge
    /// last-writer-wins per OD into one epoch rebuild + one warm
    /// re-solve; every merged request is still acknowledged individually.
    /// 0 disables coalescing.
    pub coalesce_ms: u64,
}

/// One re-solve-triggering event, for the latency report.
#[derive(Debug, Clone)]
struct EventRecord {
    seq: u64,
    cmd: &'static str,
    report: SolveReport,
}

/// Demand updates buffered inside the coalescing window, awaiting one
/// merged flush (see [`Daemon::flush_coalesced`]).
#[derive(Debug, Default)]
struct CoalesceBuffer {
    /// Last-writer-wins per OD, in first-seen order.
    merged: Vec<(String, f64)>,
    /// Every buffered request with its reply channel: each is acknowledged
    /// individually when the batch commits.
    replies: Vec<(Incoming, mpsc::Sender<Json>)>,
    /// When the window closes (set by the first buffered request).
    deadline: Option<Instant>,
}

/// The bounded idempotency-dedup window behind exactly-once mutations
/// (DESIGN.md §15): `request_id` → the original acknowledgement, evicted
/// FIFO past [`DEDUP_WINDOW`] entries. A duplicate delivery of a
/// committed mutation replays the stored ack *verbatim* instead of
/// re-applying — `None` marks an id recovered from the WAL (the original
/// ack died with the previous process), for which a synthesized
/// `duplicate` ack is answered instead.
#[derive(Debug, Default)]
struct DedupWindow {
    acks: HashMap<String, Option<Json>>,
    order: VecDeque<String>,
}

impl DedupWindow {
    /// `Some(cached)` when `id` was already committed: `Some(Some(ack))`
    /// replays the original ack, `Some(None)` means committed before a
    /// crash (ack lost with the process).
    fn lookup(&self, id: &str) -> Option<&Option<Json>> {
        self.acks.get(id)
    }

    /// Remembers a committed id (and its ack, when still known). FIFO
    /// eviction past the cap; re-remembering an id refreshes the ack but
    /// not its eviction position.
    fn remember(&mut self, id: &str, ack: Option<Json>) {
        if self.acks.insert(id.to_string(), ack).is_none() {
            self.order.push_back(id.to_string());
            while self.order.len() > DEDUP_WINDOW {
                if let Some(evicted) = self.order.pop_front() {
                    self.acks.remove(&evicted);
                }
            }
        }
    }
}

/// What a completed [`Daemon::run`] / [`Daemon::serve`] reports back to
/// the embedder.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// Requests answered, lock-free reads included (malformed lines
    /// count; shed ones do not).
    pub requests: u64,
    /// Successful event re-solves (including the startup solve).
    pub resolves: u64,
    /// Requests rejected by the overload shedder (answered `overloaded`).
    pub shed: u64,
    /// True when the loop ended on an explicit `shutdown`, false on EOF.
    pub clean_shutdown: bool,
    /// Of `requests`, the read-only commands answered from the published
    /// snapshot without enqueueing.
    pub reads_lockfree: u64,
    /// Connections served over the daemon's lifetime (1 for
    /// [`Daemon::run`]).
    pub connections: u64,
}

/// The long-running control-plane daemon.
#[derive(Debug)]
pub struct Daemon {
    state: ServiceState,
    opts: DaemonOptions,
    /// The one counter registry: `stats`, `health`, `metrics`, the run
    /// summary and the exposition all read it.
    recorder: Recorder,
    queue_depth: Arc<AtomicU64>,
    /// EWMA of per-request handling latency, stored as f64 bits so
    /// connection readers can read it lock-free for `retry_after_ms` hints.
    ewma_ms_bits: Arc<AtomicU64>,
    /// Per-event log behind the `--bench-out` report; empty without one.
    events: Vec<EventRecord>,
    seq: u64,
    store: Option<StateStore>,
    recovery: Option<RecoveryReport>,
    /// True once a store I/O failure dropped the daemon to non-durable
    /// serving. Sticky for the daemon's lifetime: once the journal has a
    /// gap, recovered durability cannot be claimed honestly.
    persistence_degraded: bool,
    /// The error that triggered the downgrade, for `health`.
    persistence_error: Option<String>,
    /// Resolved queue capacity (fixed at startup), for `health`.
    capacity: usize,
    /// RFC-0019 rate windows behind `health`'s 1s/10s/60s SLIs, sampled
    /// from `recorder`; shared with connection threads.
    sli: Arc<RateWindows>,
    /// The atomically-swapped read snapshot (the lock-free read path).
    cell: Arc<SnapshotCell>,
    /// Commit epoch: bumped on every committed state mutation (startup
    /// solve / recovery = 1). Tags every published snapshot and every
    /// mutating acknowledgement, so readers can pin a consistent view.
    commit_epoch: u64,
    /// Idempotency-key window: duplicate deliveries of a committed
    /// mutation replay its original ack instead of re-applying.
    dedup: DedupWindow,
}

impl Daemon {
    /// Wraps a state (typically [`ServiceState::from_task`]) for serving.
    ///
    /// The daemon always runs with an enabled [`Recorder`]: the same sink
    /// receives solver phase spans and evaluation counters (via the state's
    /// re-solves), per-command latency histograms, the queue-depth gauge,
    /// and every count `stats`, `health` and the run summary report.
    /// Answering `metrics` or writing `--metrics-out` is then a snapshot,
    /// never a restart.
    pub fn new(mut state: ServiceState, opts: DaemonOptions) -> Self {
        let recorder = Recorder::enabled();
        state.set_recorder(recorder.clone());
        let placeholder = ReadSnapshot {
            epoch: 0,
            theta: state.theta(),
            objective: None,
            monitors: Json::Arr(Vec::new()),
            ods: state.ods().len(),
            persistence: "none",
            persistence_degraded: false,
            persistence_error: None,
            serving_uncertified: false,
            degraded_solves: 0,
            last_good_fallbacks: 0,
            stats: stats_json(&recorder.snapshot()),
            wal_stats: Json::Null,
            queue_capacity: 0,
        };
        let sli = Arc::new(RateWindows::new(recorder.clone()));
        Daemon {
            state,
            opts,
            recorder,
            queue_depth: Arc::new(AtomicU64::new(0)),
            ewma_ms_bits: Arc::new(AtomicU64::new(0)),
            events: Vec::new(),
            seq: 0,
            store: None,
            recovery: None,
            persistence_degraded: false,
            persistence_error: None,
            capacity: 0,
            sli,
            cell: Arc::new(SnapshotCell::new(placeholder)),
            commit_epoch: 0,
            dedup: DedupWindow::default(),
        }
    }

    /// Boot sequence of every transport: queue capacity, solve deadline,
    /// instrument pre-registration, durable-store recovery, the startup
    /// solve, and the first snapshot publication. Returns the stdio
    /// `hello` line (with resolve/recovery payloads) and leaves
    /// `commit_epoch` at 1.
    ///
    /// # Errors
    /// [`ServiceError`] if the initial solve fails (an unservable
    /// scenario) or the state directory is held by a live lock / contains
    /// an unreplayable journal. Plain store I/O failures degrade instead.
    fn startup(&mut self) -> Result<Json, ServiceError> {
        self.capacity = if self.opts.queue_capacity == 0 {
            64
        } else {
            self.opts.queue_capacity
        };
        if let Some(ms) = self.opts.solve_deadline_ms {
            self.state
                .set_solve_deadline(Some(Duration::from_millis(ms)));
        }
        // Pre-register the degraded-serving instruments and every
        // unlabelled counter `stats` and `health` read: a healthy run must
        // expose explicit zeros (absence would be ambiguous in the
        // exposition and break rate() queries on first increment). The
        // members of `daemon_requests_total{cmd}` register on first use,
        // which keeps `per_command` in first-seen order. The histograms
        // `stats` reads register empty for the same reason.
        for name in [
            DEGRADED_SOLVES,
            SHED,
            "daemon_request_panics",
            READS_LOCKFREE,
            "daemon_jobs_enqueued_total",
            "daemon_coalesce_flushes_total",
            "daemon_coalesced_updates_total",
            "daemon_slow_client_evictions_total",
            "daemon_conn_idle_timeouts_total",
            "daemon_conn_io_errors_total",
            "daemon_line_too_long_total",
            "daemon_dedup_hits_total",
            LAST_GOOD_FALLBACKS,
            "daemon_solve_escalations",
            ERRORS,
            WARM_ITERATIONS,
            PAIRED_WARM_ITERATIONS,
            SHADOW_COLD_ITERATIONS,
        ] {
            self.recorder.counter_add(name, 0);
        }
        for mode in ["cold", "warm"] {
            self.recorder
                .register_histogram_labeled(RESOLVE_LATENCY, "mode", mode);
        }
        self.recorder.register_histogram(SHADOW_COLD_LATENCY);
        self.recorder.gauge_set("persistence_degraded", 0.0);

        // Durable store first: recovery may restore an installed
        // configuration (skipping the startup solve) or replay a journal.
        // Lock conflicts and unreplayable journals abort; plain I/O
        // failures downgrade to non-durable serving.
        if self.store.is_none() && !self.persistence_degraded {
            if let Some(cfg) = self.opts.persist.clone() {
                match StateStore::open(&cfg, &mut self.state, &self.recorder) {
                    Ok((store, report)) => {
                        // Seed the dedup window with every request_id the
                        // journal replayed: a client retrying a mutation
                        // whose ack died with the previous process must
                        // get a duplicate ack, not a second application.
                        for id in &report.replayed_request_ids {
                            self.dedup.remember(id, None);
                        }
                        self.store = Some(store);
                        self.recovery = Some(report);
                    }
                    Err(OpenError::Fatal(e)) => return Err(e),
                    Err(OpenError::Degradable(e)) => {
                        self.degrade_persistence(&format!("open: {e}"));
                    }
                }
            }
        }
        // Startup solve: every later event warm-starts from this.
        let hello = if self.state.installed().is_none() {
            let report = self.state.resolve(false)?;
            self.note_resolve("hello", &report);
            Some(report)
        } else {
            None
        };
        self.commit_epoch = 1;
        let mut line = obj(vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::Str("hello".into())),
            ("ods", Json::Num(self.state.ods().len() as f64)),
            ("theta", Json::Num(self.state.theta())),
            ("persistence", Json::Str(self.persistence_mode().into())),
        ]);
        if let (Json::Obj(pairs), Some(report)) = (&mut line, &hello) {
            pairs.push(("resolve".to_string(), resolve_json(report)));
        }
        if let (Json::Obj(pairs), Some(report)) = (&mut line, &self.recovery) {
            pairs.push(("recovered".to_string(), report.to_json()));
        }
        self.publish_snapshot();
        Ok(line)
    }

    /// Teardown of every transport: final snapshot on every clean exit
    /// path, then the bench report and metrics exposition. Returns the
    /// summary.
    fn finish(
        &mut self,
        clean_shutdown: bool,
        connections: u64,
    ) -> Result<DaemonSummary, ServiceError> {
        // Final snapshot on *every* clean exit path (explicit `shutdown`
        // and input EOF both land here): a clean-stop recovery then loads
        // one snapshot and replays nothing. A failing final snapshot
        // degrades (the WAL up to the last successful fsync still
        // recovers) instead of turning a served session into an error.
        if let Some(mut store) = self.store.take() {
            match store.write_snapshot(&self.state) {
                Ok(()) => self.store = Some(store),
                Err(e) => self.degrade_persistence(&format!("final snapshot: {e}")),
            }
        }

        if let Some(path) = self.opts.bench_out.clone() {
            std::fs::write(&path, self.bench_report())
                .map_err(|e| ServiceError::State(format!("cannot write '{path}': {e}")))?;
        }
        if let Some(path) = self.opts.metrics_out.clone() {
            self.sli.windows().export_gauges(&self.recorder);
            let text = self.recorder.snapshot().exposition(self.opts.trace);
            std::fs::write(&path, text)
                .map_err(|e| ServiceError::State(format!("cannot write '{path}': {e}")))?;
        }
        // The summary reads the rendering `stats` answers with.
        let stats = stats_json(&self.recorder.snapshot());
        let count = |key| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(DaemonSummary {
            requests: count("requests"),
            resolves: count("resolves"),
            shed: count("shed"),
            clean_shutdown,
            reads_lockfree: count("reads_lockfree"),
            connections,
        })
    }

    /// Publishes the current committed state into the snapshot cell, from
    /// which the read-only commands are answered. Called after every
    /// handled request: the epoch only moves on commits, so
    /// republications between commits just refresh the counter payloads,
    /// rendered from the registry.
    fn publish_snapshot(&mut self) {
        let monitors = match self.state.active_rates() {
            Ok(rates) => Json::Arr(
                rates
                    .iter()
                    .map(|(label, p)| {
                        obj(vec![
                            ("link", Json::Str(label.clone())),
                            ("rate", Json::Num(*p)),
                        ])
                    })
                    .collect(),
            ),
            Err(_) => Json::Arr(Vec::new()),
        };
        let counts = self.recorder.snapshot();
        let snap = ReadSnapshot {
            epoch: self.commit_epoch,
            theta: self.state.theta(),
            objective: self.state.installed().map(|i| i.objective),
            monitors,
            ods: self.state.ods().len(),
            persistence: self.persistence_mode(),
            persistence_degraded: self.persistence_degraded,
            persistence_error: self.persistence_error.clone(),
            serving_uncertified: self.state.installed().is_some_and(|i| !i.kkt),
            degraded_solves: counts.counter(DEGRADED_SOLVES).unwrap_or(0),
            last_good_fallbacks: counts.counter(LAST_GOOD_FALLBACKS).unwrap_or(0),
            stats: stats_json(&counts),
            wal_stats: self
                .store
                .as_ref()
                .map_or(Json::Null, StateStore::wal_stats_json),
            queue_capacity: self.capacity as u64,
        };
        self.cell.publish(snap);
        self.recorder
            .counter_add("daemon_snapshot_publications_total", 1);
    }

    /// The shareable read path handed to connection threads (and used by
    /// the loop for queued reads).
    fn read_handle(&self) -> ReadHandle {
        ReadHandle {
            cell: Arc::clone(&self.cell),
            queue_depth: Arc::clone(&self.queue_depth),
            ewma_ms_bits: Arc::clone(&self.ewma_ms_bits),
            capacity: self.capacity,
            recorder: self.recorder.clone(),
            sli: Arc::clone(&self.sli),
        }
    }

    /// Serves requests from `input` until `shutdown` or EOF, writing one
    /// response line per request (plus a leading `hello` line carrying the
    /// startup solve) to `output`.
    ///
    /// The pair is one connection of the event loop, exactly like an
    /// accepted socket: the same reader answers reads from the snapshot
    /// and sheds on a full queue, the same writer keeps responses in
    /// request order. Reading stops once `shutdown` is queued, so `bye` is
    /// the last line and `run` returns without waiting for `input` to
    /// close.
    ///
    /// # Errors
    /// I/O errors from `output`, and [`ServiceError`] if the *initial*
    /// solve fails (an unservable scenario) or the state directory is held
    /// by a live lock / contains an unreplayable journal. Plain store I/O
    /// failures do *not* abort: the daemon serves on with persistence
    /// degraded (visible in `hello`, `health`, and the metrics
    /// exposition). Per-event solve failures are reported to the peer as
    /// error responses, not returned; a panicking handler is caught and an
    /// error response sent, with the state unchanged.
    pub fn run<R, W>(&mut self, input: R, output: &mut W) -> Result<DaemonSummary, ServiceError>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        let hello = self.startup()?;
        let mut written = Ok(());
        let clean_shutdown = self.event_loop(
            |scope, jobs, read| {
                let (lane, responses) = conn::lane(hello);
                let written = &mut written;
                scope.spawn(move || *written = conn::run_writer(output, responses));
                scope.spawn(move || conn::run_reader(input, &read, &jobs, lane));
            },
            || {},
        );
        let summary = self.finish(clean_shutdown, 1)?;
        written.map_err(ServiceError::io)?;
        Ok(summary)
    }

    /// Serves the multi-connection transports (`nws serve --tcp/--socket`)
    /// until a `shutdown` request or the last listener dies.
    ///
    /// Every accepted connection gets a reader and a writer thread (see
    /// `crate::net`); with a non-zero `--coalesce-ms`, bursts of
    /// `update_demand`/`update_demands` are merged last-writer-wins per OD
    /// into one epoch rebuild + one warm re-solve, and every merged
    /// request is still acknowledged individually (with a `coalesced`
    /// batch-size field).
    ///
    /// `shutdown` from any connection drains and closes *all* connections:
    /// the issuer gets its `bye`, accepting stops, every reader is woken,
    /// already-queued requests are still answered, and the final durable
    /// snapshot is written exactly once.
    ///
    /// # Errors
    /// Same startup/teardown contract as [`Daemon::run`]; per-connection
    /// socket errors only ever drop that connection.
    pub fn serve(&mut self, server: Server) -> Result<DaemonSummary, ServiceError> {
        // The hello line is per-connection here (from the read path); the
        // startup solve and recovery still happen exactly once.
        self.startup()?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new());
        let clean_shutdown = self.event_loop(
            |scope, jobs, read| {
                crate::net::spawn_acceptors(
                    scope,
                    server,
                    jobs,
                    read,
                    Arc::clone(&registry),
                    Arc::clone(&shutting_down),
                );
            },
            || {
                // Drain-and-close: stop accepting, wake every blocked
                // reader (EOF on their read side); the loop keeps
                // answering what was already queued until the last
                // sender drops.
                shutting_down.store(true, Ordering::SeqCst);
                registry.close_read_sides();
            },
        );
        self.finish(clean_shutdown, registry.opened())
    }

    /// The one event loop behind every transport. `open` starts the
    /// connections inside the serving scope — the stdio pair, or the
    /// listeners' acceptors — handing them the job queue and the read
    /// path; `close` runs once the first `shutdown` is answered. The loop
    /// drains the queue until every sender is gone and returns whether it
    /// ended on `shutdown`.
    fn event_loop<'env>(
        &mut self,
        open: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>, mpsc::SyncSender<Job>, ReadHandle),
        close: impl Fn(),
    ) -> bool {
        let (tx, rx) = mpsc::sync_channel::<Job>(self.capacity);
        let read = self.read_handle();
        let window = Duration::from_millis(self.opts.coalesce_ms);
        let mut clean_shutdown = false;
        let mut depth_max = 0u64;
        std::thread::scope(|scope| {
            open(scope, tx, read.clone());
            let mut buf = CoalesceBuffer::default();
            loop {
                // With a non-empty coalesce buffer, wait only until its
                // deadline; otherwise park until the next job (or until
                // every sender — acceptors and readers — has exited).
                let job = if buf.replies.is_empty() {
                    rx.recv().ok()
                } else {
                    let wait = buf.deadline.map_or(Duration::ZERO, |d| {
                        d.saturating_duration_since(Instant::now())
                    });
                    match rx.recv_timeout(wait) {
                        Ok(job) => Some(job),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            self.flush_coalesced(&mut buf);
                            continue;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => None,
                    }
                };
                let Some(Job { item, reply }) = job else {
                    // Channel closed: every connection is gone. Flush any
                    // buffered updates (they were already accepted).
                    self.flush_coalesced(&mut buf);
                    break;
                };
                self.sli.sample();
                let d = self.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
                depth_max = depth_max.max(d + 1);
                self.recorder.gauge_set("daemon_queue_depth", d as f64);
                self.recorder
                    .gauge_set("daemon_queue_depth_max", depth_max as f64);
                self.recorder.counter_add("daemon_jobs_enqueued_total", 1);
                // Coalescable? Buffer it and keep receiving. (Never during
                // shutdown drain: those must resolve before the loop ends.)
                let item = match item {
                    Ok(inc)
                        if !window.is_zero()
                            && !clean_shutdown
                            && matches!(
                                inc.req,
                                Request::UpdateDemand { .. } | Request::UpdateDemands { .. }
                            ) =>
                    {
                        self.buffer_coalesced(&mut buf, inc, reply, window);
                        continue;
                    }
                    item => item,
                };
                // Ordering barrier: a non-coalescable request observes all
                // buffered updates as committed.
                self.flush_coalesced(&mut buf);
                let cmd: &'static str = match &item {
                    Ok(inc) => inc.req.name(),
                    Err(_) => "invalid",
                };
                let t0 = Instant::now();
                let (response, is_shutdown) = match item {
                    // A read queued behind its own connection's request:
                    // counted, published, then answered by the lock-free
                    // path's code, so its bytes match a lock-free answer.
                    Ok(inc) if inc.req.is_read_only() => {
                        count_request(&self.recorder, cmd);
                        self.publish_snapshot();
                        let response = read.answer(&inc.req);
                        self.record_latency(cmd, t0);
                        (with_request_id(response, inc.request_id.as_deref()), false)
                    }
                    item => {
                        self.seq += 1;
                        let pair = self
                            .isolated(|d| d.handle(item))
                            .unwrap_or_else(|msg| (self.error_response(None, &msg), false));
                        self.record_latency(cmd, t0);
                        self.publish_snapshot();
                        pair
                    }
                };
                if !response_ok(&response) {
                    self.count_error();
                }
                let _ = reply.send(response);
                if is_shutdown && !clean_shutdown {
                    clean_shutdown = true;
                    close();
                }
            }
        });
        clean_shutdown
    }

    /// Buffers one coalescable demand update. OD names are validated *now*
    /// (unknown ODs answer an immediate error instead of poisoning the
    /// batch) — sound because the OD set cannot change under the buffer:
    /// any `add_od`/`remove_od` flushes it first.
    fn buffer_coalesced(
        &mut self,
        buf: &mut CoalesceBuffer,
        inc: Incoming,
        reply: mpsc::Sender<Json>,
        window: Duration,
    ) {
        // Counted on entry, like every other accepted request.
        count_request(&self.recorder, inc.req.name());
        // Exactly-once: a duplicate of an already-committed mutation
        // replays its remembered ack instead of re-entering the batch.
        if let Some(ack) = self.replay_duplicate(&inc) {
            let _ = reply.send(ack);
            return;
        }
        let updates: Vec<(String, f64)> = match &inc.req {
            Request::UpdateDemand { od, size } => vec![(od.clone(), *size)],
            Request::UpdateDemands { updates } => updates.clone(),
            _ => unreachable!("only demand updates are coalescable"),
        };
        let unknown = updates
            .iter()
            .find(|(od, _)| !self.state.ods().iter().any(|o| o.name == *od));
        if let Some((od, _)) = unknown {
            self.seq += 1;
            self.count_error();
            let msg = format!("unknown OD '{od}'");
            let response = with_request_id(
                self.error_response(Some(&inc.req), &msg),
                inc.request_id.as_deref(),
            );
            let _ = reply.send(response);
            return;
        }
        for (od, size) in updates {
            match buf.merged.iter_mut().find(|(o, _)| *o == od) {
                Some((_, s)) => *s = size, // last writer wins
                None => buf.merged.push((od, size)),
            }
        }
        buf.replies.push((inc, reply));
        if buf.deadline.is_none() {
            buf.deadline = Some(Instant::now() + window);
        }
    }

    /// Applies the coalesce buffer as *one* `update_demands` batch — one
    /// epoch rebuild, one warm re-solve, one journal record — and
    /// acknowledges every merged request individually.
    fn flush_coalesced(&mut self, buf: &mut CoalesceBuffer) {
        if buf.replies.is_empty() {
            return;
        }
        let merged = std::mem::take(&mut buf.merged);
        let replies = std::mem::take(&mut buf.replies);
        buf.deadline = None;
        let batch_size = replies.len() as u64;
        let batch = Request::UpdateDemands { updates: merged };
        self.seq += 1;
        self.recorder
            .counter_add("daemon_coalesce_flushes_total", 1);
        self.recorder
            .counter_add("daemon_coalesced_updates_total", batch_size);
        let t0 = Instant::now();
        let shadow = self.opts.shadow_cold;
        let outcome = self
            .isolated(|d| d.state.apply_event(&batch, shadow))
            .and_then(|result| result.map_err(|e| e.to_string()));
        self.record_latency("coalesced_flush", t0);
        let mut acks: Vec<(mpsc::Sender<Json>, Json)> = Vec::with_capacity(replies.len());
        match outcome {
            Ok(report) => {
                // The batch's journal record carries every merged
                // request_id, so a crash between journal and ack still
                // recovers the ids into the dedup window.
                let ids: Vec<&str> = replies
                    .iter()
                    .filter_map(|(inc, _)| inc.dedup_key())
                    .collect();
                self.journal(&batch, &ids);
                self.note_resolve("update_demands", &report);
                self.commit_epoch += 1;
                let resolve = resolve_json(&report);
                for (inc, reply) in replies {
                    let response = with_request_id(
                        self.ok_response(
                            &inc.req,
                            vec![
                                ("epoch", Json::UInt(self.commit_epoch)),
                                ("coalesced", Json::UInt(batch_size)),
                                ("resolve", resolve.clone()),
                            ],
                        ),
                        inc.request_id.as_deref(),
                    );
                    if let Some(key) = inc.dedup_key() {
                        self.dedup.remember(key, Some(response.clone()));
                    }
                    acks.push((reply, response));
                }
            }
            Err(msg) => {
                // Validated sizes can still fail the solve (e.g. an
                // infeasible θ after the merge), and a panic unwinds out
                // of `apply_event` before its swap: the whole batch
                // reports the same error and the state stays untouched.
                // Errors never enter the dedup window — the client may
                // retry them for real.
                for (inc, reply) in replies {
                    self.count_error();
                    let response = with_request_id(
                        self.error_response(Some(&inc.req), &msg),
                        inc.request_id.as_deref(),
                    );
                    acks.push((reply, response));
                }
            }
        }
        // Publish BEFORE acking, matching the publish-then-reply order of
        // the non-coalesced path: a client that receives its ack (carrying
        // commit epoch K) and immediately issues a lock-free read must
        // observe epoch >= K, never K-1.
        self.publish_snapshot();
        for (reply, response) in acks {
            let _ = reply.send(response);
        }
    }

    /// Runs one handler under panic isolation. No copy of the state is
    /// taken: every state change builds the next state and swaps it in
    /// (see `apply_event`), so an unwinding handler leaves the state
    /// exactly as it was. The panic comes back as the error to answer.
    fn isolated<T>(&mut self, handler: impl FnOnce(&mut Self) -> T) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(|| handler(self))).map_err(|payload| {
            self.recorder.counter_add("daemon_request_panics", 1);
            format!(
                "internal panic (state rolled back): {}",
                panic_message(payload.as_ref())
            )
        })
    }

    /// Records one handling latency under `cmd` and folds it into the EWMA
    /// (α = 0.2) behind the shedder's `retry_after_ms` hint. Single writer
    /// (the event loop), so load/store need no compare-exchange loop.
    fn record_latency(&self, cmd: &'static str, since: Instant) {
        let elapsed_ms = since.elapsed().as_secs_f64() * 1e3;
        self.recorder
            .observe_labeled("daemon_command_latency_ms", "cmd", cmd, elapsed_ms);
        let prev = f64::from_bits(self.ewma_ms_bits.load(Ordering::Relaxed));
        let next = if prev == 0.0 {
            elapsed_ms
        } else {
            0.8 * prev + 0.2 * elapsed_ms
        };
        self.ewma_ms_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Current persistence mode, as reported by `hello` and `health`.
    fn persistence_mode(&self) -> &'static str {
        if self.store.is_some() {
            "durable"
        } else if self.persistence_degraded {
            "degraded"
        } else {
            "none"
        }
    }

    /// Drops to non-durable serving after a store I/O failure: the store
    /// is closed (releasing its lock), the downgrade is visible in
    /// `health`/`hello`/metrics, and requests keep being served and
    /// acknowledged — just not journaled.
    fn degrade_persistence(&mut self, why: &str) {
        self.store = None;
        self.persistence_degraded = true;
        self.persistence_error = Some(why.to_string());
        self.recorder.gauge_set("persistence_degraded", 1.0);
        self.recorder
            .counter_add("daemon_persistence_degraded_total", 1);
    }

    /// Journals a successfully applied state-changing request into the
    /// durable store, when one is configured. A journal failure degrades
    /// persistence (non-durable serving) rather than failing the request:
    /// the state change *has already been applied and will be served*, so
    /// answering an error would be a lie in the other direction.
    ///
    /// `request_ids` (the idempotency keys of the client requests this
    /// record commits) ride along in the WAL record so crash recovery can
    /// re-seed the dedup window — exactly-once survives a daemon restart.
    fn journal(&mut self, req: &Request, request_ids: &[&str]) {
        if let Some(store) = &mut self.store {
            if let Err(e) = store.record_applied(req, &self.state, request_ids) {
                self.degrade_persistence(&format!("journal '{}': {e}", req.name()));
            }
        }
    }

    /// Counts one error response.
    fn count_error(&self) {
        self.recorder.counter_add(ERRORS, 1);
    }

    /// Records one served re-solve: the one place the registry counts it
    /// (recovery replays never get here), plus the per-event log when
    /// `--bench-out` asks for a report.
    fn note_resolve(&mut self, cmd: &'static str, report: &SolveReport) {
        let rec = &self.recorder;
        let mode = if report.warm_started { "warm" } else { "cold" };
        rec.observe_labeled(RESOLVE_LATENCY, "mode", mode, report.wall_ms);
        if report.warm_started {
            rec.counter_add(WARM_ITERATIONS, report.iterations as u64);
        }
        if let Some(cold) = &report.cold {
            rec.observe(SHADOW_COLD_LATENCY, cold.wall_ms);
            rec.counter_add(SHADOW_COLD_ITERATIONS, cold.iterations as u64);
            if report.warm_started {
                rec.counter_add(PAIRED_WARM_ITERATIONS, report.iterations as u64);
            }
        }
        if report.degraded {
            rec.counter_add(DEGRADED_SOLVES, 1);
        }
        if report.fallback == Some("last_good") {
            rec.counter_add(LAST_GOOD_FALLBACKS, 1);
        }
        if self.opts.bench_out.is_none() {
            return;
        }
        self.events.push(EventRecord {
            seq: self.seq,
            cmd,
            report: report.clone(),
        });
    }

    /// Processes one queue item; returns the response and whether to stop.
    ///
    /// Exactly-once envelope handling happens here: a duplicate
    /// `request_id` short-circuits to its remembered ack (the state
    /// machine is not touched again), every response to an id-carrying
    /// request echoes the id back, and committed state-changing acks are
    /// remembered for future replays.
    fn handle(&mut self, item: Result<Incoming, String>) -> (Json, bool) {
        let inc = match item {
            Ok(inc) => inc,
            Err(msg) => {
                count_request(&self.recorder, "invalid");
                return (self.error_response(None, &msg), false);
            }
        };
        count_request(&self.recorder, inc.req.name());
        if let Some(ack) = self.replay_duplicate(&inc) {
            return (ack, false);
        }
        let key = inc.dedup_key().map(str::to_string);
        let Incoming { req, request_id } = inc;
        let ids: Vec<&str> = key.as_deref().into_iter().collect();
        let (response, stop) = self.dispatch(req, &ids);
        let response = with_request_id(response, request_id.as_deref());
        // Only *successful, state-changing* acks enter the window: an
        // error leaves no state behind, so the client may retry it for
        // real and must not get a stale failure replayed.
        if let Some(key) = key {
            if response_ok(&response) {
                self.dedup.remember(&key, Some(response.clone()));
            }
        }
        (response, stop)
    }

    /// Exactly-once replay: a `request_id` the dedup window already holds
    /// is answered with its original ack byte-for-byte. When the id was
    /// recovered from the WAL (the original ack died with the previous
    /// process), a synthesized ack marked `"duplicate": true` stands in —
    /// either way the mutation is applied exactly once.
    fn replay_duplicate(&mut self, inc: &Incoming) -> Option<Json> {
        let id = inc.dedup_key()?;
        let cached = self.dedup.lookup(id)?.clone();
        self.recorder.counter_add("daemon_dedup_hits_total", 1);
        Some(match cached {
            Some(ack) => ack,
            None => obj(vec![
                ("ok", Json::Bool(true)),
                ("seq", Json::Num(self.seq as f64)),
                ("cmd", Json::Str(inc.req.name().into())),
                ("duplicate", Json::Bool(true)),
                ("epoch", Json::UInt(self.commit_epoch)),
                ("request_id", Json::Str(id.into())),
            ]),
        })
    }

    /// Dispatches one parsed request to the state machine; `ids` are the
    /// idempotency keys to journal alongside a committed state change.
    /// Read-only requests never get here: the event loop answers them
    /// from the snapshot.
    fn dispatch(&mut self, req: Request, ids: &[&str]) -> (Json, bool) {
        let payload = match &req {
            // Journal before acknowledging. `ok` means the event is
            // *applied and being served*; it is durable only while
            // `health` reports persistence "durable" — a journal failure
            // flips that to "degraded" instead of un-applying the event.
            req if req.is_mutating() => {
                self.state
                    .apply_event(req, self.opts.shadow_cold)
                    .map(|report| {
                        self.journal(req, ids);
                        self.note_resolve(req.name(), &report);
                        self.commit_epoch += 1;
                        vec![
                            ("epoch", Json::UInt(self.commit_epoch)),
                            ("resolve", resolve_json(&report)),
                        ]
                    })
            }
            Request::QueryAccuracy { runs, seed } => {
                self.state
                    .accuracy(*runs, *seed)
                    .map(|(mean, worst, best)| {
                        vec![
                            ("mean", Json::Num(mean)),
                            ("worst", Json::Num(worst)),
                            ("best", Json::Num(best)),
                        ]
                    })
            }
            Request::Snapshot => {
                let depth = self.state.snapshot();
                self.journal(&req, ids);
                Ok(vec![("depth", Json::Num(depth as f64))])
            }
            Request::Rollback => self.state.rollback().map(|(depth, objective)| {
                self.journal(&req, ids);
                // A rollback swaps the installed rates: a committed state
                // change, so readers get a new epoch.
                self.commit_epoch += 1;
                vec![
                    ("epoch", Json::UInt(self.commit_epoch)),
                    ("depth", Json::Num(depth as f64)),
                    ("objective", objective.map_or(Json::Null, Json::Num)),
                ]
            }),
            Request::Shutdown => {
                let resolves = stats_json(&self.recorder.snapshot())
                    .get("resolves")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                let payload = vec![
                    ("bye", Json::Bool(true)),
                    ("resolves", Json::Num(resolves as f64)),
                ];
                return (self.ok_response(&req, payload), true);
            }
            _ => unreachable!("read-only request in the dispatch path"),
        };
        match payload {
            Ok(payload) => (self.ok_response(&req, payload), false),
            Err(e) => (self.error_response(Some(&req), &e.to_string()), false),
        }
    }

    fn ok_response(&self, req: &Request, payload: Vec<(&str, Json)>) -> Json {
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("seq", Json::Num(self.seq as f64)),
            ("cmd", Json::Str(req.name().into())),
        ];
        pairs.extend(payload);
        obj(pairs)
    }

    fn error_response(&self, req: Option<&Request>, msg: &str) -> Json {
        let mut pairs = vec![
            ("ok", Json::Bool(false)),
            ("seq", Json::Num(self.seq as f64)),
        ];
        if let Some(req) = req {
            pairs.push(("cmd", Json::Str(req.name().into())));
        }
        pairs.push(("error", Json::Str(msg.into())));
        obj(pairs)
    }

    /// The `BENCH_recover.json` document: per-event latency plus warm/cold
    /// totals and the solve-deadline tail.
    fn bench_report(&self) -> String {
        let events = Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    let r = &e.report;
                    let cold = |f: fn(&ColdComparison) -> f64| {
                        r.cold.as_ref().map_or(Json::Null, |c| Json::Num(f(c)))
                    };
                    obj(vec![
                        ("seq", Json::Num(e.seq as f64)),
                        ("cmd", Json::Str(e.cmd.into())),
                        ("warm", Json::Bool(r.warm_started)),
                        ("iterations", Json::Num(r.iterations as f64)),
                        ("wall_ms", Json::Num(r.wall_ms)),
                        ("cold_iterations", cold(|c| c.iterations as f64)),
                        ("cold_ms", cold(|c| c.wall_ms)),
                        ("objective", Json::Num(r.objective)),
                        ("degraded", Json::Bool(r.degraded)),
                    ])
                })
                .collect(),
        );
        let warm: Vec<&SolveReport> = self
            .events
            .iter()
            .map(|e| &e.report)
            .filter(|r| r.warm_started)
            .collect();
        let warm_ms: f64 = warm.iter().map(|r| r.wall_ms).sum();
        let warm_iters: usize = warm.iter().map(|r| r.iterations).sum();
        let shadows = || warm.iter().filter_map(|r| r.cold.as_ref());
        let cold_ms: f64 = shadows().map(|c| c.wall_ms).sum();
        let cold_iters: usize = shadows().map(|c| c.iterations).sum();
        let solve_ms: Vec<f64> = self.events.iter().map(|e| e.report.wall_ms).collect();
        let report = obj(vec![
            ("bench", Json::Str("serve".into())),
            (
                "recovery",
                self.recovery
                    .as_ref()
                    .map_or(Json::Null, RecoveryReport::to_json),
            ),
            ("events", events),
            (
                "totals",
                obj(vec![
                    ("warm_resolves", Json::Num(warm.len() as f64)),
                    ("warm_iterations", Json::Num(warm_iters as f64)),
                    ("warm_ms", Json::Num(warm_ms)),
                    ("cold_iterations", Json::Num(cold_iters as f64)),
                    ("cold_ms", Json::Num(cold_ms)),
                ]),
            ),
            (
                "solve_deadline",
                obj(vec![
                    (
                        "configured_ms",
                        self.opts.solve_deadline_ms.map_or(Json::Null, Json::UInt),
                    ),
                    (
                        "solve_ms_p99",
                        percentile(&solve_ms, 0.99).map_or(Json::Null, Json::Num),
                    ),
                    (
                        "degraded_solves",
                        Json::UInt(self.recorder.counter(DEGRADED_SOLVES).unwrap_or(0)),
                    ),
                ]),
            ),
        ]);
        let mut text = report.encode();
        text.push('\n');
        text
    }
}

/// The shedder's backoff hint: roughly one queue-drain at the observed
/// per-request latency, clamped to [10 ms, 30 s].
pub(crate) fn retry_after_ms(ewma_ms: f64, capacity: usize) -> u64 {
    (ewma_ms * capacity as f64).clamp(10.0, 30_000.0).round() as u64
}

/// The q-quantile (nearest-rank) of `values`; `None` when empty.
fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Echoes the client's `request_id` back on a response object (no-op when
/// the request carried none). The id is appended *before* the ack enters
/// the dedup window, so a replayed ack is byte-identical to the original.
pub(crate) fn with_request_id(mut response: Json, request_id: Option<&str>) -> Json {
    if let (Json::Obj(pairs), Some(id)) = (&mut response, request_id) {
        pairs.push(("request_id".to_string(), Json::Str(id.to_string())));
    }
    response
}

/// Whether a response object acknowledges success (`"ok": true`).
fn response_ok(response: &Json) -> bool {
    matches!(response, Json::Obj(pairs)
        if pairs.iter().any(|(k, v)| k == "ok" && matches!(v, Json::Bool(true))))
}

/// Best-effort text of a caught panic payload (`&str` / `String` cover
/// `panic!` and `assert!`; anything else is opaque by design).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// The `metrics` response payload: the observability snapshot as
/// structured JSON. Counters and bucket counts are exact integers
/// ([`Json::UInt`]); histograms keep per-bucket (non-cumulative) counts in
/// [`nws_obs::LATENCY_BUCKETS_MS`] order plus the `+Inf` slot; spans come
/// preorder over the phase tree with their nesting depth.
pub(crate) fn metrics_json(snap: &Snapshot) -> Json {
    fn key(name: &str, label: Option<(&str, &str)>) -> String {
        match label {
            Some((k, v)) => format!("{name}{{{k}=\"{v}\"}}"),
            None => name.to_string(),
        }
    }
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|c| (key(c.name, c.label), Json::UInt(c.value)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .iter()
            .map(|g| (key(g.name, g.label), Json::Num(g.value)))
            .collect(),
    );
    let histograms = Json::Arr(
        snap.histograms
            .iter()
            .map(|h| {
                obj(vec![
                    ("name", Json::Str(key(h.name, h.label))),
                    ("count", Json::UInt(h.count)),
                    ("sum", Json::Num(h.sum)),
                    (
                        "buckets",
                        Json::Arr(h.bucket_counts.iter().map(|&c| Json::UInt(c)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let spans = Json::Arr(
        snap.spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Json::Str(s.name.into())),
                    ("depth", Json::UInt(s.depth as u64)),
                    ("count", Json::UInt(s.count)),
                    ("total_ms", Json::Num(s.total_ms)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
        ("spans", spans),
    ])
}

/// The `"resolve"` payload of a mutating command's response.
fn resolve_json(report: &SolveReport) -> Json {
    let mut pairs = vec![
        ("warm", Json::Bool(report.warm_started)),
        ("iterations", Json::Num(report.iterations as f64)),
        (
            "constraint_releases",
            Json::Num(report.constraint_releases as f64),
        ),
        ("kkt", Json::Bool(report.kkt)),
        ("objective", Json::Num(report.objective)),
        (
            "objective_delta",
            report.objective_delta.map_or(Json::Null, Json::Num),
        ),
        ("lambda", Json::Num(report.lambda)),
        ("wall_ms", Json::Num(report.wall_ms)),
        ("active_monitors", Json::Num(report.active_monitors as f64)),
        ("degraded", Json::Bool(report.degraded)),
    ];
    if let Some(step) = report.fallback {
        pairs.push(("fallback", Json::Str(step.into())));
    }
    if let Some(cold) = &report.cold {
        pairs.push((
            "cold",
            obj(vec![
                ("iterations", Json::Num(cold.iterations as f64)),
                ("wall_ms", Json::Num(cold.wall_ms)),
                ("objective", Json::Num(cold.objective)),
            ]),
        ));
    }
    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::state::SolverChaos;
    use nws_core::scenarios::janet_task;
    use nws_core::PlacementConfig;
    use nws_store::FaultPlan;
    use std::io::Cursor;

    fn run_state_script(
        state: ServiceState,
        script: &str,
        opts: DaemonOptions,
    ) -> (Vec<Json>, DaemonSummary) {
        let mut daemon = Daemon::new(state, opts);
        let mut out = Vec::new();
        let summary = daemon
            .run(Cursor::new(script.to_string()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = text
            .lines()
            .map(|l| parse(l).expect("daemon emits valid JSON"))
            .collect();
        (lines, summary)
    }

    fn run_script(script: &str, opts: DaemonOptions) -> (Vec<Json>, DaemonSummary) {
        let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        run_state_script(state, script, opts)
    }

    #[test]
    fn hello_then_ping_then_shutdown() {
        let script = "{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_script(script, DaemonOptions::default());
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("cmd").unwrap().as_str(), Some("hello"));
        assert_eq!(lines[0].get("persistence").unwrap().as_str(), Some("none"));
        assert_eq!(
            lines[0]
                .get("resolve")
                .unwrap()
                .get("kkt")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(
            lines[0]
                .get("resolve")
                .unwrap()
                .get("degraded")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(lines[1].get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(lines[2].get("bye").unwrap().as_bool(), Some(true));
        assert!(summary.clean_shutdown);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.shed, 0);
    }

    #[test]
    fn eof_without_shutdown_is_unclean_but_graceful() {
        let (lines, summary) = run_script("{\"cmd\":\"ping\"}\n", DaemonOptions::default());
        assert_eq!(lines.len(), 2);
        assert!(!summary.clean_shutdown);
    }

    #[test]
    fn malformed_lines_get_error_responses() {
        let script = "this is not json\n{\"cmd\":\"warp\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_script(script, DaemonOptions::default());
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(lines[2].get("ok").unwrap().as_bool(), Some(false));
        assert!(lines[2]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown command"));
        assert!(summary.clean_shutdown);
    }

    #[test]
    fn mutating_event_reports_resolve_payload() {
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, _) = run_script(
            script,
            DaemonOptions {
                shadow_cold: true,
                ..DaemonOptions::default()
            },
        );
        let resolve = lines[1].get("resolve").unwrap();
        assert_eq!(resolve.get("warm").unwrap().as_bool(), Some(true));
        assert_eq!(resolve.get("kkt").unwrap().as_bool(), Some(true));
        assert_eq!(resolve.get("degraded").unwrap().as_bool(), Some(false));
        assert!(resolve.get("fallback").is_none());
        assert!(resolve.get("cold").unwrap().get("iterations").is_some());
        assert!(resolve.get("objective_delta").unwrap().as_f64().is_some());
    }

    #[test]
    fn bench_report_written() {
        let dir = std::env::temp_dir().join("nws_service_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_serve.json");
        let script = "{\"cmd\":\"set_theta\",\"theta\":90000}\n\
                      {\"cmd\":\"fail_link\",\"a\":\"FR\",\"b\":\"LU\"}\n\
                      {\"cmd\":\"shutdown\"}\n";
        let (_, summary) = run_script(
            script,
            DaemonOptions {
                shadow_cold: true,
                bench_out: Some(path.to_string_lossy().into_owned()),
                solve_deadline_ms: Some(5_000),
                ..DaemonOptions::default()
            },
        );
        assert_eq!(summary.resolves, 3); // hello + 2 events
        let report = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.get("bench").unwrap().as_str(), Some("serve"));
        let events = report.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("degraded").unwrap().as_bool(), Some(false));
        let totals = report.get("totals").unwrap();
        assert_eq!(totals.get("warm_resolves").unwrap().as_f64(), Some(2.0));
        // Shadow cold data present for warm events.
        assert!(totals.get("cold_iterations").unwrap().as_f64().unwrap() > 0.0);
        // Solve-deadline tail section: configured budget, latency p99,
        // degraded count (zero here — a generous budget).
        let deadline = report.get("solve_deadline").unwrap();
        assert_eq!(deadline.get("configured_ms").unwrap().as_u64(), Some(5_000));
        assert!(deadline.get("solve_ms_p99").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(deadline.get("degraded_solves").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn hostile_add_od_answers_error_and_loop_survives() {
        // Regression: a size ≤ 1 used to sail through the protocol layer
        // and panic the event loop inside `SreUtility::new`. It must now
        // come back as an error response, with the daemon still serving.
        let script =
            "{\"cmd\":\"add_od\",\"name\":\"EVIL\",\"src\":\"UK\",\"dst\":\"DE\",\"size\":0.5}\n\
                      {\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":1}\n\
                      {\"cmd\":\"set_theta\",\"theta\":-5}\n\
                      {\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_script(script, DaemonOptions::default());
        assert_eq!(lines.len(), 6);
        for hostile in &lines[1..4] {
            assert_eq!(hostile.get("ok").unwrap().as_bool(), Some(false));
            assert!(hostile
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("must be a finite"));
        }
        assert_eq!(lines[4].get("pong").unwrap().as_bool(), Some(true));
        assert!(summary.clean_shutdown);
        assert_eq!(summary.resolves, 1); // only the startup solve ran
    }

    #[test]
    fn panicking_handler_is_isolated_and_state_rolled_back() {
        // Chaos schedules a panic on resolve #1 (the #0 slot is the
        // startup solve). The poisoned set_theta must come back as an
        // error response with θ unchanged, and the daemon keeps serving:
        // the next mutation certifies normally.
        let mut state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        state.set_chaos(SolverChaos::new().with_panic_on_resolve(1));
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n\
                      {\"cmd\":\"query_rates\"}\n\
                      {\"cmd\":\"set_theta\",\"theta\":70000}\n\
                      {\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_state_script(state, script, DaemonOptions::default());
        assert_eq!(lines.len(), 5);
        let hello_theta = lines[0].get("theta").unwrap().as_f64().unwrap();
        let poisoned = &lines[1];
        assert_eq!(poisoned.get("ok").unwrap().as_bool(), Some(false));
        let msg = poisoned.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("internal panic"), "{msg}");
        assert!(msg.contains("injected chaos panic"), "{msg}");
        // θ rolled back to the pre-request value.
        assert_eq!(
            lines[2].get("theta").unwrap().as_f64(),
            Some(hello_theta),
            "state must roll back to the pre-panic value"
        );
        // The loop survived and the next solve certifies.
        let resolve = lines[3].get("resolve").unwrap();
        assert_eq!(resolve.get("kkt").unwrap().as_bool(), Some(true));
        assert!(summary.clean_shutdown);
        assert_eq!(summary.requests, 4);
    }

    #[test]
    fn health_reports_ok_on_a_clean_daemon() {
        let script = "{\"cmd\":\"health\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, _) = run_script(script, DaemonOptions::default());
        let health = &lines[1];
        assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("persistence").unwrap().as_str(), Some("none"));
        assert_eq!(health.get("degraded_solves").unwrap().as_u64(), Some(0));
        assert_eq!(health.get("shed").unwrap().as_u64(), Some(0));
        assert_eq!(health.get("queue_capacity").unwrap().as_u64(), Some(64));
        assert_eq!(
            health.get("serving_uncertified").unwrap().as_bool(),
            Some(false)
        );
        assert!(health.get("persistence_error").is_none());
    }

    #[test]
    fn exhausted_budget_degrades_but_keeps_serving() {
        // A zero-iteration cap makes every solve (warm, cold retry, and
        // startup) return uncertified: the daemon serves best-effort
        // rates, marks the resolve degraded, and `health` flips to
        // "degraded" — it never errors out or stops answering.
        let mut state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        state.set_chaos(SolverChaos::new().with_max_iters(0));
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n\
                      {\"cmd\":\"query_rates\"}\n\
                      {\"cmd\":\"health\"}\n\
                      {\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_state_script(state, script, DaemonOptions::default());
        let hello_resolve = lines[0].get("resolve").unwrap();
        assert_eq!(hello_resolve.get("degraded").unwrap().as_bool(), Some(true));
        let resolve = lines[1].get("resolve").unwrap();
        assert_eq!(resolve.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(resolve.get("fallback").unwrap().as_str(), Some("last_good"));
        // Rates still answer (the last-good startup vector).
        assert_eq!(lines[2].get("ok").unwrap().as_bool(), Some(true));
        assert!(!lines[2]
            .get("monitors")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        let health = &lines[3];
        assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(
            health.get("serving_uncertified").unwrap().as_bool(),
            Some(true)
        );
        assert!(health.get("degraded_solves").unwrap().as_u64().unwrap() >= 2);
        assert!(health.get("last_good_fallbacks").unwrap().as_u64().unwrap() >= 1);
        assert!(summary.clean_shutdown);
    }

    #[test]
    fn store_io_failure_degrades_persistence_not_the_daemon() {
        // A saturating fault schedule (every mutating filesystem op
        // fails) makes the store unopenable. That is an I/O problem, not
        // a corruption problem: the daemon must come up, say so in
        // `hello`/`health`, and keep acknowledging mutations.
        let dir = std::env::temp_dir().join(format!("nws_degrade_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = PersistConfig::new(&dir);
        cfg.fault = Some(FaultPlan {
            seed: 7,
            rate: 255,
            max_faults: u64::MAX,
        });
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n\
                      {\"cmd\":\"health\"}\n\
                      {\"cmd\":\"shutdown\"}\n";
        let (lines, summary) = run_script(
            script,
            DaemonOptions {
                persist: Some(cfg),
                ..DaemonOptions::default()
            },
        );
        assert_eq!(
            lines[0].get("persistence").unwrap().as_str(),
            Some("degraded")
        );
        // The mutation is applied and acknowledged despite no journal.
        assert_eq!(lines[1].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            lines[1]
                .get("resolve")
                .unwrap()
                .get("kkt")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let health = &lines[2];
        assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(
            health.get("persistence").unwrap().as_str(),
            Some("degraded")
        );
        assert!(health
            .get("persistence_error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("open"));
        assert!(summary.clean_shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flood_answers_every_request_ok_or_overloaded() {
        // 300 re-solving requests into a 2-slot queue: reads would go
        // lock-free and never be shed, so the flood uses a command that
        // always queues. Some are shed, but every single line gets exactly
        // one response, and shed responses carry a clamped retry hint and
        // echo their request_id. (How many shed is timing-dependent; the
        // answered-count invariant is not.)
        let mut script = String::new();
        for i in 0..300 {
            script.push_str(&format!(
                "{{\"cmd\":\"set_theta\",\"theta\":80000,\"request_id\":\"f{i}\"}}\n"
            ));
        }
        script.push_str("{\"cmd\":\"shutdown\"}\n");
        let (lines, summary) = run_script(
            &script,
            DaemonOptions {
                queue_capacity: 2,
                ..DaemonOptions::default()
            },
        );
        assert_eq!(summary.requests + summary.shed, 301);
        assert_eq!(lines.len() as u64, 1 + summary.requests + summary.shed);
        let mut shed = 0;
        for (i, line) in lines[1..301].iter().enumerate() {
            if line.get("error").and_then(Json::as_str) == Some("overloaded") {
                shed += 1;
                let hint = line.get("retry_after_ms").unwrap().as_u64().unwrap();
                assert!((10..=30_000).contains(&hint), "hint {hint}");
                assert!(line.get("seq").is_none(), "shed responses carry no seq");
                assert_eq!(
                    line.get("request_id").and_then(Json::as_str),
                    Some(format!("f{i}").as_str()),
                    "shed replies echo their request_id"
                );
            }
        }
        assert!(shed >= 1, "a 2-slot queue under a 300-line flood sheds");
    }

    #[test]
    fn retry_hint_is_clamped_to_sane_bounds() {
        assert_eq!(retry_after_ms(0.0, 64), 10); // no latency sample yet
        assert_eq!(retry_after_ms(2.0, 64), 128);
        assert_eq!(retry_after_ms(10_000.0, 64), 30_000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(percentile(&[5.0], 0.99), Some(5.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn metrics_command_reports_histograms_and_spans() {
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n\
                      {\"cmd\":\"ping\"}\n{\"cmd\":\"metrics\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, _) = run_script(script, DaemonOptions::default());
        let metrics = lines[3].get("metrics").unwrap();
        // Solver counters from the startup + set_theta solves.
        assert!(
            metrics
                .get("counters")
                .unwrap()
                .get("solver_iterations_total")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        // Degraded-serving counters pre-registered at zero on healthy runs.
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("degraded_solves")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("daemon_overload_shed_total")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        // The SLI gauges are refreshed for `metrics`, with no `health` sent.
        let request_rate = metrics
            .get("gauges")
            .unwrap()
            .get("sli_request_rate_60s")
            .and_then(Json::as_f64);
        assert!(request_rate.is_some_and(|r| r > 0.0), "{request_rate:?}");
        // Per-command latency histograms, one per observed command label.
        let histograms = metrics.get("histograms").unwrap().as_arr().unwrap();
        let names: Vec<&str> = histograms
            .iter()
            .map(|h| h.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"daemon_resolve_latency_ms{mode=\"cold\"}"));
        assert!(names.contains(&"daemon_resolve_latency_ms{mode=\"warm\"}"));
        assert!(names.contains(&"daemon_command_latency_ms{cmd=\"ping\"}"));
        assert!(names.contains(&"daemon_command_latency_ms{cmd=\"set_theta\"}"));
        for h in histograms {
            let buckets = h.get("buckets").unwrap().as_arr().unwrap();
            assert_eq!(buckets.len(), nws_obs::LATENCY_BUCKETS_MS.len() + 1);
        }
        // Solver phase spans: "solve" roots with nested phases.
        let spans = metrics.get("spans").unwrap().as_arr().unwrap();
        let solve = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("solve"))
            .expect("solve span present");
        assert_eq!(solve.get("depth").unwrap().as_u64(), Some(0));
        assert_eq!(solve.get("count").unwrap().as_u64(), Some(2));
        assert!(spans
            .iter()
            .any(|s| s.get("name").unwrap().as_str() == Some("line_search")
                && s.get("depth").unwrap().as_u64() == Some(1)));
    }

    #[test]
    fn metrics_out_writes_exposition() {
        let dir = std::env::temp_dir().join("nws_service_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics_serve.prom");
        let script = "{\"cmd\":\"set_theta\",\"theta\":80000}\n{\"cmd\":\"shutdown\"}\n";
        let (_, _) = run_script(
            script,
            DaemonOptions {
                metrics_out: Some(path.to_string_lossy().into_owned()),
                trace: true,
                ..DaemonOptions::default()
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE solver_iterations_total counter"));
        assert!(text.contains("# TYPE daemon_command_latency_ms histogram"));
        assert!(text.contains("daemon_command_latency_ms_bucket{cmd=\"set_theta\",le=\"+Inf\"}"));
        assert!(text.contains("daemon_resolve_latency_ms_bucket{mode=\"warm\",le=\"+Inf\"}"));
        // Degraded-mode instruments always present (zero when healthy).
        assert!(text.contains("degraded_solves 0"));
        assert!(text.contains("daemon_overload_shed_total 0"));
        assert!(text.contains("persistence_degraded 0"));
        // The SLI gauges are refreshed before the file is written.
        assert!(text.contains("\nsli_state 0\n"), "{text}");
        assert!(text.contains("\nsli_request_rate_60s "), "{text}");
        assert!(text.contains("# span solve"), "trace appends span tree");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn stats_histograms_are_exported_before_their_first_observation() {
        let dir = std::env::temp_dir().join("nws_service_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics_ping_only.prom");
        let script = "{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n";
        run_script(
            script,
            DaemonOptions {
                metrics_out: Some(path.to_string_lossy().into_owned()),
                ..DaemonOptions::default()
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        for line in [
            "daemon_resolve_latency_ms_count{mode=\"cold\"} 1",
            "daemon_resolve_latency_ms_count{mode=\"warm\"} 0",
            "daemon_resolve_latency_ms_sum{mode=\"warm\"} 0",
            "daemon_shadow_cold_latency_ms_count 0",
            "daemon_shadow_cold_latency_ms_sum 0",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}:\n{text}");
        }
        assert_eq!(
            text.matches("# TYPE daemon_resolve_latency_ms histogram")
                .count(),
            1
        );
    }

    /// A daemon before startup: its registry holds only what a test puts
    /// there.
    fn bare_daemon(opts: DaemonOptions) -> Daemon {
        let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        Daemon::new(state, opts)
    }

    fn report(warm: bool, iters: usize, cold_iters: Option<usize>) -> SolveReport {
        SolveReport {
            warm_started: warm,
            iterations: iters,
            constraint_releases: 0,
            kkt: true,
            objective: 1.0,
            objective_delta: None,
            lambda: 0.1,
            wall_ms: 2.0,
            active_monitors: 3,
            cold: cold_iters.map(|n| ColdComparison {
                iterations: n,
                wall_ms: 5.0,
                objective: 1.0,
            }),
            degraded: false,
            fallback: None,
        }
    }

    /// Publishes, then answers `stats` the way a reader would.
    fn published_stats(d: &mut Daemon) -> Json {
        d.publish_snapshot();
        let answer = d.read_handle().answer(&Request::Stats);
        answer.get("stats").unwrap().clone()
    }

    #[test]
    fn degraded_and_fallback_counters() {
        let mut d = bare_daemon(DaemonOptions::default());
        let mut r = report(true, 10, None);
        r.degraded = true;
        d.note_resolve("set_theta", &r);
        r.fallback = Some("last_good");
        d.note_resolve("set_theta", &r);
        let encoded = published_stats(&mut d).encode();
        assert!(encoded.contains("\"degraded_solves\":2"), "{encoded}");
        assert!(encoded.contains("\"last_good_fallbacks\":1"), "{encoded}");
        let health = d.read_handle().answer(&Request::Health);
        assert_eq!(health.get("degraded_solves").unwrap().as_u64(), Some(2));
        assert_eq!(health.get("last_good_fallbacks").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn counters_accumulate() {
        let mut d = bare_daemon(DaemonOptions::default());
        for cmd in ["ping", "set_theta", "set_theta", "invalid"] {
            count_request(&d.recorder, cmd);
        }
        d.count_error();
        d.note_resolve("hello", &report(false, 50, None));
        d.note_resolve("set_theta", &report(true, 10, Some(40)));
        d.note_resolve("set_theta", &report(true, 20, Some(60)));
        let stats = published_stats(&mut d);
        let count = |key| stats.get(key).unwrap().as_u64().unwrap();
        assert_eq!(count("requests"), 4);
        assert_eq!(count("errors"), 1);
        assert_eq!(count("resolves"), 3);
        assert_eq!(count("warm_resolves"), 2);
        assert_eq!(count("warm_iterations"), 30);
        assert_eq!(count("shadow_cold_iterations"), 100);
        let Some(Json::Obj(per_command)) = stats.get("per_command") else {
            panic!("per_command is an object: {}", stats.encode());
        };
        let per_command: Vec<(&str, u64)> = per_command
            .iter()
            .map(|(k, n)| (k.as_str(), n.as_u64().unwrap()))
            .collect();
        assert_eq!(
            per_command,
            vec![("ping", 1), ("set_theta", 2), ("invalid", 1)]
        );
        // Savings: cold mean 50, warm mean 15 -> 35 saved per re-solve.
        let saved = stats
            .get("mean_iterations_saved")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((saved - 35.0).abs() < 1e-9, "saved {saved}");
    }

    #[test]
    fn savings_compare_paired_populations_only() {
        // Regression: warm re-solves WITHOUT a shadow pair must not skew
        // the savings. Here two cheap unpaired warm solves (5 iterations
        // each) ride alongside one shadow pair (warm 10 vs cold 40).
        let mut d = bare_daemon(DaemonOptions::default());
        d.note_resolve("set_theta", &report(true, 5, None));
        d.note_resolve("set_theta", &report(true, 5, None));
        d.note_resolve("set_theta", &report(true, 10, Some(40)));
        let stats = published_stats(&mut d);
        let count = |key| stats.get(key).unwrap().as_u64().unwrap();
        assert_eq!(count("warm_resolves"), 3);
        assert_eq!(count("warm_iterations"), 20);
        assert_eq!(count("paired_warm_iterations"), 10);
        // The pair saved 30; the old mismatched-population formula said
        // 40 − 20/3 ≈ 33.3.
        let saved = stats
            .get("mean_iterations_saved")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((saved - 30.0).abs() < 1e-12, "saved {saved}");
    }

    #[test]
    fn counters_encode_exactly_past_2_pow_53() {
        let big = (1u64 << 53) + 1;
        let mut d = bare_daemon(DaemonOptions::default());
        d.recorder
            .counter_add_labeled(crate::read_path::REQUESTS, "cmd", "ping", big);
        let encoded = published_stats(&mut d).encode();
        assert!(
            encoded.contains(&format!("\"requests\":{big}")),
            "u64 counters must not round through f64: {encoded}"
        );
        let reparsed = parse(&encoded).unwrap();
        assert_eq!(reparsed.get("requests").unwrap().as_u64(), Some(big));
        let ping = reparsed.get("per_command").unwrap().get("ping").unwrap();
        assert_eq!(ping.as_u64(), Some(big));
    }

    #[test]
    fn savings_unavailable_without_shadow() {
        let mut d = bare_daemon(DaemonOptions::default());
        d.note_resolve("set_theta", &report(true, 10, None));
        assert!(published_stats(&mut d)
            .encode()
            .contains("\"mean_iterations_saved\":null"));
    }

    #[test]
    fn json_shape() {
        // The schema `stats` had as a struct: these keys in this order,
        // counts as exact integers.
        let mut d = bare_daemon(DaemonOptions::default());
        count_request(&d.recorder, "ping");
        d.note_resolve("set_theta", &report(true, 10, Some(40)));
        let stats = published_stats(&mut d);
        let Json::Obj(pairs) = &stats else {
            panic!("stats is an object: {}", stats.encode());
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "requests",
                "errors",
                "resolves",
                "warm_resolves",
                "warm_iterations",
                "paired_warm_iterations",
                "warm_ms",
                "shadow_resolves",
                "shadow_cold_iterations",
                "shadow_cold_ms",
                "mean_iterations_saved",
                "degraded_solves",
                "last_good_fallbacks",
                "per_command",
                "shed",
                "reads_lockfree",
            ]
        );
        for (key, value) in pairs {
            match (key.as_str(), value) {
                ("warm_ms" | "shadow_cold_ms" | "mean_iterations_saved", Json::Num(_)) => {}
                ("per_command", Json::Obj(members)) => {
                    assert!(members.iter().all(|(_, n)| matches!(n, Json::UInt(_))));
                }
                (_, Json::UInt(_)) => {}
                _ => panic!("{key} has the wrong type: {}", value.encode()),
            }
        }
        assert_eq!(stats.get("warm_ms").unwrap().as_f64(), Some(2.0));
        assert_eq!(stats.get("shadow_cold_ms").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            stats
                .get("per_command")
                .unwrap()
                .get("ping")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn event_log_is_kept_only_for_bench_out() {
        const N: usize = 3;
        let script: String = (0..N)
            .map(|i| {
                format!(
                    "{{\"cmd\":\"set_theta\",\"theta\":{}}}\n",
                    80_000 + 1_000 * i
                )
            })
            .collect();
        let mut d = bare_daemon(DaemonOptions::default());
        d.run(Cursor::new(script.clone()), &mut Vec::new()).unwrap();
        assert!(d.events.is_empty(), "no report asked for, no log kept");
        let dir = std::env::temp_dir().join("nws_service_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("event_log_{}.json", std::process::id()));
        let mut d = bare_daemon(DaemonOptions {
            bench_out: Some(path.to_string_lossy().into_owned()),
            ..DaemonOptions::default()
        });
        d.run(Cursor::new(script), &mut Vec::new()).unwrap();
        assert_eq!(d.events.len(), N + 1, "startup solve + N mutations");
        let report = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.get("events").unwrap().as_arr().unwrap().len(), N + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_reflect_traffic() {
        let script = "{\"cmd\":\"ping\"}\n{\"cmd\":\"set_theta\",\"theta\":70000}\n\
                      {\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n";
        let (lines, _) = run_script(script, DaemonOptions::default());
        let stats = lines[3].get("stats").unwrap();
        // ping + set_theta + stats itself, counted before the response.
        assert_eq!(stats.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(stats.get("resolves").unwrap().as_f64(), Some(2.0)); // hello + set_theta
        assert_eq!(stats.get("warm_resolves").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("degraded_solves").unwrap().as_u64(), Some(0));
        assert_eq!(stats.get("shed").unwrap().as_u64(), Some(0));
        assert_eq!(
            stats
                .get("per_command")
                .unwrap()
                .get("set_theta")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
