//! The serving workloads: an in-process `Daemon::serve` on a loopback TCP
//! port, driven by `nws-client` connections from this process.
//!
//! - geant_write: one connection sends a closed-loop stream of mutations
//!   to a durable daemon (state dir in the run's work directory, a
//!   snapshot every 1024 appends, coalescing off).
//! - backbone_mixed: an in-memory daemon; one connection reads in a closed
//!   loop while a second sends `update_demand` on a fixed 40/s schedule.
//!
//! Each timing thread samples a [`SpeedProbe`](crate::stats::SpeedProbe)
//! between its requests, and the end-to-end times are reported at the
//! probe's reference speed.
//!
//! The traced run adds two passes over the identical operation sequence:
//! (a) the TCP pass again with a client-side span per write, timed pings,
//! a sample of reads whose answers it keeps, and a scrape of the daemon's
//! own instruments, and (b) an in-process pass that times each public
//! call of the daemon's write chain (`parse_incoming`,
//! `ServiceState::clone`, `apply_event`, `StateStore::record_applied`,
//! `active_rates` + monitors JSON + `SnapshotCell::publish`, and
//! `Json::encode` of the ack pass (a) received) and of the read path
//! (`parse_incoming`, `SnapshotCell::load`, `Json::encode` of an answer
//! pass (a) received).

use crate::instance::{
    backbone_task, base_state, demand_ops, geant_task, geant_write_ops, tick_requests, ReadMix,
};
use crate::layers;
use crate::report::Report;
use crate::spans::{self, SpanId, Tracer};
use crate::stats::{self, Samples, SpeedProbe, Timings};
use crate::Workdir;
use nws_client::{Client, ClientConfig, ClientStats};
use nws_core::MeasurementTask;
use nws_obs::{Recorder, Snapshot};
use nws_scenario::{flappable_fibres, Trace};
use nws_service::json::{self, obj, Json};
use nws_service::{
    parse_incoming, Daemon, DaemonOptions, DaemonSummary, FsyncPolicy, NetOptions, PersistConfig,
    ReadSnapshot, Request, Server, ServiceError, ServiceState, SnapshotCell, StateStore,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// geant_write mutations per second of `--seconds` (a write takes about
/// a millisecond on a 2-vCPU host, so the timed phase lasts a little less
/// than `--seconds`).
const GEANT_WRITES_PER_SECOND: usize = 750;
/// backbone_mixed writer rate (requests per second, fixed schedule).
const MIXED_WRITE_HZ: u64 = 40;
/// Read-latency buffer size per second of `--seconds` (well above the
/// read rate of a 2-vCPU host, so no sample is dropped).
const READ_CAPACITY_PER_SECOND: usize = 40_000;
/// Closed-loop writes between two samples of the speed probe (about 25 ms
/// of writes; a sample takes 0.2–0.4 ms).
const WRITE_PROBE_EVERY: usize = 32;
/// Closed-loop reads between two samples of the speed probe (about 20 ms
/// of reads).
const READ_PROBE_EVERY: usize = 256;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Snapshot cadence of the durable daemon, in appends. Every snapshot is
/// synced to disk whatever the fsync policy (temp file, rename, directory
/// sync), and the state directory lies on the checkout's disk, so at the
/// `--snapshot-every` default of 32 the VM disk's flush latency would set
/// the write tail and a tenth of the throughput. At 1024 the timed phase
/// still takes a snapshot every second or so; `store.snapshot_ms` in the
/// traced run measures their cost.
const SNAPSHOT_EVERY: usize = 1024;
/// `StateStore::write_snapshot` calls timed at the end of the in-process
/// pass for `store.snapshot_ms`.
const SNAPSHOT_PROBES: usize = 5;
/// Pings timed for `net.ping_rtt_us`.
const PINGS: usize = 2_000;
/// Reads of the workload's read mix sent after the traced TCP pass; their
/// answers feed the read side of pass (b) and the `json.*` metrics.
const READ_SAMPLE: usize = 2_000;

/// How one serving pass is set up and loaded.
pub struct Plan {
    /// Workload name, for labels and file names.
    pub name: &'static str,
    /// Builds the instance; called inside each timed set-up.
    pub task: fn() -> MeasurementTask,
    /// Whether the daemon journals to a state directory.
    pub durable: bool,
    /// Mutation request lines, each with a `request_id` (so the TCP and
    /// in-process passes journal identical bytes), sent in order on one
    /// connection.
    pub lines: Vec<String>,
    /// `None`: closed loop. `Some(p)`: request `i` is due at `start + i·p`
    /// and its latency runs from that due time.
    pub write_period: Option<Duration>,
    /// Read-latency buffer size; 0 means no reader connection.
    pub read_capacity: usize,
    /// Seed of the read mix.
    pub seed: u64,
}

/// `reqs` as request lines, each carrying the `request_id` `{tag}-{i}`.
fn request_lines(reqs: impl IntoIterator<Item = Request>, tag: &str) -> Vec<String> {
    reqs.into_iter()
        .enumerate()
        .map(|(i, req)| {
            let mut doc = req.to_json();
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("request_id".into(), Json::Str(format!("{tag}-{i}"))));
            }
            doc.encode()
        })
        .collect()
}

impl Plan {
    /// geant_write: `750 × seconds` closed-loop mutations to a durable
    /// daemon on GEANT.
    pub fn geant_write(seed: u64, seconds: u64) -> Plan {
        let base = base_state(&geant_task());
        let flappable = flappable_fibres(&base);
        let ops = geant_write_ops(
            &base,
            &flappable,
            GEANT_WRITES_PER_SECOND * seconds as usize,
            seed,
        );
        Plan {
            name: "geant_write",
            task: geant_task,
            durable: true,
            lines: request_lines(ops, &format!("s{seed}")),
            write_period: None,
            read_capacity: 0,
            seed,
        }
    }

    /// backbone_mixed: `40 × seconds` scheduled `update_demand`s beside a
    /// closed-loop reader, in-memory daemon on the backbone.
    pub fn backbone_mixed(seed: u64, seconds: u64) -> Plan {
        let base = base_state(&backbone_task());
        let ops = demand_ops(&base, (MIXED_WRITE_HZ * seconds) as usize, seed);
        Plan {
            name: "backbone_mixed",
            task: backbone_task,
            durable: false,
            lines: request_lines(ops, &format!("s{seed}")),
            write_period: Some(Duration::from_nanos(1_000_000_000 / MIXED_WRITE_HZ)),
            read_capacity: READ_CAPACITY_PER_SECOND * seconds as usize,
            seed,
        }
    }

    /// The serving layers' probe on backbone_replay: the first `ticks`
    /// ticks of `trace` (demand batch, then link events) as closed-loop
    /// mutations to an in-memory daemon on the backbone. Replay itself
    /// bypasses these layers; the probe measures what they would cost on
    /// its inputs.
    pub fn replay_probe(trace: &Trace, ticks: usize, seed: u64) -> Plan {
        let reqs = trace.ticks.iter().take(ticks).flat_map(tick_requests);
        Plan {
            name: "backbone_replay",
            task: backbone_task,
            durable: false,
            lines: request_lines(reqs, &format!("t{seed}")),
            write_period: None,
            read_capacity: 0,
            seed,
        }
    }
}

/// A store's settings: a snapshot every [`SNAPSHOT_EVERY`] appends and
/// the given fsync policy.
///
/// The timed TCP passes journal with [`FsyncPolicy::Never`]. The state
/// directory has to lie inside the run's own directory, which is usually
/// disk-backed; skipping the per-append flush keeps the VM disk's flush
/// latency, which varies with other tenants' I/O, out of every timed
/// write, as a tmpfs state directory would. Every append still makes its
/// write syscall. The traced in-process pass journals with the daemon's
/// default, [`FsyncPolicy::Always`], so `store.append_us` and
/// `store.fsyncs_per_op` measure the durable path as shipped.
fn persist_config(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> PersistConfig {
    let mut cfg = PersistConfig::new(dir);
    cfg.fsync = fsync;
    cfg.snapshot_every = SNAPSHOT_EVERY as u64;
    cfg
}

/// A booted daemon and its serving thread.
struct Booted {
    thread: JoinHandle<Result<DaemonSummary, ServiceError>>,
    addr: String,
}

fn client_for(addr: &str, id: &str) -> Client {
    let mut cfg = ClientConfig::new(addr);
    cfg.client_id = id.into();
    // Generous deadline: a slow solve must show as latency, not as a
    // retry.
    cfg.request_timeout_ms = 60_000;
    Client::new(cfg)
}

/// The timed set-up: instance build, `from_task`, daemon boot (state-dir
/// open, startup cold solve, listener bind) and the first client's hello
/// (plus one `ping`, which is what makes the client connect).
fn boot(plan: &Plan, state_dir: Option<PathBuf>) -> (f64, Booted, Client) {
    let t0 = Instant::now();
    let state = base_state(&(plan.task)());
    let opts = DaemonOptions {
        persist: state_dir.map(|dir| persist_config(dir, FsyncPolicy::Never)),
        coalesce_ms: 0,
        ..DaemonOptions::default()
    };
    let mut daemon = Daemon::new(state, opts);
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".into()),
        ..NetOptions::default()
    })
    .expect("bind a loopback port");
    let addr = server.tcp_addr().expect("tcp address").to_string();
    let thread = std::thread::spawn(move || daemon.serve(server));
    let mut client = client_for(&addr, "w");
    let pong = client.request(&Request::Ping).expect("first ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    (t0.elapsed().as_secs_f64(), Booted { thread, addr }, client)
}

fn shut_down(booted: Booted, mut client: Client) {
    let _ = client.shutdown();
    drop(client);
    let summary = booted
        .thread
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    assert!(summary.clean_shutdown, "daemon saw the shutdown request");
}

/// Boots `SETUP_REPS` daemons one after another, timing each; keeps the
/// last one. A boot is mostly single-threaded compute (instance build,
/// `from_task`, the daemon's startup solve), and is scaled to reference
/// speed like a replay set-up, by the mean of a probe sample just before
/// and one just after it.
fn timed_boots(plan: &Plan, work: &Workdir, tag: &str) -> (Vec<(f64, f64)>, Booted, Client) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut probe = SpeedProbe::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        if let Some((b, c)) = last.take() {
            shut_down(b, c);
        }
        let dir = plan
            .durable
            .then(|| work.path(&format!("state-{}-{tag}-{i}", plan.name)));
        let before = probe.sample();
        let (s, booted, client) = boot(plan, dir);
        times.push((s, s * 0.5 * (before + probe.sample())));
        last = Some((booted, client));
    }
    let (booted, client) = last.expect("at least one boot");
    (times, booted, client)
}

/// Whether an acknowledgement counts as a failed operation: an error ack,
/// or a re-solve that is not KKT-certified or ran degraded.
fn ack_failed(resp: &Json) -> bool {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return true;
    }
    match resp.get("resolve") {
        Some(r) => {
            r.get("kkt").and_then(Json::as_bool) != Some(true)
                || r.get("degraded").and_then(Json::as_bool) != Some(false)
        }
        None => false,
    }
}

/// What one TCP pass measured.
pub struct TcpPass {
    /// Set-up times of the daemon boots in seconds: as measured, and at
    /// reference speed.
    pub setups: Vec<(f64, f64)>,
    /// Write latency from the due time (the send time in a closed loop)
    /// to the ack, and the writer's wall time.
    pub write_ms: Timings,
    /// Write latency from the send to the ack, as measured.
    pub write_send_ms: Samples,
    /// Read latency, send to answer, and the reader's wall time.
    pub read_ms: Timings,
    /// Timed-phase wall time, seconds.
    pub wall_s: f64,
    /// Writes sent in the timed phase.
    pub writes: u64,
    /// Reads sent in the timed phase.
    pub reads: u64,
    /// Failed operations (error acks, uncertified or degraded solves,
    /// transport failures).
    pub failed: u64,
    /// How late the fixed-rate writer sent, at worst, milliseconds.
    pub max_lag_ms: f64,
    /// Client transport counters, writer and reader summed.
    pub client: ClientStats,
    /// Final `query_rates` monitors.
    pub monitors: Json,
    /// Objective of the final `query_rates`.
    pub objective: f64,
    /// The daemon's `metrics` payload after the pass.
    pub metrics: Json,
    /// Read-only requests the daemon should have answered lock-free: the
    /// boot `ping`, the reader's first `ping`, the timed reads, the traced
    /// pings and read sample, and the final `query_rates` and `metrics`
    /// (which counts itself before it snapshots the counters).
    pub reads_expected: u64,
    /// Round-trip times of `ping`, microseconds (traced pass only).
    pub ping_us: Vec<f64>,
    /// Every write's ack as received, re-encoded (traced pass only).
    pub acks: Vec<String>,
    /// The traced read sample: each read's position in the read mix's
    /// request lines and its answer as received.
    pub read_answers: Vec<(usize, Json)>,
    /// CPU time of the timed phase, milliseconds.
    pub cpu_ms: f64,
    /// Client-side spans of the traced pass.
    pub tracer: Option<Tracer>,
}

fn add_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        connects: a.connects + b.connects,
        reconnects: a.reconnects + b.reconnects,
        retries: a.retries + b.retries,
        torn_lines: a.torn_lines + b.torn_lines,
        overload_sheds: a.overload_sheds + b.overload_sheds,
        duplicate_acks: a.duplicate_acks + b.duplicate_acks,
        requests_sent: a.requests_sent + b.requests_sent,
    }
}

/// What the writer connection measured.
struct WriteOutcome {
    due: Timings,
    send: Samples,
    failed: u64,
    max_lag_ms: f64,
    acks: Vec<String>,
}

/// The writer: sends `lines` in order, each after the previous ack; with
/// `period`, request `i` waits for its due time `start + i·period`. The
/// closed-loop writer samples the speed probe every [`WRITE_PROBE_EVERY`]
/// writes; the fixed-rate writer samples it while it waits for a request
/// that is due in a millisecond or more. With a tracer, each write is a
/// span and its ack is kept.
fn write_loop(
    client: &mut Client,
    lines: &[String],
    period: Option<Duration>,
    mut tracer: Option<&mut Tracer>,
) -> WriteOutcome {
    let mut out = WriteOutcome {
        due: match period {
            Some(_) => Timings::new(lines.len(), 1),
            None => Timings::new(lines.len(), WRITE_PROBE_EVERY).windowed(),
        },
        send: Samples::with_capacity(lines.len()),
        failed: 0,
        max_lag_ms: 0.0,
        acks: Vec::new(),
    };
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let due = period.map(|p| start + p * i as u32);
        match due {
            Some(due) => {
                if due > Instant::now() + Duration::from_millis(1) {
                    out.due.before_op();
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            None => out.due.before_op(),
        }
        let t0 = Instant::now();
        if let Some(due) = due {
            let lag = t0.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.max_lag_ms = out.max_lag_ms.max(lag);
        }
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("client_write", None, i as u32));
        let resp = client.request_raw(line);
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        let t1 = Instant::now();
        out.send.push(t1 - t0);
        out.due.push(t1 - due.unwrap_or(t0));
        match &resp {
            Ok(r) if !ack_failed(r) => {}
            _ => out.failed += 1,
        }
        if tracer.is_some() {
            out.acks.push(resp.map_or(String::new(), |r| r.encode()));
        }
    }
    out.due.finish();
    out
}

/// The read mix's request lines; [`ReadMix::next_request`] picks one.
fn read_lines() -> [String; 3] {
    [
        Request::QueryRates.to_json().encode(),
        Request::Health.to_json().encode(),
        Request::Stats.to_json().encode(),
    ]
}

/// Position of `req` in [`read_lines`].
fn read_index(req: &Request) -> usize {
    match req {
        Request::QueryRates => 0,
        Request::Health => 1,
        _ => 2,
    }
}

/// The reader: sends the seeded read mix in a closed loop until `done`,
/// sampling the speed probe every [`READ_PROBE_EVERY`] reads. Returns the
/// reads sent and the failed ones.
fn read_loop(
    client: &mut Client,
    seed: u64,
    done: &AtomicBool,
    read_ms: &mut Timings,
) -> (u64, u64) {
    let mut mix = ReadMix::new(seed);
    let lines = read_lines();
    let (mut reads, mut failed) = (0u64, 0u64);
    while !done.load(Ordering::Acquire) {
        let line = &lines[read_index(&mix.next_request())];
        read_ms.before_op();
        let t0 = Instant::now();
        let resp = client.request_raw(line);
        read_ms.push(t0.elapsed());
        reads += 1;
        match resp {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {}
            _ => failed += 1,
        }
    }
    read_ms.finish();
    (reads, failed)
}

/// One TCP pass of `plan`: timed boots, the timed phase, then (traced)
/// pings and the read sample, the final `query_rates` and the `metrics`
/// scrape.
pub fn tcp_pass(plan: &Plan, work: &Workdir, tag: &str, traced: bool) -> TcpPass {
    let (setups, booted, mut writer) = timed_boots(plan, work, tag);
    let mut tracer = traced.then(|| Tracer::with_capacity(plan.lines.len() + 16));
    let mut read_ms = Timings::new(plan.read_capacity, READ_PROBE_EVERY).windowed();
    let mut reader = client_for(&booted.addr, "r");
    let mut untimed_reads = 0u64;
    if plan.read_capacity > 0 {
        // Connect the reader before the timed phase.
        reader.request(&Request::Ping).expect("reader ping");
        untimed_reads += 1;
    }
    let (mut reads, mut read_failed) = (0u64, 0u64);
    let cpu0 = stats::cpu_ms().unwrap_or(0.0);
    let start = Instant::now();
    let written = if plan.read_capacity == 0 {
        write_loop(&mut writer, &plan.lines, plan.write_period, tracer.as_mut())
    } else {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let w = scope.spawn(|| {
                let out = write_loop(&mut writer, &plan.lines, plan.write_period, tracer.as_mut());
                done.store(true, Ordering::Release);
                out
            });
            (reads, read_failed) = read_loop(&mut reader, plan.seed, &done, &mut read_ms);
            w.join().expect("writer thread")
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = stats::cpu_ms().unwrap_or(0.0) - cpu0;

    let (mut ping_us, mut read_answers) = (Vec::new(), Vec::new());
    if traced {
        ping_us = (0..PINGS)
            .map(|_| {
                let t0 = Instant::now();
                let _ = reader.request(&Request::Ping);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let mut mix = ReadMix::new(plan.seed);
        let lines = read_lines();
        read_answers = (0..READ_SAMPLE)
            .map(|_| {
                let k = read_index(&mix.next_request());
                let answer = reader.request_raw(&lines[k]).expect("sampled read");
                (k, answer)
            })
            .collect();
    }
    let query = reader
        .request(&Request::QueryRates)
        .expect("final query_rates");
    let monitors = query.get("monitors").cloned().unwrap_or(Json::Null);
    let objective = query
        .get("objective")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let metrics = reader
        .request(&Request::Metrics)
        .expect("metrics scrape")
        .get("metrics")
        .cloned()
        .unwrap_or(Json::Null);
    let client = add_stats(writer.stats(), reader.stats());
    let reads_expected =
        1 + untimed_reads + reads + ping_us.len() as u64 + read_answers.len() as u64 + 2;
    drop(reader);
    shut_down(booted, writer);
    TcpPass {
        setups,
        write_ms: written.due,
        write_send_ms: written.send,
        read_ms,
        wall_s,
        writes: plan.lines.len() as u64,
        reads,
        failed: written.failed + read_failed,
        max_lag_ms: written.max_lag_ms,
        client,
        monitors,
        objective,
        metrics,
        reads_expected,
        ping_us,
        acks: written.acks,
        read_answers,
        cpu_ms,
        tracer,
    }
}

/// A counter from a `metrics` payload.
pub fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `(count, sum)` over the `daemon_command_latency_ms{cmd=…}` histograms
/// of the mutations the workloads send.
fn handle_latency(metrics: &Json) -> (u64, f64) {
    let mut out = (0u64, 0.0f64);
    for h in metrics
        .get("histograms")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let name = h.get("name").and_then(Json::as_str).unwrap_or("");
        let mutation = [
            "update_demand",
            "update_demands",
            "fail_link",
            "restore_link",
            "set_theta",
        ]
        .iter()
        .any(|cmd| name == format!("daemon_command_latency_ms{{cmd=\"{cmd}\"}}"));
        if mutation {
            out.0 += h.get("count").and_then(Json::as_u64).unwrap_or(0);
            out.1 += h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    out
}

/// `active_rates` as a monitors array of `{"link", "rate"}` objects, the
/// shape of the `monitors` field of a `query_rates` answer. Pass (b) builds
/// it where the daemon's publish does; the output checks compare rates,
/// not this encoding.
fn monitors_json(state: &ServiceState) -> Json {
    let rates = state.active_rates().unwrap_or_default();
    Json::Arr(
        rates
            .into_iter()
            .map(|(label, p)| obj(vec![("link", Json::Str(label)), ("rate", Json::Num(p))]))
            .collect(),
    )
}

/// A read snapshot carrying `state`'s committed plan. Pass (b) publishes
/// one per write and loads it per read; the counter payloads the daemon
/// adds (`stats`, WAL stats) are left empty, since pass (b) encodes the
/// answers pass (a) received instead of building its own.
fn read_snapshot(state: &ServiceState, epoch: u64, monitors: Json) -> ReadSnapshot {
    ReadSnapshot {
        epoch,
        theta: state.theta(),
        objective: state.installed().map(|i| i.objective),
        monitors,
        ods: state.ods().len(),
        persistence: "none",
        persistence_degraded: false,
        persistence_error: None,
        serving_uncertified: state.installed().is_some_and(|i| !i.kkt),
        degraded_solves: 0,
        last_good_fallbacks: 0,
        stats: Json::Null,
        wal_stats: Json::Null,
        queue_capacity: 0,
    }
}

/// Whether a `monitors` array received over TCP carries exactly the
/// links and rates of `state.active_rates()`, in order and bit for bit.
pub fn monitors_match(monitors: &Json, state: &ServiceState) -> bool {
    let rates = state.active_rates().unwrap_or_default();
    let received = monitors.as_arr().unwrap_or(&[]);
    received.len() == rates.len()
        && received.iter().zip(&rates).all(|(m, (label, p))| {
            m.get("link").and_then(Json::as_str) == Some(label.as_str())
                && m.get("rate").and_then(Json::as_f64).map(f64::to_bits) == Some(p.to_bits())
        })
}

/// What the in-process pass produced.
pub struct InProcPass {
    /// The state after the last mutation.
    pub state: ServiceState,
    /// Recorder counters and spans of the pass.
    pub snapshot: Snapshot,
    /// Solver totals from the solve reports.
    pub solver: layers::SolverTotals,
    /// Spans of the pass, when traced.
    pub tracer: Option<Tracer>,
}

/// Runs `f` inside a span when tracing.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    op: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_mut() {
        Some(t) => t.time(name, parent, op, f),
        None => f(),
    }
}

/// Replays the mutation sequence of `plan` in-process through the
/// daemon's write chain; with a tracer, each call is a span under one
/// `op` span per mutation. Without `tcp` and store this is the plain
/// `apply_event` replay the output checks compare against.
///
/// With `store_dir`, every mutation is journaled through
/// `StateStore::record_applied` with `fsync` always: inside the `op` span
/// for a durable plan, as a separate root span (off the plan's path)
/// otherwise. With `tcp` (pass (a) of the same plan), each `op` ends with
/// `Json::encode` of the ack pass (a) received for it, and the read sample
/// of pass (a) is replayed after the mutations, one `read` span each:
/// `parse_incoming` of the request, `SnapshotCell::load`, and
/// `Json::encode` of the answer received. With a store,
/// [`SNAPSHOT_PROBES`] timed `write_snapshot` calls end the pass.
pub fn inproc_pass(
    plan: &Plan,
    store_dir: Option<&Path>,
    tcp: Option<&TcpPass>,
    mut tracer: Option<Tracer>,
) -> InProcPass {
    let rec = Recorder::enabled();
    let mut state = base_state(&(plan.task)());
    state.set_recorder(rec.clone());
    let mut store = store_dir.map(|dir| {
        StateStore::open(&persist_config(dir, FsyncPolicy::Always), &mut state, &rec)
            .unwrap_or_else(|e| panic!("open the in-process store: {e}"))
            .0
    });
    state.resolve(false).expect("startup solve");
    let cell = SnapshotCell::new(read_snapshot(&state, 1, monitors_json(&state)));
    let mut solver = layers::SolverTotals::default();
    for (i, line) in plan.lines.iter().enumerate() {
        let op = i as u32;
        let ack = tcp
            .and_then(|a| a.acks.get(i))
            .map(|text| json::parse(text).expect("a received ack re-parses"));
        let root = tracer.as_mut().map(|t| t.open("op", None, op));
        let inc = timed(&mut tracer, "parse", root, op, || {
            parse_incoming(line).expect("generated lines parse")
        });
        let backup = timed(&mut tracer, "clone", root, op, || state.clone());
        let report = timed(&mut tracer, "apply_event", root, op, || {
            state.apply_event(&inc.req, false)
        })
        .unwrap_or_else(|e| panic!("mutation {i} failed in-process: {e}"));
        let mut journal = |tracer: &mut Option<Tracer>, parent: Option<SpanId>| {
            if let Some(store) = store.as_mut() {
                let name = if (i + 1) % SNAPSHOT_EVERY == 0 {
                    "record_applied+snapshot"
                } else {
                    "record_applied"
                };
                let ids: Vec<&str> = inc.request_id.as_deref().into_iter().collect();
                timed(tracer, name, parent, op, || {
                    store.record_applied(&inc.req, &state, &ids)
                })
                .expect("journal append");
            }
        };
        if plan.durable {
            journal(&mut tracer, root);
        }
        timed(&mut tracer, "publish", root, op, || {
            let monitors = monitors_json(&state);
            cell.publish(read_snapshot(&state, i as u64 + 2, monitors));
        });
        if let Some(ack) = &ack {
            timed(&mut tracer, "encode", root, op, || ack.encode());
        }
        if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
            t.close(r);
        }
        if !plan.durable {
            journal(&mut tracer, None);
        }
        drop(backup);
        solver.add(&report);
    }
    let lines = read_lines();
    let answers = tcp.map_or(&[][..], |a| &a.read_answers[..]);
    for (j, (k, answer)) in answers.iter().enumerate() {
        let op = (plan.lines.len() + j) as u32;
        let root = tracer.as_mut().map(|t| t.open("read", None, op));
        timed(&mut tracer, "parse_read", root, op, || {
            parse_incoming(&lines[*k]).expect("read lines parse")
        });
        timed(&mut tracer, "load", root, op, || cell.load());
        timed(&mut tracer, "encode_read", root, op, || answer.encode());
        if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
            t.close(r);
        }
    }
    if let Some(store) = store.as_mut() {
        let op = (plan.lines.len() + answers.len()) as u32;
        for _ in 0..SNAPSHOT_PROBES {
            timed(&mut tracer, "write_snapshot", None, op, || {
                store.write_snapshot(&state)
            })
            .expect("snapshot");
        }
    }
    InProcPass {
        state,
        snapshot: rec.snapshot(),
        solver,
        tracer,
    }
}

/// Output checks of one TCP pass against the in-process replay.
fn check_pass(report: &mut Report, label: &str, plan: &Plan, pass: &TcpPass, inproc: &InProcPass) {
    let objective = inproc.state.installed().map_or(f64::NAN, |i| i.objective);
    let links = pass.monitors.as_arr().map_or(0, <[Json]>::len);
    report.check(
        &format!("{label}: monitors == in-process replay"),
        monitors_match(&pass.monitors, &inproc.state) && pass.objective == objective,
        format!(
            "{links} monitors, objective {:.12e} vs {:.12e}",
            pass.objective, objective
        ),
    );
    report.check(
        &format!("{label}: latency buffers kept every sample"),
        pass.read_ms.raw.dropped() == 0,
        format!("{} read samples dropped", pass.read_ms.raw.dropped()),
    );
    if plan.read_capacity > 0 {
        let lockfree = counter(&pass.metrics, "daemon_reads_served_lockfree_total");
        report.check(
            &format!("{label}: lock-free reads == reads sent"),
            lockfree == pass.reads_expected,
            format!("{lockfree} vs {}", pass.reads_expected),
        );
        let jobs = counter(&pass.metrics, "daemon_jobs_enqueued_total");
        report.check(
            &format!("{label}: jobs enqueued == writes sent"),
            jobs == pass.writes,
            format!("{jobs} vs {}", pass.writes),
        );
    }
}

/// The failed operations of a TCP pass: error acks, uncertified or
/// degraded solves and transport failures, plus every client retry,
/// reconnect and shed.
fn failures(pass: &TcpPass) -> u64 {
    pass.failed + pass.client.retries + pass.client.reconnects + pass.client.overload_sheds
}

/// The traced passes of `plan`: pass (a) over TCP, then pass (b)
/// in-process over the same operations, journaling to a store of its own
/// and replaying pass (a)'s acks and read sample.
pub fn traced_passes(plan: &Plan, work: &Workdir) -> (TcpPass, InProcPass) {
    let a = tcp_pass(plan, work, "traced", true);
    let store = work.path(&format!("state-{}-inproc", plan.name));
    let tracer = Tracer::with_capacity(plan.lines.len() * 8 + a.read_answers.len() * 4 + 16);
    let b = inproc_pass(plan, Some(&store), Some(&a), Some(tracer));
    (a, b)
}

/// Mean duration in milliseconds and count over the spans of `names`.
fn pooled_ms(totals: &[spans::SpanTotals], names: &[&str]) -> (f64, u64) {
    let (n, ms) = names
        .iter()
        .filter_map(|n| spans::find(totals, n))
        .fold((0u64, 0.0f64), |(n, ms), t| (n + t.count, ms + t.total_ms));
    (ms / n.max(1) as f64, n)
}

/// The per-layer metrics of the serving path, from the traced passes (a)
/// and (b) of `plan`: `state.clone_ms`, `store.*`, `daemon.*`,
/// `read_path.answer_us`, `protocol.parse_us`, `json.*`,
/// `net.ping_rtt_us` and `client.*`.
pub fn serving_layers(
    report: &mut Report,
    plan: &Plan,
    a: &TcpPass,
    b: &InProcPass,
    retries: u64,
    reconnects: u64,
) {
    let totals = b.tracer.as_ref().map(Tracer::totals).unwrap_or_default();
    let writes = a.writes;
    let per_write = |x: u64| x as f64 / writes.max(1) as f64;
    let mean = |name: &str| spans::mean_ms(&totals, name).unwrap_or(f64::NAN);
    let count = |name: &str| spans::find(&totals, name).map(|t| t.count);
    report.metric("state.clone_ms", mean("clone"), "ms", count("clone"));
    report.metric(
        "store.append_us",
        mean("record_applied") * 1e3,
        "us",
        count("record_applied"),
    );
    report.metric(
        "store.snapshot_ms",
        mean("write_snapshot"),
        "ms",
        count("write_snapshot"),
    );
    let counter_b = |name: &str| b.snapshot.counter(name).unwrap_or(0);
    report.metric(
        "store.bytes_per_op",
        per_write(counter_b("wal_bytes")),
        "bytes",
        Some(writes),
    );
    report.metric(
        "store.fsyncs_per_op",
        per_write(counter_b("wal_fsyncs")),
        "ratio",
        Some(writes),
    );
    let (handled, handle_sum) = handle_latency(&a.metrics);
    report.metric(
        "daemon.handle_ms",
        handle_sum / handled.max(1) as f64,
        "ms",
        Some(handled),
    );
    report.metric(
        "daemon.publish_us",
        mean("publish") * 1e3,
        "us",
        count("publish"),
    );
    report.metric(
        "daemon.unattributed_ms",
        a.write_send_ms.mean_ms() - mean("op"),
        "ms",
        Some(writes),
    );
    report.metric(
        "daemon.jobs_per_write",
        per_write(counter(&a.metrics, "daemon_jobs_enqueued_total")),
        "ratio",
        Some(writes),
    );
    report.metric(
        "daemon.lockfree_ratio",
        counter(&a.metrics, "daemon_reads_served_lockfree_total") as f64
            / a.reads_expected.max(1) as f64,
        "ratio",
        Some(a.reads_expected),
    );
    let (answer_ms, answers) = pooled_ms(&totals, &["load"]);
    report.metric(
        "read_path.answer_us",
        (answer_ms + mean("encode_read")) * 1e3,
        "us",
        Some(answers),
    );
    let (parse_ms, parses) = pooled_ms(&totals, &["parse", "parse_read"]);
    report.metric("protocol.parse_us", parse_ms * 1e3, "us", Some(parses));
    let (encode_ms, encodes) = pooled_ms(&totals, &["encode", "encode_read"]);
    report.metric("json.encode_us", encode_ms * 1e3, "us", Some(encodes));
    // The responses to the workload's closed-loop operation, as received.
    let sizes: Vec<usize> = if plan.read_capacity > 0 {
        a.read_answers
            .iter()
            .map(|(_, r)| r.encode().len())
            .collect()
    } else {
        a.acks.iter().map(String::len).collect()
    };
    report.metric(
        "json.response_bytes",
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
        "bytes",
        Some(sizes.len() as u64),
    );
    let ping_us = stats::median(&a.ping_us);
    report.metric(
        "net.ping_rtt_us",
        ping_us,
        "us",
        Some(a.ping_us.len() as u64),
    );
    if let Some((read_p50, _)) = a.read_ms.raw.percentile_ms(0.5) {
        report.notes.push(format!(
            "read p50 over TCP minus ping rtt (daemon-side read cost): {:.1} us",
            read_p50 * 1e3 - ping_us
        ));
    }
    report.metric("client.retries", retries as f64, "count", None);
    report.metric("client.reconnects", reconnects as f64, "count", None);
    report.notes.extend(spans::table("in-process", &totals));
    if let Some(t) = &a.tracer {
        report.notes.extend(spans::table("tcp", &t.totals()));
    }
}

/// Runs a serving workload; with `traced`, also passes (a) and (b) and the
/// per-layer metrics.
pub fn run(plan: &Plan, seconds: u64, traced: bool, work: &Workdir, report: &mut Report) {
    let calib = stats::calibrate_ms();
    let task = (plan.task)();
    report.context("nproc", stats::nproc());
    report.context("seed", plan.seed);
    report.context("seconds", seconds);
    report.context(
        "instance",
        format!(
            "{}: {} links, {} ODs, objective nnz {}",
            plan.name,
            task.topology().num_links(),
            task.ods().len(),
            layers::objective_nnz(&task)
        ),
    );
    report.context("machine.calib_ms", format!("{calib:.3}"));

    let pass = tcp_pass(plan, work, "untraced", false);
    report.attempted = pass.writes + pass.reads;
    report.failed = failures(&pass);
    report.context(
        "operations",
        format!(
            "{} writes, {} reads in {:.3} s",
            pass.writes, pass.reads, pass.wall_s
        ),
    );
    if plan.write_period.is_some() {
        report.context("writer max lag ms", format!("{:.3}", pass.max_lag_ms));
    }
    let check = inproc_pass(plan, None, None, None);
    check_pass(report, "untraced", plan, &pass, &check);
    let (installed, cold) = layers::shadow_cold(&check.state);
    report.check(
        "installed vs shadow cold solve",
        layers::rel_diff(installed, cold) <= 1e-9,
        format!(
            "installed {installed:.12e} cold {cold:.12e} rel {:.2e}",
            layers::rel_diff(installed, cold)
        ),
    );

    let (op, ops, writes) = if plan.read_capacity > 0 {
        ("read", &pass.read_ms, Some(&pass.write_ms))
    } else {
        ("write", &pass.write_ms, None)
    };
    if !traced {
        report.end_to_end(&pass.setups, op, ops, writes);
        return;
    }

    let (a, b) = traced_passes(plan, work);
    check_pass(report, "traced", plan, &a, &b);
    let m = &a.metrics;
    let b_counter = |name: &str| b.snapshot.counter(name).unwrap_or(0);
    for name in [
        "solver_iterations_total",
        "eval_fused_calls_total",
        "state_epoch_rebuilds_total",
    ] {
        let (u, ta, tb) = (
            counter(&pass.metrics, name),
            counter(m, name),
            b_counter(name),
        );
        report.check(
            &format!("{name}: untraced == tcp == in-process"),
            u == ta && ta == tb,
            format!("{u} / {ta} / {tb}"),
        );
    }
    if plan.durable {
        let (u, ta, tb) = (
            counter(&pass.metrics, "wal_bytes"),
            counter(m, "wal_bytes"),
            b_counter("wal_bytes"),
        );
        report.check(
            "wal_bytes: untraced == tcp == in-process",
            u == ta && ta == tb,
            format!("{u} / {ta} / {tb}"),
        );
    }

    let writes = pass.writes;
    layers::solver_metrics(report, &b.snapshot, writes, &b.solver);
    layers::core_metrics(report, &b.snapshot, &task);
    layers::state_metrics(report, &b.snapshot, &b.state, &task, writes);
    let probe_req = parse_incoming(&plan.lines[0])
        .expect("generated lines parse")
        .req;
    layers::state_probes(report, &b.state, &probe_req);
    serving_layers(
        report,
        plan,
        &a,
        &b,
        pass.client.retries + a.client.retries,
        pass.client.reconnects + a.client.reconnects,
    );
    layers::obs_metrics(report, &b.snapshot);
    layers::scenario_probe(report, &b.state, plan.seed);
    let ops_n = pass.writes + pass.reads;
    report.metric(
        "process.cpu_ms_per_op",
        pass.cpu_ms / ops_n as f64,
        "ms",
        Some(ops_n),
    );
    report.metric("machine.calib_ms", calib, "ms", Some(5));
    let btracer = b.tracer.as_ref().expect("traced in-process pass");
    let dropped = btracer.dropped() + a.tracer.as_ref().map_or(0, Tracer::dropped);
    report.check(
        "span buffers kept every span",
        dropped == 0,
        format!("{dropped} spans dropped"),
    );
    let totals = btracer.totals();
    let root = spans::find(&totals, "op").expect("op spans");
    report.metric(
        "trace.root_self_us",
        root.self_ms / root.count as f64 * 1e3,
        "us",
        Some(root.count),
    );
    let traced_ops = if plan.read_capacity > 0 {
        &a.read_ms
    } else {
        &a.write_ms
    };
    report.metric(
        "trace.overhead_pct",
        layers::overhead_pct(&ops.scaled, &traced_ops.scaled),
        "%",
        None,
    );
    let spans_n = btracer.len() + a.tracer.as_ref().map_or(0, Tracer::len);
    report.metric("trace.spans", spans_n as f64, "count", None);
    let _ = btracer.write_tsv(&work.out_path(&format!("spans-{}-inproc.tsv", plan.name)));
    if let Some(t) = &a.tracer {
        let _ = t.write_tsv(&work.out_path(&format!("spans-{}-tcp.tsv", plan.name)));
    }
}
