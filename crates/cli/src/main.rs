//! `nws` — command-line front end for optimal network-wide sampling.
//!
//! ```text
//! nws solve <topology.topo> <task.nws>      solve a placement problem
//! nws solve --builtin geant <task.nws>      ... on a bundled topology
//! nws solve ... --dot out.dot               also write a Graphviz rendering
//! nws sweep <topology.topo> <task.nws> T..  re-solve across capacities
//! nws plan <topo> <task.nws> <target>       minimal theta for a target
//! nws serve [...]                           run the control-plane daemon
//! nws replay --gen-trace day.jsonl [...]    generate a demand/failure trace
//! nws replay --trace day.jsonl [...]        replay it under a solve budget
//! nws topo validate <topology.topo>         parse + connectivity check
//! nws topo stats <topology.topo>            size/degree/capacity summary
//! nws topo export geant|abilene             print a bundled topology
//! nws topo dot geant|abilene                print a Graphviz rendering
//! nws demo                                  run the paper's Table I task
//! ```
//!
//! Topology files use the `nws-topo` plain-text format; task files use the
//! `nws-core::taskfile` format (see crate docs for both).
//!
//! Exit codes: 0 on success, 2 for usage errors (unknown command, missing
//! or malformed arguments — usage is printed to stderr), 1 for runtime
//! failures (unreadable files, infeasible problems, solver errors).

use nws_core::report::render_table1;
use nws_core::scenarios::janet_task;
use nws_core::taskfile::parse_task;
use nws_core::{evaluate_accuracy, solve_placement_observed, summarize, PlacementConfig};
use nws_obs::Recorder;
use nws_scenario::{
    bench_report, generate_trace, oracle_series, run_replay, run_sweep, GeneratorConfig,
    ReplayPolicy, SweepEntry, Trace,
};
use nws_service::{
    Daemon, DaemonOptions, FaultPlan, FsyncPolicy, NetFaultPlan, NetOptions, PersistConfig, Server,
    ServiceState,
};
use nws_topo::{abilene, format, geant, Topology};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("nws: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("nws: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// CLI failures, split by who is at fault: `Usage` means the invocation
/// itself was wrong (exit 2, usage printed); `Runtime` means the invocation
/// was fine but the work failed (exit 1, no usage dump).
#[derive(Debug, PartialEq)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime_err(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

const USAGE: &str = "\
usage:
  nws solve <topology.topo|--builtin NAME> <task.nws> [--dot FILE]
  nws sweep <topology.topo|--builtin NAME> <task.nws> <theta1> [theta2 ...]
  nws plan <topology.topo|--builtin NAME> <task.nws> <target-utility>
  nws serve [<topology.topo|--builtin NAME> <task.nws>] [serve options]
  nws replay [<topology.topo|--builtin NAME> <task.nws>] [replay options]
  nws topo validate <topology.topo>
  nws topo stats <topology.topo|geant|abilene>
  nws topo export <geant|abilene>
  nws topo dot <geant|abilene>
  nws demo

observability options (solve/sweep/serve/demo):
  --metrics-out F   write a Prometheus-style text exposition of solver and
                    evaluation metrics to F on exit (for serve, includes
                    per-command latency histograms)
  --trace           also collect phase spans; appends the span tree to the
                    exposition and prints it to stderr

serve options (without a topology/task, serves the paper's JANET-on-GEANT
scenario; speaks one JSON request per line on stdin, one response per line
on stdout — see DESIGN.md section 8 for the protocol):
  --shadow-cold     run a cold solve next to every warm re-solve and report
                    both (for iteration/latency comparison)
  --bench-out FILE  write per-event solve latency as JSON on exit
  --queue N         bounded request-queue capacity (default 64); when the
                    queue is full, requests are shed with an 'overloaded'
                    error carrying a retry_after_ms hint
                    (--max-queue is an accepted alias)
  --solve-deadline-ms MS  wall-clock budget per re-solve: a solve that
                    exhausts it serves its best feasible iterate marked
                    degraded, escalating cold-retry then last-good
  --tcp ADDR        serve many concurrent connections on a TCP listener
                    (e.g. 127.0.0.1:7070; port 0 picks an ephemeral port,
                    printed to stderr). Read-only commands are answered
                    from a lock-free snapshot on the connection thread
  --socket PATH     serve many concurrent connections on a Unix socket
                    (same multi-connection machinery as --tcp; combinable)
  --coalesce-ms MS  batch bursts of update_demand/update_demands arriving
                    within MS into one epoch rebuild + one warm re-solve
                    (last-writer-wins per OD; every request is still
                    acknowledged, with a 'coalesced' batch-size field;
                    default 0 = off)
  --max-conns N     concurrent-connection cap (default 1024); excess
                    connections get one too_many_connections error line
  --idle-timeout-ms MS  drop connections idle longer than MS (default 0 =
                    no timeout)
  --write-timeout-ms MS  evict a connection whose response write stalls
                    longer than MS (slow-client protection; default 30000)
  --chaos-net-seed S  inject a deterministic socket-fault schedule (short
                    reads/writes, delays, resets, accept failures) seeded
                    by S on every accepted connection (testing only)
  --state-dir DIR   persist state in DIR: journal state-changing commands
                    to a write-ahead log, snapshot periodically and on
                    exit, recover (snapshot + replay) on the next boot
  --fsync POLICY    WAL durability: always | every-N | never (default
                    always; requires --state-dir)
  --snapshot-every N  appends between automatic snapshots (default 32;
                    requires --state-dir)
  --chaos-store-seed SEED  inject a deterministic store-fault schedule
                    into the WAL/snapshot I/O path (chaos testing; the
                    daemon degrades persistence instead of crashing;
                    requires --state-dir)

replay options (without a topology/task, replays against the paper's
JANET-on-GEANT scenario; traces are JSON-lines files, see docs/FORMATS.md):
  --gen-trace FILE  generate a day-long demand/failure trace and exit;
                    shape knobs: --seed N --ticks N --period N --swing X
                    --noise CV --flash-crowds N --link-flaps N
                    --flap-duration N
  --trace FILE      replay a trace tick by tick against an oracle that
                    re-solves every tick (for replay, --trace names the
                    input file; span tracing is unavailable)
  --resolve-every N re-solve the placement every N ticks (default 1);
                    link events always force a re-solve
  --budgets A,B,..  sweep: replay once per budget in both reactive and
                    forecast modes, print the accuracy-vs-budget curves
                    (mutually exclusive with --resolve-every/--forecast)
  --forecast        solve against Holt-predicted mid-window demands
                    instead of the tick's observed demands
  --hysteresis H    relative dead-band on monitor-rate changes: forecast
                    solves whose rates move less than H of the installed
                    maximum are not installed (default 0 = install all)
  --bench-out FILE  write the accuracy results as JSON (BENCH_replay.json
                    schema)";

fn run(args: &[String]) -> Result<(), CliError> {
    let (args, obs) = extract_obs(args)?;
    let config = PlacementConfig::default();
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..], &config, &obs),
        Some("sweep") => cmd_sweep(&args[1..], &config, &obs),
        Some("plan") => cmd_plan(&args[1..], &config),
        Some("serve") => cmd_serve(&args[1..], &config, &obs),
        Some("replay") => cmd_replay(&args[1..], &config, &obs),
        Some("topo") => cmd_topo(&args[1..]),
        Some("demo") => cmd_demo(&args[1..], &config, &obs),
        Some(other) => Err(usage_err(format!("unknown command '{other}'"))),
        None => Err(usage_err("no command given")),
    }
}

/// Observability requested on the command line (`--metrics-out`, `--trace`).
///
/// When neither flag is given the recorder stays disabled, which keeps the
/// hot path allocation-free (see the `nws-obs` crate docs).
#[derive(Debug, Default, PartialEq)]
struct ObsSetup {
    metrics_out: Option<String>,
    trace: bool,
}

impl ObsSetup {
    fn wanted(&self) -> bool {
        self.metrics_out.is_some() || self.trace
    }

    /// An enabled recorder when observability was requested, else no-op.
    fn recorder(&self) -> Recorder {
        if self.wanted() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Writes/prints whatever `rec` captured, per the requested outputs.
    fn finish(&self, rec: &Recorder) -> Result<(), CliError> {
        if !self.wanted() {
            return Ok(());
        }
        let snap = rec.snapshot();
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, snap.exposition(self.trace))
                .map_err(|e| runtime_err(format!("cannot write '{path}': {e}")))?;
        }
        if self.trace {
            eprint!("{}", snap.span_tree());
        }
        Ok(())
    }
}

/// Strips the observability options (`--metrics-out F`, `--trace`) from
/// anywhere in the argument list and folds them into an [`ObsSetup`].
///
/// Exception: for the `replay` command, `--trace` names the input trace
/// file and is left in place for the replay parser (span tracing is not
/// meaningful for a batch replay anyway).
fn extract_obs(args: &[String]) -> Result<(Vec<String>, ObsSetup), CliError> {
    let mut rest = args.to_vec();
    let mut obs = ObsSetup::default();
    let trace_is_positional = rest.first().map(String::as_str) == Some("replay");
    while let Some(i) = rest.iter().position(|a| a == "--metrics-out") {
        let path = rest
            .get(i + 1)
            .ok_or_else(|| usage_err("--metrics-out requires a file path"))?;
        obs.metrics_out = Some(path.clone());
        rest.drain(i..=i + 1);
    }
    if !trace_is_positional {
        while let Some(i) = rest.iter().position(|a| a == "--trace") {
            obs.trace = true;
            rest.remove(i);
        }
    }
    Ok((rest, obs))
}

/// Loads a topology from a file path or `--builtin NAME`; returns the
/// topology and how many leading arguments were consumed.
fn load_topology(args: &[String]) -> Result<(Topology, usize), CliError> {
    match args.first().map(String::as_str) {
        Some("--builtin") => {
            let name = args
                .get(1)
                .ok_or_else(|| usage_err("--builtin requires a name"))?;
            match name.as_str() {
                "geant" => Ok((geant(), 2)),
                "abilene" => Ok((abilene(), 2)),
                other => Err(usage_err(format!("unknown builtin topology '{other}'"))),
            }
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| runtime_err(format!("cannot read topology '{path}': {e}")))?;
            let topo = format::from_text(&text)
                .map_err(|e| runtime_err(format!("topology '{path}': {e}")))?;
            Ok((topo, 1))
        }
        None => Err(usage_err("missing topology argument")),
    }
}

fn load_task(topo: Topology, path: &str) -> Result<nws_core::MeasurementTask, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read task '{path}': {e}")))?;
    parse_task(topo, &text).map_err(|e| runtime_err(format!("task '{path}': {e}")))
}

fn cmd_solve(args: &[String], config: &PlacementConfig, obs: &ObsSetup) -> Result<(), CliError> {
    let (topo, used) = load_topology(args)?;
    let task_path = args
        .get(used)
        .ok_or_else(|| usage_err("solve requires a task file"))?;
    let dot_path = match (args.get(used + 1).map(String::as_str), args.get(used + 2)) {
        (Some("--dot"), Some(path)) => Some(path.clone()),
        (Some("--dot"), None) => return Err(usage_err("--dot requires a file path")),
        (Some(other), _) => return Err(usage_err(format!("unexpected argument '{other}'"))),
        (None, _) => None,
    };
    let task = load_task(topo, task_path)?;
    let rec = obs.recorder();
    let sol = solve_placement_observed(&task, config, &rec)
        .map_err(|e| runtime_err(format!("solve failed: {e}")))?;
    let accs = evaluate_accuracy(&task, &sol, 20, 1);
    print!("{}", render_table1(&task, &sol, &accs));
    obs.finish(&rec)?;
    if let Some(path) = dot_path {
        let highlights: Vec<(nws_topo::LinkId, f64)> = sol
            .active_monitors
            .iter()
            .map(|&l| (l, sol.rates[l.index()]))
            .collect();
        let dot = format::to_dot(task.topology(), &highlights);
        std::fs::write(&path, dot)
            .map_err(|e| runtime_err(format!("cannot write '{path}': {e}")))?;
        println!();
        println!("Graphviz rendering with activated monitors written to {path}");
    }
    Ok(())
}

fn cmd_plan(args: &[String], config: &PlacementConfig) -> Result<(), CliError> {
    let (topo, used) = load_topology(args)?;
    let task_path = args
        .get(used)
        .ok_or_else(|| usage_err("plan requires a task file"))?;
    let target: f64 = args
        .get(used + 1)
        .ok_or_else(|| usage_err("plan requires a target utility (e.g. 0.95)"))?
        .parse()
        .map_err(|_| usage_err("target must be a number"))?;
    let task = load_task(topo, task_path)?;
    // Bracket: 0.01% to 120% of total candidate load.
    let ceiling: f64 = task
        .candidate_links()
        .iter()
        .map(|&l| task.link_loads()[l.index()] * task.alpha()[l.index()])
        .sum();
    let plan = nws_core::planning::theta_for_target_utility(
        &task,
        target,
        ceiling * 1e-5,
        ceiling * 0.99,
        0.01,
        config,
    )
    .map_err(|e| runtime_err(e.to_string()))?;
    println!(
        "minimal capacity for worst-OD utility >= {target}: theta = {:.0} sampled          packets/interval (achieved {:.4}, {} solves)",
        plan.theta, plan.achieved_worst_utility, plan.solves
    );
    Ok(())
}

fn cmd_sweep(args: &[String], config: &PlacementConfig, obs: &ObsSetup) -> Result<(), CliError> {
    let (topo, used) = load_topology(args)?;
    let task_path = args
        .get(used)
        .ok_or_else(|| usage_err("sweep requires a task file"))?;
    let thetas: Vec<f64> = args[used + 1..]
        .iter()
        .map(|s| s.parse().map_err(|_| usage_err(format!("bad theta '{s}'"))))
        .collect::<Result<_, _>>()?;
    if thetas.is_empty() {
        return Err(usage_err("sweep requires at least one theta"));
    }
    let base = load_task(topo, task_path)?;
    let rec = obs.recorder();
    println!("theta,objective,lambda,active_monitors,acc_mean,acc_worst");
    for theta in thetas {
        let task = base
            .with_theta(theta)
            .map_err(|e| runtime_err(e.to_string()))?;
        let sol = solve_placement_observed(&task, config, &rec)
            .map_err(|e| runtime_err(format!("theta {theta}: {e}")))?;
        let acc = summarize(&evaluate_accuracy(&task, &sol, 20, 1));
        println!(
            "{theta},{:.6},{:.6e},{},{:.4},{:.4}",
            sol.objective,
            sol.lambda,
            sol.active_monitors.len(),
            acc.mean,
            acc.worst
        );
    }
    obs.finish(&rec)
}

/// Parsed `serve` invocation: daemon options, optional socket path, and the
/// positional (topology/task) arguments left over.
#[derive(Debug, Default, PartialEq)]
struct ServeSetup {
    opts_queue: usize,
    shadow_cold: bool,
    bench_out: Option<String>,
    socket: Option<String>,
    tcp: Option<String>,
    coalesce_ms: u64,
    max_conns: usize,
    idle_timeout_ms: u64,
    write_timeout_ms: u64,
    chaos_net_seed: Option<u64>,
    state_dir: Option<String>,
    fsync: Option<FsyncPolicy>,
    snapshot_every: Option<u64>,
    solve_deadline_ms: Option<u64>,
    chaos_store_seed: Option<u64>,
    positional: Vec<String>,
}

impl ServeSetup {
    /// Folds `--state-dir`/`--fsync`/`--snapshot-every` into the daemon's
    /// persistence config; the durability knobs are meaningless without a
    /// state directory, so they are usage errors on their own.
    fn persist(&self) -> Result<Option<PersistConfig>, CliError> {
        let Some(dir) = &self.state_dir else {
            if self.fsync.is_some() {
                return Err(usage_err("--fsync requires --state-dir"));
            }
            if self.snapshot_every.is_some() {
                return Err(usage_err("--snapshot-every requires --state-dir"));
            }
            if self.chaos_store_seed.is_some() {
                return Err(usage_err("--chaos-store-seed requires --state-dir"));
            }
            return Ok(None);
        };
        let mut cfg = PersistConfig::new(dir);
        if let Some(policy) = self.fsync {
            cfg.fsync = policy;
        }
        if let Some(n) = self.snapshot_every {
            cfg.snapshot_every = n;
        }
        if let Some(seed) = self.chaos_store_seed {
            cfg.fault = Some(FaultPlan::new(seed));
        }
        Ok(Some(cfg))
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeSetup, CliError> {
    let mut setup = ServeSetup::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shadow-cold" => {
                setup.shadow_cold = true;
                i += 1;
            }
            "--bench-out" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--bench-out requires a file path"))?;
                setup.bench_out = Some(path.clone());
                i += 2;
            }
            "--queue" | "--max-queue" => {
                let n: usize = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--queue requires a capacity"))?
                    .parse()
                    .map_err(|_| usage_err("--queue requires a positive integer"))?;
                if n == 0 {
                    return Err(usage_err("--queue requires a positive integer"));
                }
                setup.opts_queue = n;
                i += 2;
            }
            "--solve-deadline-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--solve-deadline-ms requires milliseconds"))?
                    .parse()
                    .map_err(|_| usage_err("--solve-deadline-ms requires a positive integer"))?;
                if ms == 0 {
                    return Err(usage_err("--solve-deadline-ms requires a positive integer"));
                }
                setup.solve_deadline_ms = Some(ms);
                i += 2;
            }
            "--chaos-store-seed" => {
                let seed: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--chaos-store-seed requires a seed"))?
                    .parse()
                    .map_err(|_| usage_err("--chaos-store-seed requires an integer seed"))?;
                setup.chaos_store_seed = Some(seed);
                i += 2;
            }
            "--socket" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--socket requires a path"))?;
                setup.socket = Some(path.clone());
                i += 2;
            }
            "--tcp" => {
                let addr = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--tcp requires an address (e.g. 127.0.0.1:7070)"))?;
                setup.tcp = Some(addr.clone());
                i += 2;
            }
            "--coalesce-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--coalesce-ms requires milliseconds"))?
                    .parse()
                    .map_err(|_| usage_err("--coalesce-ms requires a non-negative integer"))?;
                setup.coalesce_ms = ms;
                i += 2;
            }
            "--max-conns" => {
                let n: usize = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--max-conns requires a count"))?
                    .parse()
                    .map_err(|_| usage_err("--max-conns requires a positive integer"))?;
                if n == 0 {
                    return Err(usage_err("--max-conns requires a positive integer"));
                }
                setup.max_conns = n;
                i += 2;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--idle-timeout-ms requires milliseconds"))?
                    .parse()
                    .map_err(|_| usage_err("--idle-timeout-ms requires a positive integer"))?;
                if ms == 0 {
                    return Err(usage_err("--idle-timeout-ms requires a positive integer"));
                }
                setup.idle_timeout_ms = ms;
                i += 2;
            }
            "--write-timeout-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--write-timeout-ms requires milliseconds"))?
                    .parse()
                    .map_err(|_| usage_err("--write-timeout-ms requires a positive integer"))?;
                if ms == 0 {
                    return Err(usage_err("--write-timeout-ms requires a positive integer"));
                }
                setup.write_timeout_ms = ms;
                i += 2;
            }
            "--chaos-net-seed" => {
                let seed: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--chaos-net-seed requires a seed"))?
                    .parse()
                    .map_err(|_| usage_err("--chaos-net-seed requires an integer seed"))?;
                setup.chaos_net_seed = Some(seed);
                i += 2;
            }
            "--state-dir" => {
                let dir = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--state-dir requires a directory"))?;
                setup.state_dir = Some(dir.clone());
                i += 2;
            }
            "--fsync" => {
                let policy = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--fsync requires a policy (always|every-N|never)"))?;
                setup.fsync = Some(
                    FsyncPolicy::parse(policy).map_err(|e| usage_err(format!("--fsync: {e}")))?,
                );
                i += 2;
            }
            "--snapshot-every" => {
                let n: u64 = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--snapshot-every requires a count"))?
                    .parse()
                    .map_err(|_| usage_err("--snapshot-every requires a positive integer"))?;
                if n == 0 {
                    return Err(usage_err("--snapshot-every requires a positive integer"));
                }
                setup.snapshot_every = Some(n);
                i += 2;
            }
            other if other.starts_with("--") && other != "--builtin" => {
                return Err(usage_err(format!("unknown serve option '{other}'")));
            }
            _ => {
                setup.positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    Ok(setup)
}

fn cmd_serve(args: &[String], config: &PlacementConfig, obs: &ObsSetup) -> Result<(), CliError> {
    let setup = parse_serve_args(args)?;
    let task = if setup.positional.is_empty() {
        janet_task()
    } else {
        let (topo, used) = load_topology(&setup.positional)?;
        let task_path = setup
            .positional
            .get(used)
            .ok_or_else(|| usage_err("serve requires a task file after the topology"))?;
        if setup.positional.len() > used + 1 {
            return Err(usage_err(format!(
                "unexpected argument '{}'",
                setup.positional[used + 1]
            )));
        }
        load_task(topo, task_path)?
    };
    let state = ServiceState::from_task(&task, *config);
    let mut daemon = Daemon::new(
        state,
        DaemonOptions {
            queue_capacity: setup.opts_queue,
            shadow_cold: setup.shadow_cold,
            bench_out: setup.bench_out.clone(),
            // The daemon runs its own always-on recorder; it writes the
            // exposition itself so the `metrics` command and the file agree.
            metrics_out: obs.metrics_out.clone(),
            trace: obs.trace,
            persist: setup.persist()?,
            solve_deadline_ms: setup.solve_deadline_ms,
            coalesce_ms: setup.coalesce_ms,
        },
    );

    let summary = if setup.tcp.is_some() || setup.socket.is_some() {
        // Multi-connection serving: TCP and/or Unix listeners in front of
        // the same event loop; read-only commands answered lock-free on
        // the connection threads.
        let net = NetOptions {
            tcp: setup.tcp.clone(),
            unix: setup.socket.clone(),
            max_conns: setup.max_conns,
            idle_timeout_ms: setup.idle_timeout_ms,
            write_timeout_ms: setup.write_timeout_ms,
            chaos: setup.chaos_net_seed.map(NetFaultPlan::new),
        };
        let server = Server::bind(&net).map_err(|e| runtime_err(format!("serve: {e}")))?;
        if let Some(addr) = server.tcp_addr() {
            eprintln!("serve: listening on tcp {addr}");
        }
        if let Some(path) = &setup.socket {
            eprintln!("serve: listening on socket {path}");
        }
        daemon
            .serve(server)
            .map_err(|e| runtime_err(format!("serve: {e}")))?
    } else {
        let input = std::io::BufReader::new(std::io::stdin());
        let mut output = std::io::stdout();
        daemon
            .run(input, &mut output)
            .map_err(|e| runtime_err(format!("serve: {e}")))?
    };
    eprintln!(
        "serve: {} requests ({} lock-free reads), {} re-solves, {} shed, {} connections, {}",
        summary.requests,
        summary.reads_lockfree,
        summary.resolves,
        summary.shed,
        summary.connections,
        if summary.clean_shutdown {
            "clean shutdown"
        } else {
            "input closed"
        }
    );
    Ok(())
}

/// Parsed `replay` invocation. Exactly one of `gen_out` (generate a trace
/// and exit) or `trace_in` (replay one) must be set.
#[derive(Debug, Default, PartialEq)]
struct ReplaySetup {
    gen_out: Option<String>,
    trace_in: Option<String>,
    resolve_every: Option<u64>,
    budgets: Option<Vec<u64>>,
    forecast: bool,
    hysteresis: f64,
    bench_out: Option<String>,
    generator: GeneratorConfig,
    positional: Vec<String>,
}

fn parse_replay_args(args: &[String]) -> Result<ReplaySetup, CliError> {
    let mut setup = ReplaySetup {
        generator: GeneratorConfig::default(),
        ..ReplaySetup::default()
    };
    let mut i = 0;
    // Small helpers so every value-taking flag reports consistent errors.
    let want = |args: &[String], i: usize, what: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| usage_err(format!("{} requires {what}", args[i])))
    };
    fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
        raw.parse()
            .map_err(|_| usage_err(format!("{flag}: bad value '{raw}'")))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--gen-trace" => {
                setup.gen_out = Some(want(args, i, "an output file")?);
                i += 2;
            }
            "--trace" => {
                setup.trace_in = Some(want(args, i, "a trace file")?);
                i += 2;
            }
            "--resolve-every" => {
                let n: u64 = num("--resolve-every", &want(args, i, "a tick count")?)?;
                if n == 0 {
                    return Err(usage_err("--resolve-every requires a positive integer"));
                }
                setup.resolve_every = Some(n);
                i += 2;
            }
            "--budgets" => {
                let raw = want(args, i, "a comma-separated list (e.g. 1,4,16)")?;
                let budgets: Vec<u64> = raw
                    .split(',')
                    .map(|s| num("--budgets", s.trim()))
                    .collect::<Result<_, _>>()?;
                if budgets.is_empty() || budgets.contains(&0) {
                    return Err(usage_err("--budgets requires positive tick counts"));
                }
                setup.budgets = Some(budgets);
                i += 2;
            }
            "--forecast" => {
                setup.forecast = true;
                i += 1;
            }
            "--hysteresis" => {
                let h: f64 = num("--hysteresis", &want(args, i, "a relative dead-band")?)?;
                if !(0.0..1.0).contains(&h) {
                    return Err(usage_err("--hysteresis must be in [0, 1)"));
                }
                setup.hysteresis = h;
                i += 2;
            }
            "--bench-out" => {
                setup.bench_out = Some(want(args, i, "a file path")?);
                i += 2;
            }
            "--seed" => {
                setup.generator.seed = num("--seed", &want(args, i, "an integer seed")?)?;
                i += 2;
            }
            "--ticks" => {
                let n: u64 = num("--ticks", &want(args, i, "a tick count")?)?;
                if n == 0 {
                    return Err(usage_err("--ticks requires a positive integer"));
                }
                setup.generator.ticks = n;
                i += 2;
            }
            "--period" => {
                let n: u64 = num("--period", &want(args, i, "a tick count")?)?;
                if n == 0 {
                    return Err(usage_err("--period requires a positive integer"));
                }
                setup.generator.period = n;
                i += 2;
            }
            "--swing" => {
                let x: f64 = num("--swing", &want(args, i, "a peak-to-trough ratio")?)?;
                if !x.is_finite() || x < 1.0 {
                    return Err(usage_err("--swing must be >= 1"));
                }
                setup.generator.diurnal_swing = x;
                i += 2;
            }
            "--noise" => {
                let cv: f64 = num("--noise", &want(args, i, "a coefficient of variation")?)?;
                if !(0.0..10.0).contains(&cv) {
                    return Err(usage_err("--noise must be in [0, 10)"));
                }
                setup.generator.noise_cv = cv;
                i += 2;
            }
            "--flash-crowds" => {
                setup.generator.flash_crowds = num("--flash-crowds", &want(args, i, "a count")?)?;
                i += 2;
            }
            "--link-flaps" => {
                setup.generator.link_flaps = num("--link-flaps", &want(args, i, "a count")?)?;
                i += 2;
            }
            "--flap-duration" => {
                let n: u64 = num("--flap-duration", &want(args, i, "a tick count")?)?;
                if n == 0 {
                    return Err(usage_err("--flap-duration requires a positive integer"));
                }
                setup.generator.flap_duration = n;
                i += 2;
            }
            other if other.starts_with("--") && other != "--builtin" => {
                return Err(usage_err(format!("unknown replay option '{other}'")));
            }
            _ => {
                setup.positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    match (&setup.gen_out, &setup.trace_in) {
        (Some(_), Some(_)) => {
            return Err(usage_err("--gen-trace and --trace are mutually exclusive"));
        }
        (None, None) => {
            return Err(usage_err(
                "replay requires --gen-trace FILE or --trace FILE",
            ));
        }
        _ => {}
    }
    if setup.budgets.is_some() && (setup.resolve_every.is_some() || setup.forecast) {
        return Err(usage_err(
            "--budgets sweeps both modes itself; drop --resolve-every/--forecast",
        ));
    }
    if setup.gen_out.is_some()
        && (setup.budgets.is_some()
            || setup.resolve_every.is_some()
            || setup.forecast
            || setup.bench_out.is_some())
    {
        return Err(usage_err("replay options are meaningless with --gen-trace"));
    }
    Ok(setup)
}

fn cmd_replay(args: &[String], config: &PlacementConfig, obs: &ObsSetup) -> Result<(), CliError> {
    let setup = parse_replay_args(args)?;
    let task = if setup.positional.is_empty() {
        janet_task()
    } else {
        let (topo, used) = load_topology(&setup.positional)?;
        let task_path = setup
            .positional
            .get(used)
            .ok_or_else(|| usage_err("replay requires a task file after the topology"))?;
        if setup.positional.len() > used + 1 {
            return Err(usage_err(format!(
                "unexpected argument '{}'",
                setup.positional[used + 1]
            )));
        }
        load_task(topo, task_path)?
    };
    let state = ServiceState::from_task(&task, *config);
    let rec = obs.recorder();

    if let Some(path) = &setup.gen_out {
        let trace = generate_trace(&state, &setup.generator);
        std::fs::write(path, trace.encode())
            .map_err(|e| runtime_err(format!("cannot write '{path}': {e}")))?;
        let events: u64 = trace.ticks.iter().map(|t| t.events.len() as u64).sum();
        println!(
            "trace written to {path}: {} ticks, {} ods, {} link events, seed {}",
            trace.header.ticks,
            trace.header.ods.len(),
            events,
            trace.header.seed
        );
        return obs.finish(&rec);
    }

    let path = setup.trace_in.as_deref().expect("validated above");
    let text = std::fs::read_to_string(path)
        .map_err(|e| runtime_err(format!("cannot read trace '{path}': {e}")))?;
    let trace = Trace::parse(&text).map_err(|e| runtime_err(format!("trace '{path}': {e}")))?;

    let oracle = oracle_series(&state, &trace).map_err(|e| runtime_err(format!("oracle: {e}")))?;
    let entries = match &setup.budgets {
        Some(budgets) => run_sweep(&state, &trace, &oracle, budgets, setup.hysteresis, &rec)
            .map_err(|e| runtime_err(format!("replay: {e}")))?,
        None => {
            let n = setup.resolve_every.unwrap_or(1);
            let mut policy = if setup.forecast {
                ReplayPolicy::forecast(n)
            } else {
                ReplayPolicy::reactive(n)
            };
            policy.hysteresis = setup.hysteresis;
            let t0 = std::time::Instant::now();
            let outcome = run_replay(&state, &trace, &policy, &oracle, &rec)
                .map_err(|e| runtime_err(format!("replay: {e}")))?;
            vec![SweepEntry {
                outcome,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            }]
        }
    };

    println!("mode,resolve_every,resolves,suppressed,mean_gap,max_gap,err_p50,err_p90,err_p99,rate_churn");
    for e in &entries {
        let o = &e.outcome;
        println!(
            "{},{},{},{},{:.6e},{:.6e},{:.4},{:.4},{:.4},{:.4}",
            o.policy.mode.name(),
            o.policy.resolve_every,
            o.resolves,
            o.suppressed,
            o.mean_gap,
            o.max_gap,
            o.err_p50,
            o.err_p90,
            o.err_p99,
            o.rate_churn
        );
    }

    if let Some(path) = &setup.bench_out {
        let report = bench_report(&trace, &oracle, &entries);
        std::fs::write(path, format!("{}\n", report.encode()))
            .map_err(|e| runtime_err(format!("cannot write '{path}': {e}")))?;
        eprintln!("replay: accuracy curves written to {path}");
    }
    obs.finish(&rec)
}

fn cmd_topo(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("validate") => {
            let path = args
                .get(1)
                .ok_or_else(|| usage_err("validate requires a topology file"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| runtime_err(format!("cannot read '{path}': {e}")))?;
            let topo = format::from_text(&text).map_err(|e| runtime_err(e.to_string()))?;
            topo.validate_connected()
                .map_err(|e| runtime_err(e.to_string()))?;
            println!(
                "ok: {} nodes, {} links ({} monitorable), connected",
                topo.num_nodes(),
                topo.num_links(),
                topo.monitorable_links().len()
            );
            Ok(())
        }
        Some("stats") => {
            let arg = args
                .get(1)
                .ok_or_else(|| usage_err("stats requires a topology"))?;
            let topo = match builtin(arg) {
                Ok(t) => t,
                Err(_) => {
                    let text = std::fs::read_to_string(arg)
                        .map_err(|e| runtime_err(format!("cannot read '{arg}': {e}")))?;
                    format::from_text(&text).map_err(|e| runtime_err(e.to_string()))?
                }
            };
            let degrees: Vec<usize> = topo.node_ids().map(|n| topo.out_links(n).count()).collect();
            let caps: Vec<f64> = topo
                .link_ids()
                .map(|l| topo.link(l).capacity_mbps())
                .collect();
            println!("nodes: {}", topo.num_nodes());
            println!(
                "links: {} ({} monitorable)",
                topo.num_links(),
                topo.monitorable_links().len()
            );
            println!(
                "out-degree: min {} / max {}",
                degrees.iter().min().expect("nodes exist"),
                degrees.iter().max().expect("nodes exist")
            );
            println!(
                "capacity (Mbps): min {:.0} / max {:.0}",
                caps.iter().cloned().fold(f64::INFINITY, f64::min),
                caps.iter().cloned().fold(0.0, f64::max)
            );
            println!(
                "connected: {}",
                if topo.validate_connected().is_ok() {
                    "yes"
                } else {
                    "NO"
                }
            );
            Ok(())
        }
        Some("export") => {
            let name = args
                .get(1)
                .ok_or_else(|| usage_err("export requires a topology name"))?;
            let topo = builtin(name)?;
            print!("{}", format::to_text(&topo));
            Ok(())
        }
        Some("dot") => {
            let name = args
                .get(1)
                .ok_or_else(|| usage_err("dot requires a topology name"))?;
            let topo = builtin(name)?;
            print!("{}", format::to_dot(&topo, &[]));
            Ok(())
        }
        Some(other) => Err(usage_err(format!("unknown topo subcommand '{other}'"))),
        None => Err(usage_err("topo requires a subcommand")),
    }
}

fn builtin(name: &str) -> Result<Topology, CliError> {
    match name {
        "geant" => Ok(geant()),
        "abilene" => Ok(abilene()),
        other => Err(usage_err(format!("unknown builtin topology '{other}'"))),
    }
}

fn cmd_demo(args: &[String], config: &PlacementConfig, obs: &ObsSetup) -> Result<(), CliError> {
    if let Some(other) = args.first() {
        return Err(usage_err(format!("unexpected argument '{other}'")));
    }
    let task = janet_task();
    let rec = obs.recorder();
    let sol =
        solve_placement_observed(&task, config, &rec).map_err(|e| runtime_err(e.to_string()))?;
    let accs = evaluate_accuracy(&task, &sol, 20, 1);
    print!("{}", render_table1(&task, &sol, &accs));
    obs.finish(&rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_usage(e: &CliError) -> bool {
        matches!(e, CliError::Usage(_))
    }

    #[test]
    fn unknown_command_rejected_as_usage() {
        assert!(is_usage(&run(&["bogus".into()]).unwrap_err()));
        assert!(is_usage(&run(&[]).unwrap_err()));
        assert!(is_usage(&run(&["topo".into()]).unwrap_err()));
        assert!(is_usage(&run(&["topo".into(), "warp".into()]).unwrap_err()));
        assert!(is_usage(&run(&["sweep".into()]).unwrap_err()));
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let err = run(&["topo".into(), "validate".into(), "/nonexistent.topo".into()]).unwrap_err();
        assert!(!is_usage(&err), "file errors are runtime, not usage: {err}");
        let err = run(&[
            "solve".into(),
            "--builtin".into(),
            "geant".into(),
            "/nonexistent.nws".into(),
        ])
        .unwrap_err();
        assert!(!is_usage(&err));
    }

    #[test]
    fn builtin_topologies_load() {
        let (g, used) = load_topology(&["--builtin".into(), "geant".into()]).unwrap();
        assert_eq!(used, 2);
        assert_eq!(g.num_nodes(), 23);
        let (a, _) = load_topology(&["--builtin".into(), "abilene".into()]).unwrap();
        assert_eq!(a.num_nodes(), 12);
        let err = load_topology(&["--builtin".into(), "mars".into()]).unwrap_err();
        assert!(is_usage(&err));
    }

    #[test]
    fn demo_runs() {
        cmd_demo(&[], &PlacementConfig::default(), &ObsSetup::default()).unwrap();
    }

    #[test]
    fn threads_flag_is_rejected_as_usage() {
        // Evaluation is serial: the old worker-count flag is an unknown
        // argument before the command and after it.
        let flag = ["--", "threads"].concat();
        for args in [[flag.as_str(), "2", "demo"], ["demo", flag.as_str(), "2"]] {
            let err = run(&args.map(String::from)).unwrap_err();
            assert!(is_usage(&err), "{args:?}: {err}");
        }
    }

    #[test]
    fn observability_flags_extracted_anywhere() {
        let args: Vec<String> = ["solve", "--trace", "x.topo", "--metrics-out", "m.prom"]
            .map(String::from)
            .to_vec();
        let (rest, obs) = extract_obs(&args).unwrap();
        assert_eq!(rest, vec!["solve".to_string(), "x.topo".into()]);
        assert_eq!(obs.metrics_out.as_deref(), Some("m.prom"));
        assert!(obs.trace);
        assert!(obs.wanted());

        assert!(is_usage(
            &extract_obs(&["--metrics-out".to_string()]).unwrap_err()
        ));
        assert!(!ObsSetup::default().wanted());
        assert!(!ObsSetup::default().recorder().is_enabled());
    }

    #[test]
    fn demo_metrics_out_writes_exposition() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo_metrics.prom");
        let obs = ObsSetup {
            metrics_out: Some(path.to_string_lossy().into_owned()),
            trace: true,
        };
        cmd_demo(&[], &PlacementConfig::default(), &obs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE solver_iterations_total counter"));
        assert!(text.contains("# TYPE eval_calls_total counter"));
        assert!(text.contains("# span solve"), "trace appends span tree");
    }

    #[test]
    fn serve_args_parse() {
        let args: Vec<String> = [
            "--shadow-cold",
            "--bench-out",
            "out.json",
            "--queue",
            "8",
            "--builtin",
            "geant",
            "task.nws",
        ]
        .map(String::from)
        .to_vec();
        let setup = parse_serve_args(&args).unwrap();
        assert!(setup.shadow_cold);
        assert_eq!(setup.bench_out.as_deref(), Some("out.json"));
        assert_eq!(setup.opts_queue, 8);
        assert_eq!(setup.socket, None);
        assert_eq!(
            setup.positional,
            vec!["--builtin".to_string(), "geant".into(), "task.nws".into()]
        );

        assert!(is_usage(
            &parse_serve_args(&["--queue".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--queue".to_string(), "0".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--warp".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--bench-out".to_string()]).unwrap_err()
        ));
    }

    #[test]
    fn serve_persistence_flags_parse() {
        let args: Vec<String> = [
            "--state-dir",
            "/tmp/nws-state",
            "--fsync",
            "every-8",
            "--snapshot-every",
            "16",
        ]
        .map(String::from)
        .to_vec();
        let setup = parse_serve_args(&args).unwrap();
        assert_eq!(setup.state_dir.as_deref(), Some("/tmp/nws-state"));
        assert_eq!(setup.fsync, Some(FsyncPolicy::EveryN(8)));
        assert_eq!(setup.snapshot_every, Some(16));
        let cfg = setup.persist().unwrap().unwrap();
        assert_eq!(cfg.dir.to_string_lossy(), "/tmp/nws-state");
        assert_eq!(cfg.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(cfg.snapshot_every, 16);

        // Defaults apply when only the directory is given.
        let setup = parse_serve_args(&["--state-dir".to_string(), "d".to_string()]).unwrap();
        let cfg = setup.persist().unwrap().unwrap();
        assert_eq!(cfg.fsync, FsyncPolicy::Always);
        assert_eq!(cfg.snapshot_every, 32);

        // No --state-dir, no persistence.
        assert!(parse_serve_args(&[]).unwrap().persist().unwrap().is_none());
    }

    #[test]
    fn serve_persistence_flags_reject_bad_input() {
        assert!(is_usage(
            &parse_serve_args(&["--state-dir".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--fsync".to_string(), "sometimes".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--fsync".to_string(), "every-0".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--snapshot-every".to_string(), "0".to_string()]).unwrap_err()
        ));

        // Durability knobs without a state directory are usage errors.
        let setup = parse_serve_args(&["--fsync".to_string(), "never".to_string()]).unwrap();
        let err = setup.persist().unwrap_err();
        assert!(is_usage(&err));
        assert!(err.to_string().contains("--fsync requires --state-dir"));
        let setup = parse_serve_args(&["--snapshot-every".to_string(), "4".to_string()]).unwrap();
        let err = setup.persist().unwrap_err();
        assert!(is_usage(&err));
        assert!(err
            .to_string()
            .contains("--snapshot-every requires --state-dir"));
    }

    #[test]
    fn serve_resilience_flags_parse() {
        let args: Vec<String> = [
            "--max-queue",
            "4",
            "--solve-deadline-ms",
            "250",
            "--state-dir",
            "/tmp/nws-chaos",
            "--chaos-store-seed",
            "42",
        ]
        .map(String::from)
        .to_vec();
        let setup = parse_serve_args(&args).unwrap();
        assert_eq!(setup.opts_queue, 4); // --max-queue is an alias
        assert_eq!(setup.solve_deadline_ms, Some(250));
        assert_eq!(setup.chaos_store_seed, Some(42));
        let cfg = setup.persist().unwrap().unwrap();
        let fault = cfg.fault.expect("chaos seed routes into the fault plan");
        assert_eq!(fault.seed, 42);

        // Bad values.
        assert!(is_usage(
            &parse_serve_args(&["--solve-deadline-ms".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--solve-deadline-ms".to_string(), "0".to_string()]).unwrap_err()
        ));
        assert!(is_usage(
            &parse_serve_args(&["--chaos-store-seed".to_string(), "x".to_string()]).unwrap_err()
        ));

        // Fault injection without a state directory is meaningless.
        let setup = parse_serve_args(&["--chaos-store-seed".to_string(), "1".to_string()]).unwrap();
        let err = setup.persist().unwrap_err();
        assert!(is_usage(&err));
        assert!(err
            .to_string()
            .contains("--chaos-store-seed requires --state-dir"));
    }

    #[test]
    fn serve_rejects_trailing_positional() {
        let err = cmd_serve(
            &["--builtin".into(), "geant".into()],
            &PlacementConfig::default(),
            &ObsSetup::default(),
        )
        .unwrap_err();
        assert!(is_usage(&err));
        assert!(err.to_string().contains("task file"));
    }

    #[test]
    fn replay_args_parse() {
        let args: Vec<String> = [
            "--trace",
            "day.jsonl",
            "--resolve-every",
            "4",
            "--forecast",
            "--hysteresis",
            "0.05",
            "--bench-out",
            "out.json",
        ]
        .map(String::from)
        .to_vec();
        let setup = parse_replay_args(&args).unwrap();
        assert_eq!(setup.trace_in.as_deref(), Some("day.jsonl"));
        assert_eq!(setup.resolve_every, Some(4));
        assert!(setup.forecast);
        assert_eq!(setup.hysteresis, 0.05);
        assert_eq!(setup.bench_out.as_deref(), Some("out.json"));

        let args: Vec<String> = ["--trace", "day.jsonl", "--budgets", "1,4,16"]
            .map(String::from)
            .to_vec();
        let setup = parse_replay_args(&args).unwrap();
        assert_eq!(setup.budgets, Some(vec![1, 4, 16]));

        let args: Vec<String> = [
            "--gen-trace",
            "day.jsonl",
            "--seed",
            "7",
            "--ticks",
            "12",
            "--period",
            "12",
            "--swing",
            "2.5",
            "--noise",
            "0.1",
            "--flash-crowds",
            "0",
            "--link-flaps",
            "0",
        ]
        .map(String::from)
        .to_vec();
        let setup = parse_replay_args(&args).unwrap();
        assert_eq!(setup.gen_out.as_deref(), Some("day.jsonl"));
        assert_eq!(setup.generator.seed, 7);
        assert_eq!(setup.generator.ticks, 12);
        assert_eq!(setup.generator.diurnal_swing, 2.5);
        assert_eq!(setup.generator.flash_crowds, 0);
    }

    #[test]
    fn replay_args_reject_bad_combinations() {
        let parse = |args: &[&str]| {
            parse_replay_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        // Neither or both of --gen-trace/--trace.
        assert!(is_usage(&parse(&[]).unwrap_err()));
        assert!(is_usage(
            &parse(&["--gen-trace", "a", "--trace", "b"]).unwrap_err()
        ));
        // --budgets excludes the single-run flags.
        assert!(is_usage(
            &parse(&["--trace", "t", "--budgets", "1,4", "--forecast"]).unwrap_err()
        ));
        assert!(is_usage(
            &parse(&["--trace", "t", "--budgets", "1,4", "--resolve-every", "2"]).unwrap_err()
        ));
        // Replay knobs are meaningless when generating.
        assert!(is_usage(
            &parse(&["--gen-trace", "t", "--forecast"]).unwrap_err()
        ));
        // Bad values.
        assert!(is_usage(&parse(&["--trace"]).unwrap_err()));
        assert!(is_usage(
            &parse(&["--trace", "t", "--resolve-every", "0"]).unwrap_err()
        ));
        assert!(is_usage(
            &parse(&["--trace", "t", "--budgets", "1,x"]).unwrap_err()
        ));
        assert!(is_usage(
            &parse(&["--trace", "t", "--hysteresis", "1.5"]).unwrap_err()
        ));
        assert!(is_usage(
            &parse(&["--gen-trace", "t", "--swing", "0.5"]).unwrap_err()
        ));
        assert!(is_usage(&parse(&["--trace", "t", "--warp"]).unwrap_err()));
    }

    #[test]
    fn replay_keeps_trace_flag_for_itself() {
        // For every other command --trace is the span-tracing switch; for
        // replay it names the input file and must survive extract_obs.
        let args: Vec<String> = ["replay", "--trace", "day.jsonl"]
            .map(String::from)
            .to_vec();
        let (rest, obs) = extract_obs(&args).unwrap();
        assert_eq!(rest, args);
        assert!(!obs.trace);

        let args: Vec<String> = ["demo", "--trace"].map(String::from).to_vec();
        let (rest, obs) = extract_obs(&args).unwrap();
        assert_eq!(rest, vec!["demo".to_string()]);
        assert!(obs.trace);
    }

    #[test]
    fn replay_generates_and_replays_a_trace() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("day.jsonl").to_string_lossy().into_owned();
        let bench_path = dir.join("replay.json").to_string_lossy().into_owned();
        run(&[
            "replay".into(),
            "--gen-trace".into(),
            trace_path.clone(),
            "--seed".into(),
            "7".into(),
            "--ticks".into(),
            "8".into(),
            "--period".into(),
            "8".into(),
            "--link-flaps".into(),
            "0".into(),
            "--flash-crowds".into(),
            "1".into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(text.lines().count(), 9, "header + 8 ticks");

        run(&[
            "replay".into(),
            "--trace".into(),
            trace_path.clone(),
            "--budgets".into(),
            "1,4".into(),
            "--bench-out".into(),
            bench_path.clone(),
        ])
        .unwrap();
        let report = std::fs::read_to_string(&bench_path).unwrap();
        let json = nws_service::json::parse(&report).unwrap();
        assert_eq!(json.get("bench").and_then(|b| b.as_str()), Some("replay"));
        assert_eq!(json.get("curves").unwrap().as_arr().unwrap().len(), 4);

        // A single forecast run with hysteresis also works end to end.
        run(&[
            "replay".into(),
            "--trace".into(),
            trace_path,
            "--resolve-every".into(),
            "2".into(),
            "--forecast".into(),
            "--hysteresis".into(),
            "0.02".into(),
        ])
        .unwrap();
    }

    #[test]
    fn topo_export_roundtrip_through_tempfile() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("geant.topo");
        std::fs::write(&path, nws_topo::format::to_text(&geant())).unwrap();
        cmd_topo(&["validate".into(), path.to_string_lossy().into_owned()]).unwrap();
    }

    #[test]
    fn topo_stats_builtin() {
        cmd_topo(&["stats".into(), "geant".into()]).unwrap();
        assert!(cmd_topo(&["stats".into()]).is_err());
    }

    #[test]
    fn solve_rejects_bad_flags() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let task_path = dir.join("task2.nws");
        std::fs::write(&task_path, "theta 1000\nod JANET NL 30000\n").unwrap();
        let err = cmd_solve(
            &[
                "--builtin".into(),
                "geant".into(),
                task_path.to_string_lossy().into_owned(),
                "--bogus".into(),
            ],
            &PlacementConfig::default(),
            &ObsSetup::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unexpected argument"));
        assert!(is_usage(&err));
        let err = cmd_solve(
            &[
                "--builtin".into(),
                "geant".into(),
                task_path.to_string_lossy().into_owned(),
                "--dot".into(),
            ],
            &PlacementConfig::default(),
            &ObsSetup::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--dot requires"));
        assert!(is_usage(&err));
    }

    #[test]
    fn solve_writes_dot_file() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let task_path = dir.join("task3.nws");
        std::fs::write(
            &task_path,
            "theta 1000\nod JANET NL 30000\nod JANET LU 20\n",
        )
        .unwrap();
        let dot_path = dir.join("sol.dot");
        cmd_solve(
            &[
                "--builtin".into(),
                "geant".into(),
                task_path.to_string_lossy().into_owned(),
                "--dot".into(),
                dot_path.to_string_lossy().into_owned(),
            ],
            &PlacementConfig::default(),
            &ObsSetup::default(),
        )
        .unwrap();
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.contains("color=red"), "activated monitors highlighted");
    }

    #[test]
    fn solve_from_files() {
        let dir = std::env::temp_dir().join("nws_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let task_path = dir.join("task.nws");
        std::fs::write(
            &task_path,
            "theta 20000\nod JANET NL 30000\nod JANET LU 20\nbackground gravity 400000 0.5 7\n",
        )
        .unwrap();
        cmd_solve(
            &[
                "--builtin".into(),
                "geant".into(),
                task_path.to_string_lossy().into_owned(),
            ],
            &PlacementConfig::default(),
            &ObsSetup::default(),
        )
        .unwrap();
    }
}
