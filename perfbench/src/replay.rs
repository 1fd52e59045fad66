//! backbone_replay: a seeded trace replayed tick by tick through the
//! public `ServiceState` calls `nws replay --resolve-every 1` makes per
//! tick (`mutate_spec` for the demand batch and the link events, then
//! `resolve`, then `evaluate_installed`), with the recorder disabled as
//! in `nws replay`. The speed probe is sampled before every tick, outside
//! the tick's time.

use crate::instance::{backbone_task, base_state, replay_trace, tick_requests};
use crate::layers::{self, SolverTotals};
use crate::report::Report;
use crate::serving::{self, Plan};
use crate::spans::{self, SpanId, Tracer};
use crate::stats::{self, SpeedProbe, Timings};
use crate::Workdir;
use nws_obs::Recorder;
use nws_scenario::Trace;
use nws_service::ServiceState;
use std::time::Instant;

/// Ticks replayed per second of `--seconds`: on a 2-vCPU host a tick
/// takes 8 to 12 ms, so the timed phase runs about as long as `--seconds`.
const TICKS_PER_SECOND: u64 = 100;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ticks sent through the serving layers' probe in the traced run.
const PROBE_TICKS: usize = 64;

/// What one replay pass measured.
pub struct ReplayPass {
    /// Per-tick latency, and the pass's wall time.
    pub tick_ms: Timings,
    /// Work and outcome totals of the ticks' solves.
    pub solver: SolverTotals,
    /// Certified ticks whose delivered objective differed from the
    /// objective just installed.
    pub mismatched: u64,
    /// CPU time of the pass, milliseconds.
    pub cpu_ms: f64,
    /// The state after the last tick.
    pub state: ServiceState,
}

/// Closes `prev` (when tracing) and opens the next sibling span.
fn next_span(
    tracer: &mut Option<&mut Tracer>,
    prev: Option<SpanId>,
    name: &'static str,
    root: Option<SpanId>,
    op: u32,
) -> Option<SpanId> {
    let t = tracer.as_deref_mut()?;
    if let Some(p) = prev {
        t.close(p);
    }
    Some(t.open(name, root, op))
}

/// Replays every tick of `trace` on `state`. With a tracer, each tick and
/// each call in it is a span; the calls made are the same either way.
///
/// # Panics
/// On a spec or solver error: the trace generator only emits solvable
/// epochs, so an error is a defect of the program under test.
pub fn replay_ticks(
    mut state: ServiceState,
    trace: &Trace,
    mut tracer: Option<&mut Tracer>,
) -> ReplayPass {
    let mut tick_ms = Timings::new(trace.ticks.len(), 1);
    let mut solver = SolverTotals::default();
    let mut mismatched = 0u64;
    let cpu0 = stats::cpu_ms().unwrap_or(0.0);
    for tick in &trace.ticks {
        let op = tick.t as u32;
        tick_ms.before_op();
        let t0 = Instant::now();
        let root = tracer.as_deref_mut().map(|t| t.open("tick", None, op));
        let span = next_span(&mut tracer, None, "mutate_spec", root, op);
        for req in tick_requests(tick) {
            state.mutate_spec(&req).expect("trace mutations apply");
        }
        let span = next_span(&mut tracer, span, "resolve", root, op);
        let report = state.resolve(false).expect("trace epochs are solvable");
        let span = next_span(&mut tracer, span, "evaluate_installed", root, op);
        let (delivered, _) = state
            .evaluate_installed()
            .expect("an installed plan evaluates");
        if let (Some(t), Some(s), Some(r)) = (tracer.as_deref_mut(), span, root) {
            t.close(s);
            t.close(r);
        }
        tick_ms.push(t0.elapsed());
        solver.add(&report);
        if report.kkt && !report.degraded && delivered != report.objective {
            mismatched += 1;
        }
    }
    tick_ms.finish();
    ReplayPass {
        tick_ms,
        solver,
        mismatched,
        cpu_ms: stats::cpu_ms().unwrap_or(0.0) - cpu0,
        state,
    }
}

/// The timed set-up: instance build, trace parse, `from_task` and the
/// startup solve. Returns the seconds taken, the parse time in
/// milliseconds, the parsed trace and the solved state.
fn set_up(trace_path: &std::path::Path) -> (f64, f64, Trace, ServiceState) {
    let t0 = Instant::now();
    let task = backbone_task();
    let text = std::fs::read_to_string(trace_path).expect("read the trace file");
    let p0 = Instant::now();
    let trace = Trace::parse(&text).expect("the generated trace parses");
    let parse_ms = p0.elapsed().as_secs_f64() * 1e3;
    let mut state = base_state(&task);
    state.resolve(false).expect("startup solve");
    (t0.elapsed().as_secs_f64(), parse_ms, trace, state)
}

/// Runs backbone_replay; with `traced`, also the traced pass, the serving
/// layers' probe and the per-layer metrics.
pub fn run(seed: u64, seconds: u64, traced: bool, work: &Workdir, report: &mut Report) {
    let calib = stats::calibrate_ms();
    let ticks = TICKS_PER_SECOND * seconds;
    let task = backbone_task();
    let trace_path = work.path("trace.jsonl");
    {
        let base = base_state(&task);
        let trace = replay_trace(&base, ticks, seed);
        std::fs::write(&trace_path, trace.encode()).expect("write the trace file");
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut parses = Vec::with_capacity(SETUP_REPS);
    let mut probe = SpeedProbe::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // A set-up is single-threaded compute like a tick, and is scaled
        // like one, by the probe samples taken just before and after it.
        let before = probe.sample();
        let (s, p, trace, state) = set_up(&trace_path);
        setups.push((s, s * 0.5 * (before + probe.sample())));
        parses.push(p);
        ready = Some((trace, state));
    }
    let (trace, state) = ready.expect("at least one set-up");
    let flaps = trace.ticks.iter().filter(|t| !t.events.is_empty()).count();

    report.context("nproc", stats::nproc());
    report.context("seed", seed);
    report.context("seconds", seconds);
    report.context(
        "instance",
        format!(
            "backbone: {} links, {} ODs, objective nnz {}",
            task.topology().num_links(),
            task.ods().len(),
            layers::objective_nnz(&task)
        ),
    );
    report.context("trace", format!("{ticks} ticks, {flaps} with link events"));
    report.context("machine.calib_ms", format!("{calib:.3}"));

    let pass = replay_ticks(state.clone(), &trace, None);
    let ticks_n = pass.tick_ms.raw.len() as u64;
    report.attempted = ticks_n;
    report.failed = ticks_n - pass.solver.certified;
    report.check(
        "delivered == installed objective",
        pass.mismatched == 0,
        format!(
            "{} of {} certified ticks differ",
            pass.mismatched, pass.solver.certified
        ),
    );
    let (installed, cold) = layers::shadow_cold(&pass.state);
    report.check(
        "installed vs shadow cold solve",
        layers::rel_diff(installed, cold) <= 1e-9,
        format!(
            "installed {installed:.12e} cold {cold:.12e} rel {:.2e}",
            layers::rel_diff(installed, cold)
        ),
    );

    if !traced {
        report.end_to_end(&setups, "tick", &pass.tick_ms, None);
        return;
    }

    // Traced pass: the same ticks from the same solved state, with spans
    // around every call and the solver's own span tree recorded.
    let recorder = Recorder::enabled();
    let mut traced_state = state;
    traced_state.set_recorder(recorder.clone());
    let mut tracer = Tracer::with_capacity(trace.ticks.len() * 4 + 16);
    let tpass = replay_ticks(traced_state, &trace, Some(&mut tracer));
    let snap = recorder.snapshot();
    let totals = tracer.totals();
    let _ = tracer.write_tsv(&work.out_path("spans-backbone_replay.tsv"));
    report.check(
        "traced solver work == untraced",
        tpass.solver.iterations == pass.solver.iterations
            && tpass.solver.releases == pass.solver.releases,
        format!(
            "iterations {} / {}, releases {} / {}",
            tpass.solver.iterations,
            pass.solver.iterations,
            tpass.solver.releases,
            pass.solver.releases
        ),
    );
    report.check(
        "span buffer kept every span",
        tracer.dropped() == 0,
        format!("{} spans dropped", tracer.dropped()),
    );
    report.check(
        "traced pass delivered == installed",
        tpass.mismatched == 0,
        format!("{} certified ticks differ", tpass.mismatched),
    );

    // The serving layers are off replay's path; a short probe sends the
    // trace's first ticks through an in-memory daemon to measure them on
    // replay's inputs.
    let plan = Plan::replay_probe(&trace, PROBE_TICKS, seed);
    let (a, b) = serving::traced_passes(&plan, work);
    report.check(
        "probe: tcp monitors == in-process",
        serving::monitors_match(&a.monitors, &b.state),
        format!("{} monitors", a.monitors.as_arr().map_or(0, <[_]>::len)),
    );

    layers::solver_metrics(report, &snap, ticks_n, &tpass.solver);
    layers::core_metrics(report, &snap, &task);
    layers::state_metrics(report, &snap, &tpass.state, &task, ticks_n);
    let mean = |name: &str| spans::mean_ms(&totals, name).unwrap_or(f64::NAN);
    report.metric(
        "state.evaluate_ms",
        mean("evaluate_installed"),
        "ms",
        Some(ticks_n),
    );
    report.metric(
        "state.mutate_us",
        mean("mutate_spec") * 1e3,
        "us",
        Some(ticks_n),
    );
    serving::serving_layers(report, &plan, &a, &b, a.client.retries, a.client.reconnects);
    layers::obs_metrics(report, &snap);
    report.metric(
        "scenario.parse_ms",
        stats::median(&parses),
        "ms",
        Some(parses.len() as u64),
    );
    report.metric(
        "process.cpu_ms_per_op",
        pass.cpu_ms / ticks_n as f64,
        "ms",
        Some(ticks_n),
    );
    report.metric("machine.calib_ms", calib, "ms", Some(5));
    let root = spans::find(&totals, "tick").expect("tick spans");
    report.metric(
        "trace.root_self_us",
        root.self_ms / root.count as f64 * 1e3,
        "us",
        Some(root.count),
    );
    report.metric(
        "trace.overhead_pct",
        layers::overhead_pct(&pass.tick_ms.scaled, &tpass.tick_ms.scaled),
        "%",
        None,
    );
    report.metric("trace.spans", tracer.len() as f64, "count", None);
    report.notes.extend(spans::table("replay", &totals));
}
