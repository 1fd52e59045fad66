//! Per-layer measurements shared by the workloads: the solver's phase
//! times from the `nws-obs` span tree, and probes that time one public
//! function of a layer on the workload's own data.

use crate::instance::replay_trace;
use crate::report::Report;
use crate::stats::{self, Samples};
use nws_core::{MeasurementTask, PlacementConfig, PlacementObjective, ReducedIndex};
use nws_linalg::Vector;
use nws_obs::{Recorder, Snapshot};
use nws_routing::{OdPair, RoutingMatrix};
use nws_scenario::Trace;
use nws_service::{Request, ServiceState, SolveReport};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each layer probe; the probe reports their median.
pub const PROBE_REPS: usize = 9;

/// Relative difference of two objectives.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Non-zeros of the task's routing matrix (the objective's CSR size).
pub fn objective_nnz(task: &MeasurementTask) -> usize {
    (0..task.ods().len())
        .map(|k| task.routing().links_of_od(k).len())
        .sum()
}

/// The installed objective of `state` and the objective of a shadow cold
/// solve (`resolve(true)` on a clone). A concave program has one optimal
/// value, so the two agree to rounding when the installed plan is optimal.
///
/// # Panics
/// When nothing is installed or the re-solve fails; both are defects at
/// the end of a workload that solved every operation.
pub fn shadow_cold(state: &ServiceState) -> (f64, f64) {
    let installed = state.installed().expect("a plan is installed").objective;
    let mut probe = state.clone();
    probe.set_recorder(Recorder::disabled());
    let report = probe.resolve(true).expect("shadow re-solve");
    let cold = report
        .cold
        .expect("resolve(true) runs a cold solve")
        .objective;
    (installed, cold)
}

/// Median of `PROBE_REPS` timings of `f`, in milliseconds.
pub fn probe_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// The traced p50 of an operation against the untraced p50 of the same
/// run, in percent.
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    match (untraced.percentile_ms(0.5), traced.percentile_ms(0.5)) {
        (Some((u, _)), Some((t, _))) => (t / u - 1.0) * 100.0,
        _ => f64::NAN,
    }
}

/// Work and outcome totals over a pass's solves, from their reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SolverTotals {
    /// Solves.
    pub solves: u64,
    /// Solver iterations.
    pub iterations: u64,
    /// Active-set releases.
    pub releases: u64,
    /// Solve wall time, milliseconds.
    pub wall_ms: f64,
    /// Solves that were KKT-certified and not degraded.
    pub certified: u64,
}

impl SolverTotals {
    /// Adds one solve.
    pub fn add(&mut self, r: &SolveReport) {
        self.solves += 1;
        self.iterations += r.iterations as u64;
        self.releases += r.constraint_releases as u64;
        self.wall_ms += r.wall_ms;
        if r.kkt && !r.degraded {
            self.certified += 1;
        }
    }
}

/// Total time of every span named `name` in the solver's span tree.
fn span_total_ms(snap: &Snapshot, name: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.total_ms)
        .sum()
}

/// `solver.*`: solve time and work from the solves' own reports, phase
/// times from the recorder's span tree; times are per solve, counts are
/// totals over the pass's `ops` operations.
pub fn solver_metrics(report: &mut Report, snap: &Snapshot, ops: u64, t: &SolverTotals) {
    let solves = t.solves.max(1) as f64;
    let n = Some(t.solves);
    report.metric("solver.solve_ms", t.wall_ms / solves, "ms", n);
    report.metric("solver.iterations", t.iterations as f64, "count", n);
    report.metric("solver.releases", t.releases as f64, "count", n);
    report.metric(
        "solver.certified_ratio",
        t.certified as f64 / solves,
        "ratio",
        n,
    );
    for (metric, span) in [
        ("solver.line_search_ms", "line_search"),
        ("solver.direction_ms", "direction"),
        ("solver.projection_ms", "projection"),
        ("solver.kkt_ms", "kkt_check"),
    ] {
        report.metric(metric, span_total_ms(snap, span) / solves, "ms", n);
    }
    report.context("solves", format!("{} over {ops} operations", t.solves));
}

/// `core.*`: fused-evaluation calls counted by the recorder, and the time
/// of one `PlacementObjective::eval_fused` (value, gradient and both
/// directional derivatives) on the workload's own objective.
pub fn core_metrics(report: &mut Report, snap: &Snapshot, task: &MeasurementTask) {
    report.metric(
        "core.eval_fused_calls",
        snap.counter("eval_fused_calls_total").unwrap_or(0) as f64,
        "count",
        None,
    );
    let index = ReducedIndex::new(task);
    let objective = PlacementObjective::new(task, &index, PlacementConfig::default().rate_model);
    let dim = index.dim();
    let p = Vector::filled(dim, 1e-3);
    let s: Vector = (0..dim)
        .map(|i| if i % 2 == 0 { 1e-4 } else { -1e-4 })
        .collect::<Vec<f64>>()
        .into();
    let mut grad = Vector::zeros(dim);
    const CALLS: usize = 2_000;
    let ms = probe_ms(|| {
        for _ in 0..CALLS {
            black_box(objective.eval_fused(black_box(&p), Some(&s), Some(&mut grad)));
        }
    });
    report.metric(
        "core.eval_fused_us",
        ms * 1e3 / CALLS as f64,
        "us",
        Some((CALLS * PROBE_REPS) as u64),
    );
}

/// `state.rebuild_ms` (one `check_spec`, i.e. one epoch rebuild, on the
/// final state), `state.rebuilds_per_op` (the recorder's
/// `state_epoch_rebuilds_total` per operation) and `routing.build_ms`
/// (`RoutingMatrix::build` on the instance's topology and OD set).
pub fn state_metrics(
    report: &mut Report,
    snap: &Snapshot,
    state: &ServiceState,
    task: &MeasurementTask,
    ops: u64,
) {
    let mut probe = state.clone();
    probe.set_recorder(Recorder::disabled());
    report.metric(
        "state.rebuild_ms",
        probe_ms(|| probe.check_spec().expect("the final spec builds")),
        "ms",
        Some(PROBE_REPS as u64),
    );
    report.metric(
        "state.rebuilds_per_op",
        snap.counter("state_epoch_rebuilds_total").unwrap_or(0) as f64 / ops.max(1) as f64,
        "ratio",
        Some(ops),
    );
    let ods: Vec<OdPair> = task.ods().iter().map(|o| o.od).collect();
    report.metric(
        "routing.build_ms",
        probe_ms(|| {
            black_box(RoutingMatrix::build(task.topology(), &ods));
        }),
        "ms",
        Some(PROBE_REPS as u64),
    );
}

/// `state.evaluate_ms` and `state.mutate_us` for the serving workloads,
/// whose path calls neither directly: `evaluate_installed` on the final
/// state, and `mutate_spec` of the workload's first mutation, applied
/// again and again to a copy of it.
pub fn state_probes(report: &mut Report, state: &ServiceState, req: &Request) {
    let mut probe = state.clone();
    probe.set_recorder(Recorder::disabled());
    report.metric(
        "state.evaluate_ms",
        probe_ms(|| {
            black_box(
                probe
                    .evaluate_installed()
                    .expect("the final plan evaluates"),
            );
        }),
        "ms",
        Some(PROBE_REPS as u64),
    );
    const CALLS: usize = 1_000;
    report.metric(
        "state.mutate_us",
        probe_ms(|| {
            for _ in 0..CALLS {
                probe.mutate_spec(req).expect("the first mutation applies");
            }
        }) * 1e3
            / CALLS as f64,
        "us",
        Some((CALLS * PROBE_REPS) as u64),
    );
}

/// `scenario.parse_ms` for the serving workloads, which read no trace:
/// `Trace::parse` of a 96-tick trace generated on the workload's own
/// instance.
pub fn scenario_probe(report: &mut Report, state: &ServiceState, seed: u64) {
    let text = replay_trace(state, 96, seed).encode();
    report.metric(
        "scenario.parse_ms",
        probe_ms(|| {
            black_box(Trace::parse(&text).expect("a generated trace parses"));
        }),
        "ms",
        Some(PROBE_REPS as u64),
    );
}

/// `obs.*`: the cost of one `Recorder::counter_add` on one thread and
/// with two threads contending for the registry, and the spans the solver
/// records per solve.
pub fn obs_metrics(report: &mut Report, snap: &Snapshot) {
    const ADDS: usize = 200_000;
    let rec = Recorder::enabled();
    rec.counter_add("probe_total", 0);
    let single = probe_ms(|| {
        for _ in 0..ADDS {
            rec.counter_add(black_box("probe_total"), 1);
        }
    });
    report.metric(
        "obs.counter_add_ns",
        single * 1e6 / ADDS as f64,
        "ns",
        Some((ADDS * PROBE_REPS) as u64),
    );
    let contended = probe_ms(|| {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..ADDS {
                        rec.counter_add(black_box("probe_total"), 1);
                    }
                });
            }
        });
    });
    report.metric(
        "obs.counter_add_contended_ns",
        contended * 1e6 / ADDS as f64,
        "ns",
        Some((2 * ADDS * PROBE_REPS) as u64),
    );
    let solves: u64 = snap
        .spans
        .iter()
        .filter(|s| s.depth == 0 && s.name == "solve")
        .map(|s| s.count)
        .sum::<u64>()
        .max(1);
    let all: u64 = snap.spans.iter().map(|s| s.count).sum();
    report.metric(
        "obs.spans_per_solve",
        all as f64 / solves as f64,
        "count",
        Some(solves),
    );
}
