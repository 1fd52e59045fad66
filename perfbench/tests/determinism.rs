//! Determinism self-test of the benchmark: the generated inputs depend
//! only on the seed, two runs of a workload do identical solver, rebuild
//! and journal work, and the traced run's in-process pass does the same
//! solver work as its TCP pass. The last test runs every workload end to
//! end, untraced and traced, and checks that each reports exactly the
//! metrics `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` (debug builds of the solver are slow).

use nws_perfbench::instance::{backbone_task, base_state, replay_trace};
use nws_perfbench::replay::replay_ticks;
use nws_perfbench::serving::{counter, inproc_pass, monitors_match, tcp_pass, traced_passes, Plan};
use nws_perfbench::spans::Tracer;
use nws_perfbench::{run, Workdir, WORKLOADS};
use nws_service::json::{self, Json};
use std::path::Path;

fn workdir(tag: &str) -> Workdir {
    Workdir::create(Path::new(env!("CARGO_TARGET_TMPDIR")), tag).expect("work directory")
}

const WORK_COUNTERS: [&str; 4] = [
    "solver_iterations_total",
    "eval_fused_calls_total",
    "state_epoch_rebuilds_total",
    "wal_bytes",
];

#[test]
fn inputs_depend_only_on_the_seed() {
    let a = Plan::geant_write(7, 1).lines;
    assert_eq!(a, Plan::geant_write(7, 1).lines);
    assert_ne!(a, Plan::geant_write(8, 1).lines);
    assert!(a.iter().any(|l| l.contains("fail_link")));
    assert!(a.iter().any(|l| l.contains("restore_link")));
    assert!(a.iter().any(|l| l.contains("set_theta")));

    assert_eq!(backbone_task().topology().num_links(), 288);
    assert_eq!(backbone_task().ods().len(), 132);
    let a = Plan::backbone_mixed(7, 1).lines;
    assert_eq!(a, Plan::backbone_mixed(7, 1).lines);
    assert_ne!(a, Plan::backbone_mixed(8, 1).lines);

    let backbone = base_state(&backbone_task());
    let ta = replay_trace(&backbone, 96, 7);
    assert_eq!(ta.encode(), replay_trace(&backbone, 96, 7).encode());
    assert_ne!(ta.encode(), replay_trace(&backbone, 96, 8).encode());
    assert_eq!(
        Plan::replay_probe(&ta, 8, 7).lines,
        Plan::replay_probe(&ta, 8, 7).lines
    );
}

#[test]
fn geant_write_runs_repeat_their_work_exactly() {
    let work = workdir("determinism-geant");
    let plan = Plan::geant_write(3, 1);
    let first = tcp_pass(&plan, &work, "first", false);
    let (second, inproc) = traced_passes(&plan, &work);
    for name in WORK_COUNTERS {
        let (x, y) = (
            counter(&first.metrics, name),
            counter(&second.metrics, name),
        );
        assert!(x > 0, "{name} is counted");
        assert_eq!(x, y, "{name} differs between two runs");
        // The traced run's in-process pass does the TCP pass's work.
        assert_eq!(
            inproc.snapshot.counter(name).unwrap_or(0),
            y,
            "{name}: in-process pass differs from the TCP pass"
        );
    }
    assert_eq!(first.monitors.encode(), second.monitors.encode());
    assert_eq!(first.writes, plan.lines.len() as u64);
    assert_eq!(second.acks.len(), plan.lines.len());
    assert!(!second.read_answers.is_empty());
}

#[test]
fn backbone_mixed_writes_repeat_their_work_exactly() {
    let work = workdir("determinism-mixed");
    let plan = Plan::backbone_mixed(5, 1);
    let first = tcp_pass(&plan, &work, "first", false);
    let second = tcp_pass(&plan, &work, "second", false);
    let inproc = inproc_pass(&plan, None, None, None);
    for name in &WORK_COUNTERS[..3] {
        let (x, y) = (
            counter(&first.metrics, name),
            counter(&second.metrics, name),
        );
        assert!(x > 0, "{name} is counted");
        assert_eq!(x, y, "{name} differs between two runs");
        assert_eq!(inproc.snapshot.counter(name).unwrap_or(0), x);
    }
    // Reads ran beside the writes and did not change the writes' work.
    assert!(first.reads > 0 && second.reads > 0);
    assert_eq!(first.monitors.encode(), second.monitors.encode());
    assert!(monitors_match(&first.monitors, &inproc.state));
}

#[test]
fn replay_runs_repeat_their_work_exactly() {
    let mut base = base_state(&backbone_task());
    base.resolve(false).expect("startup solve");
    let trace = replay_trace(&base, 60, 11);
    let a = replay_ticks(base.clone(), &trace, None);
    let mut tracer = Tracer::with_capacity(trace.ticks.len() * 4);
    let b = replay_ticks(base, &trace, Some(&mut tracer));
    assert_eq!(a.solver.iterations, b.solver.iterations);
    assert_eq!(a.solver.releases, b.solver.releases);
    assert_eq!(a.solver.certified, b.solver.certified);
    assert_eq!(a.mismatched, 0);
    assert_eq!(tracer.len(), trace.ticks.len() * 4);
    let objective = |s: &nws_service::ServiceState| s.installed().map(|i| i.objective);
    assert_eq!(objective(&a.state), objective(&b.state));
}

/// The metric names of one list in `BENCHMARK.json`.
fn benchmark_names(list: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_the_benchmark_metrics() {
    let end_to_end = benchmark_names("end_to_end");
    let per_layer = benchmark_names("per_layer");
    for workload in WORKLOADS {
        for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let work = workdir(&format!("contract-{workload}-{traced}"));
            let report = run(workload, 2, 1, traced, &work);
            let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let mut expected: Vec<&str> = expected.iter().map(String::as_str).collect();
            names.sort_unstable();
            expected.sort_unstable();
            assert_eq!(names, expected, "{workload} traced={traced}");
            assert!(
                report.correct(),
                "{workload} traced={traced}: {:?}",
                report.checks
            );
            assert!(report.attempted > 0);
        }
    }
}
