//! End-to-end replay coverage: determinism for a fixed seed, the
//! accuracy-vs-budget ordering the CI gate asserts, forecast-vs-reactive
//! at equal budget, re-solving every tick against a static plan, stale
//! plans scored within θ, and the observability counters a replay emits.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_obs::Recorder;
use nws_scenario::{
    bench_report, generate_trace, oracle_series, run_replay, run_sweep, GeneratorConfig, Mode,
    ReplayOutcome, ReplayPolicy, Trace,
};
use nws_service::ServiceState;

fn base() -> ServiceState {
    ServiceState::from_task(&janet_task(), PlacementConfig::default())
}

fn day() -> Trace {
    // One full diurnal cycle at the bench shape (period 48), with a surge
    // and a flap. The period matters: the forecaster's linear trend step
    // only helps while the horizon is a small fraction of the wave.
    generate_trace(
        &base(),
        &GeneratorConfig {
            flash_crowds: 1,
            link_flaps: 1,
            flap_duration: 4,
            seed: 4242,
            ..GeneratorConfig::default()
        },
    )
}

/// The `diurnal` experiment's day: noisier, wider-staggered demand and no
/// flash crowd or link flap, so only the budget schedules re-solves.
fn calm_day() -> Trace {
    generate_trace(
        &base(),
        &GeneratorConfig {
            noise_cv: 0.2,
            phase_spread: 0.4,
            flash_crowds: 0,
            link_flaps: 0,
            seed: 20041122,
            ..GeneratorConfig::default()
        },
    )
}

#[test]
fn replay_is_deterministic_for_a_fixed_seed() {
    let s = base();
    let trace = day();
    // The trace itself round-trips through its file form.
    let trace2 = Trace::parse(&trace.encode()).unwrap();
    assert_eq!(trace2, trace);

    let oracle = oracle_series(&s, &trace).unwrap();
    let policy = ReplayPolicy::reactive(4);
    let rec = Recorder::disabled();
    let a = run_replay(&s, &trace, &policy, &oracle, &rec).unwrap();
    let b = run_replay(&s, &trace2, &policy, &oracle, &rec).unwrap();
    assert_eq!(a.resolves, b.resolves);
    assert_eq!(a.mean_gap.to_bits(), b.mean_gap.to_bits());
    for (x, y) in a.per_tick.iter().zip(&b.per_tick) {
        assert_eq!(x.delivered.to_bits(), y.delivered.to_bits());
        assert_eq!(x.oracle.to_bits(), y.oracle.to_bits());
        assert_eq!(x.resolved, y.resolved);
    }
}

#[test]
fn oracle_gap_grows_as_the_budget_shrinks() {
    let s = base();
    let trace = day();
    let rec = Recorder::disabled();
    let oracle = oracle_series(&s, &trace).unwrap();
    let entries = run_sweep(&s, &trace, &oracle, &[1, 4, 12], 0.0, &rec).unwrap();
    assert_eq!(entries.len(), 6);
    // No stale plan beats the certified oracle: one that overspends θ on
    // the tick's loads is scored scaled down to θ.
    for e in &entries {
        for tick in &e.outcome.per_tick {
            assert!(
                tick.gap >= -1e-12,
                "{} every {}: tick {} gap {}",
                e.outcome.policy.mode.name(),
                e.outcome.policy.resolve_every,
                tick.t,
                tick.gap
            );
        }
    }

    let gap = |mode: &Mode, n: u64| {
        entries
            .iter()
            .find(|e| e.outcome.policy.mode == *mode && e.outcome.policy.resolve_every == n)
            .map(|e| e.outcome.mean_gap)
            .unwrap()
    };
    // Re-solving every tick tracks the oracle to solver tolerance.
    assert!(
        gap(&Mode::Reactive, 1).abs() < 1e-6,
        "full-budget gap {}",
        gap(&Mode::Reactive, 1)
    );
    // Tolerance-padded monotonicity, same shape the CI gate enforces.
    let pad = 1e-4;
    for mode in [Mode::Reactive, Mode::Forecast] {
        assert!(
            gap(&mode, 1) <= gap(&mode, 4) + pad,
            "{}: {} vs {}",
            mode.name(),
            gap(&mode, 1),
            gap(&mode, 4)
        );
        assert!(
            gap(&mode, 4) <= gap(&mode, 12) + pad,
            "{}: {} vs {}",
            mode.name(),
            gap(&mode, 4),
            gap(&mode, 12)
        );
    }
    // Prediction beats reaction (or ties) at every starved budget.
    for n in [4u64, 12] {
        assert!(
            gap(&Mode::Forecast, n) <= gap(&Mode::Reactive, n) * 1.05 + pad,
            "forecast worse at N={n}: {} vs {}",
            gap(&Mode::Forecast, n),
            gap(&Mode::Reactive, n)
        );
    }
    // Equal budgets really were equal (no hysteresis here).
    for n in [1u64, 4, 12] {
        let pick = |mode: &Mode| {
            entries
                .iter()
                .find(|e| e.outcome.policy.mode == *mode && e.outcome.policy.resolve_every == n)
                .unwrap()
        };
        assert_eq!(
            pick(&Mode::Reactive).outcome.resolves,
            pick(&Mode::Forecast).outcome.resolves
        );
    }

    // The bench document carries one curve row per (mode, budget).
    let report = bench_report(&trace, &oracle, &entries);
    let curves = report.get("curves").unwrap().as_arr().unwrap();
    assert_eq!(curves.len(), 6);
    for row in curves {
        assert!(row.get("mean_gap").unwrap().as_f64().unwrap().is_finite());
        assert!(row.get("resolves").unwrap().as_u64().unwrap() > 0);
    }
}

#[test]
fn resolving_every_tick_never_delivers_less_than_a_static_plan() {
    let s = base();
    let trace = calm_day();
    let oracle = oracle_series(&s, &trace).unwrap();
    let rec = Recorder::disabled();
    let ticks = trace.ticks.len() as u64;
    let replay = |n| run_replay(&s, &trace, &ReplayPolicy::reactive(n), &oracle, &rec).unwrap();
    let (fresh, stale) = (replay(1), replay(ticks));
    for (a, b) in fresh.per_tick.iter().zip(&stale.per_tick) {
        assert!(
            a.delivered >= b.delivered * (1.0 - 1e-12),
            "tick {}: every tick {} < static {}",
            a.t,
            a.delivered,
            b.delivered
        );
    }
    let mean = |o: &ReplayOutcome| {
        o.per_tick.iter().map(|x| x.delivered).sum::<f64>() / o.per_tick.len() as f64
    };
    assert!(
        mean(&fresh) > mean(&stale),
        "every tick {} !> static {}",
        mean(&fresh),
        mean(&stale)
    );
}

#[test]
fn replay_counters_land_in_the_recorder() {
    let s = base();
    let trace = day();
    let oracle = oracle_series(&s, &trace).unwrap();
    let recorder = Recorder::enabled();
    run_replay(&s, &trace, &ReplayPolicy::forecast(4), &oracle, &recorder).unwrap();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("replay_ticks_total"), Some(48));
    let solved = snap.counter("replay_resolves_total").unwrap_or(0);
    let skipped = snap.counter("replay_resolves_skipped_total").unwrap_or(0);
    assert!(solved >= 48 / 4, "scheduled solves missing: {solved}");
    assert_eq!(
        solved + skipped,
        48,
        "every tick either solves or is counted as skipped"
    );
    // The forecast error histogram has been fed.
    let expo = snap.exposition(false);
    assert!(
        expo.contains("replay_forecast_rel_error_pct"),
        "missing forecast error histogram:\n{expo}"
    );
}
