//! Trace replay under a re-solve budget, scored against a per-tick oracle.
//!
//! Replay drives a [`ServiceState`] through a [`Trace`] tick by tick. A
//! tick is one transaction: the full demand snapshot lands as a single
//! batched `update_demands` spec mutation (one epoch rebuild when a solve
//! follows), then any link events. Whether the tick's spec change is
//! followed by a warm re-solve is the *budget policy*:
//!
//! - **reactive**: re-solve on every tick with `t ≡ 0 (mod N)`, using the
//!   tick's observed demands;
//! - **forecast**: re-solve on the same schedule, but against *predicted*
//!   mid-window demands (`h = (N−1)/2` ticks ahead), so the installed
//!   configuration matches the middle of the window it has to serve rather
//!   than its opening tick. The prediction is *anchored*: it starts from
//!   the tick's observed demand and adds only the (damped, relatively
//!   capped) Holt trend step `d·h·b`, never the smoothed level — so when
//!   the trend is uninformative the forecast solve degenerates to the
//!   reactive one instead of paying the smoother's lag, and a transient
//!   (flash-crowd onset) cannot catapult the extrapolation. An optional
//!   hysteresis dead-band suppresses installs whose rates barely move
//!   (rate-churn guard).
//!
//! Link events always force a re-solve in both modes — serving rates for
//! a fibre that no longer exists is not a budget question.
//!
//! The oracle re-solves on *every* tick with the observed demands; its
//! certified objective is the best any policy could deliver. Scoring
//! compares the replayed state's *delivered* objective (installed rates
//! evaluated against the tick's true task, via
//! [`ServiceState::evaluate_installed`], which scores a plan that
//! overspends θ on the tick's loads scaled down to θ) against the
//! oracle's, plus
//! per-OD relative errors derived from the utility model: the paper's
//! utility is `A_k = 1 − E[SRE_k]`, so `√(1 − A_k)` is the expected
//! relative error of OD `k`'s estimate.

use crate::forecast::{HoltConfig, HoltForecaster, Hysteresis};
use crate::trace::Trace;
use nws_obs::Recorder;
use nws_service::{Request, ServiceError, ServiceState};

/// Floor for predicted demands handed to the solver (the protocol bound
/// is `size > 1`).
const MIN_PREDICTED_SIZE: f64 = 1.5;

/// How a replay decides which ticks re-solve.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// Re-solve on schedule with observed demands.
    Reactive,
    /// Re-solve on schedule with Holt-predicted mid-window demands.
    Forecast,
}

impl Mode {
    /// The wire/report name of the mode.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Reactive => "reactive",
            Mode::Forecast => "forecast",
        }
    }
}

/// Budget policy for one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPolicy {
    /// Re-solve every `N` ticks (1 = every tick). Must be ≥ 1.
    pub resolve_every: u64,
    /// Reactive or forecast scheduling.
    pub mode: Mode,
    /// Smoothing parameters of the per-OD forecasters (forecast mode).
    pub holt: HoltConfig,
    /// Damping applied to the trend step of an anchored forecast
    /// (forecast mode): the solve input is `y + damping·h·b`. 1 trusts the
    /// trend fully, 0 reduces forecast mode to reactive.
    pub trend_damping: f64,
    /// Relative cap on the trend step: `|step| ≤ cap·y`. Guards against
    /// runaway extrapolation off a transient. Non-positive disables it.
    pub step_cap: f64,
    /// Relative dead-band on monitor-rate changes; 0 installs every solve.
    pub hysteresis: f64,
}

impl ReplayPolicy {
    /// A reactive policy re-solving every `n` ticks.
    pub fn reactive(n: u64) -> Self {
        ReplayPolicy {
            resolve_every: n.max(1),
            mode: Mode::Reactive,
            holt: HoltConfig::default(),
            trend_damping: 0.7,
            step_cap: 0.2,
            hysteresis: 0.0,
        }
    }

    /// A forecast policy re-solving every `n` ticks.
    pub fn forecast(n: u64) -> Self {
        ReplayPolicy {
            mode: Mode::Forecast,
            ..ReplayPolicy::reactive(n)
        }
    }
}

/// The oracle's answer for one tick.
#[derive(Debug, Clone)]
pub struct OracleTick {
    /// Certified optimal objective for the tick's spec.
    pub objective: f64,
    /// Per-OD utilities at the optimum, tracked-OD order.
    pub utilities: Vec<f64>,
}

/// Score of one replayed tick.
#[derive(Debug, Clone)]
pub struct TickScore {
    /// Tick index.
    pub t: u64,
    /// Objective the installed rates deliver against the tick's true task.
    pub delivered: f64,
    /// The oracle's certified optimum for the same task.
    pub oracle: f64,
    /// Relative optimality gap `(oracle − delivered)/oracle`.
    pub gap: f64,
    /// Whether this tick ran (and installed) a re-solve.
    pub resolved: bool,
}

/// Everything one replay run produces.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The policy that ran.
    pub policy: ReplayPolicy,
    /// Ticks replayed.
    pub ticks: u64,
    /// Solves executed (scheduled, forced by link events, or startup).
    pub resolves: u64,
    /// Scheduled solves whose result the hysteresis dead-band discarded.
    pub suppressed: u64,
    /// Per-tick scores in order.
    pub per_tick: Vec<TickScore>,
    /// Mean relative optimality gap over all ticks.
    pub mean_gap: f64,
    /// Worst per-tick relative gap.
    pub max_gap: f64,
    /// Gap at the final tick.
    pub final_gap: f64,
    /// Quantiles of the delivered per-OD expected relative error
    /// `√(1 − A_k)`, pooled over every (tick, OD).
    pub err_p50: f64,
    /// 90th percentile of the pooled delivered per-OD relative error.
    pub err_p90: f64,
    /// 99th percentile of the pooled delivered per-OD relative error.
    pub err_p99: f64,
    /// Total L1 rate movement across installs (churn).
    pub rate_churn: f64,
    /// Mean absolute relative one-step forecast error (forecast mode).
    pub forecast_mae: Option<f64>,
}

/// Per-OD expected relative error at utility `a` under the SRE model.
fn rel_error(a: f64) -> f64 {
    (1.0 - a).max(0.0).sqrt()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Runs the oracle: a fresh certified re-solve on every tick's true spec.
/// Warm-started tick to tick (the optimum is the optimum regardless of the
/// starting point — every solve is KKT-checked).
///
/// # Errors
/// Any spec or solver error while replaying the trace.
pub fn oracle_series(base: &ServiceState, trace: &Trace) -> Result<Vec<OracleTick>, ServiceError> {
    let mut s = base.clone();
    if s.installed().is_none() {
        s.resolve(false)?;
    }
    let mut out = Vec::with_capacity(trace.ticks.len());
    for tick in &trace.ticks {
        apply_tick_spec(&mut s, tick)?;
        s.resolve(false)?;
        let (objective, utilities) = s.evaluate_installed()?;
        out.push(OracleTick {
            objective,
            utilities,
        });
    }
    Ok(out)
}

/// Applies one tick's spec changes (demand batch, then link events) as
/// spec-only mutations.
fn apply_tick_spec(
    s: &mut ServiceState,
    tick: &crate::trace::TraceTick,
) -> Result<(), ServiceError> {
    s.mutate_spec(&Request::UpdateDemands {
        updates: tick.demands.clone(),
    })?;
    for ev in &tick.events {
        s.mutate_spec(&ev.to_request())?;
    }
    Ok(())
}

/// Replays `trace` against a copy of `base` under `policy`, scoring every
/// tick against the precomputed `oracle` (from [`oracle_series`] on the
/// same trace). Counters land in `recorder`: `replay_ticks_total`,
/// `replay_resolves_total`, `replay_resolves_skipped_total`,
/// `replay_installs_suppressed_total`, and the
/// `replay_forecast_rel_error_pct` histogram.
///
/// # Errors
/// Any spec or solver error while replaying; also when `oracle` is shorter
/// than the trace.
pub fn run_replay(
    base: &ServiceState,
    trace: &Trace,
    policy: &ReplayPolicy,
    oracle: &[OracleTick],
    recorder: &Recorder,
) -> Result<ReplayOutcome, ServiceError> {
    if oracle.len() < trace.ticks.len() {
        return Err(ServiceError::State(format!(
            "oracle series has {} ticks, trace has {}",
            oracle.len(),
            trace.ticks.len()
        )));
    }
    let n = policy.resolve_every.max(1);
    let horizon = (n - 1) as f64 / 2.0;
    let hysteresis = Hysteresis {
        dead_band: policy.hysteresis,
    };

    let mut s = base.clone();
    if s.installed().is_none() {
        s.resolve(false)?;
    }
    // One forecaster per tracked OD, in tracking order; trace demand
    // snapshots are matched to ODs by name.
    let mut forecasters: Vec<HoltForecaster> =
        vec![HoltForecaster::new(policy.holt); s.ods().len()];
    let od_index = |s: &ServiceState, name: &str| s.ods().iter().position(|o| o.name == name);

    let mut resolves = 0u64;
    let mut suppressed = 0u64;
    let mut churn = 0.0f64;
    let mut forecast_errs: Vec<f64> = Vec::new();
    let mut per_tick: Vec<TickScore> = Vec::with_capacity(trace.ticks.len());
    let mut pooled_errs: Vec<f64> = Vec::new();

    for tick in &trace.ticks {
        recorder.counter_add("replay_ticks_total", 1);

        // One-step-ahead forecast quality, judged before the tick's
        // observations are absorbed.
        if matches!(policy.mode, Mode::Forecast) {
            for (name, actual) in &tick.demands {
                if let Some(k) = od_index(&s, name) {
                    if forecasters[k].observations() >= 2 {
                        let err = (forecasters[k].predict(1.0) - actual).abs() / actual;
                        forecast_errs.push(err);
                        recorder.observe("replay_forecast_rel_error_pct", 100.0 * err);
                    }
                }
            }
        }

        // The tick is one transaction: demand batch + link events, then at
        // most one re-solve.
        apply_tick_spec(&mut s, tick)?;
        for (name, actual) in &tick.demands {
            if let Some(k) = od_index(&s, name) {
                forecasters[k].observe(*actual);
            }
        }

        let scheduled = tick.t % n == 0;
        let forced = !tick.events.is_empty();
        let mut resolved = false;
        if scheduled || forced {
            let before: Vec<f64> = s
                .installed()
                .map(|i| i.rates_base.clone())
                .unwrap_or_default();
            match policy.mode {
                Mode::Reactive => {
                    s.resolve(false)?;
                    resolves += 1;
                    resolved = true;
                }
                Mode::Forecast => {
                    // Solve a scratch copy whose demands are the predicted
                    // mid-window sizes; the real spec keeps the observed
                    // truth for scoring and for future forecasts. The
                    // prediction anchors at the observed demand (already
                    // applied to the spec) and adds the damped, capped
                    // trend step towards mid-window.
                    let mut scratch = s.clone();
                    if horizon > 0.0 && !forced {
                        let predicted: Vec<(String, f64)> = s
                            .ods()
                            .iter()
                            .enumerate()
                            .map(|(k, o)| {
                                let f = &forecasters[k];
                                let step =
                                    policy.trend_damping * (f.predict(horizon) - f.predict(0.0));
                                let cap = if policy.step_cap > 0.0 {
                                    policy.step_cap * o.size
                                } else {
                                    f64::INFINITY
                                };
                                let size = (o.size + step.clamp(-cap, cap)).max(MIN_PREDICTED_SIZE);
                                (o.name.clone(), size)
                            })
                            .collect();
                        scratch.mutate_spec(&Request::UpdateDemands { updates: predicted })?;
                    }
                    scratch.resolve(false)?;
                    resolves += 1;
                    let candidate = &scratch.installed().expect("just resolved").rates_base;
                    if forced || before.is_empty() || hysteresis.should_install(&before, candidate)
                    {
                        s.install_from(&scratch)?;
                        resolved = true;
                    } else {
                        suppressed += 1;
                        recorder.counter_add("replay_installs_suppressed_total", 1);
                    }
                }
            }
            recorder.counter_add("replay_resolves_total", 1);
            if resolved {
                if let Some(inst) = s.installed() {
                    if before.len() == inst.rates_base.len() {
                        churn += before
                            .iter()
                            .zip(&inst.rates_base)
                            .map(|(a, b)| (a - b).abs())
                            .sum::<f64>();
                    }
                }
            }
        } else {
            recorder.counter_add("replay_resolves_skipped_total", 1);
        }

        // Score the tick: what the installed rates deliver on the *true*
        // task versus the oracle's certified optimum.
        let (delivered, utilities) = s.evaluate_installed()?;
        let o = &oracle[tick.t as usize];
        let gap = (o.objective - delivered) / o.objective.abs().max(f64::MIN_POSITIVE);
        pooled_errs.extend(utilities.iter().map(|&a| rel_error(a)));
        per_tick.push(TickScore {
            t: tick.t,
            delivered,
            oracle: o.objective,
            gap,
            resolved,
        });
    }

    let ticks = per_tick.len() as u64;
    let mean_gap = per_tick.iter().map(|x| x.gap).sum::<f64>() / ticks.max(1) as f64;
    let max_gap = per_tick.iter().map(|x| x.gap).fold(0.0, f64::max);
    let final_gap = per_tick.last().map(|x| x.gap).unwrap_or(0.0);
    pooled_errs.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
    let forecast_mae = if forecast_errs.is_empty() {
        None
    } else {
        Some(forecast_errs.iter().sum::<f64>() / forecast_errs.len() as f64)
    };
    Ok(ReplayOutcome {
        policy: policy.clone(),
        ticks,
        resolves,
        suppressed,
        err_p50: quantile(&pooled_errs, 0.50),
        err_p90: quantile(&pooled_errs, 0.90),
        err_p99: quantile(&pooled_errs, 0.99),
        per_tick,
        mean_gap,
        max_gap,
        final_gap,
        rate_churn: churn,
        forecast_mae,
    })
}
