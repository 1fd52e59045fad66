//! The §I synthetic day, replayed through the scenario engine.
//!
//! The `diurnal` experiment generates one diurnal cycle of demand over the
//! GEANT/JANET task and replays it under monitoring policies that differ
//! only in how often they re-solve. This module holds that day and the
//! replay loop, so the experiment and its tests run the same thing.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_obs::Recorder;
use nws_scenario::{
    generate_trace, oracle_series, run_replay, GeneratorConfig, OracleTick, ReplayOutcome,
    ReplayPolicy,
};
use nws_service::{ServiceError, ServiceState};

/// The experiment's policies: a label and a re-solve interval in ticks.
/// The static policy's interval is the whole day, so only tick 0 re-solves.
pub const POLICIES: [(&str, u64); 3] =
    [("static", 48), ("reopt every 12", 12), ("reopt every 1", 1)];

/// The experiment's day: 48 ticks of one diurnal period with a 3× swing,
/// 20 % noise and OD peaks staggered across time zones. It has no flash
/// crowds and no link flaps, so only a policy's budget schedules re-solves.
pub fn diurnal_day() -> GeneratorConfig {
    GeneratorConfig {
        ticks: 48,
        period: 48,
        diurnal_swing: 3.0,
        noise_cv: 0.2,
        phase_spread: 0.4,
        flash_crowds: 0,
        link_flaps: 0,
        seed: 20041122,
        ..GeneratorConfig::default()
    }
}

/// Replays `day` over the JANET task once per interval in `every`, as
/// [`ReplayPolicy::reactive`] with that interval, and returns the oracle
/// series with one outcome per interval. Every tick scores the plan in
/// force against an oracle that re-solves it; background traffic stays at
/// its base loads.
///
/// # Errors
/// Fails when a tick of the oracle or of a replay does not solve.
pub fn run_day(
    day: &GeneratorConfig,
    every: &[u64],
) -> Result<(Vec<OracleTick>, Vec<ReplayOutcome>), ServiceError> {
    let base = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let trace = generate_trace(&base, day);
    let oracle = oracle_series(&base, &trace)?;
    let recorder = Recorder::disabled();
    let outcomes = every
        .iter()
        .map(|&n| {
            run_replay(
                &base,
                &trace,
                &ReplayPolicy::reactive(n),
                &oracle,
                &recorder,
            )
        })
        .collect::<Result<_, _>>()?;
    Ok((oracle, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_optimizes_once() {
        // The experiment's static interval, and any longer one, re-solves
        // only at tick 0.
        let day = diurnal_day();
        let (_, out) = run_day(&day, &[POLICIES[0].1, day.ticks + 5]).unwrap();
        for o in &out {
            assert_eq!(o.per_tick.len() as u64, day.ticks);
            assert_eq!(o.resolves, 1);
            assert!(o.per_tick[0].resolved);
            assert!(o.per_tick[1..].iter().all(|t| !t.resolved));
        }
    }

    #[test]
    fn periodic_policy_reoptimizes_on_schedule() {
        // On a day with no flaps, `reactive(n)` re-solves exactly at
        // t % n == 0: the experiment's intervals and one that does not
        // divide the day.
        let day = diurnal_day();
        let every = [POLICIES[1].1, POLICIES[2].1, 5];
        let (_, out) = run_day(&day, &every).unwrap();
        for (&n, o) in every.iter().zip(&out) {
            for tick in &o.per_tick {
                assert_eq!(tick.resolved, tick.t % n == 0, "every {n}: tick {}", tick.t);
            }
            assert_eq!(o.resolves, day.ticks.div_ceil(n), "every {n}");
        }
    }
}
