//! The routing-epoch memo is invisible in results: a state that reuses
//! memoised routing ends every step of a seeded event sequence
//! bit-identical to a state that routes from scratch, and epochs that
//! only move demands, θ or the snapshot stack never route.

use nws_core::scenarios::janet_task;
use nws_core::{MeasurementTask, PlacementConfig};
use nws_obs::Recorder;
use nws_service::json::Json;
use nws_service::{Request, ServiceState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A copy of `state`'s recoverable state in a new state, whose memo is
/// empty: its next rebuild routes from scratch.
fn from_scratch(task: &MeasurementTask, state: &ServiceState) -> ServiceState {
    let mut s = ServiceState::from_task(task, PlacementConfig::default());
    s.restore_persisted(&state.persisted())
        .expect("a persisted state restores");
    s
}

/// One step of the sequence.
#[derive(Debug, Clone)]
enum Step {
    Event(Request),
    /// A spec-only demand batch: the installed plan goes stale.
    Stale(Vec<(String, f64)>),
    Snapshot,
    Rollback,
    Restore(Json),
}

fn apply(state: &mut ServiceState, step: &Step) -> Result<(), String> {
    let err = |e: nws_service::ServiceError| e.to_string();
    match step {
        Step::Event(req) => state.apply_event(req, false).map(|_| ()).map_err(err),
        Step::Stale(updates) => state
            .mutate_spec(&Request::UpdateDemands {
                updates: updates.clone(),
            })
            .map_err(err),
        Step::Snapshot => {
            state.snapshot();
            Ok(())
        }
        Step::Rollback => state.rollback().map(|_| ()).map_err(err),
        Step::Restore(doc) => state.restore_persisted(doc).map_err(err),
    }
}

fn next_step(
    rng: &mut StdRng,
    s: &ServiceState,
    theta: f64,
    nodes: &[String],
    docs: &[Json],
) -> Step {
    let ods = s.ods();
    let pick_od = |rng: &mut StdRng| &ods[rng.random_range(0..ods.len())];
    let roll = rng.random_range(0..100);
    match roll {
        0..=29 => {
            let od = pick_od(rng);
            Step::Event(Request::UpdateDemand {
                od: od.name.clone(),
                size: od.size * rng.random_range(0.7..1.3),
            })
        }
        30..=44 | 95..=99 => {
            let mut updates: Vec<(String, f64)> = Vec::new();
            for _ in 0..rng.random_range(1..6) {
                let od = pick_od(rng);
                if updates.iter().all(|(name, _)| *name != od.name) {
                    updates.push((od.name.clone(), od.size * rng.random_range(0.7..1.3)));
                }
            }
            if roll >= 95 {
                Step::Stale(updates)
            } else {
                Step::Event(Request::UpdateDemands { updates })
            }
        }
        45..=54 => Step::Event(Request::SetTheta {
            theta: theta * rng.random_range(0.5..1.5),
        }),
        55..=71 => {
            let failed = s.failed_fibres();
            if roll >= 65 && !failed.is_empty() {
                let (a, b) = failed[rng.random_range(0..failed.len())].clone();
                Step::Event(Request::RestoreLink { a, b })
            } else {
                let fibres = s.fibres();
                let (a, b) = fibres[rng.random_range(0..fibres.len())].clone();
                Step::Event(Request::FailLink { a, b })
            }
        }
        72..=77 => Step::Event(Request::AddOd {
            name: format!("OD{}", rng.random_range(0..1_000_000u32)),
            src: nodes[rng.random_range(0..nodes.len())].clone(),
            dst: nodes[rng.random_range(0..nodes.len())].clone(),
            size: rng.random_range(1e3..1e7),
        }),
        78..=83 => Step::Event(Request::RemoveOd {
            name: pick_od(rng).name.clone(),
        }),
        84..=88 => Step::Snapshot,
        89..=91 => Step::Rollback,
        _ => match docs.len() {
            0 => Step::Snapshot,
            n => Step::Restore(docs[rng.random_range(0..n)].clone()),
        },
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(objective, utilities)` of the installed plan, as bits.
fn delivered(s: &ServiceState) -> Result<(u64, Vec<u64>), String> {
    s.evaluate_installed()
        .map(|(objective, utilities)| (objective.to_bits(), bits(&utilities)))
        .map_err(|e| e.to_string())
}

/// Applies `step` to `state` and to a from-scratch copy of it, asserts
/// that both end bit-identical, and returns the outcome.
fn step_matches_scratch(
    task: &MeasurementTask,
    state: &mut ServiceState,
    step: &Step,
) -> Result<(), String> {
    let mut reference = from_scratch(task, state);
    let got = apply(state, step);
    assert_eq!(
        got,
        apply(&mut reference, step),
        "{step:?}: outcomes differ"
    );
    let (a, b) = (state.installed().unwrap(), reference.installed().unwrap());
    assert_eq!(
        bits(&a.rates_base),
        bits(&b.rates_base),
        "{step:?}: rates differ"
    );
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{step:?}");
    assert_eq!(
        state.persisted().encode(),
        reference.persisted().encode(),
        "{step:?}"
    );
    // The plan evaluated over the memo's routing (or this step's) equals
    // its evaluation over routing built from scratch.
    assert_eq!(
        delivered(state),
        delivered(&from_scratch(task, state)),
        "{step:?}: evaluation differs"
    );
    got
}

#[test]
fn memoised_routing_is_bit_identical_to_routing_from_scratch() {
    let task = janet_task();
    let recorder = Recorder::enabled();
    let mut state = ServiceState::from_task(&task, PlacementConfig::default());
    state.set_recorder(recorder.clone());
    state.resolve(false).expect("startup solve");
    let mut nodes: Vec<String> = state
        .fibres()
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect();
    nodes.sort();
    nodes.dedup();

    let mut rng = StdRng::seed_from_u64(0x5eed_e90c);
    let mut docs: Vec<Json> = Vec::new();
    let (mut applied, mut rejected) = (0, 0);
    for i in 0..90 {
        let step = next_step(&mut rng, &state, task.theta(), &nodes, &docs);
        if step_matches_scratch(&task, &mut state, &step).is_ok() {
            applied += 1;
        } else {
            rejected += 1;
        }
        if i % 7 == 0 {
            docs.push(state.persisted());
        }
    }
    // The sequence exercised both outcomes and mostly reused the memo.
    assert!(
        applied > 60 && rejected > 0,
        "{applied} applied, {rejected} rejected"
    );
    let snap = recorder.snapshot();
    let (builds, rebuilds) = (
        snap.counter("state_routing_builds_total").unwrap_or(0),
        snap.counter("state_epoch_rebuilds_total").unwrap_or(0),
    );
    assert!(
        2 * builds < rebuilds,
        "{builds} routing builds for {rebuilds} rebuilds"
    );
}

#[test]
fn clones_never_reuse_a_routing_stored_for_other_keys() {
    // Clones share one memo, so each stores routings the others' keys do
    // not match; the same number of failed fibres or tracked ODs must not
    // pass for the same ones.
    let task = janet_task();
    let mut a = ServiceState::from_task(&task, PlacementConfig::default());
    a.resolve(false).unwrap();
    let mut b = a.clone();
    let cut = |x: &str, y: &str| {
        Step::Event(Request::FailLink {
            a: x.into(),
            b: y.into(),
        })
    };
    step_matches_scratch(&task, &mut a, &cut("FR", "LU")).unwrap();
    step_matches_scratch(&task, &mut b, &cut("UK", "NL")).unwrap();
    step_matches_scratch(&task, &mut a, &cut("DE", "NL")).unwrap();
    step_matches_scratch(&task, &mut b, &cut("FR", "LU")).unwrap();

    // Same OD count, one endpoint moved.
    let mut c = a.clone();
    let remove = Step::Event(Request::RemoveOd {
        name: "JANET-NL".into(),
    });
    step_matches_scratch(&task, &mut c, &remove).unwrap();
    let add = Step::Event(Request::AddOd {
        name: "JANET-NL".into(),
        src: "JANET".into(),
        dst: "DE".into(),
        size: 9e6,
    });
    step_matches_scratch(&task, &mut c, &add).unwrap();
    let theta = Step::Event(Request::SetTheta { theta: 80_000.0 });
    step_matches_scratch(&task, &mut a, &theta).unwrap();
    step_matches_scratch(&task, &mut c, &theta).unwrap();
}

#[test]
fn only_routing_changes_route() {
    let task = janet_task();
    let recorder = Recorder::enabled();
    let mut s = ServiceState::from_task(&task, PlacementConfig::default());
    s.set_recorder(recorder.clone());
    let counts = || {
        let snap = recorder.snapshot();
        (
            snap.counter("state_routing_builds_total").unwrap_or(0),
            snap.counter("state_epoch_rebuilds_total").unwrap_or(0),
        )
    };
    s.resolve(false).unwrap();
    assert_eq!(counts(), (1, 1), "the startup solve routes once");

    // A demand-only batch, its re-solve and the evaluation of the new plan.
    let updates = s
        .ods()
        .iter()
        .map(|o| (o.name.clone(), o.size * 1.1))
        .collect();
    s.mutate_spec(&Request::UpdateDemands { updates }).unwrap();
    s.resolve(false).unwrap();
    s.evaluate_installed().unwrap();
    assert_eq!(counts(), (1, 3), "demand-only epochs reuse the routing");

    // Transactions that move θ or one demand, a rejected one, a query and
    // a clone's evaluation all reuse it too.
    s.apply_event(&Request::SetTheta { theta: 90_000.0 }, false)
        .unwrap();
    s.apply_event(
        &Request::UpdateDemand {
            od: "JANET-NL".into(),
            size: 2e6,
        },
        false,
    )
    .unwrap();
    assert!(s
        .apply_event(&Request::SetTheta { theta: 1e18 }, false)
        .is_err());
    s.accuracy(2, 1).unwrap();
    s.clone().evaluate_installed().unwrap();
    assert_eq!(counts(), (1, 8));

    // A fibre cut changes the routing: exactly one build, which the
    // evaluations of the new epoch reuse.
    s.snapshot();
    s.apply_event(
        &Request::FailLink {
            a: "FR".into(),
            b: "LU".into(),
        },
        false,
    )
    .unwrap();
    assert_eq!(counts(), (2, 9), "a link event routes exactly once");
    s.evaluate_installed().unwrap();
    s.check_spec().unwrap();
    assert_eq!(counts(), (2, 11));

    // Rolling back to the uncut network misses the memo: only a re-solve
    // stores a routing, so the rolled-back spec routes until one runs.
    s.rollback().unwrap();
    s.evaluate_installed().unwrap();
    assert_eq!(counts(), (3, 12));
    s.resolve(false).unwrap();
    s.evaluate_installed().unwrap();
    assert_eq!(counts(), (4, 14));
}
