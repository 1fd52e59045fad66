//! The solver's default direction — truncated Newton steps on the settled
//! free face — on the placement objective. The curvature probe matches the
//! gradient's finite differences; Newton and the paper's Polak–Ribière
//! path certify the same optimum; and the solves stay sound where a Newton
//! step can go wrong: right after a release, on a face that has not
//! settled, and on the near-singular faces of warm re-solves.

mod common;

use common::perturbed_task;
use nws_core::maxmin::SoftMinObjective;
use nws_core::scenarios::{abilene_task, janet_task, janet_task_with, ring_task, BACKGROUND_SEED};
use nws_core::{
    solve_placement, solve_placement_warm, MeasurementTask, PlacementConfig, PlacementObjective,
    PlacementSolution, RateModel, ReducedIndex,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{Direction, Objective, SolverOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config(direction: Direction) -> PlacementConfig {
    PlacementConfig {
        solver: SolverOptions {
            direction,
            ..SolverOptions::default()
        },
        ..PlacementConfig::default()
    }
}

fn solve(task: &MeasurementTask, direction: Direction) -> PlacementSolution {
    solve_placement(task, &config(direction)).expect("task solves")
}

/// `|a − b| ≤ tol·max(|a|, |b|)` elementwise, against the largest entry.
fn close(a: &Vector, b: &Vector, tol: f64) -> bool {
    let scale = a.norm_inf().max(b.norm_inf());
    (0..a.len()).all(|i| (a[i] - b[i]).abs() <= tol * scale)
}

#[test]
fn curvature_probe_matches_gradient_differences() {
    for task in [janet_task(), ring_task(24, 30, 1)] {
        let index = ReducedIndex::new(&task);
        let obj = PlacementObjective::new(&task, &index, RateModel::Approximate);
        let dim = index.dim();
        // Rates in [4e-3, 8e-3] keep every OD's rate above its splice point
        // x₀ ≤ 1.5e-3, where the utility is C² but not C³.
        let p: Vector = (0..dim)
            .map(|i| 4e-3 + 4e-3 * (0.5 + 0.5 * (i as f64).sin()))
            .collect();
        let v: Vector = (0..dim).map(|i| (1.7 * i as f64).cos()).collect();
        let curvature = obj.prepare_curvature(&p).expect("approximate model");
        let mut bv = Vector::zeros(dim);
        curvature.apply(&v, &mut bv);
        // −∇²f·v ≈ −(∇f(p + h·v) − ∇f(p − h·v)) / 2h, with h moving no
        // rate by more than about 1e-4 of itself.
        let h = 1e-6 / v.norm_inf();
        let (mut plus, mut minus) = (p.clone(), p.clone());
        plus.axpy(h, &v);
        minus.axpy(-h, &v);
        let fd: Vector = (0..dim)
            .map(|i| -(obj.gradient(&plus)[i] - obj.gradient(&minus)[i]) / (2.0 * h))
            .collect();
        assert!(close(&bv, &fd, 1e-6), "apply {bv} vs differences {fd}");
        // vᵀ·B·v is the negated curvature along v.
        let along = -obj.curvature_along(&p, &v);
        assert!((v.dot(&bv) - along).abs() <= 1e-12 * along.abs());

        let diag = curvature.diagonal();
        let mut column = Vector::zeros(dim);
        for i in 0..dim {
            curvature.apply(&Vector::basis(dim, i), &mut column);
            assert!(
                (diag[i] - column[i]).abs() <= 1e-6 * column[i].abs(),
                "diagonal {i}: {} vs {}",
                diag[i],
                column[i]
            );
        }
    }
}

#[test]
fn only_the_approximate_model_prepares_curvature() {
    let task = janet_task();
    let index = ReducedIndex::new(&task);
    let p = Vector::filled(index.dim(), 5e-3);
    let exact = PlacementObjective::new(&task, &index, RateModel::Exact);
    assert!(exact.prepare_curvature(&p).is_none());
    // One preparation is one evaluation sweep, not a fused one.
    let rec = Recorder::enabled();
    let approx =
        PlacementObjective::new(&task, &index, RateModel::Approximate).with_recorder(rec.clone());
    assert!(approx.prepare_curvature(&p).is_some());
    let snap = rec.snapshot();
    assert_eq!(snap.counter("eval_calls_total"), Some(1));
    assert_eq!(snap.counter("eval_fused_calls_total"), None);
    assert!(SoftMinObjective::new(&approx, 50.0)
        .prepare_curvature(&p)
        .is_none());
}

#[test]
fn newton_and_the_paper_path_certify_the_same_optimum() {
    let mut cases: Vec<(String, MeasurementTask)> = (1..=16)
        .map(|s| (format!("ring(24, 30, {s})"), ring_task(24, 30, s)))
        .collect();
    for theta in [20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0] {
        let task = janet_task_with(theta, BACKGROUND_SEED).expect("valid θ");
        cases.push((format!("JANET θ={theta}"), task));
    }
    cases.push((
        "Abilene".into(),
        abilene_task(40_000.0, 7).expect("valid θ"),
    ));
    for (name, task) in &cases {
        let newton = solve(task, Direction::Newton);
        let pr = solve(task, Direction::PolakRibiere);
        assert!(
            newton.kkt_verified,
            "{name}: Newton {:?}",
            newton.diagnostics
        );
        assert!(
            pr.kkt_verified,
            "{name}: Polak–Ribière {:?}",
            pr.diagnostics
        );
        assert!(
            (newton.objective - pr.objective).abs() <= 1e-9 * pr.objective.abs(),
            "{name}: Newton {} vs Polak–Ribière {}",
            newton.objective,
            pr.objective
        );
    }
}

/// After a release the face has not settled: a Newton step there can
/// point the released monitor back out of the box, and a loop that then
/// re-clamps and releases it again cycles until the iteration cap.
#[test]
fn no_newton_step_right_after_a_release() {
    let task = ring_task(96, 132, 1);
    let newton = solve(&task, Direction::Newton);
    let pr = solve(&task, Direction::PolakRibiere);
    assert!(newton.kkt_verified, "{:?}", newton.diagnostics);
    assert!(
        newton.diagnostics.constraint_releases <= 5,
        "{:?}",
        newton.diagnostics
    );
    assert!(
        newton.diagnostics.iterations <= pr.diagnostics.iterations,
        "Newton {} vs Polak–Ribière {} iterations",
        newton.diagnostics.iterations,
        pr.diagnostics.iterations
    );
}

/// While bounds are still being hit, a Newton step buys nothing over
/// Polak–Ribière and costs a CG solve; the cold start stays cheaper only
/// because Newton waits for a settled face.
#[test]
fn newton_waits_for_a_settled_face() {
    let task = ring_task(200, 600, 1);
    let newton = solve(&task, Direction::Newton);
    let pr = solve(&task, Direction::PolakRibiere);
    assert!(newton.kkt_verified, "{:?}", newton.diagnostics);
    assert!(
        newton.diagnostics.iterations < pr.diagnostics.iterations,
        "Newton {} vs Polak–Ribière {} iterations",
        newton.diagnostics.iterations,
        pr.diagnostics.iterations
    );
}

/// A chain of warm re-solves under 5% multiplicative demand noise, as a
/// trace replay makes them: every tick certifies the cold solve's optimum.
/// Near-singular faces (several free links carrying the same ODs) are
/// common here; a CG solved exactly on them runs along flat directions to
/// the box, which the forcing term's cap prevents (`nws-solver`'s
/// `forcing_term_truncates_cg_far_from_stationarity`).
#[test]
fn warm_ticks_certify_and_match_cold_solves() {
    let base = ring_task(96, 132, 1);
    let newton = config(Direction::Newton);
    let mut rng = StdRng::seed_from_u64(7);
    let mut mults = vec![1.0; base.ods().len()];
    let mut rates = solve(&base, Direction::Newton).rates;
    for tick in 0..24 {
        for m in &mut mults {
            *m *= rng.random_range(0.95..1.05);
        }
        let task = perturbed_task(&base, &mults);
        let warm = solve_placement_warm(&task, &newton, &rates).expect("warm solves");
        let cold = solve(&task, Direction::PolakRibiere);
        assert!(warm.kkt_verified, "tick {tick}: {:?}", warm.diagnostics);
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-9 * cold.objective.abs(),
            "tick {tick}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        rates = warm.rates;
    }
}
