//! Property-based tests for the core placement machinery: utility-function
//! invariants, formulation consistency, and optimizer sanity over random
//! task parameters.

use nws_core::scenarios::janet_task_with;
use nws_core::{
    solve_placement, MeasurementTask, PlacementConfig, PlacementObjective, RateModel, SreUtility,
    Utility,
};
use nws_linalg::Vector;
use nws_routing::OdPair;
use nws_solver::Objective;
use nws_topo::geant;
use proptest::prelude::*;

fn random_c() -> impl Strategy<Value = f64> {
    // E[1/S] across seven orders of magnitude.
    (-7.0..-0.5f64).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn utility_shape_invariants(c in random_c()) {
        let u = SreUtility::new(c);
        // Splice point and anchor values.
        prop_assert!((u.x0() - 3.0 * c / (1.0 + c)).abs() < 1e-15);
        prop_assert!(u.value(0.0).abs() < 1e-12);
        prop_assert!((u.value(1.0) - 1.0).abs() < 1e-12);
        prop_assert!((u.value(u.x0()) - 2.0 / 3.0 * (1.0 + c)).abs() < 1e-9);
        // Monotone increasing, concave, C1 at the splice.
        let mut last_v = -1.0;
        let mut last_d = f64::INFINITY;
        for i in 0..=500 {
            let rho = i as f64 / 500.0;
            let v = u.value(rho);
            let d = u.d1(rho);
            prop_assert!(v >= last_v, "not increasing at {rho}");
            prop_assert!(d > 0.0);
            prop_assert!(d <= last_d * (1.0 + 1e-12), "derivative rising at {rho}");
            prop_assert!(u.d2(rho) < 0.0);
            last_v = v;
            last_d = d;
        }
    }

    #[test]
    fn utility_dominance_in_size(c_small in random_c(), factor in 1.5..100.0f64, rho in 0.0001..1.0f64) {
        // Larger ODs (smaller c) always have at least the utility of smaller
        // ones at the same effective rate.
        let c_big_od = c_small / factor;
        let small_od = SreUtility::new(c_small);
        let big_od = SreUtility::new(c_big_od);
        prop_assert!(big_od.value(rho) >= small_od.value(rho) - 1e-12);
    }
}

/// Builds a random two-to-five OD task on GEANT with random sizes/θ.
fn random_task(sizes: &[f64], theta_frac: f64) -> MeasurementTask {
    let topo = geant();
    let janet = topo.require_node("JANET").unwrap();
    let dests = ["NL", "LU", "SK", "GR", "NY"];
    let mut builder = MeasurementTask::builder(topo.clone());
    let mut total = 0.0;
    for (i, &s) in sizes.iter().enumerate() {
        let dst = topo.require_node(dests[i]).unwrap();
        builder = builder.track(format!("F{i}"), OdPair::new(janet, dst), s);
        total += s;
    }
    builder.theta(total * theta_frac).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizer_invariants_over_random_tasks(
        sizes in proptest::collection::vec(1_000.0..1e7f64, 2..=5),
        theta_frac in 0.001..0.2f64,
    ) {
        let task = random_task(&sizes, theta_frac);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        // Feasibility.
        prop_assert!(sol.rates.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let used: f64 = sol.capacity_usage(&task).iter().sum();
        prop_assert!((used / task.theta() - 1.0).abs() < 1e-6);
        // Effective rates consistent with utilities.
        for k in 0..task.ods().len() {
            let u = SreUtility::new(task.ods()[k].inv_mean_size);
            prop_assert!(
                (sol.utilities[k] - u.value(sol.effective_rates_approx[k])).abs() < 1e-9
            );
        }
        // Objective equals the utility sum.
        let sum: f64 = sol.utilities.iter().sum();
        prop_assert!((sol.objective - sum).abs() < 1e-9);
    }

    #[test]
    fn no_random_feasible_point_beats_optimum(
        sizes in proptest::collection::vec(10_000.0..1e6f64, 3..=4),
        theta_frac in 0.01..0.1f64,
        seed_rates in proptest::collection::vec(0.0..1.0f64, 32),
    ) {
        use nws_core::evaluate_rates;
        let task = random_task(&sizes, theta_frac);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        prop_assume!(sol.kkt_verified);

        // Construct a random feasible comparison: random mass on candidate
        // links, scaled to consume exactly theta (skip if scaling overflows
        // a bound).
        let mut rates = vec![0.0; task.topology().num_links()];
        let mut consumed = 0.0;
        for (j, &l) in task.candidate_links().iter().enumerate() {
            let r = seed_rates[j % seed_rates.len()];
            rates[l.index()] = r;
            consumed += r * task.link_loads()[l.index()];
        }
        prop_assume!(consumed > 0.0);
        let scale = task.theta() / consumed;
        let mut ok = true;
        for &l in task.candidate_links() {
            rates[l.index()] *= scale;
            if rates[l.index()] > 1.0 {
                ok = false;
            }
        }
        prop_assume!(ok);

        let candidate = evaluate_rates(&task, &rates);
        prop_assert!(
            candidate.objective <= sol.objective + 1e-7 * (1.0 + sol.objective.abs()),
            "random point {} beats optimum {}",
            candidate.objective,
            sol.objective
        );
    }
}

#[test]
fn janet_objective_upper_bounded_by_od_count() {
    // M(ρ) < 1, so the objective of 20 ODs is < 20 for any theta.
    for theta in [1_000.0, 100_000.0, 5_000_000.0] {
        let task = janet_task_with(theta, 1).unwrap();
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(sol.objective < 20.0);
        assert!(sol.objective > 0.0);
    }
}

/// One random OD term: sparse row over the variables, weight, utility `c`.
type OdSpec = (Vec<(usize, f64)>, f64, f64);

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// A random synthetic objective: per OD a sparse row over `dim` variables, a
/// weight, and an SRE utility constant, plus an evaluation point `p` and a
/// direction `s`. Rates stay in the low-rate regime ([0, 0.02]) where the
/// exact model is well away from its `p → 1` singularities.
fn objective_parts() -> impl Strategy<Value = (usize, Vec<OdSpec>, Vec<f64>, Vec<f64>)> {
    (2usize..24).prop_flat_map(|dim| {
        (
            Just(dim),
            prop::collection::vec(
                (
                    prop::collection::vec((0..dim, 0.05f64..1.0), 1..6),
                    0.1f64..2.0,
                    1e-6f64..1e-2,
                ),
                1..40,
            ),
            prop::collection::vec(0.0f64..0.02, dim..=dim),
            prop::collection::vec(-1.0f64..1.0, dim..=dim),
        )
    })
}

fn build(dim: usize, ods: &[OdSpec], model: RateModel) -> PlacementObjective {
    let utilities: Vec<SreUtility> = ods.iter().map(|&(_, _, c)| SreUtility::new(c)).collect();
    let weights: Vec<f64> = ods.iter().map(|&(_, w, _)| w).collect();
    let rows: Vec<Vec<(usize, f64)>> = ods.iter().map(|(row, _, _)| row.clone()).collect();
    PlacementObjective::from_parts(utilities, weights, rows, model, dim)
}

/// `f`, `∇f`, `φ'(0)` and `φ''(0)` along `s`, computed the slow way from
/// DESIGN.md §1: a dense routing matrix, each OD's rate `ρ_k` from its
/// formula, and the chain rule through an explicit gradient and Hessian of
/// every `ρ_k`. It shares nothing with the objective's kernel but the
/// utility. The cases keep every rate in [0, 0.1], where neither model
/// clamps `ρ_k` and no `1 − p_i` needs a guard.
struct Reference {
    value: f64,
    gradient: Vec<f64>,
    derivative: f64,
    curvature: f64,
}

fn reference(dim: usize, ods: &[OdSpec], model: RateModel, p: &[f64], s: &[f64]) -> Reference {
    let mut out = Reference {
        value: 0.0,
        gradient: vec![0.0; dim],
        derivative: 0.0,
        curvature: 0.0,
    };
    for (row, w, c) in ods {
        let mut r = vec![0.0; dim];
        for &(i, frac) in row {
            r[i] += frac;
        }
        // ρ_k, ∇ρ_k and ∇²ρ_k.
        let (rho, grad, hess): (f64, Vec<f64>, Vec<Vec<f64>>) = match model {
            RateModel::Approximate => (
                (0..dim).map(|i| r[i] * p[i]).sum(),
                r.clone(),
                vec![vec![0.0; dim]; dim],
            ),
            RateModel::Exact => {
                // ρ = 1 − m with m = Π_i (1 − p_i)^{r_i}.
                let m: f64 = (0..dim).map(|i| (1.0 - p[i]).powf(r[i])).product();
                let grad = (0..dim).map(|i| r[i] * m / (1.0 - p[i])).collect();
                let hess = (0..dim)
                    .map(|i| {
                        (0..dim)
                            .map(|j| {
                                let cross = -m * r[i] * r[j] / ((1.0 - p[i]) * (1.0 - p[j]));
                                if i == j {
                                    cross + m * r[i] / ((1.0 - p[i]) * (1.0 - p[i]))
                                } else {
                                    cross
                                }
                            })
                            .collect()
                    })
                    .collect();
                (1.0 - m, grad, hess)
            }
        };
        let u = SreUtility::new(*c);
        let (m1, m2) = (w * u.d1(rho), w * u.d2(rho));
        let slope: f64 = (0..dim).map(|i| grad[i] * s[i]).sum();
        let bend: f64 = (0..dim)
            .map(|i| (0..dim).map(|j| s[i] * hess[i][j] * s[j]).sum::<f64>())
            .sum();
        out.value += w * u.value(rho);
        for (g, dr) in out.gradient.iter_mut().zip(&grad) {
            *g += m1 * dr;
        }
        out.derivative += m1 * slope;
        out.curvature += m2 * slope * slope + m1 * bend;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every evaluation path of the objective agrees with the naive
    /// [`reference`]: `value`, `gradient`, `curvature_along`,
    /// `derivatives_along` and the fused kernel's four outputs.
    #[test]
    fn fused_kernel_agrees_with_naive_reference((dim, ods, p_raw, s_raw) in objective_parts()) {
        let p = Vector::from(p_raw.clone());
        let s = Vector::from(s_raw.clone());
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = build(dim, &ods, model);
            let want = reference(dim, &ods, model, &p_raw, &s_raw);
            let mut fused_g = Vector::zeros(dim);
            let fused = obj.eval_fused(&p, Some(&s), Some(&mut fused_g));
            let gradient = obj.gradient(&p);
            for (what, g) in [("gradient", &gradient), ("fused", &fused_g)] {
                for i in 0..dim {
                    prop_assert!(
                        rel_close(g[i], want.gradient[i], 1e-12),
                        "{model:?} {what} var {i}: {} vs {}",
                        g[i],
                        want.gradient[i]
                    );
                }
            }
            for (what, value) in [("value", obj.value(&p)), ("fused", fused.value)] {
                prop_assert!(
                    rel_close(value, want.value, 1e-12),
                    "{model:?} {what}: value {value} vs {}",
                    want.value
                );
            }
            let (d, c) = obj.derivatives_along(&p, &s);
            for (what, curvature) in [
                ("curvature_along", obj.curvature_along(&p, &s)),
                ("derivatives_along", c),
                ("fused", fused.curvature),
            ] {
                prop_assert!(
                    rel_close(curvature, want.curvature, 1e-12),
                    "{model:?} {what}: curvature {curvature} vs {}",
                    want.curvature
                );
            }
            // φ' sums terms of both signs, so its tolerance is absolute in
            // the gradient's scale.
            let dir_scale = (gradient.norm_inf() * s.norm_inf() * dim as f64).max(1.0);
            for (what, derivative) in [("derivatives_along", d), ("fused", fused.derivative)] {
                prop_assert!(
                    (derivative - want.derivative).abs() <= 1e-12 * dir_scale,
                    "{model:?} {what}: derivative {derivative} vs {}",
                    want.derivative
                );
            }
        }
    }

    /// `gradient_into` (into a buffer of the wrong size) agrees with the
    /// naive [`reference`], and the directional derivative `φ'` of
    /// `derivatives_along` and the fused kernel with the gradient's
    /// contraction along `s`.
    #[test]
    fn gradient_into_and_directional_agree((dim, ods, p_raw, s_raw) in objective_parts()) {
        let p = Vector::from(p_raw.clone());
        let s = Vector::from(s_raw.clone());
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = build(dim, &ods, model);
            let want = reference(dim, &ods, model, &p_raw, &s_raw);
            let mut into = Vector::zeros(1);
            obj.gradient_into(&p, &mut into);
            prop_assert_eq!(into.len(), dim);
            for i in 0..dim {
                prop_assert!(
                    rel_close(into[i], want.gradient[i], 1e-12),
                    "{model:?} var {i}: {} vs {}",
                    into[i],
                    want.gradient[i]
                );
            }
            // The contraction identity carries float-cancellation noise,
            // so the tolerance is absolute in the gradient's scale.
            let contracted = into.dot(&s);
            let dir_scale = (into.norm_inf() * s.norm_inf() * dim as f64).max(1.0);
            let (d, _) = obj.derivatives_along(&p, &s);
            let fused = obj.eval_fused(&p, Some(&s), None);
            for (what, derivative) in [("derivatives_along", d), ("fused", fused.derivative)] {
                prop_assert!(
                    (derivative - contracted).abs() <= 1e-12 * dir_scale,
                    "{model:?} {what}: {derivative} vs {contracted}"
                );
            }
        }
    }
}
