//! The joint monitor-activation and sampling-rate optimizer.

use crate::{
    build_problem, CoreError, MeasurementTask, ParallelConfig, PlacementObjective, RateModel,
    ReducedIndex, Utility,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{
    compute_multipliers, ActiveSet, Diagnostics, Objective, Solver, SolverOptions,
    TerminationReason,
};
use nws_topo::LinkId;

/// Rates below this threshold count as "monitor not activated" when
/// reporting the active set (the optimizer drives them to exactly 0 up to
/// float fuzz).
pub const ACTIVATION_THRESHOLD: f64 = 1e-9;

/// Configuration of a placement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementConfig {
    /// Effective-rate model inside the objective (paper default:
    /// [`RateModel::Approximate`]).
    pub rate_model: RateModel,
    /// Underlying solver options (iteration cap 2000 etc.).
    pub solver: SolverOptions,
    /// Objective-evaluation fan-out (default: serial). With `threads != 1`
    /// the objective attaches a shared persistent worker pool
    /// ([`crate::EvalPool`]) sized to `min(requested, cores)`; tiny
    /// instances below the nnz cutoff stay serial regardless. See
    /// [`ParallelConfig`].
    pub parallel: ParallelConfig,
}

/// Marks a solution the solver could not certify: the rates are feasible
/// (box + budget) and the best found, but optimality was not verified —
/// the solve ran out of its [`nws_solver::SolveBudget`] or hit the
/// iteration cap. Serving layers use this to decide between retrying,
/// escalating to a cold solve, or keeping the last-good configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degraded {
    /// Why certification was not reached.
    pub reason: TerminationReason,
}

/// The optimizer's answer: which monitors to activate and at what rates,
/// plus everything needed to audit the run.
#[derive(Debug, Clone)]
pub struct PlacementSolution {
    /// Sampling rate per topology link (0 on non-candidates).
    pub rates: Vec<f64>,
    /// Links whose monitor is activated (rate above
    /// [`ACTIVATION_THRESHOLD`]), in link-id order.
    pub active_monitors: Vec<LinkId>,
    /// Per-OD effective rate under the approximation `ρ = Σ r·p` (eq. (7)) —
    /// what the estimator divides by.
    pub effective_rates_approx: Vec<f64>,
    /// Per-OD exact effective rate `1 − Π(1−p)^r` (eq. (1)) — what sampling
    /// actually delivers.
    pub effective_rates_exact: Vec<f64>,
    /// Per-OD utility values `M(ρ_k)` at the solution (approximate-rate ρ).
    pub utilities: Vec<f64>,
    /// Objective value `Σ_k M(ρ_k)`.
    pub objective: f64,
    /// Marginal utility of sampling capacity (`∂ objective/∂θ`).
    pub lambda: f64,
    /// Whether the KKT conditions were verified (global optimum certified).
    pub kkt_verified: bool,
    /// Why the solver stopped.
    pub reason: TerminationReason,
    /// Solver diagnostics (iterations, constraint releases — §IV-D metrics).
    pub diagnostics: Diagnostics,
    /// Objective per iteration, populated when
    /// [`nws_solver::SolverOptions::record_objective`] is set (empty
    /// otherwise). See the `convergence_trace` experiment.
    pub objective_trajectory: Vec<f64>,
    /// `Some` when the solution is feasible but uncertified (budget or
    /// iteration-cap overrun) — see [`Degraded`]. Always consistent with
    /// [`PlacementSolution::kkt_verified`] on solver-produced solutions.
    pub degraded: Option<Degraded>,
}

impl PlacementSolution {
    /// Sampled packets per interval each link contributes: `p_i·U_i`.
    pub fn capacity_usage(&self, task: &MeasurementTask) -> Vec<f64> {
        self.rates
            .iter()
            .zip(task.link_loads())
            .map(|(&p, &u)| p * u)
            .collect()
    }

    /// The sampling rates on the links traversed by OD `k`, restricted to
    /// activated monitors: `(link, rate)` pairs.
    pub fn monitors_of_od(&self, task: &MeasurementTask, k: usize) -> Vec<(LinkId, f64)> {
        task.routing()
            .links_of_od(k)
            .into_iter()
            .filter(|&l| self.rates[l.index()] > ACTIVATION_THRESHOLD)
            .map(|l| (l, self.rates[l.index()]))
            .collect()
    }
}

/// Solves the joint activation + rate problem for `task`.
///
/// This is the paper's method end to end: build the reduced convex program
/// over the candidate links, run gradient projection with KKT verification,
/// and report rates with `p_i = 0` meaning "monitor i stays off".
///
/// # Errors
/// [`CoreError::Solver`] for infeasible capacity or solver failures.
pub fn solve_placement(
    task: &MeasurementTask,
    config: &PlacementConfig,
) -> Result<PlacementSolution, CoreError> {
    solve_placement_observed(task, config, &Recorder::disabled())
}

/// [`solve_placement`] with observability: the objective and solver record
/// phase spans, iteration counters and evaluation fan-out metrics into
/// `rec`. With a disabled recorder this is exactly [`solve_placement`].
///
/// # Errors
/// As for [`solve_placement`].
pub fn solve_placement_observed(
    task: &MeasurementTask,
    config: &PlacementConfig,
    rec: &Recorder,
) -> Result<PlacementSolution, CoreError> {
    let index = ReducedIndex::new(task);
    let objective = PlacementObjective::new(task, &index, config.rate_model)
        .with_parallel(config.parallel)
        .with_recorder(rec.clone());
    let problem = build_problem(task, &index)?;
    let solver = Solver::new(config.solver);
    let sol = solver.maximize_observed(&objective, &problem, rec)?;
    Ok(finish_solution(task, &index, &objective, sol))
}

/// The per-OD reporting quantities of the reduced rates `p`, all read from
/// `objective`'s rows whatever its own rate model: the effective rates under
/// the approximate and the exact model, and each OD's utility at its
/// approximate rate.
fn od_report(objective: &PlacementObjective, p: &Vector) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let approx = objective.effective_rates_under(RateModel::Approximate, p);
    let exact = objective.effective_rates_under(RateModel::Exact, p);
    let utilities = approx
        .iter()
        .zip(objective.utilities())
        .map(|(&rho, u)| u.value(rho))
        .collect();
    (approx, exact, utilities)
}

/// Converts a raw solver solution over the reduced variables into the full
/// reporting structure (rates expanded to topology links, both effective-rate
/// models evaluated on the solve's own `objective`).
fn finish_solution(
    task: &MeasurementTask,
    index: &ReducedIndex,
    objective: &PlacementObjective,
    sol: nws_solver::Solution,
) -> PlacementSolution {
    let (effective_rates_approx, effective_rates_exact, utilities) = od_report(objective, &sol.p);

    let rates = index.expand(&sol.p, task.topology().num_links());
    let active_monitors: Vec<LinkId> = task
        .candidate_links()
        .iter()
        .copied()
        .filter(|&l| rates[l.index()] > ACTIVATION_THRESHOLD)
        .collect();

    PlacementSolution {
        rates,
        active_monitors,
        effective_rates_approx,
        effective_rates_exact,
        utilities,
        objective: sol.value,
        lambda: sol.lambda,
        kkt_verified: sol.kkt_verified,
        reason: sol.reason,
        degraded: (!sol.kkt_verified).then_some(Degraded { reason: sol.reason }),
        diagnostics: sol.diagnostics,
        objective_trajectory: sol.objective_trajectory,
    }
}

/// Solves the placement problem warm-started from a previous rate vector —
/// the operational re-optimization path after a re-routing event or traffic
/// shift (paper §I), where yesterday's configuration is usually close to
/// today's optimum.
///
/// `previous_rates` is indexed by topology link (as in
/// [`PlacementSolution::rates`], possibly from a *different* topology epoch —
/// entries for links absent from this task's candidate set are ignored). The
/// vector is Euclidean-projected onto the face of the feasible
/// box-plus-budget set on which its zero and non-finite entries stay 0
/// (`nws_solver::BoxLinearProblem::project_onto_face`) before the solve, so
/// a warm start that violates the new budget equality or per-link caps — as
/// happens after a `set_theta`, a demand shift or a link failure — lands on
/// the nearest feasible point with the same monitors off, instead of being
/// rescaled or rejected. When the carried monitors cannot spend the budget
/// even at their caps, the projection falls back to the whole feasible set.
/// The off monitors whose KKT multiplier is already negative at that point
/// (those the new demands or routes need) join the face before the solve,
/// which releases any others the optimum needs.
///
/// # Errors
/// Same conditions as [`solve_placement`].
///
/// # Panics
/// Panics if `previous_rates` length differs from the topology's link count.
pub fn solve_placement_warm(
    task: &MeasurementTask,
    config: &PlacementConfig,
    previous_rates: &[f64],
) -> Result<PlacementSolution, CoreError> {
    solve_placement_warm_observed(task, config, previous_rates, &Recorder::disabled())
}

/// [`solve_placement_warm`] with observability (see
/// [`solve_placement_observed`]).
///
/// # Errors
/// As for [`solve_placement_warm`].
///
/// # Panics
/// As for [`solve_placement_warm`].
pub fn solve_placement_warm_observed(
    task: &MeasurementTask,
    config: &PlacementConfig,
    previous_rates: &[f64],
    rec: &Recorder,
) -> Result<PlacementSolution, CoreError> {
    assert_eq!(
        previous_rates.len(),
        task.topology().num_links(),
        "previous rate vector length mismatch"
    );
    let index = ReducedIndex::new(task);
    let problem = build_problem(task, &index)?;

    let objective = PlacementObjective::new(task, &index, config.rate_model)
        .with_parallel(config.parallel)
        .with_recorder(rec.clone());

    // Reduce to the candidate coordinates, then project onto the feasible
    // face spanned by the carried monitors. The projection handles every
    // violation class at once: rates above the caps, a stale budget after a
    // θ or demand change, and non-finite garbage.
    let reduced: Vector = (0..index.dim())
        .map(|v| previous_rates[index.link(v).index()])
        .collect();
    let mut support: Vec<bool> = reduced.iter().map(|&x| x != 0.0 && x.is_finite()).collect();
    let mut start = problem.project_onto_face(&reduced, &support);
    // One KKT release step before the solve: an off monitor whose bound
    // multiplier is already negative at the start (the new demands or routes
    // make it worth its share of θ) joins the face now, rather than after
    // the solver has converged without it (as it releases bounds at its
    // stationary points).
    let active = ActiveSet::classify(&start, &problem, config.solver.bound_snap_tol);
    let kkt = compute_multipliers(
        &objective.gradient(&start),
        &active,
        &problem,
        config.solver.multiplier_tol,
    );
    let released: Vec<usize> = kkt.negative.into_iter().filter(|&i| !support[i]).collect();
    if !released.is_empty() {
        for i in released {
            support[i] = true;
        }
        start = problem.project_onto_face(&reduced, &support);
    }
    // Defense in depth: if the projection ever fails to certify feasibility
    // (float pathologies), fall back to the canonical interior start rather
    // than handing the solver a mis-start.
    if !problem.is_feasible(&start, 1e-9) {
        start = problem.feasible_start();
    }

    let solver = Solver::new(config.solver);
    let sol = solver.maximize_from_observed(&objective, &problem, start, rec)?;
    Ok(finish_solution(task, &index, &objective, sol))
}

/// Evaluates the reporting quantities of an externally chosen rate vector
/// (baselines, stale configurations) against a task, without optimizing.
///
/// # Panics
/// Panics if `rates` length differs from the topology's link count.
pub fn evaluate_rates(task: &MeasurementTask, rates: &[f64]) -> PlacementSolution {
    assert_eq!(
        rates.len(),
        task.topology().num_links(),
        "rate vector length mismatch"
    );
    let index = ReducedIndex::new(task);
    let reduced: Vector = (0..index.dim())
        .map(|v| rates[index.link(v).index()])
        .collect();
    let (effective_rates_approx, effective_rates_exact, utilities) = od_report(
        &PlacementObjective::new(task, &index, RateModel::Approximate),
        &reduced,
    );
    let objective = utilities.iter().sum();
    let active_monitors: Vec<LinkId> = task
        .candidate_links()
        .iter()
        .copied()
        .filter(|&l| rates[l.index()] > ACTIVATION_THRESHOLD)
        .collect();
    PlacementSolution {
        rates: rates.to_vec(),
        active_monitors,
        effective_rates_approx,
        effective_rates_exact,
        utilities,
        objective,
        lambda: f64::NAN,
        kkt_verified: false,
        reason: TerminationReason::IterationLimit,
        // Not a solver outcome: an externally supplied vector is evaluated,
        // not optimized, so there is nothing to mark as degraded.
        degraded: None,
        diagnostics: Diagnostics {
            iterations: 0,
            constraint_releases: 0,
            bounds_hit: 0,
            final_projected_gradient: f64::NAN,
            stationarity_residual: f64::NAN,
        },
        objective_trajectory: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::placement::solve_placement_warm;
    use super::*;
    use nws_routing::OdPair;
    use nws_topo::{geant, LinkKind, TopologyBuilder};

    /// Two-OD task: one elephant (NL), one mouse (LU), no background.
    fn two_od_task(theta: f64) -> MeasurementTask {
        let topo = geant();
        let janet = topo.require_node("JANET").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let lu = topo.require_node("LU").unwrap();
        MeasurementTask::builder(topo)
            .track("JANET-NL", OdPair::new(janet, nl), 9e6)
            .track("JANET-LU", OdPair::new(janet, lu), 6e3)
            .theta(theta)
            .build()
            .unwrap()
    }

    /// An equal-cost diamond A→{X,Y}→D: A-D splits 1/2 per arm, so the
    /// exact model raises `1 − p` to fractional powers; A-X rides one arm.
    fn ecmp_task() -> MeasurementTask {
        let mut b = TopologyBuilder::new();
        let a = b.node("A");
        let x = b.node("X");
        let y = b.node("Y");
        let d = b.node("D");
        b.link(a, x, 100.0, 1.0, LinkKind::Backbone);
        b.link(x, d, 100.0, 1.0, LinkKind::Backbone);
        b.link(a, y, 100.0, 1.0, LinkKind::Backbone);
        b.link(y, d, 100.0, 1.0, LinkKind::Backbone);
        MeasurementTask::builder(b.build().unwrap())
            .track("A-D", OdPair::new(a, d), 9e6)
            .track("A-X", OdPair::new(a, x), 6e3)
            .theta(20_000.0)
            .build()
            .unwrap()
    }

    /// Asserts that `sol`'s per-OD report equals, bit for bit, what one
    /// separately built objective per rate model gives at its rates.
    fn assert_report_matches_separate_builds(task: &MeasurementTask, sol: &PlacementSolution) {
        let index = ReducedIndex::new(task);
        let reduced: Vector = (0..index.dim())
            .map(|v| sol.rates[index.link(v).index()])
            .collect();
        let approx = PlacementObjective::new(task, &index, RateModel::Approximate);
        let exact = PlacementObjective::new(task, &index, RateModel::Exact);
        let rho_approx = approx.effective_rates(&reduced);
        let utilities: Vec<f64> = rho_approx
            .iter()
            .zip(approx.utilities())
            .map(|(&rho, u)| u.value(rho))
            .collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sol.effective_rates_approx), bits(&rho_approx));
        assert_eq!(
            bits(&sol.effective_rates_exact),
            bits(&exact.effective_rates(&reduced))
        );
        assert_eq!(bits(&sol.utilities), bits(&utilities));
    }

    #[test]
    fn solve_reports_match_separate_objective_builds() {
        for task in [two_od_task(20_000.0), ecmp_task()] {
            for rate_model in [RateModel::Approximate, RateModel::Exact] {
                let config = PlacementConfig {
                    rate_model,
                    ..PlacementConfig::default()
                };
                let sol = solve_placement(&task, &config).unwrap();
                assert!(sol.kkt_verified, "{rate_model:?}: {:?}", sol.diagnostics);
                assert_report_matches_separate_builds(&task, &sol);
            }
        }
    }

    #[test]
    fn solves_and_certifies() {
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(sol.kkt_verified, "diagnostics: {:?}", sol.diagnostics);
        assert_eq!(sol.reason, TerminationReason::KktSatisfied);
        // Capacity fully used.
        let used: f64 = sol.capacity_usage(&task).iter().sum();
        assert!((used / 20_000.0 - 1.0).abs() < 1e-6, "used {used}");
        // All rates within [0, 1].
        assert!(sol.rates.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn certified_solution_carries_no_degraded_marker() {
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(sol.kkt_verified);
        assert_eq!(sol.degraded, None);
    }

    #[test]
    fn deadline_interrupted_solve_is_feasible_and_marked_degraded() {
        let task = two_od_task(20_000.0);
        let mut config = PlacementConfig::default();
        // A deadline already in the past: the solver must hand back its
        // (feasible) starting iterate rather than erroring or spinning.
        config.solver.budget = nws_solver::SolveBudget {
            max_iters: None,
            deadline: Some(std::time::Instant::now()),
        };
        let sol = solve_placement(&task, &config).unwrap();
        assert!(!sol.kkt_verified);
        assert_eq!(
            sol.degraded,
            Some(Degraded {
                reason: TerminationReason::DeadlineExceeded
            })
        );
        // Feasibility: rates in the box, capacity within budget.
        assert!(sol.rates.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let used: f64 = sol.capacity_usage(&task).iter().sum();
        assert!(used <= 20_000.0 * (1.0 + 1e-6), "used {used}");
    }

    #[test]
    fn iteration_budget_marks_degraded_via_warm_path() {
        let task = two_od_task(20_000.0);
        let good = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let mut config = PlacementConfig::default();
        config.solver.budget.max_iters = Some(1);
        let sol = solve_placement_warm(&task, &config, &good.rates).unwrap();
        // One iteration from the optimum may or may not certify; the marker
        // must agree with kkt_verified either way.
        assert_eq!(sol.degraded.is_some(), !sol.kkt_verified);
        assert!(sol.rates.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn mouse_sampled_on_quiet_link() {
        // The optimizer should sample JANET-LU on the lightly loaded FR-LU
        // link at a much higher rate than anything on the busy UK links.
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let topo = task.topology();
        let fr = topo.require_node("FR").unwrap();
        let lu = topo.require_node("LU").unwrap();
        let uk = topo.require_node("UK").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let fr_lu = topo.link_between(fr, lu).unwrap();
        let uk_nl = topo.link_between(uk, nl).unwrap();
        assert!(
            sol.rates[fr_lu.index()] > sol.rates[uk_nl.index()],
            "FR-LU {} vs UK-NL {}",
            sol.rates[fr_lu.index()],
            sol.rates[uk_nl.index()]
        );
        // Both ODs get nonzero effective rates.
        assert!(sol.effective_rates_approx.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn rates_low_and_models_agree() {
        // §V-B claim: optimal rates are low, so approx ≈ exact.
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        for k in 0..task.ods().len() {
            let (a, e) = (sol.effective_rates_approx[k], sol.effective_rates_exact[k]);
            assert!(a >= e - 1e-15, "union bound violated");
            assert!((a - e) / e.max(1e-12) < 0.02, "OD {k}: {a} vs {e}");
        }
    }

    #[test]
    fn more_capacity_more_utility() {
        let lo = solve_placement(&two_od_task(5_000.0), &PlacementConfig::default()).unwrap();
        let hi = solve_placement(&two_od_task(50_000.0), &PlacementConfig::default()).unwrap();
        assert!(hi.objective > lo.objective);
        // λ (marginal utility of capacity) decreases with capacity.
        assert!(hi.lambda < lo.lambda, "λ {} !< {}", hi.lambda, lo.lambda);
    }

    #[test]
    fn exact_model_solves_too() {
        let task = two_od_task(20_000.0);
        let cfg = PlacementConfig {
            rate_model: RateModel::Exact,
            ..PlacementConfig::default()
        };
        let sol = solve_placement(&task, &cfg).unwrap();
        let approx_sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        // In the low-rate regime the two solutions essentially coincide.
        assert!((sol.objective - approx_sol.objective).abs() < 1e-4);
    }

    #[test]
    fn monitors_of_od_reports_active_links() {
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        for k in 0..task.ods().len() {
            let monitors = sol.monitors_of_od(&task, k);
            // Every OD is observed somewhere at this capacity.
            assert!(!monitors.is_empty(), "OD {k} unobserved");
            for (l, p) in monitors {
                assert!(task.routing().traverses(k, l));
                assert!(p > ACTIVATION_THRESHOLD);
            }
        }
    }

    #[test]
    fn evaluate_rates_roundtrip() {
        let task = two_od_task(20_000.0);
        let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let eval = evaluate_rates(&task, &sol.rates);
        assert!((eval.objective - sol.objective).abs() < 1e-9);
        assert_eq!(eval.active_monitors, sol.active_monitors);
        for k in 0..task.ods().len() {
            assert!((eval.effective_rates_exact[k] - sol.effective_rates_exact[k]).abs() < 1e-12);
        }
        assert_report_matches_separate_builds(&task, &eval);
        let ecmp = ecmp_task();
        let ecmp_sol = solve_placement(&ecmp, &PlacementConfig::default()).unwrap();
        assert_report_matches_separate_builds(&ecmp, &evaluate_rates(&ecmp, &ecmp_sol.rates));
    }

    #[test]
    fn warm_start_matches_cold_solution() {
        let task = two_od_task(20_000.0);
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &cold.rates).unwrap();
        assert!(warm.kkt_verified);
        assert!((warm.objective - cold.objective).abs() < 1e-8);
        // Starting at the optimum, the warm solve certifies almost instantly.
        assert!(
            warm.diagnostics.iterations <= cold.diagnostics.iterations,
            "warm {} vs cold {}",
            warm.diagnostics.iterations,
            cold.diagnostics.iterations
        );
    }

    #[test]
    fn warm_start_from_perturbed_theta() {
        // Yesterday's rates for a different theta still warm-start cleanly.
        let yesterday = two_od_task(15_000.0);
        let today = two_od_task(25_000.0);
        let prev = solve_placement(&yesterday, &PlacementConfig::default()).unwrap();
        let warm = solve_placement_warm(&today, &PlacementConfig::default(), &prev.rates).unwrap();
        let cold = solve_placement(&today, &PlacementConfig::default()).unwrap();
        assert!(warm.kkt_verified);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_start_releases_the_monitors_an_unsampled_od_needs() {
        // The carried plan leaves the mouse unsampled (its monitors off) and
        // under-spends θ: the face start keeps those monitors off, so they
        // must join it up front for the solve to need no release of its own.
        let task = two_od_task(20_000.0);
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let elephant = task.routing().links_of_od(0);
        let mut carried = cold.rates.clone();
        for l in task.routing().links_of_od(1) {
            if !elephant.contains(&l) {
                carried[l.index()] = 0.0;
            }
        }
        assert_eq!(
            evaluate_rates(&task, &carried).effective_rates_approx[1],
            0.0
        );
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &carried).unwrap();
        assert!(warm.kkt_verified);
        assert!((warm.objective - cold.objective).abs() < 1e-8);
        assert_eq!(
            warm.diagnostics.constraint_releases, 0,
            "{:?}",
            warm.diagnostics
        );
    }

    #[test]
    fn warm_start_from_zeros_falls_back() {
        let task = two_od_task(20_000.0);
        let zeros = vec![0.0; task.topology().num_links()];
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &zeros).unwrap();
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-8);
    }

    #[test]
    fn warm_start_projects_budget_violation() {
        // All-ones rates violate the budget equality by orders of magnitude
        // (every candidate sampling at 100 %); the projection must still
        // deliver a clean certified solve matching cold.
        let task = two_od_task(20_000.0);
        let ones = vec![1.0; task.topology().num_links()];
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &ones).unwrap();
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(warm.kkt_verified);
        assert!((warm.objective - cold.objective).abs() < 1e-8);
    }

    #[test]
    fn warm_start_projects_cap_violation() {
        // Rates exceeding the per-link caps (α = 0.3 here) get projected
        // into the box, not rejected.
        let topo = geant();
        let janet = topo.require_node("JANET").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let lu = topo.require_node("LU").unwrap();
        let task = MeasurementTask::builder(topo)
            .track("JANET-NL", OdPair::new(janet, nl), 9e6)
            .track("JANET-LU", OdPair::new(janet, lu), 6e3)
            .theta(20_000.0)
            .alpha(0.3)
            .build()
            .unwrap();
        let over_cap = vec![0.9; task.topology().num_links()];
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &over_cap).unwrap();
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(warm.kkt_verified);
        assert!(warm.rates.iter().all(|&p| p <= 0.3 + 1e-9));
        assert!((warm.objective - cold.objective).abs() < 1e-8);
    }

    #[test]
    fn warm_start_survives_non_finite_entries() {
        let task = two_od_task(20_000.0);
        let mut garbage = vec![0.01; task.topology().num_links()];
        garbage[0] = f64::NAN;
        garbage[1] = f64::INFINITY;
        let warm = solve_placement_warm(&task, &PlacementConfig::default(), &garbage).unwrap();
        let cold = solve_placement(&task, &PlacementConfig::default()).unwrap();
        assert!(warm.kkt_verified);
        assert!((warm.objective - cold.objective).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "previous rate vector length mismatch")]
    fn warm_start_length_checked() {
        let task = two_od_task(20_000.0);
        let _ = solve_placement_warm(&task, &PlacementConfig::default(), &[0.5]);
    }

    #[test]
    fn infeasible_theta_surfaces() {
        let task = two_od_task(20_000.0);
        let total: f64 = task
            .candidate_links()
            .iter()
            .map(|l| task.link_loads()[l.index()])
            .sum();
        let bad = task.with_theta(total * 2.0).unwrap();
        let err = solve_placement(&bad, &PlacementConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Solver(nws_solver::SolverError::Infeasible { .. })
        ));
    }
}
