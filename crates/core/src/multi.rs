//! Composite multi-task optimization: several measurement tasks sharing one
//! sampling budget.
//!
//! The paper's introduction motivates exactly this: "very often network
//! operators do not have prior knowledge of the measurement tasks the
//! monitoring infrastructure will have to perform … a specific network
//! prefix that is below the radars for traffic engineering purposes may
//! play an important role in the early detection of anomalies" (§I). With
//! router-embedded monitors, one network-wide budget `θ` serves *all*
//! concurrent tasks; the natural formulation maximizes a weighted sum of
//! the tasks' utility sums:
//!
//! ```text
//! maximize Σ_t w_t · Σ_{k∈F_t} M_t(ρ_k(p))     s.t. the usual polytope
//! ```
//!
//! which stays concave because nonnegative combinations of concave
//! functions are concave — the same solver applies unchanged.

use crate::formulation::task_rows;
use crate::{
    CoreError, LogUtility, MeasurementTask, PlacementObjective, RateModel, SreUtility, Utility,
    ACTIVATION_THRESHOLD,
};
use nws_linalg::Vector;
use nws_solver::{BoxLinearProblem, Solver, SolverOptions};
use nws_topo::LinkId;

/// The utility family a sub-task scores its OD pairs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilityChoice {
    /// The paper's size-estimation utility (mean squared relative accuracy).
    SizeEstimation,
    /// Coverage utility for detection-flavoured tasks: `LogUtility` with the
    /// given curvature scale (smaller = rewards the first samples more).
    Coverage {
        /// Curvature scale `ε` of the log utility.
        eps: f64,
    },
}

/// Utility dispatch across the supported families.
///
/// A closed enum rather than `Box<dyn Utility>` keeps the objective `Sized`,
/// `Copy`-friendly and fast (no virtual dispatch in the solver hot loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyUtility {
    /// Size-estimation utility.
    Sre(SreUtility),
    /// Coverage (log) utility.
    Log(LogUtility),
}

impl Utility for AnyUtility {
    fn value(&self, rho: f64) -> f64 {
        match self {
            AnyUtility::Sre(u) => u.value(rho),
            AnyUtility::Log(u) => u.value(rho),
        }
    }
    fn d1(&self, rho: f64) -> f64 {
        match self {
            AnyUtility::Sre(u) => u.d1(rho),
            AnyUtility::Log(u) => u.d1(rho),
        }
    }
    fn d2(&self, rho: f64) -> f64 {
        match self {
            AnyUtility::Sre(u) => u.d2(rho),
            AnyUtility::Log(u) => u.d2(rho),
        }
    }
}

/// One task in a composite problem.
#[derive(Debug, Clone, Copy)]
pub struct SubTask<'a> {
    /// The task (topology, OD pairs, loads). All sub-tasks must be built
    /// over the same topology.
    pub task: &'a MeasurementTask,
    /// Relative importance `w_t ≥ 0` of this task's utilities.
    pub weight: f64,
    /// Which utility family scores this task's OD pairs.
    pub utility: UtilityChoice,
}

/// Solution of a composite problem.
#[derive(Debug, Clone)]
pub struct CompositeSolution {
    /// Sampling rate per topology link.
    pub rates: Vec<f64>,
    /// Activated monitors across all tasks.
    pub active_monitors: Vec<LinkId>,
    /// Per sub-task, per-OD utilities at the solution (unweighted).
    pub utilities: Vec<Vec<f64>>,
    /// Per sub-task, per-OD effective rates (approximate model).
    pub effective_rates: Vec<Vec<f64>>,
    /// The weighted objective value.
    pub objective: f64,
    /// Whether the KKT conditions were certified.
    pub kkt_verified: bool,
    /// Solver iterations the joint solve took.
    pub iterations: usize,
}

/// Solves several tasks jointly under one capacity `theta`.
///
/// Contract: every sub-task must be built over the same topology (same link
/// count); per-link loads may differ (each task typically includes its own
/// tracked traffic) and are combined conservatively by element-wise maximum
/// for the capacity constraint. Candidate monitors are the union of the
/// sub-tasks' candidate sets. The per-link cap `α` is the element-wise
/// minimum across sub-tasks.
///
/// # Errors
/// [`CoreError::InvalidTask`] for empty/inconsistent inputs;
/// [`CoreError::Solver`] for infeasible `theta`.
pub fn solve_composite(
    subtasks: &[SubTask<'_>],
    theta: f64,
    solver_options: SolverOptions,
) -> Result<CompositeSolution, CoreError> {
    if subtasks.is_empty() {
        return Err(CoreError::InvalidTask("no sub-tasks".into()));
    }
    let num_links = subtasks[0].task.topology().num_links();
    for st in subtasks {
        if st.task.topology().num_links() != num_links {
            return Err(CoreError::InvalidTask(
                "sub-tasks span different topologies".into(),
            ));
        }
        if !(st.weight.is_finite() && st.weight >= 0.0) {
            return Err(CoreError::InvalidTask(format!(
                "sub-task weight {} invalid",
                st.weight
            )));
        }
    }

    // Union candidate set, in link-id order.
    let mut union: Vec<LinkId> = subtasks
        .iter()
        .flat_map(|st| st.task.candidate_links().iter().copied())
        .collect();
    union.sort();
    union.dedup();
    let var_of = |l: LinkId| union.binary_search(&l).ok();

    // Conservative combined loads (max) and caps (min).
    let loads: Vector = union
        .iter()
        .map(|&l| {
            subtasks
                .iter()
                .map(|st| st.task.link_loads()[l.index()])
                .fold(0.0, f64::max)
        })
        .collect();
    let upper: Vector = union
        .iter()
        .map(|&l| {
            subtasks
                .iter()
                .map(|st| st.task.alpha()[l.index()])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let problem = BoxLinearProblem::new(upper, loads, theta)?;

    // Assemble utilities/weights/rows across tasks, remembering the span of
    // each task's ODs in the flat list.
    let mut utilities: Vec<AnyUtility> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for st in subtasks {
        let start = utilities.len();
        for od in st.task.ods() {
            utilities.push(match st.utility {
                UtilityChoice::SizeEstimation => AnyUtility::Sre(SreUtility::new(od.inv_mean_size)),
                UtilityChoice::Coverage { eps } => AnyUtility::Log(LogUtility::new(eps)),
            });
            weights.push(st.weight);
        }
        // Rebuild the task's rows against the union index.
        let index = crate::ReducedIndex::new(st.task);
        for row in task_rows(st.task, &index) {
            rows.push(
                row.into_iter()
                    .filter_map(|(v, r)| var_of(index.link(v)).map(|uv| (uv, r)))
                    .collect(),
            );
        }
        spans.push((start, utilities.len()));
    }

    let objective = PlacementObjective::from_parts(
        utilities,
        weights,
        rows,
        RateModel::Approximate,
        union.len(),
    );
    let sol = Solver::new(solver_options).maximize(&objective, &problem)?;

    // Expand and report per task.
    let mut rates = vec![0.0; num_links];
    for (v, &l) in union.iter().enumerate() {
        rates[l.index()] = sol.p[v];
    }
    let all_rhos = objective.effective_rates(&sol.p);
    let all_utils: Vec<f64> = all_rhos
        .iter()
        .enumerate()
        .map(|(k, &rho)| objective.utilities()[k].value(rho))
        .collect();
    let effective_rates: Vec<Vec<f64>> = spans
        .iter()
        .map(|&(a, b)| all_rhos[a..b].to_vec())
        .collect();
    let utilities_out: Vec<Vec<f64>> = spans
        .iter()
        .map(|&(a, b)| all_utils[a..b].to_vec())
        .collect();
    let active_monitors: Vec<LinkId> = union
        .iter()
        .copied()
        .filter(|&l| rates[l.index()] > ACTIVATION_THRESHOLD)
        .collect();

    Ok(CompositeSolution {
        rates,
        active_monitors,
        utilities: utilities_out,
        effective_rates,
        objective: sol.value,
        kkt_verified: sol.kkt_verified,
        iterations: sol.diagnostics.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{janet_task_with, BACKGROUND_SEED};
    use crate::{solve_placement, PlacementConfig};
    use nws_routing::OdPair;

    /// A detection-flavoured second task over the same topology: watch two
    /// prefixes "below the radar" (tiny OD pairs).
    fn security_task() -> MeasurementTask {
        let base = janet_task_with(100_000.0, BACKGROUND_SEED).unwrap();
        let topo = base.topology().clone();
        let janet = topo.require_node("JANET").unwrap();
        let hr = topo.require_node("HR").unwrap();
        let ie = topo.require_node("IE").unwrap();
        let bg = base.link_loads().to_vec();
        MeasurementTask::builder(topo)
            .track("SEC-HR", OdPair::new(janet, hr), 1_500.0)
            .track("SEC-IE", OdPair::new(janet, ie), 900.0)
            .background_loads(&bg)
            .theta(100_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn composite_solves_and_certifies() {
        let te = janet_task_with(100_000.0, BACKGROUND_SEED).unwrap();
        let sec = security_task();
        let sol = solve_composite(
            &[
                SubTask {
                    task: &te,
                    weight: 1.0,
                    utility: UtilityChoice::SizeEstimation,
                },
                SubTask {
                    task: &sec,
                    weight: 2.0,
                    utility: UtilityChoice::Coverage { eps: 1e-4 },
                },
            ],
            100_000.0,
            SolverOptions::default(),
        )
        .unwrap();
        assert!(sol.kkt_verified);
        assert_eq!(sol.utilities.len(), 2);
        assert_eq!(sol.utilities[0].len(), 20);
        assert_eq!(sol.utilities[1].len(), 2);
        // Every OD of every task is observed.
        for rates in &sol.effective_rates {
            assert!(rates.iter().all(|&r| r > 0.0));
        }
        // The IE link (only used by the security task) is monitored.
        let topo = te.topology();
        let uk = topo.require_node("UK").unwrap();
        let ie = topo.require_node("IE").unwrap();
        let uk_ie = topo.link_between(uk, ie).unwrap();
        assert!(
            sol.rates[uk_ie.index()] > 0.0,
            "security-only link unmonitored"
        );
    }

    #[test]
    fn single_subtask_matches_plain_solve() {
        let te = janet_task_with(100_000.0, BACKGROUND_SEED).unwrap();
        let plain = solve_placement(&te, &PlacementConfig::default()).unwrap();
        let comp = solve_composite(
            &[SubTask {
                task: &te,
                weight: 1.0,
                utility: UtilityChoice::SizeEstimation,
            }],
            100_000.0,
            SolverOptions::default(),
        )
        .unwrap();
        assert!((comp.objective - plain.objective).abs() < 1e-6);
        for (a, b) in comp.rates.iter().zip(&plain.rates) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn weight_shifts_allocation() {
        let te = janet_task_with(100_000.0, BACKGROUND_SEED).unwrap();
        let sec = security_task();
        let solve_with = |w_sec: f64| {
            solve_composite(
                &[
                    SubTask {
                        task: &te,
                        weight: 1.0,
                        utility: UtilityChoice::SizeEstimation,
                    },
                    SubTask {
                        task: &sec,
                        weight: w_sec,
                        utility: UtilityChoice::Coverage { eps: 1e-4 },
                    },
                ],
                100_000.0,
                SolverOptions::default(),
            )
            .unwrap()
        };
        let lo = solve_with(0.1);
        let hi = solve_with(10.0);
        // More weight on the security task => at least as much effective
        // rate for its ODs.
        for (a, b) in hi.effective_rates[1].iter().zip(&lo.effective_rates[1]) {
            assert!(a >= &(b - 1e-9), "hi {a} < lo {b}");
        }
        assert!(hi.effective_rates[1][0] > lo.effective_rates[1][0]);
    }

    #[test]
    fn empty_and_mismatched_rejected() {
        assert!(solve_composite(&[], 1.0, SolverOptions::default()).is_err());
        let te = janet_task_with(100_000.0, BACKGROUND_SEED).unwrap();
        let other_topo_task = {
            let topo = nws_topo::abilene();
            let cust = topo.require_node("CUST").unwrap();
            let chin = topo.require_node("CHIN").unwrap();
            MeasurementTask::builder(topo)
                .track("X", OdPair::new(cust, chin), 1e6)
                .theta(100.0)
                .build()
                .unwrap()
        };
        let err = solve_composite(
            &[
                SubTask {
                    task: &te,
                    weight: 1.0,
                    utility: UtilityChoice::SizeEstimation,
                },
                SubTask {
                    task: &other_topo_task,
                    weight: 1.0,
                    utility: UtilityChoice::SizeEstimation,
                },
            ],
            1_000.0,
            SolverOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }
}
