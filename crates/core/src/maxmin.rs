//! Max–min fairness objective (the alternative formulation of §III).
//!
//! The paper's objective maximizes the *sum* of utilities, noting that the
//! max–min alternative `max_p min_k M(ρ_k)` trades flexibility for fairness
//! and is not differentiable, which conflicts with the Newton line search
//! (§III). This module implements the standard smooth work-around the paper
//! leaves to future work: the **soft-min**
//!
//! ```text
//! f_β(p) = −(1/β)·ln Σ_k exp(−β·M_k(ρ_k(p)))
//! ```
//!
//! which is C², concave (log-sum-exp of concave arguments), within
//! `ln(F)/β` of the true minimum, and converges to it as `β → ∞`. A small
//! homotopy (increasing β, warm-starting each stage) keeps the smooth
//! problems well conditioned.

use crate::{
    build_problem, CoreError, MeasurementTask, PlacementObjective, RateModel, ReducedIndex, Utility,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{Objective, Solver, SolverOptions};
use nws_topo::LinkId;

/// Soft-min objective over the per-OD utilities, with the approximate
/// (linear) effective-rate model.
pub struct SoftMinObjective<'a> {
    inner: &'a PlacementObjective,
    beta: f64,
}

impl<'a> SoftMinObjective<'a> {
    /// Wraps a placement objective with soft-min sharpness `beta`.
    ///
    /// # Panics
    /// Panics unless `beta > 0`.
    pub fn new(inner: &'a PlacementObjective, beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0,
            "beta must be positive, got {beta}"
        );
        SoftMinObjective { inner, beta }
    }

    /// Per-OD soft-max weights `w_k ∝ exp(−β·M_k)` at `p` (they concentrate
    /// on the worst-off OD as β grows).
    fn weights(&self, utilities: &[f64]) -> Vec<f64> {
        let m_min = utilities.iter().copied().fold(f64::INFINITY, f64::min);
        let unnorm: Vec<f64> = utilities
            .iter()
            .map(|&m| (-self.beta * (m - m_min)).exp())
            .collect();
        let z: f64 = unnorm.iter().sum();
        unnorm.into_iter().map(|w| w / z).collect()
    }

    fn utilities_at(&self, p: &Vector) -> Vec<f64> {
        self.inner
            .effective_rates(p)
            .iter()
            .enumerate()
            .map(|(k, &rho)| self.inner.utilities()[k].value(rho))
            .collect()
    }
}

impl Objective for SoftMinObjective<'_> {
    fn value(&self, p: &Vector) -> f64 {
        let utilities = self.utilities_at(p);
        let m_min = utilities.iter().copied().fold(f64::INFINITY, f64::min);
        let z: f64 = utilities
            .iter()
            .map(|&m| (-self.beta * (m - m_min)).exp())
            .sum();
        m_min - z.ln() / self.beta
    }

    fn gradient(&self, p: &Vector) -> Vector {
        let rhos = self.inner.effective_rates(p);
        let utilities: Vec<f64> = rhos
            .iter()
            .enumerate()
            .map(|(k, &rho)| self.inner.utilities()[k].value(rho))
            .collect();
        let w = self.weights(&utilities);
        // ∂f/∂p_i = Σ_k w_k·M'_k(ρ_k)·r_{k,i}; reuse the inner objective's
        // sparse rows via a weighted gradient trick: evaluate per-OD.
        let mut g = Vector::zeros(p.len());
        for (k, &rho) in rhos.iter().enumerate() {
            let scale = w[k] * self.inner.utilities()[k].d1(rho);
            for (v, r) in self.inner.row(k) {
                g[*v] += scale * r;
            }
        }
        g
    }

    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
        let rhos = self.inner.effective_rates(p);
        let utilities: Vec<f64> = rhos
            .iter()
            .enumerate()
            .map(|(k, &rho)| self.inner.utilities()[k].value(rho))
            .collect();
        let w = self.weights(&utilities);
        // h_k' = M'·(r_k·s); h_k'' = M''·(r_k·s)².
        // f'' = Σ w_k h_k'' − β·Var_w(h_k')  (both terms ≤ 0).
        let mut mean_h1 = 0.0;
        let mut mean_h1_sq = 0.0;
        let mut sum_h2 = 0.0;
        for (k, &rho) in rhos.iter().enumerate() {
            let drho: f64 = self.inner.row(k).iter().map(|&(v, r)| r * s[v]).sum();
            let h1 = self.inner.utilities()[k].d1(rho) * drho;
            let h2 = self.inner.utilities()[k].d2(rho) * drho * drho;
            mean_h1 += w[k] * h1;
            mean_h1_sq += w[k] * h1 * h1;
            sum_h2 += w[k] * h2;
        }
        sum_h2 - self.beta * (mean_h1_sq - mean_h1 * mean_h1)
    }
}

/// Result of the max–min optimization.
#[derive(Debug, Clone)]
pub struct MaxMinSolution {
    /// Sampling rate per topology link.
    pub rates: Vec<f64>,
    /// Activated monitors.
    pub active_monitors: Vec<LinkId>,
    /// Per-OD utilities at the solution.
    pub utilities: Vec<f64>,
    /// The achieved minimum utility (the max–min objective value).
    pub min_utility: f64,
    /// Final soft-min sharpness used.
    pub final_beta: f64,
    /// Whether the final smooth stage reached a certified KKT point.
    pub kkt_verified: bool,
}

/// Solves the max–min placement by a soft-min homotopy over `betas`
/// (ascending), warm-starting each stage from the previous solution.
///
/// # Errors
/// [`CoreError::Solver`] for infeasible capacity or solver failures;
/// [`CoreError::InvalidTask`] if `betas` is empty or not ascending/positive.
pub fn solve_maxmin(
    task: &MeasurementTask,
    solver_options: SolverOptions,
    betas: &[f64],
) -> Result<MaxMinSolution, CoreError> {
    if betas.is_empty() {
        return Err(CoreError::InvalidTask("empty beta schedule".into()));
    }
    if betas.windows(2).any(|w| w[0] >= w[1]) || betas[0] <= 0.0 {
        return Err(CoreError::InvalidTask(
            "beta schedule must be positive and strictly ascending".into(),
        ));
    }
    let index = ReducedIndex::new(task);
    let inner = PlacementObjective::new(task, &index, RateModel::Approximate);
    let problem = build_problem(task, &index)?;
    let solver = Solver::new(solver_options);

    let mut start = problem.feasible_start();
    let mut last = None;
    for &beta in betas {
        let obj = SoftMinObjective::new(&inner, beta);
        let sol = solver.maximize_from(&obj, &problem, start.clone(), &Recorder::disabled())?;
        start = sol.p.clone();
        last = Some((sol, beta));
    }
    let (sol, final_beta) = last.expect("non-empty schedule");

    let utilities: Vec<f64> = inner
        .effective_rates(&sol.p)
        .iter()
        .enumerate()
        .map(|(k, &rho)| inner.utilities()[k].value(rho))
        .collect();
    let min_utility = utilities.iter().copied().fold(f64::INFINITY, f64::min);
    let rates = index.expand(&sol.p, task.topology().num_links());
    let active_monitors: Vec<LinkId> = task
        .candidate_links()
        .iter()
        .copied()
        .filter(|&l| rates[l.index()] > crate::ACTIVATION_THRESHOLD)
        .collect();
    Ok(MaxMinSolution {
        rates,
        active_monitors,
        utilities,
        min_utility,
        final_beta,
        kkt_verified: sol.kkt_verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::janet_task_with;
    use crate::{solve_placement, PlacementConfig};

    fn betas() -> Vec<f64> {
        vec![50.0, 200.0, 1000.0]
    }

    #[test]
    fn softmin_value_below_true_min() {
        let task = janet_task_with(50_000.0, 1).unwrap();
        let index = ReducedIndex::new(&task);
        let inner = PlacementObjective::new(&task, &index, RateModel::Approximate);
        let obj = SoftMinObjective::new(&inner, 100.0);
        let problem = build_problem(&task, &index).unwrap();
        let p = problem.feasible_start();
        let utilities: Vec<f64> = inner
            .effective_rates(&p)
            .iter()
            .enumerate()
            .map(|(k, &rho)| inner.utilities()[k].value(rho))
            .collect();
        let true_min = utilities.iter().copied().fold(f64::INFINITY, f64::min);
        let v = obj.value(&p);
        assert!(v <= true_min + 1e-12, "softmin {v} above min {true_min}");
        // Within ln(F)/β.
        assert!(true_min - v <= (20.0f64).ln() / 100.0 + 1e-12);
    }

    #[test]
    fn softmin_gradient_matches_finite_differences() {
        let task = janet_task_with(50_000.0, 1).unwrap();
        let index = ReducedIndex::new(&task);
        let inner = PlacementObjective::new(&task, &index, RateModel::Approximate);
        let obj = SoftMinObjective::new(&inner, 80.0);
        let p: Vector = (0..index.dim()).map(|v| 1e-3 + 1e-4 * v as f64).collect();
        let g = obj.gradient(&p);
        for v in (0..index.dim()).step_by(5) {
            let h = 1e-8;
            let mut pp = p.clone();
            pp[v] += h;
            let mut pm = p.clone();
            pm[v] -= h;
            let fd = (obj.value(&pp) - obj.value(&pm)) / (2.0 * h);
            assert!(
                (fd - g[v]).abs() <= 1e-3 * g[v].abs().max(1e-6),
                "var {v}: fd {fd} vs {}",
                g[v]
            );
        }
    }

    #[test]
    fn maxmin_raises_worst_od() {
        let task = janet_task_with(50_000.0, 1).unwrap();
        let sum_opt = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let mm = solve_maxmin(&task, SolverOptions::default(), &betas()).unwrap();
        let sum_min = sum_opt
            .utilities
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(
            mm.min_utility >= sum_min - 1e-6,
            "max-min worst {} < sum-opt worst {sum_min}",
            mm.min_utility
        );
        // And the spread tightens.
        let spread = |u: &[f64]| {
            u.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - u.iter().copied().fold(f64::INFINITY, f64::min)
        };
        assert!(spread(&mm.utilities) <= spread(&sum_opt.utilities) + 1e-9);
    }

    #[test]
    fn maxmin_sacrifices_total_utility() {
        let task = janet_task_with(50_000.0, 1).unwrap();
        let sum_opt = solve_placement(&task, &PlacementConfig::default()).unwrap();
        let mm = solve_maxmin(&task, SolverOptions::default(), &betas()).unwrap();
        let mm_total: f64 = mm.utilities.iter().sum();
        assert!(mm_total <= sum_opt.objective + 1e-9);
    }

    #[test]
    fn bad_beta_schedules_rejected() {
        let task = janet_task_with(50_000.0, 1).unwrap();
        assert!(solve_maxmin(&task, SolverOptions::default(), &[]).is_err());
        assert!(solve_maxmin(&task, SolverOptions::default(), &[10.0, 5.0]).is_err());
        assert!(solve_maxmin(&task, SolverOptions::default(), &[-1.0, 5.0]).is_err());
    }
}
