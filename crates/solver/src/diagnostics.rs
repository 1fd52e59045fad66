//! Solution and diagnostic reporting.

use nws_linalg::Vector;

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationReason {
    /// A KKT point was reached — the global maximum (concave objective over
    /// a convex feasible set).
    KktSatisfied,
    /// The iteration cap was exceeded before certifying optimality. The
    /// returned point is feasible and the best found, but not certified
    /// (paper §IV-D caps at 2000 iterations and reports 98.6 % success).
    IterationLimit,
    /// The wall-clock deadline ([`crate::SolverOptions::deadline`])
    /// expired before certifying optimality. As with
    /// [`TerminationReason::IterationLimit`], the returned point is
    /// feasible and the best found so far — the anytime contract a serving
    /// daemon relies on.
    DeadlineExceeded,
    /// The budget is too small for the bound-snap tolerance
    /// ([`crate::SolverOptions::bound_snap_tol`]): snapping the start onto
    /// its bounds set every coordinate that carried θ to 0, so the snapped
    /// point misses θ by more than 1e-9 relative. The solve ends before
    /// its first iteration and returns the unsnapped start, which is
    /// feasible but uncertified.
    BudgetBelowSnap,
}

/// Convergence diagnostics of one solver run — the quantities the paper
/// reports in §IV-D.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Iterations used (a new iteration starts each time a search direction
    /// is computed, matching the paper's counting).
    pub iterations: usize,
    /// Number of times active constraints with negative multipliers had to
    /// be released (the paper measures on average 1.64 per run).
    pub constraint_releases: usize,
    /// Number of line searches that terminated by hitting a bound.
    pub bounds_hit: usize,
    /// Final projected-gradient infinity norm.
    pub final_projected_gradient: f64,
    /// Final KKT stationarity residual over free variables.
    pub stationarity_residual: f64,
}

/// The result of a solve: optimizer, value, certification and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The final feasible point (sampling rates).
    pub p: Vector,
    /// Objective value at `p`.
    pub value: f64,
    /// The capacity-equality multiplier `λ` at `p` — marginal utility of
    /// sampling budget.
    pub lambda: f64,
    /// True iff the KKT conditions were verified at `p`.
    pub kkt_verified: bool,
    /// Why the solver stopped.
    pub reason: TerminationReason,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
    /// Objective value per iteration (final point appended), populated only
    /// when [`crate::SolverOptions::record_objective`] is set. Exact line
    /// searches make gradient projection a monotone-ascent method, so this
    /// sequence is nondecreasing up to float noise — an invariant the test
    /// suite asserts.
    pub objective_trajectory: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let d = Diagnostics {
            iterations: 10,
            constraint_releases: 1,
            bounds_hit: 3,
            final_projected_gradient: 1e-12,
            stationarity_residual: 1e-13,
        };
        let s = Solution {
            p: Vector::filled(2, 0.5),
            value: 1.5,
            lambda: 0.1,
            kkt_verified: true,
            reason: TerminationReason::KktSatisfied,
            diagnostics: d.clone(),
            objective_trajectory: Vec::new(),
        };
        assert_eq!(s.diagnostics, d);
        assert_eq!(s.reason, TerminationReason::KktSatisfied);
        assert_ne!(
            TerminationReason::KktSatisfied,
            TerminationReason::IterationLimit
        );
    }
}
