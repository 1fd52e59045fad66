//! The gradient-projection solver loop.

use crate::newton::newton_step;
use crate::{
    compute_multipliers, project_gradient, ActiveSet, BoxLinearProblem, Diagnostics,
    LineSearchOutcome, NewtonLineSearch, Objective, Result, Solution, SolverError,
    TerminationReason, VarState,
};
use nws_linalg::Vector;
use nws_obs::Recorder;
use std::time::Instant;

/// How the solve loop picks its search direction on the current face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// The projected gradient alone: steepest ascent on the face, which
    /// zigzags along stiff valleys (the pathology paper §IV-D names).
    ProjectedGradient,
    /// The paper's method (§IV-D): successive projected gradients mixed by
    /// the Polak–Ribière rule, the memory cleared whenever the active set
    /// changes.
    PolakRibiere,
    /// Polak–Ribière while the active set moves; once a line search ends
    /// inside the face without changing it, a truncated Newton step on the
    /// free face (Moré and Toraldo's GPCG, 1991), for objectives that
    /// answer [`Objective::prepare_curvature`]. Any bound hit, re-clamp,
    /// release or reclassification sends the loop back to Polak–Ribière,
    /// and a Newton step clears its memory.
    #[default]
    Newton,
}

/// Tunable parameters of the solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Iteration cap — a new iteration starts whenever a new search
    /// direction is computed (the paper's counting; its cap is 2000, §IV-D).
    /// Reaching it ends the solve with
    /// [`TerminationReason::IterationLimit`] and the best feasible iterate.
    pub max_iterations: usize,
    /// Projected-gradient convergence tolerance, relative to the gradient's
    /// infinity norm. A candidate point passing this test must additionally
    /// survive the KKT multiplier check *and* a value-based verification
    /// line search before the solver declares convergence, so the tolerance
    /// controls when certification is *attempted*, not its soundness; on
    /// stiff problems (utility curvature `∝ 1/ρ³`) an overly tight value
    /// wastes iterations fighting the gradient's float-noise floor.
    pub grad_tol: f64,
    /// Absolute tolerance for classifying a coordinate as sitting on a bound.
    pub bound_snap_tol: f64,
    /// Tolerance below which a bound multiplier counts as negative.
    pub multiplier_tol: f64,
    /// The search direction on the current face.
    pub direction: Direction,
    /// Record the objective value at every iteration into
    /// [`crate::Solution::objective_trajectory`]. Off by default (one extra
    /// objective evaluation per iteration); used by convergence studies and
    /// by tests asserting the method's monotone-ascent property.
    pub record_objective: bool,
    /// The 1-D line-search engine.
    pub line_search: NewtonLineSearch,
    /// Wall-clock deadline, checked once per iteration (so the overrun is
    /// bounded by one iteration's work). Reaching it ends the solve with
    /// [`TerminationReason::DeadlineExceeded`] and the best feasible
    /// iterate instead of an error. `None` (the default) sets no deadline.
    pub deadline: Option<Instant>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 2000,
            grad_tol: 1e-6,
            bound_snap_tol: 1e-12,
            multiplier_tol: 1e-9,
            direction: Direction::default(),
            record_objective: false,
            line_search: NewtonLineSearch::default(),
            deadline: None,
        }
    }
}

/// A verification-step outcome: the improved point plus, when the step ran
/// to the segment end, the bound it hit as `(variable, at_upper)`.
type VerificationStep = (Vector, Option<(usize, bool)>);

/// Gradient-projection active-set maximizer for [`BoxLinearProblem`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solver {
    /// Solver parameters.
    pub options: SolverOptions,
}

impl Solver {
    /// Creates a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
        Solver { options }
    }

    /// Maximizes `obj` over `problem` from the canonical feasible start
    /// ([`BoxLinearProblem::feasible_start`]), recording nothing.
    ///
    /// # Errors
    /// Propagates problem/objective errors; see [`Solver::maximize_from`].
    pub fn maximize<O: Objective>(&self, obj: &O, problem: &BoxLinearProblem) -> Result<Solution> {
        self.maximize_from(
            obj,
            problem,
            problem.feasible_start(),
            &Recorder::disabled(),
        )
    }

    /// Maximizes `obj` over `problem` starting from `start`, wrapping the
    /// whole run in a `solve` span with child spans per phase (`direction`,
    /// `projection`, `kkt_check`, `line_search`) and bumping the
    /// `solver_iterations_total` / `solver_releases_total` counters on
    /// success. With a disabled recorder this costs one branch per phase.
    ///
    /// # Errors
    /// [`SolverError::InvalidProblem`] if `start` is not feasible;
    /// [`SolverError::NonFiniteObjective`] if the objective or gradient is
    /// non-finite anywhere the solver evaluates it.
    pub fn maximize_from<O: Objective>(
        &self,
        obj: &O,
        problem: &BoxLinearProblem,
        start: Vector,
        rec: &Recorder,
    ) -> Result<Solution> {
        let sol = {
            let _solve = rec.span("solve");
            self.run_loop(obj, problem, start, rec)?
        };
        rec.counter_add("solver_iterations_total", sol.diagnostics.iterations as u64);
        rec.counter_add(
            "solver_releases_total",
            sol.diagnostics.constraint_releases as u64,
        );
        Ok(sol)
    }

    fn run_loop<O: Objective>(
        &self,
        obj: &O,
        problem: &BoxLinearProblem,
        start: Vector,
        rec: &Recorder,
    ) -> Result<Solution> {
        let o = &self.options;
        if !problem.is_feasible(&start, 1e-9) {
            return Err(SolverError::InvalidProblem(
                "starting point is not feasible".into(),
            ));
        }
        let mut p = start.clone();
        let mut active = ActiveSet::classify(&p, problem, o.bound_snap_tol);
        active.snap(&mut p, problem);
        restore_equality(&mut p, &active, problem);
        let rhs = problem.eq_rhs();
        if (problem.eq_normal().dot(&p) - rhs).abs() > 1e-9 * rhs {
            // The snap tolerance swallowed the budget: every coordinate that
            // carried θ sat within it of 0. Certifying the snapped point
            // would serve a plan that samples nothing, so hand back the
            // (feasible) start, uncertified.
            let g = obj.gradient(&start);
            let free = ActiveSet::classify(&start, problem, 0.0);
            let rep = compute_multipliers(&g, &free, problem, o.multiplier_tol);
            return Ok(self.finish(
                obj,
                problem,
                start,
                rep.multipliers.lambda,
                false,
                TerminationReason::BudgetBelowSnap,
                0,
                0,
                0,
                f64::INFINITY,
                rep.stationarity_residual,
                Vec::new(),
            ));
        }

        // Conjugate-direction memory; cleared whenever the active set changes.
        let mut prev_dir: Option<Vector> = None;
        let mut prev_proj: Option<Vector> = None;
        // Set only when the last line search ended inside the face with the
        // active set unchanged: the next direction may then be a Newton step.
        let mut settled = false;

        let mut releases = 0usize;
        let mut bounds_hit = 0usize;
        let mut iterations = 0usize;
        let mut last_proj_norm = f64::INFINITY;

        let mut trajectory: Vec<f64> = Vec::new();
        // Gradient buffer reused across iterations (objectives with a
        // `gradient_into` override fill it without allocating).
        let mut g = Vector::zeros(problem.dim());
        let mut overrun_reason = TerminationReason::IterationLimit;
        while iterations < o.max_iterations {
            if let Some(deadline) = o.deadline {
                if Instant::now() >= deadline {
                    overrun_reason = TerminationReason::DeadlineExceeded;
                    break;
                }
            }
            iterations += 1;
            // Every path but a settled interior step below leaves this false.
            let face_settled = std::mem::take(&mut settled);
            {
                let _phase = rec.span("direction");
                // When the trajectory is recorded, the fused kernel produces
                // value + gradient in one data sweep instead of two.
                if o.record_objective {
                    trajectory.push(obj.value_and_gradient_into(&p, &mut g));
                } else {
                    obj.gradient_into(&p, &mut g);
                }
            }
            if !g.is_finite() {
                return Err(SolverError::NonFiniteObjective(format!(
                    "gradient at iteration {iterations}"
                )));
            }
            let d = {
                let _phase = rec.span("projection");
                project_gradient(&g, &active, problem)
            };
            last_proj_norm = d.norm_inf();
            let scale = g.norm_inf().max(1.0);

            let stationary = last_proj_norm <= o.grad_tol * scale;
            if stationary {
                let _phase = rec.span("kkt_check");
                let rep = compute_multipliers(&g, &active, problem, o.multiplier_tol);
                if rep.negative.is_empty() {
                    // A small projected gradient is necessary but — on stiff
                    // valley floors, where conjugate iterates pass through
                    // near-stationary points — not sufficient. Verify with
                    // one exact line search along the projection: at a true
                    // constrained maximum it cannot improve the objective.
                    if let Some(verified) =
                        self.verification_step(obj, &p, &d, scale, problem, &active)?
                    {
                        let (cand, hit) = verified;
                        p = cand;
                        if let Some((hit_var, hit_upper)) = hit {
                            active.set(
                                hit_var,
                                if hit_upper {
                                    VarState::AtUpper
                                } else {
                                    VarState::AtLower
                                },
                            );
                            bounds_hit += 1;
                            active.snap(&mut p, problem);
                        }
                        prev_dir = None;
                        prev_proj = None;
                        continue;
                    }
                    return Ok(self.finish(
                        obj,
                        problem,
                        p,
                        rep.multipliers.lambda,
                        true,
                        TerminationReason::KktSatisfied,
                        iterations,
                        releases,
                        bounds_hit,
                        last_proj_norm,
                        rep.stationarity_residual,
                        trajectory,
                    ));
                }
                // Release the bounds that certify non-optimality and retry
                // with the enlarged subspace (the paper's §IV-D strategy of
                // releasing the whole negative-multiplier subset). The
                // multiplier estimate λ changes once the free set grows, so
                // a released variable can turn out to be blocked at its
                // bound under the new λ — the NoProgress arm below re-clamps
                // such variables instead of stalling.
                for &i in &rep.negative {
                    active.set(i, VarState::Free);
                }
                releases += 1;
                prev_dir = None;
                prev_proj = None;
                continue;
            }

            let newton = if o.direction == Direction::Newton && face_settled {
                let _phase = rec.span("direction");
                obj.prepare_curvature(&p).and_then(|curvature| {
                    newton_step(&*curvature, &g, &d, &active, problem.eq_normal())
                })
            } else {
                None
            };
            let is_newton = newton.is_some();
            let s = if let Some(step) = newton {
                prev_dir = None;
                prev_proj = None;
                step
            } else {
                self.conjugate(&g, &d, prev_dir.as_ref(), prev_proj.as_ref())
            };

            let Some((t_max, hit_var, hit_upper)) = max_step(&p, &s, problem, &active) else {
                // Numerically null direction — treat as stationary and let
                // the multiplier logic decide next iteration.
                prev_dir = None;
                prev_proj = None;
                continue;
            };

            let outcome = {
                let _phase = rec.span("line_search");
                o.line_search.maximize(obj, &p, &s, t_max)?
            };
            match outcome {
                LineSearchOutcome::Interior(t) => {
                    p.axpy(t, &s);
                    // Float drift off the constraint surface accumulates at
                    // machine-epsilon scale per step; repair it only when it
                    // becomes measurable — unconditional repair perturbs the
                    // iterate enough to destroy slow conjugate progress
                    // along stiff valley floors.
                    maybe_repair_feasibility(&mut p, &active, problem);
                    if !is_newton {
                        prev_dir = Some(s);
                        prev_proj = Some(d);
                    }
                    // The interior step may still have drifted a coordinate
                    // onto a bound; classify so the projection stays honest.
                    let new_active = ActiveSet::classify(&p, problem, o.bound_snap_tol);
                    if new_active != active {
                        active = new_active;
                        active.snap(&mut p, problem);
                        maybe_repair_feasibility(&mut p, &active, problem);
                        prev_dir = None;
                        prev_proj = None;
                    } else {
                        settled = true;
                    }
                }
                LineSearchOutcome::ReachedMax => {
                    p.axpy(t_max, &s);
                    active.set(
                        hit_var,
                        if hit_upper {
                            VarState::AtUpper
                        } else {
                            VarState::AtLower
                        },
                    );
                    bounds_hit += 1;
                    active.snap(&mut p, problem);
                    maybe_repair_feasibility(&mut p, &active, problem);
                    prev_dir = None;
                    prev_proj = None;
                }
                LineSearchOutcome::NoProgress => {
                    if prev_dir.is_some() || is_newton {
                        // The conjugate or Newton direction stalled; retry
                        // from the pure projection next iteration.
                        prev_dir = None;
                        prev_proj = None;
                        continue;
                    }
                    if t_max == 0.0 {
                        // A free variable sits exactly on a bound with the
                        // projection pointing outward (typically a variable
                        // released under a multiplier estimate that the
                        // enlarged free set no longer supports). Re-clamp it
                        // and recompute.
                        active.set(
                            hit_var,
                            if hit_upper {
                                VarState::AtUpper
                            } else {
                                VarState::AtLower
                            },
                        );
                        bounds_hit += 1;
                        active.snap(&mut p, problem);
                        prev_dir = None;
                        prev_proj = None;
                        continue;
                    }
                    // The pure projection made no numerical progress away
                    // from bounds. It is not small (a small one took the
                    // stationary branch above), so this large-gradient stall
                    // burns one iteration and retries (bounded by the
                    // iteration cap).
                    prev_dir = None;
                    prev_proj = None;
                }
            }
        }

        obj.gradient_into(&p, &mut g);
        let rep = compute_multipliers(&g, &active, problem, self.options.multiplier_tol);
        Ok(self.finish(
            obj,
            problem,
            p,
            rep.multipliers.lambda,
            false,
            overrun_reason,
            iterations,
            releases,
            bounds_hit,
            last_proj_norm,
            rep.stationarity_residual,
            trajectory,
        ))
    }

    /// The projected gradient `d`, mixed with the previous direction `pd`
    /// (whose projected gradient was `pg`) by the Polak–Ribière rule unless
    /// the options ask for the projected gradient alone.
    fn conjugate(
        &self,
        g: &Vector,
        d: &Vector,
        pd: Option<&Vector>,
        pg: Option<&Vector>,
    ) -> Vector {
        let mut s = d.clone();
        if self.options.direction == Direction::ProjectedGradient {
            return s;
        }
        if let (Some(pd), Some(pg)) = (pd, pg) {
            let denom = pg.dot(pg);
            if denom > 0.0 {
                let beta = (d.dot(&(d - pg)) / denom).max(0.0);
                s.axpy(beta, pd);
                // Safeguards: the mixed direction must stay an ascent
                // direction; otherwise restart from the projection.
                if g.dot(&s) <= 0.0 {
                    s = d.clone();
                }
            }
        }
        s
    }

    /// Attempts one exact line search along the projected gradient `d` from
    /// `p`. Returns `Some((new_point, bound_hit))` when the step improves
    /// the objective beyond float noise — proof that `p` was a stiff valley
    /// floor rather than the constrained maximum — and `None` when no
    /// meaningful improvement exists (true convergence).
    fn verification_step<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        d: &Vector,
        gradient_scale: f64,
        problem: &BoxLinearProblem,
        active: &ActiveSet,
    ) -> Result<Option<VerificationStep>> {
        // Near stationarity the projection is computed by catastrophic
        // cancellation, so once ‖d‖ falls to rounding noise relative to the
        // gradient, its *direction* is meaningless — stepping far along it
        // would walk off the equality hyperplane. Treat it as zero.
        if d.norm_inf() <= 1e-12 * gradient_scale {
            return Ok(None);
        }
        let Some((t_max, hit_var, hit_upper)) = max_step(p, d, problem, active) else {
            return Ok(None);
        };
        let before = obj.value(p);
        let improvement_floor = 1e-12 * (1.0 + before.abs());
        let accept = |mut cand: Vector, hit: Option<(usize, bool)>| {
            // Repair the (tiny) drift the step introduced and insist on
            // feasibility: a verification step must never trade constraint
            // violation for objective improvement.
            restore_equality(&mut cand, active, problem);
            for i in 0..cand.len() {
                cand[i] = cand[i].clamp(0.0, problem.upper()[i]);
            }
            if !problem.is_feasible(&cand, 1e-9) {
                return None;
            }
            let after = obj.value(&cand);
            if after > before + improvement_floor {
                Some((cand, hit))
            } else {
                None
            }
        };
        match self.options.line_search.maximize(obj, p, d, t_max)? {
            LineSearchOutcome::Interior(t) => {
                let mut cand = p.clone();
                cand.axpy(t, d);
                Ok(accept(cand, None))
            }
            LineSearchOutcome::ReachedMax => {
                let mut cand = p.clone();
                cand.axpy(t_max, d);
                Ok(accept(cand, Some((hit_var, hit_upper))))
            }
            LineSearchOutcome::NoProgress => Ok(None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish<O: Objective>(
        &self,
        obj: &O,
        problem: &BoxLinearProblem,
        mut p: Vector,
        lambda: f64,
        kkt_verified: bool,
        reason: TerminationReason,
        iterations: usize,
        constraint_releases: usize,
        bounds_hit: usize,
        final_projected_gradient: f64,
        stationarity_residual: f64,
        mut trajectory: Vec<f64>,
    ) -> Solution {
        // The conditional feasibility repair tolerates sub-1e-10 float drift
        // during the search; the *returned* point must sit exactly in the box.
        for i in 0..p.len() {
            p[i] = p[i].clamp(0.0, problem.upper()[i]);
        }
        let value = obj.value(&p);
        if self.options.record_objective {
            trajectory.push(value);
        }
        Solution {
            value,
            lambda,
            kkt_verified,
            reason,
            diagnostics: Diagnostics {
                iterations,
                constraint_releases,
                bounds_hit,
                final_projected_gradient,
                stationarity_residual,
            },
            objective_trajectory: trajectory,
            p,
        }
    }
}

/// The largest step along `s` before some *free* coordinate leaves the box,
/// with the index of the limiting coordinate and whether it hits the upper
/// bound. `None` when the direction is numerically null on the free set.
fn max_step(
    p: &Vector,
    s: &Vector,
    problem: &BoxLinearProblem,
    active: &ActiveSet,
) -> Option<(f64, usize, bool)> {
    let mut best: Option<(f64, usize, bool)> = None;
    for i in 0..p.len() {
        if !active.is_free(i) {
            continue;
        }
        let si = s[i];
        let (t, upper) = if si > f64::EPSILON {
            ((problem.upper()[i] - p[i]) / si, true)
        } else if si < -f64::EPSILON {
            (p[i] / -si, false)
        } else {
            continue;
        };
        let t = t.max(0.0);
        if best.is_none_or(|(bt, _, _)| t < bt) {
            best = Some((t, i, upper));
        }
    }
    best
}

/// Repairs box and equality feasibility only when the drift is measurable
/// (relative error above `1e-10`). Small-scale repairs are deliberately
/// skipped: perturbing the iterate at machine-epsilon scale each step is
/// enough to destroy slow conjugate-gradient progress on ill-conditioned
/// instances, while the drift itself stays far below any reporting
/// tolerance.
fn maybe_repair_feasibility(p: &mut Vector, active: &ActiveSet, problem: &BoxLinearProblem) {
    let mut box_violation: f64 = 0.0;
    for i in 0..p.len() {
        let u = problem.upper()[i];
        box_violation = box_violation.max((-p[i]).max(p[i] - u));
    }
    let eq_err = (problem.eq_normal().dot(p) - problem.eq_rhs()).abs();
    let eq_scale = problem.eq_rhs().abs().max(1.0);
    if box_violation > 1e-10 || eq_err > 1e-10 * eq_scale {
        for i in 0..p.len() {
            p[i] = p[i].clamp(0.0, problem.upper()[i]);
        }
        restore_equality(p, active, problem);
    }
}

/// Restores `a·p = rhs` exactly by distributing the (tiny) residual along
/// the equality normal restricted to free coordinates.
fn restore_equality(p: &mut Vector, active: &ActiveSet, problem: &BoxLinearProblem) {
    let a = problem.eq_normal();
    let err = a.dot(p) - problem.eq_rhs();
    if err == 0.0 {
        return;
    }
    let mut norm2 = 0.0;
    for i in 0..p.len() {
        if active.is_free(i) {
            norm2 += a[i] * a[i];
        }
    }
    if norm2 == 0.0 {
        return; // fully clamped; nothing to adjust against
    }
    let corr = err / norm2;
    for i in 0..p.len() {
        if active.is_free(i) {
            p[i] = (p[i] - corr * a[i]).clamp(0.0, problem.upper()[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable concave quadratic: f(p) = −Σ w_i·(p_i − c_i)².
    struct Quad {
        w: Vec<f64>,
        c: Vec<f64>,
    }
    impl Objective for Quad {
        fn value(&self, p: &Vector) -> f64 {
            -(0..p.len())
                .map(|i| self.w[i] * (p[i] - self.c[i]) * (p[i] - self.c[i]))
                .sum::<f64>()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            (0..p.len())
                .map(|i| -2.0 * self.w[i] * (p[i] - self.c[i]))
                .collect()
        }
        fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
            -(0..s.len())
                .map(|i| 2.0 * self.w[i] * s[i] * s[i])
                .sum::<f64>()
        }
    }

    /// Σ log(ε + p_i): strictly concave with steep gradients near zero —
    /// a water-filling-style stress test.
    struct LogUtil {
        eps: f64,
    }
    impl Objective for LogUtil {
        fn value(&self, p: &Vector) -> f64 {
            p.iter().map(|x| (self.eps + x).ln()).sum()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            p.iter().map(|x| 1.0 / (self.eps + x)).collect()
        }
        fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
            -(0..s.len())
                .map(|i| s[i] * s[i] / ((self.eps + p[i]) * (self.eps + p[i])))
                .sum::<f64>()
        }
    }

    #[test]
    fn symmetric_quadratic_splits_budget() {
        let obj = Quad {
            w: vec![1.0, 1.0],
            c: vec![1.0, 1.0],
        };
        let pb =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(2, 1.0), 1.0).unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.kkt_verified);
        assert!(sol.p.approx_eq(&Vector::filled(2, 0.5), 1e-8), "{}", sol.p);
    }

    #[test]
    fn asymmetric_quadratic_known_optimum() {
        // max −(p1−1)² − 4(p2−1)² s.t. p1 + p2 = 1, 0 ≤ p ≤ 1.
        // Lagrange: −2(p1−1) = λ, −8(p2−1) = λ; p1+p2=1 →
        // p1−1 = 4(p2−1) → p1 = 4p2 − 3; p1 + p2 = 1 → 5p2 = 4 → p2 = 0.8.
        let obj = Quad {
            w: vec![1.0, 4.0],
            c: vec![1.0, 1.0],
        };
        let pb =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(2, 1.0), 1.0).unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.kkt_verified);
        assert!(
            sol.p.approx_eq(&Vector::from(vec![0.2, 0.8]), 1e-8),
            "got {}",
            sol.p
        );
        // λ = −2(0.2 − 1)/1 = 1.6 against a = (1,1).
        assert!((sol.lambda - 1.6).abs() < 1e-6, "lambda {}", sol.lambda);
    }

    #[test]
    fn optimum_on_a_bound() {
        // max −(p1−2)² − (p2−0)² s.t. p1 + p2 = 1: unconstrained optimum
        // (2, 0) infeasible for the box [0,1]² → p1 clamps at 1, p2 = 0.
        let obj = Quad {
            w: vec![1.0, 1.0],
            c: vec![2.0, 0.0],
        };
        let pb =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(2, 1.0), 1.0).unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.kkt_verified);
        assert!(
            sol.p.approx_eq(&Vector::from(vec![1.0, 0.0]), 1e-8),
            "got {}",
            sol.p
        );
    }

    #[test]
    fn monitors_switched_off_at_optimum() {
        // Heavily-weighted coordinate with a far target hogs the budget; the
        // "cheap" coordinate is driven to zero — the placement analogue of
        // not activating a monitor.
        let obj = Quad {
            w: vec![10.0, 0.01],
            c: vec![0.5, -5.0],
        };
        let pb = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![1.0, 1.0]), 0.5)
            .unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.kkt_verified);
        assert!((sol.p[0] - 0.5).abs() < 1e-7, "got {}", sol.p);
        assert!(sol.p[1].abs() < 1e-9, "got {}", sol.p);
    }

    #[test]
    fn water_filling_log_utility() {
        // max Σ ln(ε+p_i) s.t. Σ a_i p_i = θ: optimum has a_i(ε + p_i) equal
        // across free coordinates (water filling).
        let obj = LogUtil { eps: 1e-3 };
        let a = vec![1.0, 2.0, 4.0];
        let pb =
            BoxLinearProblem::new(Vector::filled(3, 10.0), Vector::from(a.clone()), 2.0).unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.kkt_verified, "diag: {:?}", sol.diagnostics);
        for (i, &ai) in a.iter().enumerate() {
            let marginal = 1.0 / (1e-3 + sol.p[i]) / ai;
            assert!(
                (marginal - sol.lambda).abs() < 1e-5 * sol.lambda,
                "marginal {i}: {marginal} vs λ {}",
                sol.lambda
            );
        }
        // Budget exactly consumed.
        let spent: f64 = (0..3).map(|i| a[i] * sol.p[i]).sum();
        assert!((spent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_point_problem() {
        // rhs at its maximum: only feasible point is `upper`.
        let obj = Quad {
            w: vec![1.0, 1.0],
            c: vec![0.0, 0.0],
        };
        let pb = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![1.0, 3.0]), 4.0)
            .unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(sol.p.approx_eq(&Vector::filled(2, 1.0), 1e-9));
        assert!(sol.kkt_verified);
    }

    #[test]
    fn infeasible_start_rejected() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![0.0],
        };
        let pb =
            BoxLinearProblem::new(Vector::filled(1, 1.0), Vector::filled(1, 1.0), 0.5).unwrap();
        let err = Solver::default()
            .maximize_from(&obj, &pb, Vector::from(vec![0.9]), &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn start_on_wrong_bound_is_released() {
        // Start with all mass on coordinate 0 although the optimum wants it
        // on coordinate 1: requires activating then releasing bounds.
        let obj = Quad {
            w: vec![1.0, 1.0],
            c: vec![0.0, 1.0],
        };
        let pb =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(2, 1.0), 1.0).unwrap();
        let sol = Solver::default()
            .maximize_from(
                &obj,
                &pb,
                Vector::from(vec![1.0, 0.0]),
                &Recorder::disabled(),
            )
            .unwrap();
        assert!(sol.kkt_verified);
        assert!(
            sol.p.approx_eq(&Vector::from(vec![0.0, 1.0]), 1e-8),
            "got {}",
            sol.p
        );
        assert!(sol.diagnostics.constraint_releases >= 1);
    }

    #[test]
    fn iteration_limit_reported() {
        let obj = LogUtil { eps: 1e-6 };
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![1.0, 2.0, 3.0, 4.0]),
            1.0,
        )
        .unwrap();
        let solver = Solver::new(SolverOptions {
            max_iterations: 1,
            ..SolverOptions::default()
        });
        let sol = solver.maximize(&obj, &pb).unwrap();
        assert_eq!(sol.reason, TerminationReason::IterationLimit);
        assert_eq!(sol.diagnostics.iterations, 1);
        assert!(!sol.kkt_verified);
        // Still feasible.
        assert!(pb.is_feasible(&sol.p, 1e-6));
    }

    #[test]
    fn budget_iteration_cap_tightens_max_iterations() {
        // A solve budget is a deadline plus an iteration cap that lowers
        // `max_iterations`. With the deadline generous, every cap below
        // what the unbudgeted solve needs ends it after exactly that many
        // iterations, at a feasible but uncertified point.
        let obj = LogUtil { eps: 1e-6 };
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![1.0, 2.0, 3.0, 4.0]),
            1.0,
        )
        .unwrap();
        let needed = Solver::default()
            .maximize(&obj, &pb)
            .unwrap()
            .diagnostics
            .iterations;
        assert!(needed > 1, "the unbudgeted solve took {needed} iteration");
        for cap in 1..needed {
            let sol = Solver::new(SolverOptions {
                max_iterations: cap,
                deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
                ..SolverOptions::default()
            })
            .maximize(&obj, &pb)
            .unwrap();
            assert_eq!(sol.reason, TerminationReason::IterationLimit, "cap {cap}");
            assert_eq!(sol.diagnostics.iterations, cap);
            assert!(!sol.kkt_verified, "cap {cap}");
            assert!(pb.is_feasible(&sol.p, 1e-6), "cap {cap}");
        }
    }

    #[test]
    fn budget_below_the_snap_tolerance_is_not_certified() {
        // θ/Σa·u = 1e-13: the canonical start sits within the 1e-12 snap
        // of 0 on every coordinate, so snapping it would spend nothing.
        let obj = LogUtil { eps: 1e-6 };
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![1.0, 2.0, 3.0, 4.0]),
            1e-12,
        )
        .unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert_eq!(sol.reason, TerminationReason::BudgetBelowSnap);
        assert!(!sol.kkt_verified);
        assert_eq!(sol.diagnostics.iterations, 0);
        // The unsnapped start comes back: it spends θ.
        assert_eq!(sol.p, pb.feasible_start());
        assert!(pb.is_feasible(&sol.p, 1e-9));
        assert!(sol.lambda.is_finite() && sol.value.is_finite());
    }

    #[test]
    fn expired_deadline_returns_feasible_point_not_error() {
        let obj = LogUtil { eps: 1e-6 };
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![1.0, 2.0, 3.0, 4.0]),
            1.0,
        )
        .unwrap();
        // A deadline already in the past: the loop must exit before the
        // first iteration and still return the (feasible) starting point.
        let solver = Solver::new(SolverOptions {
            deadline: Some(Instant::now()),
            ..SolverOptions::default()
        });
        let sol = solver.maximize(&obj, &pb).unwrap();
        assert_eq!(sol.reason, TerminationReason::DeadlineExceeded);
        assert!(!sol.kkt_verified);
        assert_eq!(sol.diagnostics.iterations, 0);
        assert!(pb.is_feasible(&sol.p, 1e-6));
    }

    #[test]
    fn generous_deadline_does_not_change_the_answer() {
        let obj = LogUtil { eps: 1e-6 };
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![1.0, 2.0, 3.0, 4.0]),
            1.0,
        )
        .unwrap();
        let unbudgeted = Solver::default().maximize(&obj, &pb).unwrap();
        let budgeted = Solver::new(SolverOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
            ..SolverOptions::default()
        })
        .maximize(&obj, &pb)
        .unwrap();
        assert!(budgeted.kkt_verified);
        assert_eq!(budgeted.reason, TerminationReason::KktSatisfied);
        assert!(budgeted.p.approx_eq(&unbudgeted.p, 1e-9));
    }

    #[test]
    fn conjugate_and_plain_projection_agree() {
        let obj = Quad {
            w: vec![1.0, 2.0, 3.0],
            c: vec![0.9, 0.4, 0.2],
        };
        let pb = BoxLinearProblem::new(
            Vector::filled(3, 1.0),
            Vector::from(vec![2.0, 1.0, 1.5]),
            1.0,
        )
        .unwrap();
        let with = |direction| {
            Solver::new(SolverOptions {
                direction,
                ..SolverOptions::default()
            })
        };
        let pr = with(Direction::PolakRibiere).maximize(&obj, &pb).unwrap();
        let plain = with(Direction::ProjectedGradient)
            .maximize(&obj, &pb)
            .unwrap();
        assert!(pr.kkt_verified && plain.kkt_verified);
        assert!(pr.p.approx_eq(&plain.p, 1e-6), "{} vs {}", pr.p, plain.p);
        assert!((pr.value - plain.value).abs() < 1e-9);
    }

    #[test]
    fn observed_solve_records_phase_spans_and_counters() {
        let obj = LogUtil { eps: 1e-3 };
        let pb = BoxLinearProblem::new(
            Vector::filled(3, 10.0),
            Vector::from(vec![1.0, 2.0, 4.0]),
            2.0,
        )
        .unwrap();
        let rec = Recorder::enabled();
        let sol = Solver::default()
            .maximize_from(&obj, &pb, pb.feasible_start(), &rec)
            .unwrap();
        assert!(sol.kkt_verified);
        let snap = rec.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(
            counter("solver_iterations_total"),
            Some(sol.diagnostics.iterations as u64)
        );
        assert_eq!(
            counter("solver_releases_total"),
            Some(sol.diagnostics.constraint_releases as u64)
        );
        let span = |name: &str| snap.spans.iter().find(|s| s.name == name);
        let solve = span("solve").expect("root span present");
        assert_eq!(solve.depth, 0);
        assert_eq!(solve.count, 1);
        for phase in ["direction", "projection", "line_search", "kkt_check"] {
            let s = span(phase).unwrap_or_else(|| panic!("{phase} span recorded"));
            assert_eq!(s.depth, 1, "{phase} nests under solve");
            assert!(s.count >= 1);
        }
        // The unobserved entry point leaves the recorder untouched.
        let silent = Recorder::enabled();
        Solver::default().maximize(&obj, &pb).unwrap();
        assert!(silent.snapshot().spans.is_empty());
    }

    #[test]
    fn solution_feasible_and_diagnostics_sane() {
        let obj = LogUtil { eps: 1e-4 };
        let pb = BoxLinearProblem::new(
            Vector::from(vec![0.01, 1.0, 0.5, 0.2, 1.0]),
            Vector::from(vec![1e5, 2e4, 3e3, 7e2, 9e6]),
            500.0,
        )
        .unwrap();
        let sol = Solver::default().maximize(&obj, &pb).unwrap();
        assert!(pb.is_feasible(&sol.p, 1e-6), "p = {}", sol.p);
        assert!(sol.kkt_verified, "diag {:?}", sol.diagnostics);
        assert!(sol.diagnostics.iterations >= 1);
        assert!(sol.diagnostics.final_projected_gradient.is_finite());
        assert!(sol.value.is_finite());
    }
}
