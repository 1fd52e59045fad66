//! Problem definition: objective trait and the box-plus-equality polytope.

use crate::{CurvatureProbe, LineProbe, Result, SolverError, TrialPoints};
use nws_linalg::Vector;

/// A twice continuously differentiable concave objective to *maximize*.
///
/// The solver needs values, gradients, and — for the Newton line search —
/// the second directional derivative `d²/dt² f(p + t·s)` at `t = 0`, which
/// for the separable-per-OD utilities of the paper is cheap to evaluate
/// directly (`Σ_k M_k''(ρ_k)·(r_k·s)²`) without forming a Hessian.
pub trait Objective {
    /// Objective value at `p`.
    fn value(&self, p: &Vector) -> f64;

    /// Gradient at `p`.
    fn gradient(&self, p: &Vector) -> Vector;

    /// Second directional derivative along `s` evaluated at `p`:
    /// `sᵀ·∇²f(p)·s`. Must be ≤ 0 for a concave objective.
    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64;

    /// Writes the gradient at `p` into `out`, resizing it if needed.
    ///
    /// The solver loop calls this once per iteration with a reused buffer;
    /// objectives with an allocation-free evaluation path (e.g. sparse-row
    /// accumulation into a caller buffer) should override it. The default
    /// delegates to [`Objective::gradient`].
    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        *out = self.gradient(p);
    }

    /// Both directional derivatives along `s` at `p`:
    /// `(∇f(p)·s, sᵀ·∇²f(p)·s)`.
    ///
    /// A Newton line-search probe needs exactly this pair; objectives with a
    /// fused evaluation kernel (one sweep producing both) should override
    /// it, halving the per-probe data traffic. The default contracts the
    /// full gradient with `s` and calls [`Objective::curvature_along`];
    /// overrides must agree with it up to float rounding.
    fn derivatives_along(&self, p: &Vector, s: &Vector) -> (f64, f64) {
        (self.gradient(p).dot(s), self.curvature_along(p, s))
    }

    /// Writes the gradient at `p` into `out` (resizing if needed) and
    /// returns the objective value at `p`.
    ///
    /// The solve loop needs both once per iteration when it records the
    /// objective trajectory; fused-kernel objectives should override this to
    /// produce the pair in one sweep. The default performs two evaluations.
    fn value_and_gradient_into(&self, p: &Vector, out: &mut Vector) -> f64 {
        self.gradient_into(p, out);
        self.value(p)
    }

    /// `φ(t) = f(p + t·s)` restricted to one search line, prepared once per
    /// line search: the returned probe answers `(φ'(t), φ''(t))` for any `t`.
    ///
    /// The default probes trial points: each call forms `p + t·s` and
    /// evaluates [`Objective::derivatives_along`] there. Objectives whose
    /// restriction to a line collapses to a few scalars (e.g. one linear
    /// rate per separable term) should override it and serve every probe
    /// from those scalars; overrides must agree with the trial-point probe
    /// up to float rounding.
    fn prepare_line<'a>(&'a self, p: &'a Vector, s: &'a Vector) -> Box<dyn LineProbe + 'a> {
        Box::new(TrialPoints::new(self, p, s))
    }

    /// The curvature `−∇²f(p)` at one point, prepared once per Newton
    /// direction: the returned probe applies it to vectors and reports its
    /// diagonal, which is all the truncated Newton step on the free face
    /// needs ([`crate::Direction::Newton`]).
    ///
    /// The default is `None`, and the solver then keeps to Polak–Ribière.
    /// Objectives whose Hessian has a cheap matrix-free form (e.g.
    /// `Rᵀ·D·R` for separable terms of a linear map `R`) should override
    /// it; overrides must agree with [`Objective::curvature_along`]:
    /// `vᵀ·apply(v) = −curvature_along(p, v)` up to float rounding.
    fn prepare_curvature<'a>(&'a self, _p: &'a Vector) -> Option<Box<dyn CurvatureProbe + 'a>> {
        None
    }
}

/// The feasible polytope of the placement problem (paper eqs. (3)–(5), with
/// (5) tightened to an equality per §IV-B eq. (8)):
///
/// ```text
/// 0 ≤ p_i ≤ upper_i        (bounds: α_i)
/// Σ_i a_i·p_i = rhs        (capacity: a_i = U_i link loads, rhs = θ)
/// ```
#[derive(Debug, Clone)]
pub struct BoxLinearProblem {
    upper: Vector,
    eq_normal: Vector,
    eq_rhs: f64,
}

impl BoxLinearProblem {
    /// Creates and validates a problem.
    ///
    /// # Errors
    /// [`SolverError::InvalidProblem`] when dimensions mismatch, a bound is
    /// non-positive, an equality coefficient is non-positive (a link with no
    /// load cannot consume capacity and must be excluded by the caller), or
    /// anything is non-finite. [`SolverError::Infeasible`] when
    /// `rhs > Σ a_i·upper_i` (not enough headroom) or `rhs < 0`.
    pub fn new(upper: Vector, eq_normal: Vector, eq_rhs: f64) -> Result<Self> {
        if upper.len() != eq_normal.len() {
            return Err(SolverError::InvalidProblem(format!(
                "upper bounds ({}) and equality normal ({}) lengths differ",
                upper.len(),
                eq_normal.len()
            )));
        }
        if upper.is_empty() {
            return Err(SolverError::InvalidProblem(
                "zero-dimensional problem".into(),
            ));
        }
        if !upper.is_finite() || !eq_normal.is_finite() || !eq_rhs.is_finite() {
            return Err(SolverError::InvalidProblem("non-finite parameter".into()));
        }
        if let Some(i) = upper.iter().position(|&u| u <= 0.0) {
            return Err(SolverError::InvalidProblem(format!(
                "upper bound at index {i} must be positive"
            )));
        }
        if let Some(i) = eq_normal.iter().position(|&a| a <= 0.0) {
            return Err(SolverError::InvalidProblem(format!(
                "equality coefficient at index {i} must be positive \
                 (exclude zero-load links before building the problem)"
            )));
        }
        if eq_rhs < 0.0 {
            return Err(SolverError::InvalidProblem(
                "equality rhs must be ≥ 0".into(),
            ));
        }
        let max_achievable = upper.hadamard(&eq_normal).sum();
        if eq_rhs > max_achievable {
            return Err(SolverError::Infeasible {
                rhs: eq_rhs,
                max_achievable,
            });
        }
        Ok(BoxLinearProblem {
            upper,
            eq_normal,
            eq_rhs,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.upper.len()
    }

    /// Upper bounds (the `α_i`).
    pub fn upper(&self) -> &Vector {
        &self.upper
    }

    /// Equality-constraint normal (the link loads `U_i`).
    pub fn eq_normal(&self) -> &Vector {
        &self.eq_normal
    }

    /// Equality right-hand side (the capacity `θ`).
    pub fn eq_rhs(&self) -> f64 {
        self.eq_rhs
    }

    /// A strictly feasible starting point: the uniform scaling `c·upper`
    /// with `c = rhs / Σ a_i·upper_i ∈ [0, 1]`, which satisfies the equality
    /// exactly and sits inside the box (on its boundary only when the
    /// problem admits a single point).
    pub fn feasible_start(&self) -> Vector {
        let max_achievable = self.upper.hadamard(&self.eq_normal).sum();
        let c = self.eq_rhs / max_achievable;
        self.upper.scaled(c)
    }

    /// Euclidean projection of `p` onto the feasible set
    /// `{x : 0 ≤ x ≤ upper, a·x = rhs}`.
    ///
    /// The projection is `x_i(μ) = clamp(p_i − μ·a_i, 0, upper_i)` for a
    /// multiplier `μ` with `a·x(μ) = rhs`; `a·x(μ)` is continuous,
    /// nonincreasing and piecewise linear in `μ`, spanning
    /// `[0, Σ a_i·upper_i] ∋ rhs`, so a breakpoint search finds `μ` exactly
    /// in O(n log n). Non-finite coordinates of `p` are treated as 0 before
    /// projecting, so a corrupted warm-start vector degrades gracefully
    /// instead of poisoning the solve.
    ///
    /// Every coordinate moves by the same `−μ·a_i` before clamping, so when
    /// `p` under-spends the budget (`μ < 0`) each zero coordinate is lifted
    /// to `−μ·a_i`; a warm start that should keep its zeros uses
    /// [`BoxLinearProblem::project_onto_face`].
    ///
    /// # Panics
    /// Panics if `p`'s length differs from the problem dimension.
    pub fn project_onto(&self, p: &Vector) -> Vector {
        assert_eq!(p.len(), self.dim(), "projection input length mismatch");
        self.project_over(&sanitized(p), |_| true)
    }

    /// Euclidean projection of `p` onto the face of the feasible set on
    /// which the coordinates outside `support` stay 0 — the warm-start
    /// re-projection hook. Non-finite coordinates of `p` count as 0.
    ///
    /// After an event changes `rhs` (a `set_theta`), the demands behind the
    /// loads `a`, or the bounds (a link failure), the previous solution
    /// generally violates the budget equality or the caps. Projecting it
    /// over the monitors it carries — `support` `S`, normally its nonzero,
    /// finite coordinates — repairs that with the same search for `μ` as
    /// [`BoxLinearProblem::project_onto`] while every coordinate outside `S`
    /// stays 0, so monitors that were off stay off instead of being lifted
    /// to `−μ·a_i` and switched back off by the solver one bound hit at a
    /// time. When `S` cannot carry the budget (`Σ_S a_i·upper_i < rhs`) the
    /// face holds no feasible point and this falls back to the full
    /// projection.
    ///
    /// # Panics
    /// Panics if `p` or `support` is not of the problem dimension.
    pub fn project_onto_face(&self, p: &Vector, support: &[bool]) -> Vector {
        assert_eq!(p.len(), self.dim(), "projection input length mismatch");
        assert_eq!(support.len(), self.dim(), "support length mismatch");
        let capacity: f64 = (0..self.dim())
            .filter(|&i| support[i])
            .map(|i| self.eq_normal[i] * self.upper[i])
            .sum();
        if capacity < self.eq_rhs {
            return self.project_onto(p);
        }
        self.project_over(&sanitized(p), |i| support[i])
    }

    /// The breakpoint search behind both projections (Kiwiel, "Breakpoint
    /// searching algorithms for the continuous quadratic knapsack problem",
    /// Math. Prog. 112, 2008): `x_i(μ) = clamp(v_i − μ·a_i, 0, upper_i)` on
    /// the coordinates `on` selects and 0 elsewhere, for a `μ` with
    /// `a·x(μ) = rhs`. The selected coordinates must be able to carry `rhs`.
    ///
    /// Coordinate `i` leaves its cap at the kink `(v_i − upper_i)/a_i` and
    /// reaches 0 at `v_i/a_i`, so `a·x(μ)` is linear between consecutive
    /// kinks. A binary search over the sorted kinks finds the first one at
    /// which `a·x(μ) ≤ rhs`; on the piece left of it every coordinate is at
    /// its cap, at 0 or on its linear part, which fixes `μ` in closed form.
    fn project_over(&self, v: &Vector, on: impl Fn(usize) -> bool) -> Vector {
        let (a, upper, rhs) = (&self.eq_normal, &self.upper, self.eq_rhs);
        let selected: Vec<usize> = (0..self.dim()).filter(|&i| on(i)).collect();
        let x = |i: usize, mu: f64| (v[i] - mu * a[i]).clamp(0.0, upper[i]);
        let spent = |mu: f64| selected.iter().map(|&i| a[i] * x(i, mu)).sum::<f64>();
        let kinks_of = |i: usize| ((v[i] - upper[i]) / a[i], v[i] / a[i]);
        let mut kinks: Vec<f64> = selected
            .iter()
            .flat_map(|&i| {
                let (capped, zero) = kinks_of(i);
                [capped, zero]
            })
            .collect();
        if kinks.is_empty() {
            return Vector::zeros(self.dim());
        }
        kinks.sort_unstable_by(f64::total_cmp);
        let first = kinks.partition_point(|&mu| spent(mu) > rhs);
        let mu = match first {
            // Only at rhs = Σ a·upper: every selected coordinate at its cap.
            0 => kinks[0],
            // Unreachable for rhs ≥ 0 (past the last kink nothing is spent).
            n if n == kinks.len() => kinks[n - 1],
            n => {
                let (lo, hi) = (kinks[n - 1], kinks[n]);
                // No kink lies strictly inside (lo, hi): a coordinate whose
                // cap kink is not below `hi` stays capped, one whose zero
                // kink is not above `lo` stays 0, the rest are linear.
                let (mut fixed, mut linear, mut slope) = (0.0_f64, 0.0_f64, 0.0_f64);
                for &i in &selected {
                    let (capped, zero) = kinks_of(i);
                    if capped >= hi {
                        fixed += a[i] * upper[i];
                    } else if zero > lo {
                        linear += a[i] * v[i];
                        slope += a[i] * a[i];
                    }
                }
                if slope > 0.0 {
                    ((fixed + linear - rhs) / slope).clamp(lo, hi)
                } else {
                    hi
                }
            }
        };
        let mut out = Vector::zeros(self.dim());
        for &i in &selected {
            out[i] = x(i, mu);
        }
        out
    }

    /// True iff `p` satisfies all constraints to within `tol` (bounds
    /// absolutely, equality relative to `rhs`).
    pub fn is_feasible(&self, p: &Vector, tol: f64) -> bool {
        if p.len() != self.dim() {
            return false;
        }
        for i in 0..p.len() {
            if p[i] < -tol || p[i] > self.upper[i] + tol {
                return false;
            }
        }
        let eq = self.eq_normal.dot(p);
        (eq - self.eq_rhs).abs() <= tol * self.eq_rhs.max(1.0)
    }
}

/// `p` with its non-finite coordinates replaced by 0.
fn sanitized(p: &Vector) -> Vector {
    p.iter()
        .map(|&v| if v.is_finite() { v } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(p) = −½‖p‖²; gradient −p.
    struct NegHalfNormSq;
    impl Objective for NegHalfNormSq {
        fn value(&self, p: &Vector) -> f64 {
            -0.5 * p.dot(p)
        }
        fn gradient(&self, p: &Vector) -> Vector {
            p.scaled(-1.0)
        }
        fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
            -s.dot(s)
        }
    }

    #[test]
    fn provided_methods_match_gradient() {
        let obj = NegHalfNormSq;
        let p = Vector::from(vec![1.0, -2.0, 3.0]);
        let s = Vector::from(vec![0.5, 0.25, -1.0]);
        let mut out = Vector::zeros(1); // wrong size on purpose; must be replaced
        obj.gradient_into(&p, &mut out);
        assert_eq!(out, obj.gradient(&p));
        let (d, c) = obj.derivatives_along(&p, &s);
        assert_eq!(d, obj.gradient(&p).dot(&s));
        assert_eq!(c, obj.curvature_along(&p, &s));
        let mut g = Vector::zeros(1);
        let v = obj.value_and_gradient_into(&p, &mut g);
        assert_eq!(v, obj.value(&p));
        assert_eq!(g, obj.gradient(&p));
        // The default line probes the trial point p + t·s.
        let mut line = obj.prepare_line(&p, &s);
        let mut x = p.clone();
        x.axpy(0.75, &s);
        assert_eq!(line.derivatives(0.75), obj.derivatives_along(&x, &s));
    }

    fn simple() -> BoxLinearProblem {
        BoxLinearProblem::new(
            Vector::from(vec![1.0, 1.0, 1.0]),
            Vector::from(vec![10.0, 20.0, 30.0]),
            12.0,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let p = simple();
        assert_eq!(p.dim(), 3);
        assert_eq!(p.eq_rhs(), 12.0);
        assert_eq!(p.upper().as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(p.eq_normal().as_slice(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn feasible_start_is_feasible() {
        let p = simple();
        let x0 = p.feasible_start();
        assert!(p.is_feasible(&x0, 1e-12));
        // c = 12/60 = 0.2
        assert!(x0.approx_eq(&Vector::filled(3, 0.2), 1e-12));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::filled(3, 1.0), 1.0).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn empty_rejected() {
        let err = BoxLinearProblem::new(Vector::zeros(0), Vector::zeros(0), 0.0).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn zero_load_coefficient_rejected() {
        let err = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 0.0]), 1.0)
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn negative_bound_rejected() {
        let err = BoxLinearProblem::new(Vector::from(vec![1.0, -0.5]), Vector::filled(2, 1.0), 0.5)
            .unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn infeasible_detected() {
        let err =
            BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 31.0)
                .unwrap_err();
        assert_eq!(
            err,
            SolverError::Infeasible {
                rhs: 31.0,
                max_achievable: 30.0
            }
        );
    }

    #[test]
    fn boundary_rhs_feasible() {
        // rhs exactly at the maximum: single feasible point = upper.
        let p = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 30.0)
            .unwrap();
        let x0 = p.feasible_start();
        assert!(x0.approx_eq(&Vector::filled(2, 1.0), 1e-12));
        assert!(p.is_feasible(&x0, 1e-9));
    }

    #[test]
    fn projection_lands_on_feasible_set() {
        let p = simple();
        for point in [
            Vector::from(vec![0.9, 0.9, 0.9]),  // over budget
            Vector::from(vec![0.0, 0.0, 0.01]), // under budget
            Vector::from(vec![5.0, -3.0, 0.5]), // outside the box
            Vector::zeros(3),                   // degenerate
        ] {
            let x = p.project_onto(&point);
            assert!(p.is_feasible(&x, 1e-9), "projection of {point:?} -> {x:?}");
        }
    }

    #[test]
    fn projection_fixes_feasible_points() {
        let p = simple();
        let x0 = p.feasible_start();
        let x = p.project_onto(&x0);
        assert!(x.approx_eq(&x0, 1e-9), "{x:?} != {x0:?}");
    }

    #[test]
    fn projection_is_nearest_among_probes() {
        // The Euclidean projection must be at least as close as any other
        // feasible probe point.
        let p = simple();
        let point = Vector::from(vec![1.5, 0.0, 0.0]);
        let dist = |a: &Vector, b: &Vector| -> f64 {
            let mut d = a.clone();
            d.axpy(-1.0, b);
            d.norm2()
        };
        let x = p.project_onto(&point);
        let d_proj = dist(&x, &point);
        for probe in [
            p.feasible_start(),
            p.project_onto(&Vector::from(vec![0.0, 1.5, 0.0])),
            p.project_onto(&Vector::from(vec![0.0, 0.0, 1.5])),
        ] {
            assert!(p.is_feasible(&probe, 1e-9));
            let d = dist(&probe, &point);
            assert!(d_proj <= d + 1e-9, "{d_proj} > {d} for {probe:?}");
        }
    }

    #[test]
    fn projection_sanitizes_non_finite_input() {
        let p = simple();
        let x = p.project_onto(&Vector::from(vec![f64::NAN, f64::INFINITY, 0.2]));
        assert!(x.is_finite());
        assert!(p.is_feasible(&x, 1e-9));
    }

    #[test]
    fn projection_handles_boundary_budget() {
        // rhs at the ceiling: the only feasible point is `upper`.
        let p = BoxLinearProblem::new(Vector::filled(2, 1.0), Vector::from(vec![10.0, 20.0]), 30.0)
            .unwrap();
        let x = p.project_onto(&Vector::from(vec![0.1, 0.0]));
        assert!(x.approx_eq(&Vector::filled(2, 1.0), 1e-7), "{x:?}");
    }

    #[test]
    #[should_panic(expected = "projection input length mismatch")]
    fn projection_length_checked() {
        simple().project_onto(&Vector::zeros(2));
    }

    /// Four coordinates, loads 10..40, budget 30: room to lift anything.
    fn four() -> BoxLinearProblem {
        BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![10.0, 20.0, 30.0, 40.0]),
            30.0,
        )
        .unwrap()
    }

    /// `p`'s carried support: its nonzero, finite coordinates.
    fn carried(p: &Vector) -> Vec<bool> {
        p.iter().map(|&v| v != 0.0 && v.is_finite()).collect()
    }

    #[test]
    fn face_projection_keeps_carried_zeros_off() {
        let pb = four();
        // Under-spends the budget (a·p = 18 < 30), so μ < 0.
        let p = Vector::from(vec![0.0, 0.5, 0.0, 0.2]);
        let x = pb.project_onto_face(&p, &carried(&p));
        assert_eq!((x[0], x[2]), (0.0, 0.0), "{x:?}");
        assert!(x[1] > 0.5 && x[3] > 0.2, "{x:?}");
        assert!(pb.is_feasible(&x, 1e-9), "{x:?}");
        // The full projection lifts every zero coordinate instead.
        let full = pb.project_onto(&p);
        assert!(full[0] > 0.0 && full[2] > 0.0, "{full:?}");
        // A zero coordinate inside the support is lifted like any other.
        let x = pb.project_onto_face(&p, &[true, true, false, true]);
        assert!(x[0] > 0.0 && x[2] == 0.0, "{x:?}");
        assert!(pb.is_feasible(&x, 1e-9), "{x:?}");
    }

    #[test]
    fn face_projection_is_feasible() {
        let pb = four();
        for point in [
            Vector::from(vec![0.0, 0.9, 0.9, 0.0]),  // over budget
            Vector::from(vec![0.0, 0.0, 0.01, 0.0]), // under budget, one on
            Vector::from(vec![5.0, 0.0, -3.0, 0.5]), // outside the box
            Vector::from(vec![0.0, 1e-300, 0.0, 0.0]),
        ] {
            let x = pb.project_onto_face(&point, &carried(&point));
            assert!(pb.is_feasible(&x, 1e-9), "{point:?} -> {x:?}");
        }
    }

    #[test]
    fn face_projection_equals_full_projection_without_zeros() {
        let pb = four();
        for point in [
            Vector::from(vec![0.1, 0.2, 0.3, 0.4]),
            Vector::from(vec![1e-6, 2e-6, 3e-6, 4e-6]),
            Vector::from(vec![5.0, -3.0, 0.5, 2.0]),
        ] {
            assert_eq!(
                pb.project_onto_face(&point, &carried(&point)),
                pb.project_onto(&point)
            );
        }
    }

    #[test]
    fn face_projection_falls_back_when_the_support_cannot_carry_the_budget() {
        let pb = four();
        // Σ_S a_i·upper_i = 20 < 30: no point of the face is feasible.
        let p = Vector::from(vec![0.0, 0.3, 0.0, 0.0]);
        let x = pb.project_onto_face(&p, &carried(&p));
        assert_eq!(x, pb.project_onto(&p));
        assert!(pb.is_feasible(&x, 1e-9), "{x:?}");
        // Exactly enough capacity: the face's single point, all of S at its cap.
        let pb = BoxLinearProblem::new(
            Vector::filled(4, 1.0),
            Vector::from(vec![10.0, 20.0, 30.0, 40.0]),
            20.0,
        )
        .unwrap();
        let x = pb.project_onto_face(&p, &carried(&p));
        assert!(
            x.approx_eq(&Vector::from(vec![0.0, 1.0, 0.0, 0.0]), 1e-9),
            "{x:?}"
        );
    }

    #[test]
    fn face_projection_treats_non_finite_entries_as_off() {
        let pb = four();
        for (bad0, bad2) in [(f64::NAN, f64::INFINITY), (f64::NEG_INFINITY, f64::NAN)] {
            // a·p over the finite support = 26 < 30: those two are lifted.
            let p = Vector::from(vec![bad0, 0.5, bad2, 0.4]);
            let x = pb.project_onto_face(&p, &carried(&p));
            assert_eq!((x[0], x[2]), (0.0, 0.0), "{x:?}");
            assert!(x[1] > 0.5 && x[3] > 0.4, "{x:?}");
            assert!(pb.is_feasible(&x, 1e-9), "{x:?}");
            // Inside the support, a non-finite entry counts as 0.
            let x = pb.project_onto_face(&p, &[true; 4]);
            assert!(x.is_finite() && x[0] > 0.0, "{x:?}");
            assert_eq!(x, pb.project_onto(&p));
        }
    }

    #[test]
    #[should_panic(expected = "support length mismatch")]
    fn face_projection_support_length_checked() {
        four().project_onto_face(&Vector::zeros(4), &[true; 3]);
    }

    #[test]
    fn is_feasible_rejects_violations() {
        let p = simple();
        assert!(!p.is_feasible(&Vector::from(vec![2.0, 0.0, 0.0]), 1e-9)); // above upper
        assert!(!p.is_feasible(&Vector::from(vec![-0.1, 0.3, 0.3]), 1e-9)); // below zero
        assert!(!p.is_feasible(&Vector::filled(3, 0.5), 1e-9)); // equality off
        assert!(!p.is_feasible(&Vector::filled(2, 0.2), 1e-9)); // wrong dim
    }

    /// The projection as it was computed before the breakpoint search: a
    /// bracket doubled outwards from [-1, 1], then 200 bisection passes on
    /// `μ`, over the coordinates `on` selects. Kept as the reference.
    fn bisection_projection(pb: &BoxLinearProblem, v: &Vector, on: &[bool]) -> Vector {
        let x = |i: usize, mu: f64| -> f64 {
            if on[i] {
                (v[i] - mu * pb.eq_normal[i]).clamp(0.0, pb.upper[i])
            } else {
                0.0
            }
        };
        let consumed = |mu: f64| -> f64 { (0..pb.dim()).map(|i| pb.eq_normal[i] * x(i, mu)).sum() };
        let (mut lo, mut hi) = (-1.0_f64, 1.0_f64);
        while consumed(lo) < pb.eq_rhs && lo > -1e30 {
            lo *= 2.0;
        }
        while consumed(hi) > pb.eq_rhs && hi < 1e30 {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if consumed(mid) > pb.eq_rhs {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mu = 0.5 * (lo + hi);
        (0..pb.dim()).map(|i| x(i, mu)).collect()
    }

    /// splitmix64, the seeded stream behind [`projection_case`].
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A seeded projection case `(problem, input, support)`: dimension
    /// 1–64, loads log-uniform in [1e-3, 1e7], caps in (0, 1], a quarter
    /// of the coordinates copies of earlier ones (tied kinks), some inputs
    /// non-finite, and θ one of 0, Σ_S a·u, uniform between them, or the
    /// spend of a carried plan already in the box (μ = 0).
    fn projection_case(seed: u64) -> (BoxLinearProblem, Vector, Vec<bool>) {
        let mut r = SplitMix(seed);
        let n = 1 + r.below(64);
        let (mut a, mut u, mut v, mut support) = (vec![], vec![], vec![], vec![]);
        for i in 0..n {
            if i > 0 && r.below(4) == 0 {
                let j = r.below(i);
                a.push(a[j]);
                u.push(u[j]);
                v.push(v[j]);
                support.push(support[j]);
                continue;
            }
            a.push(10f64.powf(-3.0 + 10.0 * r.unit()));
            let cap = if r.below(2) == 0 { 1.0 } else { 1.0 - r.unit() };
            u.push(cap);
            v.push(match r.below(16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 | 4 => 0.0,
                5 | 6 => cap,
                _ => -1.0 + 3.0 * r.unit(),
            });
            support.push(r.below(3) != 0);
        }
        if r.below(3) == 0 {
            support.fill(true);
        }
        let on_support = |i: &usize| support[*i];
        let capacity: f64 = (0..n).filter(on_support).map(|i| a[i] * u[i]).sum();
        let theta = match r.below(4) {
            0 => 0.0,
            1 => capacity,
            2 => capacity * r.unit(),
            _ => {
                for i in 0..n {
                    let carried = if v[i].is_finite() { v[i] } else { 0.0 };
                    v[i] = if support[i] {
                        carried.clamp(0.0, u[i])
                    } else {
                        0.0
                    };
                }
                (0..n).filter(on_support).map(|i| a[i] * v[i]).sum()
            }
        };
        let pb = BoxLinearProblem::new(Vector::from(u), Vector::from(a), theta).unwrap();
        (pb, Vector::from(v), support)
    }

    /// Checks `x` as the projection of `v` over the coordinates `on`
    /// selects, against the bisection reference `y`: see
    /// `exact_projection_properties`.
    fn check_projection(
        pb: &BoxLinearProblem,
        v: &Vector,
        on: &[bool],
        x: &Vector,
        again: &Vector,
    ) -> std::result::Result<(), String> {
        let (a, u, theta) = (pb.eq_normal(), pb.upper(), pb.eq_rhs());
        let v = sanitized(v);
        let sel: Vec<usize> = (0..pb.dim()).filter(|&i| on[i]).collect();
        let capacity: f64 = sel.iter().map(|&i| a[i] * u[i]).sum();
        let miss = |x: &Vector| (a.dot(x) - theta).abs();
        for i in 0..pb.dim() {
            if !(0.0..=u[i]).contains(&x[i]) || (!on[i] && x[i] != 0.0) {
                return Err(format!("x[{i}] = {} outside its box or support", x[i]));
            }
        }
        if miss(x) > 1e-12 * capacity {
            return Err(format!("a·x misses θ = {theta} by {}", miss(x)));
        }
        // KKT: one μ gives x on the whole selection. Recover it from the
        // free coordinate with the largest load, where it is sharpest.
        let free = sel
            .iter()
            .copied()
            .filter(|&i| x[i] > 0.0 && x[i] < u[i])
            .max_by(|&i, &j| a[i].total_cmp(&a[j]));
        if let Some(f) = free {
            let mu = (v[f] - x[f]) / a[f];
            let mu_tol = 1e-12 * (u[f] + v[f].abs()) / a[f];
            for &i in &sel {
                let want = (v[i] - mu * a[i]).clamp(0.0, u[i]);
                if (x[i] - want).abs() > 1e-12 * (u[i] + v[i].abs()) + a[i] * mu_tol {
                    return Err(format!("x[{i}] = {} but μ = {mu} gives {want}", x[i]));
                }
            }
        } else {
            // Every coordinate at a bound: μ must lie above the zero kink
            // of each coordinate at 0 and below the cap kink of each capped.
            let above = sel
                .iter()
                .filter(|&&i| x[i] == 0.0)
                .map(|&i| v[i] / a[i])
                .fold(f64::NEG_INFINITY, f64::max);
            let below = sel
                .iter()
                .filter(|&&i| x[i] == u[i])
                .map(|&i| (v[i] - u[i]) / a[i])
                .fold(f64::INFINITY, f64::min);
            if above > below + 1e-12 * (above.abs() + below.abs()) {
                return Err(format!("no μ in [{above}, {below}] gives x"));
            }
        }
        // Projecting again moves x only by the multiplier its own budget
        // residual calls for: in units of the budget, within 1e-15.
        let spend_tol = miss(x) + 1e-15 * capacity;
        for &i in &sel {
            if a[i] * (again[i] - x[i]).abs() > spend_tol {
                return Err(format!(
                    "re-projection moved x[{i}]: {} -> {}",
                    x[i], again[i]
                ));
            }
        }
        // The bisection reference agrees coordinate by coordinate, to
        // 1e-12 of the budget beyond its own miss of θ.
        let y = bisection_projection(pb, &v, on);
        let agree_tol = 1e-12 * capacity + miss(&y);
        for &i in &sel {
            if a[i] * (x[i] - y[i]).abs() > agree_tol {
                return Err(format!(
                    "x[{i}] = {} but the bisection gives {}",
                    x[i], y[i]
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// `project_onto` and `project_onto_face` return a point in the box
        /// and 0 off the support, spend θ to 1e-12·Σ_S a·u, satisfy the
        /// projection's KKT condition for one μ, are fixed points of a
        /// second projection up to their own budget residual, and agree
        /// with the 200-pass bisection they replaced.
        ///
        /// Coordinate agreement is measured in units of the budget
        /// (`a_i·|x_i − y_i|` against `Σ_S a·u`): the equality pins a
        /// coordinate only to the rounding of `a·x` over its load, and the
        /// bisection, which cannot resolve μ below that rounding, misses
        /// exact kinks by up to 2e-7 of a cap where a 1e-3 load sits beside
        /// a 3e6 one.
        #[test]
        fn exact_projection_properties(seed in proptest::prelude::any::<u64>()) {
            let (pb, v, support) = projection_case(seed);
            let everywhere = vec![true; pb.dim()];
            let x = pb.project_onto(&v);
            let again = pb.project_onto(&x);
            proptest::prop_assert!(
                check_projection(&pb, &v, &everywhere, &x, &again).is_ok(),
                "project_onto, seed {}: {:?}",
                seed,
                check_projection(&pb, &v, &everywhere, &x, &again)
            );
            let capacity: f64 = (0..pb.dim())
                .filter(|&i| support[i])
                .map(|i| pb.eq_normal()[i] * pb.upper()[i])
                .sum();
            let on = if capacity < pb.eq_rhs() { &everywhere } else { &support };
            let x = pb.project_onto_face(&v, &support);
            let again = pb.project_onto_face(&x, &support);
            proptest::prop_assert!(
                check_projection(&pb, &v, on, &x, &again).is_ok(),
                "project_onto_face, seed {}: {:?}",
                seed,
                check_projection(&pb, &v, on, &x, &again)
            );
        }
    }

    #[test]
    fn carried_plan_that_spends_theta_is_its_own_projection() {
        // μ = 0 exactly. The bisection lifted the two light coordinates to
        // 4e-8 here: their spend hides below the rounding of a·x ≈ 9e5.
        let pb = BoxLinearProblem::new(
            Vector::from(vec![0.31, 0.297, 0.31, 1.0]),
            Vector::from(vec![1.34e-3, 3.08e6, 1.34e-3, 8.44e-3]),
            0.297 * 3.08e6 + 8.44e-3,
        )
        .unwrap();
        let carried = Vector::from(vec![0.0, 0.297, 0.0, 1.0]);
        assert_eq!(pb.project_onto(&carried), carried);
        assert_eq!(pb.project_onto_face(&carried, &[true; 4]), carried);
    }
}
