//! Exact one-dimensional maximization along a search direction.

use crate::{Objective, Result, SolverError};
use nws_linalg::Vector;

/// Result of a line search along a direction `s` from `p` over `t ∈ [0, t_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineSearchOutcome {
    /// The 1-D maximizer lies strictly inside the segment at the given step.
    Interior(f64),
    /// The objective is still increasing at `t_max`: step to the boundary
    /// (the caller activates the bound that produced `t_max`).
    ReachedMax,
    /// The direction is not an ascent direction (`φ'(0) ≤ 0`); no step taken.
    NoProgress,
}

/// Newton's method on `φ(t) = f(p + t·s)` with a bisection safeguard.
///
/// The paper chooses Newton for the 1-D search because the utility is C²
/// (§IV-C makes it so by construction); concavity of `f` makes `φ` concave,
/// so `φ'` is decreasing and the root of `φ'` is unique. The safeguard
/// maintains a sign-changing bracket `[lo, hi]` (`φ'(lo) > 0 > φ'(hi)`) and
/// falls back to bisection whenever a Newton step leaves it — guaranteeing
/// convergence even where curvature information is locally poor (e.g. at the
/// utility's quadratic-splice boundary).
#[derive(Debug, Clone, Copy)]
pub struct NewtonLineSearch {
    /// Convergence tolerance on `|φ'(t)|`, relative to `|φ'(0)|`.
    pub grad_tol: f64,
    /// Maximum Newton/bisection iterations before accepting the midpoint.
    pub max_iters: usize,
}

impl Default for NewtonLineSearch {
    fn default() -> Self {
        NewtonLineSearch {
            grad_tol: 1e-12,
            max_iters: 100,
        }
    }
}

impl NewtonLineSearch {
    /// Maximizes `φ(t) = f(p + t·s)` over `[0, t_max]`.
    ///
    /// # Errors
    /// [`SolverError::NonFiniteObjective`] if a derivative evaluates to a
    /// non-finite value along the segment.
    pub fn maximize<O: Objective>(
        &self,
        obj: &O,
        p: &Vector,
        s: &Vector,
        t_max: f64,
    ) -> Result<LineSearchOutcome> {
        assert!(t_max >= 0.0, "t_max must be ≥ 0, got {t_max}");
        // The line is prepared once and serves every φ'/φ'' probe of this
        // search ([`Objective::prepare_line`]). Each Newton probe needs both
        // derivatives at the same `t`; the boundary check at `t_max` only
        // reads the sign of φ', so only φ' must be finite there.
        let mut line = obj.prepare_line(p, s);
        let (d0, c0) = derivatives(&mut *line, 0.0)?;
        if d0 <= 0.0 {
            return Ok(LineSearchOutcome::NoProgress);
        }
        if t_max == 0.0 {
            return Ok(LineSearchOutcome::NoProgress);
        }
        let d_end = finite("φ'", t_max, line.derivatives(t_max).0)?;
        if d_end >= 0.0 {
            return Ok(LineSearchOutcome::ReachedMax);
        }

        // Bracketed Newton: φ'(lo) > 0 > φ'(hi).
        let tol = self.grad_tol * d0.max(1e-300);
        let (mut lo, mut hi) = (0.0_f64, t_max);
        // First iterate from the quadratic model at 0.
        let mut t = if c0 < 0.0 {
            (-d0 / c0).clamp(t_max * 1e-12, t_max * (1.0 - 1e-12))
        } else {
            0.5 * t_max
        };
        for _ in 0..self.max_iters {
            let (d, c) = derivatives(&mut *line, t)?;
            if d.abs() <= tol {
                return Ok(LineSearchOutcome::Interior(t));
            }
            if d > 0.0 {
                lo = t;
            } else {
                hi = t;
            }
            let newton = if c < 0.0 { t - d / c } else { f64::NAN };
            t = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if hi - lo <= f64::EPSILON * t_max {
                break;
            }
        }
        Ok(LineSearchOutcome::Interior(0.5 * (lo + hi)))
    }
}

/// `(φ'(t), φ''(t))` from `line`, or a typed error if either is not finite.
fn derivatives(line: &mut dyn LineProbe, t: f64) -> Result<(f64, f64)> {
    let (d, c) = line.derivatives(t);
    Ok((finite("φ'", t, d)?, finite("φ''", t, c)?))
}

/// `v`, or a typed error naming the non-finite derivative `what` at `t`.
fn finite(what: &str, t: f64, v: f64) -> Result<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(SolverError::NonFiniteObjective(format!(
            "{what}({t}) is not finite"
        )))
    }
}

/// `φ(t) = f(p + t·s)` along one search line, as
/// [`Objective::prepare_line`] hands it to the line search.
pub trait LineProbe {
    /// `(φ'(t), φ''(t))`.
    fn derivatives(&mut self, t: f64) -> (f64, f64);
}

/// The default [`LineProbe`]: every probe forms the trial point `p + t·s`
/// in one reused buffer and evaluates the objective there
/// ([`Objective::derivatives_along`]).
pub struct TrialPoints<'a, O: ?Sized> {
    obj: &'a O,
    p: &'a Vector,
    s: &'a Vector,
    x: Vector,
}

impl<'a, O: Objective + ?Sized> TrialPoints<'a, O> {
    /// The line through `p` along `s` on `obj`.
    pub fn new(obj: &'a O, p: &'a Vector, s: &'a Vector) -> Self {
        TrialPoints {
            obj,
            p,
            s,
            x: p.clone(),
        }
    }
}

impl<O: Objective + ?Sized> LineProbe for TrialPoints<'_, O> {
    fn derivatives(&mut self, t: f64) -> (f64, f64) {
        self.x.copy_from(self.p);
        self.x.axpy(t, self.s);
        self.obj.derivatives_along(&self.x, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(p) = −Σ w_i (p_i − c_i)²; separable strictly concave quadratic.
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

    #[test]
    fn quadratic_interior_maximum_one_newton_step() {
        // φ(t) along s from 0 towards c: max at t* = 1 for p=0, s=c.
        let obj = Quad {
            w: vec![1.0, 2.0],
            c: vec![1.0, 0.5],
        };
        let p = Vector::zeros(2);
        let s = Vector::from(vec![1.0, 0.5]);
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 10.0)
            .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => assert!((t - 1.0).abs() < 1e-9, "t = {t}"),
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn boundary_hit_when_max_outside() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![5.0],
        };
        let p = Vector::zeros(1);
        let s = Vector::from(vec![1.0]);
        // Max at t=5 but t_max = 2: still increasing at the boundary.
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 2.0)
            .unwrap();
        assert_eq!(out, LineSearchOutcome::ReachedMax);
    }

    #[test]
    fn descent_direction_no_progress() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![-1.0],
        };
        let p = Vector::zeros(1);
        let s = Vector::from(vec![1.0]); // moving away from the max
        let out = NewtonLineSearch::default()
            .maximize(&obj, &p, &s, 1.0)
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
    }

    #[test]
    fn zero_t_max_no_progress() {
        let obj = Quad {
            w: vec![1.0],
            c: vec![1.0],
        };
        let out = NewtonLineSearch::default()
            .maximize(&obj, &Vector::zeros(1), &Vector::from(vec![1.0]), 0.0)
            .unwrap();
        assert_eq!(out, LineSearchOutcome::NoProgress);
    }

    /// Non-quadratic concave objective: f(p) = Σ ln(1 + p_i).
    struct Log;
    impl Objective for Log {
        fn value(&self, p: &Vector) -> f64 {
            p.iter().map(|x| (1.0 + x).ln()).sum()
        }
        fn gradient(&self, p: &Vector) -> Vector {
            p.iter().map(|x| 1.0 / (1.0 + x)).collect()
        }
        fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
            -(0..s.len())
                .map(|i| s[i] * s[i] / ((1.0 + p[i]) * (1.0 + p[i])))
                .sum::<f64>()
        }
    }

    #[test]
    fn mixed_sign_direction_on_log_objective() {
        // φ(t) = ln(1+2t) + ln(1 − t): φ'(t) = 2/(1+2t) − 1/(1−t);
        // root: 2(1−t) = 1+2t → t = 1/4.
        let p = Vector::zeros(2);
        let s = Vector::from(vec![2.0, -1.0]);
        let out = NewtonLineSearch::default()
            .maximize(&Log, &p, &s, 0.9)
            .unwrap();
        match out {
            LineSearchOutcome::Interior(t) => assert!((t - 0.25).abs() < 1e-9, "t = {t}"),
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_gradient_reported() {
        struct Bad;
        impl Objective for Bad {
            fn value(&self, _p: &Vector) -> f64 {
                0.0
            }
            fn gradient(&self, _p: &Vector) -> Vector {
                Vector::from(vec![f64::NAN])
            }
            fn curvature_along(&self, _p: &Vector, _s: &Vector) -> f64 {
                -1.0
            }
        }
        let err = NewtonLineSearch::default()
            .maximize(&Bad, &Vector::zeros(1), &Vector::from(vec![1.0]), 1.0)
            .unwrap_err();
        assert!(matches!(err, SolverError::NonFiniteObjective(_)));
    }
}
