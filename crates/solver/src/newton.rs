//! The truncated Newton direction on a settled free face.
//!
//! Once the active set has settled, the objective restricted to the free
//! face is smooth and concave, and a Newton step there converges
//! quadratically where conjugate gradients crawl along stiff valleys. The
//! step is computed matrix-free, as in the second phase of Moré and
//! Toraldo's GPCG (1991): Jacobi-preconditioned projected conjugate
//! gradients on `−∇²f` over the free coordinates, restricted to the
//! equality's null space `a_F·x = 0`, truncated by an inexact-Newton
//! forcing term.

use crate::ActiveSet;
use nws_linalg::Vector;

/// The curvature of an objective at one point, as
/// [`crate::Objective::prepare_curvature`] hands it to the Newton
/// direction: products with, and the diagonal of, the positive
/// semidefinite matrix `B = −∇²f(p)`.
pub trait CurvatureProbe {
    /// Writes `B·v = −∇²f(p)·v` into `out` (of the problem dimension).
    fn apply(&self, v: &Vector, out: &mut Vector);

    /// The diagonal of `B = −∇²f(p)`.
    fn diagonal(&self) -> Vector;
}

/// The truncated Newton step on the free face of `active` from gradient
/// `g`, whose Euclidean projection onto the face is `d`; `a` is the
/// equality normal.
///
/// Maximizes the quadratic model `gᵀx − ½·xᵀBx` over the free coordinates
/// subject to `a_F·x = 0` by conjugate gradients preconditioned with
/// `diag(B)_F`. The preconditioned residual `y = G⁻¹(r − μ·a)`, with `μ`
/// chosen so `a·y = 0`, keeps every iterate on the face. CG stops once
/// `rᵀy ≤ η²·r₀ᵀy₀` with the forcing term
/// `η = min(0.5, √(‖d‖∞ / max(‖g‖∞, 1)))`, after `|F|` steps, or at a
/// direction of non-positive curvature. The cap on `η` keeps CG from
/// solving near-singular faces exactly: where several free links carry the
/// same ODs, an exact solve runs along flat directions to the box.
///
/// Returns `None` when the face has fewer than two free coordinates, when
/// `B` has no positive diagonal entry there, or when the step found is not
/// an ascent direction (`gᵀx ≤ 0`). A returned step is exactly 0 on every
/// clamped coordinate and has `a·x = 0` to rounding.
pub(crate) fn newton_step(
    curvature: &dyn CurvatureProbe,
    g: &Vector,
    d: &Vector,
    active: &ActiveSet,
    a: &Vector,
) -> Option<Vector> {
    let free = active.free_indices();
    if free.len() < 2 {
        return None;
    }
    let diag = curvature.diagonal();
    let max_diag = free.iter().map(|&i| diag[i]).fold(0.0, f64::max);
    if max_diag <= 0.0 || !max_diag.is_finite() {
        return None;
    }
    // A free coordinate no OD row touches has a zero diagonal; treating it
    // as the stiffest one keeps the preconditioned step from throwing it
    // along a flat direction.
    let h: Vec<f64> = free
        .iter()
        .map(|&i| if diag[i] > 0.0 { diag[i] } else { max_diag })
        .collect();
    let a_ginv_a: f64 = free.iter().zip(&h).map(|(&i, &hi)| a[i] * a[i] / hi).sum();
    let dot = |u: &Vector, v: &Vector| free.iter().map(|&i| u[i] * v[i]).sum::<f64>();
    // r ← r − μ·a and y = G⁻¹·r with μ such that a·y = 0. Removing μ·a from
    // the residual leaves y and rᵀy unchanged and keeps r from carrying the
    // equality's multiplier through the recurrence.
    let precondition = |r: &mut Vector, y: &mut Vector| {
        let mu = free
            .iter()
            .zip(&h)
            .map(|(&i, &hi)| a[i] * r[i] / hi)
            .sum::<f64>()
            / a_ginv_a;
        for (&i, &hi) in free.iter().zip(&h) {
            r[i] -= mu * a[i];
            y[i] = r[i] / hi;
        }
    };

    let n = g.len();
    let mut x = Vector::zeros(n);
    let mut r = Vector::zeros(n);
    for &i in &free {
        r[i] = g[i];
    }
    let mut y = Vector::zeros(n);
    precondition(&mut r, &mut y);
    let mut ry = dot(&r, &y);
    if ry <= 0.0 || ry.is_nan() {
        return None;
    }
    let eta = (d.norm_inf() / g.norm_inf().max(1.0)).sqrt().min(0.5);
    let stop = eta * eta * ry;
    let mut q = y.clone();
    let mut bq = Vector::zeros(n);
    for _ in 0..free.len() {
        curvature.apply(&q, &mut bq);
        let curv = dot(&q, &bq);
        if curv <= 0.0 || curv.is_nan() {
            break;
        }
        let alpha = ry / curv;
        for &i in &free {
            x[i] += alpha * q[i];
            r[i] -= alpha * bq[i];
        }
        precondition(&mut r, &mut y);
        let ry_next = dot(&r, &y);
        if ry_next <= stop {
            break;
        }
        let beta = ry_next / ry;
        ry = ry_next;
        for &i in &free {
            q[i] = y[i] + beta * q[i];
        }
    }
    // Remove the rounding the recurrence left along a.
    let af2: f64 = free.iter().map(|&i| a[i] * a[i]).sum();
    let drift = dot(a, &x) / af2;
    for &i in &free {
        x[i] -= drift * a[i];
    }
    (g.dot(&x) > 0.0).then_some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarState;
    use proptest::prelude::*;

    /// `B = Rᵀ·diag(w)·R` from sparse rows: the placement objective's
    /// curvature shape, with a flat direction wherever two columns match.
    struct Rows {
        rows: Vec<Vec<(usize, f64)>>,
        w: Vec<f64>,
        dim: usize,
    }

    impl CurvatureProbe for Rows {
        fn apply(&self, v: &Vector, out: &mut Vector) {
            *out = Vector::zeros(self.dim);
            for (row, &w) in self.rows.iter().zip(&self.w) {
                let rv: f64 = row.iter().map(|&(i, r)| r * v[i]).sum();
                for &(i, r) in row {
                    out[i] += w * rv * r;
                }
            }
        }

        fn diagonal(&self) -> Vector {
            let mut diag = Vector::zeros(self.dim);
            for (row, &w) in self.rows.iter().zip(&self.w) {
                for &(i, r) in row {
                    diag[i] += w * r * r;
                }
            }
            diag
        }
    }

    /// The equality-constrained Newton point of the quadratic model on an
    /// all-free face with a nonsingular `B`: CG run to the end finds it.
    #[test]
    fn tight_forcing_term_reaches_the_constrained_newton_point() {
        let probe = Rows {
            rows: vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]],
            w: vec![1.0, 2.0, 4.0],
            dim: 3,
        };
        let a = Vector::from(vec![1.0, 1.0, 1.0]);
        let g = Vector::from(vec![3.0, 1.0, 2.0]);
        // Stationarity of gᵀx − ½xᵀBx on a·x = 0: g − Bx = λ·a.
        // x_i = (g_i − λ)/w_i with Σ x_i = 0 → λ = Σ(g_i/w_i) / Σ(1/w_i).
        let lambda = (3.0 + 0.5 + 0.5) / (1.0 + 0.5 + 0.25);
        let want = [(3.0 - lambda), (1.0 - lambda) / 2.0, (2.0 - lambda) / 4.0];
        // A tiny projected gradient drives η to its floor.
        let d = Vector::filled(3, 1e-30);
        let s = newton_step(&probe, &g, &d, &ActiveSet::all_free(3), &a).unwrap();
        for i in 0..3 {
            assert!((s[i] - want[i]).abs() < 1e-12, "{s} vs {want:?}");
        }
    }

    #[test]
    fn one_free_coordinate_has_no_step() {
        let probe = Rows {
            rows: vec![vec![(0, 1.0), (1, 1.0)]],
            w: vec![1.0],
            dim: 2,
        };
        let mut active = ActiveSet::all_free(2);
        active.set(1, VarState::AtLower);
        let g = Vector::from(vec![1.0, 2.0]);
        let a = Vector::from(vec![1.0, 1.0]);
        assert!(newton_step(&probe, &g, &g, &active, &a).is_none());
    }

    /// Counts the products a CG run asks for.
    struct Counted<'a>(&'a Rows, std::cell::Cell<usize>);

    impl CurvatureProbe for Counted<'_> {
        fn apply(&self, v: &Vector, out: &mut Vector) {
            self.1.set(self.1.get() + 1);
            self.0.apply(v, out);
        }

        fn diagonal(&self) -> Vector {
            self.0.diagonal()
        }
    }

    /// Far from stationarity (a projected gradient as large as the
    /// gradient) η is capped at 0.5, and CG stops once the residual has
    /// shrunk 4× in the preconditioned norm, well before the exact solve a
    /// tiny projected gradient asks for.
    #[test]
    fn forcing_term_truncates_cg_far_from_stationarity() {
        // Overlapping rows make B tridiagonal, so Jacobi-preconditioned CG
        // needs several steps on the face.
        let dim = 12;
        let probe = Rows {
            rows: (0..dim - 1).map(|i| vec![(i, 1.0), (i + 1, 1.0)]).collect(),
            w: (0..dim - 1).map(|i| 10f64.powi(i as i32 % 4)).collect(),
            dim,
        };
        let a: Vector = (0..dim).map(|i| 1.0 + (i % 3) as f64).collect();
        let g: Vector = (0..dim).map(|i| 10.0 + ((i * 7) % 5) as f64).collect();
        let steps = |d: &Vector| {
            let counted = Counted(&probe, std::cell::Cell::new(0));
            newton_step(&counted, &g, d, &ActiveSet::all_free(dim), &a).expect("ascent step");
            counted.1.get()
        };
        let loose = steps(&g);
        let tight = steps(&Vector::filled(dim, 1e-30));
        assert!(
            loose < tight,
            "η = 0.5 took {loose} CG steps, η → 0 took {tight}"
        );
    }

    /// A random face: rows over `dim` variables (some columns duplicated,
    /// so `B` may be singular on the face), weights, a gradient, an
    /// equality normal and a state per variable.
    #[allow(clippy::type_complexity)]
    fn face() -> impl Strategy<
        Value = (
            usize,
            Vec<(Vec<(usize, f64)>, f64)>,
            Vec<f64>,
            Vec<f64>,
            Vec<u8>,
            f64,
        ),
    > {
        (3usize..24).prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(
                    (
                        prop::collection::vec((0..dim, 0.05f64..1.0), 1..6),
                        1e-3f64..1e6,
                    ),
                    1..30,
                ),
                prop::collection::vec(-1e3f64..1e3, dim..=dim),
                prop::collection::vec(1e2f64..1e7, dim..=dim),
                prop::collection::vec(0u8..4, dim..=dim),
                -12.0f64..0.0,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The step is an ascent direction, stays on the equality's null
        /// space and is exactly 0 on every clamped coordinate.
        #[test]
        fn step_ascends_on_the_face(
            (dim, rows, g, a, states, log_scale) in face()
        ) {
            let probe = Rows {
                rows: rows.iter().map(|(row, _)| row.clone()).collect(),
                w: rows.iter().map(|&(_, w)| w).collect(),
                dim,
            };
            let mut active = ActiveSet::all_free(dim);
            for (i, &st) in states.iter().enumerate() {
                match st {
                    0 => active.set(i, VarState::AtLower),
                    1 => active.set(i, VarState::AtUpper),
                    _ => {}
                }
            }
            let g = Vector::from(g);
            let a = Vector::from(a);
            // Scale the projection so η ranges from its cap to its floor.
            let d = g.scaled(10f64.powf(log_scale));
            if let Some(s) = newton_step(&probe, &g, &d, &active, &a) {
                prop_assert!(g.dot(&s) > 0.0, "gᵀs = {}", g.dot(&s));
                let tol = 1e-12 * a.norm2() * s.norm2();
                prop_assert!(a.dot(&s).abs() <= tol, "a·s = {} > {}", a.dot(&s), tol);
                for i in 0..dim {
                    if !active.is_free(i) {
                        prop_assert_eq!(s[i], 0.0, "clamped coordinate {} moved", i);
                    }
                }
            }
        }
    }
}
