//! Gradient projection onto the active-constraint subspace.

use crate::{ActiveSet, BoxLinearProblem};
use nws_linalg::Vector;

/// Projects the gradient `g` onto the subspace spanned by the active
/// constraints: clamped coordinates are zeroed, and the component along the
/// capacity-equality normal (restricted to the free coordinates) is removed.
///
/// For this problem's constraint structure — axis-aligned bounds plus a
/// single dense equality — the general projector `I − Aᵀ(AAᵀ)⁻¹A` collapses
/// to the closed form implemented here (the tests check it against the
/// conditions that define the orthogonal projection):
///
/// ```text
/// d_i = 0                                  if i clamped
/// d_F = g_F − (a_F·g_F / ‖a_F‖²)·a_F        on the free coordinates
/// ```
///
/// Moving along the returned direction keeps `a·p` constant and leaves
/// clamped coordinates untouched. A zero vector is returned when no
/// variables are free.
pub fn project_gradient(g: &Vector, active: &ActiveSet, problem: &BoxLinearProblem) -> Vector {
    let n = g.len();
    assert_eq!(n, active.len(), "gradient/active-set dimension mismatch");
    let a = problem.eq_normal();
    let mut af_dot_g = 0.0;
    let mut af_norm2 = 0.0;
    for i in 0..n {
        if active.is_free(i) {
            af_dot_g += a[i] * g[i];
            af_norm2 += a[i] * a[i];
        }
    }
    let mut d = Vector::zeros(n);
    if af_norm2 == 0.0 {
        return d; // no free coordinates: the subspace is {0}
    }
    let lambda = af_dot_g / af_norm2;
    for i in 0..n {
        if active.is_free(i) {
            d[i] = g[i] - lambda * a[i];
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarState;
    use proptest::prelude::*;

    fn problem(n: usize, a: &[f64]) -> BoxLinearProblem {
        BoxLinearProblem::new(Vector::filled(n, 1.0), Vector::from(a), 0.5).unwrap()
    }

    #[test]
    fn projection_orthogonal_to_equality() {
        let pb = problem(3, &[10.0, 20.0, 30.0]);
        let active = ActiveSet::all_free(3);
        let g = Vector::from(vec![1.0, -2.0, 0.5]);
        let d = project_gradient(&g, &active, &pb);
        assert!(pb.eq_normal().dot(&d).abs() < 1e-9);
    }

    #[test]
    fn clamped_coordinates_zeroed() {
        let pb = problem(3, &[1.0, 1.0, 1.0]);
        let mut active = ActiveSet::all_free(3);
        active.set(0, VarState::AtLower);
        let g = Vector::from(vec![5.0, 1.0, -1.0]);
        let d = project_gradient(&g, &active, &pb);
        assert_eq!(d[0], 0.0);
        // Free part: g_F − mean(g_F) for unit normal; a·d = 0 on free coords.
        assert!((d[1] + d[2]).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    /// A projection case: loads `a` log-uniform in [1e-3, 1e7] with about
    /// a quarter of the columns copies of earlier ones, a gradient `g` of
    /// mixed signs over six decades, and a clamp pattern that is random, all
    /// free, or all clamped.
    fn projection_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<VarState>)> {
        (1usize..=64).prop_flat_map(|n| {
            (
                prop::collection::vec((-3.0f64..7.0, 0usize..4, 0usize..64), n..=n),
                prop::collection::vec((-3.0f64..3.0, any::<bool>()), n..=n),
                prop::collection::vec(0usize..3, n..=n),
                0usize..4,
            )
                .prop_map(|(cols, grads, states, pattern)| {
                    let mut a: Vec<f64> = Vec::with_capacity(cols.len());
                    for (i, &(exp, dup, from)) in cols.iter().enumerate() {
                        a.push(if i > 0 && dup == 0 {
                            a[from % i]
                        } else {
                            10f64.powf(exp)
                        });
                    }
                    let g = grads
                        .iter()
                        .map(|&(exp, neg)| if neg { -1.0 } else { 1.0 } * 10f64.powf(exp))
                        .collect();
                    let state = |code: usize| match code {
                        0 => VarState::Free,
                        1 => VarState::AtLower,
                        _ => VarState::AtUpper,
                    };
                    let states = match pattern {
                        0 => states.iter().map(|&c| state(1 + c % 2)).collect(),
                        1 => vec![VarState::Free; states.len()],
                        _ => states.into_iter().map(state).collect(),
                    };
                    (a, g, states)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `d` is the orthogonal projection of `g` onto the subspace
        /// `{d : d_i = 0 when i is clamped, a·d = 0}`: it lies in that
        /// subspace, and `g − d` is orthogonal to it, which on the free
        /// coordinates `F` means `(g − d)_F` is parallel to `a_F`. Those
        /// three conditions fix the projection uniquely.
        #[test]
        fn satisfies_the_projection_conditions((a, g, states) in projection_case()) {
            let n = a.len();
            // θ = 0 keeps every load vector feasible; the projection ignores θ.
            let loads = Vector::from(a.clone());
            let pb = BoxLinearProblem::new(Vector::filled(n, 1.0), loads, 0.0).unwrap();
            let mut active = ActiveSet::all_free(n);
            for (i, &st) in states.iter().enumerate() {
                active.set(i, st);
            }
            let d = project_gradient(&Vector::from(g.clone()), &active, &pb);
            let free: Vec<usize> = (0..n).filter(|&i| active.is_free(i)).collect();
            // Euclidean norm over the free coordinates (0 when none is free).
            let norm = |x: &dyn Fn(usize) -> f64| {
                free.iter().map(|&i| x(i) * x(i)).sum::<f64>().sqrt()
            };
            let (a_norm, g_norm) = (norm(&|i| a[i]), norm(&|i| g[i]));
            for i in (0..n).filter(|&i| !active.is_free(i)) {
                prop_assert!(d[i] == 0.0, "clamped d[{}] = {}", i, d[i]);
            }
            let a_dot_d: f64 = (0..n).map(|i| a[i] * d[i]).sum();
            prop_assert!(
                a_dot_d.abs() <= 1e-12 * a_norm * g_norm,
                "a·d = {} against ‖a_F‖ {} and ‖g_F‖ {}", a_dot_d, a_norm, g_norm
            );
            // Least-squares fit of r = (g − d)_F on a_F: r ≈ λ·a_F.
            let r = |i: usize| g[i] - d[i];
            let lambda = free.iter().map(|&i| a[i] * r(i)).sum::<f64>() / (a_norm * a_norm);
            let residual = norm(&|i| r(i) - lambda * a[i]);
            prop_assert!(
                residual <= 1e-12 * g_norm,
                "(g − d)_F is {} off the line of a_F, ‖g_F‖ = {}", residual, g_norm
            );
        }
    }

    #[test]
    fn all_clamped_gives_zero() {
        let pb = problem(2, &[1.0, 2.0]);
        let mut active = ActiveSet::all_free(2);
        active.set(0, VarState::AtLower);
        active.set(1, VarState::AtUpper);
        let d = project_gradient(&Vector::from(vec![4.0, -4.0]), &active, &pb);
        assert_eq!(d.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_already_in_subspace_unchanged() {
        let pb = problem(2, &[1.0, 1.0]);
        let active = ActiveSet::all_free(2);
        let g = Vector::from(vec![1.0, -1.0]); // a·g = 0 already
        let d = project_gradient(&g, &active, &pb);
        assert!(d.approx_eq(&g, 1e-12));
    }

    #[test]
    fn projection_is_ascent_direction() {
        // d is the projection of g, so g·d = ‖d‖² ≥ 0.
        let pb = problem(4, &[2.0, 3.0, 4.0, 5.0]);
        let active = ActiveSet::all_free(4);
        let g = Vector::from(vec![0.4, -1.2, 3.3, 0.01]);
        let d = project_gradient(&g, &active, &pb);
        assert!((g.dot(&d) - d.dot(&d)).abs() < 1e-9);
        assert!(g.dot(&d) >= 0.0);
    }
}
