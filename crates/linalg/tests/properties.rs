//! Property-based tests for the vector type.

use nws_linalg::Vector;
use proptest::prelude::*;

/// Strategy producing a vector of `n` reasonable finite floats.
fn vec_of(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, n)
}

proptest! {
    #[test]
    fn dot_is_commutative(a in vec_of(8), b in vec_of(8)) {
        let (va, vb) = (Vector::from(a), Vector::from(b));
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality(a in vec_of(8), b in vec_of(8)) {
        let (va, vb) = (Vector::from(a), Vector::from(b));
        prop_assert!((&va + &vb).norm2() <= va.norm2() + vb.norm2() + 1e-9);
    }

    #[test]
    fn cauchy_schwarz(a in vec_of(6), b in vec_of(6)) {
        let (va, vb) = (Vector::from(a), Vector::from(b));
        prop_assert!(va.dot(&vb).abs() <= va.norm2() * vb.norm2() + 1e-9);
    }

    #[test]
    fn axpy_matches_operator_form(a in vec_of(5), b in vec_of(5), alpha in -10.0..10.0f64) {
        let va = Vector::from(a);
        let vb = Vector::from(b);
        let mut in_place = va.clone();
        in_place.axpy(alpha, &vb);
        let via_ops = &va + &vb.scaled(alpha);
        prop_assert!(in_place.approx_eq(&via_ops, 1e-9));
    }
}
