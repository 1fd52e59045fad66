//! Active-set bookkeeping for the bound constraints.

use crate::BoxLinearProblem;
use nws_linalg::Vector;

/// State of one variable with respect to its bound constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarState {
    /// Strictly between its bounds; participates in the search subspace.
    Free,
    /// Clamped at 0 — in placement terms, the monitor is *switched off*.
    AtLower,
    /// Clamped at its upper bound `α_i` — the monitor is saturated.
    AtUpper,
}

/// Tracks which bound constraints are active. The capacity equality is
/// always active and is handled by the projection itself, not recorded here.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSet {
    states: Vec<VarState>,
}

impl ActiveSet {
    /// Classifies `p` against the problem's bounds with absolute snap
    /// tolerance `tol`: entries within `tol` of a bound are considered
    /// clamped there.
    pub fn classify(p: &Vector, problem: &BoxLinearProblem, tol: f64) -> ActiveSet {
        let states = (0..p.len())
            .map(|i| {
                if p[i] <= tol {
                    VarState::AtLower
                } else if p[i] >= problem.upper()[i] - tol {
                    VarState::AtUpper
                } else {
                    VarState::Free
                }
            })
            .collect();
        ActiveSet { states }
    }

    /// An all-free active set of dimension `n`.
    pub fn all_free(n: usize) -> ActiveSet {
        ActiveSet {
            states: vec![VarState::Free; n],
        }
    }

    /// Dimension.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the set is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state of variable `i`.
    pub fn state(&self, i: usize) -> VarState {
        self.states[i]
    }

    /// Marks variable `i` with the given state.
    pub fn set(&mut self, i: usize, s: VarState) {
        self.states[i] = s;
    }

    /// True if variable `i` is free.
    pub fn is_free(&self, i: usize) -> bool {
        self.states[i] == VarState::Free
    }

    /// Indices of free variables.
    pub fn free_indices(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.is_free(i))
            .collect()
    }

    /// Snaps `p` exactly onto the bounds its active set says it is on
    /// (removes the `≤ tol` fuzz introduced by arithmetic).
    pub fn snap(&self, p: &mut Vector, problem: &BoxLinearProblem) {
        for i in 0..self.states.len() {
            match self.states[i] {
                VarState::AtLower => p[i] = 0.0,
                VarState::AtUpper => p[i] = problem.upper()[i],
                VarState::Free => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> BoxLinearProblem {
        BoxLinearProblem::new(
            Vector::from(vec![1.0, 0.5, 2.0]),
            Vector::from(vec![1.0, 1.0, 1.0]),
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn classify_states() {
        let pb = problem();
        let p = Vector::from(vec![0.0, 0.25, 2.0]);
        let a = ActiveSet::classify(&p, &pb, 1e-12);
        assert_eq!(a.state(0), VarState::AtLower);
        assert_eq!(a.state(1), VarState::Free);
        assert_eq!(a.state(2), VarState::AtUpper);
        assert_eq!(a.free_indices(), vec![1]);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn tolerance_snaps_nearby_values() {
        let pb = problem();
        let p = Vector::from(vec![1e-13, 0.4999999999999, 1.0]);
        let a = ActiveSet::classify(&p, &pb, 1e-9);
        assert_eq!(a.state(0), VarState::AtLower);
        assert_eq!(a.state(1), VarState::AtUpper); // within tol of 0.5
        assert_eq!(a.state(2), VarState::Free);
    }

    #[test]
    fn snap_rounds_exactly() {
        let pb = problem();
        let mut p = Vector::from(vec![1e-13, 0.3, 1.9999999999]);
        let mut a = ActiveSet::classify(&p, &pb, 1e-9);
        a.set(2, VarState::AtUpper);
        a.snap(&mut p, &pb);
        assert_eq!(p[0], 0.0);
        assert_eq!(p[1], 0.3);
        assert_eq!(p[2], 2.0);
    }

    #[test]
    fn all_free_constructor() {
        let a = ActiveSet::all_free(4);
        assert_eq!(a.free_indices(), vec![0, 1, 2, 3]);
    }
}
