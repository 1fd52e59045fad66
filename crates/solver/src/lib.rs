//! # nws-solver — gradient projection with active sets and KKT verification
//!
//! The optimization engine behind the monitor-placement method of Cantieni
//! et al. (CoNEXT 2006, §IV): maximize a smooth strictly concave objective
//! over the polytope
//!
//! ```text
//! Ω = { p │ 0 ≤ p_i ≤ upper_i,  Σ_i a_i·p_i = b }
//! ```
//!
//! using the **gradient projection method**:
//!
//! 1. project the gradient onto the subspace spanned by the *active*
//!    constraints (clamped bounds + the capacity equality);
//! 2. mix successive search directions with the **Polak–Ribière** rule;
//!    once a line search ends inside the face without changing the active
//!    set, take a truncated **Newton** step on the free face instead
//!    ([`Direction::Newton`], the default; the paper's path is
//!    [`Direction::PolakRibiere`]);
//! 3. run an exact 1-D **Newton line search** along the direction, stopping
//!    early when an inactive bound is hit (which then joins the active set);
//! 4. at interior stationary points, compute **Lagrange multipliers** and
//!    check the **KKT conditions**; bounds with negative multipliers are
//!    released and the search continues;
//! 5. stop at a KKT point — by concavity + convexity of `Ω`, the *global*
//!    maximizer — or when the iteration cap is exceeded.
//!
//! The solver is generic over the objective (the [`Objective`] trait), so
//! the same engine drives the paper's utility, the max–min extension, and
//! the test suite's analytic objectives.
//!
//! ```
//! use nws_linalg::Vector;
//! use nws_solver::{BoxLinearProblem, Objective, Solver};
//!
//! /// maximize −Σ (p_i − 1)² over p_1 + p_2 = 1, 0 ≤ p ≤ 1.
//! struct Quad;
//! impl Objective for Quad {
//!     fn value(&self, p: &Vector) -> f64 {
//!         -p.iter().map(|x| (x - 1.0) * (x - 1.0)).sum::<f64>()
//!     }
//!     fn gradient(&self, p: &Vector) -> Vector {
//!         p.iter().map(|x| -2.0 * (x - 1.0)).collect()
//!     }
//!     fn curvature_along(&self, _p: &Vector, s: &Vector) -> f64 {
//!         -2.0 * s.dot(s)
//!     }
//! }
//!
//! let problem = BoxLinearProblem::new(
//!     Vector::filled(2, 1.0),           // upper bounds
//!     Vector::filled(2, 1.0),           // equality normal
//!     1.0,                              // equality rhs
//! ).unwrap();
//! let sol = Solver::default().maximize(&Quad, &problem).unwrap();
//! assert!(sol.kkt_verified);
//! // Symmetric problem: optimum splits the budget evenly.
//! assert!((sol.p[0] - 0.5).abs() < 1e-8);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod active_set;
mod diagnostics;
mod error;
mod kkt;
mod line_search;
mod newton;
mod problem;
mod projection;
mod solve;

pub use active_set::{ActiveSet, VarState};
pub use diagnostics::{Diagnostics, Solution, TerminationReason};
pub use error::SolverError;
pub use kkt::{compute_multipliers, KktReport, Multipliers};
pub use line_search::{LineProbe, LineSearchOutcome, NewtonLineSearch, TrialPoints};
pub use newton::CurvatureProbe;
pub use problem::{BoxLinearProblem, Objective};
pub use projection::project_gradient;
pub use solve::{Direction, Solver, SolverOptions};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SolverError>;
