//! # nws-core — optimal network-wide sampling
//!
//! A faithful reproduction of **"Reformulating the Monitor Placement
//! Problem: Optimal Network-Wide Sampling"** (Cantieni, Iannaccone, Barakat,
//! Diot, Thiran — CoNEXT 2006), as a reusable library.
//!
//! Given a network where *every* backbone link could host a sampling monitor
//! (NetFlow-style), the method answers, in one convex program: **which
//! monitors should be activated, and at which sampling rate**, to measure a
//! set of origin–destination (OD) pairs with maximum accuracy under a
//! network-wide resource budget `θ`.
//!
//! ## The pieces
//!
//! * [`MeasurementTask`] — the problem instance: topology, tracked OD set
//!   `F`, routing matrix `R`, per-link loads `U`, capacity `θ`, rate caps `α`.
//! * [`SreUtility`] — the paper's utility `M(ρ)`: mean squared relative
//!   accuracy of the inverted size estimator, C²-spliced to be zero at zero.
//! * [`solve_placement`] — the optimizer: gradient projection with
//!   active-set management and KKT certification (via `nws-solver`); `p_i=0`
//!   in the answer means monitor `i` stays off.
//! * [`evaluate_accuracy`] — the paper's Monte-Carlo evaluation protocol.
//! * [`baseline`] — the naïve strategies the paper compares against
//!   (access-link-only, UK-links-only, uniform-everywhere) plus a
//!   two-phase heuristic in the spirit of Suh et al.
//! * [`maxmin`] — the max–min fairness objective the paper discusses as an
//!   alternative (§III), via smooth soft-min approximation.
//! * [`multi`] — composite multi-task optimization: several measurement
//!   tasks (e.g. traffic engineering + anomaly coverage) sharing one budget,
//!   the deployment §I motivates.
//! * [`planning`] — capacity planning: the minimal `θ` reaching a target
//!   worst-OD utility (the inverse of Figure 2).
//! * [`scenarios`] — the reconstructed GEANT/JANET workload of §V.
//! * [`taskfile`] — a plain-text task-specification format so the optimizer
//!   can be driven from the command line (see the `nws-cli` crate).
//! * [`report`] — Table I / Figure 2 style text and CSV rendering.
//!
//! ## Quickstart
//!
//! ```
//! use nws_core::{solve_placement, MeasurementTask, PlacementConfig};
//! use nws_routing::OdPair;
//!
//! let topo = nws_topo::geant();
//! let janet = topo.require_node("JANET").unwrap();
//! let nl = topo.require_node("NL").unwrap();
//! let task = MeasurementTask::builder(topo)
//!     .track("JANET-NL", OdPair::new(janet, nl), 9.0e6)
//!     .theta(10_000.0)
//!     .build()
//!     .unwrap();
//! let sol = solve_placement(&task, &PlacementConfig::default()).unwrap();
//! assert!(sol.kkt_verified);
//! assert!(!sol.active_monitors.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
mod error;
mod eval;
mod formulation;
pub mod maxmin;
pub mod multi;
mod placement;
pub mod planning;
pub mod report;
pub mod scenarios;
mod task;
pub mod taskfile;
mod utility;

pub use error::CoreError;
pub use eval::{evaluate_accuracy, summarize, AccuracySummary, OdAccuracy};
pub use formulation::{build_problem, FusedEval, PlacementObjective, RateModel, ReducedIndex};
pub use placement::{
    evaluate_rates, solve_placement, solve_placement_observed, solve_placement_warm,
    solve_placement_warm_observed, Degraded, PlacementConfig, PlacementSolution,
    ACTIVATION_THRESHOLD,
};
pub use task::{MeasurementTask, TaskBuilder, TrackedOd};
pub use utility::{LogUtility, SreUtility, Utility};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
