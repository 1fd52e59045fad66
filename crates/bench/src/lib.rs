//! # nws-bench — experiment regenerators and performance benchmarks
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §3 for the
//! index) plus Criterion benchmarks of the substrates. Binaries print a
//! human-readable header followed by CSV series that can be plotted
//! directly.
//!
//! | binary              | regenerates                                         |
//! |---------------------|-----------------------------------------------------|
//! | `fig1`              | Figure 1 — the utility function `M(ρ)`              |
//! | `table1`            | Table I — optimal rates on GEANT for the JANET task |
//! | `fig2`              | Figure 2 — accuracy vs θ, optimum vs UK-links-only  |
//! | `convergence`       | §IV-D — convergence statistics over 200 instances   |
//! | `naive`             | §V-C — access-link-only capacity accounting         |
//! | `approx_ablation`   | §IV-B/V-B — exact vs approximate effective rate     |
//! | `maxmin`            | §III — sum-utility vs max–min objective             |
//! | `twophase`          | §II — joint optimum vs two-phase heuristic          |
//! | `reroute`           | §I — stale placement vs re-optimization after a cut |
//! | `crossnet`          | §V-C — the comparison repeated on Abilene           |
//! | `diurnal`           | §I — a synthetic day under monitoring policies      |
//! | `ablation_solver`   | §IV-D — Polak–Ribière / line-search / warm starts   |
//! | `multitask`         | §I — several tasks sharing one budget               |
//! | `convergence_trace` | §IV-D — objective-vs-iteration curves               |
//! | `topology_study`    | exploratory — advantage vs topology structure       |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod simulate;

use nws_core::PlacementConfig;
use nws_solver::{Direction, SolverOptions};
use std::time::Instant;

/// The paper's solver configuration (§IV-D): the default placement
/// config with its directions pinned to [`Direction::PolakRibiere`], so the
/// reproductions of the paper's tables and figures run the paper's method
/// rather than the solver's default Newton face steps.
pub fn paper_config() -> PlacementConfig {
    PlacementConfig {
        solver: SolverOptions {
            direction: Direction::PolakRibiere,
            ..SolverOptions::default()
        },
        ..PlacementConfig::default()
    }
}

/// Prints a standard experiment banner and returns a timer for the footer.
pub fn banner(id: &str, what: &str) -> Instant {
    println!("=== {id}: {what}");
    println!(
        "=== reproduction of: Cantieni et al., \"Reformulating the Monitor Placement \
         Problem\" (CoNEXT 2006)"
    );
    println!();
    Instant::now()
}

/// Prints the standard experiment footer with elapsed wall time.
pub fn footer(start: Instant) {
    println!();
    println!("=== done in {:.2?}", start.elapsed());
}

/// Mean of a slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1); 0 for a single element.
///
/// # Panics
/// Panics on an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    if xs.len() == 1 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
