//! §IV-D ablation — what each algorithmic ingredient buys.
//!
//! The paper motivates two specific choices: Newton's method for the 1-D
//! search ("fast convergence" given the C² utility) and Polak–Ribière
//! conjugate mixing (pure projected gradients "form a zigzag path … which
//! may result in a poor convergence"). This ablation solves the same
//! randomized instances with each ingredient toggled and reports
//! iteration counts and certification rates — plus the warm-start speedup
//! of re-optimization. The paper's rows pin [`Direction::PolakRibiere`];
//! the last row and the last re-optimization take the solver's default,
//! truncated Newton steps on the settled free face.

use nws_bench::{banner, footer, mean, paper_config, std_dev};
use nws_core::scenarios::{janet_task_with, BACKGROUND_SEED};
use nws_core::{solve_placement, solve_placement_warm, PlacementConfig};
use nws_solver::{Direction, NewtonLineSearch, SolverOptions};

fn main() {
    let t0 = banner(
        "ablation_solver",
        "Polak-Ribiere / line-search / warm-start ablation",
    );

    let thetas = [20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0];
    let paper = paper_config().solver;
    let variants: [(&str, SolverOptions); 4] = [
        ("full (PR + Newton)", paper),
        (
            "no Polak-Ribiere",
            SolverOptions {
                direction: Direction::ProjectedGradient,
                ..paper
            },
        ),
        (
            "coarse line search",
            SolverOptions {
                line_search: NewtonLineSearch {
                    grad_tol: 1e-3,
                    max_iters: 8,
                },
                ..paper
            },
        ),
        ("Newton face steps", SolverOptions::default()),
    ];

    for (label, opts) in &variants {
        let mut iters = Vec::new();
        let mut certified = 0usize;
        for &theta in &thetas {
            let task = janet_task_with(theta, BACKGROUND_SEED).expect("valid");
            let cfg = PlacementConfig {
                solver: *opts,
                ..PlacementConfig::default()
            };
            let sol = solve_placement(&task, &cfg).expect("feasible");
            iters.push(sol.diagnostics.iterations as f64);
            certified += usize::from(sol.kkt_verified);
        }
        println!(
            "{label:<20}: certified {certified}/{} | iterations mean {:.0} std {:.0} max {:.0}",
            thetas.len(),
            mean(&iters),
            std_dev(&iters),
            iters.iter().cloned().fold(0.0, f64::max)
        );
    }

    // Warm-start ablation: re-optimize after a 10% traffic scale-up, on the
    // paper's path and with Newton face steps.
    println!();
    let base = janet_task_with(100_000.0, BACKGROUND_SEED).expect("valid");
    let shifted = janet_task_with(110_000.0, BACKGROUND_SEED).expect("valid");
    for (label, solver) in [("", paper), (", Newton", SolverOptions::default())] {
        let cfg = PlacementConfig {
            solver,
            ..PlacementConfig::default()
        };
        let sol = solve_placement(&base, &cfg).expect("feasible");
        let cold = solve_placement(&shifted, &cfg).expect("feasible");
        let warm = solve_placement_warm(&shifted, &cfg, &sol.rates).expect("feasible");
        println!(
            "re-optimize after +10% theta{label}: cold {} iterations, warm-started {} \
             iterations (same objective to {:.1e})",
            cold.diagnostics.iterations,
            warm.diagnostics.iterations,
            (cold.objective - warm.objective).abs()
        );
    }

    footer(t0);
}
