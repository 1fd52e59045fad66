//! §IV-D visualized — the objective's convergence trajectory.
//!
//! The paper describes the search qualitatively (zigzag hazards, bound hits,
//! multiplier releases). This experiment records the objective value at
//! every iteration of the JANET solve, with and without Polak–Ribière
//! conjugation, producing the convergence-curve series the discussion
//! implies, plus a third series under the solver's default direction
//! (truncated Newton steps once the active set settles). Gradient
//! projection with exact line searches is monotone ascent, so every curve
//! is nondecreasing; the difference is how fast they close the gap to the
//! certified optimum of the paper's two series.

use nws_bench::{banner, footer};
use nws_core::report::render_csv;
use nws_core::scenarios::janet_task;
use nws_core::{solve_placement, PlacementConfig};
use nws_solver::{Direction, SolverOptions};

fn main() {
    let t0 = banner("convergence_trace", "objective vs iteration, PR on/off");

    let task = janet_task();
    let run = |direction: Direction| {
        let cfg = PlacementConfig {
            solver: SolverOptions {
                record_objective: true,
                direction,
                ..SolverOptions::default()
            },
            ..PlacementConfig::default()
        };
        solve_placement(&task, &cfg).expect("feasible")
    };
    let with_pr = run(Direction::PolakRibiere);
    let without_pr = run(Direction::ProjectedGradient);
    let newton = run(Direction::Newton);

    println!(
        "with Polak-Ribiere   : {} iterations, certified = {}, final objective {:.6}",
        with_pr.diagnostics.iterations, with_pr.kkt_verified, with_pr.objective
    );
    println!(
        "without Polak-Ribiere: {} iterations, certified = {}, final objective {:.6}",
        without_pr.diagnostics.iterations, without_pr.kkt_verified, without_pr.objective
    );
    println!(
        "Newton face steps    : {} iterations, certified = {}, final objective {:.6}",
        newton.diagnostics.iterations, newton.kkt_verified, newton.objective
    );
    let optimum = with_pr.objective.max(without_pr.objective);
    println!();

    // CSV: iteration, gap-to-optimum for every variant (log-plottable).
    let a = &with_pr.objective_trajectory;
    let b = &without_pr.objective_trajectory;
    let c = &newton.objective_trajectory;
    let len = a.len().max(b.len()).max(c.len());
    let rows: Vec<Vec<f64>> = (0..len)
        .step_by(1 + len / 400) // cap the series at ~400 points
        .map(|i| {
            let gap = |t: &[f64]| {
                let v = t.get(i).copied().unwrap_or(*t.last().expect("non-empty"));
                (optimum - v).max(1e-16)
            };
            vec![i as f64, gap(a), gap(b), gap(c)]
        })
        .collect();
    print!(
        "{}",
        render_csv(
            &["iteration", "gap_with_pr", "gap_without_pr", "gap_newton"],
            &rows
        )
    );

    footer(t0);
}
