//! Table I — optimal sampling rates on GEANT for the JANET task.
//!
//! Reproduces the paper's headline experiment: estimate the traffic JANET
//! (AS 786) sends to 20 GEANT PoPs, with θ = 100 000 sampled packets per
//! 5-minute interval and no per-link cap. Prints the activated monitors
//! with their rates, loads and capacity contributions, and the per-OD
//! utilities and Monte-Carlo accuracies (20 sampling runs, as in §V-B).

use nws_bench::{banner, footer, paper_config};
use nws_core::report::render_table1;
use nws_core::scenarios::janet_task;
use nws_core::{evaluate_accuracy, solve_placement, summarize};

fn main() {
    let t0 = banner("table1", "optimal sampling rates for the JANET->GEANT task");

    let task = janet_task();
    let sol = solve_placement(&task, &paper_config()).expect("reference task is feasible");
    let accs = evaluate_accuracy(&task, &sol, 20, 1);

    print!("{}", render_table1(&task, &sol, &accs));

    let summary = summarize(&accs);
    println!();
    println!(
        "accuracy: mean {:.4} | worst OD {:.4} | best OD {:.4}   (paper: avg > 0.89 per OD)",
        summary.mean, summary.worst, summary.best
    );

    // Paper §V-B cross-checks.
    let max_rate = sol.rates.iter().cloned().fold(0.0, f64::max);
    // "Significant" monitors of an OD: links contributing at least 20 % of
    // its effective rate. The paper's at-most-two-links observation is
    // about where an OD is *meaningfully* sampled; with more activated
    // monitors overall, other tiny contributions ride along on shared paths.
    let max_significant = (0..task.ods().len())
        .map(|k| {
            let rho = sol.effective_rates_approx[k];
            sol.monitors_of_od(&task, k)
                .iter()
                .filter(|&&(_, p)| p >= 0.2 * rho)
                .count()
        })
        .max()
        .unwrap_or(0);
    println!("max sampling rate: {max_rate:.4} (paper: ~0.009 on the quietest links)");
    println!(
        "monitors contributing >=20% of an OD's effective rate: <= {max_significant} per OD \
         (paper: at most two per OD)"
    );
    println!(
        "active monitors: {} of {} candidate links",
        sol.active_monitors.len(),
        task.candidate_links().len()
    );

    footer(t0);
}
