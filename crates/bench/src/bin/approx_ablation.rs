//! §IV-B / §V-B — validity of the linear effective-rate approximation.
//!
//! The optimizer works with `ρ ≈ Σ r·p` (eq. (7)) instead of the exact
//! union probability `ρ = 1 − Π(1−p)^r` (eq. (1)). The paper argues the
//! approximation is benign because optimal rates are ~0.01 and below and
//! each OD is observed by at most two monitors. This ablation quantifies
//! that: solve the JANET task under both models and compare the resulting
//! rates, objectives and per-OD effective rates.

use nws_bench::{banner, footer, paper_config};
use nws_core::report::render_csv;
use nws_core::scenarios::janet_task;
use nws_core::{solve_placement, PlacementConfig, RateModel};

fn main() {
    let t0 = banner(
        "approx_ablation",
        "exact vs approximate effective-rate model",
    );

    let task = janet_task();
    let approx = solve_placement(
        &task,
        &PlacementConfig {
            rate_model: RateModel::Approximate,
            ..paper_config()
        },
    )
    .expect("feasible");
    let exact = solve_placement(
        &task,
        &PlacementConfig {
            rate_model: RateModel::Exact,
            ..paper_config()
        },
    )
    .expect("feasible");

    println!(
        "objective: approx-model {:.6} | exact-model {:.6} | rel diff {:.2e}",
        approx.objective,
        exact.objective,
        (approx.objective - exact.objective).abs() / exact.objective
    );

    let max_rate_diff = approx
        .rates
        .iter()
        .zip(&exact.rates)
        .map(|(a, e)| (a - e).abs())
        .fold(0.0, f64::max);
    println!("max per-link rate difference between the two solutions: {max_rate_diff:.2e}");

    // Within the approx solution, how far is eq. (7) from eq. (1)?
    let mut rows = Vec::new();
    let mut worst_gap = 0.0f64;
    let exact_rates = approx.effective_rates_exact(&task);
    for (k, od) in task.ods().iter().enumerate() {
        let ra = approx.effective_rates_approx[k];
        let re = exact_rates[k];
        let gap = (ra - re) / re.max(1e-300);
        worst_gap = worst_gap.max(gap);
        rows.push(vec![od.size / 300.0, ra, re, gap]);
    }
    println!(
        "worst relative overestimate of eq.(7) vs eq.(1) across ODs: {:.3e}   \
         [paper: negligible at rates ~0.01]",
        worst_gap
    );
    println!();
    print!(
        "{}",
        render_csv(
            &["od_pkts_per_sec", "rho_approx", "rho_exact", "rel_gap"],
            &rows
        )
    );

    footer(t0);
}
