//! §I — why static placements go stale: re-routing after a fibre cut.
//!
//! The paper's core motivation for *re-optimizable* router-embedded
//! monitoring: short-term traffic variation from failures makes any static
//! placement sub-optimal. This experiment cuts the FR–LU fibre. The optimal
//! placement tracks the smallest OD pair (JANET-LU, 20 pkt/s) with a ~1 %
//! monitor on FR-LU; after the cut, LU traffic reroutes via NL–DE–LU where
//! the stale configuration has only the ~10⁻⁵-rate core monitors, so the
//! pair effectively disappears from view until re-optimization. Three
//! configurations are compared on the post-failure network:
//!
//! 1. the stale pre-failure rates (what a static deployment keeps running),
//! 2. the re-optimized rates (one solver run on the new routing),
//! 3. the pre-failure optimum on the pre-failure network (reference).

use nws_bench::{banner, footer};
use nws_core::scenarios::{
    janet_task, janet_task_on, BACKGROUND_SEED, BACKGROUND_TOTAL_PKTS_PER_SEC, PAPER_THETA,
};
use nws_core::{evaluate_accuracy, evaluate_rates, solve_placement, summarize, PlacementConfig};
use nws_traffic::demand::DemandMatrix;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;

fn main() {
    let t0 = banner(
        "reroute",
        "stale vs re-optimized placement after a fibre cut",
    );

    // Pre-failure optimum.
    let before = janet_task();
    let cfg = PlacementConfig::default();
    let sol_before = solve_placement(&before, &cfg).expect("feasible");
    let acc_before = summarize(&evaluate_accuracy(&before, &sol_before, 20, 5));
    println!(
        "pre-failure optimum: objective {:.4}, worst-OD accuracy {:.4}",
        sol_before.objective, acc_before.worst
    );

    // Cut the FR<->LU fibre and reconverge routing + background loads.
    let topo = before.topology();
    let fr = topo.require_node("FR").expect("FR");
    let lu = topo.require_node("LU").expect("LU");
    let topo_after = topo.without_links(&topo.bidirectional_pair(fr, lu));

    let background = DemandMatrix::gravity_capacity_weighted(
        &topo_after,
        BACKGROUND_TOTAL_PKTS_PER_SEC * MEASUREMENT_INTERVAL_SECS,
        0.5,
        BACKGROUND_SEED,
    );
    let bg_loads = background.link_loads(&topo_after);
    let after = janet_task_on(topo_after, &bg_loads, PAPER_THETA).expect("post-failure task valid");

    // 1. Stale configuration: the old per-link rates, as they are (the cut
    //    links keep their ids but carry no traffic, so their monitors see
    //    nothing).
    let stale = evaluate_rates(&after, &sol_before.rates);
    let acc_stale = summarize(&evaluate_accuracy(&after, &stale, 20, 5));

    // 2. Re-optimized configuration.
    let reopt = solve_placement(&after, &cfg).expect("post-failure feasible");
    let acc_reopt = summarize(&evaluate_accuracy(&after, &reopt, 20, 5));

    println!(
        "post-failure, stale rates : objective {:.4}, worst-OD accuracy {:+.4}",
        stale.objective, acc_stale.worst
    );
    println!(
        "post-failure, re-optimized: objective {:.4}, worst-OD accuracy {:.4}",
        reopt.objective, acc_reopt.worst
    );

    // ODs most hurt by staleness.
    println!();
    println!("per-OD utility (stale vs re-optimized), ODs hurt worst first:");
    let mut deltas: Vec<(usize, f64)> = (0..after.ods().len())
        .map(|k| (k, reopt.utilities[k] - stale.utilities[k]))
        .collect();
    deltas.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (k, delta) in deltas.iter().take(5) {
        println!(
            "  {:<12} stale {:.4} -> reopt {:.4} ({:+.4})",
            after.ods()[*k].name,
            stale.utilities[*k],
            reopt.utilities[*k],
            delta
        );
    }
    println!();
    println!(
        "re-optimization recovers {:+.4} objective ({:.1}% of the stale gap to the \
         pre-failure level)",
        reopt.objective - stale.objective,
        100.0 * (reopt.objective - stale.objective)
            / (sol_before.objective - stale.objective).max(1e-12)
    );

    footer(t0);
}
