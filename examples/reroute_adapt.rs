//! Adapting the monitoring configuration to a link failure.
//!
//! The paper's motivation (§I): re-routing events make static monitor
//! placements stale. With router-embedded monitors, adaptation is one
//! optimizer run. This example cuts the FR–LU fibre, shows the smallest
//! tracked OD pair (JANET-LU) vanish from the stale configuration's view,
//! and re-optimizes.
//!
//! ```text
//! cargo run --example reroute_adapt
//! ```

use nws_core::scenarios::{
    janet_task, janet_task_on, BACKGROUND_SEED, BACKGROUND_TOTAL_PKTS_PER_SEC, PAPER_THETA,
};
use nws_core::{evaluate_rates, solve_placement, PlacementConfig};
use nws_routing::Spf;
use nws_traffic::demand::DemandMatrix;
use nws_traffic::MEASUREMENT_INTERVAL_SECS;

fn main() {
    let before = janet_task();
    let cfg = PlacementConfig::default();
    let sol = solve_placement(&before, &cfg).expect("feasible");
    let lu_index = before
        .ods()
        .iter()
        .position(|od| od.name == "JANET-LU")
        .expect("JANET-LU tracked");
    println!(
        "before failure: JANET-LU effective rate {:.5}, utility {:.4}",
        sol.effective_rates_approx[lu_index], sol.utilities[lu_index]
    );

    // Fail FR<->LU; IS-IS reconverges; LU traffic now flows via DE.
    let topo = before.topology();
    let fr = topo.require_node("FR").expect("FR");
    let lu = topo.require_node("LU").expect("LU");
    let topo2 = topo.without_links(&topo.bidirectional_pair(fr, lu));
    let janet = topo2.require_node("JANET").expect("JANET");
    let new_path = Spf::compute(&topo2, janet)
        .path_to(&topo2, lu)
        .expect("LU reachable");
    let hops: Vec<&str> = std::iter::once(janet)
        .chain(new_path.iter().map(|&l| topo2.link(l).dst()))
        .map(|n| topo2.node(n).name())
        .collect();
    println!(
        "after FR-LU cut, JANET->LU reroutes to: {}",
        hops.join(" -> ")
    );

    // Rebuild loads and the task on the post-failure network.
    let bg = DemandMatrix::gravity_capacity_weighted(
        &topo2,
        BACKGROUND_TOTAL_PKTS_PER_SEC * MEASUREMENT_INTERVAL_SECS,
        0.5,
        BACKGROUND_SEED,
    );
    let bg_loads = bg.link_loads(&topo2);
    let after = janet_task_on(topo2, &bg_loads, PAPER_THETA).expect("valid task");

    // Stale rates: keep yesterday's configuration running. The cut links
    // keep their ids, so the rate vector carries over as it is.
    let stale = evaluate_rates(&after, &sol.rates);
    println!(
        "stale configuration: JANET-LU effective rate {:.6}, utility {:.4}  <- stale!",
        stale.effective_rates_approx[lu_index], stale.utilities[lu_index]
    );

    // One optimizer run adapts the whole network-wide configuration.
    let reopt = solve_placement(&after, &cfg).expect("feasible");
    println!(
        "re-optimized:        JANET-LU effective rate {:.5}, utility {:.4}",
        reopt.effective_rates_approx[lu_index], reopt.utilities[lu_index]
    );
    let moved: Vec<String> = reopt
        .active_monitors
        .iter()
        .filter(|l| stale.rates[l.index()] <= 1e-9)
        .map(|&l| after.topology().link_label(l))
        .collect();
    println!(
        "monitors newly activated by re-optimization: {}",
        moved.join(", ")
    );
}
