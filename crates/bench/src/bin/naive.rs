//! §V-C — access-link-only monitoring vs the network-wide optimum.
//!
//! The first naïve alternative: monitor only the JANET access link. Every
//! sampled packet is then useful (no cross traffic), but tracking the
//! smallest OD pair (JANET-LU) to the optimum's quality requires sampling
//! the whole access link at that OD's effective rate (~1 %), which the
//! paper computes as 173 798 sampled packets per interval — about 70 % more
//! capacity than the θ = 100 000 the optimum needs.

use nws_bench::{banner, footer, paper_config};
use nws_core::baseline::access_link_only;
use nws_core::scenarios::janet_task;
use nws_core::solve_placement;
use nws_topo::janet_access_link;

fn main() {
    let t0 = banner("naive", "access-link-only monitoring capacity accounting");

    let task = janet_task();
    let opt = solve_placement(&task, &paper_config()).expect("feasible");

    // The binding requirement for a single shared monitor is the *highest*
    // effective rate in the optimum — the small OD pairs (JANET-LU) need
    // ~1 % sampling to be tracked accurately, so the access link would have
    // to sample everything at that rate.
    let (binding_k, binding_rho) = opt
        .effective_rates_approx
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite rates"))
        .expect("non-empty OD set");
    println!(
        "optimum: highest required effective rate is {:.5} for {} (the smallest pairs) \
         using theta = {}",
        binding_rho,
        task.ods()[binding_k].name,
        task.theta()
    );

    let access = janet_access_link(task.topology());
    let baseline = access_link_only(&task, access).expect("access link loaded");
    println!(
        "access-link-only at the same theta: uniform effective rate {:.5} for every OD",
        baseline.rate
    );

    let needed = baseline.capacity_for_rho(&task, *binding_rho);
    println!();
    println!(
        "capacity for access-link-only to give {} the same rate: {:.0} sampled pkts/interval",
        task.ods()[binding_k].name,
        needed
    );
    println!(
        "overhead vs optimum: {:.1}% more capacity   [paper: ~70% (173,798 vs 100,000)]",
        100.0 * (needed / task.theta() - 1.0)
    );

    footer(t0);
}
