//! §I quantified — a synthetic day of evolving traffic under different
//! re-solve budgets.
//!
//! The paper's opening argument: traffic varies on short and long
//! timescales, so "these changes quickly make a static placement of traffic
//! monitors perform sub-optimally". This experiment generates 48 intervals
//! of a diurnal cycle (3× swing, 20 % noise, and OD peaks staggered across
//! time zones) over the GEANT/JANET task and replays it through the
//! scenario engine under three reactive budgets: a static configuration
//! (only the first interval re-solves), a re-solve every 12 intervals, and
//! one every interval, all warm-started. Every interval scores the plan in
//! force against an oracle that re-solves it; background traffic stays at
//! its base loads.

use nws_bench::simulate::{diurnal_day, run_day, POLICIES};
use nws_bench::{banner, footer, mean};
use nws_core::report::render_csv;

fn main() {
    let t0 = banner(
        "diurnal",
        "static vs re-optimized monitoring over a synthetic day",
    );

    let (oracle, series) =
        run_day(&diurnal_day(), &POLICIES.map(|(_, n)| n)).expect("every interval solves");
    for ((label, _), out) in POLICIES.iter().zip(&series) {
        let delivered: Vec<f64> = out.per_tick.iter().map(|s| s.delivered).collect();
        println!(
            "{label:<16}: resolves {:>2} | mean objective {:.4} | mean gap {:.3e} | max gap {:.3e} \
             | err p50/p90/p99 {:.4}/{:.4}/{:.4}",
            out.resolves,
            mean(&delivered),
            out.mean_gap,
            out.max_gap,
            out.err_p50,
            out.err_p90,
            out.err_p99
        );
    }

    println!();
    let rows: Vec<Vec<f64>> = oracle
        .iter()
        .enumerate()
        .map(|(t, o)| {
            let mut row = vec![t as f64, o.objective];
            row.extend(series.iter().map(|s| s.per_tick[t].delivered));
            row
        })
        .collect();
    print!(
        "{}",
        render_csv(&["tick", "oracle", "static", "reopt_12", "reopt_1"], &rows)
    );

    footer(t0);
}
