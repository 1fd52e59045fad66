//! §I's deployment model — several measurement tasks sharing one
//! infrastructure budget.
//!
//! The introduction's motivating scenario: the traffic-engineering team
//! tracks the JANET OD matrix, while the security team watches prefixes
//! "below the radars for traffic engineering" that "may play an important
//! role in the early detection of anomalies". With router-embedded monitors
//! both tasks share the same budget θ; this experiment solves them jointly
//! and sweeps the security task's weight, showing the budget shifting
//! between estimation accuracy and detection coverage.

use nws_bench::{banner, footer};
use nws_core::multi::{solve_composite, SubTask, UtilityChoice};
use nws_core::report::render_csv;
use nws_core::scenarios::{janet_task_with, BACKGROUND_SEED, PAPER_THETA};
use nws_core::MeasurementTask;
use nws_routing::OdPair;
use nws_solver::SolverOptions;

fn main() {
    let t0 = banner(
        "multitask",
        "TE estimation + anomaly coverage under one budget",
    );

    let te = janet_task_with(PAPER_THETA, BACKGROUND_SEED).expect("valid");
    // The security task: three small "below the radar" flows, including one
    // to the otherwise-untracked IE PoP.
    let sec = {
        let topo = te.topology().clone();
        let janet = topo.require_node("JANET").expect("JANET");
        let bg = te.link_loads().to_vec();
        let mut b = MeasurementTask::builder(topo.clone());
        for (dst, rate) in [("IE", 700.0), ("HR", 1_200.0), ("SK", 400.0)] {
            let node = topo.require_node(dst).expect("PoP");
            b = b.track(format!("SEC-{dst}"), OdPair::new(janet, node), rate * 300.0);
        }
        b.background_loads(&bg)
            .theta(PAPER_THETA)
            .build()
            .expect("valid")
    };

    let mut rows = Vec::new();
    for w_sec in [0.0, 0.5, 1.0, 2.0, 5.0, 20.0] {
        let sol = solve_composite(
            &[
                SubTask {
                    task: &te,
                    weight: 1.0,
                    utility: UtilityChoice::SizeEstimation,
                },
                SubTask {
                    task: &sec,
                    weight: w_sec,
                    utility: UtilityChoice::Coverage { eps: 1e-4 },
                },
            ],
            PAPER_THETA,
            SolverOptions::default(),
        )
        .expect("feasible");

        let te_mean = sol.utilities[0].iter().sum::<f64>() / sol.utilities[0].len() as f64;
        let sec_min_rho = sol.effective_rates[1]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        println!(
            "w_sec {w_sec:>5}: TE mean utility {te_mean:.4} | security min effective \
             rate {sec_min_rho:.6} | monitors {} | kkt {} | iterations {}",
            sol.active_monitors.len(),
            sol.kkt_verified,
            sol.iterations
        );
        rows.push(vec![
            w_sec,
            te_mean,
            sec_min_rho,
            sol.active_monitors.len() as f64,
            if sol.kkt_verified { 1.0 } else { 0.0 },
            sol.iterations as f64,
        ]);
    }

    println!();
    print!(
        "{}",
        render_csv(
            &[
                "w_sec",
                "te_mean_utility",
                "sec_min_rho",
                "monitors",
                "kkt",
                "iterations"
            ],
            &rows
        )
    );
    println!();
    println!(
        "The trade is explicit: raising the security weight buys detection \
         coverage (min effective rate on the watched prefixes) at a marginal \
         cost in estimation utility — one convex program, one budget."
    );

    footer(t0);
}
