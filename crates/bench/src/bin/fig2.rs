//! Figure 2 — measurement accuracy vs capacity θ, network-wide optimum vs
//! UK-links-only.
//!
//! The paper's comparison of §V-C: restricting the candidate monitors to the
//! six UK links balances load over the ingress PoP but pays dearly on small
//! OD pairs, because the UK links are heavily loaded and a high sampling
//! rate there burns capacity on cross traffic. Six series are printed:
//! average / worst / best OD accuracy for both monitor sets, over a sweep
//! of θ.

use nws_bench::{banner, footer, paper_config};
use nws_core::report::render_csv;
use nws_core::scenarios::{janet_task_with, uk_links, BACKGROUND_SEED};
use nws_core::{evaluate_accuracy, solve_placement, summarize};

fn main() {
    let t0 = banner(
        "fig2",
        "accuracy vs theta: full optimization vs UK-links-only",
    );

    let thetas = [
        5_000.0,
        10_000.0,
        20_000.0,
        50_000.0,
        100_000.0,
        200_000.0,
        500_000.0,
        1_000_000.0,
    ];
    let runs = 20;
    let cfg = paper_config();

    let mut rows = Vec::new();
    for &theta in &thetas {
        let task = janet_task_with(theta, BACKGROUND_SEED).expect("valid theta");
        let full = solve_placement(&task, &cfg).expect("full problem feasible");
        let full_acc = summarize(&evaluate_accuracy(&task, &full, runs, 42));

        let restricted = task
            .restricted_to(&uk_links(task.topology()))
            .expect("UK restriction non-empty");
        let uk = solve_placement(&restricted, &cfg).expect("UK problem feasible");
        let uk_acc = summarize(&evaluate_accuracy(&restricted, &uk, runs, 42));

        println!(
            "theta {theta:>9}: full avg {:.4} worst {:.4} | UK-only avg {:.4} worst {:+.4}",
            full_acc.mean, full_acc.worst, uk_acc.mean, uk_acc.worst
        );
        rows.push(vec![
            theta,
            full_acc.mean,
            full_acc.worst,
            full_acc.best,
            uk_acc.mean,
            uk_acc.worst,
            uk_acc.best,
        ]);
    }

    println!();
    print!(
        "{}",
        render_csv(
            &[
                "theta",
                "full_avg",
                "full_worst",
                "full_best",
                "uk_avg",
                "uk_worst",
                "uk_best",
            ],
            &rows,
        )
    );

    footer(t0);
}
