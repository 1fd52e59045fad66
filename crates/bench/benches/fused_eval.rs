//! Criterion: the objective's single-pass evaluation kernel in the two
//! shapes the solver calls it — value, gradient and both directional
//! derivatives at once (`fused/*`), and a line-search probe's two
//! directional derivatives alone (`fused_probe/*`).

use criterion::{criterion_group, criterion_main, Criterion};
use nws_core::scenarios::janet_task;
use nws_core::{PlacementObjective, RateModel, ReducedIndex};
use nws_linalg::Vector;
use nws_solver::Objective;
use std::hint::black_box;

fn bench_fused(c: &mut Criterion) {
    let task = janet_task();
    let index = ReducedIndex::new(&task);
    let dim = index.dim();
    let p: Vector = (0..dim).map(|v| 1e-3 * (1.0 + (v % 7) as f64)).collect();
    let s: Vector = (0..dim)
        .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    let mut group = c.benchmark_group("fused_eval");
    for (label, model) in [
        ("approx", RateModel::Approximate),
        ("exact", RateModel::Exact),
    ] {
        let obj = PlacementObjective::new(&task, &index, model);
        let mut g = Vector::zeros(dim);
        group.bench_function(format!("fused/{label}"), |b| {
            b.iter(|| {
                black_box(obj.eval_fused(black_box(&p), Some(black_box(&s)), Some(&mut g)));
                black_box(&g);
            })
        });
        // Line-search probe shape: both directional derivatives, no gradient.
        group.bench_function(format!("fused_probe/{label}"), |b| {
            b.iter(|| black_box(obj.derivatives_along(black_box(&p), black_box(&s))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_fused
}
criterion_main!(benches);
