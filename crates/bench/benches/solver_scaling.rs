//! Criterion: solver wall time vs problem size.
//!
//! The paper reports "execution time of the algorithm in the order of a few
//! seconds" for GEANT-scale instances (2000-iteration cap). These benches
//! measure the reproduction's solve time on the reference task and how it
//! scales with topology size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nws_core::scenarios::janet_task;
use nws_core::{solve_placement, MeasurementTask, PlacementConfig};
use nws_routing::{OdPair, Spf};
use nws_topo::random::ring_with_chords;
use nws_traffic::demand::DemandMatrix;
use std::hint::black_box;

/// A synthetic task on an `n`-PoP ring-with-chords backbone.
fn synthetic_task(n: usize) -> MeasurementTask {
    let topo = ring_with_chords(n, n / 2, 99);
    let ingress = topo
        .node_ids()
        .max_by_key(|&v| topo.out_links(v).count())
        .expect("nodes exist");
    let spf = Spf::compute(&topo, ingress);
    let mut tracked = Vec::new();
    for dst in topo.node_ids() {
        if dst != ingress && spf.distance(dst).is_some() {
            // Deterministic spread of sizes over two orders of magnitude.
            let size = 3_000.0 * (1.0 + dst.index() as f64 * 7.0 % 97.0) * 300.0 / 97.0;
            tracked.push((dst, size));
        }
    }
    let bg = DemandMatrix::gravity_capacity_weighted(&topo, 3e8, 0.5, 5).link_loads(&topo);
    let total: f64 = tracked.iter().map(|&(_, s)| s).sum();
    let mut b = MeasurementTask::builder(topo);
    for (dst, size) in tracked {
        let od = OdPair::new(ingress, dst);
        b = b.track(format!("F{}", dst.index()), od, size);
    }
    b.background_loads(&bg)
        .theta(total * 0.05)
        .build()
        .expect("valid")
}

fn bench_janet(c: &mut Criterion) {
    let task = janet_task();
    let cfg = PlacementConfig::default();
    c.bench_function("solve_placement/geant_janet", |b| {
        b.iter(|| solve_placement(black_box(&task), &cfg).expect("feasible"))
    });
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_placement/scaling");
    for &n in &[10usize, 20, 40, 80] {
        let task = synthetic_task(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &task, |b, task| {
            b.iter(|| {
                solve_placement(black_box(task), &PlacementConfig::default()).expect("feasible")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_janet, bench_scaling
}
criterion_main!(benches);
