//! Criterion: SPF, routing-matrix and background link-load construction
//! throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nws_routing::{OdPair, RoutingMatrix, Spf};
use nws_topo::geant;
use nws_topo::random::ring_with_chords;
use nws_traffic::demand::DemandMatrix;
use std::hint::black_box;

fn bench_spf_geant(c: &mut Criterion) {
    let topo = geant();
    let uk = topo.require_node("UK").expect("UK");
    c.bench_function("spf/geant_from_uk", |b| {
        b.iter(|| Spf::compute(black_box(&topo), uk))
    });
}

fn bench_spf_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("spf/scaling");
    for &n in &[50usize, 100, 200, 400] {
        let topo = ring_with_chords(n, n, 3);
        let src = topo.node_ids().next().expect("nodes");
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| Spf::compute(black_box(topo), src))
        });
    }
    group.finish();
}

fn bench_routing_matrix(c: &mut Criterion) {
    let topo = geant();
    let janet = topo.require_node("JANET").expect("JANET");
    let ods: Vec<OdPair> = topo
        .node_ids()
        .filter(|&d| d != janet)
        .map(|d| OdPair::new(janet, d))
        .collect();
    c.bench_function("routing_matrix/geant_all_dsts", |b| {
        b.iter(|| RoutingMatrix::build(black_box(&topo), black_box(&ods)))
    });
}

/// Routing a gravity background over every PoP pair: one SPF per source
/// and an ECMP walk per destination.
fn bench_link_loads(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_loads");
    for &n in &[96usize, 200] {
        let topo = ring_with_chords(n, n / 2, 1);
        let demand = DemandMatrix::gravity_capacity_weighted(&topo, 5e7, 0.5, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| demand.link_loads(black_box(topo)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_spf_geant, bench_spf_scaling, bench_routing_matrix, bench_link_loads
}
criterion_main!(benches);
