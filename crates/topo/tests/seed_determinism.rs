//! Seed determinism of the random topology generators: the same seed must
//! produce a byte-identical graph on every run — generation draws from one
//! seeded `StdRng`.

use nws_topo::random::{gabriel_like, ring_with_chords};
use nws_topo::{format, Topology};

/// Canonical byte form of a topology (the plain-text file format).
fn bytes(t: &Topology) -> String {
    format::to_text(t)
}

#[test]
fn same_seed_same_graph_across_runs() {
    for seed in [0u64, 1, 42, u64::MAX] {
        let a = ring_with_chords(12, 6, seed);
        let b = ring_with_chords(12, 6, seed);
        assert_eq!(bytes(&a), bytes(&b), "ring seed {seed}");

        let a = gabriel_like(16, 0.35, seed);
        let b = gabriel_like(16, 0.35, seed);
        assert_eq!(bytes(&a), bytes(&b), "gabriel seed {seed}");
    }
    // And different seeds really do differ (the RNG is wired through).
    assert_ne!(
        bytes(&ring_with_chords(12, 6, 1)),
        bytes(&ring_with_chords(12, 6, 2))
    );
    assert_ne!(
        bytes(&gabriel_like(16, 0.35, 1)),
        bytes(&gabriel_like(16, 0.35, 2))
    );
}
