//! Measurement-interval binning of flow records.
//!
//! The paper aggregates flow records into 5-minute bins keyed by flow *start*
//! time (§V-A), deliberately tolerating flows that straddle bin edges — the
//! same convention is used here.

use crate::flows::Flow;

/// A fixed grid of measurement intervals starting at `t0`, each `width`
/// seconds long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinGrid {
    t0: f64,
    width: f64,
    num_bins: usize,
}

impl BinGrid {
    /// Creates a grid of `num_bins` intervals of `width` seconds from `t0`.
    ///
    /// # Panics
    /// Panics unless `width > 0` and `num_bins > 0`.
    pub fn new(t0: f64, width: f64, num_bins: usize) -> Self {
        assert!(width.is_finite() && width > 0.0, "width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        BinGrid {
            t0,
            width,
            num_bins,
        }
    }

    /// A standard grid of 5-minute paper intervals from time 0.
    pub fn paper_intervals(num_bins: usize) -> Self {
        Self::new(0.0, crate::MEASUREMENT_INTERVAL_SECS, num_bins)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Interval width in seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The bin index of timestamp `t`, or `None` if outside the grid.
    pub fn bin_of(&self, t: f64) -> Option<usize> {
        if t < self.t0 {
            return None;
        }
        let idx = ((t - self.t0) / self.width).floor() as usize;
        (idx < self.num_bins).then_some(idx)
    }

    /// The `[start, end)` time span of bin `b`.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn span(&self, b: usize) -> (f64, f64) {
        assert!(b < self.num_bins, "bin {b} out of range");
        let start = self.t0 + b as f64 * self.width;
        (start, start + self.width)
    }

    /// Aggregates per-OD packet totals per bin: result `[bin][od] = packets`.
    /// Flows fall in the bin of their start time; flows outside the grid
    /// are dropped (as a collector would drop records outside its
    /// collection window).
    pub fn od_sizes_per_bin(&self, flows: &[Flow], num_ods: usize) -> Vec<Vec<u64>> {
        let mut out = vec![vec![0u64; num_ods]; self.num_bins];
        for f in flows {
            if let Some(b) = self.bin_of(f.start) {
                assert!(f.od_index < num_ods, "flow od_index out of range");
                out[b][f.od_index] += f.packets;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{generate_flows, FlowMixParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bin_of_edges() {
        let g = BinGrid::new(0.0, 300.0, 3);
        assert_eq!(g.bin_of(0.0), Some(0));
        assert_eq!(g.bin_of(299.999), Some(0));
        assert_eq!(g.bin_of(300.0), Some(1));
        assert_eq!(g.bin_of(899.999), Some(2));
        assert_eq!(g.bin_of(900.0), None);
        assert_eq!(g.bin_of(-1.0), None);
    }

    #[test]
    fn spans() {
        let g = BinGrid::paper_intervals(2);
        assert_eq!(g.span(0), (0.0, 300.0));
        assert_eq!(g.span(1), (300.0, 600.0));
        assert_eq!(g.width(), 300.0);
    }

    #[test]
    #[should_panic(expected = "bin 2 out of range")]
    fn span_out_of_range_panics() {
        let _ = BinGrid::paper_intervals(2).span(2);
    }

    #[test]
    fn flows_partitioned_by_start() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut flows = generate_flows(&mut rng, 0, 10_000, 0.0, 300.0, &FlowMixParams::default());
        flows.extend(generate_flows(
            &mut rng,
            1,
            5_000,
            300.0,
            300.0,
            &FlowMixParams::default(),
        ));
        let g = BinGrid::paper_intervals(2);
        let sizes = g.od_sizes_per_bin(&flows, 2);
        assert_eq!(sizes, vec![vec![10_000, 0], vec![0, 5_000]]);
    }

    #[test]
    fn od_sizes_aggregate() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut flows = generate_flows(&mut rng, 0, 7_000, 0.0, 300.0, &FlowMixParams::default());
        flows.extend(generate_flows(
            &mut rng,
            1,
            3_000,
            0.0,
            300.0,
            &FlowMixParams::default(),
        ));
        let g = BinGrid::paper_intervals(1);
        let sizes = g.od_sizes_per_bin(&flows, 2);
        assert_eq!(sizes[0][0], 7_000);
        assert_eq!(sizes[0][1], 3_000);
    }

    #[test]
    fn out_of_grid_flows_dropped() {
        let mut rng = StdRng::seed_from_u64(43);
        let flows = generate_flows(&mut rng, 0, 1_000, 900.0, 300.0, &FlowMixParams::default());
        let g = BinGrid::paper_intervals(2); // covers [0, 600) only
        let sizes = g.od_sizes_per_bin(&flows, 1);
        assert!(sizes.iter().all(|row| row[0] == 0));
    }
}
