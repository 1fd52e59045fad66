//! Per-daemon request and re-solve counters, surfaced by the `stats`
//! command.

use crate::json::{obj, Json};
use crate::state::SolveReport;

/// Monotone counters accumulated over a daemon's lifetime.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Requests the event loop handled (well-formed or not); lock-free
    /// reads are counted by the read path.
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Event-triggered re-solves that succeeded (including the initial
    /// cold solve).
    pub resolves: u64,
    /// Of those, warm-started ones.
    pub warm_resolves: u64,
    /// Iterations spent by warm-started re-solves.
    pub warm_iterations: u64,
    /// Iterations spent by the warm halves of shadow *pairs* only (warm
    /// re-solves that also ran a shadow cold solve). Kept separately from
    /// [`Metrics::warm_iterations`] so the savings figure compares matched
    /// populations even when `--shadow-cold` covers only a subset.
    pub paired_warm_iterations: u64,
    /// Wall-milliseconds spent in warm-started re-solves.
    pub warm_ms: f64,
    /// Shadow cold solves run alongside warm ones (`--shadow-cold`).
    pub shadow_resolves: u64,
    /// Iterations the shadow cold solves needed for the same events.
    pub shadow_cold_iterations: u64,
    /// Wall-milliseconds spent in shadow cold solves.
    pub shadow_cold_ms: f64,
    /// Re-solves whose served answer was degraded: the budget ran out
    /// before KKT certification, even after escalation.
    pub degraded_solves: u64,
    /// Degraded re-solves that fell back to the previously installed
    /// (last-good) rates instead of installing an uncertified vector.
    pub last_good_fallbacks: u64,
    /// Per-command request counts, in first-seen order.
    pub per_command: Vec<(String, u64)>,
}

impl Metrics {
    /// Counts one received request under `cmd` (use `"invalid"` for lines
    /// that failed to parse).
    pub fn record_request(&mut self, cmd: &str) {
        self.requests += 1;
        match self.per_command.iter_mut().find(|(k, _)| k == cmd) {
            Some((_, n)) => *n += 1,
            None => self.per_command.push((cmd.to_string(), 1)),
        }
    }

    /// Counts one error response.
    pub fn record_error(&mut self) {
        self.errors += 1;
    }

    /// Folds one successful re-solve into the counters.
    pub fn record_resolve(&mut self, report: &SolveReport) {
        self.resolves += 1;
        if report.warm_started {
            self.warm_resolves += 1;
            self.warm_iterations += report.iterations as u64;
            self.warm_ms += report.wall_ms;
        }
        if let Some(cold) = &report.cold {
            self.shadow_resolves += 1;
            self.shadow_cold_iterations += cold.iterations as u64;
            self.shadow_cold_ms += cold.wall_ms;
            if report.warm_started {
                self.paired_warm_iterations += report.iterations as u64;
            }
        }
        if report.degraded {
            self.degraded_solves += 1;
        }
        if report.fallback == Some("last_good") {
            self.last_good_fallbacks += 1;
        }
    }

    /// Mean iterations saved per warm re-solve versus its shadow cold
    /// solve; `None` until at least one shadow pair has run.
    ///
    /// Computed over shadow *pairs* only: each pair contributes its own
    /// cold-minus-warm difference, so warm re-solves without a shadow cold
    /// counterpart never skew the figure (they used to, when the warm mean
    /// ranged over all warm re-solves but the cold mean only over pairs).
    pub fn mean_iterations_saved(&self) -> Option<f64> {
        if self.shadow_resolves == 0 {
            return None;
        }
        let saved = self.shadow_cold_iterations as f64 - self.paired_warm_iterations as f64;
        Some(saved / self.shadow_resolves as f64)
    }

    /// The `stats` response payload. Counters are emitted as exact
    /// integers ([`Json::UInt`]) — a long-lived daemon's totals must not
    /// round through f64.
    pub fn to_json(&self) -> Json {
        let per_command = Json::Obj(
            self.per_command
                .iter()
                .map(|(k, n)| (k.clone(), Json::UInt(*n)))
                .collect(),
        );
        obj(vec![
            ("requests", Json::UInt(self.requests)),
            ("errors", Json::UInt(self.errors)),
            ("resolves", Json::UInt(self.resolves)),
            ("warm_resolves", Json::UInt(self.warm_resolves)),
            ("warm_iterations", Json::UInt(self.warm_iterations)),
            (
                "paired_warm_iterations",
                Json::UInt(self.paired_warm_iterations),
            ),
            ("warm_ms", Json::Num(self.warm_ms)),
            ("shadow_resolves", Json::UInt(self.shadow_resolves)),
            (
                "shadow_cold_iterations",
                Json::UInt(self.shadow_cold_iterations),
            ),
            ("shadow_cold_ms", Json::Num(self.shadow_cold_ms)),
            (
                "mean_iterations_saved",
                self.mean_iterations_saved().map_or(Json::Null, Json::Num),
            ),
            ("degraded_solves", Json::UInt(self.degraded_solves)),
            ("last_good_fallbacks", Json::UInt(self.last_good_fallbacks)),
            ("per_command", per_command),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ColdComparison;

    fn report(warm: bool, iters: usize, cold_iters: Option<usize>) -> SolveReport {
        SolveReport {
            warm_started: warm,
            iterations: iters,
            constraint_releases: 0,
            kkt: true,
            objective: 1.0,
            objective_delta: None,
            lambda: 0.1,
            wall_ms: 2.0,
            active_monitors: 3,
            cold: cold_iters.map(|n| ColdComparison {
                iterations: n,
                wall_ms: 5.0,
                objective: 1.0,
            }),
            degraded: false,
            fallback: None,
        }
    }

    #[test]
    fn degraded_and_fallback_counters() {
        let mut m = Metrics::default();
        let mut r = report(true, 10, None);
        r.degraded = true;
        m.record_resolve(&r);
        r.fallback = Some("last_good");
        m.record_resolve(&r);
        assert_eq!(m.degraded_solves, 2);
        assert_eq!(m.last_good_fallbacks, 1);
        let encoded = m.to_json().encode();
        assert!(encoded.contains("\"degraded_solves\":2"), "{encoded}");
        assert!(encoded.contains("\"last_good_fallbacks\":1"), "{encoded}");
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_request("ping");
        m.record_request("set_theta");
        m.record_request("set_theta");
        m.record_request("invalid");
        m.record_error();
        m.record_resolve(&report(false, 50, None));
        m.record_resolve(&report(true, 10, Some(40)));
        m.record_resolve(&report(true, 20, Some(60)));
        assert_eq!(m.requests, 4);
        assert_eq!(m.errors, 1);
        assert_eq!(m.resolves, 3);
        assert_eq!(m.warm_resolves, 2);
        assert_eq!(m.warm_iterations, 30);
        assert_eq!(m.shadow_cold_iterations, 100);
        assert_eq!(
            m.per_command,
            vec![
                ("ping".to_string(), 1),
                ("set_theta".to_string(), 2),
                ("invalid".to_string(), 1)
            ]
        );
        // Savings: cold mean 50, warm mean 15 -> 35 saved per re-solve.
        let saved = m.mean_iterations_saved().unwrap();
        assert!((saved - 35.0).abs() < 1e-9, "saved {saved}");
    }

    #[test]
    fn savings_compare_paired_populations_only() {
        // Regression: warm re-solves WITHOUT a shadow pair must not skew
        // the savings. Here two cheap unpaired warm solves (5 iterations
        // each) ride alongside one shadow pair (warm 10 vs cold 40).
        let mut m = Metrics::default();
        m.record_resolve(&report(true, 5, None));
        m.record_resolve(&report(true, 5, None));
        m.record_resolve(&report(true, 10, Some(40)));
        assert_eq!(m.warm_resolves, 3);
        assert_eq!(m.warm_iterations, 20);
        assert_eq!(m.paired_warm_iterations, 10);
        // The pair saved 30; the old mismatched-population formula said
        // 40 − 20/3 ≈ 33.3.
        let saved = m.mean_iterations_saved().unwrap();
        assert!((saved - 30.0).abs() < 1e-12, "saved {saved}");
    }

    #[test]
    fn counters_encode_exactly_past_2_pow_53() {
        let big = (1u64 << 53) + 1;
        let m = Metrics {
            requests: big,
            ..Metrics::default()
        };
        let encoded = m.to_json().encode();
        assert!(
            encoded.contains(&format!("\"requests\":{big}")),
            "u64 counters must not round through f64: {encoded}"
        );
        let reparsed = crate::json::parse(&encoded).unwrap();
        assert_eq!(reparsed.get("requests").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn savings_unavailable_without_shadow() {
        let mut m = Metrics::default();
        m.record_resolve(&report(true, 10, None));
        assert!(m.mean_iterations_saved().is_none());
        assert!(m
            .to_json()
            .encode()
            .contains("\"mean_iterations_saved\":null"));
    }

    #[test]
    fn json_shape() {
        let mut m = Metrics::default();
        m.record_request("ping");
        let j = m.to_json();
        assert_eq!(j.get("requests").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            j.get("per_command").unwrap().get("ping").unwrap().as_f64(),
            Some(1.0)
        );
    }
}
