//! SLI-grade health rates: per-second ring buffers behind the `health`
//! command's 1s/10s/60s windows (sandbox-quant RFC 0019 model).
//!
//! Cumulative counters answer "how much, ever"; an operator paging on a
//! `health` probe needs "how much, *now*". Each tracked event kind
//! (requests, lock-free reads, queued mutations, sheds, degraded solves,
//! error responses) gets a ring of `SLOTS` per-second buckets stamped
//! with their absolute second, so rates over the last 1/10/60 seconds are
//! a sum over recently-stamped slots — no locks, no allocation, safe to
//! read from every connection thread concurrently with the event loop.
//!
//! Classification folds the windows into one OK/WARN/CRIT verdict
//! (thresholds below), exported as the `"sli"` field of `health` and the
//! `sli_state` gauge. Two threads racing into a *new* second may both
//! reset the slot and lose one increment; rates are diagnostics, not
//! billing, and the window sums stay within one event of exact.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring size: enough for the 60 s window plus the current partial second,
/// with slack so a slow reader never wraps into live slots.
const SLOTS: usize = 64;

/// Shed-to-request ratio over 10 s at or above this is WARN.
pub const SHED_RATIO_WARN: f64 = 0.01;
/// Shed-to-request ratio over 10 s at or above this is CRIT.
pub const SHED_RATIO_CRIT: f64 = 0.05;
/// Error-to-request ratio over 10 s at or above this is WARN.
pub const ERROR_RATIO_WARN: f64 = 0.05;
/// Error-to-request ratio over 10 s at or above this is CRIT.
pub const ERROR_RATIO_CRIT: f64 = 0.25;
/// Degraded solves per second over 60 s at or above this is WARN.
pub const DEGRADED_RATE_WARN: f64 = 0.1;
/// Degraded solves per second over 10 s at or above this is CRIT.
pub const DEGRADED_RATE_CRIT: f64 = 1.0;

/// The event kinds tracked by the rate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request that reached the daemon (served, queued, or shed).
    Request,
    /// Read-only commands answered from the published snapshot.
    Read,
    /// Requests that went through the bounded mutation queue.
    Mutate,
    /// Requests rejected by the overload shedder.
    Shed,
    /// Re-solves that exhausted their budget (served degraded).
    DegradedSolve,
    /// Error responses (malformed lines, rejected events).
    Error,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::Request,
        Kind::Read,
        Kind::Mutate,
        Kind::Shed,
        Kind::DegradedSolve,
        Kind::Error,
    ];

    fn index(self) -> usize {
        match self {
            Kind::Request => 0,
            Kind::Read => 1,
            Kind::Mutate => 2,
            Kind::Shed => 3,
            Kind::DegradedSolve => 4,
            Kind::Error => 5,
        }
    }

    /// The wire name used in the `health` payload's `rates` object.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Request => "requests",
            Kind::Read => "reads",
            Kind::Mutate => "mutates",
            Kind::Shed => "shed",
            Kind::DegradedSolve => "degraded_solves",
            Kind::Error => "errors",
        }
    }
}

/// The folded OK/WARN/CRIT verdict over the rate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SliLevel {
    /// All windows under their warning thresholds.
    Ok,
    /// At least one window crossed a warning threshold.
    Warn,
    /// At least one window crossed a critical threshold.
    Crit,
}

impl SliLevel {
    /// The wire name (`health`'s `"sli"` field).
    pub fn as_str(self) -> &'static str {
        match self {
            SliLevel::Ok => "ok",
            SliLevel::Warn => "warn",
            SliLevel::Crit => "crit",
        }
    }

    /// Gauge encoding: 0 = ok, 1 = warn, 2 = crit.
    pub fn as_gauge(self) -> f64 {
        match self {
            SliLevel::Ok => 0.0,
            SliLevel::Warn => 1.0,
            SliLevel::Crit => 2.0,
        }
    }
}

/// One per-second ring: slot `s % SLOTS` holds the count for absolute
/// second `s`, tagged with `s + 1` (0 = never written) so stale laps are
/// detected without a clear pass.
#[derive(Debug)]
struct Ring {
    stamps: [AtomicU64; SLOTS],
    counts: [AtomicU64; SLOTS],
}

impl Ring {
    fn new() -> Self {
        Ring {
            stamps: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, now_s: u64) {
        let idx = (now_s as usize) % SLOTS;
        let stamp = now_s + 1;
        if self.stamps[idx].load(Ordering::Acquire) != stamp {
            // First event of a new second in this slot: retire the lap.
            self.counts[idx].store(0, Ordering::Relaxed);
            self.stamps[idx].store(stamp, Ordering::Release);
        }
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Events in the window of `window_s` seconds ending at `now_s`
    /// inclusive (i.e. seconds `now_s - window_s + 1 ..= now_s`).
    fn sum(&self, now_s: u64, window_s: u64) -> u64 {
        debug_assert!((window_s as usize) < SLOTS);
        let mut total = 0;
        let first = now_s.saturating_sub(window_s.saturating_sub(1));
        for s in first..=now_s {
            let idx = (s as usize) % SLOTS;
            if self.stamps[idx].load(Ordering::Acquire) == s + 1 {
                total += self.counts[idx].load(Ordering::Relaxed);
            }
        }
        total
    }
}

/// The daemon's rate-window instrument set: one ring per [`Kind`], plus a
/// start instant so callers can use wall-clock seconds without threading a
/// clock around. All methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct RateWindows {
    start: Instant,
    rings: [Ring; 6],
}

impl Default for RateWindows {
    fn default() -> Self {
        Self::new()
    }
}

impl RateWindows {
    /// Fresh windows with all counts empty.
    pub fn new() -> Self {
        RateWindows {
            start: Instant::now(),
            rings: std::array::from_fn(|_| Ring::new()),
        }
    }

    /// Seconds since the daemon started, the time base for all windows.
    pub fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Counts one event of `kind` at the current second.
    pub fn record(&self, kind: Kind) {
        self.record_at(kind, self.now_s());
    }

    /// Counts one event of `kind` at an explicit second (tests).
    pub fn record_at(&self, kind: Kind, now_s: u64) {
        self.rings[kind.index()].record(now_s);
    }

    /// Events of `kind` in the trailing `window_s`-second window.
    pub fn count_at(&self, kind: Kind, now_s: u64, window_s: u64) -> u64 {
        self.rings[kind.index()].sum(now_s, window_s)
    }

    /// Mean events/second of `kind` over the trailing window.
    pub fn rate_at(&self, kind: Kind, now_s: u64, window_s: u64) -> f64 {
        self.count_at(kind, now_s, window_s) as f64 / window_s as f64
    }

    /// The `health` payload's `rates` object: events/second for every
    /// kind over the 1 s / 10 s / 60 s windows.
    pub fn rates_json_at(&self, now_s: u64) -> Json {
        let window = |w: u64| {
            Json::Obj(
                Kind::ALL
                    .iter()
                    .map(|&k| (k.name().to_string(), Json::Num(self.rate_at(k, now_s, w))))
                    .collect(),
            )
        };
        obj(vec![
            ("1s", window(1)),
            ("10s", window(10)),
            ("60s", window(60)),
        ])
    }

    /// Same, at the current second.
    pub fn rates_json(&self) -> Json {
        self.rates_json_at(self.now_s())
    }

    /// Folds the windows into OK/WARN/CRIT plus the reasons that fired.
    ///
    /// Ratios are evaluated over the 10 s window (short enough to page on,
    /// long enough to smooth bursts); the degraded-solve WARN uses the
    /// 60 s window so a single slow solve is visible, while CRIT requires
    /// a sustained 10 s rate. Empty windows classify OK: no traffic is not
    /// an incident.
    pub fn classify_at(&self, now_s: u64) -> (SliLevel, Vec<&'static str>) {
        let requests_10s = self.count_at(Kind::Request, now_s, 10);
        let shed_ratio = if requests_10s == 0 {
            0.0
        } else {
            self.count_at(Kind::Shed, now_s, 10) as f64 / requests_10s as f64
        };
        let error_ratio = if requests_10s == 0 {
            0.0
        } else {
            self.count_at(Kind::Error, now_s, 10) as f64 / requests_10s as f64
        };
        let degraded_60s = self.rate_at(Kind::DegradedSolve, now_s, 60);
        let degraded_10s = self.rate_at(Kind::DegradedSolve, now_s, 10);

        let mut level = SliLevel::Ok;
        let mut reasons = Vec::new();
        let mut fire = |l: SliLevel, reason: &'static str| {
            level = level.max(l);
            reasons.push(reason);
        };
        if shed_ratio >= SHED_RATIO_CRIT {
            fire(SliLevel::Crit, "shed_ratio_10s_crit");
        } else if shed_ratio >= SHED_RATIO_WARN {
            fire(SliLevel::Warn, "shed_ratio_10s_warn");
        }
        if error_ratio >= ERROR_RATIO_CRIT {
            fire(SliLevel::Crit, "error_ratio_10s_crit");
        } else if error_ratio >= ERROR_RATIO_WARN {
            fire(SliLevel::Warn, "error_ratio_10s_warn");
        }
        if degraded_10s >= DEGRADED_RATE_CRIT {
            fire(SliLevel::Crit, "degraded_solve_rate_10s_crit");
        } else if degraded_60s >= DEGRADED_RATE_WARN {
            fire(SliLevel::Warn, "degraded_solve_rate_60s_warn");
        }
        (level, reasons)
    }

    /// Same, at the current second.
    pub fn classify(&self) -> (SliLevel, Vec<&'static str>) {
        self.classify_at(self.now_s())
    }

    /// Pushes the window rates and verdict into `recorder` as gauges
    /// (`sli_<kind>_rate_<window>` plus `sli_state`).
    pub fn export_gauges(&self, recorder: &nws_obs::Recorder) {
        let now_s = self.now_s();
        recorder.gauge_set("sli_request_rate_1s", self.rate_at(Kind::Request, now_s, 1));
        recorder.gauge_set(
            "sli_request_rate_10s",
            self.rate_at(Kind::Request, now_s, 10),
        );
        recorder.gauge_set(
            "sli_request_rate_60s",
            self.rate_at(Kind::Request, now_s, 60),
        );
        recorder.gauge_set("sli_read_rate_10s", self.rate_at(Kind::Read, now_s, 10));
        recorder.gauge_set("sli_mutate_rate_10s", self.rate_at(Kind::Mutate, now_s, 10));
        recorder.gauge_set("sli_shed_rate_10s", self.rate_at(Kind::Shed, now_s, 10));
        recorder.gauge_set("sli_error_rate_10s", self.rate_at(Kind::Error, now_s, 10));
        recorder.gauge_set(
            "sli_degraded_solve_rate_60s",
            self.rate_at(Kind::DegradedSolve, now_s, 60),
        );
        recorder.gauge_set("sli_state", self.classify_at(now_s).0.as_gauge());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_n(w: &RateWindows, kind: Kind, now_s: u64, n: u64) {
        for _ in 0..n {
            w.record_at(kind, now_s);
        }
    }

    #[test]
    fn empty_windows_are_zero_and_ok() {
        let w = RateWindows::new();
        for k in Kind::ALL {
            assert_eq!(w.count_at(k, 100, 60), 0);
            assert_eq!(w.rate_at(k, 100, 10), 0.0);
        }
        let (level, reasons) = w.classify_at(100);
        assert_eq!(level, SliLevel::Ok);
        assert!(reasons.is_empty());
    }

    #[test]
    fn windows_sum_only_their_span() {
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 5); // current second
        record_n(&w, Kind::Request, 95, 3); // inside 10s, outside 1s
        record_n(&w, Kind::Request, 50, 7); // inside 60s, outside 10s
        assert_eq!(w.count_at(Kind::Request, 100, 1), 5);
        assert_eq!(w.count_at(Kind::Request, 100, 10), 8);
        assert_eq!(w.count_at(Kind::Request, 100, 60), 15);
        // Rates are per second over the window length.
        assert!((w.rate_at(Kind::Request, 100, 10) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rollover_retires_stale_laps() {
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 10, 9);
        assert_eq!(w.count_at(Kind::Request, 10, 1), 9);
        // SLOTS seconds later the same slot index is a different second:
        // the old count must not leak into the new lap.
        let later = 10 + SLOTS as u64;
        record_n(&w, Kind::Request, later, 2);
        assert_eq!(w.count_at(Kind::Request, later, 1), 2);
        assert_eq!(w.count_at(Kind::Request, later, 60), 2);
        // And the retired second no longer answers for its old stamp.
        assert_eq!(w.count_at(Kind::Request, 10, 1), 0);
    }

    #[test]
    fn window_at_second_zero_does_not_underflow() {
        let w = RateWindows::new();
        w.record_at(Kind::Request, 0);
        assert_eq!(w.count_at(Kind::Request, 0, 60), 1);
        assert_eq!(w.count_at(Kind::Request, 0, 1), 1);
    }

    #[test]
    fn shed_ratio_threshold_edges() {
        // Exactly 1% shed over 10s: WARN fires (thresholds are >=).
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 99);
        w.record_at(Kind::Request, 100);
        w.record_at(Kind::Shed, 100);
        let (level, reasons) = w.classify_at(100);
        assert_eq!(level, SliLevel::Warn);
        assert_eq!(reasons, vec!["shed_ratio_10s_warn"]);

        // Exactly 5%: CRIT.
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 100);
        record_n(&w, Kind::Shed, 100, 5);
        let (level, reasons) = w.classify_at(100);
        assert_eq!(level, SliLevel::Crit);
        assert_eq!(reasons, vec!["shed_ratio_10s_crit"]);

        // Just under 1%: OK.
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 201);
        record_n(&w, Kind::Shed, 100, 2);
        assert_eq!(w.classify_at(100).0, SliLevel::Ok);
    }

    #[test]
    fn degraded_solve_thresholds() {
        // 6 degraded solves over 60s = 0.1/s: WARN edge.
        let w = RateWindows::new();
        for s in 0..6 {
            w.record_at(Kind::DegradedSolve, 60 + s * 9);
        }
        let now = 60 + 5 * 9;
        assert!(w.rate_at(Kind::DegradedSolve, now, 60) >= DEGRADED_RATE_WARN);
        let (level, reasons) = w.classify_at(now);
        assert_eq!(level, SliLevel::Warn);
        assert_eq!(reasons, vec!["degraded_solve_rate_60s_warn"]);

        // 10 in the last 10 seconds = 1.0/s sustained: CRIT.
        let w = RateWindows::new();
        for s in 91..=100 {
            w.record_at(Kind::DegradedSolve, s);
        }
        let (level, reasons) = w.classify_at(100);
        assert_eq!(level, SliLevel::Crit);
        assert_eq!(reasons, vec!["degraded_solve_rate_10s_crit"]);
    }

    #[test]
    fn crit_dominates_warn_and_reasons_accumulate() {
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 100);
        record_n(&w, Kind::Shed, 100, 1); // warn
        record_n(&w, Kind::Error, 100, 30); // crit
        let (level, reasons) = w.classify_at(100);
        assert_eq!(level, SliLevel::Crit);
        assert!(reasons.contains(&"shed_ratio_10s_warn"));
        assert!(reasons.contains(&"error_ratio_10s_crit"));
    }

    #[test]
    fn no_traffic_means_no_ratio_incident() {
        // Sheds with zero requests in-window cannot divide by zero; the
        // request ring counts shed requests too in the daemon, but the
        // classifier must stay well-defined regardless.
        let w = RateWindows::new();
        record_n(&w, Kind::Shed, 100, 5);
        assert_eq!(w.classify_at(100).0, SliLevel::Ok);
    }

    #[test]
    fn rates_json_shape() {
        let w = RateWindows::new();
        record_n(&w, Kind::Request, 100, 20);
        record_n(&w, Kind::Read, 100, 15);
        let j = w.rates_json_at(100);
        for window in ["1s", "10s", "60s"] {
            let win = j.get(window).unwrap();
            for k in Kind::ALL {
                assert!(win.get(k.name()).unwrap().as_f64().is_some());
            }
        }
        assert_eq!(
            j.get("1s").unwrap().get("requests").unwrap().as_f64(),
            Some(20.0)
        );
        assert_eq!(
            j.get("10s").unwrap().get("reads").unwrap().as_f64(),
            Some(1.5)
        );
    }

    #[test]
    fn level_order_and_wire_names() {
        assert!(SliLevel::Ok < SliLevel::Warn);
        assert!(SliLevel::Warn < SliLevel::Crit);
        assert_eq!(SliLevel::Ok.as_str(), "ok");
        assert_eq!(SliLevel::Warn.as_gauge(), 1.0);
        assert_eq!(SliLevel::Crit.as_str(), "crit");
    }
}
