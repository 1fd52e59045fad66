//! SLI-grade health rates: the 1s/10s/60s windows behind the `health`
//! command (sandbox-quant RFC 0019 model).
//!
//! Cumulative counters answer "how much, ever"; an operator paging on a
//! `health` probe needs "how much, *now*". The windows count nothing
//! themselves: each kind is a sum of registry counters ([`Counts`]), and
//! a w-second window ending at second `now` is the live sums minus the
//! oldest per-second sample stamped at or after `now − w + 1`. So each
//! event counts in exactly one second, that of the newest sample taken
//! before it was counted, and none is lost or counted twice (DESIGN.md
//! §14). Classification folds the windows into one OK/WARN/CRIT verdict
//! (thresholds below): `health`'s `"sli"` field and the `sli_state` gauge.

use crate::json::{obj, Json};
use crate::protocol::{access, Access};
use crate::read_path::{DEGRADED_SOLVES, ERRORS, REQUESTS, SHED};
use nws_obs::Recorder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Samples kept: at most one per second, so 61 cover any 60 s window even
/// when another thread sampled the second after an answer's clock read.
const SAMPLES: usize = 64;

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

/// The six event kinds the windows count: the registry's sums at one
/// instant, or a window's share of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Σ `daemon_requests_total{cmd}` + `daemon_overload_shed_total`.
    pub requests: u64,
    /// Σ `daemon_requests_total{cmd}` over the read-only commands.
    pub reads: u64,
    /// Σ `daemon_requests_total{cmd}` over the mutating commands.
    pub mutates: u64,
    /// `daemon_overload_shed_total`.
    pub shed: u64,
    /// `degraded_solves`.
    pub degraded_solves: u64,
    /// `daemon_errors_total`.
    pub errors: u64,
}

impl Counts {
    /// The six sums, read from the registry under its one lock.
    fn read(recorder: &Recorder) -> Counts {
        let mut c = Counts::default();
        recorder.for_each_counter(|name, label, value| match (name, label) {
            (REQUESTS, Some((_, cmd))) => {
                c.requests += value;
                match access(cmd) {
                    Access::Read => c.reads += value,
                    Access::Mutate => c.mutates += value,
                    Access::Other => {}
                }
            }
            (SHED, None) => {
                c.requests += value;
                c.shed += value;
            }
            (DEGRADED_SOLVES, None) => c.degraded_solves += value,
            (ERRORS, None) => c.errors += value,
            _ => {}
        });
        c
    }

    /// The events counted since `base`, an earlier read of the registry.
    fn since(self, base: Counts) -> Counts {
        Counts {
            requests: self.requests - base.requests,
            reads: self.reads - base.reads,
            mutates: self.mutates - base.mutates,
            shed: self.shed - base.shed,
            degraded_solves: self.degraded_solves - base.degraded_solves,
            errors: self.errors - base.errors,
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

/// The trailing 1 s, 10 s and 60 s windows at one second, all taken
/// against the same live sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// The registry's sums when the windows were taken.
    pub live: Counts,
    /// Events in the last second.
    pub one: Counts,
    /// Events in the last 10 seconds.
    pub ten: Counts,
    /// Events in the last 60 seconds.
    pub sixty: Counts,
}

impl Windows {
    /// The `health` payload's `rates` object: events/second for every
    /// kind over the 1 s / 10 s / 60 s windows.
    pub fn rates_json(&self) -> Json {
        let window = |c: Counts, secs: f64| {
            let rate = |n: u64| Json::Num(n as f64 / secs);
            obj(vec![
                ("requests", rate(c.requests)),
                ("reads", rate(c.reads)),
                ("mutates", rate(c.mutates)),
                ("shed", rate(c.shed)),
                ("degraded_solves", rate(c.degraded_solves)),
                ("errors", rate(c.errors)),
            ])
        };
        obj(vec![
            ("1s", window(self.one, 1.0)),
            ("10s", window(self.ten, 10.0)),
            ("60s", window(self.sixty, 60.0)),
        ])
    }

    /// Folds the windows into OK/WARN/CRIT plus the reasons that fired.
    ///
    /// Ratios are evaluated over the 10 s window (short enough to page on,
    /// long enough to smooth bursts); the degraded-solve WARN uses the
    /// 60 s window so a single slow solve is visible, while CRIT requires
    /// a sustained 10 s rate. Empty windows classify OK: no traffic is not
    /// an incident.
    pub fn classify(&self) -> (SliLevel, Vec<&'static str>) {
        let ratio = |n: u64| match self.ten.requests {
            0 => 0.0,
            requests => n as f64 / requests as f64,
        };
        let shed_ratio = ratio(self.ten.shed);
        let error_ratio = ratio(self.ten.errors);
        let degraded_60s = self.sixty.degraded_solves as f64 / 60.0;
        let degraded_10s = self.ten.degraded_solves as f64 / 10.0;
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

    /// Pushes the window rates and verdict into `recorder` as gauges
    /// (`sli_<kind>_rate_<window>` plus `sli_state`).
    pub fn export_gauges(&self, recorder: &Recorder) {
        let Windows {
            one, ten, sixty, ..
        } = *self;
        for (name, n, secs) in [
            ("sli_request_rate_1s", one.requests, 1.0),
            ("sli_request_rate_10s", ten.requests, 10.0),
            ("sli_request_rate_60s", sixty.requests, 60.0),
            ("sli_read_rate_10s", ten.reads, 10.0),
            ("sli_mutate_rate_10s", ten.mutates, 10.0),
            ("sli_shed_rate_10s", ten.shed, 10.0),
            ("sli_error_rate_10s", ten.errors, 10.0),
            ("sli_degraded_solve_rate_60s", sixty.degraded_solves, 60.0),
        ] {
            recorder.gauge_set(name, n as f64 / secs);
        }
        recorder.gauge_set("sli_state", self.classify().0.as_gauge());
    }
}

/// The daemon's rate windows over one registry: the recorder whose
/// counters they sum and a ring of per-second samples of it. All methods
/// take `&self` and are thread-safe.
#[derive(Debug)]
pub struct RateWindows {
    /// Second 0 of every window.
    start: Instant,
    recorder: Recorder,
    /// The newest sample's second, stored with `Release` after its push:
    /// a thread that loads it with `Acquire` and skips the lock counts its
    /// event after that sample's registry read.
    newest: AtomicU64,
    /// `(second, sums)`, oldest first, seconds strictly increasing.
    samples: Mutex<VecDeque<(u64, Counts)>>,
}

impl RateWindows {
    /// Windows over `recorder`'s counters, sampled at second 0: events
    /// counted before the first request (the startup solve's) fall in it.
    pub fn new(recorder: Recorder) -> Self {
        let mut samples = VecDeque::with_capacity(SAMPLES);
        samples.push_back((0, Counts::read(&recorder)));
        RateWindows {
            start: Instant::now(),
            recorder,
            newest: AtomicU64::new(0),
            samples: Mutex::new(samples),
        }
    }

    /// Samples the registry unless this second already has a sample. Call
    /// it before counting a request: one clock read and one atomic load,
    /// plus the sample in a second's first call.
    pub fn sample(&self) {
        self.sample_at(self.start.elapsed().as_secs());
    }

    /// Same, at an explicit second (tests).
    pub fn sample_at(&self, now_s: u64) {
        if self.newest.load(Ordering::Acquire) >= now_s {
            return;
        }
        let mut samples = self.lock();
        if samples.back().is_some_and(|&(s, _)| s >= now_s) {
            return;
        }
        if samples.len() == SAMPLES {
            samples.pop_front();
        }
        samples.push_back((now_s, Counts::read(&self.recorder)));
        self.newest.store(now_s, Ordering::Release);
    }

    /// The windows ending at the current second.
    pub fn windows(&self) -> Windows {
        self.windows_at(self.start.elapsed().as_secs())
    }

    /// The windows ending at second `now_s` (tests).
    pub fn windows_at(&self, now_s: u64) -> Windows {
        // `live` is read under the ring's lock, the sampler's lock order:
        // every sample was read before it, so no window is negative.
        let samples = self.lock();
        let live = Counts::read(&self.recorder);
        let window = |secs: u64| {
            let first = (now_s + 1).saturating_sub(secs);
            let base = samples
                .iter()
                .find(|&&(s, _)| s >= first)
                .map_or(live, |&(_, sums)| sums);
            live.since(base)
        };
        Windows {
            live,
            one: window(1),
            ten: window(10),
            sixty: window(60),
        }
    }

    /// Locks the ring, recovering from poisoning: each push and pop leaves
    /// it valid, so a panic elsewhere cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, VecDeque<(u64, Counts)>> {
        self.samples.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn ping(r: &Recorder) {
        r.counter_add_labeled(REQUESTS, "cmd", "ping", 1);
    }
    fn set_theta(r: &Recorder) {
        r.counter_add_labeled(REQUESTS, "cmd", "set_theta", 1);
    }
    fn shed(r: &Recorder) {
        r.counter_add(SHED, 1);
    }
    fn error(r: &Recorder) {
        r.counter_add(ERRORS, 1);
    }
    fn degraded(r: &Recorder) {
        r.counter_add(DEGRADED_SOLVES, 1);
    }

    /// `n` events at second `s`, in the daemon's order: sample, then count.
    fn events(w: &RateWindows, s: u64, n: u64, count: fn(&Recorder)) {
        for _ in 0..n {
            w.sample_at(s);
            count(&w.recorder);
        }
    }

    /// The windows at `now_s`, checked against the registry: `live` is
    /// its sums exactly.
    fn windows_at(w: &RateWindows, now_s: u64) -> Windows {
        let windows = w.windows_at(now_s);
        assert_eq!(windows.live, Counts::read(&w.recorder));
        windows
    }

    fn fresh() -> RateWindows {
        RateWindows::new(Recorder::enabled())
    }

    #[test]
    fn empty_windows_are_zero_and_ok() {
        let w = fresh();
        let windows = windows_at(&w, 100);
        for c in [windows.live, windows.one, windows.ten, windows.sixty] {
            assert_eq!(c, Counts::default());
        }
        let (level, reasons) = windows.classify();
        assert_eq!(level, SliLevel::Ok);
        assert!(reasons.is_empty());
    }

    #[test]
    fn windows_sum_only_their_span() {
        let w = fresh();
        events(&w, 50, 7, ping); // inside 60s, outside 10s
        events(&w, 95, 3, ping); // inside 10s, outside 1s
        events(&w, 100, 5, ping); // current second
        let windows = windows_at(&w, 100);
        assert_eq!(windows.one.requests, 5);
        assert_eq!(windows.ten.requests, 8);
        assert_eq!(windows.sixty.requests, 15);
        assert_eq!(windows.sixty.reads, 15);
        // Rates are per second over the window length.
        let rates = windows.rates_json();
        assert_eq!(
            rates.get("10s").unwrap().get("requests").unwrap().as_f64(),
            Some(0.8)
        );
    }

    #[test]
    fn rollover_retires_stale_laps() {
        let w = fresh();
        events(&w, 10, 9, ping);
        // An idle gap longer than 60 s: the old second leaves every window.
        let later = 10 + 100;
        events(&w, later, 2, ping);
        let windows = windows_at(&w, later);
        assert_eq!(windows.one.requests, 2);
        assert_eq!(windows.sixty.requests, 2);
        assert_eq!(windows.live.requests, 11);
        // One event a second for more seconds than the ring holds: the
        // oldest samples retire and every window stays exact.
        let last = later + SAMPLES as u64 + 6;
        for s in later + 1..=last {
            events(&w, s, 1, set_theta);
        }
        assert_eq!(w.lock().len(), SAMPLES);
        let windows = windows_at(&w, last);
        assert_eq!(windows.one.mutates, 1);
        assert_eq!(windows.ten.mutates, 10);
        assert_eq!(windows.sixty.mutates, 60);
        assert_eq!(windows.sixty.requests, 60);
        // An idle gap longer than the ring after that: nothing is in any
        // window, and nothing is negative.
        let idle = windows_at(&w, last + 2 * SAMPLES as u64);
        assert_eq!(idle.sixty, Counts::default());
    }

    #[test]
    fn window_at_second_zero_does_not_underflow() {
        let w = fresh();
        events(&w, 0, 1, ping);
        let windows = windows_at(&w, 0);
        assert_eq!(windows.one.requests, 1);
        assert_eq!(windows.sixty.requests, 1);
        // The first seconds after start: windows reaching back before
        // second 0 count from the first sample.
        events(&w, 3, 2, ping);
        let windows = windows_at(&w, 3);
        assert_eq!(windows.one.requests, 2);
        assert_eq!(windows.ten.requests, 3);
        assert_eq!(windows.sixty.requests, 3);
    }

    #[test]
    fn event_counted_between_samples_lands_in_the_newest_sampled_second() {
        let w = fresh();
        events(&w, 10, 1, set_theta);
        // Counted later in the job dequeued at second 10, with no sample
        // since: it belongs to second 10.
        degraded(&w.recorder);
        error(&w.recorder);
        let at_10 = windows_at(&w, 10);
        assert_eq!(at_10.one.degraded_solves, 1);
        assert_eq!(at_10.one.errors, 1);
        let at_12 = windows_at(&w, 12);
        assert_eq!(at_12.one, Counts::default());
        assert_eq!(at_12.ten.errors, 1);
        assert_eq!(at_12.ten.degraded_solves, 1);
        assert_eq!(at_12.ten.mutates, 1);
    }

    #[test]
    fn events_before_the_first_request_fall_in_second_zero() {
        // The startup solve may be degraded before any request arrives.
        let w = fresh();
        degraded(&w.recorder);
        events(&w, 5, 1, ping);
        let windows = windows_at(&w, 5);
        assert_eq!(windows.one.degraded_solves, 0);
        assert_eq!(windows.ten.degraded_solves, 1);
    }

    #[test]
    fn concurrent_sampling_loses_no_event() {
        const THREADS: usize = 4;
        const SECONDS: u64 = 50;
        const PER_SECOND: usize = 200;
        let kinds: [fn(&Recorder); 5] = [ping, set_theta, shed, error, degraded];
        let w = fresh();
        let clock = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (w, clock, barrier) = (&w, &clock, &barrier);
                scope.spawn(move || {
                    for _ in 0..SECONDS {
                        // Every thread enters the next second together,
                        // racing for its first sample; one steps the
                        // clock while the others already count.
                        if barrier.wait().is_leader() {
                            clock.fetch_add(1, Ordering::SeqCst);
                        }
                        for i in 0..PER_SECOND {
                            w.sample_at(clock.load(Ordering::SeqCst));
                            kinds[(t + i) % kinds.len()](&w.recorder);
                        }
                    }
                });
            }
        });
        let windows = windows_at(&w, SECONDS);
        assert_eq!(windows.sixty, windows.live);
        let each = (THREADS * PER_SECOND) as u64 * SECONDS / kinds.len() as u64;
        assert_eq!(
            windows.sixty,
            Counts {
                requests: 3 * each,
                reads: each,
                mutates: each,
                shed: each,
                degraded_solves: each,
                errors: each,
            }
        );
        // The 1 s window holds at most the last second's events.
        assert!(windows.one.requests <= (THREADS * PER_SECOND) as u64);
    }

    #[test]
    fn shed_ratio_threshold_edges() {
        // Exactly 1% shed over 10s: WARN fires (thresholds are >=). A shed
        // request is a request too.
        let w = fresh();
        events(&w, 100, 99, ping);
        events(&w, 100, 1, shed);
        let (level, reasons) = windows_at(&w, 100).classify();
        assert_eq!(level, SliLevel::Warn);
        assert_eq!(reasons, vec!["shed_ratio_10s_warn"]);

        // Exactly 5%: CRIT.
        let w = fresh();
        events(&w, 100, 95, ping);
        events(&w, 100, 5, shed);
        let (level, reasons) = windows_at(&w, 100).classify();
        assert_eq!(level, SliLevel::Crit);
        assert_eq!(reasons, vec!["shed_ratio_10s_crit"]);

        // Just under 1%: OK.
        let w = fresh();
        events(&w, 100, 199, ping);
        events(&w, 100, 2, shed);
        assert_eq!(windows_at(&w, 100).classify().0, SliLevel::Ok);
    }

    #[test]
    fn degraded_solve_thresholds() {
        // 6 degraded solves over 60s = 0.1/s: WARN edge.
        let w = fresh();
        for s in 0..6 {
            events(&w, 60 + s * 9, 1, degraded);
        }
        let now = 60 + 5 * 9;
        let windows = windows_at(&w, now);
        assert!(windows.sixty.degraded_solves as f64 / 60.0 >= DEGRADED_RATE_WARN);
        let (level, reasons) = windows.classify();
        assert_eq!(level, SliLevel::Warn);
        assert_eq!(reasons, vec!["degraded_solve_rate_60s_warn"]);

        // 10 in the last 10 seconds = 1.0/s sustained: CRIT.
        let w = fresh();
        for s in 91..=100 {
            events(&w, s, 1, degraded);
        }
        let (level, reasons) = windows_at(&w, 100).classify();
        assert_eq!(level, SliLevel::Crit);
        assert_eq!(reasons, vec!["degraded_solve_rate_10s_crit"]);
    }

    #[test]
    fn crit_dominates_warn_and_reasons_accumulate() {
        let w = fresh();
        events(&w, 100, 99, ping);
        events(&w, 100, 1, shed); // warn
        events(&w, 100, 30, error); // crit
        let (level, reasons) = windows_at(&w, 100).classify();
        assert_eq!(level, SliLevel::Crit);
        assert!(reasons.contains(&"shed_ratio_10s_warn"));
        assert!(reasons.contains(&"error_ratio_10s_crit"));
    }

    #[test]
    fn no_traffic_means_no_ratio_incident() {
        // Errors with zero requests in the window (as in second 0, before
        // the first request) cannot divide by zero.
        let w = fresh();
        events(&w, 100, 5, error);
        let windows = windows_at(&w, 100);
        assert_eq!(windows.ten.requests, 0);
        assert_eq!(windows.classify().0, SliLevel::Ok);
    }

    #[test]
    fn rates_json_shape() {
        let w = fresh();
        events(&w, 100, 15, ping);
        events(&w, 100, 5, set_theta);
        let j = windows_at(&w, 100).rates_json();
        for window in ["1s", "10s", "60s"] {
            let win = j.get(window).unwrap();
            for kind in [
                "requests",
                "reads",
                "mutates",
                "shed",
                "degraded_solves",
                "errors",
            ] {
                assert!(win.get(kind).unwrap().as_f64().is_some());
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
