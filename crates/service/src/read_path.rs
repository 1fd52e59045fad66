//! The read path: an immutable [`ReadSnapshot`] swapped atomically by the
//! event loop after every handled request, from which `query_rates` /
//! `stats` / `health` / `metrics` / `ping` are answered. A connection
//! thread answers them lock-free, without touching the bounded solve
//! queue; a read pipelined behind its own connection's queued request is
//! answered by the event loop instead, with the same code, once that
//! request is published — so the bytes never depend on the path.
//!
//! The swap cell is an `arc-swap`-style [`SnapshotCell`]: readers clone an
//! `Arc` under a momentary `RwLock` read guard (no vendored `arc-swap`
//! crate, and this crate forbids `unsafe`), the single publisher swaps the
//! pointer under the write guard. Lock-free reads are wait-free with
//! respect to the event loop and every solve: they never enqueue, never
//! block on a mutation, and two readers never contend beyond the pointer
//! clone. The `daemon_reads_served_lockfree_total` counter certifies
//! exactly this — under a read-heavy load it tracks the read count while
//! the queue-depth gauge stays driven by mutations alone.
//!
//! Epochs are commit epochs: the event loop bumps the epoch when (and only
//! when) a state mutation commits, so every rates vector a reader observes
//! belongs to one committed solve — never a torn mix. [`SnapshotCell::
//! publish`] refuses epoch regressions outright; republishing the same
//! epoch (fresher counters, same state) is allowed.

use crate::daemon::{metrics_json, retry_after_ms};
use crate::json::{obj, Json};
use crate::protocol::Request;
use crate::sli::RateWindows;
use nws_obs::{Recorder, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// The instruments `stats`, `health` and the run summary read, one per
// field (DESIGN.md §9 maps them). `daemon_requests_total{cmd}` counts
// every answered request once, lock-free reads included, under
// `cmd="invalid"` for an unparseable line.
pub(crate) const REQUESTS: &str = "daemon_requests_total";
pub(crate) const ERRORS: &str = "daemon_errors_total";
pub(crate) const RESOLVE_LATENCY: &str = "daemon_resolve_latency_ms";
pub(crate) const WARM_ITERATIONS: &str = "daemon_warm_iterations_total";
pub(crate) const PAIRED_WARM_ITERATIONS: &str = "daemon_paired_warm_iterations_total";
pub(crate) const SHADOW_COLD_ITERATIONS: &str = "daemon_shadow_cold_iterations_total";
pub(crate) const SHADOW_COLD_LATENCY: &str = "daemon_shadow_cold_latency_ms";
pub(crate) const DEGRADED_SOLVES: &str = "degraded_solves";
pub(crate) const LAST_GOOD_FALLBACKS: &str = "daemon_last_good_fallbacks";
pub(crate) const SHED: &str = "daemon_overload_shed_total";
pub(crate) const READS_LOCKFREE: &str = "daemon_reads_served_lockfree_total";

/// Point-in-time, immutable serving state published by the event loop.
/// Everything needed to answer the read-only commands is precomputed here;
/// the live overlays are the queue-depth atomic and the registry's
/// counters, which give `stats` its request counts and `health` its SLI
/// windows.
#[derive(Debug, Clone)]
pub struct ReadSnapshot {
    /// Commit epoch: bumped on every committed state mutation (startup
    /// solve = 1). Monotone for the life of the daemon.
    pub epoch: u64,
    /// Current sampling budget θ.
    pub theta: f64,
    /// Objective of the installed configuration, if any.
    pub objective: Option<f64>,
    /// Prebuilt `monitors` array (active links with their sampling rates).
    pub monitors: Json,
    /// Tracked OD count (for per-connection `hello` lines).
    pub ods: usize,
    /// Persistence mode string: `durable` / `degraded` / `none`.
    pub persistence: &'static str,
    /// True when persistence dropped to non-durable serving.
    pub persistence_degraded: bool,
    /// The error that degraded persistence, if any.
    pub persistence_error: Option<String>,
    /// True when the installed rates are uncertified (degraded solve).
    pub serving_uncertified: bool,
    /// Cumulative degraded re-solves.
    pub degraded_solves: u64,
    /// Cumulative last-good fallbacks.
    pub last_good_fallbacks: u64,
    /// The `stats` payload at publish time, rendered from the registry;
    /// answering `stats` refreshes its request counts.
    pub stats: Json,
    /// The WAL stats object at publish time (`null` without a store).
    pub wal_stats: Json,
    /// Resolved bounded-queue capacity.
    pub queue_capacity: u64,
}

/// The atomically-swapped snapshot cell: single publisher (the event
/// loop), any number of readers (connection threads).
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<ReadSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding `initial`.
    pub fn new(initial: ReadSnapshot) -> Self {
        SnapshotCell {
            inner: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot (an `Arc` clone; the guard is held only for
    /// the pointer copy).
    pub fn load(&self) -> Arc<ReadSnapshot> {
        match self.inner.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Swaps in `next` unless it would regress the epoch order. Equal
    /// epochs are republications (same committed state, fresher counters)
    /// and are accepted. Returns whether the swap happened.
    pub fn publish(&self, next: ReadSnapshot) -> bool {
        let mut guard = match self.inner.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if next.epoch < guard.epoch {
            return false;
        }
        *guard = Arc::new(next);
        true
    }
}

/// Counts one answered request under `cmd` in [`REQUESTS`].
pub(crate) fn count_request(recorder: &Recorder, cmd: &'static str) {
    recorder.counter_add_labeled(REQUESTS, "cmd", cmd, 1);
}

/// Renders the `stats` payload from one registry snapshot; every field
/// reads one instrument. Counts are exact integers ([`Json::UInt`]), so a
/// long-lived daemon's totals never round through f64.
pub(crate) fn stats_json(reg: &Snapshot) -> Json {
    let n = |name| reg.counter(name).unwrap_or(0);
    let (resolves, _) = histogram_totals(reg, RESOLVE_LATENCY, None);
    let (warm_resolves, warm_ms) = histogram_totals(reg, RESOLVE_LATENCY, Some("warm"));
    let (shadow_resolves, shadow_cold_ms) = histogram_totals(reg, SHADOW_COLD_LATENCY, None);
    let (paired, shadow_cold) = (n(PAIRED_WARM_ITERATIONS), n(SHADOW_COLD_ITERATIONS));
    // Mean iterations saved per shadow pair: each pair contributes its
    // own cold-minus-warm difference, so warm re-solves without a shadow
    // counterpart never skew the figure; null until a pair has run.
    let saved = (shadow_resolves > 0)
        .then(|| (shadow_cold as f64 - paired as f64) / shadow_resolves as f64);
    let [requests, errors, per_command, shed, reads_lockfree] = request_counts(reg);
    obj(vec![
        requests,
        errors,
        ("resolves", Json::UInt(resolves)),
        ("warm_resolves", Json::UInt(warm_resolves)),
        ("warm_iterations", Json::UInt(n(WARM_ITERATIONS))),
        ("paired_warm_iterations", Json::UInt(paired)),
        ("warm_ms", Json::Num(warm_ms)),
        ("shadow_resolves", Json::UInt(shadow_resolves)),
        ("shadow_cold_iterations", Json::UInt(shadow_cold)),
        ("shadow_cold_ms", Json::Num(shadow_cold_ms)),
        ("mean_iterations_saved", saved.map_or(Json::Null, Json::Num)),
        ("degraded_solves", Json::UInt(n(DEGRADED_SOLVES))),
        ("last_good_fallbacks", Json::UInt(n(LAST_GOOD_FALLBACKS))),
        per_command,
        shed,
        reads_lockfree,
    ])
}

/// The `stats` fields that reader threads and the coalesce buffer move
/// without a publish, so `stats` reads them live: `requests` is the sum
/// of `per_command`, whose members keep their first-seen order.
fn request_counts(reg: &Snapshot) -> [(&'static str, Json); 5] {
    let mut requests = 0;
    let mut per_command = Vec::new();
    for c in reg.counters.iter().filter(|c| c.name == REQUESTS) {
        if let Some((_, cmd)) = c.label {
            requests += c.value;
            per_command.push((cmd.to_string(), Json::UInt(c.value)));
        }
    }
    let count = |name| Json::UInt(reg.counter(name).unwrap_or(0));
    [
        ("requests", Json::UInt(requests)),
        ("errors", count(ERRORS)),
        ("per_command", Json::Obj(per_command)),
        ("shed", count(SHED)),
        ("reads_lockfree", count(READS_LOCKFREE)),
    ]
}

/// `(count, sum)` over the members of histogram `name` whose label value
/// is `value` (over every member for `None`).
fn histogram_totals(reg: &Snapshot, name: &str, value: Option<&str>) -> (u64, f64) {
    reg.histograms
        .iter()
        .filter(|h| h.name == name && value.is_none_or(|v| h.label.is_some_and(|(_, l)| l == v)))
        .fold((0, 0.0), |(n, sum), h| (n + h.count, sum + h.sum))
}

/// Everything a connection thread needs to answer read-only commands:
/// the snapshot cell plus the live atomics and instruments shared with
/// the event loop and the overload shedder.
#[derive(Debug, Clone)]
pub(crate) struct ReadHandle {
    pub cell: Arc<SnapshotCell>,
    pub queue_depth: Arc<AtomicU64>,
    pub ewma_ms_bits: Arc<AtomicU64>,
    pub capacity: usize,
    pub recorder: Recorder,
    pub sli: Arc<RateWindows>,
}

impl ReadHandle {
    /// Answers a read-only `req` on a connection thread, counting it as a
    /// request and as a lock-free read after the SLI windows' sample.
    pub fn answer_lockfree(&self, req: &Request) -> Json {
        self.sli.sample();
        count_request(&self.recorder, req.name());
        self.recorder.counter_add(READS_LOCKFREE, 1);
        self.answer(req)
    }

    /// Answers a read-only `req` from the current snapshot plus the live
    /// overlays. Counting is the caller's: [`ReadHandle::answer_lockfree`]
    /// on connection threads, the event loop for queued reads.
    pub fn answer(&self, req: &Request) -> Json {
        let snap = self.cell.load();
        match req {
            Request::Ping => self.ok(req, &snap, vec![("pong", Json::Bool(true))]),
            Request::QueryRates => self.ok(
                req,
                &snap,
                vec![
                    ("theta", Json::Num(snap.theta)),
                    ("objective", snap.objective.map_or(Json::Null, Json::Num)),
                    ("monitors", snap.monitors.clone()),
                ],
            ),
            Request::Stats => {
                let mut stats = snap.stats.clone();
                if let Json::Obj(pairs) = &mut stats {
                    // Live overlay: reads, sheds and coalesce-buffer errors
                    // are counted without a publish.
                    for (key, value) in request_counts(&self.recorder.snapshot()) {
                        set_field(pairs, key, value);
                    }
                }
                self.ok(req, &snap, vec![("stats", stats)])
            }
            Request::Health => {
                let status = if snap.persistence_degraded || snap.serving_uncertified {
                    "degraded"
                } else {
                    "ok"
                };
                let windows = self.sli.windows();
                let (level, reasons) = windows.classify();
                let mut payload = vec![
                    ("status", Json::Str(status.into())),
                    ("sli", Json::Str(level.as_str().into())),
                    (
                        "sli_reasons",
                        Json::Arr(reasons.iter().map(|r| Json::Str((*r).into())).collect()),
                    ),
                    ("persistence", Json::Str(snap.persistence.into())),
                    ("serving_uncertified", Json::Bool(snap.serving_uncertified)),
                    ("degraded_solves", Json::UInt(snap.degraded_solves)),
                    ("last_good_fallbacks", Json::UInt(snap.last_good_fallbacks)),
                    ("shed", Json::UInt(windows.live.shed)),
                    (
                        "queue_depth",
                        Json::UInt(self.queue_depth.load(Ordering::Relaxed)),
                    ),
                    ("queue_capacity", Json::UInt(snap.queue_capacity)),
                    ("rates", windows.rates_json()),
                ];
                if let Some(why) = &snap.persistence_error {
                    payload.push(("persistence_error", Json::Str(why.clone())));
                }
                windows.export_gauges(&self.recorder);
                self.ok(req, &snap, payload)
            }
            Request::Metrics => {
                // The recorder is its own thread-safe instrument store; a
                // snapshot here never touches the event loop. WAL stats
                // are owned by the loop, so they come from the published
                // snapshot instead.
                self.sli.windows().export_gauges(&self.recorder);
                let mut metrics = metrics_json(&self.recorder.snapshot());
                if let Json::Obj(pairs) = &mut metrics {
                    pairs.push(("wal_stats".to_string(), snap.wal_stats.clone()));
                }
                self.ok(req, &snap, vec![("metrics", metrics)])
            }
            _ => unreachable!("is_read_only covers exactly the arms above"),
        }
    }

    /// The per-connection `hello` line (multi-client transports greet
    /// every connection; the epoch lets clients pin a consistent view).
    pub fn hello(&self) -> Json {
        let snap = self.cell.load();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::Str("hello".into())),
            ("ods", Json::Num(snap.ods as f64)),
            ("theta", Json::Num(snap.theta)),
            ("persistence", Json::Str(snap.persistence.into())),
            ("epoch", Json::UInt(snap.epoch)),
        ])
    }

    /// The shed response for a full queue, with an EWMA-derived
    /// `retry_after_ms` hint.
    pub fn overloaded(&self) -> Json {
        self.sli.sample();
        self.recorder.counter_add(SHED, 1);
        let hint = retry_after_ms(
            f64::from_bits(self.ewma_ms_bits.load(Ordering::Relaxed)),
            self.capacity,
        );
        obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("overloaded".into())),
            ("retry_after_ms", Json::UInt(hint)),
        ])
    }

    fn ok(&self, req: &Request, snap: &ReadSnapshot, payload: Vec<(&str, Json)>) -> Json {
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("cmd", Json::Str(req.name().into())),
            ("epoch", Json::UInt(snap.epoch)),
        ];
        pairs.extend(payload);
        obj(pairs)
    }
}

/// Replaces `key` in an object's pairs, or appends it.
fn set_field(pairs: &mut Vec<(String, Json)>, key: &str, value: Json) {
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key.to_string(), value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn snap(epoch: u64) -> ReadSnapshot {
        ReadSnapshot {
            epoch,
            theta: 80_000.0,
            objective: Some(1.0),
            monitors: Json::Arr(vec![]),
            ods: 3,
            persistence: "none",
            persistence_degraded: false,
            persistence_error: None,
            serving_uncertified: false,
            degraded_solves: 0,
            last_good_fallbacks: 0,
            stats: obj(vec![]),
            wal_stats: Json::Null,
            queue_capacity: 64,
        }
    }

    #[test]
    fn publish_rejects_epoch_regression() {
        let cell = SnapshotCell::new(snap(5));
        assert!(!cell.publish(snap(4)));
        assert_eq!(cell.load().epoch, 5);
        assert!(cell.publish(snap(5)), "republication of same epoch is ok");
        assert!(cell.publish(snap(6)));
        assert_eq!(cell.load().epoch, 6);
    }

    #[test]
    fn set_field_replaces_or_appends() {
        let mut pairs = vec![("shed".to_string(), Json::UInt(0))];
        set_field(&mut pairs, "shed", Json::UInt(7));
        set_field(&mut pairs, "new", Json::UInt(1));
        assert_eq!(pairs[0].1.as_u64(), Some(7));
        assert_eq!(pairs[1].0, "new");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Snapshot publication never regresses epoch order: a publisher
        /// pushing an arbitrary (possibly decreasing) epoch sequence
        /// through the cell leaves every concurrent reader observing a
        /// monotone non-decreasing epoch series, and the cell itself never
        /// accepts a regression.
        #[test]
        fn epoch_order_never_regresses(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cell = std::sync::Arc::new(SnapshotCell::new(snap(0)));
            let publishes: Vec<u64> =
                (0..50).map(|_| rng.random_range(0u64..20)).collect();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let cell = std::sync::Arc::clone(&cell);
                    let stop = std::sync::Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut last = 0u64;
                        let mut seen = 0u64;
                        while !stop.load(Ordering::Relaxed) || seen == 0 {
                            let e = cell.load().epoch;
                            assert!(e >= last, "epoch regressed: {last} -> {e}");
                            last = e;
                            seen += 1;
                        }
                        last
                    })
                })
                .collect();
            let mut accepted_max = 0u64;
            for e in &publishes {
                let accepted = cell.publish(snap(*e));
                prop_assert_eq!(accepted, *e >= accepted_max);
                accepted_max = accepted_max.max(*e);
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                let last = r.join().expect("reader panicked");
                prop_assert!(last <= accepted_max);
            }
            prop_assert_eq!(cell.load().epoch, accepted_max);
        }
    }
}
