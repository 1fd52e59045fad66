//! `nws-obs`: a lightweight observability substrate for the nws workspace.
//!
//! Three instrument kinds, all recorded through a shared [`Recorder`]:
//!
//! - **Counters** — monotone `u64` totals (`solver_iterations_total`),
//!   optionally split by one static label dimension
//!   (`daemon_requests_total{cmd="ping"}`).
//! - **Gauges** — last-written `f64` values (`daemon_queue_depth`).
//! - **Histograms** — fixed-bucket latency distributions
//!   ([`LATENCY_BUCKETS_MS`]), optionally split by one static label
//!   dimension (`daemon_command_latency_ms{cmd="ping"}`).
//!
//! Plus **trace spans**: scoped RAII phase timers ([`Recorder::span`])
//! that nest by lexical scope and aggregate into a parent/child tree keyed
//! by `(parent, name)` — a 2000-iteration solve collapses into one
//! `solve → direction` node with `count = 2000`, so span memory is bounded
//! by the number of *distinct* phases, not the number of timings.
//!
//! The recorder has a hard performance contract: a *disabled* recorder
//! ([`Recorder::disabled`]) is a no-op sink that never allocates, never
//! takes a lock, and never reads the clock, so instrumented hot paths cost
//! one branch when observability is off. An *enabled* recorder keeps all
//! metric names and label values as `&'static str`, so steady-state
//! recording allocates nothing either (only first-time registration grows
//! the registry's vectors).
//!
//! Snapshots ([`Recorder::snapshot`]) serve two sinks: the daemon's
//! `metrics` command (structured JSON, assembled by `nws-service`) and a
//! deterministic Prometheus-style text exposition
//! ([`Snapshot::exposition`]) with an optional span-tree dump rendered as
//! `# span` comment lines. "Deterministic" means the *format* — metric
//! families follow first-registration order, numbers print exactly — so
//! two runs differ only where the measured values differ.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Histogram bucket upper bounds in milliseconds, shared by every latency
/// histogram (fixed buckets keep merging and exposition trivial). The last
/// implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_MS: [f64; 13] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
];

/// A metric key: a static name plus at most one static label pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    name: &'static str,
    label: Option<(&'static str, &'static str)>,
}

/// One aggregated span-tree node: all timings of `name` under the same
/// parent chain fold into one node.
#[derive(Debug, Clone)]
struct SpanNode {
    name: &'static str,
    parent: Option<usize>,
    total_ns: u64,
    count: u64,
}

#[derive(Debug, Default)]
struct RegistryState {
    counters: Vec<(Key, u64)>,
    gauges: Vec<(Key, f64)>,
    histograms: Vec<(Key, Histogram)>,
    spans: Vec<SpanNode>,
    /// Per-thread stacks of open span node indices (spans on different
    /// threads nest independently).
    stacks: Vec<(ThreadId, Vec<usize>)>,
}

#[derive(Debug)]
struct Histogram {
    /// One count per [`LATENCY_BUCKETS_MS`] bound, plus a final `+Inf` slot.
    counts: [u64; LATENCY_BUCKETS_MS.len() + 1],
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: [0; LATENCY_BUCKETS_MS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = LATENCY_BUCKETS_MS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Default)]
struct Registry {
    state: Mutex<RegistryState>,
}

impl Registry {
    /// Locks the state, recovering from poisoning — a panicking thread must
    /// not take observability down with it.
    fn lock(&self) -> MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The recording handle threaded through instrumented layers. Cloning is
/// cheap and clones share the same registry, so a transaction running on a
/// cloned state still records into the live sink.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A no-op sink: every recording call is a single branch — no
    /// allocation, no lock, no clock read. This is the [`Default`].
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with an empty registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// Whether recording is live. Instrumentation sites use this to skip
    /// work (clock reads, value computation) that only feeds the recorder.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the monotone counter `name`.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.counter_add_key(Key { name, label: None }, delta);
    }

    /// Adds `delta` to the `name{label_key="label_value"}` member of a
    /// labelled counter family. Members register on first use, so a
    /// family's members keep their first-seen order; label values must be
    /// static, as for [`Recorder::observe_labeled`].
    pub fn counter_add_labeled(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &'static str,
        delta: u64,
    ) {
        self.counter_add_key(
            Key {
                name,
                label: Some((label_key, label_value)),
            },
            delta,
        );
    }

    fn counter_add_key(&self, key: Key, delta: u64) {
        let Some(reg) = &self.inner else { return };
        let mut st = reg.lock();
        match st.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += delta,
            None => st.counters.push((key, delta)),
        }
    }

    /// The value of the unlabelled counter `name`, if registered (`None`
    /// on a disabled recorder): one value under one lock, without copying
    /// the registry as [`Recorder::snapshot`] does.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let reg = self.inner.as_ref()?;
        let st = reg.lock();
        st.counters
            .iter()
            .find(|(k, _)| k.name == name && k.label.is_none())
            .map(|(_, v)| *v)
    }

    /// Calls `f` with the name, label and value of every counter, in
    /// registration order, under one lock and without copying the
    /// registry as [`Recorder::snapshot`] does. `f` runs under the
    /// registry's lock, so it must not record. Calls nothing on a disabled
    /// recorder.
    pub fn for_each_counter(
        &self,
        mut f: impl FnMut(&'static str, Option<(&'static str, &'static str)>, u64),
    ) {
        let Some(reg) = &self.inner else { return };
        for (k, v) in &reg.lock().counters {
            f(k.name, k.label, *v);
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let Some(reg) = &self.inner else { return };
        let key = Key { name, label: None };
        let mut st = reg.lock();
        match st.gauges.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => st.gauges.push((key, value)),
        }
    }

    /// Records `value` into the unlabeled histogram `name`.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.observe_key(Key { name, label: None }, value);
    }

    /// Records `value` into the `name{label_key="label_value"}` histogram.
    /// Label values must be static (command names, mode tags) — the
    /// one-label design is deliberate, keeping recording allocation-free.
    pub fn observe_labeled(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &'static str,
        value: f64,
    ) {
        self.observe_key(
            Key {
                name,
                label: Some((label_key, label_value)),
            },
            value,
        );
    }

    /// Registers the unlabelled histogram `name` with no observations, so
    /// the exposition carries its buckets, `_sum 0` and `_count 0` before
    /// the first [`Recorder::observe`]. Registering an existing histogram
    /// leaves it as it is.
    pub fn register_histogram(&self, name: &'static str) {
        self.histogram_key(Key { name, label: None }, |_| {});
    }

    /// [`Recorder::register_histogram`] for the
    /// `name{label_key="label_value"}` member of a labelled family.
    pub fn register_histogram_labeled(
        &self,
        name: &'static str,
        label_key: &'static str,
        label_value: &'static str,
    ) {
        self.histogram_key(
            Key {
                name,
                label: Some((label_key, label_value)),
            },
            |_| {},
        );
    }

    fn observe_key(&self, key: Key, value: f64) {
        self.histogram_key(key, |h| h.observe(value));
    }

    /// Applies `f` to the histogram of `key`, registering it empty first
    /// if needed.
    fn histogram_key(&self, key: Key, f: impl FnOnce(&mut Histogram)) {
        let Some(reg) = &self.inner else { return };
        let mut st = reg.lock();
        match st.histograms.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => f(h),
            None => {
                let mut h = Histogram::new();
                f(&mut h);
                st.histograms.push((key, h));
            }
        }
    }

    /// Opens a trace span; the span closes (and records its elapsed time)
    /// when the returned guard drops. Spans opened while another span on
    /// the same thread is still open become its children.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let Some(reg) = &self.inner else {
            return Span {
                recorder: self,
                started: None,
                node: 0,
            };
        };
        let tid = std::thread::current().id();
        let mut st = reg.lock();
        let parent = st
            .stacks
            .iter()
            .find(|(t, _)| *t == tid)
            .and_then(|(_, stack)| stack.last().copied());
        let node = match st
            .spans
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            Some(i) => i,
            None => {
                st.spans.push(SpanNode {
                    name,
                    parent,
                    total_ns: 0,
                    count: 0,
                });
                st.spans.len() - 1
            }
        };
        match st.stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, stack)) => stack.push(node),
            None => st.stacks.push((tid, vec![node])),
        }
        Span {
            recorder: self,
            started: Some(Instant::now()),
            node,
        }
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let Some(reg) = &self.inner else {
            return Snapshot::default();
        };
        let st = reg.lock();
        let metric = |key: &Key| (key.name, key.label);
        let counters = st
            .counters
            .iter()
            .map(|(k, v)| {
                let (name, label) = metric(k);
                CounterSnapshot {
                    name,
                    label,
                    value: *v,
                }
            })
            .collect();
        let gauges = st
            .gauges
            .iter()
            .map(|(k, v)| {
                let (name, label) = metric(k);
                GaugeSnapshot {
                    name,
                    label,
                    value: *v,
                }
            })
            .collect();
        let histograms = st
            .histograms
            .iter()
            .map(|(k, h)| {
                let (name, label) = metric(k);
                HistogramSnapshot {
                    name,
                    label,
                    bucket_counts: h.counts.to_vec(),
                    sum: h.sum,
                    count: h.count,
                }
            })
            .collect();

        // Flatten the span forest in preorder, children in insertion order.
        let mut spans = Vec::with_capacity(st.spans.len());
        fn descend(
            nodes: &[SpanNode],
            parent: Option<usize>,
            depth: usize,
            out: &mut Vec<SpanSnapshot>,
        ) {
            for (i, n) in nodes.iter().enumerate() {
                if n.parent == parent {
                    out.push(SpanSnapshot {
                        name: n.name,
                        depth,
                        total_ms: n.total_ns as f64 / 1e6,
                        count: n.count,
                    });
                    descend(nodes, Some(i), depth + 1, out);
                }
            }
        }
        descend(&st.spans, None, 0, &mut spans);
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Shorthand for `self.snapshot().exposition(include_spans)`.
    pub fn exposition(&self, include_spans: bool) -> String {
        self.snapshot().exposition(include_spans)
    }
}

/// RAII guard of one open trace span; records on drop.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a Recorder,
    /// `None` on a disabled recorder — drop then does nothing (and the
    /// clock was never read).
    started: Option<Instant>,
    node: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(started) = self.started else { return };
        let elapsed_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let Some(reg) = &self.recorder.inner else {
            return;
        };
        let tid = std::thread::current().id();
        let mut st = reg.lock();
        let node = &mut st.spans[self.node];
        node.total_ns += elapsed_ns;
        node.count += 1;
        if let Some((_, stack)) = st.stacks.iter_mut().find(|(t, _)| *t == tid) {
            let popped = stack.pop();
            debug_assert_eq!(popped, Some(self.node), "span guards drop LIFO");
        }
    }
}

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Optional `(key, value)` label pair.
    pub label: Option<(&'static str, &'static str)>,
    /// Monotone total.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Optional `(key, value)` label pair.
    pub label: Option<(&'static str, &'static str)>,
    /// Last written value.
    pub value: f64,
}

/// One histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Optional `(key, value)` label pair.
    pub label: Option<(&'static str, &'static str)>,
    /// Per-bucket (non-cumulative) counts: one per [`LATENCY_BUCKETS_MS`]
    /// bound plus a final `+Inf` slot.
    pub bucket_counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// One aggregated span at snapshot time, in preorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Phase name.
    pub name: &'static str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Total time spent in this phase, milliseconds.
    pub total_ms: f64,
    /// Number of times the phase ran.
    pub count: u64,
}

/// A point-in-time copy of a recorder's instruments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Aggregated spans, preorder over the phase tree.
    pub spans: Vec<SpanSnapshot>,
}

fn write_label(out: &mut String, label: Option<(&str, &str)>) {
    if let Some((k, v)) = label {
        let _ = write!(out, "{{{k}=\"{v}\"}}");
    }
}

impl Snapshot {
    /// The value of the unlabeled counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label.is_none())
            .map(|c| c.value)
    }

    /// The value of the unlabeled gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.label.is_none())
            .map(|g| g.value)
    }

    /// Renders the Prometheus text exposition: one `# TYPE` comment per
    /// metric name in first-registration order, with every labelled member
    /// of that name beneath it, one sample per line, counters emitted as
    /// exact integers. With `include_spans`, the span
    /// tree is appended as `# span` comment lines (comments keep the file
    /// valid for any Prometheus text parser).
    pub fn exposition(&self, include_spans: bool) -> String {
        let mut out = String::new();
        // Members of one family (same name, different labels) must sit
        // under one TYPE header, wherever they were registered: every kind
        // is grouped by first-seen name.
        for name in first_seen(self.counters.iter().map(|c| c.name)) {
            let _ = writeln!(out, "# TYPE {name} counter");
            for c in self.counters.iter().filter(|c| c.name == name) {
                out.push_str(name);
                write_label(&mut out, c.label);
                let _ = writeln!(out, " {}", c.value);
            }
        }
        for name in first_seen(self.gauges.iter().map(|g| g.name)) {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for g in self.gauges.iter().filter(|g| g.name == name) {
                out.push_str(name);
                write_label(&mut out, g.label);
                let _ = writeln!(out, " {}", g.value);
            }
        }
        for name in first_seen(self.histograms.iter().map(|h| h.name)) {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for h in self.histograms.iter().filter(|h| h.name == name) {
                let mut cumulative = 0u64;
                for (i, &c) in h.bucket_counts.iter().enumerate() {
                    cumulative += c;
                    out.push_str(name);
                    out.push_str("_bucket{");
                    if let Some((k, v)) = h.label {
                        let _ = write!(out, "{k}=\"{v}\",");
                    }
                    match LATENCY_BUCKETS_MS.get(i) {
                        Some(b) => {
                            let _ = writeln!(out, "le=\"{b}\"}} {cumulative}");
                        }
                        None => {
                            let _ = writeln!(out, "le=\"+Inf\"}} {cumulative}");
                        }
                    }
                }
                out.push_str(name);
                out.push_str("_sum");
                write_label(&mut out, h.label);
                let _ = writeln!(out, " {}", h.sum);
                out.push_str(name);
                out.push_str("_count");
                write_label(&mut out, h.label);
                let _ = writeln!(out, " {}", h.count);
            }
        }
        if include_spans {
            out.push_str(&self.span_tree());
        }
        out
    }

    /// The span tree as `# span` comment lines, two spaces of indentation
    /// per nesting level.
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mean = if s.count > 0 {
                s.total_ms / s.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "# span {:indent$}{} count={} total_ms={:.3} mean_ms={:.3}",
                "",
                s.name,
                s.count,
                s.total_ms,
                mean,
                indent = 2 * s.depth,
            );
        }
        out
    }
}

/// The distinct `names`, in first-seen order.
fn first_seen(names: impl Iterator<Item = &'static str>) -> Vec<&'static str> {
    let mut seen: Vec<&'static str> = Vec::new();
    for name in names {
        if !seen.contains(&name) {
            seen.push(name);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter_add("c", 5);
        rec.gauge_set("g", 1.0);
        rec.observe("h", 0.2);
        {
            let _s = rec.span("solve");
        }
        let snap = rec.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert_eq!(snap.exposition(true), "");
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let rec = Recorder::enabled();
        rec.counter_add("iters_total", 3);
        rec.counter_add("iters_total", 4);
        rec.gauge_set("depth", 2.0);
        rec.gauge_set("depth", 5.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 7);
        assert_eq!(snap.gauges[0].value, 5.0);
    }

    #[test]
    fn snapshot_lookup_helpers_find_unlabeled_instruments() {
        let rec = Recorder::enabled();
        rec.counter_add("degraded_solves", 0); // registration at zero
        rec.counter_add("degraded_solves", 2);
        rec.gauge_set("persistence_degraded", 1.0);
        rec.observe_labeled("lat_ms", "cmd", "ping", 0.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("degraded_solves"), Some(2));
        assert_eq!(snap.gauge("persistence_degraded"), Some(1.0));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("nope"), None);
    }

    #[test]
    fn labelled_counters_accumulate_per_label() {
        let rec = Recorder::enabled();
        rec.counter_add_labeled("requests_total", "cmd", "ping", 1);
        rec.counter_add_labeled("requests_total", "cmd", "stats", 2);
        rec.counter_add_labeled("requests_total", "cmd", "ping", 3);
        let snap = rec.snapshot();
        let members: Vec<(Option<(&str, &str)>, u64)> =
            snap.counters.iter().map(|c| (c.label, c.value)).collect();
        assert_eq!(
            members,
            vec![(Some(("cmd", "ping")), 4), (Some(("cmd", "stats")), 2)],
            "one member per label, in first-seen order"
        );
    }

    #[test]
    fn unlabelled_lookups_skip_family_members() {
        let rec = Recorder::enabled();
        rec.counter_add_labeled("requests_total", "cmd", "ping", 5);
        assert_eq!(rec.snapshot().counter("requests_total"), None);
        assert_eq!(rec.counter("requests_total"), None);
        rec.counter_add("requests_total", 2);
        assert_eq!(rec.snapshot().counter("requests_total"), Some(2));
        assert_eq!(rec.counter("requests_total"), Some(2));
        assert_eq!(Recorder::disabled().counter("requests_total"), None);
    }

    #[test]
    fn for_each_counter_visits_every_member_in_order() {
        let rec = Recorder::enabled();
        rec.counter_add_labeled("requests_total", "cmd", "ping", 2);
        rec.counter_add("shed_total", 1);
        rec.counter_add_labeled("requests_total", "cmd", "ping", 3);
        rec.gauge_set("depth", 4.0);
        let mut seen = Vec::new();
        rec.for_each_counter(|name, label, value| seen.push((name, label, value)));
        assert_eq!(
            seen,
            vec![
                ("requests_total", Some(("cmd", "ping")), 5),
                ("shed_total", None, 1),
            ]
        );
        Recorder::disabled().for_each_counter(|_, _, _| panic!("disabled has no counters"));
    }

    #[test]
    fn family_registered_between_other_counters_has_one_type_header() {
        let rec = Recorder::enabled();
        rec.counter_add_labeled("requests_total", "cmd", "ping", 1);
        rec.counter_add("errors_total", 0);
        rec.counter_add_labeled("requests_total", "cmd", "stats", 2);
        rec.gauge_set("depth", 1.0);
        rec.counter_add("shed_total", 3);
        rec.gauge_set("depth_max", 2.0);
        let text = rec.exposition(false);
        let expected = "\
# TYPE requests_total counter
requests_total{cmd=\"ping\"} 1
requests_total{cmd=\"stats\"} 2
# TYPE errors_total counter
errors_total 0
# TYPE shed_total counter
shed_total 3
# TYPE depth gauge
depth 1
# TYPE depth_max gauge
depth_max 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labelled_counters_exact_past_2_pow_53() {
        let rec = Recorder::enabled();
        let big = (1u64 << 53) + 1;
        rec.counter_add_labeled("requests_total", "cmd", "ping", big);
        rec.counter_add_labeled("requests_total", "cmd", "ping", 1);
        assert_eq!(rec.snapshot().counters[0].value, big + 1);
        let text = rec.exposition(false);
        assert!(
            text.contains(&format!("requests_total{{cmd=\"ping\"}} {}", big + 1)),
            "u64 counters must print exactly: {text}"
        );
    }

    #[test]
    fn clones_share_the_registry() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.counter_add("c", 1);
        rec.counter_add("c", 1);
        assert_eq!(rec.snapshot().counters[0].value, 2);
    }

    #[test]
    fn histogram_buckets_and_labels() {
        let rec = Recorder::enabled();
        rec.observe_labeled("lat_ms", "cmd", "ping", 0.07);
        rec.observe_labeled("lat_ms", "cmd", "ping", 3.0);
        rec.observe_labeled("lat_ms", "cmd", "stats", 2000.0);
        let snap = rec.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        let ping = &snap.histograms[0];
        assert_eq!(ping.label, Some(("cmd", "ping")));
        assert_eq!(ping.count, 2);
        assert!((ping.sum - 3.07).abs() < 1e-12);
        // 0.07 lands in the le=0.1 bucket, 3.0 in le=5.
        assert_eq!(ping.bucket_counts[1], 1);
        assert_eq!(ping.bucket_counts[6], 1);
        // 2000 overflows every bound into +Inf.
        let stats = &snap.histograms[1];
        assert_eq!(stats.bucket_counts[LATENCY_BUCKETS_MS.len()], 1);
    }

    #[test]
    fn registered_histograms_render_at_zero() {
        let rec = Recorder::enabled();
        rec.register_histogram("shadow_ms");
        rec.register_histogram_labeled("resolve_ms", "mode", "cold");
        rec.register_histogram_labeled("resolve_ms", "mode", "warm");
        rec.observe_labeled("resolve_ms", "mode", "cold", 3.0);
        // Registering again keeps the observation.
        rec.register_histogram_labeled("resolve_ms", "mode", "cold");
        let text = rec.exposition(false);
        for line in [
            "# TYPE shadow_ms histogram",
            "shadow_ms_bucket{le=\"0.05\"} 0",
            "shadow_ms_bucket{le=\"+Inf\"} 0",
            "shadow_ms_sum 0",
            "shadow_ms_count 0",
            "resolve_ms_bucket{mode=\"warm\",le=\"1000\"} 0",
            "resolve_ms_sum{mode=\"warm\"} 0",
            "resolve_ms_count{mode=\"warm\"} 0",
            "resolve_ms_count{mode=\"cold\"} 1",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in:\n{text}"
            );
        }
        assert_eq!(text.matches("# TYPE resolve_ms histogram").count(), 1);
        // A disabled recorder registers nothing.
        let off = Recorder::disabled();
        off.register_histogram("shadow_ms");
        assert!(off.snapshot().histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let rec = Recorder::enabled();
        for _ in 0..3 {
            let _solve = rec.span("solve");
            {
                let _d = rec.span("direction");
            }
            {
                let _l = rec.span("line_search");
            }
        }
        // A root span with the same name as a child stays separate.
        {
            let _d = rec.span("direction");
        }
        let spans = rec.snapshot().spans;
        let shape: Vec<(&str, usize, u64)> =
            spans.iter().map(|s| (s.name, s.depth, s.count)).collect();
        assert_eq!(
            shape,
            vec![
                ("solve", 0, 3),
                ("direction", 1, 3),
                ("line_search", 1, 3),
                ("direction", 0, 1),
            ]
        );
        // Parents cover their children.
        assert!(spans[0].total_ms >= spans[1].total_ms + spans[2].total_ms);
    }

    #[test]
    fn exposition_is_deterministic_text() {
        let rec = Recorder::enabled();
        rec.counter_add("solver_iterations_total", 12);
        rec.counter_add("solver_releases_total", 2);
        rec.gauge_set("daemon_queue_depth", 3.0);
        rec.observe_labeled("daemon_command_latency_ms", "cmd", "ping", 0.2);
        let text = rec.exposition(false);
        let expected = "\
# TYPE solver_iterations_total counter
solver_iterations_total 12
# TYPE solver_releases_total counter
solver_releases_total 2
# TYPE daemon_queue_depth gauge
daemon_queue_depth 3
# TYPE daemon_command_latency_ms histogram
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"0.05\"} 0
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"0.1\"} 0
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"0.25\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"0.5\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"1\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"2.5\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"5\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"10\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"25\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"50\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"100\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"250\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"1000\"} 1
daemon_command_latency_ms_bucket{cmd=\"ping\",le=\"+Inf\"} 1
daemon_command_latency_ms_sum{cmd=\"ping\"} 0.2
daemon_command_latency_ms_count{cmd=\"ping\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_counters_exact_past_2_pow_53() {
        let rec = Recorder::enabled();
        let big = (1u64 << 53) + 1;
        rec.counter_add("big_total", big);
        let text = rec.exposition(false);
        assert!(
            text.contains(&format!("big_total {big}")),
            "u64 counters must print exactly: {text}"
        );
    }

    #[test]
    fn span_dump_renders_as_comments() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("solve");
            let _d = rec.span("kkt_check");
        }
        let text = rec.exposition(true);
        assert!(text.contains("# span solve count=1"));
        assert!(text.contains("# span   kkt_check count=1"));
        // Every span line is a comment, so the file parses as exposition.
        for line in text.lines().filter(|l| l.contains("span")) {
            assert!(line.starts_with('#'), "span lines are comments: {line}");
        }
    }

    #[test]
    fn spans_on_different_threads_do_not_nest() {
        let rec = Recorder::enabled();
        let _outer = rec.span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _inner = rec.span("worker");
            });
        });
        drop(_outer);
        let spans = rec.snapshot().spans;
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.depth, 0, "cross-thread spans are roots");
    }
}
