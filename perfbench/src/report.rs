//! The result of one benchmark invocation and its printed form.
//!
//! Human-readable lines come first (the machine context, every output
//! check, each metric with its unit and sample count, and in the traced
//! run the span table); the last line of standard output is one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`.

use crate::stats::{self, Timings};
use nws_service::json::{obj, Json};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MiB`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic over samples.
    pub samples: Option<u64>,
}

/// One end-of-run output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values, for the log.
    pub detail: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (error acks, sheds, client retries or
    /// reconnects, uncertified or degraded solves).
    pub failed: u64,
    /// Context lines (machine, instance sizes, seed, sample counts).
    pub context: Vec<(String, String)>,
    /// Free-form lines printed after the metrics (the span table).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<u64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a context line.
    pub fn context(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. `setups` are the
    /// set-up times (as measured, as reported); `ops` the timings of the
    /// workload's closed-loop operation (`op`: a `write` ack, a `read`, a
    /// `tick`); `writes` those of a mutation stream beside it (the
    /// fixed-rate writer of backbone_mixed), whose latency is printed but
    /// not part of the result. Latencies and rates are at reference speed
    /// (see [`Timings`]); the rate of a windowed stream is the
    /// [`stats::RATE_QUANTILE`] quantile of its window rates, that of
    /// any other the whole phase's.
    ///
    /// The notes repeat the figures under per-operation names
    /// (`tick_p50_ms`, `reads_per_s`, ...), each with the value as
    /// measured beside it, and add the operation's p99 and a windowed
    /// stream's whole-phase rate, which are printed but not part of the
    /// result: on a shared 2-vCPU host their run-to-run spread is wider
    /// than any bound a regression gate can use. A p99 is left out when
    /// fewer than ten samples lie beyond it.
    pub fn end_to_end(
        &mut self,
        setups: &[(f64, f64)],
        op: &str,
        ops: &Timings,
        writes: Option<&Timings>,
    ) {
        let n = ops.raw.len() as u64;
        let (measured, setups): (Vec<f64>, Vec<f64>) = setups.iter().copied().unzip();
        let setup = stats::median(&setups);
        self.metric("setup_s", setup, "s", Some(setups.len() as u64));
        let mut view = vec![(
            "setup_s".to_string(),
            setup,
            stats::median(&measured),
            "s",
            setups.len() as u64,
        )];
        let p = |t: &Timings, q: f64| {
            let scaled = t.scaled.percentile_ms(q);
            let raw = t.raw.percentile_ms(q);
            scaled.zip(raw).map(|((v, beyond), (r, _))| (v, r, beyond))
        };
        if let Some((p50, raw, _)) = p(ops, 0.50) {
            self.metric("op_p50_ms", p50, "ms", Some(n));
            view.push((format!("{op}_p50_ms"), p50, raw, "ms", n));
        }
        match p(ops, 0.99) {
            Some((p99, raw, beyond)) if beyond >= 10 => {
                view.push((format!("{op}_p99_ms"), p99, raw, "ms", n));
            }
            _ => self.notes.push(format!(
                "{op}_p99_ms left out: {n} samples leave fewer than ten beyond the p99"
            )),
        }
        let (wall_s, scaled_wall_s) = ops.wall_s();
        let whole = (n as f64 / scaled_wall_s, n as f64 / wall_s);
        match ops.window_rates() {
            Some((rates, raw_rates)) => {
                let windows = rates.len() as u64;
                let q = |v: &[f64]| {
                    stats::percentile_sorted(v, stats::RATE_QUANTILE).map_or(f64::NAN, |r| r.0)
                };
                self.metric("ops_per_s", q(&rates), "1/s", Some(windows));
                view.push((
                    format!("{op}s_per_s"),
                    q(&rates),
                    q(&raw_rates),
                    "1/s",
                    windows,
                ));
                view.push((
                    format!("{op}s_per_s_whole_phase"),
                    whole.0,
                    whole.1,
                    "1/s",
                    n,
                ));
            }
            None => {
                self.metric("ops_per_s", whole.0, "1/s", Some(n));
                view.push((format!("{op}s_per_s"), whole.0, whole.1, "1/s", n));
            }
        }
        if let Some(w) = writes {
            let wn = w.raw.len() as u64;
            if let Some((p50, raw, _)) = p(w, 0.50) {
                view.push(("write_p50_ms".into(), p50, raw, "ms", wn));
            }
        }
        self.metric(
            "peak_rss_mb",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
            None,
        );
        for (name, value, raw, unit, n) in view {
            self.notes.push(format!(
                "as {name:<25} {value:>16.6} {unit}  measured {raw:.6}  (n={n})"
            ));
        }
    }

    /// Whether every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable lines, then the JSON result line.
    pub fn print(&self, workload: &str) {
        println!("workload {workload}");
        for (k, v) in &self.context {
            println!("  context {k:<26} {v}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("  check {verdict} {:<44} {}", c.name, c.detail);
        }
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  metric {:<30} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
        for line in &self.notes {
            println!("  {line}");
        }
        println!(
            "  operations attempted {} failed {}",
            self.attempted, self.failed
        );
        println!("{}", self.result_json().encode());
    }

    /// The final result object.
    pub fn result_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", metrics),
        ])
    }
}
