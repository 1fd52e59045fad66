//! The traced run's span recorder: fixed-capacity, in memory, written out
//! once at exit.
//!
//! A span has a name, a start, an end, a parent, and the id of the
//! operation (request or tick) it belongs to. Spans are opened and closed
//! by the benchmark around calls into the program's public functions;
//! the program itself is not instrumented further.

use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed self time (duration minus the time its children cover),
    /// milliseconds.
    pub self_ms: f64,
}

/// The span buffer of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    dropped: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer with room for `cap` spans, allocated up front.
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op`, child of `parent` (if any).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            op,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Closes `span` now.
    pub fn close(&mut self, span: SpanId) {
        let end = self.now_ns();
        if let Some(rec) = self.spans.get_mut(span.0 as usize) {
            rec.end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Totals and self times per span name, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for rec in &self.spans {
            if rec.parent != NO_PARENT {
                child_ns[rec.parent as usize] += rec.end_ns - rec.start_ns;
            }
        }
        let mut out: Vec<SpanTotals> = Vec::new();
        for (rec, children) in self.spans.iter().zip(&child_ns) {
            let dur = rec.end_ns - rec.start_ns;
            let self_ns = dur.saturating_sub(*children);
            let entry = match out.iter_mut().position(|t| t.name == rec.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SpanTotals {
                        name: rec.name,
                        count: 0,
                        total_ms: 0.0,
                        self_ms: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ms += dur as f64 / 1e6;
            entry.self_ms += self_ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one tab-separated line
    /// (`op  name  parent  start_ns  end_ns`, parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for rec in &self.spans {
            let parent = if rec.parent == NO_PARENT {
                "-".to_string()
            } else {
                rec.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                rec.op, rec.name, parent, rec.start_ns, rec.end_ns
            )?;
        }
        out.flush()
    }
}

/// The span table of a traced pass: per name, the count and the mean
/// duration and self time per span.
pub fn table(label: &str, totals: &[SpanTotals]) -> Vec<String> {
    let mut lines = vec![format!(
        "spans {label:<10} {:<26} {:>8} {:>12} {:>12}",
        "name", "count", "mean_us", "self_us"
    )];
    for t in totals {
        let n = t.count.max(1) as f64;
        lines.push(format!(
            "spans {label:<10} {:<26} {:>8} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ms / n * 1e3,
            t.self_ms / n * 1e3
        ));
    }
    lines
}

/// Mean duration of the spans named `name`, milliseconds.
pub fn mean_ms(totals: &[SpanTotals], name: &str) -> Option<f64> {
    find(totals, name).map(|t| t.total_ms / t.count.max(1) as f64)
}

/// Looks up one name in [`Tracer::totals`].
pub fn find<'a>(totals: &'a [SpanTotals], name: &str) -> Option<&'a SpanTotals> {
    totals.iter().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::with_capacity(8);
        let root = t.open("op", None, 0);
        t.time("child", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let totals = t.totals();
        let op = find(&totals, "op").unwrap();
        let child = find(&totals, "child").unwrap();
        assert!(child.total_ms >= 2.0);
        assert!((op.total_ms - child.total_ms - op.self_ms).abs() < 1e-9);
        assert_eq!(child.self_ms, child.total_ms);
    }

    #[test]
    fn full_buffer_counts_drops() {
        let mut t = Tracer::with_capacity(1);
        let a = t.open("a", None, 0);
        t.close(a);
        let b = t.open("b", None, 1);
        t.close(b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
