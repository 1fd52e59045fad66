//! The JSON-lines trace format: a typed, replayable event stream of
//! day-long demand evolution. See `docs/FORMATS.md` ("Trace files").
//!
//! A trace is a header line followed by one line per tick:
//!
//! ```text
//! {"trace":"nws-trace","version":1,"seed":42,"ticks":48,"ods":[["JANET-NL",10800000],…]}
//! {"t":0,"demands":[["JANET-NL",10523126.7],…],"events":[]}
//! {"t":7,"demands":[…],"events":[{"op":"fail_link","a":"FR","b":"LU"}]}
//! ```
//!
//! Each tick carries a *full* demand snapshot — every tracked OD with its
//! size for that interval — so a replayer turns one tick into exactly one
//! batched `update_demands` transaction, plus zero or more link events.
//! Encoding uses the service's shortest-roundtrip `f64` formatting, so a
//! generate → encode → parse cycle reproduces every demand bit-exactly.

use nws_service::json::{obj, parse, Json};
use nws_service::Request;
use std::collections::HashSet;

/// Metadata line at the top of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// RNG seed the generator was run with (provenance only).
    pub seed: u64,
    /// Number of tick lines that follow.
    pub ticks: u64,
    /// Tracked ODs and their *base* (mean) sizes, in tracking order.
    pub ods: Vec<(String, f64)>,
}

/// A topology event inside a tick.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkEvent {
    /// Fail the fibre between two PoPs (both directions).
    Fail {
        /// One endpoint node name.
        a: String,
        /// The other endpoint node name.
        b: String,
    },
    /// Restore a previously failed fibre.
    Restore {
        /// One endpoint node name.
        a: String,
        /// The other endpoint node name.
        b: String,
    },
}

impl LinkEvent {
    /// The wire name of the event (matches the `"op"` field).
    pub fn op(&self) -> &'static str {
        match self {
            LinkEvent::Fail { .. } => "fail_link",
            LinkEvent::Restore { .. } => "restore_link",
        }
    }

    /// The control-plane request this event maps to.
    pub fn to_request(&self) -> Request {
        match self {
            LinkEvent::Fail { a, b } => Request::FailLink {
                a: a.clone(),
                b: b.clone(),
            },
            LinkEvent::Restore { a, b } => Request::RestoreLink {
                a: a.clone(),
                b: b.clone(),
            },
        }
    }

    fn to_json(&self) -> Json {
        let (LinkEvent::Fail { a, b } | LinkEvent::Restore { a, b }) = self;
        obj(vec![
            ("op", Json::Str(self.op().into())),
            ("a", Json::Str(a.clone())),
            ("b", Json::Str(b.clone())),
        ])
    }
}

/// One tick: a full demand snapshot plus any link events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTick {
    /// Tick index, starting at 0 and strictly increasing.
    pub t: u64,
    /// `(od name, size)` for every tracked OD this interval.
    pub demands: Vec<(String, f64)>,
    /// Link events applied this tick (before the tick is scored).
    pub events: Vec<LinkEvent>,
}

/// A parsed trace: header plus all ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The metadata line.
    pub header: TraceHeader,
    /// All ticks in order.
    pub ticks: Vec<TraceTick>,
}

fn pairs_to_json(pairs: &[(String, f64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(name, size)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*size)]))
            .collect(),
    )
}

fn pairs_from_json(v: &Json, key: &str) -> Result<Vec<(String, f64)>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array '{key}'"))?;
    let mut out: Vec<(String, f64)> = Vec::with_capacity(arr.len());
    let mut names: HashSet<&str> = HashSet::with_capacity(arr.len());
    for (i, entry) in arr.iter().enumerate() {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{key}[{i}] must be a 2-element [name, size] array"))?;
        let name = pair[0]
            .as_str()
            .ok_or_else(|| format!("{key}[{i}] name must be a string"))?;
        let size = pair[1]
            .as_f64()
            .ok_or_else(|| format!("{key}[{i}] size must be numeric"))?;
        if !size.is_finite() || size <= 1.0 {
            return Err(format!(
                "{key}[{i}] ('{name}') must be a finite size > 1 packet, got {size}"
            ));
        }
        if !names.insert(name) {
            return Err(format!("{key}[{i}] duplicates OD '{name}'"));
        }
        out.push((name.to_string(), size));
    }
    Ok(out)
}

impl Trace {
    /// Serializes the trace to its JSON-lines form (trailing newline
    /// included).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &obj(vec![
                ("trace", Json::Str("nws-trace".into())),
                ("version", Json::UInt(1)),
                ("seed", Json::UInt(self.header.seed)),
                ("ticks", Json::UInt(self.header.ticks)),
                ("ods", pairs_to_json(&self.header.ods)),
            ])
            .encode(),
        );
        out.push('\n');
        for tick in &self.ticks {
            out.push_str(
                &obj(vec![
                    ("t", Json::UInt(tick.t)),
                    ("demands", pairs_to_json(&tick.demands)),
                    (
                        "events",
                        Json::Arr(tick.events.iter().map(LinkEvent::to_json).collect()),
                    ),
                ])
                .encode(),
            );
            out.push('\n');
        }
        out
    }

    /// Parses a trace from its JSON-lines form, validating the schema:
    /// header magic/version, tick count, strictly increasing tick indices
    /// from 0, finite sizes > 1 packet, known event ops. Blank lines are
    /// ignored.
    ///
    /// # Errors
    /// A human-readable message naming the offending line.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or("empty trace file")?;
        let head = parse(first).map_err(|e| format!("header: {e}"))?;
        if head.get("trace").and_then(Json::as_str) != Some("nws-trace") {
            return Err("header: missing '\"trace\":\"nws-trace\"' magic".into());
        }
        match head.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            other => {
                return Err(format!(
                    "header: unsupported version {other:?} (expected 1)"
                ))
            }
        }
        let header = TraceHeader {
            seed: head
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("header: missing integer 'seed'")?,
            ticks: head
                .get("ticks")
                .and_then(Json::as_u64)
                .ok_or("header: missing integer 'ticks'")?,
            ods: pairs_from_json(&head, "ods").map_err(|e| format!("header: {e}"))?,
        };
        if header.ods.is_empty() {
            return Err("header: OD set must not be empty".into());
        }

        let mut ticks = Vec::new();
        for (lineno, line) in lines {
            let lineno = lineno + 1;
            let v = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let t = v
                .get("t")
                .and_then(Json::as_u64)
                .ok_or(format!("line {lineno}: missing integer 't'"))?;
            if t != ticks.len() as u64 {
                return Err(format!(
                    "line {lineno}: tick {t} out of order (expected {})",
                    ticks.len()
                ));
            }
            let demands =
                pairs_from_json(&v, "demands").map_err(|e| format!("line {lineno}: {e}"))?;
            if demands.is_empty() {
                return Err(format!("line {lineno}: 'demands' must be non-empty"));
            }
            let events_arr = v
                .get("events")
                .and_then(Json::as_arr)
                .ok_or(format!("line {lineno}: missing 'events' array"))?;
            let mut events = Vec::with_capacity(events_arr.len());
            for (i, ev) in events_arr.iter().enumerate() {
                let field = |key: &str| {
                    ev.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("line {lineno}: events[{i}] missing string '{key}'"))
                };
                let op = field("op")?;
                let (a, b) = (field("a")?, field("b")?);
                events.push(match op.as_str() {
                    "fail_link" => LinkEvent::Fail { a, b },
                    "restore_link" => LinkEvent::Restore { a, b },
                    other => {
                        return Err(format!("line {lineno}: unknown event op '{other}'"));
                    }
                });
            }
            ticks.push(TraceTick { t, demands, events });
        }
        if ticks.len() as u64 != header.ticks {
            return Err(format!(
                "header declares {} ticks, file has {}",
                header.ticks,
                ticks.len()
            ));
        }
        Ok(Trace { header, ticks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trace {
        Trace {
            header: TraceHeader {
                seed: 7,
                ticks: 2,
                ods: vec![("A-B".into(), 1000.0), ("B-C".into(), 2000.5)],
            },
            ticks: vec![
                TraceTick {
                    t: 0,
                    demands: vec![("A-B".into(), 1_234.000_000_1), ("B-C".into(), 1999.0)],
                    events: vec![],
                },
                TraceTick {
                    t: 1,
                    demands: vec![("A-B".into(), 900.0), ("B-C".into(), 2100.0)],
                    events: vec![
                        LinkEvent::Fail {
                            a: "FR".into(),
                            b: "LU".into(),
                        },
                        LinkEvent::Restore {
                            a: "FR".into(),
                            b: "LU".into(),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let trace = tiny();
        let text = trace.encode();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        // Encoding is canonical: a second cycle is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn malformed_traces_rejected() {
        let good = tiny().encode();
        let cases: Vec<String> = vec![
            String::new(),
            "not json\n".into(),
            good.replacen("nws-trace", "other", 1),
            good.replacen("\"version\":1", "\"version\":2", 1),
            good.replacen("\"ticks\":2", "\"ticks\":3", 1),
            good.replacen("\"t\":1", "\"t\":5", 1),
            good.replacen("fail_link", "explode_link", 1),
            good.replacen("[\"A-B\",900]", "[\"A-B\",0.5]", 1),
            good.replacen("[\"A-B\",900]", "[\"A-B\",\"many\"]", 1),
            // Duplicate OD within one tick's demand snapshot.
            good.replacen("[\"B-C\",1999]", "[\"A-B\",1999]", 1),
        ];
        for bad in cases {
            assert!(Trace::parse(&bad).is_err(), "accepted {bad:?}");
        }
        assert!(Trace::parse(&good).is_ok());
    }
}
