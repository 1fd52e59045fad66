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

use nws_service::json::{obj, Json, Reader};
use nws_service::Request;
use std::borrow::Cow;
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
    /// Tick index: the first tick is 0 and each next one adds 1.
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

/// What a field decoder returns. The outer error is a JSON syntax error,
/// which ends the line at once. The inner one is a schema error, which
/// waits until the whole line has read as JSON, so a line reports the
/// same error whatever order its keys come in.
type Decoded<T> = Result<Result<T, String>, String>;

fn missing_pairs(key: &str) -> String {
    format!("missing or non-array '{key}'")
}

/// Reads one `[name, size]` entry of the `key` array. Its checks run in a
/// fixed order: the shape, the name, the size, the size's bound.
fn pair<'a>(r: &mut Reader<'a>, key: &str, i: usize) -> Decoded<(Cow<'a, str>, f64)> {
    let (mut name, mut size, mut len) = (None, None, 0);
    let is_array = r.array(|r, j| {
        match j {
            0 => name = r.opt_string()?,
            1 => size = r.opt_f64()?,
            _ => {
                r.value()?;
            }
        }
        len = j + 1;
        Ok(())
    })?;
    if !is_array || len != 2 {
        return Ok(Err(format!(
            "{key}[{i}] must be a 2-element [name, size] array"
        )));
    }
    let Some(name) = name else {
        return Ok(Err(format!("{key}[{i}] name must be a string")));
    };
    let Some(size) = size else {
        return Ok(Err(format!("{key}[{i}] size must be numeric")));
    };
    if !size.is_finite() || size <= 1.0 {
        return Ok(Err(format!(
            "{key}[{i}] ('{name}') must be a finite size > 1 packet, got {size}"
        )));
    }
    Ok(Ok((name, size)))
}

/// Reads the `key` array of `[name, size]` pairs, with no name twice.
/// `order` is the header's OD list: while entry `i` names `order[i]`, it
/// cannot repeat an earlier entry, so a hash set of the names is built
/// only once an entry departs from that order.
fn pairs<'a>(
    r: &mut Reader<'a>,
    key: &str,
    order: &'a [(String, f64)],
) -> Decoded<Vec<(String, f64)>> {
    let mut out = Vec::with_capacity(order.len());
    let mut names: Option<HashSet<Cow<'a, str>>> = None;
    let mut err = None;
    let is_array = r.array(|r, i| {
        if err.is_some() {
            return r.value().map(drop);
        }
        let (name, size) = match pair(r, key, i)? {
            Ok(entry) => entry,
            Err(e) => {
                err = Some(e);
                return Ok(());
            }
        };
        if names.is_some() || order.get(i).is_none_or(|(n, _)| *n != *name) {
            let seen = names.get_or_insert_with(|| {
                order[..i]
                    .iter()
                    .map(|(n, _)| Cow::Borrowed(n.as_str()))
                    .collect()
            });
            if !seen.insert(name.clone()) {
                err = Some(format!("{key}[{i}] duplicates OD '{name}'"));
                return Ok(());
            }
        }
        out.push((name.into_owned(), size));
        Ok(())
    })?;
    Ok(match err {
        Some(e) => Err(e),
        None if !is_array => Err(missing_pairs(key)),
        None => Ok(out),
    })
}

/// Reads the `events` array of `{"op","a","b"}` objects.
fn link_events(r: &mut Reader<'_>) -> Decoded<Vec<LinkEvent>> {
    let mut out = Vec::new();
    let mut err = None;
    let is_array = r.array(|r, i| {
        if err.is_some() {
            return r.value().map(drop);
        }
        let (mut op, mut a, mut b) = (None, None, None);
        r.object(|r, key| {
            match &*key {
                "op" => op = r.opt_string()?,
                "a" => a = r.opt_string()?,
                "b" => b = r.opt_string()?,
                _ => {
                    r.value()?;
                }
            }
            Ok(())
        })?;
        match link_event(i, op, a, b) {
            Ok(ev) => out.push(ev),
            Err(e) => err = Some(e),
        }
        Ok(())
    })?;
    Ok(match err {
        Some(e) => Err(e),
        None if !is_array => Err("missing 'events' array".into()),
        None => Ok(out),
    })
}

fn link_event(
    i: usize,
    op: Option<Cow<'_, str>>,
    a: Option<Cow<'_, str>>,
    b: Option<Cow<'_, str>>,
) -> Result<LinkEvent, String> {
    let missing = |key: &str| format!("events[{i}] missing string '{key}'");
    let op = op.ok_or_else(|| missing("op"))?;
    let a = a.ok_or_else(|| missing("a"))?.into_owned();
    let b = b.ok_or_else(|| missing("b"))?.into_owned();
    match &*op {
        "fail_link" => Ok(LinkEvent::Fail { a, b }),
        "restore_link" => Ok(LinkEvent::Restore { a, b }),
        other => Err(format!("unknown event op '{other}'")),
    }
}

/// Decodes the header line.
fn decode_header(line: &str) -> Result<TraceHeader, String> {
    let mut r = Reader::new(line);
    let (mut magic, mut version, mut seed, mut ticks, mut ods) = (None, None, None, None, None);
    r.object(|r, key| {
        match &*key {
            "trace" => magic = r.opt_string()?,
            "version" => version = r.opt_u64()?,
            "seed" => seed = r.opt_u64()?,
            "ticks" => ticks = r.opt_u64()?,
            "ods" => ods = Some(pairs(r, "ods", &[])?),
            _ => {
                r.value()?;
            }
        }
        Ok(())
    })?;
    r.end()?;
    if magic.as_deref() != Some("nws-trace") {
        return Err("missing '\"trace\":\"nws-trace\"' magic".into());
    }
    match version {
        Some(1) => {}
        other => return Err(format!("unsupported version {other:?} (expected 1)")),
    }
    let seed = seed.ok_or("missing integer 'seed'")?;
    let ticks = ticks.ok_or("missing integer 'ticks'")?;
    let ods = ods.unwrap_or_else(|| Err(missing_pairs("ods")))?;
    if ods.is_empty() {
        return Err("OD set must not be empty".into());
    }
    Ok(TraceHeader { seed, ticks, ods })
}

/// Decodes tick line `t` (counting from 0), whose demands should list the
/// header's ODs in `order`.
fn decode_tick(line: &str, t: u64, order: &[(String, f64)]) -> Result<TraceTick, String> {
    let mut r = Reader::new(line);
    let (mut index, mut demands, mut events) = (None, None, None);
    r.object(|r, key| {
        match &*key {
            "t" => index = r.opt_u64()?,
            "demands" => demands = Some(pairs(r, "demands", order)?),
            "events" => events = Some(link_events(r)?),
            _ => {
                r.value()?;
            }
        }
        Ok(())
    })?;
    r.end()?;
    let index = index.ok_or("missing integer 't'")?;
    if index != t {
        return Err(format!("tick {index} out of order (expected {t})"));
    }
    let demands = demands.unwrap_or_else(|| Err(missing_pairs("demands")))?;
    if demands.is_empty() {
        return Err("'demands' must be non-empty".into());
    }
    let events = events.unwrap_or_else(|| Err("missing 'events' array".into()))?;
    Ok(TraceTick { t, demands, events })
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
    /// header magic/version, tick count, consecutive tick indices from 0,
    /// finite sizes > 1 packet, no OD twice in one line, known event ops.
    /// Keys may come in any order, unknown keys are read as JSON and
    /// ignored, and a key twice in one object is an error. Blank lines are
    /// ignored.
    ///
    /// Each line is decoded straight off its text by the service's JSON
    /// [`Reader`], so no JSON tree is built for it.
    ///
    /// # Errors
    /// A human-readable message naming the offending line.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or("empty trace file")?;
        let header = decode_header(first).map_err(|e| format!("header: {e}"))?;
        let mut ticks = Vec::new();
        for (lineno, line) in lines {
            let tick = decode_tick(line, ticks.len() as u64, &header.ods)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            ticks.push(tick);
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
    use nws_service::json::parse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The tree-based decode `Trace::parse` replaced, kept as the
    /// reference: each line is parsed into a `Json` tree, then checked.
    fn reference_parse(text: &str) -> Result<Trace, String> {
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

    /// Both decoders return the same trace, or the same error, on `text`.
    fn assert_agree(text: &str) -> Result<Trace, String> {
        let typed = Trace::parse(text);

        assert_eq!(
            typed,
            reference_parse(text),
            "decoders disagree on {text:?}"
        );
        typed
    }

    const HEADER: &str = r#"{"trace":"nws-trace","version":1,"seed":7,"ticks":1,"ods":[["A-B",1000],["B-C",2000.5]]}"#;

    /// Perturbed tick lines, each decoded under `HEADER` as tick 0.
    fn tick_lines() -> Vec<String> {
        let demands = r#""demands":[["A-B",1234.5],["B-C",1999]]"#;
        let events = r#""events":[{"op":"fail_link","a":"FR","b":"LU"}]"#;
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        let mut lines = vec![
            format!("{{\"t\":0,{demands},{events}}}"),
            // Whitespace anywhere between tokens.
            " \t{ \"t\" : 0 ,\t\"demands\" : [ [ \"A-B\" , 1234.5 ] , [\"B-C\",1999 ] ] , \
             \"events\" : [ { \"op\" : \"fail_link\" , \"a\":\"FR\", \"b\" : \"LU\" } ] } \t"
                .to_string(),
            // Unknown keys, a nested object with a repeated key, a key twice.
            format!("{{\"x\":1,\"t\":0,{demands},{events}}}"),
            format!("{{\"t\":0,\"x\":{{\"y\":[null,true,false,{{}}],\"z\":\"\\u00e9\"}},{demands},{events}}}"),
            format!("{{\"t\":0,\"x\":{{\"a\":1,\"a\":2}},{demands},{events}}}"),
            format!("{{\"t\":0,\"t\":0,{demands},{events}}}"),
            format!("{{\"t\":0,{demands},{events},\"events\":[]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":\"fail_link\",\"a\":\"FR\",\"a\":\"X\",\"b\":\"LU\"}}]}}"),
            // Escaped and astral names.
            format!("{{\"t\":0,\"demands\":[[\"A\\u002dB\",5],[\"B-C\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"\\ud83d\\ude00\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"\\ud83d\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"\u{1F600}\\n\",6]],{events}}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":\"fail\\u005flink\",\"a\":\"F\\\"R\",\"b\":\"\\u00e9\"}}]}}"),
            // The tick index spelled as a float, or not an index.
            format!("{{\"t\":0.0,{demands},{events}}}"),
            format!("{{\"t\":0e0,{demands},{events}}}"),
            format!("{{\"t\":-0,{demands},{events}}}"),
            format!("{{\"t\":1e0,{demands},{events}}}"),
            format!("{{\"t\":0.5,{demands},{events}}}"),
            format!("{{\"t\":\"0\",{demands},{events}}}"),
            format!("{{\"t\":18446744073709551616,{demands},{events}}}"),
            format!("{{{demands},{events}}}"),
            // Sizes as integers, exponents, or not sizes.
            format!("{{\"t\":0,\"demands\":[[\"A-B\",2E3],[\"B-C\",1.999e3]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",18446744073709551615],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",1],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",-5],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",1e999],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",null],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",[2]],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",\"2\"],[\"B-C\",2]],{events}}}"),
            // Pair shapes, names and order.
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5,6],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\"],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[\"A-B\",[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[7,5],[\"B-C\",0.5]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[7,0.5,1],[\"B-C\",2]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"B-C\",5],[\"A-B\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"B-C\",5],[\"B-C\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"A-B\",6]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"B-C\",6],[\"Z\",7],[\"A-B\",8]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5],[\"B-C\",6],[\"Z\",7]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\",5]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[],{events}}}"),
            format!("{{\"t\":0,\"demands\":{{}},{events}}}"),
            format!("{{\"t\":0,{events}}}"),
            // Events.
            format!("{{\"t\":0,{demands},\"events\":[]}}"),
            format!("{{\"t\":0,{demands}}}"),
            format!("{{\"t\":0,{demands},\"events\":{{}}}}"),
            format!("{{\"t\":0,{demands},\"events\":[1]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"b\":\"LU\",\"a\":\"FR\",\"op\":\"restore_link\",\"why\":[1]}}]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":\"fail_link\",\"a\":\"FR\"}}]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":\"explode\",\"b\":\"LU\"}}]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":5,\"a\":\"FR\",\"b\":\"LU\"}}]}}"),
            format!("{{\"t\":0,{demands},\"events\":[{{\"op\":\"explode\",\"a\":\"FR\",\"b\":\"LU\"}},{{\"op\":1}}]}}"),
            // Several faults on one line: the reported one does not depend
            // on where each sits.
            format!("{{\"events\":[7],\"demands\":[[\"A-B\",0.5]],\"t\":3}}"),
            format!("{{\"events\":[7],\"demands\":[[\"A-B\",0.5]],\"t\":0}}"),
            format!("{{\"events\":[7],\"demands\":[[\"A-B\",0.5]],\"t\":0,\"t\":1}}"),
            format!("{{\"t\":3,\"demands\":[[\"A-B\",0.5]]}} x"),
            // Nesting at and past the cap, in an unknown key and in a name.
            format!("{{\"t\":0,\"x\":{},{demands},{events}}}", deep(127)),
            format!("{{\"t\":0,\"x\":{},{demands},{events}}}", deep(128)),
            format!("{{\"t\":0,\"demands\":[[{},5]],{events}}}", deep(125)),
            format!("{{\"t\":0,\"demands\":[[{},5]],{events}}}", deep(126)),
            // Trailing garbage and broken syntax.
            format!("{{\"t\":0,{demands},{events}}} x"),
            format!("{{\"t\":0,{demands},{events}}}}}"),
            format!("{{\"t\":0,{demands},{events},}}"),
            format!("{{\"t\":0 {demands},{events}}}"),
            format!("{{\"t\":0,{demands},{events}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B,5]],{events}}}"),
            format!("{{\"t\":0,\"demands\":[[\"A-B\\q\",5]],{events}}}"),
            format!("{{t:0,{demands},{events}}}"),
            // Not an object at all.
            "[1,2]".to_string(),
            "5".to_string(),
            "\"t\"".to_string(),
            "null".to_string(),
            "nul".to_string(),
        ];
        // Every order of the three keys.
        let parts = [
            "\"t\":0".to_string(),
            demands.to_string(),
            events.to_string(),
        ];
        for [a, b, c] in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            lines.push(format!("{{{},{},{}}}", parts[a], parts[b], parts[c]));
        }
        lines
    }

    #[test]
    fn typed_decoder_matches_the_tree_reference() {
        let mut accepted = 0;
        for line in tick_lines() {
            if assert_agree(&format!("{HEADER}\n{line}\n")).is_ok() {
                accepted += 1;
            }
        }
        // 19 listed lines and the 6 key orders are well-formed ticks; the
        // other 55 lines are rejected by both decoders.
        assert_eq!(accepted, 25);

        let good = tiny().encode();
        let mut header_cases = vec![
            // A hostile tick count: nothing may be sized from it.
            good.replacen("\"ticks\":2", "\"ticks\":18446744073709551615", 1),
            good.replacen("\"ticks\":2", "\"ticks\":1e300", 1),
            good.replacen("\"version\":1", "\"version\":1.0", 1),
            good.replacen("\"version\":1", "\"version\":\"1\"", 1),
            good.replacen("\"seed\":7", "\"seed\":-7", 1),
            good.replacen("\"seed\":7,", "", 1),
            good.replacen("\"trace\":\"nws-trace\",", "", 1),
            good.replacen("[[\"A-B\",1000],", "[[\"B-C\",1000],", 1),
            good.replacen("[[\"A-B\",1000],[\"B-C\",2000.5]]", "[]", 1),
            good.replacen("\"seed\":7", "\"seed\":7,\"note\":{\"k\":[1,{}]}", 1),
            good.replacen("\"seed\":7", "\"seed\":7,\"seed\":8", 1),
            good.replacen("{\"trace\"", "{\"ods\":[[\"X\",2]],\"trace\"", 1),
            // A header that lists the ODs in another order than the ticks.
            good.replacen(
                "[[\"A-B\",1000],[\"B-C\",2000.5]]",
                "[[\"B-C\",1],[\"A-B\",2]]",
                1,
            ),
            good.replacen(
                "[[\"A-B\",1000],[\"B-C\",2000.5]]",
                "[[\"B-C\",3],[\"A-B\",2]]",
                1,
            ),
            good.replacen("[[\"A-B\",1000],[\"B-C\",2000.5]]", "[[\"A-B\",3]]", 1),
            good.replacen("\"A-B\",1000", "\"A\\u002dB\",1000", 1),
            // Blank lines, a missing line, an extra one, a tick out of order.
            good.replace('\n', "\n\n \t\n"),
            good.replacen("\n{\"t\":1", "\n{\"t\":2", 1),
            format!("{good}{{\"t\":2,\"demands\":[[\"A-B\",5]],\"events\":[]}}\n"),
            good.lines().take(2).collect::<Vec<_>>().join("\n"),
            good.lines().next().unwrap_or_default().to_string(),
            String::new(),
            " \n\t\n".to_string(),
            good.clone(),
        ];
        // An error on the second line wins over one on the third.
        header_cases.push(
            good.replacen("\"t\":1", "\"t\":1 x", 1)
                .replacen("\"t\":0", "\"t\":7", 1),
        );
        let accepted = header_cases
            .iter()
            .filter(|t| assert_agree(t).is_ok())
            .count();
        assert_eq!(accepted, 7);
        let hostile = Trace::parse(&header_cases[0]).unwrap_err();
        assert_eq!(
            hostile,
            "header declares 18446744073709551615 ticks, file has 2"
        );
    }

    /// A seeded random trace: names across escaping regimes, sizes across
    /// integer and exponent spellings, ticks in header order or shuffled,
    /// and link events.
    fn random_trace(rng: &mut StdRng) -> Trace {
        fn name(rng: &mut StdRng, k: usize) -> String {
            let mut s: String = (0..rng.random_range(0usize..6))
                .map(|_| match rng.random_range(0u32..8) {
                    0 => '"',
                    1 => '\\',
                    2 => char::from_u32(rng.random_range(1u32..0x20)).expect("control char"),
                    3 => 'é',
                    4 => char::from_u32(rng.random_range(0x1F300u32..0x1F700)).expect("astral"),
                    _ => char::from_u32(rng.random_range(0x20u32..0x7f)).expect("ascii"),
                })
                .collect();
            s.push_str(&k.to_string());
            s
        }
        fn size(rng: &mut StdRng) -> f64 {
            match rng.random_range(0u32..4) {
                0 => rng.random_range(2u64..1_000_000) as f64,
                1 => 1.0 + rng.random::<f64>() * 1e7,
                2 => 10f64.powi(rng.random_range(15i32..300)),
                _ => 1.0 + f64::EPSILON * rng.random_range(1u32..8) as f64,
            }
        }
        let n = rng.random_range(1usize..8);
        let ods: Vec<(String, f64)> = (0..n).map(|k| (name(rng, k), size(rng))).collect();
        let ticks: Vec<TraceTick> = (0..rng.random_range(0u64..6))
            .map(|t| {
                let mut demands: Vec<(String, f64)> =
                    ods.iter().map(|(od, _)| (od.clone(), size(rng))).collect();
                if rng.random_range(0u32..3) == 0 {
                    let k = rng.random_range(0..demands.len());
                    demands.swap(0, k);
                    demands.truncate(rng.random_range(1..=demands.len()));
                }
                let events = (0..rng.random_range(0usize..3))
                    .map(|k| {
                        let (a, b) = (name(rng, k), name(rng, k + 1));
                        if rng.random() {
                            LinkEvent::Fail { a, b }
                        } else {
                            LinkEvent::Restore { a, b }
                        }
                    })
                    .collect();
                TraceTick { t, demands, events }
            })
            .collect();
        Trace {
            header: TraceHeader {
                seed: rng.random(),
                ticks: ticks.len() as u64,
                ods,
            },
            ticks,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `Trace::parse(t.encode()) == t`, bit for bit, for random traces.
        #[test]
        fn encode_parse_roundtrip(seed in proptest::prelude::any::<u64>()) {
            let trace = random_trace(&mut StdRng::seed_from_u64(seed));
            let text = trace.encode();
            proptest::prop_assert_eq!(assert_agree(&text), Ok(trace));
        }

        /// Random byte-level damage to a random trace: the decoders accept
        /// and reject the same texts, with the same values and errors.
        #[test]
        fn damaged_traces_decode_like_the_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut text: Vec<char> = random_trace(&mut rng).encode().chars().collect();
            for _ in 0..rng.random_range(1usize..4) {
                let at = rng.random_range(0..=text.len());
                const BYTES: &[char] = &['{', '}', '[', ']', ',', ':', '"', '\\', ' ', '1', '.', 'e', '-', 'x', '\n'];
                match rng.random_range(0u32..3) {
                    0 if at < text.len() => {
                        text.remove(at);
                    }
                    1 if at < text.len() => text[at] = BYTES[rng.random_range(0..BYTES.len())],
                    _ => text.insert(at, BYTES[rng.random_range(0..BYTES.len())]),
                }
            }
            let _ = assert_agree(&text.into_iter().collect::<String>());
        }
    }
}
