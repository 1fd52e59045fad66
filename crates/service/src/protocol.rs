//! Request grammar of the control plane: one JSON object per line.
//!
//! Every request carries a `"cmd"` discriminator; the remaining fields are
//! command-specific. See `DESIGN.md` §8 for the full grammar. Responses are
//! assembled by the daemon (`crate::daemon`) as [`crate::json::Json`]
//! objects and always carry `"ok"` plus either the command's payload or an
//! `"error"` string.

use crate::json::{obj, parse, Json};
use std::collections::HashSet;

/// One decoded control-plane request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Replace the size (packets/interval) of a tracked OD pair.
    UpdateDemand {
        /// OD display name, e.g. `"JANET-NL"`.
        od: String,
        /// New ground-truth size in packets per interval.
        size: f64,
    },
    /// Replace the sizes of several tracked OD pairs in one transaction.
    ///
    /// The whole batch is one event: one epoch rebuild, one warm re-solve,
    /// one WAL record. A batch with any invalid entry (unknown OD, bad
    /// size, duplicate OD within the batch) is rejected atomically — no
    /// partial application.
    UpdateDemands {
        /// `(od name, new size)` pairs; non-empty, names unique.
        updates: Vec<(String, f64)>,
    },
    /// Fail the fibre between two PoPs (both directions).
    FailLink {
        /// One endpoint node name.
        a: String,
        /// The other endpoint node name.
        b: String,
    },
    /// Restore a previously failed fibre.
    RestoreLink {
        /// One endpoint node name.
        a: String,
        /// The other endpoint node name.
        b: String,
    },
    /// Start tracking a new OD pair.
    AddOd {
        /// Display name (must be unique).
        name: String,
        /// Origin node name.
        src: String,
        /// Destination node name.
        dst: String,
        /// Ground-truth size in packets per interval.
        size: f64,
    },
    /// Stop tracking an OD pair.
    RemoveOd {
        /// Display name of the pair to drop.
        name: String,
    },
    /// Change the network-wide sampling budget θ.
    SetTheta {
        /// New budget in sampled packets per interval.
        theta: f64,
    },
    /// Report the currently installed sampling rates (active monitors only).
    QueryRates,
    /// Monte-Carlo accuracy evaluation of the installed configuration.
    QueryAccuracy {
        /// Number of simulated measurement runs.
        runs: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Push the current state (topology events, OD set, θ, solution) onto
    /// the snapshot stack.
    Snapshot,
    /// Pop the snapshot stack and reinstall that state, without re-solving.
    Rollback,
    /// Report daemon counters (requests, re-solves, iteration savings).
    Stats,
    /// Report the observability snapshot: per-command latency histograms,
    /// solver-phase span timings, evaluation fan-out counters.
    Metrics,
    /// Health probe: serving status, persistence mode, degraded-solve and
    /// queue-pressure counters. Mutates nothing; meant for load balancers
    /// and operators, so it must answer even when the daemon is degraded.
    Health,
    /// Liveness probe; mutates nothing.
    Ping,
    /// Stop the daemon after acknowledging.
    Shutdown,
}

impl Request {
    /// The wire name of the command (matches the `"cmd"` field).
    pub fn name(&self) -> &'static str {
        match self {
            Request::UpdateDemand { .. } => "update_demand",
            Request::UpdateDemands { .. } => "update_demands",
            Request::FailLink { .. } => "fail_link",
            Request::RestoreLink { .. } => "restore_link",
            Request::AddOd { .. } => "add_od",
            Request::RemoveOd { .. } => "remove_od",
            Request::SetTheta { .. } => "set_theta",
            Request::QueryRates => "query_rates",
            Request::QueryAccuracy { .. } => "query_accuracy",
            Request::Snapshot => "snapshot",
            Request::Rollback => "rollback",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Health => "health",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether the request mutates network state (and therefore triggers a
    /// re-solve on success).
    pub fn is_mutating(&self) -> bool {
        access(self.name()) == Access::Mutate
    }

    /// Whether the request changes recoverable daemon state: the mutating
    /// commands plus `snapshot`/`rollback`, which move the snapshot stack.
    /// Exactly these are journaled into the write-ahead log.
    pub fn is_state_changing(&self) -> bool {
        self.is_mutating() || matches!(self, Request::Snapshot | Request::Rollback)
    }

    /// Whether the request is answerable from the published read snapshot
    /// (the lock-free read path): no state change, no expensive rebuild.
    pub fn is_read_only(&self) -> bool {
        access(self.name()) == Access::Read
    }

    /// Re-encodes the request as its wire JSON object — the inverse of
    /// [`parse_request`] up to field order. This is what the write-ahead
    /// log stores, so replaying a journal goes through the same protocol
    /// boundary (and the same validation) as the original traffic.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("cmd", Json::Str(self.name().into()))];
        match self {
            Request::UpdateDemand { od, size } => {
                pairs.push(("od", Json::Str(od.clone())));
                pairs.push(("size", Json::Num(*size)));
            }
            Request::UpdateDemands { updates } => {
                pairs.push((
                    "updates",
                    Json::Arr(
                        updates
                            .iter()
                            .map(|(od, size)| {
                                Json::Arr(vec![Json::Str(od.clone()), Json::Num(*size)])
                            })
                            .collect(),
                    ),
                ));
            }
            Request::FailLink { a, b } | Request::RestoreLink { a, b } => {
                pairs.push(("a", Json::Str(a.clone())));
                pairs.push(("b", Json::Str(b.clone())));
            }
            Request::AddOd {
                name,
                src,
                dst,
                size,
            } => {
                pairs.push(("name", Json::Str(name.clone())));
                pairs.push(("src", Json::Str(src.clone())));
                pairs.push(("dst", Json::Str(dst.clone())));
                pairs.push(("size", Json::Num(*size)));
            }
            Request::RemoveOd { name } => {
                pairs.push(("name", Json::Str(name.clone())));
            }
            Request::SetTheta { theta } => {
                pairs.push(("theta", Json::Num(*theta)));
            }
            Request::QueryAccuracy { runs, seed } => {
                pairs.push(("runs", Json::UInt(*runs as u64)));
                pairs.push(("seed", Json::UInt(*seed)));
            }
            Request::QueryRates
            | Request::Snapshot
            | Request::Rollback
            | Request::Stats
            | Request::Metrics
            | Request::Health
            | Request::Ping
            | Request::Shutdown => {}
        }
        obj(pairs)
    }
}

/// How a command uses the served state, which decides its path through
/// the daemon and the SLI kind its requests count under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Answered from the published read snapshot, lock-free.
    Read,
    /// Changes network state and re-solves on success.
    Mutate,
    /// Queued but neither: `query_accuracy`, `snapshot`, `rollback`,
    /// `shutdown`, and the `invalid` label of an unparseable line.
    Other,
}

/// The access class of the command named `cmd` (its wire name, as in
/// `daemon_requests_total{cmd}`): the one list of the read-only and the
/// mutating commands. `query_accuracy` is deliberately not a read — it
/// changes nothing but runs Monte-Carlo simulations, so it stays on the
/// bounded queue.
pub fn access(cmd: &str) -> Access {
    match cmd {
        "query_rates" | "stats" | "health" | "metrics" | "ping" => Access::Read,
        "update_demand" | "update_demands" | "fail_link" | "restore_link" | "add_od"
        | "remove_od" | "set_theta" => Access::Mutate,
        _ => Access::Other,
    }
}

/// Upper bound on a client-supplied `request_id`, in bytes. Generous for
/// any sane key scheme (`<client>-<counter>` is ~25 bytes) while keeping a
/// hostile line from parking kilobytes per entry in the dedup window.
pub const MAX_REQUEST_ID_BYTES: usize = 128;

/// One decoded request line *with its envelope*: the command itself plus
/// the optional client-generated `request_id` idempotency key (see
/// FORMATS.md). The daemon dedups state-changing requests on the key and
/// replays the original acknowledgement for duplicates, which is what
/// makes client retries across reconnects exactly-once.
#[derive(Debug, Clone, PartialEq)]
pub struct Incoming {
    /// The decoded command.
    pub req: Request,
    /// Client-generated idempotency key, echoed on the response.
    pub request_id: Option<String>,
}

impl Incoming {
    /// Wraps a request with no idempotency key (internal traffic, tests).
    pub fn bare(req: Request) -> Self {
        Incoming {
            req,
            request_id: None,
        }
    }

    /// The dedup key, present only when this request both carries a
    /// `request_id` *and* changes state — reads are naturally idempotent,
    /// so deduping them would only burn window entries.
    pub fn dedup_key(&self) -> Option<&str> {
        if self.req.is_state_changing() {
            self.request_id.as_deref()
        } else {
            None
        }
    }
}

/// Validates the optional `request_id` envelope field: when present it
/// must be a non-empty string of at most [`MAX_REQUEST_ID_BYTES`] bytes.
fn request_id_field(v: &Json) -> Result<Option<String>, String> {
    match v.get("request_id") {
        None => Ok(None),
        Some(Json::Str(id)) => {
            if id.is_empty() {
                return Err("'request_id' must be a non-empty string".into());
            }
            if id.len() > MAX_REQUEST_ID_BYTES {
                return Err(format!(
                    "'request_id' exceeds {MAX_REQUEST_ID_BYTES} bytes (got {})",
                    id.len()
                ));
            }
            Ok(Some(id.clone()))
        }
        Some(_) => Err("'request_id' must be a string".into()),
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

/// An OD mean flow size, validated at the protocol boundary: the utility
/// model requires `E[1/S] = 1/size ∈ (0, 1)`, i.e. a finite size > 1
/// packet. Without this check a hostile `add_od`/`update_demand` payload
/// reaches `SreUtility`'s assertions and panics the event loop.
fn size_field(v: &Json, key: &str) -> Result<f64, String> {
    let size = num_field(v, key)?;
    if !size.is_finite() || size <= 1.0 {
        return Err(format!(
            "'{key}' must be a finite mean flow size > 1 packet, got {size}"
        ));
    }
    Ok(size)
}

/// Upper bound on `update_demands` batch length; far above any real OD set
/// but low enough that a hostile line cannot make the event loop chew
/// through an unbounded batch.
const MAX_BATCH: usize = 100_000;

/// The `updates` array of a batched demand update: a non-empty list of
/// `[od, size]` pairs. Sizes pass the same `size_field` bound as single
/// updates; duplicate OD names are rejected here so a mixed batch never
/// reaches the state layer half-valid.
fn updates_field(v: &Json) -> Result<Vec<(String, f64)>, String> {
    let arr = v
        .get("updates")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array field 'updates'")?;
    if arr.is_empty() {
        return Err("'updates' must be a non-empty array".into());
    }
    if arr.len() > MAX_BATCH {
        return Err(format!("'updates' batch exceeds {MAX_BATCH} entries"));
    }
    let mut out: Vec<(String, f64)> = Vec::with_capacity(arr.len());
    let mut seen: HashSet<&str> = HashSet::with_capacity(arr.len());
    for (i, entry) in arr.iter().enumerate() {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or(format!("updates[{i}] must be a 2-element [od, size] array"))?;
        let od = pair[0]
            .as_str()
            .ok_or(format!("updates[{i}] OD name must be a string"))?;
        let size = pair[1]
            .as_f64()
            .ok_or(format!("updates[{i}] size must be numeric"))?;
        if !size.is_finite() || size <= 1.0 {
            return Err(format!(
                "updates[{i}] must be a finite mean flow size > 1 packet, got {size}"
            ));
        }
        if !seen.insert(od) {
            return Err(format!("updates[{i}] duplicates OD '{od}' in the batch"));
        }
        out.push((od.to_string(), size));
    }
    Ok(out)
}

fn opt_num_field(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_f64()
            .ok_or_else(|| format!("non-numeric field '{key}'")),
    }
}

/// Parses one request line, dropping the envelope. Prefer
/// [`parse_incoming`] anywhere the `request_id` idempotency key matters
/// (the daemon's transports and WAL replay); this stays as the
/// command-only view for embedders and tests.
///
/// # Errors
/// A human-readable message for JSON syntax errors, missing/ill-typed
/// fields, or unknown commands.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_incoming(line).map(|inc| inc.req)
}

/// Parses one request line *with* its envelope (`request_id`).
///
/// # Errors
/// Same grammar errors as [`parse_request`], plus an invalid
/// `request_id` field (non-string, empty, or oversized).
pub fn parse_incoming(line: &str) -> Result<Incoming, String> {
    let v = parse(line)?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let request_id = request_id_field(&v)?;
    let req = parse_command(&v)?;
    Ok(Incoming { req, request_id })
}

pub(crate) fn parse_command(v: &Json) -> Result<Request, String> {
    let cmd = str_field(v, "cmd")?;
    match cmd.as_str() {
        "update_demand" => Ok(Request::UpdateDemand {
            od: str_field(v, "od")?,
            size: size_field(v, "size")?,
        }),
        "update_demands" => Ok(Request::UpdateDemands {
            updates: updates_field(v)?,
        }),
        "fail_link" => Ok(Request::FailLink {
            a: str_field(v, "a")?,
            b: str_field(v, "b")?,
        }),
        "restore_link" => Ok(Request::RestoreLink {
            a: str_field(v, "a")?,
            b: str_field(v, "b")?,
        }),
        "add_od" => Ok(Request::AddOd {
            name: str_field(v, "name")?,
            src: str_field(v, "src")?,
            dst: str_field(v, "dst")?,
            size: size_field(v, "size")?,
        }),
        "remove_od" => Ok(Request::RemoveOd {
            name: str_field(v, "name")?,
        }),
        "set_theta" => {
            let theta = num_field(v, "theta")?;
            if !theta.is_finite() || theta <= 0.0 {
                return Err(format!("'theta' must be a finite budget > 0, got {theta}"));
            }
            Ok(Request::SetTheta { theta })
        }
        "query_rates" => Ok(Request::QueryRates),
        "query_accuracy" => {
            let runs = opt_num_field(v, "runs", 20.0)?;
            let seed = opt_num_field(v, "seed", 1.0)?;
            if runs < 1.0 || runs.fract() != 0.0 || runs > 1e6 {
                return Err("'runs' must be a positive integer ≤ 1e6".into());
            }
            if seed < 0.0 || seed.fract() != 0.0 {
                return Err("'seed' must be a non-negative integer".into());
            }
            Ok(Request::QueryAccuracy {
                runs: runs as usize,
                seed: seed as u64,
            })
        }
        "snapshot" => Ok(Request::Snapshot),
        "rollback" => Ok(Request::Rollback),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases = [
            (
                r#"{"cmd":"update_demand","od":"JANET-NL","size":1e6}"#,
                Request::UpdateDemand {
                    od: "JANET-NL".into(),
                    size: 1e6,
                },
            ),
            (
                r#"{"cmd":"update_demands","updates":[["JANET-NL",1e6],["JANET-DE",2e6]]}"#,
                Request::UpdateDemands {
                    updates: vec![("JANET-NL".into(), 1e6), ("JANET-DE".into(), 2e6)],
                },
            ),
            (
                r#"{"cmd":"fail_link","a":"FR","b":"LU"}"#,
                Request::FailLink {
                    a: "FR".into(),
                    b: "LU".into(),
                },
            ),
            (
                r#"{"cmd":"restore_link","a":"FR","b":"LU"}"#,
                Request::RestoreLink {
                    a: "FR".into(),
                    b: "LU".into(),
                },
            ),
            (
                r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":500}"#,
                Request::AddOd {
                    name: "X".into(),
                    src: "UK".into(),
                    dst: "DE".into(),
                    size: 500.0,
                },
            ),
            (
                r#"{"cmd":"remove_od","name":"X"}"#,
                Request::RemoveOd { name: "X".into() },
            ),
            (
                r#"{"cmd":"set_theta","theta":80000}"#,
                Request::SetTheta { theta: 80_000.0 },
            ),
            (r#"{"cmd":"query_rates"}"#, Request::QueryRates),
            (
                r#"{"cmd":"query_accuracy","runs":5,"seed":9}"#,
                Request::QueryAccuracy { runs: 5, seed: 9 },
            ),
            (r#"{"cmd":"snapshot"}"#, Request::Snapshot),
            (r#"{"cmd":"rollback"}"#, Request::Rollback),
            (r#"{"cmd":"stats"}"#, Request::Stats),
            (r#"{"cmd":"metrics"}"#, Request::Metrics),
            (r#"{"cmd":"health"}"#, Request::Health),
            (r#"{"cmd":"ping"}"#, Request::Ping),
            (r#"{"cmd":"shutdown"}"#, Request::Shutdown),
        ];
        for (line, want) in cases {
            let got = parse_request(line).unwrap();
            assert_eq!(got, want, "line {line}");
            assert!(line.contains(got.name()));
        }
    }

    #[test]
    fn to_json_roundtrips_through_the_parser() {
        for line in [
            r#"{"cmd":"update_demand","od":"JANET-NL","size":10800000}"#,
            r#"{"cmd":"update_demand","od":"JANET-NL","size":12345.678}"#,
            r#"{"cmd":"update_demands","updates":[["JANET-NL",10800000],["NL-DE",12345.678]]}"#,
            r#"{"cmd":"fail_link","a":"FR","b":"LU"}"#,
            r#"{"cmd":"restore_link","a":"FR","b":"LU"}"#,
            r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":500.25}"#,
            r#"{"cmd":"remove_od","name":"X"}"#,
            r#"{"cmd":"set_theta","theta":90000}"#,
            r#"{"cmd":"query_rates"}"#,
            r#"{"cmd":"query_accuracy","runs":5,"seed":9}"#,
            r#"{"cmd":"snapshot"}"#,
            r#"{"cmd":"rollback"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"metrics"}"#,
            r#"{"cmd":"health"}"#,
            r#"{"cmd":"ping"}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            let req = parse_request(line).unwrap();
            let encoded = req.to_json().encode();
            assert_eq!(
                parse_request(&encoded).unwrap(),
                req,
                "{line} re-encoded as {encoded}"
            );
            assert!(!encoded.contains('\n'), "WAL payloads are single-line");
        }
    }

    #[test]
    fn state_changing_classification() {
        let state_changing = |line: &str| parse_request(line).unwrap().is_state_changing();
        assert!(state_changing(r#"{"cmd":"set_theta","theta":1}"#));
        assert!(state_changing(r#"{"cmd":"snapshot"}"#));
        assert!(state_changing(r#"{"cmd":"rollback"}"#));
        assert!(!state_changing(r#"{"cmd":"query_rates"}"#));
        assert!(!state_changing(r#"{"cmd":"health"}"#));
        assert!(!state_changing(r#"{"cmd":"ping"}"#));
        assert!(!state_changing(r#"{"cmd":"shutdown"}"#));
    }

    #[test]
    fn accuracy_defaults_apply() {
        let r = parse_request(r#"{"cmd":"query_accuracy"}"#).unwrap();
        assert_eq!(r, Request::QueryAccuracy { runs: 20, seed: 1 });
    }

    #[test]
    fn mutating_classification() {
        assert!(parse_request(r#"{"cmd":"set_theta","theta":1}"#)
            .unwrap()
            .is_mutating());
        assert!(
            parse_request(r#"{"cmd":"update_demands","updates":[["X",5]]}"#)
                .unwrap()
                .is_mutating()
        );
        assert!(!parse_request(r#"{"cmd":"query_rates"}"#)
            .unwrap()
            .is_mutating());
        assert!(!parse_request(r#"{"cmd":"snapshot"}"#)
            .unwrap()
            .is_mutating());
    }

    #[test]
    fn every_command_has_one_access_class() {
        let reads = ["query_rates", "stats", "health", "metrics", "ping"];
        let mutates = [
            "update_demand",
            "update_demands",
            "fail_link",
            "restore_link",
            "add_od",
            "remove_od",
            "set_theta",
        ];
        let others = [
            "query_accuracy",
            "snapshot",
            "rollback",
            "shutdown",
            "invalid",
        ];
        for (names, class) in [
            (&reads[..], Access::Read),
            (&mutates[..], Access::Mutate),
            (&others[..], Access::Other),
        ] {
            for name in names {
                assert_eq!(access(name), class, "{name}");
            }
        }
        // Every parseable command is listed above, under its wire name.
        for line in [
            r#"{"cmd":"update_demand","od":"X","size":2}"#,
            r#"{"cmd":"update_demands","updates":[["X",5]]}"#,
            r#"{"cmd":"fail_link","a":"FR","b":"DE"}"#,
            r#"{"cmd":"restore_link","a":"FR","b":"DE"}"#,
            r#"{"cmd":"add_od","name":"N","src":"FR","dst":"DE","size":2}"#,
            r#"{"cmd":"remove_od","name":"N"}"#,
            r#"{"cmd":"set_theta","theta":1}"#,
            r#"{"cmd":"query_rates"}"#,
            r#"{"cmd":"query_accuracy"}"#,
            r#"{"cmd":"snapshot"}"#,
            r#"{"cmd":"rollback"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"metrics"}"#,
            r#"{"cmd":"health"}"#,
            r#"{"cmd":"ping"}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            let req = parse_request(line).unwrap();
            let name = req.name();
            assert!(reads.contains(&name) || mutates.contains(&name) || others.contains(&name));
            assert_eq!(req.is_read_only(), reads.contains(&name), "{name}");
            assert_eq!(req.is_mutating(), mutates.contains(&name), "{name}");
        }
    }

    #[test]
    fn bad_requests_rejected() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"cmd":"warp"}"#,
            r#"{"od":"X","size":1}"#,
            r#"{"cmd":"update_demand","od":"X"}"#,
            r#"{"cmd":"update_demand","od":7,"size":1}"#,
            r#"{"cmd":"fail_link","a":"FR"}"#,
            r#"{"cmd":"query_accuracy","runs":0}"#,
            r#"{"cmd":"query_accuracy","runs":2.5}"#,
            r#"{"cmd":"query_accuracy","seed":-1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_sizes_and_theta_rejected_at_boundary() {
        // Regression: these payloads used to parse cleanly and then trip
        // `SreUtility`'s assertions inside the event loop. The boundary
        // must reject them with an error the daemon can answer.
        for bad in [
            r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":0.5}"#,
            r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":1}"#,
            r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":-3}"#,
            r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":1e999}"#,
            r#"{"cmd":"update_demand","od":"X","size":0}"#,
            r#"{"cmd":"update_demand","od":"X","size":0.9999}"#,
            r#"{"cmd":"set_theta","theta":0}"#,
            r#"{"cmd":"set_theta","theta":-5}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(
                err.contains("must be a finite") || err.contains("non-finite"),
                "{bad:?} -> {err}"
            );
        }
        // The legitimate edge just above the threshold still parses.
        assert!(
            parse_request(r#"{"cmd":"add_od","name":"X","src":"UK","dst":"DE","size":1.001}"#)
                .is_ok()
        );
    }

    #[test]
    fn request_id_envelope_parses_and_validates() {
        let inc =
            parse_incoming(r#"{"cmd":"set_theta","theta":80000,"request_id":"c1-7"}"#).unwrap();
        assert_eq!(inc.req, Request::SetTheta { theta: 80_000.0 });
        assert_eq!(inc.request_id.as_deref(), Some("c1-7"));
        assert_eq!(inc.dedup_key(), Some("c1-7"));

        // Reads carry the id (echoed for correlation) but never dedup.
        let read = parse_incoming(r#"{"cmd":"query_rates","request_id":"c1-8"}"#).unwrap();
        assert_eq!(read.request_id.as_deref(), Some("c1-8"));
        assert_eq!(read.dedup_key(), None);

        // Absent id: plain request, no dedup.
        let bare = parse_incoming(r#"{"cmd":"snapshot"}"#).unwrap();
        assert_eq!(bare.request_id, None);
        assert_eq!(bare.dedup_key(), None);

        // parse_request tolerates (and drops) the envelope, so WAL records
        // carrying ids replay through the same boundary.
        let req = parse_request(r#"{"cmd":"rollback","request_id":"x"}"#).unwrap();
        assert_eq!(req, Request::Rollback);

        let long = "x".repeat(MAX_REQUEST_ID_BYTES + 1);
        for bad in [
            r#"{"cmd":"ping","request_id":""}"#.to_string(),
            r#"{"cmd":"ping","request_id":7}"#.to_string(),
            format!(r#"{{"cmd":"ping","request_id":"{long}"}}"#),
        ] {
            assert!(parse_incoming(&bad).is_err(), "accepted {bad:?}");
        }
        // The cap itself is accepted.
        let max = "x".repeat(MAX_REQUEST_ID_BYTES);
        assert!(parse_incoming(&format!(r#"{{"cmd":"ping","request_id":"{max}"}}"#)).is_ok());
    }

    #[test]
    fn mixed_demand_batches_rejected_atomically() {
        // One bad entry anywhere in the batch fails the whole line at the
        // protocol boundary — the state layer never sees a partial batch.
        for bad in [
            r#"{"cmd":"update_demands"}"#,
            r#"{"cmd":"update_demands","updates":[]}"#,
            r#"{"cmd":"update_demands","updates":"X"}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],["Y"]]}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],[7,9]]}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],["Y","big"]]}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],["Y",0.5]]}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],["Y",1e999]]}"#,
            r#"{"cmd":"update_demands","updates":[["X",5],["X",6]]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_request(r#"{"cmd":"update_demands","updates":[["X",1.001]]}"#).is_ok());
    }

    /// A batch at the cap is the largest line a client may send; checking
    /// its OD names pairwise would hold the connection's reader for
    /// seconds.
    #[test]
    fn full_batch_parses_in_linear_time() {
        let entries: Vec<String> = (0..MAX_BATCH)
            .map(|i| format!("[\"od{i}\",{}]", 2 + i))
            .collect();
        let line = |body: &[String]| {
            format!(
                r#"{{"cmd":"update_demands","updates":[{}]}}"#,
                body.join(",")
            )
        };
        let t0 = std::time::Instant::now();
        let req = parse_request(&line(&entries)).expect("a full batch parses");
        let took = t0.elapsed();
        let Request::UpdateDemands { updates } = req else {
            panic!("parsed as {req:?}")
        };
        assert_eq!(updates.len(), MAX_BATCH);
        assert_eq!(
            updates[MAX_BATCH - 1],
            (format!("od{}", MAX_BATCH - 1), (MAX_BATCH + 1) as f64)
        );
        assert!(
            took < crate::json::LINEAR_LIMIT,
            "a {MAX_BATCH}-entry batch took {took:?}"
        );
        // A duplicate placed last is still caught.
        let mut dup = entries;
        dup[MAX_BATCH - 1] = "[\"od0\",5]".into();
        let err = parse_request(&line(&dup)).unwrap_err();
        assert_eq!(
            err,
            format!(
                "updates[{}] duplicates OD 'od0' in the batch",
                MAX_BATCH - 1
            )
        );
    }
}
