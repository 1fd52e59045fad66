//! `nws-client`: a resilient client for the daemon's JSON-lines protocol.
//!
//! The daemon's serving layer survives hostile networks (see DESIGN.md
//! §15); this crate is the matching client half. A [`Client`] owns one
//! logical session to a daemon and hides the physical connections under
//! it:
//!
//! - **Reconnection** — a dropped, reset, or timed-out connection is
//!   replaced transparently, with jittered exponential backoff between
//!   attempts (deterministic per [`ClientConfig::jitter_seed`], so chaos
//!   harness runs replay byte-for-byte).
//! - **Per-request deadlines** — every request bounds its response wait
//!   by [`ClientConfig::request_timeout_ms`]; a deadline miss drops the
//!   connection and retries like any other transport fault.
//! - **Exactly-once mutations** — every state-changing request is stamped
//!   with a client-generated idempotency key (`request_id`) *once*, and
//!   the same key is reused across retries and reconnects. The daemon's
//!   dedup window recognises redelivery and replays the original ack, so
//!   a retry storm applies each mutation exactly once.
//! - **Overload cooperation** — an `overloaded` shed is retried after the
//!   daemon's own `retry_after_ms` hint rather than hammering the queue.
//!
//! Semantic errors (`"ok": false` with any other error text) are returned
//! to the caller, not retried: the daemon *answered*; the answer was no.
//!
//! ```no_run
//! use nws_client::{Client, ClientConfig};
//! use nws_service::Request;
//!
//! let mut client = Client::new(ClientConfig::new("127.0.0.1:7070"));
//! let ack = client.request(&Request::UpdateDemand {
//!     od: "JANET-NL".into(),
//!     size: 2.5e6,
//! })?;
//! assert_eq!(ack.get("ok").and_then(nws_service::json::Json::as_bool), Some(true));
//! # Ok::<(), nws_client::ClientError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use nws_service::json::{parse, Json};
use nws_service::protocol::parse_incoming;
use nws_service::Request;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Configuration for one [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon TCP address (`host:port`).
    pub addr: String,
    /// Per-connection-attempt timeout, milliseconds.
    pub connect_timeout_ms: u64,
    /// Per-request response deadline, milliseconds: a response that takes
    /// longer counts as a transport fault (reconnect + retry).
    pub request_timeout_ms: u64,
    /// First backoff delay, milliseconds (doubled per consecutive
    /// failure).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Attempts per request (first try + retries) before
    /// [`ClientError::Exhausted`].
    pub max_attempts: u32,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Prefix of generated idempotency keys. Give every concurrent client
    /// a distinct id or their keys may collide in the daemon's dedup
    /// window.
    pub client_id: String,
}

impl ClientConfig {
    /// Defaults: 1 s connects, 5 s request deadline, 10→500 ms backoff,
    /// 8 attempts, client id `"nws"`.
    pub fn new(addr: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            connect_timeout_ms: 1_000,
            request_timeout_ms: 5_000,
            backoff_base_ms: 10,
            backoff_max_ms: 500,
            max_attempts: 8,
            jitter_seed: 1,
            client_id: "nws".into(),
        }
    }
}

/// Why a request could not be answered.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt failed at the transport level (connect failures,
    /// resets, deadline misses, overload sheds). `last` describes the
    /// final failure.
    Exhausted {
        /// Attempts made (= [`ClientConfig::max_attempts`]).
        attempts: u32,
        /// The last transport-level failure, as text.
        last: String,
    },
    /// The request line itself is malformed (raw-line API only).
    BadRequest(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            ClientError::BadRequest(msg) => write!(f, "bad request line: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Transport-level counters a harness can assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful connections established (first + re-connections).
    pub connects: u64,
    /// Connections beyond the first — i.e. recoveries from a fault.
    pub reconnects: u64,
    /// Request attempts beyond each request's first try.
    pub retries: u64,
    /// Newline-terminated response lines that failed to parse. The daemon
    /// guarantees line-atomic writes, so this must stay 0 — the chaos
    /// harness asserts exactly that.
    pub torn_lines: u64,
    /// `overloaded` sheds honored (slept, then retried).
    pub overload_sheds: u64,
    /// Acks carrying `"duplicate": true` — the daemon recovered the
    /// request id from its WAL and confirmed the mutation was already
    /// applied.
    pub duplicate_acks: u64,
    /// Request lines written to a socket (including re-sends).
    pub requests_sent: u64,
}

/// One live physical connection: split read/write halves of one stream.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A reconnecting, deadline-bounded, exactly-once client session.
#[derive(Debug)]
pub struct Client {
    cfg: ClientConfig,
    conn: Option<ConnDebug>,
    rng: u64,
    next_id: u64,
    stats: ClientStats,
}

/// `Conn` holds a `BufReader` (no useful `Debug`); wrap it so `Client`
/// can still derive `Debug` for error reporting.
struct ConnDebug(Conn);

impl std::fmt::Debug for ConnDebug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Conn")
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Client {
    /// Creates a client; no connection is made until the first request.
    pub fn new(cfg: ClientConfig) -> Self {
        let rng = splitmix64(cfg.jitter_seed ^ 0x636c_6965_6e74); // "client"
        Client {
            cfg,
            conn: None,
            rng,
            next_id: 0,
            stats: ClientStats::default(),
        }
    }

    /// Transport counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sends one typed request and returns the daemon's response object.
    ///
    /// State-changing requests are stamped with a fresh idempotency key;
    /// the key is reused verbatim across retries, so redelivery after a
    /// fault is applied exactly once by the daemon.
    ///
    /// # Errors
    /// [`ClientError::Exhausted`] when every attempt failed at the
    /// transport level. A semantic `"ok": false` response is an `Ok`
    /// return — inspect the object.
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let mut line = req.to_json();
        if req.is_state_changing() {
            let id = self.fresh_id();
            if let Json::Obj(pairs) = &mut line {
                pairs.push(("request_id".to_string(), Json::Str(id)));
            }
        }
        self.exchange(&line.encode())
    }

    /// Sends one raw request line (no trailing newline). A state-changing
    /// line that lacks a `request_id` gets one injected, so raw-line
    /// workloads keep exactly-once semantics; a line that already carries
    /// one is sent untouched.
    ///
    /// # Errors
    /// [`ClientError::BadRequest`] when the line does not parse as a
    /// request; [`ClientError::Exhausted`] as for [`Client::request`].
    pub fn request_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        let inc = parse_incoming(line.trim()).map_err(ClientError::BadRequest)?;
        if inc.request_id.is_none() && inc.req.is_state_changing() {
            let id = self.fresh_id();
            let mut doc = inc.req.to_json();
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("request_id".to_string(), Json::Str(id)));
            }
            return self.exchange(&doc.encode());
        }
        self.exchange(line.trim())
    }

    /// Requests a clean daemon shutdown. A lost `bye` ack is tolerated —
    /// the daemon tearing the connection down while going away is the
    /// expected race — so the return distinguishes "acked" (`Some`) from
    /// "sent, ack lost" (`None`).
    ///
    /// # Errors
    /// [`ClientError::Exhausted`] only when the shutdown line could not
    /// be *written* to any connection at all.
    pub fn shutdown(&mut self) -> Result<Option<Json>, ClientError> {
        let line = Request::Shutdown.to_json().encode();
        let attempts = self.cfg.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                self.sleep_backoff(attempt - 1);
            }
            let had_conn = self.conn.is_some();
            match self.attempt(&line) {
                Ok(resp) => return Ok(Some(resp)),
                Err(e) => {
                    self.drop_conn();
                    // The write went out on an established connection and
                    // only the ack is missing: the daemon is either down
                    // already or draining — both mean shutdown succeeded.
                    if had_conn {
                        return Ok(None);
                    }
                    last = e;
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// A fresh idempotency key: `<client_id>-<seed tag>-<counter>`.
    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!(
            "{}-{:08x}-{}",
            self.cfg.client_id,
            splitmix64(self.cfg.jitter_seed) as u32,
            self.next_id
        )
    }

    /// The full retry loop around one prepared line.
    fn exchange(&mut self, line: &str) -> Result<Json, ClientError> {
        let attempts = self.cfg.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            match self.attempt(line) {
                Ok(resp) => {
                    if is_overloaded(&resp) {
                        // Cooperate with the shedder: honor its hint (but
                        // still jitter so synchronized clients desync).
                        self.stats.overload_sheds += 1;
                        last = "overloaded".into();
                        let hint = resp
                            .get("retry_after_ms")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        std::thread::sleep(
                            Duration::from_millis(hint) + self.jittered(self.cfg.backoff_base_ms),
                        );
                        continue;
                    }
                    if resp.get("duplicate").and_then(Json::as_bool) == Some(true) {
                        self.stats.duplicate_acks += 1;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.drop_conn();
                    last = e;
                    self.sleep_backoff(attempt);
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One write + read over the current (or a fresh) connection. Any
    /// `Err` means "transport fault; reconnect and retry".
    fn attempt(&mut self, line: &str) -> Result<Json, String> {
        self.ensure_connected()?;
        let conn = &mut self.conn.as_mut().expect("just connected").0;
        self.stats.requests_sent += 1;
        conn.writer
            .write_all(line.as_bytes())
            .and_then(|()| conn.writer.write_all(b"\n"))
            .and_then(|()| conn.writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut conn.reader, &mut self.stats)
    }

    /// Connects (if needed), applies the deadline, and consumes the
    /// greeting line.
    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let addr = resolve(&self.cfg.addr)?;
        let stream = TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(self.cfg.connect_timeout_ms.max(1)),
        )
        .map_err(|e| format!("connect {}: {e}", self.cfg.addr))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(
                self.cfg.request_timeout_ms.max(1),
            )))
            .map_err(|e| format!("set deadline: {e}"))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        // First line is the daemon's hello (or a `too_many_connections`
        // error, which is a failed connect from the session's viewpoint).
        let greeting = read_response(&mut conn.reader, &mut self.stats)?;
        match greeting.get("cmd") {
            Some(Json::Str(cmd)) if cmd == "hello" => {}
            _ => {
                let text = greeting.encode();
                return Err(format!("expected hello greeting, got: {text}"));
            }
        }
        if self.stats.connects > 0 {
            self.stats.reconnects += 1;
        }
        self.stats.connects += 1;
        self.conn = Some(ConnDebug(conn));
        Ok(())
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// Sleeps the backoff for the given retry index.
    fn sleep_backoff(&mut self, attempt: u32) {
        let delay = self.backoff_delay(attempt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// The jittered exponential backoff for the given retry index:
    /// `backoff_base_ms · 2^min(attempt, 16)`, capped at `backoff_max_ms`.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cfg.backoff_max_ms);
        self.jittered(exp)
    }

    /// Half-fixed half-random jitter: `ms/2 + rng % (ms/2 + 1)`,
    /// deterministic per seed.
    fn jittered(&mut self, ms: u64) -> Duration {
        self.rng = splitmix64(self.rng);
        let half = ms / 2;
        Duration::from_millis(half + self.rng % (half + 1))
    }

    /// The backoff delays a fresh client would sleep, in milliseconds.
    #[cfg(test)]
    fn backoff_preview(cfg: &ClientConfig, retries: u32) -> Vec<u64> {
        let mut c = Client::new(cfg.clone());
        (0..retries)
            .map(|attempt| c.backoff_delay(attempt).as_millis() as u64)
            .collect()
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))
}

fn is_overloaded(resp: &Json) -> bool {
    matches!(resp.get("error"), Some(Json::Str(e)) if e == "overloaded")
}

/// Reads one newline-terminated response. Distinguishes the two failure
/// shapes the chaos harness cares about: a line that *ends* (has its
/// `\n`) but does not parse is a **torn line** — a daemon atomicity bug,
/// counted in [`ClientStats::torn_lines`] — while bytes cut off before
/// any `\n` are an ordinary connection death (reconnect and retry).
fn read_response(
    reader: &mut BufReader<TcpStream>,
    stats: &mut ClientStats,
) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed by daemon".into()),
        Ok(_) if !line.ends_with('\n') => Err("connection died mid-line".into()),
        Ok(_) => match parse(line.trim()) {
            Ok(resp @ Json::Obj(_)) => Ok(resp),
            Ok(_) | Err(_) => {
                stats.torn_lines += 1;
                Err(format!("torn response line: {:?}", line.trim()))
            }
        },
        Err(e) => Err(format!("read: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Same seed → the same jittered backoff schedule; different seeds →
    /// (almost surely) different ones. Deterministic retries are what let
    /// the chaos harness double-run byte-identically.
    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let mut cfg = ClientConfig::new("127.0.0.1:1");
        cfg.backoff_base_ms = 8;
        cfg.backoff_max_ms = 64;
        cfg.jitter_seed = 7;
        let a = Client::backoff_preview(&cfg, 8);
        let b = Client::backoff_preview(&cfg, 8);
        assert_eq!(a, b);
        for (i, ms) in a.iter().enumerate() {
            let exp = (8u64 << i.min(16)).min(64);
            assert!(
                *ms >= exp / 2 && *ms <= exp,
                "delay {ms} out of [{}, {exp}]",
                exp / 2
            );
        }
        cfg.jitter_seed = 8;
        assert_ne!(a, Client::backoff_preview(&cfg, 8));
    }

    /// Idempotency keys are unique per request and namespaced by client.
    #[test]
    fn fresh_ids_are_unique_and_namespaced() {
        let mut cfg = ClientConfig::new("127.0.0.1:1");
        cfg.client_id = "c7".into();
        let mut c = Client::new(cfg.clone());
        let a = c.fresh_id();
        let b = c.fresh_id();
        assert_ne!(a, b);
        assert!(a.starts_with("c7-"), "{a}");
        let mut other = Client::new(ClientConfig {
            client_id: "c8".into(),
            ..cfg
        });
        assert_ne!(a, other.fresh_id());
    }

    /// A newline-terminated garbage line counts as torn; a cut-off line
    /// counts as a connection death (and not as torn).
    #[test]
    fn torn_vs_truncated_classification() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut a, _) = listener.accept().unwrap();
            a.write_all(b"{\"truncated\":\n").unwrap(); // torn: has its newline
            let (mut b, _) = listener.accept().unwrap();
            b.write_all(b"{\"cut").unwrap(); // truncated: dies mid-line
        });
        let mut stats = ClientStats::default();
        let s1 = TcpStream::connect(addr).unwrap();
        let err = read_response(&mut BufReader::new(s1), &mut stats).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        assert_eq!(stats.torn_lines, 1);
        let s2 = TcpStream::connect(addr).unwrap();
        let err = read_response(&mut BufReader::new(s2), &mut stats).unwrap_err();
        assert!(err.contains("mid-line") || err.contains("closed"), "{err}");
        assert_eq!(stats.torn_lines, 1, "truncation is not a torn line");
        server.join().unwrap();
    }

    /// The raw-line API injects an idempotency key on state-changing
    /// lines that lack one, and leaves caller-provided keys untouched.
    #[test]
    fn raw_lines_get_ids_injected() {
        // No daemon listening: the exchange exhausts instantly with
        // 1 attempt and no backoff, letting us probe only the id logic.
        let mut cfg = ClientConfig::new("127.0.0.1:1");
        cfg.max_attempts = 1;
        cfg.connect_timeout_ms = 10;
        cfg.backoff_base_ms = 0;
        let mut c = Client::new(cfg);
        assert!(matches!(
            c.request_raw("{\"cmd\":\"set_theta\""),
            Err(ClientError::BadRequest(_))
        ));
        let before = c.next_id;
        let _ = c.request_raw("{\"cmd\":\"set_theta\",\"theta\":2.0}");
        assert_eq!(c.next_id, before + 1, "state-changing line got an id");
        let _ = c.request_raw("{\"cmd\":\"set_theta\",\"theta\":2.0,\"request_id\":\"mine\"}");
        assert_eq!(c.next_id, before + 1, "caller-provided id kept");
        let _ = c.request_raw("{\"cmd\":\"query_rates\"}");
        assert_eq!(c.next_id, before + 1, "reads carry no id");
    }
}
