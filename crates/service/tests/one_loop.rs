//! Stdio and sockets are connections of one event loop: the same bytes in
//! give the same answers out, whichever transport carries them.
//!
//! - A read pipelined behind its own connection's write observes that
//!   write, over TCP as over stdio.
//! - A non-UTF-8 stdio line is answered with an error and the session
//!   goes on, as over TCP.
//! - The canonical session fixture gives line-for-line equal answers
//!   through `Daemon::run` and pipelined over one TCP connection.
//! - `Daemon::run` returns after `shutdown` even while its input stays
//!   open.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_service::json::{parse, Json};
use nws_service::{Daemon, DaemonOptions, DaemonSummary, NetOptions, Server, ServiceState};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

fn daemon() -> Daemon {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    Daemon::new(state, DaemonOptions::default())
}

/// Boots a daemon on an ephemeral loopback port.
fn boot_tcp() -> (SocketAddr, std::thread::JoinHandle<DaemonSummary>) {
    let mut daemon = daemon();
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        ..NetOptions::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || daemon.serve(server).expect("serve"));
    (addr, handle)
}

/// One TCP connection, past its `hello` line.
struct Conn {
    writer: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut conn = Conn {
            lines: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        };
        let hello = conn.read_line().expect("hello");
        assert!(hello.contains("\"cmd\":\"hello\""), "{hello}");
        conn
    }

    /// Sends every line in one write, without waiting for answers.
    fn pipeline(&mut self, lines: &[&str]) {
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        self.writer.write_all(buf.as_bytes()).expect("send");
    }

    /// The next response line; `None` on EOF.
    fn read_line(&mut self) -> Option<String> {
        let mut buf = String::new();
        let n = self.lines.read_line(&mut buf).expect("read line");
        (n > 0).then(|| buf.trim_end().to_string())
    }
}

/// Runs `input` through `Daemon::run`; returns the output lines.
fn run_stdio(input: impl BufRead + Send) -> (Vec<String>, DaemonSummary) {
    let mut out = Vec::new();
    let summary = daemon().run(input, &mut out).expect("run");
    let text = String::from_utf8(out).expect("daemon output is UTF-8");
    (text.lines().map(str::to_string).collect(), summary)
}

fn json(line: &str) -> Json {
    parse(line).unwrap_or_else(|e| panic!("invalid JSON {line}: {e:?}"))
}

#[test]
fn pipelined_read_over_tcp_sees_its_own_write() {
    let (addr, daemon) = boot_tcp();
    let mut conn = Conn::open(addr);
    for round in 0..40u32 {
        let theta = 70_000 + 500 * round;
        conn.pipeline(&[
            &format!("{{\"cmd\":\"set_theta\",\"theta\":{theta}}}"),
            "{\"cmd\":\"query_rates\"}",
        ]);
        let ack = json(&conn.read_line().expect("ack"));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        let rates = json(&conn.read_line().expect("rates"));
        assert_eq!(
            rates.get("theta").and_then(Json::as_f64),
            Some(f64::from(theta)),
            "round {round}: the pipelined read must see its own write"
        );
        assert_eq!(
            rates.get("epoch").and_then(Json::as_u64),
            ack.get("epoch").and_then(Json::as_u64),
            "round {round}"
        );
    }
    conn.pipeline(&["{\"cmd\":\"shutdown\"}"]);
    assert!(conn.read_line().expect("bye").contains("\"bye\":true"));
    assert!(daemon.join().expect("daemon thread").clean_shutdown);
}

#[test]
fn non_utf8_stdio_line_is_answered_and_the_session_goes_on() {
    let mut input = b"{\"cmd\":\"ping\"}\n".to_vec();
    input.extend_from_slice(b"{\"cmd\":\"p\xffng\"}\n");
    input.extend_from_slice(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n");
    let (lines, summary) = run_stdio(Cursor::new(input));
    assert_eq!(lines.len(), 5, "hello + one answer per line: {lines:?}");
    assert!(lines[1].contains("\"pong\":true"), "{}", lines[1]);
    assert!(lines[2].contains("\"ok\":false"), "{}", lines[2]);
    assert!(lines[3].contains("\"pong\":true"), "{}", lines[3]);
    assert!(lines[4].contains("\"bye\":true"), "bye is the last line");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.requests, 4);
}

#[test]
fn stdio_and_pipelined_tcp_answer_the_fixture_alike() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/serve_session.jsonl");
    let script = std::fs::read_to_string(&path).expect("fixture");
    let requests: Vec<&str> = script.lines().collect();

    let (stdio, summary) = run_stdio(Cursor::new(script.clone()));
    assert!(summary.clean_shutdown);
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, requests.len() as u64);

    let (addr, daemon) = boot_tcp();
    let mut conn = Conn::open(addr);
    conn.pipeline(&requests);
    let tcp: Vec<String> = std::iter::from_fn(|| conn.read_line()).collect();
    daemon.join().expect("daemon thread");

    // Line 0 is each transport's greeting; then one answer per request.
    assert_eq!(stdio.len(), 1 + requests.len());
    assert_eq!(tcp.len(), requests.len(), "EOF right after bye");
    for (i, (s, t)) in stdio[1..].iter().zip(&tcp).enumerate() {
        let (s, t) = (json(s), json(t));
        for key in ["ok", "cmd", "epoch"] {
            assert_eq!(
                s.get(key).map(Json::encode),
                t.get(key).map(Json::encode),
                "request {i} ({}): '{key}' differs",
                requests[i]
            );
        }
        if requests[i].contains("query_rates") {
            assert!(s.get("seq").is_none(), "reads carry epoch, not seq");
            assert_eq!(s.encode(), t.encode(), "query_rates bytes differ");
        }
    }
}

/// Yields `script`, then blocks until the test drops the gate's sender.
struct OpenAfterScript {
    script: Cursor<Vec<u8>>,
    gate: mpsc::Receiver<()>,
}

impl Read for OpenAfterScript {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.script.read(buf)? {
            0 => {
                let _ = self.gate.recv();
                Ok(0)
            }
            n => Ok(n),
        }
    }
}

#[test]
fn run_returns_after_shutdown_while_input_stays_open() {
    let (gate_tx, gate) = mpsc::channel::<()>();
    let input = BufReader::new(OpenAfterScript {
        script: Cursor::new(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"shutdown\"}\n".to_vec()),
        gate,
    });
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run_stdio(input));
    });
    let outcome = done.recv_timeout(Duration::from_secs(60));
    drop(gate_tx); // releases a reader still blocked on the open input
    let (lines, summary) = outcome.expect("run must return without input EOF");
    assert!(summary.clean_shutdown);
    assert_eq!(lines.len(), 3);
    assert!(lines[2].contains("\"bye\":true"));
}
