//! `health`'s SLI windows read the daemon's one counter registry: after a
//! TCP session of lock-free reads, a read queued behind its own
//! connection's mutate, mutates, an unparseable line and a rejected
//! event, every kind's 60 s window holds exactly the sum of its registry
//! counters in the `metrics` payload.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_service::json::{parse, Json};
use nws_service::protocol::{access, Access};
use nws_service::{Daemon, DaemonOptions, NetOptions, Server, ServiceState};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Client {
    writer: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Client {
    /// Sends `lines` in one write, so the later ones queue behind the
    /// earlier ones' replies.
    fn send(&mut self, lines: &[&str]) {
        let mut batch = lines.join("\n");
        batch.push('\n');
        self.writer.write_all(batch.as_bytes()).expect("send");
    }

    fn read(&mut self) -> Json {
        let mut buf = String::new();
        assert!(self.lines.read_line(&mut buf).expect("read") > 0, "EOF");
        parse(buf.trim()).expect("daemon emits valid JSON")
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send(&[line]);
        self.read()
    }
}

fn ok(answer: &Json) -> bool {
    answer.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn health_windows_equal_the_registry_sums() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        ..NetOptions::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr");
    let serving = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let lines = BufReader::new(stream.try_clone().expect("clone"));
    let mut c = Client {
        writer: stream,
        lines,
    };
    assert_eq!(c.read().get("cmd").and_then(Json::as_str), Some("hello"));

    // Lock-free reads: each waits for its answer, so none queues.
    for cmd in ["ping", "query_rates", "stats"] {
        assert!(
            ok(&c.round_trip(&format!("{{\"cmd\":\"{cmd}\"}}"))),
            "{cmd}"
        );
    }
    // A read pipelined behind its own connection's mutate queues.
    c.send(&[
        "{\"cmd\":\"set_theta\",\"theta\":90000}",
        "{\"cmd\":\"query_rates\"}",
    ]);
    assert!(ok(&c.read()));
    assert_eq!(c.read().get("theta").and_then(Json::as_f64), Some(90_000.0));
    assert!(ok(&c.round_trip(
        "{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":31000}"
    )));
    // An unparseable line and a rejected event: two errors.
    assert!(!ok(&c.round_trip("this is not json")));
    assert!(!ok(&c.round_trip(
        "{\"cmd\":\"update_demand\",\"od\":\"NOPE\",\"size\":5}"
    )));

    let health = c.round_trip("{\"cmd\":\"health\"}");
    let metrics = c.round_trip("{\"cmd\":\"metrics\"}");
    assert!(ok(&c.round_trip("{\"cmd\":\"shutdown\"}")));
    serving.join().expect("daemon thread");

    // The table of DESIGN.md §9, summed from the `metrics` counters.
    let Some(Json::Obj(counters)) = metrics.get("metrics").and_then(|m| m.get("counters")) else {
        panic!("metrics carries counters: {}", metrics.encode());
    };
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or_else(|| panic!("{name} in {}", metrics.encode()))
    };
    let requests_of = |class: Option<Access>| -> u64 {
        counters
            .iter()
            .filter_map(|(k, v)| {
                let cmd = k.strip_prefix("daemon_requests_total{cmd=\"")?;
                let cmd = cmd.strip_suffix("\"}")?;
                class
                    .is_none_or(|class| access(cmd) == class)
                    .then(|| v.as_u64().expect("a count"))
            })
            .sum()
    };
    let shed = counter("daemon_overload_shed_total");
    // `health` answered before the `metrics` request was counted.
    let expected = [
        ("requests", requests_of(None) + shed - 1),
        ("reads", requests_of(Some(Access::Read)) - 1),
        ("mutates", requests_of(Some(Access::Mutate))),
        ("shed", shed),
        ("degraded_solves", counter("degraded_solves")),
        ("errors", counter("daemon_errors_total")),
    ];
    let window = health
        .get("rates")
        .and_then(|r| r.get("60s"))
        .unwrap_or_else(|| panic!("health carries rates: {}", health.encode()));
    for (kind, sum) in expected {
        let rate = window.get(kind).and_then(Json::as_f64).expect(kind);
        assert_eq!(
            (rate * 60.0).round() as u64,
            sum,
            "{kind}: {}",
            health.encode()
        );
    }
    // The session's own tally: 3 lock-free reads, 1 queued read and
    // `health`; 3 mutates, the rejected one included; 1 invalid line.
    let counts: Vec<u64> = expected.iter().map(|(_, n)| *n).collect();
    assert_eq!(counts, vec![9, 5, 3, 0, 0, 2]);
}
