//! `stats` reads the daemon's one counter registry: every count it
//! answers equals its instrument in the `metrics` payload, the
//! per-command counts add up to the request total (lock-free reads
//! included), counts moved without a publish show at once, and the run
//! summary agrees with both at shutdown.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_service::json::{parse, Json};
use nws_service::{Daemon, DaemonOptions, DaemonSummary, NetOptions, Server, ServiceState};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn boot_tcp(opts: DaemonOptions) -> (SocketAddr, JoinHandle<DaemonSummary>) {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, opts);
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        ..NetOptions::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr");
    (
        addr,
        std::thread::spawn(move || daemon.serve(server).expect("serve")),
    )
}

struct Client {
    writer: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let lines = BufReader::new(stream.try_clone().expect("clone"));
        let mut client = Client {
            writer: stream,
            lines,
        };
        assert_eq!(
            client.read().get("cmd").and_then(Json::as_str),
            Some("hello")
        );
        client
    }

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

fn uint(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} is a count in {}", v.encode()))
}

/// `stats`' `per_command` members, in order.
fn per_command(stats: &Json) -> Vec<(String, u64)> {
    match stats.get("per_command") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(cmd, n)| (cmd.clone(), n.as_u64().expect("a count")))
            .collect(),
        _ => panic!("per_command is an object: {}", stats.encode()),
    }
}

/// The `(count, sum)` of every histogram in a `metrics` payload whose name
/// starts with `prefix`.
fn histogram(metrics: &Json, prefix: &str) -> (u64, f64) {
    let mut out = (0, 0.0);
    for h in metrics
        .get("histograms")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if h.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .starts_with(prefix)
        {
            out.0 += uint(h, "count");
            out.1 += h.get("sum").and_then(Json::as_f64).unwrap_or(f64::NAN);
        }
    }
    out
}

#[test]
fn stats_reads_every_count_from_the_registry() {
    let (addr, daemon) = boot_tcp(DaemonOptions {
        shadow_cold: true,
        coalesce_ms: 100,
        ..DaemonOptions::default()
    });
    let mut c = Client::connect(addr);

    // Lock-free reads: each waits for its answer, so none queues.
    for cmd in ["ping", "query_rates", "health"] {
        let answer = c.round_trip(&format!("{{\"cmd\":\"{cmd}\"}}"));
        assert_eq!(
            answer.get("ok").and_then(Json::as_bool),
            Some(true),
            "{cmd}"
        );
    }
    // A read pipelined behind its own connection's mutation queues.
    c.send(&[
        "{\"cmd\":\"set_theta\",\"theta\":90000}",
        "{\"cmd\":\"query_rates\"}",
    ]);
    assert_eq!(c.read().get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(c.read().get("theta").and_then(Json::as_f64), Some(90_000.0));

    // An unknown OD with the coalesce buffer empty is answered at once,
    // without a publish; the next `stats` must count the error anyway.
    let unknown = c.round_trip("{\"cmd\":\"update_demand\",\"od\":\"NOPE\",\"size\":5}");
    assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));
    let stats = c.round_trip("{\"cmd\":\"stats\"}");
    let stats = stats.get("stats").expect("stats payload");
    assert_eq!(uint(stats, "errors"), 1, "{}", stats.encode());
    let sum: u64 = per_command(stats).iter().map(|(_, n)| n).sum();
    assert_eq!(sum, uint(stats, "requests"), "{}", stats.encode());

    // A coalesced burst, a duplicate request_id and an unparseable line.
    c.send(&[
        "{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":31000}",
        "{\"cmd\":\"update_demand\",\"od\":\"JANET-LU\",\"size\":25}",
        "{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":32000}",
    ]);
    for _ in 0..3 {
        assert_eq!(c.read().get("ok").and_then(Json::as_bool), Some(true));
    }
    let keyed = "{\"cmd\":\"update_demand\",\"od\":\"JANET-LU\",\"size\":30,\"request_id\":\"k1\"}";
    let first = c.round_trip(keyed);
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(c.round_trip(keyed).encode(), first.encode(), "replayed ack");
    let garbled = c.round_trip("this is not json");
    assert_eq!(garbled.get("ok").and_then(Json::as_bool), Some(false));

    // Every reply is in: read `stats`, then `metrics`, on one connection.
    let stats = c.round_trip("{\"cmd\":\"stats\"}");
    let stats = stats.get("stats").expect("stats payload").clone();
    let metrics = c.round_trip("{\"cmd\":\"metrics\"}");
    let metrics = metrics.get("metrics").expect("metrics payload").clone();
    let counters = metrics.get("counters").expect("counters");
    let counter = |name: &str| uint(counters, name);

    // The `metrics` request itself is one more request and one more
    // lock-free read than `stats` saw.
    let commands = per_command(&stats);
    for (cmd, n) in &commands {
        assert_eq!(
            counter(&format!("daemon_requests_total{{cmd=\"{cmd}\"}}")),
            *n,
            "per_command.{cmd}"
        );
    }
    assert_eq!(counter("daemon_requests_total{cmd=\"metrics\"}"), 1);
    let requests = uint(&stats, "requests");
    assert_eq!(commands.iter().map(|(_, n)| n).sum::<u64>(), requests);
    let count_of = |cmd: &str| commands.iter().find(|(c, _)| c == cmd).map(|(_, n)| *n);
    // Lock-free reads are counted per command, queued ones too.
    assert_eq!(count_of("ping"), Some(1));
    assert_eq!(count_of("health"), Some(1));
    assert_eq!(count_of("query_rates"), Some(2));
    assert_eq!(count_of("stats"), Some(2));
    assert_eq!(count_of("update_demand"), Some(6));
    assert_eq!(count_of("invalid"), Some(1));
    assert_eq!(requests, 14);

    assert_eq!(uint(&stats, "errors"), counter("daemon_errors_total"));
    assert_eq!(uint(&stats, "errors"), 2);
    assert_eq!(uint(&stats, "shed"), counter("daemon_overload_shed_total"));
    assert_eq!(
        uint(&stats, "reads_lockfree") + 1,
        counter("daemon_reads_served_lockfree_total")
    );
    assert_eq!(uint(&stats, "reads_lockfree"), 5);
    assert_eq!(uint(&stats, "degraded_solves"), counter("degraded_solves"));
    assert_eq!(
        uint(&stats, "last_good_fallbacks"),
        counter("daemon_last_good_fallbacks")
    );
    assert_eq!(
        uint(&stats, "warm_iterations"),
        counter("daemon_warm_iterations_total")
    );
    assert_eq!(
        uint(&stats, "paired_warm_iterations"),
        counter("daemon_paired_warm_iterations_total")
    );
    assert_eq!(
        uint(&stats, "shadow_cold_iterations"),
        counter("daemon_shadow_cold_iterations_total")
    );
    let (resolves, _) = histogram(&metrics, "daemon_resolve_latency_ms{");
    let (warm_resolves, warm_ms) = histogram(&metrics, "daemon_resolve_latency_ms{mode=\"warm\"}");
    let (shadow_resolves, shadow_cold_ms) = histogram(&metrics, "daemon_shadow_cold_latency_ms");
    assert_eq!(uint(&stats, "resolves"), resolves);
    assert_eq!(uint(&stats, "warm_resolves"), warm_resolves);
    assert_eq!(stats.get("warm_ms").and_then(Json::as_f64), Some(warm_ms));
    assert_eq!(uint(&stats, "shadow_resolves"), shadow_resolves);
    assert_eq!(
        stats.get("shadow_cold_ms").and_then(Json::as_f64),
        Some(shadow_cold_ms)
    );
    // Startup solve (cold), set_theta, and at least one flush each for the
    // burst and the keyed update, all warm and all shadowed.
    assert_eq!(resolves, warm_resolves + 1);
    assert!(warm_resolves >= 3, "{}", stats.encode());
    assert_eq!(shadow_resolves, warm_resolves);

    let bye = c.round_trip("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("resolves").and_then(Json::as_u64), Some(resolves));
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
    // `metrics` and `shutdown` came after `stats`.
    assert_eq!(summary.requests, requests + 2);
    assert_eq!(summary.resolves, resolves);
    assert_eq!(summary.shed, uint(&stats, "shed"));
    assert_eq!(summary.reads_lockfree, uint(&stats, "reads_lockfree") + 1);
}
