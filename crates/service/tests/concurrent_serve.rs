//! Concurrent-client integration tests for the multi-connection serving
//! layer (`Daemon::serve`): snapshot consistency under writer pressure,
//! lock-free reads staying off the queue, coalescing equivalence and its
//! one-rebuild-per-window counter contract, drain-on-shutdown across
//! connections, and the Unix-socket transport sharing the same machinery.

use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_service::json::{parse, Json};
use nws_service::{Daemon, DaemonOptions, NetOptions, Server, ServiceState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Boots a daemon on an ephemeral loopback port; returns the address and
/// the join handle yielding the daemon summary.
fn boot_tcp(
    opts: DaemonOptions,
) -> (
    SocketAddr,
    std::thread::JoinHandle<nws_service::DaemonSummary>,
) {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, opts);
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        ..NetOptions::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || daemon.serve(server).expect("serve"));
    (addr, handle)
}

/// A JSON-lines client over any stream transport.
struct Client<S: Read + Write> {
    writer: S,
    lines: BufReader<S>,
    buf: String,
}

impl Client<TcpStream> {
    fn connect(addr: SocketAddr) -> Client<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let lines = BufReader::new(stream.try_clone().expect("clone"));
        let mut client = Client {
            writer: stream,
            lines,
            buf: String::new(),
        };
        client.expect_hello();
        client
    }
}

impl<S: Read + Write> Client<S> {
    fn expect_hello(&mut self) {
        let hello = self.read_response().expect("hello line");
        assert_eq!(hello.get("cmd").and_then(|c| c.as_str()), Some("hello"));
        assert!(hello.get("epoch").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    /// `None` on EOF (connection closed by the daemon).
    fn read_response(&mut self) -> Option<Json> {
        self.buf.clear();
        let n = self.lines.read_line(&mut self.buf).expect("read line");
        if n == 0 {
            return None;
        }
        Some(parse(self.buf.trim()).expect("daemon emits valid JSON"))
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send(line);
        self.read_response().expect("response before EOF")
    }
}

/// Extracts a counter from a `metrics` response payload.
fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// N writers + M readers with seeded interleavings: every `query_rates`
/// response must carry a rates vector from a single committed epoch —
/// all reads observing the same epoch see byte-identical monitors (never
/// a torn mix), and each connection's observed epochs never go backwards.
#[test]
fn concurrent_reads_see_single_epoch_snapshots() {
    let (addr, daemon) = boot_tcp(DaemonOptions::default());
    const WRITERS: usize = 3;
    const READERS: usize = 4;
    const UPDATES_PER_WRITER: usize = 8;
    // Startup commit is epoch 1; every update commits one more.
    const FINAL_EPOCH: u64 = 1 + (WRITERS * UPDATES_PER_WRITER) as u64;
    let barrier = std::sync::Barrier::new(WRITERS + READERS);
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64 + 1);
                let mut client = Client::connect(addr);
                barrier.wait(); // all readers have sampled epoch 1 first
                for _ in 0..UPDATES_PER_WRITER {
                    let size: f64 = rng.random_range(1.0e6..2.0e7);
                    let response = client.round_trip(&format!(
                        "{{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":{size:.0}}}"
                    ));
                    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                    assert!(response.get("epoch").and_then(Json::as_u64).is_some());
                }
            });
        }
        for r in 0..READERS {
            let tx = tx.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xbeef + r as u64);
                let mut client = Client::connect(addr);
                let mut last_epoch = 0u64;
                // First sample before any writer commits, then keep
                // sampling until the last commit is observed — so every
                // reader provably reads across the whole commit sequence,
                // with a seeded jitter in the interleaving.
                let mut first = true;
                loop {
                    if !first && rng.random_range(0..4) == 0 {
                        std::thread::yield_now();
                    }
                    let response = client.round_trip("{\"cmd\":\"query_rates\"}");
                    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                    let epoch = response.get("epoch").and_then(Json::as_u64).expect("epoch");
                    assert!(
                        epoch >= last_epoch,
                        "reader observed epoch regression: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let monitors = response.get("monitors").expect("monitors").encode();
                    tx.send((epoch, monitors)).expect("collect");
                    if first {
                        assert_eq!(epoch, 1, "no commits before the barrier");
                        first = false;
                        barrier.wait();
                    }
                    if epoch >= FINAL_EPOCH {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut by_epoch: HashMap<u64, String> = HashMap::new();
    let mut reads = 0u64;
    for (epoch, monitors) in rx {
        reads += 1;
        match by_epoch.get(&epoch) {
            None => {
                by_epoch.insert(epoch, monitors);
            }
            Some(seen) => assert_eq!(
                seen, &monitors,
                "two reads of epoch {epoch} saw different rates (torn snapshot)"
            ),
        }
    }
    assert!(reads >= (READERS * 2) as u64);
    assert!(
        by_epoch.contains_key(&1) && by_epoch.contains_key(&FINAL_EPOCH),
        "reads span the full commit sequence"
    );

    let mut control = Client::connect(addr);
    let metrics = control.round_trip("{\"cmd\":\"metrics\"}");
    // Every query_rates (plus this metrics scrape and the per-connection
    // hello overhead-free reads) was served lock-free; only mutations and
    // the shutdown enqueue.
    assert!(counter(&metrics, "daemon_reads_served_lockfree_total") >= reads);
    assert_eq!(
        counter(&metrics, "daemon_jobs_enqueued_total"),
        (WRITERS * UPDATES_PER_WRITER) as u64,
        "read-only commands must never enqueue"
    );
    control.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.connections, (WRITERS + READERS + 1) as u64);
    assert!(summary.reads_lockfree >= reads);
}

/// A coalescing window of K updates triggers exactly one epoch rebuild and
/// one warm re-solve (counter-asserted), every buffered request is
/// acknowledged with the shared batch payload, and the final rates are
/// byte-identical to the uncoalesced replay of the merged updates (one
/// `update_demands` through the single-stream loop — same committed demand
/// state, same single warm solve).
///
/// The serial one-at-a-time replay commits the *same demand state* but
/// re-solves K times from different warm starts. Every optimum of a concave
/// program has the same objective value, but the rates that reach it need
/// not be unique, and each solve stops within its own tolerance. So the
/// byte-level contract is against the merged batch, and the serial replay
/// is held to the same objective value to 1e-9 relative.
#[test]
fn coalescing_is_one_rebuild_and_matches_uncoalesced_replay() {
    const K: usize = 10;
    let updates: Vec<(&str, f64)> = vec![
        ("JANET-NL", 5.0e6),
        ("JANET-FR", 7.0e6),
        ("JANET-NL", 6.0e6), // last writer wins for JANET-NL
        ("JANET-DE", 8.0e6),
        ("JANET-FR", 6.5e6), // last writer wins for JANET-FR
        ("JANET-NL", 6.2e6),
        ("JANET-DE", 8.5e6),
        ("JANET-NL", 6.4e6),
        ("JANET-FR", 6.6e6),
        ("JANET-DE", 8.2e6),
    ];
    assert_eq!(updates.len(), K);

    // Coalesced run: all K updates written in one burst, inside a wide
    // window; they must flush as one batch.
    let (addr, daemon) = boot_tcp(DaemonOptions {
        coalesce_ms: 200,
        ..DaemonOptions::default()
    });
    let mut client = Client::connect(addr);
    let before = client.round_trip("{\"cmd\":\"metrics\"}");
    for (od, size) in &updates {
        client.send(&format!(
            "{{\"cmd\":\"update_demand\",\"od\":\"{od}\",\"size\":{size:.0}}}"
        ));
    }
    let mut epochs = Vec::new();
    for _ in 0..K {
        let response = client.read_response().expect("ack");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            response.get("coalesced").and_then(Json::as_u64),
            Some(K as u64),
            "every buffered request reports the batch size"
        );
        epochs.push(response.get("epoch").and_then(Json::as_u64).expect("epoch"));
    }
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "one batch commits one epoch, got {epochs:?}"
    );
    let after = client.round_trip("{\"cmd\":\"metrics\"}");
    assert_eq!(
        counter(&after, "daemon_coalesce_flushes_total")
            - counter(&before, "daemon_coalesce_flushes_total"),
        1,
        "K updates in one window = exactly one flush"
    );
    assert_eq!(
        counter(&after, "daemon_coalesced_updates_total")
            - counter(&before, "daemon_coalesced_updates_total"),
        K as u64
    );
    assert_eq!(
        counter(&after, "state_epoch_rebuilds_total")
            - counter(&before, "state_epoch_rebuilds_total"),
        1,
        "K coalesced updates = exactly one epoch rebuild"
    );
    let stats = client.round_trip("{\"cmd\":\"stats\"}");
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("resolves"))
            .and_then(Json::as_f64),
        Some(2.0),
        "startup solve + exactly one coalesced re-solve"
    );
    let coalesced_rates = client.round_trip("{\"cmd\":\"query_rates\"}");
    client.round_trip("{\"cmd\":\"shutdown\"}");
    daemon.join().expect("daemon thread");

    // Uncoalesced replay of the merged batch through the single-stream
    // loop: last-writer-wins per OD, first-seen order.
    let mut merged: Vec<(&str, f64)> = Vec::new();
    for (od, size) in &updates {
        match merged.iter_mut().find(|(o, _)| o == od) {
            Some((_, s)) => *s = *size,
            None => merged.push((od, *size)),
        }
    }
    let items: Vec<String> = merged
        .iter()
        .map(|(od, size)| format!("[\"{od}\",{size:.0}]"))
        .collect();
    let script = format!(
        "{{\"cmd\":\"update_demands\",\"updates\":[{}]}}\n{{\"cmd\":\"query_rates\"}}\n{{\"cmd\":\"shutdown\"}}\n",
        items.join(",")
    );
    let batch_rates = run_script_line(&script, 1);
    assert_eq!(
        coalesced_rates.get("monitors").unwrap().encode(),
        batch_rates.get("monitors").unwrap().encode(),
        "coalesced flush must be byte-identical to the merged-batch replay"
    );
    assert_eq!(
        coalesced_rates.get("objective").unwrap().encode(),
        batch_rates.get("objective").unwrap().encode()
    );

    // Serial one-at-a-time replay: same committed demand state, K solver
    // paths; objectives of the certified optima must agree tightly.
    let serial_script: String = updates
        .iter()
        .map(|(od, size)| {
            format!("{{\"cmd\":\"update_demand\",\"od\":\"{od}\",\"size\":{size:.0}}}\n")
        })
        .chain([
            "{\"cmd\":\"query_rates\"}\n".to_string(),
            "{\"cmd\":\"shutdown\"}\n".to_string(),
        ])
        .collect();
    let serial_rates = run_script_line(&serial_script, K as u64);
    let a = coalesced_rates
        .get("objective")
        .and_then(Json::as_f64)
        .expect("objective");
    let b = serial_rates
        .get("objective")
        .and_then(Json::as_f64)
        .expect("objective");
    assert!(
        ((a - b) / a.abs().max(1e-12)).abs() < 1e-9,
        "coalesced vs serial objectives diverged: {a} vs {b}"
    );
}

/// Runs `script` through the single-stream loop and returns the response
/// to the request at (1-based) position `index_after_updates + 1`, i.e.
/// the `query_rates` line (response 0 is `hello`).
fn run_script_line(script: &str, updates: u64) -> Json {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let mut out = Vec::new();
    daemon
        .run(Cursor::new(script.to_string()), &mut out)
        .expect("run");
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| parse(l).expect("valid JSON"))
        .collect();
    for ack in &lines[1..=updates as usize] {
        assert_eq!(
            ack.get("ok").and_then(Json::as_bool),
            Some(true),
            "replay update rejected: {}",
            ack.encode()
        );
    }
    let rates = lines[(updates + 1) as usize].clone();
    assert_eq!(
        rates.get("cmd").and_then(|c| c.as_str()),
        Some("query_rates")
    );
    rates
}

/// `shutdown` on one connection drains and closes all connections: peers
/// that already got their answers observe EOF (not an error), the issuer
/// gets its `bye`, and the summary reports a clean shutdown with every
/// connection counted.
#[test]
fn shutdown_from_one_connection_closes_all() {
    let (addr, daemon) = boot_tcp(DaemonOptions::default());
    const PEERS: usize = 4;
    let mut peers: Vec<Client<TcpStream>> = (0..PEERS).map(|_| Client::connect(addr)).collect();
    // Every peer does real work first (mixed read + mutate), so the drain
    // path runs against connections with live history.
    for (i, peer) in peers.iter_mut().enumerate() {
        let response = peer.round_trip("{\"cmd\":\"ping\"}");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let response = peer.round_trip(&format!(
            "{{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":{}}}",
            2_000_000 + i
        ));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    let mut issuer = Client::connect(addr);
    let bye = issuer.round_trip("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
    // Every other connection sees a clean EOF.
    for peer in &mut peers {
        assert!(
            peer.read_response().is_none(),
            "peer must see EOF after a cross-connection shutdown"
        );
    }
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.connections, (PEERS + 1) as u64);
    // New connections are refused after shutdown (listener closed).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may still accept into the dead listener's backlog; a
            // read then observes immediate EOF.
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = String::new();
            BufReader::new(s)
                .read_line(&mut buf)
                .map_or(true, |n| n == 0)
        }
    );
}

/// The connection cap: the (max+1)-th concurrent connection gets one
/// `too_many_connections` error line and is closed; after a slot frees it
/// can connect again.
#[test]
fn connection_cap_rejects_excess_connections() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        max_conns: 2,
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let mut a = Client::connect(addr);
    let _b = Client::connect(addr);
    // Third connection: rejected with an explicit error line, then EOF.
    let rejected = TcpStream::connect(addr).expect("connect");
    rejected
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut lines = BufReader::new(rejected);
    let mut line = String::new();
    lines.read_line(&mut line).expect("rejection line");
    let response = parse(line.trim()).expect("valid JSON");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("error").and_then(|e| e.as_str()),
        Some("too_many_connections")
    );
    line.clear();
    assert_eq!(lines.read_line(&mut line).expect("eof"), 0);

    a.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
}

/// The Unix-socket transport runs through the same multi-connection
/// machinery as TCP: two concurrent connections are served simultaneously
/// (an idle first connection cannot starve the second), which the old
/// one-accept-at-a-time socket path could not do.
#[cfg(unix)]
#[test]
fn unix_socket_serves_connections_concurrently() {
    use std::os::unix::net::UnixStream;
    let path = std::env::temp_dir().join(format!("nws_serve_test_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        unix: Some(path.to_string_lossy().into_owned()),
        ..NetOptions::default()
    })
    .expect("bind unix socket");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let connect = |path: &std::path::Path| {
        let stream = UnixStream::connect(path).expect("connect unix");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let lines = BufReader::new(stream.try_clone().expect("clone"));
        let mut client = Client {
            writer: stream,
            lines,
            buf: String::new(),
        };
        client.expect_hello();
        client
    };
    // First connection stays open and idle...
    let mut idle = connect(&path);
    // ...while a second one is served concurrently (would deadlock on the
    // old single-accept loop).
    let mut active = connect(&path);
    for _ in 0..5 {
        let response = active.round_trip("{\"cmd\":\"query_rates\"}");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    // The idle connection still works too.
    let response = idle.round_trip("{\"cmd\":\"ping\"}");
    assert_eq!(response.get("pong").and_then(Json::as_bool), Some(true));

    active.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.connections, 2);
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Idle connections past `--idle-timeout-ms` are dropped; busy ones are
/// not.
#[test]
fn idle_timeout_drops_stale_connections() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        idle_timeout_ms: 200,
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let mut busy = Client::connect(addr);
    let mut idle = Client::connect(addr);
    // Stay busy past the other connection's idle deadline.
    for _ in 0..10 {
        busy.round_trip("{\"cmd\":\"ping\"}");
        std::thread::sleep(Duration::from_millis(40));
    }
    // The idle connection was reaped: next read sees EOF.
    assert!(idle.read_response().is_none(), "idle connection must drop");
    // The busy one still serves.
    let response = busy.round_trip("{\"cmd\":\"query_rates\"}");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    busy.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
}

/// Half-open client, variant 1: the peer shuts down its *write* side while
/// a mutation's Pending reply is still in flight. The daemon must answer
/// on the intact read half, then tear the pair down on the EOF and release
/// the slot — `serve` returns (no leaked connection threads) and the
/// freed slot is reusable.
#[test]
fn half_open_write_shutdown_with_pending_reply() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        max_conns: 2, // tight cap: a leaked slot would block the control conn
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let mut half_open = Client::connect(addr);
    // Enqueue a mutation (Pending reply), then close only our write side.
    half_open.send("{\"cmd\":\"update_demand\",\"od\":\"JANET-NL\",\"size\":3000000}");
    half_open
        .writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");
    // The answer still arrives on the read half.
    let ack = half_open
        .read_response()
        .expect("pending reply survives half-close");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    // After the reply the daemon sees our EOF and closes its side too.
    assert!(
        half_open.read_response().is_none(),
        "clean close after drain"
    );

    // The slot was released: with max_conns=2 a fresh pair still fits.
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    assert_eq!(
        b.round_trip("{\"cmd\":\"ping\"}")
            .get("pong")
            .and_then(Json::as_bool),
        Some(true)
    );
    drop(b);
    a.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon joins: no thread leak");
    assert!(summary.clean_shutdown);
    assert_eq!(summary.connections, 3);
}

/// Half-open client, variant 2: a shutdown from another connection races
/// writer threads that are mid-`write_all` to peers who stopped reading.
/// The bounded write timeout turns those stalls into evictions, so the
/// drain always terminates and `serve` returns.
#[test]
fn shutdown_races_stalled_writers_and_terminates() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        write_timeout_ms: 300,
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    // Two peers pipeline reads and never read responses, wedging the
    // daemon's writers against full socket buffers.
    let stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_write_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let mut w = s.try_clone().unwrap();
            // Write until our own send buffer jams (daemon stopped reading)
            // or a generous line budget runs out.
            for _ in 0..200_000 {
                if w.write_all(b"{\"cmd\":\"query_rates\"}\n").is_err() {
                    break;
                }
            }
            s // keep the socket open, still not reading
        })
        .collect();

    let mut issuer = Client::connect(addr);
    let bye = issuer.round_trip("{\"cmd\":\"shutdown\"}");
    assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
    // The stalled writers must not pin the drain: serve returns promptly.
    let summary = daemon
        .join()
        .expect("serve returned despite stalled writers");
    assert!(summary.clean_shutdown);
    drop(stalled);
}

/// Live slow-client eviction: a peer floods pipelined reads and never
/// drains its responses. Once one response write stalls past
/// `--write-timeout-ms`, the daemon evicts the connection (counter
/// `daemon_slow_client_evictions_total`), while other connections keep
/// being served unaffected.
#[test]
fn slow_client_is_evicted_and_counted() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        write_timeout_ms: 250,
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    // The slow client: pipelines query_rates forever, reads nothing.
    let slow = TcpStream::connect(addr).expect("connect");
    slow.set_write_timeout(Some(Duration::from_millis(100)))
        .expect("write timeout");
    let mut slow_writer = slow.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        for _ in 0..500_000 {
            if slow_writer
                .write_all(b"{\"cmd\":\"query_rates\"}\n")
                .is_err()
            {
                break; // our own buffer jammed: the pipeline is saturated
            }
        }
    });

    // A healthy control connection polls metrics for the eviction.
    let mut control = Client::connect(addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut evictions = 0;
    while std::time::Instant::now() < deadline {
        let metrics = control.round_trip("{\"cmd\":\"metrics\"}");
        evictions = counter(&metrics, "daemon_slow_client_evictions_total");
        if evictions >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(evictions >= 1, "slow client was never evicted");
    flood.join().expect("flood thread");
    drop(slow);

    // The healthy connection is unaffected by its neighbour's eviction.
    let response = control.round_trip("{\"cmd\":\"query_rates\"}");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    control.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
}

/// Request lines are capped: a client streaming a multi-MiB line gets a
/// typed `line too long` error (counted) and the connection is closed —
/// the daemon's buffer never grows unboundedly.
#[test]
fn oversized_request_line_is_rejected_and_closed() {
    let (addr, daemon) = boot_tcp(DaemonOptions::default());
    let mut hog = Client::connect(addr);
    // 2 MiB of prefix with no newline: past the 1 MiB cap mid-stream.
    let chunk = vec![b'a'; 64 * 1024];
    for _ in 0..32 {
        if hog.writer.write_all(&chunk).is_err() {
            break; // daemon may already have torn the connection down
        }
    }
    let _ = hog.writer.flush();
    let response = hog.read_response().expect("typed error before close");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("error").and_then(|e| e.as_str()),
        Some("line too long")
    );
    assert!(
        response
            .get("max_line_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1 << 20
    );
    assert!(
        hog.read_response().is_none(),
        "connection closed after the error"
    );

    let mut control = Client::connect(addr);
    let metrics = control.round_trip("{\"cmd\":\"metrics\"}");
    assert_eq!(counter(&metrics, "daemon_line_too_long_total"), 1);
    control.round_trip("{\"cmd\":\"shutdown\"}");
    daemon.join().expect("daemon thread");
}

/// Idle-timeout drops and hard socket errors are counted separately:
/// reaping an idle connection bumps `daemon_conn_idle_timeouts_total`
/// and leaves `daemon_conn_io_errors_total` untouched.
#[test]
fn idle_timeouts_and_io_errors_are_distinguished() {
    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let mut daemon = Daemon::new(state, DaemonOptions::default());
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        idle_timeout_ms: 150,
        ..NetOptions::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let daemon = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let mut idle = Client::connect(addr);
    let mut busy = Client::connect(addr);
    // Keep one connection busy past the other's idle deadline.
    for _ in 0..8 {
        busy.round_trip("{\"cmd\":\"ping\"}");
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(idle.read_response().is_none(), "idle connection reaped");
    let metrics = busy.round_trip("{\"cmd\":\"metrics\"}");
    assert_eq!(
        counter(&metrics, "daemon_conn_idle_timeouts_total"),
        1,
        "the reaped connection counts as an idle timeout"
    );
    assert_eq!(
        counter(&metrics, "daemon_conn_io_errors_total"),
        0,
        "an idle reap is not a socket error"
    );
    busy.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = daemon.join().expect("daemon thread");
    assert!(summary.clean_shutdown);
}
