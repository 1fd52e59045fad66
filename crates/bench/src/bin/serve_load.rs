//! Load generator for the multi-connection serving layer (`Daemon::serve`):
//! hundreds of concurrent loopback-TCP connections with a read-heavy mix
//! (70% `query_rates`, 20% `health`, 10% `stats`) next to a stream of
//! `update_demand` bursts, measuring throughput and p50/p95/p99 latency
//! split by read/mutate.
//!
//! The daemon runs in-process on an ephemeral loopback port, so the numbers
//! price the serving stack itself (connection threads, snapshot reads,
//! coalescing, solver) without network noise. After the timed phase a
//! control connection scrapes the daemon's own counters — lock-free reads,
//! enqueued jobs, coalesce flushes — which is what lets CI assert that
//! reads never touched the queue and that K coalesced updates cost one
//! rebuild, then issues `shutdown` (which also exercises the
//! drain-all-connections path under load).
//!
//! The bench runs with the serving-layer timeouts *enabled* (idle reaping
//! and slow-client write timeouts), so the scraped eviction/idle-timeout
//! counters double as a gate: healthy clients under load must never trip
//! the slow-client protection.
//!
//! Emits machine-readable JSON (default `BENCH_serve.json`) gated by
//! `scripts/check_bench.py`. Flags: `--quick` (CI smoke mode), `--out PATH`,
//! `--readers N`, `--writers N`, `--duration-ms MS`, `--coalesce-ms MS`,
//! `--idle-timeout-ms MS`, `--write-timeout-ms MS`, `--seed N`.

use nws_bench::{banner, footer};
use nws_core::scenarios::janet_task;
use nws_core::PlacementConfig;
use nws_service::json::{obj, parse, Json};
use nws_service::{Daemon, DaemonOptions, NetOptions, Server, ServiceState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Writers send their demand updates in bursts of this many lines: bursts
/// land inside one coalescing window, which is the batching behavior the
/// counters below certify.
const BURST: usize = 8;

/// What one client thread measured.
#[derive(Debug, Default)]
struct ClientStats {
    read_latencies_ms: Vec<f64>,
    mutate_latencies_ms: Vec<f64>,
    read_errors: u64,
    mutate_errors: u64,
    shed: u64,
    protocol_errors: u64,
    max_coalesced: u64,
}

/// One connected JSON-lines client.
struct Client {
    stream: TcpStream,
    lines: BufReader<TcpStream>,
    buf: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let lines = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            stream,
            lines,
            buf: String::new(),
        };
        let hello = client.read_line()?;
        assert_eq!(hello.get("cmd").and_then(|c| c.as_str()), Some("hello"));
        Ok(client)
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    fn read_line(&mut self) -> std::io::Result<Json> {
        self.buf.clear();
        let n = self.lines.read_line(&mut self.buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        parse(self.buf.trim()).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        self.read_line()
    }
}

/// A read-only client: weighted command mix until the deadline.
fn run_reader(addr: SocketAddr, seed: u64, deadline: Instant) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let Ok(mut client) = Client::connect(addr) else {
        stats.protocol_errors += 1;
        return stats;
    };
    while Instant::now() < deadline {
        let roll: f64 = rng.random_range(0.0..1.0);
        let cmd = if roll < 0.70 {
            "{\"cmd\":\"query_rates\"}"
        } else if roll < 0.90 {
            "{\"cmd\":\"health\"}"
        } else {
            "{\"cmd\":\"stats\"}"
        };
        let t0 = Instant::now();
        match client.round_trip(cmd) {
            Ok(response) => {
                stats
                    .read_latencies_ms
                    .push(t0.elapsed().as_secs_f64() * 1e3);
                if response.get("ok").and_then(Json::as_bool) != Some(true) {
                    stats.read_errors += 1;
                }
            }
            Err(_) => {
                stats.protocol_errors += 1;
                break;
            }
        }
    }
    stats
}

/// A mutating client: bursts of `update_demand` lines (all written before
/// any response is read, so they share one coalescing window), then the
/// burst's responses in order. Latency is measured per response from the
/// burst start. `overloaded` sheds are counted separately — they are the
/// daemon's documented backpressure, not failures.
fn run_writer(addr: SocketAddr, seed: u64, deadline: Instant, ods: &[String]) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let Ok(mut client) = Client::connect(addr) else {
        stats.protocol_errors += 1;
        return stats;
    };
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let mut burst_ok = true;
        for _ in 0..BURST {
            let od = &ods[rng.random_range(0..ods.len())];
            let size = rng.random_range(1.0e6..2.0e7);
            let line = format!("{{\"cmd\":\"update_demand\",\"od\":\"{od}\",\"size\":{size:.0}}}");
            if client.send(&line).is_err() {
                stats.protocol_errors += 1;
                burst_ok = false;
                break;
            }
        }
        if !burst_ok {
            break;
        }
        for _ in 0..BURST {
            match client.read_line() {
                Ok(response) => {
                    stats
                        .mutate_latencies_ms
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                    if response.get("ok").and_then(Json::as_bool) == Some(true) {
                        if let Some(k) = response.get("coalesced").and_then(Json::as_u64) {
                            stats.max_coalesced = stats.max_coalesced.max(k);
                        }
                    } else if response.get("error").and_then(|e| e.as_str()) == Some("overloaded") {
                        stats.shed += 1;
                    } else {
                        stats.mutate_errors += 1;
                    }
                }
                Err(_) => {
                    stats.protocol_errors += 1;
                    burst_ok = false;
                    break;
                }
            }
        }
        if !burst_ok {
            break;
        }
    }
    stats
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.saturating_sub(1).min(values.len() - 1)]
}

/// The `{count, errors, throughput_per_sec, p50/p95/p99_ms}` section.
fn side_json(latencies: &mut [f64], errors: u64, wall_s: f64) -> Json {
    obj(vec![
        ("count", Json::UInt(latencies.len() as u64)),
        ("errors", Json::UInt(errors)),
        (
            "throughput_per_sec",
            Json::Num(latencies.len() as f64 / wall_s.max(1e-9)),
        ),
        ("p50_ms", Json::Num(percentile(latencies, 0.50))),
        ("p95_ms", Json::Num(percentile(latencies, 0.95))),
        ("p99_ms", Json::Num(percentile(latencies, 0.99))),
    ])
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let readers: usize = flag_value(&args, "--readers")
        .map(|v| v.parse().expect("--readers: positive integer"))
        .unwrap_or(if quick { 32 } else { 200 });
    let writers: usize = flag_value(&args, "--writers")
        .map(|v| v.parse().expect("--writers: positive integer"))
        .unwrap_or(if quick { 4 } else { 8 });
    let duration_ms: u64 = flag_value(&args, "--duration-ms")
        .map(|v| v.parse().expect("--duration-ms: positive integer"))
        .unwrap_or(if quick { 1_500 } else { 5_000 });
    let coalesce_ms: u64 = flag_value(&args, "--coalesce-ms")
        .map(|v| v.parse().expect("--coalesce-ms: integer"))
        .unwrap_or(5);
    // Timeouts are on by default so the bench certifies that the
    // slow-client protection never fires against healthy load.
    let idle_timeout_ms: u64 = flag_value(&args, "--idle-timeout-ms")
        .map(|v| v.parse().expect("--idle-timeout-ms: integer"))
        .unwrap_or(10_000);
    let write_timeout_ms: u64 = flag_value(&args, "--write-timeout-ms")
        .map(|v| v.parse().expect("--write-timeout-ms: integer"))
        .unwrap_or(5_000);
    let seed: u64 = flag_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed: integer"))
        .unwrap_or(42);

    let t0 = banner(
        "serve_load",
        "multi-connection serving throughput/latency under a read-heavy mix",
    );
    println!(
        "readers={readers} writers={writers} duration={duration_ms}ms \
         coalesce={coalesce_ms}ms idle-timeout={idle_timeout_ms}ms \
         write-timeout={write_timeout_ms}ms seed={seed}"
    );

    let state = ServiceState::from_task(&janet_task(), PlacementConfig::default());
    let ods: Vec<String> = state.ods().iter().map(|o| o.name.clone()).collect();
    let mut daemon = Daemon::new(
        state,
        DaemonOptions {
            queue_capacity: 256,
            coalesce_ms,
            ..DaemonOptions::default()
        },
    );
    let server = Server::bind(&NetOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        idle_timeout_ms,
        write_timeout_ms,
        ..NetOptions::default()
    })
    .expect("bind loopback listener");
    let addr = server.tcp_addr().expect("tcp listener address");
    let daemon_thread = std::thread::spawn(move || daemon.serve(server).expect("serve"));

    let load_start = Instant::now();
    let deadline = load_start + Duration::from_millis(duration_ms);
    let mut stats = ClientStats::default();
    std::thread::scope(|scope| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|i| scope.spawn(move || run_reader(addr, seed ^ (i as u64) << 1, deadline)))
            .collect();
        let ods = &ods;
        let writer_handles: Vec<_> = (0..writers)
            .map(|i| {
                scope.spawn(move || {
                    run_writer(addr, seed ^ 0x9e37 ^ ((i as u64) << 32), deadline, ods)
                })
            })
            .collect();
        for handle in reader_handles.into_iter().chain(writer_handles) {
            let s = handle.join().expect("client thread");
            stats.read_latencies_ms.extend(s.read_latencies_ms);
            stats.mutate_latencies_ms.extend(s.mutate_latencies_ms);
            stats.read_errors += s.read_errors;
            stats.mutate_errors += s.mutate_errors;
            stats.shed += s.shed;
            stats.protocol_errors += s.protocol_errors;
            stats.max_coalesced = stats.max_coalesced.max(s.max_coalesced);
        }
    });
    let wall_s = load_start.elapsed().as_secs_f64();

    // Control connection: scrape the daemon's own counters, then shut the
    // whole server down (drains every lingering connection).
    let mut control = Client::connect(addr).expect("control connection");
    let metrics = control
        .round_trip("{\"cmd\":\"metrics\"}")
        .expect("metrics scrape");
    let metrics = metrics.get("metrics").expect("metrics payload").clone();
    let bye = control
        .round_trip("{\"cmd\":\"shutdown\"}")
        .expect("shutdown");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    let summary = daemon_thread.join().expect("daemon thread");

    let reads_lockfree = counter(&metrics, "daemon_reads_served_lockfree_total");
    let jobs_enqueued = counter(&metrics, "daemon_jobs_enqueued_total");
    let coalesce_flushes = counter(&metrics, "daemon_coalesce_flushes_total");
    let coalesced_updates = counter(&metrics, "daemon_coalesced_updates_total");
    let epoch_rebuilds = counter(&metrics, "state_epoch_rebuilds_total");
    let routing_builds = counter(&metrics, "state_routing_builds_total");
    let slow_evictions = counter(&metrics, "daemon_slow_client_evictions_total");
    let idle_timeouts = counter(&metrics, "daemon_conn_idle_timeouts_total");
    let conn_io_errors = counter(&metrics, "daemon_conn_io_errors_total");

    let read_count = stats.read_latencies_ms.len();
    let mutate_count = stats.mutate_latencies_ms.len();
    let report = obj(vec![
        ("bench", Json::Str("serve_load".into())),
        ("quick", Json::Bool(quick)),
        (
            "config",
            obj(vec![
                ("readers", Json::UInt(readers as u64)),
                ("writers", Json::UInt(writers as u64)),
                ("duration_ms", Json::UInt(duration_ms)),
                ("coalesce_ms", Json::UInt(coalesce_ms)),
                ("idle_timeout_ms", Json::UInt(idle_timeout_ms)),
                ("write_timeout_ms", Json::UInt(write_timeout_ms)),
                ("burst", Json::UInt(BURST as u64)),
                ("seed", Json::UInt(seed)),
            ]),
        ),
        ("wall_s", Json::Num(wall_s)),
        (
            "read",
            side_json(&mut stats.read_latencies_ms, stats.read_errors, wall_s),
        ),
        (
            "mutate",
            side_json(&mut stats.mutate_latencies_ms, stats.mutate_errors, wall_s),
        ),
        ("protocol_errors", Json::UInt(stats.protocol_errors)),
        ("shed", Json::UInt(stats.shed)),
        ("max_coalesced", Json::UInt(stats.max_coalesced)),
        (
            "counters",
            obj(vec![
                ("reads_served_lockfree", Json::UInt(reads_lockfree)),
                ("jobs_enqueued", Json::UInt(jobs_enqueued)),
                ("coalesce_flushes", Json::UInt(coalesce_flushes)),
                ("coalesced_updates", Json::UInt(coalesced_updates)),
                ("epoch_rebuilds", Json::UInt(epoch_rebuilds)),
                ("routing_builds", Json::UInt(routing_builds)),
                ("slow_client_evictions", Json::UInt(slow_evictions)),
                ("conn_idle_timeouts", Json::UInt(idle_timeouts)),
                ("conn_io_errors", Json::UInt(conn_io_errors)),
            ]),
        ),
        (
            "daemon",
            obj(vec![
                ("requests", Json::UInt(summary.requests)),
                ("resolves", Json::UInt(summary.resolves)),
                ("shed", Json::UInt(summary.shed)),
                ("connections", Json::UInt(summary.connections)),
                ("clean_shutdown", Json::Bool(summary.clean_shutdown)),
            ]),
        ),
    ]);

    println!(
        "reads: {} ({:.0}/s), mutates: {} ({:.0}/s), lockfree: {}, \
         enqueued: {}, flushes: {}, max batch: {}",
        read_count,
        read_count as f64 / wall_s.max(1e-9),
        mutate_count,
        mutate_count as f64 / wall_s.max(1e-9),
        reads_lockfree,
        jobs_enqueued,
        coalesce_flushes,
        stats.max_coalesced,
    );
    println!(
        "protocol errors: {}, read errors: {}, mutate errors: {}, shed: {}",
        stats.protocol_errors, stats.read_errors, stats.mutate_errors, stats.shed
    );
    println!(
        "slow-client evictions: {slow_evictions}, idle timeouts: {idle_timeouts}, \
         conn io errors: {conn_io_errors}"
    );

    let mut text = report.encode();
    text.push('\n');
    std::fs::write(&out_path, text).expect("write JSON report");
    println!();
    println!("wrote {out_path}");
    footer(t0);
}
