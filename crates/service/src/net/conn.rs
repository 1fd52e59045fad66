//! Per-connection reader/writer thread pair, over any transport.
//!
//! The reader parses JSON lines off the input. A read-only command is
//! answered immediately from the published snapshot ([`ReadHandle`]) and
//! handed to the writer as a resolved slot — unless this connection still
//! has a queued request unanswered, in which case the read queues behind
//! it. Everything else is enqueued on the daemon's bounded job queue with
//! a per-request reply channel, handed to the writer as a *pending* slot.
//! The writer drains slots strictly in order, blocking on pending replies:
//! per-connection FIFO holds, a read observes every earlier request of its
//! own connection, and a pure-read connection never waits on another
//! connection's solve.
//!
//! Accepted sockets ([`spawn_connection`]) and the stdio pair
//! ([`crate::Daemon::run`]) run the same [`run_reader`] / [`run_writer`].
//!
//! Hostile-peer bounds (DESIGN.md §15): request lines are capped at
//! [`MAX_LINE_BYTES`] (a client streaming bytes with no `\n` gets a typed
//! error and the door), and socket response writes run under
//! `SO_SNDTIMEO` — a peer that stops reading long enough to stall one
//! write is *evicted* (`daemon_slow_client_evictions_total`), freeing the
//! thread pair, the fd, and the `--max-conns` slot.

use crate::daemon::with_request_id;
use crate::json::{obj, Json};
use crate::net::{Job, NetOptions, Registry, Stream};
use crate::protocol::Request;
use crate::read_path::ReadHandle;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// How many responses a connection's writer may fall behind its reader
/// before the reader stops pulling new lines off the socket (per-connection
/// backpressure; keeps one fast writer-client from buffering unboundedly).
const SLOT_BACKLOG: usize = 256;

/// Hard cap on one request line. Far above any real command (the largest
/// legal `update_demands` batch encodes well under this), but a client
/// streaming bytes with no `\n` must not grow the line buffer without
/// bound: past the cap it gets a typed `line too long` error and the
/// connection is closed.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// One response slot, queued in request order.
enum Slot {
    /// Answered inline (snapshot read, shed, parse error, greeting).
    Ready(Json),
    /// Will be answered by the event loop via this channel.
    Pending(mpsc::Receiver<Json>),
}

/// The reader's end of a connection's response lane.
pub(crate) struct Lane {
    slots: mpsc::SyncSender<Slot>,
    /// Queued requests whose replies the writer has not taken yet.
    in_flight: Arc<AtomicUsize>,
}

/// The writer's end of a connection's response lane.
pub(crate) struct Responses {
    slots: mpsc::Receiver<Slot>,
    in_flight: Arc<AtomicUsize>,
}

/// Opens one connection's response lane, with `greeting` as its first
/// line.
pub(crate) fn lane(greeting: Json) -> (Lane, Responses) {
    let (tx, rx) = mpsc::sync_channel::<Slot>(SLOT_BACKLOG);
    let _ = tx.send(Slot::Ready(greeting));
    let in_flight = Arc::new(AtomicUsize::new(0));
    (
        Lane {
            slots: tx,
            in_flight: Arc::clone(&in_flight),
        },
        Responses {
            slots: rx,
            in_flight,
        },
    )
}

/// The connection's registry slot, held (via `Arc`) by BOTH threads of
/// the pair: the last one out — usually the writer, which may still be
/// draining replies after the reader saw EOF — frees the slot. This way
/// the connection cap bounds live sockets/threads (not just live
/// readers), the active gauge never undercounts, and the registered
/// shutdown handle's fd is closed the moment the connection is truly
/// gone.
struct SlotGuard {
    registry: Arc<Registry>,
    read: ReadHandle,
    id: u64,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.registry.release(self.id);
        self.read
            .recorder
            .gauge_set("daemon_connections_active", self.registry.active() as f64);
    }
}

/// Spawns the reader and writer threads for one accepted connection.
pub(crate) fn spawn_connection<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    mut stream: Stream,
    opts: &NetOptions,
    jobs: mpsc::SyncSender<Job>,
    read: ReadHandle,
    registry: Arc<Registry>,
) {
    let _ = stream.set_read_timeout(opts.idle_timeout());
    // Slow-client protection: one response write may stall at most this
    // long before the writer gives up and evicts the connection.
    let _ = stream.set_write_timeout(Some(opts.write_timeout()));
    let read_half = match stream.try_clone() {
        Ok(h) => h,
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let shutdown_handle = match stream.try_clone() {
        Ok(h) => h,
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let id = registry.register(shutdown_handle);
    read.recorder
        .counter_add("daemon_connections_opened_total", 1);
    read.recorder
        .gauge_set("daemon_connections_active", registry.active() as f64);
    let guard = Arc::new(SlotGuard {
        registry,
        read: read.clone(),
        id,
    });

    let (lane, responses) = lane(read.hello());
    let writer_guard = Arc::clone(&guard);
    let recorder = read.recorder.clone();
    scope.spawn(move || {
        if let Err(e) = run_writer(&mut stream, responses) {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                recorder.counter_add("daemon_slow_client_evictions_total", 1);
            }
        }
        // Both directions, so a reader blocked on an evicted or dead peer
        // wakes too.
        let _ = stream.shutdown(Shutdown::Both);
        drop(writer_guard);
    });
    scope.spawn(move || {
        run_reader(BufReader::new(read_half), &read, &jobs, lane);
        drop(guard);
    });
}

/// Why the bounded line reader stopped producing a line.
enum LineOutcome {
    /// A complete line (possibly empty) is in the buffer.
    Line,
    /// Clean EOF before any byte of a next line.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] before its `\n`.
    TooLong,
    /// A read error (socket idle timeout or hard fault).
    Err(std::io::Error),
}

/// Reads one `\n`-terminated line into `line` (without the terminator),
/// never buffering more than [`MAX_LINE_BYTES`] of it. Non-UTF-8 bytes
/// are replaced lossily — the JSON parser rejects the garbage with a
/// proper error response instead of the connection dying silently.
fn read_bounded_line(lines: &mut impl BufRead, line: &mut String) -> LineOutcome {
    line.clear();
    let mut raw: Vec<u8> = Vec::new();
    loop {
        let buf = match lines.fill_buf() {
            // Clean EOF — or a torn final fragment (peer died mid-line),
            // which is the same thing: no complete request to answer.
            Ok([]) => return LineOutcome::Eof,
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return LineOutcome::Err(e),
        };
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => (&buf[..nl], true),
            None => (buf, false),
        };
        if raw.len() + chunk.len() > MAX_LINE_BYTES {
            // Consume what we inspected so the error answer isn't followed
            // by re-reading the same bytes; the connection closes anyway.
            let used = chunk.len() + usize::from(done);
            lines.consume(used);
            return LineOutcome::TooLong;
        }
        raw.extend_from_slice(chunk);
        let used = chunk.len() + usize::from(done);
        lines.consume(used);
        if done {
            line.push_str(&String::from_utf8_lossy(&raw));
            return LineOutcome::Line;
        }
    }
}

/// Reads request lines until EOF, a read error, a line-cap breach, a
/// queued `shutdown`, or daemon shutdown. Socket idle timeouts and hard
/// read errors are counted separately (`daemon_conn_idle_timeouts_total`
/// vs `daemon_conn_io_errors_total`) so operators can tell churn from
/// faults.
pub(crate) fn run_reader(
    mut input: impl BufRead,
    read: &ReadHandle,
    jobs: &mpsc::SyncSender<Job>,
    lane: Lane,
) {
    let mut line = String::new();
    loop {
        match read_bounded_line(&mut input, &mut line) {
            LineOutcome::Line => {}
            // EOF: client closed, or shutdown closed our read side.
            LineOutcome::Eof => break,
            LineOutcome::TooLong => {
                read.recorder.counter_add("daemon_line_too_long_total", 1);
                let _ = lane.slots.send(Slot::Ready(obj(vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str("line too long".into())),
                    ("max_line_bytes", Json::UInt(MAX_LINE_BYTES as u64)),
                ])));
                break;
            }
            // Idle timeout (SO_RCVTIMEO reports WouldBlock or TimedOut
            // depending on platform) or any hard read error: drop the
            // connection. A line split across the timeout boundary is
            // abandoned — idle clients are expected to be between lines.
            LineOutcome::Err(e) => {
                let counter = if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    "daemon_conn_idle_timeouts_total"
                } else {
                    "daemon_conn_io_errors_total"
                };
                read.recorder.counter_add(counter, 1);
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let item = crate::protocol::parse_incoming(trimmed);
        if let Ok(inc) = &item {
            // Lock-free only with nothing of ours still queued: a read
            // pipelined behind this connection's own request must observe
            // it, so it queues and the event loop answers it after that
            // request's publish.
            if inc.req.is_read_only() && lane.in_flight.load(Ordering::Acquire) == 0 {
                let t0 = Instant::now();
                let response = read.answer_lockfree(&inc.req);
                read.recorder.observe_labeled(
                    "daemon_command_latency_ms",
                    "cmd",
                    inc.req.name(),
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                let response = with_request_id(response, inc.request_id.as_deref());
                if lane.slots.send(Slot::Ready(response)).is_err() {
                    break; // writer gone (peer died or evicted)
                }
                continue;
            }
        }
        let request_id = item.as_ref().ok().and_then(|inc| inc.request_id.clone());
        let shutdown = matches!(&item, Ok(inc) if inc.req == Request::Shutdown);
        // Depth is incremented optimistically, rolled back on a full queue.
        let depth = read.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        read.recorder.gauge_set("daemon_queue_depth", depth as f64);
        let (reply_tx, reply_rx) = mpsc::channel::<Json>();
        match jobs.try_send(Job {
            item,
            reply: reply_tx,
        }) {
            Ok(()) => {
                // Counted before the slot is sent, so the writer can never
                // take this reply first.
                lane.in_flight.fetch_add(1, Ordering::AcqRel);
                if lane.slots.send(Slot::Pending(reply_rx)).is_err() || shutdown {
                    // After a queued `shutdown` nothing more is read: its
                    // `bye` is this connection's last line.
                    break;
                }
            }
            Err(mpsc::TrySendError::Full(_)) => {
                let depth = read.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
                read.recorder.gauge_set("daemon_queue_depth", depth as f64);
                let response = with_request_id(read.overloaded(), request_id.as_deref());
                if lane.slots.send(Slot::Ready(response)).is_err() {
                    break;
                }
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                let depth = read.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
                read.recorder.gauge_set("daemon_queue_depth", depth as f64);
                let _ = lane.slots.send(Slot::Ready(with_request_id(
                    obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str("daemon is shutting down".into())),
                    ]),
                    request_id.as_deref(),
                )));
                break;
            }
        }
    }
}

/// Writes responses in request order, blocking on pending event-loop
/// replies; stops at the first write error. A connection's in-flight
/// count drops as the writer takes a reply, before writing it: a client
/// that waits for each answer never has a read queued.
pub(crate) fn run_writer(output: &mut impl Write, responses: Responses) -> std::io::Result<()> {
    for slot in responses.slots {
        let response = match slot {
            Slot::Ready(json) => json,
            Slot::Pending(reply) => {
                let response = reply.recv().unwrap_or_else(|_| {
                    obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str("daemon exited before answering".into())),
                    ])
                });
                responses.in_flight.fetch_sub(1, Ordering::AcqRel);
                response
            }
        };
        writeln!(output, "{}", response.encode())?;
        output.flush()?;
    }
    Ok(())
}
