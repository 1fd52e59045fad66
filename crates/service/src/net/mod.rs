//! Multi-client serving transports: a TCP and/or Unix-socket listener in
//! front of the daemon's event loop ([`crate::Daemon::serve`]).
//!
//! Architecture (DESIGN.md §14): one acceptor thread per listener, two
//! threads per connection (reader + writer, see the `conn` module; the
//! stdio pair of [`crate::Daemon::run`] is one more such connection).
//! Connection readers answer read-only commands directly from the published
//! [`crate::read_path::ReadSnapshot`] unless their own connection has a
//! queued request unanswered, and funnel everything else into the
//! bounded job queue the event loop drains; the writer preserves strict
//! per-connection FIFO response order via a slot channel, so a pure-read
//! connection never waits on a solve while a mixed connection only waits
//! behind its *own* requests.
//!
//! Shutdown: the issuing connection's reader stops after queueing
//! `shutdown`; the event loop then sets the shared flag and closes every
//! registered connection's read side (`Registry::close_read_sides`);
//! acceptors stop, readers see EOF and drop their queue senders, the loop
//! drains what was already queued (every accepted request still gets its
//! answer), writers flush and close. The final durable snapshot is then
//! written exactly once by the loop's shared teardown.
//!
//! Accept loops poll non-blockingly (5 ms naps) instead of parking in
//! `accept`: with `#![forbid(unsafe_code)]` there is no portable way to
//! interrupt a blocked accept, and a bounded poll keeps shutdown prompt
//! without busy-spinning.

use crate::ServiceError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

pub(crate) mod conn;
pub mod fault;

use fault::{NetFaultKind, NetFaultPlan, NetFaultState};

/// How long an acceptor naps between non-blocking accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Default write timeout (`SO_SNDTIMEO`) on accepted streams, applied
/// when [`NetOptions::write_timeout_ms`] is 0: long enough that no
/// healthy client on any sane network ever trips it, short enough that a
/// stalled reader cannot pin a writer thread, its fd, and a `--max-conns`
/// slot forever (DESIGN.md §15).
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How many consecutive hard accept failures between stderr log lines
/// (~5 s of solid failure at the poll cadence): a permanently broken
/// listener or fd exhaustion must not degrade into an invisible retry
/// loop while the daemon looks healthy.
const ACCEPT_ERROR_LOG_EVERY: u64 = 1000;

/// Serving-transport tunables (`nws serve --tcp/--socket/...`).
#[derive(Debug, Clone, Default)]
pub struct NetOptions {
    /// TCP listen address (`--tcp`), e.g. `127.0.0.1:7070`. Port 0 binds
    /// an ephemeral port; [`Server::tcp_addr`] reports the actual one.
    pub tcp: Option<String>,
    /// Unix-socket path (`--socket`). A stale socket file is replaced.
    pub unix: Option<String>,
    /// Maximum concurrent connections (`--max-conns`); 0 means the
    /// default (1024). Excess connections get one
    /// `too_many_connections` error line and are closed immediately.
    pub max_conns: usize,
    /// Per-connection idle timeout in ms (`--idle-timeout-ms`); a
    /// connection idle past it is closed. 0 disables the timeout.
    pub idle_timeout_ms: u64,
    /// Per-connection write timeout in ms (`--write-timeout-ms`), the
    /// `SO_SNDTIMEO` behind slow-client eviction: a peer that stops
    /// reading long enough for one response write to stall past this is
    /// evicted (`daemon_slow_client_evictions_total`). 0 means the 30 s
    /// default — the protection is always on.
    pub write_timeout_ms: u64,
    /// Deterministic socket-fault schedule (chaos harness only; `None`
    /// in production). Every accepted connection gets its own seeded
    /// sub-schedule; see [`fault::NetFaultPlan`].
    pub chaos: Option<NetFaultPlan>,
}

impl NetOptions {
    /// Resolved connection cap.
    pub(crate) fn max_conns(&self) -> u64 {
        if self.max_conns == 0 {
            1024
        } else {
            self.max_conns as u64
        }
    }

    /// Resolved idle timeout.
    pub(crate) fn idle_timeout(&self) -> Option<Duration> {
        (self.idle_timeout_ms > 0).then(|| Duration::from_millis(self.idle_timeout_ms))
    }

    /// Resolved write timeout (never disabled; see `write_timeout_ms`).
    pub(crate) fn write_timeout(&self) -> Duration {
        if self.write_timeout_ms == 0 {
            DEFAULT_WRITE_TIMEOUT
        } else {
            Duration::from_millis(self.write_timeout_ms)
        }
    }
}

/// The raw transport of one accepted connection.
#[derive(Debug)]
enum Transport {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-socket connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Transport {
    fn try_clone(&self) -> std::io::Result<Transport> {
        match self {
            Transport::Tcp(s) => s.try_clone().map(Transport::Tcp),
            #[cfg(unix)]
            Transport::Unix(s) => s.try_clone().map(Transport::Unix),
        }
    }
}

/// One accepted connection's stream, over either transport, optionally
/// behind a deterministic fault schedule (chaos harness). Cloned halves
/// of one connection share the schedule position, so the whole
/// connection sees a single coherent fault sequence.
#[derive(Debug)]
pub(crate) struct Stream {
    inner: Transport,
    chaos: Option<Arc<NetFaultState>>,
}

impl Stream {
    fn tcp(s: TcpStream) -> Stream {
        Stream {
            inner: Transport::Tcp(s),
            chaos: None,
        }
    }

    #[cfg(unix)]
    fn unix(s: UnixStream) -> Stream {
        Stream {
            inner: Transport::Unix(s),
            chaos: None,
        }
    }

    /// Puts this connection behind one seeded fault schedule.
    fn with_chaos(mut self, state: Arc<NetFaultState>) -> Stream {
        self.chaos = Some(state);
        self
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(Stream {
            inner: self.inner.try_clone()?,
            chaos: self.chaos.as_ref().map(Arc::clone),
        })
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match &self.inner {
            Transport::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Transport::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// `SO_SNDTIMEO`: a blocked response write past `dur` fails with a
    /// timeout instead of pinning the writer thread forever.
    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match &self.inner {
            Transport::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Transport::Unix(s) => s.set_write_timeout(dur),
        }
    }

    pub(crate) fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match &self.inner {
            Transport::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Transport::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut len = buf.len();
        if let Some(chaos) = &self.chaos {
            match chaos.next_read_fault() {
                Some(NetFaultKind::Reset) => return Err(fault::reset_err("read")),
                Some(NetFaultKind::Delay) => std::thread::sleep(chaos.delay()),
                // A short read hands back at most a quarter of the asked
                // bytes (at least 1): the resume loops above must cope
                // with arbitrarily fragmented arrivals.
                Some(NetFaultKind::ShortRead | NetFaultKind::ShortWrite) => {
                    len = (buf.len() / 4).max(1).min(buf.len());
                }
                None => {}
            }
        }
        let buf = &mut buf[..len];
        match &mut self.inner {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut len = buf.len();
        if let Some(chaos) = &self.chaos {
            match chaos.next_write_fault() {
                Some(NetFaultKind::Reset) => return Err(fault::reset_err("write")),
                Some(NetFaultKind::Delay) => std::thread::sleep(chaos.delay()),
                // A partial write lands a real prefix on the wire and
                // reports the short count — `write_all` callers resume,
                // exactly like a full kernel send buffer.
                Some(NetFaultKind::ShortWrite | NetFaultKind::ShortRead) => {
                    len = (buf.len() / 2).max(1).min(buf.len());
                }
                None => {}
            }
        }
        let buf = &buf[..len];
        match &mut self.inner {
            Transport::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.inner {
            Transport::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener; the Unix variant owns its socket file and removes it
/// when the acceptor drops the listener.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // One response line per request: Nagle + delayed ACK would
                // add ~40 ms to every round trip, so flush eagerly.
                let _ = s.set_nodelay(true);
                Stream::tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::unix(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bound-but-not-yet-serving listeners. Bind first, read
/// [`Server::tcp_addr`] (ephemeral ports), then hand the server to
/// [`crate::Daemon::serve`].
#[derive(Debug)]
pub struct Server {
    listeners: Vec<Listener>,
    tcp_addr: Option<SocketAddr>,
    opts: NetOptions,
}

impl Server {
    /// Binds every configured listener.
    ///
    /// # Errors
    /// [`ServiceError::State`] when no transport is configured, an
    /// address cannot be bound, or the platform lacks Unix sockets.
    pub fn bind(opts: &NetOptions) -> Result<Server, ServiceError> {
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &opts.tcp {
            let listener = TcpListener::bind(addr)
                .map_err(|e| ServiceError::State(format!("cannot bind tcp '{addr}': {e}")))?;
            tcp_addr = Some(
                listener
                    .local_addr()
                    .map_err(|e| ServiceError::State(format!("tcp local_addr: {e}")))?,
            );
            listeners.push(Listener::Tcp(listener));
        }
        if let Some(path) = &opts.unix {
            listeners.push(Self::bind_unix(path)?);
        }
        if listeners.is_empty() {
            return Err(ServiceError::State(
                "no serving transport: configure --tcp and/or --socket".into(),
            ));
        }
        Ok(Server {
            listeners,
            tcp_addr,
            opts: opts.clone(),
        })
    }

    #[cfg(unix)]
    fn bind_unix(path: &str) -> Result<Listener, ServiceError> {
        // Replace a stale socket file (a previous daemon that died without
        // cleanup); a *live* daemon would still be serving on it, but the
        // state-dir lockfile is the real single-instance guard.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)
            .map_err(|e| ServiceError::State(format!("cannot bind socket '{path}': {e}")))?;
        Ok(Listener::Unix(listener, PathBuf::from(path)))
    }

    #[cfg(not(unix))]
    fn bind_unix(path: &str) -> Result<Listener, ServiceError> {
        Err(ServiceError::State(format!(
            "unix sockets are not supported on this platform ('{path}')"
        )))
    }

    /// The bound TCP address, when a TCP listener is configured — the way
    /// to learn the real port after binding `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The transport options this server was bound with.
    pub fn options(&self) -> &NetOptions {
        &self.opts
    }
}

/// One queued request from a connection: the parsed item plus the
/// per-request reply channel its writer blocks on (in FIFO order).
#[derive(Debug)]
pub(crate) struct Job {
    pub item: Result<crate::protocol::Incoming, String>,
    pub reply: mpsc::Sender<crate::json::Json>,
}

/// Live-connection registry: counts for the connection cap and gauges,
/// plus a read-side handle per connection so shutdown can wake every
/// blocked reader. Handles are keyed by a connection id so
/// [`Registry::release`] can drop the duplicated stream (and close its
/// fd) as soon as the connection's last thread exits — a long-running
/// daemon must not accumulate one dead fd per connection ever served.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    streams: Mutex<HashMap<u64, Stream>>,
    active: AtomicU64,
    opened: AtomicU64,
    next_id: AtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    fn streams(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Stream>> {
        match self.streams.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Registers an accepted connection (a cloned handle for shutdown);
    /// returns the id to pass to [`Registry::release`].
    fn register(&self, handle: Stream) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::SeqCst);
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.streams().insert(id, handle);
        id
    }

    /// Frees one connection's slot: removes (and thereby closes) its
    /// registered handle and decrements the live count. Idempotent.
    fn release(&self, id: u64) {
        if self.streams().remove(&id).is_some() {
            self.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    pub(crate) fn active(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub(crate) fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Shuts down the read side of every live registered connection:
    /// blocked readers observe EOF, stop enqueueing, and drop their queue
    /// senders, which lets the event loop drain to completion. Write
    /// sides stay open so in-flight responses (including the `bye`) still
    /// reach their peers.
    pub(crate) fn close_read_sides(&self) {
        for s in self.streams().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
    }
}

/// Spawns one acceptor thread per bound listener inside `scope`. Each
/// accepted connection gets its own reader/writer thread pair (also in
/// `scope`); `jobs` is dropped with the last acceptor/reader, which is
/// what ends the event loop's drain after shutdown.
pub(crate) fn spawn_acceptors<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    server: Server,
    jobs: mpsc::SyncSender<Job>,
    read: crate::read_path::ReadHandle,
    registry: Arc<Registry>,
    shutting_down: Arc<AtomicBool>,
) {
    let Server {
        listeners, opts, ..
    } = server;
    for listener in listeners {
        let jobs = jobs.clone();
        let read = read.clone();
        let registry = Arc::clone(&registry);
        let shutting_down = Arc::clone(&shutting_down);
        let opts = opts.clone();
        scope.spawn(move || {
            accept_loop(scope, listener, &opts, jobs, read, registry, shutting_down);
        });
    }
}

fn accept_loop<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    listener: Listener,
    opts: &NetOptions,
    jobs: mpsc::SyncSender<Job>,
    read: crate::read_path::ReadHandle,
    registry: Arc<Registry>,
    shutting_down: Arc<AtomicBool>,
) {
    if listener.set_nonblocking().is_err() {
        return;
    }
    let max_conns = opts.max_conns();
    let mut accept_errors: u64 = 0;
    // Chaos wiring (None in production): the accept lane has its own
    // schedule; each accepted connection derives one from its listener-
    // local accept index, so per-connection fault sequences don't depend
    // on neighbours.
    let accept_chaos = opts.chaos.as_ref().map(NetFaultPlan::accept_state);
    let mut accepted: u64 = 0;
    while !shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(mut stream) => {
                accept_errors = 0;
                if shutting_down.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                if let Some(chaos) = &accept_chaos {
                    if chaos.next_accept_fault() {
                        // Accept-time failure: the handshake dies before
                        // the daemon greets — the peer sees a reset and
                        // must reconnect.
                        read.recorder
                            .counter_add("daemon_chaos_accept_faults_total", 1);
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                }
                if let Some(plan) = &opts.chaos {
                    stream = stream.with_chaos(Arc::new(plan.conn_state(accepted)));
                }
                accepted += 1;
                if registry.active() >= max_conns {
                    // One explicit error line, then the door: silently
                    // dropping would look like a network fault to the
                    // peer and provoke blind retries.
                    read.recorder
                        .counter_add("daemon_connections_rejected_total", 1);
                    let line = crate::json::obj(vec![
                        ("ok", crate::json::Json::Bool(false)),
                        (
                            "error",
                            crate::json::Json::Str("too_many_connections".into()),
                        ),
                    ]);
                    let _ = writeln!(stream, "{}", line.encode());
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                conn::spawn_connection(
                    scope,
                    stream,
                    opts,
                    jobs.clone(),
                    read.clone(),
                    Arc::clone(&registry),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                // Hard accept failure (EMFILE, aborted handshake, broken
                // listener): back off briefly and keep listening, but
                // count it and log sustained failure — a listener that
                // accepts nothing must not look healthy.
                read.recorder.counter_add("daemon_accept_errors_total", 1);
                accept_errors = accept_errors.saturating_add(1);
                if accept_errors % ACCEPT_ERROR_LOG_EVERY == 0 {
                    eprintln!(
                        "nws serve: accept has failed {accept_errors} times \
                         since the last accepted connection (latest: {e}); retrying"
                    );
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_pair() -> (Stream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (Stream::tcp(server), client)
    }

    /// A released slot removes (and thereby drops/closes) the registered
    /// stream instead of leaking one duplicated fd per connection served;
    /// release is idempotent so a double-release cannot underflow the cap.
    #[test]
    fn registry_release_removes_and_closes_the_entry() {
        let registry = Registry::new();
        let (a, mut client_a) = tcp_pair();
        let (b, _client_b) = tcp_pair();
        let id_a = registry.register(a);
        let id_b = registry.register(b);
        assert_eq!(registry.active(), 2);
        assert_eq!(registry.opened(), 2);
        assert_eq!(registry.streams().len(), 2);

        registry.release(id_a);
        assert_eq!(registry.active(), 1);
        assert_eq!(
            registry.streams().len(),
            1,
            "released entry must be dropped"
        );
        // The registry held the only server-side handle here, so dropping
        // it closes the socket: the peer observes EOF.
        client_a
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        assert_eq!(client_a.read(&mut buf).expect("read"), 0, "fd closed");

        registry.release(id_a); // idempotent
        assert_eq!(registry.active(), 1);
        registry.release(id_b);
        assert_eq!(registry.active(), 0);
        assert!(registry.streams().is_empty());
        assert_eq!(registry.opened(), 2, "lifetime count is unaffected");
    }
}
