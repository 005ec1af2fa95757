//! The TCP frontend: acceptor thread, bounded connection queue, worker
//! pool with panic isolation and respawn, and graceful drain.

use crate::error::EbError;
use crate::net::http::{read_request, write_response, WireError, WireLimits};
use crate::net::router::{route, Action, RouteCtx};
use crate::serve::{lock_recovering, DynamicBatcher, Priority, Rejected, Server};
use eb_telemetry::{Counter, Gauge, Histogram, Registry, Trace};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Frontend tuning: bind address, thread counts, queue bound, and the
/// per-connection defensive limits.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Connection-worker threads (each handles one connection at a
    /// time). Must be at least 1.
    pub workers: usize,
    /// Bound on connections queued between acceptor and workers. When
    /// full, further connections are shed with a canned `503` — the
    /// acceptor never blocks. Must be at least 1.
    pub conn_backlog: usize,
    /// Per-connection socket read timeout — the slowloris bound: a peer
    /// that stalls mid-request costs a worker at most this long.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Request head/body byte caps (431/413 past them).
    pub limits: WireLimits,
    /// `Retry-After` seconds advertised on shed (`503`) responses.
    pub retry_after_secs: u32,
    /// Enables the `POST /admin/panic` chaos route, which panics inside
    /// a connection worker to exercise the respawn path. Off by
    /// default; turn on only in tests/drills.
    pub chaos: bool,
}

impl Default for NetConfig {
    /// Loopback ephemeral port, 4 workers, 64-connection backlog, 5 s
    /// read/write timeouts, default wire limits, `Retry-After: 1`.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            conn_backlog: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: WireLimits::default(),
            retry_after_secs: 1,
            chaos: false,
        }
    }
}

impl NetConfig {
    fn validate(&self) -> Result<(), EbError> {
        if self.workers == 0 {
            return Err(EbError::Config(
                "net frontend needs at least 1 worker".into(),
            ));
        }
        if self.conn_backlog == 0 {
            return Err(EbError::Config(
                "net frontend needs conn_backlog of at least 1".into(),
            ));
        }
        if self.read_timeout.is_zero() || self.write_timeout.is_zero() {
            return Err(EbError::Config(
                "net frontend read/write timeouts must be non-zero \
                 (zero disables the slowloris bound)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Frontend counters, snapshotted by [`NetServer::stats`]. Each field is
/// read from its `eb_net_*` series in the served [`Server`]'s metrics
/// registry, the only store of that count, so a field and its series
/// always agree; the scope is the [`Server`], shared by every frontend
/// bound to it. All counts are monotone and bumped before the response
/// they describe is written, so a caller that observed an effect (a
/// response, a shed) finds it reflected here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted off the listener (including ones later
    /// shed from the full connection queue).
    pub accepted: u64,
    /// Connections shed by the acceptor because the connection queue
    /// was full — answered with a canned `503` and closed, never
    /// counted under the per-request counters below.
    pub shed_connections: u64,
    /// Requests successfully parsed off the wire.
    pub requests: u64,
    /// Responses written with a 2xx status.
    pub responses_2xx: u64,
    /// Responses written with a 4xx status (including wire-level 400/
    /// 408/413/431 for requests that never parsed).
    pub responses_4xx: u64,
    /// Responses written with a 5xx status (including per-request
    /// sheds).
    pub responses_5xx: u64,
    /// Requests shed with `503 + Retry-After` because the model's pool
    /// queue was at capacity ([`EbError::Overloaded`]). A subset of
    /// [`NetStats::responses_5xx`].
    pub shed_requests: u64,
    /// Connections whose handler panicked. The panic is isolated: the
    /// connection dies, the worker (and listener) survive.
    pub worker_panics: u64,
    /// Worker threads respawned after dying to a panic that escaped
    /// connection-level isolation (the chaos route exercises this).
    pub worker_respawns: u64,
}

/// The frontend's metrics-registry handles, resolved once at bind time:
/// one counter per [`NetStats`] field, plus wire-parse failures by
/// class, the open-connection gauge, and the uptime gauge a scrape
/// stamps. The counters are `Relaxed` statistics that publish no other
/// data; the only link between a bump and a client that read the
/// response is the socket, which no atomic ordering strengthens.
#[derive(Debug)]
pub(crate) struct NetCounters {
    accepted: Counter,
    shed_connections: Counter,
    requests: Counter,
    responses_2xx: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    shed_requests: Counter,
    worker_panics: Counter,
    worker_respawns: Counter,
    wire_bad_request: Counter,
    wire_head_too_large: Counter,
    wire_body_too_large: Counter,
    wire_timeout: Counter,
    wire_closed: Counter,
    wire_io: Counter,
    connections_open: Gauge,
    /// `eb_net_uptime_seconds`, set when `/metrics` is scraped.
    pub(crate) uptime: Gauge,
}

impl NetCounters {
    fn register(registry: &Registry) -> Self {
        let wire = |class: &str| {
            registry.counter(
                "eb_net_wire_errors_total",
                "Requests that failed to read off the wire, by failure class.",
                &[("class", class)],
            )
        };
        let response = |class: &str| {
            registry.counter(
                "eb_net_responses_total",
                "Responses written, by status class.",
                &[("class", class)],
            )
        };
        Self {
            accepted: registry.counter(
                "eb_net_connections_accepted_total",
                "Connections accepted off the listener.",
                &[],
            ),
            shed_connections: registry.counter(
                "eb_net_connections_shed_total",
                "Connections shed with a canned 503 because the connection queue was full.",
                &[],
            ),
            requests: registry.counter(
                "eb_net_requests_total",
                "Requests successfully parsed off the wire.",
                &[],
            ),
            responses_2xx: response("2xx"),
            responses_4xx: response("4xx"),
            responses_5xx: response("5xx"),
            shed_requests: registry.counter(
                "eb_net_requests_shed_total",
                "Requests answered 503 + Retry-After because the model's queue was at capacity.",
                &[],
            ),
            worker_panics: registry.counter(
                "eb_net_worker_panics_total",
                "Connections whose handler panicked (the connection died, the worker survived).",
                &[],
            ),
            worker_respawns: registry.counter(
                "eb_net_worker_respawns_total",
                "Worker threads respawned after a panic escaped connection isolation.",
                &[],
            ),
            wire_bad_request: wire("bad_request"),
            wire_head_too_large: wire("head_too_large"),
            wire_body_too_large: wire("body_too_large"),
            wire_timeout: wire("timeout"),
            wire_closed: wire("closed"),
            wire_io: wire("io"),
            connections_open: registry.gauge(
                "eb_net_connections_open",
                "Connections currently held by a worker.",
                &[],
            ),
            uptime: registry.gauge(
                "eb_net_uptime_seconds",
                "Seconds since the frontend bound its listener.",
                &[],
            ),
        }
    }

    fn wire_error(&self, e: &WireError) -> &Counter {
        match e {
            WireError::BadRequest(_) => &self.wire_bad_request,
            WireError::HeadTooLarge { .. } => &self.wire_head_too_large,
            WireError::BodyTooLarge { .. } => &self.wire_body_too_large,
            WireError::TimedOut => &self.wire_timeout,
            WireError::Closed => &self.wire_closed,
            WireError::Io(_) => &self.wire_io,
        }
    }

    fn response(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.get(),
            shed_connections: self.shed_connections.get(),
            requests: self.requests.get(),
            responses_2xx: self.responses_2xx.get(),
            responses_4xx: self.responses_4xx.get(),
            responses_5xx: self.responses_5xx.get(),
            shed_requests: self.shed_requests.get(),
            worker_panics: self.worker_panics.get(),
            worker_respawns: self.worker_respawns.get(),
        }
    }
}

/// State shared by the acceptor, the workers, and the handle.
#[derive(Debug)]
struct NetShared {
    registry: Arc<Server>,
    config: NetConfig,
    /// Accepted connections waiting for a worker. `max_batch = 1`,
    /// `max_wait = 0`: plain bounded MPMC hand-off, no coalescing.
    conns: DynamicBatcher<TcpStream>,
    local_addr: SocketAddr,
    /// Once true the acceptor drops every further connection; flipped
    /// exactly once by [`begin_shutdown`].
    stopping: AtomicBool,
    /// Mirror of `stopping` behind a mutex purely so
    /// [`NetServer::wait_shutdown_requested`] can block on a condvar.
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    counters: NetCounters,
    /// When the listener was bound — the frontend's uptime origin,
    /// reported by `/healthz` and the `eb_net_uptime_seconds` gauge.
    started: Instant,
    /// Join handles of workers respawned after a panic, drained by the
    /// final join.
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

/// What a connection handler asks of its worker after finishing.
#[derive(PartialEq, Eq)]
enum ConnControl {
    /// Connection done; serve the next one.
    Done,
    /// Chaos route hit: the worker must panic *outside* connection
    /// isolation so the real respawn path runs.
    Panic,
}

/// The HTTP serving frontend. Construction ([`NetServer::bind`]) spawns
/// the acceptor and worker threads; [`NetServer::shutdown`] (or drop)
/// drains them gracefully — stop accepting, serve everything already
/// accepted, join every thread.
///
/// See the [module docs](crate::net) for the threading model.
#[derive(Debug)]
pub struct NetServer {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `config.addr` and starts serving `registry`.
    ///
    /// # Errors
    ///
    /// [`EbError::Config`] when the config is invalid or the address
    /// cannot be bound.
    pub fn bind(registry: Arc<Server>, config: NetConfig) -> Result<Self, EbError> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| EbError::Config(format!("cannot bind {:?}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| EbError::Config(format!("cannot read bound address: {e}")))?;
        let counters = NetCounters::register(registry.metrics());
        let shared = Arc::new(NetShared {
            registry,
            conns: DynamicBatcher::new(
                config.conn_backlog,
                1,
                Duration::ZERO,
                Gauge::new(),
                Histogram::new(),
            ),
            config,
            local_addr,
            stopping: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            counters,
            started: Instant::now(),
            respawned: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("eb-net-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener))
                .map_err(|e| EbError::Config(format!("cannot spawn acceptor: {e}")))?
        };
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("eb-net-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .map_err(|e| EbError::Config(format!("cannot spawn worker: {e}")))?;
            workers.push(handle);
        }
        Ok(Self {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The registry this frontend serves.
    pub fn registry(&self) -> &Arc<Server> {
        &self.shared.registry
    }

    /// Snapshot of the frontend counters.
    pub fn stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }

    /// `true` once shutdown has been requested (via
    /// [`NetServer::shutdown`], drop, or `POST /admin/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested or `timeout` elapses; `true`
    /// when shutdown was requested. Lets a serving binary park its main
    /// thread while `POST /admin/shutdown` can end it remotely.
    pub fn wait_shutdown_requested(&self, timeout: Duration) -> bool {
        let flag = lock_recovering(&self.shared.shutdown_flag);
        let (flag, _) = self
            .shared
            .shutdown_cv
            .wait_timeout_while(flag, timeout, |stopping| !*stopping)
            .unwrap_or_else(PoisonError::into_inner);
        *flag
    }

    /// Graceful drain: stop accepting, serve every connection already
    /// accepted (their in-flight tickets complete), join all threads,
    /// and return the final counters. Zero accepted work is dropped.
    pub fn shutdown(mut self) -> NetStats {
        self.drain_and_join();
        self.stats()
    }

    fn drain_and_join(&mut self) {
        begin_shutdown(&self.shared);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Queue closes only after the acceptor is gone, so every
        // connection it enqueued is still served before workers exit.
        self.shared.conns.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Respawned workers can themselves respawn (in principle), so
        // drain until the list stays empty.
        loop {
            let batch: Vec<JoinHandle<()>> =
                std::mem::take(&mut *lock_recovering(&self.shared.respawned));
            if batch.is_empty() {
                break;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.drain_and_join();
        }
    }
}

/// Flips the stopping flag (once) and wakes the blocked `accept()` with
/// a throwaway self-connection.
fn begin_shutdown(shared: &NetShared) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return;
    }
    *lock_recovering(&shared.shutdown_flag) = true;
    shared.shutdown_cv.notify_all();
    // accept() has no timeout; a loopback connection unblocks it so it
    // can observe `stopping`. If the connect fails the acceptor is
    // already dead or dying, which is fine.
    let mut addr = shared.local_addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn acceptor_loop(shared: &NetShared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    // Includes the wake-up self-connection.
                    drop(stream);
                    break;
                }
                shared.counters.accepted.inc();
                match shared.conns.try_offer(stream, Priority::Normal) {
                    Ok(()) => {}
                    Err(Rejected::Full(stream)) => shed_connection(shared, stream),
                    Err(Rejected::Closed(stream)) => {
                        drop(stream);
                        break;
                    }
                }
            }
            Err(_) if shared.stopping.load(Ordering::SeqCst) => break,
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off
                // briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Answers a connection the queue had no room for: canned
/// `503 + Retry-After`, then close. Never blocks the acceptor for more
/// than one short write.
fn shed_connection(shared: &NetShared, mut stream: TcpStream) {
    shared.counters.shed_connections.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let body = br#"{"error":"connection queue at capacity; retry later"}"#;
    let retry = shared.config.retry_after_secs.to_string();
    let wrote = write_response(
        &mut stream,
        503,
        "application/json",
        &[("retry-after", retry)],
        body,
        true,
    );
    if wrote.is_ok() {
        // The client has usually already sent its request; a bare close
        // would RST it away before it reads the 503.
        lingering_close(stream);
    }
}

/// Re-arms worker capacity when a worker thread dies to a panic: the
/// drop guard runs during unwind, spawns a replacement, and records the
/// respawn. Normal exit disarms it.
struct RespawnGuard {
    shared: Arc<NetShared>,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !(self.armed && thread::panicking()) {
            return;
        }
        self.shared.counters.worker_respawns.inc();
        let shared = Arc::clone(&self.shared);
        let spawned = thread::Builder::new()
            .name("eb-net-worker-respawn".into())
            .spawn(move || worker_loop(shared));
        if let Ok(handle) = spawned {
            lock_recovering(&self.shared.respawned).push(handle);
        }
    }
}

fn worker_loop(shared: Arc<NetShared>) {
    let mut guard = RespawnGuard {
        shared: Arc::clone(&shared),
        armed: true,
    };
    while let Some(batch) = shared.conns.next_batch() {
        for stream in batch {
            // Connection-level isolation: a panicking handler costs one
            // connection, not the worker (and never the listener).
            shared.counters.connections_open.add(1.0);
            let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(&shared, stream)));
            shared.counters.connections_open.add(-1.0);
            match outcome {
                Ok(ConnControl::Done) => {}
                Ok(ConnControl::Panic) => {
                    // Chaos route: panic OUTSIDE the isolation boundary
                    // so the drill exercises the true worker-death →
                    // respawn path rather than the per-connection catch.
                    shared.counters.worker_panics.inc();
                    panic!("chaos panic requested via /admin/panic");
                }
                Err(_) => shared.counters.worker_panics.inc(),
            }
        }
    }
    guard.armed = false;
}

/// Closes a connection that still has unread request bytes without
/// destroying the response we just wrote: a bare close would send RST,
/// which can wipe the peer's receive buffer before it reads our 4xx.
/// Instead: half-close the write side (FIN after the response), then
/// drain and discard the peer's remaining bytes — bounded by the read
/// timeout and a byte cap — so the close is clean.
fn lingering_close(mut stream: TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn handle_connection(shared: &NetShared, mut stream: TcpStream) -> ConnControl {
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.config.write_timeout))
            .is_err()
    {
        return ConnControl::Done;
    }
    let _ = stream.set_nodelay(true);
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let req = match read_request(&mut stream, &mut carry, &shared.config.limits) {
            Ok(req) => req,
            Err(e) => {
                // Wire-level failure: answer if a status applies, then
                // close — the carry buffer is unusable after an error.
                shared.counters.wire_error(&e).inc();
                if let Some((status, _reason)) = e.status() {
                    shared.counters.response(status);
                    let body = format!(
                        r#"{{"error":{}}}"#,
                        super::router::json_string(&e.to_string())
                    );
                    let wrote = write_response(
                        &mut stream,
                        status,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        true,
                    );
                    if wrote.is_ok() {
                        // The peer may still be mid-send (oversized
                        // head/body): close without RSTing away the
                        // error response it hasn't read yet.
                        lingering_close(stream);
                    }
                }
                return ConnControl::Done;
            }
        };
        shared.counters.requests.inc();
        // The trace is born here, right after the last wire byte, so
        // Accepted→Parsed measures routing + body parse, never socket
        // reads.
        let ctx = RouteCtx {
            chaos: shared.config.chaos,
            retry_after_secs: shared.config.retry_after_secs,
            started: shared.started,
            net: &shared.counters,
            trace: Trace::begin(),
        };
        let (resp, action) = route(&shared.registry, &req, &ctx);
        if action == Action::Panic {
            // Drop the connection without a response: the client
            // observing a reset is part of the drill.
            return ConnControl::Panic;
        }
        let close =
            !req.keep_alive || action == Action::Shutdown || shared.stopping.load(Ordering::SeqCst);
        shared.counters.response(resp.status);
        if resp.shed {
            shared.counters.shed_requests.inc();
        }
        let mut extra: Vec<(&str, String)> = Vec::new();
        if let Some(secs) = resp.retry_after {
            extra.push(("retry-after", secs.to_string()));
        }
        let write_ok = write_response(
            &mut stream,
            resp.status,
            resp.content_type,
            &extra,
            resp.body.as_bytes(),
            close,
        )
        .is_ok();
        if action == Action::Shutdown {
            begin_shutdown(shared);
        }
        if close || !write_ok {
            let _ = stream.flush();
            return ConnControl::Done;
        }
    }
}
