//! The HTTP server: listener, pool-driven accept/dispatch, handlers.
//!
//! Concurrency rides the existing [`arest_tnt::pool::run_dynamic`]
//! pool — the same engine that runs the measurement pipeline — rather
//! than a second hand-rolled thread pool. The unit graph is simple:
//! one `Accept` unit camps on the (non-blocking) listener; each
//! accepted connection is admitted through the model-checked
//! [`DispatchCore`], injected as a `Conn` unit, and a fresh `Accept`
//! unit is injected behind it. On shutdown the accept unit returns
//! *without* re-injecting, the pool drains the in-flight connections,
//! and [`Server::run`] returns — graceful shutdown is the pool's
//! ordinary termination condition, not a special path.
//!
//! One worker is always occupied by the accept unit, so a server with
//! `w` workers serves at most `w - 1` connections concurrently;
//! [`Server::bind`] therefore clamps the pool to at least two
//! workers. Keep-alive connections poll the shutdown flag on a short
//! read timeout, so an idle client cannot hold the drain hostage.

use crate::dispatch::{DispatchCore, DispatchStats};
use crate::http::{self, ParseError, Parsed, Request, Response};
use crate::json::Json;
use crate::render;
use crate::router::{self, Route, RouteError};
use crate::store::Store;
use crate::store_cell::{StoreCell, StoreVersion};
use arest_ledger::{Ledger, LedgerError};
use arest_obs::{Counter, Histogram, Registry};
use std::fmt::Write as _;
use std::io::Read as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the accept unit sleeps when the listener has nothing.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Read timeout on connection sockets: the interval at which an idle
/// keep-alive connection re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Idle polls a connection mid-request is granted after shutdown
/// before being dropped (≈ half a second of grace).
const SHUTDOWN_GRACE_POLLS: u32 = 20;

/// Request/response statuses with dedicated counters. Anything else
/// lands on the shared `other` counter.
const TRACKED_STATUSES: [u16; 7] = [200, 400, 404, 405, 414, 422, 431];

/// Endpoint labels, indexable by [`endpoint_index`]. `other` covers
/// requests that never resolved to a route (404s, parse errors).
const ENDPOINTS: [&str; 9] =
    ["summary", "as", "addr", "runs", "run", "diff", "metrics", "status", "other"];

fn endpoint_index(route: Option<Route>) -> usize {
    match route {
        Some(Route::Summary) => 0,
        Some(Route::As(_)) => 1,
        Some(Route::Addr(_)) => 2,
        Some(Route::Runs) => 3,
        Some(Route::Run(_)) => 4,
        Some(Route::Diff(..)) => 5,
        Some(Route::Metrics) => 6,
        Some(Route::Status) => 7,
        None => 8,
    }
}

/// Every serve metric, registered up front at [`Server::bind`] so a
/// `/metrics` scrape of a fresh server already lists the full set
/// (and a disabled registry renders them all as zeros — which is what
/// keeps the documented `/metrics` example byte-stable).
#[derive(Debug)]
struct Metrics {
    connections: Counter,
    requests: Counter,
    by_endpoint: Vec<(Counter, Histogram)>,
    by_status: Vec<(u16, Counter)>,
    status_other: Counter,
}

impl Metrics {
    fn register(registry: &Registry) -> Metrics {
        Metrics {
            connections: registry.counter("serve.http.connections"),
            requests: registry.counter("serve.http.requests"),
            by_endpoint: ENDPOINTS
                .iter()
                .map(|label| {
                    (
                        registry.counter(&format!("serve.http.requests.{label}")),
                        registry.histogram(&format!("serve.http.latency.us.{label}")),
                    )
                })
                .collect(),
            by_status: TRACKED_STATUSES
                .iter()
                .map(|&status| {
                    (status, registry.counter(&format!("serve.http.responses.{status}")))
                })
                .collect(),
            status_other: registry.counter("serve.http.responses.other"),
        }
    }

    fn record(&self, route: Option<Route>, status: u16, elapsed: Duration) {
        self.requests.inc();
        let (requests, latency) = &self.by_endpoint[endpoint_index(route)];
        requests.inc();
        latency.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        match self.by_status.iter().find(|(s, _)| *s == status) {
            Some((_, counter)) => counter.inc(),
            None => self.status_other.inc(),
        }
    }
}

/// A work unit on the pool: camp on the listener, or serve one
/// connection to completion.
enum Unit {
    Accept,
    Conn(TcpStream),
}

/// The query daemon. Bind with a completed [`Store`], then [`run`]
/// (blocking) until a [`ShutdownHandle`] or the `interrupted` poll of
/// [`run_until`] ends it.
///
/// [`run`]: Server::run
/// [`run_until`]: Server::run_until
#[derive(Debug)]
pub struct Server<'r> {
    listener: TcpListener,
    cell: Arc<StoreCell>,
    ledger: Option<Arc<Ledger>>,
    registry: &'r Registry,
    metrics: Metrics,
    core: Arc<DispatchCore>,
    workers: usize,
}

/// A cloneable handle that requests graceful shutdown of the server
/// it came from.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<DispatchCore>);

impl ShutdownHandle {
    /// Requests graceful shutdown: in-flight requests complete, idle
    /// keep-alive connections close, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.0.request_shutdown();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.0.shutdown_requested()
    }
}

impl<'r> Server<'r> {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port)
    /// and registers the serve metrics on `registry`. `workers`
    /// defaults to [`arest_tnt::pool::worker_count`], clamped to at
    /// least 2 (one worker camps on the listener).
    pub fn bind(
        addr: &str,
        store: Arc<Store>,
        registry: &'r Registry,
        workers: Option<usize>,
    ) -> std::io::Result<Server<'r>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = workers.unwrap_or_else(arest_tnt::pool::worker_count).max(2);
        Ok(Server {
            listener,
            cell: Arc::new(StoreCell::bare(store)),
            ledger: None,
            metrics: Metrics::register(registry),
            registry,
            core: Arc::new(DispatchCore::default()),
            workers,
        })
    }

    /// Attaches a ledger: the `/api/runs` and `/api/diff` routes start
    /// answering from it, and `/status` reports the served serial.
    /// Pair it with [`crate::ledger_watch::watch`] on the cell from
    /// [`Self::store_cell`] for zero-downtime refresh.
    pub fn attach_ledger(&mut self, ledger: Arc<Ledger>) {
        self.ledger = Some(ledger);
    }

    /// The swappable store cell this server answers from. The ledger
    /// watcher (or any other refresher) swaps new versions in here;
    /// in-flight requests keep the version they loaded.
    #[must_use]
    pub fn store_cell(&self) -> Arc<StoreCell> {
        Arc::clone(&self.cell)
    }

    /// The bound address (the actual port, after ephemeral binding).
    ///
    /// # Panics
    /// If the socket cannot report its local address (the bind already
    /// succeeded, so this indicates a torn-down socket).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has a local address")
    }

    /// The worker count the pool will run with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle that can end [`Self::run`] from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.core))
    }

    /// Connection lifecycle counters.
    #[must_use]
    pub fn stats(&self) -> DispatchStats {
        self.core.stats()
    }

    /// Serves until a [`ShutdownHandle`] requests shutdown. Blocking;
    /// run it on a dedicated thread when the caller needs to keep
    /// working (the bench harness and tests use
    /// `arest_conc::thread::scope`).
    pub fn run(&self) {
        self.run_until(&|| false);
    }

    /// [`Self::run`], additionally polling `interrupted` between
    /// accepts and on idle connections — the hook through which the
    /// CLI's SIGINT flag (the `ctrlc` shim) ends the server without
    /// the server knowing about signals.
    pub fn run_until(&self, interrupted: &(dyn Fn() -> bool + Sync)) {
        arest_tnt::pool::run_dynamic(
            vec![Unit::Accept],
            self.workers,
            &|unit, injector| match unit {
                Unit::Accept => self.accept_unit(injector, interrupted),
                Unit::Conn(stream) => {
                    self.serve_conn(stream, interrupted);
                    self.core.finish();
                }
            },
        );
        // The pool has drained: every admitted connection finished and
        // the accept unit returned. Settle the drain barrier for
        // callers that race a ShutdownHandle against run() returning.
        self.core.request_shutdown();
        self.core.await_drain();
    }

    /// Camps on the listener until one connection arrives (inject it
    /// plus a fresh accept unit, then return) or shutdown is
    /// requested (return without re-injecting — this is what lets the
    /// pool drain).
    fn accept_unit(
        &self,
        injector: &arest_tnt::pool::Injector<'_, Unit>,
        interrupted: &dyn Fn() -> bool,
    ) {
        loop {
            if self.core.shutdown_requested() {
                return;
            }
            if interrupted() {
                self.core.request_shutdown();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if !self.core.admit() {
                        // Shutdown raced the accept: the connection was
                        // never admitted, so dropping it loses nothing
                        // the drain barrier promised.
                        return;
                    }
                    self.metrics.connections.inc();
                    injector.push(Unit::Conn(stream));
                    injector.push(Unit::Accept);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted
                    // handshake): back off and keep listening.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    /// Serves one connection: keep-alive request loop with incremental
    /// parsing, shutdown-aware idle polling, and bounded buffers.
    fn serve_conn(&self, mut stream: TcpStream, interrupted: &dyn Fn() -> bool) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut grace_polls = 0u32;
        loop {
            match http::parse_head(&buf) {
                Parsed::Complete { request, consumed } => {
                    buf.drain(..consumed);
                    let close = request.wants_close() || self.core.shutdown_requested();
                    let response = self.respond(&request);
                    if http::write_response(&mut stream, &response, close).is_err() || close {
                        return;
                    }
                }
                Parsed::Failed(error) => {
                    self.fail(&mut stream, error);
                    return;
                }
                Parsed::Partial => {
                    match stream.read(&mut chunk) {
                        Ok(0) => return, // client closed
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            if interrupted() {
                                self.core.request_shutdown();
                            }
                            if self.core.shutdown_requested() {
                                if buf.is_empty() {
                                    // Idle at a request boundary: close.
                                    return;
                                }
                                // Mid-request: bounded grace, then drop.
                                grace_polls += 1;
                                if grace_polls > SHUTDOWN_GRACE_POLLS {
                                    return;
                                }
                            }
                        }
                        Err(_) => return,
                    }
                }
            }
        }
    }

    /// Routes and answers one request, recording metrics.
    fn respond(&self, request: &Request) -> Response {
        let started = Instant::now();
        let (route, response) = match router::route(&request.target) {
            Ok(route) => (Some(route), self.handle(route)),
            Err(RouteError::NotFound) => (None, Response::error(404, "no such route")),
            Err(RouteError::Unprocessable(msg)) => (None, Response::error(422, msg)),
        };
        self.metrics.record(route, response.status, started.elapsed());
        response
    }

    /// Answers a malformed request with its mapped status and closes.
    fn fail(&self, stream: &mut TcpStream, error: ParseError) {
        let response = Response::error(error.status(), error.message());
        self.metrics.record(None, response.status, Duration::ZERO);
        let _ = http::write_response(stream, &response, true);
    }

    fn handle(&self, route: Route) -> Response {
        // One load pins one version for the whole request: even while
        // the watcher swaps a newer serial in, this answer is
        // internally consistent.
        let version = self.cell.load();
        let store = &*version.store;
        match route {
            Route::Summary => Response::json(200, render::summary_json(store).render()),
            Route::As(asn) => match store.by_asn(asn) {
                Some(record) => Response::json(200, render::as_json(record).render()),
                None => Response::error(404, "AS not in dataset"),
            },
            Route::Addr(ip) => match store.addr(ip) {
                Some(entry) => Response::json(200, render::addr_json(store, entry).render()),
                None => Response::error(404, "address not in dataset"),
            },
            Route::Runs => self.handle_runs(),
            Route::Run(serial) => self.handle_run(serial),
            Route::Diff(a, b) => self.handle_diff(a, b),
            Route::Metrics => {
                let mut body = crate::prom::render(&self.registry.snapshot());
                body.push_str(&ledger_metrics_tail(&version));
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    body,
                    extra: Vec::new(),
                }
            }
            Route::Status => {
                let ledger = self.ledger_status_json(&version);
                Response::json(200, render::status_json(store, self.workers, ledger).render())
            }
        }
    }

    /// The `/status` body's `ledger` value: the served serial, its
    /// content digest and commit time, and how many serials the cell
    /// lags the directory tip (the clock-free "snapshot age").
    fn ledger_status_json(&self, version: &StoreVersion) -> Json {
        let Some(stamp) = version.stamp else {
            return Json::Null;
        };
        let latest = self
            .ledger
            .as_ref()
            .and_then(|ledger| ledger.latest().ok().flatten())
            .unwrap_or(stamp.serial);
        Json::obj(vec![
            ("serial", Json::U64(stamp.serial)),
            ("payload_digest", Json::str(render::hex_digest(stamp.payload_digest))),
            ("committed_unix", Json::U64(stamp.committed_unix)),
            ("runs_behind_latest", Json::U64(latest.saturating_sub(stamp.serial))),
        ])
    }

    fn handle_runs(&self) -> Response {
        let Some(ledger) = &self.ledger else {
            return Response::error(404, "no ledger attached");
        };
        match ledger.serials() {
            Ok(serials) => {
                let metas: Vec<_> =
                    serials.into_iter().filter_map(|s| ledger.meta(s).ok()).collect();
                Response::json(200, render::runs_json(&metas).render())
            }
            Err(_) => Response::error(500, "ledger directory unreadable"),
        }
    }

    fn handle_run(&self, serial: u64) -> Response {
        let Some(ledger) = &self.ledger else {
            return Response::error(404, "no ledger attached");
        };
        match ledger.load(serial) {
            Ok(run) => {
                let aux = ledger.load_aux(serial).ok().flatten();
                Response::json(200, render::run_json(&run, aux.as_ref()).render())
            }
            Err(LedgerError::UnknownSerial(_)) => Response::error(404, "no such run"),
            Err(_) => Response::error(500, "run failed verification"),
        }
    }

    fn handle_diff(&self, a: u64, b: u64) -> Response {
        let Some(ledger) = &self.ledger else {
            return Response::error(404, "no ledger attached");
        };
        match ledger.diff(a, b) {
            Ok(delta) => Response::json(200, render::delta_json(&delta).render()),
            Err(LedgerError::UnknownSerial(_)) => Response::error(404, "no such run"),
            Err(_) => Response::error(500, "run failed verification"),
        }
    }
}

/// Serial-labeled totals for the loaded snapshot, appended to the
/// Prometheus exposition. Empty for unstamped (ledger-free) servers,
/// so their documented `/metrics` bodies do not move.
fn ledger_metrics_tail(version: &StoreVersion) -> String {
    let Some(stamp) = version.stamp else {
        return String::new();
    };
    let serial = stamp.serial;
    let totals = version.store.totals();
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE arest_ledger_serial gauge");
    let _ = writeln!(out, "arest_ledger_serial {serial}");
    for (name, value) in [
        ("arest_run_detections_total", totals.flags.total()),
        ("arest_run_detections_strong", totals.flags.strong()),
        ("arest_run_sr_deployed_ases", totals.sr_deployed),
        ("arest_run_addresses", totals.addresses),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{{serial=\"{serial}\"}} {value}");
    }
    if let Some(origin) = stamp.origin {
        for (name, value) in
            [("arest_run_ases_fresh", origin.fresh), ("arest_run_ases_carried", origin.carried)]
        {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{serial=\"{serial}\"}} {value}");
        }
    }
    out
}
