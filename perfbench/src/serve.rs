//! The serving phase: an in-process `arest_serve::Server` with the
//! ledger attached, driven over loopback by an open-loop client.
//!
//! One client thread sends a fixed schedule over two keep-alive
//! connections — store reads on the first, the (much slower) ledger
//! routes on the second, so a ledger decode never queues a read behind
//! it — and drains the pipelined responses in order. Latency runs from
//! a request's *due* time, so a stall is charged to every request it
//! delays; how late the client itself sent is reported separately.
//!
//! Before them, the ledger routes are fetched one at a time from the
//! otherwise idle server. A phase then serves mixed cycles, in which a
//! swap thread commits and swaps in a new serial while reads and ledger
//! routes are served. The traced run adds a rate ladder.
//!
//! The server records its request counters and latency histograms in a
//! private, enabled registry, as the shipped daemon always does, so
//! every request pays for them and `/metrics` renders live values.
//!
//! The read mix is a guess — there is no production traffic to copy.

use crate::http::{self, Conn};
use crate::lifecycle::{self, Base, Tally, COMMITTED_UNIX};
use crate::spans::Spans;
use crate::stats::{self, SplitMix};
use arest_experiments::ledger_io;
use arest_ledger::snapshot::RunSnapshot;
use arest_ledger::{CommitOptions, Ledger};
use arest_obs::Registry;
use arest_serve::{ledger_watch, Server, StoreCell};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit on a store read, from its due time: a ladder rung
/// passes only if its read p99 and its backlog meet it. Well above the
/// tens-of-milliseconds scheduling stalls a small shared virtual
/// machine shows under load, so that it separates a growing backlog
/// from host jitter.
///
/// Single reads in the mixed cycles are not held to it: each swap stalls
/// the reads queued behind it for 40-170 ms on the two-vCPU reference
/// host, so which of them cross the limit depends on the host. That
/// stall is measured instead ([`ServeOutcome::cycle_max_read_ms`]).
const LIMIT: Duration = Duration::from_millis(100);

/// The reference read rate (requests per second).
const REFERENCE_RATE: f64 = 1_000.0;

/// The mixed window runs in cycles of this length. Each cycle requests
/// `/api/runs/1` and `/api/runs/2` twice each, then `/api/diff/1/2` once
/// (as `LEDGER_AT` lists them, by index into the ledger targets), then
/// commits and swaps in one new serial (at `SWAP_AT`). The offsets
/// keep the ledger work and the swap apart, so reads contend with one
/// of them at a time. The run fetches take 150-250 ms on the two-vCPU
/// reference host; 0.6 s apart, none waits for the one before it. The
/// slow diff (0.7-1.2 s) goes last, so that it never delays a run fetch
/// queued behind it on the same connection.
pub const CYCLE: Duration = Duration::from_secs(5);
const LEDGER_AT: [(usize, Duration); 5] = [
    (0, Duration::from_millis(200)),
    (1, Duration::from_millis(800)),
    (0, Duration::from_millis(1_400)),
    (1, Duration::from_millis(2_000)),
    (2, Duration::from_millis(2_600)),
];
const SWAP_AT: Duration = Duration::from_millis(3_900);

/// Rounds of the ledger routes, in `LEDGER_AT`'s order, fetched one at
/// a time from the otherwise idle server before the mixed cycles.
const IDLE_LEDGER_ROUNDS: usize = 2;

/// Duration of one ladder rung.
const RUNG: Duration = Duration::from_millis(500);

/// Ladder rates grow by this factor from the reference rate until a
/// rung fails, then the last pass and first fail are bisected
/// [`BISECTIONS`] times (to within 2^(1/16), about 4%).
const LADDER_STEP: f64 = 2.0;
const BISECTIONS: usize = 4;
const LADDER_MAX_RATE: f64 = 200_000.0;

/// Addresses sampled from the served run for `/api/addr/{ip}`.
const ADDR_SAMPLE: usize = 512;

/// Server pool size: one worker camps on the listener, one per
/// connection.
const SERVER_WORKERS: usize = 3;

/// The routes the benchmark requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/api/summary`
    Summary,
    /// `/api/as/{asn}`
    As,
    /// `/api/addr/{ip}`
    Addr,
    /// `/status`
    Status,
    /// `/metrics`
    Metrics,
    /// `/api/runs/{serial}`
    Run,
    /// `/api/diff/{a}/{b}`
    Diff,
}

impl Route {
    /// Every route, store reads first.
    pub const ALL: [Route; 7] = [
        Route::Summary,
        Route::As,
        Route::Addr,
        Route::Status,
        Route::Metrics,
        Route::Run,
        Route::Diff,
    ];

    /// The metric-name label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Route::Summary => "summary",
            Route::As => "as",
            Route::Addr => "addr",
            Route::Status => "status",
            Route::Metrics => "metrics",
            Route::Run => "run",
            Route::Diff => "diff",
        }
    }

    /// Whether the route reads the in-memory store (the ledger routes
    /// decode runs from disk instead).
    #[must_use]
    pub fn is_store_read(self) -> bool {
        !matches!(self, Route::Run | Route::Diff)
    }
}

/// Read-mix weights in percent: summary, as, addr, status, metrics.
const READ_MIX: [(Route, usize); 5] = [
    (Route::Summary, 10),
    (Route::As, 30),
    (Route::Addr, 45),
    (Route::Status, 10),
    (Route::Metrics, 5),
];

/// One request target with the body every answer must reproduce.
#[derive(Debug, Clone)]
pub struct Target {
    /// Request path.
    pub path: String,
    /// Its route.
    pub route: Route,
    /// The reference body, fetched before the load starts.
    pub reference: Option<String>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Due {
    at: Duration,
    target: usize,
    conn: usize,
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the target list.
    pub target: usize,
    /// Due time, from the start of its schedule.
    pub at: Duration,
    /// Send time minus due time.
    pub late: Duration,
    /// Completion minus due time.
    pub latency: Duration,
    /// Whether it was a 200 with the reference body.
    pub ok: bool,
    /// Body length.
    pub bytes: usize,
}

/// What a serve phase measured.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Bind, swap-in and reference fetch.
    pub start: Duration,
    /// The ledger routes fetched one at a time from the otherwise idle
    /// server, before the mixed cycles.
    pub idle_ledger: Vec<Duration>,
    /// Every request of the mixed cycles.
    pub window: Vec<Sample>,
    /// The targets, indexed by [`Sample::target`].
    pub targets: Vec<Target>,
    /// Swaps the swap thread completed during the window.
    pub swaps: usize,
    /// Achieved read throughput of the highest passing ladder rung (0
    /// when the ladder did not run).
    pub max_rps: f64,
}

impl ServeOutcome {
    /// Latencies (µs) of the window's samples whose route satisfies `keep`.
    #[must_use]
    pub fn latencies_us(&self, keep: impl Fn(Route) -> bool) -> Vec<f64> {
        self.window
            .iter()
            .filter(|s| keep(self.targets[s.target].route))
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .collect()
    }

    /// The worst store-read latency (ms) of each mixed cycle. Each cycle
    /// swaps in one serial, and the reads queued behind the swap are the
    /// cycle's slowest.
    #[must_use]
    pub fn cycle_max_read_ms(&self) -> Vec<f64> {
        let mut worst: Vec<f64> = Vec::new();
        for s in self.window.iter().filter(|s| self.targets[s.target].route.is_store_read()) {
            let cycle = (s.at.as_nanos() / CYCLE.as_nanos()) as usize;
            if worst.len() <= cycle {
                worst.resize(cycle + 1, 0.0);
            }
            worst[cycle] = worst[cycle].max(s.latency.as_secs_f64() * 1e3);
        }
        worst
    }
}

/// Masks the decimal number after each occurrence of each of
/// `prefixes`, returning the masked text and the numbers in order.
fn mask_numbers(text: &str, prefixes: &[&str]) -> (String, Vec<u64>) {
    let mut out = text.to_string();
    let mut numbers = Vec::new();
    for prefix in prefixes {
        let mut from = 0;
        while let Some(pos) = out[from..].find(prefix) {
            let start = from + pos + prefix.len();
            let len = out[start..].bytes().take_while(u8::is_ascii_digit).count();
            numbers.push(out[start..start + len].parse().unwrap_or(u64::MAX));
            out.replace_range(start..start + len, "#");
            from = start + 1;
        }
    }
    (out, numbers)
}

/// The serial stamps in `/status` and `/metrics` bodies: the one thing
/// that differs between two serials of identical content.
const STAMPS: [&str; 4] =
    ["\"serial\": ", "\"runs_behind_latest\": ", "arest_ledger_serial ", "serial=\""];

/// A `/metrics` body with the request metrics' sample values masked.
/// Those are the server's own counters and histograms (every series not
/// named `arest_*`), which move with every request; their names and
/// labels stay. A histogram's finite `le` buckets are dropped, because
/// which of them are listed depends on the latencies seen so far. The
/// run's `arest_*` gauges keep their values.
fn mask_request_metrics(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    for line in body.lines() {
        if line.starts_with('#') || line.starts_with("arest_") {
            out.push_str(line);
        } else if line.contains("_bucket{le=\"") && !line.contains("le=\"+Inf\"") {
            continue;
        } else {
            let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
            out.push_str(series);
            out.push_str(" #");
        }
        out.push('\n');
    }
    out
}

/// Whether `body` answers `target` correctly: byte-equal to the
/// reference, except that `/status` and `/metrics` may carry the stamp
/// of any serial at or after the one the reference was fetched for, and
/// that `/metrics` request counters may hold any value.
#[must_use]
fn body_matches(target: &Target, reference_serial: u64, body: &str) -> bool {
    let Some(reference) = &target.reference else {
        return false;
    };
    match target.route {
        Route::Status | Route::Metrics => {
            let (body, reference) = if target.route == Route::Metrics {
                (mask_request_metrics(body), mask_request_metrics(reference))
            } else {
                (body.to_string(), reference.clone())
            };
            let (masked, numbers) = mask_numbers(&body, &STAMPS);
            let (expected, _) = mask_numbers(&reference, &STAMPS);
            let serial =
                if target.route == Route::Status { numbers.first() } else { numbers.last() };
            masked == expected && serial.is_some_and(|&s| s >= reference_serial)
        }
        _ => body == reference,
    }
}

/// How long a connection may go without progress before its
/// outstanding requests count as failed.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// How long the client sleeps when a pass over the sockets found
/// nothing to do. Short against the 1 ms between reads at the reference
/// rate, long enough that the client leaves the CPUs to the server.
const IDLE_POLL: Duration = Duration::from_micros(50);

/// Sends `schedule` open-loop over `conns`, offsets counted from
/// `start`, and collects every answer.
///
/// One thread does all client work on non-blocking sockets: it writes
/// each request when it falls due, reads whatever has arrived, and
/// naps [`IDLE_POLL`] when there is nothing to do, so that the client
/// costs one thread however many connections it drives.
fn run_schedule(
    conns: &mut [Conn],
    targets: &[Target],
    reference_serial: u64,
    schedule: &[Due],
    start: Instant,
) -> Vec<Sample> {
    let n = conns.len();
    let mut output: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut pending: Vec<VecDeque<(Due, Instant)>> = vec![VecDeque::new(); n];
    let mut broken = vec![false; n];
    let mut samples = Vec::with_capacity(schedule.len());
    let mut next = 0;
    let mut last_progress = Instant::now();
    for (i, conn) in conns.iter().enumerate() {
        broken[i] = conn.stream.set_nonblocking(true).is_err();
    }
    loop {
        let now = Instant::now();
        let mut progressed = false;
        while next < schedule.len() && start + schedule[next].at <= now {
            let due = schedule[next];
            output[due.conn].extend_from_slice(&http::request(&targets[due.target].path));
            pending[due.conn].push_back((due, now));
            next += 1;
            progressed = true;
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            if broken[i] {
                continue;
            }
            if !output[i].is_empty() {
                match conn.stream.write(&output[i]) {
                    Ok(written) => {
                        output[i].drain(..written);
                        progressed |= written > 0;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => broken[i] = true,
                }
            }
            match conn.fill() {
                Ok(0) => broken[i] = true,
                Ok(_) => progressed = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => broken[i] = true,
            }
            loop {
                let response = match conn.take_response() {
                    Ok(Some(response)) => response,
                    Ok(None) => break,
                    Err(_) => {
                        broken[i] = true;
                        break;
                    }
                };
                let done = Instant::now();
                let Some((due, sent)) = pending[i].pop_front() else {
                    broken[i] = true;
                    break;
                };
                let at = start + due.at;
                let ok = response.status == 200
                    && body_matches(&targets[due.target], reference_serial, &response.body);
                samples.push(Sample {
                    target: due.target,
                    at: due.at,
                    late: sent - at,
                    latency: done - at,
                    ok,
                    bytes: response.body.len(),
                });
            }
        }
        let stalled = !progressed && now - last_progress > STALL_LIMIT;
        for (i, queue) in pending.iter_mut().enumerate() {
            if broken[i] || stalled {
                samples.extend(queue.drain(..).map(|(due, sent)| Sample {
                    target: due.target,
                    at: due.at,
                    late: sent - (start + due.at),
                    latency: now - (start + due.at),
                    ok: false,
                    bytes: 0,
                }));
            }
        }
        if next == schedule.len() && pending.iter().all(VecDeque::is_empty) {
            break;
        }
        if progressed {
            last_progress = now;
        } else {
            std::thread::sleep(IDLE_POLL);
        }
    }
    for conn in conns.iter() {
        let _ = conn.stream.set_nonblocking(false);
    }
    samples
}

/// The request keys: every AS of the served run, a seeded sample of
/// its addresses, the singleton routes, and the ledger routes.
fn targets(snapshot: &RunSnapshot, rng: &mut SplitMix, extra: &[String]) -> Vec<Target> {
    let target = |path: String, route| Target { path, route, reference: None };
    let mut out = vec![
        target("/api/summary".into(), Route::Summary),
        target("/status".into(), Route::Status),
        target("/metrics".into(), Route::Metrics),
        target("/api/runs/1".into(), Route::Run),
        target("/api/runs/2".into(), Route::Run),
        target("/api/diff/1/2".into(), Route::Diff),
    ];
    out.extend(snapshot.ases.iter().map(|a| target(format!("/api/as/{}", a.asn), Route::As)));
    if !snapshot.addrs.is_empty() {
        for _ in 0..ADDR_SAMPLE {
            let addr = snapshot.addrs[rng.below(snapshot.addrs.len())].addr;
            out.push(target(format!("/api/addr/{addr}"), Route::Addr));
        }
    }
    out.extend(extra.iter().map(|path| target(path.clone(), Route::As)));
    out
}

/// A read schedule at `rate` for `length` over connections `0..conns`
/// (round-robin), drawing targets by [`READ_MIX`].
fn read_schedule(
    targets: &[Target],
    rate: f64,
    length: Duration,
    conns: usize,
    rng: &mut SplitMix,
) -> Vec<Due> {
    let by_route = |route| -> Vec<usize> {
        (0..targets.len()).filter(|&i| targets[i].route == route).collect()
    };
    let pools: Vec<(Vec<usize>, usize)> =
        READ_MIX.iter().map(|&(route, weight)| (by_route(route), weight)).collect();
    let count = (rate * length.as_secs_f64()).round() as usize;
    (0..count)
        .map(|i| {
            let mut roll = rng.below(100);
            let mut pick = 0;
            for (pool, weight) in &pools {
                if roll < *weight && !pool.is_empty() {
                    pick = pool[rng.below(pool.len())];
                    break;
                }
                roll = roll.saturating_sub(*weight);
            }
            Due { at: Duration::from_secs_f64(i as f64 / rate), target: pick, conn: i % conns }
        })
        .collect()
}

/// The swap thread: `SWAP_AT` into each of `cycles` cycles from
/// `start`, commit the base snapshot under a new serial and swap it in.
/// Returns whether each swap served the serial it committed.
fn swap_loop(
    ledger: &Ledger,
    cell: &StoreCell,
    snapshot: &RunSnapshot,
    options: &CommitOptions,
    start: Instant,
    cycles: u32,
) -> Vec<bool> {
    (0..cycles)
        .map(|cycle| {
            let at = start + CYCLE * cycle + SWAP_AT;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let serial = ledger.commit(snapshot, options).map(|receipt| receipt.serial);
            serial
                .and_then(|serial| ledger_watch::refresh(cell, ledger).map(|s| s == Some(serial)))
                .unwrap_or(false)
        })
        .collect()
}

/// What a serve phase runs.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Mixed cycles: reads, ledger routes and a swap each.
    pub cycles: u32,
    /// Whether to climb the rate ladder afterwards.
    pub ladder: bool,
}

/// Records every sample of a window in `tally`: a wrong answer is a
/// correctness failure.
fn count(samples: &[Sample], targets: &[Target], tally: &mut Tally) {
    for sample in samples {
        let target = &targets[sample.target];
        tally.check(sample.ok, || format!("{} answered wrongly", target.path));
    }
}

/// The serve phase: start a server on `base`'s ledger and fetch the
/// references; serve the mixed cycles (reads, ledger routes and swaps);
/// then, if asked, climb the rate ladder with reads alone.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    base: &Base,
    snapshot: &RunSnapshot,
    seed: u64,
    plan: ServePlan,
    extra_reads: &[String],
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<ServeOutcome, String> {
    let registry = Registry::new();
    let ledger = Arc::new(Ledger::open(base.ledger.dir()).map_err(|e| e.to_string())?);
    let options = CommitOptions {
        committed_unix: COMMITTED_UNIX,
        config_digest: ledger_io::config_digest(&base.config),
        catalog_digest: ledger_io::catalog_digest(),
    };
    let started = Instant::now();
    let mut server =
        Server::bind("127.0.0.1:0", lifecycle::empty_store(), &registry, Some(SERVER_WORKERS))
            .map_err(|e| format!("bind: {e}"))?;
    server.attach_ledger(Arc::clone(&ledger));
    let cell = server.store_cell();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let mut rng = SplitMix::new(seed ^ 0x5e7e_5e7e);
    let mut targets = targets(snapshot, &mut rng, extra_reads);
    let mut outcome = ServeOutcome::default();

    std::thread::scope(|scope| -> Result<(), String> {
        let server_thread = scope.spawn(|| server.run());
        let result = (|| -> Result<(), String> {
            // The served serial is a plain commit, like every serial the
            // swap thread adds, so references differ only by serial.
            let receipt = ledger.commit(snapshot, &options).map_err(|e| e.to_string())?;
            let reference_serial = receipt.serial;
            match ledger_watch::refresh(&cell, &ledger) {
                Ok(Some(s)) if s == reference_serial => {}
                other => return Err(format!("initial swap-in returned {other:?}")),
            }
            let mut conns = [
                Conn::connect(addr).map_err(|e| e.to_string())?,
                Conn::connect(addr).map_err(|e| e.to_string())?,
            ];
            for target in &mut targets {
                let response = conns[0].get(&target.path).map_err(|e| e.to_string())?;
                target.reference = (response.status == 200).then_some(response.body);
            }
            outcome.start = started.elapsed();

            let mix = targets.len() - extra_reads.len();
            let ledger_targets: Vec<usize> =
                (0..mix).filter(|&i| !targets[i].route.is_store_read()).collect();

            // The ledger routes one at a time, in a cycle's order, while
            // nothing else runs: what a dashboard fetching a run waits.
            for _ in 0..IDLE_LEDGER_ROUNDS {
                for &(which, _) in &LEDGER_AT {
                    let target = &targets[ledger_targets[which]];
                    let sent = Instant::now();
                    let response = conns[1].get(&target.path).map_err(|e| e.to_string())?;
                    outcome.idle_ledger.push(sent.elapsed());
                    let ok = response.status == 200
                        && body_matches(target, reference_serial, &response.body);
                    tally.check(ok, || format!("{} answered wrongly", target.path));
                }
            }

            // Mixed cycles: the extra reads first, once each, then reads,
            // the ledger routes and one swap per cycle.
            let window = CYCLE * plan.cycles;
            let mut schedule: Vec<Due> = (mix..targets.len())
                .map(|target| Due { at: Duration::ZERO, target, conn: 0 })
                .collect();
            schedule.extend(read_schedule(&targets[..mix], REFERENCE_RATE, window, 1, &mut rng));
            for cycle in 0..plan.cycles {
                schedule.extend(LEDGER_AT.iter().map(|&(which, at)| Due {
                    at: CYCLE * cycle + at,
                    target: ledger_targets[which],
                    conn: 1,
                }));
            }
            schedule.sort_by_key(|d| d.at);
            let start = Instant::now() + Duration::from_millis(2);
            let (samples, swaps) = spans
                .time("serve.window", |_| {
                    std::thread::scope(|inner| {
                        let swapper = inner.spawn(|| {
                            swap_loop(&ledger, &cell, snapshot, &options, start, plan.cycles)
                        });
                        let samples =
                            run_schedule(&mut conns, &targets, reference_serial, &schedule, start);
                        (samples, swapper.join().expect("swap thread"))
                    })
                })
                .0;
            count(&samples, &targets, tally);
            for ok in &swaps {
                tally.check(*ok, || "swap-thread commit/refresh failed".to_string());
            }
            outcome.swaps = swaps.iter().filter(|ok| **ok).count();
            outcome.window = samples;

            if plan.ladder {
                let reference_serial = ledger.latest().map_err(|e| e.to_string())?.unwrap_or(0);
                outcome.max_rps = spans
                    .time("serve.ladder", |spans| {
                        ladder(
                            &mut conns,
                            &targets[..mix],
                            reference_serial,
                            &mut rng,
                            spans,
                            tally,
                        )
                    })
                    .0;
            }
            Ok(())
        })();
        shutdown.shutdown();
        server_thread.join().map_err(|_| "server thread panicked".to_string())?;
        result
    })?;
    outcome.targets = targets;
    Ok(outcome)
}

/// One ladder rung: reads alone at `rate` over both connections.
/// Returns whether it met the limit and its achieved throughput. It
/// meets the limit when every answer is right, the read p99 is within
/// [`LIMIT`], and the backlog is not growing: the median latency of the
/// last tenth of the rung's reads is within [`LIMIT`] too.
fn rung(
    conns: &mut [Conn],
    targets: &[Target],
    reference_serial: u64,
    rate: f64,
    rng: &mut SplitMix,
    tally: &mut Tally,
) -> (bool, f64) {
    let schedule = read_schedule(targets, rate, RUNG, conns.len(), rng);
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples = run_schedule(conns, targets, reference_serial, &schedule, start);
    let mut all_ok = true;
    for sample in &samples {
        tally.check(sample.ok, || format!("{} answered wrongly", targets[sample.target].path));
        all_ok &= sample.ok;
    }
    samples.sort_by_key(|s| s.at);
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency.as_secs_f64()).collect();
    let p99 = stats::percentile(&latencies, 99.0).unwrap_or(f64::INFINITY);
    let tail = stats::median(&latencies[latencies.len() - latencies.len() / 10..])
        .unwrap_or(f64::INFINITY);
    let limit = LIMIT.as_secs_f64();
    let pass = all_ok && p99 <= limit && tail <= limit;
    let span = samples.iter().map(|s| s.at + s.latency).max().unwrap_or(RUNG);
    let achieved = samples.len() as f64 / span.as_secs_f64().max(1e-9);
    (pass, achieved)
}

/// A rung that fails is run once more before it counts as failed: one
/// scheduling stall of the host is not a growing backlog.
fn rung_with_retry(
    conns: &mut [Conn],
    targets: &[Target],
    reference_serial: u64,
    rate: f64,
    rng: &mut SplitMix,
    spans: &mut Spans,
    tally: &mut Tally,
) -> (bool, f64) {
    let mut attempt =
        || spans.time("serve.rung", |_| rung(conns, targets, reference_serial, rate, rng, tally)).0;
    let first = attempt();
    if first.0 {
        first
    } else {
        attempt()
    }
}

/// The rate ladder: rates double from the reference rate until a rung
/// misses the limit, then the bracket is bisected [`BISECTIONS`] times.
/// Returns the achieved throughput of the best passing rung (the first
/// rung's throughput if none passes).
fn ladder(
    conns: &mut [Conn],
    targets: &[Target],
    reference_serial: u64,
    rng: &mut SplitMix,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let mut rate = REFERENCE_RATE;
    let mut best: Option<(f64, f64)> = None;
    let mut first = None;
    let mut failed_at = None;
    while rate <= LADDER_MAX_RATE {
        let (pass, achieved) =
            rung_with_retry(conns, targets, reference_serial, rate, rng, spans, tally);
        first.get_or_insert(achieved);
        if !pass {
            failed_at = Some(rate);
            break;
        }
        best = Some((rate, achieved));
        rate *= LADDER_STEP;
    }
    if let (Some((mut lo, mut lo_achieved)), Some(mut hi)) = (best, failed_at) {
        for _ in 0..BISECTIONS {
            let mid = (lo * hi).sqrt();
            let (pass, achieved) =
                rung_with_retry(conns, targets, reference_serial, mid, rng, spans, tally);
            if pass {
                (lo, lo_achieved) = (mid, achieved);
            } else {
                hi = mid;
            }
        }
        best = Some((lo, lo_achieved));
    }
    best.map_or(first.unwrap_or(0.0), |(_, achieved)| achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(route: Route, reference: &str) -> Target {
        Target { path: "/x".into(), route, reference: Some(reference.into()) }
    }

    #[test]
    fn status_bodies_match_modulo_the_serial_stamp() {
        let t =
            target(Route::Status, "{\"serial\": 3,\n\"runs_behind_latest\": 0,\n\"workers\": 3}");
        assert!(body_matches(
            &t,
            3,
            "{\"serial\": 3,\n\"runs_behind_latest\": 0,\n\"workers\": 3}"
        ));
        assert!(body_matches(
            &t,
            3,
            "{\"serial\": 12,\n\"runs_behind_latest\": 1,\n\"workers\": 3}"
        ));
        assert!(!body_matches(
            &t,
            3,
            "{\"serial\": 2,\n\"runs_behind_latest\": 0,\n\"workers\": 3}"
        ));
        assert!(!body_matches(
            &t,
            3,
            "{\"serial\": 4,\n\"runs_behind_latest\": 0,\n\"workers\": 4}"
        ));
    }

    #[test]
    fn metrics_bodies_match_modulo_the_serial_stamp_and_request_counters() {
        let requests = |count: u64, buckets: &str| {
            format!(
                "# TYPE serve_http_requests counter\nserve_http_requests {count}\n\
                 # TYPE serve_http_latency_us_as histogram\n{buckets}\
                 serve_http_latency_us_as_bucket{{le=\"+Inf\"}} {count}\n\
                 serve_http_latency_us_as_sum 90\nserve_http_latency_us_as_count {count}\n"
            )
        };
        let reference = format!(
            "{}arest_ledger_serial 3\narest_run_addresses{{serial=\"3\"}} 10\n",
            requests(1, "serve_http_latency_us_as_bucket{le=\"64\"} 1\n")
        );
        let t = target(Route::Metrics, &reference);
        let buckets = "serve_http_latency_us_as_bucket{le=\"64\"} 3\n\
                       serve_http_latency_us_as_bucket{le=\"128\"} 7\n";
        let later = requests(7, buckets);
        assert!(body_matches(
            &t,
            3,
            &format!("{later}arest_ledger_serial 5\narest_run_addresses{{serial=\"5\"}} 10\n")
        ));
        assert!(!body_matches(
            &t,
            3,
            &format!("{later}arest_ledger_serial 5\narest_run_addresses{{serial=\"5\"}} 11\n")
        ));
        assert!(!body_matches(
            &t,
            3,
            "serve_http_requests 7\narest_ledger_serial 5\narest_run_addresses{serial=\"5\"} 10\n"
        ));
    }

    #[test]
    fn other_routes_must_match_exactly_and_need_a_reference() {
        let t = target(Route::As, "{\"asn\": 1}");
        assert!(body_matches(&t, 1, "{\"asn\": 1}"));
        assert!(!body_matches(&t, 1, "{\"asn\": 2}"));
        let missing = Target { path: "/api/as/1".into(), route: Route::As, reference: None };
        assert!(!body_matches(&missing, 1, "anything"));
    }
}
