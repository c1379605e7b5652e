//! One benchmark run: set-up, the campaign, refresh and serve phases in
//! the shares the workload gives them, and the metrics they yield.
//!
//! Every run measures every end-to-end metric. Every run does a fixed
//! amount of each phase (the set-ups' campaigns and [`MIN_CAMPAIGNS`]
//! more, [`MIN_REFRESHES`] refreshes, [`SERVE_CYCLES`] serving cycles);
//! then the workload's own phase repeats for `--seconds` more:
//! `campaign` full campaigns, `refresh` 5% slice refreshes. So each
//! workload also shows what a change to the other's phase costs.
//!
//! Every run builds the same Internet: the generator's default
//! configuration, seed 2025 included, the input the ROADMAP's headline
//! is defined on and whose payload digest is known. `--seed` drives
//! what the benchmark itself draws: the serve phase's request keys and
//! order. (Internets of other generator seeds differ in size — their
//! snapshots ranged from 2.6 to 3.3 MB over seeds 1-3 — so runs on
//! different seeds would compare different amounts of work.)

use crate::host::{self, Facts};
use crate::layers;
use crate::lifecycle::{self, Base, Tally, GOLDEN_DIGEST};
use crate::serve::{self, Route, ServeOutcome, ServePlan};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use arest_experiments::ledger_io;
use arest_experiments::pipeline::Dataset;
use arest_ledger::{delta, CommitOptions, Ledger};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run. Each builds and commits the Internet into a
/// fresh ledger; `setup_s` is their median, and each is also a campaign.
pub const SETUPS: usize = 5;

/// Campaigns per run beyond the set-ups', whatever the workload. With
/// them, `commit_s`, whose samples spread most (±20% within a run), is
/// a median of at least seven.
const MIN_CAMPAIGNS: usize = 2;

/// Refreshes per run, whatever the workload.
const MIN_REFRESHES: usize = 6;

/// Serving cycles per run (each [`serve::CYCLE`] long).
const SERVE_CYCLES: u32 = 1;

/// Pipeline worker threads, as in the ROADMAP's two-core reference host.
pub const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full default-scale campaigns, each committed to a fresh ledger.
    Campaign,
    /// 5% slice refreshes of a committed base run, swapped into serving.
    Refresh,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign" => Some(Workload::Campaign),
            "refresh" => Some(Workload::Refresh),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Refresh => "refresh",
        }
    }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time of the workload's focus phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Unit-test scale instead of the default scale (for smoke tests).
    pub quick: bool,
    /// Overrides the payload digest the Internet must reproduce.
    pub expect_digest: Option<u64>,
    /// Extra read paths requested once each at the start of the
    /// serving window; each must answer 200 like any other read.
    pub extra_reads: Vec<String>,
    /// Where ledgers (removed afterwards) and span files go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The samples `value` is the median of (empty for a single value).
    pub samples: Vec<f64>,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Host and input facts.
    pub facts: Facts,
    /// The benchmark's own spans.
    pub spans: Spans,
}

impl Outcome {
    /// Whether every output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.wrong,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values become 0, which no metric
/// reports when its inputs exist).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Runs the benchmark once. `Err` means the run could not be set up.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let facts = Facts::new(options.seed, WORKERS);
    let state = lifecycle::state_dir(&options.out_dir);
    lifecycle::fresh_dir(&state)?;
    let result = if options.trace {
        traced(options, facts, &state)
    } else {
        untraced(options, facts, &state)
    };
    let _ = std::fs::remove_dir_all(&state);
    result
}

/// The base the phases run on, each set-up's wall time, and the
/// campaign each set-up ran.
struct SetUp {
    base: Base,
    times: Vec<f64>,
    campaigns: Vec<lifecycle::CampaignSample>,
}

/// Sets up the Internet `count` times, each into a fresh ledger, and
/// keeps the last as the base. Each set-up's campaign counts one
/// operation: its digest must equal the golden one (or the one
/// `options` expects; at unit-test scale, the first set-up's).
fn set_up(
    options: &Options,
    count: usize,
    state: &Path,
    facts: &mut Facts,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<SetUp, String> {
    let config = lifecycle::pipeline_config(options.quick, WORKERS);
    facts.internet_seed = config.gen.seed;
    let mut expected = options.expect_digest.or((!options.quick).then_some(GOLDEN_DIGEST));
    let (mut base, mut times, mut campaigns) = (None, Vec::new(), Vec::new());
    for index in 0..count {
        let dir = state.join(format!("base-{index}"));
        let (set_up, took) =
            spans.time("setup.base", |spans| lifecycle::set_up_base(config, expected, &dir, spans));
        let (next, campaign) = set_up?;
        tally.check(campaign.digest == next.expected, || {
            format!(
                "set-up {index}: payload digest {:016x}, expected {:016x}",
                campaign.digest, next.expected
            )
        });
        expected = Some(next.expected);
        facts.traces = campaign.traces;
        facts.snapshot_bytes = campaign.bytes;
        times.push(took.as_secs_f64());
        campaigns.push(campaign);
        base = Some(next);
    }
    let base = base.ok_or("no set-up ran")?;
    Ok(SetUp { base, times, campaigns })
}

/// A campaign of `base`'s Internet, counted as one operation.
fn campaign(
    base: &Base,
    state: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Option<lifecycle::CampaignSample> {
    match lifecycle::campaign(base, &state.join("campaign"), spans) {
        Ok(sample) => {
            tally.check(sample.digest == base.expected, || {
                format!(
                    "campaign: payload digest {:016x}, expected {:016x}",
                    sample.digest, base.expected
                )
            });
            Some(sample)
        }
        Err(e) => {
            tally.error(format!("campaign: {e}"));
            None
        }
    }
}

/// Runs `step` `min` times, then repeats it until `extra` has passed.
fn repeat(min: usize, extra: Duration, mut step: impl FnMut()) {
    (0..min).for_each(|_| step());
    let started = Instant::now();
    while started.elapsed() < extra {
        step();
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit, samples: Vec::new() }
}

/// The median of `samples`, keeping them for the report.
fn median_metric(name: &str, samples: Vec<f64>, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value: median_or_nan(&samples), unit, samples }
}

fn median_or_nan(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// The end-to-end run.
fn untraced(options: &Options, mut facts: Facts, state: &Path) -> Result<Outcome, String> {
    arest_obs::global().set_enabled(false);
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let SetUp { base, times: setup_times, campaigns: set_up_campaigns } =
        set_up(options, SETUPS, state, &mut facts, &mut spans, &mut tally)?;
    let focus = Duration::from_secs_f64(options.seconds);
    let budget = |w| if options.workload == w { focus } else { Duration::ZERO };

    // Every set-up is a full campaign.
    let mut builds: Vec<f64> = set_up_campaigns.iter().map(|c| c.build.as_secs_f64()).collect();
    let mut commits: Vec<f64> = set_up_campaigns.iter().map(|c| c.commit.as_secs_f64()).collect();
    repeat(MIN_CAMPAIGNS, budget(Workload::Campaign), || {
        if let Some(s) = campaign(&base, state, &mut spans, &mut tally) {
            builds.push(s.build.as_secs_f64());
            commits.push(s.commit.as_secs_f64());
        }
    });

    let (mut refreshes, mut swaps) = (Vec::new(), Vec::new());
    repeat(MIN_REFRESHES, budget(Workload::Refresh), || {
        if let Some(s) = lifecycle::refresh(&base, &mut spans, &mut tally) {
            refreshes.push(s.refresh.as_secs_f64());
            swaps.push(lifecycle::swap(&base, s.serial, &mut spans, &mut tally).as_secs_f64());
        }
    });

    let served =
        serve_base(options, &base, serve_plan(options), &mut facts, &mut spans, &mut tally)?;
    let ledger_ms: Vec<f64> = served.idle_ledger.iter().map(|d| d.as_secs_f64() * 1e3).collect();

    let metrics = vec![
        median_metric("campaign_s", builds, "s"),
        median_metric("commit_s", commits, "s"),
        median_metric("refresh_s", refreshes, "s"),
        median_metric("swap_s", swaps, "s"),
        median_metric("serve_ledger_ms", ledger_ms, "ms"),
        metric("setup_s", median_or_nan(&setup_times) + served.start.as_secs_f64(), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ];
    Ok(Outcome { tally, metrics, facts, spans })
}

/// The serve phase's shape: [`SERVE_CYCLES`] mixed cycles and, in the
/// traced run, the ladder.
fn serve_plan(options: &Options) -> ServePlan {
    ServePlan { cycles: SERVE_CYCLES, ladder: options.trace }
}

/// Serves `base`'s run as `plan` says, after loading its snapshot.
fn serve_base(
    options: &Options,
    base: &Base,
    plan: ServePlan,
    facts: &mut Facts,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<ServeOutcome, String> {
    let run = base.ledger.load(1).map_err(|e| format!("load base: {e}"))?;
    facts.addresses = run.snapshot.addrs.len();
    spans
        .time("serve", |spans| {
            serve::serve(
                base,
                &run.snapshot,
                options.seed,
                plan,
                &options.extra_reads,
                spans,
                tally,
            )
        })
        .0
}

/// The per-layer run: the same phases once each with the program's
/// observability registry on, plus the layered campaign replay.
fn traced(options: &Options, mut facts: Facts, state: &Path) -> Result<Outcome, String> {
    let registry = arest_obs::global();
    registry.set_enabled(false);
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let base = &set_up(options, 1, state, &mut facts, &mut spans, &mut tally)?.base;
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push(metric(name, value, unit));

    // The same build untraced and traced gives the tracing overhead.
    let (untraced_build, untraced_s) =
        spans.time("pipeline.build.untraced", |_| Dataset::build(base.config));
    drop(untraced_build);
    registry.set_enabled(true);
    let tracer = registry.tracer();
    let dropped_before = tracer.dropped();
    let before = registry.snapshot();
    let (dataset, traced_s) = spans.time("pipeline.build", |_| Dataset::build(base.config));
    let after = registry.snapshot();
    let spans_dropped = tracer.dropped() - dropped_before;
    let _ = tracer.take_records();
    let hits = after.counter("fingerprint.cache.hits") - before.counter("fingerprint.cache.hits");
    let misses =
        after.counter("fingerprint.cache.misses") - before.counter("fingerprint.cache.misses");
    let build_segments: usize = dataset.results.iter().map(|r| r.all_segments().count()).sum();

    let replay = spans.time("replay", |spans| layers::replay(&base.config, WORKERS, spans)).0;
    let _ = tracer.take_records();
    tally.check(
        replay.traces == dataset.raw_trace_count && replay.segments == build_segments,
        || {
            format!(
                "replay found {} traces / {} segments, the build {} / {build_segments}",
                replay.traces, replay.segments, dataset.raw_trace_count
            )
        },
    );
    for &(name, value, unit) in &replay.metrics {
        put(name, value, unit);
    }
    put("fingerprint.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");

    // Ledger: commit_dataset split by re-committing its loaded snapshot.
    let ledger_a = Ledger::open(state.join("layers-a")).map_err(|e| e.to_string())?;
    let ledger_b = Ledger::open(state.join("layers-b")).map_err(|e| e.to_string())?;
    let (receipt, commit_took) = spans.time("ledger_io.commit_dataset", |_| {
        ledger_io::commit_dataset(&ledger_a, &dataset, &base.config, lifecycle::COMMITTED_UNIX)
    });
    drop(dataset);
    let receipt = receipt.map_err(|e| format!("commit: {e}"))?;
    let (loaded, load_took) = spans.time("ledger.load", |_| ledger_a.load(receipt.serial));
    let loaded = loaded.map_err(|e| format!("load: {e}"))?;
    let options_b = CommitOptions {
        committed_unix: loaded.meta.committed_unix,
        config_digest: loaded.meta.config_digest,
        catalog_digest: loaded.meta.catalog_digest,
    };
    let (recommit, encode_took) =
        spans.time("ledger.commit", |_| ledger_b.commit(&loaded.snapshot, &options_b));
    let recommit = recommit.map_err(|e| format!("re-commit: {e}"))?;
    tally.check(recommit.payload_digest == receipt.payload_digest, || {
        "re-commit changed the payload".to_string()
    });

    // Refresh: counters around the refresh proper, then the swap.
    let before = registry.snapshot();
    let sample = lifecycle::refresh(base, &mut spans, &mut tally).ok_or("traced refresh failed")?;
    let after = registry.snapshot();
    let swap_took = lifecycle::swap(base, sample.serial, &mut spans, &mut tally);
    let (merged, merged_load) = spans.time("ledger.load", |_| base.ledger.load(sample.serial));
    let merged = merged.map_err(|e| format!("load merged: {e}"))?;
    let (delta, delta_took) = spans.time("ledger.delta.compute", |_| {
        delta::compute(loaded.meta, &loaded.snapshot, merged.meta, &merged.snapshot)
    });
    tally.check(delta.is_empty(), || "delta between identical runs is not empty".to_string());

    put("pipeline.overlap_ratio", replay.layer_total_s / traced_s.as_secs_f64(), "ratio");
    put("pipeline.slice_build_s", sample.slice_build.as_secs_f64(), "s");
    put("ledger.flatten_s", (commit_took - encode_took.min(commit_took)).as_secs_f64(), "s");
    put("ledger.encode_write_s", encode_took.as_secs_f64(), "s");
    put("ledger.snapshot_bytes", receipt.bytes as f64, "bytes");
    put("ledger.load_s", load_took.as_secs_f64(), "s");
    put("ledger.delta_s", delta_took.as_secs_f64(), "s");
    put(
        "ledger.loads_per_refresh",
        (after.counter("ledger.loads") - before.counter("ledger.loads")) as f64,
        "count",
    );
    put("ledger.commit_incremental_s", sample.commit_incremental.as_secs_f64(), "s");
    put(
        "fingerprint.rehydrated",
        (after.counter("fingerprint.cache.rehydrated")
            - before.counter("fingerprint.cache.rehydrated")) as f64,
        "count",
    );
    put("serve.store_build_s", (swap_took.saturating_sub(merged_load)).as_secs_f64(), "s");

    let served =
        serve_base(options, base, serve_plan(options), &mut facts, &mut spans, &mut tally)?;
    let reads = served.latencies_us(Route::is_store_read);
    put("serve_p50_us", percentile(&reads, 50.0).unwrap_or(f64::NAN), "us");
    put("serve_p99_us", percentile(&reads, 99.0).unwrap_or(f64::NAN), "us");
    put("serve_max_rps", served.max_rps, "req/s");
    for route in Route::ALL {
        let samples: Vec<&serve::Sample> =
            served.window.iter().filter(|s| served.targets[s.target].route == route).collect();
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency.as_secs_f64() * 1e6).collect();
        let bytes: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
        put(&format!("serve.route_p50_us.{}", route.name()), median_or_nan(&latencies), "us");
        put(&format!("serve.body_bytes.{}", route.name()), median_or_nan(&bytes), "bytes");
    }
    let late: Vec<f64> = served.window.iter().map(|s| s.late.as_secs_f64() * 1e6).collect();
    put("serve.gen_late_p99_us", percentile(&late, 99.0).unwrap_or(f64::NAN), "us");
    put("serve.cycle_max_read_ms", median_or_nan(&served.cycle_max_read_ms()), "ms");
    put("serve.swaps", served.swaps as f64, "count");
    put("obs.overhead_ratio", traced_s.as_secs_f64() / untraced_s.as_secs_f64(), "ratio");
    put("obs.spans_dropped", spans_dropped as f64, "count");
    registry.set_enabled(false);
    Ok(Outcome { tally, metrics: m, facts, spans })
}
