//! The shared measurement pipeline behind every experiment.
//!
//! Reproduces the paper's §5 end to end: Anaximander target lists
//! from the BGP view, a TNT campaign from every vantage point,
//! SNMPv3 + TTL fingerprinting, MIDAR/APPLE alias resolution feeding
//! bdrmapIT-style AS restriction, and finally AReST detection over
//! the augmented intra-AS traces.
//!
//! ## Streaming execution model
//!
//! The default build is an **AS-major streaming dataflow**. After one
//! generation barrier (Internet + BGP view + Anaximander target
//! lists), each AS flows probe → fingerprint → alias →
//! annotate/detect end to end on the shared work-stealing pool
//! ([`arest_tnt::pool::run_dynamic`]):
//!
//! * **probe** — one `(AS, VP)` campaign unit per vantage point; the
//!   unit that completes an AS's last campaign injects that AS's
//!   *tail* unit into the pool;
//! * **tail** — fingerprints the AS's addresses through a shared,
//!   sharded, memoizing [`FingerprintCache`] (each distinct address
//!   is probed once per build, no matter how many ASes observe it),
//!   resolves aliases from just this AS's paths, annotates/restricts,
//!   runs the detector, and sends the finished [`AsResult`] into a
//!   **bounded channel**.
//!
//! Admission is coupled to the channel: the next AS enters the pool
//! only after a tail's send is accepted, so raw-trace intermediates
//! resident at once are bounded by the admission window plus the
//! channel capacity — not by the catalog size.
//! [`BuildStats::peak_resident_traces`] measures the watermark.
//!
//! The pre-refactor **staged** build (five barriers: generate → probe
//! → fingerprint → alias → detect) is kept as
//! [`Dataset::build_staged`]: it is the reference the result-identity
//! regression tests at the bottom of this file compare against.
//!
//! ## Determinism
//!
//! The streaming build is result-identical to the staged one at any
//! worker count, by construction:
//!
//! * campaign units are pure functions of `(AS, VP)`; tails reassemble
//!   them in VP order, reproducing the staged AS-major/VP-minor trace
//!   layout;
//! * the fingerprint cache holds its shard's write lock across the
//!   echo probe, so probe counts — and the evidence — never depend on
//!   which AS asks first, and the TTL signature normalizes the
//!   time-exceeded reply TTL, so evidence is invariant to *which*
//!   AS's observation accompanies the request;
//! * alias resolution samples a pure IP-ID oracle, and prefix
//!   ownership covers every generated interface address, so per-AS
//!   cluster views annotate exactly like the staged global one;
//! * per-AS outputs merge into the dataset in catalog order
//!   (first-wins for the fingerprint map), independent of completion
//!   order.

use crate::admission::AdmissionWindow;
use arest_conc::atomic::{AtomicUsize, Ordering};
use arest_conc::sync::Mutex;
use arest_core::detect::{detect_segments_spanned, DetectedSegment, DetectorConfig};
use arest_core::model::{AugmentedHop, AugmentedTrace};
use arest_fingerprint::combined::{fingerprint_addresses, FingerprintSource, VendorEvidence};
use arest_fingerprint::snmp::SnmpDataset;
use arest_fingerprint::FingerprintCache;
use arest_mapping::alias::{AliasResolver, IpIdOracle};
use arest_mapping::anaximander::{build_target_list, AnaximanderConfig};
use arest_mapping::bdrmap::AsAnnotator;
use arest_mapping::bgp::{BgpRoute, BgpView};
use arest_netgen::internet::{generate_probed, GenConfig, Internet};
use arest_obs::{Counter, Gauge, Span, SpanContext, Tracer};
use arest_tnt::campaign::{campaign_unit, run_campaigns_spanned, CampaignConfig, VantagePoint};
use arest_tnt::pool::{self, Injector};
use arest_tnt::trace::{collect_addrs, Trace};
use arest_topo::ids::{AsNumber, RouterId};
use crossbeam::channel;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// The global registry's span tracer (inert while `AREST_OBS` is off).
static TRACER: LazyLock<Tracer> = LazyLock::new(|| arest_obs::global().tracer());

/// Fingerprint batch size for the staged build, in addresses. Fixed —
/// not derived from the worker count — so the set of
/// `pipeline.fingerprint.batch` spans (and therefore the whole span
/// tree) is identical at any worker count. Results never depended on
/// the split: batches are disjoint and their maps merge order-free.
const FINGERPRINT_BATCH: usize = 256;

/// Capacity of the bounded channel completed ASes stream through.
/// Small on purpose: a slow consumer back-pressures the pool instead
/// of letting finished results (and their trace memory) pile up.
const RESULT_CHANNEL_CAPACITY: usize = 4;

/// How many ASes may be in flight at once. Enough to keep every
/// worker busy (two per worker absorbs tail latency) and to cover the
/// result channel, but far below the catalog size — this is what
/// bounds resident raw traces.
fn admission_window(workers: usize) -> usize {
    (workers * 2).max(RESULT_CHANNEL_CAPACITY * 2)
}

/// Streaming-mode handles into the global `arest-obs` registry.
struct StreamMetrics {
    /// `pipeline.stream.ases` — tail units completed.
    ases: Counter,
    /// `pipeline.stream.peak_resident_traces` — high watermark of raw
    /// traces alive between probe and consumption.
    peak_resident: Gauge,
    /// `pipeline.stream.peak_results_queued` — high watermark of
    /// finished ASes waiting in the bounded channel.
    peak_queued: Gauge,
}

static STREAM_METRICS: LazyLock<StreamMetrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    StreamMetrics {
        ases: registry.counter("pipeline.stream.ases"),
        peak_resident: registry.gauge("pipeline.stream.peak_resident_traces"),
        peak_queued: registry.gauge("pipeline.stream.peak_results_queued"),
    }
});

/// Which slice of the AS catalog a campaign probes. `Full` is a
/// complete campaign; the other variants select a subset **in catalog
/// order**, so a given spec names the same ASes on every run of the
/// same catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceSpec {
    /// Every AS — a full campaign (the default).
    Full,
    /// The first `⌈pct·N/100⌉` ASes of an `N`-entry catalog.
    Percent(u8),
    /// The first `n` ASes.
    First(u32),
    /// The single AS with this ASN.
    Asn(u32),
}

impl SliceSpec {
    /// Whether this spec is the whole catalog by construction.
    /// (`Percent(100)` and a large `First` also select everything,
    /// but only [`SliceSpec::mask`] can tell.)
    pub fn is_full(self) -> bool {
        matches!(self, SliceSpec::Full)
    }

    /// The catalog-order selection mask over the campaign's ASNs.
    pub fn mask(self, asns: &[u32]) -> Vec<bool> {
        let n = asns.len();
        match self {
            SliceSpec::Full => vec![true; n],
            SliceSpec::Percent(pct) => {
                let count = (n * usize::from(pct.min(100))).div_ceil(100);
                (0..n).map(|i| i < count).collect()
            }
            SliceSpec::First(k) => (0..n).map(|i| (i as u64) < u64::from(k)).collect(),
            SliceSpec::Asn(asn) => asns.iter().map(|&a| a == asn).collect(),
        }
    }

    /// Parses a CLI slice spec: `all`, `N%` (first N percent), `asN`
    /// (one ASN), or a plain count `N` (first N catalog entries).
    pub fn parse(s: &str) -> Result<SliceSpec, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("all") {
            return Ok(SliceSpec::Full);
        }
        if let Some(pct) = s.strip_suffix('%') {
            return pct
                .parse::<u8>()
                .ok()
                .filter(|p| *p <= 100)
                .map(SliceSpec::Percent)
                .ok_or_else(|| format!("bad percentage in slice spec {s:?} (want 0-100)"));
        }
        if let Some(asn) = s.strip_prefix("as").or_else(|| s.strip_prefix("AS")) {
            return asn
                .parse::<u32>()
                .map(SliceSpec::Asn)
                .map_err(|_| format!("bad ASN in slice spec {s:?} (want e.g. as293)"));
        }
        s.parse::<u32>()
            .map(SliceSpec::First)
            .map_err(|_| format!("bad slice spec {s:?} (want `all`, `N%`, `N`, or `asN`)"))
    }
}

impl std::fmt::Display for SliceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceSpec::Full => write!(f, "all"),
            SliceSpec::Percent(p) => write!(f, "{p}%"),
            SliceSpec::First(n) => write!(f, "{n}"),
            SliceSpec::Asn(a) => write!(f, "as{a}"),
        }
    }
}

/// The campaign's catalog ASNs in catalog order, derivable without
/// generating anything: replica-major over the 60-entry table with
/// `asn + 1_000_000·replica`, mirroring the plan layout of
/// [`arest_netgen::internet::generate`].
fn catalog_asns(gen: &GenConfig) -> Vec<u32> {
    let scale = gen.catalog_scale.max(1);
    let catalog = &arest_netgen::catalog::CATALOG;
    let mut asns = Vec::with_capacity(catalog.len() * scale);
    for replica in 0..scale {
        asns.extend(catalog.iter().map(|e| e.asn + 1_000_000 * replica as u32));
    }
    asns
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Synthetic-Internet generator settings.
    pub gen: GenConfig,
    /// Cap on Anaximander targets per AS.
    pub targets_per_as: usize,
    /// Traces sampled per AS for alias-candidate generation.
    pub alias_paths_per_as: usize,
    /// AReST detector settings.
    pub detector: DetectorConfig,
    /// Worker threads for the parallel stages; `None` defers to
    /// `AREST_WORKERS` / the machine's available parallelism
    /// (`arest_tnt::pool::worker_count`).
    pub workers: Option<usize>,
    /// Which slice of the catalog this campaign re-probes. Non-full
    /// slices skip plane deployment, target lists, probing, and tails
    /// for every unselected AS — its [`AsResult`] comes back empty —
    /// and are meant to be merged over a base ledger run
    /// (`ledger_io::commit_incremental`).
    pub reprobe: SliceSpec,
    /// The ledger serial a sliced run carries unchanged ASes forward
    /// from. Campaign metadata: the pipeline itself never reads it;
    /// the ledger merge does. Excluded — along with `reprobe` — from
    /// the canonical config digest, so incremental runs of a campaign
    /// compare as the *same* configuration in diffs.
    pub base_serial: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            gen: GenConfig::default(),
            targets_per_as: 48,
            alias_paths_per_as: 12,
            detector: DetectorConfig::default(),
            workers: None,
            reprobe: SliceSpec::Full,
            base_serial: None,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for unit tests.
    pub fn quick() -> PipelineConfig {
        PipelineConfig {
            gen: GenConfig::tiny(),
            targets_per_as: 8,
            alias_paths_per_as: 4,
            detector: DetectorConfig::default(),
            workers: None,
            reprobe: SliceSpec::Full,
            base_serial: None,
        }
    }

    /// The catalog-order selection mask for this configuration's
    /// `reprobe` slice, or `None` for a full campaign.
    pub fn slice_mask(&self) -> Option<Vec<bool>> {
        if self.reprobe.is_full() {
            None
        } else {
            Some(self.reprobe.mask(&catalog_asns(&self.gen)))
        }
    }
}

/// Everything the pipeline produced for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsResult {
    /// The paper identifier (1–60).
    pub id: u8,
    /// The ASN.
    pub asn: AsNumber,
    /// Anaximander targets probed for this AS (per VP).
    pub targets_probed: usize,
    /// Raw TNT traces this AS's campaigns collected before
    /// restriction — its share of [`Dataset::raw_trace_count`]. The
    /// ledger stores it per AS so an incremental merge can rebuild
    /// exact totals from carried and fresh parts.
    pub raw_traces: usize,
    /// Raw TNT traces restricted to the intra-AS span.
    pub restricted: Vec<Trace>,
    /// The same traces in AReST's augmented form.
    pub augmented: Vec<AugmentedTrace>,
    /// Detected segments, parallel to `augmented`.
    pub segments: Vec<Vec<DetectedSegment>>,
    /// Distinct addresses annotated to this AS across all traces.
    pub discovered: HashSet<Ipv4Addr>,
}

impl AsResult {
    /// All `(trace, segments)` pairs, borrowed — the shape
    /// `arest_core::metrics::validate` consumes. Nothing is cloned.
    pub fn detections(&self) -> impl Iterator<Item = (&AugmentedTrace, &[DetectedSegment])> {
        self.augmented.iter().zip(self.segments.iter().map(Vec::as_slice))
    }

    /// All detected segments, flattened.
    pub fn all_segments(&self) -> impl Iterator<Item = &DetectedSegment> {
        self.segments.iter().flatten()
    }
}

/// Wall-clock duration of each streaming-build phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Internet generation + BGP view + Anaximander target lists.
    pub generate: Duration,
    /// The whole probe→…→detect dataflow (one phase — the barriers it
    /// replaced no longer exist as separable intervals).
    pub stream: Duration,
}

/// How a [`Dataset::build_with_stats`] run went.
#[derive(Debug, Clone, Copy)]
pub struct BuildStats {
    /// Worker threads the parallel stages ran on.
    pub workers: usize,
    /// Per-phase wall-clock timings.
    pub timings: StageTimings,
    /// End-to-end build time.
    pub total: Duration,
    /// High watermark of raw traces resident at once, bounded by the
    /// admission window regardless of catalog size.
    pub peak_resident_traces: usize,
}

impl BuildStats {
    /// `(name, duration)` pairs for the build's phases, in pipeline
    /// order. The names match the `pipeline.stage.{name}` span names,
    /// so bench artifacts and span trees can be cross-checked.
    pub fn stages(&self) -> Vec<(&'static str, Duration)> {
        vec![("generate", self.timings.generate), ("stream", self.timings.stream)]
    }
}

/// The full pipeline output.
#[derive(Debug)]
pub struct Dataset {
    /// The synthetic Internet (topology, ground truth, plans).
    pub internet: Internet,
    /// The configuration the dataset was built with.
    pub config: PipelineConfig,
    /// Per-AS results, in catalog order (always 60 entries).
    pub results: Vec<AsResult>,
    /// Fingerprint evidence per address, with its source method.
    pub fingerprints: HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)>,
    /// The harvested SNMPv3 dataset.
    pub snmp: SnmpDataset,
    /// Distinct in-AS addresses seen per VP name (drives Fig. 17).
    pub per_vp_discovered: HashMap<Arc<str>, HashSet<Ipv4Addr>>,
    /// Total traces collected before restriction.
    pub raw_trace_count: usize,
    /// Every echo-probe memoization the run's shared
    /// [`FingerprintCache`] held at completion, address-sorted. The
    /// ledger persists it in the run's aux sidecar so the next
    /// incremental run can rehydrate and skip those probes. Streaming
    /// builds fill it; the staged reference build (no shared cache)
    /// leaves it empty.
    pub cache_entries: Vec<(Ipv4Addr, Option<u8>)>,
}

/// A restricted trace after the per-trace pipeline tail (one work
/// unit's output).
struct ProcessedTrace {
    restricted: Trace,
    augmented: AugmentedTrace,
    segments: Vec<DetectedSegment>,
    /// Addresses annotated to the AS, in hop order (may repeat).
    discovered: Vec<Ipv4Addr>,
}

/// The generation barrier's output, shared by both build modes.
struct Generated {
    internet: Internet,
    vps: Vec<VantagePoint>,
    target_lists: Vec<Vec<Ipv4Addr>>,
}

/// Internet generation, the BGP view, and the per-AS Anaximander
/// target lists — the one barrier both build modes start from. With a
/// slice mask, unselected ASes get no forwarding planes and no target
/// list: the expensive per-AS generation work scales with the slice,
/// not the catalog.
fn generate_phase(
    config: &PipelineConfig,
    workers: usize,
    parent: SpanContext,
    slice: Option<&[bool]>,
) -> Generated {
    let stage_span = TRACER.span_with_parent("pipeline.stage.generate", parent);
    let generate_ctx = stage_span.context();
    let internet = generate_probed(&config.gen, slice);

    let view: BgpView = internet
        .routes
        .iter()
        .map(|r| BgpRoute { prefix: r.prefix, origin: r.origin, path: r.path.clone() })
        .collect();

    let vps: Vec<VantagePoint> = internet
        .vps
        .iter()
        .map(|vp| VantagePoint {
            name: Arc::from(vp.name.as_str()),
            addr: vp.addr,
            gateway: vp.gateway,
        })
        .collect();

    let anax = AnaximanderConfig { targets_per_prefix: 2, max_targets: config.targets_per_as };
    let plans: Vec<_> = internet.plans.iter().collect();
    let target_lists: Vec<Vec<Ipv4Addr>> = pool::run_indexed(plans, workers, &|idx, plan| {
        if let Some(mask) = slice {
            if !mask.get(idx).copied().unwrap_or(false) {
                // Unselected ASes are never probed: no target list,
                // no unit span.
                return Vec::new();
            }
        }
        let mut span = TRACER.span_with_parent("pipeline.targets.unit", generate_ctx);
        span.record("as_idx", idx);
        build_target_list(&view, plan.asn, &anax)
    });
    Generated { internet, vps, target_lists }
}

/// Publishes phase wall-clock and volume into the global
/// observability registry (rendered into RUN_REPORT). Cold — once per
/// build — so inline registration is fine.
fn publish_build_metrics(stats: &BuildStats, raw_trace_count: usize) {
    let registry = arest_obs::global();
    if !registry.is_enabled() {
        return;
    }
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    for (name, duration) in stats.stages() {
        registry.histogram(&format!("pipeline.stage.{name}.us")).record(us(duration));
    }
    registry.histogram("pipeline.total.us").record(us(stats.total));
    registry.counter("pipeline.builds").inc();
    registry.counter("pipeline.raw_traces").add(raw_trace_count as u64);
    registry.gauge("pipeline.workers").set(stats.workers as i64);
}

/// A pool work unit of the streaming dataflow.
enum StreamUnit {
    /// One vantage point's campaign against one AS.
    Probe { as_idx: usize, vp_idx: usize },
    /// The per-AS tail: fingerprint, alias, annotate/detect, send.
    Tail { as_idx: usize },
}

/// Per-AS in-flight state: one trace slot per vantage point plus the
/// countdown that decides which probe unit injects the tail.
struct AsFlow {
    /// Campaign output per VP, filled by probe units.
    slots: Vec<Mutex<Option<Vec<Trace>>>>,
    /// Probe units still outstanding; the 1→0 transition injects the
    /// tail on exactly one worker.
    remaining: AtomicUsize,
    /// The AS's `pipeline.as.flow` span, opened at admission and
    /// closed by the tail. Probe units parent their campaign spans to
    /// it.
    span: Mutex<Option<Span>>,
}

impl AsFlow {
    fn new(vp_count: usize) -> AsFlow {
        AsFlow {
            slots: (0..vp_count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(vp_count),
            span: Mutex::new(None),
        }
    }
}

/// One finished AS, as sent through the bounded result channel.
struct StreamedAs {
    as_idx: usize,
    result: AsResult,
    /// This AS's slice of the fingerprint map (evidence for every
    /// address its traces observed).
    fingerprints: HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)>,
    /// This AS's contribution to per-VP discovery.
    per_vp: HashMap<Arc<str>, HashSet<Ipv4Addr>>,
    /// Raw traces this AS held resident (for the watermark).
    raw_traces: usize,
}

/// The shared state every streaming work unit runs against.
struct StreamEngine<'a> {
    net: &'a arest_simnet::Network,
    snmp: &'a SnmpDataset,
    vps: Vec<VantagePoint>,
    target_lists: Vec<Vec<Ipv4Addr>>,
    plan_ids: Vec<u8>,
    plan_asns: Vec<AsNumber>,
    config: PipelineConfig,
    campaign_cfg: CampaignConfig,
    oracle: IpIdOracle<'a>,
    /// The base annotator (shared ownership table, no clusters); tails
    /// derive a per-AS view with [`AsAnnotator::with_aliases`].
    annotator: AsAnnotator,
    cache: FingerprintCache<'a>,
    flows: Vec<AsFlow>,
    /// The catalog indices this campaign probes, in catalog order —
    /// the whole catalog for a full run, the slice for a re-probe.
    /// The admission window walks *positions* in this list.
    selected: Vec<usize>,
    /// Sliding admission control: bounds concurrent in-flight ASes,
    /// advanced one slot per accepted result send.
    window: AdmissionWindow,
    /// Raw traces currently alive (probed but not yet consumed).
    resident: AtomicUsize,
    /// High watermark of `resident`.
    peak_resident: AtomicUsize,
    /// The `pipeline.stage.stream` span every flow parents to.
    stream_ctx: SpanContext,
}

impl StreamEngine<'_> {
    /// Admits one AS into the dataflow: opens its flow span and
    /// returns the units to enqueue (one probe per VP, or the bare
    /// tail when there are no vantage points).
    fn admit(&self, as_idx: usize) -> Vec<StreamUnit> {
        let mut span = TRACER.span_with_parent("pipeline.as.flow", self.stream_ctx);
        span.record("as_idx", as_idx);
        span.record("targets", self.target_lists[as_idx].len());
        *self.flows[as_idx].span.lock().expect("flow span lock") = Some(span);
        if self.vps.is_empty() {
            return vec![StreamUnit::Tail { as_idx }];
        }
        (0..self.vps.len()).map(|vp_idx| StreamUnit::Probe { as_idx, vp_idx }).collect()
    }

    /// Runs one `(AS, VP)` campaign; the last probe of an AS injects
    /// its tail.
    fn probe(&self, as_idx: usize, vp_idx: usize, injector: &Injector<'_, StreamUnit>) {
        let flow = &self.flows[as_idx];
        let flow_ctx = {
            let guard = flow.span.lock().expect("flow span lock");
            guard.as_ref().expect("probe units run after admission").context()
        };
        let traces = campaign_unit(
            self.net,
            &self.vps[vp_idx],
            &self.target_lists[as_idx],
            &self.campaign_cfg,
            flow_ctx,
        );
        // Relaxed: a pure statistic. RMWs on one atomic share a total
        // modification order, so the count is exact; the traces
        // themselves are published through the slot mutex below.
        let now = self.resident.fetch_add(traces.len(), Ordering::Relaxed) + traces.len();
        // Relaxed fetch_max: a monotonic watermark over values read
        // from the same counter; nothing is ordered against it.
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
        STREAM_METRICS.peak_resident.set_max(now as i64);
        *flow.slots[vp_idx].lock().expect("flow slot lock") = Some(traces);
        // AcqRel, not Relaxed: each probe's decrement must *release*
        // its slot write into the chain so the final decrementer (the
        // one observing 1) has every sibling's write happen-before the
        // tail it injects. The tail re-locks each slot mutex, but that
        // alone cannot order its critical section after a sibling
        // probe's — this RMW chain is what does.
        if flow.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            injector.push(StreamUnit::Tail { as_idx });
        }
    }

    /// The per-AS tail: reassemble the campaigns in VP order, run the
    /// fingerprint → alias → annotate/detect chain trace by trace, and
    /// stream the finished result out. An accepted send admits the
    /// next AS.
    fn tail(
        &self,
        as_idx: usize,
        injector: &Injector<'_, StreamUnit>,
        results: &channel::Sender<StreamedAs>,
    ) {
        let flow = &self.flows[as_idx];
        let flow_span = flow.span.lock().expect("flow span lock").take().expect("tail runs once");
        let mut tail_span = TRACER.span_with_parent("pipeline.as.tail", flow_span.context());
        tail_span.record("as_idx", as_idx);
        let asn = self.plan_asns[as_idx];

        // VP-order reassembly reproduces the staged AS-major/VP-minor
        // trace layout exactly.
        let mut raw: Vec<Trace> = Vec::new();
        for slot in &flow.slots {
            if let Some(traces) = slot.lock().expect("flow slot lock").take() {
                raw.extend(traces);
            }
        }
        let raw_count = raw.len();
        tail_span.record("traces", raw_count);

        // Fingerprint: evidence for every TTL-bearing address this
        // AS observed, answered by the shared memoizing cache.
        let mut fp_span = TRACER.span_with_parent("pipeline.as.fingerprint", tail_span.context());
        let (addrs, te_ttls) = collect_addrs(&raw);
        fp_span.record("addrs", addrs.len());
        let mut fingerprints = HashMap::with_capacity(addrs.len());
        for &addr in &addrs {
            if let Some(evidence) = self.cache.evidence(addr, te_ttls[&addr], self.snmp) {
                fingerprints.insert(addr, evidence);
            }
        }
        drop(fp_span);

        // Alias: this AS's paths only; the view shares the ownership
        // table with every other AS's view.
        let mut alias_span = TRACER.span_with_parent("pipeline.as.alias", tail_span.context());
        let paths: Vec<Vec<Ipv4Addr>> = raw
            .iter()
            .take(self.config.alias_paths_per_as)
            .map(|t| t.responding_addrs().collect())
            .collect();
        alias_span.record("paths", paths.len());
        let clusters = AliasResolver::resolve_paths(&self.oracle, &paths, 5);
        let annotator = self.annotator.with_aliases(clusters);
        drop(alias_span);

        // Annotate/restrict/detect, trace by trace.
        let mut result = self.empty_result(as_idx);
        result.raw_traces = raw_count;
        let mut per_vp: HashMap<Arc<str>, HashSet<Ipv4Addr>> = HashMap::new();
        for trace in raw {
            let mut span = TRACER.span_with_parent("pipeline.detect.unit", tail_span.context());
            span.record("as_idx", as_idx);
            span.record("dst", trace.dst);
            let outcome = process_trace(
                trace,
                &annotator,
                asn,
                &fingerprints,
                &self.config.detector,
                span.context(),
            );
            let Some(processed) = outcome else { continue };
            let vp_set = per_vp.entry(processed.restricted.vp.clone()).or_default();
            for addr in processed.discovered {
                result.discovered.insert(addr);
                vp_set.insert(addr);
            }
            result.restricted.push(processed.restricted);
            result.augmented.push(processed.augmented);
            result.segments.push(processed.segments);
        }
        drop(tail_span);
        drop(flow_span);
        STREAM_METRICS.ases.inc();

        let streamed = StreamedAs { as_idx, result, fingerprints, per_vp, raw_traces: raw_count };
        if results.send(streamed).is_err() {
            // The consumer is gone (it panicked and dropped the
            // receiver). Stop admitting; the queued units drain and
            // the pool shuts down.
            return;
        }
        STREAM_METRICS.peak_queued.set_max(results.len() as i64);

        // Backpressure point: only an *accepted* result opens the
        // window for the next AS. The window hands out positions in
        // the selection, which map to catalog indices here.
        if let Some(next) = self.window.completed() {
            for unit in self.admit(self.selected[next]) {
                injector.push(unit);
            }
        }
    }

    /// An [`AsResult`] shell for `as_idx`, before any traces land.
    fn empty_result(&self, as_idx: usize) -> AsResult {
        AsResult {
            id: self.plan_ids[as_idx],
            asn: self.plan_asns[as_idx],
            targets_probed: self.target_lists[as_idx].len(),
            raw_traces: 0,
            restricted: Vec::new(),
            augmented: Vec::new(),
            segments: Vec::new(),
            discovered: HashSet::new(),
        }
    }

    /// Dispatches one pool unit.
    fn run(
        &self,
        unit: StreamUnit,
        injector: &Injector<'_, StreamUnit>,
        results: &channel::Sender<StreamedAs>,
    ) {
        match unit {
            StreamUnit::Probe { as_idx, vp_idx } => self.probe(as_idx, vp_idx, injector),
            StreamUnit::Tail { as_idx } => self.tail(as_idx, injector, results),
        }
    }

    /// The consumer took one AS off the channel; its raw traces are
    /// no longer pipeline-resident.
    fn note_consumed(&self, raw_traces: usize) {
        // Relaxed: pure statistic, same rationale as the fetch_add in
        // `probe` — the RMW total order keeps it exact.
        self.resident.fetch_sub(raw_traces, Ordering::Relaxed);
    }
}

impl Dataset {
    /// Runs the whole pipeline (streaming dataflow).
    pub fn build(config: PipelineConfig) -> Dataset {
        Dataset::build_with_stats(config).0
    }

    /// Runs the whole pipeline (streaming dataflow) and reports
    /// per-phase timings.
    pub fn build_with_stats(config: PipelineConfig) -> (Dataset, BuildStats) {
        Dataset::build_streaming(config, |_| {})
    }

    /// Runs the streaming pipeline, invoking `on_as` for each
    /// finished [`AsResult`] **in completion order** (not catalog
    /// order) while the rest of the catalog is still being measured.
    /// The returned dataset is identical to a staged build's.
    ///
    /// The callback runs on the calling thread. It may be slow: the
    /// bounded result channel back-pressures the pool, so a slow
    /// consumer bounds memory instead of growing a backlog.
    ///
    /// When tracing is enabled (`AREST_OBS` / `--obs`), the build
    /// opens a `pipeline.build` root with a `pipeline.stage.generate`
    /// barrier child and a `pipeline.stage.stream` child; each AS
    /// hangs a `pipeline.as.flow` span off the stream stage with its
    /// campaign units and its `pipeline.as.tail` (fingerprint, alias,
    /// detect) below, so the reconstructed tree is identical at any
    /// worker count.
    pub fn build_streaming(
        config: PipelineConfig,
        on_as: impl FnMut(&AsResult),
    ) -> (Dataset, BuildStats) {
        Dataset::build_streaming_seeded(config, &[], on_as)
    }

    /// [`Dataset::build_streaming`] with a fingerprint-cache seed
    /// carried over from a previous run's [`Dataset::cache_entries`].
    /// The seed is rehydrated under a `pipeline.cache.rehydrate` span
    /// before any AS is admitted, so addresses whose echo probe is
    /// carried never touch the network this run
    /// (`fingerprint.cache.rehydrated` counts them;
    /// `fingerprint.cache.stale` counts dropped entries).
    ///
    /// With a non-full [`PipelineConfig::reprobe`] slice, only the
    /// selected ASes are generated in depth, given target lists,
    /// scheduled on the pool, and probed; every other AS's
    /// [`AsResult`] is present but empty (`targets_probed == 0`).
    pub fn build_streaming_seeded(
        config: PipelineConfig,
        seed_cache: &[(Ipv4Addr, Option<u8>)],
        mut on_as: impl FnMut(&AsResult),
    ) -> (Dataset, BuildStats) {
        let build_started = Instant::now();
        let workers = config.workers.unwrap_or_else(pool::worker_count);
        let mut timings = StageTimings::default();
        let mut build_span = TRACER.span("pipeline.build");
        build_span.record("workers", workers);
        build_span.record("mode", "streaming");
        let build_ctx = build_span.context();

        let slice_mask = config.slice_mask();
        let stage = Instant::now();
        let generated = generate_phase(&config, workers, build_ctx, slice_mask.as_deref());
        timings.generate = stage.elapsed();
        let Generated { internet, vps, target_lists } = generated;
        let n_as = internet.plans.len();
        let selected: Vec<usize> = match &slice_mask {
            None => (0..n_as).collect(),
            Some(mask) => {
                debug_assert_eq!(mask.len(), n_as, "slice mask mirrors the catalog");
                (0..n_as).filter(|&i| mask.get(i).copied().unwrap_or(false)).collect()
            }
        };
        let n_selected = selected.len();

        let stage = Instant::now();
        let stream_span = TRACER.span_with_parent("pipeline.stage.stream", build_ctx);
        let snmp = SnmpDataset::harvest(&internet.net);
        // The cache probes through the first VP, as the staged
        // fingerprint pass did (the fallback entry is never used:
        // without VPs there are no traces, hence no addresses).
        let (fp_entry, fp_src) =
            vps.first().map_or((RouterId(0), Ipv4Addr::UNSPECIFIED), |vp| (vp.gateway, vp.addr));
        // Force the streaming-metrics static now, on this thread: a
        // `LazyLock`'s one-time initialization blocks every other
        // contender on an OS futex, so first-touch from racing workers
        // would serialize them invisibly (and wedge a model-check run,
        // where the scheduler cannot see that block). `TRACER` is
        // already forced by the build span above.
        let _ = &*STREAM_METRICS;
        let window = admission_window(workers).min(n_selected.max(1));
        let engine = StreamEngine {
            net: &internet.net,
            snmp: &snmp,
            vps,
            target_lists,
            plan_ids: internet.plans.iter().map(|p| p.entry.id).collect(),
            plan_asns: internet.plans.iter().map(|p| p.asn).collect(),
            config,
            campaign_cfg: CampaignConfig::default(),
            oracle: IpIdOracle::new(&internet.net),
            annotator: AsAnnotator::new(internet.ownership.iter().copied()),
            cache: FingerprintCache::new(&internet.net, fp_entry, fp_src),
            flows: (0..n_as).map(|_| AsFlow::new(internet.vps.len())).collect(),
            selected,
            window: AdmissionWindow::new(window, n_selected),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            stream_ctx: stream_span.context(),
        };

        // Rehydrate the carried cache before any unit can race it:
        // a head-of-run phase, under its own span.
        if !seed_cache.is_empty() {
            let mut span = TRACER.span_with_parent("pipeline.cache.rehydrate", build_ctx);
            span.record("entries", seed_cache.len());
            let rehydrated = engine.cache.rehydrate(seed_cache);
            span.record("rehydrated", rehydrated.rehydrated);
            span.record("stale", rehydrated.stale);
        }

        let mut initial: Vec<StreamUnit> = Vec::new();
        for pos in engine.window.initial() {
            initial.extend(engine.admit(engine.selected[pos]));
        }

        let (result_tx, result_rx) = channel::bounded::<StreamedAs>(RESULT_CHANNEL_CAPACITY);
        let mut streamed: Vec<Option<StreamedAs>> = (0..n_as).map(|_| None).collect();
        let engine_ref = &engine;
        crossbeam::thread::scope(|scope| {
            // Producer: the work-stealing pool. It owns the sender;
            // when the last unit completes the sender drops and the
            // consumer's iterator ends.
            scope.spawn(move |_| {
                pool::run_dynamic(initial, workers, &|unit, injector| {
                    engine_ref.run(unit, injector, &result_tx);
                });
            });
            // Consumer: this thread. The receiver is *moved* into the
            // scope body so that an unwinding callback drops it —
            // blocked producers then see a send error and drain
            // instead of deadlocking against a full channel.
            let result_rx = result_rx;
            for item in result_rx.iter() {
                engine_ref.note_consumed(item.raw_traces);
                on_as(&item.result);
                let slot = &mut streamed[item.as_idx];
                debug_assert!(slot.is_none(), "one tail per AS");
                *slot = Some(item);
            }
        })
        .expect("the crossbeam shim scope is infallible");
        drop(stream_span);
        timings.stream = stage.elapsed();

        // Relaxed: every worker has joined (the scope closed above),
        // so their watermark updates happen-before this load anyway.
        let peak_resident_traces = engine.peak_resident.load(Ordering::Relaxed);
        let cache_entries = engine.cache.export();
        drop(engine);

        // Deterministic assembly: catalog order, first-wins for the
        // fingerprint map — identical to the staged global pass (the
        // first AS to observe an address supplies the same first-seen
        // time-exceeded TTL the global scan would have kept, and the
        // evidence itself is observation-invariant).
        let mut results: Vec<AsResult> = Vec::with_capacity(n_as);
        let mut fingerprints = HashMap::new();
        let mut per_vp_discovered: HashMap<Arc<str>, HashSet<Ipv4Addr>> = HashMap::new();
        let mut raw_trace_count = 0;
        for (as_idx, slot) in streamed.into_iter().enumerate() {
            let probed = slice_mask.as_ref().is_none_or(|mask| mask[as_idx]);
            let Some(item) = slot else {
                // Unselected ASes never entered the pool: an empty
                // result keeps the catalog shape (one entry per AS).
                assert!(!probed, "every admitted AS streams exactly one result");
                let plan = &internet.plans[as_idx];
                results.push(AsResult {
                    id: plan.entry.id,
                    asn: plan.asn,
                    targets_probed: 0,
                    raw_traces: 0,
                    restricted: Vec::new(),
                    augmented: Vec::new(),
                    segments: Vec::new(),
                    discovered: HashSet::new(),
                });
                continue;
            };
            raw_trace_count += item.raw_traces;
            for (addr, evidence) in item.fingerprints {
                fingerprints.entry(addr).or_insert(evidence);
            }
            for (vp, addrs) in item.per_vp {
                per_vp_discovered.entry(vp).or_default().extend(addrs);
            }
            results.push(item.result);
        }

        let dataset = Dataset {
            internet,
            config,
            results,
            fingerprints,
            snmp,
            per_vp_discovered,
            raw_trace_count,
            cache_entries,
        };
        drop(build_span);
        let stats =
            BuildStats { workers, timings, total: build_started.elapsed(), peak_resident_traces };
        publish_build_metrics(&stats, dataset.raw_trace_count);
        (dataset, stats)
    }

    /// Runs the pre-refactor five-barrier pipeline. Kept as the
    /// reference implementation: the streaming build must be
    /// result-identical to this one (regression-tested).
    ///
    /// When tracing is enabled, the build opens a `pipeline.build`
    /// root span with one
    /// `pipeline.stage.{generate,probe,fingerprint,alias,detect}`
    /// child per barrier; every pool work unit opens its own span
    /// explicitly parented to its stage's [`SpanContext`], so the
    /// reconstructed tree is identical at any worker count.
    pub fn build_staged(config: PipelineConfig) -> Dataset {
        let workers = config.workers.unwrap_or_else(pool::worker_count);
        let mut build_span = TRACER.span("pipeline.build");
        build_span.record("workers", workers);
        build_span.record("mode", "staged");
        let build_ctx = build_span.context();

        // ---- Generation: Internet, BGP view, target lists ----
        let slice_mask = config.slice_mask();
        let generated = generate_phase(&config, workers, build_ctx, slice_mask.as_deref());
        let Generated { internet, vps, target_lists } = generated;

        // ---- Probing: all campaigns as one batch of (AS, VP) units ----
        let stage_span = TRACER.span_with_parent("pipeline.stage.probe", build_ctx);
        let campaign_cfg = CampaignConfig::default();
        let raw_per_as: Vec<Vec<Trace>> = run_campaigns_spanned(
            &internet.net,
            &vps,
            &target_lists,
            &campaign_cfg,
            workers,
            stage_span.context(),
        );
        let raw_trace_count = raw_per_as.iter().map(Vec::len).sum();
        let raw_lens: Vec<usize> = raw_per_as.iter().map(Vec::len).collect();
        drop(stage_span);

        // ---- Fingerprinting ----
        let stage_span = TRACER.span_with_parent("pipeline.stage.fingerprint", build_ctx);
        let fingerprint_ctx = stage_span.context();
        let snmp = SnmpDataset::harvest(&internet.net);
        // Sorted (collect_addrs sorts) for a deterministic batch
        // split; each address is fingerprinted independently, so
        // merging the disjoint batch maps is order-free.
        let (addr_list, te_ttls) = collect_addrs(raw_per_as.iter().flatten());
        let batches: Vec<&[Ipv4Addr]> = addr_list.chunks(FINGERPRINT_BATCH).collect();
        let batch_maps = pool::run_indexed(batches, workers, &|idx, batch| {
            let mut span = TRACER.span_with_parent("pipeline.fingerprint.batch", fingerprint_ctx);
            span.record("batch", idx);
            span.record("addrs", batch.len());
            fingerprint_addresses(
                &internet.net,
                vps[0].gateway,
                vps[0].addr,
                batch,
                &te_ttls,
                &snmp,
            )
        });
        let mut fingerprints = HashMap::with_capacity(addr_list.len());
        for map in batch_maps {
            fingerprints.extend(map);
        }
        drop(stage_span);

        // ---- Alias resolution (feeds the annotator) ----
        let stage_span = TRACER.span_with_parent("pipeline.stage.alias", build_ctx);
        let alias_ctx = stage_span.context();
        let oracle = IpIdOracle::new(&internet.net);
        let trace_groups: Vec<&Vec<Trace>> = raw_per_as.iter().collect();
        let per_as_candidates = pool::run_indexed(trace_groups, workers, &|idx, traces| {
            let mut span = TRACER.span_with_parent("pipeline.alias.unit", alias_ctx);
            span.record("as_idx", idx);
            span.record("traces", traces.len());
            let paths: Vec<Vec<Ipv4Addr>> = traces
                .iter()
                .take(config.alias_paths_per_as)
                .map(|t| t.responding_addrs().collect())
                .collect();
            AliasResolver::candidates_from_paths(&paths)
        });
        let mut resolver = AliasResolver::new();
        for pairs in per_as_candidates {
            resolver.add_candidates(pairs);
        }
        let clusters = resolver.resolve(&oracle, 5);
        drop(stage_span);

        // ---- AS annotation, restriction, and detection ----
        let stage_span = TRACER.span_with_parent("pipeline.stage.detect", build_ctx);
        let detect_ctx = stage_span.context();
        let mut annotator = AsAnnotator::new(internet.ownership.iter().copied());
        annotator.attach_aliases(clusters);

        let plan_asns: Vec<AsNumber> = internet.plans.iter().map(|p| p.asn).collect();
        // One work unit per raw trace; traces are *moved* into their
        // unit, so restriction reuses the hop vector in place instead
        // of copying spans out of it.
        let units: Vec<(usize, Trace)> = raw_per_as
            .into_iter()
            .enumerate()
            .flat_map(|(as_idx, traces)| traces.into_iter().map(move |trace| (as_idx, trace)))
            .collect();
        let processed = pool::run_indexed(units, workers, &|_, (as_idx, trace)| {
            let mut span = TRACER.span_with_parent("pipeline.detect.unit", detect_ctx);
            span.record("as_idx", as_idx);
            span.record("dst", trace.dst);
            let outcome = process_trace(
                trace,
                &annotator,
                plan_asns[as_idx],
                &fingerprints,
                &config.detector,
                span.context(),
            );
            (as_idx, outcome)
        });

        let mut per_vp_discovered: HashMap<Arc<str>, HashSet<Ipv4Addr>> = HashMap::new();
        let mut results: Vec<AsResult> = internet
            .plans
            .iter()
            .zip(&target_lists)
            .zip(&raw_lens)
            .map(|((plan, targets), &raw)| AsResult {
                id: plan.entry.id,
                asn: plan.asn,
                targets_probed: targets.len(),
                raw_traces: raw,
                restricted: Vec::new(),
                augmented: Vec::new(),
                segments: Vec::new(),
                discovered: HashSet::new(),
            })
            .collect();
        // Units were submitted AS-major in trace order and come back
        // in that same order, so this merge reproduces the sequential
        // catalog layout exactly.
        for (as_idx, outcome) in processed {
            let Some(trace) = outcome else { continue };
            let result = &mut results[as_idx];
            let vp_set = per_vp_discovered.entry(trace.restricted.vp.clone()).or_default();
            for addr in trace.discovered {
                result.discovered.insert(addr);
                vp_set.insert(addr);
            }
            result.restricted.push(trace.restricted);
            result.augmented.push(trace.augmented);
            result.segments.push(trace.segments);
        }
        drop(stage_span);
        drop(build_span);
        Dataset {
            internet,
            config,
            results,
            fingerprints,
            snmp,
            per_vp_discovered,
            raw_trace_count,
            cache_entries: Vec::new(),
        }
    }

    /// The result for paper identifier `id`.
    pub fn result(&self, id: u8) -> Option<&AsResult> {
        self.results.get(usize::from(id).checked_sub(1)?)
    }

    /// Results for the ASes the paper's ≥100-address rule keeps.
    pub fn analyzed(&self) -> impl Iterator<Item = &AsResult> {
        self.results.iter().filter(|r| {
            arest_netgen::catalog::by_id(r.id).is_some_and(arest_netgen::AsProfile::analyzed)
        })
    }
}

/// The per-trace pipeline tail: restrict to the intra-AS span,
/// collapse the no-PHP extra-hop artifact, augment with fingerprints,
/// and run the detector. Consumes the trace (hops are restricted in
/// place — no span copy).
fn process_trace(
    trace: Trace,
    annotator: &AsAnnotator,
    asn: AsNumber,
    fingerprints: &HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)>,
    detector: &DetectorConfig,
    parent: SpanContext,
) -> Option<ProcessedTrace> {
    let (first, last) = annotator.intra_as_span(trace.hops.iter().map(|h| h.addr), asn)?;
    let Trace { vp, src, dst, mut hops, reached } = trace;
    hops.truncate(last + 1);
    hops.drain(..first);
    // Collapse consecutive hops answering from the same address (the
    // no-PHP "extra hop" artifact): standard traceroute
    // post-processing, keeping the first reply (it carries the fuller
    // RFC 4950 quote).
    hops.dedup_by(|b, a| a.addr.is_some() && a.addr == b.addr);
    let mut discovered = Vec::new();
    for hop in &hops {
        if let Some(addr) = hop.addr {
            if annotator.annotate(addr) == Some(asn) {
                discovered.push(addr);
            }
        }
    }
    let restricted = Trace { vp, src, dst, hops, reached };
    let augmented = augment(&restricted, fingerprints);
    let segments = detect_segments_spanned(&augmented, detector, parent);
    Some(ProcessedTrace { restricted, augmented, segments, discovered })
}

/// Converts a restricted TNT trace into AReST's input form, attaching
/// fingerprint evidence per hop. Label stacks and the VP name are
/// shared with the input trace (`Arc`), not cloned.
pub fn augment(
    trace: &Trace,
    fingerprints: &HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)>,
) -> AugmentedTrace {
    let hops = trace
        .hops
        .iter()
        .map(|h| AugmentedHop {
            addr: h.addr,
            stack: h.stack.clone(),
            evidence: h.addr.and_then(|a| fingerprints.get(&a).map(|(e, _)| *e)),
            revealed: h.revealed,
            quoted_ip_ttl: h.quoted_ip_ttl,
            is_destination: h.is_destination,
        })
        .collect();
    AugmentedTrace::new(trace.vp.clone(), trace.dst, hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_core::flags::Flag;

    fn quick_dataset() -> Dataset {
        Dataset::build(PipelineConfig::quick())
    }

    #[test]
    fn pipeline_produces_results_for_all_60_ases() {
        let ds = quick_dataset();
        assert_eq!(ds.results.len(), 60);
        assert!(ds.raw_trace_count > 0);
        assert!(ds.analyzed().count() <= 41);
    }

    #[test]
    fn big_ases_yield_traces_and_discoveries() {
        let ds = quick_dataset();
        // Arelion (#58) is the largest AS: traces must enter it.
        let arelion = ds.result(58).unwrap();
        assert!(!arelion.restricted.is_empty(), "no intra-AS traces for Arelion");
        assert!(!arelion.discovered.is_empty());
    }

    #[test]
    fn esnet_detections_are_co_and_lso_only() {
        let ds = quick_dataset();
        let esnet = ds.result(46).unwrap();
        let flags: HashSet<Flag> = esnet.all_segments().map(|s| s.flag).collect();
        assert!(!flags.is_empty(), "ESnet must show SR segments");
        assert!(
            flags.is_subset(&[Flag::Co, Flag::Lso].into()),
            "no fingerprints → no vendor-range flags, got {flags:?}"
        );
    }

    #[test]
    fn esnet_has_perfect_precision_against_ground_truth() {
        let ds = quick_dataset();
        let esnet = ds.result(46).unwrap();
        let validation = arest_core::metrics::validate(esnet.detections(), |addr| {
            ds.internet.ground_truth.is_sr(addr)
        });
        assert!(validation.total_segments() > 0);
        assert_eq!(validation.iface_false_positive, 0, "Table 3: zero FPs");
    }

    #[test]
    fn fingerprints_cover_some_hops_with_snmp_and_ttl() {
        let ds = quick_dataset();
        let snmp =
            ds.fingerprints.values().filter(|(_, src)| *src == FingerprintSource::Snmp).count();
        let ttl =
            ds.fingerprints.values().filter(|(_, src)| *src == FingerprintSource::Ttl).count();
        assert!(ttl > 0, "TTL fingerprinting found nothing");
        assert!(ttl > snmp, "TTL should dominate as in the paper (88%/12%)");
    }

    #[test]
    fn per_vp_discovery_covers_every_vp() {
        let ds = quick_dataset();
        assert_eq!(ds.per_vp_discovered.len(), ds.internet.vps.len());
    }

    /// Asserts two builds of the same config are result-identical:
    /// same per-AS probe volume, trace sets, discovered addresses,
    /// flag multisets, and per-VP discovery — the determinism
    /// guarantee of the parallel scheduler, in both build modes.
    fn assert_result_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.raw_trace_count, b.raw_trace_count, "raw trace count");
        assert_eq!(a.results.len(), b.results.len());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.targets_probed, rb.targets_probed, "AS#{} targets", ra.id);
            assert_eq!(ra.discovered, rb.discovered, "AS#{} discovered set", ra.id);
            let flags = |r: &AsResult| {
                let mut flags: Vec<Flag> = r.all_segments().map(|s| s.flag).collect();
                flags.sort_unstable();
                flags
            };
            assert_eq!(flags(ra), flags(rb), "AS#{} flag multiset", ra.id);
            assert_eq!(ra, rb, "AS#{} full result", ra.id);
        }
        assert_eq!(a.per_vp_discovered, b.per_vp_discovered, "per-VP discovery");
        assert_eq!(a.fingerprints, b.fingerprints, "fingerprint map");
    }

    #[test]
    fn parallel_build_matches_single_worker_quick_config() {
        let mut config = PipelineConfig::quick();
        config.workers = Some(1);
        let serial = Dataset::build(config);
        config.workers = Some(4);
        let parallel = Dataset::build(config);
        assert_result_identical(&serial, &parallel);
    }

    #[test]
    fn parallel_build_matches_staged_pipeline_quick_config() {
        // The tentpole's identity guarantee: the streaming dataflow
        // reproduces the staged five-barrier build bit for bit, at
        // any worker count.
        let mut config = PipelineConfig::quick();
        config.workers = Some(1);
        let staged = Dataset::build_staged(config);
        let streaming_serial = Dataset::build(config);
        assert_result_identical(&staged, &streaming_serial);
        config.workers = Some(4);
        let streaming_parallel = Dataset::build(config);
        assert_result_identical(&staged, &streaming_parallel);
    }

    #[test]
    fn sliced_build_probes_only_selected_ases() {
        // A slice schedules just the selected catalog prefix; the
        // selected ASes' results are identical to a full build's
        // (their traces only cross VP gateways, providers, and their
        // own plane — all still deployed), and unselected slots are
        // empty placeholders.
        let full = Dataset::build(PipelineConfig::quick());
        let mut config = PipelineConfig::quick();
        config.reprobe = SliceSpec::Percent(10);
        let mask = config.slice_mask().expect("10% slice has a mask");
        assert_eq!(mask.iter().filter(|&&m| m).count(), 6, "10% of 60 ASes");
        let sliced = Dataset::build(config);
        assert_eq!(sliced.results.len(), full.results.len());
        let mut selected_raw = 0;
        for (idx, (rs, rf)) in sliced.results.iter().zip(&full.results).enumerate() {
            if mask[idx] {
                assert_eq!(rs, rf, "selected AS#{} must match the full build", rf.id);
                selected_raw += rs.raw_traces;
            } else {
                assert_eq!(rs.targets_probed, 0, "unselected AS#{} probed", rf.id);
                assert_eq!(rs.raw_traces, 0);
                assert!(rs.restricted.is_empty() && rs.discovered.is_empty());
            }
        }
        assert_eq!(sliced.raw_trace_count, selected_raw);
        assert!(sliced.raw_trace_count < full.raw_trace_count);
    }

    #[test]
    fn slice_spec_parses_and_masks() {
        assert_eq!(SliceSpec::parse("all"), Ok(SliceSpec::Full));
        assert_eq!(SliceSpec::parse("25%"), Ok(SliceSpec::Percent(25)));
        assert_eq!(SliceSpec::parse("as174"), Ok(SliceSpec::Asn(174)));
        assert_eq!(SliceSpec::parse("3"), Ok(SliceSpec::First(3)));
        assert!(SliceSpec::parse("150%").is_err());
        assert!(SliceSpec::parse("bogus").is_err());
        let asns = [10, 20, 30, 40];
        assert_eq!(SliceSpec::Percent(50).mask(&asns), vec![true, true, false, false]);
        assert_eq!(SliceSpec::First(1).mask(&asns), vec![true, false, false, false]);
        assert_eq!(SliceSpec::Asn(30).mask(&asns), vec![false, false, true, false]);
        assert_eq!(SliceSpec::Percent(0).mask(&asns), vec![false; 4]);
    }

    #[test]
    fn empty_vp_catalog_streams_empty_results() {
        // No vantage points → every AS admits a bare tail over zero
        // traces, and the build still yields one empty result per AS.
        let mut config = PipelineConfig::quick();
        config.gen.vp_count = 0;
        config.workers = Some(2);
        let ds = Dataset::build(config);
        assert_eq!(ds.results.len(), 60);
        assert_eq!(ds.raw_trace_count, 0);
        assert!(ds.fingerprints.is_empty());
        assert!(ds.per_vp_discovered.is_empty());
        for result in &ds.results {
            assert!(result.restricted.is_empty());
            assert!(result.augmented.is_empty());
            assert!(result.segments.is_empty());
            assert!(result.discovered.is_empty());
        }
    }

    #[test]
    fn parallel_build_matches_single_worker_default_shape() {
        // The default config at a trimmed generator scale: default
        // detector, default per-AS target cap, fewer VPs so the
        // double build stays test-sized. Checked in depth on the
        // largest AS (#58, Arelion).
        let mut config = PipelineConfig::default();
        config.gen.scale = 0.02;
        config.gen.vp_count = 6;
        config.workers = Some(1);
        let serial = Dataset::build(config);
        config.workers = Some(4);
        let parallel = Dataset::build(config);
        assert_result_identical(&serial, &parallel);
        let arelion = (serial.result(58).unwrap(), parallel.result(58).unwrap());
        assert!(!arelion.0.restricted.is_empty());
        assert_eq!(arelion.0.restricted, arelion.1.restricted);
        assert_eq!(arelion.0.augmented, arelion.1.augmented);
        assert_eq!(arelion.0.segments, arelion.1.segments);
    }

    #[test]
    fn streaming_callback_sees_every_as_and_residency_stays_bounded() {
        let mut config = PipelineConfig::quick();
        config.workers = Some(4);
        let mut seen: Vec<u8> = Vec::new();
        let (ds, stats) = Dataset::build_streaming(config, |result| {
            // A deliberately slow consumer: backpressure, not a
            // backlog, must absorb the difference in pace.
            std::thread::sleep(Duration::from_millis(1));
            seen.push(result.id);
        });
        assert_eq!(seen.len(), 60, "one callback per AS");
        let distinct: HashSet<u8> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), 60, "no AS streams twice");
        assert!(stats.peak_resident_traces > 0);
        assert!(
            stats.peak_resident_traces < ds.raw_trace_count,
            "streaming must never hold the whole catalog: peak {} vs total {}",
            stats.peak_resident_traces,
            ds.raw_trace_count
        );
    }

    #[test]
    fn build_with_stats_reports_stage_timings() {
        let (ds, stats) = Dataset::build_with_stats(PipelineConfig::quick());
        assert!(stats.workers >= 1);
        let phases = stats.stages();
        assert_eq!(phases.len(), 2, "streaming runs generate + stream");
        let summed: Duration = phases.iter().map(|(_, d)| *d).sum();
        assert!(summed <= stats.total, "phases are disjoint slices of the build");
        assert!(stats.timings.stream > Duration::ZERO, "the dataflow cannot be instantaneous");
        assert!(stats.peak_resident_traces <= ds.raw_trace_count);
    }
}
