//! The campaign and refresh operations, driven through the public
//! entry points a user's campaign goes through: `Dataset::build`,
//! `ledger_io::commit_dataset`, the `--reprobe N% --base S` slice
//! re-probe (`Dataset::build_streaming_seeded` seeded from the base's
//! cache sidecar, `ledger_io::commit_incremental`, `Ledger::diff`) and
//! `ledger_watch::refresh` into a serving `StoreCell`.

use crate::spans::Spans;
use arest_experiments::ledger_io;
use arest_experiments::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_ledger::Ledger;
use arest_serve::{ledger_watch, Store, StoreCell, SummaryInfo};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Commit timestamp for every run the benchmark commits. Fixed, so the
/// served bodies of two serials differ only in their serial numbers.
pub const COMMITTED_UNIX: u64 = 1_760_000_000;

/// Payload digest of the default-scale campaign: the generator's
/// default configuration, seed 2025 included.
pub const GOLDEN_DIGEST: u64 = 0x138b_a06f_5063_4681;

/// The re-probed share of the catalog in a refresh, as in
/// `--reprobe 5%`.
pub const REFRESH_PERCENT: u8 = 5;

/// Operations attempted and failed: a wrong output or an error.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that produced a wrong output or an error.
    pub wrong: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            self.note(what());
        }
    }

    /// Counts one operation that failed with an error.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.wrong += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 16 {
            self.notes.push(what);
        }
    }
}

/// The pipeline configuration of the benchmark's Internet: the
/// generator's default configuration (or the unit-test one for
/// `quick`), its seed included, at a fixed worker count.
#[must_use]
pub fn pipeline_config(quick: bool, workers: usize) -> PipelineConfig {
    let mut config = if quick { PipelineConfig::quick() } else { PipelineConfig::default() };
    config.workers = Some(workers);
    config
}

/// A committed base run: the starting point of refreshes and serving.
#[derive(Debug)]
pub struct Base {
    /// Its pipeline configuration.
    pub config: PipelineConfig,
    /// The ledger it is committed to (serial 1).
    pub ledger: Ledger,
    /// Payload digest of serial 1.
    pub digest: u64,
    /// The digest every rebuild of this Internet must reproduce.
    pub expected: u64,
    /// A serving cell on the ledger's latest serial.
    pub cell: StoreCell,
}

/// An empty store: what a cell holds before its first ledger refresh.
#[must_use]
pub fn empty_store() -> Arc<Store> {
    Arc::new(Store::new(Vec::new(), Vec::new(), SummaryInfo::default()))
}

/// (Re)creates an empty directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// One timed campaign: a full build, committed into a fresh ledger.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSample {
    /// Wall time of `Dataset::build`.
    pub build: Duration,
    /// Wall time of `commit_dataset`.
    pub commit: Duration,
    /// The committed payload digest.
    pub digest: u64,
    /// Raw traces the campaign collected.
    pub traces: usize,
    /// Bytes of the committed snapshot.
    pub bytes: u64,
}

/// Runs one campaign: `Dataset::build`, then `commit_dataset` into a
/// fresh ledger at `dir`, which is returned open.
fn build_and_commit(
    config: &PipelineConfig,
    dir: &Path,
    spans: &mut Spans,
) -> Result<(CampaignSample, Ledger), String> {
    fresh_dir(dir)?;
    let ledger = Ledger::open(dir).map_err(|e| format!("open ledger: {e}"))?;
    let (dataset, build) = spans.time("pipeline.build", |_| Dataset::build(*config));
    let (receipt, commit) = spans.time("ledger_io.commit_dataset", |_| {
        ledger_io::commit_dataset(&ledger, &dataset, config, COMMITTED_UNIX)
    });
    let traces = dataset.raw_trace_count;
    drop(dataset);
    let receipt = receipt.map_err(|e| format!("commit: {e}"))?;
    let sample = CampaignSample {
        build,
        commit,
        digest: receipt.payload_digest,
        traces,
        bytes: receipt.bytes,
    };
    Ok((sample, ledger))
}

/// Builds and commits one base run into a fresh ledger at `dir`, then
/// swaps it into a fresh serving cell. The build and commit are a
/// campaign like any other and are returned as one.
pub fn set_up_base(
    config: PipelineConfig,
    expected: Option<u64>,
    dir: &Path,
    spans: &mut Spans,
) -> Result<(Base, CampaignSample), String> {
    let (sample, ledger) = build_and_commit(&config, dir, spans)?;
    let cell = StoreCell::bare(empty_store());
    let (swapped, _) =
        spans.time("serve.ledger_refresh", |_| ledger_watch::refresh(&cell, &ledger));
    match swapped {
        Ok(Some(1)) => {}
        other => return Err(format!("base swap-in returned {other:?}")),
    }
    let expected = expected.unwrap_or(sample.digest);
    Ok((Base { config, ledger, digest: sample.digest, expected, cell }, sample))
}

/// Runs one campaign of `base`'s Internet, committing into a fresh
/// ledger at `dir` (removed afterwards).
pub fn campaign(base: &Base, dir: &Path, spans: &mut Spans) -> Result<CampaignSample, String> {
    let result = build_and_commit(&base.config, dir, spans);
    let _ = std::fs::remove_dir_all(dir);
    result.map(|(sample, _)| sample)
}

/// One timed refresh of a base run.
#[derive(Debug, Clone, Copy)]
pub struct RefreshSample {
    /// Sidecar load + slice build + `commit_incremental` + `diff`.
    pub refresh: Duration,
    /// The slice build alone.
    pub slice_build: Duration,
    /// `commit_incremental` alone.
    pub commit_incremental: Duration,
    /// The merged run's serial.
    pub serial: u64,
}

/// ASes a `REFRESH_PERCENT` slice of an `n`-AS catalog re-probes.
fn slice_size(n: usize) -> usize {
    (n * usize::from(REFRESH_PERCENT)).div_ceil(100)
}

/// Re-probes a 5% slice of `base` against its serial 1, merges and
/// commits it, and reports the delta, as `--reprobe 5% --base 1` does.
/// Counts one operation: the merged payload must equal the base's, the
/// delta must be empty, and the slice must hold the expected ASes.
pub fn refresh(base: &Base, spans: &mut Spans, tally: &mut Tally) -> Option<RefreshSample> {
    let (outcome, refresh) = spans.time("refresh", |spans| -> Result<_, String> {
        let (aux, _) = spans.time("ledger.load_aux", |_| base.ledger.load_aux(1));
        let cache = aux.map_err(|e| format!("load aux: {e}"))?.map(|aux| aux.cache);
        let cache = cache.ok_or("base run has no cache sidecar")?;
        let mut sliced = base.config;
        sliced.reprobe = SliceSpec::Percent(REFRESH_PERCENT);
        sliced.base_serial = Some(1);
        let ((dataset, _), slice_build) = spans.time("pipeline.build_streaming_seeded", |_| {
            Dataset::build_streaming_seeded(sliced, &cache, |_| {})
        });
        let (merged, commit_incremental) = spans.time("ledger_io.commit_incremental", |_| {
            ledger_io::commit_incremental(&base.ledger, &dataset, &sliced, COMMITTED_UNIX)
        });
        let merged = merged.map_err(|e| format!("commit_incremental: {e}"))?;
        let (delta, _) = spans.time("ledger.diff", |_| base.ledger.diff(1, merged.receipt.serial));
        let delta = delta.map_err(|e| format!("diff: {e}"))?;
        Ok((dataset, merged, delta, slice_build, commit_incremental))
    });
    let (dataset, merged, delta, slice_build, commit_incremental) = match outcome {
        Ok(parts) => parts,
        Err(e) => {
            tally.error(format!("refresh: {e}"));
            return None;
        }
    };
    let catalog = dataset.results.len();
    drop(dataset);
    tally.check(
        merged.receipt.payload_digest == base.digest
            && delta.is_empty()
            && merged.fresh.len() == slice_size(catalog),
        || {
            format!(
                "refresh of serial 1: merged digest {:016x} (base {:016x}), {} announced, \
                 {} withdrawn, {} changed, {} fresh",
                merged.receipt.payload_digest,
                base.digest,
                delta.announced.len(),
                delta.withdrawn.len(),
                delta.changed.len(),
                merged.fresh.len()
            )
        },
    );
    Some(RefreshSample { refresh, slice_build, commit_incremental, serial: merged.receipt.serial })
}

/// Swaps `serial`, just committed, into `base`'s serving cell with
/// `ledger_watch::refresh`, and returns how long it took. Counts one
/// operation: the cell must end up serving `serial`.
pub fn swap(base: &Base, serial: u64, spans: &mut Spans, tally: &mut Tally) -> Duration {
    let (swapped, took) =
        spans.time("serve.ledger_refresh", |_| ledger_watch::refresh(&base.cell, &base.ledger));
    tally.check(matches!(swapped, Ok(Some(s)) if s == serial), || {
        format!("swap of serial {serial} returned {swapped:?}")
    });
    took
}

/// A fresh working directory for one run's ledgers under `out_dir`,
/// unique to this process and run.
#[must_use]
pub fn state_dir(out_dir: &Path) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    out_dir.join(format!("state-{}-{run}", std::process::id()))
}
