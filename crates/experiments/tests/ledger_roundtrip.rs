//! Ledger round-trip determinism at pipeline scale.
//!
//! `parallel_build_matches_ledger_roundtrip` rides the CI determinism
//! gate (`cargo test … parallel_build_matches` at `AREST_WORKERS=1`
//! and `4`): a campaign committed to the ledger and loaded back must
//! serve byte-identical JSON to the snapshot flattened in memory,
//! whatever the worker count. The other tests pin the delta semantics:
//! same build twice → byte-identical payloads and an empty delta; a
//! different campaign → both announcements and withdrawals.

use arest_experiments::ledger_io::{commit_dataset, commit_incremental, snapshot};
use arest_experiments::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_ledger::{Ledger, HEADER_LEN};
use arest_serve::{render, Json, Store};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arest-ledger-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every JSON body the server derives from a store, concatenated: the
/// summary rollup, the status facts, each AS detail, and each address
/// detail.
fn all_bodies(store: &Store) -> String {
    let mut out = render::summary_json(store).render();
    out.push_str(&render::status_json(store, 2, Json::Null).render());
    for record in &store.snapshot().ases {
        out.push_str(&render::as_json(record).render());
    }
    for entry in &store.snapshot().addrs {
        out.push_str(&render::addr_json(store, entry).render());
    }
    out
}

#[test]
fn parallel_build_matches_ledger_roundtrip() {
    let config = PipelineConfig::quick();
    let dataset = Dataset::build(config);
    let snapshot = snapshot(&dataset);

    let dir = scratch_dir("determinism");
    let ledger = Ledger::open(&dir).expect("open ledger");
    let receipt = commit_dataset(&ledger, &dataset, &config, 1_750_000_000).expect("commit");
    let run = ledger.load(receipt.serial).expect("load committed run");
    assert_eq!(run.meta.payload_digest, receipt.payload_digest);

    // The snapshot round-trips exactly…
    assert_eq!(snapshot, run.snapshot);
    // …so the store over the loaded run serves byte-identical bodies to
    // the store over the snapshot flattened in memory.
    let fresh = Store::from(snapshot);
    let reloaded = Store::from(run.snapshot);
    assert_eq!(all_bodies(&fresh), all_bodies(&reloaded));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The flattening keeps the dataset's shape: one AS row per result,
/// one address row per discovered address, the run-wide counts, and a
/// full provenance chain on every address a detected segment covers.
#[test]
fn snapshot_mirrors_the_dataset_shape() {
    let dataset = Dataset::build(PipelineConfig::quick());
    let store = Store::from(snapshot(&dataset));
    let totals = store.totals();
    assert_eq!(store.snapshot().ases.len(), dataset.results.len());
    assert_eq!(totals.raw_traces, dataset.raw_trace_count as u64);
    assert_eq!(totals.vantage_points, dataset.per_vp_discovered.len() as u64);
    let addresses: std::collections::HashSet<_> =
        dataset.results.iter().flat_map(|r| r.discovered.iter().copied()).collect();
    assert_eq!(totals.addresses, addresses.len() as u64);
    for record in &store.snapshot().ases {
        assert_eq!(store.by_asn(record.asn).expect("asn lookup").id, record.id);
    }
    assert!(totals.flags.total() > 0, "the quick dataset detects something");
    for result in &dataset.results {
        for (trace, segments) in result.detections() {
            for segment in segments {
                for addr in trace.hops[segment.start..=segment.end].iter().filter_map(|h| h.addr) {
                    let entry = store.addr(addr).expect("covered addr has a row");
                    assert!(
                        entry
                            .detections
                            .iter()
                            .any(|d| d.provenance.chain.starts_with("trigger_hop=")),
                        "detection on {addr} lost its chain"
                    );
                }
            }
        }
    }
}

#[test]
fn committing_the_same_build_twice_yields_identical_payloads_and_an_empty_delta() {
    let config = PipelineConfig::quick();
    let dataset = Dataset::build(config);

    let dir = scratch_dir("twice");
    let ledger = Ledger::open(&dir).expect("open ledger");
    // Different wall-clock stamps on purpose: identity is content, not
    // commit time.
    let first = commit_dataset(&ledger, &dataset, &config, 1_750_000_000).expect("commit 1");
    let second = commit_dataset(&ledger, &dataset, &config, 1_750_009_999).expect("commit 2");
    assert_eq!(first.payload_digest, second.payload_digest);

    // Byte-verified beyond the header (the header differs by design:
    // serial and timestamp live there, outside the content identity).
    let bytes_a = std::fs::read(ledger.path_of(first.serial)).expect("read run 1");
    let bytes_b = std::fs::read(ledger.path_of(second.serial)).expect("read run 2");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);

    let delta = ledger.diff(first.serial, second.serial).expect("diff");
    assert!(delta.is_empty(), "identical builds must produce an empty delta");
    assert!(delta.per_as.is_empty());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Payload digest of the quick campaign. It pins the streaming build's
/// output across refactors: a change to it is a change to what the
/// pipeline measures, and must be made by hand with its reason given.
const QUICK_PAYLOAD_DIGEST: u64 = 0xdcdb_ddaa_d32b_3fee;

#[test]
fn parallel_build_matches_golden_payload_digest() {
    for workers in [1, 4] {
        let mut config = PipelineConfig::quick();
        config.workers = Some(workers);
        let dir = scratch_dir(&format!("golden-{workers}"));
        let ledger = Ledger::open(&dir).expect("open ledger");
        let receipt = commit_dataset(&ledger, &Dataset::build(config), &config, 1_750_000_000)
            .expect("commit");
        assert_eq!(
            receipt.payload_digest, QUICK_PAYLOAD_DIGEST,
            "payload digest {:016x} at {workers} worker(s)",
            receipt.payload_digest
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Commits a full quick campaign as the base run, then re-probes the
/// given slice against it, returning the ledger plus both commits.
fn base_then_slice(
    tag: &str,
    slice: SliceSpec,
) -> (Ledger, PathBuf, arest_ledger::CommitReceipt, arest_experiments::ledger_io::IncrementalCommit)
{
    let config = PipelineConfig::quick();
    let dir = scratch_dir(tag);
    let ledger = Ledger::open(&dir).expect("open ledger");
    let full = Dataset::build(config);
    let base = commit_dataset(&ledger, &full, &config, 1_750_000_000).expect("commit base");

    let mut sliced = config;
    sliced.reprobe = slice;
    sliced.base_serial = Some(base.serial);
    let seed = ledger.load_aux(base.serial).expect("load aux").expect("base has a sidecar");
    let (dataset, _) = Dataset::build_streaming_seeded(sliced, &seed.cache, |_| {});
    let merged =
        commit_incremental(&ledger, &dataset, &sliced, 1_750_000_500).expect("incremental commit");
    (ledger, dir, base, merged)
}

/// The tentpole identity: a 100%-slice incremental run must produce a
/// payload byte-identical to a from-scratch full rebuild — the merge
/// path adds nothing and loses nothing.
#[test]
fn parallel_build_matches_a_full_slice_incremental_rebuild() {
    let (ledger, dir, base, merged) = base_then_slice("full-slice", SliceSpec::Percent(100));
    assert_eq!(merged.fresh.len(), 60, "a 100% slice re-probes every catalog AS");
    assert!(merged.carried.is_empty());
    assert_eq!(merged.receipt.payload_digest, base.payload_digest);

    let bytes_a = std::fs::read(ledger.path_of(base.serial)).expect("read base");
    let bytes_b = std::fs::read(ledger.path_of(merged.receipt.serial)).expect("read merged");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A 0% slice probes nothing: the commit is pure carry-forward and
/// must reproduce the base payload byte for byte, with an empty delta.
#[test]
fn parallel_build_matches_the_base_under_a_pure_carry_forward() {
    let (ledger, dir, base, merged) = base_then_slice("zero-slice", SliceSpec::Percent(0));
    assert!(merged.fresh.is_empty(), "a 0% slice re-probes nothing");
    assert_eq!(merged.carried.len(), 60);
    assert_eq!(merged.receipt.payload_digest, base.payload_digest);

    let bytes_a = std::fs::read(ledger.path_of(base.serial)).expect("read base");
    let bytes_b = std::fs::read(ledger.path_of(merged.receipt.serial)).expect("read merged");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);

    let delta = ledger.diff(base.serial, merged.receipt.serial).expect("diff");
    assert!(delta.is_empty(), "carry-forward must not invent or lose detections");
    assert!(delta.per_as.is_empty());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Carried ASes must never surface in the delta against the base: only
/// re-probed ASes may contribute per-AS rows. (With a deterministic
/// build the fresh AS reproduces its base results too, so the whole
/// delta is empty — the carried assertion is the load-bearing one.)
#[test]
fn parallel_build_matches_carried_ases_with_empty_deltas() {
    let (ledger, dir, base, merged) = base_then_slice("one-as", SliceSpec::Asn(15169));
    assert_eq!(merged.fresh, vec![15169]);
    assert_eq!(merged.carried.len(), 59);
    assert!(!merged.carried.contains(&15169));

    let delta = ledger.diff(base.serial, merged.receipt.serial).expect("diff");
    for row in &delta.per_as {
        assert!(
            !merged.carried.contains(&row.asn),
            "carried AS {} leaked into the delta against its own base",
            row.asn
        );
    }
    assert!(delta.is_empty(), "deterministic re-probe must change nothing");

    // The merged run's sidecar records its provenance, so it can serve
    // as the base of the *next* incremental run.
    let aux = ledger.load_aux(merged.receipt.serial).expect("load aux").expect("sidecar");
    assert_eq!(aux.base_serial, Some(base.serial));
    assert_eq!(aux.carried, merged.carried);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_different_campaign_announces_and_withdraws() {
    let base = PipelineConfig::quick();
    let mut other = base;
    other.gen.seed = base.gen.seed + 4;

    let dir = scratch_dir("differing");
    let ledger = Ledger::open(&dir).expect("open ledger");
    let a = commit_dataset(&ledger, &Dataset::build(base), &base, 1_750_000_000).expect("commit a");
    let b =
        commit_dataset(&ledger, &Dataset::build(other), &other, 1_750_000_001).expect("commit b");

    let delta = ledger.diff(a.serial, b.serial).expect("diff");
    assert!(!delta.is_empty());
    assert!(!delta.announced.is_empty(), "new seed should announce new detections");
    assert!(!delta.withdrawn.is_empty(), "new seed should withdraw old detections");
    assert_ne!(delta.from.config_digest, delta.to.config_digest);
    assert_eq!(delta.from.catalog_digest, delta.to.catalog_digest);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
