//! Committing completed campaigns to an `arest-ledger` directory.
//!
//! The ledger stores plain snapshot rows; this module is the glue
//! that flattens a built [`Dataset`] through the serving store
//! (`serve_store::build`, the one canonical flattening) into a
//! [`RunSnapshot`] and commits it, stamped
//! with digests of the pipeline configuration and the AS catalog so
//! `arest-experiments diff` can tell "the Internet changed" from "the
//! campaign changed".
//!
//! Two commit paths exist. [`commit_dataset`] persists a full run
//! plus its carry-forward sidecar (per-AS raw trace counts and the
//! fingerprint cache's entries). [`commit_incremental`] merges a
//! sliced re-probe against a base serial: re-probed ASes contribute
//! fresh records, everything else is carried forward byte-for-byte
//! from the base snapshot, and the merged totals are recomputed from
//! the merged rows. The payload stays content-addressed — a
//! 100%-slice incremental commit produces a byte-identical payload
//! digest to a full rebuild, and a 0%-slice commit reproduces the
//! base payload exactly.

use crate::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_ledger::snapshot::{AddrEntry, FlagTotals, RunSnapshot, RunTotals};
use arest_ledger::{
    fnv64, AuxRecord, CommitOptions, CommitReceipt, Ledger, LedgerError, LedgerResult,
};
use arest_serve::ledger_bridge::snapshot_from_store;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// Digest of the full pipeline configuration (every knob that shapes
/// the campaign, via its `Debug` rendering — the config is a plain
/// `Copy` struct whose `Debug` output is total).
///
/// The slice selector, base serial and worker count are reset before
/// digesting: they choose *how much of* a campaign to recompute, or
/// how many threads compute it, not what the campaign is. Results are
/// identical at any worker count, so a full run and any slice re-probe
/// of it share one digest — the compatibility check an incremental
/// merge enforces.
#[must_use]
pub fn config_digest(config: &PipelineConfig) -> u64 {
    let mut canonical = *config;
    canonical.reprobe = SliceSpec::Full;
    canonical.base_serial = None;
    canonical.workers = None;
    fnv64(format!("{canonical:?}").as_bytes())
}

/// Digest of the built-in 60-AS catalog the campaign measured.
/// Changes when any profile (name, type, adoption, vendor mix)
/// changes, so two runs over different catalogs never silently diff.
#[must_use]
pub fn catalog_digest() -> u64 {
    let mut rendered = String::new();
    for profile in &arest_netgen::catalog::CATALOG {
        rendered.push_str(&format!("{profile:?}\n"));
    }
    fnv64(rendered.as_bytes())
}

/// What an incremental commit merged, alongside the plain receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalCommit {
    /// The ledger receipt for the merged snapshot.
    pub receipt: CommitReceipt,
    /// The serial the merge was computed against.
    pub base_serial: u64,
    /// ASNs re-probed in this run, catalog order.
    pub fresh: Vec<u32>,
    /// ASNs carried forward from the base, catalog order.
    pub carried: Vec<u32>,
}

/// Flattens `dataset` and commits it under the ledger's next serial,
/// alongside a carry-forward sidecar so the run can serve as the base
/// of a future slice re-probe. `committed_unix` is caller-supplied
/// (the CLI passes the wall clock, tests pass fixed values) so
/// commits stay reproducible.
pub fn commit_dataset(
    ledger: &Ledger,
    dataset: &Dataset,
    config: &PipelineConfig,
    committed_unix: u64,
) -> LedgerResult<CommitReceipt> {
    let store = crate::serve_store::build(dataset);
    let snapshot = snapshot_from_store(&store);
    let options = CommitOptions {
        committed_unix,
        config_digest: config_digest(config),
        catalog_digest: catalog_digest(),
    };
    let aux = AuxRecord {
        base_serial: None,
        carried: Vec::new(),
        raw_traces: dataset.results.iter().map(|r| (r.asn.0, r.raw_traces as u64)).collect(),
        cache: dataset.cache_entries.clone(),
    };
    ledger.commit_with_aux(&snapshot, &options, &aux)
}

/// Merges a sliced re-probe against `config.base_serial` and commits
/// the full merged snapshot: fresh records for the selected ASes,
/// base records carried forward for the rest, totals recomputed from
/// the merged rows. The base run must have been committed by
/// [`commit_dataset`] or [`commit_incremental`] (it needs a
/// carry-forward sidecar) under the same canonical configuration and
/// catalog.
pub fn commit_incremental(
    ledger: &Ledger,
    dataset: &Dataset,
    config: &PipelineConfig,
    committed_unix: u64,
) -> LedgerResult<IncrementalCommit> {
    let base_serial = config
        .base_serial
        .ok_or(LedgerError::Malformed("incremental commit requires a base serial"))?;
    let base = ledger.load(base_serial)?;
    let base_aux = ledger.load_aux(base_serial)?.ok_or(LedgerError::Malformed(
        "base serial has no carry-forward sidecar (committed by an older writer)",
    ))?;
    let options = CommitOptions {
        committed_unix,
        config_digest: config_digest(config),
        catalog_digest: catalog_digest(),
    };
    if base.meta.config_digest != options.config_digest {
        return Err(LedgerError::Malformed(
            "base run was committed under a different campaign configuration",
        ));
    }
    if base.meta.catalog_digest != options.catalog_digest {
        return Err(LedgerError::Malformed("base run measured a different AS catalog"));
    }

    let store = crate::serve_store::build(dataset);
    let fresh = snapshot_from_store(&store);
    if base.snapshot.ases.len() != fresh.ases.len() {
        return Err(LedgerError::Malformed("base run covers a different catalog size"));
    }
    let mask = config.slice_mask().unwrap_or_else(|| vec![true; fresh.ases.len()]);

    // Per-AS merge in catalog order: fresh where re-probed, the base
    // record byte-for-byte where carried.
    let mut ases = Vec::with_capacity(fresh.ases.len());
    let mut fresh_asns = Vec::new();
    let mut carried_asns = Vec::new();
    let mut raw_traces = Vec::with_capacity(fresh.ases.len());
    for (idx, (f, b)) in fresh.ases.iter().zip(&base.snapshot.ases).enumerate() {
        if mask[idx] {
            fresh_asns.push(f.asn);
            raw_traces.push((f.asn, dataset.results[idx].raw_traces as u64));
            ases.push(f.clone());
        } else {
            carried_asns.push(b.asn);
            raw_traces.push((b.asn, base_aux.raw_for(b.asn).unwrap_or(0)));
            ases.push(b.clone());
        }
    }

    // Address union, address-sorted like every committed snapshot:
    // carried ASes keep their base entries, fresh evidence wins any
    // collision.
    let carried_set: HashSet<u32> = carried_asns.iter().copied().collect();
    let mut merged_addrs: BTreeMap<Ipv4Addr, AddrEntry> = BTreeMap::new();
    for entry in &base.snapshot.addrs {
        if carried_set.contains(&entry.asn) {
            merged_addrs.insert(entry.addr, entry.clone());
        }
    }
    for entry in &fresh.addrs {
        merged_addrs.insert(entry.addr, entry.clone());
    }
    let addrs: Vec<AddrEntry> = merged_addrs.into_values().collect();

    let mut flags = FlagTotals::default();
    for a in &ases {
        flags.cvr += a.flags.cvr;
        flags.co += a.flags.co;
        flags.lsvr += a.flags.lsvr;
        flags.lvr += a.flags.lvr;
        flags.lso += a.flags.lso;
    }
    let totals = RunTotals {
        ases: ases.len() as u64,
        analyzed: ases.iter().filter(|a| a.analyzed).count() as u64,
        sr_deployed: ases.iter().filter(|a| a.flags.strong() > 0).count() as u64,
        addresses: addrs.len() as u64,
        fingerprinted: addrs.iter().filter(|a| a.fingerprint.is_some()).count() as u64,
        raw_traces: raw_traces.iter().map(|(_, raw)| raw).sum(),
        intra_as_traces: ases.iter().map(|a| a.traces).sum(),
        // A slice's fresh run only hears from the VPs its selected
        // ASes answered; the campaign-wide figure is the wider view.
        vantage_points: fresh.totals.vantage_points.max(base.snapshot.totals.vantage_points),
        flags,
    };
    let merged = RunSnapshot { ases, addrs, totals };

    let aux = AuxRecord {
        base_serial: Some(base_serial),
        carried: carried_asns.clone(),
        raw_traces,
        cache: dataset.cache_entries.clone(),
    };
    let receipt = ledger.commit_with_aux(&merged, &options, &aux)?;
    Ok(IncrementalCommit { receipt, base_serial, fresh: fresh_asns, carried: carried_asns })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_digest_tracks_the_knobs() {
        let base = PipelineConfig::quick();
        let mut tweaked = base;
        tweaked.gen.seed = base.gen.seed + 1;
        assert_ne!(config_digest(&base), config_digest(&tweaked));
        assert_eq!(config_digest(&base), config_digest(&base));
    }

    #[test]
    fn config_digest_ignores_the_slice_selector() {
        let base = PipelineConfig::quick();
        let mut sliced = base;
        sliced.reprobe = SliceSpec::Percent(5);
        sliced.base_serial = Some(7);
        assert_eq!(config_digest(&base), config_digest(&sliced));
    }

    #[test]
    fn config_digest_ignores_the_worker_count() {
        let mut two = PipelineConfig::quick();
        two.workers = Some(2);
        let mut four = two;
        four.workers = Some(4);
        assert_eq!(config_digest(&two), config_digest(&four));
        assert_eq!(config_digest(&two), config_digest(&PipelineConfig::quick()));
    }

    #[test]
    fn catalog_digest_is_stable() {
        assert_eq!(catalog_digest(), catalog_digest());
        assert_ne!(catalog_digest(), 0);
    }
}
