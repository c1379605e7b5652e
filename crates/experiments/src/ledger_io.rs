//! The pipeline side of the run ledger: flattening a built
//! [`Dataset`] into the workspace's one run record, and committing it.
//!
//! [`snapshot`] is the one `Dataset → RunSnapshot` flattening. The
//! ledger commits its rows and the HTTP daemon serves them
//! (`arest_serve::Store` owns a snapshot), so a campaign is flattened
//! exactly once. Everything is assembled in catalog order from
//! deterministic inputs, so for a fixed [`PipelineConfig`] the
//! snapshot — and therefore its payload digest and every JSON body the
//! daemon serves — is byte-identical across runs and worker counts.
//! Commits are stamped with digests of the pipeline configuration and
//! the AS catalog so `arest-experiments diff` can tell "the Internet
//! changed" from "the campaign changed".
//!
//! Two commit paths exist. [`commit_dataset`] persists a full run
//! plus its carry-forward sidecar (per-AS raw trace counts and the
//! fingerprint cache's entries); [`commit_record`] does the same for a
//! caller that has flattened the dataset already, such as the daemon
//! that serves the record it commits. [`commit_incremental`] merges a
//! sliced re-probe against a base serial: re-probed ASes contribute
//! fresh records, everything else is carried forward byte-for-byte
//! from the base snapshot, and the merged totals are recomputed from
//! the merged rows. The payload stays content-addressed — a
//! 100%-slice incremental commit produces a byte-identical payload
//! digest to a full rebuild, and a 0%-slice commit reproduces the
//! base payload exactly.

use crate::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_core::Flag;
use arest_fingerprint::combined::FingerprintSource;
use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_ledger::{
    fnv64, AuxRecord, CommitOptions, CommitReceipt, Ledger, LedgerError, LedgerResult,
};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// Flattens a completed dataset into its run record: one AS row per
/// catalog entry, one address row per discovered address (the first
/// AS in catalog order to discover it owns it), each detection
/// attached to every address its segment covers, and the totals
/// derived from those rows.
#[must_use]
pub fn snapshot(dataset: &Dataset) -> RunSnapshot {
    let mut ases = Vec::with_capacity(dataset.results.len());
    let mut addrs: BTreeMap<Ipv4Addr, AddrEntry> = BTreeMap::new();
    for result in &dataset.results {
        let asn = result.asn.0;
        for &addr in &result.discovered {
            addrs.entry(addr).or_insert_with(|| {
                let evidence = dataset.fingerprints.get(&addr);
                AddrEntry {
                    addr,
                    asn,
                    fingerprint: evidence.map(|(vendor, _)| vendor.to_string()),
                    fingerprint_source: evidence.map(|(_, source)| match source {
                        FingerprintSource::Ttl => "ttl".to_string(),
                        FingerprintSource::Snmp => "snmp".to_string(),
                    }),
                    detections: Vec::new(),
                }
            });
        }
        let mut flags = FlagTotals::default();
        for segment in result.all_segments() {
            match segment.flag {
                Flag::Cvr => flags.cvr += 1,
                Flag::Co => flags.co += 1,
                Flag::Lsvr => flags.lsvr += 1,
                Flag::Lvr => flags.lvr += 1,
                Flag::Lso => flags.lso += 1,
            }
        }
        let profile = arest_netgen::catalog::by_id(result.id);
        ases.push(AsRecord {
            id: result.id,
            asn,
            name: profile.map_or("unknown", |p| p.name).to_string(),
            astype: profile.map_or_else(|| "unknown".to_string(), |p| p.astype.to_string()),
            confirmation: match profile.map(|p| p.confirmation) {
                Some(arest_netgen::Confirmation::Cisco) => "cisco",
                Some(arest_netgen::Confirmation::Survey) => "survey",
                Some(arest_netgen::Confirmation::None) | None => "none",
            }
            .to_string(),
            analyzed: profile.is_some_and(arest_netgen::AsProfile::analyzed),
            targets_probed: result.targets_probed as u64,
            traces: result.restricted.len() as u64,
            addresses: result.discovered.len() as u64,
            fingerprinted: result
                .discovered
                .iter()
                .filter(|addr| dataset.fingerprints.contains_key(addr))
                .count() as u64,
            flags,
        });
    }
    // Detections attach after every address row exists, walking traces
    // and segments in stored (deterministic) order, so each address's
    // detection list is reproducible.
    for result in &dataset.results {
        for (trace, segments) in result.detections() {
            for segment in segments {
                let p = &segment.provenance;
                let detection = DetectionRecord {
                    asn: result.asn.0,
                    vp: trace.vp.to_string(),
                    dst: trace.dst.to_string(),
                    flag: segment.flag.to_string(),
                    stars: segment.flag.signal_strength(),
                    start: segment.start as u64,
                    end: segment.end as u64,
                    label: segment.label.value(),
                    suffix_based: segment.suffix_based,
                    provenance: ProvenanceRecord {
                        trigger_hop: p.trigger_hop as u64,
                        run_len: p.run_len as u64,
                        distinct_addrs: p.distinct_addrs as u64,
                        lses_consulted: p.lses_consulted as u64,
                        effective_depth: p.effective_depth as u64,
                        fingerprint: p.fingerprint.map(|e| e.to_string()),
                        label_in_vendor_range: p.label_in_vendor_range,
                        suffix_matched: p.suffix_matched,
                        chain: p.chain(),
                    },
                };
                for hop in &trace.hops[segment.start..=segment.end] {
                    if let Some(entry) = hop.addr.and_then(|addr| addrs.get_mut(&addr)) {
                        entry.detections.push(detection.clone());
                    }
                }
            }
        }
    }
    let addrs: Vec<AddrEntry> = addrs.into_values().collect();
    let totals = RunTotals::from_rows(
        &ases,
        &addrs,
        dataset.raw_trace_count as u64,
        dataset.per_vp_discovered.len() as u64,
    );
    RunSnapshot { ases, addrs, totals }
}

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
    commit_record(ledger, &snapshot(dataset), dataset, config, committed_unix)
}

/// [`commit_dataset`] for a caller that already holds the dataset's
/// run record (`record == snapshot(dataset)`), e.g. to serve it as
/// well: commits it without flattening again.
pub fn commit_record(
    ledger: &Ledger,
    record: &RunSnapshot,
    dataset: &Dataset,
    config: &PipelineConfig,
    committed_unix: u64,
) -> LedgerResult<CommitReceipt> {
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
    ledger.commit_with_aux(record, &options, &aux)
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

    let fresh = snapshot(dataset);
    if base.snapshot.ases.len() != fresh.ases.len() {
        return Err(LedgerError::Malformed("base run covers a different catalog size"));
    }
    let mask = config.slice_mask().unwrap_or_else(|| vec![true; fresh.ases.len()]);
    // A slice's fresh run only hears from the VPs its selected ASes
    // answered; the campaign-wide figure is the wider view.
    let vantage_points = fresh.totals.vantage_points.max(base.snapshot.totals.vantage_points);

    // Per-AS merge in catalog order: fresh where re-probed, the base
    // record byte-for-byte where carried.
    let mut ases = Vec::with_capacity(fresh.ases.len());
    let mut fresh_asns = Vec::new();
    let mut carried_asns = Vec::new();
    let mut raw_traces = Vec::with_capacity(fresh.ases.len());
    for (idx, (f, b)) in fresh.ases.into_iter().zip(base.snapshot.ases).enumerate() {
        if mask[idx] {
            fresh_asns.push(f.asn);
            raw_traces.push((f.asn, dataset.results[idx].raw_traces as u64));
            ases.push(f);
        } else {
            carried_asns.push(b.asn);
            raw_traces.push((b.asn, base_aux.raw_for(b.asn).unwrap_or(0)));
            ases.push(b);
        }
    }

    // Address union, address-sorted like every committed snapshot:
    // carried ASes keep their base entries, fresh evidence wins any
    // collision.
    let carried_set: HashSet<u32> = carried_asns.iter().copied().collect();
    let mut merged_addrs: BTreeMap<Ipv4Addr, AddrEntry> = BTreeMap::new();
    for entry in base.snapshot.addrs {
        if carried_set.contains(&entry.asn) {
            merged_addrs.insert(entry.addr, entry);
        }
    }
    for entry in fresh.addrs {
        merged_addrs.insert(entry.addr, entry);
    }
    let addrs: Vec<AddrEntry> = merged_addrs.into_values().collect();

    let raw_total = raw_traces.iter().map(|(_, raw)| raw).sum();
    let totals = RunTotals::from_rows(&ases, &addrs, raw_total, vantage_points);
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
