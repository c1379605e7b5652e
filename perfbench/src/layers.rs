//! The traced campaign replay: the build's layers called one after
//! another through the crates' public functions, at the build's worker
//! count, each inside a benchmark span, with the program's own counters
//! read as registry-snapshot deltas around each call.
//!
//! generate_probed → build_target_list → run_campaigns →
//! collect_addrs + fingerprint_addresses → AliasResolver →
//! annotate/restrict → augment → detect_segments

use crate::spans::Spans;
use arest_core::detect::detect_segments;
use arest_core::model::AugmentedTrace;
use arest_experiments::pipeline::{augment, PipelineConfig};
use arest_fingerprint::combined::fingerprint_addresses;
use arest_fingerprint::snmp::SnmpDataset;
use arest_mapping::alias::{AliasResolver, IpIdOracle};
use arest_mapping::anaximander::{build_target_list, AnaximanderConfig};
use arest_mapping::bdrmap::AsAnnotator;
use arest_mapping::bgp::{BgpRoute, BgpView};
use arest_netgen::internet::generate_probed;
use arest_obs::Snapshot;
use arest_tnt::campaign::{run_campaigns, CampaignConfig, VantagePoint};
use arest_tnt::pool;
use arest_tnt::trace::{collect_addrs, Trace};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Addresses per fingerprint work unit.
const FINGERPRINT_BATCH: usize = 256;

/// What the replay measured, plus the totals the build must agree with.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer metrics as `(name, value, unit)`, in layer order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sum of the timed layer calls, in seconds.
    pub layer_total_s: f64,
    /// Raw traces the campaigns returned.
    pub traces: usize,
    /// Segments the detector found.
    pub segments: usize,
}

/// Counter delta between two registry snapshots.
fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Runs `f` in a span named `name`, records its seconds under `metric`
/// and returns its value with the counter snapshots around it.
fn layer<R>(
    spans: &mut Spans,
    replay: &mut Replay,
    name: &str,
    metric: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Snapshot, Snapshot) {
    let registry = arest_obs::global();
    let before = registry.snapshot();
    let (value, took) = spans.time(name, |_| f());
    let after = registry.snapshot();
    replay.metrics.push((metric, took.as_secs_f64(), "s"));
    replay.layer_total_s += took.as_secs_f64();
    (value, before, after)
}

/// Replays one default-scale campaign layer by layer.
pub fn replay(config: &PipelineConfig, workers: usize, spans: &mut Spans) -> Replay {
    let mut r = Replay::default();
    let catalog = arest_netgen::catalog::CATALOG.len() * config.gen.catalog_scale.max(1);

    // netgen: the topology alone (no AS probed, so no planes), then the
    // full generation; planes are the difference.
    let no_planes = vec![false; catalog];
    let (topology, topology_took) = spans.time("netgen.generate_probed.topology", |_| {
        generate_probed(&config.gen, Some(&no_planes))
    });
    drop(topology);
    let (internet, generate_took) =
        spans.time("netgen.generate_probed", |_| generate_probed(&config.gen, None));
    r.layer_total_s += generate_took.as_secs_f64();
    let generate_s = generate_took.as_secs_f64();
    r.metrics.extend([
        ("netgen.topology_s", topology_took.as_secs_f64(), "s"),
        ("netgen.planes_s", generate_s - topology_took.as_secs_f64(), "s"),
        ("netgen.routers", internet.net.topo().router_count() as f64, "count"),
    ]);

    // mapping: Anaximander target lists from the BGP view.
    let view: BgpView = internet
        .routes
        .iter()
        .map(|route| BgpRoute {
            prefix: route.prefix,
            origin: route.origin,
            path: route.path.clone(),
        })
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
    let (target_lists, _, _) =
        layer(spans, &mut r, "mapping.build_target_list", "mapping.targets_s", || {
            pool::run_indexed(plans, workers, &|_, plan| build_target_list(&view, plan.asn, &anax))
        });

    // tnt + simnet: every (AS, VP) campaign.
    let (raw, before, after) = layer(spans, &mut r, "tnt.run_campaigns", "tnt.probe_s", || {
        run_campaigns(&internet.net, &vps, &target_lists, &CampaignConfig::default(), workers)
    });
    r.traces = raw.iter().map(Vec::len).sum();
    let hops: usize = raw.iter().flatten().map(|t| t.hops.len()).sum();
    let probes = delta(&before, &after, "simnet.probes");
    let forwarded = delta(&before, &after, "simnet.forwarded_hops");
    r.metrics.extend([
        ("tnt.traces", r.traces as f64, "count"),
        ("tnt.hops", hops as f64, "count"),
        ("simnet.probes", probes, "count"),
        ("simnet.forwarded_hops", forwarded, "count"),
        ("simnet.hops_per_probe", forwarded / probes.max(1.0), "ratio"),
        ("tnt.hop_yield", hops as f64 / forwarded.max(1.0), "ratio"),
        ("tnt.reveal.attempts", delta(&before, &after, "tnt.reveal.attempts"), "count"),
    ]);

    // fingerprint: address collection, then SNMPv3 + TTL evidence.
    let ((snmp, addrs, te_ttls), _, _) =
        layer(spans, &mut r, "fingerprint.collect_addrs", "fingerprint.collect_s", || {
            let snmp = SnmpDataset::harvest(&internet.net);
            let (addrs, te_ttls) = collect_addrs(raw.iter().flatten());
            (snmp, addrs, te_ttls)
        });
    let (fingerprints, _, _) =
        layer(spans, &mut r, "fingerprint.fingerprint_addresses", "fingerprint.evidence_s", || {
            let batches: Vec<&[Ipv4Addr]> = addrs.chunks(FINGERPRINT_BATCH).collect();
            let maps = pool::run_indexed(batches, workers, &|_, batch| {
                fingerprint_addresses(
                    &internet.net,
                    vps[0].gateway,
                    vps[0].addr,
                    batch,
                    &te_ttls,
                    &snmp,
                )
            });
            let mut all = HashMap::with_capacity(addrs.len());
            for map in maps {
                all.extend(map);
            }
            all
        });
    r.metrics.push(("fingerprint.addrs", addrs.len() as f64, "count"));
    r.metrics.push((
        "fingerprint.resolved_ratio",
        fingerprints.len() as f64 / addrs.len().max(1) as f64,
        "ratio",
    ));

    // mapping: APPLE candidates per AS, MIDAR resolution.
    let oracle = IpIdOracle::new(&internet.net);
    let (clusters, _, _) =
        layer(spans, &mut r, "mapping.alias_resolver", "mapping.alias_s", || {
            let mut resolver = AliasResolver::new();
            for traces in &raw {
                let paths: Vec<Vec<Ipv4Addr>> = traces
                    .iter()
                    .take(config.alias_paths_per_as)
                    .map(|t| t.responding_addrs().collect())
                    .collect();
                resolver.add_candidates(AliasResolver::candidates_from_paths(&paths));
            }
            resolver.resolve(&oracle, 5)
        });
    let cluster_count = clusters.values().collect::<HashSet<_>>().len();
    r.metrics.push(("mapping.alias_clusters", cluster_count as f64, "count"));

    // mapping: annotate and restrict each trace to its AS's span.
    let plan_asns: Vec<_> = internet.plans.iter().map(|p| p.asn).collect();
    let (restricted, _, _) = layer(spans, &mut r, "mapping.restrict", "mapping.restrict_s", || {
        let mut annotator = AsAnnotator::new(internet.ownership.iter().copied());
        annotator.attach_aliases(clusters);
        let groups: Vec<(usize, Vec<Trace>)> = raw.into_iter().enumerate().collect();
        pool::run_indexed(groups, workers, &|_, (as_idx, traces)| -> Vec<Trace> {
            let asn = plan_asns[as_idx];
            traces
                .into_iter()
                .filter_map(|mut trace| {
                    let (first, last) =
                        annotator.intra_as_span(trace.hops.iter().map(|h| h.addr), asn)?;
                    trace.hops.truncate(last + 1);
                    trace.hops.drain(..first);
                    trace.hops.dedup_by(|b, a| a.addr.is_some() && a.addr == b.addr);
                    Some(trace)
                })
                .collect()
        })
    });

    // core: augmentation with fingerprints, then five-flag detection.
    let (augmented, _, _) = layer(spans, &mut r, "core.augment", "core.augment_s", || {
        pool::run_indexed(restricted, workers, &|_, traces: Vec<Trace>| -> Vec<AugmentedTrace> {
            traces.iter().map(|t| augment(t, &fingerprints)).collect()
        })
    });
    let (segments, _, _) = layer(spans, &mut r, "core.detect_segments", "core.detect_s", || {
        pool::run_indexed(augmented, workers, &|_, traces: Vec<AugmentedTrace>| -> usize {
            traces.iter().map(|t| detect_segments(t, &config.detector).len()).sum()
        })
    });
    r.segments = segments.iter().sum();
    r.metrics.push(("core.segments", r.segments as f64, "count"));
    r
}
