//! A shared, sharded, memoizing fingerprint cache.
//!
//! The staged pipeline fingerprinted every address in one global
//! barrier pass. The streaming pipeline instead asks for evidence the
//! moment an AS's campaign completes — many ASes, concurrently, often
//! for the *same* address (borders are shared). This cache makes that
//! cheap and deterministic:
//!
//! * **compute-once** — the expensive half of the TTL signature (the
//!   echo-reply probe) is memoized per address; the write lock is held
//!   across the probe, so two ASes racing on one address still probe
//!   the network exactly once. Probe counts — and therefore every
//!   `simnet`/`tnt` counter — stay schedule-independent.
//! * **lock-striped** — addresses hash across 16 independent `RwLock`
//!   shards, so unrelated misses don't serialize and hits take a
//!   shared (read) lock only.
//! * **pure evidence** — [`FingerprintCache::evidence`] combines the
//!   cached echo TTL with the caller's time-exceeded observation and
//!   the SNMPv3 dataset through the same fusion rule as
//!   [`crate::combined::fingerprint_addresses`], so a cached answer is
//!   identical to a freshly computed one.

use crate::combined::{ttl_evidence, FingerprintSource, VendorEvidence};
use crate::snmp::SnmpDataset;
use crate::ttl::ping_echo_ttl;
use arest_conc::sync::RwLock;
use arest_obs::Counter;
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// Number of lock stripes. Spreads concurrent misses from different
/// ASes across independent locks; 16 is ample for the pool's worker
/// counts.
const SHARDS: usize = 16;

/// Cache-specific handles into the global `arest-obs` registry (the
/// fusion outcome counters are shared with [`crate::combined`]).
struct Metrics {
    /// `fingerprint.cache.hits` — evidence requests answered from a
    /// memoized echo probe.
    hits: Counter,
    /// `fingerprint.cache.misses` — echo probes actually sent (one
    /// per distinct address, regardless of scheduling).
    misses: Counter,
    /// `fingerprint.cache.rehydrated` — entries carried in from a
    /// previous run's export (addresses that skip their echo probe
    /// entirely this run).
    rehydrated: Counter,
    /// `fingerprint.cache.stale` — carried entries dropped at
    /// rehydration: failed probes (no echo reply last run) are
    /// re-probed fresh, and addresses already memoized this run keep
    /// their fresh value.
    stale: Counter,
}

static METRICS: LazyLock<Metrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    Metrics {
        hits: registry.counter("fingerprint.cache.hits"),
        misses: registry.counter("fingerprint.cache.misses"),
        rehydrated: registry.counter("fingerprint.cache.rehydrated"),
        stale: registry.counter("fingerprint.cache.stale"),
    }
});

/// Outcome of a [`FingerprintCache::rehydrate`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehydrateStats {
    /// Entries installed (addresses that skip their echo probe).
    pub rehydrated: usize,
    /// Entries dropped (failed probes, or already memoized this run).
    pub stale: usize,
}

/// The shared fingerprint cache. Borrow it once per build (it pins the
/// network and the probing vantage point) and hand `&FingerprintCache`
/// to every worker.
pub struct FingerprintCache<'net> {
    net: &'net Network,
    entry: RouterId,
    src: Ipv4Addr,
    shards: Vec<RwLock<HashMap<Ipv4Addr, Option<u8>>>>,
}

impl<'net> FingerprintCache<'net> {
    /// Creates an empty cache probing through `entry` from `src` (the
    /// pipeline uses its first vantage point, as the staged
    /// fingerprint pass did).
    pub fn new(net: &'net Network, entry: RouterId, src: Ipv4Addr) -> FingerprintCache<'net> {
        // Force the counter statics now, while construction is still
        // single-threaded. A `LazyLock`'s one-time initialization
        // blocks every other contender on an OS futex, so first-touch
        // from racing workers would serialize them invisibly (and
        // wedge a model-check run, where the scheduler cannot see
        // that block).
        let _ = (&*METRICS, &*crate::combined::METRICS);
        FingerprintCache {
            net,
            entry,
            src,
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, addr: Ipv4Addr) -> &RwLock<HashMap<Ipv4Addr, Option<u8>>> {
        &self.shards[u32::from(addr) as usize % SHARDS]
    }

    /// The observed echo-reply TTL for `addr` (`None` when the address
    /// never answers), memoized: the first request probes the network,
    /// every later request — from any thread — reads the cached value.
    pub fn echo_ttl(&self, addr: Ipv4Addr) -> Option<u8> {
        let metrics = &*METRICS;
        let shard = self.shard(addr);
        if let Some(&ttl) = shard.read().expect("fingerprint shard lock").get(&addr) {
            metrics.hits.inc();
            return ttl;
        }
        let mut guard = shard.write().expect("fingerprint shard lock");
        if let Some(&ttl) = guard.get(&addr) {
            metrics.hits.inc();
            return ttl;
        }
        // Probe while holding the shard's write lock: a concurrent
        // requester for the same address blocks here instead of
        // probing twice, keeping probe counters deterministic.
        metrics.misses.inc();
        let ttl = ping_echo_ttl(self.net, self.entry, self.src, addr);
        guard.insert(addr, ttl);
        ttl
    }

    /// Full fusion evidence for one address: SNMPv3 exactness first
    /// (§5 precedence, no probe needed), then the TTL signature built
    /// from the memoized echo probe and the caller's time-exceeded
    /// reply TTL. Counts into the same `fingerprint.*` series as
    /// [`crate::combined::fingerprint_addresses`].
    pub fn evidence(
        &self,
        addr: Ipv4Addr,
        te_reply_ttl: u8,
        snmp: &SnmpDataset,
    ) -> Option<(VendorEvidence, FingerprintSource)> {
        let fusion = &*crate::combined::METRICS;
        fusion.addresses.inc();
        if let Some(vendor) = snmp.lookup(addr) {
            fusion.snmp_hits.inc();
            return Some((VendorEvidence::Exact(vendor), FingerprintSource::Snmp));
        }
        let Some(echo_ttl) = self.echo_ttl(addr) else {
            fusion.unresolved.inc();
            return None;
        };
        match ttl_evidence(echo_ttl, te_reply_ttl) {
            Some(evidence) => {
                fusion.ttl_hits.inc();
                Some((evidence, FingerprintSource::Ttl))
            }
            None => {
                fusion.unresolved.inc();
                None
            }
        }
    }

    /// Number of addresses with a memoized echo probe (for stats and
    /// tests; SNMPv3-resolved addresses never reach the probe step and
    /// are not cached).
    pub fn memoized(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("fingerprint shard lock").len()).sum()
    }

    /// Exports every memoized entry, address-sorted — the
    /// deterministic shape the run ledger's sidecar persists and
    /// [`FingerprintCache::rehydrate`] consumes on the next run.
    pub fn export(&self) -> Vec<(Ipv4Addr, Option<u8>)> {
        let mut entries: Vec<(Ipv4Addr, Option<u8>)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.read().expect("fingerprint shard lock");
            entries.extend(guard.iter().map(|(&addr, &ttl)| (addr, ttl)));
        }
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        entries
    }

    /// Seeds the cache from a previous run's [`FingerprintCache::export`]
    /// so unchanged addresses skip their echo probe entirely. Carried
    /// failures (`None` echo TTL) are *not* installed — a non-answer is
    /// not evidence worth trusting across runs — and an address already
    /// memoized this run keeps its fresh value; both count as `stale`.
    /// Safe to race against [`FingerprintCache::evidence`]: every
    /// insert happens under the shard's write lock with the same
    /// occupied-entry re-check, so an address is never probed *and*
    /// rehydrated.
    pub fn rehydrate(&self, entries: &[(Ipv4Addr, Option<u8>)]) -> RehydrateStats {
        let metrics = &*METRICS;
        let mut stats = RehydrateStats::default();
        for &(addr, ttl) in entries {
            if ttl.is_none() {
                stats.stale += 1;
                metrics.stale.inc();
                continue;
            }
            let mut guard = self.shard(addr).write().expect("fingerprint shard lock");
            match guard.entry(addr) {
                std::collections::hash_map::Entry::Occupied(_) => {
                    stats.stale += 1;
                    metrics.stale.inc();
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(ttl);
                    stats.rehydrated += 1;
                    metrics.rehydrated.inc();
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::fingerprint_addresses;
    use arest_simnet::plane::Route;
    use arest_topo::graph::Topology;
    use arest_topo::ids::AsNumber;
    use arest_topo::prefix::Prefix;
    use arest_topo::vendor::Vendor;

    /// R0(Cisco) — R1(Juniper) — R2(Huawei); probes enter at R0.
    fn testbed() -> (Network, Vec<Ipv4Addr>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_310);
        let vendors = [Vendor::Cisco, Vendor::Juniper, Vendor::Huawei];
        let routers: Vec<RouterId> = vendors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                topo.add_router(format!("k{i}"), asn, *v, Ipv4Addr::new(10, 255, 31, (i + 1) as u8))
            })
            .collect();
        for i in 0..2u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 31, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 31, i, 2),
                1,
            );
        }
        let loopbacks: Vec<Ipv4Addr> = routers.iter().map(|&r| topo.router(r).loopback).collect();
        let mut net = Network::new(topo);
        let spf = arest_topo::spf::DomainSpf::for_members(net.topo(), &routers);
        for &from in &routers {
            for (&to, &lo) in routers.iter().zip(&loopbacks) {
                if from == to {
                    continue;
                }
                if let Some((out_iface, next_router)) = spf.next_hop(from, to) {
                    net.plane_mut(from)
                        .install_route(Prefix::host(lo), Route { out_iface, next_router });
                }
            }
        }
        (net, loopbacks)
    }

    #[test]
    fn cache_evidence_matches_the_batch_api() {
        let (net, lo) = testbed();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let te: HashMap<Ipv4Addr, u8> = lo.iter().map(|&a| (a, 250)).collect();
        let mut snmp = SnmpDataset::new();
        snmp.insert(lo[1], Vendor::Juniper);
        let batch = fingerprint_addresses(&net, RouterId(0), src, &lo, &te, &snmp);
        let cache = FingerprintCache::new(&net, RouterId(0), src);
        for &addr in &lo {
            assert_eq!(
                cache.evidence(addr, te[&addr], &snmp),
                batch.get(&addr).copied(),
                "cache and batch fusion must agree on {addr}"
            );
        }
    }

    #[test]
    fn echo_probe_is_memoized_per_address() {
        let (net, lo) = testbed();
        let cache = FingerprintCache::new(&net, RouterId(0), Ipv4Addr::new(192, 0, 2, 9));
        let first = cache.echo_ttl(lo[0]);
        assert!(first.is_some());
        assert_eq!(cache.memoized(), 1);
        for _ in 0..5 {
            assert_eq!(cache.echo_ttl(lo[0]), first);
        }
        assert_eq!(cache.memoized(), 1, "repeat requests must not grow the cache");
        let snmp = SnmpDataset::new();
        for &addr in &lo {
            cache.evidence(addr, 250, &snmp);
        }
        assert_eq!(cache.memoized(), lo.len());
    }

    #[test]
    fn snmp_hits_bypass_the_probe_cache() {
        let (net, lo) = testbed();
        let cache = FingerprintCache::new(&net, RouterId(0), Ipv4Addr::new(192, 0, 2, 9));
        let mut snmp = SnmpDataset::new();
        snmp.insert(lo[2], Vendor::Huawei);
        assert_eq!(
            cache.evidence(lo[2], 250, &snmp),
            Some((VendorEvidence::Exact(Vendor::Huawei), FingerprintSource::Snmp))
        );
        assert_eq!(cache.memoized(), 0, "SNMPv3 precedence means no probe was needed");
    }

    #[test]
    fn export_rehydrate_roundtrip_skips_probes() {
        let (net, lo) = testbed();
        let snmp = SnmpDataset::new();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let first = FingerprintCache::new(&net, RouterId(0), src);
        let expected: Vec<_> = lo.iter().map(|&a| first.evidence(a, 250, &snmp)).collect();
        let exported = first.export();
        assert_eq!(exported.len(), first.memoized());
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "export must be address-sorted");

        let second = FingerprintCache::new(&net, RouterId(0), src);
        let stats = second.rehydrate(&exported);
        let live = exported.iter().filter(|(_, ttl)| ttl.is_some()).count();
        assert_eq!(stats, RehydrateStats { rehydrated: live, stale: exported.len() - live });
        assert_eq!(second.memoized(), live);

        // Rehydrated evidence is identical to freshly probed evidence
        // (the simulator's TTLs are seed-deterministic).
        let warm: Vec<_> = lo.iter().map(|&a| second.evidence(a, 250, &snmp)).collect();
        assert_eq!(warm, expected);

        // Re-rehydrating after the fact is inert: everything is stale.
        let again = second.rehydrate(&exported);
        assert_eq!(again.rehydrated, 0);
    }

    #[test]
    fn concurrent_readers_agree() {
        let (net, lo) = testbed();
        let cache = FingerprintCache::new(&net, RouterId(0), Ipv4Addr::new(192, 0, 2, 9));
        let serial: Vec<Option<u8>> = lo.iter().map(|&a| cache.echo_ttl(a)).collect();
        let fresh = FingerprintCache::new(&net, RouterId(0), Ipv4Addr::new(192, 0, 2, 9));
        arest_conc::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (&addr, &expect) in lo.iter().zip(&serial) {
                        assert_eq!(fresh.echo_ttl(addr), expect);
                    }
                });
            }
        });
        assert_eq!(fresh.memoized(), lo.len());
    }
}
