//! The dense, slot-indexed SPF agrees with the hash-map Dijkstra it
//! replaced, on random small topologies.
//!
//! [`Oracle`] is that earlier implementation kept verbatim (bar its
//! name): three `HashMap`s per tree, first-hop `Vec`s cloned on every
//! relaxation. Each property builds a topology with cost 1–3 links
//! (ties everywhere), optional parallel links and a fan of equal-cost
//! two-hop paths wider than the ECMP cap, a few links downed, and two
//! ASes whose routers interleave (so a domain's router ids are not
//! contiguous). It then compares `distance`, `next_hops` (order
//! included), `next_hop`, `path` and `reachable` (as a set) for every
//! source and destination, across a whole-topology tree, a closure
//! domain, `compute_avoiding`, `for_members` and `for_as`.

use arest_topo::spf::{DomainSpf, SpfTree};
use arest_topo::{AsNumber, IfaceId, LinkId, RouterId, Topology, Vendor};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::net::Ipv4Addr;

const MAX_ECMP: usize = 4;

/// The earlier `SpfTree`, verbatim.
struct Oracle {
    source: RouterId,
    dist: HashMap<RouterId, u32>,
    next: HashMap<RouterId, Vec<(IfaceId, RouterId)>>,
    pred: HashMap<RouterId, RouterId>,
}

impl Oracle {
    fn compute_avoiding(
        topo: &Topology,
        source: RouterId,
        in_domain: impl Fn(RouterId) -> bool,
        avoid: Option<LinkId>,
    ) -> Oracle {
        let mut dist: HashMap<RouterId, u32> = HashMap::new();
        let mut next: HashMap<RouterId, Vec<(IfaceId, RouterId)>> = HashMap::new();
        let mut pred: HashMap<RouterId, RouterId> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u32, RouterId)>> = BinaryHeap::new();

        dist.insert(source, 0);
        heap.push(Reverse((0, source)));

        while let Some(Reverse((d, u))) = heap.pop() {
            if dist.get(&u).copied() != Some(d) {
                continue; // stale heap entry
            }
            for (link, local_if, _, v, cost) in topo.adjacencies(u) {
                if !in_domain(v) || Some(link) == avoid {
                    continue;
                }
                let nd = d.saturating_add(cost);
                let first_hops_via_u =
                    if u == source { vec![(local_if, v)] } else { next[&u].clone() };
                match dist.get(&v) {
                    None => {
                        dist.insert(v, nd);
                        pred.insert(v, u);
                        next.insert(v, first_hops_via_u);
                        heap.push(Reverse((nd, v)));
                    }
                    Some(&old) if nd < old => {
                        dist.insert(v, nd);
                        pred.insert(v, u);
                        next.insert(v, first_hops_via_u);
                        heap.push(Reverse((nd, v)));
                    }
                    Some(&old) if nd == old => {
                        // Equal cost: merge the first-hop sets (ECMP)
                        // and keep the primary deterministic by
                        // preferring the smaller predecessor id.
                        if pred.get(&v).is_some_and(|&p| u < p) {
                            pred.insert(v, u);
                            let mut merged = first_hops_via_u;
                            merged.extend(next[&v].iter().copied());
                            dedup_hops(&mut merged);
                            next.insert(v, merged);
                        } else {
                            let hops = next.get_mut(&v).expect("set on first visit");
                            hops.extend(first_hops_via_u);
                            dedup_hops(hops);
                        }
                    }
                    _ => {}
                }
            }
        }

        Oracle { source, dist, next, pred }
    }

    fn distance(&self, dst: RouterId) -> Option<u32> {
        self.dist.get(&dst).copied()
    }

    fn next_hop(&self, dst: RouterId) -> Option<(IfaceId, RouterId)> {
        self.next.get(&dst).and_then(|hops| hops.first().copied())
    }

    fn next_hops(&self, dst: RouterId) -> &[(IfaceId, RouterId)] {
        self.next.get(&dst).map_or(&[], Vec::as_slice)
    }

    fn path(&self, dst: RouterId) -> Option<Vec<RouterId>> {
        if dst == self.source {
            return Some(vec![dst]);
        }
        self.dist.get(&dst)?;
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != self.source {
            cur = *self.pred.get(&cur)?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    fn reachable(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.dist.keys().copied()
    }
}

/// Order-preserving dedup with the ECMP fan-out cap.
fn dedup_hops(hops: &mut Vec<(IfaceId, RouterId)>) {
    let mut seen = std::collections::HashSet::new();
    hops.retain(|hop| seen.insert(*hop));
    hops.truncate(MAX_ECMP);
}

const AS_A: AsNumber = AsNumber(65_010);
const AS_B: AsNumber = AsNumber(65_020);

/// A random topology: `in_a[i]` puts router `i` in AS A (else B),
/// `links` are `(a, b, cost)` taken modulo the router count (self
/// pairs skipped, repeats become parallel links), then `fan` extra AS
/// A routers each bridge router 0 and router 1 at cost 1 + 1, and
/// `down` names links (modulo the link count) to take down.
fn build(
    in_a: &[bool],
    links: &[(usize, usize, u32)],
    fan: usize,
    down: &[usize],
) -> (Topology, Vec<RouterId>) {
    let mut topo = Topology::new();
    let mut routers = Vec::new();
    for (i, &a) in in_a.iter().enumerate() {
        let asn = if a { AS_A } else { AS_B };
        routers.push(topo.add_router(
            format!("r{i}"),
            asn,
            Vendor::Cisco,
            Ipv4Addr::new(10, 255, 0, i as u8),
        ));
    }
    let mut nth = 0u16;
    let mut link = |topo: &mut Topology, a: RouterId, b: RouterId, cost: u32| {
        let [hi, lo] = nth.to_be_bytes();
        nth += 1;
        topo.add_link(a, Ipv4Addr::new(10, 1, hi, lo), b, Ipv4Addr::new(10, 2, hi, lo), cost);
    };
    let n = routers.len();
    for &(a, b, cost) in links {
        let (a, b) = (a % n, b % n);
        if a != b {
            link(&mut topo, routers[a], routers[b], cost);
        }
    }
    for k in 0..fan {
        let mid = topo.add_router(
            format!("fan{k}"),
            AS_A,
            Vendor::Cisco,
            Ipv4Addr::new(10, 254, 0, k as u8),
        );
        link(&mut topo, routers[0], mid, 1);
        link(&mut topo, mid, routers[1], 1);
        routers.push(mid);
    }
    if topo.link_count() > 0 {
        for &d in down {
            topo.set_link_up(LinkId((d % topo.link_count()) as u32), false);
        }
    }
    (topo, routers)
}

/// Every query agrees on every destination in `routers` plus one id
/// the topology does not have.
fn same_tree(tree: &SpfTree, oracle: &Oracle, routers: &[RouterId]) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree.source, oracle.source, "source");
    for &dst in routers.iter().chain([RouterId(9_999)].iter()) {
        let at = format!("{} -> {dst}", tree.source);
        prop_assert_eq!(tree.distance(dst), oracle.distance(dst), "distance {}", at);
        prop_assert_eq!(tree.next_hops(dst), oracle.next_hops(dst), "next_hops {}", at);
        prop_assert_eq!(tree.next_hop(dst), oracle.next_hop(dst), "next_hop {}", at);
        prop_assert_eq!(tree.path(dst), oracle.path(dst), "path {}", at);
    }
    let got: BTreeSet<RouterId> = tree.reachable().collect();
    let want: BTreeSet<RouterId> = oracle.reachable().collect();
    prop_assert_eq!(got, want, "reachable from {}", tree.source);
    Ok(())
}

/// A `DomainSpf` over `members` agrees with per-source oracles over
/// the same member set, and has trees for exactly the members.
fn same_domain(
    topo: &Topology,
    spf: &DomainSpf,
    members: &[RouterId],
    routers: &[RouterId],
) -> Result<(), TestCaseError> {
    let set: HashSet<RouterId> = members.iter().copied().collect();
    for &from in routers {
        prop_assert_eq!(spf.tree(from).is_some(), set.contains(&from), "tree({})", from);
        let Some(tree) = spf.tree(from) else {
            for &to in routers {
                prop_assert!(spf.next_hops(from, to).is_empty());
                prop_assert_eq!(spf.distance(from, to), None);
                prop_assert_eq!(spf.next_hop(from, to), None);
            }
            continue;
        };
        let oracle = Oracle::compute_avoiding(topo, from, |r| set.contains(&r), None);
        same_tree(tree, &oracle, routers)?;
        for &to in routers {
            prop_assert_eq!(spf.distance(from, to), oracle.distance(to), "{} -> {}", from, to);
            prop_assert_eq!(spf.next_hops(from, to), oracle.next_hops(to), "{} -> {}", from, to);
            prop_assert_eq!(spf.next_hop(from, to), oracle.next_hop(to), "{} -> {}", from, to);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_spf_matches_the_hash_map_oracle(
        in_a in prop::collection::vec(prop::bool::weighted(0.7), 3..=12),
        links in prop::collection::vec((0usize..12, 0usize..12, 1u32..=3), 0..=32),
        fan in 0usize..=7,
        down in prop::collection::vec(0usize..64, 0..=3),
        mask in prop::collection::vec(prop::bool::weighted(0.7), 20),
        avoid in 0usize..64,
    ) {
        let (topo, routers) = build(&in_a, &links, fan, &down);
        let member = |r: RouterId| mask[r.index() % mask.len()];
        let avoid = (topo.link_count() > 0)
            .then(|| LinkId((avoid % topo.link_count()) as u32));

        for &source in &routers {
            // Whole topology.
            let tree = SpfTree::compute(&topo, source, |_| true);
            same_tree(&tree, &Oracle::compute_avoiding(&topo, source, |_| true, None), &routers)?;
            // A closure domain (the source need not belong to it).
            let tree = SpfTree::compute(&topo, source, member);
            same_tree(&tree, &Oracle::compute_avoiding(&topo, source, member, None), &routers)?;
            // The post-convergence view without one link.
            let tree = SpfTree::compute_avoiding(&topo, source, member, avoid);
            same_tree(&tree, &Oracle::compute_avoiding(&topo, source, member, avoid), &routers)?;
        }

        // A member subset, listed out of order and with a duplicate.
        let mut members: Vec<RouterId> =
            routers.iter().rev().copied().filter(|&r| member(r)).collect();
        if let Some(&first) = members.first() {
            members.push(first);
        }
        same_domain(&topo, &DomainSpf::for_members(&topo, &members), &members, &routers)?;

        // Whole ASes, whose router ids interleave.
        for asn in [AS_A, AS_B] {
            let members: Vec<RouterId> = topo.routers_in_as(asn).map(|r| r.id).collect();
            same_domain(&topo, &DomainSpf::for_as(&topo, asn), &members, &routers)?;
        }
    }
}

#[test]
fn fan_wider_than_the_cap_keeps_the_first_four_hops() {
    // Router 0 reaches router 1 over six equal-cost two-hop paths.
    let (topo, routers) = build(&[true, true], &[], 6, &[]);
    let tree = SpfTree::compute(&topo, routers[0], |_| true);
    let oracle = Oracle::compute_avoiding(&topo, routers[0], |_| true, None);
    assert_eq!(tree.next_hops(routers[1]).len(), MAX_ECMP);
    assert_eq!(tree.next_hops(routers[1]), oracle.next_hops(routers[1]));
    assert_eq!(tree.path(routers[1]), oracle.path(routers[1]));
}
