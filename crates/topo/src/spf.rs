//! Deterministic Dijkstra shortest-path-first — the IGP stand-in.
//!
//! Both IS-IS and OSPF reduce, for this reproduction's purposes, to
//! "every router knows the shortest path to every other router in its
//! domain". [`SpfTree`] computes that from one source; [`DomainSpf`]
//! caches a tree per router so the data plane can ask "next hop from
//! *here* toward X" in O(1).
//!
//! Ties are broken deterministically (lowest predecessor router id)
//! for the *primary* next hop, and all equal-cost first hops are
//! retained ([`SpfTree::next_hops`]) so the data plane can do ECMP:
//! per-flow hashing over that set is exactly the load-balancing
//! behaviour Paris traceroute's flow-stable probing exists to tame.
//!
//! Trees are dense arrays over a *slot index*: a domain's routers are
//! numbered `0..n` in ascending [`RouterId`] order, and a [`DomainSpf`]
//! numbers its members once and shares that index with every tree.
//! The index is a table over the members' router-id span — an AS's
//! routers are created contiguously, so the span is the domain — and
//! each tree holds its distances and predecessors as `u32` arrays and
//! its first hops inline, so neither Dijkstra's relaxations nor a
//! next-hop lookup hash anything.

use crate::graph::Topology;
use crate::ids::{AsNumber, IfaceId, LinkId, RouterId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Cap on retained equal-cost first hops per destination (real
/// routers bound their ECMP fan-out similarly).
const MAX_ECMP: usize = 4;

/// An empty slot-table cell, and an unreached tree entry's predecessor.
const NONE: u32 = u32::MAX;

/// A first hop: egress interface + neighbour.
type Hop = (IfaceId, RouterId);

/// Up to [`MAX_ECMP`] equal-cost first hops, stored inline.
#[derive(Debug, Clone, Copy)]
struct HopSet {
    len: u8,
    hops: [Hop; MAX_ECMP],
}

impl HopSet {
    const EMPTY: HopSet = HopSet { len: 0, hops: [(IfaceId(0), RouterId(0)); MAX_ECMP] };

    fn one(hop: Hop) -> HopSet {
        let mut set = HopSet::EMPTY;
        set.hops[0] = hop;
        set.len = 1;
        set
    }

    fn as_slice(&self) -> &[Hop] {
        &self.hops[..usize::from(self.len)]
    }

    /// `self` followed by the hops of `tail` it lacks, capped at
    /// [`MAX_ECMP`]: the order-preserving dedup of the concatenation.
    fn merged(mut self, tail: &HopSet) -> HopSet {
        for &hop in tail.as_slice() {
            if usize::from(self.len) == MAX_ECMP {
                break;
            }
            if !self.as_slice().contains(&hop) {
                self.hops[usize::from(self.len)] = hop;
                self.len += 1;
            }
        }
        self
    }
}

/// Dense numbering of one domain's routers: slots `0..n` in ascending
/// router-id order, so comparing slots compares router ids.
#[derive(Debug)]
struct SlotIndex {
    /// The router id `table[0]` stands for.
    base: u32,
    /// `table[id - base]` is router `id`'s slot, or [`NONE`].
    table: Vec<u32>,
    /// `routers[slot]` is the router numbered `slot`.
    routers: Vec<RouterId>,
}

impl SlotIndex {
    /// An index over exactly `members` (duplicates collapse).
    fn over(members: &[RouterId]) -> SlotIndex {
        let (Some(lo), Some(hi)) = (members.iter().min(), members.iter().max()) else {
            return SlotIndex { base: 0, table: Vec::new(), routers: Vec::new() };
        };
        let mut index = SlotIndex {
            base: lo.0,
            table: vec![NONE; (hi.0 - lo.0) as usize + 1],
            routers: Vec::new(),
        };
        for &r in members {
            index.table[(r.0 - lo.0) as usize] = 0;
        }
        index.number();
        index
    }

    /// The routers reachable from `source` through links other than
    /// `avoid` and routers `in_domain` accepts (plus `source` itself).
    fn component(
        topo: &Topology,
        source: RouterId,
        in_domain: impl Fn(RouterId) -> bool,
        avoid: Option<LinkId>,
    ) -> SlotIndex {
        let limit = topo.router_count() as u32;
        let mut index = SlotIndex { base: source.0, table: vec![0], routers: Vec::new() };
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            for (link, _, _, v, _) in topo.adjacencies(u) {
                if Some(link) != avoid && in_domain(v) && index.mark(v, limit) {
                    stack.push(v);
                }
            }
        }
        index.number();
        index
    }

    /// Marks `router` (an id below `limit`) as a member, widening the
    /// table to cover it by at least its current length so repeated
    /// widening stays linear. Returns whether it was unmarked.
    fn mark(&mut self, router: RouterId, limit: u32) -> bool {
        let id = router.0;
        if id < self.base {
            let base = id.min(self.base.saturating_sub(self.table.len() as u32));
            self.table.splice(0..0, std::iter::repeat_n(NONE, (self.base - base) as usize));
            self.base = base;
        }
        let offset = (id - self.base) as usize;
        if offset >= self.table.len() {
            let len = (offset + 1).max(2 * self.table.len()).min((limit - self.base) as usize);
            self.table.resize(len, NONE);
        }
        let unmarked = self.table[offset] == NONE;
        self.table[offset] = 0;
        unmarked
    }

    /// Numbers the marked cells in ascending router-id order.
    fn number(&mut self) {
        for (offset, cell) in self.table.iter_mut().enumerate() {
            if *cell != NONE {
                *cell = self.routers.len() as u32;
                self.routers.push(RouterId(self.base + offset as u32));
            }
        }
    }

    fn slot(&self, router: RouterId) -> Option<usize> {
        let cell = *self.table.get(router.0.wrapping_sub(self.base) as usize)?;
        (cell != NONE).then_some(cell as usize)
    }

    fn len(&self) -> usize {
        self.routers.len()
    }
}

/// One live adjacency between two domain routers, by slot.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    cost: u32,
    hop: Hop,
}

/// A domain's live adjacencies in compressed-sparse-row form, each
/// router's in [`Topology::adjacencies`] order.
struct Adjacency {
    /// Slot `s`'s edges are `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

impl Adjacency {
    fn build(topo: &Topology, index: &SlotIndex, avoid: Option<LinkId>) -> Adjacency {
        let mut offsets = Vec::with_capacity(index.len() + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for &r in &index.routers {
            for (link, local_if, _, v, cost) in topo.adjacencies(r) {
                if Some(link) == avoid {
                    continue;
                }
                if let Some(to) = index.slot(v) {
                    edges.push(Edge { to: to as u32, cost, hop: (local_if, v) });
                }
            }
            offsets.push(edges.len() as u32);
        }
        Adjacency { offsets, edges }
    }

    fn edges(&self, slot: usize) -> &[Edge] {
        &self.edges[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// The shortest-path tree rooted at one router.
#[derive(Debug, Clone)]
pub struct SpfTree {
    /// The root of the tree.
    pub source: RouterId,
    index: Arc<SlotIndex>,
    /// Per slot: IGP distance from the source (meaningless while
    /// `pred` is [`NONE`]).
    dist: Vec<u32>,
    /// Per slot: the immediate predecessor's slot on the primary
    /// shortest path; the source's own slot for the source, [`NONE`]
    /// when unreached.
    pred: Vec<u32>,
    /// Per slot: every equal-cost first hop from the source,
    /// deterministically ordered; index 0 is the primary.
    next: Vec<HopSet>,
}

impl SpfTree {
    /// Runs Dijkstra from `source` over routers for which `in_domain`
    /// returns true. Links with `up == false` are skipped.
    pub fn compute(
        topo: &Topology,
        source: RouterId,
        in_domain: impl Fn(RouterId) -> bool,
    ) -> SpfTree {
        SpfTree::compute_avoiding(topo, source, in_domain, None)
    }

    /// Like [`SpfTree::compute`], additionally excluding one link —
    /// the post-convergence view TI-LFA repair paths are built from.
    pub fn compute_avoiding(
        topo: &Topology,
        source: RouterId,
        in_domain: impl Fn(RouterId) -> bool,
        avoid: Option<LinkId>,
    ) -> SpfTree {
        let index = SlotIndex::component(topo, source, in_domain, avoid);
        let adjacency = Adjacency::build(topo, &index, avoid);
        let slot = index.slot(source).expect("the source is in its own component");
        SpfTree::grow(Arc::new(index), &adjacency, slot, &mut BinaryHeap::new())
    }

    /// Dijkstra from slot `source`. Heap entries pack `(dist, slot)`
    /// into one `u64`, so they pop in `(dist, RouterId)` order.
    fn grow(
        index: Arc<SlotIndex>,
        adjacency: &Adjacency,
        source: usize,
        heap: &mut BinaryHeap<Reverse<u64>>,
    ) -> SpfTree {
        let n = index.len();
        let mut dist = vec![0u32; n];
        let mut pred = vec![NONE; n];
        let mut next = vec![HopSet::EMPTY; n];
        pred[source] = source as u32;
        heap.push(Reverse(source as u64));

        while let Some(Reverse(key)) = heap.pop() {
            let (d, u) = ((key >> 32) as u32, (key & u64::from(u32::MAX)) as usize);
            if dist[u] != d {
                continue; // stale heap entry
            }
            let via_u = next[u];
            for edge in adjacency.edges(u) {
                let v = edge.to as usize;
                if v == source {
                    continue; // the root keeps no first hops, even over cost-0 links
                }
                let nd = d.saturating_add(edge.cost);
                let first_hops_via_u = if u == source { HopSet::one(edge.hop) } else { via_u };
                if pred[v] == NONE || nd < dist[v] {
                    dist[v] = nd;
                    pred[v] = u as u32;
                    next[v] = first_hops_via_u;
                    heap.push(Reverse((u64::from(nd) << 32) | v as u64));
                } else if nd == dist[v] {
                    // Equal cost: merge the first-hop sets (ECMP) and
                    // keep the primary deterministic by preferring the
                    // smaller predecessor id.
                    if (u as u32) < pred[v] {
                        pred[v] = u as u32;
                        next[v] = first_hops_via_u.merged(&next[v]);
                    } else {
                        next[v] = next[v].merged(&first_hops_via_u);
                    }
                }
            }
        }

        SpfTree { source: index.routers[source], index, dist, pred, next }
    }

    /// `dst`'s slot, if the tree reaches it.
    fn reached(&self, dst: RouterId) -> Option<usize> {
        self.index.slot(dst).filter(|&slot| self.pred[slot] != NONE)
    }

    /// IGP distance to `dst`, if reachable.
    pub fn distance(&self, dst: RouterId) -> Option<u32> {
        self.reached(dst).map(|slot| self.dist[slot])
    }

    /// The primary first hop from the source toward `dst` (control
    /// planes install this one). `None` when unreachable or
    /// `dst == source`.
    pub fn next_hop(&self, dst: RouterId) -> Option<(IfaceId, RouterId)> {
        self.next_hops(dst).first().copied()
    }

    /// All equal-cost first hops toward `dst`, primary first. The data
    /// plane hashes a flow over this set (ECMP).
    pub fn next_hops(&self, dst: RouterId) -> &[(IfaceId, RouterId)] {
        self.index.slot(dst).map_or(&[], |slot| self.next[slot].as_slice())
    }

    /// The full router path `source..=dst`, or `None` if unreachable.
    pub fn path(&self, dst: RouterId) -> Option<Vec<RouterId>> {
        if dst == self.source {
            return Some(vec![dst]);
        }
        let mut cur = self.reached(dst)?;
        let mut path = vec![dst];
        // The root is the one slot that is its own predecessor.
        while self.pred[cur] as usize != cur {
            cur = self.pred[cur] as usize;
            path.push(self.index.routers[cur]);
        }
        path.reverse();
        Some(path)
    }

    /// Routers reachable from the source (including itself), in
    /// ascending router-id order.
    pub fn reachable(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.index.len())
            .filter(|&slot| self.pred[slot] != NONE)
            .map(|slot| self.index.routers[slot])
    }
}

/// Per-domain all-sources SPF cache.
///
/// A "domain" is the set of routers sharing one IGP — in this
/// reproduction, one AS (plus, for SR, the subset that is SR-capable
/// is filtered at the control-plane layer, not here).
#[derive(Debug, Clone)]
pub struct DomainSpf {
    index: Arc<SlotIndex>,
    /// `trees[slot]` is rooted at `index.routers[slot]`.
    trees: Vec<SpfTree>,
}

impl DomainSpf {
    /// Computes an SPF tree from every router of `asn`.
    pub fn for_as(topo: &Topology, asn: AsNumber) -> DomainSpf {
        let members: Vec<RouterId> = topo.routers_in_as(asn).map(|r| r.id).collect();
        DomainSpf::for_members(topo, &members)
    }

    /// Computes an SPF tree from every router in `members`, with the
    /// domain restricted to exactly that set.
    pub fn for_members(topo: &Topology, members: &[RouterId]) -> DomainSpf {
        // SPF recomputation is the IGP-convergence cost of the control
        // plane — cold, so inline registration is fine.
        let registry = arest_obs::global();
        if registry.is_enabled() {
            registry.counter("topo.spf.domains").inc();
            registry.counter("topo.spf.trees").add(members.len() as u64);
        }
        let index = Arc::new(SlotIndex::over(members));
        let adjacency = Adjacency::build(topo, &index, None);
        let mut heap = BinaryHeap::new();
        let trees = (0..index.len())
            .map(|slot| SpfTree::grow(Arc::clone(&index), &adjacency, slot, &mut heap))
            .collect();
        DomainSpf { index, trees }
    }

    /// The SPF tree rooted at `router`, if it belongs to the domain.
    pub fn tree(&self, router: RouterId) -> Option<&SpfTree> {
        self.index.slot(router).map(|slot| &self.trees[slot])
    }

    /// Primary next hop from `from` toward `to` within the domain.
    pub fn next_hop(&self, from: RouterId, to: RouterId) -> Option<(IfaceId, RouterId)> {
        self.tree(from)?.next_hop(to)
    }

    /// All equal-cost next hops from `from` toward `to` (ECMP set).
    pub fn next_hops(&self, from: RouterId, to: RouterId) -> &[(IfaceId, RouterId)] {
        self.tree(from).map_or(&[], |t| t.next_hops(to))
    }

    /// IGP distance between two domain routers.
    pub fn distance(&self, from: RouterId, to: RouterId) -> Option<u32> {
        self.tree(from)?.distance(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// Builds the topology of the paper's Fig. 3:
    ///
    /// ```text
    /// A - B - D - E - G - H      (all cost 1)
    ///      \   \_ F _/
    ///       C (stub off B)
    /// ```
    /// plus a direct D—E link which Fig. 3 steers through with an
    /// adjacency SID.
    fn fig3_topology() -> (Topology, Vec<RouterId>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_001);
        let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        let routers: Vec<RouterId> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                topo.add_router(*name, asn, Vendor::Cisco, Ipv4Addr::new(10, 255, 1, (i + 1) as u8))
            })
            .collect();
        let mut nth = 0u8;
        let mut link = |topo: &mut Topology, a: usize, b: usize, cost: u32| {
            nth += 1;
            topo.add_link(
                routers[a],
                Ipv4Addr::new(10, 1, nth, 1),
                routers[b],
                Ipv4Addr::new(10, 1, nth, 2),
                cost,
            );
        };
        link(&mut topo, 0, 1, 1); // A-B
        link(&mut topo, 1, 2, 1); // B-C
        link(&mut topo, 1, 3, 1); // B-D
        link(&mut topo, 3, 4, 1); // D-E
        link(&mut topo, 3, 5, 1); // D-F
        link(&mut topo, 5, 6, 1); // F-G
        link(&mut topo, 4, 6, 1); // E-G
        link(&mut topo, 6, 7, 1); // G-H
        (topo, routers)
    }

    #[test]
    fn distances_match_hand_computation() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        // A=0 B=1 C=2 D=2 E=3 F=3 G=4 H=5
        let expect = [0u32, 1, 2, 2, 3, 3, 4, 5];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(tree.distance(r[i]), Some(*want), "distance to {i}");
        }
    }

    #[test]
    fn next_hop_is_first_edge_of_path() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let (iface, neighbour) = tree.next_hop(r[7]).unwrap();
        assert_eq!(neighbour, r[1], "everything from A goes via B");
        assert_eq!(topo.iface(iface).router, r[0]);
        assert_eq!(tree.next_hop(r[0]), None, "no next hop to self");
    }

    #[test]
    fn path_lists_every_router() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let path = tree.path(r[7]).unwrap();
        assert_eq!(path.first(), Some(&r[0]));
        assert_eq!(path.last(), Some(&r[7]));
        assert_eq!(path.len(), 6); // A B D E|F G H
        assert_eq!(tree.path(r[0]).unwrap(), vec![r[0]]);
    }

    #[test]
    fn tie_break_prefers_lower_predecessor_id() {
        let (topo, r) = fig3_topology();
        // From D (r[3]) to G (r[6]): via E (r[4]) or F (r[5]), both
        // cost 2. The deterministic rule must choose predecessor E.
        let tree = SpfTree::compute(&topo, r[3], |_| true);
        let path = tree.path(r[6]).unwrap();
        assert_eq!(path, vec![r[3], r[4], r[6]]);
    }

    #[test]
    fn domain_filter_excludes_foreign_routers() {
        let (topo, r) = fig3_topology();
        // Restrict the domain to {A, B}: D becomes unreachable.
        let members = [r[0], r[1]];
        let spf = DomainSpf::for_members(&topo, &members);
        assert_eq!(spf.distance(r[0], r[1]), Some(1));
        assert_eq!(spf.tree(r[0]).unwrap().distance(r[3]), None);
        assert!(spf.tree(r[3]).is_none());
    }

    #[test]
    fn link_failure_reroutes() {
        let (mut topo, r) = fig3_topology();
        // Down the D—E link (4th added, LinkId 3): D now reaches E via F,G.
        let tree_before = SpfTree::compute(&topo, r[3], |_| true);
        assert_eq!(tree_before.distance(r[4]), Some(1));
        topo.set_link_up(crate::ids::LinkId(3), false);
        let tree = SpfTree::compute(&topo, r[3], |_| true);
        assert_eq!(tree.distance(r[4]), Some(3), "D-F-G-E after failure");
        assert_eq!(tree.path(r[4]).unwrap(), vec![r[3], r[5], r[6], r[4]]);
    }

    #[test]
    fn ecmp_diamond_exposes_both_first_hops() {
        // A—B—D and A—C—D, all cost 1: two equal-cost first hops.
        let mut topo = Topology::new();
        let asn = AsNumber(65_002);
        let r: Vec<RouterId> = ["A", "B", "C", "D"]
            .iter()
            .enumerate()
            .map(|(i, n)| {
                topo.add_router(*n, asn, Vendor::Cisco, Ipv4Addr::new(10, 254, 1, (i + 1) as u8))
            })
            .collect();
        let pairs = [(0, 1), (0, 2), (1, 3), (2, 3)];
        for (k, (a, b)) in pairs.iter().enumerate() {
            topo.add_link(
                r[*a],
                Ipv4Addr::new(10, 254, k as u8 + 10, 1),
                r[*b],
                Ipv4Addr::new(10, 254, k as u8 + 10, 2),
                1,
            );
        }
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let hops = tree.next_hops(r[3]);
        assert_eq!(hops.len(), 2, "both equal-cost branches retained");
        let neighbours: Vec<RouterId> = hops.iter().map(|(_, n)| *n).collect();
        assert!(neighbours.contains(&r[1]) && neighbours.contains(&r[2]));
        // The primary is the deterministic tie-break winner and
        // next_hop() agrees with next_hops()[0].
        assert_eq!(tree.next_hop(r[3]), Some(hops[0]));
        // Unreachable targets expose an empty set.
        assert!(tree.next_hops(RouterId(99)).is_empty());
    }

    #[test]
    fn ecmp_sets_are_deterministic() {
        let (topo, r) = fig3_topology();
        let a = SpfTree::compute(&topo, r[3], |_| true);
        let b = SpfTree::compute(&topo, r[3], |_| true);
        for &dst in &r {
            assert_eq!(a.next_hops(dst), b.next_hops(dst));
        }
    }

    #[test]
    fn all_pairs_agree_with_single_source() {
        let (topo, r) = fig3_topology();
        let spf = DomainSpf::for_as(&topo, AsNumber(65_001));
        for &from in &r {
            let tree = SpfTree::compute(&topo, from, |_| true);
            for &to in &r {
                assert_eq!(spf.distance(from, to), tree.distance(to));
            }
        }
    }
}
