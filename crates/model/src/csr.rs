//! Flat CSR (compressed sparse row) view of a [`Network`].
//!
//! The pointer-chasing `Vec<Vec<(LinkId, NcpId)>>` adjacency inside
//! [`Network`] is convenient to build but hostile to the placement
//! engine's hot loop: every γ-row fill walks the whole graph once per
//! placed reachable CT, and at thousands of NCPs the nested-`Vec`
//! layout turns each neighbor scan into a cache miss per node.
//! [`CsrNetwork`] stores the same arcs as three flat arrays per
//! direction (`row_ptr`, `col_idx`, `arc_link`), so a widest-path sweep
//! streams linearly through memory.
//!
//! ## Ordering contract
//!
//! The CSR arc order is **exactly** the order [`Network`]'s own
//! adjacency is walked in — this is load-bearing, not cosmetic.
//! Widest-path parents update only on *strict* width improvement, so
//! among equal-width alternatives the iteration order decides the
//! witness route, and routes are part of placement equality. Concretely:
//!
//! * forward arcs of node `u` appear in the order
//!   [`Network::neighbors`] yields them (links in insertion order);
//! * reverse arcs of node `v` appear ordered by source node ascending,
//!   then by that source's forward-arc order — what visiting every
//!   node `u` in id order and appending `(link, u)` to the list of each
//!   `v` that [`Network::neighbors`]`(u)` yields produces.
//!
//! The heap searches of the dev-only `sparcle-oracle` crate walk
//! [`Network`] directly; `tests/csr_equivalence.rs` holds the engine to
//! byte-identical placements, routes and rates against them on the
//! strength of this contract.
//!
//! ## Sole-neighbour tables
//!
//! [`CsrNetwork::build`] also records, per node, whether all of its
//! in-arcs (and, separately, all of its out-arcs) come from **one**
//! neighbour — parallel links to that neighbour included. A widest-path
//! sweep that has just relaxed `u → v` can then tell in one load that
//! popping `v` could only look back at `u`, and skip queueing it
//! ([`CsrNetwork::all_in_arcs_from`] / [`CsrNetwork::all_out_arcs_to`]).
//! On access-network topologies — a routed core with degree-1 leaves —
//! that is nearly every node.

use crate::ids::{LinkId, NcpId};
use crate::network::Network;

/// Sole-neighbour table entry: the node has no arc on that side.
const SOLE_NONE: u32 = u32::MAX;
/// Sole-neighbour table entry: arcs from two or more distinct neighbours.
const SOLE_SEVERAL: u32 = u32::MAX - 1;

/// Per node, the one neighbour all of its arcs in `row_ptr`/`col_idx`
/// lead to, or [`SOLE_NONE`] / [`SOLE_SEVERAL`].
fn sole_neighbours(row_ptr: &[u32], col_idx: &[u32]) -> Vec<u32> {
    row_ptr
        .windows(2)
        .map(|w| {
            let arcs = &col_idx[w[0] as usize..w[1] as usize];
            match arcs.split_first() {
                None => SOLE_NONE,
                Some((&first, rest)) if rest.iter().all(|&v| v == first) => first,
                Some(_) => SOLE_SEVERAL,
            }
        })
        .collect()
}

/// Flat CSR adjacency (forward and reverse) for one immutable
/// [`Network`].
///
/// Obtained from [`Network::csr`], which builds it lazily once and
/// shares it behind an `Arc` across engine instances and clones of the
/// network.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrNetwork {
    ncp_count: usize,
    link_count: usize,
    /// Forward arcs: node `u`'s arcs live at `row_ptr[u]..row_ptr[u+1]`.
    row_ptr: Vec<u32>,
    /// Head node of each forward arc.
    col_idx: Vec<u32>,
    /// Link carrying each forward arc.
    arc_link: Vec<u32>,
    /// Reverse arcs: arcs *into* node `v` at `rev_row_ptr[v]..`.
    rev_row_ptr: Vec<u32>,
    /// Tail node of each reverse arc.
    rev_col_idx: Vec<u32>,
    /// Link carrying each reverse arc.
    rev_arc_link: Vec<u32>,
    /// Per node, the sole head of its forward arcs (see
    /// [`sole_neighbours`]).
    sole_out: Vec<u32>,
    /// Per node, the sole tail of its reverse arcs.
    sole_in: Vec<u32>,
}

impl CsrNetwork {
    /// Builds the CSR view of `network`, preserving its adjacency's
    /// traversal order exactly (see the module docs).
    pub fn build(network: &Network) -> Self {
        let n = network.ncp_count();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0u32);
        let mut col_idx = Vec::new();
        let mut arc_link = Vec::new();
        for u in network.ncp_ids() {
            for (link, v) in network.neighbors(u) {
                col_idx.push(v.as_u32());
                arc_link.push(link.as_u32());
            }
            row_ptr.push(col_idx.len() as u32);
        }

        // Counting sort of the forward arcs by head node. Enumerating
        // them in (tail asc, forward order) and appending per head
        // bucket reproduces the reverse-adjacency insertion order.
        let arcs = col_idx.len();
        let mut rev_row_ptr = vec![0u32; n + 1];
        for &v in &col_idx {
            rev_row_ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            rev_row_ptr[i + 1] += rev_row_ptr[i];
        }
        let mut cursor: Vec<u32> = rev_row_ptr[..n].to_vec();
        let mut rev_col_idx = vec![0u32; arcs];
        let mut rev_arc_link = vec![0u32; arcs];
        for u in 0..n {
            for a in row_ptr[u] as usize..row_ptr[u + 1] as usize {
                let v = col_idx[a] as usize;
                let slot = cursor[v] as usize;
                rev_col_idx[slot] = u as u32;
                rev_arc_link[slot] = arc_link[a];
                cursor[v] += 1;
            }
        }

        assert!(
            n < SOLE_SEVERAL as usize,
            "node ids must stay clear of the sole-neighbour sentinels"
        );
        CsrNetwork {
            ncp_count: n,
            link_count: network.link_count(),
            sole_out: sole_neighbours(&row_ptr, &col_idx),
            sole_in: sole_neighbours(&rev_row_ptr, &rev_col_idx),
            row_ptr,
            col_idx,
            arc_link,
            rev_row_ptr,
            rev_col_idx,
            rev_arc_link,
        }
    }

    /// Number of NCPs.
    pub fn ncp_count(&self) -> usize {
        self.ncp_count
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Number of directed arcs (undirected links contribute two).
    pub fn arc_count(&self) -> usize {
        self.col_idx.len()
    }

    /// Forward arcs out of `node` as parallel `(heads, links)` slices,
    /// in [`Network::neighbors`] order.
    #[inline]
    pub fn out_arcs(&self, node: NcpId) -> (&[u32], &[u32]) {
        let lo = self.row_ptr[node.index()] as usize;
        let hi = self.row_ptr[node.index() + 1] as usize;
        (&self.col_idx[lo..hi], &self.arc_link[lo..hi])
    }

    /// Reverse arcs into `node` as parallel `(tails, links)` slices, in
    /// the reverse-arc order of the module docs.
    #[inline]
    pub fn in_arcs(&self, node: NcpId) -> (&[u32], &[u32]) {
        let lo = self.rev_row_ptr[node.index()] as usize;
        let hi = self.rev_row_ptr[node.index() + 1] as usize;
        (&self.rev_col_idx[lo..hi], &self.rev_arc_link[lo..hi])
    }

    /// `true` when every arc *into* `node` comes from `from` (vacuously
    /// so for a node nothing leads into). A reversed sweep that reached
    /// `node` from `from` has then nothing left to relax out of it.
    #[inline]
    pub fn all_in_arcs_from(&self, node: u32, from: u32) -> bool {
        let sole = self.sole_in[node as usize];
        sole == from || sole == SOLE_NONE
    }

    /// `true` when every arc *out of* `node` leads to `to` (vacuously so
    /// for a node with no way out) — the forward twin of
    /// [`Self::all_in_arcs_from`].
    #[inline]
    pub fn all_out_arcs_to(&self, node: u32, to: u32) -> bool {
        let sole = self.sole_out[node as usize];
        sole == to || sole == SOLE_NONE
    }

    /// `(link, neighbor)` pairs traversable from `node` — the CSR
    /// mirror of [`Network::neighbors`], identical order.
    pub fn neighbors(&self, node: NcpId) -> impl Iterator<Item = (LinkId, NcpId)> + '_ {
        let (heads, links) = self.out_arcs(node);
        links
            .iter()
            .zip(heads)
            .map(|(&l, &v)| (LinkId::new(l), NcpId::new(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LinkDirection, NetworkBuilder};
    use crate::resources::ResourceVec;

    fn sample() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::cpu(10.0));
        let y = b.add_ncp("y", ResourceVec::cpu(20.0));
        let z = b.add_ncp("z", ResourceVec::cpu(30.0));
        b.add_link("xy", x, y, 100.0).unwrap();
        b.add_link_full("yz", y, z, 200.0, LinkDirection::Directed, 0.25)
            .unwrap();
        b.add_link("zx", z, x, 300.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn forward_arcs_match_legacy_neighbor_order() {
        let net = sample();
        let csr = CsrNetwork::build(&net);
        assert_eq!(csr.ncp_count(), net.ncp_count());
        assert_eq!(csr.link_count(), net.link_count());
        for u in net.ncp_ids() {
            let legacy: Vec<_> = net.neighbors(u).collect();
            let flat: Vec<_> = csr.neighbors(u).collect();
            assert_eq!(legacy, flat, "forward order diverged at {u}");
        }
    }

    #[test]
    fn reverse_arcs_match_reverse_adjacency_order() {
        let net = sample();
        let csr = CsrNetwork::build(&net);
        // Reference: the ordering contract of the module docs, spelled
        // out on the nested adjacency.
        let mut adj: Vec<Vec<(LinkId, NcpId)>> = vec![Vec::new(); net.ncp_count()];
        for u in net.ncp_ids() {
            for (link, v) in net.neighbors(u) {
                adj[v.index()].push((link, u));
            }
        }
        for v in net.ncp_ids() {
            let (tails, links) = csr.in_arcs(v);
            let flat: Vec<_> = links
                .iter()
                .zip(tails)
                .map(|(&l, &u)| (LinkId::new(l), NcpId::new(u)))
                .collect();
            assert_eq!(adj[v.index()], flat, "reverse order diverged at {v}");
        }
    }

    #[test]
    fn directed_links_contribute_one_arc() {
        let csr = CsrNetwork::build(&sample());
        // Directed yz contributes one arc; the undirected links two.
        assert_eq!(csr.arc_count(), 5);
    }

    #[test]
    fn sole_neighbour_tables_see_through_parallel_and_directed_links() {
        let mut b = NetworkBuilder::new();
        let hub = b.add_ncp("hub", ResourceVec::new());
        let leaf = b.add_ncp("leaf", ResourceVec::new());
        let twin = b.add_ncp("twin", ResourceVec::new());
        let tx = b.add_ncp("tx", ResourceVec::new());
        let lone = b.add_ncp("lone", ResourceVec::new());
        let other = b.add_ncp("other", ResourceVec::new());
        b.add_link("hl", hub, leaf, 1.0).unwrap();
        b.add_link("ht1", hub, twin, 1.0).unwrap();
        b.add_link("ht2", twin, hub, 2.0).unwrap();
        b.add_link_full("tx", tx, hub, 1.0, LinkDirection::Directed, 0.0)
            .unwrap();
        b.add_link("ho", hub, other, 1.0).unwrap();
        b.add_link("ot", other, twin, 1.0).unwrap();
        let csr = CsrNetwork::build(&b.build().unwrap());
        let id = |n: NcpId| n.as_u32();
        // A degree-1 leaf and a send-only node relay nothing back.
        assert!(csr.all_in_arcs_from(id(leaf), id(hub)));
        assert!(csr.all_out_arcs_to(id(leaf), id(hub)));
        assert!(csr.all_in_arcs_from(id(tx), id(hub)), "no in-arcs at all");
        assert!(csr.all_out_arcs_to(id(tx), id(hub)));
        assert!(csr.all_in_arcs_from(id(lone), id(hub)), "isolated");
        // Parallel links to one neighbour still count as one; a second
        // neighbour does not.
        assert!(!csr.all_in_arcs_from(id(twin), id(hub)));
        assert!(!csr.all_in_arcs_from(id(leaf), id(other)));
        assert!(!csr.all_in_arcs_from(id(hub), id(leaf)));
        let mut p = NetworkBuilder::new();
        let a = p.add_ncp("a", ResourceVec::new());
        let z = p.add_ncp("z", ResourceVec::new());
        p.add_link("az1", a, z, 1.0).unwrap();
        p.add_link("az2", z, a, 2.0).unwrap();
        let csr = CsrNetwork::build(&p.build().unwrap());
        assert!(csr.all_in_arcs_from(id(z), id(a)));
        assert!(csr.all_out_arcs_to(id(z), id(a)));
    }

    #[test]
    fn csr_view_is_shared_across_clones() {
        let net = sample();
        let csr = std::sync::Arc::clone(net.csr());
        let cloned = net.clone();
        assert!(std::sync::Arc::ptr_eq(&csr, cloned.csr()));
    }
}
