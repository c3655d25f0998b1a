//! Flat CSR (compressed sparse row) adjacency of a [`Network`].
//!
//! [`CsrNetwork`] is the network's one adjacency: [`NetworkBuilder::build`]
//! lays it out once from the link list and the [`Network`] owns it. It
//! stores the arcs as three flat arrays per direction (`row_ptr`,
//! `col_idx`, `arc_link`), so a widest-path sweep streams linearly
//! through memory instead of taking a cache miss per node scanned.
//!
//! ## Ordering contract
//!
//! The arc order is load-bearing, not cosmetic. Widest-path parents
//! update only on *strict* width improvement, so among equal-width
//! alternatives the iteration order decides the witness route, and
//! routes are part of placement equality. Concretely:
//!
//! * forward arcs of node `u` are the links traversable from `u`, in
//!   link-insertion order (a stable counting sort of the links by tail,
//!   an undirected link counting once from each end) — the order
//!   [`Network::neighbors`] yields;
//! * reverse arcs of node `v` appear ordered by source node ascending,
//!   then by that source's forward-arc order — what visiting every
//!   node `u` in id order and appending `(link, u)` to the list of each
//!   `v` that [`Network::neighbors`]`(u)` yields produces (a stable
//!   counting sort of the forward arcs by head).
//!
//! The heap searches of the dev-only `sparcle-oracle` crate walk a
//! nested adjacency they build from the link list themselves;
//! `tests/csr_equivalence.rs` holds the engine to byte-identical
//! placements, routes and rates against them on the strength of this
//! contract, and the oracle suites check both orders arc for arc.
//!
//! ## Sole-neighbour tables
//!
//! The constructor also records, per node, whether all of its
//! in-arcs (and, separately, all of its out-arcs) come from **one**
//! neighbour — parallel links to that neighbour included. A widest-path
//! sweep that has just relaxed `u → v` can then tell in one load that
//! popping `v` could only look back at `u`, and skip queueing it
//! ([`CsrNetwork::all_in_arcs_from`] / [`CsrNetwork::all_out_arcs_to`]).
//! On access-network topologies — a routed core with degree-1 leaves —
//! that is nearly every node.

use crate::ids::{LinkId, NcpId};
use crate::network::{Link, LinkDirection};
#[cfg(doc)]
use crate::network::{Network, NetworkBuilder};

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

/// Stable counting sort of `(key, other, link)` arcs by `key` over `n`
/// nodes into CSR arrays `(row_ptr, other per arc, link per arc)`: the
/// arcs of one key keep the order `arcs` yields them in. `arcs` is
/// walked twice, once to count and once to place.
fn bucket_by_key<I>(n: usize, arcs: impl Fn() -> I) -> (Vec<u32>, Vec<u32>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32, u32)>,
{
    let mut row_ptr = vec![0u32; n + 1];
    for (key, _, _) in arcs() {
        row_ptr[key as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let total = row_ptr[n] as usize;
    let mut cursor = row_ptr[..n].to_vec();
    let (mut other, mut link) = (vec![0u32; total], vec![0u32; total]);
    for (key, to, via) in arcs() {
        let slot = cursor[key as usize] as usize;
        other[slot] = to;
        link[slot] = via;
        cursor[key as usize] += 1;
    }
    (row_ptr, other, link)
}

/// Flat CSR adjacency (forward and reverse) for one immutable
/// [`Network`], read through [`Network::csr`].
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
    /// Lays out the arcs of `links` over `ncp_count` nodes in the order
    /// of the module docs' ordering contract.
    pub(crate) fn from_links(ncp_count: usize, links: &[Link]) -> Self {
        let n = ncp_count;
        assert!(
            n < SOLE_SEVERAL as usize,
            "node ids must stay clear of the sole-neighbour sentinels"
        );
        let forward = || {
            links.iter().zip(0u32..).flat_map(|(link, id)| {
                let (a, b) = (link.a().as_u32(), link.b().as_u32());
                let back = (link.direction() == LinkDirection::Undirected).then_some((b, a, id));
                std::iter::once((a, b, id)).chain(back)
            })
        };
        let (row_ptr, col_idx, arc_link) = bucket_by_key(n, forward);
        let (heads, via) = (&col_idx, &arc_link);
        let reverse = || {
            row_ptr.windows(2).zip(0u32..).flat_map(|(w, u)| {
                (w[0] as usize..w[1] as usize).map(move |a| (heads[a], u, via[a]))
            })
        };
        let (rev_row_ptr, rev_col_idx, rev_arc_link) = bucket_by_key(n, reverse);
        CsrNetwork {
            ncp_count: n,
            link_count: links.len(),
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

    /// `(link, neighbor)` pairs traversable from `node`, in forward-arc
    /// order ([`Network::neighbors`] forwards here).
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
    use crate::network::{Network, NetworkBuilder};
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
    fn directed_links_contribute_one_arc() {
        let net = sample();
        let csr = net.csr();
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
        let net = b.build().unwrap();
        let csr = net.csr();
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
        let net = p.build().unwrap();
        let csr = net.csr();
        assert!(csr.all_in_arcs_from(id(z), id(a)));
        assert!(csr.all_out_arcs_to(id(z), id(a)));
    }
}
