//! Load-aware widest-path routing — the paper's Algorithm 1.
//!
//! When a transport task `k` must connect NCP `j` to NCP `j'`, SPARCLE
//! places it on the path whose *worst* link imposes the *best* (largest)
//! bottleneck on the application's processing rate (eq. (3)):
//!
//! ```text
//! P*_k(j, j') = argmax over paths P  min over links l ∈ P
//!               C_l^(b) / (a_k^(b) + Σ_i'' y_{i'',l} a_{i''}^(b))
//! ```
//!
//! The per-link *width* is the rate that link could sustain if the TT
//! were added on top of the bits already routed there. Maximizing the
//! minimum width is the classic widest-path (bottleneck shortest path)
//! problem, solved by a modified Dijkstra in `O(|L| log |N|)`.
//!
//! There is one implementation over the flat [`CsrNetwork`] arrays
//! ([`csr_widest_path_with`] for one route, [`csr_widest_tree`] for
//! every source of one target at once), and both run in one buffer type,
//! [`CsrWidestTree`]. Their queue is one [`BinaryHeap`] ordered by
//! `(width, node)`, the oracle's queue: the widest entry pops first, and
//! on equal widths the larger node id. `-0.0` and `0.0` tie, so a
//! negative-zero link bandwidth routes like a zero one.
//!
//! Ground truth is a single-heap Dijkstra over a nested adjacency built
//! from the network's link list, kept in the dev-only `sparcle-oracle`
//! crate next to an exhaustive search;
//! `crates/core/tests/` and `tests/csr_equivalence.rs` compare the
//! searches here against the heap search bit for bit, and against the
//! exhaustive one by optimum width.
//!
//! ## The stub short-circuit
//!
//! The searches skip *queueing* a node that could
//! relay nothing: when a sweep relaxes `u → v` and every arc the sweep
//! would follow out of `v` leads straight back to `u`
//! ([`CsrNetwork::all_in_arcs_from`] for the reversed tree sweep,
//! [`CsrNetwork::all_out_arcs_to`] for the forward search), `φ[v]` and
//! `v`'s parent are set but `v` is not pushed. Popping `v` could only
//! have looked at `u`, which is already final, so nothing it would have
//! done is lost; and because queue entries are totally ordered by
//! `(width, node)`, removing `v`'s entries changes neither the order in
//! which any *other* node pops nor, therefore, any `φ`, parent link or
//! tie-break. `v` stays un-`done`, so a later relaxation from a third
//! node still reaches it exactly as before (it can no longer improve
//! `φ[v]` once `v` would have popped, since pops are non-increasing).
//! The forward search never skips its destination. The oracle's
//! searches stay plain, and the core proptests prove the short-circuit
//! against them.

use sparcle_model::{CapacityMap, CsrNetwork, LinkId, LinkLoads, NcpId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A widest path between two NCPs.
#[derive(Debug, Clone, PartialEq)]
pub struct WidestPath {
    /// Links in traversal order from source to destination (empty when
    /// source equals destination).
    pub links: Vec<LinkId>,
    /// The bottleneck width: the processing rate the narrowest link of
    /// this path would impose on the TT (`f64::INFINITY` for the empty
    /// path).
    pub width: f64,
}

/// Computes the per-link width for TT bits `tt_bits` on link `link`:
/// `C_l / (a_k + current load)`, or `f64::INFINITY` when the denominator
/// is zero (a zero-bit TT on an unloaded link imposes no constraint).
#[inline]
pub fn link_width<L: LinkLoads + ?Sized>(
    capacities: &CapacityMap,
    load: &L,
    link: LinkId,
    tt_bits: f64,
) -> f64 {
    let denom = tt_bits + load.link(link);
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        capacities.link(link) / denom
    }
}

/// Heap entry `(width, node)`, ordered by width, then node id (max-heap).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate(f64, NcpId);

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Widths are never NaN (capacities and loads are finite,
        // denominators positive or the width is +inf).
        self.0
            .partial_cmp(&other.0)
            .expect("path widths are never NaN")
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Parent-pointer sentinel in the flat search arrays: "no predecessor".
const NO_PREV: u32 = u32::MAX;

/// The reusable buffers of both CSR searches — per-node widths `φ`, SoA
/// parent pointers (`u32` + sentinel instead of `Option<(NcpId,
/// LinkId)>`), settled flags and the heap — and, after a
/// [`csr_widest_tree`] run, its result: per-source widths and the
/// witness tree.
///
/// `width_from(j)` is bit-identical to
/// `csr_widest_path(…, j, target).map(|p| p.width)`: both compute the
/// exact maximum over paths of the minimum per-link width, and no
/// arithmetic accumulation is involved, so the optimum is a unique
/// `f64` — up to the sign of a zero optimum, which over `-0.0` links
/// depends on which equal-width path a search meets first.
#[derive(Debug, Clone, Default)]
pub struct CsrWidestTree {
    phi: Vec<f64>,
    prev_node: Vec<u32>,
    prev_link: Vec<u32>,
    done: Vec<bool>,
    queue: BinaryHeap<Candidate>,
}

impl CsrWidestTree {
    /// Creates buffers sized for an `n`-NCP network.
    pub fn new(n: usize) -> Self {
        let mut tree = CsrWidestTree::default();
        tree.reset(n);
        tree
    }

    /// Sizes every buffer for a sweep over `csr`, the queue for one
    /// entry per node (the stub short-circuit keeps it far below that),
    /// so the sweeps it runs make no allocator call — the parallel γ
    /// evaluator sizes its workers' buffers on the calling thread this
    /// way.
    pub fn presize(&mut self, csr: &CsrNetwork) {
        self.reset(csr.ncp_count());
        self.queue.reserve(csr.ncp_count());
    }

    /// Clears all buffers, resizing them to `n` nodes.
    fn reset(&mut self, n: usize) {
        self.phi.clear();
        self.phi.resize(n, f64::NEG_INFINITY);
        self.prev_node.clear();
        self.prev_node.resize(n, NO_PREV);
        self.prev_link.clear();
        self.prev_link.resize(n, NO_PREV);
        self.done.clear();
        self.done.resize(n, false);
        self.queue.clear();
    }

    /// The widest `from → target` width computed by the last
    /// [`csr_widest_tree`] run, or `None` when `from` cannot reach the
    /// target at all.
    pub fn width_from(&self, from: NcpId) -> Option<f64> {
        let w = self.phi[from.index()];
        if w == f64::NEG_INFINITY {
            None
        } else {
            Some(w)
        }
    }

    /// Exchanges the per-node widths (`f64::NEG_INFINITY` = cannot reach
    /// the target) with `widths`, so a caller can keep a finished
    /// sweep's result without copying it. The next sweep resizes
    /// whatever it is handed back; until then [`Self::width_from`] reads
    /// that buffer.
    pub fn swap_widths(&mut self, widths: &mut Vec<f64>) {
        std::mem::swap(&mut self.phi, widths);
    }

    /// Calls `f` for every link of the witness tree (the union of one
    /// optimal path per reachable source), in node order. These are the
    /// links a cached γ value depends on.
    pub fn for_each_tree_link(&self, mut f: impl FnMut(LinkId)) {
        for (i, &p) in self.prev_node.iter().enumerate() {
            if p != NO_PREV {
                f(LinkId::new(self.prev_link[i]));
            }
        }
    }
}

/// [`csr_widest_path_with`] over freshly-allocated buffers; convenience
/// for tests and one-shot callers.
pub fn csr_widest_path<L: LinkLoads + ?Sized>(
    csr: &CsrNetwork,
    capacities: &CapacityMap,
    load: &L,
    tt_bits: f64,
    from: NcpId,
    to: NcpId,
) -> Option<WidestPath> {
    let mut buffers = CsrWidestTree::default();
    csr_widest_path_with(&mut buffers, csr, capacities, load, tt_bits, from, to)
}

/// Algorithm 1 over the flat CSR arrays, in the buffers `scratch`.
///
/// Returns `None` when no path exists (topologically disconnected — a
/// zero-width path is still returned, since a zero rate may be the best
/// achievable). `from == to` yields the empty path with infinite width.
///
/// Byte-identical to the oracle's heap search over
/// [`sparcle_model::Network`]: the CSR arc order equals the
/// [`sparcle_model::Network::neighbors`] order (so equal-width `prev`
/// choices match), both pop one heap on `(width, node)` (so the
/// label-setting sequence matches), and the stub short-circuit (module
/// docs) only drops pops that relax nothing.
///
/// # Examples
///
/// ```
/// use sparcle_core::widest_path::csr_widest_path;
/// use sparcle_model::{LoadMap, NetworkBuilder, ResourceVec};
///
/// let mut b = NetworkBuilder::new();
/// let [s, m, t] = ["s", "m", "t"].map(|n| b.add_ncp(n, ResourceVec::new()));
/// b.add_link("narrow", s, t, 10.0).unwrap(); // direct but narrow
/// b.add_link("wide1", s, m, 100.0).unwrap();
/// b.add_link("wide2", m, t, 80.0).unwrap();
/// let net = b.build().unwrap();
/// let (caps, load) = (net.capacity_map(), LoadMap::zeroed(&net));
/// let path = csr_widest_path(net.csr(), &caps, &load, 1.0, s, t).unwrap();
/// assert_eq!((path.links.len(), path.width), (2, 80.0)); // the wide detour wins
/// ```
pub fn csr_widest_path_with<L: LinkLoads + ?Sized>(
    scratch: &mut CsrWidestTree,
    csr: &CsrNetwork,
    capacities: &CapacityMap,
    load: &L,
    tt_bits: f64,
    from: NcpId,
    to: NcpId,
) -> Option<WidestPath> {
    if from == to {
        return Some(WidestPath {
            links: Vec::new(),
            width: f64::INFINITY,
        });
    }
    scratch.reset(csr.ncp_count());
    let CsrWidestTree {
        phi,
        prev_node,
        prev_link,
        done,
        queue,
    } = scratch;
    phi[from.index()] = f64::INFINITY;
    queue.push(Candidate(f64::INFINITY, from));
    while let Some(Candidate(width, node)) = queue.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if node == to {
            // Reconstruct the link sequence.
            let mut links = Vec::new();
            let mut at = to.index();
            while prev_node[at] != NO_PREV {
                links.push(LinkId::new(prev_link[at]));
                at = prev_node[at] as usize;
            }
            links.reverse();
            return Some(WidestPath { links, width });
        }
        let (heads, links) = csr.out_arcs(node);
        for (&head, &arc_link) in heads.iter().zip(links) {
            let neighbor = head as usize;
            if done[neighbor] {
                continue;
            }
            let link = LinkId::new(arc_link);
            let w = width.min(link_width(capacities, load, link, tt_bits));
            if w > phi[neighbor] {
                phi[neighbor] = w;
                prev_node[neighbor] = node.as_u32();
                prev_link[neighbor] = arc_link;
                // Stub short-circuit (module docs); `to` must still pop.
                if neighbor == to.index() || !csr.all_out_arcs_to(head, node.as_u32()) {
                    queue.push(Candidate(w, NcpId::new(head)));
                }
            }
        }
    }
    None
}

/// Runs the full (no early exit) reversed widest-path sweep from
/// `target` over the CSR reverse arcs, filling `tree` with `φ[j] =`
/// widest `j → target` width for every node `j` at once, plus the
/// witness tree; it never queues a stub (module docs). Sweeping the
/// *reversed* arcs is what makes one run serve every source (for
/// undirected links the reversal is a no-op; for directed links it is
/// what makes the sharing correct). Buffers are reused across calls;
/// nothing is allocated once the tree has warmed up.
pub fn csr_widest_tree<L: LinkLoads + ?Sized>(
    csr: &CsrNetwork,
    tree: &mut CsrWidestTree,
    capacities: &CapacityMap,
    load: &L,
    tt_bits: f64,
    target: NcpId,
) {
    tree.reset(csr.ncp_count());
    tree.phi[target.index()] = f64::INFINITY;
    tree.queue.push(Candidate(f64::INFINITY, target));
    while let Some(Candidate(width, node)) = tree.queue.pop() {
        if tree.done[node.index()] {
            continue;
        }
        tree.done[node.index()] = true;
        let (tails, links) = csr.in_arcs(node);
        for (&tail, &arc_link) in tails.iter().zip(links) {
            let neighbor = tail as usize;
            if tree.done[neighbor] {
                continue;
            }
            let link = LinkId::new(arc_link);
            let w = width.min(link_width(capacities, load, link, tt_bits));
            if w > tree.phi[neighbor] {
                tree.phi[neighbor] = w;
                tree.prev_node[neighbor] = node.as_u32();
                tree.prev_link[neighbor] = arc_link;
                // Stub short-circuit (module docs).
                if !csr.all_in_arcs_from(tail, node.as_u32()) {
                    tree.queue.push(Candidate(w, NcpId::new(tail)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{LoadMap, Network, NetworkBuilder, ResourceVec};

    fn diamond() -> Network {
        // s - a - t (widths 10, 10) and s - b - t (widths 4, 100).
        let mut nb = NetworkBuilder::new();
        let s = nb.add_ncp("s", ResourceVec::new());
        let a = nb.add_ncp("a", ResourceVec::new());
        let b = nb.add_ncp("b", ResourceVec::new());
        let t = nb.add_ncp("t", ResourceVec::new());
        nb.add_link("sa", s, a, 10.0).unwrap();
        nb.add_link("at", a, t, 10.0).unwrap();
        nb.add_link("sb", s, b, 4.0).unwrap();
        nb.add_link("bt", b, t, 100.0).unwrap();
        nb.build().unwrap()
    }

    fn route(net: &Network, load: &LoadMap, bits: f64, from: u32, to: u32) -> Option<WidestPath> {
        let caps = net.capacity_map();
        csr_widest_path(
            net.csr(),
            &caps,
            load,
            bits,
            NcpId::new(from),
            NcpId::new(to),
        )
    }

    #[test]
    fn picks_max_min_width_route() {
        let net = diamond();
        let p = route(&net, &LoadMap::zeroed(&net), 1.0, 0, 3).unwrap();
        assert_eq!(p.width, 10.0);
        assert_eq!(p.links, vec![LinkId::new(0), LinkId::new(1)]);
    }

    #[test]
    fn existing_load_shifts_the_choice() {
        let net = diamond();
        let mut load = LoadMap::zeroed(&net);
        // Load 4 bits on sa: width becomes 10/(1+4) = 2 < min(4/1, 100/1).
        load.add_tt_load(LinkId::new(0), 4.0);
        let p = route(&net, &load, 1.0, 0, 3).unwrap();
        assert_eq!(p.width, 4.0);
        assert_eq!(p.links, vec![LinkId::new(2), LinkId::new(3)]);
    }

    #[test]
    fn same_node_is_free() {
        let net = diamond();
        let p = route(&net, &LoadMap::zeroed(&net), 1.0, 1, 1).unwrap();
        assert!(p.links.is_empty());
        assert_eq!(p.width, f64::INFINITY);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::new());
        let b = nb.add_ncp("b", ResourceVec::new());
        nb.add_ncp("c", ResourceVec::new());
        nb.add_link("ab", a, b, 1.0).unwrap();
        let net = nb.build().unwrap();
        assert!(route(&net, &LoadMap::zeroed(&net), 1.0, 0, 2).is_none());
    }

    #[test]
    fn zero_bit_tt_on_unloaded_link_has_infinite_width() {
        let net = diamond();
        let p = route(&net, &LoadMap::zeroed(&net), 0.0, 0, 3).unwrap();
        assert_eq!(p.width, f64::INFINITY);
    }

    #[test]
    fn zero_capacity_link_gives_zero_width_path() {
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::new());
        let b = nb.add_ncp("b", ResourceVec::new());
        nb.add_link("ab", a, b, 0.0).unwrap();
        let net = nb.build().unwrap();
        let p = route(&net, &LoadMap::zeroed(&net), 1.0, 0, 1).unwrap();
        assert_eq!(p.width, 0.0);
        assert_eq!(p.links.len(), 1);
    }
}
