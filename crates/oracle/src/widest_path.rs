//! The heap-based widest-path searches — Algorithm 1 as first written,
//! kept as ground truth. They walk a nested-`Vec` adjacency that
//! [`adjacency`] builds from the network's link list alone, with one
//! `BinaryHeap`, and share nothing with the CSR searches of
//! `sparcle_core::widest_path` (nor with the [`Network`]'s own CSR
//! adjacency) but the eq. (3) width formula ([`link_width`]) and the
//! [`WidestPath`] result type; those promise the same `φ`, parent links
//! and routes bit for bit.

use sparcle_core::widest_path::{link_width, WidestPath};
use sparcle_model::{CapacityMap, LinkDirection, LinkId, LinkLoads, NcpId, Network};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by width (max-heap).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    width: f64,
    node: NcpId,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Widths are never NaN (capacities and loads are finite,
        // denominators positive or the width is +inf).
        self.width
            .partial_cmp(&other.width)
            .expect("path widths are never NaN")
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// For each NCP, the `(link, neighbor)` pairs traversable *from* it,
/// links in insertion order — built from [`Network::link`] alone, so
/// the differential suites compare the CSR against a graph it did not
/// produce.
pub fn adjacency(network: &Network) -> Vec<Vec<(LinkId, NcpId)>> {
    let mut adj = vec![Vec::new(); network.ncp_count()];
    for id in network.link_ids() {
        let link = network.link(id);
        adj[link.a().index()].push((id, link.b()));
        if link.direction() == LinkDirection::Undirected {
            adj[link.b().index()].push((id, link.a()));
        }
    }
    adj
}

/// Algorithm 1: finds the best path `P*_k(from, to)` for a TT carrying
/// `tt_bits` bits per data unit, given current residual `capacities` and
/// the bits already routed per link (`load`).
///
/// Returns `None` when no path exists (topologically disconnected — a
/// zero-width path is still returned, since a zero rate may be the best
/// achievable). `from == to` yields the empty path with infinite width.
pub fn widest_path<L: LinkLoads + ?Sized>(
    network: &Network,
    capacities: &CapacityMap,
    load: &L,
    tt_bits: f64,
    from: NcpId,
    to: NcpId,
) -> Option<WidestPath> {
    let mut scratch = DijkstraScratch::new(network.ncp_count());
    let adj = adjacency(network);
    widest_path_with(&mut scratch, &adj, capacities, load, tt_bits, from, to)
}

/// [`widest_path`] over a prebuilt [`adjacency`] and caller-owned
/// buffers: the modified Dijkstra runs entirely inside `scratch`, so
/// repeated calls allocate only the returned link vector.
///
/// The algorithm, tie-breaking, and returned value are identical to
/// [`widest_path`] — that function is a thin wrapper over this one.
pub fn widest_path_with<L: LinkLoads + ?Sized>(
    scratch: &mut DijkstraScratch,
    adj: &[Vec<(LinkId, NcpId)>],
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
    scratch.reset(adj.len());
    let DijkstraScratch {
        phi,
        prev,
        done,
        heap,
    } = scratch;
    phi[from.index()] = f64::INFINITY;
    heap.push(Candidate {
        width: f64::INFINITY,
        node: from,
    });
    while let Some(Candidate { width, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if node == to {
            // Reconstruct the link sequence.
            let mut links = Vec::new();
            let mut at = to;
            while let Some((p, l)) = prev[at.index()] {
                links.push(l);
                at = p;
            }
            links.reverse();
            heap.clear();
            return Some(WidestPath { links, width });
        }
        for &(link, neighbor) in &adj[node.index()] {
            if done[neighbor.index()] {
                continue;
            }
            let w = width.min(link_width(capacities, load, link, tt_bits));
            if w > phi[neighbor.index()] {
                phi[neighbor.index()] = w;
                prev[neighbor.index()] = Some((node, link));
                heap.push(Candidate {
                    width: w,
                    node: neighbor,
                });
            }
        }
    }
    None
}

/// Reusable buffers for the modified Dijkstra: distance (`φ`), parent
/// pointers, visited flags, and the priority queue. Holding one of these
/// in the engine makes every inner routing query allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    /// Best bottleneck width found so far per node.
    phi: Vec<f64>,
    prev: Vec<Option<(NcpId, LinkId)>>,
    done: Vec<bool>,
    heap: BinaryHeap<Candidate>,
}

impl DijkstraScratch {
    /// Creates buffers sized for an `n`-NCP network.
    pub fn new(n: usize) -> Self {
        DijkstraScratch {
            phi: vec![f64::NEG_INFINITY; n],
            prev: vec![None; n],
            done: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    /// Clears all buffers, resizing to `n` nodes if the network grew.
    fn reset(&mut self, n: usize) {
        self.phi.clear();
        self.phi.resize(n, f64::NEG_INFINITY);
        self.prev.clear();
        self.prev.resize(n, None);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
    }
}

/// The network's [`adjacency`] with every traversable arc reversed.
///
/// The batched γ evaluator wants, for one already-placed CT on host
/// `t`, the widest-path width *from every candidate host `j` to `t`* in
/// a single sweep. Running Dijkstra from `t` over the reversed arcs
/// yields exactly those `j → t` widths for all `j` at once (for
/// undirected links the reversal is a no-op; for directed links it is
/// what makes the sharing correct).
#[derive(Debug, Clone)]
pub struct ReverseAdjacency {
    adj: Vec<Vec<(LinkId, NcpId)>>,
}

impl ReverseAdjacency {
    /// Builds the reversed adjacency for `network`: visiting every node
    /// `u` in id order, `(link, u)` joins the list of each `v` that `u`'s
    /// [`adjacency`] list reaches.
    pub fn new(network: &Network) -> Self {
        let mut adj = vec![Vec::new(); network.ncp_count()];
        for (u, arcs) in network.ncp_ids().zip(adjacency(network)) {
            for (link, v) in arcs {
                adj[v.index()].push((link, u));
            }
        }
        ReverseAdjacency { adj }
    }

    /// The `(link, tail)` pairs of the arcs into `node`, in the order
    /// [`widest_tree`] relaxes them.
    pub fn arcs_into(&self, node: NcpId) -> &[(LinkId, NcpId)] {
        &self.adj[node.index()]
    }
}

/// A completed single-target widest-path sweep (see
/// [`widest_tree`]): per-source widths and the witness tree.
///
/// `width_from(j)` is bit-identical to
/// `widest_path(…, j, target).map(|p| p.width)`: both compute the exact
/// maximum over paths of the minimum per-link width, and no arithmetic
/// accumulation is involved, so the optimum is a unique `f64`.
#[derive(Debug, Clone, Default)]
pub struct WidestTree {
    phi: Vec<f64>,
    prev: Vec<Option<(NcpId, LinkId)>>,
    done: Vec<bool>,
    heap: BinaryHeap<Candidate>,
}

impl WidestTree {
    /// Creates buffers sized for an `n`-NCP network.
    pub fn new(n: usize) -> Self {
        WidestTree {
            phi: vec![f64::NEG_INFINITY; n],
            prev: vec![None; n],
            done: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    /// The widest `from → target` width computed by the last
    /// [`widest_tree`] run, or `None` when `from` cannot reach the
    /// target at all.
    pub fn width_from(&self, from: NcpId) -> Option<f64> {
        let w = self.phi[from.index()];
        if w == f64::NEG_INFINITY {
            None
        } else {
            Some(w)
        }
    }

    /// Calls `f` for every link of the witness tree (the union of one
    /// optimal path per reachable source). These are the links a cached
    /// γ value depends on.
    pub fn for_each_tree_link(&self, mut f: impl FnMut(LinkId)) {
        for entry in self.prev.iter().flatten() {
            f(entry.1);
        }
    }
}

/// Runs the full (no early exit) reversed widest-path Dijkstra from
/// `target`, filling `tree` with `φ[j] =` widest `j → target` width for
/// every node `j`, plus the witness tree. Buffers are reused across
/// calls; nothing is allocated once the tree has warmed up.
pub fn widest_tree<L: LinkLoads + ?Sized>(
    rev: &ReverseAdjacency,
    tree: &mut WidestTree,
    capacities: &CapacityMap,
    load: &L,
    tt_bits: f64,
    target: NcpId,
) {
    let n = rev.adj.len();
    tree.phi.clear();
    tree.phi.resize(n, f64::NEG_INFINITY);
    tree.prev.clear();
    tree.prev.resize(n, None);
    tree.done.clear();
    tree.done.resize(n, false);
    tree.heap.clear();
    tree.phi[target.index()] = f64::INFINITY;
    tree.heap.push(Candidate {
        width: f64::INFINITY,
        node: target,
    });
    while let Some(Candidate { width, node }) = tree.heap.pop() {
        if tree.done[node.index()] {
            continue;
        }
        tree.done[node.index()] = true;
        for &(link, neighbor) in &rev.adj[node.index()] {
            if tree.done[neighbor.index()] {
                continue;
            }
            let w = width.min(link_width(capacities, load, link, tt_bits));
            if w > tree.phi[neighbor.index()] {
                tree.phi[neighbor.index()] = w;
                tree.prev[neighbor.index()] = Some((node, link));
                tree.heap.push(Candidate {
                    width: w,
                    node: neighbor,
                });
            }
        }
    }
}

/// Brute-force widest path by exhaustive DFS over simple paths. Only for
/// verification on small networks (exponential time).
pub fn widest_path_brute_force<L: LinkLoads + ?Sized>(
    network: &Network,
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
    #[allow(clippy::too_many_arguments)]
    fn dfs<L: LinkLoads + ?Sized>(
        adj: &[Vec<(LinkId, NcpId)>],
        capacities: &CapacityMap,
        load: &L,
        tt_bits: f64,
        at: NcpId,
        to: NcpId,
        visited: &mut Vec<bool>,
        stack: &mut Vec<LinkId>,
        width: f64,
        best: &mut Option<WidestPath>,
    ) {
        if at == to {
            if best.as_ref().is_none_or(|b| width > b.width) {
                *best = Some(WidestPath {
                    links: stack.clone(),
                    width,
                });
            }
            return;
        }
        for &(link, neighbor) in &adj[at.index()] {
            if visited[neighbor.index()] {
                continue;
            }
            visited[neighbor.index()] = true;
            stack.push(link);
            let w = width.min(link_width(capacities, load, link, tt_bits));
            dfs(
                adj, capacities, load, tt_bits, neighbor, to, visited, stack, w, best,
            );
            stack.pop();
            visited[neighbor.index()] = false;
        }
    }
    let mut visited = vec![false; network.ncp_count()];
    visited[from.index()] = true;
    let mut best = None;
    dfs(
        &adjacency(network),
        capacities,
        load,
        tt_bits,
        from,
        to,
        &mut visited,
        &mut Vec::new(),
        f64::INFINITY,
        &mut best,
    );
    best
}
