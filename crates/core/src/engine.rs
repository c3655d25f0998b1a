//! Incremental placement engine shared by SPARCLE and the baselines.
//!
//! [`PlacementEngine`] tracks a partially-built [`Placement`] together
//! with its per-element [`LoadMap`], and provides the two primitives
//! every task-assignment policy in this workspace is built from:
//!
//! * [`PlacementEngine::gamma_batched`] — the paper's `γ_{i,j}`
//!   (eq. (2)): the new bottleneck processing rate if CT `i` were
//!   placed on NCP `j`, combining the host's compute headroom with
//!   widest-path bottlenecks (Algorithm 1) to every already-placed
//!   reachable CT;
//! * [`PlacementEngine::commit`] — irrevocably place a CT on a host and
//!   route (via Algorithm 1) every TT connecting it to already-placed
//!   direct neighbors, updating loads.
//!
//! SPARCLE's dynamic ranking (Algorithm 2) repeatedly commits the
//! `argmin_i max_j γ_{i,j}` choice; baselines commit in their own orders
//! (sorted, random, HEFT rank, …) but reuse the same routing, which keeps
//! the comparison about *placement policy*, exactly as in the paper.
//!
//! # The batched, incrementally-cached γ evaluator
//!
//! Evaluating eq. (2) one `(CT, NCP)` pair at a time — as the pair
//! scan of the dev-only `sparcle-oracle` crate does — costs one
//! Dijkstra per placed reachable CT *per candidate host*, which
//! dominates Algorithm 2 on large topologies. The engine therefore
//! maintains a **γ-cache** — a store of shared widest-path trees —
//! behind its entry points: [`PlacementEngine::gamma_batched`],
//! [`PlacementEngine::rank_round`] (one full Algorithm-2 ranking round,
//! optionally multi-threaded), and the invalidation hook inside
//! [`PlacementEngine::commit_with`].
//!
//! ## Caching contract: the tree store
//!
//! γ splits as `γ_{i,j} = min(host_rate(i, j), net_γ(i, j))`. The host
//! term is cheap and always computed fresh; only the network term is
//! cached, and on one level.
//!
//! The unit that is computed, shared and kept is one reversed
//! widest-path sweep ([`crate::widest_path::csr_widest_tree`]): for a
//! *key* `(target host, TT bits)` it yields `φ[j]`, the widest
//! `j → target` width for every host `j` at once, and a **witness**:
//! the links of the sweep's parent tree, i.e. one optimal path per
//! source. A tree is a pure function of its key and the link loads — it
//! does not know which CT asked — so the engine keeps finished trees in
//! a small **tree store** keyed that way. Two CTs whose reach sets name
//! the same host with the same bits share one sweep, and so does one CT
//! across rounds.
//!
//! `net_γ(i, j)` is read straight off the store: the `min`, over the
//! entries of CT `i`'s reach set (its placed reachable CTs,
//! [`TaskGraph::placed_reachable`]), of the named trees' `φ[j]` —
//! `NEG_INFINITY` as soon as one target is unreachable, which `min`
//! propagates by itself. That is `O(|reach|)` sweeps at most for all
//! `|N|` hosts, instead of the pair scan's `O(|reach| · |N|)`, and none
//! at all when the trees are already stored; exact equality with the
//! pair scan holds because both take the same `min` over the same
//! unique widest-path widths. Reach sets are re-gathered on every
//! evaluation, so nothing that depends on *which* CTs are placed is
//! ever cached.
//!
//! The store stays valid under commits because element loads only ever
//! *increase* during an engine's lifetime (commits add load, nothing
//! subtracts it), so link widths only decrease. There is one survival
//! rule: [`PlacementEngine::commit_with`] drops a tree iff a link the
//! commit routed load onto is in its witness.
//!
//! A surviving tree is **bit-identical** to a fresh sweep, in `φ` *and*
//! in parent links. Its witness paths' links are untouched, so those
//! paths still achieve the stored widths, while every alternative's
//! width can only have decreased — the old optimum is still the
//! optimum, as an exact `f64`. For the parents, replay the fresh sweep
//! next to the old one: every relaxation now offers at most what it
//! offered then, and the tree-link relaxations offer exactly the same;
//! so by induction the same node tops the queue at every pop (its final
//! label is unchanged, nobody else's grew, ties still break by node
//! id), and each node's parent is still set by the same relaxation —
//! the first to reach the final width, since everything earlier stayed
//! strictly below it. Equal parents mean an equal witness, so a
//! survivor is invalidated later by exactly the commits that would
//! invalidate a tree swept afresh: the store's hit/miss sequence does
//! not depend on how long a tree has been kept.
//!
//! A tree is **evicted** by the first ranking round whose reach sets no
//! longer name its key (a placed CT that stopped being reachable never
//! becomes reachable again), so the store holds a handful of `φ`
//! vectors, not one per sweep ever run.
//! ([`PlacementEngine::audit_caches`], `tests/parallel_equivalence.rs`
//! and the γ- and tree-staleness proptests enforce all of this.)
//!
//! ## Deterministic tie-break and thread-count independence
//!
//! [`PlacementEngine::rank_round`] always resolves its choice by
//!
//! 1. per CT, the host with the **largest** γ, ties toward the **lower
//!    `NcpId`**;
//! 2. across CTs, the candidate with the **smallest** best-γ, ties
//!    toward the **lower `CtId`**.
//!
//! Worker threads only compute missing trees — each a pure function of
//! its key and the engine state, landing in a slot fixed before the
//! workers start — while the key gathering and the ranking scan are
//! serial, so the committed placement, the counters and the store's
//! contents are identical for every thread count, and the placement
//! identical to the oracle's serial uncached pair scan
//! (`sparcle_oracle::assign_reference`; `tests/parallel_equivalence.rs`
//! and `tests/csr_equivalence.rs` compare the two at 1, 2 and 8
//! threads).

use crate::error::AssignError;
use crate::trace::TraceHandle;
use crate::widest_path::{csr_widest_path_with, csr_widest_tree, CsrScratch, CsrWidestTree};
use sparcle_model::{
    Application, CapacityMap, CsrNetwork, CtId, LinkId, LoadMap, NcpId, Network, Placement,
    ReachScratch, ReachablePlacedCt, TaskGraph, TtId,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sparcle_telemetry::{
    Candidate, CommitRecord, CtTieBreak, Event, HostTieBreak, PlacementDecision,
};

/// How [`PlacementEngine::commit_with`] routes transport tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Algorithm 1: maximize the minimum load-aware link width.
    #[default]
    Widest,
    /// Plain hop-count shortest path (what a non-network-aware scheduler
    /// effectively gets from the underlay).
    FewestHops,
}

/// Hop-count shortest path between two NCPs (BFS), ignoring loads and
/// capacities. Returns `None` when disconnected, `Some(vec![])` when
/// `from == to`.
pub fn fewest_hops_path(
    network: &Network,
    from: NcpId,
    to: NcpId,
) -> Option<Vec<sparcle_model::LinkId>> {
    use std::collections::VecDeque;
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: Vec<Option<(NcpId, sparcle_model::LinkId)>> = vec![None; network.ncp_count()];
    let mut seen = vec![false; network.ncp_count()];
    seen[from.index()] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for (link, v) in network.neighbors(u) {
            if seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            prev[v.index()] = Some((u, link));
            if v == to {
                let mut links = Vec::new();
                let mut at = to;
                while let Some((p, l)) = prev[at.index()] {
                    links.push(l);
                    at = p;
                }
                links.reverse();
                return Some(links);
            }
            queue.push_back(v);
        }
    }
    None
}

/// A fixed-size bitset over the network's links.
#[derive(Debug, Clone, Default, PartialEq)]
struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// Empties the set and sizes it for `links` links, keeping the
    /// allocation.
    fn reset(&mut self, links: usize) {
        self.words.clear();
        self.words.resize(links.div_ceil(64), 0);
    }

    fn insert(&mut self, link: LinkId) {
        self.words[link.index() / 64] |= 1 << (link.index() % 64);
    }

    fn intersects(&self, other: &LinkSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }
}

/// What one widest-path tree is a function of, besides the link loads:
/// the sweep's target host and the TT bits its widths are sized for.
/// Bits compare by representation, so `0.0` and `-0.0` are two keys —
/// harmless, each gets its own (identical) tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TreeKey {
    target: NcpId,
    bits: u64,
}

impl TreeKey {
    fn new(target: NcpId, min_bits: f64) -> Self {
        TreeKey {
            target,
            bits: min_bits.to_bits(),
        }
    }

    fn min_bits(self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// One stored widest-path tree: `phi[j]` is the widest `j → target`
/// width (`NEG_INFINITY` when `j` cannot reach the target) and `witness`
/// the links of the sweep's parent tree. The parent pointers, visited
/// flags and queue stay in the sweep buffers the tree was cut from. A
/// tree never outlives the engine (and so the loads) it was swept for.
#[derive(Debug, Clone)]
struct StoredTree {
    key: TreeKey,
    phi: Vec<f64>,
    witness: LinkSet,
}

/// The γ-cache (module docs, "Caching contract"). A handful of trees at
/// a time — one per distinct `(target, bits)` the unplaced CTs' reach
/// sets name — so lookup is a linear scan. Dropped trees park in `free`,
/// which is all that survives into the next engine built over the same
/// [`EngineScratch`].
#[derive(Debug, Clone, Default)]
struct TreeStore {
    live: Vec<StoredTree>,
    free: Vec<StoredTree>,
}

impl TreeStore {
    /// Where in `live` the tree for `key` sits, if stored.
    fn position(&self, key: TreeKey) -> Option<usize> {
        self.live.iter().position(|t| t.key == key)
    }

    /// A recycled (or new) buffer labelled `key`, for
    /// [`EvalView::fill_tree`] to overwrite.
    fn fresh(&mut self, key: TreeKey) -> StoredTree {
        let (phi, witness) = self
            .free
            .pop()
            .map(|tree| (tree.phi, tree.witness))
            .unwrap_or_default();
        StoredTree { key, phi, witness }
    }

    /// `net_γ(·, host)` for a reach set whose trees sit at `slots`: the
    /// `min` of their widths from `host` — `NEG_INFINITY` as soon as one
    /// target is unreachable, `INFINITY` for an empty reach set.
    fn net_gamma(&self, slots: &[usize], host: NcpId) -> f64 {
        slots.iter().fold(f64::INFINITY, |net, &tree| {
            net.min(self.live[tree].phi[host.index()])
        })
    }

    /// Drops every live tree `stale` selects, keeping its buffers.
    fn retire(&mut self, mut stale: impl FnMut(&StoredTree) -> bool) {
        let mut i = 0;
        while i < self.live.len() {
            if stale(&self.live[i]) {
                self.free.push(self.live.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
}

/// Reusable assignment buffers a long-lived caller hoists across engine
/// lifetimes: the serial sweep buffers, the routing scratch, the tree
/// store's `phi`/witness buffers, the reach-set traversal, and the
/// per-evaluation and per-commit work lists. A fresh engine allocates
/// these lazily per assignment; the system's rollback-only probe paths
/// (γ reconcile probes, defrag migration probes) run thousands of
/// assignments over one network, so taking the buffers from — and
/// returning them to — a hoisted `EngineScratch` keeps warm probes off
/// the allocator for every content-independent buffer
/// (`tests/alloc_free.rs` holds the probe loop to it).
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    sweep: CsrWidestTree,
    route: CsrScratch,
    trees: TreeStore,
    /// One evaluation (a ranking round, or a single probe): the tree
    /// keys of the evaluated CTs' reach sets (all CTs back to back,
    /// `need_ends[i]` closing the `i`-th unplaced CT's run), where in
    /// the store each key's tree sits, and the distinct keys the store
    /// lacks.
    reach: ReachScratch,
    reached: Vec<ReachablePlacedCt>,
    needs: Vec<TreeKey>,
    need_ends: Vec<usize>,
    slots: Vec<usize>,
    compute: Vec<TreeKey>,
    /// Commit: the links its routes loaded, and its incident TTs in
    /// routing order.
    touched: LinkSet,
    incident: Vec<TtId>,
}

/// Bitwise equality of two width vectors.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `f`, returning the wall-clock nanoseconds it took — or 0,
/// without reading the clock, when `timed` is off.
fn timed_ns(timed: bool, f: impl FnOnce()) -> u64 {
    if !timed {
        f();
        return 0;
    }
    let started = std::time::Instant::now();
    f();
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The read-only engine state trees and reach sets are pure functions
/// of. Borrowing it field-by-field (rather than `&self`) is what lets
/// worker threads share it while each owns a private sweep buffer.
struct EvalView<'e> {
    graph: &'e TaskGraph,
    placement: &'e Placement,
    placed: &'e [bool],
    capacities: &'e CapacityMap,
    load: &'e LoadMap,
    csr: &'e CsrNetwork,
    link_count: usize,
}

impl EvalView<'_> {
    /// Computes the tree `tree.key` names under the current loads: one
    /// reversed widest-path sweep, its widths moved (not copied) into
    /// `tree.phi` and its parent links recorded in `tree.witness`.
    fn fill_tree(&self, tree: &mut StoredTree, sweep: &mut CsrWidestTree) {
        let (target, bits) = (tree.key.target, tree.key.min_bits());
        tree.witness.reset(self.link_count);
        csr_widest_tree(self.csr, sweep, self.capacities, self.load, bits, target);
        sweep.for_each_tree_link(|l| tree.witness.insert(l));
        sweep.swap_widths(&mut tree.phi);
    }

    /// The tree keys of `ct`'s reach set, in reach-set order, appended
    /// to `keys`.
    fn reach_keys(
        &self,
        ct: CtId,
        reach: &mut ReachScratch,
        reached: &mut Vec<ReachablePlacedCt>,
        keys: &mut Vec<TreeKey>,
    ) {
        self.graph
            .placed_reachable_into(ct, |c| self.placed[c.index()], reach, reached);
        keys.extend(reached.iter().map(|r| {
            let target = self
                .placement
                .ct_host(r.ct)
                .expect("reachable CTs are placed");
            TreeKey::new(target, r.min_bits)
        }));
    }
}

/// The result of a completed task assignment: one *task assignment path*.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedPath {
    /// The full mapping of CTs to NCPs and TTs to link routes.
    pub placement: Placement,
    /// The per-data-unit load this path puts on every element.
    pub load: LoadMap,
    /// The maximum stable processing rate (objective (1a)) under the
    /// capacities the assignment was computed against.
    pub rate: f64,
}

/// γ-cache work counters for one assignment (or an accumulation across
/// assignments via [`AssignStats::merge`]).
///
/// Unlike the `gamma_cache.*` telemetry counters — which require a
/// recorder — these are part of the engine proper, so online consumers
/// (the runtime's observability monitor, `SparcleSystem`'s state stats)
/// can read cache behaviour of an untraced run. All fields are deterministic
/// functions of the input: the set of trees an evaluation lacks does not
/// depend on the worker-thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Ranking rounds executed ([`PlacementEngine::rank_round`]).
    pub rank_rounds: u64,
    /// Tree-store hits: reach-set entries, over every evaluation, whose
    /// tree was already stored or computed for another entry of the same
    /// evaluation. With [`Self::cache_misses`] this adds up to the
    /// sweeps an evaluator without the store would have run.
    pub cache_hits: u64,
    /// Widest-path trees computed (one Algorithm-1 sweep each).
    pub cache_misses: u64,
}

impl AssignStats {
    /// Folds another stats record into this one.
    pub fn merge(&mut self, other: &AssignStats) {
        self.rank_rounds += other.rank_rounds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// Incremental, load-tracking placement state for one application.
#[derive(Debug, Clone)]
pub struct PlacementEngine<'a> {
    app: &'a Application,
    network: &'a Network,
    capacities: &'a CapacityMap,
    placement: Placement,
    load: LoadMap,
    placed: Vec<bool>,
    /// The flat view the sweeps and the router traverse.
    csr: Arc<CsrNetwork>,
    /// The γ-cache (the tree store, see module docs) and every reusable
    /// work buffer. Methods that need it next to [`Self::eval_view`]
    /// move it out for their duration.
    scratch: EngineScratch,
    /// Telemetry sink (possibly disconnected).
    trace: TraceHandle<'a>,
    /// Always-compiled γ-cache work counters (see [`AssignStats`]).
    stats: AssignStats,
    /// Ranking rounds completed (numbers the decision events).
    round: u64,
}

impl<'a> PlacementEngine<'a> {
    /// Creates an engine and commits the application's pinned CTs (data
    /// sources, result consumers, and any explicitly pinned interior CT),
    /// routing TTs between pinned neighbors — Algorithm 2 lines 1–5.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::Model`] if a pinned host is outside the
    /// network and [`AssignError::NoRoute`] if two pinned neighbor CTs
    /// have topologically disconnected hosts.
    pub fn new(
        app: &'a Application,
        network: &'a Network,
        capacities: &'a CapacityMap,
    ) -> Result<Self, AssignError> {
        Self::new_traced(app, network, capacities, TraceHandle::none())
    }

    /// Like [`Self::new`], with a telemetry handle the engine records
    /// decision/commit events and γ-cache counters into. Pass
    /// [`TraceHandle::none`] (or call [`Self::new`]) to trace nothing.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn new_traced(
        app: &'a Application,
        network: &'a Network,
        capacities: &'a CapacityMap,
        trace: TraceHandle<'a>,
    ) -> Result<Self, AssignError> {
        Self::new_traced_with_scratch(
            app,
            network,
            capacities,
            trace,
            &mut EngineScratch::default(),
        )
    }

    /// Like [`Self::new_traced`], taking the reusable buffers
    /// out of a caller-hoisted [`EngineScratch`] instead of allocating
    /// fresh ones. Pair with [`Self::reclaim_scratch`] to hand them back
    /// once the assignment is done; warmed buffers make repeated
    /// assignments (probe loops) allocation-free for every
    /// content-independent structure.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn new_traced_with_scratch(
        app: &'a Application,
        network: &'a Network,
        capacities: &'a CapacityMap,
        trace: TraceHandle<'a>,
        scratch: &mut EngineScratch,
    ) -> Result<Self, AssignError> {
        app.check_against_network(network)?;
        assert_eq!(
            capacities.ncp_count(),
            network.ncp_count(),
            "capacity map must match the network shape"
        );
        let mut engine = PlacementEngine {
            app,
            network,
            capacities,
            placement: Placement::empty(app.graph()),
            load: LoadMap::zeroed(network),
            placed: vec![false; app.graph().ct_count()],
            csr: Arc::clone(network.csr()),
            scratch: std::mem::take(scratch),
            trace,
            stats: AssignStats::default(),
            round: 0,
        };
        // Trees describe one engine's loads; only buffers carry over.
        engine.scratch.trees.retire(|_| true);
        for (&ct, &host) in app.pinned() {
            if let Err(e) = engine.commit(ct, host) {
                // A rejected pin must not swallow the caller's buffers.
                engine.reclaim_scratch(scratch);
                return Err(e);
            }
        }
        Ok(engine)
    }

    /// The telemetry handle this engine records into.
    pub fn trace(&self) -> TraceHandle<'a> {
        self.trace
    }

    /// The application being placed.
    pub fn app(&self) -> &Application {
        self.app
    }

    /// The network being placed onto.
    pub fn network(&self) -> &Network {
        self.network
    }

    /// The capacities the engine optimizes against.
    pub fn capacities(&self) -> &CapacityMap {
        self.capacities
    }

    /// The placement built so far.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The loads accumulated so far.
    pub fn load(&self) -> &LoadMap {
        &self.load
    }

    /// Whether `ct` has been committed.
    pub fn is_placed(&self, ct: CtId) -> bool {
        self.placed[ct.index()]
    }

    /// CTs not yet committed, in id order (the paper's set `C_u`).
    ///
    /// Allocation-free: the ranking loop calls this every round, so it
    /// yields ids lazily instead of collecting a fresh `Vec` (the
    /// scaling bench asserts the steady-state loop allocates nothing).
    pub fn unplaced(&self) -> impl Iterator<Item = CtId> + '_ {
        self.app
            .graph()
            .ct_ids()
            .filter(|&ct| !self.placed[ct.index()])
    }

    /// The *compute-only* part of `γ_{i,j}`: the rate the host NCP alone
    /// would impose, `min_r C_j^(r) / (a_i^(r) + Σ_{i''} y_{i'',j}
    /// a_{i''}^(r))`, ignoring every link. This is what a scheduler that
    /// does "not consider the connecting TTs' resource requirements"
    /// (the paper's GS/GRand baselines) optimizes.
    pub fn host_rate(&self, ct: CtId, host: NcpId) -> f64 {
        self.capacities
            .ncp(host)
            .rate_supported_sum(self.load.ncp(host), self.app.graph().ct(ct).requirement())
            .unwrap_or(f64::INFINITY)
    }

    /// Places `ct` on `host` and routes every TT between `ct` and an
    /// already-placed direct neighbor on its widest path (recomputed at
    /// commit time with current loads), updating the engine's loads.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::NoRoute`] if a neighbor's host is
    /// unreachable from `host`.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is already placed.
    pub fn commit(&mut self, ct: CtId, host: NcpId) -> Result<(), AssignError> {
        self.commit_with(ct, host, RoutePolicy::Widest)
    }

    /// Like [`Self::commit`] but with an explicit TT routing policy.
    /// Baseline algorithms that are not network-aware route by hop count
    /// ([`RoutePolicy::FewestHops`]); SPARCLE routes by Algorithm 1
    /// ([`RoutePolicy::Widest`]).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::NoRoute`] if a neighbor's host is
    /// unreachable from `host`.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is already placed.
    pub fn commit_with(
        &mut self,
        ct: CtId,
        host: NcpId,
        policy: RoutePolicy,
    ) -> Result<(), AssignError> {
        assert!(!self.placed[ct.index()], "{ct} is already placed");
        let commit_span = self.trace.span("engine.commit");
        let mut scratch = std::mem::take(&mut self.scratch);
        self.placement.place_ct(ct, host);
        self.placed[ct.index()] = true;
        self.load
            .add_ct_load(host, self.app.graph().ct(ct).requirement());
        scratch.touched.reset(self.network.link_count());
        let routed = self.route_incident(ct, policy, &mut scratch);
        // Invalidate even on a routing error: loads added before the
        // failure are real, and callers may keep using the engine.
        let EngineScratch { touched, trees, .. } = &mut scratch;
        let stored = trees.live.len();
        trees.retire(|t| t.witness.intersects(touched));
        let invalidated_witness = (stored - trees.live.len()) as u64;
        self.scratch = scratch;
        self.trace.counter("engine.commits", 1);
        self.trace
            .counter("gamma_cache.invalidated_witness", invalidated_witness);
        if self.trace.is_enabled() {
            let (routed_tts, routed_hops) = routed.as_ref().ok().copied().unwrap_or((0, 0));
            self.trace.event(&Event::Commit(CommitRecord {
                ct: ct.index() as u32,
                host: host.index() as u32,
                invalidated_witness,
                routed_tts,
                routed_hops,
            }));
        }
        // A failed route leaves the span to drop: its close is marked
        // aborted, flagging the error path in profiles.
        if routed.is_ok() {
            commit_span.finish();
        }
        routed.map(|_| ())
    }

    /// Routes every TT between `ct` and an already-placed direct neighbor
    /// under `policy`, recording routed links in `scratch.touched`. TTs
    /// go cheapest-bits first so heavyweight TTs see the most up-to-date
    /// loads last (ordering is a heuristic; the paper routes them one at
    /// a time). Returns `(routed TTs, total link hops)` for telemetry.
    fn route_incident(
        &mut self,
        ct: CtId,
        policy: RoutePolicy,
        scratch: &mut EngineScratch,
    ) -> Result<(u64, u64), AssignError> {
        let route_span = self.trace.span("engine.route");
        let graph = self.app.graph();
        let mut routed_tts = 0u64;
        let mut routed_hops = 0u64;
        let EngineScratch {
            incident,
            touched,
            route,
            ..
        } = scratch;
        incident.clear();
        incident.extend(graph.incident_edges(ct));
        incident.sort_by(|&a, &b| {
            graph
                .tt(a)
                .bits_per_unit()
                .total_cmp(&graph.tt(b).bits_per_unit())
        });
        for &tt in incident.iter() {
            let t = graph.tt(tt);
            let other = t.other_endpoint(ct).expect("incident edge");
            if !self.placed[other.index()] {
                continue;
            }
            let from_host = self.placement.ct_host(t.from()).expect("placed");
            let to_host = self.placement.ct_host(t.to()).expect("placed");
            let links = match policy {
                RoutePolicy::Widest => csr_widest_path_with(
                    route,
                    &self.csr,
                    self.capacities,
                    &self.load,
                    t.bits_per_unit(),
                    from_host,
                    to_host,
                )
                .map(|p| p.links),
                RoutePolicy::FewestHops => fewest_hops_path(self.network, from_host, to_host),
            }
            .ok_or(AssignError::NoRoute {
                tt,
                from: from_host,
                to: to_host,
            })?;
            for &link in &links {
                self.load.add_tt_load(link, t.bits_per_unit());
                touched.insert(link);
            }
            routed_tts += 1;
            routed_hops += links.len() as u64;
            self.placement.route_tt(tt, links);
        }
        route_span.finish();
        Ok((routed_tts, routed_hops))
    }

    /// The read-only state snapshot trees and reach sets are computed
    /// from.
    fn eval_view(&self) -> EvalView<'_> {
        EvalView {
            graph: self.app.graph(),
            placement: &self.placement,
            placed: &self.placed,
            capacities: self.capacities,
            load: &self.load,
            csr: &self.csr,
            link_count: self.network.link_count(),
        }
    }

    /// Makes the store hold a tree for every key in `scratch.needs`:
    /// lists the distinct keys it lacks and computes them — the unit up
    /// to `threads` workers steal (module docs, "Caching contract") —
    /// then records in `scratch.slots` where each key's tree sits.
    /// Returns the evaluation's `(hits, misses)`. Takes the engine's
    /// scratch by argument because the caller has it moved out already.
    fn fill_trees(&mut self, scratch: &mut EngineScratch, threads: usize) -> (u64, u64) {
        let EngineScratch {
            sweep,
            trees,
            needs,
            slots,
            compute,
            ..
        } = scratch;
        compute.clear();
        for &key in needs.iter() {
            if trees.position(key).is_none() && !compute.contains(&key) {
                compute.push(key);
            }
        }
        let (hits, misses) = ((needs.len() - compute.len()) as u64, compute.len() as u64);
        let view = self.eval_view();
        // Workers never touch the recorder (so `Recorder` needs no
        // `Sync` bound): fill times are collected as plain data and
        // recorded serially.
        let timed = self.trace.is_enabled();
        let workers = threads.max(1).min(compute.len());
        if workers > 1 {
            let slots: Vec<Mutex<(StoredTree, u64)>> = compute
                .iter()
                .map(|&key| Mutex::new((trees.fresh(key), 0)))
                .collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut sweep = CsrWidestTree::default();
                        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let mut slot = slot.lock().expect("one worker per tree slot");
                            let (tree, ns) = &mut *slot;
                            *ns = timed_ns(timed, || view.fill_tree(tree, &mut sweep));
                        }
                    });
                }
            });
            for slot in slots {
                let (tree, ns) = slot.into_inner().expect("workers have joined");
                if timed {
                    self.trace.timing("engine.tree_fill_ns", ns);
                }
                trees.live.push(tree);
            }
        } else {
            for &key in compute.iter() {
                let mut tree = trees.fresh(key);
                let ns = timed_ns(timed, || view.fill_tree(&mut tree, sweep));
                if timed {
                    self.trace.timing("engine.tree_fill_ns", ns);
                }
                trees.live.push(tree);
            }
        }
        slots.clear();
        slots.extend(needs.iter().map(|&key| {
            trees
                .position(key)
                .expect("every needed tree is stored now")
        }));
        self.stats.cache_hits += hits;
        self.stats.cache_misses += misses;
        self.trace.counter("gamma_cache.hits", hits);
        self.trace.counter("gamma_cache.misses", misses);
        (hits, misses)
    }

    /// The paper's `γ_{i,j}` (eq. (2)): the bottleneck processing rate
    /// that results from hypothetically placing CT `i` on NCP `j`,
    /// considering
    ///
    /// * the host's compute headroom
    ///   `min_r C_j^(r) / (a_i^(r) + Σ_{i''} y_{i'',j} a_{i''}^(r))`, and
    /// * for every already-placed reachable CT `i'` (through unplaced
    ///   intermediates), the widest-path bottleneck from `j` to `h(i')`
    ///   for the cheapest TT in `G(i, i')` (Algorithm 2 lines 10–13).
    ///
    /// Returns `None` when some reachable placed CT cannot be routed to
    /// from `j` at all (placing `i` there would strand a TT).
    ///
    /// Served from the γ-cache: computes (or reuses) the trees `ct`'s
    /// reach set names — evicting none, so a caller's per-host loop
    /// sweeps once — then combines their widths at `host` with a fresh
    /// host term. Bit-identical to the oracle's uncached pair scan — the
    /// core proptests hold it to that at every Algorithm-2 step.
    pub fn gamma_batched(&mut self, ct: CtId, host: NcpId) -> Option<f64> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let EngineScratch {
            reach,
            reached,
            needs,
            ..
        } = &mut scratch;
        needs.clear();
        self.eval_view().reach_keys(ct, reach, reached, needs);
        self.fill_trees(&mut scratch, 1);
        let net = scratch.trees.net_gamma(&scratch.slots, host);
        self.scratch = scratch;
        (net != f64::NEG_INFINITY).then(|| self.host_rate(ct, host).min(net))
    }

    /// One ranking round of Algorithm 2 over the γ-cache: returns the
    /// `argmin_i max_j γ_{i,j}` choice `(i*, j*, γ)` among unplaced CTs,
    /// or `None` when everything is placed. Missing trees are computed
    /// by up to `threads` worker threads; the choice is identical for
    /// every `threads` value and identical to the oracle's serial pair
    /// scan (module docs describe the tie-break).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::NoHostForCt`] for the lowest-id unplaced CT
    /// that no host can route — exactly where the oracle's scan stops.
    pub fn rank_round(
        &mut self,
        threads: usize,
    ) -> Result<Option<(CtId, NcpId, f64)>, AssignError> {
        if self.unplaced().next().is_none() {
            return Ok(None);
        }
        let round_span = self.trace.span("engine.rank_round");
        self.stats.rank_rounds += 1;
        // One pass over the graph gathers every unplaced CT's reach set
        // as tree keys into the (reused) scratch — no per-round
        // allocation once it has grown to its high-water mark.
        let fill_span = self.trace.span("engine.tree_fill");
        let mut scratch = std::mem::take(&mut self.scratch);
        let EngineScratch {
            trees,
            reach,
            reached,
            needs,
            need_ends,
            ..
        } = &mut scratch;
        needs.clear();
        need_ends.clear();
        let view = self.eval_view();
        for ct in self.unplaced() {
            view.reach_keys(ct, reach, reached, needs);
            need_ends.push(needs.len());
        }
        // A tree no key of this round names is one no reach set names
        // any more: evict it (its buffers serve the fill).
        trees.retire(|t| !needs.contains(&t.key));
        let (cache_hits, cache_misses) = self.fill_trees(&mut scratch, threads);
        self.scratch = scratch;
        fill_span.finish();
        let merge_span = self.trace.span("engine.rank_merge");
        // Serial merge straight off the stored trees — per host the
        // `min` of the `φ` the CT's reach set names; the strict
        // comparisons are the tie-breaks of the module docs.
        let EngineScratch {
            trees,
            need_ends,
            slots,
            ..
        } = &self.scratch;
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut ct_tied = false;
        let mut pick: Option<(f64, CtId, NcpId)> = None;
        let mut first = 0;
        for (ct, &end) in self.unplaced().zip(need_ends) {
            let reach = &slots[first..end];
            first = end;
            let mut best: Option<(NcpId, f64)> = None;
            let mut host_tied = false;
            for host in self.network.ncp_ids() {
                let net = trees.net_gamma(reach, host);
                if net == f64::NEG_INFINITY {
                    continue;
                }
                let g = self.host_rate(ct, host).min(net);
                if best.is_none_or(|(_, bg)| g > bg) {
                    best = Some((host, g));
                    host_tied = false;
                } else if best.is_some_and(|(_, bg)| g == bg) {
                    host_tied = true;
                }
            }
            let (host, g) = best.ok_or(AssignError::NoHostForCt(ct))?;
            if self.trace.is_enabled() {
                candidates.push(Candidate {
                    ct: ct.index() as u32,
                    host: host.index() as u32,
                    gamma: g,
                    host_tie: if host_tied {
                        HostTieBreak::LowerNcpId
                    } else {
                        HostTieBreak::UniqueMax
                    },
                });
            }
            if pick.is_none_or(|(bg, _, _)| g < bg) {
                pick = Some((g, ct, host));
                ct_tied = false;
            } else if pick.is_some_and(|(bg, _, _)| g == bg) {
                ct_tied = true;
            }
        }
        let (g, ct, host) = pick.expect("unplaced set is non-empty");
        merge_span.finish();
        self.trace.counter("engine.rank_rounds", 1);
        if self.trace.is_enabled() {
            self.trace.event(&Event::Decision(PlacementDecision {
                round: self.round,
                candidates,
                ct: ct.index() as u32,
                host: host.index() as u32,
                gamma: g,
                tie_break: if ct_tied {
                    CtTieBreak::LowerCtId
                } else {
                    CtTieBreak::UniqueMin
                },
                cache_hits,
                cache_misses,
            }));
        }
        self.round += 1;
        round_span.finish();
        Ok(Some((ct, host, g)))
    }

    /// The γ-cache work counters accumulated by this engine so far.
    pub fn stats(&self) -> AssignStats {
        self.stats
    }

    /// Recomputes every stored tree from scratch — a plain sweep under
    /// the current loads, sharing nothing with the store — and compares
    /// the two bit for bit, widths and witness links. The check behind
    /// the "a survivor equals a fresh sweep" half of the caching
    /// contract (module docs); the staleness proptests run it after
    /// every commit.
    ///
    /// # Errors
    ///
    /// Names the first tree that differs.
    pub fn audit_caches(&self) -> Result<(), String> {
        let view = self.eval_view();
        let mut sweep = CsrWidestTree::default();
        for tree in &self.scratch.trees.live {
            let mut again = TreeStore::default().fresh(tree.key);
            view.fill_tree(&mut again, &mut sweep);
            if !bits_eq(&again.phi, &tree.phi) || again.witness != tree.witness {
                return Err(format!("stored tree {:?} is stale", tree.key));
            }
        }
        Ok(())
    }

    /// Hands the reusable buffers back to a caller-hoisted
    /// [`EngineScratch`] so the *next* engine built over it starts warm.
    /// Call once the ranking loop is done — [`Self::finish`] does not
    /// touch any of these buffers. Reclaiming into a different scratch
    /// than the one the engine was built from is harmless (the buffers
    /// carry no placement content, only capacity).
    pub fn reclaim_scratch(&mut self, scratch: &mut EngineScratch) {
        *scratch = std::mem::take(&mut self.scratch);
        scratch.trees.retire(|_| true);
    }

    /// Finishes the assignment: validates the placement and computes the
    /// achieved rate.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::Incomplete`] if CTs remain unplaced, or a
    /// validation error for an internally inconsistent placement (a bug).
    pub fn finish(self) -> Result<AssignedPath, AssignError> {
        if let Some(ct) = self.unplaced().next() {
            return Err(AssignError::Incomplete { ct });
        }
        self.placement
            .validate(self.app.graph(), self.network)
            .map_err(AssignError::Model)?;
        let rate = self.capacities.bottleneck_rate(&self.load);
        Ok(AssignedPath {
            placement: self.placement,
            load: self.load,
            rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    /// source → work → sink on a 3-node chain, endpoints pinned to the
    /// chain's ends.
    fn fixture() -> (Application, Network) {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("source", ResourceVec::new());
        let w = tb.add_ct("work", ResourceVec::cpu(10.0));
        let t = tb.add_ct("sink", ResourceVec::new());
        tb.add_tt("in", s, w, 8.0).unwrap();
        tb.add_tt("out", w, t, 2.0).unwrap();
        let graph = tb.build().unwrap();
        let app = Application::new(
            graph,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(2))],
        )
        .unwrap();

        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(40.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
        let c = nb.add_ncp("c", ResourceVec::cpu(60.0));
        nb.add_link("ab", a, b, 80.0).unwrap();
        nb.add_link("bc", b, c, 80.0).unwrap();
        let network = nb.build().unwrap();
        (app, network)
    }

    #[test]
    fn new_pins_sources_and_sinks() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        assert!(engine.is_placed(CtId::new(0)));
        assert!(!engine.is_placed(CtId::new(1)));
        assert!(engine.is_placed(CtId::new(2)));
        assert_eq!(engine.unplaced().collect::<Vec<_>>(), vec![CtId::new(1)]);
        assert_eq!(
            engine.placement().ct_host(CtId::new(0)),
            Some(NcpId::new(0))
        );
    }

    #[test]
    fn gamma_accounts_for_host_and_paths() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let mut engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        let w = CtId::new(1);
        // On NCP1 (middle): host 100/10 = 10; TT "in" (8 bits) one hop
        // 80/8 = 10; TT "out" (2 bits) one hop 80/2 = 40 ⇒ γ = 10.
        let g1 = engine.gamma_batched(w, NcpId::new(1)).unwrap();
        assert!((g1 - 10.0).abs() < 1e-12, "γ = {g1}");
        // On NCP0 (source host): host 40/10 = 4; "in" local; "out"
        // crosses both links: min(80/2, 80/2) = 40 ⇒ γ = 4.
        let g0 = engine.gamma_batched(w, NcpId::new(0)).unwrap();
        assert!((g0 - 4.0).abs() < 1e-12, "γ = {g0}");
        // Best host is the middle NCP.
        assert_eq!(engine.rank_round(1), Ok(Some((w, NcpId::new(1), g1))));
    }

    #[test]
    fn commit_routes_tts_to_placed_neighbors() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let mut engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        engine.commit(CtId::new(1), NcpId::new(1)).unwrap();
        let path = engine.finish().unwrap();
        assert!((path.rate - 10.0).abs() < 1e-12);
        assert_eq!(path.placement.tt_route(TtId::new(0)).unwrap().len(), 1);
        assert_eq!(path.placement.tt_route(TtId::new(1)).unwrap().len(), 1);
    }

    #[test]
    fn host_rate_ignores_links() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let mut engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        let w = CtId::new(1);
        // Compute-only rates: NCP0 40/10 = 4, NCP1 100/10 = 10,
        // NCP2 60/10 = 6 — no link term anywhere.
        assert!((engine.host_rate(w, NcpId::new(0)) - 4.0).abs() < 1e-12);
        assert!((engine.host_rate(w, NcpId::new(1)) - 10.0).abs() < 1e-12);
        assert!((engine.host_rate(w, NcpId::new(2)) - 6.0).abs() < 1e-12);
        // γ on NCP0 is also 4 (local TT + wide out-links), equal to the
        // node term; on NCP1 the node term dominates γ too.
        assert!(engine.gamma_batched(w, NcpId::new(0)).unwrap() <= 4.0 + 1e-12);
    }

    #[test]
    fn commit_with_fewest_hops_uses_shortest_route() {
        // Triangle with a wide two-hop detour: FewestHops must take the
        // direct (narrow) link, Widest the detour.
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(100.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
        let c = nb.add_ncp("c", ResourceVec::cpu(100.0));
        nb.add_link("direct", a, b, 5.0).unwrap();
        nb.add_link("via1", a, c, 500.0).unwrap();
        nb.add_link("via2", c, b, 500.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();

        // The middle CT is unpinned so routing happens at the policy'd
        // commit (endpoint-only graphs route at construction time).
        let mut tb = TaskGraphBuilder::new();
        let s2 = tb.add_ct("s", ResourceVec::new());
        let m2 = tb.add_ct("m", ResourceVec::cpu(1.0));
        let t2 = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sm", s2, m2, 10.0).unwrap();
        tb.add_tt("mt", m2, t2, 0.0).unwrap();
        let graph2 = tb.build().unwrap();
        let app3 = Application::new(
            graph2.clone(),
            QoeClass::best_effort(1.0),
            [(s2, a), (t2, a)],
        )
        .unwrap();
        let mut widest = PlacementEngine::new(&app3, &net, &caps).unwrap();
        widest.commit_with(m2, b, RoutePolicy::Widest).unwrap();
        let widest_route = widest.placement().tt_route(graph2.tt_ids().next().unwrap());
        assert_eq!(widest_route.unwrap().len(), 2, "widest takes the detour");

        let mut fewest = PlacementEngine::new(&app3, &net, &caps).unwrap();
        fewest.commit_with(m2, b, RoutePolicy::FewestHops).unwrap();
        let fewest_route = fewest.placement().tt_route(graph2.tt_ids().next().unwrap());
        assert_eq!(fewest_route.unwrap().len(), 1, "fewest hops goes direct");
    }

    #[test]
    fn finish_rejects_incomplete() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        assert!(matches!(
            engine.finish(),
            Err(AssignError::Incomplete { ct }) if ct == CtId::new(1)
        ));
    }

    #[test]
    fn no_route_is_reported() {
        // Source pinned on an isolated island: the middle CT cannot be
        // routed to it from anywhere off-island.
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(1.0));
        tb.add_tt("sw", s, w, 1.0).unwrap();
        let graph = tb.build().unwrap();
        let app = Application::new(
            graph,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (w, NcpId::new(1))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        nb.add_ncp("island", ResourceVec::cpu(1.0));
        nb.add_ncp("mainland", ResourceVec::cpu(1.0));
        let net = nb.build().unwrap();
        let caps = net.capacity_map();
        assert!(matches!(
            PlacementEngine::new(&app, &net, &caps),
            Err(AssignError::NoRoute { .. })
        ));
    }

    #[test]
    fn gamma_none_when_host_cannot_reach_placed_neighbor() {
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
        let c = nb.add_ncp("c", ResourceVec::cpu(1.0));
        nb.add_link("ab", a, b, 1.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();
        let mut tb = TaskGraphBuilder::new();
        let s2 = tb.add_ct("s", ResourceVec::new());
        let m2 = tb.add_ct("m", ResourceVec::cpu(1.0));
        let t2 = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sm", s2, m2, 1.0).unwrap();
        tb.add_tt("mt", m2, t2, 1.0).unwrap();
        let graph3 = tb.build().unwrap();
        let app3 = Application::new(
            graph3,
            QoeClass::best_effort(1.0),
            [(s2, NcpId::new(0)), (t2, NcpId::new(1))],
        )
        .unwrap();
        let mut engine = PlacementEngine::new(&app3, &net, &caps).unwrap();
        // Hosting m on isolated c cannot route to a or b.
        assert_eq!(engine.gamma_batched(m2, c), None);
        assert!(engine.gamma_batched(m2, a).is_some());
    }
}
