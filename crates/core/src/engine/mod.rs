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
//! [`sparcle_model::TaskGraph::placed_reachable`]), of the named trees'
//! `φ[j]` — `NEG_INFINITY` as soon as one target is unreachable, which `min`
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

mod rank;
mod route;
mod trees;

pub use route::fewest_hops_path;

use crate::error::AssignError;
use crate::trace::TraceHandle;
use crate::widest_path::CsrWidestTree;
use sparcle_model::{
    Application, CapacityMap, CtId, DenseLoad, LoadMap, NcpId, Network, Placement, ReachScratch,
    ReachablePlacedCt, TtId,
};
use trees::{LinkSet, TreeKey, TreeStore};

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
    /// One sweep buffer per worker of a parallel evaluation.
    worker_sweeps: Vec<CsrWidestTree>,
    route: CsrWidestTree,
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
    /// The loads committed so far, dense while the application is being
    /// placed; [`Self::finish`] compacts them into the path's [`LoadMap`].
    load: DenseLoad,
    placed: Vec<bool>,
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
            load: DenseLoad::zeroed(network),
            placed: vec![false; app.graph().ct_count()],
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
    pub fn load(&self) -> &DenseLoad {
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

    /// The γ-cache work counters accumulated by this engine so far.
    pub fn stats(&self) -> AssignStats {
        self.stats
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
        let load = self.load.to_load_map();
        let rate = self.capacities.bottleneck_rate(&load);
        Ok(AssignedPath {
            placement: self.placement,
            load,
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
    pub(super) fn fixture() -> (Application, Network) {
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
    fn finish_rejects_incomplete() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        assert!(matches!(
            engine.finish(),
            Err(AssignError::Incomplete { ct }) if ct == CtId::new(1)
        ));
    }
}
