//! SPARCLE's dynamic-ranking task assignment — the paper's Algorithm 2.
//!
//! The assignment places one CT at a time. At every step it computes, for
//! each unplaced CT `i`, the best host `j*_i = argmax_j γ_{i,j}` (the NCP
//! that would impose the *largest* new bottleneck rate, eq. (2)), then
//! commits the CT whose best is *worst* — `i* = argmin_i γ_{i,j*_i}` —
//! on its best host. Placing the most-constrained CT first protects the
//! bottleneck; because `γ` depends on the hosts of already-placed
//! neighbors, the ranking is recomputed after every commitment ("dynamic
//! ranking").
//!
//! The worst-case cost is `O(|C|)` rounds × `O(|C|)` candidates ×
//! `O(|N|)` hosts × a Dijkstra per placed reachable CT — cubic in the
//! product of graph sizes, matching Theorem 2's `O(|N|³ |C|³)` bound.
//!
//! [`assign_multipath`] repeats the algorithm with residual capacities to
//! extract additional task assignment paths for availability (§IV-D).

use crate::engine::{AssignStats, AssignedPath, EngineScratch, PlacementEngine};
use crate::error::AssignError;
use crate::trace::TraceHandle;
use sparcle_model::{Application, CapacityMap, Network};

/// SPARCLE's polynomial-time dynamic-ranking task assigner (Algorithm 2).
///
/// Every ranking round runs over the engine's γ-cache, the tree store
/// ([`PlacementEngine::rank_round`]); the only setting is how many
/// worker threads compute missing widest-path trees, and results are
/// identical for every value. The uncached pair scan straight off
/// eq. (2) that this is validated against is
/// `sparcle_oracle::assign_reference` (dev-only).
///
/// # Examples
///
/// ```
/// use sparcle_core::DynamicRankingAssigner;
/// use sparcle_model::{
///     Application, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tb = TaskGraphBuilder::new();
/// let src = tb.add_ct("camera", ResourceVec::new());
/// let detect = tb.add_ct("detect", ResourceVec::cpu(50.0));
/// let sink = tb.add_ct("consumer", ResourceVec::new());
/// tb.add_tt("raw", src, detect, 100.0)?;
/// tb.add_tt("boxes", detect, sink, 5.0)?;
/// let graph = tb.build()?;
///
/// let mut nb = NetworkBuilder::new();
/// let cam = nb.add_ncp("cam", ResourceVec::cpu(10.0));
/// let edge = nb.add_ncp("edge", ResourceVec::cpu(500.0));
/// nb.add_link("wifi", cam, edge, 1_000.0)?;
/// let network = nb.build()?;
///
/// let app = Application::new(graph, QoeClass::best_effort(1.0),
///     [(src, cam), (sink, cam)])?;
/// let path = DynamicRankingAssigner::new()
///     .assign(&app, &network, &network.capacity_map())?;
/// assert!(path.rate > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicRankingAssigner {
    threads: usize,
}

impl Default for DynamicRankingAssigner {
    /// The single-threaded assigner.
    fn default() -> Self {
        Self::with_threads(1)
    }
}

impl DynamicRankingAssigner {
    /// Creates the single-threaded assigner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assigner with up to `threads` worker threads computing
    /// missing widest-path trees (clamped to ≥ 1). Results are identical
    /// for every value.
    pub fn with_threads(threads: usize) -> Self {
        DynamicRankingAssigner {
            threads: threads.max(1),
        }
    }

    /// Runs Algorithm 2: finds one task assignment path for `app` on
    /// `network` under `capacities` (full, residual, or predicted).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::NoHostForCt`] when some CT cannot be hosted
    /// anywhere without stranding a TT, [`AssignError::NoRoute`] when
    /// pinned endpoints are disconnected, and [`AssignError::Model`] for
    /// invalid pins.
    pub fn assign(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
    ) -> Result<AssignedPath, AssignError> {
        self.assign_with_trace(app, network, capacities, TraceHandle::none())
    }

    /// [`Self::assign`] with a telemetry handle: the engine records
    /// per-round placement decisions (candidate γ values, chosen host,
    /// tie-break reason), commits, and γ-cache counters into it. The
    /// trace is bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Self::assign`].
    pub fn assign_with_trace(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        self.run(
            &mut EngineScratch::default(),
            app,
            network,
            capacities,
            trace,
        )
        .map(|(path, _)| path)
    }

    /// [`Self::assign`] over caller-hoisted buffers, also returning the
    /// engine's always-compiled γ-cache work counters ([`AssignStats`]).
    /// The engine takes its sweep/routing scratch out of `scratch` and
    /// hands it back before returning, so a warm probe loop (γ reconcile
    /// probes, defrag what-if migrations) stops paying per-assignment
    /// allocations for every content-independent buffer.
    ///
    /// # Errors
    ///
    /// Same as [`Self::assign`].
    pub fn assign_scratch_with_stats(
        &self,
        scratch: &mut EngineScratch,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
    ) -> Result<(AssignedPath, AssignStats), AssignError> {
        self.run(scratch, app, network, capacities, TraceHandle::none())
    }

    /// One full Algorithm-2 assignment; every public `assign*` method
    /// funnels here. The scratch is reclaimed on error exits too.
    fn run(
        &self,
        scratch: &mut EngineScratch,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<(AssignedPath, AssignStats), AssignError> {
        // Root span for one full Algorithm-2 assignment; every
        // rank-round and commit span nests underneath. An error exit
        // drops the guard, closing the span as aborted.
        let assign_span = trace.span("engine.assign");
        let mut engine =
            PlacementEngine::new_traced_with_scratch(app, network, capacities, trace, scratch)?;
        // Run the ranking loop through a closure so the scratch is
        // reclaimed on ranking errors as well as on success.
        let ranked = (|| -> Result<(), AssignError> {
            // Rank: for each unplaced CT, its best achievable γ; commit
            // the CT with the smallest best (most constrained first).
            while let Some((ct, host, _)) = engine.rank_round(self.threads)? {
                engine.commit(ct, host)?;
            }
            Ok(())
        })();
        let stats = engine.stats();
        // `finish` never touches the scratch buffers, so they can go
        // back to the caller before it consumes the engine.
        engine.reclaim_scratch(scratch);
        ranked?;
        let assigned = engine.finish()?;
        assign_span.finish();
        Ok((assigned, stats))
    }
}

/// Extracts up to `max_paths` task assignment paths for one application,
/// subtracting each found path's load from the residual capacities before
/// searching for the next (§IV-D). Paths whose rate falls below
/// `min_rate` stop the search (a zero-rate path adds no QoE).
///
/// Returns the found paths (possibly empty) and the final residual
/// capacities.
///
/// # Examples
///
/// ```
/// use sparcle_core::{assign_multipath, DynamicRankingAssigner};
/// use sparcle_model::{Application, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tb = TaskGraphBuilder::new();
/// let s = tb.add_ct("s", ResourceVec::new());
/// let w = tb.add_ct("w", ResourceVec::cpu(10.0));
/// let t = tb.add_ct("t", ResourceVec::new());
/// tb.add_tt("sw", s, w, 5.0)?;
/// tb.add_tt("wt", w, t, 1.0)?;
/// let mut nb = NetworkBuilder::new();
/// let hub = nb.add_ncp("hub", ResourceVec::cpu(20.0));
/// for i in 0..3 {
///     let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(50.0));
///     nb.add_link(format!("l{i}"), hub, leaf, 100.0)?;
/// }
/// let net = nb.build()?;
/// let app = Application::new(tb.build()?, QoeClass::best_effort(1.0), [(s, hub), (t, hub)])?;
/// let (paths, _residual) = assign_multipath(
///     &DynamicRankingAssigner::new(), &app, &net, &net.capacity_map(), 3, 1e-9,
/// );
/// assert!(!paths.is_empty());
/// // Later paths never beat earlier ones (residual capacity shrinks).
/// for pair in paths.windows(2) {
///     assert!(pair[1].rate <= pair[0].rate + 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
pub fn assign_multipath(
    assigner: &DynamicRankingAssigner,
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    max_paths: usize,
    min_rate: f64,
) -> (Vec<AssignedPath>, CapacityMap) {
    let (paths, _) = assign_multipath_scratch_stats(
        assigner,
        &mut EngineScratch::default(),
        app,
        network,
        capacities,
        max_paths,
        min_rate,
    );
    let residual = residual_after(capacities, &paths);
    (paths, residual)
}

/// [`assign_multipath`] over caller-hoisted [`EngineScratch`], returning
/// the paths and the γ-cache work counters ([`AssignStats`]) accumulated
/// across every successfully assigned path, but no residual. Every
/// per-path engine in the extraction loop reuses — and refills — the
/// same buffers, and a one-path call searches and scores on
/// `capacities` itself, so it copies no capacity map either.
pub fn assign_multipath_scratch_stats(
    assigner: &DynamicRankingAssigner,
    scratch: &mut EngineScratch,
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    max_paths: usize,
    min_rate: f64,
) -> (Vec<AssignedPath>, AssignStats) {
    let mut stats = AssignStats::default();
    let paths = multipath_inner(
        assigner, scratch, app, network, capacities, max_paths, min_rate, 1.0, &mut stats,
    );
    (paths, stats)
}

/// [`assign_multipath`] with an element-diversity bias (an extension
/// beyond the paper): after each extracted path, the *search* capacities
/// of the elements it used are additionally scaled by
/// `diversity_discount` (≤ 1), steering later paths toward disjoint
/// elements — which is what availability actually wants, since a backup
/// path sharing every element with the primary adds nothing (§IV-D's
/// overlap analysis). A discount of `1.0` reproduces the paper's plain
/// residual-capacity iteration.
///
/// The discount only biases the search; the returned residual reflects
/// the true load subtraction.
///
/// # Panics
///
/// Panics if `diversity_discount` is outside `(0, 1]`.
pub fn assign_multipath_diverse(
    assigner: &DynamicRankingAssigner,
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    max_paths: usize,
    min_rate: f64,
    diversity_discount: f64,
) -> (Vec<AssignedPath>, CapacityMap) {
    let mut stats = AssignStats::default();
    let paths = multipath_inner(
        assigner,
        &mut EngineScratch::default(),
        app,
        network,
        capacities,
        max_paths,
        min_rate,
        diversity_discount,
        &mut stats,
    );
    let residual = residual_after(capacities, &paths);
    (paths, residual)
}

/// `capacities` minus every path's load at its rate, in path order —
/// the same subtractions, in the same order, as the extraction loop's.
fn residual_after(capacities: &CapacityMap, paths: &[AssignedPath]) -> CapacityMap {
    let mut residual = capacities.clone();
    for path in paths {
        residual.subtract_load(&path.load, path.rate);
    }
    residual
}

/// The extraction loop. `residual` (what later paths are scored on) and
/// `biased` (what they are searched on) start as `None`, meaning "equal
/// to `capacities`", and are copied only when a path that another may
/// follow has to be subtracted: the last wanted path is not.
#[allow(clippy::too_many_arguments)] // internal: the public wrappers curry
fn multipath_inner(
    assigner: &DynamicRankingAssigner,
    scratch: &mut EngineScratch,
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    max_paths: usize,
    min_rate: f64,
    diversity_discount: f64,
    stats: &mut AssignStats,
) -> Vec<AssignedPath> {
    assert!(
        diversity_discount > 0.0 && diversity_discount <= 1.0,
        "diversity discount must lie in (0, 1]"
    );
    let mut residual: Option<CapacityMap> = None;
    let mut biased: Option<CapacityMap> = None;
    let mut paths: Vec<AssignedPath> = Vec::new();
    while paths.len() < max_paths {
        let search = biased.as_ref().unwrap_or(capacities);
        let mut path = match assigner.assign_scratch_with_stats(scratch, app, network, search) {
            Ok((p, s)) => {
                stats.merge(&s);
                p
            }
            Err(_) => break,
        };
        // The biased capacities understate what the path can carry;
        // re-score it against the true residual.
        path.rate = residual
            .as_ref()
            .unwrap_or(capacities)
            .bottleneck_rate(&path.load);
        if !(path.rate.is_finite() && path.rate > min_rate) {
            break;
        }
        if paths.len() + 1 == max_paths {
            paths.push(path);
            break;
        }
        let residual = residual.get_or_insert_with(|| capacities.clone());
        let biased = biased.get_or_insert_with(|| capacities.clone());
        residual.subtract_load(&path.load, path.rate);
        biased.subtract_load(&path.load, path.rate);
        if diversity_discount < 1.0 {
            for element in path.placement.elements_used(network) {
                // Pinned hosts are on every path; discounting them only
                // starves the search.
                let pinned = element
                    .as_ncp()
                    .is_some_and(|n| app.pinned().values().any(|&h| h == n));
                if !pinned {
                    biased.scale_element(element, diversity_discount);
                }
            }
        }
        paths.push(path);
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{
        CtId, NcpId, NetworkBuilder, QoeClass, ResourceKind, ResourceVec, TaskGraphBuilder,
    };

    /// The paper's Figure 2-style scenario: a source on one NCP, a sink
    /// on another, two compute CTs to place.
    fn pipeline_app(bits: [f64; 3], cycles: [f64; 2]) -> Application {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("src", ResourceVec::new());
        let c1 = tb.add_ct("stage1", ResourceVec::cpu(cycles[0]));
        let c2 = tb.add_ct("stage2", ResourceVec::cpu(cycles[1]));
        let t = tb.add_ct("sink", ResourceVec::new());
        tb.add_tt("tt0", s, c1, bits[0]).unwrap();
        tb.add_tt("tt1", c1, c2, bits[1]).unwrap();
        tb.add_tt("tt2", c2, t, bits[2]).unwrap();
        let graph = tb.build().unwrap();
        Application::new(
            graph,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap()
    }

    /// Star network: hub NCP0 (weak CPU) with 3 leaf workers.
    fn star(leaf_cpu: f64, bw: f64) -> Network {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(10.0));
        for i in 0..3 {
            let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(leaf_cpu));
            nb.add_link(format!("l{i}"), hub, leaf, bw).unwrap();
        }
        nb.build().unwrap()
    }

    #[test]
    fn offloads_when_bandwidth_is_plentiful() {
        let app = pipeline_app([10.0, 10.0, 10.0], [100.0, 100.0]);
        let net = star(1000.0, 1e6);
        let path = DynamicRankingAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        // Compute CTs must leave the weak hub (10 CPU) for leaves
        // (1000 CPU): rate = min over leaves used.
        assert!(path.rate >= 10.0, "rate = {}", path.rate);
        let h1 = path.placement.ct_host(CtId::new(1)).unwrap();
        let h2 = path.placement.ct_host(CtId::new(2)).unwrap();
        assert_ne!(h1, NcpId::new(0));
        assert_ne!(h2, NcpId::new(0));
    }

    #[test]
    fn stays_local_when_bandwidth_is_scarce() {
        // Huge TT bits, tiny bandwidth: keeping everything on the hub
        // avoids the links entirely.
        let app = pipeline_app([1e6, 1e6, 1e6], [1.0, 1.0]);
        let net = star(1000.0, 1.0);
        let path = DynamicRankingAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        assert_eq!(path.placement.ct_host(CtId::new(1)), Some(NcpId::new(0)));
        assert_eq!(path.placement.ct_host(CtId::new(2)), Some(NcpId::new(0)));
        // All local: rate = hub CPU / total cycles = 10/2.
        assert!((path.rate - 5.0).abs() < 1e-12);
    }

    #[test]
    fn achieves_exhaustive_optimum_on_small_case() {
        let app = pipeline_app([8.0, 4.0, 2.0], [20.0, 30.0]);
        let net = star(40.0, 60.0);
        let caps = net.capacity_map();
        let sparcle = DynamicRankingAssigner::new()
            .assign(&app, &net, &caps)
            .unwrap();
        // Exhaustive search over host pairs for the two compute CTs.
        let mut best = 0.0f64;
        for h1 in net.ncp_ids() {
            for h2 in net.ncp_ids() {
                let mut engine = PlacementEngine::new(&app, &net, &caps).unwrap();
                if engine.commit(CtId::new(1), h1).is_err() {
                    continue;
                }
                if engine.commit(CtId::new(2), h2).is_err() {
                    continue;
                }
                if let Ok(p) = engine.finish() {
                    best = best.max(p.rate);
                }
            }
        }
        assert!(
            sparcle.rate >= best - 1e-9,
            "sparcle {} vs optimal {}",
            sparcle.rate,
            best
        );
    }

    #[test]
    fn placement_always_validates() {
        let app = pipeline_app([5.0, 50.0, 1.0], [3.0, 80.0]);
        let net = star(25.0, 12.0);
        let path = DynamicRankingAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        // Reported rate matches recomputation from scratch.
        let recomputed = path
            .placement
            .bottleneck_rate(app.graph(), &net, &net.capacity_map());
        assert!((path.rate - recomputed).abs() < 1e-9);
    }

    #[test]
    fn multipath_extracts_declining_rates() {
        let app = pipeline_app([2.0, 2.0, 2.0], [10.0, 10.0]);
        let net = star(50.0, 100.0);
        let (paths, residual) = assign_multipath(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &net.capacity_map(),
            4,
            1e-9,
        );
        assert!(!paths.is_empty());
        // Rates are non-increasing (each later path sees less capacity).
        for w in paths.windows(2) {
            assert!(w[1].rate <= w[0].rate + 1e-9);
        }
        // Residuals never negative.
        for ncp in net.ncp_ids() {
            assert!(residual.ncp(ncp).amount(ResourceKind::Cpu) >= 0.0);
        }
    }

    #[test]
    fn multipath_respects_max_paths() {
        let app = pipeline_app([2.0, 2.0, 2.0], [10.0, 10.0]);
        let net = star(50.0, 100.0);
        let (paths, _) = assign_multipath(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &net.capacity_map(),
            1,
            1e-9,
        );
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn diversity_discount_spreads_paths() {
        // Plenty of leaves: with a strong discount, the second path
        // should avoid the first path's leaf.
        let app = pipeline_app([2.0, 2.0, 2.0], [10.0, 10.0]);
        let net = star(50.0, 100.0);
        let (paths, _) = assign_multipath_diverse(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &net.capacity_map(),
            2,
            1e-9,
            0.1,
        );
        assert_eq!(paths.len(), 2);
        let used0 = paths[0].placement.elements_used(&net);
        let used1 = paths[1].placement.elements_used(&net);
        // The hub hosts the pinned endpoints; everything else should
        // differ.
        let overlap: Vec<_> = used0.intersection(&used1).collect();
        assert!(
            overlap.iter().all(|e| e.as_ncp() == Some(NcpId::new(0))),
            "paths share non-pinned elements: {overlap:?}"
        );
        // True residual-based rates are reported (positive, finite).
        for p in &paths {
            assert!(p.rate.is_finite() && p.rate > 0.0);
        }
    }

    #[test]
    fn discount_one_matches_plain_multipath() {
        let app = pipeline_app([2.0, 2.0, 2.0], [10.0, 10.0]);
        let net = star(50.0, 100.0);
        let caps = net.capacity_map();
        let (plain, _) =
            assign_multipath(&DynamicRankingAssigner::new(), &app, &net, &caps, 3, 1e-9);
        let (diverse, _) = assign_multipath_diverse(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &caps,
            3,
            1e-9,
            1.0,
        );
        assert_eq!(plain.len(), diverse.len());
        for (a, b) in plain.iter().zip(&diverse) {
            assert_eq!(a.placement, b.placement);
            assert!((a.rate - b.rate).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_capacity_network_yields_no_multipath() {
        let app = pipeline_app([2.0, 2.0, 2.0], [10.0, 10.0]);
        let net = star(0.0, 0.0);
        // Hub has 10 CPU but leaves/links are dead: first path rate is
        // positive (all local), second sees exhausted hub.
        let (paths, _) = assign_multipath(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &net.capacity_map(),
            10,
            1e-9,
        );
        assert!(paths.len() <= 2, "found {}", paths.len());
    }
}
