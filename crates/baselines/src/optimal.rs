//! Exhaustive optimal task assignment, for normalizing SPARCLE's rates
//! (Figures 6 and 8).
//!
//! Enumerates every CT → NCP mapping for the unpinned CTs (the pinned
//! ones are fixed), routes TTs with the same widest-path rule used by
//! SPARCLE, and keeps the placement with the best bottleneck rate. The
//! search is `O(|N|^|unpinned|)` placements, each costing a handful of
//! Dijkstras — only feasible for the small instances the paper uses it
//! on (≤ ~8 NCPs, ≤ ~6 free CTs); [`optimal_assignment`] refuses larger
//! spaces instead of silently running forever.
//!
//! Note the optimum is over CT placements given SPARCLE's sequential TT
//! routing (TTs committed in topological order); jointly optimal routing
//! is a multicommodity-flow problem outside the paper's search too.
//!
//! [`optimal_assignment`] actually runs a branch-and-bound refinement:
//! a partial placement's bottleneck rate only decreases as more tasks
//! are committed, so any prefix already at or below the incumbent's
//! rate is pruned. The result is identical to plain enumeration
//! ([`optimal_assignment_exhaustive`], kept for cross-checking) but
//! typically orders of magnitude faster.

use sparcle_core::{AssignedPath, PlacementEngine};
use sparcle_model::{Application, CapacityMap, CtId, NcpId, Network};
use std::error::Error;
use std::fmt;

/// Default cap on the number of enumerated placements.
pub const DEFAULT_SEARCH_LIMIT: u64 = 3_000_000;

/// The exhaustive search refused to run or found nothing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptimalSearchError {
    /// `|N|^|unpinned CTs|` exceeds the limit.
    SearchSpaceTooLarge {
        /// The number of placements that would be enumerated.
        placements: f64,
        /// The configured cap.
        limit: u64,
    },
    /// No enumerated placement was feasible (e.g. disconnected pins).
    NoFeasiblePlacement,
}

impl fmt::Display for OptimalSearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimalSearchError::SearchSpaceTooLarge { placements, limit } => write!(
                f,
                "exhaustive search would enumerate {placements:.3e} placements (limit {limit})"
            ),
            OptimalSearchError::NoFeasiblePlacement => f.write_str("no feasible placement exists"),
        }
    }
}

impl Error for OptimalSearchError {}

/// Finds the rate-optimal placement by branch-and-bound over CT → host
/// assignments, with the default search-space cap (applied to the
/// worst-case enumeration size).
///
/// # Errors
///
/// See [`OptimalSearchError`].
pub fn optimal_assignment(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
) -> Result<AssignedPath, OptimalSearchError> {
    optimal_assignment_limited(app, network, capacities, DEFAULT_SEARCH_LIMIT)
}

/// [`optimal_assignment`] with an explicit worst-case search-space cap.
///
/// # Errors
///
/// See [`OptimalSearchError`].
pub fn optimal_assignment_limited(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    limit: u64,
) -> Result<AssignedPath, OptimalSearchError> {
    let graph = app.graph();
    let free: Vec<CtId> = graph
        .topo_order()
        .iter()
        .copied()
        .filter(|ct| app.pinned_host(*ct).is_none())
        .collect();
    let n = network.ncp_count() as u64;
    let placements = (n as f64).powi(free.len() as i32);
    if placements > limit as f64 {
        return Err(OptimalSearchError::SearchSpaceTooLarge { placements, limit });
    }
    let Ok(root) = PlacementEngine::new(app, network, capacities) else {
        return Err(OptimalSearchError::NoFeasiblePlacement);
    };
    let mut best: Option<AssignedPath> = None;
    branch_and_bound(&root, &free, network, &mut best);
    best.ok_or(OptimalSearchError::NoFeasiblePlacement)
}

/// DFS with monotone-bound pruning: committing more tasks can only
/// lower the bottleneck rate, so a prefix at or below the incumbent is
/// dead.
fn branch_and_bound(
    engine: &PlacementEngine<'_>,
    remaining: &[CtId],
    network: &Network,
    best: &mut Option<AssignedPath>,
) {
    let Some((&ct, rest)) = remaining.split_first() else {
        if let Ok(path) = engine.clone().finish() {
            if best.as_ref().is_none_or(|b| path.rate > b.rate) {
                *best = Some(path);
            }
        }
        return;
    };
    for host in network.ncp_ids() {
        let mut child = engine.clone();
        if child.commit(ct, host).is_err() {
            continue;
        }
        let upper_bound = child
            .capacities()
            .bottleneck_rate(&child.load().to_load_map());
        if let Some(b) = best.as_ref() {
            if upper_bound <= b.rate {
                continue;
            }
        }
        branch_and_bound(&child, rest, network, best);
    }
}

/// Plain exhaustive enumeration, kept as the reference implementation
/// the branch-and-bound is tested against.
///
/// # Errors
///
/// See [`OptimalSearchError`].
pub fn optimal_assignment_exhaustive(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    limit: u64,
) -> Result<AssignedPath, OptimalSearchError> {
    let graph = app.graph();
    let free: Vec<CtId> = graph
        .topo_order()
        .iter()
        .copied()
        .filter(|ct| app.pinned_host(*ct).is_none())
        .collect();
    let n = network.ncp_count() as u64;
    let placements = (n as f64).powi(free.len() as i32);
    if placements > limit as f64 {
        return Err(OptimalSearchError::SearchSpaceTooLarge { placements, limit });
    }

    let mut best: Option<AssignedPath> = None;
    let total = n.pow(free.len() as u32).max(1);
    let mut hosts = vec![NcpId::new(0); free.len()];
    for code in 0..total {
        let mut c = code;
        for h in hosts.iter_mut() {
            *h = NcpId::new((c % n) as u32);
            c /= n;
        }
        let Ok(mut engine) = PlacementEngine::new(app, network, capacities) else {
            continue;
        };
        let mut ok = true;
        for (ct, &host) in free.iter().zip(&hosts) {
            if engine.commit(*ct, host).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        if let Ok(path) = engine.finish() {
            if best.as_ref().is_none_or(|b| path.rate > b.rate) {
                best = Some(path);
            }
        }
    }
    best.ok_or(OptimalSearchError::NoFeasiblePlacement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_core::DynamicRankingAssigner;
    use sparcle_model::{NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    fn fixture() -> (Application, Network) {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(10.0));
        let b = tb.add_ct("b", ResourceVec::cpu(20.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 4.0).unwrap();
        tb.add_tt("ab", a, b, 8.0).unwrap();
        tb.add_tt("bt", b, t, 2.0).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(30.0));
        for i in 0..3 {
            let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(60.0));
            nb.add_link(format!("l{i}"), hub, leaf, 40.0).unwrap();
        }
        (app, nb.build().unwrap())
    }

    #[test]
    fn optimum_dominates_every_roster_member() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let opt = optimal_assignment(&app, &net, &caps).unwrap();
        for assigner in crate::standard_roster(1) {
            if let Ok(path) = assigner.assign(&app, &net, &caps) {
                assert!(
                    opt.rate >= path.rate - 1e-9,
                    "{} beat the optimum: {} > {}",
                    assigner.name(),
                    path.rate,
                    opt.rate
                );
            }
        }
    }

    #[test]
    fn sparcle_is_near_optimal_here() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let opt = optimal_assignment(&app, &net, &caps).unwrap();
        let sparcle = DynamicRankingAssigner::new()
            .assign(&app, &net, &caps)
            .unwrap();
        assert!(
            sparcle.rate >= 0.8 * opt.rate,
            "sparcle {} vs opt {}",
            sparcle.rate,
            opt.rate
        );
    }

    #[test]
    fn refuses_oversized_search() {
        let (app, net) = fixture();
        let err = optimal_assignment_limited(&app, &net, &net.capacity_map(), 3);
        assert!(matches!(
            err,
            Err(OptimalSearchError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn branch_and_bound_matches_exhaustive() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
        for case in BottleneckCase::SINGLE_RESOURCE {
            let mut cfg =
                ScenarioConfig::new(case, GraphKind::Linear { stages: 2 }, TopologyKind::Star);
            cfg.ncps = 5;
            let mut rng = StdRng::seed_from_u64(7 + case as u64);
            for _ in 0..6 {
                let s = cfg.sample(&mut rng).unwrap();
                let caps = s.network.capacity_map();
                let bnb = optimal_assignment(&s.app, &s.network, &caps).unwrap();
                let plain =
                    optimal_assignment_exhaustive(&s.app, &s.network, &caps, 1_000_000).unwrap();
                assert!(
                    (bnb.rate - plain.rate).abs() < 1e-9 * plain.rate.max(1.0),
                    "{case}: bnb {} vs exhaustive {}",
                    bnb.rate,
                    plain.rate
                );
            }
        }
    }

    #[test]
    fn optimal_placement_validates() {
        let (app, net) = fixture();
        let opt = optimal_assignment(&app, &net, &net.capacity_map()).unwrap();
        opt.placement.validate(app.graph(), &net).unwrap();
    }
}
