//! The eq. (2) pair scan and the reference Algorithm-2 loop.
//!
//! [`gamma`] and [`best_host`] read a [`PlacementEngine`]'s state
//! through its public accessors and evaluate eq. (2) with one heap
//! search per placed reachable CT per candidate host — no cache, no
//! shared trees, no threads. [`assign_reference`] ranks with them and,
//! because the engine it commits into routes over the CSR arrays,
//! re-derives every commit's routes with the heap search on a load map
//! of its own and asserts that both agree.

use crate::widest_path::{adjacency, widest_path_with, DijkstraScratch};
use sparcle_core::{AssignError, AssignedPath, PlacementEngine};
use sparcle_model::{
    Application, CapacityMap, CtId, DenseLoad, LinkId, NcpId, Network, Placement, TaskGraph, TtId,
};

/// The paper's `γ_{i,j}` (eq. (2)) straight off the definition: the
/// host's compute headroom, then for every already-placed reachable CT
/// the widest-path bottleneck from `host` to that CT's host for the
/// cheapest TT between them, each by its own heap search.
///
/// Returns `None` when some reachable placed CT cannot be routed to
/// from `host` at all (placing `ct` there would strand a TT).
pub fn gamma(engine: &PlacementEngine<'_>, ct: CtId, host: NcpId) -> Option<f64> {
    let adj = adjacency(engine.network());
    gamma_on(&adj, &mut DijkstraScratch::default(), engine, ct, host)
}

/// [`gamma`] over a prebuilt adjacency and search buffers.
fn gamma_on(
    adj: &[Vec<(LinkId, NcpId)>],
    route: &mut DijkstraScratch,
    engine: &PlacementEngine<'_>,
    ct: CtId,
    host: NcpId,
) -> Option<f64> {
    let graph = engine.app().graph();
    let mut gamma = engine.host_rate(ct, host);
    for reach in graph.placed_reachable(ct, |c| engine.is_placed(c)) {
        let other_host = engine
            .placement()
            .ct_host(reach.ct)
            .expect("reachable CTs are placed");
        let path = widest_path_with(
            route,
            adj,
            engine.capacities(),
            engine.load(),
            reach.min_bits,
            host,
            other_host,
        )?;
        gamma = gamma.min(path.width);
    }
    Some(gamma)
}

/// The best host for `ct` right now: `j*_i = argmax_j γ_{i,j}`
/// (Algorithm 2 line 15). Ties break toward the lower NCP id for
/// determinism. Returns `None` if no host can route all of `ct`'s
/// placed reachable CTs.
pub fn best_host(engine: &PlacementEngine<'_>, ct: CtId) -> Option<(NcpId, f64)> {
    let adj = adjacency(engine.network());
    best_host_on(&adj, &mut DijkstraScratch::default(), engine, ct)
}

/// [`best_host`] over a prebuilt adjacency and search buffers.
fn best_host_on(
    adj: &[Vec<(LinkId, NcpId)>],
    route: &mut DijkstraScratch,
    engine: &PlacementEngine<'_>,
    ct: CtId,
) -> Option<(NcpId, f64)> {
    let mut best: Option<(NcpId, f64)> = None;
    for host in engine.network().ncp_ids() {
        if let Some(g) = gamma_on(adj, route, engine, ct, host) {
            if best.is_none_or(|(_, bg)| g > bg) {
                best = Some((host, g));
            }
        }
    }
    best
}

/// The oracle's own copy of what commits do to a placement: hosts,
/// routes and loads, derived with the heap search only.
struct Mirror<'a> {
    graph: &'a TaskGraph,
    adj: Vec<Vec<(LinkId, NcpId)>>,
    capacities: &'a CapacityMap,
    placement: Placement,
    load: DenseLoad,
    route: DijkstraScratch,
}

impl Mirror<'_> {
    /// Places `ct` on `host` and routes every TT to an already-placed
    /// direct neighbor, cheapest bits first, each on its widest path
    /// under the loads so far — the commit rule of the engine, restated.
    fn commit(&mut self, ct: CtId, host: NcpId) -> Result<(), AssignError> {
        self.placement.place_ct(ct, host);
        self.load.add_ct_load(host, self.graph.ct(ct).requirement());
        let mut incident: Vec<TtId> = self.graph.incident_edges(ct).collect();
        incident.sort_by(|&a, &b| {
            let bits = |tt| self.graph.tt(tt).bits_per_unit();
            bits(a).total_cmp(&bits(b))
        });
        for tt in incident {
            let t = self.graph.tt(tt);
            let (Some(from), Some(to)) = (
                self.placement.ct_host(t.from()),
                self.placement.ct_host(t.to()),
            ) else {
                continue;
            };
            let path = widest_path_with(
                &mut self.route,
                &self.adj,
                self.capacities,
                &self.load,
                t.bits_per_unit(),
                from,
                to,
            )
            .ok_or(AssignError::NoRoute { tt, from, to })?;
            for &link in &path.links {
                self.load.add_tt_load(link, t.bits_per_unit());
            }
            self.placement.route_tt(tt, path.links);
        }
        Ok(())
    }

    /// Asserts that `engine` holds exactly the mirrored hosts, routes
    /// and loads.
    fn assert_matches(&self, engine: &PlacementEngine<'_>, after: &str) {
        assert_eq!(
            (engine.placement(), engine.load()),
            (&self.placement, &self.load),
            "engine state diverged from the heap search after {after}"
        );
    }
}

/// The reference Algorithm 2: commit the pinned CTs, then repeatedly
/// the `argmin_i max_j γ_{i,j}` choice, with γ from the pair scan
/// ([`best_host`]) and strict comparisons breaking ties toward the
/// lower CT and NCP ids. Commits go through a [`PlacementEngine`] —
/// whose γ-cache is never consulted — and each one is checked against
/// a heap-routed mirror, so the returned path is ground truth for routing too.
///
/// # Errors
///
/// What `DynamicRankingAssigner::assign` documents.
///
/// # Panics
///
/// Panics when the engine's routes, loads or errors differ from the
/// heap search's.
pub fn assign_reference(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
) -> Result<AssignedPath, AssignError> {
    app.check_against_network(network)?;
    let mut mirror = Mirror {
        graph: app.graph(),
        adj: adjacency(network),
        capacities,
        placement: Placement::empty(app.graph()),
        load: DenseLoad::zeroed(network),
        route: DijkstraScratch::default(),
    };
    let pinned = app
        .pinned()
        .iter()
        .try_for_each(|(&ct, &host)| mirror.commit(ct, host));
    let engine = PlacementEngine::new(app, network, capacities);
    let constructed = engine.as_ref().map(|_| ()).map_err(Clone::clone);
    assert_eq!(constructed, pinned, "pinned commits");
    let mut engine = engine?;
    mirror.assert_matches(&engine, "the pinned commits");
    loop {
        let mut pick: Option<(f64, CtId, NcpId)> = None;
        for ct in engine.unplaced() {
            let (host, g) = best_host_on(&mirror.adj, &mut mirror.route, &engine, ct)
                .ok_or(AssignError::NoHostForCt(ct))?;
            if pick.is_none_or(|(bg, _, _)| g < bg) {
                pick = Some((g, ct, host));
            }
        }
        let Some((_, ct, host)) = pick else {
            break;
        };
        let routed = engine.commit(ct, host);
        assert_eq!(routed, mirror.commit(ct, host), "commit of {ct} on {host}");
        mirror.assert_matches(&engine, "a ranked commit");
        routed?;
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    /// source → work → sink on the chain a — b — c, endpoints pinned to
    /// its ends: the worker belongs in the middle, at rate 10.
    #[test]
    fn pair_scan_and_reference_loop_on_a_chain() {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("source", ResourceVec::new());
        let w = tb.add_ct("work", ResourceVec::cpu(10.0));
        let t = tb.add_ct("sink", ResourceVec::new());
        tb.add_tt("in", s, w, 8.0).unwrap();
        tb.add_tt("out", w, t, 2.0).unwrap();
        let pins = [(s, NcpId::new(0)), (t, NcpId::new(2))];
        let app = Application::new(tb.build().unwrap(), QoeClass::best_effort(1.0), pins).unwrap();
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(40.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
        let c = nb.add_ncp("c", ResourceVec::cpu(60.0));
        nb.add_link("ab", a, b, 80.0).unwrap();
        nb.add_link("bc", b, c, 80.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();

        // On b: host 100/10, "in" 80/8, "out" 80/2 ⇒ γ = 10. On a: host
        // 40/10 ⇒ γ = 4.
        let engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        assert_eq!(gamma(&engine, w, a), Some(4.0));
        assert_eq!(best_host(&engine, w), Some((b, 10.0)));
        let path = assign_reference(&app, &net, &caps).unwrap();
        assert_eq!(path.placement.ct_host(w), Some(b));
        assert_eq!(path.rate, 10.0);
    }
}
