//! Route-and-commit: irrevocably place one CT and route the TTs that
//! connect it to already-placed neighbours (Algorithm 1), then drop the
//! stored trees whose witness the new load crossed.

use super::{EngineScratch, PlacementEngine, RoutePolicy};
use crate::error::AssignError;
use crate::widest_path::csr_widest_path_with;
use sparcle_model::{CtId, NcpId, Network};
use sparcle_telemetry::{CommitRecord, Event};

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

impl PlacementEngine<'_> {
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
                    self.network.csr(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::fixture;
    use sparcle_model::{
        Application, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder, TtId,
    };

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
}
