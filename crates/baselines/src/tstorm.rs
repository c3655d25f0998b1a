//! The T-Storm baseline \[29\]: traffic-aware online scheduling.
//!
//! T-Storm places executors (CTs) so as to minimize inter-node traffic,
//! assigning heavy-traffic tasks first and balancing task counts across
//! workers. Unlike SPARCLE it considers neither heterogeneous resource
//! capacities nor link bandwidths (§V: "it does not consider
//! heterogeneous resource capacities"), so here:
//!
//! * CTs are ordered by descending *incident traffic* (sum of TT bits);
//! * each NCP offers `⌈|C| / |N|⌉` executor slots (T-Storm distributes
//!   executors evenly over workers);
//! * each CT goes to the slot-available NCP minimizing the traffic it
//!   adds across node boundaries (bits of TTs to placed neighbors
//!   hosted elsewhere), tie-broken by fewest CTs already hosted, then
//!   by NCP id;
//! * TTs are routed by hop count, not by load-aware widest paths.

use crate::Assigner;
use sparcle_core::{AssignError, AssignedPath, PlacementEngine, RoutePolicy, TraceHandle};
use sparcle_model::{Application, CapacityMap, CtId, Network};

/// Traffic-aware CT placement in the style of T-Storm.
#[derive(Debug, Clone, Copy, Default)]
pub struct TStormAssigner {
    _private: (),
}

impl TStormAssigner {
    /// Creates the T-Storm assigner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Assigner for TStormAssigner {
    fn name(&self) -> &str {
        "T-Storm"
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let graph = app.graph();
        let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;

        // Descending incident traffic.
        let traffic = |ct: CtId| -> f64 {
            graph
                .incident_edges(ct)
                .map(|tt| graph.tt(tt).bits_per_unit())
                .sum()
        };
        let mut order: Vec<CtId> = graph.ct_ids().collect();
        order.sort_by(|&a, &b| traffic(b).total_cmp(&traffic(a)).then(a.cmp(&b)));

        let mut hosted_count = vec![0usize; network.ncp_count()];
        for (_, host) in engine.placement().placed_cts() {
            hosted_count[host.index()] += 1;
        }
        // Even executor distribution: each worker offers a bounded
        // number of slots.
        let slots = graph.ct_count().div_ceil(network.ncp_count()).max(1);

        for ct in order {
            if engine.is_placed(ct) {
                continue;
            }
            // Added inter-node traffic if ct lands on `host`: bits of
            // TTs whose other endpoint is placed on a different NCP.
            let mut best: Option<(f64, usize, sparcle_model::NcpId)> = None;
            for host in network.ncp_ids() {
                if hosted_count[host.index()] >= slots {
                    continue;
                }
                let mut added = 0.0;
                for tt in graph.incident_edges(ct) {
                    let t = graph.tt(tt);
                    let other = t.other_endpoint(ct).expect("incident");
                    if let Some(other_host) = engine.placement().ct_host(other) {
                        if other_host != host {
                            added += t.bits_per_unit();
                        }
                    }
                }
                let key = (added, hosted_count[host.index()], host);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            // All slots exhausted can only happen when pinning already
            // over-filled hosts; fall back to ignoring slots then.
            let (_, _, host) = match best {
                Some(b) => b,
                None => {
                    let mut fallback: Option<(f64, usize, sparcle_model::NcpId)> = None;
                    for host in network.ncp_ids() {
                        let mut added = 0.0;
                        for tt in graph.incident_edges(ct) {
                            let t = graph.tt(tt);
                            let other = t.other_endpoint(ct).expect("incident");
                            if let Some(other_host) = engine.placement().ct_host(other) {
                                if other_host != host {
                                    added += t.bits_per_unit();
                                }
                            }
                        }
                        let key = (added, hosted_count[host.index()], host);
                        if fallback.is_none_or(|b| key < b) {
                            fallback = Some(key);
                        }
                    }
                    fallback.expect("network has NCPs")
                }
            };
            engine.commit_with(ct, host, RoutePolicy::FewestHops)?;
            hosted_count[host.index()] += 1;
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    #[test]
    fn respects_slot_limits() {
        // Three CTs over two NCPs: at most ceil(3/2) = 2 executors may
        // land on one worker, whatever the traffic says.
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(100.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 1e6).unwrap();
        tb.add_tt("at", a, t, 1e6).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let weak = nb.add_ncp("weak", ResourceVec::cpu(1.0));
        let strong = nb.add_ncp("strong", ResourceVec::cpu(1e6));
        nb.add_link("l", weak, strong, 1e9).unwrap();
        let net = nb.build().unwrap();

        let path = TStormAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        let mut counts = [0usize; 2];
        for (_, host) in path.placement.placed_cts() {
            counts[host.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2), "slot overflow: {counts:?}");
        // Both NCPs host something: the even-distribution constraint
        // forced the compute CT off the (slot-full) pinned host.
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn balances_when_traffic_ties() {
        // Two independent CTs tied to both endpoints equally: the
        // tie-break spreads them by hosted count.
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(1.0));
        let b = tb.add_ct("b", ResourceVec::cpu(1.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 1.0).unwrap();
        tb.add_tt("sb", s, b, 1.0).unwrap();
        tb.add_tt("at", a, t, 1.0).unwrap();
        tb.add_tt("bt", b, t, 1.0).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(1))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu(10.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(10.0));
        nb.add_link("l", x, y, 10.0).unwrap();
        let net = nb.build().unwrap();
        let path = TStormAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        // Both compute CTs placed (somewhere); placement is complete.
        assert!(path.placement.is_complete());
    }
}
