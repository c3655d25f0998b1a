//! The HEFT baseline \[27\]: Heterogeneous Earliest Finish Time.
//!
//! HEFT schedules a DAG onto heterogeneous processors by (1) computing
//! each task's *upward rank* — its average execution time plus the
//! maximum over successors of average communication time + successor
//! rank — and (2) assigning tasks in descending rank order to the
//! processor that minimizes the task's earliest finish time (EFT).
//!
//! For a stream application we apply HEFT to one data unit's flow: the
//! per-unit latency of each CT on each NCP, plus per-hop transfer
//! latency for TTs crossing hosts. The resulting placement optimizes
//! *latency* of a single unit — not the sustainable *rate* — which is
//! exactly the mismatch the paper's Figure 6 exposes (HEFT does not see
//! that the bottleneck element limits throughput).

use crate::Assigner;
use sparcle_core::{
    fewest_hops_path, AssignError, AssignedPath, PlacementEngine, RoutePolicy, TraceHandle,
};
use sparcle_model::{Application, CapacityMap, CtId, Network};

/// HEFT task assignment adapted to per-data-unit latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeftAssigner {
    _private: (),
}

impl HeftAssigner {
    /// Creates the HEFT assigner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Assigner for HeftAssigner {
    fn name(&self) -> &str {
        "HEFT"
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let graph = app.graph();
        let n_ncp = network.ncp_count();

        // Average execution time of each CT over all NCPs, skipping NCPs
        // that cannot run it at all (zero capacity for a needed kind).
        let avg_exec: Vec<f64> = graph
            .ct_ids()
            .map(|ct| {
                let req = graph.ct(ct).requirement();
                if req.is_zero() {
                    return 0.0;
                }
                let mut total = 0.0;
                let mut count = 0usize;
                for ncp in network.ncp_ids() {
                    if let Some(rate) = capacities.ncp(ncp).rate_supported(req) {
                        if rate > 0.0 {
                            total += 1.0 / rate;
                            count += 1;
                        }
                    }
                }
                if count == 0 {
                    f64::INFINITY
                } else {
                    total / count as f64
                }
            })
            .collect();

        // Average communication time of each TT over all links.
        let avg_bw: f64 = {
            let total: f64 = network.link_ids().map(|l| capacities.link(l)).sum();
            (total / network.link_count().max(1) as f64).max(1e-12)
        };
        let avg_comm = |tt: sparcle_model::TtId| graph.tt(tt).bits_per_unit() / avg_bw;

        // Upward ranks via reverse topological order.
        let mut rank = vec![0.0f64; graph.ct_count()];
        for &ct in graph.topo_order().iter().rev() {
            let mut best = 0.0f64;
            for &tt in graph.out_edges(ct) {
                let succ = graph.tt(tt).to();
                best = best.max(avg_comm(tt) + rank[succ.index()]);
            }
            rank[ct.index()] = avg_exec[ct.index()] + best;
        }
        let mut order: Vec<CtId> = graph.ct_ids().collect();
        order.sort_by(|&a, &b| rank[b.index()].total_cmp(&rank[a.index()]).then(a.cmp(&b)));

        // EFT host selection with per-NCP ready times.
        let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;
        let mut ready = vec![0.0f64; n_ncp];
        let mut finish = vec![0.0f64; graph.ct_count()];
        // Pinned CTs finish at their execution time.
        for (ct, host) in engine.placement().placed_cts().collect::<Vec<_>>() {
            let exec = capacities
                .ncp(host)
                .rate_supported(graph.ct(ct).requirement())
                .map_or(0.0, |r| if r > 0.0 { 1.0 / r } else { f64::INFINITY });
            finish[ct.index()] = ready[host.index()] + exec;
            ready[host.index()] = finish[ct.index()];
        }

        for ct in order {
            if engine.is_placed(ct) {
                continue;
            }
            let mut best: Option<(f64, sparcle_model::NcpId)> = None;
            for host in network.ncp_ids() {
                let exec = match capacities
                    .ncp(host)
                    .rate_supported(graph.ct(ct).requirement())
                {
                    Some(r) if r > 0.0 => 1.0 / r,
                    Some(_) => continue,
                    None => 0.0,
                };
                // Earliest start: all placed predecessors' data must
                // arrive (hop count × per-hop transfer as a latency
                // proxy).
                let mut est = ready[host.index()];
                for &tt in graph.in_edges(ct) {
                    let pred = graph.tt(tt).from();
                    if let Some(pred_host) = engine.placement().ct_host(pred) {
                        let hops = fewest_hops_path(network, pred_host, host)
                            .map_or(usize::MAX, |p| p.len());
                        if hops == usize::MAX {
                            est = f64::INFINITY;
                            break;
                        }
                        let per_hop = graph.tt(tt).bits_per_unit() / avg_bw;
                        est = est.max(finish[pred.index()] + hops as f64 * per_hop);
                    }
                }
                let eft = est + exec;
                if eft.is_finite() && best.is_none_or(|(b, _)| eft < b) {
                    best = Some((eft, host));
                }
            }
            let (eft, host) = best.ok_or(AssignError::NoHostForCt(ct))?;
            engine.commit_with(ct, host, RoutePolicy::FewestHops)?;
            finish[ct.index()] = eft;
            ready[host.index()] = ready[host.index()].max(eft);
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    fn chain_app() -> Application {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(10.0));
        let b = tb.add_ct("b", ResourceVec::cpu(10.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 2.0).unwrap();
        tb.add_tt("ab", a, b, 2.0).unwrap();
        tb.add_tt("bt", b, t, 2.0).unwrap();
        Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap()
    }

    #[test]
    fn picks_fast_processors_for_latency() {
        let app = chain_app();
        let mut nb = NetworkBuilder::new();
        let slow = nb.add_ncp("slow", ResourceVec::cpu(1.0));
        let fast = nb.add_ncp("fast", ResourceVec::cpu(1000.0));
        nb.add_link("l", slow, fast, 1e6).unwrap();
        let net = nb.build().unwrap();
        let path = HeftAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        // With enormous bandwidth, HEFT offloads both compute CTs to the
        // fast node.
        assert_eq!(
            path.placement.ct_host(sparcle_model::CtId::new(1)),
            Some(fast)
        );
        assert_eq!(
            path.placement.ct_host(sparcle_model::CtId::new(2)),
            Some(fast)
        );
    }

    #[test]
    fn heft_ignores_bandwidth_contention() {
        // HEFT optimizes one unit's latency, so it happily routes all
        // traffic over a thin link if that minimizes latency per unit.
        let app = chain_app();
        let mut nb = NetworkBuilder::new();
        let src = nb.add_ncp("src", ResourceVec::cpu(5.0));
        let far = nb.add_ncp("far", ResourceVec::cpu(1e9));
        nb.add_link("thin", src, far, 3.0).unwrap();
        let net = nb.build().unwrap();
        let path = HeftAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        assert!(path.rate > 0.0);
    }

    #[test]
    fn upward_rank_orders_chain_front_first() {
        // In a chain, the earliest task has the largest upward rank, so
        // HEFT must place "a" before "b" — observable via determinism of
        // the final placement (smoke check on a symmetric network).
        let app = chain_app();
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu(10.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(10.0));
        nb.add_link("l", x, y, 10.0).unwrap();
        let net = nb.build().unwrap();
        let p1 = HeftAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        let p2 = HeftAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        assert_eq!(p1.placement, p2.placement);
    }
}
