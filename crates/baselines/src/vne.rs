//! The VNE baseline \[12\]: topology-aware node ranking (NodeRank).
//!
//! Cheng et al. embed virtual networks by computing a Markov-chain
//! ranking of nodes — a PageRank-style score seeded by each node's
//! `CPU × Σ adjacent bandwidth` — for both the virtual graph (here: the
//! task graph, with `requirement × Σ incident TT bits`) and the
//! substrate (the computing network), then mapping nodes rank-to-rank
//! and routing virtual links on shortest paths.
//!
//! The key mismatch the paper exploits: VNE treats each virtual node's
//! demand as *fixed*, so the mapping never adapts to how placement
//! changes the application's achievable rate.

use crate::Assigner;
use sparcle_core::{AssignError, AssignedPath, PlacementEngine, RoutePolicy, TraceHandle};
use sparcle_model::{Application, CapacityMap, CtId, NcpId, Network};

/// PageRank damping factor used by the NodeRank iteration.
const DAMPING: f64 = 0.85;
/// Power-iteration rounds (converges in well under 50 for these sizes).
const ROUNDS: usize = 50;

/// NodeRank-based task assignment in the style of VNE \[12\].
#[derive(Debug, Clone, Copy, Default)]
pub struct VneAssigner {
    _private: (),
}

impl VneAssigner {
    /// Creates the VNE assigner.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Power iteration of `r ← (1−d)·h + d·Wᵀr` where `W` spreads a node's
/// rank to its neighbors proportionally to the neighbors' seed scores.
fn node_rank(h: &[f64], neighbors: &[Vec<usize>]) -> Vec<f64> {
    let n = h.len();
    let total: f64 = h.iter().sum::<f64>().max(1e-300);
    let seed: Vec<f64> = h.iter().map(|&x| x / total).collect();
    let mut rank = seed.clone();
    for _ in 0..ROUNDS {
        let mut next = vec![0.0; n];
        for v in 0..n {
            let nbrs = &neighbors[v];
            if nbrs.is_empty() {
                // Dangling mass returns to the seed distribution.
                for (u, s) in seed.iter().enumerate() {
                    next[u] += rank[v] * s;
                }
                continue;
            }
            let mass: f64 = nbrs.iter().map(|&u| seed[u]).sum::<f64>().max(1e-300);
            for &u in nbrs {
                next[u] += rank[v] * seed[u] / mass;
            }
        }
        for v in 0..n {
            rank[v] = (1.0 - DAMPING) * seed[v] + DAMPING * next[v];
        }
    }
    rank
}

impl Assigner for VneAssigner {
    fn name(&self) -> &str {
        "VNE"
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

        // Substrate ranking: seed = available CPU × Σ adjacent residual
        // bandwidth.
        let sub_h: Vec<f64> = network
            .ncp_ids()
            .map(|ncp| {
                let cpu = capacities
                    .ncp(ncp)
                    .iter()
                    .map(|(_, v)| v)
                    .fold(0.0f64, f64::max);
                let bw: f64 = network
                    .neighbors(ncp)
                    .map(|(l, _)| capacities.link(l))
                    .sum();
                cpu * bw.max(1e-12)
            })
            .collect();
        let sub_nbrs: Vec<Vec<usize>> = network
            .ncp_ids()
            .map(|ncp| network.neighbors(ncp).map(|(_, v)| v.index()).collect())
            .collect();
        let sub_rank = node_rank(&sub_h, &sub_nbrs);
        let mut ncps_by_rank: Vec<NcpId> = network.ncp_ids().collect();
        ncps_by_rank.sort_by(|&a, &b| {
            sub_rank[b.index()]
                .total_cmp(&sub_rank[a.index()])
                .then(a.cmp(&b))
        });

        // Virtual ranking: seed = requirement × Σ incident TT bits
        // (epsilon floors keep zero-requirement CTs rankable).
        let virt_h: Vec<f64> = graph
            .ct_ids()
            .map(|ct| {
                let req = graph
                    .ct(ct)
                    .requirement()
                    .iter()
                    .map(|(_, v)| v)
                    .fold(0.0f64, f64::max)
                    .max(1e-9);
                let bits: f64 = graph
                    .incident_edges(ct)
                    .map(|tt| graph.tt(tt).bits_per_unit())
                    .sum();
                req * bits.max(1e-9)
            })
            .collect();
        let virt_nbrs: Vec<Vec<usize>> = graph
            .ct_ids()
            .map(|ct| {
                graph
                    .incident_edges(ct)
                    .filter_map(|tt| graph.tt(tt).other_endpoint(ct))
                    .map(|c| c.index())
                    .collect()
            })
            .collect();
        let virt_rank = node_rank(&virt_h, &virt_nbrs);
        let mut cts_by_rank: Vec<CtId> = graph.ct_ids().collect();
        cts_by_rank.sort_by(|&a, &b| {
            virt_rank[b.index()]
                .total_cmp(&virt_rank[a.index()])
                .then(a.cmp(&b))
        });

        // Rank-to-rank greedy map: k-th ranked (unpinned) CT onto the
        // k-th ranked NCP, keeping hosts distinct while they last (the
        // VNE one-to-one constraint), then wrapping.
        let mut next_slot = 0usize;
        for ct in cts_by_rank {
            if engine.is_placed(ct) {
                continue;
            }
            let host = ncps_by_rank[next_slot % ncps_by_rank.len()];
            next_slot += 1;
            engine.commit_with(ct, host, RoutePolicy::FewestHops)?;
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    #[test]
    fn rank_prefers_resource_rich_hub() {
        // Star with a fat hub: the hub must outrank the leaves.
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(1000.0));
        for i in 0..3 {
            let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(10.0));
            nb.add_link(format!("l{i}"), hub, leaf, 100.0).unwrap();
        }
        let net = nb.build().unwrap();
        let caps = net.capacity_map();
        let h: Vec<f64> = net
            .ncp_ids()
            .map(|ncp| {
                let cpu = caps.ncp(ncp).iter().map(|(_, v)| v).fold(0.0f64, f64::max);
                let bw: f64 = net.neighbors(ncp).map(|(l, _)| caps.link(l)).sum();
                cpu * bw.max(1e-12)
            })
            .collect();
        let nbrs: Vec<Vec<usize>> = net
            .ncp_ids()
            .map(|n| net.neighbors(n).map(|(_, v)| v.index()).collect())
            .collect();
        let rank = node_rank(&h, &nbrs);
        assert!(rank[0] > rank[1], "hub {} leaf {}", rank[0], rank[1]);
    }

    #[test]
    fn rank_sums_to_one() {
        let h = [1.0, 2.0, 3.0];
        let nbrs = vec![vec![1], vec![0, 2], vec![1]];
        let rank = node_rank(&h, &nbrs);
        let total: f64 = rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn produces_valid_placement() {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(10.0));
        let b = tb.add_ct("b", ResourceVec::cpu(20.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 5.0).unwrap();
        tb.add_tt("ab", a, b, 5.0).unwrap();
        tb.add_tt("bt", b, t, 5.0).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(1)), (t, NcpId::new(2))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu(100.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(100.0));
        let z = nb.add_ncp("z", ResourceVec::cpu(100.0));
        nb.add_link("xy", x, y, 50.0).unwrap();
        nb.add_link("yz", y, z, 50.0).unwrap();
        let net = nb.build().unwrap();
        let path = VneAssigner::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        assert!(path.rate > 0.0);
    }
}
