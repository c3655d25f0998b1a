//! The GS (Greedy Sorted) and GRand (Greedy Random) baselines.
//!
//! Both reuse SPARCLE's placement machinery (incremental commits with
//! widest-path TT routing) but, per §V, place CTs "based on their
//! resource requirements … not considering the connecting TTs' resource
//! requirements":
//!
//! * **GS** orders CTs by descending resource requirement;
//! * **GRand** orders CTs uniformly at random (seeded);
//! * both pick each CT's host by compute headroom alone
//!   ([`PlacementEngine::host_rate`]) — links play no part in the
//!   choice.
//!
//! Comparing these with SPARCLE isolates the value of TT-aware dynamic
//! ranking — the paper reports a ~30 % rate gain for SPARCLE over GS in
//! the link-bottleneck case precisely because GS ignores the connecting
//! TTs. In the NCP-bottleneck case `γ` reduces to the compute term, so
//! SPARCLE and GS coincide (Figure 11(a)).

use crate::Assigner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparcle_core::{AssignError, AssignedPath, PlacementEngine, TraceHandle};
use sparcle_model::{Application, CapacityMap, CtId, Network};
use std::cell::RefCell;

/// Places CTs in descending order of resource requirement (the largest
/// requirement over all resource kinds), each on its best (`argmax γ`)
/// host.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySorted {
    _private: (),
}

impl GreedySorted {
    /// Creates the GS assigner.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Places CTs in uniformly random order, each on its best (`argmax γ`)
/// host. Deterministic for a fixed seed (a fresh RNG is derived per
/// `assign` call, so repeated calls with the same inputs agree).
#[derive(Debug)]
pub struct GreedyRandom {
    seed: u64,
    calls: RefCell<u64>,
}

impl GreedyRandom {
    /// Creates the GRand assigner with the given seed.
    pub fn new(seed: u64) -> Self {
        GreedyRandom {
            seed,
            calls: RefCell::new(0),
        }
    }
}

fn assign_in_order(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    order: &[CtId],
    trace: TraceHandle<'_>,
) -> Result<AssignedPath, AssignError> {
    let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;
    for &ct in order {
        if engine.is_placed(ct) {
            continue;
        }
        // Host by compute headroom only; skip hosts that would strand a
        // TT (unroutable to a placed reachable CT). The first γ probe
        // sweeps routability for every host at once; the rest of the
        // loop reads the stored trees.
        let mut best: Option<(f64, sparcle_model::NcpId)> = None;
        for host in network.ncp_ids() {
            if engine.gamma_batched(ct, host).is_none() {
                continue;
            }
            let r = engine.host_rate(ct, host);
            if best.is_none_or(|(b, _)| r > b) {
                best = Some((r, host));
            }
        }
        let (_, host) = best.ok_or(AssignError::NoHostForCt(ct))?;
        engine.commit(ct, host)?;
    }
    engine.finish()
}

impl Assigner for GreedySorted {
    fn name(&self) -> &str {
        "GS"
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let graph = app.graph();
        let mut order: Vec<CtId> = graph.ct_ids().collect();
        // Largest requirement first; ties by id for determinism.
        let weight = |ct: CtId| {
            graph
                .ct(ct)
                .requirement()
                .iter()
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max)
        };
        order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));
        assign_in_order(app, network, capacities, &order, trace)
    }
}

impl Assigner for GreedyRandom {
    fn name(&self) -> &str {
        "GRand"
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let mut calls = self.calls.borrow_mut();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(*calls));
        *calls += 1;
        let mut order: Vec<CtId> = app.graph().ct_ids().collect();
        order.shuffle(&mut rng);
        assign_in_order(app, network, capacities, &order, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    fn fixture() -> (Application, Network) {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let big = tb.add_ct("big", ResourceVec::cpu(100.0));
        let small = tb.add_ct("small", ResourceVec::cpu(1.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("a", s, big, 1.0).unwrap();
        tb.add_tt("b", big, small, 1.0).unwrap();
        tb.add_tt("c", small, t, 1.0).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(10.0));
        for i in 0..3 {
            let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(200.0));
            nb.add_link(format!("l{i}"), hub, leaf, 100.0).unwrap();
        }
        (app, nb.build().unwrap())
    }

    #[test]
    fn gs_produces_valid_placement() {
        let (app, net) = fixture();
        let path = GreedySorted::new()
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        path.placement.validate(app.graph(), &net).unwrap();
        assert!(path.rate > 0.0);
    }

    #[test]
    fn grand_is_deterministic_for_same_seed() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let a = GreedyRandom::new(5).assign(&app, &net, &caps).unwrap();
        let b = GreedyRandom::new(5).assign(&app, &net, &caps).unwrap();
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn grand_varies_across_calls_on_same_instance() {
        // The per-call counter advances the stream so multipath-style
        // repeated invocations explore different orders.
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let g = GreedyRandom::new(5);
        let a = g.assign(&app, &net, &caps).unwrap();
        let _b = g.assign(&app, &net, &caps).unwrap();
        // No assertion on inequality (orders may coincide); just both
        // valid.
        a.placement.validate(app.graph(), &net).unwrap();
    }

    #[test]
    fn names() {
        assert_eq!(GreedySorted::new().name(), "GS");
        assert_eq!(GreedyRandom::new(0).name(), "GRand");
    }
}
