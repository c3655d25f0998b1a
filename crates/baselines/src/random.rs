//! The Random baseline: CTs assigned to uniformly random NCPs.

use crate::Assigner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::{AssignError, AssignedPath, PlacementEngine, RoutePolicy, TraceHandle};
use sparcle_model::{Application, CapacityMap, CtId, NcpId, Network};
use std::cell::RefCell;

/// Uniformly random CT placement (§V: "the CTs of application are
/// assigned randomly on NCPs of the network"). Deterministic per seed;
/// successive calls on the same assigner draw fresh placements.
#[derive(Debug)]
pub struct RandomAssigner {
    seed: u64,
    calls: RefCell<u64>,
}

impl RandomAssigner {
    /// Creates the random assigner with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomAssigner {
            seed,
            calls: RefCell::new(0),
        }
    }
}

impl Assigner for RandomAssigner {
    fn name(&self) -> &str {
        "Random"
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
        let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;
        let order: Vec<CtId> = engine.unplaced().collect();
        for ct in order {
            // Draw hosts until one can route to all placed reachable
            // CTs; on a connected network the first draw always works.
            let mut committed = false;
            for _ in 0..4 * network.ncp_count() {
                let host = NcpId::new(rng.gen_range(0..network.ncp_count()) as u32);
                if engine.gamma_batched(ct, host).is_some() {
                    engine.commit_with(ct, host, RoutePolicy::FewestHops)?;
                    committed = true;
                    break;
                }
            }
            if !committed {
                // Exhaustive fallback for adversarial topologies.
                let mut fallback = None;
                for h in network.ncp_ids() {
                    if engine.gamma_batched(ct, h).is_some() {
                        fallback = Some(h);
                        break;
                    }
                }
                let host = fallback.ok_or(AssignError::NoHostForCt(ct))?;
                engine.commit_with(ct, host, RoutePolicy::FewestHops)?;
            }
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    fn fixture() -> (Application, Network) {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let a = tb.add_ct("a", ResourceVec::cpu(1.0));
        let b = tb.add_ct("b", ResourceVec::cpu(1.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sa", s, a, 1.0).unwrap();
        tb.add_tt("ab", a, b, 1.0).unwrap();
        tb.add_tt("bt", b, t, 1.0).unwrap();
        let app = Application::new(
            tb.build().unwrap(),
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(0))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(10.0));
        for i in 0..4 {
            let leaf = nb.add_ncp(format!("leaf{i}"), ResourceVec::cpu(10.0));
            nb.add_link(format!("l{i}"), hub, leaf, 10.0).unwrap();
        }
        (app, nb.build().unwrap())
    }

    #[test]
    fn produces_valid_placements() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let assigner = RandomAssigner::new(3);
        for _ in 0..10 {
            let path = assigner.assign(&app, &net, &caps).unwrap();
            path.placement.validate(app.graph(), &net).unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let a = RandomAssigner::new(3).assign(&app, &net, &caps).unwrap();
        let b = RandomAssigner::new(3).assign(&app, &net, &caps).unwrap();
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn different_calls_explore_different_placements() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let assigner = RandomAssigner::new(3);
        let placements: Vec<_> = (0..20)
            .map(|_| assigner.assign(&app, &net, &caps).unwrap().placement)
            .collect();
        let distinct = placements
            .iter()
            .enumerate()
            .filter(|(i, p)| placements[..*i].iter().all(|q| &q != p))
            .count();
        assert!(distinct > 1, "random assigner never varied");
    }
}
