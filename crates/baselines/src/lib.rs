//! Baseline task-assignment algorithms (§V of the paper).
//!
//! SPARCLE is compared against six schedulers:
//!
//! | Name | Idea | Module |
//! |------|------|--------|
//! | T-Storm \[29\] | place CTs to minimize added inter-node traffic | [`tstorm`] |
//! | VNE \[12\] | topology-aware node ranking, rank-to-rank mapping | [`vne`] |
//! | GS | SPARCLE's host selection, CTs ordered by requirement | [`greedy`] |
//! | GRand | SPARCLE's host selection, CTs in random order | [`greedy`] |
//! | HEFT \[27\] | upward-rank priority, earliest-finish-time hosts | [`heft`] |
//! | Random | random hosts | [`random`] |
//!
//! plus the **cloud computing** reference (all compute on the cloud NCP,
//! [`cloud`]) and an **exhaustive optimal** search ([`optimal`]) used to
//! normalize Figures 6 and 8.
//!
//! All baselines emit the same [`AssignedPath`] as SPARCLE, so every
//! experiment scores them identically. Schedulers that are not
//! network-aware route their TTs by hop count
//! ([`sparcle_core::RoutePolicy::FewestHops`]), mirroring what a
//! topology-oblivious scheduler gets from the underlay; GS/GRand reuse
//! SPARCLE's widest-path routing because the paper defines them as
//! SPARCLE-with-a-different-CT-order.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cloud;
pub mod greedy;
pub mod heft;
pub mod optimal;
pub mod random;
pub mod tstorm;
pub mod vne;

pub use cloud::CloudAssigner;
pub use greedy::{GreedyRandom, GreedySorted};
pub use heft::HeftAssigner;
pub use optimal::{
    optimal_assignment, optimal_assignment_exhaustive, optimal_assignment_limited,
    OptimalSearchError,
};
pub use random::RandomAssigner;
pub use tstorm::TStormAssigner;
pub use vne::VneAssigner;

use sparcle_core::{AssignError, AssignedPath, DynamicRankingAssigner, TraceHandle};
use sparcle_model::{Application, CapacityMap, Network};

/// Common interface over SPARCLE and every baseline, for sweep harnesses.
pub trait Assigner: std::fmt::Debug {
    /// Short display name used in experiment tables ("SPARCLE",
    /// "T-Storm", …).
    fn name(&self) -> &str;

    /// Produces one task assignment path for `app` on `network` under
    /// `capacities`.
    ///
    /// # Errors
    ///
    /// Returns an [`AssignError`] when no complete placement exists
    /// (disconnected pins, unroutable TTs).
    fn assign(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
    ) -> Result<AssignedPath, AssignError>;

    /// Like [`Assigner::assign`], threading a telemetry handle through
    /// to the placement engine so commit events and γ-cache counters
    /// are recorded. With [`TraceHandle::none`] this is equivalent to
    /// [`Assigner::assign`]; every roster member overrides the default
    /// to actually thread the handle through.
    ///
    /// # Errors
    ///
    /// Same as [`Assigner::assign`].
    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let _ = trace;
        self.assign(app, network, capacities)
    }
}

impl Assigner for DynamicRankingAssigner {
    fn name(&self) -> &str {
        "SPARCLE"
    }

    fn assign(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
    ) -> Result<AssignedPath, AssignError> {
        DynamicRankingAssigner::assign(self, app, network, capacities)
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        self.assign_with_trace(app, network, capacities, trace)
    }
}

/// The full comparison roster of §V-B (SPARCLE + the five simulated
/// baselines), each boxed behind the [`Assigner`] trait. `seed` feeds the
/// randomized baselines.
pub fn standard_roster(seed: u64) -> Vec<Box<dyn Assigner>> {
    vec![
        Box::new(DynamicRankingAssigner::new()),
        Box::new(GreedyRandom::new(seed)),
        Box::new(GreedySorted::new()),
        Box::new(RandomAssigner::new(seed ^ 0x9e37_79b9_7f4a_7c15)),
        Box::new(TStormAssigner::new()),
        Box::new(VneAssigner::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

    /// Every roster member completes on a balanced diamond/star scenario
    /// and produces a valid placement with a positive rate.
    #[test]
    fn roster_completes_on_standard_scenario() {
        let cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Diamond,
            TopologyKind::Star,
        );
        let scenario = cfg.sample(&mut StdRng::seed_from_u64(7)).unwrap();
        let caps = scenario.network.capacity_map();
        for assigner in standard_roster(7) {
            let path = assigner
                .assign(&scenario.app, &scenario.network, &caps)
                .unwrap_or_else(|e| panic!("{} failed: {e}", assigner.name()));
            path.placement
                .validate(scenario.app.graph(), &scenario.network)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", assigner.name()));
            assert!(path.rate > 0.0, "{} produced zero rate", assigner.name());
        }
    }

    /// SPARCLE should essentially never lose to roster members on its own
    /// metric, aggregated over scenarios.
    #[test]
    fn sparcle_wins_or_ties_on_average() {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = ScenarioConfig::new(
            BottleneckCase::LinkBottleneck,
            GraphKind::Diamond,
            TopologyKind::Star,
        );
        let mut sparcle_total = 0.0;
        let mut best_other_total = 0.0f64;
        for _ in 0..10 {
            let scenario = cfg.sample(&mut rng).unwrap();
            let caps = scenario.network.capacity_map();
            let roster = standard_roster(11);
            let mut sparcle = 0.0;
            let mut best_other: f64 = 0.0;
            for assigner in &roster {
                if let Ok(path) = assigner.assign(&scenario.app, &scenario.network, &caps) {
                    if assigner.name() == "SPARCLE" {
                        sparcle = path.rate;
                    } else {
                        best_other = best_other.max(path.rate);
                    }
                }
            }
            sparcle_total += sparcle;
            best_other_total += best_other;
        }
        assert!(
            sparcle_total >= 0.95 * best_other_total,
            "sparcle {sparcle_total} vs best baseline {best_other_total}"
        );
    }
}
