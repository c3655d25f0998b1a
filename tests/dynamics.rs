//! Integration tests for system dynamics: arrivals, departures, and
//! capacity fluctuation across the full stack.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle::core::{Admission, SparcleSystem};
use sparcle::model::QoeClass;
use sparcle::sim::FluctuationModel;
use sparcle::workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

fn cfg() -> ScenarioConfig {
    ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 2 },
        TopologyKind::Star,
    )
}

/// A churn sequence of arrivals and departures never leaves the system
/// inconsistent: BE rates stay positive and jointly feasible, GR
/// residual capacity is restored exactly on departures.
#[test]
fn churn_preserves_invariants() {
    let mut rng = StdRng::seed_from_u64(0xc0c0);
    let scenario = cfg().sample(&mut rng).unwrap();
    let mut system = SparcleSystem::new(scenario.network.clone());
    let full = scenario.network.capacity_map();

    let mut live_ids = Vec::new();
    for round in 0..12 {
        // Arrivals: alternate BE and GR.
        let app = cfg().sample(&mut rng).unwrap().app;
        let app = if round % 2 == 0 {
            app.with_qoe(QoeClass::best_effort(1.0 + (round % 3) as f64))
                .unwrap()
        } else {
            app.with_qoe(QoeClass::guaranteed_rate(0.2, 0.5)).unwrap()
        };
        if let Admission::Admitted(id) = system.submit(app).unwrap() {
            live_ids.push(id);
        }
        // Departures: every third round the oldest app leaves.
        if round % 3 == 2 && !live_ids.is_empty() {
            let id = live_ids.remove(0);
            assert!(system.remove(id));
        }
        // Invariants after every step.
        for be in system.be_apps() {
            assert!(
                be.allocated_rate > 0.0,
                "BE app {} starved after round {round}",
                be.id
            );
        }
        for ncp in scenario.network.ncp_ids() {
            for (kind, residual) in system.gr_residual().ncp(ncp).iter() {
                let cap = full.ncp(ncp).amount(kind);
                assert!(
                    residual <= cap + 1e-9,
                    "residual above capacity on {ncp}: {residual} > {cap}"
                );
            }
        }
    }

    // Drain everything: residual returns to the full map.
    for id in live_ids {
        system.remove(id);
    }
    for ncp in scenario.network.ncp_ids() {
        for (kind, residual) in system.gr_residual().ncp(ncp).iter() {
            let cap = full.ncp(ncp).amount(kind);
            assert!(
                (residual - cap).abs() < 1e-6 * cap.max(1.0),
                "capacity not restored on {ncp}"
            );
        }
    }
}

/// Under continuous fluctuation, adaptive re-allocation keeps every
/// epoch's BE rates feasible against that epoch's capacities.
#[test]
fn fluctuating_capacities_stay_feasible() {
    let mut rng = StdRng::seed_from_u64(0xf10c);
    let scenario = cfg().sample(&mut rng).unwrap();
    let mut system = SparcleSystem::new(scenario.network.clone());
    for _ in 0..3 {
        let app = cfg().sample(&mut rng).unwrap().app;
        system.submit(app).unwrap();
    }
    let model = FluctuationModel {
        floor: 0.5,
        step: 0.2,
        seed: 9,
    };
    let mut series = model.series(&scenario.network);
    for _ in 0..50 {
        let caps = series.step();
        system.apply_capacity_fluctuation(&caps).unwrap();
        // Joint demand of all BE apps at their allocated rates fits.
        let mut demand = sparcle::model::LoadMap::zeroed(&scenario.network);
        for be in system.be_apps() {
            demand.merge_scaled(&be.combined_load, be.allocated_rate);
        }
        assert!(
            caps.bottleneck_rate(&demand) >= 1.0 - 1e-6,
            "allocation infeasible under fluctuation"
        );
    }
}

/// Random-DAG applications flow through the whole pipeline too.
#[test]
fn random_graphs_schedule_end_to_end() {
    let mut config = cfg();
    config.graph = GraphKind::Random { cts: 4 };
    let mut rng = StdRng::seed_from_u64(0xda6);
    for _ in 0..5 {
        let scenario = config.sample(&mut rng).unwrap();
        let mut system = SparcleSystem::new(scenario.network.clone());
        let admission = system.submit(scenario.app).unwrap();
        assert!(admission.is_admitted());
        let be = &system.be_apps()[0];
        assert!(be.allocated_rate > 0.0);
        be.paths[0]
            .placement
            .validate(be.app.graph(), &scenario.network)
            .unwrap();
    }
}
