//! CSR-versus-oracle differential suite.
//!
//! The CSR graph core (`sparcle_model::CsrNetwork` + the widest-path
//! searches + the stub short-circuit) is the only graph the
//! placement engine traverses. Its ground truth — *legacy* in this
//! file's test names — is
//! `sparcle_oracle::assign_reference`: the eq. (2) pair scan over heap
//! searches on `Network`'s nested adjacency, which also re-derives every
//! committed route on a load map of its own. Production must match it
//! at every thread count in placements, routes, rate bits and errors,
//! over the seeded grid of `parallel_equivalence.rs`, the fig6 testbed,
//! the 32-NCP `exp_scaling` point and a hub-and-spoke scale topology.

mod common;

use common::{assert_matches_reference, assert_same_outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::DynamicRankingAssigner;
use sparcle_model::{Application, Network, QoeClass};
use sparcle_oracle::assign_reference;
use sparcle_workloads::face_detection::{face_detection_app, testbed_network};
use sparcle_workloads::{
    BottleneckCase, GraphKind, ScaleSpec, Scenario, ScenarioConfig, TopologyKind,
};

/// The seeded scenario grid shared with `parallel_equivalence.rs`, on
/// seeds of its own.
fn scenario_grid() -> Vec<(String, Scenario)> {
    common::scenario_grid(0xc5a0)
}

/// Named (app, network) pairs beyond the random grid: the benchmark
/// workloads the CSR core explicitly targets.
fn named_scenarios() -> Vec<(String, Application, Network)> {
    let mut out = Vec::new();
    for &bw in &[0.5, 10.0, 22.0] {
        out.push((
            format!("fig6/testbed@{bw}Mbps"),
            face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload"),
            testbed_network(bw),
        ));
    }
    let scaling = {
        let mut c = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 8 },
            TopologyKind::Star,
        );
        c.ncps = 32;
        c.sample(&mut StdRng::seed_from_u64(1))
            .expect("valid scenario")
    };
    out.push((
        "exp_scaling/star32".to_owned(),
        scaling.app,
        scaling.network,
    ));
    let scale = ScaleSpec::new(300).build().expect("valid scale scenario");
    out.push((
        "scale/hub-and-spoke300".to_owned(),
        scale.app,
        scale.network,
    ));
    out
}

#[test]
fn csr_matches_legacy_on_the_scenario_grid() {
    let mut compared = 0;
    for (label, scenario) in scenario_grid() {
        let caps = scenario.network.capacity_map();
        if assert_matches_reference(&label, &scenario.app, &scenario.network, &caps) {
            compared += 1;
        }
    }
    assert!(compared >= 20, "too few feasible comparisons: {compared}");
}

#[test]
fn csr_matches_legacy_on_benchmark_workloads() {
    for (label, app, network) in named_scenarios() {
        let caps = network.capacity_map();
        assert!(
            assert_matches_reference(&label, &app, &network, &caps),
            "{label}: benchmark workload must be assignable"
        );
    }
}

/// The default assigner — what every caller that names no thread count
/// gets — against the reference scan.
#[test]
fn default_csr_assigner_matches_legacy_reference_scan() {
    for (label, scenario) in scenario_grid().into_iter().step_by(4) {
        let caps = scenario.network.capacity_map();
        let reference = assign_reference(&scenario.app, &scenario.network, &caps);
        let csr = DynamicRankingAssigner::new().assign(&scenario.app, &scenario.network, &caps);
        assert_same_outcome(&label, &reference, &csr, "default-csr");
    }
}

/// Infeasible instances fail identically: the CSR router must report
/// the same `NoRoute` the oracle's heap router does.
#[test]
fn infeasible_scenarios_fail_identically_across_representations() {
    common::assert_island_sink_fails_identically(1);
}
