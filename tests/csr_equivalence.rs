//! CSR-versus-oracle differential suite.
//!
//! The CSR graph core (`sparcle_model::CsrNetwork` + the bucketed
//! widest-path queue + the stub short-circuit) is the only graph the
//! placement engine traverses. Its ground truth — *legacy* in this
//! file's test names — is
//! `sparcle_oracle::assign_reference`: the eq. (2) pair scan over heap
//! searches on `Network`'s nested adjacency, which also re-derives every
//! committed route on a load map of its own. Production must match it
//! at every thread count in placements, routes, rate bits and errors,
//! over the seeded grid of `parallel_equivalence.rs`, the fig6 testbed,
//! the scaling_assign point and a hub-and-spoke scale topology.
//!
//! It also pins the γ-row adoption safety contract: exported rows are
//! stamped with the network's build generation, so a *rebuilt* (even
//! identically shaped) topology refuses adoption instead of aliasing
//! dense element ids across builds.

mod common;

use common::{assert_matches_reference, assert_same_outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, PlacementEngine};
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
        "scaling_assign/star32".to_owned(),
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

/// γ-row adoption is generation-fenced: rows exported from one engine
/// seed another engine over the *same* network build (same generation),
/// but a rebuilt topology — even one with byte-identical shape and
/// capacities — gets a fresh generation and must refuse the rows. The
/// refusal also cannot change results: the refusing engine recomputes
/// cold and commits the exact same assignment.
#[test]
fn gamma_row_adoption_is_fenced_by_network_generation() {
    let build = || ScaleSpec::new(120).build().expect("valid scale scenario");
    let a = build();
    let b = build();
    assert_eq!(a.network, b.network, "identical specs build equal networks");
    assert_ne!(
        a.network.generation(),
        b.network.generation(),
        "every build gets a fresh generation"
    );

    let caps = a.network.capacity_map();
    let rows = {
        let mut seeder = PlacementEngine::new(&a.app, &a.network, &caps).expect("assignable");
        seeder.rank_round(1).expect("rankable");
        seeder
            .export_rows()
            .expect("rows exportable before unpinned commits")
    };
    assert!(rows.present() > 0, "seeder computed at least one γ row");

    let drive = |network: &Network, adopt: Option<&sparcle_core::GammaRows>| {
        let mut engine = PlacementEngine::new(&a.app, network, &caps).expect("assignable");
        let adopted = adopt.map(|r| engine.adopt_rows(r));
        while let Some((ct, host, _)) = engine.rank_round(1).expect("rankable") {
            engine.commit(ct, host).expect("committable");
        }
        (engine.finish(), adopted)
    };

    // Same build: adoption takes, and the result matches a cold engine.
    let (cold, _) = drive(&a.network, None);
    let (warm, adopted_same) = drive(&a.network, Some(&rows));
    assert_eq!(adopted_same, Some(rows.present()), "same-build rows adopt");
    assert!(assert_same_outcome(
        "adoption/same-build",
        &cold,
        &warm,
        "warm"
    ));

    // Rebuilt topology: adoption must be refused wholesale...
    let (rebuilt, adopted_rebuilt) = drive(&b.network, Some(&rows));
    assert_eq!(
        adopted_rebuilt,
        Some(0),
        "rows from another build generation must not be adopted"
    );
    // ...and the refusing engine still produces the identical result.
    assert!(assert_same_outcome(
        "adoption/rebuilt",
        &cold,
        &rebuilt,
        "rebuilt"
    ));
}
