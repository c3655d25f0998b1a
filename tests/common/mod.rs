//! What the two engine-versus-oracle suites (`parallel_equivalence`,
//! `csr_equivalence`) share: the seeded scenario grid and the bit-for-bit
//! comparison of one production outcome with the oracle's.
#![allow(dead_code)] // each suite uses its own subset

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{AssignError, AssignedPath, DynamicRankingAssigner};
use sparcle_model::{
    Application, CapacityMap, Network, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
};
use sparcle_oracle::assign_reference;
use sparcle_workloads::{BottleneckCase, GraphKind, Scenario, ScenarioConfig, TopologyKind};

/// The seeded scenario grid: 3 graph families × 3 topologies × 4
/// bottleneck regimes with interleaved seeds counting up from `seed` —
/// comfortably above the 20 scenarios the determinism contract calls
/// for.
pub fn scenario_grid(mut seed: u64) -> Vec<(String, Scenario)> {
    let graphs = [
        GraphKind::Linear { stages: 5 },
        GraphKind::Diamond,
        GraphKind::Random { cts: 7 },
    ];
    let cases = BottleneckCase::SINGLE_RESOURCE
        .into_iter()
        .chain([BottleneckCase::MemoryBottleneck]);
    let mut out = Vec::new();
    for case in cases {
        for &graph in &graphs {
            for &topology in &TopologyKind::ALL {
                // Memory requirements are CPU-only on random graphs, so
                // that regime sticks to the paper's two shapes.
                if case == BottleneckCase::MemoryBottleneck
                    && matches!(graph, GraphKind::Random { .. })
                {
                    continue;
                }
                seed += 1;
                let mut cfg = ScenarioConfig::new(case, graph, topology);
                cfg.ncps = 10;
                let scenario = cfg
                    .sample(&mut StdRng::seed_from_u64(seed))
                    .expect("valid scenario config");
                out.push((format!("{case}/{graph}/{topology}/seed{seed}"), scenario));
            }
        }
    }
    assert!(out.len() >= 20, "grid too small: {}", out.len());
    out
}

pub type Outcome = Result<AssignedPath, AssignError>;

/// Requires `other` to be `reference` bit for bit: the same placement
/// (hosts and routes) and rate, or the same error. Returns whether the
/// pair was feasible.
pub fn assert_same_outcome(
    label: &str,
    reference: &Outcome,
    other: &Outcome,
    variant: &str,
) -> bool {
    let bits = |o: &Outcome| o.clone().map(|p| (p.placement, p.rate.to_bits()));
    let (reference, other) = (bits(reference), bits(other));
    assert_eq!(
        reference, other,
        "{label}: {variant} diverged from the reference scan"
    );
    reference.is_ok()
}

/// Production at 1, 2 and 8 threads against the oracle's reference scan.
/// Returns whether the scenario was feasible.
pub fn assert_matches_reference(
    label: &str,
    app: &Application,
    network: &Network,
    caps: &CapacityMap,
) -> bool {
    let reference = assign_reference(app, network, caps);
    for threads in [1, 2, 8] {
        let cached = DynamicRankingAssigner::with_threads(threads).assign(app, network, caps);
        assert_same_outcome(label, &reference, &cached, &format!("threads={threads}"));
    }
    reference.is_ok()
}

/// Asserts that an infeasible instance fails identically in production
/// and in the oracle: a pipeline of `workers` compute CTs whose source is
/// pinned on a two-NCP mainland and whose sink on an island NCP.
pub fn assert_island_sink_fails_identically(workers: usize) {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("s", ResourceVec::new());
    let mut prev = s;
    for i in 0..workers {
        let w = tb.add_ct(format!("w{i}"), ResourceVec::cpu(5.0));
        tb.add_tt(format!("tt{i}"), prev, w, 2.0).unwrap();
        prev = w;
    }
    let t = tb.add_ct("t", ResourceVec::new());
    tb.add_tt("out", prev, t, 2.0).unwrap();
    let mut nb = NetworkBuilder::new();
    let [n0, n1, island] = ["n0", "n1", "n2"].map(|n| nb.add_ncp(n, ResourceVec::cpu(50.0)));
    nb.add_link("l0", n0, n1, 100.0).unwrap();
    let net = nb.build().unwrap();
    let pins = [(s, n0), (t, island)];
    let app = Application::new(tb.build().unwrap(), QoeClass::best_effort(1.0), pins).unwrap();
    let feasible = assert_matches_reference("island sink", &app, &net, &net.capacity_map());
    assert!(!feasible, "the sink's island is unreachable");
}
