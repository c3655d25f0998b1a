//! Extension experiment: element-diverse multipath extraction.
//!
//! The paper iterates Algorithm 2 on residual capacities to obtain
//! additional task assignment paths (§IV-D); nothing steers later paths
//! away from the elements earlier paths already depend on, yet a backup
//! sharing the primary's flaky elements buys almost no availability.
//! `assign_multipath_diverse` adds a search-only capacity discount on
//! used elements; this experiment quantifies what that buys: for a fixed
//! number of paths, the availability achieved (and the availability per
//! unit of reserved capacity) with and without the diversity bias.

use crate::{improvement, mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_alloc::PathAvailability;
use sparcle_core::{assign_multipath_diverse, AssignedPath, DynamicRankingAssigner};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const SCENARIOS: usize = 80;
const PATHS: usize = 3;

fn availability(network: &sparcle_model::Network, paths: &[AssignedPath]) -> f64 {
    let mut analyzer = PathAvailability::new();
    for p in paths {
        analyzer
            .add_path(network, p.placement.elements_used(network), p.rate)
            .expect("small path sets");
    }
    analyzer.any_working().expect("small path sets")
}

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let mut cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 2 },
        TopologyKind::FullyConnected,
    );
    cfg.link_failure = 0.05;
    cfg.ncp_failure = 0.02;
    let assigner = DynamicRankingAssigner::new();
    let mut rng = StdRng::seed_from_u64(0xd1f);

    let mut plain_avail = Vec::new();
    let mut diverse_avail = Vec::new();
    let mut plain_rate = Vec::new();
    let mut diverse_rate = Vec::new();
    for _ in 0..SCENARIOS {
        let s = cfg.sample(&mut rng).expect("valid scenario");
        let caps = s.network.capacity_map();
        let (plain, _) =
            assign_multipath_diverse(&assigner, &s.app, &s.network, &caps, PATHS, 1e-9, 1.0);
        let (diverse, _) =
            assign_multipath_diverse(&assigner, &s.app, &s.network, &caps, PATHS, 1e-9, 0.2);
        if plain.is_empty() || diverse.is_empty() {
            continue;
        }
        plain_avail.push(availability(&s.network, &plain));
        diverse_avail.push(availability(&s.network, &diverse));
        plain_rate.push(plain.iter().map(|p| p.rate).sum::<f64>());
        diverse_rate.push(diverse.iter().map(|p| p.rate).sum::<f64>());
    }

    let mut table = Table::new([
        "variant",
        "mean availability",
        "mean unavailability",
        "mean aggregate rate",
    ]);
    table.row([
        "plain residual (paper §IV-D)".to_owned(),
        format!("{:.4}", mean(&plain_avail)),
        format!("{:.4}", 1.0 - mean(&plain_avail)),
        format!("{:.3}", mean(&plain_rate)),
    ]);
    table.row([
        "diversity-biased (discount 0.2)".to_owned(),
        format!("{:.4}", mean(&diverse_avail)),
        format!("{:.4}", 1.0 - mean(&diverse_avail)),
        format!("{:.3}", mean(&diverse_rate)),
    ]);
    println!("=== extension: diverse multipath extraction ({PATHS} paths, flaky mesh) ===");
    println!("{}", table.render());
    println!(
        "unavailability reduction: {}",
        improvement(1.0 - mean(&plain_avail), 1.0 - mean(&diverse_avail))
    );
    let path = table.write_csv("extension_diversity");
    println!("wrote {}", path.display());
}
