//! Figure 8: SPARCLE's rate as a fraction of the exhaustive optimum.
//!
//! Linear task graph with four CTs (source, two compute stages, sink —
//! the paper's "linear task graph with four CTs") on linear and
//! fully-connected networks, across the NCP-bottleneck / balanced /
//! link-bottleneck regimes. Reports the 25/50/75 percentiles of
//! `SPARCLE rate / optimal rate` over seeded random scenarios.
//!
//! Paper claim: SPARCLE "almost always finds the optimal rates" — all
//! percentiles close to 1.0.

use crate::{percentile, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_baselines::optimal_assignment;
use sparcle_core::DynamicRankingAssigner;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const SCENARIOS: usize = 100;
/// The branch-and-bound optimum makes 8-NCP instances cheap.
const NCPS: usize = 8;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let sparcle = DynamicRankingAssigner::new();
    let mut table = Table::new([
        "topology",
        "case",
        "25th pct",
        "50th pct",
        "75th pct",
        "mean",
        "scenarios",
    ]);
    println!("=== Figure 8: SPARCLE rate / optimal rate ===");
    for topology in [TopologyKind::Linear, TopologyKind::FullyConnected] {
        for case in BottleneckCase::SINGLE_RESOURCE {
            let mut cfg = ScenarioConfig::new(case, GraphKind::Linear { stages: 2 }, topology);
            cfg.ncps = NCPS;
            let mut rng = StdRng::seed_from_u64(0x8f1u64 ^ topology as u64 ^ (case as u64) << 8);
            let mut ratios = Vec::new();
            for _ in 0..SCENARIOS {
                let scenario = cfg.sample(&mut rng).expect("valid scenario");
                let caps = scenario.network.capacity_map();
                let Ok(opt) = optimal_assignment(&scenario.app, &scenario.network, &caps) else {
                    continue;
                };
                let Ok(ours) = sparcle.assign(&scenario.app, &scenario.network, &caps) else {
                    continue;
                };
                if opt.rate > 0.0 {
                    ratios.push((ours.rate / opt.rate).min(1.0));
                }
            }
            table.row([
                topology.to_string(),
                case.to_string(),
                format!("{:.3}", percentile(&ratios, 0.25)),
                format!("{:.3}", percentile(&ratios, 0.50)),
                format!("{:.3}", percentile(&ratios, 0.75)),
                format!("{:.3}", crate::mean(&ratios)),
                format!("{}", ratios.len()),
            ]);
        }
    }
    println!("{}", table.render());
    let path = table.write_csv("fig8_sparcle_over_optimal");
    println!("wrote {}", path.display());
}
