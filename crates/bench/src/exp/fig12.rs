//! Figure 12: multiple computation resource types (CPU + memory).
//!
//! Diamond task graph on a star network where CTs require both CPU and
//! memory; two regimes are evaluated — NCP *memory*-bottleneck and
//! link-bottleneck — and the 25th/75th percentiles of each algorithm's
//! rate are reported.
//!
//! Paper claim: with more than one resource type, GS and VNE degrade
//! drastically (their scalar rankings cannot see the binding resource),
//! while SPARCLE's `γ` takes the min over all requirement types.

use crate::{improvement, mean, percentile, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_baselines::standard_roster;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::BTreeMap;

const SCENARIOS: usize = 150;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let mut table = Table::new([
        "case",
        "algorithm",
        "25th pct",
        "75th pct",
        "mean",
        "SPARCLE vs this",
    ]);
    println!("=== Figure 12: multi-resource (CPU + memory) rates ===");
    for case in [
        BottleneckCase::MemoryBottleneck,
        BottleneckCase::LinkBottleneck,
    ] {
        let mut cfg = ScenarioConfig::new(case, GraphKind::Diamond, TopologyKind::Star);
        // The link-bottleneck variant also carries memory requirements
        // so that every algorithm faces two computation resource types.
        cfg.with_memory = true;
        let mut rng = StdRng::seed_from_u64(0x12u64 ^ (case as u64) << 5);
        let roster = standard_roster(0xfee1);
        let mut rates: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..SCENARIOS {
            let scenario = cfg.sample(&mut rng).expect("valid scenario");
            let caps = scenario.network.capacity_map();
            for algo in &roster {
                let rate = algo
                    .assign(&scenario.app, &scenario.network, &caps)
                    .map(|p| p.rate)
                    .unwrap_or(0.0);
                rates.entry(algo.name().to_owned()).or_default().push(rate);
            }
        }
        let sparcle_mean = mean(&rates["SPARCLE"]);
        for (name, values) in &rates {
            table.row([
                case.to_string(),
                name.clone(),
                format!("{:.3}", percentile(values, 0.25)),
                format!("{:.3}", percentile(values, 0.75)),
                format!("{:.3}", mean(values)),
                improvement(sparcle_mean, mean(values)),
            ]);
        }
    }
    println!("{}", table.render());
    let path = table.write_csv("fig12_multi_resource");
    println!("wrote {}", path.display());
}
