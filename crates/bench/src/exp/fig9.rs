//! Figure 9: energy efficiency comparison.
//!
//! Linear task graph on a linear network across the three bottleneck
//! regimes; for every scenario each algorithm's placement is evaluated
//! with the utilization-proportional CPU + rate-proportional radio
//! energy model, and efficiency (data units per joule) is averaged.
//!
//! Paper claims: in the balanced case SPARCLE improves efficiency by
//! ~126 % / ~190 % / ~59 % over Random / T-Storm / VNE, and by > 53 %
//! over GS/GRand in the link-bottleneck case (concentrating CTs on
//! fewer NCPs saves transmission energy).

use crate::{improvement, mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_baselines::standard_roster;
use sparcle_sim::EnergyModel;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::BTreeMap;

const SCENARIOS: usize = 120;

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    let model = EnergyModel::default();
    let mut table = Table::new([
        "case",
        "algorithm",
        "mean efficiency (units/J)",
        "vs SPARCLE",
    ]);
    println!("=== Figure 9: energy efficiency (linear graph, linear network) ===");
    let mut balanced_means: BTreeMap<String, f64> = BTreeMap::new();
    let mut link_means: BTreeMap<String, f64> = BTreeMap::new();
    for case in BottleneckCase::SINGLE_RESOURCE {
        let mut cfg =
            ScenarioConfig::new(case, GraphKind::Linear { stages: 4 }, TopologyKind::Linear);
        cfg.ncps = 8;
        let mut rng = StdRng::seed_from_u64(0x99u64 ^ (case as u64) << 4);
        let roster = standard_roster(0x1234);
        let mut efficiencies: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..SCENARIOS {
            let scenario = cfg.sample(&mut rng).expect("valid scenario");
            let caps = scenario.network.capacity_map();
            for algo in &roster {
                let eff = match algo.assign_traced(
                    &scenario.app,
                    &scenario.network,
                    &caps,
                    harness.trace(),
                ) {
                    Ok(path) => {
                        model
                            .evaluate(&scenario.network, &caps, &path.load, path.rate)
                            .units_per_joule
                    }
                    Err(_) => 0.0,
                };
                efficiencies
                    .entry(algo.name().to_owned())
                    .or_default()
                    .push(eff);
            }
        }
        let sparcle_mean = mean(&efficiencies["SPARCLE"]);
        for (name, values) in &efficiencies {
            let m = mean(values);
            table.row([
                case.to_string(),
                name.clone(),
                format!("{m:.4}"),
                improvement(sparcle_mean, m),
            ]);
            if case == BottleneckCase::Balanced {
                balanced_means.insert(name.clone(), m);
            }
            if case == BottleneckCase::LinkBottleneck {
                link_means.insert(name.clone(), m);
            }
        }
    }
    println!("{}", table.render());
    let path = table.write_csv("fig9_energy_efficiency");
    println!("wrote {}", path.display());

    println!("\n=== headline claims (balanced case) ===");
    let s = balanced_means["SPARCLE"];
    for (name, paper) in [("Random", "+126%"), ("T-Storm", "+190%"), ("VNE", "+59%")] {
        println!(
            "SPARCLE vs {name}: {} (paper {paper})",
            improvement(s, balanced_means[name])
        );
    }
    println!("=== headline claims (link-bottleneck case) ===");
    let s = link_means["SPARCLE"];
    for name in ["GS", "GRand"] {
        println!(
            "SPARCLE vs {name}: {} (paper: >+53%)",
            improvement(s, link_means[name])
        );
    }
}
