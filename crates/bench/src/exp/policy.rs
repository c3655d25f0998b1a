//! Extension experiment: proportional-fair vs max-min allocation.
//!
//! The paper allocates Best-Effort rates by weighted proportional
//! fairness (problem (4)). This experiment contrasts it with weighted
//! max-min fairness on the same placements: utility (Σ P log x), the
//! minimum per-app rate (what max-min protects), and total rate, over
//! seeded multi-app scenarios.

use crate::{mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{AllocationPolicy, SparcleSystem, SystemConfig};
use sparcle_model::QoeClass;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const ROUNDS: usize = 50;
const APPS: usize = 4;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 2 },
        TopologyKind::Star,
    );
    type PolicyRow = (&'static str, Vec<f64>, Vec<f64>, Vec<f64>);
    let mut results: Vec<PolicyRow> = vec![
        ("proportional fair (paper)", vec![], vec![], vec![]),
        ("max-min fair", vec![], vec![], vec![]),
    ];
    let mut rng = StdRng::seed_from_u64(0x901_1c4);
    for _ in 0..ROUNDS {
        let base = cfg.sample(&mut rng).expect("valid scenario");
        let apps: Vec<_> = (0..APPS)
            .map(|k| {
                cfg.sample(&mut rng)
                    .expect("valid scenario")
                    .app
                    .with_qoe(QoeClass::best_effort(1.0 + (k % 2) as f64))
                    .expect("valid qoe")
            })
            .collect();
        for (slot, policy) in [
            (0usize, AllocationPolicy::ProportionalFair),
            (1, AllocationPolicy::MaxMin),
        ] {
            let config = SystemConfig {
                allocation_policy: policy,
                ..SystemConfig::default()
            };
            let mut system = SparcleSystem::with_config(base.network.clone(), config);
            for app in &apps {
                let _ = system.submit(app.clone());
            }
            if system.be_apps().len() < APPS {
                continue;
            }
            let rates: Vec<f64> = system.be_apps().iter().map(|a| a.allocated_rate).collect();
            results[slot].1.push(system.be_utility());
            results[slot]
                .2
                .push(rates.iter().cloned().fold(f64::INFINITY, f64::min));
            results[slot].3.push(rates.iter().sum());
        }
    }

    let mut table = Table::new([
        "policy",
        "mean utility Σ P log x",
        "mean min rate",
        "mean total rate",
    ]);
    for (name, utility, min_rate, total) in &results {
        table.row([
            (*name).to_owned(),
            format!("{:.3}", mean(utility)),
            format!("{:.3}", mean(min_rate)),
            format!("{:.3}", mean(total)),
        ]);
    }
    println!("=== extension: allocation policy comparison ({APPS} BE apps) ===");
    println!("{}", table.render());
    let path = table.write_csv("extension_policy");
    println!("wrote {}", path.display());
    println!(
        "\nexpected shape: proportional fairness wins on utility and usually on total\n\
         rate; max-min wins on the minimum per-app rate it protects."
    );
}
