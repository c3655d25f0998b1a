//! Extension experiment: proportional-fair vs max-min allocation.
//!
//! The paper allocates Best-Effort rates by weighted proportional
//! fairness (problem (4)). This experiment contrasts it with weighted
//! max-min fairness on the same placements: utility (Σ P log x), the
//! minimum per-app rate, total rate, and the minimum per-app rate per
//! unit of priority `min x_i / P_i` (what weighted max-min protects),
//! over seeded multi-app scenarios. The system only allocates by
//! proportional fairness; placements never read the rates, so max-min
//! is computed here over the system's live placements, on the
//! constraint system its solve runs on.

use crate::{mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_alloc::{max_min_allocation, ConstraintSystem};
use sparcle_core::SparcleSystem;
use sparcle_model::{LoadMap, QoeClass};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const ROUNDS: usize = 50;
const APPS: usize = 4;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 2 },
        TopologyKind::Star,
    );
    type PolicyRow = (&'static str, [Vec<f64>; 4]);
    let mut results: Vec<PolicyRow> = vec![
        ("proportional fair (paper)", Default::default()),
        ("max-min fair", Default::default()),
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
        let mut system = SparcleSystem::new(base.network);
        for app in &apps {
            let _ = system.submit(app.clone());
        }
        if system.be_apps().len() < APPS {
            continue;
        }
        let be = system.be_apps();
        let priorities: Vec<f64> = be.iter().map(|a| a.priority).collect();
        let loads: Vec<&LoadMap> = be.iter().map(|a| &a.combined_load).collect();
        let constraints =
            ConstraintSystem::from_loads(system.network(), system.gr_residual(), &loads);
        let max_min = max_min_allocation(&constraints, &priorities).expect("placed apps fit");
        let pf: Vec<f64> = be.iter().map(|a| a.allocated_rate).collect();
        for ((_, [utility, min_rate, total, min_level]), rates) in
            results.iter_mut().zip([pf, max_min.rates])
        {
            let weighted = priorities.iter().zip(&rates);
            utility.push(weighted.clone().map(|(&p, &x)| p * x.ln()).sum());
            min_rate.push(rates.iter().cloned().fold(f64::INFINITY, f64::min));
            total.push(rates.iter().sum());
            min_level.push(weighted.map(|(&p, &x)| x / p).fold(f64::INFINITY, f64::min));
        }
    }

    let mut table = Table::new([
        "policy",
        "mean utility Σ P log x",
        "mean min rate",
        "mean total rate",
        "mean min rate / P",
    ]);
    for (name, columns) in &results {
        let mut row = vec![(*name).to_owned()];
        row.extend(columns.iter().map(|c| format!("{:.3}", mean(c))));
        table.row(row);
    }
    println!("=== extension: allocation policy comparison ({APPS} BE apps) ===");
    println!("{}", table.render());
    let path = table.write_csv("extension_policy");
    println!("wrote {}", path.display());
    println!(
        "\nexpected shape: proportional fairness wins on utility and usually on total\n\
         rate; weighted max-min wins on the minimum rate per unit of priority\n\
         (min x / P) it protects, not necessarily on the raw minimum rate."
    );
}
