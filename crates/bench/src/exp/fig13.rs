//! Figure 13: CDF of the proportional-fair utility (problem (4)) with
//! two Best-Effort applications, `P1 = 2 P2`.
//!
//! Two diamond-graph BE applications arrive on a balanced star network
//! of eight NCPs. For each task-assignment algorithm, both applications
//! are placed sequentially (the second against the eq.-(6) predicted
//! capacities, exactly as SPARCLE's pipeline prescribes — prediction is
//! allocation-side and shared by all algorithms) and the exact rates
//! come from solving (4). The CDF of the achieved utility
//! `Σ P_i log x_i` is compared across algorithms.
//!
//! Paper claim: SPARCLE attains the best utility distribution.

use crate::{empirical_cdf, mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_alloc::{num, ConstraintSystem, PriorityLoads};
use sparcle_baselines::standard_roster;
use sparcle_model::QoeClass;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::BTreeMap;

const SCENARIOS: usize = 150;
const P1: f64 = 2.0;
const P2: f64 = 1.0;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let roster = standard_roster(0x13);
    let mut utilities: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x13_13);
    for _ in 0..SCENARIOS {
        // Two independent app draws on one shared network draw.
        let s1 = cfg.sample(&mut rng).expect("valid scenario");
        let network = s1.network.clone();
        let app1 = s1
            .app
            .clone()
            .with_qoe(QoeClass::best_effort(P1))
            .expect("valid qoe");
        let app2 = cfg
            .sample(&mut rng)
            .expect("valid scenario")
            .app
            .with_qoe(QoeClass::best_effort(P2))
            .expect("valid qoe");

        for algo in &roster {
            let caps = network.capacity_map();
            let Ok(path1) = algo.assign(&app1, &network, &caps) else {
                continue;
            };
            // Predict app2's share (eq. 6) before placing it.
            let mut prio = PriorityLoads::zeroed(&network);
            prio.add_app(&path1.load, P1);
            let predicted = prio.predict(&caps, P2);
            let Ok(path2) = algo.assign(&app2, &network, &predicted) else {
                continue;
            };
            // Exact rates from (4) on the *true* capacities.
            let system = ConstraintSystem::from_loads(&network, &caps, &[&path1.load, &path2.load]);
            if let Ok((alloc, _)) = num::solve(&system, &[P1, P2], None) {
                utilities
                    .entry(algo.name().to_owned())
                    .or_default()
                    .push(alloc.utility);
            }
        }
    }

    let mut summary = Table::new(["algorithm", "mean utility", "scenarios"]);
    let mut cdf_table = Table::new(["algorithm", "utility", "F"]);
    let lo = utilities
        .values()
        .flatten()
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let hi = utilities
        .values()
        .flatten()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    for (name, values) in &utilities {
        summary.row([
            name.clone(),
            format!("{:.3}", mean(values)),
            format!("{}", values.len()),
        ]);
        // Shift to positive axis for the generic CDF sampler.
        let shifted: Vec<f64> = values.iter().map(|u| u - lo).collect();
        for (x, f) in empirical_cdf(&shifted, hi - lo, 40) {
            cdf_table.row([name.clone(), format!("{:.4}", x + lo), format!("{f:.4}")]);
        }
    }
    println!("=== Figure 13: utility of (4), two BE apps, P1 = 2 P2 ===");
    println!("{}", summary.render());
    summary.write_csv("fig13_summary");
    let path = cdf_table.write_csv("fig13_cdf");
    println!("wrote {}", path.display());

    let sparcle = mean(&utilities["SPARCLE"]);
    let best_other = utilities
        .iter()
        .filter(|(n, _)| n.as_str() != "SPARCLE")
        .map(|(_, v)| mean(v))
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "SPARCLE mean utility {sparcle:.3} vs best baseline {best_other:.3} (paper: SPARCLE outperforms all)"
    );
}
