//! Figure 14: total processing rate of admitted Guaranteed-Rate
//! applications.
//!
//! A stream of GR applications (mixed diamond and linear task graphs,
//! random requested rates) arrives at a star network. Each algorithm
//! runs the same admission loop (§IV-D): extract task assignment paths
//! on residual capacities, reserve rate up to the request, admit when
//! the request is covered, reject (restoring capacity) otherwise. The
//! metric is the total reserved rate of admitted applications.
//!
//! Paper claim: SPARCLE admits considerably more aggregate GR rate than
//! every baseline.

use crate::{improvement, mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_baselines::{standard_roster, Assigner};
use sparcle_model::{Application, CapacityMap, Network, QoeClass};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::BTreeMap;

const ROUNDS: usize = 40;
const APPS_PER_ROUND: usize = 6;
const MAX_PATHS: usize = 6;

/// Runs the GR admission loop for one application with an arbitrary
/// assigner: returns the reserved rate if admitted (mutating the
/// residual capacities), or `None` (restoring them).
fn admit_gr(
    assigner: &dyn Assigner,
    app: &Application,
    network: &Network,
    residual: &mut CapacityMap,
    min_rate: f64,
) -> Option<f64> {
    let snapshot = residual.clone();
    let mut covered = 0.0;
    for _ in 0..MAX_PATHS {
        let Ok(path) = assigner.assign(app, network, residual) else {
            break;
        };
        if !(path.rate.is_finite() && path.rate > 1e-9) {
            break;
        }
        let reserve = path.rate.min(min_rate - covered);
        residual.subtract_load(&path.load, reserve);
        covered += reserve;
        if covered + 1e-9 >= min_rate {
            return Some(min_rate);
        }
    }
    *residual = snapshot;
    None
}

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let mut totals: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut admitted_counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let diamond_cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let linear_cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 4 },
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(0x14_14);
    for _ in 0..ROUNDS {
        // One network per round, shared by all algorithms; a mixed GR
        // app arrival sequence with random requested rates.
        let base = diamond_cfg.sample(&mut rng).expect("valid scenario");
        let network = base.network.clone();
        let mut apps: Vec<(Application, f64)> = Vec::new();
        for k in 0..APPS_PER_ROUND {
            let graph_cfg = if k % 2 == 0 {
                &diamond_cfg
            } else {
                &linear_cfg
            };
            let app = graph_cfg.sample(&mut rng).expect("valid scenario").app;
            let min_rate = rng.gen_range(0.3..1.5);
            let app = app
                .with_qoe(QoeClass::guaranteed_rate(min_rate, 0.99))
                .expect("valid qoe");
            apps.push((app, min_rate));
        }
        for algo in standard_roster(0x14) {
            let mut residual = network.capacity_map();
            let mut total = 0.0;
            let mut count = 0.0;
            for (app, min_rate) in &apps {
                if let Some(rate) = admit_gr(algo.as_ref(), app, &network, &mut residual, *min_rate)
                {
                    total += rate;
                    count += 1.0;
                }
            }
            totals
                .entry(algo.name().to_owned())
                .or_default()
                .push(total);
            admitted_counts
                .entry(algo.name().to_owned())
                .or_default()
                .push(count);
        }
    }

    let sparcle_mean = mean(&totals["SPARCLE"]);
    let mut table = Table::new([
        "algorithm",
        "total admitted GR rate (mean)",
        "apps admitted (mean)",
        "SPARCLE vs this",
    ]);
    println!("=== Figure 14: total admitted GR rate (diamond+linear graphs, star network) ===");
    for (name, values) in &totals {
        table.row([
            name.clone(),
            format!("{:.3}", mean(values)),
            format!("{:.2}", mean(&admitted_counts[name])),
            improvement(sparcle_mean, mean(values)),
        ]);
    }
    println!("{}", table.render());
    let path = table.write_csv("fig14_gr_admission");
    println!("wrote {}", path.display());
}
