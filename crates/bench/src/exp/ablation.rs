//! Ablation study: which of SPARCLE's ingredients buys what.
//!
//! Three ablations called out in DESIGN.md:
//!
//! 1. **Routing** — Algorithm 2's dynamic ranking with Algorithm 1
//!    widest-path routing vs the same ranking committing TTs on plain
//!    hop-count shortest paths (what a network-oblivious underlay
//!    gives);
//! 2. **Dynamic ranking** — full SPARCLE vs the GS static order (this
//!    is the SPARCLE-vs-GS column of Figures 11/12, reported here per
//!    bottleneck case for completeness);
//! 3. **Capacity prediction (eq. 6)** — arrival-order sensitivity of
//!    two equal-priority BE applications when the newcomer's placement
//!    anticipates its fair share (eq. 6) versus the naive alternative
//!    of handing it the residual left after the incumbent's standalone
//!    demand (first-come-first-grab).

use crate::{improvement, mean, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_alloc::{num, ConstraintSystem, PriorityLoads};
use sparcle_baselines::{Assigner, GreedySorted};
use sparcle_core::{
    AssignError, AssignedPath, DynamicRankingAssigner, PlacementEngine, RoutePolicy, TraceHandle,
};
use sparcle_model::{Application, CapacityMap, Network};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const SCENARIOS: usize = 120;

/// Algorithm 2's ranking loop with a configurable TT routing policy.
fn assign_with_policy(
    app: &Application,
    network: &Network,
    capacities: &CapacityMap,
    policy: RoutePolicy,
    trace: TraceHandle<'_>,
) -> Result<AssignedPath, AssignError> {
    let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;
    while let Some((ct, host, _)) = engine.rank_round(1)? {
        engine.commit_with(ct, host, policy)?;
    }
    engine.finish()
}

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    routing_ablation(harness.trace());
    ranking_ablation(harness.trace());
    prediction_ablation();
}

fn routing_ablation(trace: TraceHandle<'_>) {
    println!("=== ablation 1: widest-path (Alg. 1) vs hop-count TT routing ===");
    let mut table = Table::new([
        "case",
        "widest mean rate",
        "fewest-hops mean rate",
        "Alg. 1 gain",
    ]);
    for case in BottleneckCase::SINGLE_RESOURCE {
        let cfg = ScenarioConfig::new(case, GraphKind::Diamond, TopologyKind::FullyConnected);
        let mut rng = StdRng::seed_from_u64(0xab1 ^ (case as u64) << 3);
        let mut widest = Vec::new();
        let mut hops = Vec::new();
        for _ in 0..SCENARIOS {
            let s = cfg.sample(&mut rng).expect("valid scenario");
            let caps = s.network.capacity_map();
            if let Ok(p) = assign_with_policy(&s.app, &s.network, &caps, RoutePolicy::Widest, trace)
            {
                widest.push(p.rate);
            }
            if let Ok(p) =
                assign_with_policy(&s.app, &s.network, &caps, RoutePolicy::FewestHops, trace)
            {
                hops.push(p.rate);
            }
        }
        table.row([
            case.to_string(),
            format!("{:.3}", mean(&widest)),
            format!("{:.3}", mean(&hops)),
            improvement(mean(&widest), mean(&hops)),
        ]);
    }
    println!("{}", table.render());
    table.write_csv("ablation_routing");
}

fn ranking_ablation(trace: TraceHandle<'_>) {
    println!("\n=== ablation 2: dynamic ranking vs static (GS) order ===");
    let mut table = Table::new(["case", "SPARCLE mean rate", "GS mean rate", "ranking gain"]);
    for case in BottleneckCase::SINGLE_RESOURCE {
        let cfg = ScenarioConfig::new(case, GraphKind::Diamond, TopologyKind::Star);
        let mut rng = StdRng::seed_from_u64(0xab2 ^ (case as u64) << 3);
        let sparcle = DynamicRankingAssigner::new();
        let gs = GreedySorted::new();
        let mut ours = Vec::new();
        let mut theirs = Vec::new();
        for _ in 0..SCENARIOS {
            let s = cfg.sample(&mut rng).expect("valid scenario");
            let caps = s.network.capacity_map();
            if let Ok(p) = Assigner::assign_traced(&sparcle, &s.app, &s.network, &caps, trace) {
                ours.push(p.rate);
            }
            if let Ok(p) = gs.assign(&s.app, &s.network, &caps) {
                theirs.push(p.rate);
            }
        }
        table.row([
            case.to_string(),
            format!("{:.3}", mean(&ours)),
            format!("{:.3}", mean(&theirs)),
            improvement(mean(&ours), mean(&theirs)),
        ]);
    }
    println!("{}", table.render());
    table.write_csv("ablation_ranking");
}

fn prediction_ablation() {
    println!("\n=== ablation 3: eq. (6) capacity prediction vs none ===");
    println!("metric: |rate(A first) - rate(A second)| / mean, for two equal-priority apps");
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 3 },
        TopologyKind::Star,
    );
    let sparcle = DynamicRankingAssigner::new();
    let mut rng = StdRng::seed_from_u64(0xab3);
    let mut sensitivity_with = Vec::new();
    let mut sensitivity_without = Vec::new();
    for _ in 0..SCENARIOS {
        let s1 = cfg.sample(&mut rng).expect("valid scenario");
        let network = s1.network.clone();
        let app_a = s1.app;
        let app_b = cfg.sample(&mut rng).expect("valid scenario").app;

        // Helper: place `first` then `second` (optionally predicting),
        // solve (4), return the rate of app A whichever slot it is in.
        let place =
            |first: &Application, second: &Application, predict: bool| -> Option<(f64, f64)> {
                let caps = network.capacity_map();
                let p1 = Assigner::assign(&sparcle, first, &network, &caps).ok()?;
                let caps2 = if predict {
                    let mut prio = PriorityLoads::zeroed(&network);
                    prio.add_app(&p1.load, 1.0);
                    prio.predict(&caps, 1.0)
                } else {
                    // Naive residual: the incumbent grabs its standalone
                    // rate outright.
                    let mut residual = caps.clone();
                    residual.subtract_load(&p1.load, p1.rate);
                    residual
                };
                let p2 = Assigner::assign(&sparcle, second, &network, &caps2).ok()?;
                let sys = ConstraintSystem::from_loads(&network, &caps, &[&p1.load, &p2.load]);
                let (alloc, _) = num::solve(&sys, &[1.0, 1.0], None).ok()?;
                Some((alloc.rates[0], alloc.rates[1]))
            };

        for (predict, out) in [
            (true, &mut sensitivity_with),
            (false, &mut sensitivity_without),
        ] {
            if let (Some((a_first, _)), Some((_, a_second))) = (
                place(&app_a, &app_b, predict),
                place(&app_b, &app_a, predict),
            ) {
                let m = 0.5 * (a_first + a_second);
                if m > 0.0 {
                    out.push((a_first - a_second).abs() / m);
                }
            }
        }
    }
    let mut table = Table::new(["variant", "mean order sensitivity"]);
    table.row([
        "with eq. (6) prediction",
        &format!("{:.4}", mean(&sensitivity_with)),
    ]);
    table.row([
        "naive residual (no prediction)",
        &format!("{:.4}", mean(&sensitivity_without)),
    ]);
    println!("{}", table.render());
    let path = table.write_csv("ablation_prediction");
    println!("wrote {}", path.display());
}
