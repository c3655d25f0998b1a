//! Regression guards for the paper's headline claims, in miniature.
//!
//! The full experiments live in `sparcle-bench`; these tests re-check
//! the *direction* of each claim on small seeded samples so that a
//! regression in any algorithm immediately fails `cargo test`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle::baselines::{optimal_assignment, standard_roster, Assigner, GreedySorted};
use sparcle::core::DynamicRankingAssigner;
use sparcle::sim::EnergyModel;
use sparcle::workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Figure 8: SPARCLE is near-optimal in the single-resource bottleneck
/// regimes.
#[test]
fn near_optimal_in_bottleneck_regimes() {
    for case in [
        BottleneckCase::NcpBottleneck,
        BottleneckCase::LinkBottleneck,
    ] {
        let mut cfg = ScenarioConfig::new(
            case,
            GraphKind::Linear { stages: 2 },
            TopologyKind::FullyConnected,
        );
        cfg.ncps = 5;
        let mut rng = StdRng::seed_from_u64(81);
        let mut ratios = Vec::new();
        for _ in 0..15 {
            let s = cfg.sample(&mut rng).unwrap();
            let caps = s.network.capacity_map();
            let opt = optimal_assignment(&s.app, &s.network, &caps).unwrap();
            let ours = DynamicRankingAssigner::new()
                .assign(&s.app, &s.network, &caps)
                .unwrap();
            ratios.push(ours.rate / opt.rate);
        }
        assert!(
            mean(&ratios) > 0.93,
            "{case}: mean optimality ratio {}",
            mean(&ratios)
        );
    }
}

/// Figure 8 in full, as a tripwire: `exp_fig8`'s loop (same seeds, 100
/// scenarios per cell, 8 NCPs) with the quartiles of `SPARCLE rate /
/// optimal rate` pinned to the three decimals the binary prints. Speed
/// work on the engine or the solver must not move placement quality; a
/// deliberate change re-pins the table here and in EXPERIMENTS.md.
#[test]
fn fig8_quartiles_are_pinned() {
    // The interpolating quantile of `sparcle_bench::percentile`.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        let idx = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
    let sparcle = DynamicRankingAssigner::new();
    let mut table = Vec::new();
    for topology in [TopologyKind::Linear, TopologyKind::FullyConnected] {
        for case in BottleneckCase::SINGLE_RESOURCE {
            let mut cfg = ScenarioConfig::new(case, GraphKind::Linear { stages: 2 }, topology);
            cfg.ncps = 8;
            let mut rng = StdRng::seed_from_u64(0x8f1u64 ^ topology as u64 ^ (case as u64) << 8);
            let mut ratios = Vec::new();
            for _ in 0..100 {
                let s = cfg.sample(&mut rng).unwrap();
                let caps = s.network.capacity_map();
                let Ok(opt) = optimal_assignment(&s.app, &s.network, &caps) else {
                    continue;
                };
                let Ok(ours) = sparcle.assign(&s.app, &s.network, &caps) else {
                    continue;
                };
                if opt.rate > 0.0 {
                    ratios.push((ours.rate / opt.rate).min(1.0));
                }
            }
            ratios.sort_by(f64::total_cmp);
            let quartiles = [0.25, 0.50, 0.75].map(|p| format!("{:.3}", percentile(&ratios, p)));
            table.push(format!("{topology}/{case} {}", quartiles.join(" ")));
        }
    }
    assert_eq!(
        table,
        [
            "linear/ncp-bottleneck 1.000 1.000 1.000",
            "linear/balanced 0.785 0.922 1.000",
            "linear/link-bottleneck 1.000 1.000 1.000",
            "fully-connected/ncp-bottleneck 1.000 1.000 1.000",
            "fully-connected/balanced 0.924 1.000 1.000",
            "fully-connected/link-bottleneck 1.000 1.000 1.000",
        ]
    );
}

/// Figure 11(a): in the NCP-bottleneck case SPARCLE and GS coincide (γ
/// reduces to the compute term).
#[test]
fn ncp_bottleneck_sparcle_equals_gs() {
    let cfg = ScenarioConfig::new(
        BottleneckCase::NcpBottleneck,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(111);
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for _ in 0..25 {
        let s = cfg.sample(&mut rng).unwrap();
        let caps = s.network.capacity_map();
        ours.push(
            Assigner::assign(&DynamicRankingAssigner::new(), &s.app, &s.network, &caps)
                .unwrap()
                .rate,
        );
        theirs.push(
            GreedySorted::new()
                .assign(&s.app, &s.network, &caps)
                .unwrap()
                .rate,
        );
    }
    let gap = (mean(&ours) - mean(&theirs)).abs() / mean(&ours);
    assert!(gap < 0.05, "SPARCLE vs GS gap {gap} in NCP-bottleneck");
}

/// Figure 11(b): in the link-bottleneck case SPARCLE clearly beats the
/// TT-blind GS ordering.
#[test]
fn link_bottleneck_sparcle_beats_gs() {
    let cfg = ScenarioConfig::new(
        BottleneckCase::LinkBottleneck,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(112);
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for _ in 0..25 {
        let s = cfg.sample(&mut rng).unwrap();
        let caps = s.network.capacity_map();
        ours.push(
            Assigner::assign(&DynamicRankingAssigner::new(), &s.app, &s.network, &caps)
                .unwrap()
                .rate,
        );
        theirs.push(
            GreedySorted::new()
                .assign(&s.app, &s.network, &caps)
                .unwrap()
                .rate,
        );
    }
    assert!(
        mean(&ours) > 1.3 * mean(&theirs),
        "SPARCLE {} vs GS {} in link-bottleneck",
        mean(&ours),
        mean(&theirs)
    );
}

/// Figure 9's direction: SPARCLE's energy efficiency beats the Random
/// and VNE baselines in the balanced case.
#[test]
fn balanced_energy_efficiency_beats_naive_baselines() {
    let mut cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 4 },
        TopologyKind::Linear,
    );
    cfg.ncps = 8;
    let model = EnergyModel::default();
    let mut rng = StdRng::seed_from_u64(90);
    let roster = standard_roster(90);
    let mut eff: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for _ in 0..30 {
        let s = cfg.sample(&mut rng).unwrap();
        let caps = s.network.capacity_map();
        for algo in &roster {
            let e = algo
                .assign(&s.app, &s.network, &caps)
                .map(|p| {
                    model
                        .evaluate(&s.network, &caps, &p.load, p.rate)
                        .units_per_joule
                })
                .unwrap_or(0.0);
            eff.entry(algo.name().to_owned()).or_default().push(e);
        }
    }
    let sparcle = mean(&eff["SPARCLE"]);
    assert!(
        sparcle > 1.3 * mean(&eff["Random"]),
        "vs Random: {sparcle} vs {}",
        mean(&eff["Random"])
    );
    assert!(
        sparcle > 1.2 * mean(&eff["VNE"]),
        "vs VNE: {sparcle} vs {}",
        mean(&eff["VNE"])
    );
}

/// Figure 12's direction: with CPU + memory requirements SPARCLE beats
/// VNE decisively (their scalar ranking misses the binding resource).
#[test]
fn multi_resource_beats_vne() {
    let cfg = ScenarioConfig::new(
        BottleneckCase::MemoryBottleneck,
        GraphKind::Diamond,
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(120);
    let roster = standard_roster(120);
    let mut ours = Vec::new();
    let mut vne = Vec::new();
    for _ in 0..25 {
        let s = cfg.sample(&mut rng).unwrap();
        let caps = s.network.capacity_map();
        for algo in &roster {
            let rate = algo
                .assign(&s.app, &s.network, &caps)
                .map(|p| p.rate)
                .unwrap_or(0.0);
            match algo.name() {
                "SPARCLE" => ours.push(rate),
                "VNE" => vne.push(rate),
                _ => {}
            }
        }
    }
    assert!(
        mean(&ours) > 1.25 * mean(&vne),
        "SPARCLE {} vs VNE {}",
        mean(&ours),
        mean(&vne)
    );
}
