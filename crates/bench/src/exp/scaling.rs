//! Theorem 2 as a table: Algorithm 2 wall-clock time vs `|N|` and `|C|`.
//!
//! Prints the sweep with fitted growth exponents, which are the
//! evidence for the polynomial-time claim; the microseconds themselves
//! are one machine's (absolute costs are `benchmark/`'s to measure).

use crate::{ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, TraceHandle};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::time::Instant;

const REPS: usize = 30;

fn time_assign(cfg: &ScenarioConfig, seed: u64, trace: TraceHandle<'_>) -> f64 {
    let scenario = cfg
        .sample(&mut StdRng::seed_from_u64(seed))
        .expect("valid scenario");
    let caps = scenario.network.capacity_map();
    let assigner = DynamicRankingAssigner::new();
    // Warm up once; the warm-up run carries the trace so the decision
    // stream holds one assignment per scenario, not REPS duplicates.
    let _ = assigner.assign_with_trace(&scenario.app, &scenario.network, &caps, trace);
    let start = Instant::now();
    for _ in 0..REPS {
        let _ = assigner
            .assign(&scenario.app, &scenario.network, &caps)
            .expect("assignable");
    }
    start.elapsed().as_secs_f64() / REPS as f64
}

/// Least-squares slope of log(y) against log(x).
fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    println!("=== Theorem 2: Algorithm 2 running time (mean of {REPS} runs) ===");

    let mut t1 = Table::new(["|N| (NCPs)", "time per assignment (µs)"]);
    let mut pts = Vec::new();
    for ncps in [4usize, 8, 16, 32, 64] {
        let mut cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 4 },
            TopologyKind::Star,
        );
        cfg.ncps = ncps;
        let secs = time_assign(&cfg, 1, harness.trace());
        t1.row([format!("{ncps}"), format!("{:.1}", secs * 1e6)]);
        pts.push((ncps as f64, secs));
    }
    println!("{}", t1.render());
    println!(
        "fitted exponent in |N|: {:.2} (Theorem 2 worst case: 3)",
        fitted_exponent(&pts)
    );
    t1.write_csv("thm2_vs_network_size");

    let mut t2 = Table::new(["|C| (compute CTs)", "time per assignment (µs)"]);
    let mut pts = Vec::new();
    for stages in [2usize, 4, 8, 16, 32] {
        let cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages },
            TopologyKind::Star,
        );
        let secs = time_assign(&cfg, 2, harness.trace());
        t2.row([format!("{stages}"), format!("{:.1}", secs * 1e6)]);
        pts.push((stages as f64, secs));
    }
    println!("{}", t2.render());
    println!(
        "fitted exponent in |C|: {:.2} (Theorem 2 worst case: 3)",
        fitted_exponent(&pts)
    );
    let path = t2.write_csv("thm2_vs_graph_size");
    println!("wrote {}", path.display());
}
