//! Extension experiment: decentralized AIMD rate control converging to
//! SPARCLE's analytic rate.
//!
//! The paper's §II positions back-pressure-style decentralized rate
//! control as complementary to its centralized allocation. This
//! experiment closes the loop: SPARCLE places the face-detection
//! pipeline, then a blind AIMD source probes the placement in the
//! queueing simulator. The converged offered rate matches the analytic
//! bottleneck Algorithm 2 maximized — two entirely different routes to
//! the same number.

use crate::{ExpHarness, ParsedFlags, Table};
use sparcle_core::DynamicRankingAssigner;
use sparcle_model::QoeClass;
use sparcle_sim::{run_aimd, AimdConfig};
use sparcle_workloads::face_detection::{face_detection_app, testbed_network};

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let app = face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload");
    let mut table = Table::new([
        "field BW (Mbps)",
        "analytic rate (img/s)",
        "AIMD converged rate",
        "ratio",
    ]);
    println!("=== extension: AIMD source control vs analytic bottleneck ===");
    for &bw in &[0.5, 10.0, 22.0] {
        let network = testbed_network(bw);
        let path = DynamicRankingAssigner::new()
            .assign(&app, &network, &network.capacity_map())
            .expect("assignable");
        let config = AimdConfig {
            initial_rate: 0.02,
            increase: 0.01,
            epoch: 600.0,
            epochs: 150,
            ..AimdConfig::default()
        };
        let trace = run_aimd(&network, app.graph(), &path.placement, &config);
        table.row([
            format!("{bw}"),
            format!("{:.4}", path.rate),
            format!("{:.4}", trace.converged_rate),
            format!("{:.2}", trace.converged_rate / path.rate),
        ]);
    }
    println!("{}", table.render());
    let path = table.write_csv("extension_aimd");
    println!("wrote {}", path.display());
}
