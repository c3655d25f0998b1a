//! Figure 11: CDF of the processing rate of one task assignment —
//! diamond task graph, star network with eight NCPs, all algorithms,
//! for the NCP-bottleneck / link-bottleneck / balanced cases.
//!
//! Paper claims:
//! * Fig. 11(a) NCP-bottleneck: SPARCLE and GS coincide (γ depends only
//!   on NCP capacities, so dynamic ranking degenerates to
//!   requirement-sorted order);
//! * Fig. 11(b) link-bottleneck: SPARCLE beats everyone; notably ~+30 %
//!   mean rate over GS — the value of ranking by connecting TTs;
//! * Fig. 11(c) balanced: mean improvements of roughly +82 % / +69 % /
//!   +22 % / +17 % / +8 % over Random / T-Storm / GS / GRand / VNE.

use crate::{empirical_cdf, improvement, mean, percentile, ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_baselines::standard_roster;
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::BTreeMap;

const SCENARIOS: usize = 200;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let mut summary = Table::new([
        "case",
        "algorithm",
        "mean rate",
        "median",
        "90th pct",
        "SPARCLE vs this",
    ]);
    let mut cdf_table = Table::new(["case", "algorithm", "x", "F(x)"]);

    for case in [
        BottleneckCase::NcpBottleneck,
        BottleneckCase::LinkBottleneck,
        BottleneckCase::Balanced,
    ] {
        let cfg = ScenarioConfig::new(case, GraphKind::Diamond, TopologyKind::Star);
        let mut rng = StdRng::seed_from_u64(0x11u64 ^ (case as u64) << 3);
        let roster = standard_roster(0x5eed);
        let mut rates: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..SCENARIOS {
            let scenario = cfg.sample(&mut rng).expect("valid scenario");
            let caps = scenario.network.capacity_map();
            for algo in &roster {
                let rate = algo
                    .assign(&scenario.app, &scenario.network, &caps)
                    .map(|p| p.rate)
                    .unwrap_or(0.0);
                rates.entry(algo.name().to_owned()).or_default().push(rate);
            }
        }
        let sparcle_mean = mean(&rates["SPARCLE"]);
        let max_rate = rates.values().flatten().fold(0.0f64, |a, &b| a.max(b));
        for (name, values) in &rates {
            summary.row([
                case.to_string(),
                name.clone(),
                format!("{:.3}", mean(values)),
                format!("{:.3}", percentile(values, 0.5)),
                format!("{:.3}", percentile(values, 0.9)),
                improvement(sparcle_mean, mean(values)),
            ]);
            for (x, f) in empirical_cdf(values, max_rate, 40) {
                cdf_table.row([
                    case.to_string(),
                    name.clone(),
                    format!("{x:.4}"),
                    format!("{f:.4}"),
                ]);
            }
        }

        if case == BottleneckCase::NcpBottleneck {
            let gap =
                (mean(&rates["SPARCLE"]) - mean(&rates["GS"])).abs() / mean(&rates["SPARCLE"]);
            println!(
                "NCP-bottleneck: SPARCLE vs GS mean gap {:.1}% (paper: equivalent)",
                100.0 * gap
            );
        }
        if case == BottleneckCase::LinkBottleneck {
            println!(
                "link-bottleneck: SPARCLE vs GS {} (paper: ~+30%)",
                improvement(mean(&rates["SPARCLE"]), mean(&rates["GS"]))
            );
        }
        if case == BottleneckCase::Balanced {
            for (other, paper) in [
                ("Random", "+82%"),
                ("T-Storm", "+69%"),
                ("GS", "+22%"),
                ("GRand", "+17%"),
                ("VNE", "+8%"),
            ] {
                println!(
                    "balanced: SPARCLE vs {other} {} (paper {paper})",
                    improvement(mean(&rates["SPARCLE"]), mean(&rates[other]))
                );
            }
        }
    }
    println!("\n=== Figure 11 summary (diamond graph, star network) ===");
    println!("{}", summary.render());
    summary.write_csv("fig11_summary");
    let path = cdf_table.write_csv("fig11_cdf");
    println!("wrote {}", path.display());
}
