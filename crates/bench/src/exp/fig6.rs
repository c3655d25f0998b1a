//! Figure 6 + Tables I/II: face-detection processing rate vs field
//! bandwidth on the emulated testbed.
//!
//! Reproduces the paper's experimental comparison: SPARCLE, HEFT,
//! T-Storm, VNE, and cloud computing on the Figure 4 network with field
//! bandwidth ∈ {0.5, 10, 22} Mbps, with the exhaustive optimum as the
//! reference. Rates are both analytic (bottleneck formula) and measured
//! on the emulated testbed (queueing simulation driven to its stability
//! frontier).
//!
//! Paper claims this experiment checks:
//! * ~9× over cloud at 0.5 Mbps field bandwidth;
//! * SPARCLE matches the optimal assignment at every tested bandwidth;
//! * at 10 Mbps SPARCLE uses the cloud (cloud is optimal);
//! * ~23 % over cloud even at 22 Mbps;
//! * large improvements over HEFT (~300 %), T-Storm (~63 %), and VNE
//!   (~1350 %) across the sweep.

use crate::{improvement, ExpHarness, ParsedFlags, Table};
use sparcle_baselines::{
    optimal_assignment, Assigner, CloudAssigner, HeftAssigner, TStormAssigner, VneAssigner,
};
use sparcle_core::DynamicRankingAssigner;
use sparcle_model::QoeClass;
use sparcle_sim::{measure_saturated_rate, EmulatorConfig};
use sparcle_workloads::face_detection::{
    face_detection_app, testbed_network, CLOUD, CLOUD_BW_MBPS, CLOUD_CPU_MHZ, DENOISE_MC, EDGE_MC,
    FACE_MC, FIELD_CPU_MHZ, RESIZE_MC,
};

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    print_tables_i_and_ii();

    let app = face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload");
    let emulator = EmulatorConfig::default();

    let mut table = Table::new([
        "field BW (Mbps)",
        "algorithm",
        "analytic rate (img/s)",
        "measured rate (img/s)",
        "vs cloud",
        "vs optimal",
    ]);

    println!("\n=== Figure 6: application processing rate vs field bandwidth ===");
    for &bw in &[0.5, 10.0, 22.0] {
        let network = testbed_network(bw);
        let caps = network.capacity_map();

        let algos: Vec<Box<dyn Assigner>> = vec![
            Box::new(DynamicRankingAssigner::new()),
            Box::new(HeftAssigner::new()),
            Box::new(TStormAssigner::new()),
            Box::new(VneAssigner::new()),
            Box::new(CloudAssigner::new(CLOUD)),
        ];
        let optimal = optimal_assignment(&app, &network, &caps).expect("search fits the limit");
        let cloud_rate = CloudAssigner::new(CLOUD)
            .assign(&app, &network, &caps)
            .expect("cloud placement")
            .rate;

        for algo in &algos {
            let (analytic, measured) =
                match algo.assign_traced(&app, &network, &caps, harness.trace()) {
                    Ok(path) => {
                        let report = measure_saturated_rate(
                            &network,
                            app.graph(),
                            &path.placement,
                            &emulator,
                        );
                        (path.rate, report.measured_rate)
                    }
                    Err(_) => (0.0, 0.0),
                };
            table.row([
                format!("{bw}"),
                algo.name().to_owned(),
                format!("{analytic:.4}"),
                format!("{measured:.4}"),
                improvement(analytic, cloud_rate),
                format!("{:.0}%", 100.0 * analytic / optimal.rate),
            ]);
        }
        table.row([
            format!("{bw}"),
            "optimal".to_owned(),
            format!("{:.4}", optimal.rate),
            "-".to_owned(),
            improvement(optimal.rate, cloud_rate),
            "100%".to_owned(),
        ]);
    }
    println!("{}", table.render());
    let path = table.write_csv("fig6_face_detection");
    println!("wrote {}", path.display());

    headline_claims(&app, &emulator);
}

fn print_tables_i_and_ii() {
    println!("=== Table I: dispersed computing network parameters ===");
    let mut t1 = Table::new(["network element", "capacity"]);
    t1.row(["Cloud CPU", &format!("{CLOUD_CPU_MHZ} (MHz) = 4*3.8 GHz")]);
    t1.row(["Field CPU", &format!("{FIELD_CPU_MHZ} (MHz)")]);
    t1.row(["Cloud BW", &format!("{CLOUD_BW_MBPS} (Mbps)")]);
    println!("{}", t1.render());
    t1.write_csv("table1_network_parameters");

    println!("\n=== Table II: face detection application parameters ===");
    let mut t2 = Table::new(["task", "resource requirement"]);
    t2.row(["resize", &format!("{RESIZE_MC} (MC/image)")]);
    t2.row(["denoise", &format!("{DENOISE_MC} (MC/image)")]);
    t2.row(["edge detection", &format!("{EDGE_MC} (MC/image)")]);
    t2.row(["face detection", &format!("{FACE_MC} (MC/image)")]);
    t2.row(["raw image transport", "3.1 (MB/image)"]);
    t2.row(["resized image transport", "182 (kB/image)"]);
    t2.row(["denoised image transport", "145 (kB/image)"]);
    t2.row(["edge map transport", "188 (kB/image)"]);
    t2.row(["detected faces transport", "11 (kB/image)"]);
    println!("{}", t2.render());
    t2.write_csv("table2_face_detection_parameters");
}

fn headline_claims(app: &sparcle_model::Application, _emulator: &EmulatorConfig) {
    println!("\n=== headline claims ===");
    let sparcle = DynamicRankingAssigner::new();

    // 9× over cloud at 0.5 Mbps.
    let net = testbed_network(0.5);
    let caps = net.capacity_map();
    let s = sparcle.assign(app, &net, &caps).expect("sparcle placement");
    let c = CloudAssigner::new(CLOUD)
        .assign(app, &net, &caps)
        .expect("cloud placement");
    println!(
        "dispersed/cloud speedup at 0.5 Mbps: {:.1}x (paper: ~9x)",
        s.rate / c.rate
    );

    // At 10 Mbps, cloud is (near-)optimal and SPARCLE matches it.
    let net = testbed_network(10.0);
    let caps = net.capacity_map();
    let s10 = sparcle.assign(app, &net, &caps).expect("sparcle");
    let opt10 = optimal_assignment(app, &net, &caps).expect("optimal");
    println!(
        "at 10 Mbps: SPARCLE {:.4}, optimal {:.4} (paper: SPARCLE follows the optimum)",
        s10.rate, opt10.rate
    );

    // 23 % over cloud at 22 Mbps.
    let net = testbed_network(22.0);
    let caps = net.capacity_map();
    let s22 = sparcle.assign(app, &net, &caps).expect("sparcle");
    let c22 = CloudAssigner::new(CLOUD)
        .assign(app, &net, &caps)
        .expect("cloud");
    println!(
        "dispersed vs cloud at 22 Mbps: {} (paper: +23%)",
        improvement(s22.rate, c22.rate)
    );

    // Best-case improvements over HEFT / T-Storm / VNE across the sweep.
    let mut best = [(0.0f64, "HEFT"), (0.0f64, "T-Storm"), (0.0f64, "VNE")];
    for &bw in &[0.5, 10.0, 22.0] {
        let net = testbed_network(bw);
        let caps = net.capacity_map();
        let s = sparcle.assign(app, &net, &caps).expect("sparcle").rate;
        let others: [(Box<dyn Assigner>, usize); 3] = [
            (Box::new(HeftAssigner::new()), 0),
            (Box::new(TStormAssigner::new()), 1),
            (Box::new(VneAssigner::new()), 2),
        ];
        for (algo, slot) in others {
            if let Ok(p) = algo.assign(app, &net, &caps) {
                if p.rate > 0.0 {
                    let imp = 100.0 * (s - p.rate) / p.rate;
                    if imp > best[slot].0 {
                        best[slot].0 = imp;
                    }
                }
            }
        }
    }
    println!(
        "max improvement over HEFT {:.0}% (paper ~300%), T-Storm {:.0}% (paper ~63%), VNE {:.0}% (paper ~1350%)",
        best[0].0, best[1].0, best[2].0
    );
}
