//! The behaviour-regression gate end to end: committed baselines must
//! exist and parse, `benchmarks/` and the registry must cover each
//! other exactly, each file must carry exactly its workload's keys, and
//! `compare` must catch a past-tolerance drift injected into any gated
//! metric while tolerating in-band drift.

use std::collections::BTreeSet;

use sparcle_bench::baseline::{
    baselines_dir, compare, result_path, BenchResult, BASELINE_EXPERIMENTS,
    DETERMINISTIC_TOLERANCE, METRIC_SPECS,
};
use sparcle_telemetry::Json;

/// The metric keys each pinned workload produces.
const PRODUCED_KEYS: [(&str, &[&str]); 5] = [
    ("fig6_placement", &["peak_queue_depth"]),
    ("churn_solver", &["warm_inner_iters_per_solve"]),
    ("churn_monitor", &["monitor_overhead_ratio"]),
    (
        "service_admission",
        &["warm_inner_iters_per_solve", "p99_decision_ms"],
    ),
    ("churn_defrag", &["delivered_rate_uplift"]),
];

fn load_committed_json(name: &str) -> Json {
    let path = result_path(&baselines_dir(), name);
    let contents = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {} missing: {e}", path.display()));
    sparcle_telemetry::parse_json(contents.trim())
        .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()))
}

fn load_committed(name: &str) -> BenchResult {
    BenchResult::from_json(&load_committed_json(name))
        .unwrap_or_else(|| panic!("BENCH_{name}.json: bad shape"))
}

/// `result` with the metric at `index` (in [`METRIC_SPECS`] order)
/// scaled by `factor`.
fn scaled(result: &BenchResult, index: usize, factor: f64) -> BenchResult {
    let mut out = result.clone();
    let field = [
        &mut out.peak_queue_depth,
        &mut out.warm_inner_iters_per_solve,
        &mut out.monitor_overhead_ratio,
        &mut out.p99_decision_ms,
        &mut out.delivered_rate_uplift,
    ];
    *field[index] *= factor;
    out
}

/// The factor that moves a metric `fraction` of its tolerance in its
/// bad direction.
fn drift(index: usize, fraction: f64) -> f64 {
    let spec = &METRIC_SPECS[index];
    if spec.higher_is_better {
        1.0 - spec.tolerance * fraction
    } else {
        1.0 + spec.tolerance * fraction
    }
}

#[test]
fn committed_baselines_exist_for_every_registered_experiment() {
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        assert_eq!(&baseline.experiment, name, "experiment tag must match file");
        assert!(
            baseline.metrics().iter().all(|m| m.is_finite()),
            "{name}: committed metrics must be finite"
        );
    }
}

#[test]
fn benchmarks_dir_holds_one_file_per_registered_experiment() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(baselines_dir())
        .expect("read benchmarks/")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        // `history/` (per-PR benchmark medians) lives here too.
        .filter(|name| name.starts_with("BENCH_"))
        .collect();
    let registered: BTreeSet<String> = BASELINE_EXPERIMENTS
        .iter()
        .map(|(name, _)| format!("BENCH_{name}.json"))
        .collect();
    assert_eq!(
        on_disk, registered,
        "benchmarks/ must hold exactly one BENCH_*.json per BASELINE_EXPERIMENTS entry"
    );
}

#[test]
fn committed_baselines_carry_exactly_their_workloads_keys() {
    let covered: Vec<&str> = PRODUCED_KEYS.iter().map(|(name, _)| *name).collect();
    let registered: Vec<&str> = BASELINE_EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        covered, registered,
        "PRODUCED_KEYS must follow the registry"
    );
    for (name, keys) in PRODUCED_KEYS {
        let json = load_committed_json(name);
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("BENCH_{name}.json: `metrics` must be an object");
        };
        let committed: Vec<&str> = metrics.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(committed, keys, "BENCH_{name}.json: metric keys");
        // Every key is a gated one, so none is silently ignored.
        for key in committed {
            assert!(
                METRIC_SPECS.iter().any(|spec| spec.name == key),
                "BENCH_{name}.json: {key} is not in METRIC_SPECS"
            );
        }
    }
}

#[test]
fn drift_past_tolerance_trips_exactly_the_drifted_metric() {
    let mut gated = [false; METRIC_SPECS.len()];
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        for (index, spec) in METRIC_SPECS.iter().enumerate() {
            if baseline.metrics()[index] == 0.0 {
                continue; // not produced by this workload
            }
            gated[index] = true;
            let regressions = compare(&scaled(&baseline, index, drift(index, 1.5)), &baseline);
            assert_eq!(
                regressions.len(),
                1,
                "{name}: drifting {} must regress exactly that metric",
                spec.name
            );
            assert_eq!(regressions[0].metric, spec.name);
            assert_eq!(regressions[0].tolerance, spec.tolerance);
            // The same drift in the good direction is an improvement.
            let improved = scaled(&baseline, index, 2.0 - drift(index, 1.5));
            assert!(
                compare(&improved, &baseline).is_empty(),
                "{name}: an improving {} must pass",
                spec.name
            );
        }
    }
    assert_eq!(
        gated,
        [true; METRIC_SPECS.len()],
        "every METRIC_SPECS entry must be pinned by some committed baseline"
    );
}

#[test]
fn in_band_drift_passes_the_gate() {
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        let mut noisy = baseline.clone();
        for index in 0..METRIC_SPECS.len() {
            noisy = scaled(&noisy, index, drift(index, 0.9));
        }
        assert!(
            compare(&noisy, &baseline).is_empty(),
            "{name}: within-tolerance drift must pass"
        );
    }
}

#[test]
fn deterministic_metrics_get_the_tight_band() {
    for spec in &METRIC_SPECS {
        let expected = if spec.name == "monitor_overhead_ratio" {
            0.05 // the monitor's overhead budget, a same-machine ratio
        } else {
            DETERMINISTIC_TOLERANCE
        };
        assert_eq!(spec.tolerance, expected, "{}", spec.name);
    }
}
