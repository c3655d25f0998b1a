//! The perf-regression gate end to end: committed baselines must exist
//! and parse, the registry must cover them, and `compare` must catch an
//! injected 2× slowdown while tolerating noise-level drift.

use sparcle_bench::baseline::{
    baselines_dir, compare, result_path, BenchResult, BASELINE_EXPERIMENTS, DEFAULT_WALL_TOLERANCE,
    METRIC_SPECS,
};

fn load_committed(name: &str) -> BenchResult {
    let path = result_path(&baselines_dir(), name);
    let contents = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {} missing: {e}", path.display()));
    let json = sparcle_telemetry::parse_json(contents.trim())
        .unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
    BenchResult::from_json(&json).unwrap_or_else(|| panic!("{}: bad shape", path.display()))
}

#[test]
fn committed_baselines_exist_for_every_registered_experiment() {
    assert!(
        BASELINE_EXPERIMENTS.len() >= 3,
        "the gate needs at least three pinned workloads"
    );
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        assert_eq!(&baseline.experiment, name, "experiment tag must match file");
        assert!(
            baseline.wall_time_s > 0.0,
            "{name}: committed wall time must be positive"
        );
        assert!(
            baseline.metrics().iter().all(|m| m.is_finite()),
            "{name}: committed metrics must be finite"
        );
    }
}

#[test]
fn injected_2x_slowdown_fails_the_gate() {
    // Synthetic regression against the *committed* baseline: doubling
    // wall time must trip the gate at the default tolerance for every
    // pinned experiment.
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        let mut slowed = baseline.clone();
        slowed.wall_time_s *= 2.0;
        let regressions = compare(&slowed, &baseline, DEFAULT_WALL_TOLERANCE);
        assert_eq!(
            regressions.len(),
            1,
            "{name}: a 2x slowdown must regress exactly wall_time_s"
        );
        assert_eq!(regressions[0].metric, "wall_time_s");
    }
}

#[test]
fn noise_level_drift_passes_the_gate() {
    for (name, _) in &BASELINE_EXPERIMENTS {
        let baseline = load_committed(name);
        let mut noisy = baseline.clone();
        noisy.wall_time_s *= 1.0 + DEFAULT_WALL_TOLERANCE * 0.9;
        if noisy.events_per_sec > 0.0 {
            noisy.events_per_sec /= 1.0 + DEFAULT_WALL_TOLERANCE * 0.9;
        }
        assert!(
            compare(&noisy, &baseline, DEFAULT_WALL_TOLERANCE).is_empty(),
            "{name}: within-tolerance drift must pass"
        );
    }
}

#[test]
fn deterministic_metrics_get_the_tight_band() {
    let specs: Vec<_> = METRIC_SPECS.iter().filter(|s| s.deterministic).collect();
    assert!(
        specs.iter().any(|s| s.name == "gamma_cache_hit_rate")
            && specs.iter().any(|s| s.name == "peak_queue_depth")
            && specs.iter().any(|s| s.name == "warm_inner_iters_per_solve")
            && specs.iter().any(|s| s.name == "p99_decision_ms")
            && specs.iter().any(|s| s.name == "delivered_rate_uplift"),
        "run-to-run-identical metrics must be gated deterministically"
    );
    let baseline = BenchResult {
        experiment: "t".to_owned(),
        wall_time_s: 1.0,
        gamma_cache_hit_rate: 0.5,
        events_per_sec: 1000.0,
        peak_queue_depth: 100.0,
        be_solve_ms_per_event: 0.1,
        warm_inner_iters_per_solve: 30.0,
        ct_commits_per_sec: 250.0,
        monitor_overhead_ratio: 1.0,
        admissions_per_sec: 500.0,
        p99_decision_ms: 12.0,
        delivered_rate_uplift: 1.1,
        defrag_overhead_ratio: 1.2,
    };
    let mut drifted = baseline.clone();
    drifted.peak_queue_depth = 105.0; // +5 % on a deterministic metric
    let regressions = compare(&drifted, &baseline, DEFAULT_WALL_TOLERANCE);
    assert_eq!(regressions.len(), 1);
    assert_eq!(regressions[0].metric, "peak_queue_depth");
}
