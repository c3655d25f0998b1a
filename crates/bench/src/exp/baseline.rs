//! Behaviour-baseline runner and regression gate.
//!
//! ```sh
//! sparcle-exp baseline [run] [--out <dir>] [<workload>...]
//! sparcle-exp baseline compare [--baseline-dir <dir>] [<workload>...]
//! ```
//!
//! `run` (the default) executes the pinned workloads in
//! [`crate::baseline::BASELINE_EXPERIMENTS`] and writes one
//! `BENCH_<workload>.json` per workload — to `target/experiments/` by
//! default, or to the committed `benchmarks/` directory when refreshing
//! the baseline (`--out benchmarks`).
//!
//! `compare` re-runs the workloads and checks each metric against the
//! committed baseline with direction-aware per-metric tolerances (see
//! [`crate::baseline`]), exiting `1` when anything regressed — the
//! nightly CI gate. Every gated metric is machine-independent; absolute
//! wall-clock numbers live in `benchmark/`.

use std::path::PathBuf;

use crate::baseline::{baselines_dir, compare, result_path, BenchResult, BASELINE_EXPERIMENTS};
use crate::{ExpFlags, ExpHarness, ParsedFlags};

pub fn flags(flags: &mut ExpFlags) {
    let mut choices = vec!["run", "compare"];
    choices.extend(BASELINE_EXPERIMENTS.iter().map(|(name, _)| *name));
    flags
        .value(
            "out",
            "where `run` writes BENCH_*.json",
            &crate::experiments_dir().display().to_string(),
        )
        .value(
            "baseline-dir",
            "the committed baselines `compare` reads",
            &baselines_dir().display().to_string(),
        )
        .operands("the mode, then the workloads (default all)", choices);
}

fn run_selected(names: &[&str]) -> Vec<BenchResult> {
    names
        .iter()
        .map(|name| {
            println!("running baseline workload {name} ...");
            let result = crate::baseline::run_experiment(name)
                .unwrap_or_else(|| panic!("unknown baseline experiment {name}"));
            for (name, value) in result.produced() {
                println!("  {name} {value:.4}");
            }
            result
        })
        .collect()
}

pub fn run(flags: &ParsedFlags, _: &ExpHarness) {
    let mut compare_mode = false;
    let mut names: Vec<&str> = Vec::new();
    for operand in flags.operands() {
        match operand.as_str() {
            "run" => compare_mode = false,
            "compare" => compare_mode = true,
            name => names.push(name),
        }
    }
    if names.is_empty() {
        names = BASELINE_EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    }
    let results = run_selected(&names);

    if !compare_mode {
        let out = PathBuf::from(flags.str("out"));
        std::fs::create_dir_all(&out).expect("create output dir");
        for result in &results {
            let path = result_path(&out, &result.experiment);
            std::fs::write(&path, result.to_json().render() + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
        return;
    }

    let baseline_dir = PathBuf::from(flags.str("baseline-dir"));
    let mut failed = false;
    for result in &results {
        let path = result_path(&baseline_dir, &result.experiment);
        let contents = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let baseline = sparcle_telemetry::parse_json(contents.trim())
            .ok()
            .as_ref()
            .and_then(BenchResult::from_json)
            .unwrap_or_else(|| panic!("malformed baseline {}", path.display()));
        let regressions = compare(result, &baseline);
        if regressions.is_empty() {
            println!(
                "{}: OK (within tolerance of committed baseline)",
                result.experiment
            );
        } else {
            failed = true;
            println!("{}: REGRESSED", result.experiment);
            for regression in &regressions {
                println!("  {regression}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
