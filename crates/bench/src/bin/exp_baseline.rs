//! Behaviour-baseline runner and regression gate.
//!
//! ```sh
//! exp_baseline [run] [--out <dir>] [<experiment>...]
//! exp_baseline compare [--baseline-dir <dir>] [<experiment>...]
//! ```
//!
//! `run` (the default) executes the pinned workloads in
//! `sparcle_bench::baseline::BASELINE_EXPERIMENTS` and writes one
//! `BENCH_<experiment>.json` per workload — to `target/experiments/` by
//! default, or to the committed `benchmarks/` directory when refreshing
//! the baseline (`--out benchmarks`).
//!
//! `compare` re-runs the workloads and checks each metric against the
//! committed baseline with direction-aware per-metric tolerances (see
//! `sparcle_bench::baseline`), exiting `1` when anything regressed —
//! the nightly CI gate. Every gated metric is machine-independent;
//! absolute wall-clock numbers live in `benchmark/`.

use std::path::PathBuf;

use sparcle_bench::baseline::{
    baselines_dir, compare, result_path, BenchResult, BASELINE_EXPERIMENTS,
};

struct Args {
    compare_mode: bool,
    out: PathBuf,
    baseline_dir: PathBuf,
    experiments: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        compare_mode: false,
        out: sparcle_bench::experiments_dir(),
        baseline_dir: baselines_dir(),
        experiments: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "run" => args.compare_mode = false,
            "compare" => args.compare_mode = true,
            "--out" => args.out = PathBuf::from(it.next().expect("--out requires a directory")),
            "--baseline-dir" => {
                args.baseline_dir =
                    PathBuf::from(it.next().expect("--baseline-dir requires a directory"));
            }
            name if BASELINE_EXPERIMENTS.iter().any(|(n, _)| *n == name) => {
                args.experiments.push(name.to_owned());
            }
            other => eprintln!("note: ignoring unknown argument {other:?}"),
        }
    }
    if args.experiments.is_empty() {
        args.experiments = BASELINE_EXPERIMENTS
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .collect();
    }
    args
}

fn run_selected(names: &[String]) -> Vec<BenchResult> {
    names
        .iter()
        .map(|name| {
            println!("running baseline workload {name} ...");
            let result = sparcle_bench::baseline::run_experiment(name)
                .unwrap_or_else(|| panic!("unknown baseline experiment {name}"));
            for (name, value) in result.produced() {
                println!("  {name} {value:.4}");
            }
            result
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let results = run_selected(&args.experiments);

    if !args.compare_mode {
        std::fs::create_dir_all(&args.out).expect("create output dir");
        for result in &results {
            let path = result_path(&args.out, &result.experiment);
            std::fs::write(&path, result.to_json().render() + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
        return;
    }

    let mut failed = false;
    for result in &results {
        let path = result_path(&args.baseline_dir, &result.experiment);
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
