//! `sparcle-exp <experiment> [flags]` regenerates one table or figure of
//! the paper's evaluation, or one of this repository's extensions;
//! `sparcle-exp all` runs every registered experiment in turn.
//!
//! ```sh
//! cargo run --release -p sparcle-bench --bin sparcle-exp -- fig6
//! cargo run --release -p sparcle-bench --bin sparcle-exp -- all
//! ```
//!
//! The experiments are `sparcle_bench::EXPERIMENTS`; each runs under a
//! harness named `exp_<experiment>`, which tags its trace's `run_start`
//! and names `target/experiments/exp_<experiment>_metrics.json`.

use std::process::{exit, Command};

use sparcle_bench::{ExpFlags, ExpHarness, EXPERIMENTS};

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.command == command) else {
        if command != "all" {
            usage_error(&format!("unknown experiment {command:?}"), &usage());
        }
        if let Some(arg) = args.next() {
            usage_error(&format!("`all` takes no arguments, got {arg:?}"), &usage());
        }
        return run_all();
    };
    let mut flags = ExpFlags::new();
    (experiment.flags)(&mut flags);
    let parsed = flags
        .parse_from(args)
        .unwrap_or_else(|e| usage_error(&e, &flags.usage(&command)));
    let harness = ExpHarness::with_args(&format!("exp_{command}"), &parsed);
    (experiment.run)(&parsed, &harness);
    harness.finish();
}

fn usage_error(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    exit(2)
}

/// The top-level usage: every experiment with its description.
fn usage() -> String {
    let mut out = String::from("usage: sparcle-exp <experiment> [flags]\nexperiments:");
    for e in EXPERIMENTS {
        out.push_str(&format!("\n  {:<12} {}", e.command, e.what));
    }
    out.push_str(&format!(
        "\n  {:<12} every experiment above, in order",
        "all"
    ));
    out
}

/// Runs every registered experiment as a process of its own, so one
/// that fails is reported without stopping the rest; exits 1 naming
/// the failures.
fn run_all() {
    let exe = std::env::current_exe().expect("current exe path");
    let mut failures = Vec::new();
    for e in EXPERIMENTS {
        println!("\n================================================================");
        println!("== {}: {}", e.command, e.what);
        println!("================================================================");
        let status = Command::new(&exe)
            .arg(e.command)
            .status()
            .unwrap_or_else(|err| panic!("failed to launch {}: {err}", e.command));
        if !status.success() {
            failures.push(e.command);
        }
    }
    println!("\n================================================================");
    if failures.is_empty() {
        println!(
            "all {} experiments completed; CSVs in target/experiments/",
            EXPERIMENTS.len()
        );
    } else {
        println!("FAILED experiments: {failures:?}");
        exit(1);
    }
}
