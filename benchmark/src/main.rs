//! Wall-clock admission benchmark for the SPARCLE reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload place_5k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! runs one workload and prints, as the last line of standard output,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1` (which also writes
//! `benchmark/out/trace-<workload>.jsonl`). Without `--workload` every
//! workload runs in a child process of its own, so `peak_rss_mb` is the
//! workload's. A human-readable report goes to standard error. See
//! `README.md`.

mod gen;
mod report;
mod span;
mod stats;
mod sut;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use span::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Size;

const USAGE: &str = "usage: sparcle-benchmark [--workload <name>] [--seed <u64>] \
[--seconds <s>] [--trace <0|1>] [--smoke]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    size: Size,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        size: Size::Full,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

impl Args {
    /// Seconds one workload measures for: as asked, else the contract's
    /// 20 s at full size and half a second at smoke size.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.size == Size::Smoke { 0.5 } else { 20.0 })
    }
}

fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.jsonl"))
}

/// Runs one workload in this process. A panic anywhere in it is one
/// failed operation and an incorrect run, not a lost result.
fn run_workload(name: &str, args: &Args) -> Outcome {
    let seconds = args.seconds();
    let (seed, size, trace) = (args.seed, args.size, args.trace);
    let name_owned = name.to_owned();
    let run = std::panic::catch_unwind(move || {
        let mut spans = trace.then(Spans::default);
        let mut outcome = workloads::run(&name_owned, seed, seconds, size, spans.as_mut())
            .expect("workload names are checked when parsed");
        if let Some(spans) = &spans {
            let path = trace_path(&name_owned);
            match spans.write_jsonl(&path) {
                Ok(()) => outcome.notes.push(format!(
                    "{} spans written to {}",
                    spans.all().len(),
                    path.display()
                )),
                Err(e) => outcome
                    .problems
                    .push(format!("writing {}: {e}", path.display())),
            }
        }
        outcome
    });
    let mut outcome = run.unwrap_or_else(|_| {
        let mut outcome = Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        };
        outcome.problems.push("the workload panicked".to_owned());
        outcome
    });
    if !trace {
        outcome.set("peak_rss_mb", stats::peak_rss_mb());
    }
    outcome
}

fn print_report(name: &str, args: &Args, outcome: &Outcome, names: &[(&str, &str)]) {
    eprintln!(
        "== {name}  seed {}  {} s  {} ==",
        args.seed,
        args.seconds(),
        if args.trace {
            "per layer (traced)"
        } else {
            "end to end (untraced)"
        }
    );
    for (metric, unit) in names {
        let value = outcome.metrics.get(metric).copied().unwrap_or(0.0);
        eprintln!("  {metric:<42} {value:>16.6} {unit}");
    }
    let failed_share = outcome.failed_total() as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "  attempted {}  failed {}  failed_share {failed_share:.6}  correct {}",
        outcome.attempted,
        outcome.failed_total(),
        outcome.correct()
    );
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    for problem in &outcome.problems {
        eprintln!("  PROBLEM: {problem}");
    }
}

/// Runs every workload in a child process of its own and relays its
/// result line. Fails if any child does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.size == Size::Smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        return run_all(&args);
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let outcome = run_workload(&name, &args);
    print_report(&name, &args, &outcome, names);
    println!("{}", outcome.result_line(names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args = parse(&[
            "--workload",
            "churn_1k",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("churn_1k"));
        assert_eq!((args.seed, args.seconds(), args.trace), (42, 20.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    /// Every workload end to end at smoke size, traced and untraced:
    /// correct, nothing failed, every metric present.
    #[test]
    fn smoke_runs_are_correct_and_complete() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: Some(name.to_owned()),
                    seed: 3,
                    seconds: Some(0.3),
                    trace,
                    size: Size::Smoke,
                };
                let outcome = run_workload(name, &args);
                assert!(
                    outcome.correct(),
                    "{name} trace={trace}: {:?}",
                    outcome.problems
                );
                assert_eq!(outcome.failed_total(), 0, "{name} trace={trace}");
                assert!(outcome.attempted > 0);
                if !trace {
                    for (metric, _) in END_TO_END {
                        let value = outcome.metrics.get(metric).copied();
                        assert!(
                            value.is_some_and(|v| v > 0.0),
                            "{name}: {metric} = {value:?}"
                        );
                    }
                }
            }
        }
    }
}
