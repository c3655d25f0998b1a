//! `sparcle-trace` — offline analysis of SPARCLE JSONL telemetry traces.
//!
//! ```text
//! sparcle-trace summary  <trace.jsonl>              per-kind counts + rollups
//!                                                   + cause taxonomy
//! sparcle-trace explain  <trace.jsonl> --app N      one app's/request's causal
//!                        | --lineage N | --pick O   lifecycle from id/causes
//! sparcle-trace report   <trace.jsonl>              monitor snapshot table +
//!                                                   alert timeline
//! sparcle-trace profile  <trace.jsonl> [--folded F] span self/total table,
//!                                                   per-round critical paths;
//!                                                   folded stacks to F
//! sparcle-trace diff     <a.jsonl> <b.jsonl>        semantic compare (ignores
//!                                                   wall-clock span times)
//! sparcle-trace validate <trace.jsonl>              offline schema check
//! ```
//!
//! `diff` and `validate` tolerate a truncated final line (a writer
//! killed mid-write) with a warning on stderr instead of refusing the
//! trace.
//!
//! Exit codes: `0` success (for `diff`: traces equivalent; for
//! `explain`: complete lifecycle), `1` finding (divergence / invalid
//! trace / orphaned lifecycle), `2` usage or I/O error.

use std::process::ExitCode;

use sparcle_telemetry::Json;
use sparcle_trace_tools::{
    diff, explain, load_trace_lenient, profile, report, summary, validate_trace_lenient,
};

const USAGE: &str =
    "usage: sparcle-trace <summary|explain|report|profile|diff|validate> <trace.jsonl> ...
  summary  <trace>                per-kind counts, rollups, cause taxonomy
  explain  <trace> --app <id>     one subject's causal lifecycle (id/causes
           | --lineage <id>       chain, what-if probes, cause codes); --pick
           | --pick <outcome>     selects the first admitted|rejected|shed
  report   <trace>                monitor snapshot table + alert timeline
  profile  <trace> [--folded <out>]  span profile, critical paths, folded stacks
  diff     <a> <b>                first diverging event (wall-clock-insensitive)
  validate <trace>                schema-check every line";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sparcle-trace: {message}");
            ExitCode::from(2)
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// The one loader every subcommand reads through: a final line cut
/// short by an interrupted run is skipped with a warning on stderr, any
/// other malformed line is an error.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let (events, truncated) =
        load_trace_lenient(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    if truncated {
        eprintln!("sparcle-trace: warning: {path}: skipped truncated final line");
    }
    Ok(events)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "summary" => {
            let [path] = rest else {
                return Err(USAGE.to_owned());
            };
            let events = load(path)?;
            print!("{}", summary::summarize(&events).render());
            Ok(ExitCode::SUCCESS)
        }
        "explain" => {
            let (path, selector) = match rest {
                [path, flag, id] if flag == "--app" => {
                    let id = id
                        .parse()
                        .map_err(|_| format!("--app {id}: not a number"))?;
                    (path, Some(explain::Selector::App(id)))
                }
                [path, flag, id] if flag == "--lineage" => {
                    let id = id
                        .parse()
                        .map_err(|_| format!("--lineage {id}: not a number"))?;
                    (path, Some(explain::Selector::Lineage(id)))
                }
                [path, flag, _] if flag == "--pick" => (path, None),
                _ => return Err(USAGE.to_owned()),
            };
            let events = load(path)?;
            let selector = match selector {
                Some(s) => s,
                None => {
                    let outcome = &rest[2];
                    let lineage = explain::pick_lineage(&events, outcome).ok_or(format!(
                        "{path}: no decision with outcome {outcome:?} in trace"
                    ))?;
                    explain::Selector::Lineage(lineage)
                }
            };
            let explanation =
                explain::explain(&events, selector).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", explanation.render());
            Ok(if explanation.is_complete() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "report" => {
            let [path] = rest else {
                return Err(USAGE.to_owned());
            };
            let events = load(path)?;
            let monitor = report::build(&events);
            print!("{}", monitor.render());
            // Exit 1 on "nothing to report" so scripts notice a trace
            // recorded without monitoring.
            Ok(if monitor.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "profile" => {
            let (path, folded_out) = match rest {
                [path] => (path, None),
                [path, flag, out] if flag == "--folded" => (path, Some(out)),
                _ => return Err(USAGE.to_owned()),
            };
            let events = load(path)?;
            let forest = profile::SpanForest::build(&events);
            if forest.nodes.is_empty() {
                return Err(format!(
                    "{path}: no span events — re-run the experiment with --trace-spans"
                ));
            }
            print!("{}", profile::render_table(&profile::aggregate(&forest)));
            println!();
            print!("{}", profile::render_rounds(&forest));
            if let Some(out) = folded_out {
                std::fs::write(out, forest.folded_stacks())
                    .map_err(|e| format!("write {out}: {e}"))?;
                println!("\nwrote folded stacks to {out}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let [path_a, path_b] = rest else {
                return Err(USAGE.to_owned());
            };
            let (a, b) = (load(path_a)?, load(path_b)?);
            match diff::diff_traces(&a, &b) {
                None => {
                    println!(
                        "traces are semantically identical ({} events; wall-clock keys ignored)",
                        a.len()
                    );
                    Ok(ExitCode::SUCCESS)
                }
                Some(divergence) => {
                    println!("{}", divergence.render());
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "validate" => {
            let [path] = rest else {
                return Err(USAGE.to_owned());
            };
            match validate_trace_lenient(&read(path)?) {
                Ok((count, truncated)) => {
                    if truncated {
                        eprintln!("sparcle-trace: warning: {path}: skipped truncated final line");
                    }
                    println!("{path}: {count} events, schema OK");
                    Ok(ExitCode::SUCCESS)
                }
                Err((line, message)) => {
                    println!("{path}:{line}: {message}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}
