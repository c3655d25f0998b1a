//! Guards the experiment registry and the `sparcle-exp` command line:
//! every registered experiment has its row in DESIGN.md §4 and in
//! EXPERIMENTS.md, and the binary turns an unknown experiment or flag
//! into a usage error instead of running anything.

use std::path::Path;
use std::process::{Command, Output};

use sparcle_bench::EXPERIMENTS;

fn doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `sparcle-exp <command>` invocations a document cites.
fn cited(text: &str, command: &str) -> bool {
    text.contains(&format!("`sparcle-exp {command}`"))
}

#[test]
fn every_experiment_has_its_row_in_design_and_experiments() {
    let design = doc("DESIGN.md");
    let start = design.find("## 4. Experiment index").expect("DESIGN.md §4");
    let len = design[start..].find("\n## 5.").expect("DESIGN.md §5");
    let index: String = design[start..start + len]
        .lines()
        .filter(|line| line.starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n");
    let experiments = doc("EXPERIMENTS.md");
    for e in EXPERIMENTS {
        let command = e.command;
        assert!(!e.what.is_empty(), "{command} needs a description");
        assert!(
            cited(&index, command),
            "DESIGN.md §4 has no table row citing `sparcle-exp {command}`"
        );
        assert!(
            cited(&experiments, command),
            "EXPERIMENTS.md does not cite `sparcle-exp {command}`"
        );
    }
}

fn sparcle_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparcle-exp"))
        .args(args)
        .output()
        .expect("run sparcle-exp")
}

#[track_caller]
fn assert_usage_error(out: &Output, expect_on_stderr: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{:?}: {stderr}", out.status);
    assert!(out.stdout.is_empty(), "nothing may run on a usage error");
    for needle in expect_on_stderr {
        assert!(
            stderr.contains(needle),
            "{needle:?} missing from:\n{stderr}"
        );
    }
}

#[test]
fn unknown_experiment_is_a_usage_error_naming_the_choices() {
    // The `experiments!` table makes names unique; `all` must stay the
    // driver's.
    let mut choices: Vec<&str> = EXPERIMENTS.iter().map(|e| e.command).collect();
    assert!(
        !choices.contains(&"all"),
        "`all` is the driver, not an entry"
    );
    let out = sparcle_exp(&["fig7"]);
    choices.extend(["unknown experiment \"fig7\"", "all"]);
    assert_usage_error(&out, &choices);
    assert_usage_error(&sparcle_exp(&[]), &["usage: sparcle-exp <experiment>"]);
}

#[test]
fn unknown_flag_is_a_usage_error_naming_the_declared_flags() {
    assert_usage_error(
        &sparcle_exp(&["defrag", "--budget", "1"]),
        &[
            "unknown flag \"--budget\"",
            "usage: sparcle-exp defrag",
            "--budgets <value>",
            "--horizon <value>",
            "--trace-out <value>",
            "--trace-spans",
            "--summary",
            "--metrics-out <value>",
        ],
    );
    assert_usage_error(
        &sparcle_exp(&["fig6", "extra"]),
        &["unexpected argument \"extra\"", "usage: sparcle-exp fig6"],
    );
    assert_usage_error(
        &sparcle_exp(&["fig6", "--trace-out"]),
        &["--trace-out requires a value"],
    );
    // A value flag does not swallow the next flag as its value.
    assert_usage_error(
        &sparcle_exp(&["fig8", "--trace-out", "--summary"]),
        &["--trace-out requires a value"],
    );
    assert_usage_error(
        &sparcle_exp(&["all", "--summary"]),
        &["`all` takes no arguments, got \"--summary\""],
    );
}
