//! The `sparcle-trace` binary on a trace cut short by an interrupted
//! run: every subcommand reads through the one lenient loader, so the
//! partial final line is skipped with a warning instead of aborting.
//! (`explain`, `diff` and `validate` always did; `summary`, `report`
//! and `profile` used to abort with a JSON parse error.)

use std::path::PathBuf;
use std::process::{Command, Output};

use sparcle_telemetry::{CollectRecorder, Event, MonitorSnapshot, Recorder};

/// A small trace with something for every subcommand to chew on, its
/// final line cut mid-string — what `head -c` of a `--trace-out` file
/// (or a killed writer) leaves behind.
fn truncated_trace(name: &str) -> PathBuf {
    let r = CollectRecorder::new();
    r.event(&Event::RunStart { name: name.into() });
    r.event(&Event::SpanOpen {
        id: 0,
        parent: None,
        name: "runtime.run",
        t_ns: 10,
    });
    r.event(&Event::RuntimeArrival {
        time: 1.0,
        app: 0,
        lineage: 0,
        class: "be",
        admitted: true,
        rate: 2.0,
        cause: None,
    });
    r.event(&Event::MonitorSnapshot(MonitorSnapshot {
        time: 5.0,
        window: 30.0,
        gr_burn: 0.0,
        gr_violation_s: 0.0,
        be_rate: 2.0,
        arrival_rate: 0.2,
        admit_rate: 0.2,
        warm_iters_per_solve: 0.0,
        solves: 1,
        queue_depth: 3,
        queue_p95: 3,
        backlog: 0,
        live: 1,
        alerts_firing: 0,
    }));
    r.event(&Event::SpanClose {
        id: 0,
        name: "runtime.run",
        dur_ns: 90,
        aborted: false,
    });
    r.event(&Event::RunStart {
        name: "the line the interrupted writer never finished".into(),
    });
    let whole = r.render_trace();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.jsonl"));
    std::fs::write(&path, &whole[..whole.len() - 20]).expect("write the truncated trace");
    path
}

fn sparcle_trace(subcommand: &str) -> Output {
    let path = truncated_trace(subcommand);
    Command::new(env!("CARGO_BIN_EXE_sparcle-trace"))
        .arg(subcommand)
        .arg(&path)
        .output()
        .expect("run sparcle-trace")
}

#[track_caller]
fn assert_skipped_with_a_warning(out: &Output, expect_on_stdout: &str) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("skipped truncated final line"), "{stderr}");
    assert!(stdout.contains(expect_on_stdout), "{stdout}");
}

#[test]
fn summary_survives_a_truncated_final_line() {
    assert_skipped_with_a_warning(&sparcle_trace("summary"), "runtime_arrival");
}

#[test]
fn report_survives_a_truncated_final_line() {
    assert_skipped_with_a_warning(&sparcle_trace("report"), "5");
}

#[test]
fn profile_survives_a_truncated_final_line() {
    assert_skipped_with_a_warning(&sparcle_trace("profile"), "runtime.run");
}
