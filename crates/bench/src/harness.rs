//! The one flag parser and the telemetry plumbing of `sparcle-exp`.
//!
//! Every experiment accepts the same four shared flags, which
//! [`ExpFlags::new`] declares:
//!
//! * `--trace-out <path>` — stream a JSONL telemetry trace (placement
//!   decisions, commits, sim samples, final counter snapshot) to
//!   `path`;
//! * `--trace-spans` — additionally emit hierarchical
//!   `span_open`/`span_close` events (wall-clock timed; see DESIGN.md
//!   §9 — span-bearing traces are compared semantically, not
//!   byte-for-byte);
//! * `--summary` — print the end-of-run metrics table (counters and
//!   timing histograms) to stdout;
//! * `--metrics-out <path>` — write a Prometheus-style text exposition
//!   of the final counters to `path`. Experiments that run the churn
//!   runtime's observability monitor also hand this path to
//!   [`sparcle_runtime::MonitorConfig::metrics_out`]
//!   (via [`ExpHarness::metrics_out`]), so the file is rewritten on
//!   every monitor tick during the run and finalized at `finish()`.
//!
//! An experiment declares its own flags on top of those; anything
//! undeclared is an error, reported with [`ExpFlags::usage`].
//!
//! Usage pattern:
//!
//! ```
//! use sparcle_bench::{ExpFlags, ExpHarness};
//!
//! let mut flags = ExpFlags::new();
//! flags.value("horizon", "simulated seconds per run", "300");
//! let parsed = flags.parse_from(["--horizon=60"]).expect("declared flag");
//! assert_eq!(parsed.f64("horizon"), 60.0);
//! let harness = ExpHarness::with_args("exp_example", &parsed);
//! // ... pass `harness.trace()` into assign_traced / simulate_flows_traced ...
//! harness.finish();
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use sparcle_core::TraceHandle;

/// One declared flag: a value flag carries its default, a switch none.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    help: &'static str,
    default: Option<String>,
}

/// The flags one experiment accepts.
///
/// Value flags take `--name value` or `--name=value` (a value that
/// starts with `--` only in the second spelling); switches take
/// `--name`. [`ExpFlags::new`] starts from the four shared flags of the
/// module docs.
#[derive(Debug)]
pub struct ExpFlags {
    flags: Vec<Flag>,
}

impl Default for ExpFlags {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpFlags {
    /// The shared flags every experiment accepts.
    pub fn new() -> Self {
        let mut flags = ExpFlags { flags: Vec::new() };
        flags
            .value(
                "trace-out",
                "stream a JSONL telemetry trace to this path",
                "",
            )
            .switch("trace-spans", "also emit wall-clock span events")
            .switch("summary", "print the end-of-run metrics table")
            .value(
                "metrics-out",
                "write a Prometheus-style exposition of the final counters to this path",
                "",
            );
        flags
    }

    /// Declares a value-carrying flag `--name <v>` with its default.
    pub fn value(&mut self, name: &'static str, help: &'static str, default: &str) -> &mut Self {
        self.flags.push(Flag {
            name,
            help,
            default: Some(default.to_owned()),
        });
        self
    }

    /// Declares a boolean switch `--name`.
    pub fn switch(&mut self, name: &'static str, help: &'static str) -> &mut Self {
        self.flags.push(Flag {
            name,
            help,
            default: None,
        });
        self
    }

    /// Parses an argument list against the declarations.
    ///
    /// # Errors
    ///
    /// An undeclared flag, a value flag without its value (or followed
    /// by another flag), a switch given a value, or any argument that is
    /// not a flag.
    pub fn parse_from<I, S>(&self, args: I) -> Result<ParsedFlags, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = ParsedFlags {
            values: self
                .flags
                .iter()
                .filter_map(|f| Some((f.name, f.default.clone()?)))
                .collect(),
            on: BTreeSet::new(),
        };
        let mut it = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = it.next() {
            let Some(spelled) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            let (name, inline) = match spelled.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (spelled, None),
            };
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            match (&flag.default, inline) {
                (None, None) => {
                    parsed.on.insert(flag.name);
                }
                (None, Some(_)) => return Err(format!("--{name} takes no value")),
                (Some(_), value) => {
                    let value = value
                        .or_else(|| it.next_if(|next| !next.starts_with("--")))
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    parsed.values.insert(flag.name, value);
                }
            }
        }
        Ok(parsed)
    }

    /// The usage text of `sparcle-exp <command>`: every declared flag
    /// with its help string and default.
    pub fn usage(&self, command: &str) -> String {
        let spell = |f: &Flag| match f.default {
            Some(_) => format!("--{} <value>", f.name),
            None => format!("--{}", f.name),
        };
        let width = self.flags.iter().map(|f| spell(f).len()).max().unwrap_or(0);
        let mut out = format!("usage: sparcle-exp {command} [flags]\nflags:");
        for f in &self.flags {
            out.push_str(&format!("\n  {:<width$}  {}", spell(f), f.help));
            if let Some(default) = f.default.as_deref().filter(|d| !d.is_empty()) {
                out.push_str(&format!(" (default {default})"));
            }
        }
        out
    }
}

/// The result of [`ExpFlags::parse_from`]: typed access to the declared
/// flags.
#[derive(Debug)]
pub struct ParsedFlags {
    values: BTreeMap<&'static str, String>,
    on: BTreeSet<&'static str>,
}

impl ParsedFlags {
    /// The raw string value of a declared flag (its default when the
    /// flag was not given).
    ///
    /// # Panics
    ///
    /// Panics when `name` was never declared — a bug in the experiment.
    pub fn str(&self, name: &str) -> &str {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("flag --{name} was not declared"))
    }

    /// A declared value flag parsed as `f64`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared flag or a non-numeric value.
    pub fn f64(&self, name: &str) -> f64 {
        self.str(name)
            .parse()
            .unwrap_or_else(|e| panic!("--{name} must be a number: {e}"))
    }

    /// Whether a declared switch was given.
    pub fn on(&self, name: &str) -> bool {
        self.on.contains(name)
    }

    /// A path-valued flag whose empty default means "not given".
    fn path(&self, name: &str) -> Option<PathBuf> {
        Some(self.str(name))
            .filter(|p| !p.is_empty())
            .map(PathBuf::from)
    }
}

enum Sink {
    /// No flag given: recording disabled, zero overhead.
    None,
    /// `--trace-out`: stream events to a JSONL file.
    Jsonl(sparcle_telemetry::JsonlRecorder),
    /// `--summary` alone: keep metrics in memory for the final table.
    Collect(sparcle_telemetry::CollectRecorder),
}

/// The harness owning the trace sink for one experiment run.
///
/// `sparcle-exp` creates it before the experiment runs, the experiment
/// threads [`ExpHarness::trace`] into the instrumented entry points,
/// and `sparcle-exp` calls [`ExpHarness::finish`] once it returns.
pub struct ExpHarness {
    name: String,
    summary: bool,
    metrics_out: Option<PathBuf>,
    sink: Sink,
    spans: Option<sparcle_telemetry::SpanTracker>,
}

impl std::fmt::Debug for ExpHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpHarness")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

impl ExpHarness {
    /// Builds the harness from the shared flags of a parsed command line.
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` names an uncreatable file.
    pub fn with_args(name: &str, flags: &ParsedFlags) -> Self {
        use sparcle_telemetry::{CollectRecorder, Event, JsonlRecorder};
        let summary = flags.on("summary");
        let metrics_out = flags.path("metrics-out");
        let sink = match flags.path("trace-out") {
            Some(path) => Sink::Jsonl(
                JsonlRecorder::create(&path)
                    .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display())),
            ),
            None if summary || metrics_out.is_some() => Sink::Collect(CollectRecorder::new()),
            None => Sink::None,
        };
        let spans = (flags.on("trace-spans") && !matches!(sink, Sink::None))
            .then(sparcle_telemetry::SpanTracker::new);
        let harness = ExpHarness {
            name: name.to_owned(),
            summary,
            metrics_out,
            sink,
            spans,
        };
        harness.trace().event(&Event::RunStart {
            name: name.to_owned(),
        });
        harness
    }

    /// The `--metrics-out` path, when given — experiments hand this to
    /// `sparcle_runtime::MonitorConfig::metrics_out` so the file tracks
    /// the run tick by tick.
    pub fn metrics_out(&self) -> Option<&std::path::Path> {
        self.metrics_out.as_deref()
    }

    /// The handle experiment code threads into `assign_traced`,
    /// `simulate_flows_traced`, and friends.
    pub fn trace(&self) -> TraceHandle<'_> {
        let recorder: Option<&dyn sparcle_telemetry::Recorder> = match &self.sink {
            Sink::None => None,
            Sink::Jsonl(r) => Some(r),
            Sink::Collect(r) => Some(r),
        };
        match (recorder, &self.spans) {
            (Some(r), Some(tracker)) => TraceHandle::with_spans(r, tracker),
            (Some(r), None) => TraceHandle::new(r),
            (None, _) => TraceHandle::none(),
        }
    }

    /// Flushes the trace (appending the final counters-only snapshot
    /// line), prints the `--summary` table, and writes the full
    /// [`sparcle_telemetry::MetricsSnapshot`] — counters *and* timing
    /// histograms — to `target/experiments/<name>_metrics.json`.
    ///
    /// # Panics
    ///
    /// Panics when a trace or metrics write fails (experiments want
    /// loud failures).
    pub fn finish(self) {
        use sparcle_telemetry::Json;
        let snapshot = match self.sink {
            Sink::None => return,
            Sink::Jsonl(r) => r.finish().expect("flush trace file"),
            Sink::Collect(r) => r.snapshot(),
        };
        if let Some(path) = &self.metrics_out {
            // Append so a monitor-written exposition (periodic
            // sparcle_* gauges) keeps its last tick; the final
            // counter series use a distinct metric name.
            use std::io::Write;
            let mut text = String::from(
                "# HELP sparcle_counter_total Final telemetry counters of the run\n\
                 # TYPE sparcle_counter_total counter\n",
            );
            for (name, value) in &snapshot.counters {
                text.push_str(&format!(
                    "sparcle_counter_total{{name=\"{name}\"}} {value}\n"
                ));
            }
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(text.as_bytes()))
                .unwrap_or_else(|e| panic!("write metrics file {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
        if self.summary {
            println!("\n=== telemetry summary: {} ===", self.name);
            println!("{}", snapshot.render_summary());
        }
        let result = Json::obj([
            ("experiment", Json::Str(self.name.clone())),
            ("metrics", snapshot.to_json()),
        ]);
        let dir = crate::experiments_dir();
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join(format!("{}_metrics.json", self.name));
        std::fs::write(&path, result.render() + "\n").expect("write metrics json");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(args: &[&str]) -> ParsedFlags {
        ExpFlags::new()
            .parse_from(args.iter().copied())
            .expect("valid flags")
    }

    #[test]
    fn shared_flags_parse_in_both_spellings() {
        let a = shared(&["--summary", "--trace-out", "/tmp/t.jsonl", "--trace-spans"]);
        assert!(a.on("summary") && a.on("trace-spans"));
        assert_eq!(a.path("trace-out"), Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(a.path("metrics-out"), None);
        let b = shared(&["--trace-out=/tmp/u.jsonl", "--metrics-out=/tmp/m.prom"]);
        assert!(!b.on("summary"));
        assert_eq!(b.path("trace-out"), Some(PathBuf::from("/tmp/u.jsonl")));
        assert_eq!(b.path("metrics-out"), Some(PathBuf::from("/tmp/m.prom")));
        let none = shared(&[]);
        assert!(!none.on("summary") && !none.on("trace-spans"));
        assert_eq!(none.path("trace-out"), None);
    }

    #[test]
    fn declared_flags_parse_with_defaults_next_to_the_shared_ones() {
        let mut flags = ExpFlags::new();
        flags.value("budget", "size", "1.0").switch("fast", "quick");
        let p = flags
            .parse_from(["--budget", "0.5", "--fast", "--summary"])
            .unwrap();
        assert_eq!(p.f64("budget"), 0.5);
        assert!(p.on("fast") && p.on("summary"));
        let q = flags.parse_from(["--budget=4"]).unwrap();
        assert_eq!(q.f64("budget"), 4.0);
        assert!(!q.on("fast"));
        assert_eq!(
            flags
                .parse_from(Vec::<String>::new())
                .unwrap()
                .str("budget"),
            "1.0"
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        let mut flags = ExpFlags::new();
        flags.value("budget", "size", "1.0");
        let err = |args: &[&str]| flags.parse_from(args.iter().copied()).unwrap_err();
        assert!(err(&["--bogus"]).contains("unknown flag"));
        assert!(err(&["--budget"]).contains("--budget requires a value"));
        assert!(err(&["--trace-out"]).contains("--trace-out requires a value"));
        assert!(err(&["--summary=yes"]).contains("takes no value"));
        assert!(err(&["stray"]).contains("unexpected argument"));
        // A value flag never takes the next flag as its value, but an
        // inline value may start with `--`.
        assert_eq!(
            flags.parse_from(["--budget=--x"]).unwrap().str("budget"),
            "--x"
        );
    }

    #[test]
    fn usage_names_every_declared_flag() {
        let mut flags = ExpFlags::new();
        flags.value("horizon", "simulated seconds per run", "300");
        let usage = flags.usage("defrag");
        assert!(usage.starts_with("usage: sparcle-exp defrag"), "{usage}");
        for needle in [
            "--horizon <value>",
            "simulated seconds per run (default 300)",
            "--trace-out <value>",
            "--trace-spans",
            "--summary",
            "--metrics-out <value>",
        ] {
            assert!(usage.contains(needle), "{needle} missing from:\n{usage}");
        }
    }

    #[test]
    fn metrics_out_writes_a_prometheus_exposition() {
        let dir = crate::experiments_dir();
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join("unit-test-metrics-out.prom");
        let _ = std::fs::remove_file(&path);
        let h = ExpHarness::with_args(
            "unit-test-metrics-out",
            &shared(&["--metrics-out", path.to_str().unwrap()]),
        );
        // --metrics-out alone must enable a collecting sink.
        assert!(h.trace().is_enabled());
        h.trace().counter("unit.widgets", 7);
        h.finish();
        let text = std::fs::read_to_string(&path).expect("exposition written");
        assert!(text.contains("# TYPE sparcle_counter_total counter"));
        assert!(text.contains("sparcle_counter_total{name=\"unit.widgets\"} 7"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("unit-test-metrics-out_metrics.json"));
    }

    #[test]
    fn trace_spans_flag_enables_span_emission() {
        let spanned =
            ExpHarness::with_args("unit-test-spans", &shared(&["--trace-spans", "--summary"]));
        assert!(spanned.trace().spans_enabled());
        spanned.trace().span("unit.work").finish();

        let plain = ExpHarness::with_args("unit-test-nospans", &shared(&["--summary"]));
        assert!(plain.trace().is_enabled());
        assert!(!plain.trace().spans_enabled());

        // --trace-spans without any sink stays fully disabled.
        let no_sink = ExpHarness::with_args("unit-test-spans-nosink", &shared(&["--trace-spans"]));
        assert!(!no_sink.trace().is_enabled());
        assert!(!no_sink.trace().spans_enabled());
        // Drop harnesses without finish(): no files to clean up except
        // the two summary collectors, which finish() would write.
    }

    #[test]
    fn harness_records_run_start_and_counters() {
        let h = ExpHarness::with_args("unit-test-harness", &shared(&["--summary"]));
        h.trace().counter("test.counter", 3);
        assert!(h.trace().is_enabled());
        // finish() prints the summary and writes the metrics JSON.
        h.finish();
        let path = crate::experiments_dir().join("unit-test-harness_metrics.json");
        let contents = std::fs::read_to_string(&path).expect("metrics json written");
        let json = sparcle_telemetry::parse_json(contents.trim()).expect("valid json");
        assert_eq!(
            json.get("experiment").and_then(|j| j.as_str()),
            Some("unit-test-harness")
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn disabled_harness_hands_out_inert_handles() {
        let h = ExpHarness::with_args("unit-test-none", &shared(&[]));
        assert!(!h.trace().is_enabled());
        h.finish();
    }
}
