//! Shared CLI arguments and telemetry plumbing for the `exp_*` binaries.
//!
//! Every experiment binary accepts the same two flags:
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
//! Usage pattern:
//!
//! ```no_run
//! let harness = sparcle_bench::ExpHarness::new("exp_example");
//! // ... pass `harness.trace()` into assign_traced / simulate_flows_traced ...
//! harness.finish();
//! ```

use std::path::PathBuf;

use sparcle_core::TraceHandle;

/// The experiment flags shared by all `exp_*` binaries.
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    /// Target of the JSONL trace (`--trace-out <path>`).
    pub trace_out: Option<PathBuf>,
    /// Whether to emit hierarchical span events (`--trace-spans`).
    pub trace_spans: bool,
    /// Whether to print the end-of-run metrics table (`--summary`).
    pub summary: bool,
    /// Target of the Prometheus-style metrics exposition
    /// (`--metrics-out <path>`).
    pub metrics_out: Option<PathBuf>,
}

impl ExpArgs {
    /// Parses the process arguments. Unknown flags are reported to
    /// stderr and skipped so experiment-specific extensions stay
    /// possible.
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` lacks its path operand.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit argument list (testable core of
    /// [`ExpArgs::parse`]).
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` lacks its path operand.
    pub fn parse_from<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            if arg == "--trace-out" {
                let path = it.next().expect("--trace-out requires a path");
                out.trace_out = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--trace-out=") {
                out.trace_out = Some(PathBuf::from(path));
            } else if arg == "--trace-spans" {
                out.trace_spans = true;
            } else if arg == "--summary" {
                out.summary = true;
            } else if arg == "--metrics-out" {
                let path = it.next().expect("--metrics-out requires a path");
                out.metrics_out = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
                out.metrics_out = Some(PathBuf::from(path));
            } else {
                eprintln!("note: ignoring unknown argument {arg:?}");
            }
        }
        out
    }
}

/// Declarative experiment-specific flags layered over the shared
/// [`ExpArgs`] set, so `exp_*` binaries declare what they accept instead
/// of hand-rolling an argument loop each:
///
/// ```no_run
/// use sparcle_bench::{ExpFlags, ExpHarness};
///
/// let mut flags = ExpFlags::new();
/// flags.value("ncps", "largest topology size", "5000");
/// flags.switch("fast", "skip the large sweep");
/// let parsed = flags.parse();
/// let ncps: usize = parsed.usize("ncps");
/// let harness = ExpHarness::with_args("exp_example", parsed.shared());
/// ```
///
/// Declared flags accept both `--name value` and `--name=value`
/// spellings; anything undeclared falls through to the shared
/// [`ExpArgs`] parser (which warns on true unknowns), so every
/// experiment keeps `--trace-out`/`--summary`/`--metrics-out` for free.
#[derive(Debug, Default)]
pub struct ExpFlags {
    values: Vec<(&'static str, &'static str, String)>,
    switches: Vec<(&'static str, &'static str)>,
}

impl ExpFlags {
    /// An empty declaration set (shared harness flags only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a value-carrying flag `--name <v>` with its default.
    pub fn value(&mut self, name: &'static str, help: &'static str, default: &str) -> &mut Self {
        self.values.push((name, help, default.to_owned()));
        self
    }

    /// Declares a boolean switch `--name`.
    pub fn switch(&mut self, name: &'static str, help: &'static str) -> &mut Self {
        self.switches.push((name, help));
        self
    }

    /// Parses the process arguments against the declarations.
    ///
    /// # Panics
    ///
    /// Panics when a declared value flag is given without its operand.
    pub fn parse(&self) -> ParsedFlags {
        self.parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable core of
    /// [`Self::parse`]).
    ///
    /// # Panics
    ///
    /// Panics when a declared value flag is given without its operand.
    pub fn parse_from<I, S>(&self, args: I) -> ParsedFlags
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values: std::collections::BTreeMap<&'static str, String> = self
            .values
            .iter()
            .map(|(name, _, default)| (*name, default.clone()))
            .collect();
        let mut on: std::collections::BTreeSet<&'static str> = std::collections::BTreeSet::new();
        let mut rest: Vec<String> = Vec::new();
        let mut it = args.into_iter().map(Into::into);
        'args: while let Some(arg) = it.next() {
            for (name, _, _) in &self.values {
                let flag = format!("--{name}");
                if arg == flag {
                    let v = it
                        .next()
                        .unwrap_or_else(|| panic!("{flag} requires a value"));
                    values.insert(name, v);
                    continue 'args;
                }
                if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                    values.insert(name, v.to_owned());
                    continue 'args;
                }
            }
            for (name, _) in &self.switches {
                if arg == format!("--{name}") {
                    on.insert(name);
                    continue 'args;
                }
            }
            rest.push(arg);
        }
        ParsedFlags {
            values,
            on,
            shared: ExpArgs::parse_from(rest),
        }
    }
}

/// The result of [`ExpFlags::parse`]: typed access to the declared
/// flags plus the shared [`ExpArgs`] for [`ExpHarness::with_args`].
#[derive(Debug)]
pub struct ParsedFlags {
    values: std::collections::BTreeMap<&'static str, String>,
    on: std::collections::BTreeSet<&'static str>,
    shared: ExpArgs,
}

impl ParsedFlags {
    /// The raw string value of a declared flag (its default when the
    /// flag was not given).
    ///
    /// # Panics
    ///
    /// Panics when `name` was never declared — a bug in the binary.
    pub fn str(&self, name: &str) -> &str {
        self.values
            .get(name)
            .unwrap_or_else(|| panic!("flag --{name} was not declared"))
    }

    /// A declared value flag parsed as `usize`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared flag or a non-integer value.
    pub fn usize(&self, name: &str) -> usize {
        self.str(name)
            .parse()
            .unwrap_or_else(|e| panic!("--{name} must be an integer: {e}"))
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

    /// The shared harness arguments parsed from everything the declared
    /// flags did not consume.
    pub fn shared(&self) -> ExpArgs {
        self.shared.clone()
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

/// Per-binary harness owning the trace sink for one experiment run.
///
/// Create it first thing in `main`, thread [`ExpHarness::trace`] into
/// the instrumented entry points, and call [`ExpHarness::finish`] last.
pub struct ExpHarness {
    name: &'static str,
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
    /// Builds the harness from the process arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` names an uncreatable file.
    pub fn new(name: &'static str) -> Self {
        Self::with_args(name, ExpArgs::parse())
    }

    /// Builds the harness from pre-parsed arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` names an uncreatable file.
    pub fn with_args(name: &'static str, args: ExpArgs) -> Self {
        use sparcle_telemetry::{CollectRecorder, Event, JsonlRecorder, Recorder};
        let sink = match &args.trace_out {
            Some(path) => Sink::Jsonl(
                JsonlRecorder::create(path)
                    .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display())),
            ),
            None if args.summary || args.metrics_out.is_some() => {
                Sink::Collect(CollectRecorder::new())
            }
            None => Sink::None,
        };
        let run_start = Event::RunStart {
            name: name.to_owned(),
        };
        match &sink {
            Sink::None => {}
            Sink::Jsonl(r) => r.event(&run_start),
            Sink::Collect(r) => r.event(&run_start),
        }
        let spans = (args.trace_spans && !matches!(sink, Sink::None))
            .then(sparcle_telemetry::SpanTracker::new);
        ExpHarness {
            name,
            summary: args.summary,
            metrics_out: args.metrics_out,
            sink,
            spans,
        }
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
    /// Panics when a trace or metrics write fails (experiment binaries
    /// want loud failures).
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
            ("experiment", Json::Str(self.name.to_owned())),
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

    #[test]
    fn parses_both_flags() {
        let a = ExpArgs::parse_from(["--summary", "--trace-out", "/tmp/t.jsonl"]);
        assert!(a.summary);
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        let b = ExpArgs::parse_from(["--trace-out=/tmp/u.jsonl"]);
        assert!(!b.summary);
        assert_eq!(
            b.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/u.jsonl"))
        );
    }

    #[test]
    fn declared_flags_parse_with_defaults_and_both_spellings() {
        let mut flags = ExpFlags::new();
        flags.value("ncps", "size", "5000").switch("fast", "quick");
        let p = flags.parse_from(["--ncps", "128", "--fast", "--summary"]);
        assert_eq!(p.usize("ncps"), 128);
        assert!(p.on("fast"));
        assert!(p.shared().summary);
        let q = flags.parse_from(["--ncps=64"]);
        assert_eq!(q.usize("ncps"), 64);
        assert!(!q.on("fast"));
        let d = flags.parse_from(Vec::<String>::new());
        assert_eq!(d.usize("ncps"), 5000);
    }

    #[test]
    fn undeclared_flags_fall_through_to_shared_args() {
        let mut flags = ExpFlags::new();
        flags.value("budget", "displaced-seconds", "1.0");
        let p = flags.parse_from(["--budget", "0.5", "--trace-out", "/tmp/x.jsonl"]);
        assert!((p.f64("budget") - 0.5).abs() < 1e-12);
        assert_eq!(
            p.shared().trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/x.jsonl"))
        );
    }

    #[test]
    #[should_panic(expected = "--ncps requires a value")]
    fn declared_value_flag_needs_operand() {
        let mut flags = ExpFlags::new();
        flags.value("ncps", "size", "5000");
        let _ = flags.parse_from(["--ncps"]);
    }

    #[test]
    fn defaults_are_off() {
        let a = ExpArgs::parse_from(Vec::<String>::new());
        assert!(!a.summary);
        assert!(a.trace_out.is_none());
        assert!(!a.trace_spans);
    }

    #[test]
    fn parses_trace_spans() {
        let a = ExpArgs::parse_from(["--trace-spans"]);
        assert!(a.trace_spans);
    }

    #[test]
    fn parses_metrics_out_in_both_spellings() {
        let a = ExpArgs::parse_from(["--metrics-out", "/tmp/m.prom"]);
        assert_eq!(
            a.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.prom"))
        );
        let b = ExpArgs::parse_from(["--metrics-out=/tmp/n.prom"]);
        assert_eq!(
            b.metrics_out.as_deref(),
            Some(std::path::Path::new("/tmp/n.prom"))
        );
        assert!(ExpArgs::parse_from(Vec::<String>::new())
            .metrics_out
            .is_none());
    }

    #[test]
    fn metrics_out_writes_a_prometheus_exposition() {
        let dir = crate::experiments_dir();
        std::fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join("unit-test-metrics-out.prom");
        let _ = std::fs::remove_file(&path);
        let h = ExpHarness::with_args(
            "unit-test-metrics-out",
            ExpArgs {
                metrics_out: Some(path.clone()),
                ..ExpArgs::default()
            },
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
        let spanned = ExpHarness::with_args(
            "unit-test-spans",
            ExpArgs {
                trace_spans: true,
                summary: true,
                ..ExpArgs::default()
            },
        );
        assert!(spanned.trace().spans_enabled());
        spanned.trace().span("unit.work").finish();

        let plain = ExpHarness::with_args(
            "unit-test-nospans",
            ExpArgs {
                trace_spans: false,
                summary: true,
                ..ExpArgs::default()
            },
        );
        assert!(plain.trace().is_enabled());
        assert!(!plain.trace().spans_enabled());

        // --trace-spans without any sink stays fully disabled.
        let no_sink = ExpHarness::with_args(
            "unit-test-spans-nosink",
            ExpArgs {
                trace_spans: true,
                summary: false,
                ..ExpArgs::default()
            },
        );
        assert!(!no_sink.trace().is_enabled());
        assert!(!no_sink.trace().spans_enabled());
        // Drop harnesses without finish(): no files to clean up except
        // the two summary collectors, which finish() would write.
    }

    #[test]
    #[should_panic(expected = "requires a path")]
    fn trace_out_needs_operand() {
        let _ = ExpArgs::parse_from(["--trace-out"]);
    }

    #[test]
    fn harness_records_run_start_and_counters() {
        let args = ExpArgs {
            trace_spans: false,
            summary: true,
            ..ExpArgs::default()
        };
        let h = ExpHarness::with_args("unit-test-harness", args);
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
        let h = ExpHarness::with_args("unit-test-none", ExpArgs::default());
        assert!(!h.trace().is_enabled());
        h.finish();
    }
}
