//! The `Recorder` trait and the built-in sinks.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;
use crate::json::Json;
use crate::metrics::{Histogram, MetricsSnapshot};

/// One recorded event plus its provenance stamp: the monotonic event
/// `id` the recorder assigned and the ids of the earlier events that
/// caused it (DESIGN.md §14).
///
/// Ids start at 1 and increase by 1 per recorded event, in record
/// order. Because the event stream itself is deterministic (byte-
/// identical across runs and evaluator thread counts), the assigned ids
/// are too — provenance rides the existing determinism contract for
/// free.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Monotonic event id, unique within one recorder's stream (`0` is
    /// reserved for "no event").
    pub id: u64,
    /// Ids of earlier events that caused this one, in the order the
    /// emitter supplied them. Empty for exogenous events (arrivals,
    /// element transitions, run starts).
    pub causes: Vec<u64>,
    /// The event itself.
    pub event: Event,
}

impl StampedEvent {
    /// The event's JSON trace line with the provenance keys stamped in:
    /// `"id"` right after `"type"`, `"causes"` appended when non-empty.
    pub fn to_json(&self) -> Json {
        stamp_json(self.event.to_json(), self.id, &self.causes)
    }
}

/// Stamps a trace-line object with its provenance keys: `"id"` right
/// after `"type"`, `"causes"` appended when non-empty.
///
/// Exposed so out-of-tree trace producers (tests, fixtures) can build
/// schema-valid lines for JSON values that are not [`Event`]s — e.g.
/// the final `snapshot` line.
pub fn stamp_json(json: Json, id: u64, causes: &[u64]) -> Json {
    let Json::Obj(mut fields) = json else {
        return json;
    };
    let at = usize::from(!fields.is_empty());
    fields.insert(at, ("id".to_owned(), Json::Num(id as f64)));
    if !causes.is_empty() {
        fields.push((
            "causes".to_owned(),
            Json::Arr(causes.iter().map(|&c| Json::Num(c as f64)).collect()),
        ));
    }
    Json::Obj(fields)
}

/// A telemetry sink.
///
/// Methods take `&self` so one recorder can be shared behind a plain
/// reference; implementations use interior mutability. All methods have
/// no-op defaults, so a sink only implements what it cares about.
///
/// The overhead contract: an untraced run carries a `TraceHandle` with
/// no recorder, so no `Recorder` method is ever called — each call site
/// costs one branch (see DESIGN.md §7).
pub trait Recorder {
    /// Records one structured (deterministic) event.
    fn event(&self, event: &Event) {
        self.event_caused(event, &[]);
    }

    /// Records one structured event with its causal back-references and
    /// returns the event id the sink assigned (for use in later
    /// `causes` lists). Sinks that don't track provenance return `0`.
    fn event_caused(&self, _event: &Event, _causes: &[u64]) -> u64 {
        0
    }

    /// Increments a named monotonic counter.
    fn counter(&self, _name: &str, _delta: u64) {}

    /// Records a duration (nanoseconds) into a named histogram.
    ///
    /// Timings are wall-clock dependent and therefore never appear in
    /// the event/trace stream — only in the end-of-run snapshot.
    fn timing(&self, _name: &str, _nanos: u64) {}
}

/// The do-nothing sink. Useful as an explicit default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[derive(Debug, Default)]
struct Accum {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Accum {
    fn counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    fn timing(&mut self, name: &str, nanos: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(nanos);
        } else {
            let mut h = Histogram::new();
            h.record(nanos);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// An in-memory sink that keeps every event; made for tests that assert
/// on decision traces and counters (e.g. the thread-count consistency
/// suite).
#[derive(Debug, Default)]
pub struct CollectRecorder {
    inner: Mutex<(Vec<StampedEvent>, Accum)>,
}

impl CollectRecorder {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events recorded so far, in order, without their provenance
    /// stamps.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("telemetry poisoned")
            .0
            .iter()
            .map(|s| s.event.clone())
            .collect()
    }

    /// All events recorded so far with their assigned ids and causes.
    pub fn stamped_events(&self) -> Vec<StampedEvent> {
        self.inner.lock().expect("telemetry poisoned").0.clone()
    }

    /// The full JSONL trace (one stamped line per event, each
    /// newline-terminated) — the in-memory equivalent of what a
    /// [`JsonlRecorder`] would have written, minus the final snapshot
    /// line.
    pub fn render_trace(&self) -> String {
        let inner = self.inner.lock().expect("telemetry poisoned");
        let mut out = String::new();
        for stamped in &inner.0 {
            out.push_str(&stamped.to_json().render());
            out.push('\n');
        }
        out
    }

    /// A snapshot of the counters/histograms recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().expect("telemetry poisoned").1.snapshot()
    }
}

impl Recorder for CollectRecorder {
    fn event_caused(&self, event: &Event, causes: &[u64]) -> u64 {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let id = inner.0.len() as u64 + 1;
        inner.0.push(StampedEvent {
            id,
            causes: causes.to_vec(),
            event: event.clone(),
        });
        id
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner
            .lock()
            .expect("telemetry poisoned")
            .1
            .counter(name, delta);
    }

    fn timing(&self, name: &str, nanos: u64) {
        self.inner
            .lock()
            .expect("telemetry poisoned")
            .1
            .timing(name, nanos);
    }
}

struct JsonlInner {
    writer: BufWriter<File>,
    accum: Accum,
    error: Option<io::Error>,
    next_id: u64,
}

/// A sink that streams events as JSON Lines to a file and accumulates
/// counters/histograms for the final snapshot.
///
/// Write errors are latched and surfaced by [`JsonlRecorder::finish`];
/// recording itself never panics or returns `Result`, so hot paths stay
/// clean.
pub struct JsonlRecorder {
    inner: Mutex<JsonlInner>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Creates (truncates) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlRecorder {
            inner: Mutex::new(JsonlInner {
                writer: BufWriter::new(file),
                accum: Accum::default(),
                error: None,
                next_id: 1,
            }),
        })
    }

    /// Writes the final counters-only `snapshot` line (stamped with the
    /// last event id, so every line in the file carries `id`), flushes,
    /// and returns the full [`MetricsSnapshot`] (counters *and*
    /// histograms).
    ///
    /// # Errors
    ///
    /// Returns the first write error encountered during the run, if any.
    pub fn finish(self) -> io::Result<MetricsSnapshot> {
        let mut inner = self.inner.into_inner().expect("telemetry poisoned");
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let snapshot = inner.accum.snapshot();
        let line = stamp_json(snapshot.to_trace_json(), inner.next_id, &[]).render();
        inner.writer.write_all(line.as_bytes())?;
        inner.writer.write_all(b"\n")?;
        inner.writer.flush()?;
        Ok(snapshot)
    }
}

impl Recorder for JsonlRecorder {
    fn event_caused(&self, event: &Event, causes: &[u64]) -> u64 {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        if inner.error.is_some() {
            return 0;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let line = stamp_json(event.to_json(), id, causes).render();
        let result = inner
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| inner.writer.write_all(b"\n"));
        if let Err(e) = result {
            inner.error = Some(e);
        }
        id
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner
            .lock()
            .expect("telemetry poisoned")
            .accum
            .counter(name, delta);
    }

    fn timing(&self, name: &str, nanos: u64) {
        self.inner
            .lock()
            .expect("telemetry poisoned")
            .accum
            .timing(name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_recorder_accumulates() {
        let r = CollectRecorder::new();
        r.event(&Event::RunStart { name: "t".into() });
        r.counter("hits", 2);
        r.counter("hits", 3);
        r.timing("ns", 128);
        assert_eq!(r.events().len(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.histograms["ns"].count(), 1);
    }

    #[test]
    fn collect_recorder_stamps_monotonic_ids_and_causes() {
        let r = CollectRecorder::new();
        let a = r.event_caused(&Event::RunStart { name: "a".into() }, &[]);
        let b = r.event_caused(&Event::RunStart { name: "b".into() }, &[a]);
        r.event(&Event::RunStart { name: "c".into() });
        assert_eq!((a, b), (1, 2));
        let stamped = r.stamped_events();
        assert_eq!(
            stamped.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(stamped[1].causes, vec![1]);
        assert!(stamped[2].causes.is_empty());
    }

    #[test]
    fn stamped_json_puts_id_after_type_and_causes_last() {
        let s = StampedEvent {
            id: 9,
            causes: vec![3, 7],
            event: Event::RunStart { name: "t".into() },
        };
        let line = s.to_json().render();
        assert_eq!(
            line,
            r#"{"type":"run_start","id":9,"name":"t","causes":[3,7]}"#
        );
        let no_causes = StampedEvent {
            id: 1,
            causes: vec![],
            event: Event::RunStart { name: "t".into() },
        };
        assert!(no_causes.to_json().get("causes").is_none());
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines() {
        let path = std::env::temp_dir().join("sparcle-telemetry-recorder-test.jsonl");
        let r = JsonlRecorder::create(&path).unwrap();
        r.event(&Event::RunStart { name: "t".into() });
        r.counter("commits", 7);
        let snap = r.finish().unwrap();
        assert_eq!(snap.counter("commits"), 7);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("run_start"));
        assert_eq!(first.get("id").unwrap().as_num(), Some(1.0));
        let last = crate::json::parse(lines[1]).unwrap();
        assert_eq!(last.get("type").unwrap().as_str(), Some("snapshot"));
        assert_eq!(last.get("id").unwrap().as_num(), Some(2.0));
        assert_eq!(
            last.get("counters")
                .unwrap()
                .get("commits")
                .unwrap()
                .as_num(),
            Some(7.0)
        );
        std::fs::remove_file(&path).ok();
    }
}
