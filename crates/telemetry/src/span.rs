//! Hierarchical timed spans.
//!
//! A [`Span`] is a named interval of work recorded as a pair of events:
//! `span_open` (id, parent id, name, monotonic-relative open time) and
//! `span_close` (id, name, duration, aborted flag). The [`SpanTracker`]
//! owns the id counter, the monotonic epoch the open timestamps are
//! relative to, and the currently-open span stack that provides
//! automatic parenting: a span opened while another is open becomes its
//! child.
//!
//! ## Determinism contract
//!
//! Span *structure* — ids, parents, names, and the interleaving of span
//! events with the rest of the trace — is a pure function of the input
//! and seed, because spans are only opened from the serial control path
//! of the instrumented crates (never from γ-evaluator worker threads).
//! Span *timestamps* (`t_ns`, `dur_ns`) are wall-clock. Trace consumers
//! that compare traces (`sparcle-trace diff`) therefore strip the
//! wall-clock keys and compare the rest byte-for-byte; the repo's
//! byte-identical determinism suites run without a tracker attached and
//! see no span events at all.
//!
//! ## Abort safety
//!
//! Dropping a [`Span`] without calling [`Span::finish`] — early return,
//! `?`, panic unwind — records a `span_close` with `aborted: true`, so
//! profiles can never silently lose an open span: every `span_open` is
//! matched by exactly one `span_close`.

use std::sync::Mutex;
use std::time::Instant;

use crate::event::Event;
use crate::recorder::Recorder;

#[derive(Debug, Default)]
struct TrackerState {
    next_id: u64,
    stack: Vec<u64>,
}

/// Allocates span ids, anchors the monotonic epoch, and tracks the
/// open-span stack for automatic parenting.
///
/// One tracker serves one trace. Spans must be opened from a single
/// logical control thread (see the module docs); the internal mutex
/// exists only to keep the API `&self` like [`Recorder`].
///
/// ```
/// use sparcle_telemetry::{CollectRecorder, SpanTracker};
/// let recorder = CollectRecorder::new();
/// let tracker = SpanTracker::new();
/// let outer = tracker.open(&recorder, "outer");
/// let inner = tracker.open(&recorder, "inner"); // child of "outer"
/// inner.finish();
/// outer.finish();
/// assert_eq!(recorder.events().len(), 4); // two opens, two closes
/// ```
pub struct SpanTracker {
    epoch: Instant,
    state: Mutex<TrackerState>,
}

impl std::fmt::Debug for SpanTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanTracker").finish_non_exhaustive()
    }
}

impl Default for SpanTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTracker {
    /// A fresh tracker; its monotonic epoch is "now".
    pub fn new() -> Self {
        SpanTracker {
            epoch: Instant::now(),
            state: Mutex::new(TrackerState::default()),
        }
    }

    /// Opens a span named `name`, emitting its `span_open` event into
    /// `recorder`. The span's parent is the innermost span still open
    /// on this tracker, if any.
    pub fn open<'a>(&'a self, recorder: &'a dyn Recorder, name: &'static str) -> Span<'a> {
        // One clock read serves both the open timestamp and the
        // duration origin; a second would only add overhead.
        let now = Instant::now();
        let t_ns = u64::try_from(now.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let (id, parent) = {
            let mut st = self.state.lock().expect("span tracker poisoned");
            let id = st.next_id;
            st.next_id += 1;
            let parent = st.stack.last().copied();
            st.stack.push(id);
            (id, parent)
        };
        recorder.event(&Event::SpanOpen {
            id,
            parent,
            name,
            t_ns,
        });
        Span {
            tracker: self,
            recorder,
            id,
            name,
            opened: now,
            closed: false,
        }
    }

    fn remove(&self, id: u64) {
        let mut st = self.state.lock().expect("span tracker poisoned");
        // Usually the top of the stack; tolerate out-of-order closes so
        // a parent finished before its child cannot corrupt parenting.
        if let Some(pos) = st.stack.iter().rposition(|&open| open == id) {
            st.stack.remove(pos);
        }
    }
}

/// An open hierarchical span. Close it with [`Span::finish`]; dropping
/// it without finishing records an *aborted* close instead (see the
/// module docs).
#[must_use = "dropping a span without finish() records an aborted close"]
pub struct Span<'a> {
    tracker: &'a SpanTracker,
    recorder: &'a dyn Recorder,
    id: u64,
    name: &'static str,
    opened: Instant,
    closed: bool,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl Span<'_> {
    /// The span's id within its tracker's trace.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span normally, emitting `span_close` with
    /// `aborted: false`.
    pub fn finish(mut self) {
        self.close(false);
    }

    fn close(&mut self, aborted: bool) {
        if self.closed {
            return;
        }
        self.closed = true;
        let dur_ns = u64::try_from(self.opened.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracker.remove(self.id);
        self.recorder.event(&Event::SpanClose {
            id: self.id,
            name: self.name,
            dur_ns,
            aborted,
        });
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectRecorder;

    fn span_events(r: &CollectRecorder) -> Vec<Event> {
        r.events()
            .into_iter()
            .filter(|e| matches!(e, Event::SpanOpen { .. } | Event::SpanClose { .. }))
            .collect()
    }

    #[test]
    fn finish_records_clean_close_with_parenting() {
        let r = CollectRecorder::new();
        let t = SpanTracker::new();
        let outer = t.open(&r, "outer");
        let inner = t.open(&r, "inner");
        inner.finish();
        outer.finish();
        let sibling = t.open(&r, "sibling");
        sibling.finish();

        let events = span_events(&r);
        assert_eq!(events.len(), 6);
        match &events[0] {
            Event::SpanOpen {
                id, parent, name, ..
            } => {
                assert_eq!((*id, *parent, *name), (0, None, "outer"));
            }
            other => panic!("expected span_open, got {other:?}"),
        }
        match &events[1] {
            Event::SpanOpen {
                id, parent, name, ..
            } => {
                assert_eq!((*id, *parent, *name), (1, Some(0), "inner"));
            }
            other => panic!("expected span_open, got {other:?}"),
        }
        match &events[2] {
            Event::SpanClose { id, aborted, .. } => assert_eq!((*id, *aborted), (1, false)),
            other => panic!("expected span_close, got {other:?}"),
        }
        match &events[3] {
            Event::SpanClose { id, aborted, .. } => assert_eq!((*id, *aborted), (0, false)),
            other => panic!("expected span_close, got {other:?}"),
        }
        // After both closed, a new span is a root again.
        match &events[4] {
            Event::SpanOpen { id, parent, .. } => assert_eq!((*id, *parent), (2, None)),
            other => panic!("expected span_open, got {other:?}"),
        }
    }

    #[test]
    fn drop_without_finish_records_aborted_close() {
        let r = CollectRecorder::new();
        let t = SpanTracker::new();
        {
            let _span = t.open(&r, "doomed");
            // early scope exit without finish()
        }
        let events = span_events(&r);
        assert_eq!(events.len(), 2);
        match &events[1] {
            Event::SpanClose {
                id, name, aborted, ..
            } => {
                assert_eq!((*id, *name, *aborted), (0, "doomed", true));
            }
            other => panic!("expected span_close, got {other:?}"),
        }
    }

    #[test]
    fn abort_on_panic_unwind() {
        let r = CollectRecorder::new();
        let t = SpanTracker::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = t.open(&r, "panicky");
            panic!("boom");
        }));
        assert!(caught.is_err());
        let events = span_events(&r);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], Event::SpanClose { aborted: true, .. }));
        // The tracker recovered: the stack is empty again.
        let next = t.open(&r, "after");
        assert!(matches!(
            span_events(&r)[2],
            Event::SpanOpen { parent: None, .. }
        ));
        next.finish();
    }

    #[test]
    fn out_of_order_close_keeps_stack_consistent() {
        let r = CollectRecorder::new();
        let t = SpanTracker::new();
        let outer = t.open(&r, "outer");
        let inner = t.open(&r, "inner");
        // Misuse: close the parent first. The child must still unwind
        // cleanly and the next root span must have no parent.
        outer.finish();
        inner.finish();
        let root = t.open(&r, "root");
        assert!(matches!(
            span_events(&r)[4],
            Event::SpanOpen { parent: None, .. }
        ));
        root.finish();
    }

    #[test]
    fn span_events_validate_against_schema() {
        let r = CollectRecorder::new();
        let t = SpanTracker::new();
        let outer = t.open(&r, "outer");
        let inner = t.open(&r, "inner");
        drop(inner);
        outer.finish();
        for s in r.stamped_events() {
            let line = s.to_json().render();
            assert_eq!(
                crate::schema::validate_line(&line),
                Ok(s.event.kind()),
                "{line}"
            );
        }
    }
}
