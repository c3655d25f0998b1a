//! The [`TraceHandle`] the engine and its callers thread telemetry
//! through.
//!
//! The handle wraps an optional `&dyn` [`Recorder`], so every public API
//! that accepts one (`PlacementEngine::new_traced`,
//! `Assigner::assign_traced`, the sim entry points, …) has a single
//! signature whether or not anything listens. A `None` recorder
//! ([`TraceHandle::none`]) short-circuits every recording path, and the
//! expensive instrumentation inside the engine (building candidate sets
//! for decision events) is gated on
//! [`TraceHandle::is_enabled`], so an untraced run pays one branch per
//! site.
//!
//! ## Spans
//!
//! Hierarchical timed spans ride the same handle but are **separately
//! opt-in**: only a handle built with [`TraceHandle::with_spans`]
//! carries a [`SpanTracker`], and only such handles emit
//! `span_open`/`span_close` events from [`TraceHandle::span`].
//! Span timestamps are wall-clock, so the byte-identical determinism
//! suites run with span-less handles and see traces without span lines;
//! `--trace-spans` on the experiment binaries turns them on.

use sparcle_telemetry::{Event, Recorder, SpanTracker};

/// A copyable, possibly-disconnected reference to a telemetry sink.
///
/// Obtain one with [`TraceHandle::none`], [`TraceHandle::new`] or
/// [`TraceHandle::with_spans`].
#[derive(Clone, Copy, Default)]
pub struct TraceHandle<'a> {
    recorder: Option<&'a dyn Recorder>,
    spans: Option<&'a SpanTracker>,
}

impl std::fmt::Debug for TraceHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.spans_enabled())
            .finish()
    }
}

impl<'a> TraceHandle<'a> {
    /// A disconnected handle: records nothing.
    #[inline]
    pub fn none() -> Self {
        Self::default()
    }

    /// A handle recording into `recorder` (no spans).
    pub fn new(recorder: &'a dyn Recorder) -> Self {
        TraceHandle {
            recorder: Some(recorder),
            spans: None,
        }
    }

    /// A handle recording into `recorder` that additionally emits
    /// hierarchical span events through `tracker`.
    pub fn with_spans(recorder: &'a dyn Recorder, tracker: &'a SpanTracker) -> Self {
        TraceHandle {
            recorder: Some(recorder),
            spans: Some(tracker),
        }
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Whether span events are emitted (a recorder and a tracker are
    /// both attached).
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.recorder.is_some() && self.spans.is_some()
    }

    /// Records a structured event and returns the provenance id the
    /// sink assigned (`0` when no recorder is attached or the sink does
    /// not track provenance).
    #[inline]
    pub fn event(&self, event: &Event) -> u64 {
        self.event_caused(event, &[])
    }

    /// Records a structured event with its causal back-references
    /// (provenance ids of the earlier events that caused it) and
    /// returns the new event's id.
    #[inline]
    pub fn event_caused(&self, event: &Event, causes: &[u64]) -> u64 {
        match self.recorder {
            Some(r) => r.event_caused(event, causes),
            None => 0,
        }
    }

    /// Increments a named counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(r) = self.recorder {
            r.counter(name, delta);
        }
    }

    /// Opens a hierarchical span named `name`.
    ///
    /// Returns an inert guard unless both a recorder **and** a span
    /// tracker are attached (see the module docs). Close it with
    /// [`SpanGuard::finish`]; dropping an active guard records an
    /// aborted close.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        let inner = match (self.recorder, self.spans) {
            (Some(recorder), Some(tracker)) => Some(tracker.open(recorder, name)),
            _ => None,
        };
        SpanGuard { inner }
    }
}

/// RAII guard for a [`TraceHandle::span`]. Inert when the handle
/// carries no tracker.
#[must_use = "dropping an active span guard records an aborted close; call finish()"]
pub struct SpanGuard<'a> {
    inner: Option<sparcle_telemetry::Span<'a>>,
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &self.is_active())
            .finish()
    }
}

impl SpanGuard<'_> {
    /// Whether this guard wraps a live span (false for inert guards).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Closes the span normally (no-op for inert guards).
    #[inline]
    pub fn finish(self) {
        if let Some(span) = self.inner {
            span.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled_and_inert() {
        let t = TraceHandle::none();
        assert!(!t.is_enabled());
        assert!(!t.spans_enabled());
        t.counter("x", 1);
        let guard = t.span("inert");
        assert!(!guard.is_active());
        guard.finish();
        // Dropping an inert guard is also fine.
        let _ = t.span("inert2");
    }

    #[test]
    fn new_records_into_the_sink() {
        let r = sparcle_telemetry::CollectRecorder::new();
        let t = TraceHandle::new(&r);
        assert!(t.is_enabled());
        assert!(!t.spans_enabled());
        t.counter("c", 3);
        t.event(&Event::RunStart { name: "t".into() });
        assert_eq!(r.snapshot().counter("c"), 3);
        assert_eq!(r.events().len(), 1);
        // Without a tracker, span() is inert: no span events.
        t.span("quiet").finish();
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn event_caused_threads_provenance_through_the_sink() {
        let r = sparcle_telemetry::CollectRecorder::new();
        let t = TraceHandle::new(&r);
        let a = t.event(&Event::RunStart { name: "a".into() });
        let b = t.event_caused(&Event::RunStart { name: "b".into() }, &[a]);
        assert_eq!((a, b), (1, 2));
        assert_eq!(r.stamped_events()[1].causes, vec![1]);
        // A disconnected handle records nothing and reports id 0.
        assert_eq!(
            TraceHandle::none().event_caused(&Event::RunStart { name: "c".into() }, &[b]),
            0
        );
        assert_eq!(r.stamped_events().len(), 2);
    }

    #[test]
    fn with_spans_emits_nested_span_events() {
        let r = sparcle_telemetry::CollectRecorder::new();
        let tracker = SpanTracker::new();
        let t = TraceHandle::with_spans(&r, &tracker);
        assert!(t.spans_enabled());
        let outer = t.span("outer");
        assert!(outer.is_active());
        {
            let _inner = t.span("inner"); // dropped -> aborted close
        }
        outer.finish();
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(
            &events[1],
            Event::SpanOpen {
                parent: Some(0),
                ..
            }
        ));
        assert!(matches!(&events[2], Event::SpanClose { aborted: true, .. }));
        assert!(matches!(
            &events[3],
            Event::SpanClose { aborted: false, .. }
        ));
    }
}
