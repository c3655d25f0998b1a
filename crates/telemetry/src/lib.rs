//! # sparcle-telemetry
//!
//! Zero-dependency structured telemetry for the SPARCLE workspace:
//! scheduler decision tracing, counters, hierarchical timed spans,
//! JSONL export, and the sim-time windows of the online monitor. See
//! DESIGN.md §7 for the architecture and the overhead contract, §9 for
//! the span model.
//!
//! The record of a run is deterministic — a pure function of the input
//! and seed, bit-identical across runs and worker-thread counts:
//!
//! * **Events** ([`Event`]) form the JSONL trace. Each kind is defined
//!   once, in the table of the [`event`] module, which generates the
//!   enum, its JSON and the [`schema`] rows.
//! * **Counters** ([`MetricsSnapshot`]) form the trace's final
//!   `snapshot` line and the `--summary` table.
//!
//! **Spans** ([`Span`], [`SpanTracker`]) are the one wall-clock
//! channel: their open/close *structure* (ids, parents, names,
//! ordering) is deterministic, but their timestamps are wall-clock.
//! They are therefore opt-in — only traces recorded with a
//! [`SpanTracker`] attached contain `span_open`/`span_close` lines, and
//! `sparcle-trace diff` compares traces with the wall-clock keys
//! stripped.
//!
//! Sinks implement [`Recorder`]. The instrumented crates reach one
//! through `sparcle_core::TraceHandle`; an untraced run carries a
//! disconnected handle and pays one branch per call site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod schema;
pub mod span;
pub mod window;

pub use event::{
    Candidate, CommitRecord, CtTieBreak, Event, HostTieBreak, MonitorSnapshot, PlacementDecision,
};
pub use json::{parse as parse_json, Json, ParseError};
pub use metrics::{Histogram, MetricsSnapshot};
pub use recorder::{stamp_json, CollectRecorder, JsonlRecorder, Recorder, StampedEvent};
pub use span::{Span, SpanTracker};
pub use window::{RateEstimator, WindowedCounter, WindowedHistogram};
