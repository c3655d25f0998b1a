//! Semantic trace comparison.
//!
//! Two traces of the same seeded run are byte-identical *except* for
//! wall-clock span timestamps (`t_ns` on `span_open`, `dur_ns` on
//! `span_close`) — see the determinism contract in
//! `sparcle_telemetry::span`. The diff therefore strips those keys from
//! every event and compares the normalized renders line by line,
//! reporting the **first** diverging event with its index and kind —
//! turning a failed byte-identity assert into an actionable pointer at
//! the exact decision where two runs parted ways.

/// Keys excluded from comparison: the fields the event table marks
/// `[wall_clock]` (span timestamps).
pub use sparcle_telemetry::event::WALL_CLOCK_KEYS;
use sparcle_telemetry::Json;

use crate::kind_of;

/// Strips the wall-clock keys from an event (top level only — span
/// timestamps never nest).
pub fn normalize(event: &Json) -> Json {
    match event {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !WALL_CLOCK_KEYS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Which input trace a [`Divergence::Length`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first trace.
    A,
    /// The second trace.
    B,
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Side::A => "first",
            Side::B => "second",
        })
    }
}

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Event `index` (0-based) differs between the traces.
    Event {
        /// 0-based event index (= line index among non-empty lines).
        index: usize,
        /// The event kind in the first trace.
        kind_a: String,
        /// The event kind in the second trace.
        kind_b: String,
        /// Normalized render of the first trace's event.
        a: String,
        /// Normalized render of the second trace's event.
        b: String,
    },
    /// One trace is a strict prefix of the other.
    Length {
        /// Events in the shorter trace (also the index of the first
        /// unmatched event in the longer one).
        shorter: usize,
        /// Events in the longer trace.
        longer: usize,
        /// Which trace is longer.
        which_longer: Side,
        /// Kind of the longer trace's first unmatched event.
        extra_kind: String,
    },
}

impl Divergence {
    /// The 0-based index of the first diverging event.
    pub fn index(&self) -> usize {
        match self {
            Divergence::Event { index, .. } => *index,
            Divergence::Length { shorter, .. } => *shorter,
        }
    }

    /// Human-readable report naming the index and kinds.
    pub fn render(&self) -> String {
        match self {
            Divergence::Event {
                index,
                kind_a,
                kind_b,
                a,
                b,
            } => format!(
                "first diverging event at index {index}: kind {kind_a:?} vs {kind_b:?}\n- {a}\n+ {b}"
            ),
            Divergence::Length {
                shorter,
                longer,
                which_longer,
                extra_kind,
            } => format!(
                "traces diverge at index {shorter}: the {which_longer} trace continues with \
                 {extra} more event(s), starting with kind {extra_kind:?}",
                extra = longer - shorter,
            ),
        }
    }
}

/// Compares two parsed traces semantically (wall-clock keys stripped).
/// Returns `None` when they are equivalent.
pub fn diff_traces(a: &[Json], b: &[Json]) -> Option<Divergence> {
    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        let na = normalize(ea);
        let nb = normalize(eb);
        if na != nb {
            return Some(Divergence::Event {
                index: i,
                kind_a: kind_of(ea).to_owned(),
                kind_b: kind_of(eb).to_owned(),
                a: na.render(),
                b: nb.render(),
            });
        }
    }
    if a.len() != b.len() {
        let (shorter, longer, which_longer, extra) = if a.len() > b.len() {
            (b.len(), a.len(), Side::A, &a[b.len()])
        } else {
            (a.len(), b.len(), Side::B, &b[a.len()])
        };
        return Some(Divergence::Length {
            shorter,
            longer,
            which_longer,
            extra_kind: kind_of(extra).to_owned(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_trace;

    fn trace(lines: &[&str]) -> Vec<Json> {
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn wall_clock_keys_are_ignored() {
        let a = trace(&[
            r#"{"type":"span_open","id":0,"parent":null,"name":"x","t_ns":100}"#,
            r#"{"type":"span_close","id":0,"name":"x","dur_ns":5000,"aborted":false}"#,
        ]);
        let b = trace(&[
            r#"{"type":"span_open","id":0,"parent":null,"name":"x","t_ns":99999}"#,
            r#"{"type":"span_close","id":0,"name":"x","dur_ns":1,"aborted":false}"#,
        ]);
        assert_eq!(diff_traces(&a, &b), None);
    }

    #[test]
    fn structural_differences_are_reported_with_index_and_kind() {
        let a = trace(&[
            r#"{"type":"run_start","name":"x"}"#,
            r#"{"type":"commit","ct":1,"host":2}"#,
        ]);
        let b = trace(&[
            r#"{"type":"run_start","name":"x"}"#,
            r#"{"type":"commit","ct":1,"host":3}"#,
        ]);
        let d = diff_traces(&a, &b).expect("diverges");
        assert_eq!(d.index(), 1);
        match &d {
            Divergence::Event { kind_a, kind_b, .. } => {
                assert_eq!(kind_a, "commit");
                assert_eq!(kind_b, "commit");
            }
            other => panic!("expected Event divergence, got {other:?}"),
        }
        assert!(d.render().contains("index 1"));
    }

    #[test]
    fn span_structure_still_compares() {
        // Same timestamps, different span name: must diverge.
        let a = trace(&[r#"{"type":"span_open","id":0,"parent":null,"name":"x","t_ns":1}"#]);
        let b = trace(&[r#"{"type":"span_open","id":0,"parent":null,"name":"y","t_ns":1}"#]);
        let d = diff_traces(&a, &b).expect("diverges");
        assert_eq!(d.index(), 0);
    }

    #[test]
    fn prefix_traces_report_length_divergence() {
        let a = trace(&[r#"{"type":"run_start","name":"x"}"#]);
        let b = trace(&[
            r#"{"type":"run_start","name":"x"}"#,
            r#"{"type":"commit","ct":1,"host":2}"#,
        ]);
        let d = diff_traces(&a, &b).expect("diverges");
        match &d {
            Divergence::Length {
                shorter,
                longer,
                which_longer,
                extra_kind,
            } => {
                assert_eq!((*shorter, *longer), (1, 2));
                assert_eq!(*which_longer, Side::B);
                assert_eq!(extra_kind, "commit");
            }
            other => panic!("expected Length divergence, got {other:?}"),
        }
    }
}
