//! JSONL trace-schema validation.
//!
//! Every line of a trace file must parse as a JSON object carrying a
//! known `type` tag and that type's required keys. The per-kind key
//! lists ([`SCHEMAS`]) are generated by the event table in
//! [`crate::event`] — the same table that generates the emitter — so
//! the checked contract cannot drift from what this process writes. The
//! validator exists for files from *outside* the process: the nightly
//! CI job runs an experiment binary with `--trace-out` and feeds the
//! file through [`validate_trace`], and `sparcle-trace validate` checks
//! traces written by other builds.

use crate::json::{parse, Json};

pub use crate::event::SCHEMAS;

/// The one line kind that is not an [`crate::Event`]: the final
/// [`crate::MetricsSnapshot::to_trace_json`] line.
const SNAPSHOT: (&str, &[&str]) = ("snapshot", &["counters"]);

/// Validates one JSONL trace line. Returns the event's `type` tag.
///
/// Beyond the per-kind required keys, every line must carry the
/// provenance stamp: a numeric `id`, plus — when present — a `causes`
/// array whose entries are numeric ids strictly smaller than `id` (a
/// cause always precedes its effect, so cause chains are acyclic by
/// construction; DESIGN.md §14).
///
/// # Errors
///
/// Returns a description when the line is not a JSON object, lacks a
/// string `type` or numeric `id`, names an unknown type, misses a
/// required key, or carries a malformed `causes` list.
pub fn validate_line(line: &str) -> Result<&'static str, String> {
    let json = parse(line).map_err(|e| format!("not JSON: {e}"))?;
    if !matches!(json, Json::Obj(_)) {
        return Err("line is not a JSON object".to_owned());
    }
    let kind = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string \"type\" key".to_owned())?;
    let (tag, required) = SCHEMAS
        .iter()
        .chain([&SNAPSHOT])
        .find(|(t, _)| *t == kind)
        .ok_or_else(|| format!("unknown event type {kind:?}"))?;
    for key in *required {
        if json.get(key).is_none() {
            return Err(format!("{kind} event missing required key {key:?}"));
        }
    }
    let id = json
        .get("id")
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{kind} event missing numeric \"id\" key"))?;
    if let Some(causes) = json.get("causes") {
        let entries = causes
            .as_arr()
            .ok_or_else(|| format!("{kind} event \"causes\" is not an array"))?;
        for entry in entries {
            let cause = entry
                .as_num()
                .ok_or_else(|| format!("{kind} event \"causes\" holds a non-numeric entry"))?;
            if cause >= id {
                return Err(format!(
                    "{kind} event id {id} lists cause {cause}, which does not precede it"
                ));
            }
        }
    }
    Ok(tag)
}

/// Validates a whole trace: every non-empty line must satisfy
/// [`validate_line`], and the final line must be the `snapshot`.
///
/// Returns the number of validated lines.
///
/// # Errors
///
/// Returns `(line_number, description)` (1-based) for the first
/// offending line, or line 0 when the trace is empty or does not end in
/// a snapshot.
pub fn validate_trace(contents: &str) -> Result<usize, (usize, String)> {
    validate_trace_inner(contents, false).map(|(count, _)| count)
}

/// Like [`validate_trace`], but tolerates a partially-written trace from
/// an interrupted run: when the **final** line fails to parse as JSON it
/// is skipped (and the trailing-snapshot requirement waived, since the
/// writer clearly never got to `finish()`).
///
/// Returns `(validated_lines, truncated)`; `truncated` is `true` when a
/// partial final line was skipped.
///
/// # Errors
///
/// Same as [`validate_trace`] for every other failure mode — a
/// malformed line *before* the end of the file is still an error.
pub fn validate_trace_lenient(contents: &str) -> Result<(usize, bool), (usize, String)> {
    validate_trace_inner(contents, true)
}

fn validate_trace_inner(contents: &str, lenient: bool) -> Result<(usize, bool), (usize, String)> {
    let lines: Vec<(usize, &str)> = contents
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.is_empty())
        .collect();
    let mut count = 0;
    let mut last_kind = "";
    let mut truncated = false;
    for (slot, &(i, line)) in lines.iter().enumerate() {
        match validate_line(line) {
            Ok(kind) => {
                last_kind = kind;
                count += 1;
            }
            Err(e) => {
                let is_last = slot + 1 == lines.len();
                if lenient && is_last && e.starts_with("not JSON") {
                    truncated = true;
                    break;
                }
                return Err((i + 1, e));
            }
        }
    }
    if count == 0 {
        return Err((0, "trace is empty".to_owned()));
    }
    if last_kind != "snapshot" && !truncated {
        return Err((0, format!("trace ends in {last_kind:?}, not \"snapshot\"")));
    }
    Ok((count, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::stamp_json;
    use crate::{CollectRecorder, Event, MonitorSnapshot, Recorder};

    /// Renders a recorder's stream plus a stamped snapshot line — what a
    /// [`crate::JsonlRecorder`] would have put on disk.
    fn full_trace(r: &CollectRecorder) -> String {
        let mut trace = r.render_trace();
        let id = r.stamped_events().len() as u64 + 1;
        trace.push_str(&stamp_json(r.snapshot().to_trace_json(), id, &[]).render());
        trace.push('\n');
        trace
    }

    #[test]
    fn real_events_validate() {
        let r = CollectRecorder::new();
        r.event(&Event::RunStart { name: "t".into() });
        r.event(&Event::SimQueueDepth {
            time: 1.0,
            depth: 3,
            processed: 7,
        });
        r.counter("c", 2);
        assert_eq!(validate_trace(&full_trace(&r)), Ok(3));
    }

    #[test]
    fn runtime_events_validate() {
        let r = CollectRecorder::new();
        let arrival = r.event_caused(
            &Event::RuntimeArrival {
                time: 0.5,
                app: 0,
                lineage: 0,
                class: "be",
                admitted: true,
                rate: 1.25,
                cause: None,
            },
            &[],
        );
        let element = r.event_caused(
            &Event::RuntimeElementState {
                time: 1.0,
                element: "link:2".into(),
                up: false,
                displaced: 3,
            },
            &[],
        );
        let displace = r.event_caused(
            &Event::RuntimeDisplace {
                time: 1.0,
                app: 0,
                lineage: 0,
                element: "link:2".into(),
                cause: "element_failure",
            },
            &[arrival, element],
        );
        r.event_caused(
            &Event::RuntimeProbe {
                time: 1.5,
                app: 0,
                lineage: 0,
                feasible: true,
                rate: 1.0,
            },
            &[displace],
        );
        let readmit = r.event_caused(
            &Event::RuntimeReadmit {
                time: 1.5,
                app: 0,
                lineage: 0,
                outcome: "replaced",
                rate: 1.0,
                cause: None,
            },
            &[displace],
        );
        r.event_caused(
            &Event::RuntimeMigrate {
                time: 2.25,
                app: 0,
                lineage: 0,
                outcome: "migrated",
                old_rate: 1.0,
                new_rate: 1.5,
                cause: "defrag_net_gain",
            },
            &[readmit],
        );
        r.event_caused(
            &Event::RuntimeReconcile {
                time: 1.5,
                policy: "fifo",
                restored: 2,
                replaced: 1,
                failed: 0,
                latency: 0.5,
            },
            &[displace],
        );
        r.event(&Event::RuntimeFluctuation {
            time: 2.0,
            violated: 0,
        });
        r.event_caused(
            &Event::RuntimeDeparture {
                time: 2.5,
                app: 0,
                lineage: 0,
            },
            &[readmit],
        );
        for s in r.stamped_events() {
            let line = s.to_json().render();
            assert_eq!(validate_line(&line), Ok(s.event.kind()));
        }
        assert_eq!(validate_trace(&full_trace(&r)), Ok(10));
    }

    #[test]
    fn monitor_events_validate() {
        let r = CollectRecorder::new();
        r.event(&Event::MonitorSnapshot(MonitorSnapshot {
            time: 10.0,
            window: 20.0,
            gr_burn: 0.4,
            gr_violation_s: 0.2,
            be_rate: 3.5,
            arrival_rate: 1.2,
            admit_rate: 1.0,
            warm_iters_per_solve: 18.0,
            solves: 6,
            queue_depth: 40,
            queue_p95: 55,
            backlog: 0,
            live: 12,
            alerts_firing: 1,
        }));
        r.event(&Event::MonitorAlert {
            time: 10.0,
            rule: "gr_burn_rate",
            state: "firing",
            value: 1.8,
            threshold: 1.0,
        });
        for s in r.stamped_events() {
            let line = s.to_json().render();
            assert_eq!(validate_line(&line), Ok(s.event.kind()));
        }
        assert_eq!(validate_trace(&full_trace(&r)), Ok(3));
    }

    #[test]
    fn service_events_validate() {
        let r = CollectRecorder::new();
        let ingest = r.event_caused(
            &Event::ServiceIngest {
                time: 1.5,
                request: 17,
                lineage: 17,
                class: "be",
            },
            &[],
        );
        r.event_caused(
            &Event::ServiceDefer {
                time: 1.75,
                window: 3,
                queue_depth: 1,
                writer_free: 2.0,
                cause: "writer_busy",
            },
            &[],
        );
        let batch = r.event_caused(
            &Event::ServiceBatch {
                time: 2.0,
                window: 4,
                size: 3,
                admitted: 2,
                rejected: 1,
                shed: 0,
                queue_depth: 5,
                solves: 1,
            },
            &[ingest],
        );
        r.event_caused(
            &Event::ServiceDecision {
                time: 2.0,
                request: 17,
                lineage: 17,
                class: "be",
                outcome: "admitted",
                wait: 0.25,
                rate: 1.5,
                cause: None,
            },
            &[ingest, batch],
        );
        r.event(&Event::ServiceProbe {
            time: 2.5,
            request: 18,
            lineage: 18,
            feasible: false,
            rate: 0.0,
        });
        for s in r.stamped_events() {
            let line = s.to_json().render();
            assert_eq!(validate_line(&line), Ok(s.event.kind()));
        }
        assert_eq!(validate_trace(&full_trace(&r)), Ok(6));
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[1,2]").is_err());
        assert!(validate_line("{\"type\":\"nope\"}").is_err());
        assert!(validate_line("{\"type\":\"run_start\",\"id\":1}").is_err());
        // The provenance stamp is mandatory...
        assert!(validate_line("{\"type\":\"run_start\",\"name\":\"x\"}").is_err());
        // ...and causes must be earlier numeric ids.
        assert!(
            validate_line("{\"type\":\"run_start\",\"id\":4,\"name\":\"x\",\"causes\":[2]}")
                .is_ok()
        );
        assert!(
            validate_line("{\"type\":\"run_start\",\"id\":4,\"name\":\"x\",\"causes\":[4]}")
                .is_err()
        );
        assert!(validate_line(
            "{\"type\":\"run_start\",\"id\":4,\"name\":\"x\",\"causes\":[\"a\"]}"
        )
        .is_err());
        assert!(
            validate_line("{\"type\":\"run_start\",\"id\":4,\"name\":\"x\",\"causes\":3}").is_err()
        );
        let err = validate_trace("{\"type\":\"run_start\",\"id\":1,\"name\":\"x\"}\n").unwrap_err();
        assert!(err.1.contains("snapshot"), "{err:?}");
        assert!(validate_trace("").is_err());
    }

    #[test]
    fn lenient_validation_skips_a_truncated_final_line() {
        let whole = "{\"type\":\"run_start\",\"id\":1,\"name\":\"x\"}\n\
                     {\"type\":\"snapshot\",\"id\":2,\"counters\":{}}\n";
        assert_eq!(validate_trace_lenient(whole), Ok((2, false)));

        // An interrupted writer leaves a partial final line: strict
        // validation rejects it, lenient validation skips it with the
        // truncation flag set (and waives the trailing-snapshot rule).
        let truncated = "{\"type\":\"run_start\",\"id\":1,\"name\":\"x\"}\n\
                         {\"type\":\"snapsh";
        assert!(validate_trace(truncated).is_err());
        assert_eq!(validate_trace_lenient(truncated), Ok((1, true)));

        // A malformed line mid-file is still an error in both modes.
        let corrupt = "{\"type\":\"run_st\n\
                       {\"type\":\"snapshot\",\"id\":2,\"counters\":{}}\n";
        assert!(validate_trace(corrupt).is_err());
        assert!(validate_trace_lenient(corrupt).is_err());

        // A truncated-only trace still counts as empty.
        assert!(validate_trace_lenient("{\"type\":\"run").is_err());
    }
}
