//! Pins the wire format: `fixtures/events_golden.jsonl` was written by
//! the build *before* the event table existed (hand-written `to_json`),
//! from exactly the events below, and the table must reproduce it byte
//! for byte. The same samples drive the table-wide schema checks.

use sparcle_telemetry::json::{parse, Json};
use sparcle_telemetry::schema::{validate_line, SCHEMAS};
use sparcle_telemetry::{
    Candidate, CollectRecorder, CommitRecord, CtTieBreak, Event, HostTieBreak, MonitorSnapshot,
    PlacementDecision, Recorder,
};

/// At least one event of every kind, covering `null` and coded causes,
/// non-finite numbers, the `span` rename, a two-candidate and an empty
/// `decision`, and stamped cause lists.
fn golden_events() -> CollectRecorder {
    let r = CollectRecorder::new();
    r.event(&Event::RunStart {
        name: "golden \"run\"".into(),
    });
    r.event(&Event::Decision(PlacementDecision {
        round: 2,
        candidates: vec![
            Candidate {
                ct: 1,
                host: 3,
                gamma: 4.5,
                host_tie: HostTieBreak::UniqueMax,
            },
            Candidate {
                ct: 2,
                host: 0,
                gamma: f64::INFINITY,
                host_tie: HostTieBreak::LowerNcpId,
            },
        ],
        ct: 1,
        host: 3,
        gamma: 4.5,
        tie_break: CtTieBreak::LowerCtId,
        cache_hits: 1,
        cache_misses: 2,
    }));
    r.event(&Event::Decision(PlacementDecision {
        round: 3,
        candidates: vec![],
        ct: 2,
        host: 0,
        gamma: 0.125,
        tie_break: CtTieBreak::UniqueMin,
        cache_hits: 0,
        cache_misses: 0,
    }));
    r.event(&Event::Commit(CommitRecord {
        ct: 1,
        host: 3,
        invalidated_witness: 4,
        routed_tts: 2,
        routed_hops: 5,
    }));
    r.event(&Event::SimQueueDepth {
        time: 1.0,
        depth: 3,
        processed: 7,
    });
    r.event(&Event::SimAppRate {
        time: 2.5,
        app: 1,
        rate: f64::NAN,
    });
    r.event(&Event::SimElementState {
        epoch: 4,
        element: "link:7".into(),
        up: true,
    });
    let arrival = r.event_caused(
        &Event::RuntimeArrival {
            time: 1.5,
            app: 4,
            lineage: 4,
            class: "gr",
            admitted: true,
            rate: 2.25,
            cause: None,
        },
        &[],
    );
    r.event(&Event::RuntimeArrival {
        time: 1.75,
        app: 5,
        lineage: 5,
        class: "be",
        admitted: false,
        rate: 0.0,
        cause: Some("availability_unreachable"),
    });
    let element = r.event_caused(
        &Event::RuntimeElementState {
            time: 3.0,
            element: "ncp:1".into(),
            up: false,
            displaced: 2,
        },
        &[],
    );
    let displace = r.event_caused(
        &Event::RuntimeDisplace {
            time: 3.0,
            app: 4,
            lineage: 4,
            element: "ncp:1".into(),
            cause: "element_failure",
        },
        &[arrival, element],
    );
    r.event_caused(
        &Event::RuntimeProbe {
            time: 3.5,
            app: 4,
            lineage: 4,
            feasible: true,
            rate: 1.5,
        },
        &[displace],
    );
    let readmit = r.event_caused(
        &Event::RuntimeReadmit {
            time: 3.5,
            app: 4,
            lineage: 4,
            outcome: "replaced",
            rate: 1.5,
            cause: None,
        },
        &[displace],
    );
    r.event_caused(
        &Event::RuntimeReadmit {
            time: 3.5,
            app: 6,
            lineage: 6,
            outcome: "failed",
            rate: 0.0,
            cause: Some("ncp_capacity"),
        },
        &[displace],
    );
    r.event_caused(
        &Event::RuntimeReconcile {
            time: 3.5,
            policy: "gamma",
            restored: 0,
            replaced: 1,
            failed: 1,
            latency: 0.5,
        },
        &[displace],
    );
    r.event_caused(
        &Event::RuntimeMigrate {
            time: 4.25,
            app: 4,
            lineage: 4,
            outcome: "migrated",
            old_rate: 1.5,
            new_rate: 2.0,
            cause: "defrag_net_gain",
        },
        &[readmit],
    );
    r.event(&Event::RuntimeFluctuation {
        time: 4.5,
        violated: 1,
    });
    r.event_caused(
        &Event::RuntimeDeparture {
            time: 5.0,
            app: 4,
            lineage: 4,
        },
        &[readmit],
    );
    r.event(&Event::SpanOpen {
        id: 0,
        parent: None,
        name: "engine.assign",
        t_ns: 125,
    });
    r.event(&Event::SpanOpen {
        id: 1,
        parent: Some(0),
        name: "engine.rank_round",
        t_ns: 250,
    });
    r.event(&Event::SpanClose {
        id: 1,
        name: "engine.rank_round",
        dur_ns: 1000,
        aborted: false,
    });
    r.event(&Event::SpanClose {
        id: 0,
        name: "engine.assign",
        dur_ns: 2000,
        aborted: true,
    });
    r.event(&Event::MonitorSnapshot(MonitorSnapshot {
        time: 30.0,
        window: 20.0,
        gr_burn: 1.25,
        gr_violation_s: 2.5,
        be_rate: 4.0,
        arrival_rate: 1.1,
        admit_rate: 0.9,
        warm_iters_per_solve: 12.5,
        solves: 8,
        queue_depth: 17,
        queue_p95: 31,
        backlog: 2,
        live: 9,
        alerts_firing: 1,
    }));
    r.event(&Event::MonitorAlert {
        time: 30.0,
        rule: "backlog_growth",
        state: "firing",
        value: 3.0,
        threshold: 3.0,
    });
    let ingest = r.event_caused(
        &Event::ServiceIngest {
            time: 11.5,
            request: 41,
            lineage: 41,
            class: "gr",
        },
        &[],
    );
    r.event(&Event::ServiceDefer {
        time: 11.75,
        window: 3,
        queue_depth: 4,
        writer_free: 12.0,
        cause: "writer_busy",
    });
    let batch = r.event_caused(
        &Event::ServiceBatch {
            time: 12.0,
            window: 4,
            size: 5,
            admitted: 3,
            rejected: 1,
            shed: 1,
            queue_depth: 2,
            solves: 1,
        },
        &[ingest],
    );
    r.event_caused(
        &Event::ServiceDecision {
            time: 12.0,
            request: 41,
            lineage: 41,
            class: "gr",
            outcome: "admitted",
            wait: 0.5,
            rate: 1.5,
            cause: None,
        },
        &[ingest, batch],
    );
    r.event_caused(
        &Event::ServiceDecision {
            time: 12.0,
            request: 40,
            lineage: 40,
            class: "be",
            outcome: "shed",
            wait: 1.5,
            rate: 0.0,
            cause: Some("queue_overflow"),
        },
        &[batch],
    );
    r.event(&Event::ServiceProbe {
        time: 12.5,
        request: 42,
        lineage: 42,
        feasible: false,
        rate: 0.0,
    });
    r
}

#[test]
fn the_table_reproduces_the_golden_trace_byte_for_byte() {
    let golden = include_str!("fixtures/events_golden.jsonl");
    assert_eq!(golden_events().render_trace(), golden);
}

#[test]
fn every_schema_row_matches_what_its_kind_emits() {
    let samples = golden_events().stamped_events();
    for (i, (kind, keys)) in SCHEMAS.iter().enumerate() {
        assert!(
            SCHEMAS[..i].iter().all(|(k, _)| k != kind),
            "{kind} listed twice"
        );
        let of_kind: Vec<_> = samples.iter().filter(|s| s.event.kind() == *kind).collect();
        assert!(!of_kind.is_empty(), "no golden sample of kind {kind}");
        for sample in of_kind {
            let json = sample.event.to_json();
            let Json::Obj(pairs) = &json else {
                panic!("{kind} is not an object");
            };
            // "type" first, then exactly the generated keys, in
            // declaration order.
            let emitted: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(emitted[0], "type");
            assert_eq!(&emitted[1..], *keys, "{kind}");
            assert_eq!(parse(&json.render()).as_ref(), Ok(&json), "{kind}");
            assert_eq!(validate_line(&sample.to_json().render()), Ok(*kind));
        }
    }
}
