//! The structured event model: **one declarative table**.
//!
//! The `events!` table at the bottom of this module is the event
//! reference. Each entry names a variant, its `"type"` tag and its
//! documented fields once; the macro generates [`Event`] itself,
//! [`Event::kind`], [`Event::to_json`], the schema rows
//! ([`SCHEMAS`], what [`crate::schema::validate_line`] checks) and
//! [`WALL_CLOCK_KEYS`] from it. Adding or removing a key is a one-line
//! edit there. A field's wire key is its name unless the entry says
//! `name as "key"`; a type reaches the wire through its `Field`
//! conversion.
//!
//! Events are the **deterministic** part of a telemetry stream: for a
//! fixed seed and input they must be byte-identical across runs *and
//! across worker-thread counts* (the differential suite in
//! `tests/parallel_equivalence.rs` enforces this for the placement
//! engine). Anything wall-clock-dependent — span durations, per-thread
//! tree-fill times — therefore never appears as an event; it flows
//! through [`crate::Recorder::timing`] into histograms instead, and
//! surfaces only in the [`crate::MetricsSnapshot`]. The one exception,
//! the opt-in span events, marks its wall-clock fields `[wall_clock]`.
//!
//! Events use plain integer ids (`u32` CT/NCP indices) rather than the
//! model crate's typed ids so this crate stays dependency-free and the
//! JSONL schema is self-describing.

use crate::json::Json;

/// How one field type appears on the wire.
trait Field {
    fn to_json(&self) -> Json;
}

macro_rules! field_json {
    ($($ty:ty => |$v:ident| $json:expr;)*) => {$(
        impl Field for $ty {
            fn to_json(&self) -> Json {
                let $v = self;
                $json
            }
        }
    )*};
}

field_json! {
    f64 => |v| Json::num(*v);
    u64 => |v| Json::Num(*v as f64);
    u32 => |v| Json::Num(f64::from(*v));
    bool => |v| Json::Bool(*v);
    String => |v| Json::Str(v.clone());
    &'static str => |v| Json::Str((*v).to_owned());
    CtTieBreak => |v| match v {
        CtTieBreak::UniqueMin => "unique-min",
        CtTieBreak::LowerCtId => "ct-id",
    }
    .to_json();
    HostTieBreak => |v| match v {
        HostTieBreak::UniqueMax => "unique-max",
        HostTieBreak::LowerNcpId => "ncp-id",
    }
    .to_json();
}

impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }
}

/// Why the ranking chose one CT over the rest of the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtTieBreak {
    /// The chosen CT's best γ was strictly the smallest.
    UniqueMin,
    /// At least one other CT tied on best γ; the lowest CT id won.
    LowerCtId,
}

/// Why a candidate's best host won over the other hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTieBreak {
    /// The host's γ was strictly the largest.
    UniqueMax,
    /// At least one other host tied on γ; the lowest NCP id won.
    LowerNcpId,
}

/// A field's wire key: its name, or the `as "key"` rename. The
/// `[wall_clock]` marker (never combined with a rename) also lands here.
macro_rules! wire_key {
    ($field:ident $(wall_clock)?) => {
        stringify!($field)
    };
    ($field:ident $wire:literal) => {
        $wire
    };
}

/// Binds a tuple variant's payload inside a `$(..)?` group, which must
/// mention the payload type to repeat with it.
macro_rules! bind {
    ($name:ident: $payload:ty) => {
        $name
    };
}

/// A payload struct whose fields go on the wire under their own names,
/// in declaration order: the struct, its key list and its field values.
macro_rules! record {
    ($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident: $fty:ty,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $fty,)*
        }

        impl $name {
            #[allow(dead_code)] // a record nested in another heads no schema row
            const KEYS: &'static [&'static str] = &[$(stringify!($field)),*];

            fn fields(&self) -> impl IntoIterator<Item = (&'static str, Json)> {
                [$((stringify!($field), self.$field.to_json())),*]
            }
        }

        impl Field for $name {
            fn to_json(&self) -> Json {
                Json::obj(self.fields())
            }
        }
    };
}

/// The event table: `Variant = "type tag"` followed by either a
/// `(Payload)` record or `{ documented fields }`.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal
        $(($payload:ty))?
        $({$(
            $(#[$fmeta:meta])*
            $field:ident $(as $wire:literal)?: $fty:ty $([$wall:ident])?,
        )*})?
    )*) => {
        /// A structured telemetry event. See the module docs for the
        /// determinism contract.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {$(
            $(#[$vmeta])*
            $variant $(($payload))? $({$($(#[$fmeta])* $field: $fty,)*})?,
        )*}

        impl Event {
            /// The `type` tag the JSONL line carries.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// Converts the event to its JSON representation (one trace
            /// line): `"type"`, then the fields in table order.
            pub fn to_json(&self) -> Json {
                let mut out = vec![("type", self.kind().to_json())];
                match self {$(
                    Event::$variant $((bind!(payload: $payload)))? $({$($field,)*})? => {
                        $(out.extend(<$payload>::fields(payload));)?
                        $(out.extend([$((wire_key!($field $($wire)?), $field.to_json())),*]);)?
                    }
                )*}
                Json::obj(out)
            }
        }

        /// Required keys per event `type`, in wire order — generated
        /// from the table, so it cannot drift from [`Event::to_json`].
        pub const SCHEMAS: &[(&str, &[&str])] = &[$((
            $kind,
            $(<$payload>::KEYS)?
            $(&[$(wire_key!($field $($wire)?)),*])?
        ),)*];

        /// Keys of the fields the table marks `[wall_clock]`: excluded
        /// from the byte-identical determinism contract, stripped by
        /// `sparcle-trace diff`.
        pub const WALL_CLOCK_KEYS: &[&str] = &[$($($($(wire_key!($field $wall),)?)*)?)*];
    };
}

record! {
    /// One unplaced CT's best option in a ranking round.
    Candidate {
        /// The candidate CT (index into the task graph).
        ct: u32,
        /// Its best host (`argmax_j γ`).
        host: u32,
        /// The γ value that host achieves.
        gamma: f64,
        /// How the host choice was resolved.
        host_tie: HostTieBreak,
    }
}

record! {
    /// One full Algorithm-2 ranking round: the candidate set and the commit
    /// choice it produced.
    PlacementDecision {
        /// Zero-based ranking-round number within one assignment.
        round: u64,
        /// The chosen CT (`argmin_i γ_{i,j*_i}`).
        ct: u32,
        /// The chosen host.
        host: u32,
        /// The chosen γ.
        gamma: f64,
        /// How the CT choice was resolved.
        tie_break: CtTieBreak,
        /// Tree-store hits this round: reach-set entries whose widest-path
        /// tree was already stored (or shared within the round).
        cache_hits: u64,
        /// Widest-path trees computed this round.
        cache_misses: u64,
        /// Per unplaced CT, its best host and γ (the paper's `j*_i`,
        /// `γ_{i,j*_i}`), in CT-id order.
        candidates: Vec<Candidate>,
    }
}

record! {
    /// One committed placement and the cache damage it caused.
    CommitRecord {
        /// The committed CT.
        ct: u32,
        /// Its host.
        host: u32,
        /// Stored widest-path trees dropped because a routed link is in
        /// their witness set (the one invalidation rule).
        invalidated_witness: u64,
        /// Transport tasks routed by this commit.
        routed_tts: u64,
        /// Total link hops across those routes.
        routed_hops: u64,
    }
}

record! {
    /// One monitor tick's windowed aggregates, each derived from the
    /// deterministic sim-time windows in [`crate::window`] (so snapshot
    /// streams are byte-identical across evaluator thread counts). The
    /// runtime's `MonitorSample` holds this payload as-is.
    MonitorSnapshot {
        /// Simulated time of the monitor tick.
        time: f64,
        /// Window span in simulated seconds.
        window: f64,
        /// GR violation-seconds burn rate: windowed violation-seconds
        /// divided by the window's SLO budget (1.0 = burning exactly
        /// the budget).
        gr_burn: f64,
        /// Windowed GR violation-seconds (the burn numerator).
        gr_violation_s: f64,
        /// Aggregate BE delivered rate at the tick.
        be_rate: f64,
        /// Windowed application arrivals per simulated second.
        arrival_rate: f64,
        /// Windowed admissions per simulated second.
        admit_rate: f64,
        /// Windowed warm-start Newton iterations per BE solve (0 when
        /// the window saw no solves).
        warm_iters_per_solve: f64,
        /// BE solves in the window.
        solves: u64,
        /// DES future-event-list depth at the tick.
        queue_depth: u64,
        /// p95 of the windowed queue-depth samples.
        queue_p95: u64,
        /// Applications awaiting re-placement (reconcile backlog).
        backlog: u64,
        /// Applications currently placed and running.
        live: u64,
        /// Alert rules in the firing state after this tick.
        alerts_firing: u64,
    }
}

events! {
    /// A run (one experiment binary, one assignment batch, …) started.
    RunStart = "run_start" {
        /// Experiment or component name.
        name: String,
    }
    /// One Algorithm-2 ranking round completed.
    Decision = "decision" (PlacementDecision)
    /// One CT was committed.
    Commit = "commit" (CommitRecord)
    /// Sampled DES queue depth (every N processed events).
    SimQueueDepth = "sim_queue_depth" {
        /// Simulated time of the sample.
        time: f64,
        /// Pending events in the future-event list.
        depth: u64,
        /// Events processed so far.
        processed: u64,
    }
    /// One bucket of an application's delivery-rate timeline.
    SimAppRate = "sim_app_rate" {
        /// Bucket end time (simulated seconds).
        time: f64,
        /// Application index.
        app: u32,
        /// Delivered units per second within the bucket.
        rate: f64,
    }
    /// A network element changed failure state between epochs.
    SimElementState = "sim_element_state" {
        /// Epoch index.
        epoch: u64,
        /// Element label (`"ncp:3"`, `"link:7"`).
        element: String,
        /// `true` when the element recovered, `false` when it failed.
        up: bool,
    }
    /// The online runtime processed an application arrival.
    RuntimeArrival = "runtime_arrival" {
        /// Simulated time of the arrival.
        time: f64,
        /// Application index (arrival sequence number).
        app: u32,
        /// Provenance lineage minted at submission (the arrival index).
        /// Every later lifecycle event for this app carries the same
        /// value, so one key selects a full causal timeline.
        lineage: u64,
        /// QoE class label (`"gr"` or `"be"`).
        class: &'static str,
        /// Whether admission control accepted the application.
        admitted: bool,
        /// Admitted rate (guaranteed for GR, allocated for BE; `0` when
        /// rejected).
        rate: f64,
        /// Cause code for the binding constraint when rejected
        /// (`RejectCause::code()`), `None` when admitted.
        cause: Option<&'static str>,
    }
    /// The online runtime processed an application departure.
    RuntimeDeparture = "runtime_departure" {
        /// Simulated time of the departure.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
    }
    /// A running application lost its placement to an element failure.
    ///
    /// Per-app companion to the aggregate [`Event::RuntimeElementState`]
    /// `displaced` count: its `causes` link back to the app's previous
    /// lifecycle event and to the element transition that evicted it.
    RuntimeDisplace = "runtime_displace" {
        /// Simulated time of the displacement.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// The failed element (`"ncp:3"`, `"link:7"`) — the binding
        /// constraint at decision time.
        element: String,
        /// Cause code (`DisplaceCause::code()`).
        cause: &'static str,
    }
    /// A reconcile pass resolved one displaced application.
    RuntimeReadmit = "runtime_readmit" {
        /// Simulated time of the reconcile pass.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// `"restored"` (original placement reinstated), `"replaced"`
        /// (fresh placement found), or `"failed"` (left pending).
        outcome: &'static str,
        /// Rate after readmission (0 when failed).
        rate: f64,
        /// Cause code for the binding constraint when the readmission
        /// failed, `None` on success.
        cause: Option<&'static str>,
    }
    /// A background defragmentation pass moved (or tried to move) a
    /// placed application to a fresh placement through the transactional
    /// migrate primitive — a planned move, not a failure reaction.
    RuntimeMigrate = "runtime_migrate" {
        /// Simulated time of the migration.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// `"migrated"` (the move committed) or `"kept"` (the probe
        /// found no admissible placement and the txn rolled back).
        outcome: &'static str,
        /// Rate before the move.
        old_rate: f64,
        /// Rate after the move (equals `old_rate` when kept).
        new_rate: f64,
        /// Cause code (`MigrationCause::code()`).
        cause: &'static str,
    }
    /// A rollback-only what-if probe run while ordering a reconcile
    /// batch (the `GammaProbe` policy): the counterfactual rate the app
    /// would get if readmitted right now, with no state mutated.
    RuntimeProbe = "runtime_probe" {
        /// Simulated time of the probe.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// Whether the probe found a feasible placement.
        feasible: bool,
        /// The counterfactual rate (0 when infeasible).
        rate: f64,
    }
    /// A network element failed or recovered under the online runtime.
    RuntimeElementState = "runtime_element_state" {
        /// Simulated time of the transition.
        time: f64,
        /// Element label (`"ncp:3"`, `"link:7"`).
        element: String,
        /// `true` on recovery, `false` on failure.
        up: bool,
        /// Running applications displaced by the transition.
        displaced: u64,
    }
    /// Background capacities fluctuated under the online runtime.
    RuntimeFluctuation = "runtime_fluctuation" {
        /// Simulated time of the capacity step.
        time: f64,
        /// GR reservations violated by the new capacities.
        violated: u64,
    }
    /// The runtime's reconcile pass re-placed displaced applications.
    RuntimeReconcile = "runtime_reconcile" {
        /// Simulated time the reconcile pass ran.
        time: f64,
        /// Reconcile-policy label (`"fifo"`, `"priority"`, `"gamma"`).
        policy: &'static str,
        /// Applications reinstated on their original placement.
        restored: u64,
        /// Applications re-placed onto a new placement.
        replaced: u64,
        /// Applications that could not be re-placed (left pending).
        failed: u64,
        /// Simulated seconds between the disruption and this pass.
        latency: f64,
    }
    /// The admission service closed one micro-batch window: every
    /// request coalesced into it was decided through one batch
    /// transaction (one joint BE solve).
    ServiceBatch = "service_batch" {
        /// Simulated time the batch committed.
        time: f64,
        /// Monotone window sequence number.
        window: u64,
        /// Requests decided in this batch.
        size: u64,
        /// Requests admitted.
        admitted: u64,
        /// Requests rejected by admission control (infeasible).
        rejected: u64,
        /// Requests shed by the backpressure policy before placement.
        shed: u64,
        /// Requests still queued for a later window when this one
        /// closed.
        queue_depth: u64,
        /// BE solves the batch cost (1 when anything was admitted, 0
        /// for an all-reject batch; more only on the sequential-replay
        /// fallback).
        solves: u64,
    }
    /// One admission decision the service returned to a client.
    ServiceDecision = "service_decision" {
        /// Simulated time the decision was returned (its batch's
        /// commit time).
        time: f64,
        /// Request sequence number (arrival order).
        request: u64,
        /// Provenance lineage minted at ingest (the request sequence
        /// number).
        lineage: u64,
        /// `"gr"` or `"be"`.
        class: &'static str,
        /// `"admitted"`, `"rejected"`, or `"shed"`.
        outcome: &'static str,
        /// Simulated seconds between arrival and decision.
        wait: f64,
        /// Allocated (BE) or guaranteed (GR) rate; 0 when not admitted.
        rate: f64,
        /// Cause code for the binding constraint when rejected or shed
        /// (`RejectCause::code()` / `ShedCause::code()`), `None` when
        /// admitted.
        cause: Option<&'static str>,
    }
    /// A request entered the admission service's micro-batch queue.
    ///
    /// This is where the lineage is minted: every later `service_*`
    /// event for the request links back (through `causes`) to this one.
    ServiceIngest = "service_ingest" {
        /// Simulated time the request arrived.
        time: f64,
        /// Request sequence number (arrival order).
        request: u64,
        /// Provenance lineage (the request sequence number).
        lineage: u64,
        /// `"gr"` or `"be"`.
        class: &'static str,
    }
    /// The service deferred an entire micro-batch window because the
    /// writer was still busy committing the previous batch.
    ServiceDefer = "service_defer" {
        /// Simulated time the window would have closed.
        time: f64,
        /// The deferred window's sequence number.
        window: u64,
        /// Requests queued (and therefore deferred) at that moment.
        queue_depth: u64,
        /// Simulated time the writer becomes free again.
        writer_free: f64,
        /// Cause code (`"writer_busy"`).
        cause: &'static str,
    }
    /// A read-only what-if probe answered from the service's immutable
    /// state snapshot (never blocks on, or observes, the writer).
    ServiceProbe = "service_probe" {
        /// Simulated time the probe was answered.
        time: f64,
        /// Probe sequence number.
        request: u64,
        /// Provenance lineage (the request sequence number).
        lineage: u64,
        /// Whether a positive-rate placement exists under the
        /// snapshot's predicted capacities.
        feasible: bool,
        /// The standalone rate the probed placement would achieve (0
        /// when infeasible).
        rate: f64,
    }
    /// One window snapshot from the runtime's observability monitor,
    /// emitted on each monitor tick.
    MonitorSnapshot = "monitor_snapshot" (MonitorSnapshot)
    /// A monitor alert rule changed state (edge-triggered: one event
    /// when a rule starts firing, one when it clears).
    MonitorAlert = "monitor_alert" {
        /// Simulated time of the transition.
        time: f64,
        /// Rule label (`"gr_burn_rate"`, `"solver_iteration_blowup"`,
        /// `"backlog_growth"`).
        rule: &'static str,
        /// `"firing"` or `"cleared"`.
        state: &'static str,
        /// The observed value that crossed (or re-crossed) the
        /// threshold.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    }
    /// A hierarchical timed span opened (see [`crate::span`]).
    ///
    /// `t_ns` is wall-clock (monotonic, relative to the
    /// [`crate::SpanTracker`] epoch) — span events are therefore opt-in
    /// and excluded from the byte-identical determinism contract; trace
    /// diffing strips the wall-clock keys.
    SpanOpen = "span_open" {
        /// Span id, unique within one tracker's trace. On the wire as
        /// `"span"`: `"id"` is the provenance event id every stamped
        /// line carries (DESIGN.md §14).
        id as "span": u64,
        /// Id of the enclosing open span, if any.
        parent: Option<u64>,
        /// Span name (`"engine.rank_round"`, `"sim.flow"`, …). Static
        /// so span emission on hot paths never allocates (the ≤5 %
        /// overhead budget in `bench/tests/span_overhead.rs`).
        name: &'static str,
        /// Nanoseconds since the tracker's epoch at open.
        t_ns: u64 [wall_clock],
    }
    /// A hierarchical timed span closed.
    SpanClose = "span_close" {
        /// Span id matching the corresponding [`Event::SpanOpen`].
        id as "span": u64,
        /// Span name (repeated so a close line is self-describing).
        name: &'static str,
        /// Wall-clock nanoseconds the span was open.
        dur_ns: u64 [wall_clock],
        /// `true` when the span was dropped without `finish()` (early
        /// return or panic unwind).
        aborted: bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_serializes_with_required_keys() {
        let e = Event::Decision(PlacementDecision {
            round: 2,
            candidates: vec![Candidate {
                ct: 1,
                host: 3,
                gamma: 4.5,
                host_tie: HostTieBreak::UniqueMax,
            }],
            ct: 1,
            host: 3,
            gamma: 4.5,
            tie_break: CtTieBreak::UniqueMin,
            cache_hits: 1,
            cache_misses: 2,
        });
        let json = e.to_json();
        assert_eq!(json.get("type").unwrap().as_str(), Some("decision"));
        for key in ["round", "ct", "host", "gamma", "tie_break", "candidates"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let line = json.render();
        assert_eq!(crate::json::parse(&line).unwrap(), json);
    }

    #[test]
    fn runtime_events_round_trip() {
        let events = [
            Event::RuntimeArrival {
                time: 1.5,
                app: 4,
                lineage: 4,
                class: "gr",
                admitted: true,
                rate: 2.25,
                cause: None,
            },
            Event::RuntimeArrival {
                time: 1.75,
                app: 5,
                lineage: 5,
                class: "be",
                admitted: false,
                rate: 0.0,
                cause: Some("availability_unreachable"),
            },
            Event::RuntimeDeparture {
                time: 2.0,
                app: 4,
                lineage: 4,
            },
            Event::RuntimeDisplace {
                time: 2.5,
                app: 4,
                lineage: 4,
                element: "ncp:1".into(),
                cause: "element_failure",
            },
            Event::RuntimeReadmit {
                time: 2.75,
                app: 4,
                lineage: 4,
                outcome: "replaced",
                rate: 1.5,
                cause: None,
            },
            Event::RuntimeMigrate {
                time: 2.8,
                app: 4,
                lineage: 4,
                outcome: "migrated",
                old_rate: 1.5,
                new_rate: 2.0,
                cause: "defrag_net_gain",
            },
            Event::RuntimeProbe {
                time: 2.6,
                app: 4,
                lineage: 4,
                feasible: true,
                rate: 1.5,
            },
            Event::RuntimeElementState {
                time: 3.0,
                element: "ncp:1".into(),
                up: false,
                displaced: 2,
            },
            Event::RuntimeFluctuation {
                time: 4.0,
                violated: 1,
            },
            Event::RuntimeReconcile {
                time: 5.0,
                policy: "gamma",
                restored: 1,
                replaced: 1,
                failed: 0,
                latency: 0.5,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert_eq!(json.get("type").unwrap().as_str(), Some(e.kind()));
            assert!(e.kind().starts_with("runtime_"), "{}", e.kind());
            let line = json.render();
            assert_eq!(crate::json::parse(&line).unwrap(), json);
        }
        // A rejected arrival carries its cause code; an admitted one
        // serializes the missing cause as JSON null.
        let admitted = Event::RuntimeArrival {
            time: 0.0,
            app: 0,
            lineage: 0,
            class: "be",
            admitted: true,
            rate: 1.0,
            cause: None,
        };
        assert_eq!(admitted.to_json().get("cause"), Some(&Json::Null));
    }

    #[test]
    fn monitor_events_round_trip() {
        let events = [
            Event::MonitorSnapshot(MonitorSnapshot {
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
            }),
            Event::MonitorAlert {
                time: 30.0,
                rule: "backlog_growth",
                state: "cleared",
                value: 0.0,
                threshold: 3.0,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert_eq!(json.get("type").unwrap().as_str(), Some(e.kind()));
            assert!(e.kind().starts_with("monitor_"), "{}", e.kind());
            let line = json.render();
            assert_eq!(crate::json::parse(&line).unwrap(), json);
        }
    }

    #[test]
    fn service_events_round_trip() {
        let events = [
            Event::ServiceBatch {
                time: 12.0,
                window: 3,
                size: 5,
                admitted: 3,
                rejected: 1,
                shed: 1,
                queue_depth: 2,
                solves: 1,
            },
            Event::ServiceDecision {
                time: 12.0,
                request: 41,
                lineage: 41,
                class: "gr",
                outcome: "shed",
                wait: 1.5,
                rate: 0.0,
                cause: Some("queue_overflow"),
            },
            Event::ServiceIngest {
                time: 11.5,
                request: 41,
                lineage: 41,
                class: "gr",
            },
            Event::ServiceDefer {
                time: 11.75,
                window: 3,
                queue_depth: 4,
                writer_free: 12.0,
                cause: "writer_busy",
            },
            Event::ServiceProbe {
                time: 12.5,
                request: 42,
                lineage: 42,
                feasible: true,
                rate: 3.25,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert_eq!(json.get("type").unwrap().as_str(), Some(e.kind()));
            assert!(e.kind().starts_with("service_"), "{}", e.kind());
            let line = json.render();
            assert_eq!(crate::json::parse(&line).unwrap(), json);
        }
    }

    #[test]
    fn span_events_round_trip() {
        let events = [
            Event::SpanOpen {
                id: 0,
                parent: None,
                name: "engine.assign",
                t_ns: 125,
            },
            Event::SpanOpen {
                id: 1,
                parent: Some(0),
                name: "engine.rank_round",
                t_ns: 250,
            },
            Event::SpanClose {
                id: 1,
                name: "engine.rank_round",
                dur_ns: 1000,
                aborted: false,
            },
            Event::SpanClose {
                id: 0,
                name: "engine.assign",
                dur_ns: 2000,
                aborted: true,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert_eq!(json.get("type").unwrap().as_str(), Some(e.kind()));
            let line = json.render();
            assert_eq!(crate::json::parse(&line).unwrap(), json);
        }
        // A root span serializes its missing parent as JSON null, and
        // the span id lives under "span" — "id" is reserved for the
        // provenance event id stamped by the recorder.
        let root = Event::SpanOpen {
            id: 7,
            parent: None,
            name: "x",
            t_ns: 0,
        };
        assert_eq!(root.to_json().get("parent"), Some(&Json::Null));
        assert_eq!(root.to_json().get("span"), Some(&Json::Num(7.0)));
        assert_eq!(root.to_json().get("id"), None);
        // The two `[wall_clock]` fields are what trace diffing strips.
        assert_eq!(WALL_CLOCK_KEYS, ["t_ns", "dur_ns"]);
    }

    #[test]
    fn kinds_are_stable() {
        let e = Event::RunStart {
            name: "x".to_owned(),
        };
        assert_eq!(e.kind(), "run_start");
        assert_eq!(e.to_json().get("type").unwrap().as_str(), Some("run_start"));
    }
}
