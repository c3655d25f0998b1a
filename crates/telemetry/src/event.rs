//! The structured event model.
//!
//! Events are the **deterministic** part of a telemetry stream: for a
//! fixed seed and input they must be byte-identical across runs *and
//! across worker-thread counts* (the differential suite in
//! `tests/parallel_equivalence.rs` enforces this for the placement
//! engine). Anything wall-clock-dependent — span durations, per-thread
//! row-fill times — therefore never appears as an event; it flows
//! through [`crate::Recorder::timing`] into histograms instead, and
//! surfaces only in the [`crate::MetricsSnapshot`].
//!
//! Events use plain integer ids (`u32` CT/NCP indices) rather than the
//! model crate's typed ids so this crate stays dependency-free and the
//! JSONL schema is self-describing.

use crate::json::Json;

/// Why the ranking chose one CT over the rest of the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtTieBreak {
    /// The chosen CT's best γ was strictly the smallest.
    UniqueMin,
    /// At least one other CT tied on best γ; the lowest CT id won.
    LowerCtId,
}

impl CtTieBreak {
    fn as_str(self) -> &'static str {
        match self {
            CtTieBreak::UniqueMin => "unique-min",
            CtTieBreak::LowerCtId => "ct-id",
        }
    }
}

/// Why a candidate's best host won over the other hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTieBreak {
    /// The host's γ was strictly the largest.
    UniqueMax,
    /// At least one other host tied on γ; the lowest NCP id won.
    LowerNcpId,
}

impl HostTieBreak {
    fn as_str(self) -> &'static str {
        match self {
            HostTieBreak::UniqueMax => "unique-max",
            HostTieBreak::LowerNcpId => "ncp-id",
        }
    }
}

/// One unplaced CT's best option in a ranking round.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate CT (index into the task graph).
    pub ct: u32,
    /// Its best host (`argmax_j γ`).
    pub host: u32,
    /// The γ value that host achieves.
    pub gamma: f64,
    /// How the host choice was resolved.
    pub host_tie: HostTieBreak,
}

/// One full Algorithm-2 ranking round: the candidate set and the commit
/// choice it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// Zero-based ranking-round number within one assignment.
    pub round: u64,
    /// Per unplaced CT, its best host and γ (the paper's `j*_i`,
    /// `γ_{i,j*_i}`), in CT-id order.
    pub candidates: Vec<Candidate>,
    /// The chosen CT (`argmin_i γ_{i,j*_i}`).
    pub ct: u32,
    /// The chosen host.
    pub host: u32,
    /// The chosen γ.
    pub gamma: f64,
    /// How the CT choice was resolved.
    pub tie_break: CtTieBreak,
    /// Tree-store hits this round: reach-set entries whose widest-path
    /// tree was already stored (or shared within the round).
    pub cache_hits: u64,
    /// Widest-path trees computed this round.
    pub cache_misses: u64,
}

/// One committed placement and the cache damage it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// The committed CT.
    pub ct: u32,
    /// Its host.
    pub host: u32,
    /// Stored widest-path trees dropped because a routed link is in
    /// their witness set (the one invalidation rule).
    pub invalidated_witness: u64,
    /// Transport tasks routed by this commit.
    pub routed_tts: u64,
    /// Total link hops across those routes.
    pub routed_hops: u64,
}

/// A structured telemetry event. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run (one experiment binary, one assignment batch, …) started.
    RunStart {
        /// Experiment or component name.
        name: String,
    },
    /// One Algorithm-2 ranking round completed.
    Decision(PlacementDecision),
    /// One CT was committed.
    Commit(CommitRecord),
    /// Sampled DES queue depth (every N processed events).
    SimQueueDepth {
        /// Simulated time of the sample.
        time: f64,
        /// Pending events in the future-event list.
        depth: u64,
        /// Events processed so far.
        processed: u64,
    },
    /// One bucket of an application's delivery-rate timeline.
    SimAppRate {
        /// Bucket end time (simulated seconds).
        time: f64,
        /// Application index.
        app: u32,
        /// Delivered units per second within the bucket.
        rate: f64,
    },
    /// A network element changed failure state between epochs.
    SimElementState {
        /// Epoch index.
        epoch: u64,
        /// Element label (`"ncp:3"`, `"link:7"`).
        element: String,
        /// `true` when the element recovered, `false` when it failed.
        up: bool,
    },
    /// The online runtime processed an application arrival.
    RuntimeArrival {
        /// Simulated time of the arrival.
        time: f64,
        /// Application index (arrival sequence number).
        app: u32,
        /// Provenance lineage minted at submission (the arrival index).
        /// Every later lifecycle event for this app carries the same
        /// value, so one key selects a full causal timeline.
        lineage: u64,
        /// QoE class label (`"gr"` or `"be"`).
        class: String,
        /// Whether admission control accepted the application.
        admitted: bool,
        /// Admitted rate (guaranteed for GR, allocated for BE; `0` when
        /// rejected).
        rate: f64,
        /// Cause code for the binding constraint when rejected
        /// (`RejectCause::code()`), `None` when admitted.
        cause: Option<String>,
    },
    /// The online runtime processed an application departure.
    RuntimeDeparture {
        /// Simulated time of the departure.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
    },
    /// A running application lost its placement to an element failure.
    ///
    /// Per-app companion to the aggregate [`Event::RuntimeElementState`]
    /// `displaced` count: its `causes` link back to the app's previous
    /// lifecycle event and to the element transition that evicted it.
    RuntimeDisplace {
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
        cause: String,
    },
    /// A reconcile pass resolved one displaced application.
    RuntimeReadmit {
        /// Simulated time of the reconcile pass.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// `"restored"` (original placement reinstated), `"replaced"`
        /// (fresh placement found), or `"failed"` (left pending).
        outcome: String,
        /// Rate after readmission (0 when failed).
        rate: f64,
        /// Cause code for the binding constraint when the readmission
        /// failed, `None` on success.
        cause: Option<String>,
    },
    /// A background defragmentation pass moved (or tried to move) a
    /// placed application to a fresh placement through the transactional
    /// migrate primitive — a planned move, not a failure reaction.
    RuntimeMigrate {
        /// Simulated time of the migration.
        time: f64,
        /// Application index.
        app: u32,
        /// Provenance lineage (the arrival index).
        lineage: u64,
        /// `"migrated"` (the move committed) or `"kept"` (the probe
        /// found no admissible placement and the txn rolled back).
        outcome: String,
        /// Rate before the move.
        old_rate: f64,
        /// Rate after the move (equals `old_rate` when kept).
        new_rate: f64,
        /// Cause code (`MigrationCause::code()`).
        cause: String,
    },
    /// A rollback-only what-if probe run while ordering a reconcile
    /// batch (the `GammaProbe` policy): the counterfactual rate the app
    /// would get if readmitted right now, with no state mutated.
    RuntimeProbe {
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
    },
    /// A network element failed or recovered under the online runtime.
    RuntimeElementState {
        /// Simulated time of the transition.
        time: f64,
        /// Element label (`"ncp:3"`, `"link:7"`).
        element: String,
        /// `true` on recovery, `false` on failure.
        up: bool,
        /// Running applications displaced by the transition.
        displaced: u64,
    },
    /// Background capacities fluctuated under the online runtime.
    RuntimeFluctuation {
        /// Simulated time of the capacity step.
        time: f64,
        /// GR reservations violated by the new capacities.
        violated: u64,
    },
    /// A hierarchical timed span opened (see [`crate::span`]).
    ///
    /// `t_ns` is wall-clock (monotonic, relative to the
    /// [`crate::SpanTracker`] epoch) — span events are therefore opt-in
    /// and excluded from the byte-identical determinism contract; trace
    /// diffing strips the wall-clock keys.
    ///
    /// Serialized under the `"span"` key (not `"id"`): `"id"` is the
    /// provenance event id every stamped line carries (DESIGN.md §14).
    SpanOpen {
        /// Span id, unique within one tracker's trace.
        id: u64,
        /// Id of the enclosing open span, if any.
        parent: Option<u64>,
        /// Span name (`"engine.rank_round"`, `"sim.flow"`, …). Static
        /// so span emission on hot paths never allocates (the ≤5 %
        /// overhead budget in `bench/tests/span_overhead.rs`).
        name: &'static str,
        /// Nanoseconds since the tracker's epoch at open.
        t_ns: u64,
    },
    /// A hierarchical timed span closed.
    SpanClose {
        /// Span id matching the corresponding [`Event::SpanOpen`].
        id: u64,
        /// Span name (repeated so a close line is self-describing).
        name: &'static str,
        /// Wall-clock nanoseconds the span was open.
        dur_ns: u64,
        /// `true` when the span was dropped without `finish()` (early
        /// return or panic unwind).
        aborted: bool,
    },
    /// One window snapshot from the runtime's observability monitor.
    ///
    /// Emitted on each monitor tick; every field is derived from the
    /// deterministic sim-time windows in [`crate::window`], so snapshot
    /// streams are byte-identical across evaluator thread counts.
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
    },
    /// A monitor alert rule changed state (edge-triggered: one event
    /// when a rule starts firing, one when it clears).
    MonitorAlert {
        /// Simulated time of the transition.
        time: f64,
        /// Rule label (`"gr_burn_rate"`, `"solver_iteration_blowup"`,
        /// `"backlog_growth"`).
        rule: String,
        /// `"firing"` or `"cleared"`.
        state: String,
        /// The observed value that crossed (or re-crossed) the
        /// threshold.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    },
    /// The runtime's reconcile pass re-placed displaced applications.
    RuntimeReconcile {
        /// Simulated time the reconcile pass ran.
        time: f64,
        /// Reconcile-policy label (`"fifo"`, `"priority"`, `"gamma"`).
        policy: String,
        /// Applications reinstated on their original placement.
        restored: u64,
        /// Applications re-placed onto a new placement.
        replaced: u64,
        /// Applications that could not be re-placed (left pending).
        failed: u64,
        /// Simulated seconds between the disruption and this pass.
        latency: f64,
    },
    /// The admission service closed one micro-batch window: every
    /// request coalesced into it was decided through one batch
    /// transaction (one joint BE solve).
    ServiceBatch {
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
    },
    /// One admission decision the service returned to a client.
    ServiceDecision {
        /// Simulated time the decision was returned (its batch's
        /// commit time).
        time: f64,
        /// Request sequence number (arrival order).
        request: u64,
        /// Provenance lineage minted at ingest (the request sequence
        /// number).
        lineage: u64,
        /// `"gr"` or `"be"`.
        class: String,
        /// `"admitted"`, `"rejected"`, or `"shed"`.
        outcome: String,
        /// Simulated seconds between arrival and decision.
        wait: f64,
        /// Allocated (BE) or guaranteed (GR) rate; 0 when not admitted.
        rate: f64,
        /// Cause code for the binding constraint when rejected or shed
        /// (`RejectCause::code()` / `ShedCause::code()`), `None` when
        /// admitted.
        cause: Option<String>,
    },
    /// A request entered the admission service's micro-batch queue.
    ///
    /// This is where the lineage is minted: every later `service_*`
    /// event for the request links back (through `causes`) to this one.
    ServiceIngest {
        /// Simulated time the request arrived.
        time: f64,
        /// Request sequence number (arrival order).
        request: u64,
        /// Provenance lineage (the request sequence number).
        lineage: u64,
        /// `"gr"` or `"be"`.
        class: String,
    },
    /// The service deferred an entire micro-batch window because the
    /// writer was still busy committing the previous batch.
    ServiceDefer {
        /// Simulated time the window would have closed.
        time: f64,
        /// The deferred window's sequence number.
        window: u64,
        /// Requests queued (and therefore deferred) at that moment.
        queue_depth: u64,
        /// Simulated time the writer becomes free again.
        writer_free: f64,
        /// Cause code (`"writer_busy"`).
        cause: String,
    },
    /// A read-only what-if probe answered from the service's immutable
    /// state snapshot (never blocks on, or observes, the writer).
    ServiceProbe {
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
    },
}

impl Event {
    /// The `type` tag the JSONL line carries.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::Decision(_) => "decision",
            Event::Commit(_) => "commit",
            Event::SimQueueDepth { .. } => "sim_queue_depth",
            Event::SimAppRate { .. } => "sim_app_rate",
            Event::SimElementState { .. } => "sim_element_state",
            Event::RuntimeArrival { .. } => "runtime_arrival",
            Event::RuntimeDeparture { .. } => "runtime_departure",
            Event::RuntimeDisplace { .. } => "runtime_displace",
            Event::RuntimeReadmit { .. } => "runtime_readmit",
            Event::RuntimeMigrate { .. } => "runtime_migrate",
            Event::RuntimeProbe { .. } => "runtime_probe",
            Event::RuntimeElementState { .. } => "runtime_element_state",
            Event::RuntimeFluctuation { .. } => "runtime_fluctuation",
            Event::RuntimeReconcile { .. } => "runtime_reconcile",
            Event::ServiceBatch { .. } => "service_batch",
            Event::ServiceDecision { .. } => "service_decision",
            Event::ServiceIngest { .. } => "service_ingest",
            Event::ServiceDefer { .. } => "service_defer",
            Event::ServiceProbe { .. } => "service_probe",
            Event::MonitorSnapshot { .. } => "monitor_snapshot",
            Event::MonitorAlert { .. } => "monitor_alert",
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
        }
    }

    /// Converts the event to its JSON representation (one trace line).
    pub fn to_json(&self) -> Json {
        match self {
            Event::RunStart { name } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("name", Json::Str(name.clone())),
            ]),
            Event::Decision(d) => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("round", Json::Num(d.round as f64)),
                ("ct", Json::Num(d.ct as f64)),
                ("host", Json::Num(d.host as f64)),
                ("gamma", Json::num(d.gamma)),
                ("tie_break", Json::Str(d.tie_break.as_str().to_owned())),
                ("cache_hits", Json::Num(d.cache_hits as f64)),
                ("cache_misses", Json::Num(d.cache_misses as f64)),
                (
                    "candidates",
                    Json::Arr(
                        d.candidates
                            .iter()
                            .map(|c| {
                                Json::obj([
                                    ("ct", Json::Num(c.ct as f64)),
                                    ("host", Json::Num(c.host as f64)),
                                    ("gamma", Json::num(c.gamma)),
                                    ("host_tie", Json::Str(c.host_tie.as_str().to_owned())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Event::Commit(c) => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("ct", Json::Num(c.ct as f64)),
                ("host", Json::Num(c.host as f64)),
                (
                    "invalidated_witness",
                    Json::Num(c.invalidated_witness as f64),
                ),
                ("routed_tts", Json::Num(c.routed_tts as f64)),
                ("routed_hops", Json::Num(c.routed_hops as f64)),
            ]),
            Event::SimQueueDepth {
                time,
                depth,
                processed,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("depth", Json::Num(*depth as f64)),
                ("processed", Json::Num(*processed as f64)),
            ]),
            Event::SimAppRate { time, app, rate } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("rate", Json::num(*rate)),
            ]),
            Event::SimElementState { epoch, element, up } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("epoch", Json::Num(*epoch as f64)),
                ("element", Json::Str(element.clone())),
                ("up", Json::Bool(*up)),
            ]),
            Event::RuntimeArrival {
                time,
                app,
                lineage,
                class,
                admitted,
                rate,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("class", Json::Str(class.clone())),
                ("admitted", Json::Bool(*admitted)),
                ("rate", Json::num(*rate)),
                (
                    "cause",
                    cause.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
                ),
            ]),
            Event::RuntimeDeparture { time, app, lineage } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
            ]),
            Event::RuntimeDisplace {
                time,
                app,
                lineage,
                element,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("element", Json::Str(element.clone())),
                ("cause", Json::Str(cause.clone())),
            ]),
            Event::RuntimeReadmit {
                time,
                app,
                lineage,
                outcome,
                rate,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("outcome", Json::Str(outcome.clone())),
                ("rate", Json::num(*rate)),
                (
                    "cause",
                    cause.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
                ),
            ]),
            Event::RuntimeMigrate {
                time,
                app,
                lineage,
                outcome,
                old_rate,
                new_rate,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("outcome", Json::Str(outcome.clone())),
                ("old_rate", Json::num(*old_rate)),
                ("new_rate", Json::num(*new_rate)),
                ("cause", Json::Str(cause.clone())),
            ]),
            Event::RuntimeProbe {
                time,
                app,
                lineage,
                feasible,
                rate,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("app", Json::Num(*app as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("feasible", Json::Bool(*feasible)),
                ("rate", Json::num(*rate)),
            ]),
            Event::RuntimeElementState {
                time,
                element,
                up,
                displaced,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("element", Json::Str(element.clone())),
                ("up", Json::Bool(*up)),
                ("displaced", Json::Num(*displaced as f64)),
            ]),
            Event::RuntimeFluctuation { time, violated } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("violated", Json::Num(*violated as f64)),
            ]),
            Event::MonitorSnapshot {
                time,
                window,
                gr_burn,
                gr_violation_s,
                be_rate,
                arrival_rate,
                admit_rate,
                warm_iters_per_solve,
                solves,
                queue_depth,
                queue_p95,
                backlog,
                live,
                alerts_firing,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("window", Json::num(*window)),
                ("gr_burn", Json::num(*gr_burn)),
                ("gr_violation_s", Json::num(*gr_violation_s)),
                ("be_rate", Json::num(*be_rate)),
                ("arrival_rate", Json::num(*arrival_rate)),
                ("admit_rate", Json::num(*admit_rate)),
                ("warm_iters_per_solve", Json::num(*warm_iters_per_solve)),
                ("solves", Json::Num(*solves as f64)),
                ("queue_depth", Json::Num(*queue_depth as f64)),
                ("queue_p95", Json::Num(*queue_p95 as f64)),
                ("backlog", Json::Num(*backlog as f64)),
                ("live", Json::Num(*live as f64)),
                ("alerts_firing", Json::Num(*alerts_firing as f64)),
            ]),
            Event::MonitorAlert {
                time,
                rule,
                state,
                value,
                threshold,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("rule", Json::Str(rule.clone())),
                ("state", Json::Str(state.clone())),
                ("value", Json::num(*value)),
                ("threshold", Json::num(*threshold)),
            ]),
            Event::RuntimeReconcile {
                time,
                policy,
                restored,
                replaced,
                failed,
                latency,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("policy", Json::Str(policy.clone())),
                ("restored", Json::Num(*restored as f64)),
                ("replaced", Json::Num(*replaced as f64)),
                ("failed", Json::Num(*failed as f64)),
                ("latency", Json::num(*latency)),
            ]),
            Event::ServiceBatch {
                time,
                window,
                size,
                admitted,
                rejected,
                shed,
                queue_depth,
                solves,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("window", Json::Num(*window as f64)),
                ("size", Json::Num(*size as f64)),
                ("admitted", Json::Num(*admitted as f64)),
                ("rejected", Json::Num(*rejected as f64)),
                ("shed", Json::Num(*shed as f64)),
                ("queue_depth", Json::Num(*queue_depth as f64)),
                ("solves", Json::Num(*solves as f64)),
            ]),
            Event::ServiceDecision {
                time,
                request,
                lineage,
                class,
                outcome,
                wait,
                rate,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("request", Json::Num(*request as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("class", Json::Str(class.clone())),
                ("outcome", Json::Str(outcome.clone())),
                ("wait", Json::num(*wait)),
                ("rate", Json::num(*rate)),
                (
                    "cause",
                    cause.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
                ),
            ]),
            Event::ServiceIngest {
                time,
                request,
                lineage,
                class,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("request", Json::Num(*request as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("class", Json::Str(class.clone())),
            ]),
            Event::ServiceDefer {
                time,
                window,
                queue_depth,
                writer_free,
                cause,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("window", Json::Num(*window as f64)),
                ("queue_depth", Json::Num(*queue_depth as f64)),
                ("writer_free", Json::num(*writer_free)),
                ("cause", Json::Str(cause.clone())),
            ]),
            Event::ServiceProbe {
                time,
                request,
                lineage,
                feasible,
                rate,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("time", Json::num(*time)),
                ("request", Json::Num(*request as f64)),
                ("lineage", Json::Num(*lineage as f64)),
                ("feasible", Json::Bool(*feasible)),
                ("rate", Json::num(*rate)),
            ]),
            Event::SpanOpen {
                id,
                parent,
                name,
                t_ns,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("span", Json::Num(*id as f64)),
                ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("name", Json::Str((*name).to_owned())),
                ("t_ns", Json::Num(*t_ns as f64)),
            ]),
            Event::SpanClose {
                id,
                name,
                dur_ns,
                aborted,
            } => Json::obj([
                ("type", Json::Str(self.kind().to_owned())),
                ("span", Json::Num(*id as f64)),
                ("name", Json::Str((*name).to_owned())),
                ("dur_ns", Json::Num(*dur_ns as f64)),
                ("aborted", Json::Bool(*aborted)),
            ]),
        }
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
                class: "gr".into(),
                admitted: true,
                rate: 2.25,
                cause: None,
            },
            Event::RuntimeArrival {
                time: 1.75,
                app: 5,
                lineage: 5,
                class: "be".into(),
                admitted: false,
                rate: 0.0,
                cause: Some("availability_unreachable".into()),
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
                cause: "element_failure".into(),
            },
            Event::RuntimeReadmit {
                time: 2.75,
                app: 4,
                lineage: 4,
                outcome: "replaced".into(),
                rate: 1.5,
                cause: None,
            },
            Event::RuntimeMigrate {
                time: 2.8,
                app: 4,
                lineage: 4,
                outcome: "migrated".into(),
                old_rate: 1.5,
                new_rate: 2.0,
                cause: "defrag_net_gain".into(),
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
                policy: "gamma".into(),
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
            class: "be".into(),
            admitted: true,
            rate: 1.0,
            cause: None,
        };
        assert_eq!(admitted.to_json().get("cause"), Some(&Json::Null));
    }

    #[test]
    fn monitor_events_round_trip() {
        let events = [
            Event::MonitorSnapshot {
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
            },
            Event::MonitorAlert {
                time: 30.0,
                rule: "backlog_growth".into(),
                state: "cleared".into(),
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
                class: "gr".into(),
                outcome: "shed".into(),
                wait: 1.5,
                rate: 0.0,
                cause: Some("queue_overflow".into()),
            },
            Event::ServiceIngest {
                time: 11.5,
                request: 41,
                lineage: 41,
                class: "gr".into(),
            },
            Event::ServiceDefer {
                time: 11.75,
                window: 3,
                queue_depth: 4,
                writer_free: 12.0,
                cause: "writer_busy".into(),
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
