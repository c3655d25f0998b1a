//! The event loop: [`SparcleRuntime`] owns a [`SparcleSystem`] and a
//! deterministic timeline of churn events.
//!
//! All randomness is consumed at construction (arrival times, element
//! transitions, fluctuation steps are pre-scheduled) or from dedicated
//! seeded streams in event order (hold times), and every data structure
//! iterated during event handling is ordered (`BTreeMap`/`BTreeSet`),
//! so a run is a pure function of `(network, arrivals, source, config)`
//! — including across γ-evaluator thread counts.
//!
//! The runtime is two types. [`SparcleRuntime<F>`] is the public shell:
//! the crate-private `Timeline` core plus the application source `F`.
//! The core holds everything else and is not generic, so the loop and
//! every handler compile once whatever the source type; the loop takes
//! the source as a `&mut dyn FnMut` argument.
//!
//! This file holds the loop and the exogenous events; the reconcile pass,
//! the defragmentation pass and the admission service plane are
//! `impl Timeline` blocks in `reconcile.rs`, `defrag_pass.rs` and
//! `admission.rs`.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::telemetry::Event;
use sparcle_core::{
    Admission, DisplaceCause, DisplacedApp, RejectCause, SparcleSystem, SystemConfig, TraceHandle,
};
use sparcle_model::{
    AppId, Application, CapacityMap, ModelError, Network, NetworkElement, QoeClass,
};
use sparcle_sim::des::EventQueue;
use sparcle_sim::failure::element_label;
use sparcle_sim::{ElementStateStream, FluctuationModel};
use sparcle_workloads::ArrivalEvent;

use crate::defrag::{DefragConfig, Defragmenter};
use crate::ledger::SloLedger;
use crate::monitor::{Monitor, MonitorConfig, TickInput};
use crate::policy::ReconcilePolicy;
use admission::ServicePlane;

pub(crate) mod admission;
mod defrag_pass;
mod reconcile;

/// One timeline event the control plane reacts to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// The `index`-th application of the arrival trace arrives.
    Arrival {
        /// Arrival sequence number (feeds the application source).
        index: u64,
    },
    /// The application admitted for arrival `index` departs.
    Departure {
        /// Arrival sequence number of the departing application.
        index: u64,
    },
    /// A network element fails (`up == false`) or recovers.
    Element {
        /// The element changing state.
        element: NetworkElement,
        /// New state.
        up: bool,
    },
    /// Background capacities move to the pre-sampled step `step`.
    Fluctuation {
        /// Index into the pre-sampled fluctuation series.
        step: usize,
    },
    /// The control plane re-places displaced applications.
    Reconcile {
        /// Time of the disruption that scheduled this pass.
        cause: f64,
    },
    /// The observability monitor samples the run (periodic, consumes no
    /// randomness — enabling it never perturbs the timeline).
    MonitorTick,
    /// The background defragmenter considers planned migrations
    /// (periodic, consumes no randomness; with `defrag: None` the event
    /// is never scheduled and the timeline is bitwise pre-defrag).
    DefragTick,
    /// The admission service closes batch window `window` (0-based, at
    /// `(window + 1) × batch_window`; only [`crate::service::AdmissionService`]).
    WindowClose {
        /// Index of the window being closed.
        window: u64,
    },
}

/// Capacity-fluctuation configuration of the runtime timeline.
#[derive(Debug, Clone, Copy)]
pub struct FluctuationConfig {
    /// The random-walk model (floor, step, seed).
    pub model: FluctuationModel,
    /// Simulated seconds between capacity steps.
    pub period: f64,
}

/// Duration of one element-failure epoch (the failure model samples
/// per-epoch, exactly as the Figure-10 batch study does).
const EPOCH_LENGTH: f64 = 1.0;

/// Fixed control-plane delay between a disruption and its reconcile
/// pass.
const RECONCILE_BASE_DELAY: f64 = 0.05;

/// Additional reconcile delay per application in the displaced queue
/// (modelling per-app re-placement work).
const RECONCILE_PER_APP_DELAY: f64 = 0.01;

/// Tunables of one churn run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// End of simulated time; events at or before the horizon are
    /// processed, later ones are dropped.
    pub horizon: f64,
    /// Seed of the element up/down stream.
    pub failure_seed: u64,
    /// Seed of the exponential hold-time stream.
    pub hold_seed: u64,
    /// Mean application lifetime (exponential holds).
    pub mean_hold: f64,
    /// Optional background capacity fluctuation.
    pub fluctuation: Option<FluctuationConfig>,
    /// The order displaced applications are re-placed in.
    pub policy: ReconcilePolicy,
    /// Optional observability monitor (windowed health signals and
    /// burn-rate alerting on a periodic tick).
    pub monitor: Option<MonitorConfig>,
    /// Optional background defragmentation pass (periodic, budgeted
    /// planned migrations through [`sparcle_core::SystemTxn::migrate`]).
    pub defrag: Option<DefragConfig>,
    /// Configuration of the owned [`SparcleSystem`] (notably
    /// `assigner_threads`, which must not change results).
    pub system: SystemConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            horizon: 100.0,
            failure_seed: 0,
            hold_seed: 0,
            mean_hold: 10.0,
            fluctuation: None,
            policy: ReconcilePolicy::Fifo,
            monitor: None,
            defrag: None,
            system: SystemConfig::default(),
        }
    }
}

/// A displaced application waiting for a reconcile pass.
#[derive(Debug, Clone)]
pub struct PendingApp {
    /// Arrival sequence number (the stable identity across
    /// re-placements).
    pub index: u64,
    /// Simulated time of the displacement.
    pub since: f64,
    /// The lifted entry (placement preserved).
    pub displaced: DisplacedApp,
}

/// The online control plane: owns the [`SparcleSystem`], pops churn
/// events in deterministic `(time, insertion)` order, and repairs the
/// system after each one.
///
/// `F` produces the `index`-th arriving application; it is called
/// exactly once per arrival, in event order, so a seeded generator
/// closure stays deterministic.
pub struct SparcleRuntime<F> {
    timeline: Timeline,
    source: F,
}

/// The runtime without its application source: every piece of state the
/// loop and its handlers touch. The source reaches it only as an
/// argument of [`Self::run_until`].
struct Timeline {
    config: RuntimeConfig,
    system: SparcleSystem,
    queue: EventQueue<ChurnEvent>,
    hold_rng: StdRng,
    /// Pre-sampled fluctuation steps (index = `ChurnEvent::Fluctuation`).
    fluct_steps: Vec<CapacityMap>,
    /// Latest fluctuated capacities, before zeroing downed elements.
    base_caps: CapacityMap,
    /// The capacities the system runs on: `base_caps` with every downed
    /// element zeroed, kept in place element by element.
    caps: CapacityMap,
    down: BTreeSet<NetworkElement>,
    /// Arrival index → current id of the live application.
    live: BTreeMap<u64, AppId>,
    index_of: BTreeMap<AppId, u64>,
    pending: Vec<PendingApp>,
    /// Arrival indices of *placed* GR applications whose guarantee the
    /// current capacities violate.
    violating: BTreeSet<u64>,
    ledger: SloLedger,
    monitor: Option<Monitor>,
    defrag: Option<Defragmenter>,
    /// The admission service plane; `Some` only in a serving runtime.
    service: Option<ServicePlane>,
    events_processed: u64,
    /// Arrival index → provenance id of the app's latest lifecycle
    /// event (arrival/displace/readmit), so the next hop can link back
    /// to it. Only populated while a recorder is attached; entries
    /// leave at departure.
    last_event: BTreeMap<u64, u64>,
}

impl<F> std::fmt::Debug for SparcleRuntime<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tl = &self.timeline;
        f.debug_struct("SparcleRuntime")
            .field("now", &tl.queue.now())
            .field("pending_events", &tl.queue.len())
            .field("live", &tl.live.len())
            .field("displaced", &tl.pending.len())
            .field("events_processed", &tl.events_processed)
            .finish()
    }
}

impl<F: FnMut(u64) -> Application> SparcleRuntime<F> {
    /// Builds the runtime: pre-schedules every arrival (within the
    /// horizon), every element up/down transition (at
    /// `epoch × EPOCH_LENGTH`), and every fluctuation step. Departures
    /// and reconciles are scheduled dynamically as the run unfolds.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive horizon or mean hold.
    pub fn new(
        network: Network,
        arrivals: impl IntoIterator<Item = ArrivalEvent>,
        source: F,
        config: RuntimeConfig,
    ) -> Self {
        let timeline = Timeline::new(network, &mut arrivals.into_iter(), config);
        SparcleRuntime { timeline, source }
    }

    /// Runs the timeline to the horizon without telemetry.
    pub fn run(&mut self) -> &SloLedger {
        self.run_traced(TraceHandle::none())
    }

    /// Runs the timeline to the horizon, emitting one `runtime_*`
    /// telemetry event per processed churn event into `trace`.
    ///
    /// The `system.*` counters a call exports are that call's share, so
    /// a runtime run twice into one recorder leaves the recorder's totals
    /// equal to the system's `state_stats()`.
    pub fn run_traced(&mut self, trace: TraceHandle<'_>) -> &SloLedger {
        self.timeline.run_traced(&mut self.source, trace)
    }
}

impl<F> SparcleRuntime<F> {
    /// The owned scheduling system (final state after [`Self::run`]).
    pub fn system(&self) -> &SparcleSystem {
        &self.timeline.system
    }

    /// Consumes the runtime, handing out the owned system — for
    /// post-run state inspection (e.g. the differential suites compare
    /// final residuals and rates across configurations).
    pub fn into_system(self) -> SparcleSystem {
        self.timeline.system
    }

    /// The SLO ledger accrued so far.
    pub fn ledger(&self) -> &SloLedger {
        &self.timeline.ledger
    }

    /// The observability monitor, when enabled — for post-run alert
    /// inspection (`ticks()`, `alerts_total()`, `firing()`).
    pub fn monitor(&self) -> Option<&Monitor> {
        self.timeline.monitor.as_ref()
    }

    /// The background defragmenter, when enabled — for post-run budget
    /// and churn inspection (`passes()`, `probes()`, `moves()`).
    pub fn defrag(&self) -> Option<&Defragmenter> {
        self.timeline.defrag.as_ref()
    }

    /// Applications currently displaced and waiting for a reconcile.
    pub fn pending(&self) -> &[PendingApp] {
        &self.timeline.pending
    }

    /// Arrival indices of the currently live applications.
    pub fn live_indices(&self) -> Vec<u64> {
        self.timeline.live.keys().copied().collect()
    }

    /// Churn events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.timeline.events_processed
    }
}

impl Timeline {
    /// The core of [`SparcleRuntime::new`].
    fn new(
        network: Network,
        arrivals: &mut dyn Iterator<Item = ArrivalEvent>,
        config: RuntimeConfig,
    ) -> Self {
        assert!(
            config.horizon.is_finite() && config.horizon > 0.0,
            "horizon must be positive"
        );
        assert!(config.mean_hold > 0.0, "mean hold must be positive");
        let mut rt = Self::assemble(network, config);
        let (horizon, network) = (rt.config.horizon, rt.system.network());
        for a in arrivals {
            if a.time < horizon {
                rt.queue
                    .schedule(a.time, ChurnEvent::Arrival { index: a.index });
            }
        }
        let epochs = (horizon / EPOCH_LENGTH).ceil() as u64;
        let stream =
            ElementStateStream::new(network, network.elements(), epochs, rt.config.failure_seed);
        for tr in stream.collect_transitions() {
            let t = tr.epoch as f64 * EPOCH_LENGTH;
            if t < horizon {
                rt.queue.schedule(
                    t,
                    ChurnEvent::Element {
                        element: tr.element,
                        up: tr.up,
                    },
                );
            }
        }
        if let Some(f) = &rt.config.fluctuation {
            assert!(f.period > 0.0, "fluctuation period must be positive");
            let mut series = f.model.series(network);
            let mut step = 0usize;
            loop {
                let t = (step + 1) as f64 * f.period;
                if t >= horizon {
                    break;
                }
                rt.fluct_steps.push(series.step());
                rt.queue.schedule(t, ChurnEvent::Fluctuation { step });
                step += 1;
            }
        }
        // Monitor and defrag ticks: the first lands one period in, the
        // handler reschedules the rest. Scheduled last so a tick sorts
        // after same-time exogenous events — deterministic either way,
        // but "observe after the world moved" reads better. With
        // `defrag: None` nothing is scheduled and the timeline is
        // bitwise pre-defrag.
        if let Some(period) = rt.monitor.as_ref().map(|m| m.config().period) {
            if period <= horizon {
                rt.queue.schedule(period, ChurnEvent::MonitorTick);
            }
        }
        if let Some(period) = rt.defrag.as_ref().map(|d| d.config().period) {
            if period <= horizon {
                rt.queue.schedule(period, ChurnEvent::DefragTick);
            }
        }
        rt
    }

    /// The runtime over `network` with an empty timeline: builds the
    /// system and the configured (not yet scheduled) planes.
    fn assemble(network: Network, config: RuntimeConfig) -> Self {
        let base_caps = network.capacity_map();
        let monitor = config.monitor.clone().map(Monitor::new);
        let defrag = config.defrag.clone().map(Defragmenter::new);
        let hold_rng = StdRng::seed_from_u64(config.hold_seed);
        let system = SparcleSystem::with_config(network, config.system.clone());
        Timeline {
            config,
            system,
            queue: EventQueue::new(),
            hold_rng,
            fluct_steps: Vec::new(),
            caps: base_caps.clone(),
            base_caps,
            down: BTreeSet::new(),
            live: BTreeMap::new(),
            index_of: BTreeMap::new(),
            pending: Vec::new(),
            violating: BTreeSet::new(),
            ledger: SloLedger::default(),
            monitor,
            defrag,
            service: None,
            events_processed: 0,
            last_event: BTreeMap::new(),
        }
    }

    /// The core of [`SparcleRuntime::run_traced`].
    fn run_traced(
        &mut self,
        source: &mut dyn FnMut(u64) -> Application,
        trace: TraceHandle<'_>,
    ) -> &SloLedger {
        let run_span = trace.span("runtime.run");
        let before = self.events_processed;
        let counters_before = self.system.state_stats().counters();
        self.run_until(self.config.horizon, source, trace);
        self.accrue(self.config.horizon);
        // Exported once per call, and not at all by a call that
        // processed nothing, so a trace names the counter only when it
        // counted something.
        let events = self.events_processed - before;
        if events > 0 {
            trace.counter("runtime.events", events);
        }
        // Deterministic state-core counters (wall-clock nanos stay out:
        // traces are compared bit-for-bit across thread counts).
        let counters = self.system.state_stats().counters();
        for ((name, now), (_, before)) in counters.into_iter().zip(counters_before) {
            trace.counter(name, now - before);
        }
        run_span.finish();
        &self.ledger
    }

    /// The loop: pops and handles every queued event due at or before
    /// `until`, in `(time, insertion)` order. `source` is called once per
    /// `Arrival`, as it is popped.
    fn run_until(
        &mut self,
        until: f64,
        source: &mut dyn FnMut(u64) -> Application,
        trace: TraceHandle<'_>,
    ) {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            let (t, event) = self.queue.pop().expect("peeked");
            // A defrag tick accrues only once its pass may commit a move
            // (`on_defrag_tick`): a rollback-only pass changes no state,
            // and splitting the ledger's interval at it would move the
            // integrals' rounding, not their value.
            if !matches!(event, ChurnEvent::DefragTick) {
                self.accrue(t);
            }
            self.events_processed += 1;
            match event {
                ChurnEvent::Arrival { index } => self.on_arrival(t, index, source(index), trace),
                ChurnEvent::Departure { index } => self.on_departure(t, index, trace),
                ChurnEvent::Element { element, up } => self.on_element(t, element, up, trace),
                ChurnEvent::Fluctuation { step } => self.on_fluctuation(t, step, trace),
                ChurnEvent::Reconcile { cause } => self.on_reconcile(t, cause, trace),
                ChurnEvent::MonitorTick => self.on_monitor_tick(t, trace),
                ChurnEvent::DefragTick => self.on_defrag_tick(t, trace),
                ChurnEvent::WindowClose { window } => self.on_window_close(t, window, trace),
            }
        }
    }

    /// Integrates the SLO ledger up to `t` using the pre-event state:
    /// displaced GR applications and placed-but-violated ones accrue
    /// violation-seconds; the current BE allocation accrues delivered
    /// work.
    fn accrue(&mut self, t: f64) {
        let be_rate = self.system.be_rate_total();
        let violating = self.violating.iter().copied().chain(
            self.pending
                .iter()
                .filter(|p| p.displaced.is_gr())
                .map(|p| p.index),
        );
        self.ledger.advance_to(t, violating, be_rate);
    }

    /// Refreshes the violated-GR set from the system's verdict on a
    /// capacity change.
    fn set_violating(&mut self, violated: Result<Vec<AppId>, ModelError>) {
        let violated =
            violated.expect("runtime capacities are the network's, fluctuated or zeroed");
        self.violating = violated
            .iter()
            .filter_map(|id| self.index_of.get(id).copied())
            .collect();
    }

    fn register(&mut self, index: u64, id: AppId) {
        self.live.insert(index, id);
        self.index_of.insert(id, index);
    }

    fn on_arrival(&mut self, t: f64, index: u64, app: Application, trace: TraceHandle<'_>) {
        let is_gr = matches!(app.qoe(), QoeClass::GuaranteedRate { .. });
        // An `Err` — an application the system cannot assign or analyse
        // at all, such as one past the availability analyser's element
        // limit — is this arrival's rejection, not the timeline's end.
        let (id, cause) = match self.system.submit(app) {
            Ok(Admission::Admitted(id)) => (Some(id), None),
            Ok(Admission::Rejected(reason)) => (None, Some(reason.cause())),
            Err(_) => (None, Some(RejectCause::SubmitError)),
        };
        let admitted = id.is_some();
        let mut rate = 0.0;
        if let Some(id) = id {
            self.register(index, id);
            rate = self.system.rate_of(id).unwrap_or(0.0);
            let u: f64 = self.hold_rng.gen_range(f64::MIN_POSITIVE..1.0);
            self.queue.schedule(
                t + -u.ln() * self.config.mean_hold,
                ChurnEvent::Departure { index },
            );
        }
        self.ledger.record_arrival(admitted);
        if let Some(cause) = &cause {
            self.ledger.record_rejection(cause.code());
        }
        trace.counter("runtime.arrivals", 1);
        if trace.is_enabled() {
            // An arrival is exogenous: it roots the app's cause chain
            // (empty `causes`). The lineage is the arrival index; a
            // rejection records the binding constraint's cause code.
            let id = trace.event(&Event::RuntimeArrival {
                time: t,
                app: index as u32,
                lineage: index,
                class: if is_gr { "gr" } else { "be" },
                admitted,
                rate,
                cause: cause.map(|c| c.code()),
            });
            if admitted && id != 0 {
                self.last_event.insert(index, id);
            }
        }
    }

    fn on_departure(&mut self, t: f64, index: u64, trace: TraceHandle<'_>) {
        let was_present = if let Some(id) = self.live.remove(&index) {
            self.index_of.remove(&id);
            self.violating.remove(&index);
            self.system.remove(id);
            true
        } else if let Some(pos) = self.pending.iter().position(|p| p.index == index) {
            // The app's lifetime ran out while it sat displaced.
            self.pending.remove(pos);
            true
        } else {
            false
        };
        if !was_present {
            return;
        }
        self.ledger.record_departure();
        trace.counter("runtime.departures", 1);
        if trace.is_enabled() {
            let prev = self.last_event.remove(&index).unwrap_or(0);
            let buf = [prev];
            let causes: &[u64] = if prev != 0 { &buf } else { &[] };
            trace.event_caused(
                &Event::RuntimeDeparture {
                    time: t,
                    app: index as u32,
                    lineage: index,
                },
                causes,
            );
        }
    }

    fn on_element(&mut self, t: f64, element: NetworkElement, up: bool, trace: TraceHandle<'_>) {
        if up {
            self.down.remove(&element);
        } else {
            self.down.insert(element);
        }
        let mut displaced_now = 0u64;
        let mut displaced_indices: Vec<u64> = Vec::new();
        if !up {
            // Blast radius: lift every application whose paths cross the
            // failed element in one transaction (a single BE re-solve),
            // keeping the placements for cheap reinstatement on
            // recovery.
            let ids = self.system.apps_using_element(element);
            let entries = self.system.displace_batch(&ids);
            for (id, displaced) in ids.into_iter().zip(entries) {
                let index = self
                    .index_of
                    .remove(&id)
                    .expect("admitted apps are indexed");
                self.live.remove(&index);
                self.violating.remove(&index);
                self.pending.push(PendingApp {
                    index,
                    since: t,
                    displaced,
                });
                displaced_indices.push(index);
                displaced_now += 1;
            }
        }
        // Only the flipped element changed: hand the system just that one.
        self.caps.copy_element_from(&self.base_caps, element);
        if !up {
            self.caps.scale_element(element, 0.0);
        }
        let violated = self.system.change_capacities(&self.caps, &[element]);
        self.set_violating(violated);
        self.ledger.record_displacements(displaced_now);
        trace.counter("runtime.element_transitions", 1);
        if trace.is_enabled() {
            let element_id = trace.event(&Event::RuntimeElementState {
                time: t,
                element: element_label(element),
                up,
                displaced: displaced_now,
            });
            // Per-app displacement provenance: each evicted app links
            // back to its latest lifecycle event and to the element
            // transition that evicted it — the binding constraint.
            for &index in &displaced_indices {
                let mut causes = Vec::with_capacity(2);
                if let Some(&prev) = self.last_event.get(&index) {
                    causes.push(prev);
                }
                if element_id != 0 {
                    causes.push(element_id);
                }
                let id = trace.event_caused(
                    &Event::RuntimeDisplace {
                        time: t,
                        app: index as u32,
                        lineage: index,
                        element: element_label(element),
                        cause: DisplaceCause::ElementFailure.code(),
                    },
                    &causes,
                );
                if id != 0 {
                    self.last_event.insert(index, id);
                }
            }
        }
        if displaced_now > 0 || (up && !self.pending.is_empty()) {
            let delay = RECONCILE_BASE_DELAY + RECONCILE_PER_APP_DELAY * self.pending.len() as f64;
            self.queue
                .schedule(t + delay, ChurnEvent::Reconcile { cause: t });
        }
    }

    fn on_fluctuation(&mut self, t: f64, step: usize, trace: TraceHandle<'_>) {
        self.base_caps = self.fluct_steps[step].clone();
        self.caps.clone_from(&self.base_caps);
        for &e in &self.down {
            self.caps.scale_element(e, 0.0);
        }
        let violated = self.system.apply_capacity_fluctuation(&self.caps);
        self.set_violating(violated);
        trace.counter("runtime.fluctuations", 1);
        if trace.is_enabled() {
            trace.event(&Event::RuntimeFluctuation {
                time: t,
                violated: self.violating.len() as u64,
            });
        }
    }

    fn on_monitor_tick(&mut self, t: f64, trace: TraceHandle<'_>) {
        self.tick_monitor(t, self.queue.len() as u64, self.pending.len() as u64, trace);
        trace.counter("runtime.monitor_ticks", 1);
        let period = self.monitor.as_ref().expect("ticked above").config().period;
        if t + period <= self.config.horizon {
            self.queue.schedule(t + period, ChurnEvent::MonitorTick);
        }
    }

    /// Folds the run into the monitor at `t` (the loop's `accrue(t)`
    /// already ran) and publishes the sample. `queue_depth` and `backlog`
    /// are the DES queue and the displaced apps for a `MonitorTick`, the
    /// queued and the deferred requests for a window close.
    fn tick_monitor(&mut self, t: f64, queue_depth: u64, backlog: u64, trace: TraceHandle<'_>) {
        let monitor = self.monitor.as_mut().expect("ticked only with a monitor");
        let stats = self.system.state_stats();
        let input = TickInput {
            gr_violation_seconds: self.ledger.total_gr_violation_seconds(),
            arrivals: self.ledger.arrivals(),
            admitted: self.ledger.admitted(),
            solves: stats.solves,
            warm_inner_iters: stats.inner_iters_warm,
            be_rate: self.system.be_rate_total(),
            queue_depth,
            backlog,
            live: (self.system.be_apps().len() + self.system.gr_apps().len()) as u64,
            migrations: self.ledger.migrations(),
        };
        let sample = monitor.tick(t, &input);
        monitor.publish(&sample, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{LinkDirection, NcpId, NetworkBuilder, ResourceVec};
    use sparcle_workloads::graphs::linear_task_graph;
    use sparcle_workloads::ArrivalTrace;

    /// Four NCPs, two disjoint source→sink routes: via a big `hub` over
    /// two flaky links, or via `alt` over two reliable ones — so element
    /// failures always leave a repair path.
    pub(super) fn two_route_network(flaky: f64) -> Network {
        let mut b = NetworkBuilder::new();
        let src = b.add_ncp("src-host", ResourceVec::cpu(10.0));
        let hub = b.add_ncp("hub", ResourceVec::cpu(1000.0));
        let sink = b.add_ncp("sink-host", ResourceVec::cpu(10.0));
        let alt = b.add_ncp("alt", ResourceVec::cpu(800.0));
        b.add_link_full("l0", src, hub, 1e4, LinkDirection::Undirected, flaky)
            .unwrap();
        b.add_link_full("l1", hub, sink, 1e4, LinkDirection::Undirected, flaky)
            .unwrap();
        b.add_link("l2", src, alt, 1e4).unwrap();
        b.add_link("l3", alt, sink, 1e4).unwrap();
        b.build().unwrap()
    }

    /// Every third arrival is Guaranteed-Rate; priorities cycle.
    pub(super) fn app_source(index: u64) -> Application {
        let graph = linear_task_graph(&[50.0], &[1000.0, 500.0]).unwrap();
        let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
        let qoe = if index.is_multiple_of(3) {
            QoeClass::guaranteed_rate(2.0, 0.5)
        } else {
            QoeClass::best_effort(1.0 + (index % 4) as f64)
        };
        Application::new(graph, qoe, [(src, NcpId::new(0)), (sink, NcpId::new(2))]).unwrap()
    }

    /// A BE class with an availability target low enough for any single
    /// path here: only targeted applications run the availability
    /// analysis, whose element limit the submit-error regressions need.
    pub(super) fn targeted_be() -> QoeClass {
        QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.5),
        }
    }

    pub(super) fn config(policy: ReconcilePolicy, threads: usize) -> RuntimeConfig {
        let mut c = RuntimeConfig {
            horizon: 40.0,
            failure_seed: 11,
            hold_seed: 7,
            mean_hold: 15.0,
            policy,
            ..RuntimeConfig::default()
        };
        c.system.assigner_threads = threads;
        c
    }

    pub(super) fn run_once(policy: ReconcilePolicy, threads: usize) -> SloLedger {
        let cfg = config(policy, threads);
        let arrivals = ArrivalTrace::Poisson { rate: 1.0 }.events(cfg.horizon, 42);
        let mut rt = SparcleRuntime::new(two_route_network(0.15), arrivals, app_source, cfg);
        rt.run().clone()
    }

    #[test]
    fn timeline_is_deterministic() {
        let a = run_once(ReconcilePolicy::Fifo, 1);
        let b = run_once(ReconcilePolicy::Fifo, 1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.arrivals() > 10, "expected a busy timeline");
        assert!(a.displacements() > 0, "flaky links should displace apps");
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        let a = run_once(ReconcilePolicy::GammaImpact, 1);
        let b = run_once(ReconcilePolicy::GammaImpact, 8);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Regression: an application that asks for an availability and
    /// whose path crosses more distinct elements than the analyser
    /// accepts (128) makes `submit` return `Err`. That used to panic the
    /// whole timeline; it is that arrival's rejection, and later arrivals
    /// still run.
    #[test]
    fn submit_error_rejects_the_arrival_and_the_timeline_goes_on() {
        // 70 hubs in a chain, a leaf on each: end to end is 70 NCPs and
        // 69 links.
        const HUBS: u32 = 70;
        let mut b = NetworkBuilder::new();
        for h in 0..HUBS {
            b.add_ncp(format!("hub{h}"), ResourceVec::cpu(1000.0));
        }
        for h in 0..HUBS {
            let leaf = b.add_ncp(format!("leaf{h}"), ResourceVec::cpu(100.0));
            b.add_link(format!("drop{h}"), NcpId::new(h), leaf, 1e4)
                .unwrap();
            if h > 0 {
                b.add_link(format!("trunk{h}"), NcpId::new(h - 1), NcpId::new(h), 1e4)
                    .unwrap();
            }
        }
        // Arrival 0 spans the whole chain, arrival 1 two hubs.
        let source = |index: u64| {
            let graph = linear_task_graph(&[50.0], &[1000.0, 500.0]).unwrap();
            let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
            let far = if index == 0 { HUBS - 1 } else { 1 };
            Application::new(
                graph,
                targeted_be(),
                [(src, NcpId::new(0)), (sink, NcpId::new(far))],
            )
            .unwrap()
        };
        let arrivals = [1.0, 2.0]
            .into_iter()
            .enumerate()
            .map(|(i, time)| ArrivalEvent {
                time,
                index: i as u64,
            });
        let cfg = RuntimeConfig {
            horizon: 5.0,
            mean_hold: 1e6,
            ..RuntimeConfig::default()
        };
        let mut rt = SparcleRuntime::new(b.build().unwrap(), arrivals, source, cfg);

        let recorder = sparcle_core::telemetry::CollectRecorder::new();
        rt.run_traced(TraceHandle::new(&recorder));

        let ledger = rt.ledger();
        assert_eq!((ledger.arrivals(), ledger.admitted()), (2, 1));
        assert_eq!(ledger.rejections().get("submit_error"), Some(&1));
        assert_eq!(ledger.rejections().len(), 1);
        assert_eq!(rt.live_indices(), vec![1]);
        let causes: Vec<_> = recorder
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::RuntimeArrival {
                    admitted, cause, ..
                } => Some((admitted, cause)),
                _ => None,
            })
            .collect();
        assert_eq!(causes, vec![(false, Some("submit_error")), (true, None)]);
    }

    #[test]
    fn departures_release_their_apps() {
        let cfg = RuntimeConfig {
            horizon: 120.0,
            mean_hold: 4.0,
            ..RuntimeConfig::default()
        };
        let arrivals = ArrivalTrace::Poisson { rate: 0.3 }.events(30.0, 9);
        let mut rt = SparcleRuntime::new(two_route_network(0.0), arrivals, app_source, cfg);
        let ledger = rt.run().clone();
        assert!(ledger.arrivals() > 0);
        assert_eq!(
            ledger.departures(),
            ledger.admitted(),
            "with a 120 s horizon and 4 s holds every admitted app departs"
        );
        assert!(rt.live_indices().is_empty());
        assert_eq!(rt.system().app_ids().len(), 0);
    }

    #[test]
    fn a_second_run_exports_only_its_own_system_counters() {
        let cfg = config(ReconcilePolicy::Fifo, 1);
        let arrivals = ArrivalTrace::Poisson { rate: 1.0 }.events(cfg.horizon, 42);
        let mut rt = SparcleRuntime::new(two_route_network(0.15), arrivals, app_source, cfg);
        let recorder = sparcle_core::telemetry::CollectRecorder::new();
        rt.run_traced(TraceHandle::new(&recorder));
        // Past the horizon already: the second call runs nothing, so it
        // adds nothing to the recorder's totals.
        rt.run_traced(TraceHandle::new(&recorder));
        let snapshot = recorder.snapshot();
        let counters = rt.system().state_stats().counters();
        assert!(
            counters[0].1 > 0,
            "the timeline solved nothing: {counters:?}"
        );
        for (name, value) in counters {
            assert_eq!(snapshot.counter(name), value, "{name}");
        }
    }

    #[test]
    fn monitor_ticks_do_not_perturb_the_timeline() {
        // A MonitorTick consumes no randomness and mutates no system
        // state, so enabling it must leave the ledger bit-identical.
        let run = |monitor: Option<MonitorConfig>| {
            let mut cfg = config(ReconcilePolicy::Fifo, 1);
            cfg.monitor = monitor;
            let arrivals = ArrivalTrace::Poisson { rate: 1.0 }.events(cfg.horizon, 42);
            let mut rt = SparcleRuntime::new(two_route_network(0.15), arrivals, app_source, cfg);
            let recorder = sparcle_core::telemetry::CollectRecorder::new();
            rt.run_traced(TraceHandle::new(&recorder));
            // The loop's event count is exported once, whole.
            assert_eq!(
                recorder.snapshot().counter("runtime.events"),
                rt.events_processed()
            );
            rt
        };
        let off = run(None);
        let on = run(Some(MonitorConfig::default()));
        // Event counts match exactly; integrals only to rounding, since
        // tick times split the ledger's piecewise integration intervals.
        assert_eq!(off.ledger().arrivals(), on.ledger().arrivals());
        assert_eq!(off.ledger().admitted(), on.ledger().admitted());
        assert_eq!(off.ledger().departures(), on.ledger().departures());
        assert_eq!(off.ledger().displacements(), on.ledger().displacements());
        assert_eq!(off.ledger().reconciles(), on.ledger().reconciles());
        assert_eq!(
            off.ledger().placement_churn(),
            on.ledger().placement_churn()
        );
        let (a, b) = (
            off.ledger().be_rate_integral(),
            on.ledger().be_rate_integral(),
        );
        assert!((a - b).abs() <= 1e-9 * a.abs(), "{a} vs {b}");
        let (a, b) = (
            off.ledger().total_gr_violation_seconds(),
            on.ledger().total_gr_violation_seconds(),
        );
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        // 40 s horizon, 5 s period: ticks at 5, 10, …, 40.
        let monitor = on.monitor().expect("monitor was enabled");
        assert_eq!(monitor.ticks(), 8);
        assert_eq!(
            on.events_processed(),
            off.events_processed() + monitor.ticks()
        );
    }

    #[test]
    fn fluctuation_steps_are_applied() {
        let cfg = RuntimeConfig {
            horizon: 30.0,
            fluctuation: Some(FluctuationConfig {
                model: FluctuationModel {
                    floor: 0.4,
                    step: 0.2,
                    seed: 5,
                },
                period: 2.0,
            }),
            ..RuntimeConfig::default()
        };
        let arrivals = ArrivalTrace::Poisson { rate: 0.8 }.events(cfg.horizon, 17);
        let mut rt = SparcleRuntime::new(two_route_network(0.0), arrivals, app_source, cfg);
        let before = rt.events_processed();
        rt.run();
        // 14 fluctuation steps land inside the horizon on top of
        // arrivals/departures.
        assert!(rt.events_processed() > before + 14);
        assert_eq!(rt.ledger().time(), 30.0);
    }
}
