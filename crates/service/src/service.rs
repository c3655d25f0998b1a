//! The deterministic admission service loop.
//!
//! [`AdmissionService::run_traced`] consumes a time-ordered stream of
//! [`ServiceRequest`]s. Submissions are queued into the current batch
//! window; every window boundary the queue is drained (up to
//! `max_batch`) into **one** transaction whose deferred-solve epilogue
//! runs a single warm BE solve for the whole batch. Probes are answered
//! immediately from the last committed [`StateSnapshot`] — including
//! while the writer is still busy with a previous solve, which is
//! exactly the snapshot-read protocol the plane exists for.
//!
//! Time is simulated: each commit holds the writer for the work the
//! state core counted while it ran (`writer_busy_s` over the batch's
//! [`StateStats`] delta), which advances `writer_free_at`; a window whose
//! boundary falls while the writer is busy is *deferred* wholesale
//! (every queued request is charged one deferral) and re-examined at the
//! next boundary. Requests deferred past `max_defer_windows`, or pushed
//! out of a full ingest queue, are shed — lowest priority first, with
//! Guaranteed-Rate requests protected by an infinite rank.

use sparcle_core::telemetry::Event;
use sparcle_core::trace::TraceHandle;
use sparcle_core::DEFER_WRITER_BUSY;
use sparcle_core::{
    Admission, AssignError, DynamicRankingAssigner, RejectCause, ShedCause, SparcleSystem,
    StateSnapshot, StateStats, SystemConfig,
};
use sparcle_model::{Application, Network, QoeClass};
use sparcle_runtime::{Monitor, MonitorConfig, SloLedger, TickInput};
use sparcle_workloads::{RequestKind, ServiceRequest};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tunables of the admission service plane.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Micro-batch window length in sim-seconds; every boundary
    /// `k × batch_window` closes the current batch. Must be positive.
    pub batch_window: f64,
    /// Maximum requests coalesced into one transaction; the remainder
    /// stays queued for the next window.
    pub max_batch: usize,
    /// Ingest queue capacity; an arrival that would overflow it sheds
    /// the lowest-priority queued request (possibly itself).
    pub queue_capacity: usize,
    /// A request deferred past this many windows by backpressure is
    /// shed instead of deferred again.
    pub max_defer_windows: u64,
    /// Optional observability monitor ticked at every window close.
    pub monitor: Option<MonitorConfig>,
    /// Configuration of the owned [`SparcleSystem`].
    pub system: SystemConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_window: 1.0,
            max_batch: 64,
            queue_capacity: 256,
            max_defer_windows: 4,
            monitor: None,
            system: SystemConfig::default(),
        }
    }
}

/// Decision counters of one service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Batched transactions committed.
    pub batches: u64,
    /// Window boundaries deferred because the writer was busy.
    pub windows_deferred: u64,
    /// Placement decisions served (admitted + rejected, not shed).
    pub decisions: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests shed by backpressure (queue overflow or deferral
    /// budget).
    pub shed: u64,
    /// Probes answered from the snapshot.
    pub probes: u64,
    /// Probes whose what-if assignment was feasible.
    pub probes_feasible: u64,
    /// Per-request deferral charges: every request queued in a deferred
    /// window counts one (the ledger's `deferrals`).
    pub deferrals: u64,
}

impl ServiceStats {
    /// The exported counters as `(trace counter name, value)` pairs —
    /// the one `service.*` list [`AdmissionService::run_traced`] exports.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("service.batches", self.batches),
            ("service.decisions", self.decisions),
            ("service.admitted", self.admitted),
            ("service.rejected", self.rejected),
            ("service.shed", self.shed),
            ("service.probes", self.probes),
            ("service.deferrals", self.deferrals),
        ]
    }
}

/// Sim-seconds the writer is held per Newton step of a BE solve (warm
/// or cold, barrier or dual phase) and per widest-path tree sweep (a
/// γ-cache miss). Fitted from traced `service_burst` benchmark runs
/// (seed 1, 20 s) on a 2-vCPU Intel Xeon Linux container: per step,
/// `alloc.num.solve_ms_p50` 0.1427 ms ÷ `alloc.num.warm_iters_per_solve`
/// 5.395 = 26.4 µs, once the active-set dual phase replaced the warm
/// barrier tail; per sweep, `core.widest_path.tree_us_p50` 15.35 µs at
/// commit ea81867.
const STEP_S: f64 = 2.64e-5;
const SWEEP_S: f64 = 1.54e-5;

/// Sim-seconds of writer time for the work the state core counted
/// between `before` and `after`: every Newton step and every tree sweep,
/// rolled-back work included. Each count is a deterministic function of
/// the input, so the clock is thread- and run-invariant.
fn writer_busy_s(before: &StateStats, after: &StateStats) -> f64 {
    let steps = (after.inner_iters_warm + after.inner_iters_cold)
        - (before.inner_iters_warm + before.inner_iters_cold);
    let sweeps = after.gamma_cache_misses - before.gamma_cache_misses;
    STEP_S * steps as f64 + SWEEP_S * sweeps as f64
}

/// The answer to a read-only what-if probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeAnswer {
    /// Whether a fresh assignment path would clear admission (for GR
    /// probes the path must also carry the requested minimum rate).
    pub feasible: bool,
    /// The rate the found path would carry (`0.0` when none was found).
    pub rate: f64,
}

/// A queued placement request awaiting its batch window.
#[derive(Debug, Clone)]
struct Pending {
    index: u64,
    arrival: f64,
    app: Arc<Application>,
    class: &'static str,
    /// Shedding rank: BE priority, or `+∞` for GR (never shed before
    /// any BE request).
    rank: f64,
    deferred: u64,
    /// Id of the last provenance event on this request's lineage (the
    /// `service_ingest`, or the latest `service_defer` that parked it);
    /// 0 when untraced.
    last_event: u64,
}

/// The admission service: a [`SparcleSystem`] behind an ingest queue,
/// a micro-batch writer, and a snapshot read path.
///
/// `source` materializes the application for a request index — the
/// service is workload-agnostic; [`sparcle_workloads::RequestStream`]
/// supplies *when* requests arrive, the source supplies *what* arrives.
pub struct AdmissionService<F: FnMut(u64) -> Application> {
    system: SparcleSystem,
    config: ServiceConfig,
    source: F,
    /// Immutable read view, refreshed only after each commit.
    snapshot: StateSnapshot,
    /// Dedicated assigner for probes so reads never touch the writer's
    /// γ-cache state.
    probe_assigner: DynamicRankingAssigner,
    ledger: SloLedger,
    monitor: Option<Monitor>,
    stats: ServiceStats,
    decision_waits: Vec<f64>,
    pending: VecDeque<Pending>,
    writer_free_at: f64,
    /// Next window boundary to close is `(window_seq + 1) × batch_window`.
    window_seq: u64,
    shed_since_batch: u64,
    /// Id of the last committed `service_batch` event — the cause of any
    /// deferral its writer-busy tail forces; 0 before the first commit
    /// or when untraced.
    last_batch_id: u64,
}

impl<F: FnMut(u64) -> Application> std::fmt::Debug for AdmissionService<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionService")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("pending", &self.pending.len())
            .field("writer_free_at", &self.writer_free_at)
            .field("window_seq", &self.window_seq)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64) -> Application> AdmissionService<F> {
    /// Creates a service over `network` whose requests are materialized
    /// by `source`.
    ///
    /// # Panics
    ///
    /// Panics when `batch_window` is not finite-positive, or when
    /// `max_batch` or `queue_capacity` is zero.
    pub fn new(network: Network, config: ServiceConfig, source: F) -> Self {
        assert!(
            config.batch_window.is_finite() && config.batch_window > 0.0,
            "batch_window must be finite and positive"
        );
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(
            config.queue_capacity > 0,
            "queue_capacity must be at least 1"
        );
        let probe_assigner = DynamicRankingAssigner::with_threads(config.system.assigner_threads);
        let monitor = config.monitor.clone().map(Monitor::new);
        let system = SparcleSystem::with_config(network, config.system.clone());
        let snapshot = system.snapshot();
        AdmissionService {
            system,
            config,
            source,
            snapshot,
            probe_assigner,
            ledger: SloLedger::default(),
            monitor,
            stats: ServiceStats::default(),
            decision_waits: Vec::new(),
            pending: VecDeque::new(),
            writer_free_at: 0.0,
            window_seq: 0,
            shed_since_batch: 0,
            last_batch_id: 0,
        }
    }

    /// Drives the service over a time-ordered request stream without
    /// telemetry. See [`Self::run_traced`].
    pub fn run(&mut self, requests: impl IntoIterator<Item = ServiceRequest>) {
        self.run_traced(requests, TraceHandle::none());
    }

    /// Drives the service over a time-ordered request stream, then
    /// drains every queued request through its (possibly deferred)
    /// batch window. Emits `service_*` telemetry events into `trace`.
    ///
    /// The stream may be fed in slices over several calls: the
    /// `service.*` and `system.*` counters each call exports are that
    /// call's share, so the recorder's totals always equal
    /// [`Self::stats`] and the system's `state_stats()`.
    pub fn run_traced(
        &mut self,
        requests: impl IntoIterator<Item = ServiceRequest>,
        trace: TraceHandle<'_>,
    ) {
        let before = (self.stats.counters(), self.system.state_stats().counters());
        for request in requests {
            self.advance_to(request.time, trace);
            match request.kind {
                RequestKind::Admit => self.enqueue(request, trace),
                RequestKind::Probe => {
                    self.probe(request, trace);
                }
            }
        }
        // Past the stream: keep closing windows until the queue drains
        // (deferred windows eventually pass `writer_free_at`).
        while !self.pending.is_empty() {
            let boundary = (self.window_seq + 1) as f64 * self.config.batch_window;
            self.close_window(boundary, trace);
            self.window_seq += 1;
        }
        let now = (self.stats.counters(), self.system.state_stats().counters());
        let service = now.0.into_iter().zip(before.0);
        for ((name, now), (_, before)) in service.chain(now.1.into_iter().zip(before.1)) {
            trace.counter(name, now - before);
        }
    }

    /// Closes every window boundary at or before `t`, fast-forwarding
    /// over empty stretches without iterating window by window.
    fn advance_to(&mut self, t: f64, trace: TraceHandle<'_>) {
        loop {
            let boundary = (self.window_seq + 1) as f64 * self.config.batch_window;
            if boundary > t {
                return;
            }
            if self.pending.is_empty() {
                // Nothing queued: no boundary up to `t` forms a batch or
                // defers anything, so skipping them is behaviourally
                // identical (the empty-window no-op). The quotient and
                // the boundary product round separately, so step to the
                // last `k` whose boundary `k · w` is at or before `t`.
                let w = self.config.batch_window;
                let mut skip = (t / w).floor() as u64;
                while skip > 0 && skip as f64 * w > t {
                    skip -= 1;
                }
                while (skip + 1) as f64 * w <= t {
                    skip += 1;
                }
                self.window_seq = self.window_seq.max(skip);
                return;
            }
            self.close_window(boundary, trace);
            self.window_seq += 1;
        }
    }

    /// Queues one submission; on overflow sheds the lowest-ranked
    /// queued request (possibly the one that just arrived).
    fn enqueue(&mut self, request: ServiceRequest, trace: TraceHandle<'_>) {
        let app = Arc::new((self.source)(request.index));
        let (class, rank) = class_and_rank(&app);
        // Mint the lineage: the ingest event is the causal root of every
        // later event about this request.
        let ingest_id = if trace.is_enabled() {
            trace.event(&Event::ServiceIngest {
                time: request.time,
                request: request.index,
                lineage: request.index,
                class,
            })
        } else {
            0
        };
        self.pending.push_back(Pending {
            index: request.index,
            arrival: request.time,
            app,
            class,
            rank,
            deferred: 0,
            last_event: ingest_id,
        });
        if self.pending.len() > self.config.queue_capacity {
            let mut worst = 0;
            for (i, p) in self.pending.iter().enumerate() {
                let w = &self.pending[worst];
                if p.rank < w.rank || (p.rank == w.rank && p.index > w.index) {
                    worst = i;
                }
            }
            let victim = self.pending.remove(worst).expect("index in range");
            self.shed(victim, request.time, ShedCause::QueueOverflow, trace);
        }
    }

    /// Answers a what-if probe from the immutable snapshot — never
    /// touches the writer's state, so it works mid-commit.
    fn probe(&mut self, request: ServiceRequest, trace: TraceHandle<'_>) -> ProbeAnswer {
        let app = (self.source)(request.index);
        // BE probes see the predicted capacities an equal-priority
        // arrival would be admitted against; GR probes see the raw GR
        // residual, exactly like the admission path.
        let capacities = match app.qoe() {
            QoeClass::BestEffort { priority, .. } => self.snapshot.predicted_capacities(*priority),
            QoeClass::GuaranteedRate { .. } => self.snapshot.gr_residual().clone(),
        };
        let answer = match self
            .probe_assigner
            .assign(&app, self.system.network(), &capacities)
        {
            Ok(path) => {
                let clears = path.rate.is_finite() && path.rate > sparcle_core::MIN_PATH_RATE;
                let feasible = match app.qoe() {
                    QoeClass::GuaranteedRate { min_rate, .. } => clears && path.rate >= *min_rate,
                    QoeClass::BestEffort { .. } => clears,
                };
                ProbeAnswer {
                    feasible,
                    rate: path.rate,
                }
            }
            Err(_) => ProbeAnswer {
                feasible: false,
                rate: 0.0,
            },
        };
        self.stats.probes += 1;
        if answer.feasible {
            self.stats.probes_feasible += 1;
        }
        if trace.is_enabled() {
            trace.event(&Event::ServiceProbe {
                time: request.time,
                request: request.index,
                lineage: request.index,
                feasible: answer.feasible,
                rate: answer.rate,
            });
        }
        answer
    }

    /// Closes the window ending at `t`: defers wholesale if the writer
    /// is still busy, otherwise commits one batched transaction.
    fn close_window(&mut self, t: f64, trace: TraceHandle<'_>) {
        if self.writer_free_at > t {
            // Backpressure: the previous solve is still running. Every
            // queued request is charged one deferral; requests past
            // their deferral budget are shed rather than parked again.
            self.stats.windows_deferred += 1;
            self.stats.deferrals += self.pending.len() as u64;
            self.ledger.record_deferrals(self.pending.len() as u64);
            // The deferral is caused by the batch whose writer-busy tail
            // covers this boundary; it in turn becomes the latest
            // lineage event of everything it parked (or pushed over its
            // deferral budget).
            if trace.is_enabled() {
                // Causes: the batch whose solve is still running, plus
                // the latest lineage event of every request it parks —
                // so a later shed still chains back to its ingest
                // through this deferral.
                let mut causes: Vec<u64> = Vec::with_capacity(self.pending.len() + 1);
                if self.last_batch_id != 0 {
                    causes.push(self.last_batch_id);
                }
                causes.extend(
                    self.pending
                        .iter()
                        .map(|p| p.last_event)
                        .filter(|&c| c != 0),
                );
                causes.sort_unstable();
                causes.dedup();
                let defer_id = trace.event_caused(
                    &Event::ServiceDefer {
                        time: t,
                        window: self.window_seq,
                        queue_depth: self.pending.len() as u64,
                        writer_free: self.writer_free_at,
                        cause: DEFER_WRITER_BUSY,
                    },
                    &causes,
                );
                if defer_id != 0 {
                    for p in self.pending.iter_mut() {
                        p.last_event = defer_id;
                    }
                }
            }
            let budget = self.config.max_defer_windows;
            let mut kept = VecDeque::with_capacity(self.pending.len());
            let mut over: Vec<Pending> = Vec::new();
            for mut p in self.pending.drain(..) {
                p.deferred += 1;
                if p.deferred > budget {
                    over.push(p);
                } else {
                    kept.push_back(p);
                }
            }
            self.pending = kept;
            for victim in over {
                self.shed(victim, t, ShedCause::DeferBudget, trace);
            }
            self.tick_monitor(t, trace);
            return;
        }

        let take = self.pending.len().min(self.config.max_batch);
        if take == 0 {
            return;
        }
        let batch: Vec<Pending> = self.pending.drain(..take).collect();
        let apps: Vec<Arc<Application>> = batch.iter().map(|p| Arc::clone(&p.app)).collect();

        // Accrue the BE-rate integral at the pre-commit rates before the
        // batch changes them.
        self.accrue(t);

        let work_before = self.system.state_stats().clone();
        let outcomes: Vec<Result<Admission, AssignError>> = {
            let mut txn = self.system.begin();
            let outcomes = match txn.submit_all(&apps) {
                Ok(admissions) => admissions.into_iter().map(Ok).collect(),
                // One request the system cannot assign or analyse (e.g.
                // a path past the availability analyser's element limit)
                // unwound the whole batch: replay it request by request,
                // so the error is that request's rejection alone.
                Err(_) => apps.iter().map(|app| txn.submit(Arc::clone(app))).collect(),
            };
            txn.commit();
            outcomes
        };
        let work = self.system.state_stats();
        let batch_solves = work.solves - work_before.solves;
        let busy = writer_busy_s(&work_before, work);
        // Publish the post-commit state to the read path.
        self.snapshot = self.system.snapshot();

        let admitted = outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(Admission::is_admitted))
            .count() as u64;
        let rejected = take as u64 - admitted;

        // The batch event precedes its member decisions so every
        // decision can cite the commit that produced it as a cause.
        let batch_id = if trace.is_enabled() {
            trace.event(&Event::ServiceBatch {
                time: t,
                window: self.window_seq,
                size: take as u64,
                admitted,
                rejected,
                shed: self.shed_since_batch,
                queue_depth: self.pending.len() as u64,
                solves: batch_solves,
            })
        } else {
            0
        };

        for (p, outcome) in batch.iter().zip(&outcomes) {
            let wait = t - p.arrival;
            self.decision_waits.push(wait);
            self.stats.decisions += 1;
            let (outcome, rate, cause) = match outcome {
                Ok(Admission::Admitted(id)) => {
                    ("admitted", self.snapshot.rate_of(*id).unwrap_or(0.0), None)
                }
                Ok(Admission::Rejected(reason)) => ("rejected", 0.0, Some(reason.cause_code())),
                Err(_) => ("rejected", 0.0, Some(RejectCause::SubmitError.code())),
            };
            self.ledger.record_arrival(cause.is_none());
            if let Some(cause) = cause {
                self.ledger.record_rejection(cause);
            }
            if trace.is_enabled() {
                let mut causes = [0u64; 2];
                let mut n = 0;
                if p.last_event != 0 {
                    causes[n] = p.last_event;
                    n += 1;
                }
                if batch_id != 0 {
                    causes[n] = batch_id;
                    n += 1;
                }
                trace.event_caused(
                    &Event::ServiceDecision {
                        time: t,
                        request: p.index,
                        lineage: p.index,
                        class: p.class,
                        outcome,
                        wait,
                        rate,
                        cause,
                    },
                    &causes[..n],
                );
            }
        }
        self.stats.batches += 1;
        self.stats.admitted += admitted;
        self.stats.rejected += rejected;
        self.writer_free_at = t + busy;
        self.last_batch_id = batch_id;
        self.shed_since_batch = 0;
        self.tick_monitor(t, trace);
    }

    /// Drops one request under backpressure, charging the ledger and
    /// attributing the shed to its cause code.
    fn shed(&mut self, victim: Pending, t: f64, cause: ShedCause, trace: TraceHandle<'_>) {
        self.stats.shed += 1;
        self.shed_since_batch += 1;
        self.ledger.record_shed();
        if trace.is_enabled() {
            let causes = [victim.last_event];
            let n = usize::from(victim.last_event != 0);
            trace.event_caused(
                &Event::ServiceDecision {
                    time: t,
                    request: victim.index,
                    lineage: victim.index,
                    class: victim.class,
                    outcome: "shed",
                    wait: t - victim.arrival,
                    rate: 0.0,
                    cause: Some(cause.code()),
                },
                &causes[..n],
            );
        }
    }

    /// Accrues the ledger's integrals up to `t` at the current rates.
    fn accrue(&mut self, t: f64) {
        self.ledger.advance_to(t, [], self.system.be_rate_total());
    }

    /// Folds the window close into the observability monitor, publishing
    /// the sample (`monitor_*` events, `metrics_out`) exactly like the
    /// churn runtime does.
    fn tick_monitor(&mut self, t: f64, trace: TraceHandle<'_>) {
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        let mut input = TickInput::observe(&self.system, &self.ledger);
        input.queue_depth = self.pending.len() as u64;
        input.backlog = self.pending.iter().filter(|p| p.deferred > 0).count() as u64;
        input.live = (self.system.be_apps().len() + self.system.gr_apps().len()) as u64;
        let sample = monitor.tick(t, &input);
        trace.counter("service.monitor_ticks", 1);
        monitor.publish(&sample, trace);
    }

    /// The owned scheduling system (read-only).
    pub fn system(&self) -> &SparcleSystem {
        &self.system
    }

    /// The last committed state snapshot the read path serves from.
    pub fn snapshot(&self) -> &StateSnapshot {
        &self.snapshot
    }

    /// The SLO ledger charged with sheds, deferrals, and admissions.
    pub fn ledger(&self) -> &SloLedger {
        &self.ledger
    }

    /// Decision counters of the run so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Sim-time waits (arrival → decision) of every served decision, in
    /// decision order. Shed requests are excluded.
    pub fn decision_waits(&self) -> &[f64] {
        &self.decision_waits
    }

    /// Nearest-rank quantile of the decision waits (`NaN` when no
    /// decision was served). `q` is clamped to `[0, 1]`.
    pub fn decision_wait_quantile(&self, q: f64) -> f64 {
        if self.decision_waits.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.decision_waits.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// The request's class label and shedding rank (GR outranks every BE).
fn class_and_rank(app: &Application) -> (&'static str, f64) {
    match app.qoe() {
        QoeClass::GuaranteedRate { .. } => ("gr", f64::INFINITY),
        QoeClass::BestEffort { priority, .. } => ("be", *priority),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, ResourceVec, TaskGraphBuilder};

    fn work(warm: u64, cold: u64, sweeps: u64) -> StateStats {
        StateStats {
            inner_iters_warm: warm,
            inner_iters_cold: cold,
            gamma_cache_misses: sweeps,
            ..StateStats::default()
        }
    }

    #[test]
    fn zero_work_charges_nothing() {
        for stats in [StateStats::default(), work(40, 7, 12)] {
            assert_eq!(writer_busy_s(&stats, &stats), 0.0);
        }
    }

    #[test]
    fn charge_is_monotone_in_each_count() {
        let base = work(40, 7, 12);
        let charge = writer_busy_s(&StateStats::default(), &base);
        for more in [work(41, 7, 12), work(40, 8, 12), work(40, 7, 13)] {
            assert!(writer_busy_s(&StateStats::default(), &more) > charge);
        }
        // Work the clock does not price leaves the charge unchanged.
        let other = StateStats {
            solves: 3,
            gamma_cache_hits: 9,
            ..base.clone()
        };
        assert_eq!(writer_busy_s(&StateStats::default(), &other), charge);
    }

    #[test]
    fn a_batch_holds_the_writer_for_its_counted_work() {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(50.0));
        let leaf = nb.add_ncp("leaf", ResourceVec::cpu(100.0));
        nb.add_link("l", hub, leaf, 500.0).unwrap();
        let source = |_| {
            let mut tb = TaskGraphBuilder::new();
            let s = tb.add_ct("s", ResourceVec::new());
            let w = tb.add_ct("w", ResourceVec::cpu(10.0));
            let t = tb.add_ct("t", ResourceVec::new());
            tb.add_tt("sw", s, w, 50.0).unwrap();
            tb.add_tt("wt", w, t, 5.0).unwrap();
            let pins = [(s, NcpId::new(0)), (t, NcpId::new(0))];
            Application::new(tb.build().unwrap(), QoeClass::best_effort(1.0), pins).unwrap()
        };
        let mut service =
            AdmissionService::new(nb.build().unwrap(), ServiceConfig::default(), source);
        service.run((0..2).map(|index| ServiceRequest {
            time: 0.5,
            index,
            kind: RequestKind::Admit,
        }));
        assert_eq!(service.stats().batches, 1);
        let stats = service.system().state_stats();
        assert!(
            stats.inner_iters_warm + stats.inner_iters_cold > 0 && stats.gamma_cache_misses > 0
        );
        let formula = STEP_S * (stats.inner_iters_warm + stats.inner_iters_cold) as f64
            + SWEEP_S * stats.gamma_cache_misses as f64;
        // The one batch commits at the first boundary, t = 1.
        assert_eq!(service.writer_free_at, 1.0 + formula);
    }
}
