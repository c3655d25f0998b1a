//! The admission service plane on the runtime's queue (DESIGN.md §13):
//! the [`AdmissionService`] facade, the plane's state and its handlers.
//! The handlers are an `impl Timeline` block because the plane's window
//! closes are events on the runtime's queue and its batches commit to
//! the runtime's system, ledger and monitor; the facade calls the source
//! and hands each handler its application.

use std::collections::VecDeque;
use std::sync::Arc;

use sparcle_core::telemetry::Event;
use sparcle_core::{
    Admission, AssignError, DynamicRankingAssigner, EngineScratch, RejectCause, ShedCause,
    SparcleSystem, StateSnapshot, StateStats, TraceHandle, DEFER_WRITER_BUSY, MIN_PATH_RATE,
};
use sparcle_model::{Application, CapacityMap, Network, QoeClass};
use sparcle_workloads::{RequestKind, ServiceRequest};

use super::{ChurnEvent, RuntimeConfig, SparcleRuntime, Timeline};
use crate::ledger::SloLedger;
use crate::service::{ServiceConfig, ServiceStats};

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

/// A queued placement request awaiting its batch window.
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

/// The service plane's state on the runtime: the ingest queue, the
/// writer clock, the read snapshot and the decision counters.
pub(super) struct ServicePlane {
    config: ServiceConfig,
    /// Immutable read view, refreshed only after each commit.
    snapshot: StateSnapshot,
    /// Dedicated assigner for probes so reads never touch the writer's
    /// γ-cache state.
    probe_assigner: DynamicRankingAssigner,
    /// The probe assigner's engine buffers, kept warm across probes (the
    /// engine retires trees and host orders on entry, so only capacity
    /// carries over).
    probe_scratch: EngineScratch,
    /// A BE probe's eq. (6) prediction, refilled by every BE probe
    /// before it is read; starts empty.
    predicted: CapacityMap,
    stats: ServiceStats,
    decision_waits: Vec<f64>,
    pending: VecDeque<Pending>,
    writer_free_at: f64,
    /// Windows closed so far; window `k` spans
    /// `[k × batch_window, (k + 1) × batch_window)` and closes at its end.
    windows_closed: u64,
    shed_since_batch: u64,
    /// Id of the last committed `service_batch` event — the cause of any
    /// deferral its writer-busy tail forces; 0 before the first commit
    /// or when untraced.
    last_batch_id: u64,
}

impl ServicePlane {
    /// The window a submission at `t` into an empty ingest queue waits
    /// for: the one holding `t` — the last `k` whose boundary `k · w` is
    /// at or before `t` — but never one already closed. The quotient and
    /// the boundary product round separately, so step to exact
    /// boundaries.
    fn window_for(&self, t: f64) -> u64 {
        let w = self.config.batch_window;
        let mut k = (t / w).floor() as u64;
        while k > 0 && k as f64 * w > t {
            k -= 1;
        }
        while (k + 1) as f64 * w <= t {
            k += 1;
        }
        k.max(self.windows_closed)
    }

    /// When `window` closes: its end boundary, from the integer index.
    fn close_time(&self, window: u64) -> f64 {
        (window + 1) as f64 * self.config.batch_window
    }
}

/// The admission service: a [`SparcleSystem`] behind an ingest queue,
/// a micro-batch writer, and a snapshot read path — a
/// [`SparcleRuntime`] whose event queue carries only the plane's window
/// closes.
///
/// `source` materializes the application for a request index — the
/// service is workload-agnostic; [`sparcle_workloads::RequestStream`]
/// supplies *when* requests arrive, the source supplies *what* arrives.
pub struct AdmissionService<F: FnMut(u64) -> Application> {
    runtime: SparcleRuntime<F>,
}

impl<F: FnMut(u64) -> Application> std::fmt::Debug for AdmissionService<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let plane = self.plane();
        f.debug_struct("AdmissionService")
            .field("config", &plane.config)
            .field("stats", &plane.stats)
            .field("pending", &plane.pending.len())
            .field("writer_free_at", &plane.writer_free_at)
            .field("windows_closed", &plane.windows_closed)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64) -> Application> AdmissionService<F> {
    /// Creates a service over `network` whose requests are materialized
    /// by `source`: a runtime that schedules no churn (no arrivals,
    /// element transitions, fluctuation, defrag or monitor ticks) and
    /// has no horizon. The monitor, when configured, ticks at every
    /// window close.
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
        let runtime_config = RuntimeConfig {
            horizon: f64::INFINITY,
            monitor: config.monitor.clone(),
            system: config.system.clone(),
            ..RuntimeConfig::default()
        };
        let mut timeline = Timeline::assemble(network, runtime_config);
        timeline.service = Some(ServicePlane {
            probe_assigner: DynamicRankingAssigner::with_threads(config.system.assigner_threads),
            probe_scratch: EngineScratch::default(),
            snapshot: timeline.system.snapshot(),
            predicted: CapacityMap::default(),
            config,
            stats: ServiceStats::default(),
            decision_waits: Vec::new(),
            pending: VecDeque::new(),
            writer_free_at: 0.0,
            windows_closed: 0,
            shed_since_batch: 0,
            last_batch_id: 0,
        });
        AdmissionService {
            runtime: SparcleRuntime { timeline, source },
        }
    }

    fn plane(&self) -> &ServicePlane {
        self.runtime
            .timeline
            .service
            .as_ref()
            .expect("built by `new`")
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
        let before = (
            self.stats().counters(),
            self.system().state_stats().counters(),
        );
        let SparcleRuntime { timeline, source } = &mut self.runtime;
        for request in requests {
            // Every boundary at or before the request closes first, so
            // a request due exactly on one joins the next window.
            timeline.run_until(request.time, source, trace);
            let app = source(request.index);
            match request.kind {
                RequestKind::Admit => timeline.enqueue(request, app, trace),
                RequestKind::Probe => timeline.probe(request, app, trace),
            }
        }
        // Past the stream: deferred windows eventually pass
        // `writer_free_at`, and the last close leaves the queue empty.
        timeline.run_until(f64::INFINITY, source, trace);
        let now = (
            self.stats().counters(),
            self.system().state_stats().counters(),
        );
        let service = now.0.into_iter().zip(before.0);
        for ((name, now), (_, before)) in service.chain(now.1.into_iter().zip(before.1)) {
            trace.counter(name, now - before);
        }
    }

    /// The owned scheduling system (read-only).
    pub fn system(&self) -> &SparcleSystem {
        self.runtime.system()
    }

    /// The last committed state snapshot the read path serves from.
    pub fn snapshot(&self) -> &StateSnapshot {
        &self.plane().snapshot
    }

    /// The SLO ledger charged with sheds, deferrals, and admissions.
    pub fn ledger(&self) -> &SloLedger {
        self.runtime.ledger()
    }

    /// Decision counters of the run so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.plane().stats
    }

    /// Sim-time waits (arrival → decision) of every served decision, in
    /// decision order. Shed requests are excluded.
    pub fn decision_waits(&self) -> &[f64] {
        &self.plane().decision_waits
    }

    /// Nearest-rank quantile of the decision waits (`NaN` when no
    /// decision was served). `q` is clamped to `[0, 1]`.
    pub fn decision_wait_quantile(&self, q: f64) -> f64 {
        if self.decision_waits().is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.decision_waits().to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

impl Timeline {
    /// Queues one submission, scheduling its window's close when the
    /// ingest queue was empty; on overflow sheds the lowest-ranked
    /// queued request (possibly the one that just arrived).
    fn enqueue(&mut self, request: ServiceRequest, app: Application, trace: TraceHandle<'_>) {
        let app = Arc::new(app);
        let (class, rank) = match app.qoe() {
            QoeClass::GuaranteedRate { .. } => ("gr", f64::INFINITY),
            QoeClass::BestEffort { priority, .. } => ("be", *priority),
        };
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
        let plane = self.service.as_mut().expect("a serving runtime");
        if plane.pending.is_empty() {
            let window = plane.window_for(request.time);
            self.queue
                .schedule(plane.close_time(window), ChurnEvent::WindowClose { window });
        }
        plane.pending.push_back(Pending {
            index: request.index,
            arrival: request.time,
            app,
            class,
            rank,
            deferred: 0,
            last_event: ingest_id,
        });
        if plane.pending.len() > plane.config.queue_capacity {
            let mut worst = 0;
            for (i, p) in plane.pending.iter().enumerate() {
                let w = &plane.pending[worst];
                if p.rank < w.rank || (p.rank == w.rank && p.index > w.index) {
                    worst = i;
                }
            }
            let victim = plane.pending.remove(worst).expect("index in range");
            self.shed(victim, request.time, ShedCause::QueueOverflow, trace);
        }
    }

    /// Answers a what-if probe from the immutable snapshot — never
    /// touches the writer's state, so it works mid-commit.
    fn probe(&mut self, request: ServiceRequest, app: Application, trace: TraceHandle<'_>) {
        let plane = self.service.as_mut().expect("a serving runtime");
        // BE probes see the predicted capacities an equal-priority
        // arrival would be admitted against (in the plane's buffer); GR
        // probes see the raw GR residual, borrowed from the snapshot,
        // exactly like the admission path.
        let capacities = match app.qoe() {
            QoeClass::BestEffort { priority, .. } => {
                plane.snapshot.predict_into(*priority, &mut plane.predicted);
                &plane.predicted
            }
            QoeClass::GuaranteedRate { .. } => plane.snapshot.gr_residual(),
        };
        let (feasible, rate) = match plane.probe_assigner.assign_scratch_with_stats(
            &mut plane.probe_scratch,
            &app,
            self.system.network(),
            capacities,
        ) {
            Ok((path, _)) => {
                let clears = path.rate.is_finite() && path.rate > MIN_PATH_RATE;
                let feasible = match app.qoe() {
                    QoeClass::GuaranteedRate { min_rate, .. } => clears && path.rate >= *min_rate,
                    QoeClass::BestEffort { .. } => clears,
                };
                (feasible, path.rate)
            }
            Err(_) => (false, 0.0),
        };
        plane.stats.probes += 1;
        if feasible {
            plane.stats.probes_feasible += 1;
        }
        if trace.is_enabled() {
            trace.event(&Event::ServiceProbe {
                time: request.time,
                request: request.index,
                lineage: request.index,
                feasible,
                rate,
            });
        }
    }

    /// Closes window `window` at its end `t`: defers it wholesale if the
    /// writer is still busy, otherwise commits one batched transaction.
    /// Schedules the next close while requests stay queued, then ticks
    /// the monitor.
    pub(super) fn on_window_close(&mut self, t: f64, window: u64, trace: TraceHandle<'_>) {
        let plane = self.service.as_mut().expect("a serving runtime");
        plane.windows_closed = window + 1;
        if plane.writer_free_at > t {
            // Backpressure: the previous solve is still running. Every
            // queued request is charged one deferral; requests past
            // their deferral budget are shed rather than parked again.
            plane.stats.windows_deferred += 1;
            plane.stats.deferrals += plane.pending.len() as u64;
            self.ledger.record_deferrals(plane.pending.len() as u64);
            if trace.is_enabled() {
                // Causes: the batch whose solve is still running, plus the
                // latest lineage event of every request it parks — so a
                // later shed still chains back to its ingest through this
                // deferral, which becomes their latest lineage event.
                let mut causes: Vec<u64> = Vec::with_capacity(plane.pending.len() + 1);
                if plane.last_batch_id != 0 {
                    causes.push(plane.last_batch_id);
                }
                causes.extend(
                    plane
                        .pending
                        .iter()
                        .map(|p| p.last_event)
                        .filter(|&c| c != 0),
                );
                causes.sort_unstable();
                causes.dedup();
                let defer_id = trace.event_caused(
                    &Event::ServiceDefer {
                        time: t,
                        window,
                        queue_depth: plane.pending.len() as u64,
                        writer_free: plane.writer_free_at,
                        cause: DEFER_WRITER_BUSY,
                    },
                    &causes,
                );
                if defer_id != 0 {
                    for p in plane.pending.iter_mut() {
                        p.last_event = defer_id;
                    }
                }
            }
            let budget = plane.config.max_defer_windows;
            let mut kept = VecDeque::with_capacity(plane.pending.len());
            let mut over: Vec<Pending> = Vec::new();
            for mut p in plane.pending.drain(..) {
                p.deferred += 1;
                if p.deferred > budget {
                    over.push(p);
                } else {
                    kept.push_back(p);
                }
            }
            plane.pending = kept;
            for victim in over {
                self.shed(victim, t, ShedCause::DeferBudget, trace);
            }
        } else {
            let take = plane.pending.len().min(plane.config.max_batch);
            let batch: Vec<Pending> = plane.pending.drain(..take).collect();
            let apps: Vec<Arc<Application>> = batch.iter().map(|p| Arc::clone(&p.app)).collect();

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
            plane.snapshot = self.system.snapshot();

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
                    window,
                    size: take as u64,
                    admitted,
                    rejected,
                    shed: plane.shed_since_batch,
                    queue_depth: plane.pending.len() as u64,
                    solves: batch_solves,
                })
            } else {
                0
            };

            for (p, outcome) in batch.iter().zip(&outcomes) {
                let wait = t - p.arrival;
                plane.decision_waits.push(wait);
                plane.stats.decisions += 1;
                let cause = match outcome {
                    Ok(Admission::Admitted(_)) => None,
                    Ok(Admission::Rejected(reason)) => Some(reason.cause_code()),
                    Err(_) => Some(RejectCause::SubmitError.code()),
                };
                self.ledger.record_arrival(cause.is_none());
                if let Some(cause) = cause {
                    self.ledger.record_rejection(cause);
                }
                if trace.is_enabled() {
                    let (outcome, rate) = match outcome {
                        Ok(Admission::Admitted(id)) => {
                            ("admitted", plane.snapshot.rate_of(*id).unwrap_or(0.0))
                        }
                        _ => ("rejected", 0.0),
                    };
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
            plane.stats.batches += 1;
            plane.stats.admitted += admitted;
            plane.stats.rejected += rejected;
            plane.writer_free_at = t + busy;
            plane.last_batch_id = batch_id;
            plane.shed_since_batch = 0;
        }
        let plane = self.service.as_ref().expect("a serving runtime");
        if !plane.pending.is_empty() {
            let next = window + 1;
            self.queue.schedule(
                plane.close_time(next),
                ChurnEvent::WindowClose { window: next },
            );
        }
        if self.monitor.is_some() {
            let depth = plane.pending.len() as u64;
            let backlog = plane.pending.iter().filter(|p| p.deferred > 0).count() as u64;
            self.tick_monitor(t, depth, backlog, trace);
            trace.counter("service.monitor_ticks", 1);
        }
    }

    /// Drops one request under backpressure, charging the ledger and
    /// attributing the shed to its cause code.
    fn shed(&mut self, victim: Pending, t: f64, cause: ShedCause, trace: TraceHandle<'_>) {
        let plane = self.service.as_mut().expect("a serving runtime");
        plane.stats.shed += 1;
        plane.shed_since_batch += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, ResourceVec, TaskGraphBuilder};
    use sparcle_workloads::RequestKind;

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
        assert_eq!(service.plane().writer_free_at, 1.0 + formula);
    }
}
