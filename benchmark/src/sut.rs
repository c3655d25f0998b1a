//! The system under test. Every call into the program goes through this
//! module, and the rest of the benchmark sees only the types it
//! re-exports.
//!
//! Configuration is `::default()` everywhere, plus `batch_window` for
//! the service and `defrag` for the runtime (the two settings the
//! workloads are defined by) and `assigner_threads` for the one check
//! that compares decisions across thread counts.

use crate::gen::{AppSpec, NetSpec, Qoe, Request};
use sparcle::alloc::{AvailabilityError, PathAvailability};
use sparcle::core::widest_path::{csr_widest_tree, CsrWidestTree};
use sparcle::core::{
    Admission, DynamicRankingAssigner, EngineScratch, SparcleSystem, SystemConfig, TraceHandle,
};
use sparcle::model::{
    AppId, LinkDirection, LoadMap, NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
};
use sparcle::runtime::{DefragConfig, RuntimeConfig, SparcleRuntime};
use sparcle::service::{AdmissionService, ServiceConfig};
use sparcle::workloads::{ArrivalEvent, RequestKind, ServiceRequest};
use sparcle_telemetry::{Event, Recorder};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

pub use sparcle::core::{AssignedPath, StateSnapshot};
pub use sparcle::model::{Application, CapacityMap, Network};

/// Layer `model`: builds the network from its spec.
pub fn build_network(spec: &NetSpec) -> Network {
    let mut b = NetworkBuilder::new();
    let ids: Vec<NcpId> = spec
        .ncp_cpu
        .iter()
        .enumerate()
        .map(|(i, &cpu)| b.add_ncp(format!("n{i}"), ResourceVec::cpu(cpu)))
        .collect();
    for (i, l) in spec.links.iter().enumerate() {
        b.add_link_full(
            format!("l{i}"),
            ids[l.a as usize],
            ids[l.b as usize],
            l.bandwidth,
            LinkDirection::Undirected,
            l.failure_probability,
        )
        .expect("generated links are valid");
    }
    b.build().expect("generated networks are valid")
}

/// Layer `model`: the first `csr()` builds and memoises the flat graph.
pub fn build_csr(network: &Network) {
    std::hint::black_box(network.csr());
}

/// Builds the pipeline application from its spec.
pub fn build_app(spec: &AppSpec) -> Application {
    let mut b = TaskGraphBuilder::new();
    let source = b.add_ct("source", ResourceVec::new());
    let mut prev = source;
    for (i, &cycles) in spec.cycles.iter().enumerate() {
        let ct = b.add_ct(format!("stage{i}"), ResourceVec::cpu(cycles));
        b.add_tt(format!("tt{i}"), prev, ct, spec.bits[i])
            .expect("generated hops are valid");
        prev = ct;
    }
    let sink = b.add_ct("sink", ResourceVec::new());
    b.add_tt("out", prev, sink, spec.bits[spec.cycles.len()])
        .expect("generated hops are valid");
    let qoe = match spec.qoe {
        Qoe::BestEffort { priority } => QoeClass::best_effort(priority),
        Qoe::GuaranteedRate {
            min_rate,
            availability,
        } => QoeClass::guaranteed_rate(min_rate, availability),
    };
    let pins = [
        (source, NcpId::new(spec.source)),
        (sink, NcpId::new(spec.sink)),
    ];
    Application::new(b.build().expect("generated graphs are valid"), qoe, pins)
        .expect("generated applications are valid")
}

/// What the system answered to one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted under `id` at the rate with these bits (BE: the rate the
    /// post-admission solve allocated; GR: the guaranteed rate).
    Admitted {
        id: u32,
        rate_bits: u64,
    },
    Rejected,
    /// `submit` returned `Err`: the request got no decision.
    Failed,
}

/// The state core's public work counters, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub solves: u64,
    pub warm_solves: u64,
    pub cold_solves: u64,
    pub warm_iters: u64,
    pub solve_nanos: u64,
    pub residual_updates: u64,
    pub commits: u64,
    pub rollbacks: u64,
    pub gamma_hits: u64,
    pub gamma_misses: u64,
}

impl Counters {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            solves: self.solves - earlier.solves,
            warm_solves: self.warm_solves - earlier.warm_solves,
            cold_solves: self.cold_solves - earlier.cold_solves,
            warm_iters: self.warm_iters - earlier.warm_iters,
            solve_nanos: self.solve_nanos - earlier.solve_nanos,
            residual_updates: self.residual_updates - earlier.residual_updates,
            commits: self.commits - earlier.commits,
            rollbacks: self.rollbacks - earlier.rollbacks,
            gamma_hits: self.gamma_hits - earlier.gamma_hits,
            gamma_misses: self.gamma_misses - earlier.gamma_misses,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: &Counters) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.warm_iters += other.warm_iters;
        self.solve_nanos += other.solve_nanos;
        self.residual_updates += other.residual_updates;
        self.commits += other.commits;
        self.rollbacks += other.rollbacks;
        self.gamma_hits += other.gamma_hits;
        self.gamma_misses += other.gamma_misses;
    }
}

/// Read-only view of a scheduling system, whoever owns it.
#[derive(Clone, Copy)]
pub struct View<'a>(&'a SparcleSystem);

impl View<'_> {
    pub fn counters(&self) -> Counters {
        let s = self.0.state_stats();
        Counters {
            solves: s.solves,
            warm_solves: s.warm_solves,
            cold_solves: s.cold_solves,
            warm_iters: s.inner_iters_warm,
            solve_nanos: s.solve_nanos,
            residual_updates: s.residual_element_updates,
            commits: s.txn_commits,
            rollbacks: s.txn_rollbacks,
            gamma_hits: s.gamma_cache_hits,
            gamma_misses: s.gamma_cache_misses,
        }
    }

    pub fn network(&self) -> &Network {
        self.0.network()
    }

    /// Σ GR reserved rate + Σ BE allocated rate over the live apps.
    pub fn delivered_rate(&self) -> f64 {
        let gr: f64 = self.0.gr_apps().iter().map(|a| a.reserved_rate()).sum();
        let be: f64 = self.0.be_apps().iter().map(|a| a.allocated_rate).sum();
        gr + be
    }

    /// Layer `core.snapshot`: captures the immutable read view.
    pub fn capture(&self) -> StateSnapshot {
        self.0.snapshot()
    }

    /// The rate a live application holds.
    fn rate_of(&self, id: AppId) -> f64 {
        if let Some(a) = self.0.be_apps().iter().rev().find(|a| a.id == id) {
            return a.allocated_rate;
        }
        let gr = self.0.gr_apps().iter().rev().find(|a| a.id == id);
        gr.map_or(0.0, |a| a.guaranteed_rate())
    }

    /// `(id, rate bits)` of every live application, GR first.
    pub fn live_rates(&self) -> Vec<(u32, u64)> {
        let gr = self.0.gr_apps().iter().map(|a| (a.id, a.guaranteed_rate()));
        let be = self.0.be_apps().iter().map(|a| (a.id, a.allocated_rate));
        gr.chain(be)
            .map(|(id, rate)| (id.as_u32(), rate.to_bits()))
            .collect()
    }

    /// Bits of the whole GR residual, to show a probe left it untouched.
    pub fn residual_bits(&self) -> Vec<u64> {
        let net = self.0.network();
        let residual = self.0.gr_residual();
        let ncps = net.ncp_ids().flat_map(|n| {
            residual
                .ncp(n)
                .iter()
                .map(|(_, a)| a.to_bits())
                .collect::<Vec<_>>()
        });
        let links = net.link_ids().map(|l| residual.link(l).to_bits());
        ncps.chain(links).collect()
    }

    /// Per-element capacity conservation over the live applications:
    /// the BE allocation fits the GR residual, and the residual is the
    /// capacity minus every GR reservation. `Err` names the violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        const TOLERANCE: f64 = 1e-6;
        let net = self.0.network();
        let residual = self.0.gr_residual();
        let mut be_load = LoadMap::zeroed(net);
        for a in self.0.be_apps() {
            if !(a.allocated_rate.is_finite() && a.allocated_rate > 0.0) {
                return Err(format!("BE app {:?} holds rate {}", a.id, a.allocated_rate));
            }
            be_load.merge_scaled(&a.combined_load, a.allocated_rate);
        }
        let headroom = residual.bottleneck_rate(&be_load);
        if headroom < 1.0 - TOLERANCE {
            return Err(format!(
                "BE allocation exceeds the GR residual: headroom factor {headroom}"
            ));
        }
        let mut expected = self.0.state().current_capacities().clone();
        for a in self.0.gr_apps() {
            for (path, reserved) in &a.paths {
                expected.subtract_load(&path.load, *reserved);
            }
        }
        for n in net.ncp_ids() {
            for (kind, amount) in expected.ncp(n).iter() {
                let got = residual.ncp(n).amount(kind);
                if (got - amount).abs() > TOLERANCE * amount.abs().max(1.0) {
                    return Err(format!("GR residual of {n:?}: {got}, expected {amount}"));
                }
            }
        }
        for l in net.link_ids() {
            let (got, amount) = (residual.link(l), expected.link(l));
            if (got - amount).abs() > TOLERANCE * amount.abs().max(1.0) {
                return Err(format!("GR residual of {l:?}: {got}, expected {amount}"));
            }
        }
        Ok(())
    }
}

/// A bare scheduling system, driven one call at a time (closed loop).
pub struct System(SparcleSystem);

impl System {
    pub fn new(network: Network) -> Self {
        System(SparcleSystem::with_config(network, SystemConfig::default()))
    }

    /// Only for the check that decisions do not depend on the γ
    /// evaluator's thread count.
    pub fn with_assigner_threads(network: Network, threads: usize) -> Self {
        System(SparcleSystem::with_config(
            network,
            SystemConfig {
                assigner_threads: threads,
                ..SystemConfig::default()
            },
        ))
    }

    pub fn view(&self) -> View<'_> {
        View(&self.0)
    }

    /// Layer `core.state`: one admission decision, committed.
    pub fn submit(&mut self, app: &Arc<Application>) -> Decision {
        match self.0.submit(Arc::clone(app)) {
            Ok(Admission::Admitted(id)) => Decision::Admitted {
                id: id.as_u32(),
                rate_bits: self.view().rate_of(id).to_bits(),
            },
            Ok(Admission::Rejected(_)) => Decision::Rejected,
            Err(_) => Decision::Failed,
        }
    }

    /// Layer `core.state`: one departure.
    pub fn remove(&mut self, id: u32) -> bool {
        self.0.remove(AppId::new(id))
    }

    /// Layer `core.state`: a what-if migration, `begin → migrate →
    /// rollback`, which must leave the state bit-equal. Returns whether
    /// the move would have landed.
    pub fn migrate_probe(&mut self, id: u32) -> bool {
        let mut txn = self.0.begin();
        let moved = txn.migrate(AppId::new(id)).is_some_and(|o| o.moved());
        txn.rollback();
        moved
    }
}

/// The capacities admission would search on for `app`: eq. (6)'s
/// prediction for a BE application, the raw GR residual for a GR one.
/// Layer `core.snapshot`.
pub fn predict(snapshot: &StateSnapshot, app: &Application) -> CapacityMap {
    match app.qoe() {
        QoeClass::BestEffort { priority, .. } => snapshot.predicted_capacities(*priority),
        QoeClass::GuaranteedRate { .. } => snapshot.gr_residual().clone(),
    }
}

/// Replays of single layers on the state a request is about to meet.
/// They use their own assigner and buffers, so the system under test is
/// not warmed or disturbed by them.
pub struct Replay {
    assigner: DynamicRankingAssigner,
    scratch: EngineScratch,
    tree: CsrWidestTree,
}

/// Exact work counts of one replayed assignment.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssignWork {
    pub rows_filled: u64,
    pub gamma_hits: u64,
}

impl Replay {
    pub fn new(network: &Network) -> Self {
        Replay {
            assigner: DynamicRankingAssigner::new(),
            scratch: EngineScratch::default(),
            tree: CsrWidestTree::new(network.ncp_count()),
        }
    }

    /// Layer `core.engine`: Algorithm 2 for `app` on `capacities`.
    pub fn assign(
        &mut self,
        network: &Network,
        app: &Application,
        capacities: &CapacityMap,
    ) -> Option<(AssignedPath, AssignWork)> {
        let (path, stats) = self
            .assigner
            .assign_scratch_with_stats(&mut self.scratch, app, network, capacities)
            .ok()?;
        let work = AssignWork {
            rows_filled: stats.cache_misses,
            gamma_hits: stats.cache_hits,
        };
        Some((path, work))
    }

    /// Layer `core.widest_path`: one full widest-path sweep towards the
    /// application's sink on `capacities`, for its last hop's bits.
    pub fn widest_tree(&mut self, network: &Network, app: &Application, capacities: &CapacityMap) {
        let graph = app.graph();
        let sink = graph.sinks()[0];
        let bits = graph.tt(graph.in_edges(sink)[0]).bits_per_unit();
        let target = app.pinned_host(sink).expect("sinks are pinned");
        csr_widest_tree(
            network.csr(),
            &mut self.tree,
            capacities,
            &LoadMap::zeroed(network),
            bits,
            target,
        );
        std::hint::black_box(self.tree.width_from(target));
    }
}

/// Layer `alloc.availability`: the analysis admission runs on a found
/// path. `Err(n)` when the path touches more distinct elements than the
/// analyser accepts.
pub fn availability(network: &Network, path: &AssignedPath) -> Result<f64, usize> {
    let mut analyser = PathAvailability::new();
    let too_many = |e| match e {
        AvailabilityError::TooManyElements(n) => n,
        other => panic!("availability analysis: {other}"),
    };
    analyser
        .add_path(network, path.placement.elements_used(network), path.rate)
        .map_err(too_many)?;
    analyser.any_working().map_err(too_many)
}

/// Wall-clock stamps of the program's telemetry events, taken as they
/// arrive. Installed only in traced runs.
#[derive(Debug)]
pub struct EventStamps {
    epoch: Instant,
    stamps: RefCell<Vec<Stamp>>,
}

/// One telemetry event: when it arrived, its kind, and for element
/// transitions how many applications it displaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    pub at_ns: u64,
    pub kind: &'static str,
    pub displaced: u64,
}

impl EventStamps {
    /// Stamps count nanoseconds from `epoch`.
    pub fn starting_at(epoch: Instant) -> Self {
        EventStamps {
            epoch,
            stamps: RefCell::new(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.stamps.borrow().len()
    }

    pub fn into_stamps(self) -> Vec<Stamp> {
        self.stamps.into_inner()
    }
}

impl Recorder for EventStamps {
    fn event_caused(&self, event: &Event, _causes: &[u64]) -> u64 {
        let displaced = match event {
            Event::RuntimeElementState { displaced, .. } => *displaced,
            _ => 0,
        };
        let mut stamps = self.stamps.borrow_mut();
        stamps.push(Stamp {
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            kind: event.kind(),
            displaced,
        });
        stamps.len() as u64
    }
}

fn trace_handle(stamps: Option<&EventStamps>) -> TraceHandle<'_> {
    match stamps {
        Some(s) => TraceHandle::new(s),
        None => TraceHandle::none(),
    }
}

/// Inputs of one churn run, beyond the network and the applications.
#[derive(Debug, Clone)]
pub struct ChurnInputs {
    /// Arrival times in simulated seconds, sorted.
    pub arrivals: Vec<f64>,
    pub horizon: f64,
    pub mean_hold: f64,
    pub failure_seed: u64,
    pub hold_seed: u64,
    pub defrag: bool,
    pub assigner_threads: usize,
}

/// What a churn run's ledger counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnOutcome {
    pub events: u64,
    pub arrivals: u64,
    pub admitted: u64,
    pub departures: u64,
    pub displacements: u64,
    pub reconciles: u64,
    pub migrations: u64,
    pub be_rate_integral_bits: u64,
    pub defrag_probes: u64,
}

/// The churn runtime: one batch job over a whole timeline.
pub struct Churn<F: FnMut(u64) -> Application>(SparcleRuntime<F>);

impl<F: FnMut(u64) -> Application> Churn<F> {
    /// Layer `runtime`: schedules every arrival and element transition.
    pub fn new(network: Network, inputs: &ChurnInputs, source: F) -> Self {
        let arrivals = inputs
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, &time)| ArrivalEvent {
                time,
                index: i as u64,
            });
        let config = RuntimeConfig {
            horizon: inputs.horizon,
            mean_hold: inputs.mean_hold,
            failure_seed: inputs.failure_seed,
            hold_seed: inputs.hold_seed,
            defrag: inputs.defrag.then(DefragConfig::default),
            system: SystemConfig {
                assigner_threads: inputs.assigner_threads,
                ..SystemConfig::default()
            },
            ..RuntimeConfig::default()
        };
        Churn(SparcleRuntime::new(network, arrivals, source, config))
    }

    /// Layer `runtime`: runs the timeline to the horizon.
    pub fn run(&mut self, stamps: Option<&EventStamps>) -> ChurnOutcome {
        self.0.run_traced(trace_handle(stamps));
        let ledger = self.0.ledger();
        ChurnOutcome {
            events: self.0.events_processed(),
            arrivals: ledger.arrivals(),
            admitted: ledger.admitted(),
            departures: ledger.departures(),
            displacements: ledger.displacements(),
            reconciles: ledger.reconciles(),
            migrations: ledger.migrations(),
            be_rate_integral_bits: ledger.be_rate_integral().to_bits(),
            defrag_probes: self.0.defrag().map_or(0, |d| d.probes()),
        }
    }

    pub fn view(&self) -> View<'_> {
        View(self.0.system())
    }

    /// Hands out the system the timeline ended in.
    pub fn into_system(self) -> System {
        System(self.0.into_system())
    }
}

/// What the admission service counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    pub batches: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub windows_deferred: u64,
    pub probes: u64,
}

/// The admission service: micro-batched writes, snapshot-served reads.
pub struct Service<F: FnMut(u64) -> Application>(AdmissionService<F>);

impl<F: FnMut(u64) -> Application> Service<F> {
    pub fn new(network: Network, batch_window: f64, assigner_threads: usize, source: F) -> Self {
        let config = ServiceConfig {
            batch_window,
            system: SystemConfig {
                assigner_threads,
                ..SystemConfig::default()
            },
            ..ServiceConfig::default()
        };
        Service(AdmissionService::new(network, config, source))
    }

    /// Layer `service`: hands over requests that have arrived; returns
    /// once each is decided (admits) or answered (probes).
    pub fn run(&mut self, requests: &[Request], stamps: Option<&EventStamps>) {
        let requests = requests.iter().map(|r| ServiceRequest {
            time: r.due,
            index: r.index,
            kind: if r.probe {
                RequestKind::Probe
            } else {
                RequestKind::Admit
            },
        });
        self.0.run_traced(requests, trace_handle(stamps));
    }

    pub fn counts(&self) -> ServiceCounts {
        let s = self.0.stats();
        ServiceCounts {
            batches: s.batches,
            admitted: s.admitted,
            rejected: s.rejected,
            shed: s.shed,
            windows_deferred: s.windows_deferred,
            probes: s.probes,
        }
    }

    pub fn view(&self) -> View<'_> {
        View(self.0.system())
    }

    /// The snapshot the read path currently serves from.
    pub fn snapshot(&self) -> &StateSnapshot {
        self.0.snapshot()
    }
}
