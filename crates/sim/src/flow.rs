//! Discrete-event queueing-network simulation of placed stream
//! processing applications.
//!
//! §IV-A models a placed application as a queueing network: each data
//! unit is a customer, each network element (NCP or link) is a FIFO
//! server, and the service time of task `i` on element `j` is
//! `max_r a_i^(r) / C_j^(r)` (CTs) or `a^(b) / C^(b)` (TTs, once per
//! route link). The stable input rate is bounded by the bottleneck
//! element — the very quantity Algorithm 2 maximizes.
//!
//! [`simulate_flows`] executes that queueing network faithfully —
//! fork/join DAG semantics, elements shared across applications, FIFO
//! service — and reports per-application throughput and latency. It is
//! the validation substrate: the measured saturated throughput must
//! match the analytic bottleneck rate, and offered loads below the
//! bottleneck must be delivered in full.

use crate::des::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::telemetry::Event;
use sparcle_core::TraceHandle;
use sparcle_model::{CtId, Network, NetworkElement, Placement, TaskGraph, TtId};
use std::collections::HashMap;

/// Queue-depth samples taken over the horizon while tracing.
const QUEUE_SAMPLES: u32 = 64;
/// Buckets of the per-app delivery-rate timeline while tracing.
const RATE_BUCKETS: usize = 16;

/// How data units are injected at the sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Constant inter-arrival time `1 / rate`.
    Deterministic,
    /// Exponential inter-arrival times (Poisson stream), seeded.
    Poisson {
        /// RNG seed; simulations are reproducible per seed.
        seed: u64,
    },
}

/// One application instance offered to the simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimApp<'a> {
    /// The application's task graph.
    pub graph: &'a TaskGraph,
    /// A complete, validated placement of that graph.
    pub placement: &'a Placement,
    /// Offered input rate in data units per second.
    pub rate: f64,
}

/// Simulation horizon and measurement window.
#[derive(Debug, Clone, Copy)]
pub struct FlowSimConfig {
    /// Total simulated seconds.
    pub duration: f64,
    /// Initial seconds excluded from throughput/latency statistics.
    pub warmup: f64,
    /// Arrival process at the sources.
    pub arrivals: ArrivalProcess,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            duration: 200.0,
            warmup: 20.0,
            arrivals: ArrivalProcess::Deterministic,
        }
    }
}

/// Aggregate, per-element results of a flow simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementStats {
    /// Busy-time fraction of each NCP over the horizon.
    pub ncp_utilization: Vec<f64>,
    /// Busy-time fraction of each link over the horizon.
    pub link_utilization: Vec<f64>,
}

impl ElementStats {
    /// The most-utilized element and its utilization, if any work ran.
    pub fn bottleneck(&self) -> Option<(NetworkElement, f64)> {
        let mut best: Option<(NetworkElement, f64)> = None;
        for (i, &u) in self.ncp_utilization.iter().enumerate() {
            if best.map_or(u > 0.0, |(_, b)| u > b) {
                best = Some((NetworkElement::Ncp(sparcle_model::NcpId::new(i as u32)), u));
            }
        }
        for (i, &u) in self.link_utilization.iter().enumerate() {
            if best.map_or(u > 0.0, |(_, b)| u > b) {
                best = Some((
                    NetworkElement::Link(sparcle_model::LinkId::new(i as u32)),
                    u,
                ));
            }
        }
        best
    }
}

/// Per-application results of a flow simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFlowStats {
    /// Units injected over the whole run.
    pub generated: u64,
    /// Units fully delivered (every sink reached) inside the
    /// measurement window.
    pub delivered: u64,
    /// Delivered units per second of measurement window.
    pub throughput: f64,
    /// Mean end-to-end latency of measured deliveries (seconds);
    /// `NaN` when nothing was delivered.
    pub mean_latency: f64,
    /// Maximum end-to-end latency of measured deliveries.
    pub max_latency: f64,
    /// Units still inside the network when the horizon ended.
    pub in_flight: u64,
}

/// A task processing step flowing through the simulator.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// CT service finished on its host.
    CtDone { app: usize, unit: u64, ct: CtId },
    /// One link hop of a TT finished.
    HopDone {
        app: usize,
        unit: u64,
        tt: TtId,
        hop: usize,
    },
    /// Inject the next data unit of an application.
    Generate { app: usize },
}

/// Runs the queueing-network simulation.
///
/// # Panics
///
/// Panics if a placement is incomplete (validate with
/// [`Placement::validate`] first) or rates are negative.
pub fn simulate_flows(
    network: &Network,
    apps: &[SimApp<'_>],
    config: &FlowSimConfig,
) -> Vec<AppFlowStats> {
    simulate_flows_with_elements(network, apps, config).0
}

/// Like [`simulate_flows`], additionally returning per-element busy-time
/// utilizations (useful for locating the simulated bottleneck).
///
/// # Panics
///
/// Same as [`simulate_flows`].
pub fn simulate_flows_with_elements(
    network: &Network,
    apps: &[SimApp<'_>],
    config: &FlowSimConfig,
) -> (Vec<AppFlowStats>, ElementStats) {
    simulate_flows_traced(network, apps, config, TraceHandle::none())
}

/// Like [`simulate_flows_with_elements`], recording telemetry into
/// `trace`: periodic `sim_queue_depth` samples, a per-app
/// `sim_app_rate` delivery timeline, and step/unit counters. All
/// emitted events are deterministic functions of the inputs (and the
/// arrival seed), so traces are byte-identical across runs.
///
/// # Panics
///
/// Same as [`simulate_flows`].
pub fn simulate_flows_traced(
    network: &Network,
    apps: &[SimApp<'_>],
    config: &FlowSimConfig,
    trace: TraceHandle<'_>,
) -> (Vec<AppFlowStats>, ElementStats) {
    for app in apps {
        assert!(app.rate >= 0.0, "offered rate must be non-negative");
        assert!(
            app.placement.is_complete(),
            "placements must be complete before simulation"
        );
    }
    let mut sim = FlowSim::new(network, apps, config, trace);
    // One span over the whole DES loop: per-event spans would dominate
    // the event loop's cost, so attribution stays at simulation
    // granularity (see DESIGN.md §9).
    let span = trace.span("sim.flow");
    sim.run();
    span.finish();
    sim.finish()
}

/// Index of an element in the flat busy-time table.
fn element_slot(network: &Network, element: NetworkElement) -> usize {
    match element {
        NetworkElement::Ncp(id) => id.index(),
        NetworkElement::Link(id) => network.ncp_count() + id.index(),
    }
}

struct FlowSim<'a> {
    network: &'a Network,
    apps: &'a [SimApp<'a>],
    config: &'a FlowSimConfig,
    queue: EventQueue<Step>,
    /// FIFO frontier per element: earliest time new work can start.
    busy_until: Vec<f64>,
    /// Accumulated service time per element (within the horizon).
    busy_time: Vec<f64>,
    /// Next unit id per app.
    next_unit: Vec<u64>,
    /// Birth time per (app, unit).
    birth: HashMap<(usize, u64), f64>,
    /// Remaining undelivered in-edges per (app, unit, ct).
    waiting_inputs: HashMap<(usize, u64, u32), usize>,
    /// Remaining sinks per (app, unit).
    waiting_sinks: HashMap<(usize, u64), usize>,
    rng: Option<StdRng>,
    // Statistics.
    generated: Vec<u64>,
    delivered: Vec<u64>,
    latency_sum: Vec<f64>,
    latency_max: Vec<f64>,
    completed_total: Vec<u64>,
    // Telemetry (inert when no recorder is attached).
    trace: TraceHandle<'a>,
    /// Events popped from the queue so far.
    processed: u64,
    /// Next queue-depth sample time (`∞` when tracing is off).
    next_sample: f64,
    /// Popped step counts: `[Generate, CtDone, HopDone]`.
    step_counts: [u64; 3],
    /// Delivered units per (app, timeline bucket) inside the window.
    bucket_delivered: Vec<Vec<u64>>,
}

impl<'a> FlowSim<'a> {
    fn new(
        network: &'a Network,
        apps: &'a [SimApp<'a>],
        config: &'a FlowSimConfig,
        trace: TraceHandle<'a>,
    ) -> Self {
        let slots = network.ncp_count() + network.link_count();
        let rng = match config.arrivals {
            ArrivalProcess::Poisson { seed } => Some(StdRng::seed_from_u64(seed)),
            ArrivalProcess::Deterministic => None,
        };
        let mut sim = FlowSim {
            network,
            apps,
            config,
            queue: EventQueue::new(),
            busy_until: vec![0.0; slots],
            busy_time: vec![0.0; slots],
            next_unit: vec![0; apps.len()],
            birth: HashMap::new(),
            waiting_inputs: HashMap::new(),
            waiting_sinks: HashMap::new(),
            rng,
            generated: vec![0; apps.len()],
            delivered: vec![0; apps.len()],
            latency_sum: vec![0.0; apps.len()],
            latency_max: vec![0.0; apps.len()],
            completed_total: vec![0; apps.len()],
            trace,
            processed: 0,
            next_sample: if trace.is_enabled() {
                0.0
            } else {
                f64::INFINITY
            },
            step_counts: [0; 3],
            bucket_delivered: if trace.is_enabled() {
                vec![vec![0; RATE_BUCKETS]; apps.len()]
            } else {
                Vec::new()
            },
        };
        for (i, app) in apps.iter().enumerate() {
            if app.rate > 0.0 {
                let first = sim.interarrival(i);
                sim.queue.schedule(first, Step::Generate { app: i });
            }
        }
        sim
    }

    fn interarrival(&mut self, app: usize) -> f64 {
        let mean = 1.0 / self.apps[app].rate;
        match &mut self.rng {
            Some(rng) => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                self.queue.now() + mean * (-u.ln())
            }
            None => self.queue.now() + mean,
        }
    }

    /// Enqueues FIFO service on `element` and returns the finish time.
    fn serve(&mut self, element: NetworkElement, arrive: f64, service: f64) -> f64 {
        let slot = element_slot(self.network, element);
        let start = self.busy_until[slot].max(arrive);
        let finish = start + service;
        self.busy_until[slot] = finish;
        // Count only the in-horizon portion toward utilization.
        let clipped_end = finish.min(self.config.duration);
        if clipped_end > start {
            self.busy_time[slot] += clipped_end - start;
        }
        finish
    }

    fn ct_service_time(&self, app: usize, ct: CtId) -> f64 {
        let a = self.apps[app];
        let req = a.graph.ct(ct).requirement();
        if req.is_zero() {
            return 0.0;
        }
        let host = a.placement.ct_host(ct).expect("complete placement");
        match self.network.ncp(host).capacity().rate_supported(req) {
            Some(rate) if rate > 0.0 => 1.0 / rate,
            _ => f64::INFINITY,
        }
    }

    /// Starts CT service for a unit whose inputs are all present.
    fn start_ct(&mut self, now: f64, app: usize, unit: u64, ct: CtId) {
        let host = self.apps[app].placement.ct_host(ct).expect("complete");
        let service = self.ct_service_time(app, ct);
        if !service.is_finite() {
            // The host cannot process this task at all: the unit stalls
            // forever (counts as in-flight).
            return;
        }
        let finish = self.serve(NetworkElement::Ncp(host), now, service);
        self.queue.schedule(finish, Step::CtDone { app, unit, ct });
    }

    /// Delivers a TT's payload into its downstream CT (join logic).
    fn deliver_to(&mut self, now: f64, app: usize, unit: u64, ct: CtId) {
        let key = (app, unit, ct.as_u32());
        let remaining = self
            .waiting_inputs
            .entry(key)
            .or_insert_with(|| self.apps[app].graph.in_edges(ct).len());
        *remaining -= 1;
        if *remaining == 0 {
            self.waiting_inputs.remove(&key);
            self.start_ct(now, app, unit, ct);
        }
    }

    fn on_ct_done(&mut self, now: f64, app: usize, unit: u64, ct: CtId) {
        let graph = self.apps[app].graph;
        if graph.out_edges(ct).is_empty() {
            // A sink finished: the unit completes when all sinks have.
            let key = (app, unit);
            let remaining = self
                .waiting_sinks
                .entry(key)
                .or_insert_with(|| graph.sinks().len());
            *remaining -= 1;
            if *remaining == 0 {
                self.waiting_sinks.remove(&key);
                self.complete_unit(now, app, unit);
            }
            return;
        }
        for &tt in graph.out_edges(ct) {
            self.advance_tt(now, app, unit, tt, 0);
        }
    }

    /// Sends a TT through hop `hop` of its route (or delivers if past the
    /// last hop / the route is local).
    fn advance_tt(&mut self, now: f64, app: usize, unit: u64, tt: TtId, hop: usize) {
        let a = self.apps[app];
        let route = a.placement.tt_route(tt).expect("complete placement");
        if hop >= route.len() {
            self.deliver_to(now, app, unit, a.graph.tt(tt).to());
            return;
        }
        let link = route[hop];
        let bits = a.graph.tt(tt).bits_per_unit();
        let bw = self.network.link(link).bandwidth();
        let service = if bits <= 0.0 {
            0.0
        } else if bw > 0.0 {
            bits / bw
        } else {
            return; // dead link: unit stalls, stays in flight
        };
        let finish = self.serve(NetworkElement::Link(link), now, service);
        self.queue
            .schedule(finish, Step::HopDone { app, unit, tt, hop });
    }

    fn complete_unit(&mut self, now: f64, app: usize, unit: u64) {
        let birth = self
            .birth
            .remove(&(app, unit))
            .expect("unit has a birth time");
        self.completed_total[app] += 1;
        if birth >= self.config.warmup {
            self.delivered[app] += 1;
            let latency = now - birth;
            self.latency_sum[app] += latency;
            self.latency_max[app] = self.latency_max[app].max(latency);
            if self.trace.is_enabled() {
                let b = ((now - self.config.warmup) / self.bucket_width()) as usize;
                self.bucket_delivered[app][b.min(RATE_BUCKETS - 1)] += 1;
            }
        }
    }

    /// Width of one delivery-timeline bucket (simulated seconds).
    fn bucket_width(&self) -> f64 {
        let window = (self.config.duration - self.config.warmup).max(f64::MIN_POSITIVE);
        window / RATE_BUCKETS as f64
    }

    /// Emits a queue-depth sample and advances the sampling clock.
    fn sample_queue_depth(&mut self, now: f64) {
        self.trace.event(&Event::SimQueueDepth {
            time: now,
            depth: self.queue.len() as u64,
            processed: self.processed,
        });
        self.trace
            .timing("sim.queue_depth", self.queue.len() as u64);
        let every = (self.config.duration / f64::from(QUEUE_SAMPLES)).max(f64::MIN_POSITIVE);
        while self.next_sample <= now {
            self.next_sample += every;
        }
    }

    /// Emits the delivery-rate timeline and the run counters.
    fn flush_trace(&self) {
        if !self.trace.is_enabled() {
            return;
        }
        let width = self.bucket_width();
        for (app, buckets) in self.bucket_delivered.iter().enumerate() {
            for (b, &count) in buckets.iter().enumerate() {
                self.trace.event(&Event::SimAppRate {
                    time: self.config.warmup + (b + 1) as f64 * width,
                    app: app as u32,
                    rate: count as f64 / width,
                });
            }
        }
        self.trace
            .counter("sim.steps.generate", self.step_counts[0]);
        self.trace.counter("sim.steps.ct_done", self.step_counts[1]);
        self.trace
            .counter("sim.steps.hop_done", self.step_counts[2]);
        self.trace.counter("sim.events.processed", self.processed);
        self.trace
            .counter("sim.units.generated", self.generated.iter().sum());
        self.trace
            .counter("sim.units.delivered", self.delivered.iter().sum());
    }

    fn on_generate(&mut self, now: f64, app: usize) {
        if now > self.config.duration {
            return;
        }
        let unit = self.next_unit[app];
        self.next_unit[app] += 1;
        self.generated[app] += 1;
        self.birth.insert((app, unit), now);
        // Emit at every source CT simultaneously.
        let sources: Vec<CtId> = self.apps[app].graph.sources().to_vec();
        for ct in sources {
            self.start_ct(now, app, unit, ct);
        }
        let next = self.interarrival(app);
        if next <= self.config.duration {
            self.queue.schedule(next, Step::Generate { app });
        }
    }

    fn run(&mut self) {
        while let Some((now, step)) = self.queue.pop() {
            if now > self.config.duration {
                // Work past the horizon never counts; stop here so
                // `in_flight` reflects the backlog at the horizon.
                break;
            }
            self.processed += 1;
            if now >= self.next_sample {
                self.sample_queue_depth(now);
            }
            match step {
                Step::Generate { app } => {
                    self.step_counts[0] += 1;
                    self.on_generate(now, app)
                }
                Step::CtDone { app, unit, ct } => {
                    self.step_counts[1] += 1;
                    self.on_ct_done(now, app, unit, ct)
                }
                Step::HopDone { app, unit, tt, hop } => {
                    self.step_counts[2] += 1;
                    self.advance_tt(now, app, unit, tt, hop + 1)
                }
            }
        }
    }

    fn finish(self) -> (Vec<AppFlowStats>, ElementStats) {
        self.flush_trace();
        let window = (self.config.duration - self.config.warmup).max(f64::MIN_POSITIVE);
        let apps = (0..self.apps.len())
            .map(|i| AppFlowStats {
                generated: self.generated[i],
                delivered: self.delivered[i],
                throughput: self.delivered[i] as f64 / window,
                mean_latency: if self.delivered[i] > 0 {
                    self.latency_sum[i] / self.delivered[i] as f64
                } else {
                    f64::NAN
                },
                max_latency: self.latency_max[i],
                in_flight: self.generated[i] - self.completed_total[i],
            })
            .collect();
        let horizon = self.config.duration.max(f64::MIN_POSITIVE);
        let n = self.network.ncp_count();
        let elements = ElementStats {
            ncp_utilization: self.busy_time[..n].iter().map(|&b| b / horizon).collect(),
            link_utilization: self.busy_time[n..].iter().map(|&b| b / horizon).collect(),
        };
        (apps, elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{LinkId, NetworkBuilder, Placement, ResourceVec, TaskGraphBuilder};

    /// source → work → sink placed across a two-node network.
    fn fixture() -> (TaskGraph, Network, Placement, f64) {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(10.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, 20.0).unwrap();
        tb.add_tt("wt", w, t, 2.0).unwrap();
        let graph = tb.build().unwrap();
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(50.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
        nb.add_link("ab", a, b, 100.0).unwrap();
        let net = nb.build().unwrap();
        let mut p = Placement::empty(&graph);
        p.place_ct(s, a);
        p.place_ct(w, b);
        p.place_ct(t, a);
        p.route_tt(sparcle_model::TtId::new(0), vec![LinkId::new(0)]);
        p.route_tt(sparcle_model::TtId::new(1), vec![LinkId::new(0)]);
        p.validate(&graph, &net).unwrap();
        // Analytic bottleneck: link carries 20+2=22 bits → 100/22 ≈ 4.54;
        // NCP b: 100/10 = 10. Bottleneck = 100/22.
        let bottleneck = 100.0 / 22.0;
        (graph, net, p, bottleneck)
    }

    #[test]
    fn underload_is_delivered_in_full() {
        let (graph, net, placement, bottleneck) = fixture();
        let rate = 0.5 * bottleneck;
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate,
            }],
            &FlowSimConfig::default(),
        );
        let s = &stats[0];
        assert!(
            (s.throughput - rate).abs() / rate < 0.05,
            "throughput {} vs offered {rate}",
            s.throughput
        );
        assert!(s.mean_latency.is_finite());
        assert!(s.in_flight < 5, "in flight: {}", s.in_flight);
    }

    #[test]
    fn near_capacity_load_is_delivered_in_full() {
        let (graph, net, placement, bottleneck) = fixture();
        let rate = 0.9 * bottleneck;
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate,
            }],
            &FlowSimConfig::default(),
        );
        let s = &stats[0];
        assert!(
            (s.throughput - rate).abs() / rate < 0.05,
            "throughput {} vs offered {rate}",
            s.throughput
        );
    }

    #[test]
    fn overload_backlogs_and_never_exceeds_bottleneck() {
        // Past the stability frontier a FIFO pipeline backlogs (and
        // upstream stages starve downstream ones), so delivered
        // throughput stays at or below the analytic bottleneck — this
        // is why the emulator searches for the *stable* frontier.
        let (graph, net, placement, bottleneck) = fixture();
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate: 2.0 * bottleneck,
            }],
            &FlowSimConfig::default(),
        );
        let s = &stats[0];
        assert!(
            s.throughput <= bottleneck * 1.05,
            "throughput {} exceeded bottleneck {bottleneck}",
            s.throughput
        );
        // Queues grow under overload.
        assert!(s.in_flight > 10, "in flight: {}", s.in_flight);
    }

    #[test]
    fn poisson_arrivals_deliver_moderate_load() {
        let (graph, net, placement, bottleneck) = fixture();
        let rate = 0.7 * bottleneck;
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate,
            }],
            &FlowSimConfig {
                arrivals: ArrivalProcess::Poisson { seed: 9 },
                ..FlowSimConfig::default()
            },
        );
        let s = &stats[0];
        assert!(
            (s.throughput - rate).abs() / rate < 0.06,
            "throughput {} vs offered {rate}",
            s.throughput
        );
    }

    #[test]
    fn colocated_pipeline_shares_one_server() {
        // Both compute tasks on one NCP: the bottleneck is the summed
        // service.
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w1 = tb.add_ct("w1", ResourceVec::cpu(10.0));
        let w2 = tb.add_ct("w2", ResourceVec::cpu(30.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("a", s, w1, 0.0).unwrap();
        tb.add_tt("b", w1, w2, 0.0).unwrap();
        tb.add_tt("c", w2, t, 0.0).unwrap();
        let graph = tb.build().unwrap();
        let mut nb = NetworkBuilder::new();
        let only = nb.add_ncp("only", ResourceVec::cpu(100.0));
        let other = nb.add_ncp("other", ResourceVec::cpu(1.0));
        nb.add_link("l", only, other, 1.0).unwrap();
        let net = nb.build().unwrap();
        let mut p = Placement::empty(&graph);
        for ct in graph.ct_ids() {
            p.place_ct(ct, only);
        }
        for tt in graph.tt_ids() {
            p.route_tt(tt, vec![]);
        }
        // Bottleneck: 100/(10+30) = 2.5; offered 90 % of it.
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &p,
                rate: 2.25,
            }],
            &FlowSimConfig::default(),
        );
        assert!(
            (stats[0].throughput - 2.25).abs() < 0.1,
            "throughput {}",
            stats[0].throughput
        );
        // And overload never beats the bottleneck.
        let over = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &p,
                rate: 10.0,
            }],
            &FlowSimConfig::default(),
        );
        assert!(over[0].throughput <= 2.5 + 0.1);
    }

    #[test]
    fn diamond_join_waits_for_both_branches() {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let u = tb.add_ct("u", ResourceVec::cpu(1.0));
        let v = tb.add_ct("v", ResourceVec::cpu(5.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("su", s, u, 0.0).unwrap();
        tb.add_tt("sv", s, v, 0.0).unwrap();
        tb.add_tt("ut", u, t, 0.0).unwrap();
        tb.add_tt("vt", v, t, 0.0).unwrap();
        let graph = tb.build().unwrap();
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu(10.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(10.0));
        nb.add_link("xy", x, y, 1e6).unwrap();
        let net = nb.build().unwrap();
        let mut p = Placement::empty(&graph);
        p.place_ct(s, x);
        p.place_ct(u, x);
        p.place_ct(v, y);
        p.place_ct(t, x);
        p.route_tt(sparcle_model::TtId::new(0), vec![]);
        p.route_tt(sparcle_model::TtId::new(1), vec![LinkId::new(0)]);
        p.route_tt(sparcle_model::TtId::new(2), vec![]);
        p.route_tt(sparcle_model::TtId::new(3), vec![LinkId::new(0)]);
        p.validate(&graph, &net).unwrap();
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &p,
                rate: 1.0,
            }],
            &FlowSimConfig::default(),
        );
        // Slow branch v (5/10 = 0.5 s) dominates latency.
        assert!(stats[0].mean_latency >= 0.5 - 1e-9);
        assert!((stats[0].throughput - 1.0).abs() < 0.05);
    }

    #[test]
    fn two_apps_share_an_element_fifo() {
        let (graph, net, placement, bottleneck) = fixture();
        let each = 0.4 * bottleneck;
        let apps = [
            SimApp {
                graph: &graph,
                placement: &placement,
                rate: each,
            },
            SimApp {
                graph: &graph,
                placement: &placement,
                rate: each,
            },
        ];
        let stats = simulate_flows(&net, &apps, &FlowSimConfig::default());
        for s in &stats {
            assert!(
                (s.throughput - each).abs() / each < 0.06,
                "throughput {} vs {each}",
                s.throughput
            );
        }
    }

    #[test]
    fn utilization_matches_offered_load() {
        let (graph, net, placement, bottleneck) = fixture();
        let rate = 0.5 * bottleneck;
        let (_, elements) = simulate_flows_with_elements(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate,
            }],
            &FlowSimConfig::default(),
        );
        // Link service per unit = (20 + 2)/100 = 0.22 s; at rate
        // 0.5 × 100/22 the link is ~50 % busy.
        let link_util = elements.link_utilization[0];
        assert!(
            (link_util - 0.5).abs() < 0.05,
            "link utilization {link_util}"
        );
        // NCP b: 0.1 s per unit at ~2.27 units/s ⇒ ~22.7 % busy.
        let b_util = elements.ncp_utilization[1];
        assert!((b_util - 0.227).abs() < 0.05, "ncp utilization {b_util}");
        // The bottleneck finder points at the link.
        let (el, _) = elements.bottleneck().unwrap();
        assert_eq!(el, NetworkElement::Link(LinkId::new(0)));
    }

    #[test]
    fn zero_rate_app_is_inert() {
        let (graph, net, placement, _) = fixture();
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &placement,
                rate: 0.0,
            }],
            &FlowSimConfig::default(),
        );
        assert_eq!(stats[0].generated, 0);
        assert_eq!(stats[0].delivered, 0);
        assert!(stats[0].mean_latency.is_nan());
    }

    #[test]
    fn nonzero_source_requirement_queues_at_source_host() {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::cpu(10.0)); // camera encoding
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("st", s, t, 0.0).unwrap();
        let graph = tb.build().unwrap();
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(20.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(20.0));
        nb.add_link("ab", a, b, 1.0).unwrap();
        let net = nb.build().unwrap();
        let mut p = Placement::empty(&graph);
        p.place_ct(s, a);
        p.place_ct(t, a);
        p.route_tt(sparcle_model::TtId::new(0), vec![]);
        let stats = simulate_flows(
            &net,
            &[SimApp {
                graph: &graph,
                placement: &p,
                rate: 1.8,
            }],
            &FlowSimConfig::default(),
        );
        // Capacity is 20/10 = 2 units/s; 1.8 is delivered in full.
        assert!(
            (stats[0].throughput - 1.8).abs() < 0.1,
            "tp {}",
            stats[0].throughput
        );
    }
}
