//! The two closed-loop workloads: one client submits an application,
//! waits for the committed decision, removes the oldest live
//! application, and repeats, so the live set stays at its preload size.

use super::layers::{insert_counted_solve, report_counters, ReplayTally};
use super::{
    instance_seed, report_setups, timed_setup, SetupTimes, Size, FINGERPRINT_OPS, REPEATS,
};
use crate::gen::{AppMix, HubChain, NetSpec};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{fastest, mean, median, percentile, ratio, samples_beyond};
use crate::sut::{self, Application, Counters, Decision, System};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    pub chain: HubChain,
    pub mix: AppMix,
    /// Live applications admitted during set-up and held steady after.
    pub preload: usize,
    /// Independent instances (network, preload, application stream) a
    /// run is split over; each gets an equal share of the run's time.
    pub instances: u64,
    /// Cycles of each instance that feed the metrics that must repeat
    /// exactly for a seed (`delivered_rate` and the per-layer counts).
    /// An instance measures for a time, so its cycle count varies;
    /// every full-size instance gets past this many.
    pub exact_cycles: usize,
}

impl ClosedLoop {
    pub fn scaled(mut self, size: Size) -> Self {
        if size == Size::Smoke {
            self.chain.ncps /= 10;
            self.chain.hubs = (self.chain.hubs / 4).max(2);
            self.preload /= 4;
            self.instances = 2;
            self.exact_cycles /= 10;
        }
        self
    }
}

/// One system under load: the live set and the position in the
/// application stream.
struct Client<'a> {
    workload: &'a ClosedLoop,
    net: &'a NetSpec,
    seed: u64,
    system: System,
    live: VecDeque<u32>,
    next_app: u64,
    attempted: u64,
    failed: u64,
}

impl<'a> Client<'a> {
    /// Set-up: build the network and its flat graph, construct the
    /// system, and admit applications until `preload` are live.
    fn setup(
        workload: &'a ClosedLoop,
        net: &'a NetSpec,
        seed: u64,
        assigner_threads: Option<usize>,
    ) -> (Self, SetupTimes) {
        timed_setup(net, |network| {
            let system = match assigner_threads {
                None => System::new(network),
                Some(threads) => System::with_assigner_threads(network, threads),
            };
            let mut client = Client {
                workload,
                net,
                seed,
                system,
                live: VecDeque::new(),
                next_app: 0,
                attempted: 0,
                failed: 0,
            };
            // A stream that cannot fill the live set would loop forever;
            // no seed comes close to rejecting this many.
            let give_up = 4 * workload.preload as u64;
            while client.live.len() < workload.preload && client.next_app < give_up {
                let app = client.next_application();
                client.submit(&app);
            }
            client
        })
    }

    fn next_application(&mut self) -> Arc<Application> {
        let spec = self.workload.mix.app(self.seed, self.next_app, self.net);
        self.next_app += 1;
        Arc::new(sut::build_app(&spec))
    }

    fn submit(&mut self, app: &Arc<Application>) -> Decision {
        let decision = self.system.submit(app);
        self.attempted += 1;
        match decision {
            Decision::Admitted { id, .. } => self.live.push_back(id),
            Decision::Rejected => {}
            Decision::Failed => self.failed += 1,
        }
        decision
    }

    /// Removes the oldest live application once the set is over size.
    fn depart(&mut self) {
        if self.live.len() > self.workload.preload {
            let oldest = self.live.pop_front().expect("live set is over size");
            self.attempted += 1;
            if !self.system.remove(oldest) {
                self.failed += 1;
            }
        }
    }

    /// One untraced cycle; returns the decision, its latency, and the
    /// wall of the whole cycle (departure included).
    fn cycle(&mut self) -> (Decision, Duration, Duration) {
        let app = self.next_application();
        let start = Instant::now();
        let decision = self.submit(&app);
        let decided = start.elapsed();
        self.depart();
        (decision, decided, start.elapsed())
    }
}

pub fn run(workload: &ClosedLoop, seed: u64, seconds: f64, traced: Option<&mut Spans>) -> Outcome {
    let mut out = Outcome::default();
    let nets: Vec<(u64, NetSpec)> = (0..workload.instances)
        .map(|i| instance_seed(seed, i))
        .map(|seed| (seed, workload.chain.build(seed)))
        .collect();
    match traced {
        None => run_untraced(workload, &nets, seconds, &mut out),
        Some(spans) => run_traced(workload, &nets, seconds, spans, &mut out),
    }
    out
}

/// Sets up instance `net` and checks the preload.
fn setup_checked<'a>(
    workload: &'a ClosedLoop,
    (seed, net): &'a (u64, NetSpec),
    assigner_threads: Option<usize>,
    out: &mut Outcome,
) -> (Client<'a>, SetupTimes) {
    let (client, times) = Client::setup(workload, net, *seed, assigner_threads);
    out.check(client.live.len() == workload.preload, || {
        format!(
            "set-up admitted {} of {} applications",
            client.live.len(),
            workload.preload
        )
    });
    (client, times)
}

/// Folds a finished client into the result: conservation on its final
/// state, and its operation counts.
fn finish(client: &Client<'_>, out: &mut Outcome) {
    if let Err(problem) = client.system.view().check_conservation() {
        out.problems.push(problem);
    }
    out.attempted += client.attempted;
    out.failed += client.failed;
}

/// What one pass over one instance measured, per cycle.
#[derive(Default)]
struct Measured {
    decisions: Vec<Decision>,
    latency_ms: Vec<f64>,
    cycle_ms: Vec<f64>,
    /// Delivered rate after each of the first `exact_cycles` cycles.
    delivered: Vec<f64>,
}

fn measure(client: &mut Client<'_>, share: Duration) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    while start.elapsed() < share {
        let (decision, decided, done) = client.cycle();
        m.decisions.push(decision);
        m.latency_ms.push(1e3 * decided.as_secs_f64());
        m.cycle_ms.push(1e3 * done.as_secs_f64());
        if m.delivered.len() < client.workload.exact_cycles {
            m.delivered.push(client.system.view().delivered_rate());
        }
    }
    m
}

/// The untraced run. Every instance is measured `REPEATS` times, a full
/// round of the other instances apart. A repeat replays exactly the
/// same operations on the same states, so each operation is timed
/// `REPEATS` times and its fastest time is kept: interference from the
/// machine only ever adds time, and a burst of it rarely hits the same
/// operation in both rounds. Throughput and the percentiles are then
/// taken over the operations of all instances together.
fn run_untraced(workload: &ClosedLoop, nets: &[(u64, NetSpec)], seconds: f64, out: &mut Outcome) {
    let share = Duration::from_secs_f64(seconds / (REPEATS * nets.len()) as f64);
    let mut setups: Vec<Vec<SetupTimes>> = vec![Vec::new(); nets.len()];
    let mut measured: Vec<Vec<Measured>> = nets.iter().map(|_| Vec::new()).collect();
    for round in 0..REPEATS {
        for (i, net) in nets.iter().enumerate() {
            let (mut client, times) = setup_checked(workload, net, None, out);
            setups[i].push(times);
            let m = measure(&mut client, share);
            finish(&client, out);
            // One system at a time, so `peak_rss_mb` is one system's.
            drop(client);
            // Decisions must not depend on the γ evaluator's thread
            // count: a second system at 2 threads, on the first pass.
            if round == 0 && i == 0 {
                let (mut other, _) = setup_checked(workload, net, Some(2), out);
                let n = m.decisions.len().min(FINGERPRINT_OPS);
                let same = (0..n).all(|k| other.cycle().0 == m.decisions[k]);
                out.check(same, || {
                    "decisions differ between 1 and 2 assigner threads".to_owned()
                });
            }
            measured[i].push(m);
        }
    }

    let mut latency_ms = Vec::new();
    let mut cycle_ms = Vec::new();
    let mut delivered = Vec::new();
    for passes in &measured {
        let shared = passes.iter().map(|m| m.decisions.len()).min().unwrap_or(0);
        let first = &passes[0];
        out.check(
            passes
                .iter()
                .all(|m| m.decisions[..shared] == first.decisions[..shared]),
            || "a repeat of the same instance decided differently".to_owned(),
        );
        latency_ms.extend(fastest(passes.iter().map(|m| m.latency_ms.as_slice())));
        cycle_ms.extend(fastest(passes.iter().map(|m| m.cycle_ms.as_slice())));
        delivered.push(mean(&first.delivered));
    }
    let fastest_setups: Vec<SetupTimes> = setups
        .iter()
        .filter_map(|times| times.iter().min_by_key(|t| t.total).copied())
        .collect();
    report_setups(&fastest_setups, out);
    let n = latency_ms.len();
    out.set(
        "decisions_per_s",
        ratio(1e3 * n as f64, cycle_ms.iter().sum::<f64>()),
    );
    out.set("decision_p50_ms", percentile(&latency_ms, 0.5));
    out.set("decision_p90_ms", percentile(&latency_ms, 0.9));
    out.set("delivered_rate", mean(&delivered));
    out.notes.push(format!(
        "{n} decisions over {} instances, each timed {REPEATS} times (fastest kept); {} beyond p90; \
         p99 {:.3} ms with {} beyond (not gated); delivered_rate over the first {} cycles of each instance",
        nets.len(),
        samples_beyond(n, 0.9),
        percentile(&latency_ms, 0.99),
        samples_beyond(n, 0.99),
        workload.exact_cycles,
    ));
}

/// The traced run: every instance once, with a span around every call
/// into a layer; on the last instance (the process is warm by then) an
/// untraced pass over the same first requests, to compare decisions and
/// wall.
fn run_traced(
    workload: &ClosedLoop,
    nets: &[(u64, NetSpec)],
    seconds: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let share = Duration::from_secs_f64(seconds / nets.len() as f64);
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    for (i, net) in nets.iter().enumerate() {
        let (mut client, times) = setup_checked(workload, net, None, out);
        setups.push(times);
        let compared = i + 1 == nets.len();
        let decisions = measure_traced(
            &mut client,
            i as u64,
            share,
            compared,
            spans,
            &mut tally,
            out,
        );
        finish(&client, out);
        if compared {
            let (mut other, _) = setup_checked(workload, net, None, out);
            let mut same = true;
            for (traced, traced_wall) in decisions.iter().zip(&tally.compared_requests) {
                let (decision, _, done) = other.cycle();
                same &= decision == *traced;
                tally.plain_wall += done;
                tally.traced_wall += *traced_wall;
            }
            out.check(same, || {
                "decisions differ between the untraced and the traced run".to_owned()
            });
        }
    }
    report_setups(&setups, out);
    report_traced(spans, &tally, out);
}

/// What the traced run adds up outside the spans.
#[derive(Default)]
struct Tally {
    cycles: usize,
    replays: ReplayTally,
    ops: Counters,
    submits: u64,
    submit_solves: u64,
    solve_ms: Vec<f64>,
    /// Wall of each of the compared instance's first requests, traced.
    compared_requests: Vec<Duration>,
    /// Wall of those requests in sum, traced and untraced.
    traced_wall: Duration,
    plain_wall: Duration,
}

/// One instance of the traced run: the same cycles with a span around
/// every call into a layer, and a replay of the single layers on the
/// state each submission is about to meet. Returns the decisions.
fn measure_traced(
    client: &mut Client<'_>,
    instance: u64,
    share: Duration,
    compared: bool,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Vec<Decision> {
    let mut decisions = Vec::new();
    let workload = client.workload;
    tally.replays.on_network(client.system.view().network());
    let mut probe_checks = 0;
    let start = Instant::now();
    let mut cycles = 0usize;
    while start.elapsed() < share {
        let exact = cycles < workload.exact_cycles;
        let request = instance << 32 | client.next_app;
        let app = client.next_application();
        let view = client.system.view();
        let network = view.network();

        let s = spans.open("core.snapshot.capture", request);
        let snapshot = view.capture();
        spans.close(s);
        let assign_ns = tally
            .replays
            .replay(spans, network, &snapshot, &app, request, exact);

        let root = spans.open("request", request);
        let before = view.counters();
        let submit = spans.open("core.state.submit", request);
        let decision = client.submit(&app);
        spans.close(submit);
        let after_submit = client.system.view().counters();
        let remove = spans.open("core.state.remove", request);
        client.depart();
        spans.close(remove);
        spans.close(root);
        let after_remove = client.system.view().counters();

        // Inside the two calls the program counts its own solve time;
        // the solve is the last step of each. The assignment is the
        // first step of a submission and costs what its replay cost.
        let submit_span = spans.get(submit).clone();
        let in_submit = after_submit.since(&before);
        let in_remove = after_remove.since(&after_submit);
        let assign_end = submit_span.end_ns.min(submit_span.start_ns + assign_ns);
        spans.insert(
            "core.engine.assign",
            request,
            Some(submit),
            submit_span.start_ns,
            assign_end,
        );
        insert_counted_solve(spans, submit, &in_submit, &mut tally.solve_ms);
        insert_counted_solve(spans, remove, &in_remove, &mut tally.solve_ms);
        if exact {
            tally.ops.add(&in_submit);
            tally.ops.add(&in_remove);
            tally.submits += 1;
            tally.submit_solves += in_submit.solves;
        }
        if compared && decisions.len() < FINGERPRINT_OPS {
            tally
                .compared_requests
                .push(Duration::from_nanos(spans.get(root).duration_ns()));
        }
        decisions.push(decision);

        // A what-if migration of the oldest live application, outside
        // the request: it must leave the state bit-equal.
        if cycles.is_multiple_of(8) {
            if let Some(&oldest) = client.live.front() {
                let check = probe_checks < 3;
                let state = |s: &System| (s.view().live_rates(), s.view().residual_bits());
                let before = check.then(|| state(&client.system));
                let s = spans.open("core.state.migrate_probe", request);
                client.system.migrate_probe(oldest);
                spans.close(s);
                if let Some(before) = before {
                    probe_checks += 1;
                    out.check(before == state(&client.system), || {
                        "a rolled-back migration changed the state".to_owned()
                    });
                }
            }
        }
        cycles += 1;
    }
    tally.cycles += cycles;
    decisions
}

fn report_traced(spans: &Spans, tally: &Tally, out: &mut Outcome) {
    let self_ns = spans.self_times_ns();
    let self_ms_of = |name: &str| -> Vec<f64> {
        spans
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns[s.id as usize] as f64 / 1e6)
            .collect()
    };
    let request_ns = spans.total_ns("request") as f64;
    tally.replays.report(spans, out);
    report_counters(&tally.ops, out);
    out.set(
        "core.engine.assign_share",
        ratio(
            spans.total_ns("replay.core.engine.assign") as f64,
            request_ns,
        ),
    );
    out.set(
        "core.state.submit_self_ms_p50",
        median(&self_ms_of("core.state.submit")),
    );
    out.set(
        "core.state.remove_ms_p50",
        median(&spans.durations_ms("core.state.remove")),
    );
    out.set(
        "core.state.migrate_probe_ms_p50",
        median(&spans.durations_ms("core.state.migrate_probe")),
    );
    out.set("alloc.num.solve_ms_p50", percentile(&tally.solve_ms, 0.5));
    out.set("alloc.num.solve_ms_p95", percentile(&tally.solve_ms, 0.95));
    out.set(
        "alloc.num.solve_share",
        ratio(spans.total_ns("alloc.num.solve") as f64, request_ns),
    );
    out.set(
        "alloc.num.solves_per_decision",
        ratio(tally.submit_solves as f64, tally.submits as f64),
    );
    out.set(
        "trace.overhead_ratio",
        ratio(
            tally.traced_wall.as_secs_f64(),
            tally.plain_wall.as_secs_f64(),
        ),
    );
    out.notes.push(format!(
        "{} cycles traced; exact counts over {} of them (the first of each instance); \
         overhead over the first {FINGERPRINT_OPS} of the last instance",
        tally.cycles, tally.submits,
    ));
}
