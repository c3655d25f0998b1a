//! `churn_1k`: a batch job. One `run()` of the churn runtime carries a
//! whole timeline of arrivals, departures, link failures, reconcile
//! passes and defragmentation from input to complete result. A batch
//! job is sized, not timed: a run does a fixed number of jobs whose
//! simulated length scales with `--seconds`, so a faster program
//! finishes sooner and every output repeats exactly for a seed.

use super::layers::{report_counters, ReplayTally};
use super::{instance_seed, report_setups, timed_setup, SetupTimes, Size, REPEATS};
use crate::gen::{arrivals, AppMix, HubChain, NetSpec};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{fastest, mean, median, percentile, ratio, samples_beyond};
use crate::sut::{self, ChurnInputs, ChurnOutcome, Counters, EventStamps};
use std::cell::RefCell;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Churn {
    pub chain: HubChain,
    pub mix: AppMix,
    /// Arrivals per simulated second.
    pub arrival_rate: f64,
    /// Mean application lifetime in simulated seconds.
    pub mean_hold: f64,
    /// Simulated seconds of one job per second the run is asked to
    /// measure for: chosen so that, on the commit that added the
    /// benchmark, the jobs of a run take about that long.
    pub horizon_per_second: f64,
    /// Independent instances (network, arrivals, failures) a run does
    /// one job on each, `REPEATS` times.
    pub instances: u64,
}

impl Churn {
    pub fn scaled(mut self, size: Size) -> Self {
        if size == Size::Smoke {
            self.chain.ncps /= 10;
            self.instances = 2;
        }
        self
    }

    /// Simulated seconds of one job: at least enough for a few arrivals.
    fn horizon(&self, seconds: f64) -> f64 {
        (self.horizon_per_second * seconds).max(10.0)
    }
}

/// How one job is configured, beyond the workload's constants.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// Seed of the job's instance: network, arrivals, applications,
    /// failures and lifetimes all derive from it.
    seed: u64,
    horizon: f64,
    defrag: bool,
    assigner_threads: usize,
}

/// One finished job.
struct Done {
    setup: SetupTimes,
    wall: Duration,
    started: Instant,
    /// When the runtime asked for each arrival's application.
    arrival_at: Vec<Instant>,
    outcome: ChurnOutcome,
    counters: Counters,
    live_rates: Vec<(u32, u64)>,
    conservation: Result<(), String>,
}

impl Done {
    /// Wall from each arrival being handed over until the runtime asks
    /// for the next one (or finishes): the arrival's own decision plus
    /// all the churn the control plane absorbs before the next arrival.
    fn arrival_cycles_ms(&self) -> Vec<f64> {
        let end = self.started + self.wall;
        let next = self.arrival_at.iter().skip(1).chain(std::iter::once(&end));
        self.arrival_at
            .iter()
            .zip(next)
            .map(|(a, b)| 1e3 * b.saturating_duration_since(*a).as_secs_f64())
            .collect()
    }
}

type Source<'a> = &'a mut dyn FnMut(u64) -> sut::Application;

/// Sets up and runs one job; `after` gets the finished runtime. Set-up
/// is the network, its flat graph, and the runtime's construction,
/// which schedules every arrival and element transition.
fn run_job<T>(
    workload: &Churn,
    job: Job,
    stamps: Option<&EventStamps>,
    after: impl FnOnce(&NetSpec, sut::Churn<Source<'_>>) -> T,
) -> (Done, T) {
    let net = workload.chain.build(job.seed);
    let inputs = ChurnInputs {
        arrivals: arrivals(job.seed, job.horizon, workload.arrival_rate),
        horizon: job.horizon,
        mean_hold: workload.mean_hold,
        failure_seed: job.seed,
        hold_seed: job.seed.rotate_left(17),
        defrag: job.defrag,
        assigner_threads: job.assigner_threads,
    };
    let arrival_at = RefCell::new(Vec::new());
    let mut source = |index| {
        arrival_at.borrow_mut().push(Instant::now());
        sut::build_app(&workload.mix.app(job.seed, index, &net))
    };
    let source: Source<'_> = &mut source;
    let (mut runtime, setup) =
        timed_setup(&net, |network| sut::Churn::new(network, &inputs, source));
    let started = Instant::now();
    let outcome = runtime.run(stamps);
    let wall = started.elapsed();
    let view = runtime.view();
    let mut done = Done {
        setup,
        wall,
        started,
        arrival_at: Vec::new(),
        outcome,
        counters: view.counters(),
        live_rates: view.live_rates(),
        conservation: view.check_conservation(),
    };
    let extra = after(&net, runtime);
    done.arrival_at = arrival_at.into_inner();
    (done, extra)
}

pub fn run(workload: &Churn, seed: u64, seconds: f64, traced: Option<&mut Spans>) -> Outcome {
    let mut out = Outcome::default();
    let horizon = workload.horizon(seconds);
    match traced {
        None => measure(workload, seed, horizon, &mut out),
        Some(spans) => measure_traced(workload, seed, horizon, spans, &mut out),
    }
    out
}

fn record(done: &Done, out: &mut Outcome) {
    out.attempted += done.outcome.arrivals;
    if let Err(problem) = &done.conservation {
        out.problems.push(problem.clone());
    }
}

/// The untraced run. Every instance's job runs `REPEATS` times, a full
/// round of the other instances apart. A repeat is the same timeline,
/// so each arrival cycle is timed `REPEATS` times and its fastest time
/// is kept: interference from the machine only ever adds time, and a
/// burst of it rarely hits the same cycle in both rounds. Throughput and
/// the percentiles are then taken over the cycles of all instances.
fn measure(workload: &Churn, seed: u64, horizon: f64, out: &mut Outcome) {
    let job = |instance| Job {
        seed: instance_seed(seed, instance),
        horizon,
        defrag: true,
        assigner_threads: 1,
    };
    let mut jobs: Vec<Vec<Done>> = (0..workload.instances).map(|_| Vec::new()).collect();
    for _ in 0..REPEATS {
        for (i, passes) in jobs.iter_mut().enumerate() {
            let (done, ()) = run_job(workload, job(i as u64), None, |_, _| ());
            record(&done, out);
            passes.push(done);
        }
    }

    let mut cycles_ms = Vec::new();
    let mut delivered = Vec::new();
    let mut setups = Vec::new();
    let (mut events, mut wall) = (0, 0.0);
    for passes in &jobs {
        let first = &passes[0];
        out.check(
            passes
                .iter()
                .all(|j| j.outcome == first.outcome && j.live_rates == first.live_rates),
            || "a repeat of the same job ended differently".to_owned(),
        );
        let timed: Vec<Vec<f64>> = passes.iter().map(Done::arrival_cycles_ms).collect();
        cycles_ms.extend(fastest(timed.iter().map(Vec::as_slice)));
        delivered.push(f64::from_bits(first.outcome.be_rate_integral_bits) / horizon);
        setups.extend(passes.iter().map(|j| j.setup).min_by_key(|t| t.total));
        events += first.outcome.events;
        wall += passes
            .iter()
            .map(|j| j.wall.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
    }
    report_setups(&setups, out);
    let n = cycles_ms.len();
    out.set(
        "decisions_per_s",
        ratio(1e3 * n as f64, cycles_ms.iter().sum::<f64>()),
    );
    out.set("decision_p50_ms", percentile(&cycles_ms, 0.5));
    out.set("decision_p90_ms", percentile(&cycles_ms, 0.9));
    out.set("delivered_rate", mean(&delivered));
    out.notes.push(format!(
        "{} jobs of {horizon} sim-s, each run {REPEATS} times (fastest kept): {events} events, {:.0} events/s; \
         {n} arrival cycles, {} beyond p90; p99 {:.3} ms with {} beyond (not gated)",
        jobs.len(),
        ratio(events as f64, wall),
        samples_beyond(n, 0.9),
        percentile(&cycles_ms, 0.99),
        samples_beyond(n, 0.99),
    ));

    // Decisions must not depend on the γ evaluator's thread count: a
    // short job at 2 threads against the same at 1.
    let short = |assigner_threads| Job {
        horizon: (horizon / 4.0).max(10.0),
        assigner_threads,
        ..job(0)
    };
    let (one, ()) = run_job(workload, short(1), None, |_, _| ());
    let (two, ()) = run_job(workload, short(2), None, |_, _| ());
    out.check(
        one.outcome == two.outcome && one.live_rates == two.live_rates,
        || "the timeline differs between 1 and 2 assigner threads".to_owned(),
    );
}

/// The traced run: the first job untraced, with the program's
/// telemetry stamped as it arrives, and with the defragmenter off; then
/// replays of the single layers on the state the job ended in.
fn measure_traced(workload: &Churn, seed: u64, horizon: f64, spans: &mut Spans, out: &mut Outcome) {
    let job = |defrag| Job {
        seed: instance_seed(seed, 0),
        horizon,
        defrag,
        assigner_threads: 1,
    };
    // Untraced twice, the faster kept: the first job of a process also
    // pays for its cold caches and allocator.
    let (warm_up, ()) = run_job(workload, job(true), None, |_, _| ());
    let (plain, ()) = run_job(workload, job(true), None, |_, _| ());
    let plain = if warm_up.wall < plain.wall {
        warm_up
    } else {
        plain
    };
    record(&plain, out);
    spans.insert(
        "runtime.run.untraced",
        0,
        None,
        spans.ns_at(plain.started),
        spans.ns_at(plain.started + plain.wall),
    );

    let stamps = EventStamps::starting_at(spans.epoch());
    let (traced, ()) = run_job(workload, job(true), Some(&stamps), |net, runtime| {
        replay_layers(
            workload,
            net,
            job(true).seed,
            runtime.into_system(),
            spans,
            out,
        );
    });
    let stamps = stamps.into_stamps();
    out.check(
        plain.outcome == traced.outcome && plain.live_rates == traced.live_rates,
        || "the timeline differs between the untraced and the traced run".to_owned(),
    );
    let run_span = spans.insert(
        "runtime.run",
        0,
        None,
        spans.ns_at(traced.started),
        spans.ns_at(traced.started + traced.wall),
    );
    let end = traced.started + traced.wall;
    let next = traced
        .arrival_at
        .iter()
        .skip(1)
        .chain(std::iter::once(&end));
    for (i, (at, until)) in traced.arrival_at.iter().zip(next).enumerate() {
        let (at, until) = (spans.ns_at(*at), spans.ns_at(*until));
        spans.insert("request", i as u64, Some(run_span), at, until);
    }
    // A reconcile pass repairs what an element failure displaced: wall
    // from the displacing event to the pass's closing event.
    let mut displaced_at = None;
    let mut reconcile_ms = Vec::new();
    for stamp in &stamps {
        match stamp.kind {
            "runtime_element_state" if stamp.displaced > 0 => {
                displaced_at.get_or_insert(stamp.at_ns);
            }
            "runtime_reconcile" => {
                if let Some(start) = displaced_at.take() {
                    spans.insert("runtime.reconcile", 0, Some(run_span), start, stamp.at_ns);
                    reconcile_ms.push((stamp.at_ns - start) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }

    let (no_defrag, ()) = run_job(workload, job(false), None, |_, _| ());
    spans.insert(
        "runtime.run.no_defrag",
        0,
        None,
        spans.ns_at(no_defrag.started),
        spans.ns_at(no_defrag.started + no_defrag.wall),
    );
    report_setups(&[plain.setup, traced.setup, no_defrag.setup], out);

    let wall = plain.wall.as_secs_f64();
    let c = &plain.counters;
    let events = plain.outcome.events as f64;
    out.set("runtime.events_per_s", ratio(events, wall));
    out.set("runtime.event_us_mean", ratio(1e6 * wall, events));
    out.set("runtime.reconcile_ms_p50", percentile(&reconcile_ms, 0.5));
    out.set("runtime.reconcile_ms_p95", percentile(&reconcile_ms, 0.95));
    out.set(
        "runtime.solve_share",
        ratio(c.solve_nanos as f64 / 1e9, wall),
    );
    out.set(
        "runtime.defrag_overhead_ratio",
        ratio(wall, no_defrag.wall.as_secs_f64()),
    );
    // Only the totals of the solver are visible from outside a running
    // timeline, so both percentiles read the mean.
    let solve_ms = ratio(c.solve_nanos as f64 / 1e6, c.solves as f64);
    out.set("alloc.num.solve_ms_p50", solve_ms);
    out.set("alloc.num.solve_ms_p95", solve_ms);
    out.set(
        "alloc.num.solve_share",
        ratio(c.solve_nanos as f64 / 1e9, wall),
    );
    out.set(
        "alloc.num.solves_per_decision",
        ratio(c.solves as f64, plain.outcome.arrivals as f64),
    );
    out.set(
        "core.engine.gamma_hit_rate",
        ratio(c.gamma_hits as f64, (c.gamma_hits + c.gamma_misses) as f64),
    );
    report_counters(c, out);
    out.set("telemetry.events", stamps.len() as f64);
    let extra_ns = 1e9 * (traced.wall.as_secs_f64() - wall).max(0.0);
    out.set(
        "telemetry.ns_per_event",
        ratio(extra_ns, stamps.len() as f64),
    );
    out.set(
        "trace.overhead_ratio",
        ratio(traced.wall.as_secs_f64(), wall),
    );
    out.notes.push(format!(
        "one job of {horizon} sim-s: {} events, {} arrivals, {} displacements, {} reconcile passes timed, {} defrag probes",
        plain.outcome.events,
        plain.outcome.arrivals,
        plain.outcome.displacements,
        reconcile_ms.len(),
        plain.outcome.defrag_probes,
    ));
}

/// Single-layer costs on the state a job ended in, for a sample of
/// applications from further down its stream. A running timeline cannot be
/// entered from outside, so these are taken after it.
fn replay_layers(
    workload: &Churn,
    net: &NetSpec,
    seed: u64,
    mut system: sut::System,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    const SAMPLE: u64 = 64;
    // Well beyond any job's arrivals, and exact in a JSON reader's f64.
    const SAMPLE_FIRST_INDEX: u64 = 1 << 40;
    let mut replays = ReplayTally::default();
    replays.on_network(system.view().network());
    for i in 0..SAMPLE {
        let request = SAMPLE_FIRST_INDEX + i;
        let app = sut::build_app(&workload.mix.app(seed, request, net));
        let view = system.view();
        let s = spans.open("core.snapshot.capture", request);
        let snapshot = view.capture();
        spans.close(s);
        replays.replay(spans, view.network(), &snapshot, &app, request, true);
    }
    let before = (system.view().live_rates(), system.view().residual_bits());
    for (id, _) in before.0.iter().take(SAMPLE as usize) {
        let s = spans.open("core.state.migrate_probe", u64::from(*id));
        system.migrate_probe(*id);
        spans.close(s);
    }
    let after = (system.view().live_rates(), system.view().residual_bits());
    out.check(before == after, || {
        "a rolled-back migration changed the state".to_owned()
    });

    replays.report(spans, out);
    out.set(
        "core.state.migrate_probe_ms_p50",
        median(&spans.durations_ms("core.state.migrate_probe")),
    );
}
