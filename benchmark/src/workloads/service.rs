//! `service_burst`: an open loop, paced on the wall clock. Requests are
//! due on a seeded flash-crowd schedule whether or not the service keeps
//! up. At every batch-window boundary the driver sleeps until the
//! boundary is due, hands the service every admit that has arrived, and
//! then each probe on its own. Latency counts from the request's *due*
//! time, so a stall delays — and is charged to — everything behind it.
//!
//! A run is split over independent instances (network, service, request
//! stream), each paced for an equal share of the run's time. Every
//! instance starts as a service that has been running: set-up admits a
//! base population before the clock starts.

use super::layers::{insert_counted_solve, report_counters, ReplayTally};
use super::{
    instance_seed, report_setups, timed_setup, SetupTimes, Size, FINGERPRINT_OPS, REPEATS,
};
use crate::gen::{flash_crowd, AppMix, HubChain, NetSpec, Request};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::{fastest, mean, percentile, ratio, samples_beyond};
use crate::sut::{self, Counters, EventStamps, ServiceCounts};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub chain: HubChain,
    pub mix: AppMix,
    /// Micro-batch window of the service, in seconds.
    pub batch_window: f64,
    /// Requests per second outside the burst.
    pub rate: f64,
    /// Requests per second inside the burst.
    pub burst_rate: f64,
    /// Start and end of the burst, as shares of an instance's time.
    pub burst: (f64, f64),
    /// Every n-th request is a read-only probe.
    pub probe_every: u64,
    /// An admit decided later than this after it was due is not on time.
    pub decision_limit_ms: f64,
    /// Independent instances a run is split over.
    pub instances: u64,
    /// Applications admitted during set-up.
    pub preload: usize,
}

/// Set-up hands the service this many applications per window: few
/// enough that its modelled writer is free again at the next boundary,
/// so nothing is deferred or shed before the clock starts.
const PRELOAD_PER_WINDOW: usize = 4;

/// Set-up applications come from the far end of the stream, so the
/// paced requests are numbered from zero.
const PRELOAD_FIRST_INDEX: u64 = 1 << 40;

impl Burst {
    pub fn scaled(mut self, size: Size) -> Self {
        if size == Size::Smoke {
            self.chain.ncps /= 10;
            self.instances = 2;
            self.preload /= 10;
        }
        self
    }

    fn preload_windows(&self) -> usize {
        self.preload.div_ceil(PRELOAD_PER_WINDOW)
    }

    /// The paced requests of one instance, due from its first window.
    fn requests(&self, seed: u64, seconds: f64) -> Vec<Request> {
        let burst = (self.burst.0 * seconds, self.burst.1 * seconds);
        flash_crowd(
            seed,
            seconds,
            self.rate,
            self.burst_rate,
            burst,
            self.probe_every,
        )
    }
}

type Source<'a> = Box<dyn FnMut(u64) -> sut::Application + 'a>;

/// Set-up: build the network and its flat graph, construct the
/// service, and admit the base population, a few per window.
fn setup<'a>(
    workload: &'a Burst,
    net: &'a NetSpec,
    seed: u64,
    assigner_threads: usize,
) -> (sut::Service<Source<'a>>, SetupTimes) {
    timed_setup(net, |network| {
        let source: Source<'a> = Box::new(move |i| sut::build_app(&workload.mix.app(seed, i, net)));
        let mut service =
            sut::Service::new(network, workload.batch_window, assigner_threads, source);
        let preload: Vec<Request> = (0..workload.preload)
            .map(|i| Request {
                due: (i / PRELOAD_PER_WINDOW) as f64 * workload.batch_window,
                index: PRELOAD_FIRST_INDEX + i as u64,
                probe: false,
            })
            .collect();
        for window in preload.chunks(PRELOAD_PER_WINDOW) {
            service.run(window, None);
        }
        service
    })
}

/// What the service did up to the end of one window, for the output
/// checks.
#[derive(Debug, Clone, PartialEq)]
struct WindowPrint {
    counts: ServiceCounts,
    delivered_bits: u64,
}

/// What one pass over an instance's request stream measured.
#[derive(Default)]
struct Pass {
    /// Due → decided, per admit, in milliseconds.
    decision_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    /// Wall inside the service's admit batches.
    batch_wall: Duration,
    pacer_lag_max: Duration,
    prints: Vec<WindowPrint>,
    admits: u64,
    probes: u64,
    /// Admits that got no decision (shed, or a batch that lost one).
    undecided: u64,
}

/// Layer costs of the batches, taken just before each in the traced
/// pass, and the spans.
struct BatchTrace<'t> {
    spans: &'t mut Spans,
    stamps: &'t EventStamps,
    replays: ReplayTally,
    /// Nanoseconds of the assignment replays for the batch in hand.
    replayed_ns: u64,
    solve_ms: Vec<f64>,
    /// Σ over batches of wall − counted solve − replayed assignments.
    batch_self_ns: f64,
    in_batches: Counters,
}

/// One instance being driven.
struct Instance<'a> {
    workload: &'a Burst,
    net: &'a NetSpec,
    seed: u64,
    /// Tags the instance's requests in the spans.
    number: u64,
    requests: &'a [Request],
}

impl Instance<'_> {
    /// Drives `service` over the first `windows` windows of the
    /// requests. Paced passes sleep until each window boundary is due
    /// on the wall clock; unpaced passes (an output check) hand the same
    /// batches over back to back.
    fn drive<F: FnMut(u64) -> sut::Application>(
        &self,
        service: &mut sut::Service<F>,
        windows: usize,
        paced: bool,
        mut trace: Option<&mut BatchTrace<'_>>,
    ) -> Pass {
        let window = self.workload.batch_window;
        // The service's clock already stands at the end of set-up's
        // windows; the paced requests are due from there.
        let offset = self.workload.preload_windows() as f64 * window;
        let mut pass = Pass::default();
        let start = Instant::now();
        let mut next = 0;
        for k in 1..=windows {
            let boundary = k as f64 * window;
            let from = next;
            while next < self.requests.len() && self.requests[next].due < boundary {
                next += 1;
            }
            let shifted = |r: &Request| Request {
                due: r.due + offset,
                ..*r
            };
            let due = &self.requests[from..next];
            let admits: Vec<Request> = due.iter().filter(|r| !r.probe).map(shifted).collect();
            let probes: Vec<Request> = due.iter().filter(|r| r.probe).map(shifted).collect();
            if paced {
                let at = start + Duration::from_secs_f64(boundary);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                pass.pacer_lag_max = pass.pacer_lag_max.max(at.elapsed());
            }
            if !admits.is_empty() {
                let before = service.counts();
                if let Some(t) = trace.as_deref_mut() {
                    t.before_batch(self, service, &admits);
                }
                let counters = service.view().counters();
                let handed = Instant::now();
                service.run(&admits, trace.as_deref().map(|t| t.stamps));
                let wall = handed.elapsed();
                let decided_at = handed + wall;
                let after = service.counts();
                let decided =
                    (after.admitted + after.rejected) - (before.admitted + before.rejected);
                pass.admits += admits.len() as u64;
                pass.undecided += admits.len() as u64 - decided.min(admits.len() as u64);
                pass.batch_wall += wall;
                pass.batch_ms.push(1e3 * wall.as_secs_f64());
                pass.batch_sizes.push(admits.len() as f64);
                // An unpaced pass has no wall-clock due time; its
                // latencies are not used.
                let due_at = |r: &Request| start + Duration::from_secs_f64(r.due - offset);
                for r in &admits {
                    let latency = decided_at.saturating_duration_since(due_at(r));
                    pass.decision_ms.push(1e3 * latency.as_secs_f64());
                }
                if let Some(t) = trace.as_deref_mut() {
                    let counted = service.view().counters().since(&counters);
                    let dues: Vec<(u64, Instant)> = admits
                        .iter()
                        .map(|r| (self.number << 32 | r.index, due_at(r)))
                        .collect();
                    t.after_batch(&dues, handed, decided_at, &counted);
                }
            }
            for probe in &probes {
                let asked = Instant::now();
                service.run(
                    std::slice::from_ref(probe),
                    trace.as_deref().map(|t| t.stamps),
                );
                let wall = asked.elapsed();
                pass.probes += 1;
                pass.probe_ms.push(1e3 * wall.as_secs_f64());
                if let Some(t) = trace.as_deref_mut() {
                    let (at, until) = (t.spans.ns_at(asked), t.spans.ns_at(asked + wall));
                    let request = self.number << 32 | probe.index;
                    t.spans.insert("service.probe", request, None, at, until);
                }
            }
            if pass.prints.len() < FINGERPRINT_OPS && !due.is_empty() {
                pass.prints.push(WindowPrint {
                    counts: service.counts(),
                    delivered_bits: service.view().delivered_rate().to_bits(),
                });
            }
        }
        pass
    }
}

impl BatchTrace<'_> {
    /// Replays the single layers for every admit of the batch on the
    /// state the batch is about to meet. This delays the batch, which
    /// only the traced pass pays.
    fn before_batch<F: FnMut(u64) -> sut::Application>(
        &mut self,
        instance: &Instance<'_>,
        service: &sut::Service<F>,
        admits: &[Request],
    ) {
        let view = service.view();
        let tag = |r: &Request| instance.number << 32 | r.index;
        let s = self.spans.open("core.snapshot.capture", tag(&admits[0]));
        std::hint::black_box(view.capture());
        self.spans.close(s);
        self.replayed_ns = 0;
        for r in admits {
            let spec = instance
                .workload
                .mix
                .app(instance.seed, r.index, instance.net);
            let app = sut::build_app(&spec);
            self.replayed_ns += self.replays.replay(
                self.spans,
                view.network(),
                service.snapshot(),
                &app,
                tag(r),
                true,
            );
        }
    }

    /// Records the batch: one `service.batch` span with the counted
    /// solve as its child, and per admit a `request` span from due to
    /// decided whose `service.window_wait` child ends at the hand-over.
    fn after_batch(
        &mut self,
        dues: &[(u64, Instant)],
        handed: Instant,
        decided: Instant,
        counted: &Counters,
    ) {
        let (handed_ns, decided_ns) = (self.spans.ns_at(handed), self.spans.ns_at(decided));
        let first = dues[0].0;
        let batch = self
            .spans
            .insert("service.batch", first, None, handed_ns, decided_ns);
        insert_counted_solve(self.spans, batch, counted, &mut self.solve_ms);
        self.in_batches.add(counted);
        let wall_ns = (decided_ns - handed_ns) as f64;
        self.batch_self_ns +=
            (wall_ns - counted.solve_nanos as f64 - self.replayed_ns as f64).max(0.0);
        for &(request, due) in dues {
            let due_ns = self.spans.ns_at(due).min(handed_ns);
            let root = self
                .spans
                .insert("request", request, None, due_ns, decided_ns);
            self.spans.insert(
                "service.window_wait",
                request,
                Some(root),
                due_ns,
                handed_ns,
            );
        }
    }
}

pub fn run(workload: &Burst, seed: u64, seconds: f64, traced: Option<&mut Spans>) -> Outcome {
    let mut out = Outcome::default();
    // The untraced run paces every instance `REPEATS` times; the traced
    // run once, for twice as long.
    let rounds = if traced.is_some() { 1 } else { REPEATS };
    let share = seconds / (rounds as u64 * workload.instances) as f64;
    let windows = (share / workload.batch_window).ceil() as usize;
    let stamps = EventStamps::starting_at(traced.as_ref().map_or_else(Instant::now, |s| s.epoch()));
    let mut trace = traced.map(|spans| BatchTrace {
        spans,
        stamps: &stamps,
        replays: ReplayTally::default(),
        replayed_ns: 0,
        solve_ms: Vec::new(),
        batch_self_ns: 0.0,
        in_batches: Counters::default(),
    });
    let inputs: Vec<(u64, NetSpec, Vec<Request>)> = (0..workload.instances)
        .map(|number| {
            let seed = instance_seed(seed, number);
            (
                seed,
                workload.chain.build(seed),
                workload.requests(seed, share),
            )
        })
        .collect();
    let mut setups: Vec<Vec<SetupTimes>> = vec![Vec::new(); inputs.len()];
    let mut passes: Vec<Vec<Pass>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut delivered = Vec::new();
    let mut checked_pass = None;
    let mut shed = 0;
    let mut deferred = 0;
    for round in 0..rounds {
        for (number, (seed, net, requests)) in inputs.iter().enumerate() {
            let instance = Instance {
                workload,
                net,
                seed: *seed,
                number: number as u64,
                requests,
            };
            let (mut service, times) = setup(workload, net, *seed, 1);
            setups[number].push(times);
            let preloaded = service.counts();
            out.check(
                preloaded.admitted + preloaded.rejected == workload.preload as u64,
                || {
                    format!(
                        "set-up decided {preloaded:?} of {} applications",
                        workload.preload
                    )
                },
            );
            if let Some(t) = trace.as_mut() {
                t.replays.on_network(service.view().network());
            }
            let pass = instance.drive(&mut service, windows, true, trace.as_mut());

            let counts = service.counts();
            out.attempted += pass.admits + pass.probes;
            out.failed += pass.undecided;
            out.check(counts.shed == pass.undecided, || {
                format!(
                    "{} requests shed but {} undecided",
                    counts.shed, pass.undecided
                )
            });
            out.check(counts.probes == pass.probes, || {
                format!("{} probes answered of {}", counts.probes, pass.probes)
            });
            if let Err(problem) = service.view().check_conservation() {
                out.problems.push(problem);
            }
            shed += counts.shed;
            deferred += counts.windows_deferred;
            if round == 0 {
                delivered.push(service.view().delivered_rate());
            }
            // One service at a time, so `peak_rss_mb` is one service's.
            drop(service);

            // The output checks that need a second service run on the
            // first pass only, over its first windows: up to the one that
            // holds the last of the first requests compared.
            if round == 0 && number == 0 {
                let last = requests.get(FINGERPRINT_OPS.min(requests.len()).saturating_sub(1));
                let checked = last.map_or(0, |r| (r.due / workload.batch_window) as usize + 1);
                let threads = if trace.is_some() { 1 } else { 2 };
                let (mut other, _) = setup(workload, net, *seed, threads);
                // Paced like the traced pass when its wall is compared
                // with that pass's; back to back otherwise.
                let other = instance.drive(&mut other, checked, trace.is_some(), None);
                out.check(
                    pass.prints.starts_with(&other.prints) && !other.prints.is_empty(),
                    || match threads {
                        2 => "decisions differ between 1 and 2 assigner threads".to_owned(),
                        _ => "decisions differ between the untraced and the traced run".to_owned(),
                    },
                );
                checked_pass = Some(other);
            }
            passes[number].push(pass);
        }
    }

    // A repeat hands the service the same batches at the same offsets
    // from its start, so each request and batch is timed `REPEATS` times
    // and its fastest time is kept: interference from the machine only
    // ever adds time, and a burst of it rarely hits the same request in
    // both rounds. Throughput and the percentiles are then taken over
    // the requests of all instances together.
    let fastest_of = |f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|repeats| fastest(repeats.iter().map(|p| f(p).as_slice())))
            .collect()
    };
    for repeats in &passes {
        out.check(
            repeats.iter().all(|p| p.prints == repeats[0].prints),
            || "a repeat of the same instance decided differently".to_owned(),
        );
    }
    let fastest_setups: Vec<SetupTimes> = setups
        .iter()
        .filter_map(|times| times.iter().min_by_key(|t| t.total).copied())
        .collect();
    report_setups(&fastest_setups, &mut out);
    let decision_ms = fastest_of(&|p| &p.decision_ms);
    let probe_ms = fastest_of(&|p| &p.probe_ms);
    let batch_ms = fastest_of(&|p| &p.batch_ms);
    let n = decision_ms.len();
    let busy_ms: f64 = batch_ms.iter().sum();
    out.set("decisions_per_s", ratio(1e3 * n as f64, busy_ms));
    out.set("decision_p50_ms", percentile(&decision_ms, 0.5));
    out.set("decision_p90_ms", percentile(&decision_ms, 0.9));
    out.set("delivered_rate", mean(&delivered));
    let admits: u64 = passes.iter().map(|repeats| repeats[0].admits).sum();
    let on_time = decision_ms
        .iter()
        .filter(|&&ms| ms <= workload.decision_limit_ms)
        .count();
    let on_time_share = ratio(on_time as f64, admits as f64);
    let lag_ms = passes
        .iter()
        .flatten()
        .map(|p| 1e3 * p.pacer_lag_max.as_secs_f64())
        .fold(0.0, f64::max);
    out.set("service.on_time_share", on_time_share);
    out.set("service.probe_ms_p50", percentile(&probe_ms, 0.5));
    out.set("service.shed", shed as f64);
    out.set("service.windows_deferred", deferred as f64);
    out.set("service.pacer_lag_ms_max", lag_ms);
    out.notes.push(format!(
        "{} instances of {share} s, each paced {rounds} time(s), fastest kept: {n} admit decisions timed from due, \
         {} beyond p90; p99 {:.3} ms with {} beyond (not gated); {} probes, p50 {:.3} ms; busy {:.3} s; \
         on time (≤ {} ms) {on_time_share:.4}; generator lag at most {lag_ms:.3} ms",
        passes.len(),
        samples_beyond(n, 0.9),
        percentile(&decision_ms, 0.99),
        samples_beyond(n, 0.99),
        probe_ms.len(),
        percentile(&probe_ms, 0.5),
        busy_ms / 1e3,
        workload.decision_limit_ms,
    ));

    if let (Some(trace), Some(plain)) = (&trace, &checked_pass) {
        let batch_sizes: Vec<f64> = passes
            .iter()
            .flat_map(|repeats| repeats[0].batch_sizes.clone())
            .collect();
        per_layer(
            trace,
            &passes[0][0],
            plain,
            &batch_ms,
            &batch_sizes,
            n,
            &mut out,
        );
    }
    out
}

fn per_layer(
    trace: &BatchTrace<'_>,
    first: &Pass,
    plain: &Pass,
    batch_ms: &[f64],
    batch_sizes: &[f64],
    decisions: usize,
    out: &mut Outcome,
) {
    let spans = &*trace.spans;
    let batch_ns = 1e6 * batch_ms.iter().sum::<f64>();
    trace.replays.report(spans, out);
    report_counters(&trace.in_batches, out);
    out.set(
        "core.engine.assign_share",
        ratio(spans.total_ns("replay.core.engine.assign") as f64, batch_ns),
    );
    out.set("alloc.num.solve_ms_p50", percentile(&trace.solve_ms, 0.5));
    out.set("alloc.num.solve_ms_p95", percentile(&trace.solve_ms, 0.95));
    out.set(
        "alloc.num.solve_share",
        ratio(spans.total_ns("alloc.num.solve") as f64, batch_ns),
    );
    out.set(
        "alloc.num.solves_per_decision",
        ratio(trace.in_batches.solves as f64, decisions as f64),
    );
    out.set("service.batch_ms_p50", percentile(batch_ms, 0.5));
    out.set("service.batch_ms_p95", percentile(batch_ms, 0.95));
    out.set("service.batch_size_mean", mean(batch_sizes));
    out.set("service.self_share", ratio(trace.batch_self_ns, batch_ns));

    // Tracing overhead: the wall of the batches that both the traced
    // and the untraced pass of the first instance ran.
    let shared = plain.batch_ms.len();
    let traced_ms: f64 = first.batch_ms[..shared].iter().sum();
    let plain_ms: f64 = plain.batch_ms.iter().sum();
    let events = trace.stamps.len() as f64;
    out.set("telemetry.events", events);
    let events_in_shared = events * ratio(shared as f64, batch_ms.len() as f64);
    out.set(
        "telemetry.ns_per_event",
        ratio(1e6 * (traced_ms - plain_ms).max(0.0), events_in_shared),
    );
    out.set("trace.overhead_ratio", ratio(traced_ms, plain_ms));
    out.notes.push(format!(
        "{} batches traced, mean size {:.2}; overhead over the first {shared} batches of the first instance",
        batch_ms.len(),
        mean(batch_sizes),
    ));
}
