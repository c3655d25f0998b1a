//! Perf-regression baseline harness.
//!
//! Eight pinned, deterministic workloads (compact cuts of `exp_fig6`,
//! `exp_scaling`, `exp_scale`, `exp_churn`, `exp_service`, and
//! `exp_defrag`, plus the incremental-state solver timeline and the
//! monitor-overhead ratio) each produce a [`BenchResult`] — wall
//! time, γ-cache hit rate, DES events/sec, peak event-queue depth,
//! per-event BE solve cost, warm-start Newton steps, CT commits/sec,
//! admission throughput and decision latency, the observability
//! plane's on/off wall-time ratio, and the defragmenter's uplift and
//! overhead — serialized to `BENCH_<experiment>.json`, which carries
//! only the metrics its workload produced. The committed copies
//! under `benchmarks/` are the baseline; `exp_baseline compare` re-runs
//! the workloads and exits nonzero when a metric regresses past its
//! tolerance, which is how the nightly CI gate catches performance
//! drift before it lands.
//!
//! Tolerances are direction-aware and per-metric: deterministic metrics
//! (cache hit rate, queue depth — identical on every run by the
//! determinism contract) use a tight 2 % band, while wall-clock metrics
//! default to a loose 50 % band that `--tolerance` can override, since
//! CI machines are noisy. A metric whose baseline value is zero or
//! missing is skipped rather than gated.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_baselines::{Assigner, CloudAssigner, HeftAssigner, TStormAssigner, VneAssigner};
use sparcle_core::{DynamicRankingAssigner, PlacementEngine, TraceHandle};
use sparcle_model::{
    Application, LinkDirection, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec,
};
use sparcle_runtime::{ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_sim::{simulate_flows_traced, ArrivalProcess, FlowSimConfig, SimApp};
use sparcle_telemetry::{CollectRecorder, Event, Json};
use sparcle_workloads::face_detection::{face_detection_app, testbed_network, CLOUD};
use sparcle_workloads::graphs::linear_task_graph;
use sparcle_workloads::{
    ArrivalTrace, BottleneckCase, GraphKind, ScaleSpec, ScenarioConfig, TopologyKind,
};

/// One metric of a [`BenchResult`] and how to judge a change in it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Key in the serialized `metrics` object.
    pub name: &'static str,
    /// `true` when larger values are improvements (throughput-like);
    /// `false` when smaller values are (time-, depth-like).
    pub higher_is_better: bool,
    /// Deterministic metrics are identical run-to-run, so they get the
    /// tight [`DETERMINISTIC_TOLERANCE`] instead of the wall tolerance.
    pub deterministic: bool,
    /// An absolute relative band that overrides both the deterministic
    /// and wall tolerances — for metrics that are already ratios of two
    /// same-machine wall clocks, where machine noise cancels and the
    /// band IS the acceptance criterion (the monitor's ≤ 5 % overhead
    /// budget).
    pub fixed_tolerance: Option<f64>,
}

/// The twelve gated metrics, in serialization order.
pub const METRIC_SPECS: [MetricSpec; 12] = [
    MetricSpec {
        name: "wall_time_s",
        higher_is_better: false,
        deterministic: false,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "gamma_cache_hit_rate",
        higher_is_better: true,
        deterministic: true,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "events_per_sec",
        higher_is_better: true,
        deterministic: false,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "peak_queue_depth",
        higher_is_better: false,
        deterministic: true,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "be_solve_ms_per_event",
        higher_is_better: false,
        deterministic: false,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "warm_inner_iters_per_solve",
        higher_is_better: false,
        deterministic: true,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "ct_commits_per_sec",
        higher_is_better: true,
        deterministic: false,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "monitor_overhead_ratio",
        higher_is_better: false,
        deterministic: false,
        fixed_tolerance: Some(0.05),
    },
    MetricSpec {
        name: "admissions_per_sec",
        higher_is_better: true,
        deterministic: false,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "p99_decision_ms",
        higher_is_better: false,
        deterministic: true,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "delivered_rate_uplift",
        higher_is_better: true,
        deterministic: true,
        fixed_tolerance: None,
    },
    MetricSpec {
        name: "defrag_overhead_ratio",
        higher_is_better: false,
        deterministic: false,
        fixed_tolerance: None,
    },
];

/// Relative band for deterministic metrics (float formatting slack
/// only — the values themselves must not move).
pub const DETERMINISTIC_TOLERANCE: f64 = 0.02;

/// Default relative band for wall-clock metrics on shared hardware.
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.5;

/// The measured outcome of one pinned experiment. A metric the
/// workload does not produce stays at its `Default` of 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchResult {
    /// Experiment name (`BENCH_<experiment>.json`).
    pub experiment: String,
    /// End-to-end wall time of the workload, seconds.
    pub wall_time_s: f64,
    /// γ-cache hits / (hits + misses) over all placements (0 when the
    /// workload performed none).
    pub gamma_cache_hit_rate: f64,
    /// Discrete-event throughput: events processed / wall time (0 when
    /// the workload runs no event loop).
    pub events_per_sec: f64,
    /// Peak future-event-list depth of the DES (0 when not simulated).
    pub peak_queue_depth: f64,
    /// Wall-clock milliseconds spent in BE allocation solves per DES
    /// event (0 when the workload runs no online system).
    pub be_solve_ms_per_event: f64,
    /// Newton steps per warm-started BE solve — deterministic, so it
    /// gates the warm-start schedule itself rather than the machine.
    pub warm_inner_iters_per_solve: f64,
    /// CT commits (not applications) per second of wall time (0 when
    /// the workload drives no engine directly).
    pub ct_commits_per_sec: f64,
    /// Monitor-on wall time over monitor-off wall time of the same
    /// workload on the same machine (0 when the workload does not
    /// measure the observability plane). Machine noise cancels in the
    /// ratio, so it gets a fixed 5 % band — the monitor's overhead
    /// budget.
    pub monitor_overhead_ratio: f64,
    /// Admission decisions served per second of wall time by the
    /// service plane (0 when the workload runs no admission service).
    pub admissions_per_sec: f64,
    /// 99th-percentile arrival-to-decision latency of the admission
    /// service in simulated milliseconds — sim-time, hence
    /// deterministic: it gates the batching/backpressure policy itself,
    /// not the machine (0 when no admission service runs).
    pub p99_decision_ms: f64,
    /// Defrag-on BE delivered-work integral over defrag-off on the same
    /// churn timeline at the default migration budget (0 when the
    /// workload does not exercise the defrag plane). Pure sim-time,
    /// hence deterministic: the gate pins the re-optimizer's value, not
    /// the machine — a drop means defrag stopped finding (or started
    /// mis-scoring) net-positive moves.
    pub delivered_rate_uplift: f64,
    /// Defrag-on wall time over defrag-off wall time of the same churn
    /// workload on the same machine (0 when not measured). The probe
    /// pass does real assignment work, so this rides the wall band
    /// rather than a fixed few-percent budget; it catches the probe
    /// loop regressing into rebuild-everything behaviour.
    pub defrag_overhead_ratio: f64,
}

impl BenchResult {
    /// Metric values in [`METRIC_SPECS`] order.
    pub fn metrics(&self) -> [f64; 12] {
        [
            self.wall_time_s,
            self.gamma_cache_hit_rate,
            self.events_per_sec,
            self.peak_queue_depth,
            self.be_solve_ms_per_event,
            self.warm_inner_iters_per_solve,
            self.ct_commits_per_sec,
            self.monitor_overhead_ratio,
            self.admissions_per_sec,
            self.p99_decision_ms,
            self.delivered_rate_uplift,
            self.defrag_overhead_ratio,
        ]
    }

    /// Serializes to the committed `BENCH_*.json` shape: only the
    /// metrics the workload produced (the non-zero ones) are written.
    pub fn to_json(&self) -> Json {
        let metrics = METRIC_SPECS
            .iter()
            .zip(self.metrics())
            .filter(|(_, value)| *value != 0.0)
            .map(|(spec, value)| (spec.name, Json::num(value)))
            .collect::<Vec<_>>();
        Json::obj([
            ("experiment", Json::Str(self.experiment.clone())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Parses a serialized result; `None` when the shape is wrong.
    /// Unknown metrics are ignored and missing ones read as 0 (skipped
    /// by [`compare`]), so the format can grow without breaking old
    /// baselines.
    pub fn from_json(json: &Json) -> Option<BenchResult> {
        let experiment = json.get("experiment")?.as_str()?.to_owned();
        let metrics = json.get("metrics")?;
        let value = |name: &str| metrics.get(name).and_then(Json::as_num).unwrap_or(0.0);
        Some(BenchResult {
            experiment,
            wall_time_s: value("wall_time_s"),
            gamma_cache_hit_rate: value("gamma_cache_hit_rate"),
            events_per_sec: value("events_per_sec"),
            peak_queue_depth: value("peak_queue_depth"),
            be_solve_ms_per_event: value("be_solve_ms_per_event"),
            warm_inner_iters_per_solve: value("warm_inner_iters_per_solve"),
            ct_commits_per_sec: value("ct_commits_per_sec"),
            monitor_overhead_ratio: value("monitor_overhead_ratio"),
            admissions_per_sec: value("admissions_per_sec"),
            p99_decision_ms: value("p99_decision_ms"),
            delivered_rate_uplift: value("delivered_rate_uplift"),
            defrag_overhead_ratio: value("defrag_overhead_ratio"),
        })
    }
}

/// One metric that moved past its tolerance in the wrong direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name.
    pub metric: &'static str,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Relative band that was exceeded.
    pub tolerance: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4} -> {:.4} ({:+.1}%, tolerance ±{:.0}%)",
            self.metric,
            self.baseline,
            self.current,
            100.0 * (self.current - self.baseline) / self.baseline,
            100.0 * self.tolerance,
        )
    }
}

/// Direction-aware comparison of a fresh result against the committed
/// baseline. Metrics with a zero or non-finite baseline are skipped
/// (the workload did not produce them when the baseline was recorded).
pub fn compare(
    current: &BenchResult,
    baseline: &BenchResult,
    wall_tolerance: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (spec, (cur, base)) in METRIC_SPECS
        .iter()
        .zip(current.metrics().into_iter().zip(baseline.metrics()))
    {
        if !base.is_finite() || base == 0.0 {
            continue;
        }
        let tolerance = spec.fixed_tolerance.unwrap_or(if spec.deterministic {
            DETERMINISTIC_TOLERANCE
        } else {
            wall_tolerance
        });
        let regressed = if spec.higher_is_better {
            cur < base * (1.0 - tolerance)
        } else {
            cur > base * (1.0 + tolerance)
        };
        if regressed {
            regressions.push(Regression {
                metric: spec.name,
                baseline: base,
                current: cur,
                tolerance,
            });
        }
    }
    regressions
}

/// The committed-baseline directory (`<repo>/benchmarks`).
pub fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

/// `<dir>/BENCH_<experiment>.json`.
pub fn result_path(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("BENCH_{experiment}.json"))
}

/// A named baseline workload: `(name, runner)`.
pub type BaselineExperiment = (&'static str, fn() -> BenchResult);

/// The pinned baseline workloads, each a deterministic compact cut of
/// the experiment it is named after.
pub const BASELINE_EXPERIMENTS: [BaselineExperiment; 8] = [
    ("fig6_placement", run_fig6_placement),
    ("scaling_assign", run_scaling_assign),
    ("scale_assign", run_scale_assign),
    ("churn_runtime", run_churn_runtime),
    ("churn_solver", run_churn_solver),
    ("churn_monitor", run_churn_monitor),
    ("service_admission", run_service_admission),
    ("churn_defrag", run_churn_defrag),
];

/// Runs one registered baseline experiment by name.
pub fn run_experiment(name: &str) -> Option<BenchResult> {
    BASELINE_EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run())
}

fn hit_rate(snapshot: &sparcle_telemetry::MetricsSnapshot) -> f64 {
    let hits = snapshot.counter("gamma_cache.hits") as f64;
    let misses = snapshot.counter("gamma_cache.misses") as f64;
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

fn peak_depth(events: &[Event]) -> f64 {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SimQueueDepth { depth, .. } => Some(*depth),
            _ => None,
        })
        .max()
        .unwrap_or(0) as f64
}

/// Figure-6 cut: the 5-assigner × 3-bandwidth placement sweep
/// (repeated so the wall clock rises above timer noise) plus one long
/// saturating flow simulation of the 0.5 Mbps SPARCLE placement.
fn run_fig6_placement() -> BenchResult {
    const SWEEP_REPS: usize = 30;
    let recorder = CollectRecorder::new();
    let trace = TraceHandle::new(&recorder);
    let app = face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload");

    let start = Instant::now();
    let mut sim_placement = None;
    for rep in 0..SWEEP_REPS {
        for &bw in &[0.5, 10.0, 22.0] {
            let network = testbed_network(bw);
            let caps = network.capacity_map();
            let algos: Vec<Box<dyn Assigner>> = vec![
                Box::new(DynamicRankingAssigner::new()),
                Box::new(HeftAssigner::new()),
                Box::new(TStormAssigner::new()),
                Box::new(VneAssigner::new()),
                Box::new(CloudAssigner::new(CLOUD)),
            ];
            for algo in &algos {
                let path = algo.assign_traced(&app, &network, &caps, trace);
                if rep == 0 && bw == 0.5 && algo.name() == "SPARCLE" {
                    sim_placement = Some(path.expect("sparcle places at 0.5 Mbps"));
                }
            }
        }
    }
    let placed = sim_placement.expect("sweep includes SPARCLE at 0.5 Mbps");
    let network = testbed_network(0.5);
    let rate = 0.9 * placed.rate;
    simulate_flows_traced(
        &network,
        &[SimApp {
            graph: app.graph(),
            placement: &placed.placement,
            rate,
        }],
        &FlowSimConfig {
            duration: 12_000.0 / rate.max(1e-3),
            warmup: 600.0 / rate.max(1e-3),
            arrivals: ArrivalProcess::Poisson { seed: 7 },
        },
        trace,
    );
    let wall = start.elapsed().as_secs_f64();

    let snapshot = recorder.snapshot();
    let processed = snapshot.counter("sim.events.processed") as f64;
    BenchResult {
        experiment: "fig6_placement".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: hit_rate(&snapshot),
        events_per_sec: if wall > 0.0 { processed / wall } else { 0.0 },
        peak_queue_depth: peak_depth(&recorder.events()),
        ..BenchResult::default()
    }
}

/// Drives one full Algorithm-2 assignment the way
/// [`DynamicRankingAssigner`] does (serial cached mode), but seeded
/// with `rows` exported from a previous engine over the same scenario —
/// the cross-engine γ-row adoption path that online re-placement leans
/// on. Returns the number of CT commits performed.
fn assign_with_adopted_rows(
    app: &Application,
    network: &Network,
    caps: &sparcle_model::CapacityMap,
    rows: &sparcle_core::GammaRows,
    trace: TraceHandle<'_>,
) -> usize {
    let span = trace.span("engine.assign");
    let mut engine = PlacementEngine::new_traced(app, network, caps, trace).expect("assignable");
    engine.adopt_rows(rows);
    let mut commits = 0;
    while let Some((ct, host, _)) = engine.rank_round(1).expect("rankable") {
        engine.commit(ct, host).expect("committable");
        commits += 1;
    }
    engine.finish().expect("assignable");
    span.finish();
    commits
}

/// Pre-computes the round-1 γ rows for a scenario with a throwaway
/// engine, for every benchmark rep to adopt.
fn seed_rows(
    app: &Application,
    network: &Network,
    caps: &sparcle_model::CapacityMap,
) -> sparcle_core::GammaRows {
    let mut seeder =
        PlacementEngine::new_traced(app, network, caps, TraceHandle::none()).expect("assignable");
    seeder.rank_round(1).expect("rankable");
    seeder.export_rows().expect("no unpinned commits yet")
}

/// Theorem-2 cut: repeated assignment on the largest `exp_scaling`
/// network point (32 NCPs, 8-stage linear graph), every rep adopting
/// the γ rows of a one-time seeder engine. No DES, so the event-loop
/// metrics stay 0 and the gate watches wall time, CT commits/sec, and
/// the γ-cache (adoption makes round 1 all hits, lifting the hit rate
/// well above the cold-start ~3 %).
fn run_scaling_assign() -> BenchResult {
    const REPS: usize = 200;
    let cfg = {
        let mut c = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 8 },
            TopologyKind::Star,
        );
        c.ncps = 32;
        c
    };
    let scenario = cfg
        .sample(&mut StdRng::seed_from_u64(1))
        .expect("valid scenario");
    let caps = scenario.network.capacity_map();
    let rows = seed_rows(&scenario.app, &scenario.network, &caps);

    let recorder = CollectRecorder::new();
    let mut commits = 0usize;
    let start = Instant::now();
    for _ in 0..REPS {
        commits += assign_with_adopted_rows(
            &scenario.app,
            &scenario.network,
            &caps,
            &rows,
            TraceHandle::new(&recorder),
        );
    }
    let wall = start.elapsed().as_secs_f64();
    BenchResult {
        experiment: "scaling_assign".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: hit_rate(&recorder.snapshot()),
        ct_commits_per_sec: if wall > 0.0 {
            commits as f64 / wall
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// `exp_scale` cut: repeated assignment of the backbone-crossing
/// pipeline on a 5000-NCP hub-and-spoke topology (the size the flat
/// CSR arrays exist for). Same adoption pattern as
/// [`run_scaling_assign`], fewer reps since each assignment sweeps a
/// 5k-node graph.
fn run_scale_assign() -> BenchResult {
    const REPS: usize = 20;
    const NCPS: usize = 5_000;
    let scenario = ScaleSpec::new(NCPS).build().expect("valid scale scenario");
    let caps = scenario.network.capacity_map();
    let rows = seed_rows(&scenario.app, &scenario.network, &caps);

    let recorder = CollectRecorder::new();
    let mut commits = 0usize;
    let start = Instant::now();
    for _ in 0..REPS {
        commits += assign_with_adopted_rows(
            &scenario.app,
            &scenario.network,
            &caps,
            &rows,
            TraceHandle::new(&recorder),
        );
    }
    let wall = start.elapsed().as_secs_f64();
    BenchResult {
        experiment: "scale_assign".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: hit_rate(&recorder.snapshot()),
        ct_commits_per_sec: if wall > 0.0 {
            commits as f64 / wall
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// Compact `exp_churn` network: four edge hosts, a fast flaky hub and a
/// slower reliable one.
fn churn_network(flaky: f64) -> Network {
    let mut b = NetworkBuilder::new();
    let edges: Vec<NcpId> = (0..4)
        .map(|i| b.add_ncp(format!("edge{i}"), ResourceVec::cpu(20.0)))
        .collect();
    let fast = b.add_ncp("hub-fast", ResourceVec::cpu(2000.0));
    let slow = b.add_ncp("hub-slow", ResourceVec::cpu(1500.0));
    for (i, &e) in edges.iter().enumerate() {
        b.add_link_full(
            format!("fast{i}"),
            e,
            fast,
            2e4,
            LinkDirection::Undirected,
            flaky,
        )
        .expect("valid link");
        b.add_link_full(
            format!("slow{i}"),
            e,
            slow,
            8e3,
            LinkDirection::Undirected,
            flaky / 4.0,
        )
        .expect("valid link");
    }
    b.build().expect("valid network")
}

fn churn_app(index: u64) -> Application {
    let graph = if index.is_multiple_of(2) {
        linear_task_graph(&[60.0], &[1200.0, 600.0])
    } else {
        linear_task_graph(&[40.0, 40.0], &[1000.0, 800.0, 400.0])
    }
    .expect("valid graph");
    let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
    let qoe = if index.is_multiple_of(3) {
        QoeClass::guaranteed_rate(1.5, 0.5)
    } else {
        QoeClass::best_effort(1.0 + (index % 4) as f64)
    };
    let src_host = NcpId::new((index % 4) as u32);
    let sink_host = NcpId::new(((index + 1) % 4) as u32);
    Application::new(graph, qoe, [(src, src_host), (sink, sink_host)]).expect("valid app")
}

/// Online-runtime cut: one Poisson arrival timeline through the churn
/// control plane under the FIFO reconcile policy.
fn run_churn_runtime() -> BenchResult {
    let config = RuntimeConfig {
        horizon: 150.0,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy: ReconcilePolicy::Fifo,
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 1.2 }.events(config.horizon, 0xa11);
    let mut rt = SparcleRuntime::new(churn_network(0.05), arrivals, churn_app, config);

    let recorder = CollectRecorder::new();
    let start = Instant::now();
    rt.run_traced(TraceHandle::new(&recorder));
    let wall = start.elapsed().as_secs_f64();

    let events = rt.events_processed() as f64;
    BenchResult {
        experiment: "churn_runtime".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: hit_rate(&recorder.snapshot()),
        events_per_sec: if wall > 0.0 { events / wall } else { 0.0 },
        ..BenchResult::default()
    }
}

/// One rep of the churn-runtime workload, with or without the
/// observability plane, returning its wall seconds. The horizon is
/// stretched to 600 sim-s (≈0.5 s of wall per rep) so the rep rises
/// well above timer noise — at the 150 s cut a single scheduler
/// hiccup moves the ratio by several percent.
fn churn_monitor_rep(monitor: bool) -> f64 {
    let config = RuntimeConfig {
        horizon: 600.0,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy: ReconcilePolicy::Fifo,
        monitor: monitor.then(|| sparcle_runtime::MonitorConfig {
            period: 5.0,
            slots: 6,
            ..sparcle_runtime::MonitorConfig::default()
        }),
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 1.2 }.events(config.horizon, 0xa11);
    let mut rt = SparcleRuntime::new(churn_network(0.05), arrivals, churn_app, config);
    let start = Instant::now();
    rt.run_traced(TraceHandle::none());
    start.elapsed().as_secs_f64()
}

/// Observability-plane overhead cut: the churn-runtime workload with
/// the monitor on vs off. Same statistic as the span-overhead test:
/// after a warm-up pair, run interleaved off/on pairs and gate the
/// *minimum* per-pair ratio — true monitor overhead is present in
/// every pair, while scheduler noise only inflates some of them, so
/// min(ratio) estimates the overhead floor rather than the machine's
/// worst moment. The metric rides a fixed 5 % band: the monitor's
/// overhead budget, not a drift tolerance.
fn run_churn_monitor() -> BenchResult {
    const REPS: usize = 5;
    let start = Instant::now();
    churn_monitor_rep(false);
    churn_monitor_rep(true);
    let mut best_ratio = f64::INFINITY;
    for _ in 0..REPS {
        let off = churn_monitor_rep(false);
        let on = churn_monitor_rep(true);
        if off > 0.0 {
            best_ratio = best_ratio.min(on / off);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    BenchResult {
        experiment: "churn_monitor".to_owned(),
        wall_time_s: wall,
        monitor_overhead_ratio: if best_ratio.is_finite() {
            best_ratio
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// One rep of the defrag workload — the `exp_defrag` churn timeline at
/// the stormier 0.08 flake rate — returning the ledger's BE
/// delivered-work integral and the rep's wall seconds.
fn churn_defrag_rep(defrag: bool) -> (f64, f64) {
    let config = RuntimeConfig {
        horizon: 300.0,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy: ReconcilePolicy::Fifo,
        defrag: defrag.then(sparcle_runtime::DefragConfig::default),
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 1.2 }.events(config.horizon, 0xa11);
    let mut rt = SparcleRuntime::new(churn_network(0.08), arrivals, churn_app, config);
    let start = Instant::now();
    let delivered = rt.run_traced(TraceHandle::none()).be_rate_integral();
    (delivered, start.elapsed().as_secs_f64())
}

/// Defrag-plane cut: the churn workload with the background
/// re-optimizer on vs off at the default migration budget.
/// `delivered_rate_uplift` is the sim-time on/off delivered-work ratio
/// — deterministic, so the gate pins the re-optimizer's value itself;
/// `defrag_overhead_ratio` is the min-of-interleaved-pairs wall ratio
/// (same statistic as [`run_churn_monitor`]) and catches the probe
/// pass regressing into rebuild-everything behaviour.
fn run_churn_defrag() -> BenchResult {
    const REPS: usize = 3;
    let start = Instant::now();
    let (off_delivered, _) = churn_defrag_rep(false);
    let (on_delivered, _) = churn_defrag_rep(true);
    let mut best_ratio = f64::INFINITY;
    for _ in 0..REPS {
        let (_, off_wall) = churn_defrag_rep(false);
        let (_, on_wall) = churn_defrag_rep(true);
        if off_wall > 0.0 {
            best_ratio = best_ratio.min(on_wall / off_wall);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    BenchResult {
        experiment: "churn_defrag".to_owned(),
        wall_time_s: wall,
        delivered_rate_uplift: if off_delivered > 0.0 {
            on_delivered / off_delivered
        } else {
            0.0
        },
        defrag_overhead_ratio: if best_ratio.is_finite() {
            best_ratio
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// Incremental-state solver cut: the `exp_churn` determinism timeline
/// (high-rate Poisson arrivals, flaky links, fast capacity
/// fluctuation) with the per-event solve cost and the warm-start
/// schedule's Newton-step budget pulled from the system's state
/// counters. `warm_inner_iters_per_solve` is deterministic, so the
/// gate pins the warm-start schedule itself; `be_solve_ms_per_event`
/// rides the wall-clock band and catches solver slowdowns.
fn run_churn_solver() -> BenchResult {
    let config = RuntimeConfig {
        horizon: 600.0,
        failure_seed: 0xfa17,
        hold_seed: 0x401d,
        mean_hold: 20.0,
        policy: ReconcilePolicy::GammaImpact,
        fluctuation: Some(sparcle_runtime::FluctuationConfig {
            model: sparcle_sim::FluctuationModel {
                floor: 0.6,
                step: 0.05,
                seed: 9,
            },
            period: 0.4,
        }),
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 10.0 }.events(config.horizon, 0xbeef);
    let mut rt = SparcleRuntime::new(churn_network(0.08), arrivals, churn_app, config);

    let recorder = CollectRecorder::new();
    let start = Instant::now();
    rt.run_traced(TraceHandle::new(&recorder));
    let wall = start.elapsed().as_secs_f64();

    let events = rt.events_processed() as f64;
    let stats = rt.system().state_stats();
    BenchResult {
        experiment: "churn_solver".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: hit_rate(&recorder.snapshot()),
        events_per_sec: if wall > 0.0 { events / wall } else { 0.0 },
        be_solve_ms_per_event: if events > 0.0 {
            stats.solve_nanos as f64 / 1e6 / events
        } else {
            0.0
        },
        warm_inner_iters_per_solve: if stats.warm_solves > 0 {
            stats.inner_iters_warm as f64 / stats.warm_solves as f64
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// Admission-service cut: a pinned flash-crowd request stream (with
/// every 8th request a snapshot probe) through the micro-batched
/// service plane over the churn network. `admissions_per_sec` rides
/// the wall-clock band; `p99_decision_ms` is measured in *sim* time —
/// deterministic, so the gate pins the batching/backpressure policy
/// itself (a window-size or shedding change moves it immediately).
fn run_service_admission() -> BenchResult {
    let config = sparcle_service::ServiceConfig {
        batch_window: 0.5,
        max_batch: 64,
        queue_capacity: 128,
        max_defer_windows: 4,
        ..sparcle_service::ServiceConfig::default()
    };
    let requests = sparcle_workloads::RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 2.0,
            burst_rate: 40.0,
            burst_start: 60.0,
            burst_end: 120.0,
        },
        180.0,
        0x5eed,
    )
    .with_probe_every(8);
    let mut service =
        sparcle_service::AdmissionService::new(churn_network(0.05), config, churn_app);

    let start = Instant::now();
    service.run(requests);
    let wall = start.elapsed().as_secs_f64();

    let stats = *service.stats();
    let system_stats = service.system().state_stats();
    let lookups = (system_stats.gamma_cache_hits + system_stats.gamma_cache_misses) as f64;
    BenchResult {
        experiment: "service_admission".to_owned(),
        wall_time_s: wall,
        gamma_cache_hit_rate: if lookups > 0.0 {
            system_stats.gamma_cache_hits as f64 / lookups
        } else {
            0.0
        },
        warm_inner_iters_per_solve: if system_stats.warm_solves > 0 {
            system_stats.inner_iters_warm as f64 / system_stats.warm_solves as f64
        } else {
            0.0
        },
        admissions_per_sec: if wall > 0.0 {
            stats.decisions as f64 / wall
        } else {
            0.0
        },
        p99_decision_ms: 1000.0 * service.decision_wait_quantile(0.99),
        ..BenchResult::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, hit: f64, eps: f64, depth: f64) -> BenchResult {
        BenchResult {
            experiment: "t".to_owned(),
            wall_time_s: wall,
            gamma_cache_hit_rate: hit,
            events_per_sec: eps,
            peak_queue_depth: depth,
            ..BenchResult::default()
        }
    }

    #[test]
    fn json_round_trips() {
        let r = result(1.25, 0.875, 10_000.0, 42.0);
        let parsed = BenchResult::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        // Only the four metrics this result produced are written.
        let text = r.to_json().render();
        assert_eq!(
            text,
            r#"{"experiment":"t","metrics":{"wall_time_s":1.25,"gamma_cache_hit_rate":0.875,"events_per_sec":10000,"peak_queue_depth":42}}"#
        );
        // And through the serialized text, as the compare gate reads it.
        let reparsed =
            BenchResult::from_json(&sparcle_telemetry::parse_json(&text).unwrap()).unwrap();
        assert_eq!(reparsed, r);
    }

    #[test]
    fn compare_flags_a_2x_slowdown() {
        let baseline = result(1.0, 0.9, 10_000.0, 40.0);
        let slow = result(2.0, 0.9, 10_000.0, 40.0);
        let regressions = compare(&slow, &baseline, DEFAULT_WALL_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "wall_time_s");
        assert!(regressions[0].to_string().contains("wall_time_s"));
    }

    #[test]
    fn compare_is_direction_aware() {
        let baseline = result(1.0, 0.9, 10_000.0, 40.0);
        // Faster, hotter cache, more throughput, shallower queue: all
        // improvements, none flagged.
        let better = result(0.4, 0.95, 20_000.0, 30.0);
        assert!(compare(&better, &baseline, DEFAULT_WALL_TOLERANCE).is_empty());
        // Cache hit rate is deterministic: a 10 % drop trips the tight
        // band even though the wall tolerance would allow it.
        let colder = result(1.0, 0.8, 10_000.0, 40.0);
        let regressions = compare(&colder, &baseline, DEFAULT_WALL_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "gamma_cache_hit_rate");
    }

    #[test]
    fn compare_skips_zero_baselines() {
        let baseline = result(1.0, 0.0, 0.0, 0.0);
        let current = result(1.0, 0.5, 123.0, 99.0);
        assert!(compare(&current, &baseline, DEFAULT_WALL_TOLERANCE).is_empty());
    }

    #[test]
    fn compare_tolerance_bounds_the_gate() {
        let baseline = result(1.0, 0.9, 10_000.0, 40.0);
        let slightly_slow = result(1.4, 0.9, 10_000.0, 40.0);
        assert!(compare(&slightly_slow, &baseline, 0.5).is_empty());
        assert_eq!(compare(&slightly_slow, &baseline, 0.2).len(), 1);
    }

    #[test]
    fn monitor_overhead_rides_the_fixed_band() {
        let mut baseline = result(1.0, 0.9, 10_000.0, 40.0);
        baseline.monitor_overhead_ratio = 1.0;
        // 4 % overhead sits inside the fixed 5 % budget even when the
        // wall tolerance is tightened to nothing...
        let mut ok = baseline.clone();
        ok.monitor_overhead_ratio = 1.04;
        assert!(compare(&ok, &baseline, 0.0).is_empty());
        // ...and 8 % busts it even under the loosest wall tolerance.
        let mut busted = baseline.clone();
        busted.monitor_overhead_ratio = 1.08;
        let regressions = compare(&busted, &baseline, 10.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "monitor_overhead_ratio");
        assert_eq!(regressions[0].tolerance, 0.05);
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = BASELINE_EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BASELINE_EXPERIMENTS.len());
        assert!(run_experiment("no-such-experiment").is_none());
    }
}
