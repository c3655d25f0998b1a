//! Behaviour-regression baseline harness.
//!
//! Five pinned, deterministic workloads (compact cuts of the `fig6`,
//! `churn`, `service` and `defrag` experiments, plus the
//! incremental-state solver timeline and the monitor-overhead ratio)
//! each produce a [`BenchResult`] — peak event-queue depth, warm-start
//! Newton steps, sim-time decision latency, the defragmenter's
//! delivered-rate uplift and the observability plane's on/off wall-time
//! ratio — serialized to `BENCH_<experiment>.json`, which carries only
//! the metrics its workload produced. The committed copies under
//! `benchmarks/` are the baseline; `sparcle-exp baseline compare`
//! re-runs the workloads and exits nonzero when a metric moves past its
//! tolerance in the wrong direction, which is how the nightly CI gate
//! catches behavioural drift before it lands.
//!
//! Every metric here is machine-independent: four are identical on
//! every run by the determinism contract (a tight 2 % band, float
//! formatting slack only), and the fifth is a ratio of two same-machine
//! wall clocks whose band is the monitor's overhead budget. Absolute
//! wall-clock numbers — throughput, latency, solve cost — live only in
//! `benchmark/` (see `BENCHMARK.json`), measured under its protocol. A
//! metric whose baseline value is zero or missing is skipped rather
//! than gated.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sparcle_baselines::{Assigner, CloudAssigner, HeftAssigner, TStormAssigner, VneAssigner};
use sparcle_core::{DynamicRankingAssigner, TraceHandle};
use sparcle_model::QoeClass;
use sparcle_runtime::{ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_sim::{simulate_flows_traced, ArrivalProcess, FlowSimConfig, SimApp};
use sparcle_telemetry::{CollectRecorder, Event, Json};
use sparcle_workloads::edge_hub::{churn_app, network};
use sparcle_workloads::face_detection::{face_detection_app, testbed_network, CLOUD};
use sparcle_workloads::ArrivalTrace;

/// One metric of a [`BenchResult`] and how to judge a change in it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Key in the serialized `metrics` object.
    pub name: &'static str,
    /// `true` when larger values are improvements (uplift-like);
    /// `false` when smaller values are (latency-, depth-like).
    pub higher_is_better: bool,
    /// Relative band a fresh value may move in the wrong direction
    /// before it counts as a regression.
    pub tolerance: f64,
}

/// Relative band for deterministic metrics (float formatting slack
/// only — the values themselves must not move).
pub const DETERMINISTIC_TOLERANCE: f64 = 0.02;

/// The five gated metrics, in serialization order.
pub const METRIC_SPECS: [MetricSpec; 5] = [
    MetricSpec {
        name: "peak_queue_depth",
        higher_is_better: false,
        tolerance: DETERMINISTIC_TOLERANCE,
    },
    MetricSpec {
        name: "warm_inner_iters_per_solve",
        higher_is_better: false,
        tolerance: DETERMINISTIC_TOLERANCE,
    },
    // A ratio of two same-machine wall clocks: machine noise cancels,
    // and the band IS the acceptance criterion (the monitor's ≤ 5 %
    // overhead budget).
    MetricSpec {
        name: "monitor_overhead_ratio",
        higher_is_better: false,
        tolerance: 0.05,
    },
    MetricSpec {
        name: "p99_decision_ms",
        higher_is_better: false,
        tolerance: DETERMINISTIC_TOLERANCE,
    },
    MetricSpec {
        name: "delivered_rate_uplift",
        higher_is_better: true,
        tolerance: DETERMINISTIC_TOLERANCE,
    },
];

/// The measured outcome of one pinned experiment. A metric the
/// workload does not produce stays at its `Default` of 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchResult {
    /// Experiment name (`BENCH_<experiment>.json`).
    pub experiment: String,
    /// Peak future-event-list depth of the DES (0 when not simulated).
    pub peak_queue_depth: f64,
    /// Newton steps per warm-started BE solve — deterministic, so it
    /// gates the warm-start schedule itself rather than the machine.
    pub warm_inner_iters_per_solve: f64,
    /// Monitor-on wall time over monitor-off wall time of the same
    /// workload on the same machine (0 when the workload does not
    /// measure the observability plane). Machine noise cancels in the
    /// ratio, so it gets a fixed 5 % band — the monitor's overhead
    /// budget.
    pub monitor_overhead_ratio: f64,
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
}

impl BenchResult {
    /// Metric values in [`METRIC_SPECS`] order.
    pub fn metrics(&self) -> [f64; 5] {
        [
            self.peak_queue_depth,
            self.warm_inner_iters_per_solve,
            self.monitor_overhead_ratio,
            self.p99_decision_ms,
            self.delivered_rate_uplift,
        ]
    }

    /// The metrics the workload produced (the non-zero ones), by name,
    /// in [`METRIC_SPECS`] order.
    pub fn produced(&self) -> impl Iterator<Item = (&'static str, f64)> {
        METRIC_SPECS
            .into_iter()
            .zip(self.metrics())
            .filter(|(_, value)| *value != 0.0)
            .map(|(spec, value)| (spec.name, value))
    }

    /// Serializes to the committed `BENCH_*.json` shape: only the
    /// metrics the workload produced are written.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .produced()
            .map(|(name, value)| (name, Json::num(value)))
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
            peak_queue_depth: value("peak_queue_depth"),
            warm_inner_iters_per_solve: value("warm_inner_iters_per_solve"),
            monitor_overhead_ratio: value("monitor_overhead_ratio"),
            p99_decision_ms: value("p99_decision_ms"),
            delivered_rate_uplift: value("delivered_rate_uplift"),
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
pub fn compare(current: &BenchResult, baseline: &BenchResult) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (spec, (cur, base)) in METRIC_SPECS
        .iter()
        .zip(current.metrics().into_iter().zip(baseline.metrics()))
    {
        if !base.is_finite() || base == 0.0 {
            continue;
        }
        let regressed = if spec.higher_is_better {
            cur < base * (1.0 - spec.tolerance)
        } else {
            cur > base * (1.0 + spec.tolerance)
        };
        if regressed {
            regressions.push(Regression {
                metric: spec.name,
                baseline: base,
                current: cur,
                tolerance: spec.tolerance,
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
pub const BASELINE_EXPERIMENTS: [BaselineExperiment; 5] = [
    ("fig6_placement", run_fig6_placement),
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

/// Newton steps per warm-started BE solve over a system's lifetime.
fn warm_iters_per_solve(stats: &sparcle_core::StateStats) -> f64 {
    if stats.warm_solves > 0 {
        stats.inner_iters_warm as f64 / stats.warm_solves as f64
    } else {
        0.0
    }
}

/// Figure-6 cut: one 5-assigner × 3-bandwidth placement sweep (run for
/// its panics, not measured) plus one long saturating flow simulation
/// of the 0.5 Mbps SPARCLE placement, whose peak event-queue depth pins
/// the DES's behaviour.
fn run_fig6_placement() -> BenchResult {
    let app = face_detection_app(QoeClass::best_effort(1.0)).expect("valid workload");
    let mut sim_placement = None;
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
            let path = algo.assign(&app, &network, &caps);
            if bw == 0.5 && algo.name() == "SPARCLE" {
                sim_placement = Some(path.expect("sparcle places at 0.5 Mbps"));
            }
        }
    }
    let placed = sim_placement.expect("sweep includes SPARCLE at 0.5 Mbps");
    let network = testbed_network(0.5);
    let rate = 0.9 * placed.rate;
    let recorder = CollectRecorder::new();
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
        TraceHandle::new(&recorder),
    );
    BenchResult {
        experiment: "fig6_placement".to_owned(),
        peak_queue_depth: peak_depth(&recorder.events()),
        ..BenchResult::default()
    }
}

/// One rep of the churn-runtime workload, with or without the
/// observability plane, returning its wall seconds. The horizon is
/// stretched to 600 sim-s (≈0.5 s of wall per rep) so the rep rises
/// well above timer noise — at a 150 s cut a single scheduler
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
    let mut rt = SparcleRuntime::new(network(0.05), arrivals, churn_app, config);
    let start = Instant::now();
    rt.run();
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
    BenchResult {
        experiment: "churn_monitor".to_owned(),
        monitor_overhead_ratio: if best_ratio.is_finite() {
            best_ratio
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// One timeline of the defrag workload — the `defrag` experiment's
/// churn timeline at the stormier 0.08 flake rate — returning the
/// ledger's BE delivered-work integral.
fn churn_defrag_delivered(defrag: bool) -> f64 {
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
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);
    rt.run().be_rate_integral()
}

/// Defrag-plane cut: the churn workload with the background
/// re-optimizer on vs off at the default migration budget.
/// `delivered_rate_uplift` is the sim-time on/off delivered-work ratio
/// — deterministic, so the gate pins the re-optimizer's value itself
/// (its wall cost is `runtime.defrag_overhead_ratio` in `benchmark/`).
fn run_churn_defrag() -> BenchResult {
    let off_delivered = churn_defrag_delivered(false);
    let on_delivered = churn_defrag_delivered(true);
    BenchResult {
        experiment: "churn_defrag".to_owned(),
        delivered_rate_uplift: if off_delivered > 0.0 {
            on_delivered / off_delivered
        } else {
            0.0
        },
        ..BenchResult::default()
    }
}

/// Incremental-state solver cut: the `churn` experiment's determinism
/// timeline (high-rate Poisson arrivals, flaky links, fast capacity
/// fluctuation) with the warm-start schedule's Newton-step budget
/// pulled from the system's state counters.
/// `warm_inner_iters_per_solve` is deterministic, so the gate pins the
/// warm-start schedule itself (the solve's wall cost is
/// `alloc.num.solve_ms_p50` in `benchmark/`).
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
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);
    rt.run();
    BenchResult {
        experiment: "churn_solver".to_owned(),
        warm_inner_iters_per_solve: warm_iters_per_solve(rt.system().state_stats()),
        ..BenchResult::default()
    }
}

/// Admission-service cut: a pinned flash-crowd request stream (with
/// every 8th request a snapshot probe) through the micro-batched
/// service plane over the churn network. `p99_decision_ms` is measured
/// in *sim* time — deterministic, so the gate pins the
/// batching/backpressure policy itself (a window-size or shedding
/// change moves it immediately).
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
    let mut service = sparcle_service::AdmissionService::new(network(0.05), config, churn_app);
    service.run(requests);
    BenchResult {
        experiment: "service_admission".to_owned(),
        warm_inner_iters_per_solve: warm_iters_per_solve(service.system().state_stats()),
        p99_decision_ms: 1000.0 * service.decision_wait_quantile(0.99),
        ..BenchResult::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(depth: f64, iters: f64, monitor: f64) -> BenchResult {
        BenchResult {
            experiment: "t".to_owned(),
            peak_queue_depth: depth,
            warm_inner_iters_per_solve: iters,
            monitor_overhead_ratio: monitor,
            ..BenchResult::default()
        }
    }

    #[test]
    fn json_round_trips() {
        let r = result(42.0, 52.5, 1.25);
        let parsed = BenchResult::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
        // Only the three metrics this result produced are written.
        let text = r.to_json().render();
        assert_eq!(
            text,
            r#"{"experiment":"t","metrics":{"peak_queue_depth":42,"warm_inner_iters_per_solve":52.5,"monitor_overhead_ratio":1.25}}"#
        );
        // And through the serialized text, as the compare gate reads it.
        let reparsed =
            BenchResult::from_json(&sparcle_telemetry::parse_json(&text).unwrap()).unwrap();
        assert_eq!(reparsed, r);
    }

    #[test]
    fn compare_flags_a_deeper_queue() {
        let baseline = result(40.0, 50.0, 1.0);
        let deeper = result(42.0, 50.0, 1.0); // +5 % on a deterministic metric
        let regressions = compare(&deeper, &baseline);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "peak_queue_depth");
        assert_eq!(regressions[0].tolerance, DETERMINISTIC_TOLERANCE);
        assert!(regressions[0].to_string().contains("peak_queue_depth"));
    }

    #[test]
    fn compare_is_direction_aware() {
        let mut baseline = result(40.0, 50.0, 1.0);
        baseline.delivered_rate_uplift = 1.1;
        // Shallower queue, fewer Newton steps, more uplift: all
        // improvements, none flagged.
        let mut better = result(30.0, 40.0, 1.0);
        better.delivered_rate_uplift = 1.3;
        assert!(compare(&better, &baseline).is_empty());
        // The same 10 % on the higher-is-better metric, downwards, trips.
        let mut worse = baseline.clone();
        worse.delivered_rate_uplift = 0.99;
        let regressions = compare(&worse, &baseline);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "delivered_rate_uplift");
    }

    #[test]
    fn compare_skips_zero_baselines() {
        let baseline = result(0.0, 0.0, 0.0);
        let current = result(99.0, 123.0, 2.0);
        assert!(compare(&current, &baseline).is_empty());
    }

    #[test]
    fn monitor_overhead_rides_its_own_band() {
        let baseline = result(40.0, 50.0, 1.0);
        // 4 % overhead busts the deterministic band but sits inside the
        // monitor's 5 % budget...
        assert!(compare(&result(40.0, 50.0, 1.04), &baseline).is_empty());
        // ...and 8 % busts the budget.
        let regressions = compare(&result(40.0, 50.0, 1.08), &baseline);
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
