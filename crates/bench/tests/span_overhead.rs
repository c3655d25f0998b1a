//! Span-instrumentation overhead bound: with a `SpanTracker` attached,
//! the traced placement path must stay within 5 % of the span-free
//! traced path on the `exp_scaling` workload.
//!
//! `#[ignore]`d because wall-clock assertions are meaningless in debug
//! builds and on loaded machines; the nightly bench-smoke job runs it
//! explicitly in release mode:
//!
//! ```sh
//! cargo test --release -p sparcle-bench --test span_overhead -- --ignored
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, TraceHandle};
use sparcle_telemetry::{CollectRecorder, SpanTracker};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};

const BATCHES: usize = 12;
const REPS_PER_BATCH: usize = 25;
const MAX_OVERHEAD: f64 = 1.05;

#[test]
#[ignore = "wall-clock bound; run in release via the nightly bench-smoke job"]
fn span_tracking_costs_at_most_five_percent() {
    // The largest exp_scaling network point: per-round ranking work
    // grows with |N| while the span count per round is constant, so
    // this is the point the ≤5 % budget is specified against.
    let cfg = {
        let mut c = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 8 },
            TopologyKind::Star,
        );
        c.ncps = 64;
        c
    };
    let scenario = cfg
        .sample(&mut StdRng::seed_from_u64(1))
        .expect("valid scenario");
    let caps = scenario.network.capacity_map();
    let assigner = DynamicRankingAssigner::new();

    let run_batch = |with_spans: bool| -> f64 {
        let recorder = CollectRecorder::new();
        let tracker = SpanTracker::new();
        let trace = if with_spans {
            TraceHandle::with_spans(&recorder, &tracker)
        } else {
            TraceHandle::new(&recorder)
        };
        let start = Instant::now();
        for _ in 0..REPS_PER_BATCH {
            assigner
                .assign_with_trace(&scenario.app, &scenario.network, &caps, trace)
                .expect("assignable");
        }
        start.elapsed().as_secs_f64()
    };

    // Warm-up, then interleave the two configurations so slow drift in
    // machine load hits both sides equally. The gate uses the *minimum*
    // per-batch ratio: true instrumentation overhead is present in every
    // batch, while scheduler noise and load spikes only inflate some of
    // them, so min(ratio) estimates the overhead floor rather than the
    // machine's worst moment.
    run_batch(false);
    run_batch(true);
    let mut ratios = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let plain = run_batch(false);
        let spanned = run_batch(true);
        ratios.push(spanned / plain);
    }

    let best = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let rendered: Vec<String> = ratios.iter().map(|r| format!("{r:.4}")).collect();
    println!(
        "span overhead per batch: [{}], min {best:.4}",
        rendered.join(", ")
    );
    assert!(
        best <= MAX_OVERHEAD,
        "span instrumentation overhead {best:.3}x (best of {BATCHES} interleaved batches of \
         {REPS_PER_BATCH} reps) exceeds the {MAX_OVERHEAD}x budget; per-batch ratios: {rendered:?}"
    );
}
