//! Admission service plane under sustained flash-crowd load.
//!
//! Drives the same pinned flash-crowd request stream (submissions plus
//! snapshot probes) through [`sparcle_runtime::service::AdmissionService`] at a
//! sweep of micro-batch window sizes — from an effectively per-request
//! window up to coarse coalescing — over the edge/hub network of
//! [`sparcle_workloads::edge_hub`]. The point of the plane shows up in
//! two columns:
//!
//! * `solves/app` — batching amortizes the warm Best-Effort solve:
//!   per-request admission pays ~one solve per admitted application,
//!   wide windows pay one per *batch*;
//! * `p99_ms` — the price: decisions wait for their window boundary
//!   (plus backpressure deferrals), so the 99th-percentile
//!   arrival-to-decision latency grows with the window. Both are
//!   sim-time deterministic; `adm/s` is the wall-clock throughput.
//!
//! ```sh
//! cargo run --release -p sparcle-bench --bin sparcle-exp -- service \
//!     --trace-out service.jsonl --summary
//! ```

use crate::{ExpHarness, ParsedFlags, Table};
use sparcle_runtime::service::{AdmissionService, ServiceConfig};
use sparcle_workloads::edge_hub::{network, service_app};
use sparcle_workloads::{ArrivalTrace, RequestStream};
use std::time::Instant;

/// The pinned flash-crowd request stream every row replays.
fn request_stream(horizon: f64) -> RequestStream {
    RequestStream::new(
        ArrivalTrace::FlashCrowd {
            rate: 1.0,
            burst_rate: 12.0,
            burst_start: 30.0,
            burst_end: 70.0,
        },
        horizon,
        0x5eed,
    )
    .with_probe_every(8)
}

pub fn run(_: &ParsedFlags, harness: &ExpHarness) {
    let horizon = 100.0;
    // (label, batch window). The first row is effectively per-request
    // admission: a window far below the minimum arrival spacing, so
    // every batch has size 1 and each admitted app pays its own solve.
    let windows = [
        ("per-req", 1e-5),
        ("0.25s", 0.25),
        ("0.5s", 0.5),
        ("1s", 1.0),
        ("2s", 2.0),
    ];

    let mut table = Table::new([
        "window",
        "batches",
        "admitted",
        "rejected",
        "shed",
        "defer",
        "solves",
        "solves/app",
        "p99_ms",
        "adm/s",
        "probes",
    ]);
    let mut per_request_solves_per_app = f64::NAN;
    let mut widest_solves_per_app = f64::NAN;
    for (label, window) in &windows {
        let config = ServiceConfig {
            batch_window: *window,
            max_batch: 64,
            queue_capacity: 128,
            max_defer_windows: 4,
            ..ServiceConfig::default()
        };
        let mut service = AdmissionService::new(network(0.02), config, service_app);
        let start = Instant::now();
        service.run_traced(request_stream(horizon), harness.trace());
        let wall = start.elapsed().as_secs_f64();

        let stats = *service.stats();
        let solves = service.system().state_stats().solves;
        let solves_per_app = if stats.admitted > 0 {
            solves as f64 / stats.admitted as f64
        } else {
            f64::NAN
        };
        if *label == "per-req" {
            per_request_solves_per_app = solves_per_app;
            // One solve's counted work outlasts a 10 µs window, so
            // per-request admission feels backpressure: the shed the
            // trace's `explain --pick shed` walks back to its ingest.
            assert!(
                stats.windows_deferred > 0 && stats.shed > 0,
                "per-request windows must defer and shed: {stats:?}"
            );
        }
        widest_solves_per_app = solves_per_app;
        let p99_ms = 1000.0 * service.decision_wait_quantile(0.99);
        table.row([
            (*label).to_owned(),
            stats.batches.to_string(),
            stats.admitted.to_string(),
            stats.rejected.to_string(),
            stats.shed.to_string(),
            service.ledger().deferrals().to_string(),
            solves.to_string(),
            format!("{solves_per_app:.3}"),
            format!("{p99_ms:.1}"),
            format!("{:.0}", stats.decisions as f64 / wall.max(1e-9)),
            stats.probes.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!(
        "batched admission at the widest window costs {widest_solves_per_app:.3} BE solves per \
         admitted app vs {per_request_solves_per_app:.3} per-request \
         ({:.1}x cheaper)",
        per_request_solves_per_app / widest_solves_per_app
    );
    assert!(
        widest_solves_per_app < per_request_solves_per_app,
        "batching must amortize solves: widest {widest_solves_per_app} vs per-request \
         {per_request_solves_per_app}"
    );
    let csv = table.write_csv("exp_service");
    println!("wrote {}", csv.display());
}
