//! Scale experiment: Algorithm 2 on 5k–10k-NCP dispersed topologies.
//!
//! Sweeps two sizes of the seeded hub-and-spoke network from
//! `sparcle_workloads::scale` and times full dynamic-ranking
//! assignments, printing wall time per assignment, placements per
//! second, and the achieved rate.
//!
//! Extra flags on top of the shared harness ones:
//!
//! * `--ncps <n>` — the largest topology size (default 5000; the sweep
//!   also runs `n/2`). Nightly smoke runs pass a reduced size.
//! * `--reps <n>` — timed assignments per size (default 3).

use sparcle_bench::{ExpFlags, ExpHarness, Table};
use sparcle_core::DynamicRankingAssigner;
use sparcle_workloads::ScaleSpec;
use std::time::Instant;

struct ScaleArgs {
    ncps: usize,
    reps: usize,
}

fn main() {
    let mut flags = ExpFlags::new();
    flags
        .value(
            "ncps",
            "largest topology size (the sweep also runs n/2)",
            "5000",
        )
        .value("reps", "timed assignments per size", "3");
    let parsed = flags.parse();
    let args = ScaleArgs {
        ncps: parsed.usize("ncps"),
        reps: parsed.usize("reps"),
    };
    assert!(args.ncps >= 8, "--ncps must be at least 8");
    assert!(args.reps >= 1, "--reps must be at least 1");
    let harness = ExpHarness::with_args("exp_scale", parsed.shared());
    println!(
        "=== Scale: Algorithm 2 on hub-and-spoke topologies (mean of {} runs) ===",
        args.reps
    );

    let mut table = Table::new([
        "|N| (NCPs)",
        "time per assignment (ms)",
        "placements/s",
        "rate (Mbps)",
    ]);
    for ncps in [args.ncps / 2, args.ncps] {
        let scenario = ScaleSpec::new(ncps).build().expect("valid scale scenario");
        let caps = scenario.network.capacity_map();
        let assigner = DynamicRankingAssigner::new();
        // Warm-up carries the trace so the decision stream holds one
        // assignment per size, not `reps` duplicates.
        let warm = assigner
            .assign_with_trace(&scenario.app, &scenario.network, &caps, harness.trace())
            .expect("assignable");
        let mut placements = 0usize;
        let start = Instant::now();
        for _ in 0..args.reps {
            let path = assigner
                .assign(&scenario.app, &scenario.network, &caps)
                .expect("assignable");
            placements += path.placement.ct_count();
        }
        let secs = start.elapsed().as_secs_f64();
        table.row([
            format!("{ncps}"),
            format!("{:.1}", secs * 1e3 / args.reps as f64),
            format!("{:.0}", placements as f64 / secs.max(1e-9)),
            format!("{:.3}", warm.rate),
        ]);
    }
    println!("{}", table.render());
    let path = table.write_csv("scale_assign_sweep");
    println!("wrote {}", path.display());
    harness.finish();
}
