//! Background-defragmentation experiment: what planned migration buys
//! on a long churn run (DESIGN.md §15).
//!
//! An edge/hub network with flaky hub links runs a long Poisson arrival
//! timeline twice per cell — defrag off, then defrag on with a swept
//! displaced-seconds-per-epoch budget. Churn strands applications on
//! whatever paths were best at their last reconcile; the defragmenter's
//! rollback-only probes find the net-positive planned moves and commit
//! them through the transactional core under the budget. The table
//! reports, per budget: committed migrations, probe volume, the BE
//! delivered-work integral and its uplift over the defrag-off run, and
//! the admission rate.
//!
//! Two invariants are asserted on every defrag-on cell:
//!
//! * the ledger's planned displaced-seconds never exceed
//!   `passes × budget` (the budget is a hard cap, not a hint);
//! * at the default budget the delivered-work integral strictly beats
//!   the defrag-off run (the plane pays for its churn).
//!
//! Its own flags, on top of the shared ones:
//!
//! * `--horizon <s>` — simulated seconds per run (default 300).
//! * `--budgets <list>` — comma-separated displaced-seconds-per-epoch
//!   budgets to sweep (default `0.25,1,4`; the defrag-off run is always
//!   included as the `off` row).
//!
//! Pair with the provenance plane to follow one migrated subject:
//!
//! ```sh
//! cargo run --release -p sparcle-bench --bin sparcle-exp -- defrag \
//!     --trace-out defrag.jsonl
//! cargo run --release -p sparcle-trace-tools --bin sparcle-trace -- \
//!     explain defrag.jsonl --pick migrated
//! ```

use crate::{ExpFlags, ExpHarness, ParsedFlags, Table};
use sparcle_core::TraceHandle;
use sparcle_runtime::{DefragConfig, ReconcilePolicy, RuntimeConfig, SparcleRuntime};
use sparcle_workloads::edge_hub::{churn_app, network};
use sparcle_workloads::ArrivalTrace;

struct CellResult {
    migrations: u64,
    passes: u64,
    probes: u64,
    delivered: f64,
    admitted: u64,
    arrivals: u64,
    displaced_seconds: f64,
}

fn run_cell(horizon: f64, defrag: Option<DefragConfig>, trace: TraceHandle<'_>) -> CellResult {
    let config = RuntimeConfig {
        horizon,
        failure_seed: 0xc0de,
        hold_seed: 0x601d,
        mean_hold: 25.0,
        policy: ReconcilePolicy::Fifo,
        defrag,
        ..RuntimeConfig::default()
    };
    let arrivals = ArrivalTrace::Poisson { rate: 1.2 }.events(config.horizon, 0xa11);
    let mut rt = SparcleRuntime::new(network(0.08), arrivals, churn_app, config);
    let ledger = rt.run_traced(trace).clone();
    let (passes, probes) = rt.defrag().map_or((0, 0), |d| (d.passes(), d.probes()));
    CellResult {
        migrations: ledger.migrations(),
        passes,
        probes,
        delivered: ledger.be_rate_integral(),
        admitted: ledger.admitted(),
        arrivals: ledger.arrivals(),
        displaced_seconds: ledger.migration_displaced_seconds(),
    }
}

pub fn flags(flags: &mut ExpFlags) {
    flags
        .value("horizon", "simulated seconds per run", "300")
        .value(
            "budgets",
            "comma-separated displaced-seconds-per-epoch budgets",
            "0.25,1,4",
        );
}

pub fn run(flags: &ParsedFlags, harness: &ExpHarness) {
    let horizon = flags.f64("horizon");
    assert!(horizon > 0.0, "--horizon must be positive");
    let budgets: Vec<f64> = flags
        .str("budgets")
        .split(',')
        .map(|b| b.trim().parse().expect("--budgets must be numbers"))
        .collect();
    let default_budget = DefragConfig::default().budget_per_epoch;

    println!("=== Defragmentation: planned migration on a long churn run ===");
    let mut table = Table::new([
        "budget (disp-s/epoch)",
        "migrations",
        "passes",
        "probes",
        "BE delivered",
        "uplift vs off",
        "admission rate",
    ]);

    let off = run_cell(horizon, None, TraceHandle::none());
    table.row([
        "off".to_owned(),
        off.migrations.to_string(),
        "-".to_owned(),
        "-".to_owned(),
        format!("{:.0}", off.delivered),
        "-".to_owned(),
        format!("{:.3}", off.admitted as f64 / off.arrivals.max(1) as f64),
    ]);

    let mut default_uplift: Option<f64> = None;
    for &budget in &budgets {
        let cfg = DefragConfig {
            budget_per_epoch: budget,
            ..DefragConfig::default()
        };
        // Only the default-budget cell carries the trace, so the event
        // log holds one defrag timeline for `sparcle-trace explain`,
        // not one per swept budget.
        let traced = (budget - default_budget).abs() < 1e-12;
        let trace = if traced {
            harness.trace()
        } else {
            TraceHandle::none()
        };
        let on = run_cell(horizon, Some(cfg), trace);
        // The budget is a hard cap: planned displaced-seconds can never
        // exceed what the epochs granted.
        assert!(
            on.displaced_seconds <= on.passes as f64 * budget + 1e-9,
            "budget exceeded: {} displaced-seconds over {} passes at budget {budget}",
            on.displaced_seconds,
            on.passes,
        );
        let uplift = on.delivered / off.delivered.max(1e-12);
        if traced {
            default_uplift = Some(uplift);
            harness
                .trace()
                .counter("exp_defrag.migrations", on.migrations);
        }
        table.row([
            format!("{budget}"),
            on.migrations.to_string(),
            on.passes.to_string(),
            on.probes.to_string(),
            format!("{:.0}", on.delivered),
            format!("{:+.2}%", 100.0 * (uplift - 1.0)),
            format!("{:.3}", on.admitted as f64 / on.arrivals.max(1) as f64),
        ]);
    }

    println!("{}", table.render());
    if let Some(uplift) = default_uplift {
        assert!(
            uplift > 1.0,
            "defrag at the default budget must beat defrag-off: uplift {uplift:.4}"
        );
        println!(
            "defrag at the default budget ({default_budget} disp-s/epoch) delivered \
             {:+.2}% BE work over defrag-off",
            100.0 * (uplift - 1.0)
        );
    }
    let csv = table.write_csv("exp_defrag");
    println!("wrote {}", csv.display());
}
