//! Extension experiment: admission behavior under arrival/departure
//! churn — an Erlang-style load curve for the SPARCLE system.
//!
//! GR applications arrive as a Poisson-like stream (deterministic
//! inter-arrival for reproducibility), hold the network for a fixed
//! number of slots, then depart. Sweeping the offered load shows how
//! the admission ratio degrades and how much guaranteed rate the
//! network sustains at each load — the capacity-planning curve an
//! operator of a SPARCLE deployment would consult.

use crate::{ExpHarness, ParsedFlags, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::SparcleSystem;
use sparcle_model::QoeClass;
use sparcle_workloads::{ArrivalTrace, BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::collections::VecDeque;

const SLOTS: usize = 400;
const HOLD: usize = 20;

pub fn run(_: &ParsedFlags, _: &ExpHarness) {
    let cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 2 },
        TopologyKind::Star,
    );
    let mut rng = StdRng::seed_from_u64(0xadb1);
    let base = cfg.sample(&mut rng).expect("valid scenario");

    let mut table = Table::new([
        "arrivals per slot",
        "offered GR rate (mean)",
        "admission ratio",
        "carried GR rate (mean)",
    ]);
    println!("=== extension: GR admission under churn (hold {HOLD} slots) ===");
    for &arrivals_per_slot in &[0.1, 0.3, 0.6, 1.0, 2.0] {
        let mut system = SparcleSystem::new(base.network.clone());
        let mut departures: VecDeque<(usize, sparcle_model::AppId)> = VecDeque::new();
        let mut offered = 0usize;
        let mut admitted = 0usize;
        let mut offered_rate_sum = 0.0;
        let mut carried_sum = 0.0;
        let mut pending = 0.0f64;
        for slot in 0..SLOTS {
            while let Some(&(when, id)) = departures.front() {
                if when > slot {
                    break;
                }
                departures.pop_front();
                system.remove(id);
            }
            pending += arrivals_per_slot;
            while pending >= 1.0 {
                pending -= 1.0;
                let app = cfg.sample(&mut rng).expect("valid scenario").app;
                let min_rate = rng.gen_range(0.3..1.2);
                let app = app
                    .with_qoe(QoeClass::guaranteed_rate(min_rate, 0.99))
                    .expect("valid qoe");
                offered += 1;
                offered_rate_sum += min_rate;
                if let Some(id) = system.submit(app).expect("well-formed").id() {
                    admitted += 1;
                    departures.push_back((slot + HOLD, id));
                }
            }
            carried_sum += system.total_gr_rate();
        }
        table.row([
            format!("{arrivals_per_slot}"),
            format!("{:.3}", offered_rate_sum / SLOTS as f64 * HOLD as f64),
            format!("{:.3}", admitted as f64 / offered.max(1) as f64),
            format!("{:.3}", carried_sum / SLOTS as f64),
        ]);
    }
    println!("{}", table.render());
    let path = table.write_csv("extension_admission_churn");
    println!("wrote {}", path.display());
    println!(
        "\nshape: the admission ratio falls as offered load grows while the carried\n\
         rate saturates at the network's GR capacity — the classic loss-system knee."
    );

    flash_crowd(&cfg, &mut rng);
}

/// A flash crowd: admission holds at baseline, dips during the burst,
/// and recovers once burst tenants drain.
fn flash_crowd(cfg: &ScenarioConfig, rng: &mut StdRng) {
    let base = cfg.sample(rng).expect("valid scenario");
    let trace = ArrivalTrace::FlashCrowd {
        rate: 0.2,
        burst_rate: 3.0,
        burst_start: 150.0,
        burst_end: 200.0,
    };
    let arrivals = trace.sample(SLOTS as f64, 0xf1a5);
    let mut system = SparcleSystem::new(base.network.clone());
    let mut departures: VecDeque<(usize, sparcle_model::AppId)> = VecDeque::new();
    // Per-phase (pre / burst / post) offered and admitted counts.
    let mut phase_counts = [(0usize, 0usize); 3];
    let mut next_arrival = 0usize;
    for slot in 0..SLOTS {
        while let Some(&(when, id)) = departures.front() {
            if when > slot {
                break;
            }
            departures.pop_front();
            system.remove(id);
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival] < (slot + 1) as f64 {
            next_arrival += 1;
            let phase = if (slot as f64) < 150.0 {
                0
            } else if (slot as f64) < 200.0 {
                1
            } else {
                2
            };
            let app = cfg.sample(rng).expect("valid scenario").app;
            let min_rate = rng.gen_range(0.3..1.2);
            let app = app
                .with_qoe(QoeClass::guaranteed_rate(min_rate, 0.99))
                .expect("valid qoe");
            phase_counts[phase].0 += 1;
            if let Some(id) = system.submit(app).expect("well-formed").id() {
                phase_counts[phase].1 += 1;
                departures.push_back((slot + HOLD, id));
            }
        }
    }
    let mut table = Table::new(["phase", "offered", "admitted", "admission ratio"]);
    for (name, (offered, admitted)) in ["pre-burst", "burst", "post-burst"]
        .iter()
        .zip(phase_counts)
    {
        table.row([
            (*name).to_owned(),
            format!("{offered}"),
            format!("{admitted}"),
            format!("{:.3}", admitted as f64 / offered.max(1) as f64),
        ]);
    }
    println!("\n=== flash crowd (burst 15x baseline during slots 150..200) ===");
    println!("{}", table.render());
    table.write_csv("extension_admission_flash_crowd");
}
