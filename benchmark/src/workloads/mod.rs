//! The four workloads. Each stresses different layers; see `README.md`
//! for why each exists and which metric it should move.

mod churn;
mod closed;
mod layers;
mod service;

use crate::gen::{AppMix, HubChain, NetSpec, Rng, MAX_DISTINCT_ELEMENTS};
use crate::report::Outcome;
use crate::span::Spans;
use crate::stats::median;
use crate::sut;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["place_5k", "solve_dense", "churn_1k", "service_burst"];

/// Decisions compared between the untraced and the traced run, and
/// between 1 and 2 assigner threads.
pub const FINGERPRINT_OPS: usize = 50;

/// How often an untraced run measures each of its instances (see the
/// workloads' `measure` functions).
const REPEATS: usize = 2;

/// Full size, or the `--smoke` size that finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// How long one set-up and its two `model` steps took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: Duration,
    pub network_build: Duration,
    pub csr_build: Duration,
}

/// The start of every set-up: build the network, then its flat graph.
/// `finish` constructs the rest; the whole is timed.
fn timed_setup<T>(net: &NetSpec, finish: impl FnOnce(sut::Network) -> T) -> (T, SetupTimes) {
    let start = Instant::now();
    let network = sut::build_network(net);
    let network_build = start.elapsed();
    sut::build_csr(&network);
    let csr_build = start.elapsed() - network_build;
    let built = finish(network);
    let times = SetupTimes {
        total: start.elapsed(),
        network_build,
        csr_build,
    };
    (built, times)
}

/// Reports set-up as the median over the instances' set-ups.
fn report_setups(times: &[SetupTimes], out: &mut Outcome) {
    let secs = |f: fn(&SetupTimes) -> Duration| -> Vec<f64> {
        times.iter().map(|t| f(t).as_secs_f64()).collect()
    };
    out.set("setup_s", median(&secs(|t| t.total)));
    out.set(
        "model.network_build_ms",
        1e3 * median(&secs(|t| t.network_build)),
    );
    out.set("model.csr_build_ms", 1e3 * median(&secs(|t| t.csr_build)));
    out.notes.push(format!("set-up: median of {}", times.len()));
}

/// A run is split over independent instances, each with inputs of its
/// own: instance `i` of seed `s` draws everything from this seed.
fn instance_seed(seed: u64, instance: u64) -> u64 {
    Rng::substream(seed, 5, instance).next_u64()
}

/// Placement-bound: 5,000 NCPs, a small live set, long pipelines.
/// 50 hubs, not more, keeps every application under the availability
/// analyser's element limit (see `HubChain::max_elements_per_app`).
const PLACE_5K: closed::ClosedLoop = closed::ClosedLoop {
    chain: HubChain {
        ncps: 5_000,
        hubs: 50,
        multiplicity: 1,
        link_failure_probability: 0.0,
    },
    mix: AppMix {
        min_stages: 2,
        max_stages: 8,
        gr_every: 3,
        gr_availability: 0.9,
    },
    preload: 16,
    instances: 4,
    exact_cycles: 40,
};

/// Solver-bound: a small network with doubled links and a dense live
/// set, so every decision re-solves a large allocation problem.
const SOLVE_DENSE: closed::ClosedLoop = closed::ClosedLoop {
    chain: HubChain {
        ncps: 256,
        hubs: 16,
        multiplicity: 2,
        link_failure_probability: 0.0,
    },
    mix: AppMix {
        min_stages: 2,
        max_stages: 4,
        gr_every: 4,
        gr_availability: 0.9,
    },
    preload: 96,
    instances: 8,
    exact_cycles: 40,
};

/// The 1,000-NCP chain shared by `churn_1k` (with failing links) and
/// `service_burst` (without).
const fn chain_1k(link_failure_probability: f64) -> HubChain {
    HubChain {
        ncps: 1_000,
        hubs: 15,
        multiplicity: 2,
        link_failure_probability,
    }
}

const MIX_1K: AppMix = AppMix {
    min_stages: 1,
    max_stages: 3,
    gr_every: 3,
    gr_availability: 0.9,
};

const CHURN_1K: churn::Churn = churn::Churn {
    chain: chain_1k(0.01),
    mix: MIX_1K,
    arrival_rate: 1.0,
    mean_hold: 15.0,
    horizon_per_second: 3.0,
    instances: 8,
};

const SERVICE_BURST: service::Burst = service::Burst {
    chain: chain_1k(0.0),
    mix: MIX_1K,
    batch_window: 0.1,
    rate: 20.0,
    burst_rate: 70.0,
    burst: (1.0 / 3.0, 8.0 / 15.0),
    probe_every: 4,
    decision_limit_ms: 250.0,
    instances: 4,
    preload: 100,
};

/// Runs one workload; `traced` selects the per-layer run.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    traced: Option<&mut Spans>,
) -> Option<Outcome> {
    Some(match name {
        "place_5k" => {
            let w = PLACE_5K.scaled(size);
            check_element_bound(&w.chain, &w.mix, 1);
            closed::run(&w, seed, seconds, traced)
        }
        "solve_dense" => {
            let w = SOLVE_DENSE.scaled(size);
            check_element_bound(&w.chain, &w.mix, 1);
            closed::run(&w, seed, seconds, traced)
        }
        "churn_1k" => {
            let w = CHURN_1K.scaled(size);
            check_element_bound(&w.chain, &w.mix, GR_MAX_PATHS);
            churn::run(&w, seed, seconds, traced)
        }
        "service_burst" => {
            let w = SERVICE_BURST.scaled(size);
            check_element_bound(&w.chain, &w.mix, 1);
            service::run(&w, seed, seconds, traced)
        }
        _ => return None,
    })
}

/// Paths a Guaranteed-Rate application may take where links can fail
/// (the system's default cap); without failures its first path already
/// meets any availability target.
const GR_MAX_PATHS: usize = 8;

/// No application of the workload can touch more distinct elements than
/// the availability analyser accepts.
fn check_element_bound(chain: &HubChain, mix: &AppMix, paths: usize) {
    let bound = chain.max_elements_per_app(mix.max_stages, paths);
    assert!(
        bound <= MAX_DISTINCT_ELEMENTS,
        "{chain:?} lets one application touch {bound} elements"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_full_size_shape_stays_under_the_availability_element_limit() {
        check_element_bound(&PLACE_5K.chain, &PLACE_5K.mix, 1);
        check_element_bound(&SOLVE_DENSE.chain, &SOLVE_DENSE.mix, 1);
        check_element_bound(&CHURN_1K.chain, &CHURN_1K.mix, GR_MAX_PATHS);
        check_element_bound(&SERVICE_BURST.chain, &SERVICE_BURST.mix, 1);
        // The shape the issue sketched for `place_5k` does not.
        let sketched = HubChain {
            hubs: 76,
            ..PLACE_5K.chain
        };
        assert!(sketched.max_elements_per_app(8, 1) > MAX_DISTINCT_ELEMENTS);
    }
}
