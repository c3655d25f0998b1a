//! Property tests for `telemetry::window`: the windowed counter matches
//! a brute-force sum over the live span.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use sparcle_telemetry::window::WindowedCounter;

const SLOT_WIDTH: f64 = 2.0;
const SLOTS: usize = 5;

/// `(sim_time, value)` samples with times inside a few window spans so
/// rotation, eviction, and horizon wrap all get exercised.
fn arb_samples() -> BoxedStrategy<Vec<(f64, u64)>> {
    let span = SLOT_WIDTH * SLOTS as f64;
    proptest::collection::vec(
        (
            (0.0..4.0 * span).prop_map(|t| (t * 8.0).round() / 8.0),
            0u64..5000,
        ),
        0..40,
    )
    .boxed()
}

proptest! {
    /// The windowed counter's sum equals a brute-force sum over the
    /// samples that remain inside the trailing window.
    #[test]
    fn windowed_counter_matches_brute_force(samples in arb_samples()) {
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut c = WindowedCounter::new(SLOT_WIDTH, SLOTS);
        for &(t, v) in &sorted {
            c.record(t, v);
        }

        let head_slot = sorted
            .last()
            .map(|&(t, _)| (t / SLOT_WIDTH) as u64);
        let expect: u64 = match head_slot {
            None => 0,
            Some(h) => sorted
                .iter()
                .filter(|&&(t, _)| h - ((t / SLOT_WIDTH) as u64) < SLOTS as u64)
                .map(|&(_, v)| v)
                .sum(),
        };
        prop_assert_eq!(c.sum(), expect);
        let total: u64 = sorted.iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(c.total(), total);
    }
}
