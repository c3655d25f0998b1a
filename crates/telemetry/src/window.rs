//! Sim-time sliding-window aggregators for the online observability
//! plane.
//!
//! Everything here is keyed on **simulated** seconds, never wall clock:
//! a sample at sim time `t` lands in slot `floor(t / slot_width)`, and a
//! window of `slots` ring-buffered slots covers the trailing
//! `slots * slot_width` simulated seconds. Because the runtime's event
//! timeline is deterministic, every aggregate derived here is a pure
//! function of the input and seed — windowed snapshots stay
//! byte-identical across evaluator thread counts, unlike the wall-clock
//! histograms in [`crate::MetricsSnapshot`].
//!
//! Three aggregators share the ring:
//!
//! * [`WindowedCounter`] — integer deltas (solves, Newton iterations);
//! * [`RateEstimator`] — `f64` quantities normalized to a per-simulated-
//!   second rate over the covered span (violation-seconds, admissions);
//! * [`WindowedHistogram`] — a [`Histogram`] per slot with a mergeable
//!   windowed view for p50/p95/p99 (queue depths, reaction latencies).
//!
//! Windowed histograms additionally [`merge`](WindowedHistogram::merge)
//! across instances **aligned by absolute slot index**, so per-shard
//! windows combine associatively into one fleet-wide window.

use crate::metrics::Histogram;

/// The generic ring under the three aggregators: `slots` values, each
/// covering `slot_width` simulated seconds, addressed by absolute slot
/// index modulo the ring length. Slots that fall out of the trailing
/// window are reset to `T::default()` on advance, so the invariant
/// holds that every ring entry is either live or default.
#[derive(Debug, Clone, PartialEq)]
struct Ring<T> {
    slot_width: f64,
    slots: Vec<T>,
    /// Highest absolute slot index observed; `None` before any sample
    /// or advance.
    head: Option<u64>,
}

impl<T: Clone + Default> Ring<T> {
    fn new(slot_width: f64, slots: usize) -> Self {
        assert!(
            slot_width.is_finite() && slot_width > 0.0,
            "slot width must be positive and finite"
        );
        assert!(slots > 0, "window needs at least one slot");
        Ring {
            slot_width,
            slots: vec![T::default(); slots],
            head: None,
        }
    }

    fn slot_of(&self, t: f64) -> u64 {
        assert!(
            t.is_finite() && t >= 0.0,
            "sim time must be finite and >= 0"
        );
        (t / self.slot_width) as u64
    }

    /// Rotates the ring forward to absolute slot `s`, clearing every
    /// slot that the advance evicts. Earlier slots are a no-op.
    fn advance_to_slot(&mut self, s: u64) {
        let len = self.slots.len() as u64;
        match self.head {
            None => self.head = Some(s),
            Some(h) if s <= h => {}
            Some(h) => {
                let jump = s - h;
                if jump >= len {
                    // The whole window scrolled past (horizon wrap):
                    // every slot is stale.
                    for slot in &mut self.slots {
                        *slot = T::default();
                    }
                } else {
                    for i in 1..=jump {
                        self.slots[((h + i) % len) as usize] = T::default();
                    }
                }
                self.head = Some(s);
            }
        }
    }

    /// The slot for sim time `t`, advancing the ring first. `None` when
    /// `t` is older than the trailing window (the sample is dropped).
    fn slot_mut(&mut self, t: f64) -> Option<&mut T> {
        let s = self.slot_of(t);
        self.advance_to_slot(s);
        let len = self.slots.len() as u64;
        if self.head.unwrap_or(0) - s >= len {
            None
        } else {
            Some(&mut self.slots[(s % len) as usize])
        }
    }

    /// Number of slots the window currently covers: the ring length,
    /// except while the run is younger than one full window.
    fn span_slots(&self) -> u64 {
        match self.head {
            None => 0,
            Some(h) => (h + 1).min(self.slots.len() as u64),
        }
    }

    /// Merges `other`'s live slots into `self`, aligned by absolute
    /// slot index (`combine` folds one aligned pair).
    fn merge_from(&mut self, other: &Ring<T>, mut combine: impl FnMut(&mut T, &T)) {
        assert!(
            self.slot_width == other.slot_width && self.slots.len() == other.slots.len(),
            "windows with different slot widths or lengths cannot merge"
        );
        let Some(other_head) = other.head else {
            return;
        };
        let len = self.slots.len() as u64;
        let target = self.head.map_or(other_head, |h| h.max(other_head));
        self.advance_to_slot(target);
        // Only slots inside both the merged window and other's live
        // range contribute; everything older is already evicted.
        let start = target
            .saturating_sub(len - 1)
            .max(other_head.saturating_sub(len - 1));
        for s in start..=other_head {
            combine(
                &mut self.slots[(s % len) as usize],
                &other.slots[(s % len) as usize],
            );
        }
    }
}

/// A sliding-window counter over simulated time: integer deltas land in
/// the slot of their sim timestamp, [`sum`](WindowedCounter::sum) reads
/// the trailing window, [`total`](WindowedCounter::total) the whole
/// run.
///
/// ```
/// use sparcle_telemetry::window::WindowedCounter;
/// let mut c = WindowedCounter::new(1.0, 4); // 4 slots x 1 sim-second
/// c.record(0.5, 2);
/// c.record(3.9, 1);
/// assert_eq!(c.sum(), 3);
/// c.advance(6.0); // slot 0 scrolled out of the [3, 6] window
/// assert_eq!(c.sum(), 1);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedCounter {
    ring: Ring<u64>,
    total: u64,
}

impl WindowedCounter {
    /// A window of `slots` ring slots, each `slot_width` sim seconds.
    ///
    /// # Panics
    ///
    /// Panics when `slot_width` is not positive/finite or `slots` is 0.
    pub fn new(slot_width: f64, slots: usize) -> Self {
        WindowedCounter {
            ring: Ring::new(slot_width, slots),
            total: 0,
        }
    }

    /// Adds `delta` at sim time `t`. Samples older than the trailing
    /// window still count toward [`total`](Self::total) but not the
    /// windowed sum.
    ///
    /// # Panics
    ///
    /// Panics when `t` is negative or not finite.
    pub fn record(&mut self, t: f64, delta: u64) {
        self.total += delta;
        if let Some(slot) = self.ring.slot_mut(t) {
            *slot += delta;
        }
    }

    /// Rotates the window forward to sim time `t` without recording.
    pub fn advance(&mut self, t: f64) {
        let s = self.ring.slot_of(t);
        self.ring.advance_to_slot(s);
    }

    /// Sum over the trailing window.
    pub fn sum(&self) -> u64 {
        // Invariant: evicted slots are zeroed, so the ring sum is the
        // window sum.
        self.ring.slots.iter().sum()
    }

    /// Lifetime sum, windowing ignored.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The window span in simulated seconds (`slot_width * slots`).
    pub fn window_seconds(&self) -> f64 {
        self.ring.slot_width * self.ring.slots.len() as f64
    }
}

/// A windowed rate estimator over simulated time: `f64` quantities
/// accumulate into slots, and [`rate`](RateEstimator::rate) normalizes
/// the windowed sum by the simulated seconds the window actually covers
/// (shorter than the full span only while the run is younger than one
/// window).
///
/// ```
/// use sparcle_telemetry::window::RateEstimator;
/// let mut r = RateEstimator::new(2.0, 5); // 10-sim-second window
/// r.record(1.0, 4.0);
/// r.record(3.0, 2.0);
/// // Run is 2 slots (4 sim seconds) old: 6.0 units / 4 s.
/// assert_eq!(r.rate(), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateEstimator {
    ring: Ring<f64>,
    total: f64,
}

impl RateEstimator {
    /// A window of `slots` ring slots, each `slot_width` sim seconds.
    ///
    /// # Panics
    ///
    /// Panics when `slot_width` is not positive/finite or `slots` is 0.
    pub fn new(slot_width: f64, slots: usize) -> Self {
        RateEstimator {
            ring: Ring::new(slot_width, slots),
            total: 0.0,
        }
    }

    /// Adds `value` at sim time `t` (older-than-window samples count
    /// only toward [`total`](Self::total)).
    ///
    /// # Panics
    ///
    /// Panics when `t` is negative or not finite.
    pub fn record(&mut self, t: f64, value: f64) {
        self.total += value;
        if let Some(slot) = self.ring.slot_mut(t) {
            *slot += value;
        }
    }

    /// Rotates the window forward to sim time `t` without recording.
    pub fn advance(&mut self, t: f64) {
        let s = self.ring.slot_of(t);
        self.ring.advance_to_slot(s);
    }

    /// Sum over the trailing window.
    pub fn sum(&self) -> f64 {
        self.ring.slots.iter().sum()
    }

    /// Windowed sum per covered simulated second; `0.0` before any
    /// sample or advance.
    pub fn rate(&self) -> f64 {
        let covered = self.covered_seconds();
        if covered > 0.0 {
            self.sum() / covered
        } else {
            0.0
        }
    }

    /// Simulated seconds the window currently covers.
    pub fn covered_seconds(&self) -> f64 {
        self.ring.span_slots() as f64 * self.ring.slot_width
    }

    /// Lifetime sum, windowing ignored.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The window span in simulated seconds (`slot_width * slots`).
    pub fn window_seconds(&self) -> f64 {
        self.ring.slot_width * self.ring.slots.len() as f64
    }
}

/// A sliding window of [`Histogram`]s over simulated time: one
/// fixed-bucket histogram per slot, with a merged windowed view for
/// quantiles and cross-instance [`merge`](WindowedHistogram::merge)
/// aligned by absolute slot index.
///
/// ```
/// use sparcle_telemetry::window::WindowedHistogram;
/// let mut h = WindowedHistogram::new(5.0, 4);
/// h.record(1.0, 10);
/// h.record(12.0, 1000);
/// assert_eq!(h.count(), 2);
/// h.advance(21.0); // slot 0 (the 10) scrolled out
/// assert_eq!(h.merged().min(), Some(1000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedHistogram {
    ring: Ring<Histogram>,
}

impl WindowedHistogram {
    /// A window of `slots` ring slots, each `slot_width` sim seconds.
    ///
    /// # Panics
    ///
    /// Panics when `slot_width` is not positive/finite or `slots` is 0.
    pub fn new(slot_width: f64, slots: usize) -> Self {
        WindowedHistogram {
            ring: Ring::new(slot_width, slots),
        }
    }

    /// Records `value` at sim time `t`; samples older than the trailing
    /// window are dropped.
    ///
    /// # Panics
    ///
    /// Panics when `t` is negative or not finite.
    pub fn record(&mut self, t: f64, value: u64) {
        if let Some(slot) = self.ring.slot_mut(t) {
            slot.record(value);
        }
    }

    /// Rotates the window forward to sim time `t` without recording.
    pub fn advance(&mut self, t: f64) {
        let s = self.ring.slot_of(t);
        self.ring.advance_to_slot(s);
    }

    /// The trailing window folded into one [`Histogram`].
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        // Invariant: evicted slots are empty, so folding the whole ring
        // folds exactly the live window.
        for slot in &self.ring.slots {
            out.merge(slot);
        }
        out
    }

    /// Samples in the trailing window.
    pub fn count(&self) -> u64 {
        self.ring.slots.iter().map(Histogram::count).sum()
    }

    /// The q-quantile of the trailing window (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.merged().quantile(q)
    }

    /// Merges another windowed histogram into this one, **aligned by
    /// absolute slot index**: slot `k` of `other` folds into slot `k`
    /// of `self`, the merged head is the later of the two heads, and
    /// slots that fall out of the merged window are evicted. The
    /// operation is associative and commutative over the merged window,
    /// so per-shard windows combine in any order.
    ///
    /// # Panics
    ///
    /// Panics when the two windows differ in slot width or slot count.
    pub fn merge(&mut self, other: &WindowedHistogram) {
        self.ring.merge_from(&other.ring, |a, b| a.merge(b));
    }

    /// The window span in simulated seconds (`slot_width * slots`).
    pub fn window_seconds(&self) -> f64 {
        self.ring.slot_width * self.ring.slots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reads_zero() {
        let c = WindowedCounter::new(1.0, 4);
        assert_eq!(c.sum(), 0);
        assert_eq!(c.total(), 0);
        let r = RateEstimator::new(1.0, 4);
        assert_eq!(r.sum(), 0.0);
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.covered_seconds(), 0.0);
        let h = WindowedHistogram::new(1.0, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn single_sample_is_the_window() {
        let mut c = WindowedCounter::new(2.0, 3);
        c.record(1.5, 7);
        assert_eq!(c.sum(), 7);
        assert_eq!(c.total(), 7);

        let mut h = WindowedHistogram::new(2.0, 3);
        h.record(1.5, 42);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn rotation_evicts_exactly_the_scrolled_slots() {
        let mut c = WindowedCounter::new(1.0, 4);
        for slot in 0..4u64 {
            c.record(slot as f64 + 0.5, 1);
        }
        assert_eq!(c.sum(), 4);
        // Advance one slot: slot 0 scrolls out, slots 1-4 remain.
        c.record(4.5, 1);
        assert_eq!(c.sum(), 4);
        assert_eq!(c.total(), 5);
        // Two more slots: 1 and 2 scroll out.
        c.advance(6.5);
        assert_eq!(c.sum(), 2);
    }

    #[test]
    fn horizon_wrap_clears_everything() {
        let mut c = WindowedCounter::new(1.0, 4);
        c.record(0.5, 3);
        c.record(2.5, 2);
        // Jump far past the window: every slot is stale, including ring
        // positions the jump lands on modulo the length.
        c.advance(1000.5);
        assert_eq!(c.sum(), 0);
        assert_eq!(c.total(), 5);
        c.record(1001.5, 9);
        assert_eq!(c.sum(), 9);

        let mut h = WindowedHistogram::new(1.0, 4);
        h.record(0.5, 10);
        h.advance(1000.5);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn older_than_window_samples_are_dropped_from_the_window() {
        let mut c = WindowedCounter::new(1.0, 4);
        c.advance(10.5); // head at slot 10, window covers slots 7-10
        c.record(6.5, 5); // slot 6: too old
        assert_eq!(c.sum(), 0);
        assert_eq!(c.total(), 5);
        c.record(7.5, 2); // slot 7: oldest live slot
        assert_eq!(c.sum(), 2);
    }

    #[test]
    fn rate_normalizes_by_covered_span_until_window_fills() {
        let mut r = RateEstimator::new(1.0, 10);
        r.record(0.5, 6.0);
        // One slot old: 6 units over 1 covered second.
        assert_eq!(r.rate(), 6.0);
        r.advance(2.5);
        // Three slots old: 6 units over 3 seconds.
        assert_eq!(r.rate(), 2.0);
        r.advance(99.5);
        // Window long since full: sum 0 over the full 10-second span.
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.covered_seconds(), 10.0);
        assert_eq!(r.total(), 6.0);
    }

    #[test]
    fn windowed_histogram_quantiles_track_the_window() {
        let mut h = WindowedHistogram::new(5.0, 4);
        for i in 0..20u64 {
            h.record(i as f64, i * 100);
        }
        assert_eq!(h.count(), 20);
        // Scroll two slots: samples at t in [0,10) leave the window.
        h.advance(29.0);
        assert_eq!(h.count(), 10);
        assert_eq!(h.merged().min(), Some(1000));
        assert_eq!(h.merged().max(), Some(1900));
    }

    #[test]
    fn merge_aligns_on_absolute_slots() {
        let mut a = WindowedHistogram::new(1.0, 4);
        let mut b = WindowedHistogram::new(1.0, 4);
        a.record(0.5, 10);
        b.record(3.5, 1000); // b's head is 3 slots ahead
        a.merge(&b);
        // Merged head is slot 3; slot 0 (the 10) is still live.
        assert_eq!(a.count(), 2);
        assert_eq!(a.merged().min(), Some(10));
        assert_eq!(a.merged().max(), Some(1000));
        // Advance one slot: exactly the slot-0 sample leaves.
        a.advance(4.5);
        assert_eq!(a.count(), 1);
        assert_eq!(a.merged().min(), Some(1000));
    }

    #[test]
    fn merge_evicts_slots_behind_the_merged_head() {
        let mut a = WindowedHistogram::new(1.0, 4);
        let mut b = WindowedHistogram::new(1.0, 4);
        a.record(0.5, 10); // slot 0
        b.record(7.5, 1000); // slot 7: window becomes slots 4-7
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.merged().min(), Some(1000));
        // Symmetric direction: merging the stale window into the fresh
        // one contributes nothing.
        let mut b2 = WindowedHistogram::new(1.0, 4);
        b2.record(7.5, 1000);
        let mut stale = WindowedHistogram::new(1.0, 4);
        stale.record(0.5, 10);
        b2.merge(&stale);
        assert_eq!(b2.count(), 1);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = WindowedHistogram::new(1.0, 4);
        a.record(1.5, 5);
        let before = a.clone();
        a.merge(&WindowedHistogram::new(1.0, 4));
        assert_eq!(a, before);

        let mut empty = WindowedHistogram::new(1.0, 4);
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.quantile(0.5), Some(5));
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_rejects_mismatched_windows() {
        let mut a = WindowedHistogram::new(1.0, 4);
        let b = WindowedHistogram::new(2.0, 4);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_window_is_rejected() {
        let _ = WindowedCounter::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_slot_width_is_rejected() {
        let _ = RateEstimator::new(0.0, 4);
    }

    #[test]
    fn slot_boundary_lands_in_the_new_slot() {
        let mut c = WindowedCounter::new(5.0, 2);
        c.record(5.0, 1); // exactly t = slot_width -> slot 1
        c.advance(9.9); // still slot 1
        assert_eq!(c.sum(), 1);
        c.advance(10.0); // slot 2: slot 0 scrolls out, slot 1 stays
        assert_eq!(c.sum(), 1);
        c.advance(15.0); // slot 3: slot 1 scrolls out
        assert_eq!(c.sum(), 0);
    }
}
