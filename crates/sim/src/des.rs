//! Minimal discrete-event simulation core.
//!
//! A deterministic event queue ordered by `(time, sequence)` — ties break
//! by insertion order, so simulations are exactly reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event at a point in simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// # use sparcle_sim::des::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule(1.0, "sooner-but-second");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((1.0, "sooner-but-second")));
/// assert_eq!(q.pop(), Some((2.0, "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or lies in the popped past.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The time of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        q.schedule(1.0, 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'd', 'b', 'c']);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn equal_timestamps_pop_fifo_across_runs() {
        // N events scheduled at the same instant must come back in
        // insertion (FIFO) order, identically on every run — the
        // determinism the flow simulator's reproducibility rests on.
        let run = || {
            let mut q = EventQueue::new();
            q.schedule(2.0, 1_000u32); // a later straggler
            for i in 0..100u32 {
                q.schedule(1.0, i);
            }
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect::<Vec<u32>>()
        };
        let first = run();
        assert_eq!(first[..100], (0..100).collect::<Vec<u32>>()[..]);
        assert_eq!(first[100], 1_000);
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn peek_time_leaves_the_queue_and_clock_alone() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(2.0, 'b');
        q.schedule(1.0, 'a');
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!((q.len(), q.now()), (2, 0.0));
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.peek_time(), Some(2.0));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
