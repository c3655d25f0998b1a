//! Allocation-count check on the NUM solver's scratch path, under a
//! counting global allocator (calls are counted per thread, so libtest's
//! other threads cannot perturb a count).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_alloc::num::{self, ConstraintRow, ConstraintSystem, SolverScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// System allocator wrapper counting the calling thread's allocation
/// calls.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call (not at all once the thread's locals are
/// being torn down — nothing measures there).
fn count_call() {
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocator calls this thread has made so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged, and counting
// touches only a `const`-initialised thread-local `Cell` with no
// destructor, so it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// 16 applications over 40 shared rows of about a quarter density, each
/// application also on a private row.
fn system(seed: u64) -> (ConstraintSystem, Vec<f64>) {
    const APPS: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = ConstraintSystem::new(APPS);
    for _ in 0..40 {
        let entries = (0..APPS)
            .filter_map(|i| {
                let c = rng.gen_range(0.1..10.0);
                (rng.gen_range(0.0..1.0) < 0.25).then_some((i, c))
            })
            .collect();
        let capacity = rng.gen_range(10.0..100.0);
        sys.push_row(ConstraintRow {
            element: None,
            capacity,
            entries,
        })
        .expect("valid row");
    }
    for i in 0..APPS {
        let capacity = rng.gen_range(10.0..100.0);
        sys.push_row(ConstraintRow {
            element: None,
            capacity,
            entries: vec![(i, 1.0)],
        })
        .expect("valid row");
    }
    let priorities = (0..APPS).map(|_| rng.gen_range(1.0..4.0)).collect();
    (sys, priorities)
}

/// The system layer's re-solve: priorities refilled, a warm start from
/// the rows' last prices (one of them halved, so the dual phase has
/// steps to take), the answer read out of the scratch. Once the scratch
/// has seen the shape, none of it touches the allocator.
#[test]
fn warm_solve_on_a_warmed_scratch_is_allocation_free() {
    let (sys, priorities) = system(3);
    let mut scratch = SolverScratch::new();
    scratch.set_priorities(priorities.iter().copied());
    num::solve_into(&sys, None, &mut scratch).expect("solvable");
    let mut start = scratch.duals().to_vec();
    let priced = start.iter().position(|&l| l > 0.0).expect("a binding row");
    start[priced] *= 0.5;
    let first = num::solve_into(&sys, Some(&start), &mut scratch).expect("solvable");
    let first_rates = scratch.rates().to_vec();

    let before = alloc_calls();
    scratch.set_priorities(priorities.iter().copied());
    let second =
        num::solve_into(black_box(&sys), Some(black_box(&start)), &mut scratch).expect("solvable");
    let calls = alloc_calls() - before;

    assert!(
        second.warm_started && second.outer_iters == 0 && second.inner_iters > 0,
        "{second:?}"
    );
    assert_eq!(first, second);
    assert_eq!(first_rates, scratch.rates());
    assert_eq!(calls, 0, "a warm solve on a warmed scratch allocated");
}
