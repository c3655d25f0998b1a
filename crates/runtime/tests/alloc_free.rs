//! Allocation checks on the admission service's probe path, under a
//! counting global allocator.
//!
//! Counts are kept per thread, so libtest's own threads (and the other
//! tests of this file running next to this one) cannot perturb them;
//! every measured window runs the probe assigner single-threaded.

use sparcle_model::{Application, NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};
use sparcle_runtime::service::{AdmissionService, ServiceConfig};
use sparcle_workloads::{RequestKind, ServiceRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting the calling thread's allocator
/// calls and the bytes they asked for.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call of `bytes` (not at all once the thread's
/// locals are being torn down — nothing measures there).
fn count(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

/// Allocator calls and bytes this thread has asked for so far.
fn counts() -> (u64, u64) {
    (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

// SAFETY: every call is forwarded to `System` unchanged, and counting
// touches only `const`-initialised thread-local `Cell`s with no
// destructor, so it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A BE pipeline pinned to NCPs 0 and 2, whatever the network's size.
fn chain_app(_: u64) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("s", ResourceVec::new());
    let w = tb.add_ct("w", ResourceVec::cpu(10.0));
    let t = tb.add_ct("t", ResourceVec::new());
    tb.add_tt("sw", s, w, 50.0).expect("valid tt");
    tb.add_tt("wt", w, t, 50.0).expect("valid tt");
    let pins = [(s, NcpId::new(0)), (t, NcpId::new(2))];
    let graph = tb.build().expect("valid graph");
    Application::new(graph, QoeClass::best_effort(1.0), pins).expect("valid app")
}

/// A probe's answer comes from a kept engine scratch and a kept eq. (6)
/// buffer, so once one probe has warmed both, the next makes the same
/// allocator calls on a 100-NCP chain as on a 1,000-NCP one, and the
/// only bytes that grow with the network are the placement engine's
/// dense load (one `ResourceVec` per NCP, one `f64` per link), which
/// every engine still allocates for itself. A probe on a fresh scratch
/// would also size its sweep buffers and host orders to the network.
#[test]
fn warm_probe_allocations_do_not_grow_with_the_network() {
    let measure = |n: u32| {
        let mut nb = NetworkBuilder::new();
        for i in 0..n {
            nb.add_ncp(format!("n{i}"), ResourceVec::cpu(1000.0));
        }
        for i in 1..n {
            nb.add_link(format!("l{i}"), NcpId::new(i - 1), NcpId::new(i), 1000.0)
                .expect("valid link");
        }
        let network = nb.build().expect("valid chain");
        let mut service = AdmissionService::new(network, ServiceConfig::default(), chain_app);
        let probe = |index: u64| ServiceRequest {
            time: 0.5 + index as f64,
            index,
            kind: RequestKind::Probe,
        };
        // Two probes warm the buffers (a scratch settles on its second
        // use); the third is the measured one.
        service.run([probe(0), probe(1)]);
        let before = counts();
        service.run([probe(2)]);
        let after = counts();
        assert_eq!(service.stats().probes_feasible, 3);
        (after.0 - before.0, after.1 - before.1)
    };
    let (small, large) = (measure(100), measure(1000));
    assert_eq!(small.0, large.0, "allocator calls per warm probe");
    // 900 more NCPs and 900 more links.
    let dense_load = 900 * (std::mem::size_of::<ResourceVec>() + std::mem::size_of::<f64>()) as u64;
    assert!(
        large.1 - small.1 <= dense_load,
        "a warm probe asked for {} bytes on 100 NCPs and {} on 1,000: \
         more growth than the engine's {dense_load}-byte dense load",
        small.1,
        large.1
    );
}
