//! Allocation-count checks on the placement engine's hot paths, on a
//! single-element capacity change and on a one-path BE submission,
//! under a counting global allocator.
//!
//! Calls are counted per thread, so libtest's own threads (and the
//! other tests of this file running next to this one) cannot perturb a
//! count; every measured window runs the engine single-threaded.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{
    DynamicRankingAssigner, EngineScratch, PlacementEngine, SparcleSystem, TraceHandle,
};
use sparcle_model::{
    Application, LinkId, NcpId, NetworkBuilder, NetworkElement, QoeClass, ResourceVec,
    TaskGraphBuilder,
};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

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

/// A chain of `n` NCPs (CPU 1000 each, 1000-bit links) carrying the
/// same GR and BE pipelines whatever `n` is, both pinned to its first
/// three NCPs.
fn chain_system(n: u32) -> SparcleSystem {
    let mut nb = NetworkBuilder::new();
    for i in 0..n {
        nb.add_ncp(format!("n{i}"), ResourceVec::cpu(1000.0));
    }
    for i in 1..n {
        nb.add_link(format!("l{i}"), NcpId::new(i - 1), NcpId::new(i), 1000.0)
            .expect("valid link");
    }
    let mut sys = SparcleSystem::new(nb.build().expect("valid chain"));
    for qoe in [
        QoeClass::guaranteed_rate(1.0, 0.0),
        QoeClass::best_effort(1.0),
    ] {
        assert!(sys
            .submit(chain_app(qoe))
            .expect("assignable")
            .is_admitted());
    }
    sys
}

/// The pipeline `chain_system` carries, pinned to NCPs 0 and 2.
fn chain_app(qoe: QoeClass) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("s", ResourceVec::new());
    let w = tb.add_ct("w", ResourceVec::cpu(10.0));
    let t = tb.add_ct("t", ResourceVec::new());
    tb.add_tt("sw", s, w, 50.0).expect("valid tt");
    tb.add_tt("wt", w, t, 50.0).expect("valid tt");
    let pins = [(s, NcpId::new(0)), (t, NcpId::new(2))];
    Application::new(tb.build().expect("valid graph"), qoe, pins).expect("valid app")
}

/// A single-element capacity change (a link failing, fading or coming
/// back) re-derives that residual element, re-checks the GR fits along
/// the GR paths and re-solves the BE rates — nothing network-sized. So
/// once one change has warmed the buffers, the next costs the same
/// allocator calls on a 100-NCP chain as on a 1,000-NCP one. (The whole-map
/// fold it replaced cloned the capacity map: one `ResourceVec` per NCP.)
/// The window closes before the commit, whose debug-build audit refolds
/// the whole network.
#[test]
fn single_element_change_allocations_do_not_grow_with_the_network() {
    let calls = |n: u32| {
        let mut sys = chain_system(n);
        let link = NetworkElement::Link(LinkId::new(0));
        let mut caps = sys.network().capacity_map();
        caps.scale_element(link, 0.9);
        sys.change_capacities(&caps, &[link])
            .expect("valid capacities");
        caps.scale_element(link, 0.9);
        let mut txn = sys.begin();
        let before = alloc_calls();
        let violated = txn
            .change_capacities(&caps, &[link])
            .expect("valid capacities");
        let calls = alloc_calls() - before;
        assert!(black_box(violated).is_empty());
        txn.commit();
        calls
    };
    let (small, large) = (calls(100), calls(1000));
    assert_eq!(
        small, large,
        "a one-link change made {small} allocator calls on 100 NCPs, {large} on 1,000"
    );
}

/// A one-path BE submission predicts eq. (6) into the system's kept
/// buffer and searches on it directly, so once one BE submission has
/// sized that buffer, the next costs the same allocator calls on a
/// 100-NCP chain as on a 1,000-NCP one. (Cloning the capacity map —
/// for the prediction, or for multipath's residual and biased copies —
/// costs one `ResourceVec` per NCP.) The window closes before the
/// commit, whose debug-build audit refolds the whole network.
#[test]
fn be_submission_allocations_do_not_grow_with_the_network() {
    let calls = |n: u32| {
        let mut sys = chain_system(n);
        assert!(sys
            .submit(chain_app(QoeClass::best_effort(2.0)))
            .expect("assignable")
            .is_admitted());
        let app = Arc::new(chain_app(QoeClass::best_effort(3.0)));
        let mut txn = sys.begin();
        let before = alloc_calls();
        let admission = txn.submit(app).expect("assignable");
        let calls = alloc_calls() - before;
        assert!(black_box(admission).is_admitted());
        txn.commit();
        calls
    };
    let (small, large) = (calls(100), calls(1000));
    assert_eq!(
        small, large,
        "a one-path BE submission made {small} allocator calls on 100 NCPs, {large} on 1,000"
    );
}

/// The 16-NCP, 8-stage scenario the engine-level checks drive.
fn check_scenario(seed: u64) -> sparcle_workloads::Scenario {
    let mut cfg = ScenarioConfig::new(
        BottleneckCase::Balanced,
        GraphKind::Linear { stages: 8 },
        TopologyKind::Star,
    );
    cfg.ncps = 16;
    cfg.sample(&mut StdRng::seed_from_u64(seed))
        .expect("valid scenario")
}

/// `PlacementEngine::unplaced` returns a lazy iterator over the
/// engine's placement bitmap; iterating it in the steady state of the
/// ranking loop must never touch the allocator. This drives one full
/// Algorithm-2 assignment and asserts exactly that after every commit.
#[test]
fn zero_alloc_check() {
    let scenario = check_scenario(7);
    let caps = scenario.network.capacity_map();
    let mut engine =
        PlacementEngine::new(&scenario.app, &scenario.network, &caps).expect("engine construction");
    let mut rounds = 0u32;
    while let Some((ct, host, _gamma)) = engine.rank_round(1).expect("rankable") {
        engine.commit(ct, host).expect("committable");
        rounds += 1;
        let before = alloc_calls();
        let n = black_box(engine.unplaced().count());
        let after = alloc_calls();
        assert_eq!(
            before, after,
            "unplaced() allocated after commit {rounds} ({n} CTs left)"
        );
    }
    assert!(rounds > 0, "the check must exercise at least one commit");
}

/// The system's probe loops (γ reconcile, defrag migration what-ifs)
/// hoist one [`EngineScratch`] across thousands of assignments. This
/// asserts the hoist pays: a warm scratch-reusing assignment must issue
/// strictly fewer allocator calls than the same assignment building its
/// buffers fresh. Single-threaded cached mode keeps the counts
/// deterministic (no worker threads to miss).
#[test]
fn scratch_reuse_check() {
    let scenario = check_scenario(11);
    let caps = scenario.network.capacity_map();
    let assigner = DynamicRankingAssigner::with_threads(1);
    let mut scratch = EngineScratch::default();
    // First scratch call grows the buffers to this shape; later calls
    // reuse them at capacity.
    let warm_path = assigner
        .assign_scratch_with_stats(&mut scratch, &scenario.app, &scenario.network, &caps)
        .expect("assignable")
        .0;
    let before = alloc_calls();
    let hot_path = assigner
        .assign_scratch_with_stats(&mut scratch, &scenario.app, &scenario.network, &caps)
        .expect("assignable")
        .0;
    let warm = alloc_calls() - before;
    let before = alloc_calls();
    let cold_path = assigner
        .assign(&scenario.app, &scenario.network, &caps)
        .expect("assignable");
    let cold = alloc_calls() - before;
    assert_eq!(black_box(warm_path).rate, black_box(&hot_path).rate);
    assert_eq!(hot_path.rate, black_box(cold_path).rate);
    assert!(
        warm < cold,
        "scratch reuse must cut allocator calls: warm {warm} vs cold {cold}"
    );
}

/// A ranking round that finds every tree stored is the merge scan and
/// nothing else: |unplaced| × |N| host-rate evaluations against the
/// stored trees' widths. It must not touch the allocator — the host
/// term used to clone a `ResourceVec` per (CT, host) pair. Asking twice
/// without committing in between isolates exactly that round.
#[test]
fn warm_merge_scan_check() {
    let scenario = check_scenario(13);
    let caps = scenario.network.capacity_map();
    let mut engine =
        PlacementEngine::new(&scenario.app, &scenario.network, &caps).expect("engine construction");
    let mut rounds = 0u32;
    while let Some(pick) = engine.rank_round(1).expect("rankable") {
        let before = alloc_calls();
        let again = black_box(engine.rank_round(1).expect("rankable"));
        let after = alloc_calls();
        assert_eq!(again, Some(pick), "a warm round must repeat the pick");
        assert_eq!(
            before, after,
            "warm rank_round allocated in round {rounds} (merge scan must be allocation-free)"
        );
        engine.commit(pick.0, pick.1).expect("committable");
        rounds += 1;
    }
    assert!(rounds > 0, "the check must exercise at least one round");
}

/// A round that has to sweep stays off the allocator too, once the
/// scratch is warm: after one warming assignment, every ranking round of
/// a second engine over the same scratch — its store cold, every tree
/// swept afresh into a recycled buffer — makes zero allocator calls.
#[test]
fn cold_rounds_on_a_warm_scratch_are_allocation_free() {
    let scenario = check_scenario(13);
    let caps = scenario.network.capacity_map();
    let mut scratch = EngineScratch::default();
    DynamicRankingAssigner::with_threads(1)
        .assign_scratch_with_stats(&mut scratch, &scenario.app, &scenario.network, &caps)
        .expect("assignable");
    let mut engine = PlacementEngine::new_traced_with_scratch(
        &scenario.app,
        &scenario.network,
        &caps,
        TraceHandle::none(),
        &mut scratch,
    )
    .expect("engine construction");
    let mut rounds = 0u32;
    loop {
        let before = alloc_calls();
        let pick = black_box(engine.rank_round(1).expect("rankable"));
        let after = alloc_calls();
        assert_eq!(
            before, after,
            "rank_round allocated in round {rounds} on a warm scratch"
        );
        let Some((ct, host, _gamma)) = pick else {
            break;
        };
        engine.commit(ct, host).expect("committable");
        rounds += 1;
    }
    assert!(rounds > 0, "the check must exercise at least one round");
    let stats = engine.stats();
    assert!(stats.cache_misses > 0, "no round ever swept: {stats:?}");
}

/// The tree store's promise in numbers: an assignment computes at most
/// one tree per distinct `(target host, bits)` key its rounds' reach
/// sets name (recounted here from the public graph API), and fewer
/// whenever a tree survives a commit — so strictly fewer sweeps than
/// a store-less evaluator's one per reach-set entry.
#[test]
fn tree_sharing_check() {
    let scenario = check_scenario(17);
    let caps = scenario.network.capacity_map();
    let graph = scenario.app.graph();
    let mut engine =
        PlacementEngine::new(&scenario.app, &scenario.network, &caps).expect("engine construction");
    let mut distinct_keys = 0u64;
    loop {
        let mut keys: Vec<(u32, u64)> = engine
            .unplaced()
            .flat_map(|ct| graph.placed_reachable(ct, |c| engine.is_placed(c)))
            .map(|r| {
                let host = engine.placement().ct_host(r.ct).expect("placed");
                (host.as_u32(), r.min_bits.to_bits())
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        distinct_keys += keys.len() as u64;
        let Some((ct, host, _)) = engine.rank_round(1).expect("rankable") else {
            break;
        };
        engine.commit(ct, host).expect("committable");
    }
    let stats = engine.stats();
    assert!(
        stats.cache_misses <= distinct_keys,
        "computed {} trees for {distinct_keys} distinct keys",
        stats.cache_misses
    );
    assert!(stats.cache_hits > 0, "no tree was ever shared: {stats:?}");
}
