//! Theorem 2 scaling check: Algorithm 2's running time versus network
//! size `|N|` and task-graph size `|C|`.
//!
//! The paper bounds the worst case at `O(|N|³ |C|³)`. This bench sweeps
//! both dimensions so the growth exponent can be read off the Criterion
//! report (in practice well below the worst case: the Dijkstra inside is
//! `O(|L| log |N|)`, not `O(|N|²)`, on these sparse topologies).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparcle_core::{DynamicRankingAssigner, EngineScratch, PlacementEngine};
use sparcle_workloads::{BottleneckCase, GraphKind, ScenarioConfig, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocation calls, so the bench can
/// assert hot paths stay allocation-free (see [`zero_alloc_check`]).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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
fn zero_alloc_check() {
    let scenario = check_scenario(7);
    let caps = scenario.network.capacity_map();
    let mut engine =
        PlacementEngine::new(&scenario.app, &scenario.network, &caps).expect("engine construction");
    let mut rounds = 0u32;
    while let Some((ct, host, _gamma)) = engine.rank_round(1).expect("rankable") {
        engine.commit(ct, host).expect("committable");
        rounds += 1;
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let n = black_box(engine.unplaced().count());
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            before, after,
            "unplaced() allocated after commit {rounds} ({n} CTs left)"
        );
    }
    assert!(rounds > 0, "the check must exercise at least one commit");
    println!("zero-alloc check: unplaced() stayed allocation-free over {rounds} commits");
}

/// The system's probe loops (γ reconcile, defrag migration what-ifs)
/// hoist one [`EngineScratch`] across thousands of assignments. This
/// asserts the hoist pays: a warm scratch-reusing assignment must issue
/// strictly fewer allocator calls than the same assignment building its
/// buffers fresh. Single-threaded cached mode keeps the counts
/// deterministic (no worker threads racing the counter).
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
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let hot_path = assigner
        .assign_scratch_with_stats(&mut scratch, &scenario.app, &scenario.network, &caps)
        .expect("assignable")
        .0;
    let warm = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let cold_path = assigner
        .assign(&scenario.app, &scenario.network, &caps)
        .expect("assignable");
    let cold = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(black_box(warm_path).rate, black_box(&hot_path).rate);
    assert_eq!(hot_path.rate, black_box(cold_path).rate);
    assert!(
        warm < cold,
        "scratch reuse must cut allocator calls: warm {warm} vs cold {cold}"
    );
    println!("scratch reuse check: warm assignment {warm} allocator calls vs cold {cold}");
}

/// A ranking round that finds every row cached is the merge scan and
/// nothing else: |unplaced| × |N| host-rate evaluations against the
/// cached network terms. It must not touch the allocator — the host
/// term used to clone a `ResourceVec` per (CT, host) pair. Asking twice
/// without committing in between isolates exactly that round.
fn warm_merge_scan_check() {
    let scenario = check_scenario(13);
    let caps = scenario.network.capacity_map();
    let mut engine =
        PlacementEngine::new(&scenario.app, &scenario.network, &caps).expect("engine construction");
    let mut rounds = 0u32;
    while let Some(pick) = engine.rank_round(1).expect("rankable") {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let again = black_box(engine.rank_round(1).expect("rankable"));
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(again, Some(pick), "a warm round must repeat the pick");
        assert_eq!(
            before, after,
            "warm rank_round allocated in round {rounds} (merge scan must be allocation-free)"
        );
        engine.commit(pick.0, pick.1).expect("committable");
        rounds += 1;
    }
    assert!(rounds > 0, "the check must exercise at least one round");
    println!("warm merge check: {rounds} all-hit ranking rounds stayed allocation-free");
}

/// The tree store's promise in numbers: an assignment computes at most
/// one tree per distinct `(target host, bits)` key its rounds' reach
/// sets name (recounted here from the public graph API), and fewer
/// whenever a tree survives a commit — so strictly fewer sweeps than
/// the row-at-a-time evaluator's one per reach-set entry.
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
        stats.tree_misses <= distinct_keys,
        "computed {} trees for {distinct_keys} distinct keys",
        stats.tree_misses
    );
    assert!(stats.tree_hits > 0, "no tree was ever shared: {stats:?}");
    println!(
        "tree sharing check: {} sweeps for {} reach-set entries ({distinct_keys} distinct keys)",
        stats.tree_misses,
        stats.tree_hits + stats.tree_misses
    );
}

fn bench_network_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_vs_network_size");
    for ncps in [4usize, 8, 16, 32] {
        let mut cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 4 },
            TopologyKind::Star,
        );
        cfg.ncps = ncps;
        let scenario = cfg
            .sample(&mut StdRng::seed_from_u64(1))
            .expect("valid scenario");
        let caps = scenario.network.capacity_map();
        let assigner = DynamicRankingAssigner::new();
        group.bench_with_input(BenchmarkId::from_parameter(ncps), &ncps, |b, _| {
            b.iter(|| {
                black_box(
                    assigner
                        .assign(&scenario.app, &scenario.network, &caps)
                        .expect("assignable"),
                )
            })
        });
    }
    group.finish();
}

fn bench_graph_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_vs_graph_size");
    for stages in [2usize, 4, 8, 16] {
        let cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages },
            TopologyKind::Star,
        );
        let scenario = cfg
            .sample(&mut StdRng::seed_from_u64(2))
            .expect("valid scenario");
        let caps = scenario.network.capacity_map();
        let assigner = DynamicRankingAssigner::new();
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| {
                black_box(
                    assigner
                        .assign(&scenario.app, &scenario.network, &caps)
                        .expect("assignable"),
                )
            })
        });
    }
    group.finish();
}

fn bench_topologies(c: &mut Criterion) {
    let mut group = c.benchmark_group("assignment_vs_topology");
    for topology in TopologyKind::ALL {
        let mut cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Diamond,
            TopologyKind::Star,
        );
        cfg.topology = topology;
        cfg.ncps = 12;
        let scenario = cfg
            .sample(&mut StdRng::seed_from_u64(3))
            .expect("valid scenario");
        let caps = scenario.network.capacity_map();
        let assigner = DynamicRankingAssigner::new();
        group.bench_with_input(BenchmarkId::from_parameter(topology), &topology, |b, _| {
            b.iter(|| {
                black_box(
                    assigner
                        .assign(&scenario.app, &scenario.network, &caps)
                        .expect("assignable"),
                )
            })
        });
    }
    group.finish();
}

/// The oracle's serial pair scan (`sparcle_oracle::assign_reference`)
/// vs the production assigner at one and at all cores, one column per
/// topology size. All three commit identical placements
/// (`tests/parallel_equivalence.rs` proves it), so the columns are
/// directly comparable; production should win by well over the target
/// 3× on the largest size thanks to the batched per-row sweeps and
/// incremental invalidation.
fn bench_evaluator_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_modes");
    for ncps in [8usize, 16, 32] {
        let mut cfg = ScenarioConfig::new(
            BottleneckCase::Balanced,
            GraphKind::Linear { stages: 8 },
            TopologyKind::Star,
        );
        cfg.ncps = ncps;
        let scenario = cfg
            .sample(&mut StdRng::seed_from_u64(4))
            .expect("valid scenario");
        let caps = scenario.network.capacity_map();
        // More workers than cores never helps the CPU-bound row fills,
        // so the parallel column uses the machine's real parallelism.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        group.bench_with_input(BenchmarkId::new("serial", ncps), &ncps, |b, _| {
            b.iter(|| {
                black_box(
                    sparcle_oracle::assign_reference(&scenario.app, &scenario.network, &caps)
                        .expect("assignable"),
                )
            })
        });
        let modes = [
            (
                "cached".to_string(),
                DynamicRankingAssigner::with_threads(1),
            ),
            (
                format!("parallel{cores}"),
                DynamicRankingAssigner::with_threads(cores),
            ),
        ];
        for (name, assigner) in modes {
            group.bench_with_input(BenchmarkId::new(name, ncps), &ncps, |b, _| {
                b.iter(|| {
                    black_box(
                        assigner
                            .assign(&scenario.app, &scenario.network, &caps)
                            .expect("assignable"),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_network_size,
    bench_graph_size,
    bench_topologies,
    bench_evaluator_modes
);

// Hand-rolled `criterion_main!` so the allocation assertion runs before
// the timed groups.
fn main() {
    zero_alloc_check();
    scratch_reuse_check();
    warm_merge_scan_check();
    tree_sharing_check();
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
