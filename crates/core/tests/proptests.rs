//! Property-based tests for SPARCLE's core algorithms.

use proptest::prelude::*;
use sparcle_core::telemetry::{CollectRecorder, CtTieBreak, Event, HostTieBreak};
use sparcle_core::widest_path::{
    csr_widest_path, csr_widest_path_with, csr_widest_tree, CsrWidestTree, WidestPath,
};
use sparcle_core::{
    AssignError, DisplacedApp, DynamicRankingAssigner, PlacementEngine, SparcleSystem, TraceHandle,
};
use sparcle_model::{
    Application, CapacityMap, CtId, LinkDirection, LinkId, LoadMap, NcpId, Network, NetworkBuilder,
    NetworkElement, QoeClass, ResourceKind, ResourceVec, TaskGraphBuilder,
};
use sparcle_oracle::{
    adjacency, dense_residual_fold, gamma, widest_path, widest_path_brute_force, widest_tree,
    ReverseAdjacency, WidestTree,
};

/// Strategy: a random connected network of `n` NCPs — a spanning spine
/// plus random extra links, heterogeneous capacities.
fn arb_network(max_n: usize) -> impl Strategy<Value = Network> {
    (3..=max_n)
        .prop_flat_map(|n| {
            let cpus = proptest::collection::vec(10.0f64..1000.0, n);
            let spine_bw = proptest::collection::vec(5.0f64..500.0, n - 1);
            let extra = proptest::collection::vec((0..n, 0..n, 5.0f64..500.0), 0..n);
            (Just(n), cpus, spine_bw, extra)
        })
        .prop_map(|(_n, cpus, spine_bw, extra)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NcpId> = cpus
                .iter()
                .enumerate()
                .map(|(i, &c)| b.add_ncp(format!("n{i}"), ResourceVec::cpu(c)))
                .collect();
            for (i, w) in ids.windows(2).enumerate() {
                b.add_link(format!("spine{i}"), w[0], w[1], spine_bw[i])
                    .expect("valid");
            }
            for (k, (x, y, bw)) in extra.into_iter().enumerate() {
                if x != y {
                    b.add_link(format!("extra{k}"), ids[x], ids[y], bw)
                        .expect("valid");
                }
            }
            b.build().expect("connected by construction")
        })
}

/// Strategy: like [`arb_network`] but larger (up to 12 NCPs) and with a
/// slice of zero-capacity links (`0.0` and `-0.0`) mixed in — the
/// degenerate widths the width formula maps to 0 must round-trip through
/// every evaluator path.
fn arb_network_degenerate(max_n: usize) -> impl Strategy<Value = Network> {
    (4..=max_n)
        .prop_flat_map(|n| {
            let cpus = proptest::collection::vec(10.0f64..1000.0, n);
            // Roughly one spine link in five is dead (zero capacity).
            let spine_bw = proptest::collection::vec(
                prop_oneof![
                    Just(0.0f64),
                    Just(-0.0f64),
                    5.0f64..500.0,
                    5.0f64..500.0,
                    5.0f64..500.0,
                    5.0f64..500.0
                ],
                n - 1,
            );
            let extra = proptest::collection::vec(
                (
                    0..n,
                    0..n,
                    prop_oneof![Just(0.0f64), Just(-0.0f64), 5.0f64..500.0],
                ),
                0..n,
            );
            (Just(n), cpus, spine_bw, extra)
        })
        .prop_map(|(_n, cpus, spine_bw, extra)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NcpId> = cpus
                .iter()
                .enumerate()
                .map(|(i, &c)| b.add_ncp(format!("n{i}"), ResourceVec::cpu(c)))
                .collect();
            for (i, w) in ids.windows(2).enumerate() {
                b.add_link(format!("spine{i}"), w[0], w[1], spine_bw[i])
                    .expect("valid");
            }
            for (k, (x, y, bw)) in extra.into_iter().enumerate() {
                if x != y {
                    b.add_link(format!("extra{k}"), ids[x], ids[y], bw)
                        .expect("valid");
                }
            }
            b.build().expect("connected by construction")
        })
}

/// Strategy: a network built to exercise the stub short-circuit — a
/// random core (no connectivity promised, so some nodes end up
/// isolated) whose links may be directed, parallel, or zero-width, plus
/// *stubs*: extra nodes hanging off one core node each by one link, by
/// two parallel links, or by a directed link in either direction (a
/// node nothing leads into, or one with no way out).
fn arb_network_with_stubs(max_core: usize) -> impl Strategy<Value = Network> {
    let bandwidth = || prop_oneof![Just(0.0f64), 5.0f64..500.0, 5.0f64..500.0];
    (2..=max_core)
        .prop_flat_map(move |n| {
            let core = proptest::collection::vec((0..n, 0..n, bandwidth(), 0u8..2), 0..2 * n);
            let stubs = proptest::collection::vec((0..n, bandwidth(), 0u8..4), 0..2 * n);
            (Just(n), core, stubs)
        })
        .prop_map(|(n, core, stubs)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NcpId> = (0..n)
                .map(|i| b.add_ncp(format!("n{i}"), ResourceVec::cpu(100.0)))
                .collect();
            let direction = |directed| match directed {
                true => LinkDirection::Directed,
                false => LinkDirection::Undirected,
            };
            for (k, (x, y, bw, directed)) in core.into_iter().enumerate() {
                if x != y {
                    b.add_link_full(
                        format!("c{k}"),
                        ids[x],
                        ids[y],
                        bw,
                        direction(directed == 1),
                        0.0,
                    )
                    .expect("valid");
                }
            }
            for (k, (at, bw, shape)) in stubs.into_iter().enumerate() {
                let stub = b.add_ncp(format!("s{k}"), ResourceVec::cpu(100.0));
                let (a, z) = if shape == 3 {
                    (stub, ids[at])
                } else {
                    (ids[at], stub)
                };
                b.add_link_full(format!("s{k}"), a, z, bw, direction(shape >= 2), 0.0)
                    .expect("valid");
                if shape == 1 {
                    b.add_link(format!("s{k}'"), stub, ids[at], bw / 2.0)
                        .expect("valid");
                }
            }
            b.build().expect("non-empty")
        })
}

/// Strategy: a random fan-out/fan-in application — every interior CT
/// hangs off the source or an earlier interior CT, and every CT nobody
/// hangs off feeds the sink — as `(parent per interior CT, cpu per
/// interior CT, bits per TT)`. Branches reach the same placed CTs, so
/// their rows name shared trees.
fn arb_branching(max_cts: usize) -> impl Strategy<Value = (Vec<usize>, Vec<f64>, Vec<f64>)> {
    (1..=max_cts).prop_flat_map(|k| {
        (
            // Reduced modulo the CTs that exist by then.
            proptest::collection::vec(0usize..64, k),
            proptest::collection::vec(1.0f64..100.0, k),
            // Few distinct values, so different branches tie on bits.
            proptest::collection::vec(prop_oneof![Just(4.0f64), Just(9.0f64), 1.0f64..50.0], 2 * k),
        )
    })
}

fn branching_app(
    parents: &[usize],
    cpu: &[f64],
    bits: &[f64],
    src: NcpId,
    dst: NcpId,
) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("src", ResourceVec::new());
    let mut cts = vec![s];
    let mut bits = bits.iter().copied();
    let mut has_child = vec![false; parents.len() + 1];
    for (i, (&parent, &c)) in parents.iter().zip(cpu).enumerate() {
        let parent = parent % cts.len();
        let ct = tb.add_ct(format!("c{i}"), ResourceVec::cpu(c));
        tb.add_tt(format!("t{i}"), cts[parent], ct, bits.next().unwrap())
            .unwrap();
        has_child[parent] = true;
        cts.push(ct);
    }
    let t = tb.add_ct("sink", ResourceVec::new());
    for (i, &ct) in cts.iter().enumerate().skip(1) {
        if !has_child[i] {
            tb.add_tt(format!("out{i}"), ct, t, bits.next().unwrap())
                .unwrap();
        }
    }
    Application::new(
        tb.build().unwrap(),
        QoeClass::best_effort(1.0),
        [(s, src), (t, dst)],
    )
    .unwrap()
}

/// Strategy: a random pipeline application pinned to the first and last
/// NCP of a network with at least `stages + 2` CTs.
fn arb_pipeline(max_stages: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..=max_stages).prop_flat_map(|s| {
        (
            proptest::collection::vec(1.0f64..100.0, s),
            proptest::collection::vec(1.0f64..100.0, s + 1),
        )
    })
}

fn pipeline_app(cpu: &[f64], bits: &[f64], src: NcpId, dst: NcpId) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("src", ResourceVec::new());
    let mut prev = s;
    for (i, &c) in cpu.iter().enumerate() {
        let ct = tb.add_ct(format!("c{i}"), ResourceVec::cpu(c));
        tb.add_tt(format!("t{i}"), prev, ct, bits[i]).unwrap();
        prev = ct;
    }
    let t = tb.add_ct("sink", ResourceVec::new());
    tb.add_tt("tlast", prev, t, bits[cpu.len()]).unwrap();
    Application::new(
        tb.build().unwrap(),
        QoeClass::best_effort(1.0),
        [(s, src), (t, dst)],
    )
    .unwrap()
}

/// Largest relative per-entry difference between two capacity maps.
///
/// Needed because `subtract_load` clamps at zero and f64 subtraction is
/// order-sensitive: rebuilding the residual with the GR apps in a
/// different order can drift by a few ulps even when no load leaked.
fn residual_rel_diff(net: &Network, a: &CapacityMap, b: &CapacityMap) -> f64 {
    let mut worst = 0.0f64;
    for element in net.elements() {
        let (va, vb) = (a.element(element), b.element(element));
        for (kind, _) in va.iter().chain(vb.iter()) {
            let (x, y) = (va.amount(kind), vb.amount(kind));
            let denom = x.abs().max(y.abs()).max(1.0);
            worst = worst.max((x - y).abs() / denom);
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucketed search agrees with the exhaustive widest path on
    /// random networks and loads.
    #[test]
    fn widest_path_matches_brute_force(
        net in arb_network(7),
        bits in 0.0f64..50.0,
        loads in proptest::collection::vec(0.0f64..100.0, 20),
    ) {
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        for (i, link) in net.link_ids().enumerate() {
            load.add_tt_load(link, loads[i % loads.len()]);
        }
        let from = NcpId::new(0);
        let to = NcpId::new((net.ncp_count() - 1) as u32);
        let fast = csr_widest_path(net.csr(), &caps, &load, bits, from, to);
        let slow = widest_path_brute_force(&net, &caps, &load, bits, from, to);
        match (fast, slow) {
            (Some(f), Some(s)) => {
                let rel = if s.width.is_finite() && s.width > 0.0 {
                    (f.width - s.width).abs() / s.width
                } else if f.width == s.width {
                    0.0
                } else {
                    1.0
                };
                prop_assert!(rel < 1e-9, "width {} vs {}", f.width, s.width);
            }
            (None, None) => {}
            other => prop_assert!(false, "reachability mismatch {other:?}"),
        }
    }

    /// Algorithm 2 always produces a complete, valid placement whose
    /// reported rate matches independent recomputation.
    #[test]
    fn assignment_is_always_valid(
        net in arb_network(8),
        (cpu, bits) in arb_pipeline(5),
        src in 0u32..8,
        dst in 0u32..8,
    ) {
        let n = net.ncp_count() as u32;
        let app = pipeline_app(&cpu, &bits, NcpId::new(src % n), NcpId::new(dst % n));
        let caps = net.capacity_map();
        let path = DynamicRankingAssigner::new()
            .assign(&app, &net, &caps)
            .expect("connected networks are always assignable");
        prop_assert!(path.placement.is_complete());
        path.placement.validate(app.graph(), &net).expect("valid");
        let recomputed = path.placement.bottleneck_rate(app.graph(), &net, &caps);
        prop_assert!((path.rate - recomputed).abs() <= 1e-9 * recomputed.max(1.0));
        prop_assert!(path.rate > 0.0);
    }

    /// For a single unplaced CT whose reachable CTs are all direct
    /// neighbors (a one-stage pipeline), γ equals the bottleneck rate
    /// obtained by actually committing that choice — eq. (2) is exact
    /// when no TT remains unrouted.
    #[test]
    fn gamma_is_exact_for_final_placement(
        net in arb_network(6),
        cpu in 1.0f64..100.0,
        bits_in in 1.0f64..100.0,
        bits_out in 1.0f64..100.0,
        host in 0u32..6,
    ) {
        let n = net.ncp_count() as u32;
        let app = pipeline_app(&[cpu], &[bits_in, bits_out], NcpId::new(0), NcpId::new(n - 1));
        let caps = net.capacity_map();
        let mut engine = PlacementEngine::new(&app, &net, &caps).expect("pins routable");
        let ct = engine.unplaced().next().expect("one unplaced CT");
        let host = NcpId::new(host % n);
        if let Some(gamma) = engine.gamma_batched(ct, host) {
            engine.commit(ct, host).expect("gamma says routable");
            let rate_now = engine.capacities().bottleneck_rate(&engine.load().to_load_map());
            // γ can be optimistic when the two TTs contend for the same
            // link (eq. (2) evaluates each path in isolation), so the
            // committed rate never exceeds γ but may fall below it.
            prop_assert!(
                rate_now <= gamma + 1e-9 * gamma.clamp(1.0, 1e12),
                "rate {rate_now} exceeded gamma {gamma}"
            );
        }
    }

    /// Multipath extraction never oversubscribes: after subtracting all
    /// extracted paths at their rates from fresh capacities, nothing is
    /// negative (guaranteed by clamping) and the total extracted rate on
    /// any single element never exceeds its capacity by more than
    /// rounding.
    #[test]
    fn multipath_respects_capacities(
        net in arb_network(6),
        (cpu, bits) in arb_pipeline(3),
    ) {
        let n = net.ncp_count() as u32;
        let app = pipeline_app(&cpu, &bits, NcpId::new(0), NcpId::new(n - 1));
        let caps = net.capacity_map();
        let (paths, _) = sparcle_core::assign_multipath(
            &DynamicRankingAssigner::new(),
            &app,
            &net,
            &caps,
            5,
            1e-9,
        );
        // Accumulate the total load×rate per element and compare with
        // the original capacity.
        let mut total = LoadMap::zeroed(&net);
        for p in &paths {
            total.merge_scaled(&p.load, p.rate);
        }
        let full = CapacityMap::full(&net);
        for ncp in net.ncp_ids() {
            for (kind, used) in total.ncp(ncp).iter() {
                let cap = full.ncp(ncp).amount(kind);
                prop_assert!(used <= cap * (1.0 + 1e-6) + 1e-9, "{used} > {cap}");
            }
        }
        for link in net.link_ids() {
            let used = total.link(link);
            let cap = full.link(link);
            prop_assert!(used <= cap * (1.0 + 1e-6) + 1e-9, "{used} > {cap}");
        }
    }

    /// Multipath copies its residual only when another path may follow,
    /// and builds the returned residual after the loop. For every `k` in
    /// 1..=5, plain and diversity-biased: a `k`-path call's paths are the
    /// first `k` of a `(k+1)`-path call's, and its residual is
    /// `capacities` minus each path's load at its rate, in path order,
    /// to the bit.
    #[test]
    fn multipath_prefixes_and_residual_are_the_in_loop_fold(
        net in arb_network(6),
        (cpu, bits) in arb_pipeline(3),
        discount in 0.1f64..0.99,
    ) {
        let n = net.ncp_count() as u32;
        let app = pipeline_app(&cpu, &bits, NcpId::new(0), NcpId::new(n - 1));
        let caps = net.capacity_map();
        let assigner = DynamicRankingAssigner::new();
        for diverse in [false, true] {
            let run = |k: usize| {
                if diverse {
                    sparcle_core::assign_multipath_diverse(
                        &assigner, &app, &net, &caps, k, 1e-9, discount,
                    )
                } else {
                    sparcle_core::assign_multipath(&assigner, &app, &net, &caps, k, 1e-9)
                }
            };
            for k in 1..=5 {
                let (paths, residual) = run(k);
                let (longer, _) = run(k + 1);
                prop_assert_eq!(paths.len(), longer.len().min(k));
                prop_assert_eq!(&paths[..], &longer[..paths.len()]);
                let mut folded = caps.clone();
                for p in &paths {
                    folded.subtract_load(&p.load, p.rate);
                }
                for ncp in net.ncp_ids() {
                    let bits = |m: &CapacityMap| {
                        m.ncp(ncp).iter().map(|(kind, x)| (kind, x.to_bits())).collect::<Vec<_>>()
                    };
                    prop_assert_eq!(bits(&residual), bits(&folded), "ncp {:?}", ncp);
                }
                for link in net.link_ids() {
                    prop_assert_eq!(
                        residual.link(link).to_bits(),
                        folded.link(link).to_bits(),
                        "link {:?}", link
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capacity conservation under churn: after an arbitrary sequence of
    /// admissions, departures, and displace/readmit round-trips, the
    /// GR-residual `CapacityMap` is *exactly* (bitwise) the one a fresh
    /// system reaches by replaying only the survivors' placements — no
    /// load leaks out of `remove`, no phantom capacity leaks in.
    #[test]
    fn churn_conserves_capacity(
        net in arb_network(6),
        ops in proptest::collection::vec(
            (0u8..4, 0usize..64, 1.0f64..20.0, 1.0f64..20.0, 0.1f64..1.5),
            1..40,
        ),
    ) {
        let n = net.ncp_count() as u32;
        let mut sys = SparcleSystem::new(net.clone());
        for (kind, pick, cpu, bits, min_rate) in ops {
            match kind {
                0 => {
                    // Best-Effort admission (may be rejected; fine).
                    let app = pipeline_app(&[cpu], &[bits, bits], NcpId::new(0), NcpId::new(n - 1));
                    let _ = sys.submit(app).expect("well-formed app");
                }
                1 => {
                    // Guaranteed-Rate admission.
                    let app = pipeline_app(&[cpu], &[bits, bits], NcpId::new(0), NcpId::new(n - 1))
                        .with_qoe(QoeClass::guaranteed_rate(min_rate, 0.5))
                        .expect("valid qoe");
                    let _ = sys.submit(app).expect("well-formed app");
                }
                2 => {
                    // Departure of a random admitted app.
                    let ids = sys.app_ids();
                    if !ids.is_empty() {
                        prop_assert!(sys.remove(ids[pick % ids.len()]));
                    }
                }
                _ => {
                    // Displace + readmit round-trip: must restore the
                    // residual exactly for GR apps.
                    let ids = sys.app_ids();
                    if !ids.is_empty() {
                        let id = ids[pick % ids.len()];
                        let before = sys.gr_residual().clone();
                        let displaced = sys.displace(id).expect("listed id");
                        let was_gr = displaced.is_gr();
                        let adm = sys.readmit(displaced);
                        prop_assert!(adm.is_admitted(), "round-trip readmit failed: {adm:?}");
                        if was_gr {
                            // Re-appending the app changes the f64
                            // subtraction order, so allow ulp drift.
                            let drift = residual_rel_diff(&net, sys.gr_residual(), &before);
                            prop_assert!(
                                drift < 1e-9,
                                "GR round-trip moved the residual by {drift:e}"
                            );
                        }
                    }
                }
            }
        }
        // Replay only the survivors into a fresh system, in the same
        // order; the residual must be bitwise identical.
        let mut fresh = SparcleSystem::new(net);
        for gr in sys.gr_apps().to_vec() {
            let adm = fresh.readmit(DisplacedApp::Gr(gr));
            prop_assert!(adm.is_admitted(), "survivor replay rejected: {adm:?}");
        }
        for be in sys.be_apps().to_vec() {
            let adm = fresh.readmit(DisplacedApp::Be(be));
            prop_assert!(adm.is_admitted(), "survivor replay rejected: {adm:?}");
        }
        prop_assert_eq!(
            sys.gr_residual(), fresh.gr_residual(),
            "load leaked: residual differs from the canonical survivor replay"
        );
    }

    /// The CSR search agrees with the exhaustive widest path on bigger
    /// (up to 12-NCP) graphs carrying nonzero pre-existing load and
    /// zero-capacity links — the degenerate widths must not confuse
    /// either search, and the returned optimum must be *exactly* equal
    /// (both are pure max-min folds over the same link widths, so no
    /// tolerance is needed). Equal as numbers, not as bits: a zero
    /// optimum over `0.0` and `-0.0` links takes its sign from whichever
    /// equal-width path a search meets first, and the two searches break
    /// such ties differently (which is also why routes are not compared).
    #[test]
    fn widest_path_matches_brute_force_with_degenerate_links(
        net in arb_network_degenerate(12),
        bits in 0.5f64..50.0,
        loads in proptest::collection::vec(0.5f64..100.0, 30),
        from in 0u32..12,
        to in 0u32..12,
    ) {
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        for (i, link) in net.link_ids().enumerate() {
            load.add_tt_load(link, loads[i % loads.len()]);
        }
        let n = net.ncp_count() as u32;
        let (from, to) = (NcpId::new(from % n), NcpId::new(to % n));
        let fast = csr_widest_path(net.csr(), &caps, &load, bits, from, to);
        let slow = widest_path_brute_force(&net, &caps, &load, bits, from, to);
        match (fast, slow) {
            (Some(f), Some(s)) => {
                prop_assert!(
                    f.width == s.width,
                    "width {} vs brute-force {}", f.width, s.width
                );
            }
            (None, None) => {}
            other => prop_assert!(false, "reachability mismatch {other:?}"),
        }
    }

    /// The γ-cache never serves a stale value: at every Algorithm-2 step,
    /// on every (unplaced CT, host) probe, the cached batched evaluator
    /// is bit-identical to the oracle's uncached pair scan — including
    /// agreement on unroutability — and the committed `rank_round` pick
    /// carries the oracle's γ. Pipelines and branching graphs both: only
    /// on the latter does a commit split the unplaced set, leaving CTs
    /// whose reach sets it did not touch.
    #[test]
    fn gamma_cache_is_never_stale(
        net in arb_network(8),
        (cpu, bits) in arb_pipeline(5),
        (parents, branch_cpu, branch_bits) in arb_branching(5),
        probes in proptest::collection::vec((0usize..64, 0usize..64), 16),
        threads in 1usize..4,
    ) {
        let n = net.ncp_count() as u32;
        let (src, dst) = (NcpId::new(0), NcpId::new(n - 1));
        let caps = net.capacity_map();
        for app in [
            pipeline_app(&cpu, &bits, src, dst),
            branching_app(&parents, &branch_cpu, &branch_bits, src, dst),
        ] {
            let mut engine = PlacementEngine::new(&app, &net, &caps).expect("pins routable");
            loop {
                let unplaced: Vec<_> = engine.unplaced().collect();
                if unplaced.is_empty() {
                    break;
                }
                for &(ci, hi) in &probes {
                    let ct = unplaced[ci % unplaced.len()];
                    let host = NcpId::new((hi % net.ncp_count()) as u32);
                    let fresh = gamma(&engine, ct, host);
                    let cached = engine.gamma_batched(ct, host);
                    match (fresh, cached) {
                        (Some(f), Some(c)) => prop_assert_eq!(
                            f.to_bits(), c.to_bits(),
                            "stale cache for ({:?}, {:?}): {} vs fresh {}", ct, host, c, f
                        ),
                        (None, None) => {}
                        other => prop_assert!(false, "routability mismatch {other:?}"),
                    }
                }
                match engine.rank_round(threads) {
                    Ok(Some((ct, host, g))) => {
                        let fresh = gamma(&engine, ct, host).expect("picked host is routable");
                        prop_assert_eq!(fresh.to_bits(), g.to_bits());
                        engine.commit(ct, host).expect("picked host is routable");
                    }
                    Ok(None) => prop_assert!(false, "rank_round saw no unplaced CTs"),
                    Err(e) => prop_assert!(false, "rank_round failed: {e}"),
                }
            }
            engine.finish().expect("complete placement validates");
        }
    }

    /// The tree store never goes stale, whatever gets committed: the
    /// commits here are *arbitrary* (any unplaced CT on any host, not
    /// the ranking's pick), interleaved with ranking rounds and single
    /// probes that stock the store, and after every step the engine's
    /// own audit recomputes every stored tree from scratch — widths and
    /// witness links must match bit for bit. Work counters must not
    /// depend on the thread count.
    #[test]
    fn tree_store_is_never_stale(
        net in arb_network(8),
        (parents, cpu, bits) in arb_branching(5),
        steps in proptest::collection::vec((0usize..64, 0usize..64, 0u8..3), 8),
        threads in 2usize..4,
    ) {
        let n = net.ncp_count() as u32;
        let app = branching_app(&parents, &cpu, &bits, NcpId::new(0), NcpId::new(n - 1));
        let caps = net.capacity_map();
        let drive = |threads: usize| -> Result<_, TestCaseError> {
            let mut engine = PlacementEngine::new(&app, &net, &caps).expect("pins routable");
            for &(ci, hi, action) in &steps {
                let unplaced: Vec<CtId> = engine.unplaced().collect();
                if unplaced.is_empty() {
                    break;
                }
                let ct = unplaced[ci % unplaced.len()];
                let host = NcpId::new((hi % net.ncp_count()) as u32);
                match action {
                    0 => {
                        engine.rank_round(threads).expect("connected network");
                    }
                    1 => {
                        engine.gamma_batched(ct, host);
                    }
                    _ => {}
                }
                prop_assert_eq!(engine.audit_caches(), Ok(()), "before committing {}", ct);
                engine.commit(ct, host).expect("connected network");
                prop_assert_eq!(engine.audit_caches(), Ok(()), "after committing {}", ct);
            }
            while let Some((ct, host, _)) = engine.rank_round(threads).expect("connected network") {
                prop_assert_eq!(engine.audit_caches(), Ok(()), "ranked {}", ct);
                engine.commit(ct, host).expect("picked host is routable");
                prop_assert_eq!(engine.audit_caches(), Ok(()), "committed {}", ct);
            }
            let stats = engine.stats();
            Ok((stats, engine.finish().expect("complete placement validates")))
        };
        let (serial_stats, serial) = drive(1)?;
        let (parallel_stats, parallel) = drive(threads)?;
        prop_assert_eq!(serial_stats, parallel_stats);
        prop_assert_eq!(serial.placement, parallel.placement);
        prop_assert_eq!(serial.rate.to_bits(), parallel.rate.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stub short-circuit changes nothing observable: on graphs full
    /// of stubs (single, parallel and one-way attachments), directed and
    /// parallel core links, isolated nodes and zero-width links, the CSR
    /// tree sweep — which never queues a stub — reports the legacy
    /// sweep's exact `φ` for every node and the same witness-link
    /// sequence, and the CSR point-to-point search the legacy route.
    #[test]
    fn stub_short_circuit_is_exactly_the_legacy_search(
        net in arb_network_with_stubs(6),
        bits in prop_oneof![Just(0.0f64), 0.5f64..50.0],
        loads in proptest::collection::vec(prop_oneof![Just(0.0f64), 0.5f64..100.0], 16),
        from in 0usize..64,
    ) {
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        for (i, link) in net.link_ids().enumerate() {
            load.add_tt_load(link, loads[i % loads.len()]);
        }
        let rev = ReverseAdjacency::new(&net);
        let mut legacy = WidestTree::new(net.ncp_count());
        let mut flat = CsrWidestTree::new(net.ncp_count());
        let from = NcpId::new((from % net.ncp_count()) as u32);
        for target in net.ncp_ids() {
            widest_tree(&rev, &mut legacy, &caps, &load, bits, target);
            csr_widest_tree(net.csr(), &mut flat, &caps, &load, bits, target);
            for j in net.ncp_ids() {
                prop_assert_eq!(
                    legacy.width_from(j).map(f64::to_bits),
                    flat.width_from(j).map(f64::to_bits),
                    "φ diverged at {} for target {}", j, target
                );
            }
            let (mut legacy_links, mut flat_links) = (Vec::new(), Vec::new());
            legacy.for_each_tree_link(|l| legacy_links.push(l));
            flat.for_each_tree_link(|l| flat_links.push(l));
            prop_assert_eq!(legacy_links, flat_links, "witness diverged for target {}", target);

            let legacy_path = widest_path(&net, &caps, &load, bits, from, target);
            let flat_path = csr_widest_path(net.csr(), &caps, &load, bits, from, target);
            prop_assert_eq!(legacy_path, flat_path, "route {} → {} diverged", from, target);
        }
    }

    /// The CSR Dijkstra is **exactly** the legacy heap Dijkstra: on
    /// random loaded graphs — including parallel edges (`arb_network`
    /// freely duplicates endpoint pairs) — both searches return the same
    /// reachability verdict, a bit-identical width, and the *same link
    /// sequence*.
    #[test]
    fn csr_widest_path_is_exactly_the_legacy_search(
        net in arb_network(10),
        bits in 0.0f64..50.0,
        loads in proptest::collection::vec(0.0f64..100.0, 24),
        from in 0u32..10,
        to in 0u32..10,
    ) {
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        for (i, link) in net.link_ids().enumerate() {
            load.add_tt_load(link, loads[i % loads.len()]);
        }
        let n = net.ncp_count() as u32;
        let (from, to) = (NcpId::new(from % n), NcpId::new(to % n));
        let legacy = widest_path(&net, &caps, &load, bits, from, to);
        let csr = csr_widest_path(net.csr(), &caps, &load, bits, from, to);
        match (legacy, csr) {
            (Some(l), Some(c)) => {
                prop_assert_eq!(
                    l.width.to_bits(), c.width.to_bits(),
                    "CSR width {} vs legacy {}", c.width, l.width
                );
                prop_assert_eq!(l.links, c.links, "witness routes diverged");
            }
            (None, None) => {}
            other => prop_assert!(false, "reachability mismatch {other:?}"),
        }
    }

    /// Same exactness on degenerate graphs: zero-capacity links (`0.0`
    /// and `-0.0`) produce zero-width path candidates, which must still
    /// pop in legacy heap order.
    #[test]
    fn csr_widest_path_is_exact_with_zero_width_links(
        net in arb_network_degenerate(12),
        bits in 0.5f64..50.0,
        loads in proptest::collection::vec(0.5f64..100.0, 30),
        from in 0u32..12,
        to in 0u32..12,
    ) {
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        for (i, link) in net.link_ids().enumerate() {
            load.add_tt_load(link, loads[i % loads.len()]);
        }
        let n = net.ncp_count() as u32;
        let (from, to) = (NcpId::new(from % n), NcpId::new(to % n));
        let legacy = widest_path(&net, &caps, &load, bits, from, to);
        let csr = csr_widest_path(net.csr(), &caps, &load, bits, from, to);
        match (legacy, csr) {
            (Some(l), Some(c)) => {
                prop_assert_eq!(l.width.to_bits(), c.width.to_bits());
                prop_assert_eq!(l.links, c.links, "witness routes diverged");
            }
            (None, None) => {}
            other => prop_assert!(false, "reachability mismatch {other:?}"),
        }
    }

    /// The CSR round-trips arbitrary topologies: element counts match,
    /// and both arc orders are the oracle's arc for arc — forward arcs as
    /// its `adjacency` (built from the link list) lists them, reverse
    /// arcs as its `ReverseAdjacency` does.
    #[test]
    fn csr_round_trips_arbitrary_topologies(net in arb_network_degenerate(12)) {
        let csr = net.csr();
        prop_assert_eq!(csr.ncp_count(), net.ncp_count());
        prop_assert_eq!(csr.link_count(), net.link_count());
        let (forward, reverse) = (adjacency(&net), ReverseAdjacency::new(&net));
        let mut arcs = 0;
        for ncp in net.ncp_ids() {
            let out: Vec<(LinkId, NcpId)> = csr.neighbors(ncp).collect();
            prop_assert_eq!(&out, &forward[ncp.index()], "forward arcs of {:?} diverged", ncp);
            let (tails, links) = csr.in_arcs(ncp);
            let into: Vec<(LinkId, NcpId)> = links
                .iter()
                .zip(tails)
                .map(|(&l, &u)| (LinkId::new(l), NcpId::new(u)))
                .collect();
            prop_assert_eq!(into.as_slice(), reverse.arcs_into(ncp), "reverse arcs of {:?} diverged", ncp);
            arcs += out.len();
        }
        prop_assert_eq!(arcs, csr.arc_count());
    }

    /// One [`CsrWidestTree`] serves both searches, across network sizes:
    /// used alternately for a route and a tree sweep on a larger
    /// network, then a smaller one, then the larger again, it reports
    /// bitwise the same routes, `φ` and witness links as fresh buffers.
    #[test]
    fn one_buffer_serves_both_searches_across_sizes(
        (large, small) in arb_network_degenerate(12).prop_flat_map(|large| {
            let smaller = arb_network(large.ncp_count() - 1);
            (Just(large), smaller)
        }),
        bits in prop_oneof![Just(0.0f64), 0.5f64..50.0],
        picks in proptest::collection::vec(0usize..64, 9),
    ) {
        let bitwise = |p: Option<WidestPath>| p.map(|p| (p.links, p.width.to_bits()));
        let mut shared = CsrWidestTree::default();
        for (stage, net) in [&large, &small, &large].into_iter().enumerate() {
            let (caps, load) = (net.capacity_map(), LoadMap::zeroed(net));
            let n = net.ncp_count();
            let [from, to, target] = [0, 1, 2].map(|k| NcpId::new((picks[3 * stage + k] % n) as u32));
            let route = csr_widest_path_with(&mut shared, net.csr(), &caps, &load, bits, from, to);
            let fresh_route = csr_widest_path(net.csr(), &caps, &load, bits, from, to);
            prop_assert_eq!(bitwise(route), bitwise(fresh_route), "route diverged at stage {}", stage);

            let mut fresh = CsrWidestTree::new(n);
            csr_widest_tree(net.csr(), &mut shared, &caps, &load, bits, target);
            csr_widest_tree(net.csr(), &mut fresh, &caps, &load, bits, target);
            for j in net.ncp_ids() {
                prop_assert_eq!(
                    shared.width_from(j).map(f64::to_bits),
                    fresh.width_from(j).map(f64::to_bits),
                    "φ diverged at {} in stage {}", j, stage
                );
            }
            let (mut shared_links, mut fresh_links) = (Vec::new(), Vec::new());
            shared.for_each_tree_link(|l| shared_links.push(l));
            fresh.for_each_tree_link(|l| fresh_links.push(l));
            prop_assert_eq!(shared_links, fresh_links, "witness diverged at stage {}", stage);
        }
    }
}

/// A committed operation to replay on a fresh system when checking that
/// rolled-back transactions are invisible.
enum ReplayOp {
    Submit(std::sync::Arc<Application>),
    Displace(sparcle_model::AppId),
    /// Displace, then readmit the same entry on its old placement.
    Bounce(sparcle_model::AppId),
    Migrate(sparcle_model::AppId),
    Fluctuate(CapacityMap),
    /// One element takes its capacity in the map.
    Change(CapacityMap, NetworkElement),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved transaction commit/rollback leaves the system state
    /// **bitwise** equal to a fresh system replaying only the committed
    /// operations. Rollbacks — including multi-operation what-if probes
    /// that displace one application and submit another — must be
    /// perfectly invisible: the GR residual, the admitted id sequence,
    /// every BE allocated rate, and the id counter all match the
    /// canonical replay, because undo restores exact rate snapshots and
    /// re-derives residual elements through the same canonical fold the
    /// fresh admission path uses. And every step — submit, remove,
    /// displace, readmit, migrate, single-element capacity change,
    /// fluctuation, committed or rolled back — ends on state that passes
    /// `SystemState::audit`.
    #[test]
    fn rolled_back_transactions_are_invisible(
        net in arb_network(6),
        ops in proptest::collection::vec(
            (0u8..8, 0usize..64, 1.0f64..20.0, 1.0f64..20.0, 0.1f64..1.5, 0u8..2),
            1..36,
        ),
    ) {
        use std::sync::Arc;
        let n = net.ncp_count() as u32;
        let mut sys = SparcleSystem::new(net.clone());
        let mut committed: Vec<ReplayOp> = Vec::new();
        for (kind, pick, cpu, bits, min_rate, commit) in ops {
            let commit = commit == 1;
            match kind {
                0 | 1 => {
                    // Single-op transaction: one BE or GR submission,
                    // committed or rolled back.
                    let app = pipeline_app(&[cpu], &[bits, bits], NcpId::new(0), NcpId::new(n - 1));
                    let app = if kind == 1 {
                        app.with_qoe(QoeClass::guaranteed_rate(min_rate, 0.5)).expect("valid qoe")
                    } else {
                        app
                    };
                    let app = Arc::new(app);
                    let mut txn = sys.begin();
                    let _ = txn.submit(app.clone()).expect("well-formed app");
                    if commit {
                        txn.commit();
                        committed.push(ReplayOp::Submit(app));
                    } else {
                        txn.rollback();
                    }
                }
                2 => {
                    // Single-op transaction: one displacement.
                    let ids = sys.app_ids();
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[pick % ids.len()];
                    let mut txn = sys.begin();
                    prop_assert!(txn.displace(id));
                    if commit {
                        prop_assert_eq!(txn.commit().len(), 1);
                        committed.push(ReplayOp::Displace(id));
                    } else {
                        txn.rollback();
                    }
                }
                3 => {
                    // Multi-op transaction (the reconcile probe shape):
                    // displace an admitted app, then submit a new one,
                    // committed or rolled back as a unit.
                    let ids = sys.app_ids();
                    let app = Arc::new(pipeline_app(
                        &[cpu], &[bits, bits], NcpId::new(0), NcpId::new(n - 1),
                    ));
                    let mut txn = sys.begin();
                    let displaced = if ids.is_empty() {
                        None
                    } else {
                        let id = ids[pick % ids.len()];
                        prop_assert!(txn.displace(id));
                        Some(id)
                    };
                    let _ = txn.submit(app.clone()).expect("well-formed app");
                    if commit {
                        txn.commit();
                        if let Some(id) = displaced {
                            committed.push(ReplayOp::Displace(id));
                        }
                        committed.push(ReplayOp::Submit(app));
                    } else {
                        txn.rollback();
                    }
                }
                4 | 5 => {
                    let ids = sys.app_ids();
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[pick % ids.len()];
                    if kind == 4 {
                        // Displace + readmit on the preserved placement.
                        let entry = sys.displace(id).expect("listed id");
                        prop_assert_eq!(sys.state().audit(sys.network()), Ok(()));
                        let _ = sys.readmit(entry);
                        committed.push(ReplayOp::Bounce(id));
                    } else {
                        // Planned migration, kept or probed and rolled back.
                        let mut txn = sys.begin();
                        prop_assert!(txn.migrate(id).is_some());
                        if commit {
                            txn.commit();
                            committed.push(ReplayOp::Migrate(id));
                        } else {
                            txn.rollback();
                        }
                    }
                }
                6 => {
                    // One element fails, fades or recovers (0, 1/3, 2/3
                    // or all of its nominal capacity), committed or
                    // rolled back.
                    let elements: Vec<NetworkElement> = net.elements().collect();
                    let element = elements[pick % elements.len()];
                    let mut caps = sys.state().current_capacities().clone();
                    caps.copy_element_from(&net.capacity_map(), element);
                    caps.scale_element(element, (pick % 4) as f64 / 3.0);
                    let mut txn = sys.begin();
                    let violated =
                        txn.change_capacities(&caps, &[element]).expect("valid capacities");
                    let state = txn.system().state();
                    let (_, expected) =
                        dense_residual_fold(state.current_capacities(), state.gr_apps());
                    prop_assert_eq!(violated, expected, "violated list off the dense fold");
                    if commit {
                        txn.commit();
                        committed.push(ReplayOp::Change(caps, element));
                    } else {
                        txn.rollback();
                    }
                }
                _ => {
                    // Capacity fluctuation: every NCP scaled to 50–99 %.
                    let mut caps = net.capacity_map();
                    for ncp in net.ncp_ids() {
                        caps.ncp_mut(ncp).scale(0.5 + (pick % 50) as f64 / 100.0);
                    }
                    sys.apply_capacity_fluctuation(&caps).expect("valid capacities");
                    committed.push(ReplayOp::Fluctuate(caps));
                }
            }
            prop_assert_eq!(sys.state().audit(sys.network()), Ok(()));
        }
        // Replay only the committed operations on a fresh system. If
        // every rollback was invisible, the two systems agree bitwise
        // at every step, so each replayed displacement finds its id.
        let mut fresh = SparcleSystem::new(net);
        for op in committed {
            match op {
                ReplayOp::Submit(app) => {
                    let _ = fresh.submit(app).expect("well-formed app");
                }
                ReplayOp::Displace(id) => {
                    prop_assert!(fresh.displace(id).is_some(), "replay lost id {id:?}");
                }
                ReplayOp::Bounce(id) => {
                    let entry = fresh.displace(id);
                    prop_assert!(entry.is_some(), "replay lost id {id:?}");
                    let _ = fresh.readmit(entry.expect("checked"));
                }
                ReplayOp::Migrate(id) => {
                    prop_assert!(fresh.migrate(id).is_some(), "replay lost id {id:?}");
                }
                ReplayOp::Fluctuate(caps) => {
                    fresh.apply_capacity_fluctuation(&caps).expect("valid capacities");
                }
                ReplayOp::Change(caps, element) => {
                    fresh.change_capacities(&caps, &[element]).expect("valid capacities");
                }
            }
        }
        prop_assert_eq!(
            sys.gr_residual(), fresh.gr_residual(),
            "rollback left a residual trace"
        );
        prop_assert_eq!(sys.app_ids(), fresh.app_ids(), "admitted id sequences differ");
        let rates: Vec<u64> =
            sys.be_apps().iter().map(|a| a.allocated_rate.to_bits()).collect();
        let fresh_rates: Vec<u64> =
            fresh.be_apps().iter().map(|a| a.allocated_rate.to_bits()).collect();
        prop_assert_eq!(rates, fresh_rates, "BE rates diverged from the canonical replay");
    }
}

/// Every capacity of `caps` as `(kind, bits)` pairs, NCPs then links —
/// `CapacityMap`'s `==` compares floats, not bits.
fn capacity_bits(caps: &CapacityMap, net: &Network) -> Vec<(ResourceKind, u64)> {
    let ncps = net
        .ncp_ids()
        .flat_map(|n| caps.ncp(n).iter().map(|(kind, a)| (kind, a.to_bits())));
    let links = net
        .link_ids()
        .map(|l| (ResourceKind::Bandwidth, caps.link(l).to_bits()));
    ncps.chain(links).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A capacity change re-derives only the changed residual elements
    /// and re-checks the GR fits along each GR application's own
    /// elements. The dense fold it replaced
    /// (`sparcle_oracle::dense_residual_fold`) is the reference: over
    /// random GR/BE histories with single-element and whole-map changes,
    /// committed or rolled back, the GR residual stays bitwise the
    /// oracle's fold of the current capacities, a change's violated list
    /// is the oracle's, a rollback restores the state bitwise, and every
    /// step passes `SystemState::audit`. GR pipelines share their pinned
    /// ends, so the fit check's `gr_apps` order decides which of them a
    /// cut flags.
    #[test]
    fn capacity_changes_match_the_dense_fold(
        net in arb_network(6),
        ops in proptest::collection::vec(
            (
                0u8..6,
                0usize..64,
                1.0f64..20.0,
                prop_oneof![Just(0.0f64), 0.0f64..1.2],
                0.1f64..3.0,
                0u8..2,
            ),
            1..40,
        ),
    ) {
        use std::sync::Arc;
        let n = net.ncp_count() as u32;
        let elements: Vec<NetworkElement> = net.elements().collect();
        let nominal = net.capacity_map();
        let mut sys = SparcleSystem::new(net.clone());
        let state_bits = |sys: &SparcleSystem| {
            let rates: Vec<u64> =
                sys.be_apps().iter().map(|a| a.allocated_rate.to_bits()).collect();
            (
                capacity_bits(sys.gr_residual(), &net),
                capacity_bits(sys.state().current_capacities(), &net),
                rates,
            )
        };
        for (kind, pick, cpu, factor, min_rate, commit) in ops {
            match kind {
                0 | 1 => {
                    let app = pipeline_app(&[cpu], &[cpu, cpu], NcpId::new(0), NcpId::new(n - 1));
                    let app = if kind == 0 {
                        app.with_qoe(QoeClass::guaranteed_rate(min_rate, 0.0)).expect("valid qoe")
                    } else {
                        app
                    };
                    let _ = sys.submit(Arc::new(app)).expect("well-formed app");
                }
                2 => {
                    let ids = sys.app_ids();
                    if !ids.is_empty() {
                        prop_assert!(sys.displace(ids[pick % ids.len()]).is_some());
                    }
                }
                _ => {
                    // 3: one element to `factor` × nominal; 4 and 5: every
                    // element to its own fraction of nominal (0 to 1).
                    let mut caps = sys.state().current_capacities().clone();
                    let changed = if kind == 3 {
                        let element = elements[pick % elements.len()];
                        caps.copy_element_from(&nominal, element);
                        caps.scale_element(element, factor);
                        vec![element]
                    } else {
                        for (i, &e) in elements.iter().enumerate() {
                            caps.copy_element_from(&nominal, e);
                            caps.scale_element(e, ((pick + 3 * i) % 11) as f64 / 10.0);
                        }
                        sys.state().current_capacities().changed_elements(&caps).expect("same shape")
                    };
                    let before = state_bits(&sys);
                    let mut txn = sys.begin();
                    let violated = txn.change_capacities(&caps, &changed).expect("valid capacities");
                    let state = txn.system().state();
                    let (residual, expected) =
                        dense_residual_fold(state.current_capacities(), state.gr_apps());
                    prop_assert_eq!(
                        capacity_bits(state.current_capacities(), &net),
                        capacity_bits(&caps, &net)
                    );
                    prop_assert_eq!(
                        capacity_bits(state.gr_residual(), &net),
                        capacity_bits(&residual, &net),
                        "residual off the dense fold"
                    );
                    prop_assert_eq!(violated, expected, "violated list off the dense fold");
                    if commit == 1 {
                        txn.commit();
                    } else {
                        txn.rollback();
                        prop_assert_eq!(state_bits(&sys), before, "rollback left a trace");
                    }
                }
            }
            let (residual, _) =
                dense_residual_fold(sys.state().current_capacities(), sys.gr_apps());
            prop_assert_eq!(
                capacity_bits(sys.gr_residual(), &net),
                capacity_bits(&residual, &net)
            );
            prop_assert_eq!(sys.state().audit(sys.network()), Ok(()));
        }
    }
}

/// Capacities and link widths the ranking-scan check draws from: few
/// values, signed zeros included, so equal bounds and equal γ are common.
const TIE_AMOUNTS: [f64; 6] = [0.0, -0.0, 1.0, 2.0, 4.0, 8.0];
const TIE_WIDTHS: [f64; 4] = [0.0, 1.0, 2.0, 4.0];

/// One NCP's capacity: `cpu` and `memory` indices into [`TIE_AMOUNTS`],
/// an index past its end leaving the kind out.
fn tie_capacity(cpu: usize, memory: usize) -> ResourceVec {
    let kinds = [(ResourceKind::Cpu, cpu), (ResourceKind::Memory, memory)];
    ResourceVec::from_entries(
        kinds
            .into_iter()
            .filter_map(|(kind, i)| TIE_AMOUNTS.get(i).map(|&amount| (kind, amount))),
    )
}

/// Strategy: `n` NCPs with [`tie_capacity`] capacities on two spines,
/// `0..split` and `split..n` (one spine when `split == n`), plus extra
/// links inside either, every width from [`TIE_WIDTHS`]. Across the two
/// spines nothing routes.
fn arb_tie_network(max_n: usize) -> impl Strategy<Value = Network> {
    (3..=max_n)
        .prop_flat_map(|n| {
            let caps = proptest::collection::vec((0usize..7, 0usize..7), n);
            let widths = proptest::collection::vec(0usize..4, n);
            let extra = proptest::collection::vec((0..n, 0..n, 0usize..4), 0..n);
            (Just(n), caps, 2..=2 * n, widths, extra)
        })
        .prop_map(|(n, caps, split, widths, extra)| {
            let split = split.min(n);
            let spine = |i: usize| usize::from(i >= split);
            let mut b = NetworkBuilder::new();
            let ids: Vec<NcpId> = caps
                .iter()
                .enumerate()
                .map(|(i, &(cpu, memory))| b.add_ncp(format!("n{i}"), tie_capacity(cpu, memory)))
                .collect();
            for i in 1..n {
                if spine(i - 1) == spine(i) {
                    b.add_link(
                        format!("spine{i}"),
                        ids[i - 1],
                        ids[i],
                        TIE_WIDTHS[widths[i]],
                    )
                    .expect("valid");
                }
            }
            for (k, (x, y, w)) in extra.into_iter().enumerate() {
                if x != y && spine(x) == spine(y) {
                    b.add_link(format!("extra{k}"), ids[x], ids[y], TIE_WIDTHS[w])
                        .expect("valid");
                }
            }
            b.build().expect("valid network")
        })
}

/// A pipeline from NCP 0 to NCP `dst` whose interior CTs need cpu only,
/// memory only, both, or nothing at all (`kinds[i] % 5`: the last two
/// are the empty vector and explicit zero amounts), in amounts from
/// `{1, 2, 4}`; TT bits from `{1, 2}`.
fn tie_pipeline_app(kinds: &[(usize, usize, usize)], bits: &[usize], dst: NcpId) -> Application {
    const NEEDS: [f64; 3] = [1.0, 2.0, 4.0];
    let mut tb = TaskGraphBuilder::new();
    let s = tb.add_ct("src", ResourceVec::new());
    let mut prev = s;
    for (i, &(kind, cpu, memory)) in kinds.iter().enumerate() {
        let (cpu, memory) = (NEEDS[cpu], NEEDS[memory]);
        let need = match kind % 5 {
            0 => ResourceVec::cpu(cpu),
            1 => ResourceVec::memory(memory),
            2 => ResourceVec::cpu_memory(cpu, memory),
            3 => ResourceVec::new(),
            _ => ResourceVec::cpu_memory(0.0, -0.0),
        };
        let ct = tb.add_ct(format!("c{i}"), need);
        tb.add_tt(format!("t{i}"), prev, ct, 1.0 + (bits[i] % 2) as f64)
            .unwrap();
        prev = ct;
    }
    let t = tb.add_ct("sink", ResourceVec::new());
    tb.add_tt("tlast", prev, t, 1.0 + (bits[kinds.len()] % 2) as f64)
        .unwrap();
    Application::new(
        tb.build().unwrap(),
        QoeClass::best_effort(1.0),
        [(s, NcpId::new(0)), (t, dst)],
    )
    .unwrap()
}

/// The oracle's ranking round over every host: per unplaced CT (id
/// order) `(ct, host, γ bits, tied)` — the largest γ, the lowest id
/// among the hosts reaching it, and whether two or more do — or the
/// first CT no host can route.
fn oracle_round(engine: &PlacementEngine<'_>) -> Result<Vec<(u32, u32, u64, bool)>, CtId> {
    let hosts = engine.network().ncp_count() as u32;
    let mut out = Vec::new();
    for ct in engine.unplaced() {
        let gammas: Vec<(u32, f64)> = (0..hosts)
            .filter_map(|h| gamma(engine, ct, NcpId::new(h)).map(|g| (h, g)))
            .collect();
        let mut best: Option<(u32, f64)> = None;
        for &(h, g) in &gammas {
            if best.is_none_or(|(_, bg)| g > bg) {
                best = Some((h, g));
            }
        }
        let (host, g) = best.ok_or(ct)?;
        let reaching = gammas.iter().filter(|&&(_, other)| other == g).count();
        out.push((ct.index() as u32, host, g.to_bits(), reaching >= 2));
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ranking scan stops at the capacity threshold, yet every round
    /// is exactly the oracle's scan over every host: each `Decision`
    /// candidate's host, γ bits and host tie flag, the pick and its CT
    /// tie flag, and `NoHostForCt` for the same CT. Capacities and
    /// widths come from a few values (signed zeros, missing kinds), so
    /// equal bounds and equal γ are the common case; CTs need cpu,
    /// memory, both or nothing; arbitrary routable commits run between
    /// rounds, so the scan reads loaded hosts too.
    #[test]
    fn ranking_scan_equals_the_oracle_ties_included(
        net in arb_tie_network(8),
        (kinds, bits) in (1usize..=5).prop_flat_map(|k| (
            proptest::collection::vec((0usize..5, 0usize..3, 0usize..3), k),
            proptest::collection::vec(0usize..2, k + 1),
        )),
        steps in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..12),
        threads in 1usize..3,
    ) {
        let n = net.ncp_count();
        let app = tie_pipeline_app(&kinds, &bits, NcpId::new(n as u32 - 1));
        let caps = net.capacity_map();
        let recorder = CollectRecorder::new();
        let mut engine =
            PlacementEngine::new_traced(&app, &net, &caps, TraceHandle::new(&recorder))
                .expect("pins are not neighbours");
        let mut rounds = 0u64;
        for &(action, ci, hi) in &steps {
            let unplaced: Vec<CtId> = engine.unplaced().collect();
            if unplaced.is_empty() {
                break;
            }
            if action == 2 {
                // Commit an arbitrary CT on the first host at or after
                // `hi` that can route it.
                let ct = unplaced[ci % unplaced.len()];
                let host = (0..n)
                    .map(|k| NcpId::new(((hi + k) % n) as u32))
                    .find(|&h| gamma(&engine, ct, h).is_some());
                if let Some(host) = host {
                    engine.commit(ct, host).expect("a routable host");
                }
                continue;
            }
            let expected = oracle_round(&engine);
            let got = engine.rank_round(threads);
            let candidates = match expected {
                Err(ct) => {
                    prop_assert_eq!(got, Err(AssignError::NoHostForCt(ct)));
                    return Ok(());
                }
                Ok(candidates) => candidates,
            };
            let Ok(Some((ct, host, g))) = got else {
                return Err(TestCaseError(format!("oracle ranks {candidates:?}, engine {got:?}")));
            };
            let decision = recorder.events().into_iter().rev().find_map(|e| match e {
                Event::Decision(d) => Some(d),
                _ => None,
            });
            let decision = decision.expect("a traced round records its decision");
            prop_assert_eq!(decision.round, rounds);
            rounds += 1;
            let traced: Vec<(u32, u32, u64, bool)> = decision
                .candidates
                .iter()
                .map(|c| (c.ct, c.host, c.gamma.to_bits(), c.host_tie == HostTieBreak::LowerNcpId))
                .collect();
            prop_assert_eq!(&traced, &candidates);
            // The pick: the smallest γ, the lowest CT id among equals.
            let min = candidates
                .iter()
                .map(|c| f64::from_bits(c.2))
                .fold(f64::INFINITY, f64::min);
            let at_min: Vec<_> = candidates
                .iter()
                .filter(|c| f64::from_bits(c.2) == min)
                .collect();
            let (pick_ct, pick_host, pick_bits, _) = *at_min[0];
            prop_assert_eq!(
                (ct.index() as u32, host.index() as u32, g.to_bits()),
                (pick_ct, pick_host, pick_bits)
            );
            prop_assert_eq!(
                (decision.ct, decision.host, decision.gamma.to_bits()),
                (pick_ct, pick_host, pick_bits)
            );
            let tie = if at_min.len() >= 2 { CtTieBreak::LowerCtId } else { CtTieBreak::UniqueMin };
            prop_assert_eq!(decision.tie_break, tie);
            if action == 1 {
                engine.commit(ct, host).expect("the picked host routes");
            }
        }
    }
}
