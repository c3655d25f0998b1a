#![allow(clippy::needless_range_loop)] // index loops mirror the math notation
//! Property-based tests for the SPARCLE data models.

use proptest::prelude::*;
use sparcle_model::{
    CapacityMap, CtId, LinkId, LoadMap, NcpId, NetworkBuilder, NetworkElement, Placement,
    ResourceKind, ResourceVec, TaskGraphBuilder,
};

/// Strategy: a random DAG built by only adding forward edges over a random
/// vertex order (guarantees acyclicity by construction), then connected by
/// a spine so `build()` accepts it.
fn arb_dag(max_cts: usize) -> impl Strategy<Value = sparcle_model::TaskGraph> {
    (2..=max_cts)
        .prop_flat_map(|n| {
            let extra = proptest::collection::vec((0..n, 0..n, 1.0f64..1000.0), 0..n * 2);
            let reqs = proptest::collection::vec(0.0f64..500.0, n);
            (Just(n), extra, reqs)
        })
        .prop_map(|(n, extra, reqs)| {
            let mut b = TaskGraphBuilder::new();
            let cts: Vec<_> = (0..n)
                .map(|i| b.add_ct(format!("ct{i}"), ResourceVec::cpu(reqs[i])))
                .collect();
            // Spine guaranteeing weak connectivity and at least one
            // source/sink structure.
            for w in cts.windows(2) {
                b.add_tt("spine", w[0], w[1], 64.0).unwrap();
            }
            for (a, bb, bits) in extra {
                if a < bb {
                    b.add_tt("extra", cts[a], cts[bb], bits).unwrap();
                }
            }
            b.build().expect("forward-edge construction is a DAG")
        })
}

/// Strategy: a sparse resource vector over five kinds — each absent,
/// exactly zero, or positive — so any two draws overlap partially.
fn arb_resource_vec() -> impl Strategy<Value = ResourceVec> {
    let kinds = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Bandwidth,
        ResourceKind::Custom(0),
        ResourceKind::Custom(7),
    ];
    let amount = prop_oneof![
        Just(None),
        Just(Some(0.0f64)),
        (1e-3f64..1e6).prop_map(Some),
        (1e-3f64..1e6).prop_map(Some)
    ];
    proptest::collection::vec(amount, kinds.len()).prop_map(move |amounts| {
        kinds
            .iter()
            .zip(amounts)
            .filter_map(|(&kind, amount)| amount.map(|a| (kind, a)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random forward-edge graphs always validate as DAGs, with a
    /// consistent topological order.
    #[test]
    fn random_dags_topologically_ordered(graph in arb_dag(10)) {
        let topo = graph.topo_order();
        prop_assert_eq!(topo.len(), graph.ct_count());
        // position[ct] strictly increases along every TT.
        let mut pos = vec![0usize; graph.ct_count()];
        for (i, ct) in topo.iter().enumerate() {
            pos[ct.index()] = i;
        }
        for tt in graph.tt_ids() {
            let t = graph.tt(tt);
            prop_assert!(pos[t.from().index()] < pos[t.to().index()]);
        }
    }

    /// Sources have no in-edges, sinks no out-edges, and both sets are
    /// non-empty in any DAG.
    #[test]
    fn sources_and_sinks_consistent(graph in arb_dag(10)) {
        prop_assert!(!graph.sources().is_empty());
        prop_assert!(!graph.sinks().is_empty());
        for &s in graph.sources() {
            prop_assert!(graph.in_edges(s).is_empty());
        }
        for &s in graph.sinks() {
            prop_assert!(graph.out_edges(s).is_empty());
        }
    }

    /// placed_reachable returns only placed CTs, never the query CT, and
    /// for a fully-placed graph it contains exactly the direct neighbors.
    #[test]
    fn placed_reachable_is_sound(graph in arb_dag(8), query in 0u32..8) {
        let query = CtId::new(query % graph.ct_count() as u32);
        // Everyone except the query is placed.
        let reach = graph.placed_reachable(query, |ct| ct != query);
        let mut neighbors: Vec<CtId> = graph
            .incident_edges(query)
            .map(|tt| graph.tt(tt).other_endpoint(query).unwrap())
            .collect();
        neighbors.sort();
        neighbors.dedup();
        let got: Vec<CtId> = reach.iter().map(|r| r.ct).collect();
        prop_assert_eq!(got, neighbors);
        for r in &reach {
            prop_assert!(r.ct != query);
            // The reported min_bits is attainable by some direct TT.
            let best_direct = graph
                .tts_between(query, r.ct)
                .iter()
                .map(|&tt| graph.tt(tt).bits_per_unit())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(r.min_bits <= best_direct + 1e-9);
        }
    }

    /// ResourceVec add/sub/scale preserve non-negativity and the amount
    /// accessor agrees with the iterator view.
    #[test]
    fn resource_vec_arithmetic(
        pairs in proptest::collection::vec((0u8..4, 0.0f64..1e6), 0..12),
        scale in 0.0f64..10.0,
    ) {
        let mut v = ResourceVec::new();
        for &(k, amt) in &pairs {
            v.add(ResourceKind::Custom(k), amt);
        }
        v.scale(scale);
        for (kind, amount) in v.iter() {
            prop_assert!(amount >= 0.0);
            prop_assert_eq!(v.amount(kind), amount);
        }
        // Subtracting everything leaves zero.
        let snapshot: Vec<_> = v.iter().collect();
        for (kind, amount) in snapshot {
            v.sub(kind, amount);
        }
        prop_assert!(v.is_zero());
    }

    /// rate_supported is monotone: more capacity never lowers the rate;
    /// more requirement never raises it.
    #[test]
    fn rate_supported_monotone(c in 1.0f64..1e6, a in 1.0f64..1e6, extra in 0.0f64..1e6) {
        let cap = ResourceVec::cpu(c);
        let cap_more = ResourceVec::cpu(c + extra);
        let req = ResourceVec::cpu(a);
        let req_more = ResourceVec::cpu(a + extra);
        let base = cap.rate_supported(&req).unwrap();
        prop_assert!(cap_more.rate_supported(&req).unwrap() >= base - 1e-12);
        prop_assert!(cap.rate_supported(&req_more).unwrap() <= base + 1e-12);
    }
}

/// Strategy-free deterministic helper: build a line network of `n` NCPs.
fn line_network(n: usize, cpu: f64, bw: f64) -> sparcle_model::Network {
    let mut b = NetworkBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_ncp(format!("n{i}"), ResourceVec::cpu(cpu)))
        .collect();
    for w in ids.windows(2) {
        b.add_link("l", w[0], w[1], bw).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// subtract_load followed by add_load restores capacities (within
    /// floating-point tolerance), for random loads.
    #[test]
    fn capacity_subtract_add_roundtrip(
        n in 2usize..6,
        cpu_loads in proptest::collection::vec(0.0f64..50.0, 6),
        bits in proptest::collection::vec(0.0f64..50.0, 5),
        rate in 0.0f64..1.0,
    ) {
        let net = line_network(n, 1e4, 1e4);
        let mut load = LoadMap::zeroed(&net);
        for i in 0..n {
            load.add_ct_load(NcpId::new(i as u32), &ResourceVec::cpu(cpu_loads[i]));
        }
        for i in 0..n - 1 {
            load.add_tt_load(LinkId::new(i as u32), bits[i]);
        }
        let orig = CapacityMap::full(&net);
        let mut cap = orig.clone();
        cap.subtract_load(&load, rate);
        cap.add_load(&load, rate);
        for id in net.ncp_ids() {
            let a = cap.ncp(id).amount(ResourceKind::Cpu);
            let b = orig.ncp(id).amount(ResourceKind::Cpu);
            prop_assert!((a - b).abs() < 1e-6);
        }
        for id in net.link_ids() {
            prop_assert!((cap.link(id) - orig.link(id)).abs() < 1e-6);
        }
    }

    /// The bottleneck rate equals the minimum over loaded elements of the
    /// per-element supported rate, recomputed naively.
    #[test]
    fn bottleneck_rate_is_elementwise_min(
        n in 2usize..6,
        cpu_loads in proptest::collection::vec(0.1f64..50.0, 6),
        bits in proptest::collection::vec(0.1f64..50.0, 5),
    ) {
        let net = line_network(n, 100.0, 100.0);
        let mut load = LoadMap::zeroed(&net);
        for i in 0..n {
            load.add_ct_load(NcpId::new(i as u32), &ResourceVec::cpu(cpu_loads[i]));
        }
        for i in 0..n - 1 {
            load.add_tt_load(LinkId::new(i as u32), bits[i]);
        }
        let cap = CapacityMap::full(&net);
        let got = cap.bottleneck_rate(&load);
        let mut expect = f64::INFINITY;
        for i in 0..n {
            expect = expect.min(100.0 / cpu_loads[i]);
        }
        for b in bits.iter().take(n - 1) {
            expect = expect.min(100.0 / b);
        }
        prop_assert!((got - expect).abs() < 1e-9 * expect.max(1.0));
    }

    /// A placement's load map puts each TT's bits on every route link and
    /// bottleneck scoring matches manual math on a line network.
    #[test]
    fn placement_on_line_network(
        hops in 1usize..5,
        req_a in 0.5f64..20.0,
        req_b in 0.5f64..20.0,
        bits in 1.0f64..200.0,
    ) {
        let n = hops + 1;
        let net = line_network(n, 100.0, 1000.0);
        let mut tb = TaskGraphBuilder::new();
        let a = tb.add_ct("a", ResourceVec::cpu(req_a));
        let b = tb.add_ct("b", ResourceVec::cpu(req_b));
        let tt = tb.add_tt("ab", a, b, bits).unwrap();
        let graph = tb.build().unwrap();

        let mut p = Placement::empty(&graph);
        p.place_ct(a, NcpId::new(0));
        p.place_ct(b, NcpId::new(hops as u32));
        p.route_tt(tt, (0..hops as u32).map(LinkId::new).collect());
        p.validate(&graph, &net).unwrap();

        let rate = p.bottleneck_rate(&graph, &net, &net.capacity_map());
        let expect = (100.0 / req_a).min(100.0 / req_b).min(1000.0 / bits);
        prop_assert!((rate - expect).abs() < 1e-9 * expect.max(1.0));
    }

    /// `rate_supported_sum` is `rate_supported(&plus_scaled(.., 1.0))`
    /// to the bit — the merged walk must visit the same kinds in the
    /// same order with the same operands, whatever the three vectors
    /// share: empty vectors, zero amounts (skipped needs, zero
    /// capacities), kinds the capacity lacks (rate 0), kinds only the
    /// base or only the extra holds, and the `None` of an all-zero need.
    #[test]
    fn rate_supported_sum_matches_the_two_step_form(
        cap in arb_resource_vec(),
        base in arb_resource_vec(),
        extra in arb_resource_vec(),
    ) {
        let fused = cap.rate_supported_sum(&base, &extra);
        let two_step = cap.rate_supported(&base.plus_scaled(&extra, 1.0));
        prop_assert_eq!(
            fused.map(f64::to_bits), two_step.map(f64::to_bits),
            "fused {:?} vs two-step {:?} for cap {}, base {}, extra {}",
            fused, two_step, cap, base, extra
        );
    }
}

/// Strategy: like [`arb_resource_vec`], with `-0.0` among the amounts —
/// a copy that went through `==` instead of the bits would lose its sign.
fn arb_signed_zero_vec() -> impl Strategy<Value = ResourceVec> {
    let kinds = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Bandwidth,
        ResourceKind::Custom(0),
        ResourceKind::Custom(7),
    ];
    let amount = prop_oneof![
        Just(None),
        Just(Some(0.0f64)),
        Just(Some(-0.0f64)),
        (1e-3f64..1e6).prop_map(Some)
    ];
    proptest::collection::vec(amount, kinds.len()).prop_map(move |amounts| {
        kinds
            .iter()
            .zip(amounts)
            .filter_map(|(&kind, amount)| amount.map(|a| (kind, a)))
            .collect()
    })
}

/// Strategy: a capacity map of any shape — the empty [`Default`] map
/// (one draw in seven), or 2–6 NCPs and 0–6 links with amounts from
/// [`arb_signed_zero_vec`] (links: `0.0`, `-0.0` or positive).
fn arb_capacity_map() -> impl Strategy<Value = CapacityMap> {
    let link_amount = prop_oneof![Just(0.0f64), Just(-0.0f64), 1e-3f64..1e6];
    (
        0u8..7,
        proptest::collection::vec(arb_signed_zero_vec(), 2..=6),
        proptest::collection::vec(link_amount, 0..=6),
    )
        .prop_map(|(pick, ncps, links)| {
            if pick == 0 {
                return CapacityMap::default();
            }
            let mut b = NetworkBuilder::new();
            let ids: Vec<_> = (0..ncps.len())
                .map(|i| b.add_ncp(format!("n{i}"), ResourceVec::cpu(1.0)))
                .collect();
            for l in 0..links.len() {
                b.add_link("l", ids[0], ids[1 + l % (ids.len() - 1)], 1.0)
                    .unwrap();
            }
            let mut map = b.build().unwrap().capacity_map();
            for (i, capacity) in ncps.iter().enumerate() {
                map.set_element(NetworkElement::Ncp(NcpId::new(i as u32)), capacity);
            }
            for (l, &bandwidth) in links.iter().enumerate() {
                let link = NetworkElement::Link(LinkId::new(l as u32));
                map.set_element(link, &ResourceVec::bandwidth(bandwidth));
            }
            map
        })
}

/// A resource vector's entries with each amount as its bits.
fn vec_bits(v: &ResourceVec) -> Vec<(ResourceKind, u64)> {
    v.iter()
        .map(|(kind, amount)| (kind, amount.to_bits()))
        .collect()
}

/// A capacity map's shape and every amount as its bits.
fn map_bits(map: &CapacityMap) -> (Vec<Vec<(ResourceKind, u64)>>, Vec<u64>) {
    let ncps = (0..map.ncp_count())
        .map(|i| vec_bits(map.ncp(NcpId::new(i as u32))))
        .collect();
    let links = (0..map.link_count())
        .map(|l| map.link(LinkId::new(l as u32)).to_bits())
        .collect();
    (ncps, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `clone_from` refills a destination of any shape to exactly what
    /// `clone` builds: more or fewer entries, signed zeros kept.
    #[test]
    fn resource_vec_clone_from_is_clone_bitwise(
        src in arb_signed_zero_vec(),
        mut dst in arb_signed_zero_vec(),
    ) {
        dst.clone_from(&src);
        prop_assert_eq!(vec_bits(&dst), vec_bits(&src.clone()));
    }

    /// The same for whole capacity maps: more or fewer NCPs and links,
    /// more or fewer entries per NCP, an empty source or destination.
    #[test]
    fn capacity_map_clone_from_is_clone_bitwise(
        src in arb_capacity_map(),
        mut dst in arb_capacity_map(),
    ) {
        dst.clone_from(&src);
        prop_assert_eq!(map_bits(&dst), map_bits(&src.clone()));
    }
}
