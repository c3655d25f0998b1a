//! The CSR adjacency's arc order against the oracle's, and the CSR
//! searches against the oracle's heap and exhaustive searches, on
//! hand-made networks; the randomized versions are in `proptests.rs`. (Unit tests inside `sparcle-core` cannot name oracle
//! types: the dev-dependency cycle hands them a second copy of the
//! crate.)

use sparcle_core::widest_path::{csr_widest_path, csr_widest_tree, CsrWidestTree};
use sparcle_model::{LinkDirection, LinkId, LoadMap, NcpId, Network, NetworkBuilder, ResourceVec};
use sparcle_oracle::{
    adjacency, widest_path, widest_path_brute_force, widest_tree, ReverseAdjacency, WidestTree,
};

/// A triangle with one directed and one doubled side: `x — y → z — x`
/// plus a second `x — y` link, so node order and link order both show.
fn arc_order_fixture() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.add_ncp("x", ResourceVec::cpu(10.0));
    let y = b.add_ncp("y", ResourceVec::cpu(20.0));
    let z = b.add_ncp("z", ResourceVec::cpu(30.0));
    b.add_link("xy", x, y, 100.0).unwrap();
    b.add_link_full("yz", y, z, 200.0, LinkDirection::Directed, 0.25)
        .unwrap();
    b.add_link("zx", z, x, 300.0).unwrap();
    b.add_link("xy2", x, y, 400.0).unwrap();
    b.build().unwrap()
}

/// Forward arcs are the links traversable from each node in insertion
/// order — what the oracle's adjacency, built from the link list,
/// lists — and `Network::neighbors` yields exactly them.
#[test]
fn csr_forward_arcs_match_oracle_adjacency() {
    let net = arc_order_fixture();
    let (csr, oracle) = (net.csr(), adjacency(&net));
    assert_eq!(csr.ncp_count(), net.ncp_count());
    assert_eq!(csr.link_count(), net.link_count());
    for u in net.ncp_ids() {
        let flat: Vec<_> = csr.neighbors(u).collect();
        assert_eq!(oracle[u.index()], flat, "forward order diverged at {u}");
        assert_eq!(net.neighbors(u).collect::<Vec<_>>(), flat);
    }
}

/// Reverse arcs are ordered by tail, then by that tail's forward order
/// — the order the oracle's reverse sweep relaxes them in.
#[test]
fn csr_reverse_arcs_match_oracle_reverse_adjacency() {
    let net = arc_order_fixture();
    let (csr, oracle) = (net.csr(), ReverseAdjacency::new(&net));
    for v in net.ncp_ids() {
        let (tails, links) = csr.in_arcs(v);
        let flat: Vec<_> = links
            .iter()
            .zip(tails)
            .map(|(&l, &u)| (LinkId::new(l), NcpId::new(u)))
            .collect();
        assert_eq!(oracle.arcs_into(v), flat, "reverse order diverged at {v}");
    }
}

#[test]
fn csr_routes_and_trees_match_heap_and_brute_force_on_a_diamond() {
    // s - a - t (widths 10, 10) and s - b - t (widths 4, 100).
    let mut nb = NetworkBuilder::new();
    let [s, a, b, t] = ["s", "a", "b", "t"].map(|n| nb.add_ncp(n, ResourceVec::new()));
    for (name, from, to, bw) in [
        ("sa", s, a, 10.0),
        ("at", a, t, 10.0),
        ("sb", s, b, 4.0),
        ("bt", b, t, 100.0),
    ] {
        nb.add_link(name, from, to, bw).unwrap();
    }
    let net = nb.build().unwrap();
    let (csr, rev, caps) = (net.csr(), ReverseAdjacency::new(&net), net.capacity_map());
    let mut load = LoadMap::zeroed(&net);
    let mut heap_tree = WidestTree::new(net.ncp_count());
    let mut flat_tree = CsrWidestTree::new(net.ncp_count());
    for bits in [0.0, 1.0, 4.0] {
        for to in net.ncp_ids() {
            widest_tree(&rev, &mut heap_tree, &caps, &load, bits, to);
            csr_widest_tree(csr, &mut flat_tree, &caps, &load, bits, to);
            let (mut heap_links, mut flat_links) = (Vec::new(), Vec::new());
            heap_tree.for_each_tree_link(|l| heap_links.push(l));
            flat_tree.for_each_tree_link(|l| flat_links.push(l));
            assert_eq!(heap_links, flat_links, "witness tree diverged for {to}");
            for from in net.ncp_ids() {
                let flat = csr_widest_path(csr, &caps, &load, bits, from, to);
                let heap = widest_path(&net, &caps, &load, bits, from, to);
                assert_eq!(heap, flat, "routes diverged {from}->{to}");
                let slow = widest_path_brute_force(&net, &caps, &load, bits, from, to);
                let width = flat.map(|p| p.width.to_bits());
                assert_eq!(width, slow.map(|p| p.width.to_bits()), "{from}->{to}");
                let (heap_phi, flat_phi) = (heap_tree.width_from(from), flat_tree.width_from(from));
                assert_eq!(heap_phi.map(f64::to_bits), flat_phi.map(f64::to_bits));
                assert_eq!(flat_phi.map(f64::to_bits), width, "φ is the route width");
            }
        }
        load.add_tt_load(LinkId::new(0), 2.0);
        load.add_tt_load(LinkId::new(1), 3.0);
    }
}
