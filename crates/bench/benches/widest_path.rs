//! Algorithm 1 micro-benchmarks: the bucketed CSR widest path on the
//! paper's topologies, versus network size, and next to the oracle's
//! exhaustive search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparcle_core::widest_path::{csr_widest_path_with, CsrScratch};
use sparcle_model::{LoadMap, NcpId, Network};
use sparcle_oracle::widest_path_brute_force;
use sparcle_workloads::{TopologyKind, TopologySpec};
use std::hint::black_box;

fn mesh(n: usize) -> Network {
    TopologySpec::uniform(TopologyKind::FullyConnected, n, 100.0, 50.0)
        .build()
        .expect("valid network")
}

fn bench_widest_path_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("widest_path_vs_mesh_size");
    for n in [8usize, 16, 32, 64] {
        let net = mesh(n);
        let caps = net.capacity_map();
        let mut load = LoadMap::zeroed(&net);
        // Pre-load a third of the links to exercise the load-aware
        // weights.
        for (i, link) in net.link_ids().enumerate() {
            if i % 3 == 0 {
                load.add_tt_load(link, 10.0);
            }
        }
        let from = NcpId::new(0);
        let to = NcpId::new((n - 1) as u32);
        // The engine's router keeps one scratch across queries; so does
        // the bench.
        let mut scratch = CsrScratch::new(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let path =
                    csr_widest_path_with(&mut scratch, net.csr(), &caps, &load, 8.0, from, to);
                black_box(path.expect("connected"))
            })
        });
    }
    group.finish();
}

fn bench_widest_vs_brute_force(c: &mut Criterion) {
    // On a tiny mesh the brute force is feasible; this quantifies how
    // much the Dijkstra formulation buys.
    let net = mesh(7);
    let caps = net.capacity_map();
    let load = LoadMap::zeroed(&net);
    let from = NcpId::new(0);
    let to = NcpId::new(6);
    let mut group = c.benchmark_group("widest_path_algorithms");
    let mut scratch = CsrScratch::new(net.ncp_count());
    group.bench_function("dijkstra", |b| {
        b.iter(|| {
            black_box(csr_widest_path_with(
                &mut scratch,
                net.csr(),
                &caps,
                &load,
                8.0,
                from,
                to,
            ))
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| black_box(widest_path_brute_force(&net, &caps, &load, 8.0, from, to)))
    });
    group.finish();
}

criterion_group!(benches, bench_widest_path_size, bench_widest_vs_brute_force);
criterion_main!(benches);
