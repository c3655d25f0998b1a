//! The ranking scan prunes: on a hub chain in the shape of the
//! benchmark's `place_5k` network (50 strong hubs on a wide backbone,
//! every other NCP a modest leaf behind one narrower uplink), each CT of
//! a ranking round reads the hubs and the few leaves whose capacity
//! bound can still beat the best γ, not all `|N|` hosts. What it picks
//! is held to the oracle elsewhere (`csr_equivalence`,
//! `parallel_equivalence`, the core proptests); this file holds the
//! count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::PlacementEngine;
use sparcle_model::{
    Application, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
};

const NCPS: usize = 2_000;
const HUBS: usize = 50;
const STAGES: usize = 6;

/// `HUBS` hubs in a line, leaf `l` hanging off hub `l % HUBS`.
fn hub_chain(rng: &mut StdRng) -> Network {
    let mut b = NetworkBuilder::new();
    let hubs: Vec<NcpId> = (0..HUBS)
        .map(|i| {
            b.add_ncp(
                format!("hub{i}"),
                ResourceVec::cpu(rng.gen_range(2_000.0..6_000.0)),
            )
        })
        .collect();
    for (i, w) in hubs.windows(2).enumerate() {
        b.add_link(
            format!("bb{i}"),
            w[0],
            w[1],
            rng.gen_range(5_000.0..15_000.0),
        )
        .expect("valid link");
    }
    for l in 0..NCPS - HUBS {
        let leaf = b.add_ncp(
            format!("leaf{l}"),
            ResourceVec::cpu(rng.gen_range(50.0..150.0)),
        );
        b.add_link(
            format!("up{l}"),
            hubs[l % HUBS],
            leaf,
            rng.gen_range(500.0..1_500.0),
        )
        .expect("valid link");
    }
    b.build().expect("valid network")
}

/// A `STAGES`-stage pipeline between two random leaves.
fn pipeline(rng: &mut StdRng) -> Application {
    let mut tb = TaskGraphBuilder::new();
    let source = tb.add_ct("source", ResourceVec::new());
    let mut prev = source;
    for i in 0..STAGES {
        let ct = tb.add_ct(
            format!("stage{i}"),
            ResourceVec::cpu(rng.gen_range(5.0..15.0)),
        );
        tb.add_tt(format!("tt{i}"), prev, ct, rng.gen_range(5.0..15.0))
            .expect("valid hop");
        prev = ct;
    }
    let sink = tb.add_ct("sink", ResourceVec::new());
    tb.add_tt("out", prev, sink, rng.gen_range(5.0..15.0))
        .expect("valid hop");
    let mut leaf = || NcpId::new(rng.gen_range(HUBS..NCPS) as u32);
    let pins = [(source, leaf()), (sink, leaf())];
    Application::new(
        tb.build().expect("valid graph"),
        QoeClass::best_effort(1.0),
        pins,
    )
    .expect("valid application")
}

#[test]
fn ranking_rounds_read_at_most_five_percent_of_the_hosts() {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let network = hub_chain(&mut rng);
    let caps = network.capacity_map();
    for _ in 0..4 {
        let app = pipeline(&mut rng);
        let mut engine = PlacementEngine::new(&app, &network, &caps).expect("pins routable");
        let mut ct_rounds = 0u64;
        loop {
            let unplaced = engine.unplaced().count() as u64;
            let Some((ct, host, _)) = engine.rank_round(1).expect("connected network") else {
                break;
            };
            ct_rounds += unplaced;
            engine.commit(ct, host).expect("picked host routes");
        }
        let read = engine.stats().hosts_evaluated;
        assert_eq!(ct_rounds, (STAGES * (STAGES + 1) / 2) as u64);
        assert!(
            read * 20 <= ct_rounds * NCPS as u64,
            "the scan read {read} hosts over {ct_rounds} CT-rounds of {NCPS}: {:.1} per CT-round",
            read as f64 / ct_rounds as f64
        );
        engine.finish().expect("complete placement");
    }
}
