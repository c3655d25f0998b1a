//! Seeded input generator: the `hub_chain` topology and the application
//! mix, as plain data. Nothing here calls into the program — `sut.rs`
//! turns these specs into the program's own types — so generator
//! determinism is checked without building a network.

/// SplitMix64: a small, well-mixed generator that is stable across
/// toolchains (the benchmark's inputs must not change when a vendored
/// `rand` does).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of the stream `tag`, so
    /// the i-th application is a function of `(seed, i)` alone and does
    /// not depend on how many were drawn before it.
    pub fn substream(seed: u64, tag: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let a = r.next_u64();
        Rng(a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One link of a generated network.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    pub a: u32,
    pub b: u32,
    pub bandwidth: f64,
    pub failure_probability: f64,
}

/// A generated network: NCP `i` has CPU capacity `ncp_cpu[i]`; NCPs
/// `0..hubs` are the backbone hubs, the rest are leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    pub hubs: usize,
    pub ncp_cpu: Vec<f64>,
    pub links: Vec<LinkSpec>,
}

impl NetSpec {
    pub fn leaves(&self) -> std::ops::Range<u32> {
        self.hubs as u32..self.ncp_cpu.len() as u32
    }
}

/// Shape of a hub chain: `hubs` backbone hubs in a line, every leaf
/// attached to one hub (round-robin), `multiplicity` parallel links per
/// backbone and uplink edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HubChain {
    pub ncps: usize,
    pub hubs: usize,
    pub multiplicity: usize,
    pub link_failure_probability: f64,
}

/// The availability analyser refuses an application whose paths touch
/// more than this many distinct elements, and `SparcleRuntime::run`
/// `expect`s on that error; every workload shape stays below it by
/// construction (see [`HubChain::max_elements_per_app`]).
pub const MAX_DISTINCT_ELEMENTS: usize = 128;

impl HubChain {
    /// Upper bound on the distinct elements (NCPs and links) all paths
    /// of one application can touch. A path's elements are its hosts,
    /// its route links and the links' end points. In a hub chain that is
    /// at most every hub and every backbone link, shared by all paths,
    /// plus per path one leaf and its `multiplicity` uplinks for each
    /// task hosted on a leaf. Pinned source and sink are the same leaves
    /// on every path.
    ///
    /// * `place_5k`: 50 + 49·1 + (8+2)·(1+1) = 119.
    /// * `solve_dense`: 16 + 15·2 + (4+2)·(1+2) = 64.
    /// * `churn_1k`, `service_burst`: 15 + 14·2 + 2·(1+2) + 8 paths ×
    ///   3 stages × (1+2) = 121.
    pub fn max_elements_per_app(&self, compute_stages: usize, paths: usize) -> usize {
        let per_leaf_task = 1 + self.multiplicity;
        self.hubs
            + (self.hubs - 1) * self.multiplicity
            + 2 * per_leaf_task
            + paths * compute_stages * per_leaf_task
    }

    /// Builds the network. Capacities follow the repository's
    /// `ScaleSpec`: strong hubs on a wide backbone, modest leaves behind
    /// narrower uplinks.
    pub fn build(&self, seed: u64) -> NetSpec {
        assert!(self.hubs >= 2 && self.ncps > self.hubs && self.multiplicity >= 1);
        let mut rng = Rng::substream(seed, 1, 0);
        let mut ncp_cpu = Vec::with_capacity(self.ncps);
        let mut links = Vec::new();
        let pf = self.link_failure_probability;
        for _ in 0..self.hubs {
            ncp_cpu.push(rng.range(2_000.0, 6_000.0));
        }
        for h in 1..self.hubs {
            for _ in 0..self.multiplicity {
                links.push(LinkSpec {
                    a: h as u32 - 1,
                    b: h as u32,
                    bandwidth: rng.range(5_000.0, 15_000.0),
                    failure_probability: pf,
                });
            }
        }
        for l in 0..self.ncps - self.hubs {
            let leaf = ncp_cpu.len() as u32;
            ncp_cpu.push(rng.range(50.0, 150.0));
            for _ in 0..self.multiplicity {
                links.push(LinkSpec {
                    a: (l % self.hubs) as u32,
                    b: leaf,
                    bandwidth: rng.range(500.0, 1_500.0),
                    failure_probability: pf,
                });
            }
        }
        NetSpec {
            hubs: self.hubs,
            ncp_cpu,
            links,
        }
    }
}

/// Quality-of-experience class of a generated application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Qoe {
    BestEffort { priority: f64 },
    GuaranteedRate { min_rate: f64, availability: f64 },
}

/// A linear pipeline: pinned source → `cycles.len()` compute stages →
/// pinned sink, `bits[i]` on the i-th hop.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    pub cycles: Vec<f64>,
    pub bits: Vec<f64>,
    pub source: u32,
    pub sink: u32,
    pub qoe: Qoe,
}

/// The application mix of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppMix {
    /// Fewest and most compute stages of a pipeline (an even distance
    /// apart). The count is the sum of two uniform draws, so the middle
    /// lengths are the most common: with seven equally likely lengths
    /// the median decision sits on the edge of a length class and its
    /// latency jumps by a class from seed to seed.
    pub min_stages: usize,
    pub max_stages: usize,
    /// Every `gr_every`-th application (index 0, n, 2n, …) is
    /// Guaranteed-Rate; the rest are Best-Effort with priority 1–4.
    pub gr_every: u64,
    /// Min-rate availability a GR application asks for.
    pub gr_availability: f64,
}

impl AppMix {
    /// The `index`-th application of the stream: a pure function of
    /// `(seed, index)` and the network's leaf range.
    pub fn app(&self, seed: u64, index: u64, net: &NetSpec) -> AppSpec {
        let mut rng = Rng::substream(seed, 2, index);
        let half = (self.max_stages - self.min_stages) / 2;
        let stages = self.min_stages + rng.below(half + 1) + rng.below(half + 1);
        let cycles = (0..stages).map(|_| rng.range(5.0, 15.0)).collect();
        let bits = (0..=stages).map(|_| rng.range(5.0, 15.0)).collect();
        let leaves = net.leaves();
        let n = (leaves.end - leaves.start) as usize;
        let source = leaves.start + rng.below(n) as u32;
        let sink = leaves.start + rng.below(n) as u32;
        let qoe = if index.is_multiple_of(self.gr_every) {
            Qoe::GuaranteedRate {
                min_rate: rng.range(1.0, 4.0),
                availability: self.gr_availability,
            }
        } else {
            Qoe::BestEffort {
                priority: 1.0 + rng.below(4) as f64,
            }
        };
        AppSpec {
            cycles,
            bits,
            source,
            sink,
            qoe,
        }
    }
}

/// Arrival times in `[0, horizon)`, sorted: a Poisson process at `rate`
/// per second conditioned on its count, so every seed brings exactly
/// `rate × horizon` arrivals at independent uniform times and only their
/// timing differs.
pub fn arrivals(seed: u64, horizon: f64, rate: f64) -> Vec<f64> {
    let mut rng = Rng::substream(seed, 4, 0);
    let mut out: Vec<f64> = (0..(rate * horizon).round() as usize)
        .map(|_| rng.range(0.0, horizon))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// One request of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the request is due, in seconds from the start of the run.
    pub due: f64,
    pub index: u64,
    pub probe: bool,
}

/// A flash crowd: arrivals at `rate` per second, rising to `burst_rate`
/// between `burst.0` and `burst.1`; every `probe_every`-th request is a
/// read-only probe. A Poisson process conditioned on its counts: the
/// calm and the burst stretch each get exactly their expected number of
/// arrivals, at independent uniform times, so every seed offers the same
/// load and only its timing differs.
pub fn flash_crowd(
    seed: u64,
    horizon: f64,
    rate: f64,
    burst_rate: f64,
    burst: (f64, f64),
    probe_every: u64,
) -> Vec<Request> {
    let mut rng = Rng::substream(seed, 3, 0);
    let burst_len = burst.1 - burst.0;
    let calm_len = horizon - burst_len;
    let mut dues = Vec::new();
    for _ in 0..(rate * calm_len).round() as usize {
        // Uniform over the calm stretch: before the burst, or after it.
        let t = rng.range(0.0, calm_len);
        dues.push(if t < burst.0 { t } else { t + burst_len });
    }
    for _ in 0..(burst_rate * burst_len).round() as usize {
        dues.push(rng.range(burst.0, burst.1));
    }
    dues.sort_by(f64::total_cmp);
    dues.into_iter()
        .enumerate()
        .map(|(i, due)| Request {
            due,
            index: i as u64,
            probe: (i as u64 + 1).is_multiple_of(probe_every),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: HubChain = HubChain {
        ncps: 300,
        hubs: 10,
        multiplicity: 2,
        link_failure_probability: 0.01,
    };
    const MIX: AppMix = AppMix {
        min_stages: 2,
        max_stages: 5,
        gr_every: 3,
        gr_availability: 0.9,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = CHAIN.build(7);
        assert_eq!(a, CHAIN.build(7));
        assert_ne!(a, CHAIN.build(8));
        let apps = |seed| (0..50).map(|i| MIX.app(seed, i, &a)).collect::<Vec<_>>();
        assert_eq!(apps(7), apps(7));
        assert_ne!(apps(7), apps(8));
        let reqs = |seed| flash_crowd(seed, 20.0, 6.0, 30.0, (5.0, 8.0), 4);
        assert_eq!(reqs(7), reqs(7));
        assert_ne!(reqs(7), reqs(8));
        assert_eq!(arrivals(7, 50.0, 1.0), arrivals(7, 50.0, 1.0));
        assert_ne!(arrivals(7, 50.0, 1.0), arrivals(8, 50.0, 1.0));
        assert_eq!(arrivals(7, 50.0, 1.5).len(), 75);
    }

    #[test]
    fn applications_do_not_depend_on_draw_order() {
        let net = CHAIN.build(1);
        let forward: Vec<_> = (0..10).map(|i| MIX.app(1, i, &net)).collect();
        let backward: Vec<_> = (0..10).rev().map(|i| MIX.app(1, i, &net)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
    }

    #[test]
    fn hub_chain_has_the_requested_shape() {
        let net = CHAIN.build(3);
        assert_eq!(net.ncp_cpu.len(), 300);
        assert_eq!(net.links.len(), 2 * (9 + 290));
        for link in &net.links {
            assert!(link.a < 10, "every link starts at a hub");
        }
        for i in 0..100 {
            let app = MIX.app(3, i, &net);
            assert!((2..=5).contains(&app.cycles.len()));
            assert_eq!(app.bits.len(), app.cycles.len() + 1);
            assert!(net.leaves().contains(&app.source) && net.leaves().contains(&app.sink));
            assert_eq!(matches!(app.qoe, Qoe::GuaranteedRate { .. }), i % 3 == 0);
        }
    }

    #[test]
    fn flash_crowd_is_sorted_bursty_and_marks_probes() {
        let reqs = flash_crowd(5, 30.0, 6.0, 30.0, (10.0, 16.0), 4);
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(reqs.iter().all(|r| (0.0..30.0).contains(&r.due)));
        let in_burst = reqs
            .iter()
            .filter(|r| (10.0..16.0).contains(&r.due))
            .count();
        // 6 s at 30/s inside the burst, 24 s at 6/s outside it.
        assert_eq!((in_burst, reqs.len() - in_burst), (180, 144));
        let probes = reqs.iter().filter(|r| r.probe).count();
        assert_eq!(probes, reqs.len() / 4);
    }
}
