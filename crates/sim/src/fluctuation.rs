//! Computing-network resource fluctuation (the paper's §VI future-work
//! direction, implemented as an extension).
//!
//! Element capacities wander over time — batteries throttle CPUs,
//! wireless links fade. [`FluctuationModel`] generates a seeded
//! multiplicative random walk per element, bounded to
//! `[floor, 1] × nominal`; each epoch yields a full
//! [`CapacityMap`] that can be fed to
//! `SparcleSystem::apply_capacity_fluctuation` to study how allocations
//! adapt without migrating placements. The system takes only the
//! elements whose capacity changed from the map, so a step costs what
//! it changes, not the size of the network.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_model::{CapacityMap, Network};

/// A bounded multiplicative random walk over every element's capacity.
///
/// # Examples
///
/// ```
/// use sparcle_sim::FluctuationModel;
/// use sparcle_model::{NetworkBuilder, ResourceKind, ResourceVec};
///
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut nb = NetworkBuilder::new();
/// let n = nb.add_ncp("n", ResourceVec::cpu(100.0));
/// nb.add_ncp("m", ResourceVec::cpu(100.0));
/// let net = nb.build()?;
/// let model = FluctuationModel { floor: 0.5, step: 0.1, seed: 7 };
/// let mut series = model.series(&net);
/// for _ in 0..100 {
///     let caps = series.step();
///     let cpu = caps.ncp(n).amount(ResourceKind::Cpu);
///     assert!(cpu >= 50.0 - 1e-9 && cpu <= 100.0 + 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FluctuationModel {
    /// Lowest fraction of nominal capacity an element can sink to
    /// (`0 < floor ≤ 1`).
    pub floor: f64,
    /// Maximum per-epoch relative step (e.g. `0.1` = ±10 %).
    pub step: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FluctuationModel {
    fn default() -> Self {
        FluctuationModel {
            floor: 0.3,
            step: 0.1,
            seed: 0,
        }
    }
}

/// Iterator over per-epoch capacity maps.
#[derive(Debug)]
pub struct CapacitySeries<'a> {
    network: &'a Network,
    nominal: CapacityMap,
    /// Current fraction of nominal per NCP and per link.
    ncp_frac: Vec<f64>,
    link_frac: Vec<f64>,
    model: FluctuationModel,
    rng: StdRng,
}

impl FluctuationModel {
    /// Starts a capacity series at nominal capacity.
    ///
    /// # Panics
    ///
    /// Panics on a floor outside `(0, 1]` or a negative step.
    pub fn series<'a>(&self, network: &'a Network) -> CapacitySeries<'a> {
        assert!(
            self.floor > 0.0 && self.floor <= 1.0,
            "floor must lie in (0, 1]"
        );
        assert!(self.step >= 0.0, "step must be non-negative");
        CapacitySeries {
            network,
            nominal: network.capacity_map(),
            ncp_frac: vec![1.0; network.ncp_count()],
            link_frac: vec![1.0; network.link_count()],
            model: *self,
            rng: StdRng::seed_from_u64(self.seed),
        }
    }
}

impl CapacitySeries<'_> {
    /// Advances one epoch and returns the new capacities.
    pub fn step(&mut self) -> CapacityMap {
        let model = self.model;
        for f in self.ncp_frac.iter_mut().chain(self.link_frac.iter_mut()) {
            let delta = self.rng.gen_range(-model.step..=model.step);
            *f = (*f * (1.0 + delta)).clamp(model.floor, 1.0);
        }
        let mut caps = self.nominal.clone();
        for (i, ncp) in self.network.ncp_ids().enumerate() {
            caps.ncp_mut(ncp).scale(self.ncp_frac[i]);
        }
        for (i, link) in self.network.link_ids().enumerate() {
            let bw = caps.link(link);
            caps.set_link(link, bw * self.link_frac[i]);
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, ResourceKind, ResourceVec};

    fn net() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::cpu(100.0));
        let y = b.add_ncp("y", ResourceVec::cpu(200.0));
        b.add_link("xy", x, y, 50.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn series_stays_within_bounds() {
        let network = net();
        let model = FluctuationModel {
            floor: 0.4,
            step: 0.2,
            seed: 5,
        };
        let mut series = model.series(&network);
        for _ in 0..500 {
            let caps = series.step();
            for ncp in network.ncp_ids() {
                let nominal = network.ncp(ncp).capacity().amount(ResourceKind::Cpu);
                let now = caps.ncp(ncp).amount(ResourceKind::Cpu);
                assert!(now <= nominal + 1e-9, "above nominal");
                assert!(now >= 0.4 * nominal - 1e-9, "below floor");
            }
            for link in network.link_ids() {
                let nominal = network.link(link).bandwidth();
                let now = caps.link(link);
                assert!(now <= nominal + 1e-9 && now >= 0.4 * nominal - 1e-9);
            }
        }
    }

    #[test]
    fn series_is_deterministic_per_seed() {
        let network = net();
        let model = FluctuationModel::default();
        let mut a = model.series(&network);
        let mut b = model.series(&network);
        for _ in 0..10 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn zero_step_is_constant_nominal() {
        let network = net();
        let model = FluctuationModel {
            floor: 0.5,
            step: 0.0,
            seed: 1,
        };
        let mut series = model.series(&network);
        let caps = series.step();
        assert_eq!(caps, network.capacity_map());
    }

    #[test]
    #[should_panic(expected = "floor must lie in (0, 1]")]
    fn bad_floor_panics() {
        let network = net();
        FluctuationModel {
            floor: 0.0,
            step: 0.1,
            seed: 0,
        }
        .series(&network);
    }
}
