//! Priority-share capacity prediction — the paper's equation (6).
//!
//! Before running the task assignment for a newly arriving Best-Effort
//! application `J`, SPARCLE predicts how much of each element's capacity
//! `J` would receive *after* the proportional-fair allocation, so that
//! Algorithm 2 optimizes against realistic capacities instead of raw
//! ones. Theorem 3 shows the minimum allocated share on an element is
//! proportional to priority, hence:
//!
//! ```text
//! C_pred_n = P_J / (P_J + Σ_{J' ∈ J_n} P_{J'}) · C_n
//! ```
//!
//! where `J_n` is the set of BE applications already placed on element
//! `n` (the paper's worked example: a new application `b` with
//! `P_b = 2 P_a` arriving on an NCP already hosting `a` sees
//! `C_pred = 2/3 · C_n`).
//!
//! Resources reserved by Guaranteed-Rate applications are *not* shared,
//! so they must be subtracted from `C_n` before prediction (the system
//! pipeline in `sparcle-core` does this by keeping a GR-residual
//! [`CapacityMap`]).

use sparcle_model::{CapacityMap, LinkId, LoadMap, NcpId, Network, NetworkElement};

/// Tracks, per network element, the total priority of the BE applications
/// already placed there (`Σ_{J' ∈ J_n} P_{J'}`).
///
/// # Examples
///
/// The paper's worked example: a new application with twice the resident
/// priority sees 2/3 of the element's capacity.
///
/// ```
/// use sparcle_alloc::PriorityLoads;
/// use sparcle_model::{LoadMap, NcpId, NetworkBuilder, ResourceKind, ResourceVec};
///
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut nb = NetworkBuilder::new();
/// let n = nb.add_ncp("n", ResourceVec::cpu(90.0));
/// nb.add_ncp("other", ResourceVec::cpu(1.0));
/// let network = nb.build()?;
///
/// let mut tracker = PriorityLoads::zeroed(&network);
/// let mut load = LoadMap::zeroed(&network);
/// load.add_ct_load(n, &ResourceVec::cpu(5.0));
/// tracker.add_app(&load, 1.0); // incumbent, priority 1
///
/// let predicted = tracker.predict(&network.capacity_map(), 2.0);
/// assert!((predicted.ncp(n).amount(ResourceKind::Cpu) - 60.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityLoads {
    ncps: Vec<f64>,
    links: Vec<f64>,
}

impl PriorityLoads {
    /// An empty tracker shaped like `network`.
    pub fn zeroed(network: &Network) -> Self {
        PriorityLoads {
            ncps: vec![0.0; network.ncp_count()],
            links: vec![0.0; network.link_count()],
        }
    }

    /// Records that an application with `priority` occupies every element
    /// its `load` touches.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn add_app(&mut self, load: &LoadMap, priority: f64) {
        assert!(
            priority.is_finite() && priority > 0.0,
            "priority must be positive and finite"
        );
        for element in load.loaded_elements() {
            match element {
                NetworkElement::Ncp(id) => self.ncps[id.index()] += priority,
                NetworkElement::Link(id) => self.links[id.index()] += priority,
            }
        }
    }

    /// Overwrites the resident-priority total of one element.
    ///
    /// The incremental state core in `sparcle-core` keeps this tracker a
    /// *pure function* of the admitted-application list: on departure it
    /// re-derives each touched element as the fold `Σ priorities` over
    /// the surviving applications (in admission order, matching
    /// [`Self::add_app`]'s accumulation bit-for-bit) and stores the
    /// result here, instead of a clamped subtraction, which would drift
    /// in float arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `total` is negative or non-finite, or `element` is out
    /// of range.
    pub fn set_element(&mut self, element: NetworkElement, total: f64) {
        assert!(
            total.is_finite() && total >= 0.0,
            "resident priority total must be finite and non-negative"
        );
        match element {
            NetworkElement::Ncp(id) => self.ncps[id.index()] = total,
            NetworkElement::Link(id) => self.links[id.index()] = total,
        }
    }

    /// Total priority already resident on an NCP.
    pub fn ncp(&self, id: NcpId) -> f64 {
        self.ncps[id.index()]
    }

    /// Total priority already resident on a link.
    pub fn link(&self, id: LinkId) -> f64 {
        self.links[id.index()]
    }

    /// Applies equation (6): produces the predicted capacity map a new BE
    /// application with `priority` should assume, starting from `base`
    /// (the network capacity minus GR reservations).
    ///
    /// Elements hosting no BE application keep their full base capacity
    /// (`J_n = ∅` ⇒ share 1).
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn predict(&self, base: &CapacityMap, priority: f64) -> CapacityMap {
        let mut predicted = CapacityMap::default();
        self.predict_into(base, priority, &mut predicted);
        predicted
    }

    /// [`Self::predict`] into a caller-kept map: `out` is refilled from
    /// `base` through [`Clone::clone_from`], so a buffer that already has
    /// the network's shape is overwritten without allocating, whatever
    /// it held before.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn predict_into(&self, base: &CapacityMap, priority: f64, out: &mut CapacityMap) {
        assert!(
            priority.is_finite() && priority > 0.0,
            "priority must be positive and finite"
        );
        out.clone_from(base);
        for (i, &resident) in self.ncps.iter().enumerate() {
            if resident > 0.0 {
                let share = priority / (priority + resident);
                out.scale_element(NetworkElement::Ncp(NcpId::new(i as u32)), share);
            }
        }
        for (i, &resident) in self.links.iter().enumerate() {
            if resident > 0.0 {
                let share = priority / (priority + resident);
                out.scale_element(NetworkElement::Link(LinkId::new(i as u32)), share);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NetworkBuilder, ResourceKind, ResourceVec};

    fn net() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::cpu(90.0));
        let y = b.add_ncp("y", ResourceVec::cpu(60.0));
        b.add_link("xy", x, y, 30.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_tracker_predicts_full_capacity() {
        let network = net();
        let tracker = PriorityLoads::zeroed(&network);
        let base = network.capacity_map();
        let predicted = tracker.predict(&base, 1.0);
        assert_eq!(predicted, base);
    }

    #[test]
    fn paper_worked_example_two_thirds() {
        // App a (priority 1) occupies NCP0. New app b with priority 2
        // should see 2/3 of NCP0's capacity.
        let network = net();
        let mut tracker = PriorityLoads::zeroed(&network);
        let mut load = LoadMap::zeroed(&network);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(5.0));
        tracker.add_app(&load, 1.0);
        let predicted = tracker.predict(&network.capacity_map(), 2.0);
        assert!((predicted.ncp(NcpId::new(0)).amount(ResourceKind::Cpu) - 60.0).abs() < 1e-9);
        // Untouched elements keep full capacity.
        assert_eq!(predicted.ncp(NcpId::new(1)).amount(ResourceKind::Cpu), 60.0);
        assert_eq!(predicted.link(LinkId::new(0)), 30.0);
    }

    #[test]
    fn equal_priorities_halve_links_too() {
        let network = net();
        let mut tracker = PriorityLoads::zeroed(&network);
        let mut load = LoadMap::zeroed(&network);
        load.add_tt_load(LinkId::new(0), 8.0);
        tracker.add_app(&load, 3.0);
        let predicted = tracker.predict(&network.capacity_map(), 3.0);
        assert!((predicted.link(LinkId::new(0)) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn accumulates_multiple_residents() {
        let network = net();
        let mut tracker = PriorityLoads::zeroed(&network);
        let mut load = LoadMap::zeroed(&network);
        load.add_ct_load(NcpId::new(1), &ResourceVec::cpu(1.0));
        tracker.add_app(&load, 1.0);
        tracker.add_app(&load, 2.0);
        assert_eq!(tracker.ncp(NcpId::new(1)), 3.0);
        // New app priority 1: share 1/(1+3) = 1/4 of 60 = 15.
        let predicted = tracker.predict(&network.capacity_map(), 1.0);
        assert!((predicted.ncp(NcpId::new(1)).amount(ResourceKind::Cpu) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_respects_residual_base() {
        // A GR app reserved half of NCP0; prediction starts from the
        // residual, then shares it.
        let network = net();
        let mut base = network.capacity_map();
        base.ncp_mut(NcpId::new(0)).sub(ResourceKind::Cpu, 45.0);
        let mut tracker = PriorityLoads::zeroed(&network);
        let mut load = LoadMap::zeroed(&network);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(1.0));
        tracker.add_app(&load, 1.0);
        let predicted = tracker.predict(&base, 1.0);
        assert!((predicted.ncp(NcpId::new(0)).amount(ResourceKind::Cpu) - 22.5).abs() < 1e-9);
    }
}
