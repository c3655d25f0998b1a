//! Immutable point-in-time views of a [`SystemState`].
//!
//! The admission service plane (DESIGN.md §13) answers read-only
//! what-if/γ-probe queries *while* a writer batch is mid-transaction.
//! Handing probes a `&SystemState` would expose half-applied mutations,
//! so instead readers take a [`StateSnapshot`]: an owned copy of
//! everything the probe path needs — BE rates, GR reservations, the
//! GR-residual capacities and the resident-priority tracker of eq. (6).
//! Once taken, a snapshot never changes; in-flight transactions
//! (committed *or* rolled back) are invisible to it.
//!
//! A probe then runs the public, side-effect-free pipeline front half:
//! [`StateSnapshot::predict_into`] (or [`StateSnapshot::predicted_capacities`],
//! into a fresh map) reproduces the capacity prediction an admission
//! would see, and the result feeds a plain
//! [`crate::DynamicRankingAssigner::assign`] over the same network.

use crate::state::SystemState;
use crate::system::SparcleSystem;
use sparcle_alloc::predict::PriorityLoads;
use sparcle_model::{AppId, CapacityMap};

/// One admitted Best-Effort application as captured by a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotBeApp {
    /// System-assigned identifier.
    pub id: AppId,
    /// Proportional-fair priority `P_J`.
    pub priority: f64,
    /// Rate allocated by the most recent committed solve.
    pub allocated_rate: f64,
}

/// One admitted Guaranteed-Rate application as captured by a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotGrApp {
    /// System-assigned identifier.
    pub id: AppId,
    /// The guaranteed rate `R_J`.
    pub guaranteed_rate: f64,
    /// Total capacity-rate reserved across the entry's failover paths.
    pub reserved_rate: f64,
}

/// An immutable, owned view of a [`SystemState`] at one instant.
///
/// Everything a read-only probe needs, detached from the live state:
/// see the module docs. Obtain one with [`SparcleSystem::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    be: Vec<SnapshotBeApp>,
    gr: Vec<SnapshotGrApp>,
    gr_residual: CapacityMap,
    priority_loads: PriorityLoads,
}

impl StateSnapshot {
    pub(crate) fn capture(state: &SystemState) -> Self {
        let be: Vec<SnapshotBeApp> = state
            .be_apps
            .iter()
            .map(|a| SnapshotBeApp {
                id: a.id,
                priority: a.priority,
                allocated_rate: a.allocated_rate,
            })
            .collect();
        let gr: Vec<SnapshotGrApp> = state
            .gr_apps
            .iter()
            .map(|a| SnapshotGrApp {
                id: a.id,
                guaranteed_rate: a.guaranteed_rate(),
                reserved_rate: a.reserved_rate(),
            })
            .collect();
        StateSnapshot {
            be,
            gr,
            gr_residual: state.gr_residual.clone(),
            priority_loads: state.priority_loads.clone(),
        }
    }

    /// Admitted Best-Effort applications in admission order.
    pub fn be_apps(&self) -> &[SnapshotBeApp] {
        &self.be
    }

    /// Admitted Guaranteed-Rate applications in admission order.
    pub fn gr_apps(&self) -> &[SnapshotGrApp] {
        &self.gr
    }

    /// Capacities remaining after all GR reservations.
    pub fn gr_residual(&self) -> &CapacityMap {
        &self.gr_residual
    }

    /// The capacity an arriving application with `priority` would be
    /// *predicted* to see (eq. (6)) — exactly the map admission's path
    /// search starts from, so feeding it to
    /// [`crate::DynamicRankingAssigner::assign`] yields a faithful
    /// read-only γ-probe.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn predicted_capacities(&self, priority: f64) -> CapacityMap {
        let mut predicted = CapacityMap::default();
        self.predict_into(priority, &mut predicted);
        predicted
    }

    /// [`Self::predicted_capacities`] into a caller-kept map, refilled
    /// in place: a probe loop that reuses `out` allocates nothing for
    /// the prediction once `out` has the network's shape.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn predict_into(&self, priority: f64, out: &mut CapacityMap) {
        self.priority_loads
            .predict_into(&self.gr_residual, priority, out);
    }

    /// The rate the identified application carries (BE: last allocated;
    /// GR: guaranteed), or `None` for an unknown id.
    pub fn rate_of(&self, id: AppId) -> Option<f64> {
        if let Some(a) = self.be.iter().find(|a| a.id == id) {
            return Some(a.allocated_rate);
        }
        self.gr
            .iter()
            .find(|a| a.id == id)
            .map(|a| a.guaranteed_rate)
    }
}

impl SparcleSystem {
    /// Captures an immutable [`StateSnapshot`] of the current state —
    /// the read side of the service plane's snapshot-read protocol.
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::capture(self.state())
    }
}

#[cfg(test)]
mod tests {
    use sparcle_model::{
        Application, NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
    };

    use crate::SparcleSystem;

    fn network() -> sparcle_model::Network {
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(100.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
        nb.add_link("ab", a, b, 1000.0).expect("valid link");
        nb.build().expect("valid network")
    }

    fn app(qoe: QoeClass) -> Application {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(10.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, 50.0).expect("valid tt");
        tb.add_tt("wt", w, t, 5.0).expect("valid tt");
        Application::new(
            tb.build().expect("valid graph"),
            qoe,
            [(s, NcpId::new(0)), (t, NcpId::new(1))],
        )
        .expect("valid app")
    }

    #[test]
    fn snapshot_matches_live_state() {
        let mut system = SparcleSystem::new(network());
        let be = system
            .submit(app(QoeClass::best_effort(2.0)))
            .expect("valid input")
            .id()
            .expect("admitted");
        let gr = system
            .submit(app(QoeClass::guaranteed_rate(1.0, 0.0)))
            .expect("valid input")
            .id()
            .expect("admitted");

        let snapshot = system.snapshot();
        assert_eq!(snapshot.be_apps().len(), 1);
        assert_eq!(snapshot.gr_apps().len(), 1);
        assert_eq!(
            snapshot.rate_of(be),
            Some(system.be_apps()[0].allocated_rate)
        );
        assert_eq!(snapshot.rate_of(gr), Some(1.0));
        assert_eq!(snapshot.gr_residual(), system.gr_residual());
        assert_eq!(snapshot.rate_of(sparcle_model::AppId::new(99)), None);
    }

    #[test]
    fn predicted_capacities_match_admission_prediction() {
        let mut system = SparcleSystem::new(network());
        system
            .submit(app(QoeClass::best_effort(1.0)))
            .expect("valid input");
        let snapshot = system.snapshot();
        // An equal-priority arrival splits each loaded element in half:
        // predicted = residual * P/(P + resident).
        let predicted = snapshot.predicted_capacities(1.0);
        let residual = snapshot.gr_residual();
        let loaded = system.be_apps()[0].combined_load.loaded_elements();
        assert!(!loaded.is_empty());
        for element in loaded {
            let (have, full) = match element {
                sparcle_model::NetworkElement::Ncp(id) => (
                    predicted.ncp(id).amount(sparcle_model::ResourceKind::Cpu),
                    residual.ncp(id).amount(sparcle_model::ResourceKind::Cpu),
                ),
                sparcle_model::NetworkElement::Link(id) => (predicted.link(id), residual.link(id)),
            };
            assert!(
                (have - full / 2.0).abs() < 1e-9,
                "element {element:?}: predicted {have} vs residual {full}"
            );
        }
    }

    #[test]
    fn rolled_back_transactions_leave_snapshots_unperturbed() {
        let mut system = SparcleSystem::new(network());
        system
            .submit(app(QoeClass::best_effort(1.0)))
            .expect("valid input");
        let before = system.snapshot();

        let mut txn = system.begin();
        txn.submit(app(QoeClass::best_effort(3.0)))
            .expect("valid input");
        txn.submit(app(QoeClass::guaranteed_rate(2.0, 0.0)))
            .expect("valid input");
        // The live state has moved, the snapshot has not.
        assert_eq!(txn.system().state().be_apps().len(), 2);
        assert_eq!(before.be_apps().len(), 1);
        txn.rollback();

        let after = system.snapshot();
        assert_eq!(before, after, "rollback must restore the snapshot view");
    }
}
