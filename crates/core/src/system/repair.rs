//! Everything that happens to an application *after* admission:
//! departure and displacement, exact readmission of a preserved
//! placement, planned migration, and capacity fluctuation. Each is the
//! admission pipeline's own pieces run again — lift, then
//! [`SystemTxn::install_be`] / [`SystemTxn::install_gr`] or a fresh
//! submit, then the shared [`SystemTxn::resolve`] — inside the same undo
//! log, which is why admission, re-allocation and failure repair stay
//! one allocation problem.

use super::{Admission, DisplacedApp, MigrationOutcome, RejectReason, SystemTxn};
use crate::state::{Slot, UndoOp};
use sparcle_model::{AppId, CapacityMap, ModelError, NetworkElement};

impl SystemTxn<'_> {
    /// Displaces an admitted application inside this transaction. The
    /// entry is handed out by [`Self::commit`]; a rollback reinstates it
    /// at its original position. Returns `false` for an unknown id.
    pub fn displace(&mut self, id: AppId) -> bool {
        self.displace_inner(id, true)
    }

    /// Displaces every listed application, then re-solves the BE
    /// allocation **once** instead of after every removal — the batch
    /// form a failure's blast radius wants. The removals and the final
    /// rates land in the same transaction, so a rollback restores every
    /// entry and every rate bitwise.
    ///
    /// # Panics
    ///
    /// Panics if any id is not admitted (the batch is taken from the
    /// system's own index, so a miss is caller corruption).
    pub fn displace_all(&mut self, ids: &[AppId]) -> usize {
        for &id in ids {
            assert!(
                self.displace_inner(id, false),
                "batch displace of unknown id {id:?}"
            );
        }
        if !ids.is_empty() {
            let _ = self.resolve();
        }
        ids.len()
    }

    fn displace_inner(&mut self, id: AppId, solve: bool) -> bool {
        let Some(slot) = self.sys.state.slot(id) else {
            return false;
        };
        self.lift(slot);
        if solve {
            let _ = self.resolve();
        }
        true
    }

    /// Takes the entry at `slot` out of the state, re-deriving the
    /// residual or priority-load elements it touched; the entry parks in
    /// the undo log until commit hands it out.
    fn lift(&mut self, slot: Slot) {
        let state = &mut self.sys.state;
        match slot {
            Slot::Gr(pos) => {
                let entry = state.gr_apps.remove(pos);
                state.refresh_residual(&entry.touched);
                self.log.push(UndoOp::InsertGr(pos, entry));
            }
            Slot::Be(pos) => {
                let duals = state.constraints.duals().to_vec();
                let entry = state.be_apps.remove(pos);
                state.constraints.remove_app(pos);
                state.refresh_priorities(&entry.combined_load.loaded_elements());
                self.log.push(UndoOp::InsertBe(pos, entry, duals));
            }
        }
    }

    /// Atomically moves an admitted application to a fresh placement
    /// inside this transaction: the current placement is released
    /// (delta-maintaining residuals and priority loads), the full
    /// admission pipeline re-runs on the freed capacities, and the BE
    /// allocation is re-solved **once** over the combined remove +
    /// re-place — never the intermediate state a displace + resubmit
    /// pair would expose.
    ///
    /// Both halves share one undo log: if the fresh admission fails
    /// (rejects or errs), the migration unwinds to its own savepoint,
    /// reinstating the old placement (and every BE rate, and the id
    /// counter) bitwise while leaving the transaction's earlier
    /// operations intact; and a
    /// rollback of the enclosing transaction undoes a *successful* move
    /// just as exactly — which is what makes rollback-only migration
    /// what-if probes free. Returns `None` for an unknown id.
    pub fn migrate(&mut self, id: AppId) -> Option<MigrationOutcome> {
        let state = &self.sys.state;
        let slot = state.slot(id)?;
        let (app, old_rate) = match slot {
            Slot::Gr(pos) => {
                let a = &state.gr_apps[pos];
                (a.app.clone(), a.guaranteed_rate())
            }
            Slot::Be(pos) => {
                let a = &state.be_apps[pos];
                (a.app.clone(), a.allocated_rate)
            }
        };
        let savepoint = self.log.savepoint();
        // Lift without the intermediate BE solve: the submission half
        // solves once over the final membership.
        self.lift(slot);
        // An `Err` depends on the path found on the current capacities,
        // not on the (once admitted) application: it is a failed move.
        let admission = self
            .submit_inner(app, false)
            .unwrap_or_else(|e| Admission::Rejected(RejectReason::SubmitError(e)));
        if !admission.is_admitted() {
            self.unwind_to(savepoint);
        }
        Some(MigrationOutcome {
            old_id: id,
            old_rate,
            admission,
        })
    }

    /// Reinstates a displaced entry (see
    /// [`super::SparcleSystem::try_readmit`]): the install half of
    /// admission with the placement search replaced by a per-path fit
    /// check (GR) or skipped (BE).
    #[allow(clippy::result_large_err)] // Err returns ownership, not a message
    pub(super) fn readmit_inner(
        &mut self,
        displaced: DisplacedApp,
    ) -> Result<AppId, (DisplacedApp, RejectReason)> {
        let id = displaced.id();
        let savepoint = self.log.savepoint();
        // Keep fresh ids from colliding with the preserved one.
        self.log.push(UndoOp::RestoreNextId(self.sys.state.next_id));
        self.sys.state.next_id = self.sys.state.next_id.max(id.as_u32() + 1);
        match displaced {
            DisplacedApp::Gr(entry) => {
                for (i, (path, rate)) in entry.paths.iter().enumerate() {
                    let residual = &self.sys.state.gr_residual;
                    if residual.bottleneck_rate(&path.load) + 1e-9 < *rate {
                        self.unwind_to(savepoint);
                        return Err((
                            DisplacedApp::Gr(entry),
                            RejectReason::PlacementUnfit { path: i },
                        ));
                    }
                    self.reserve(&path.load, *rate);
                }
                self.install_gr(entry, false);
                Ok(id)
            }
            DisplacedApp::Be(mut entry) => {
                let displaced_rate = std::mem::replace(&mut entry.allocated_rate, 0.0);
                let Err(e) = self.install_be(entry, false) else {
                    return Ok(id);
                };
                let Some(DisplacedApp::Be(mut entry)) = self.unwind_to(savepoint).pop() else {
                    unreachable!("the undo log returns the pushed entry")
                };
                // Keep the pre-displacement rate visible to the caller:
                // reconcile policies order by it.
                entry.allocated_rate = displaced_rate;
                Err((
                    DisplacedApp::Be(entry),
                    RejectReason::AllocationFailed(e.to_string()),
                ))
            }
        }
    }

    /// Sets the capacity of each listed element to its value in
    /// `capacities` inside this transaction — one element for a failure
    /// or a recovery, the changed ones for a fluctuation step (see
    /// [`super::SparcleSystem::apply_capacity_fluctuation`]). Only those
    /// elements of the current capacities are replaced, and the undo
    /// record keeps just their old values. Only their residual elements
    /// are re-derived (the canonical per-element fold); the GR fits are
    /// re-checked along the GR paths; the BE allocation is re-solved.
    ///
    /// Returns the ids of GR applications whose reservations no longer
    /// fit (sorted by id, deduplicated).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownNcp`] / [`ModelError::UnknownLink`] for a
    /// listed element outside the network or `capacities`, and
    /// [`ModelError::InvalidQuantity`] for a NaN, negative or infinite
    /// capacity on one. Nothing has changed then.
    pub fn change_capacities(
        &mut self,
        capacities: &CapacityMap,
        elements: &[NetworkElement],
    ) -> Result<Vec<AppId>, ModelError> {
        let state = &mut self.sys.state;
        for &e in elements {
            state.current_capacities.check_element(e)?;
            capacities.check_element(e)?;
        }
        let old = elements
            .iter()
            .map(|&e| state.current_capacities.element(e))
            .collect();
        for &e in elements {
            state.current_capacities.copy_element_from(capacities, e);
        }
        self.log
            .push(UndoOp::RestoreCapacities(elements.to_vec(), old));
        state.refresh_residual(elements);
        let violated = state.violated_gr();
        let _ = self.resolve();
        Ok(violated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::fixtures::{simple_app, star_network};
    use crate::SparcleSystem;
    use sparcle_model::{
        Application, NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
    };

    #[test]
    fn gr_departure_releases_capacity() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let before = sys.gr_residual().clone();
        let adm = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap();
        let id = adm.id().unwrap();
        assert_ne!(sys.gr_residual(), &before);
        assert!(sys.remove(id));
        // Capacity restored to within rounding.
        for ncp in sys.network().ncp_ids() {
            let a = sys
                .gr_residual()
                .ncp(ncp)
                .amount(sparcle_model::ResourceKind::Cpu);
            let b = before.ncp(ncp).amount(sparcle_model::ResourceKind::Cpu);
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(!sys.remove(id), "double removal reports false");
    }

    #[test]
    fn be_departure_reallocates_survivor() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let a = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap()
            .id()
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap();
        let shared_rate = sys.be_rate_total();
        assert!(sys.remove(a));
        assert_eq!(sys.be_apps().len(), 1);
        let solo_rate = sys.be_apps()[0].allocated_rate;
        // The survivor should gain at least something whenever the two
        // apps contended (they may not have; then rates are equal).
        assert!(solo_rate + 1e-9 >= shared_rate / 2.0);
    }

    #[test]
    fn capacity_fluctuation_rescales_be_rates() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let before = sys.be_apps()[0].allocated_rate;
        // Halve every capacity.
        let mut halved = sys.network().capacity_map();
        for ncp in sys.network().ncp_ids() {
            halved.ncp_mut(ncp).scale(0.5);
        }
        for link in sys.network().link_ids() {
            let bw = halved.link(link);
            halved.set_link(link, bw * 0.5);
        }
        let violated = sys.apply_capacity_fluctuation(&halved).unwrap();
        assert!(violated.is_empty());
        let after = sys.be_apps()[0].allocated_rate;
        assert!(
            (after - before * 0.5).abs() / before < 0.05,
            "rate should halve: {before} -> {after}"
        );
    }

    #[test]
    fn capacity_fluctuation_flags_broken_gr() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let id = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        // Collapse the network to 1 % capacity.
        let mut tiny = sys.network().capacity_map();
        for ncp in sys.network().ncp_ids() {
            tiny.ncp_mut(ncp).scale(0.01);
        }
        for link in sys.network().link_ids() {
            let bw = tiny.link(link);
            tiny.set_link(link, bw * 0.01);
        }
        let violated = sys.apply_capacity_fluctuation(&tiny).unwrap();
        assert_eq!(violated, vec![id]);
    }

    /// Regression: a capacity map of the wrong shape, or with a NaN,
    /// negative or infinite capacity, used to panic. It is a typed error
    /// now, and the system is bitwise as it was. The per-element entry
    /// point validates only the elements it is given.
    #[test]
    fn invalid_capacities_are_errors_that_change_nothing() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net.clone());
        sys.submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let link = NetworkElement::Link(net.link_ids().next().expect("a link"));
        let hub = NetworkElement::Ncp(NcpId::new(0));
        let with = |edit: &dyn Fn(&mut CapacityMap)| {
            let mut caps = net.capacity_map();
            edit(&mut caps);
            caps
        };
        let nan = with(&|c| c.scale_element(link, f64::NAN));
        let negative = with(&|c| c.scale_element(link, -1.0));
        let infinite = with(&|c| c.ncp_mut(NcpId::new(0)).scale(f64::MAX));
        let mut nb = NetworkBuilder::new();
        nb.add_ncp("solo", ResourceVec::cpu(1.0));
        let short = nb.build().unwrap().capacity_map();

        let bits = |sys: &SparcleSystem| {
            let caps = |m: &CapacityMap| -> Vec<u64> {
                let ncps = net
                    .ncp_ids()
                    .flat_map(|n| m.ncp(n).iter().map(|(_, a)| a.to_bits()));
                ncps.chain(net.link_ids().map(|l| m.link(l).to_bits()))
                    .collect()
            };
            let rates: Vec<u64> = sys
                .state()
                .snapshot_rates()
                .iter()
                .map(|r| r.to_bits())
                .collect();
            (
                caps(sys.gr_residual()),
                caps(sys.state().current_capacities()),
                rates,
                sys.state_stats().clone(),
            )
        };
        let before = bits(&sys);
        let invalid = |e: Result<Vec<AppId>, ModelError>| {
            matches!(e, Err(ModelError::InvalidQuantity { .. }))
        };
        assert!(invalid(sys.apply_capacity_fluctuation(&nan)));
        assert!(invalid(sys.apply_capacity_fluctuation(&negative)));
        assert!(invalid(sys.apply_capacity_fluctuation(&infinite)));
        assert!(invalid(sys.change_capacities(&nan, &[link])));
        assert!(invalid(sys.change_capacities(&infinite, &[link, hub])));
        assert_eq!(
            sys.apply_capacity_fluctuation(&short),
            Err(ModelError::UnknownNcp(NcpId::new(1)))
        );
        assert_eq!(
            sys.change_capacities(&short, &[NetworkElement::Ncp(NcpId::new(1))]),
            Err(ModelError::UnknownNcp(NcpId::new(1)))
        );
        assert_eq!(bits(&sys), before, "a refused change left a trace");
        assert_eq!(sys.state().audit(sys.network()), Ok(()));
        // The bad link is not the hub's business.
        assert!(sys.change_capacities(&nan, &[hub]).is_ok());
    }

    #[test]
    fn migrate_finds_new_gr_paths_after_fluctuation() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let id = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        // Shrink capacity to 10 %: the old single-path reservation is
        // violated, but a fresh multi-path schedule still covers the
        // 2 units/s across several leaves.
        let mut caps = sys.network().capacity_map();
        for ncp in sys.network().ncp_ids() {
            caps.ncp_mut(ncp).scale(0.1);
        }
        for link in sys.network().link_ids() {
            let bw = caps.link(link);
            caps.set_link(link, bw * 0.1);
        }
        let violated = sys.apply_capacity_fluctuation(&caps).unwrap();
        assert_eq!(violated, vec![id]);
        let outcome = sys.migrate(id).expect("known id");
        assert!(outcome.moved(), "{outcome:?}");
        assert_eq!(sys.gr_apps().len(), 1);
        // The new reservation fits the shrunken capacities.
        let gr = &sys.gr_apps()[0];
        assert!((gr.guaranteed_rate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn migrate_moves_an_app_in_one_txn() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let be_id = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(2.0), 10.0, 50.0))
            .unwrap();
        let commits_before = sys.state_stats().txn_commits;
        let outcome = sys.migrate(be_id).expect("known id");
        assert!(outcome.moved(), "{outcome:?}");
        assert_eq!(outcome.old_id, be_id);
        let new_id = outcome.new_id().expect("moved");
        assert_ne!(new_id, be_id);
        assert!(outcome.old_rate > 0.0);
        // Same population, new identity; exactly one commit.
        assert_eq!(sys.be_apps().len(), 2);
        assert!(!sys.contains(be_id));
        assert!(sys.contains(new_id));
        assert_eq!(sys.state_stats().txn_commits, commits_before + 1);
    }

    #[test]
    fn rejected_migration_is_invisible() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let id = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        // Collapse the network so the fresh placement search must fail;
        // the old reservation (taken at full capacity) stays in force.
        let mut caps = sys.network().capacity_map();
        for ncp in sys.network().ncp_ids() {
            caps.ncp_mut(ncp).scale(1e-6);
        }
        for link in sys.network().link_ids() {
            let bw = caps.link(link);
            caps.set_link(link, bw * 1e-6);
        }
        sys.apply_capacity_fluctuation(&caps).unwrap();
        let residual = sys.gr_residual().clone();
        let rates: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        let outcome = sys.migrate(id).expect("known id");
        assert!(!outcome.moved(), "{outcome:?}");
        assert_eq!(outcome.new_id(), None);
        // Bitwise no-op: placement, residual, BE rates, and the id
        // counter are exactly as before the attempt.
        assert!(sys.contains(id));
        assert_eq!(sys.gr_residual(), &residual);
        let after: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(rates, after);
    }

    /// Regression: the fresh admission of a move can *err*, not just
    /// reject — on an 80-NCP ring whose direct source–sink link has
    /// lost its bandwidth, the only wide path is the 159-element detour
    /// the availability analyser refuses (the moved application asks for
    /// an availability, so the analysis runs). That used to panic; it is
    /// a failed move, unwound like any other.
    #[test]
    fn erroring_migration_is_invisible() {
        const RING: u32 = 80;
        let mut nb = NetworkBuilder::new();
        for n in 0..RING {
            nb.add_ncp(format!("n{n}"), ResourceVec::cpu(1000.0));
        }
        for n in 0..RING {
            // The direct link (`ring0`) is wide enough for both apps.
            let (next, bw) = (NcpId::new((n + 1) % RING), if n == 0 { 1e6 } else { 1e4 });
            nb.add_link(format!("ring{n}"), NcpId::new(n), next, bw)
                .unwrap();
        }
        let mut sys = SparcleSystem::new(nb.build().unwrap());
        let app = |qoe| {
            let mut tb = TaskGraphBuilder::new();
            let s = tb.add_ct("s", ResourceVec::new());
            let t = tb.add_ct("t", ResourceVec::cpu(10.0));
            tb.add_tt("st", s, t, 50.0).unwrap();
            let pins = [(s, NcpId::new(0)), (t, NcpId::new(1))];
            Application::new(tb.build().unwrap(), qoe, pins).unwrap()
        };
        let targeted = QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.5),
        };
        let id = sys.submit(app(targeted)).unwrap().id().unwrap();
        sys.submit(app(QoeClass::best_effort(2.0))).unwrap();
        // Starve the direct link: both apps keep their placements over
        // it, but a fresh search goes the long way.
        let mut caps = sys.network().capacity_map();
        let direct = sys.network().link_ids().next().expect("ring0");
        caps.set_link(direct, 1e-3);
        sys.apply_capacity_fluctuation(&caps).unwrap();
        let residual = sys.gr_residual().clone();
        let rates: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        let outcome = sys.migrate(id).expect("known id");
        assert!(!outcome.moved(), "{outcome:?}");
        assert!(matches!(
            outcome.admission,
            Admission::Rejected(RejectReason::SubmitError(_))
        ));
        // Bitwise no-op, as for a rejected move.
        assert!(sys.contains(id));
        assert_eq!(sys.gr_residual(), &residual);
        let after: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(rates, after);
    }

    #[test]
    fn rolled_back_migration_txn_is_invisible() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap();
        let be_id = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        let residual = sys.gr_residual().clone();
        let rates: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        // A rollback-only migration probe: the move lands inside the
        // txn, then the whole thing unwinds.
        let mut txn = sys.begin();
        let outcome = txn.migrate(be_id).expect("known id");
        assert!(outcome.moved());
        assert!(!txn.system().contains(be_id));
        txn.rollback();
        assert!(sys.contains(be_id));
        assert_eq!(sys.gr_residual(), &residual, "residual restored bitwise");
        let after: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(rates, after, "rates restored bitwise");
        // The id counter rewound too: the next admission takes the id
        // the probe briefly held.
        let next = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        assert_eq!(Some(next), outcome.new_id());
    }

    #[test]
    fn migrate_unknown_id_is_none() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        assert!(sys.migrate(AppId::new(7)).is_none());
        let mut txn = sys.begin();
        assert!(txn.migrate(AppId::new(7)).is_none());
    }

    #[test]
    fn displace_then_readmit_round_trips_exactly() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let gr_id = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        let be_id = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        let residual_before = sys.gr_residual().clone();
        let be_rate_before = sys.be_apps()[0].allocated_rate;

        let displaced = sys.displace(gr_id).expect("known id");
        assert!(displaced.is_gr());
        assert_eq!(displaced.id(), gr_id);
        assert!(!sys.contains(gr_id));
        let adm = sys.readmit(displaced);
        assert_eq!(adm.id(), Some(gr_id));
        assert_eq!(sys.gr_residual(), &residual_before, "exact round-trip");

        let displaced = sys.displace(be_id).expect("known id");
        let adm = sys.readmit(displaced);
        assert_eq!(adm.id(), Some(be_id));
        assert!(
            (sys.be_apps()[0].allocated_rate - be_rate_before).abs() < 1e-9,
            "BE rate restored"
        );
        // Fresh ids never collide with preserved ones.
        let next = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        assert!(next > be_id);
    }

    #[test]
    fn readmit_rejects_when_placement_no_longer_fits() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let id = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        let displaced = sys.displace(id).expect("known id");
        // Crush the network so the old reservation cannot fit.
        let mut tiny = sys.network().capacity_map();
        for ncp in sys.network().ncp_ids() {
            tiny.ncp_mut(ncp).scale(1e-6);
        }
        for link in sys.network().link_ids() {
            let bw = tiny.link(link);
            tiny.set_link(link, bw * 1e-6);
        }
        sys.apply_capacity_fluctuation(&tiny).unwrap();
        let before = sys.gr_residual().clone();
        let adm = sys.readmit(displaced);
        assert!(matches!(
            adm,
            Admission::Rejected(RejectReason::PlacementUnfit { .. })
        ));
        assert_eq!(sys.gr_residual(), &before, "rejection leaves no trace");
        assert!(!sys.contains(id));
    }
}
