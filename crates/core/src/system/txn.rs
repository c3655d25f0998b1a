//! The transaction every mutation runs in: the undo log with its
//! savepoints, commit / rollback / drop, class dispatch and batch
//! admission, and [`SystemTxn::resolve`] — the one place the write path
//! logs the incumbent rates and re-solves problem (4).

use super::{Admission, DisplacedApp, SparcleSystem};
use crate::error::AssignError;
use crate::state::{TxnLog, UndoOp};
use sparcle_alloc::AllocError;
use sparcle_model::{AppId, Application, QoeClass};
use std::sync::Arc;

/// An open transaction over a [`SparcleSystem`].
///
/// Every mutating operation appends undo records; [`Self::commit`] makes
/// the changes permanent, while [`Self::rollback`] — or dropping the
/// handle — replays the records in reverse, restoring the pre-transaction
/// state bitwise (BE rates, residuals, priority loads, constraint
/// matrix, and the id counter included).
#[derive(Debug)]
pub struct SystemTxn<'a> {
    pub(super) sys: &'a mut SparcleSystem,
    pub(super) log: TxnLog,
}

impl SystemTxn<'_> {
    /// Read access to the system mid-transaction (e.g. to inspect the
    /// rate a probe submission would receive before rolling back).
    pub fn system(&self) -> &SparcleSystem {
        self.sys
    }

    /// Submits an application inside this transaction (see
    /// [`SparcleSystem::submit`]).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for malformed inputs; the transaction's
    /// earlier operations stay intact (the failed submission itself is
    /// unwound).
    pub fn submit(&mut self, app: impl Into<Arc<Application>>) -> Result<Admission, AssignError> {
        self.submit_inner(app.into(), false)
    }

    /// Figure 3's fork: Best-Effort applications take steps 1–4
    /// ([`super::be`]), Guaranteed-Rate ones the reservation arm of §IV-D
    /// ([`super::gr`]).
    pub(super) fn submit_inner(
        &mut self,
        app: Arc<Application>,
        defer_solve: bool,
    ) -> Result<Admission, AssignError> {
        app.check_against_network(&self.sys.network)?;
        match app.qoe().clone() {
            QoeClass::BestEffort {
                priority,
                availability,
            } => self.submit_be(app, priority, availability, defer_solve),
            QoeClass::GuaranteedRate {
                min_rate,
                min_rate_availability,
            } => self.submit_gr(app, min_rate, min_rate_availability, defer_solve),
        }
    }

    /// Submits a whole batch of applications with **one** BE re-solve at
    /// the end instead of one per admission — the micro-batch admission
    /// the service plane coalesces arrivals into (the write-side dual of
    /// [`Self::displace_all`]).
    ///
    /// Decisions are bitwise identical to submitting the batch
    /// sequentially: admission control reads only the GR residual and
    /// the resident-priority tracker (never the incumbent BE
    /// `allocated_rate`s), so deferring the solve cannot change any
    /// reject/admit outcome, path set, reservation, or assigned id.
    /// Only the *final* BE rates are solved jointly (warm-started from
    /// the pre-batch incumbents) rather than through the chain of
    /// intermediate allocations — intermediates no caller can observe.
    /// A batch of one is bitwise identical to [`Self::submit`], rates
    /// included.
    ///
    /// If the batch-final solve fails, the whole batch is unwound and
    /// replayed through the sequential path, so per-application
    /// [`super::RejectReason::AllocationFailed`] attribution matches the
    /// sequential semantics exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for malformed inputs (bad pins); the
    /// whole batch is unwound — all-or-nothing, unlike feasibility
    /// rejections which are per-application [`Admission`] values.
    pub fn submit_all(&mut self, apps: &[Arc<Application>]) -> Result<Vec<Admission>, AssignError> {
        let batch = self.log.savepoint();
        let mut admissions = Vec::with_capacity(apps.len());
        let mut deferred = false;
        for app in apps {
            match self.submit_inner(Arc::clone(app), true) {
                Ok(admission) => {
                    deferred |= admission.is_admitted();
                    admissions.push(admission);
                }
                Err(e) => {
                    self.unwind_to(batch);
                    return Err(e);
                }
            }
        }
        if deferred && self.resolve().is_err() {
            // The joint solve failed where the sequential chain might
            // partially succeed: fall back to the sequential path for
            // exact per-application attribution.
            self.unwind_to(batch);
            admissions.clear();
            for app in apps {
                admissions.push(self.submit_inner(Arc::clone(app), false)?);
            }
        }
        Ok(admissions)
    }

    /// Figure 3, step 4 — and the epilogue of every other structural
    /// change (departure, reservation, reinstatement, fluctuation): logs
    /// the incumbent BE rates and row prices for exact undo, then
    /// re-solves problem (4) over the current membership and residual. A
    /// no-op without BE applications. Callers that batch (`defer_solve`,
    /// `solve: false`) skip the call and make it once at the end.
    pub(super) fn resolve(&mut self) -> Result<(), AllocError> {
        let state = &self.sys.state;
        if state.be_apps.is_empty() {
            return Ok(());
        }
        let rates = state.snapshot_rates();
        let duals = state.constraints.duals().to_vec();
        let solved = self.sys.solve_be_internal();
        self.log.push(UndoOp::RestoreRates { rates, duals });
        solved
    }

    /// Makes the transaction's changes permanent. Returns the entries
    /// displaced during the transaction (ownership leaves the log here,
    /// so displacement never clones a placement).
    pub fn commit(mut self) -> Vec<DisplacedApp> {
        let mut displaced = Vec::new();
        for op in self.log.ops.drain(..) {
            match op {
                UndoOp::InsertGr(_, entry) => displaced.push(DisplacedApp::Gr(entry)),
                UndoOp::InsertBe(_, entry, _) => displaced.push(DisplacedApp::Be(entry)),
                _ => {}
            }
        }
        self.sys.state.stats.txn_commits += 1;
        self.sys.debug_audit("commit");
        displaced
    }

    /// Undoes everything this transaction did, restoring the system
    /// bitwise to its state at [`SparcleSystem::begin`].
    pub fn rollback(mut self) {
        self.unwind_to(0);
        self.sys.state.stats.txn_rollbacks += 1;
        self.sys.debug_audit("rollback");
    }

    pub(super) fn unwind_to(&mut self, savepoint: usize) -> Vec<DisplacedApp> {
        let mut popped = Vec::new();
        let sys = &mut *self.sys;
        while self.log.ops.len() > savepoint {
            let op = self.log.ops.pop().expect("length checked");
            if let Some(entry) = sys.state.apply_undo(op) {
                popped.push(entry);
            }
        }
        popped
    }

    pub(super) fn fresh_id(&mut self) -> AppId {
        self.log.push(UndoOp::RestoreNextId(self.sys.state.next_id));
        let id = AppId::new(self.sys.state.next_id);
        self.sys.state.next_id += 1;
        id
    }
}

impl Drop for SystemTxn<'_> {
    /// A transaction dropped without [`SystemTxn::commit`] rolls back —
    /// this is what makes what-if probes and error paths safe by
    /// construction.
    fn drop(&mut self) {
        if !self.log.ops.is_empty() {
            self.unwind_to(0);
            self.sys.state.stats.txn_rollbacks += 1;
            // A failed audit must not turn an unwinding panic into an
            // abort.
            if !std::thread::panicking() {
                self.sys.debug_audit("drop");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SystemState;
    use crate::system::fixtures::{simple_app, star_network};
    use sparcle_model::NcpId;

    #[test]
    fn probe_transaction_rolls_back_bitwise() {
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

        // Probe: what would a new BE submission get? Then roll back.
        let mut txn = sys.begin();
        let adm = txn
            .submit(simple_app(QoeClass::best_effort(2.0), 10.0, 50.0))
            .unwrap();
        assert!(adm.is_admitted());
        let probe_rate = txn.system().be_apps().last().unwrap().allocated_rate;
        assert!(probe_rate > 0.0);
        txn.rollback();

        assert_eq!(sys.gr_residual(), &residual, "residual restored bitwise");
        let after: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(rates, after, "rates restored bitwise");
        assert_eq!(sys.be_apps().len(), 1);
        assert_eq!(sys.be_apps()[0].id, be_id);
        // The probe's id was returned to the pool: the next admission
        // gets the id the probe briefly held.
        let next = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        assert_eq!(Some(next), adm.id());
        assert!(sys.state_stats().txn_rollbacks >= 1);
    }

    #[test]
    fn dropped_transaction_rolls_back() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let residual = sys.gr_residual().clone();
        let rates: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        {
            let mut txn = sys.begin();
            txn.submit(simple_app(QoeClass::best_effort(3.0), 10.0, 50.0))
                .unwrap();
            // Dropped without commit.
        }
        assert_eq!(sys.be_apps().len(), 1);
        assert_eq!(sys.gr_residual(), &residual);
        let after: Vec<f64> = sys.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(rates, after);
    }

    /// `SystemState::audit` names each piece of derived state it finds
    /// off its canonical fold: corrupt one residual element, one
    /// priority-load element and one constraint column in turn.
    #[test]
    fn audit_names_each_corrupted_piece_of_derived_state() {
        use sparcle_model::{LinkId, NetworkElement};
        let network = star_network(0.0);
        let mut sys = SparcleSystem::new(network.clone());
        for app in [
            simple_app(QoeClass::guaranteed_rate(2.0, 0.0), 10.0, 50.0),
            simple_app(QoeClass::best_effort(1.0), 10.0, 50.0),
            simple_app(QoeClass::best_effort(2.0), 20.0, 100.0),
        ] {
            assert!(sys.submit(app).unwrap().is_admitted());
        }
        let state = &mut sys.state;
        assert_eq!(state.audit(&network), Ok(()));
        let assert_names = |state: &SystemState, piece: &str, at: String| {
            let err = state.audit(&network).unwrap_err();
            assert!(err.contains(piece) && err.contains(&at), "{err}");
        };

        let link = LinkId::new(1);
        let canonical = state.gr_residual.link(link);
        state.gr_residual.set_link(link, canonical + 1.0);
        assert_names(state, "gr_residual", NetworkElement::Link(link).to_string());
        state.gr_residual.set_link(link, canonical);

        let hub = NetworkElement::Ncp(NcpId::new(0));
        let canonical = state.priority_loads.ncp(NcpId::new(0));
        state.priority_loads.set_element(hub, canonical + 1.0);
        assert_names(state, "priority_loads", hub.to_string());
        state.priority_loads.set_element(hub, canonical);

        // Column 1 carrying application 0's load.
        let own = state.be_apps[1].combined_load.clone();
        let other = state.be_apps[0].combined_load.clone();
        assert_ne!(own, other);
        state.constraints.remove_app(1);
        state.constraints.insert_app(1, &other);
        assert_names(state, "constraint column", "1".to_owned());
        state.constraints.remove_app(1);
        state.constraints.insert_app(1, &own);
        assert_eq!(state.audit(&network), Ok(()));
    }

    /// A small mixed workload for the batch-admission tests: BE apps of
    /// varying priority/size, a GR app, and an unplaceable BE app
    /// (rejected `NoPath` in both modes).
    fn batch_workload() -> Vec<Arc<Application>> {
        vec![
            Arc::new(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0)),
            Arc::new(simple_app(QoeClass::best_effort(2.0), 20.0, 100.0)),
            Arc::new(simple_app(QoeClass::guaranteed_rate(2.0, 0.0), 10.0, 50.0)),
            // No path clears `MIN_PATH_RATE` for this monster.
            Arc::new(simple_app(QoeClass::best_effort(1.0), 1e12, 50.0)),
            Arc::new(simple_app(QoeClass::best_effort(3.0), 15.0, 75.0)),
        ]
    }

    #[test]
    fn batched_submission_matches_sequential_decisions_with_one_solve() {
        let apps = batch_workload();

        let mut sequential = SparcleSystem::new(star_network(0.0));
        let seq_admissions: Vec<Admission> = apps
            .iter()
            .map(|app| sequential.submit(Arc::clone(app)).unwrap())
            .collect();

        let mut batched = SparcleSystem::new(star_network(0.0));
        let solves_before = batched.state_stats().solves;
        let mut txn = batched.begin();
        let batch_admissions = txn.submit_all(&apps).unwrap();
        txn.commit();
        let batch_solves = batched.state_stats().solves - solves_before;

        assert_eq!(batch_admissions, seq_admissions, "decisions bitwise equal");
        assert_eq!(batched.gr_residual(), sequential.gr_residual());
        assert_eq!(batched.app_ids(), sequential.app_ids());
        assert_eq!(batch_solves, 1, "one joint solve for the whole batch");
        assert!(
            sequential.state_stats().solves > 1,
            "sequential admission solves per BE/GR admission"
        );
        // The joint allocation solves the same problem (4) instance as
        // the last sequential solve; rates agree to solver tolerance.
        for (a, b) in batched.be_apps().iter().zip(sequential.be_apps()) {
            assert!(
                (a.allocated_rate - b.allocated_rate).abs() < 1e-6,
                "rates {} vs {}",
                a.allocated_rate,
                b.allocated_rate
            );
        }
    }

    #[test]
    fn failed_joint_solve_falls_back_to_sequential_replay() {
        // A GR app reserving its full path rate starves the BE apps'
        // shared elements, so the batch-final joint solve fails and the
        // batch must replay sequentially — making the whole outcome
        // (decisions AND rates) bitwise identical to sequential.
        let apps = vec![
            Arc::new(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0)),
            Arc::new(simple_app(QoeClass::best_effort(2.0), 20.0, 100.0)),
            Arc::new(simple_app(QoeClass::guaranteed_rate(1e6, 0.0), 10.0, 50.0)),
            Arc::new(simple_app(QoeClass::best_effort(3.0), 15.0, 75.0)),
        ];

        let mut sequential = SparcleSystem::new(star_network(0.0));
        let seq_admissions: Vec<Admission> = apps
            .iter()
            .map(|app| sequential.submit(Arc::clone(app)).unwrap())
            .collect();

        let mut batched = SparcleSystem::new(star_network(0.0));
        let mut txn = batched.begin();
        let batch_admissions = txn.submit_all(&apps).unwrap();
        txn.commit();

        assert_eq!(batch_admissions, seq_admissions, "decisions bitwise equal");
        assert_eq!(batched.gr_residual(), sequential.gr_residual());
        let seq_rates: Vec<f64> = sequential
            .be_apps()
            .iter()
            .map(|a| a.allocated_rate)
            .collect();
        let batch_rates: Vec<f64> = batched.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(batch_rates, seq_rates, "replayed rates bitwise equal");
    }

    #[test]
    fn batch_of_one_is_bitwise_identical_to_submit() {
        let app = Arc::new(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0));

        let mut sequential = SparcleSystem::new(star_network(0.0));
        sequential
            .submit(simple_app(QoeClass::best_effort(2.0), 20.0, 100.0))
            .unwrap();
        let mut batched = SparcleSystem::new(star_network(0.0));
        batched
            .submit(simple_app(QoeClass::best_effort(2.0), 20.0, 100.0))
            .unwrap();

        let seq = sequential.submit(Arc::clone(&app)).unwrap();
        let mut txn = batched.begin();
        let batch = txn.submit_all(std::slice::from_ref(&app)).unwrap();
        txn.commit();
        assert_eq!(batch, vec![seq]);
        let seq_rates: Vec<f64> = sequential
            .be_apps()
            .iter()
            .map(|a| a.allocated_rate)
            .collect();
        let batch_rates: Vec<f64> = batched.be_apps().iter().map(|a| a.allocated_rate).collect();
        assert_eq!(batch_rates, seq_rates, "rates bitwise equal");
        assert_eq!(
            batched.state_stats().solves,
            sequential.state_stats().solves
        );
    }

    /// Rolled-back probes restore the row prices with the rates — a
    /// migration (whose lift drops the rows only the probed application
    /// loaded), a submission and a capacity change — so the next solve
    /// is bitwise that of a system that never probed.
    #[test]
    fn rolled_back_probes_leave_the_next_solve_bitwise_unchanged() {
        let build = || {
            let mut sys = SparcleSystem::new(star_network(0.0));
            for (priority, cycles, bits) in
                [(1.0, 10.0, 50.0), (2.0, 40.0, 300.0), (3.0, 15.0, 75.0)]
            {
                let app = simple_app(QoeClass::best_effort(priority), cycles, bits);
                assert!(sys.submit(app).unwrap().is_admitted());
            }
            sys
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut probed, mut plain) = (build(), build());
        let ids: Vec<_> = probed.be_apps().iter().map(|a| a.id).collect();
        for id in ids {
            let mut txn = probed.begin();
            assert!(txn.migrate(id).is_some());
            txn.rollback();
        }
        let mut txn = probed.begin();
        let newcomer = simple_app(QoeClass::best_effort(4.0), 25.0, 200.0);
        assert!(txn.submit(newcomer).unwrap().is_admitted());
        txn.rollback();
        // Halve every element the first application loads: its rows
        // re-price.
        let loaded = probed.be_apps()[0].combined_load.loaded_elements();
        let mut shrunk = probed.state().current_capacities().clone();
        for &e in &loaded {
            shrunk.scale_element(e, 0.5);
        }
        let mut txn = probed.begin();
        txn.change_capacities(&shrunk, &loaded).unwrap();
        txn.rollback();

        let duals = |sys: &SparcleSystem| bits(sys.state.constraints.duals());
        assert_eq!(duals(&probed), duals(&plain), "prices restored");
        let next = simple_app(QoeClass::best_effort(2.0), 30.0, 120.0);
        probed.submit(next.clone()).unwrap();
        plain.submit(next).unwrap();
        let rates = |sys: &SparcleSystem| bits(&sys.state().snapshot_rates());
        assert_eq!(rates(&probed), rates(&plain), "the next solve");
        assert_eq!(duals(&probed), duals(&plain));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sys = SparcleSystem::new(star_network(0.0));
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let before = sys.snapshot();
        let solves = sys.state_stats().solves;
        let mut txn = sys.begin();
        let admissions = txn.submit_all(&[]).unwrap();
        txn.commit();
        assert!(admissions.is_empty());
        assert_eq!(sys.state_stats().solves, solves, "no solve for no work");
        assert_eq!(sys.snapshot(), before);
    }

    #[test]
    fn rolled_back_batch_restores_state_bitwise() {
        let mut sys = SparcleSystem::new(star_network(0.0));
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let before = sys.snapshot();
        let rates_before = sys.state().snapshot_rates();

        let mut txn = sys.begin();
        let admissions = txn.submit_all(&batch_workload()).unwrap();
        assert!(admissions.iter().any(Admission::is_admitted));
        txn.rollback();

        assert_eq!(sys.snapshot(), before, "rollback restores the view");
        assert_eq!(sys.state().snapshot_rates(), rates_before, "rates restored");
    }
}
