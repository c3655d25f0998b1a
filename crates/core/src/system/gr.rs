//! The Guaranteed-Rate arm of Figure 3 (§IV-D): find task assignment
//! paths one at a time on the GR-residual capacities, reserving each
//! path's rate (capped at `R_J`), until the min-rate availability of
//! eq. (7) meets the target — or reject, touching nothing.

use super::{
    extend_availability, Admission, PlacedGrApp, RejectReason, SystemTxn, MAX_PATHS_PER_APP,
    MIN_PATH_RATE,
};
use crate::engine::AssignedPath;
use crate::error::AssignError;
use crate::state::{gr_touched_elements, UndoOp};
use sparcle_alloc::availability::PathAvailability;
use sparcle_model::{Application, LoadMap};
use std::sync::Arc;

impl SystemTxn<'_> {
    /// §IV-D for a GR application: iterate paths until eq. (7) meets the
    /// target, reserving capacity; all-or-nothing (a rejection unwinds
    /// the trial reservations exactly).
    pub(super) fn submit_gr(
        &mut self,
        app: Arc<Application>,
        min_rate: f64,
        target: f64,
        defer_solve: bool,
    ) -> Result<Admission, AssignError> {
        let savepoint = self.log.savepoint();
        let (paths, achieved) = match self.collect_gr_paths(&app, min_rate, target) {
            Ok(found) => found,
            Err(e) => {
                self.unwind_to(savepoint);
                return Err(e);
            }
        };
        if achieved + 1e-12 < target {
            self.unwind_to(savepoint);
            return Ok(Admission::Rejected(RejectReason::QoeUnreachable {
                achieved,
                target,
            }));
        }
        let id = self.fresh_id();
        let entry = PlacedGrApp {
            id,
            app,
            paths,
            min_rate_availability: achieved,
            min_rate,
            touched: Vec::new(),
        };
        self.install_gr(entry, defer_solve);
        Ok(Admission::Admitted(id))
    }

    /// The GR path loop: reserve trial paths directly on the residual
    /// until the min-rate availability of eq. (7) reaches the target or
    /// paths run out.
    fn collect_gr_paths(
        &mut self,
        app: &Application,
        min_rate: f64,
        target: f64,
    ) -> Result<(Vec<(AssignedPath, f64)>, f64), AssignError> {
        let mut paths: Vec<(AssignedPath, f64)> = Vec::new();
        let mut analyzer = PathAvailability::new();
        let mut achieved = 0.0;
        for _ in 0..MAX_PATHS_PER_APP {
            let sys = &mut *self.sys;
            let path = match sys.assigner.assign_scratch_with_stats(
                &mut sys.engine_scratch,
                app,
                &sys.network,
                &sys.state.gr_residual,
            ) {
                Ok((p, s)) if p.rate > MIN_PATH_RATE && p.rate.is_finite() => {
                    sys.state.stats.add_assign(&s);
                    p
                }
                _ => break,
            };
            // Reserving more than R_J on one path buys no QoE.
            let reserved = path.rate.min(min_rate);
            self.reserve(&path.load, reserved);
            achieved =
                extend_availability(&mut analyzer, &self.sys.network, &path, reserved, |a| {
                    a.min_rate(min_rate)
                })?;
            paths.push((path, reserved));
            if achieved + 1e-12 >= target {
                break;
            }
        }
        Ok((paths, achieved))
    }

    /// Takes `rate` units of `load` off the GR residual, logging the
    /// touched elements so the raw subtraction can be undone exactly
    /// while the entry is not yet in `gr_apps`.
    pub(super) fn reserve(&mut self, load: &LoadMap, rate: f64) {
        let touched = load.loaded_elements();
        self.sys.state.gr_residual.subtract_load(load, rate);
        self.log.push(UndoOp::RecomputeResidual(touched));
    }

    /// Puts a GR entry whose reservations are already off the residual
    /// into the state; the reservations shrank what BE applications
    /// share, so their rates are re-solved (unless deferred to a batch
    /// epilogue). Fresh admission and exact readmission share it; both
    /// (re)derive the entry's touched elements from its paths here.
    pub(super) fn install_gr(&mut self, mut entry: PlacedGrApp, defer_solve: bool) {
        entry.touched = gr_touched_elements(&entry.paths);
        self.sys.state.gr_apps.push(entry);
        self.log.push(UndoOp::PopGr);
        if !defer_solve {
            let _ = self.resolve();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::system::fixtures::{simple_app, star_network};
    use crate::SparcleSystem;
    use sparcle_model::QoeClass;

    #[test]
    fn gr_app_reserves_capacity() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let adm = sys
            .submit(simple_app(QoeClass::guaranteed_rate(2.0, 0.9), 10.0, 50.0))
            .unwrap();
        assert!(adm.is_admitted());
        assert!((sys.total_gr_rate() - 2.0).abs() < 1e-9);
        let gr = &sys.gr_apps()[0];
        assert!(gr.min_rate_availability >= 0.9);
        // The hub lost 10 cycles/unit × 2 units/s = 20 CPU if the worker
        // stayed local, or a leaf did. Either way total capacity shrank.
        let full = sys.network().capacity_map();
        let mut shrank = false;
        for ncp in sys.network().ncp_ids() {
            if sys
                .gr_residual()
                .ncp(ncp)
                .amount(sparcle_model::ResourceKind::Cpu)
                < full.ncp(ncp).amount(sparcle_model::ResourceKind::Cpu) - 1e-9
            {
                shrank = true;
            }
        }
        assert!(shrank);
    }

    #[test]
    fn infeasible_gr_is_rejected_without_side_effects() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let before = sys.gr_residual().clone();
        let adm = sys
            .submit(simple_app(QoeClass::guaranteed_rate(1e9, 0.9), 10.0, 50.0))
            .unwrap();
        assert!(!adm.is_admitted());
        assert_eq!(sys.gr_apps().len(), 0);
        assert_eq!(sys.gr_residual(), &before);
    }

    #[test]
    fn gr_then_be_shares_residual() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::guaranteed_rate(3.0, 0.5), 10.0, 50.0))
            .unwrap();
        let adm = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        assert!(adm.is_admitted());
        let be_rate = sys.be_apps()[0].allocated_rate;
        assert!(be_rate > 0.0);
        // A lone BE app on the untouched network would beat this.
        let mut fresh = SparcleSystem::new(star_network(0.0));
        fresh
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        assert!(fresh.be_apps()[0].allocated_rate >= be_rate - 1e-9);
    }
}
