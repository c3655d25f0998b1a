//! The Best-Effort arm of Figure 3 (§IV-C): **predict** the arriving
//! application's share of every element (eq. (6)), **assign** its tasks
//! against the prediction (Algorithm 2), add paths until the
//! **availability** target holds (eq. (7)), then **allocate** — install
//! the placement and re-solve problem (4) for every BE application.

use super::{
    extend_availability, Admission, PlacedBeApp, RejectReason, SparcleSystem, SystemTxn,
    MAX_PATHS_PER_APP, MIN_PATH_RATE,
};
use crate::assignment::assign_multipath_scratch_stats;
use crate::engine::AssignedPath;
use crate::error::AssignError;
use crate::state::UndoOp;
use sparcle_alloc::availability::PathAvailability;
use sparcle_alloc::num;
use sparcle_alloc::AllocError;
use sparcle_model::{Application, LoadMap, Network};
use std::sync::Arc;

impl SystemTxn<'_> {
    /// Figure 3, steps 1–4 for a BE application. With `defer_solve` the
    /// final re-solve (step 4) is left to the caller's batch epilogue —
    /// sound because nothing in steps 1–3 reads `allocated_rate`s (see
    /// [`Self::submit_all`]).
    pub(super) fn submit_be(
        &mut self,
        app: Arc<Application>,
        priority: f64,
        availability_target: Option<f64>,
        defer_solve: bool,
    ) -> Result<Admission, AssignError> {
        let sys = &mut *self.sys;
        // Step 1: predict available resources via eq. (6), into the
        // system's buffer (refilled in place, no allocation once warm).
        sys.state
            .priority_loads
            .predict_into(&sys.state.gr_residual, priority, &mut sys.predicted);

        // Step 2: Algorithm 2 on the prediction — one path, or as many
        // as an availability target may need. Steps 2–3 only read system
        // state, so rejections here leave nothing to unwind.
        let want_paths = if availability_target.is_some() {
            MAX_PATHS_PER_APP
        } else {
            1
        };
        // `assigner`/`network`/`predicted` (shared) and `engine_scratch`
        // (mutable) are disjoint fields, so the borrows coexist. A
        // one-path search runs on `predicted` itself.
        let (mut paths, assign_stats) = assign_multipath_scratch_stats(
            &sys.assigner,
            &mut sys.engine_scratch,
            &app,
            &sys.network,
            &sys.predicted,
            want_paths,
            MIN_PATH_RATE,
        );
        sys.state.stats.add_assign(&assign_stats);
        if paths.is_empty() {
            return Ok(Admission::Rejected(RejectReason::NoPath(
                "no task assignment path with positive rate",
            )));
        }

        // Step 3: keep the minimal prefix of paths meeting the target.
        // An application that asks for no availability keeps its single
        // path unanalysed — the analysis has a size limit its result
        // would not be worth failing on.
        let mut achieved = None;
        if let Some(target) = availability_target {
            let mut analyzer = PathAvailability::new();
            let mut kept = 0;
            let mut a = 0.0;
            for path in &paths {
                a = extend_availability(
                    &mut analyzer,
                    &sys.network,
                    path,
                    path.rate,
                    PathAvailability::any_working,
                )?;
                kept += 1;
                if a + 1e-12 >= target {
                    break;
                }
            }
            if a + 1e-12 < target {
                return Ok(Admission::Rejected(RejectReason::QoeUnreachable {
                    achieved: a,
                    target,
                }));
            }
            paths.truncate(kept);
            achieved = Some(a);
        }

        // Step 4: install the placement — combined per-unit-rate load,
        // splitting rate across paths proportionally to their standalone
        // rates — and re-solve (4) for all BE applications.
        let combined_load = combine_loads(&sys.network, &paths);
        let savepoint = self.log.savepoint();
        let id = self.fresh_id();
        let entry = PlacedBeApp {
            id,
            app,
            paths,
            combined_load,
            priority,
            availability: achieved,
            allocated_rate: 0.0,
        };
        match self.install_be(entry, defer_solve) {
            Ok(()) => Ok(Admission::Admitted(id)),
            Err(e) => {
                self.unwind_to(savepoint);
                Ok(Admission::Rejected(RejectReason::AllocationFailed(
                    e.to_string(),
                )))
            }
        }
    }

    /// Puts a placed BE entry into the state — priority fold, constraint
    /// column, the entry itself — and, unless deferred, re-solves. Fresh
    /// admission and exact readmission share it; on `Err` the caller
    /// unwinds to its own savepoint (which also covers its id record).
    pub(super) fn install_be(
        &mut self,
        entry: PlacedBeApp,
        defer_solve: bool,
    ) -> Result<(), AllocError> {
        let state = &mut self.sys.state;
        state
            .priority_loads
            .add_app(&entry.combined_load, entry.priority);
        state.constraints.push_app(&entry.combined_load);
        state.be_apps.push(entry);
        self.log.push(UndoOp::PopBe);
        if defer_solve {
            return Ok(());
        }
        self.resolve()
    }
}

impl SparcleSystem {
    /// Solves problem (4) over all admitted BE applications (at least
    /// one — [`SystemTxn::resolve`] is the only caller) against the
    /// GR-residual capacities and stores each `allocated_rate` and each
    /// row's price: refresh the incrementally-maintained constraint
    /// system to the live residual and run the solver warm-started from
    /// the rows' last prices. The solve is cold when no row has a price
    /// (first admission, lone readmit).
    pub(super) fn solve_be_internal(&mut self) -> Result<(), AllocError> {
        let t0 = std::time::Instant::now();
        let state = &mut self.state;
        let solver = &mut state.solver;
        solver.set_priorities(state.be_apps.iter().map(|a| a.priority));
        state.constraints.refresh_capacities(&state.gr_residual);
        let constraints = &state.constraints;
        let s = num::solve_into(constraints.system(), Some(constraints.duals()), solver)?;
        state.constraints.set_duals(solver.duals());
        state.stats.solves += 1;
        if s.warm_started {
            state.stats.warm_solves += 1;
            state.stats.inner_iters_warm += s.inner_iters as u64;
        } else {
            state.stats.cold_solves += 1;
            state.stats.inner_iters_cold += s.inner_iters as u64;
        }
        state.stats.solve_nanos += t0.elapsed().as_nanos() as u64;
        for (entry, &rate) in state.be_apps.iter_mut().zip(solver.rates()) {
            entry.allocated_rate = rate;
        }
        Ok(())
    }
}

/// Merges per-path loads into one per-unit-rate load, weighting each path
/// by its share of the total standalone rate.
fn combine_loads(network: &Network, paths: &[AssignedPath]) -> LoadMap {
    let total: f64 = paths.iter().map(|p| p.rate).sum();
    let mut combined = LoadMap::zeroed(network);
    if total <= 0.0 {
        return combined;
    }
    for path in paths {
        combined.merge_scaled(&path.load, path.rate / total);
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::fixtures::{simple_app, star_network};
    use sparcle_alloc::{max_min_allocation, ConstraintSystem};
    use sparcle_model::{NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

    #[test]
    fn single_be_app_gets_its_bottleneck_rate() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let adm = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        assert!(adm.is_admitted());
        let app = &sys.be_apps()[0];
        assert_eq!(app.paths.len(), 1);
        assert!(
            (app.allocated_rate - app.paths[0].rate).abs() < 1e-4,
            "allocated {} vs path {}",
            app.allocated_rate,
            app.paths[0].rate
        );
    }

    #[test]
    fn two_equal_be_apps_share_fairly() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let r0 = sys.be_apps()[0].allocated_rate;
        let r1 = sys.be_apps()[1].allocated_rate;
        assert!(r0 > 0.0 && r1 > 0.0);
        // With symmetric apps the rates should be within a few percent.
        assert!((r0 - r1).abs() / r0.max(r1) < 0.25, "r0={r0} r1={r1}");
    }

    #[test]
    fn priority_2x_app_gets_more() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(2.0), 100.0, 5000.0))
            .unwrap();
        let r0 = sys.be_apps()[0].allocated_rate;
        let r1 = sys.be_apps()[1].allocated_rate;
        assert!(r1 > r0, "higher priority should earn more: {r0} vs {r1}");
    }

    #[test]
    fn be_availability_adds_paths() {
        let net = star_network(0.02);
        let mut sys = SparcleSystem::new(net);
        let qoe = QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.9),
        };
        // Heavy enough that the worker leaves the hub, making links (and
        // their 2% failure) part of the path.
        let adm = sys.submit(simple_app(qoe, 500.0, 10.0)).unwrap();
        assert!(adm.is_admitted(), "{adm:?}");
        let app = &sys.be_apps()[0];
        if let Some(a) = app.availability {
            assert!(a + 1e-12 >= 0.9, "availability {a}");
        }
    }

    #[test]
    fn unreachable_be_availability_rejects() {
        // Make every link extremely flaky; even max paths cannot reach
        // 0.99999 availability when the worker must leave the hub.
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(0.0));
        let leaf = nb
            .add_ncp_with_failure("leaf", ResourceVec::cpu(100.0), 0.5)
            .unwrap();
        nb.add_link_full(
            "l",
            hub,
            leaf,
            500.0,
            sparcle_model::LinkDirection::Undirected,
            0.5,
        )
        .unwrap();
        let net = nb.build().unwrap();
        let mut sys = SparcleSystem::new(net);
        let qoe = QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.99999),
        };
        let adm = sys.submit(simple_app(qoe, 500.0, 10.0)).unwrap();
        assert!(matches!(
            adm,
            Admission::Rejected(RejectReason::QoeUnreachable { .. })
        ));
        assert!(sys.be_apps().is_empty());
    }

    /// Regression: an application that asks for no availability used to
    /// run the availability analysis anyway and throw the result away —
    /// so a path past the analyser's 128 distinct elements failed a
    /// submit that never needed the analysis. On a 70-NCP line, end to
    /// end is 70 NCPs + 69 links = 139 elements.
    #[test]
    fn untargeted_be_app_skips_the_availability_analysis() {
        const LINE: u32 = 70;
        let mut nb = NetworkBuilder::new();
        for n in 0..LINE {
            nb.add_ncp(format!("n{n}"), ResourceVec::cpu(1000.0));
        }
        for n in 1..LINE {
            nb.add_link(format!("l{n}"), NcpId::new(n - 1), NcpId::new(n), 1e4)
                .unwrap();
        }
        let mut sys = SparcleSystem::new(nb.build().unwrap());
        let app = |qoe| {
            let mut tb = TaskGraphBuilder::new();
            let s = tb.add_ct("s", ResourceVec::new());
            let t = tb.add_ct("t", ResourceVec::cpu(10.0));
            tb.add_tt("st", s, t, 50.0).unwrap();
            let pins = [(s, NcpId::new(0)), (t, NcpId::new(LINE - 1))];
            Application::new(tb.build().unwrap(), qoe, pins).unwrap()
        };
        let too_long = |outcome: Result<Admission, AssignError>| {
            assert!(matches!(outcome, Err(AssignError::Model(_))), "{outcome:?}");
        };
        // Whoever asks for the analysis still gets its limit.
        too_long(sys.submit(app(QoeClass::BestEffort {
            priority: 1.0,
            availability: Some(0.5),
        })));
        too_long(sys.submit(app(QoeClass::guaranteed_rate(1.0, 0.5))));
        assert!(sys.app_ids().is_empty(), "errors leave nothing behind");

        let admission = sys.submit(app(QoeClass::best_effort(1.0))).unwrap();
        assert!(admission.is_admitted(), "{admission:?}");
        let placed = &sys.be_apps()[0];
        assert_eq!(placed.paths.len(), 1);
        assert_eq!(
            placed.paths[0].placement.elements_used(sys.network()).len(),
            139
        );
        assert_eq!(placed.availability, None);
        assert!(placed.allocated_rate > 0.0);
    }

    /// Max-min is an analysis over the live placements, not a mode: run
    /// on the constraint system the allocation solves, its rates fit
    /// jointly, and the system's own rates stay the proportional-fair
    /// solve's, bit for bit.
    #[test]
    fn max_min_over_live_placements_fits_beside_the_pf_rates() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(2.0), 100.0, 5000.0))
            .unwrap();
        let loads: Vec<&LoadMap> = sys.be_apps().iter().map(|be| &be.combined_load).collect();
        let priorities: Vec<f64> = sys.be_apps().iter().map(|be| be.priority).collect();
        let system = ConstraintSystem::from_loads(sys.network(), sys.gr_residual(), &loads);
        let max_min = max_min_allocation(&system, &priorities).unwrap();
        assert!(max_min.rates.iter().all(|&x| x > 0.0), "{max_min:?}");
        // Joint feasibility under the max-min rates.
        let mut demand = LoadMap::zeroed(sys.network());
        for (be, &rate) in sys.be_apps().iter().zip(&max_min.rates) {
            demand.merge_scaled(&be.combined_load, rate);
        }
        assert!(sys.gr_residual().bottleneck_rate(&demand) >= 1.0 - 1e-9);
        // The system's rates are problem (4)'s optimum, and its row
        // prices that optimum's fixed point: a solve from them takes no
        // step and returns the rates bit for bit.
        let rates: Vec<f64> = sys.be_apps().iter().map(|be| be.allocated_rate).collect();
        let (cold, _) = num::solve(&system, &priorities, None).unwrap();
        for (x, y) in rates.iter().zip(&cold.rates) {
            assert!((x - y).abs() <= 1e-9 * y, "{rates:?} vs {:?}", cold.rates);
        }
        // The fixture's optimum: [1/6, 1/3].
        for (x, y) in rates.iter().zip([1.0 / 6.0, 1.0 / 3.0]) {
            assert!((x - y).abs() <= 1e-12, "{rates:?}");
        }
        let prices = sys.state.constraints.duals();
        let (pf, stats) = num::solve(&system, &priorities, Some(prices)).unwrap();
        assert_eq!(stats.inner_iters, 0);
        assert_eq!(rates, pf.rates);
    }
}
