//! The full SPARCLE system pipeline (Figure 3 of the paper).
//!
//! Applications arrive over time and are admitted or rejected:
//!
//! * **Guaranteed-Rate** applications reserve capacity outright. SPARCLE
//!   finds task assignment paths one at a time (Algorithm 2 on the
//!   GR-residual capacities), reserving each path's rate (capped at the
//!   requested `R_J`), until the min-rate availability of eq. (7) meets
//!   the target — or rejects the application, touching nothing.
//! * **Best-Effort** applications share what the GR applications leave.
//!   Arriving BE application `J` first *predicts* its share of each
//!   element via eq. (6) ([`sparcle_alloc::PriorityLoads`]), runs
//!   Algorithm 2 against the predicted capacities, adds paths until its
//!   availability target holds, and then the processing rates of *all*
//!   BE applications are re-computed by solving the weighted
//!   proportional-fair problem (4).
//!
//! Task placements are never migrated *implicitly* (the paper's
//! no-migration constraint): admission and rate re-allocation alone
//! never move a placed application. Planned moves are an explicit,
//! transactional operation — [`SystemTxn::migrate`] atomically releases
//! a placement and re-runs the admission pipeline inside one undo log,
//! so a rejected move is invisible and a committed one is a single
//! atomic placement change.
//!
//! ## Transactions
//!
//! All mutation flows through [`SystemTxn`] ([`SparcleSystem::begin`]):
//! each operation records undo steps into the transaction's log, and a
//! rollback (explicit, or implicit when the transaction is dropped)
//! replays them in reverse, restoring the state bitwise (see
//! [`crate::state`] for the invariant that makes this exact). The
//! convenience methods ([`SparcleSystem::submit`],
//! [`SparcleSystem::displace`], …) each open, run, and commit one
//! transaction. Rollback-only transactions are cheap what-if probes:
//! submit a displaced application, read the rate it would get, roll
//! back, and the system — including the id counter and every BE rate —
//! is exactly as before.

use crate::assignment::{assign_multipath_scratch_stats, DynamicRankingAssigner};
use crate::engine::AssignedPath;
use crate::engine::EngineScratch;
use crate::error::AssignError;
use crate::state::{gr_touched_elements, StateStats, SystemState, TxnLog, UndoOp};
use sparcle_alloc::availability::PathAvailability;
use sparcle_alloc::maxmin::max_min_allocation;
use sparcle_alloc::num::ProportionalFairSolver;
use sparcle_model::{AppId, Application, CapacityMap, LoadMap, Network, QoeClass};
use std::sync::Arc;

/// How Best-Effort rates are shared (§IV-C; the paper uses weighted
/// proportional fairness, problem (4)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Weighted proportional fairness — the paper's objective
    /// `max Σ P_i log x_i`.
    #[default]
    ProportionalFair,
    /// Weighted max-min fairness (progressive filling): protects the
    /// weakest application absolutely.
    MaxMin,
}

/// Maximum task assignment paths per application (the paper keeps this
/// small; path extraction has diminishing returns).
const MAX_PATHS_PER_APP: usize = 8;

/// Paths with a rate at or below this threshold are not used.
pub const MIN_PATH_RATE: f64 = 1e-9;

/// Tunables of the system pipeline.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// How Best-Effort rates are shared.
    pub allocation_policy: AllocationPolicy,
    /// Worker threads of the γ evaluator
    /// ([`DynamicRankingAssigner::with_threads`]); results are
    /// bit-identical for every thread count.
    pub assigner_threads: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            allocation_policy: AllocationPolicy::ProportionalFair,
            assigner_threads: 1,
        }
    }
}

/// An application lifted out of the system by [`SparcleSystem::displace`]
/// with its placement intact, ready for [`SparcleSystem::readmit`] (which
/// reinstates the exact placement if it still fits) or for a fresh
/// [`SparcleSystem::submit`] of [`DisplacedApp::application_arc`] (which
/// re-runs the full pipeline).
#[derive(Debug, Clone)]
pub enum DisplacedApp {
    /// A displaced Guaranteed-Rate application.
    Gr(PlacedGrApp),
    /// A displaced Best-Effort application.
    Be(PlacedBeApp),
}

impl DisplacedApp {
    /// The id the application held (preserved by
    /// [`SparcleSystem::readmit`]).
    pub fn id(&self) -> AppId {
        match self {
            DisplacedApp::Gr(a) => a.id,
            DisplacedApp::Be(a) => a.id,
        }
    }

    /// The application as originally submitted.
    pub fn application(&self) -> &Application {
        match self {
            DisplacedApp::Gr(a) => &a.app,
            DisplacedApp::Be(a) => &a.app,
        }
    }

    /// The application as originally submitted, as a cheap shared
    /// handle — resubmitting via this avoids cloning the task graph.
    pub fn application_arc(&self) -> Arc<Application> {
        match self {
            DisplacedApp::Gr(a) => a.app.clone(),
            DisplacedApp::Be(a) => a.app.clone(),
        }
    }

    /// `true` for a Guaranteed-Rate application.
    pub fn is_gr(&self) -> bool {
        matches!(self, DisplacedApp::Gr(_))
    }

    /// The rate the application carried when displaced (GR: the
    /// guaranteed rate; BE: the last allocated rate). Reconcile policies
    /// use this as the γ-impact ordering key.
    pub fn displaced_rate(&self) -> f64 {
        match self {
            DisplacedApp::Gr(a) => a.guaranteed_rate(),
            DisplacedApp::Be(a) => a.allocated_rate,
        }
    }

    /// The scheduling weight (GR applications outrank every BE one;
    /// among BE, the proportional-fair priority decides).
    pub fn priority_rank(&self) -> f64 {
        match self {
            DisplacedApp::Gr(_) => f64::INFINITY,
            DisplacedApp::Be(a) => a.priority,
        }
    }
}

/// The result of one planned migration ([`SystemTxn::migrate`]): the
/// application was atomically lifted and the admission pipeline re-run
/// on the freed capacities inside the same undo log.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationOutcome {
    /// The id the application held before the move.
    pub old_id: AppId,
    /// Rate before the move (guaranteed rate for GR, allocated rate for
    /// BE).
    pub old_rate: f64,
    /// The fresh admission: `Admitted(new_id)` when the move landed,
    /// `Rejected(..)` when the move was unwound and the old placement
    /// kept.
    pub admission: Admission,
}

impl MigrationOutcome {
    /// `true` when the application now sits on its new placement.
    pub fn moved(&self) -> bool {
        self.admission.is_admitted()
    }

    /// The id under the new placement (`None` when the move was
    /// rejected and the old placement — and id — kept).
    pub fn new_id(&self) -> Option<AppId> {
        self.admission.id()
    }
}

/// A Best-Effort application admitted into the system.
#[derive(Debug, Clone)]
pub struct PlacedBeApp {
    /// System-assigned identifier.
    pub id: AppId,
    /// The application as submitted (shared — placements referencing
    /// the same submission clone only the handle).
    pub app: Arc<Application>,
    /// Its task assignment paths (at least one).
    pub paths: Vec<AssignedPath>,
    /// Per-unit-rate load: `Σ_p f_p · load_p` with `f_p` the fraction of
    /// the application's rate carried by path `p` (proportional to the
    /// paths' standalone rates).
    pub combined_load: LoadMap,
    /// Priority `P_J`.
    pub priority: f64,
    /// Achieved availability (`None` if no target was requested).
    pub availability: Option<f64>,
    /// Rate allocated by the most recent solve of problem (4).
    pub allocated_rate: f64,
}

/// A Guaranteed-Rate application admitted into the system.
#[derive(Debug, Clone)]
pub struct PlacedGrApp {
    /// System-assigned identifier.
    pub id: AppId,
    /// The application as submitted (shared).
    pub app: Arc<Application>,
    /// Its task assignment paths with the rate reserved on each.
    pub paths: Vec<(AssignedPath, f64)>,
    /// Achieved min-rate availability (eq. (7)).
    pub min_rate_availability: f64,
    /// The requested minimum rate `R_J`.
    pub min_rate: f64,
}

impl PlacedGrApp {
    /// Total capacity-rate reserved across this application's paths —
    /// redundant failover paths each reserve up to the requested rate,
    /// so this can exceed [`Self::guaranteed_rate`].
    pub fn reserved_rate(&self) -> f64 {
        self.paths.iter().map(|(_, r)| r).sum()
    }

    /// The rate this application is guaranteed (`R_J`).
    pub fn guaranteed_rate(&self) -> f64 {
        self.min_rate
    }
}

/// Why an application was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// No task assignment path could be found at all.
    NoPath(&'static str),
    /// The requested (min-rate) availability could not be reached with
    /// the configured maximum number of paths.
    QoeUnreachable {
        /// Best availability achieved.
        achieved: f64,
        /// The requested target.
        target: f64,
    },
    /// The proportional-fair allocation failed (e.g. a path was left
    /// with zero capacity).
    AllocationFailed(String),
    /// A [`SparcleSystem::readmit`] found that the preserved placement
    /// no longer fits the current capacities.
    PlacementUnfit {
        /// Index of the first path that no longer fits.
        path: usize,
    },
    /// The fresh admission of a [`SystemTxn::migrate`] failed outright
    /// — the path it found is one the pipeline cannot analyse (e.g. it
    /// crosses more elements than the availability analyser accepts).
    SubmitError(AssignError),
}

/// The outcome of submitting an application.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Admitted with the given id.
    Admitted(AppId),
    /// Rejected; the system state is unchanged.
    Rejected(RejectReason),
}

impl Admission {
    /// The admitted id, if any.
    pub fn id(&self) -> Option<AppId> {
        match self {
            Admission::Admitted(id) => Some(*id),
            Admission::Rejected(_) => None,
        }
    }

    /// `true` if the application was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted(_))
    }
}

/// The SPARCLE scheduling system: admission control, task assignment, and
/// resource allocation over one dispersed computing network.
///
/// # Examples
///
/// ```
/// use sparcle_core::{SparcleSystem};
/// use sparcle_model::{
///     Application, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nb = NetworkBuilder::new();
/// let a = nb.add_ncp("a", ResourceVec::cpu(100.0));
/// let b = nb.add_ncp("b", ResourceVec::cpu(100.0));
/// nb.add_link("ab", a, b, 1000.0)?;
/// let network = nb.build()?;
///
/// let mut tb = TaskGraphBuilder::new();
/// let s = tb.add_ct("s", ResourceVec::new());
/// let w = tb.add_ct("w", ResourceVec::cpu(10.0));
/// let t = tb.add_ct("t", ResourceVec::new());
/// tb.add_tt("sw", s, w, 50.0)?;
/// tb.add_tt("wt", w, t, 5.0)?;
/// let app = Application::new(tb.build()?, QoeClass::best_effort(1.0), [(s, a), (t, b)])?;
///
/// let mut system = SparcleSystem::new(network);
/// let admission = system.submit(app)?;
/// assert!(admission.is_admitted());
/// assert!(system.be_apps()[0].allocated_rate > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SparcleSystem {
    network: Network,
    config: SystemConfig,
    assigner: DynamicRankingAssigner,
    state: SystemState,
    /// Hoisted placement-engine buffers, reused by every assignment the
    /// system runs (admissions, reconcile probes, migration probes) so
    /// probe loops stay off the allocator for content-independent
    /// scratch. Carries no placement state — rollback never touches it.
    engine_scratch: EngineScratch,
}

impl SparcleSystem {
    /// Creates a system over `network` with default configuration.
    pub fn new(network: Network) -> Self {
        Self::with_config(network, SystemConfig::default())
    }

    /// Creates a system with explicit configuration.
    pub fn with_config(network: Network, config: SystemConfig) -> Self {
        let assigner = DynamicRankingAssigner::with_threads(config.assigner_threads);
        let state = SystemState::new(&network);
        SparcleSystem {
            network,
            config,
            assigner,
            state,
            engine_scratch: EngineScratch::default(),
        }
    }

    /// The network the system schedules onto.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The full mutable state (admitted apps, capacities, residuals) as
    /// a read-only view.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Work counters of the state core: solves (warm/cold split),
    /// residual recomputations, transaction commits and rollbacks.
    pub fn state_stats(&self) -> &StateStats {
        self.state.stats()
    }

    /// Capacities remaining after GR reservations (shared by BE apps).
    pub fn gr_residual(&self) -> &CapacityMap {
        self.state.gr_residual()
    }

    /// Admitted Best-Effort applications.
    pub fn be_apps(&self) -> &[PlacedBeApp] {
        self.state.be_apps()
    }

    /// Admitted Guaranteed-Rate applications.
    pub fn gr_apps(&self) -> &[PlacedGrApp] {
        self.state.gr_apps()
    }

    /// Total *guaranteed* rate of all admitted GR applications (the
    /// Figure 14 metric). Capacity reserved for failover paths is larger;
    /// see [`PlacedGrApp::reserved_rate`].
    pub fn total_gr_rate(&self) -> f64 {
        self.state
            .gr_apps()
            .iter()
            .map(PlacedGrApp::guaranteed_rate)
            .sum()
    }

    /// The BE objective `Σ P_J log x_J` at the current allocation.
    pub fn be_utility(&self) -> f64 {
        self.state
            .be_apps()
            .iter()
            .map(|a| a.priority * a.allocated_rate.ln())
            .sum()
    }

    /// Opens a transaction. Mutations made through the returned handle
    /// become permanent on [`SystemTxn::commit`]; [`SystemTxn::rollback`]
    /// (or dropping the handle) restores the state bitwise.
    pub fn begin(&mut self) -> SystemTxn<'_> {
        SystemTxn {
            sys: self,
            log: TxnLog::default(),
        }
    }

    /// Submits an application; dispatches on its QoE class. Accepts an
    /// owned [`Application`] or a shared `Arc<Application>`.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] for malformed inputs (bad pins) and for a
    /// found path the pipeline cannot analyse (one past the availability
    /// analyser's element limit); a *feasibility* failure is an
    /// [`Admission::Rejected`], not an error.
    pub fn submit(&mut self, app: impl Into<Arc<Application>>) -> Result<Admission, AssignError> {
        let mut txn = self.begin();
        let admission = txn.submit(app)?;
        txn.commit();
        Ok(admission)
    }

    /// Submits a batch of applications in one transaction with a single
    /// BE re-solve at the end (see [`SystemTxn::submit_all`]): decisions
    /// are bitwise identical to sequential submission, at one solve per
    /// batch instead of one per admission. An error unwinds the whole
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] only for malformed inputs (bad pins);
    /// feasibility failures are per-application [`Admission::Rejected`]
    /// entries.
    pub fn submit_batch(
        &mut self,
        apps: &[Arc<Application>],
    ) -> Result<Vec<Admission>, AssignError> {
        let mut txn = self.begin();
        let admissions = txn.submit_all(apps)?;
        txn.commit();
        Ok(admissions)
    }

    /// Removes an admitted application (departure). GR departures
    /// release their reserved capacity; BE departures trigger a
    /// re-allocation of the remaining BE applications. Returns `false`
    /// when the id is unknown.
    pub fn remove(&mut self, id: AppId) -> bool {
        self.displace(id).is_some()
    }

    /// Removes an admitted application like [`SparcleSystem::remove`],
    /// but hands back the full placed entry so the caller can later
    /// [`SparcleSystem::readmit`] it (exact placement) or resubmit
    /// [`DisplacedApp::application_arc`] from scratch. Returns `None`
    /// for an unknown id.
    ///
    /// This is the churn runtime's displacement primitive: when a
    /// network element fails, every application whose paths cross it is
    /// displaced, queued, and re-placed by the reconcile policy.
    pub fn displace(&mut self, id: AppId) -> Option<DisplacedApp> {
        let mut txn = self.begin();
        if !txn.displace(id) {
            return None;
        }
        txn.commit().into_iter().next()
    }

    /// Displaces every listed application in one transaction with a
    /// single BE re-solve at the end, returning the placed entries in
    /// `ids` order. A failure's whole blast radius should leave through
    /// this: per-removal intermediate allocations are never observable,
    /// so computing them is pure waste.
    ///
    /// # Panics
    ///
    /// Panics if any id is not admitted.
    pub fn displace_batch(&mut self, ids: &[AppId]) -> Vec<DisplacedApp> {
        let mut txn = self.begin();
        txn.displace_all(ids);
        txn.commit()
    }

    /// Reinstates a displaced application with its *original* placement
    /// and id, without re-running task assignment.
    ///
    /// * **GR**: every path's reservation must still fit the current
    ///   GR-residual capacities (checked sequentially, all-or-nothing);
    ///   on success the reservations are re-subtracted exactly as
    ///   admission did, so capacity accounting round-trips bit-for-bit.
    /// * **BE**: the placement is reinstalled and problem (4) re-solved;
    ///   a solver failure rolls back and rejects.
    ///
    /// This is the cheap path after a transient failure: if the element
    /// recovered, the old placement is still optimal-enough and costs no
    /// γ evaluation. A rejection leaves the system untouched — fall back
    /// to `submit(displaced.application_arc())` for a fresh search (or
    /// use [`SparcleSystem::try_readmit`] to get the entry back without
    /// cloning it up front).
    ///
    /// # Panics
    ///
    /// Panics if the displaced id is still admitted (double readmit).
    pub fn readmit(&mut self, displaced: DisplacedApp) -> Admission {
        match self.try_readmit(displaced) {
            Ok(id) => Admission::Admitted(id),
            Err((_, reason)) => Admission::Rejected(reason),
        }
    }

    /// Like [`SparcleSystem::readmit`], but a rejection returns the
    /// displaced entry (with its pre-displacement rate intact) along
    /// with the reason, so callers keep ownership without cloning.
    ///
    /// # Panics
    ///
    /// Panics if the displaced id is still admitted (double readmit).
    // The wide Err is the point: it hands the entry back without a clone.
    #[allow(clippy::result_large_err)]
    pub fn try_readmit(
        &mut self,
        displaced: DisplacedApp,
    ) -> Result<AppId, (DisplacedApp, RejectReason)> {
        let id = displaced.id();
        assert!(
            !self.contains(id),
            "readmit of an id that is still admitted: {id:?}"
        );
        let mut txn = self.begin();
        match txn.readmit_inner(displaced) {
            Ok(id) => {
                txn.commit();
                Ok(id)
            }
            Err(out) => {
                // The log is already unwound; dropping the empty
                // transaction is free.
                drop(txn);
                Err(out)
            }
        }
    }

    /// Ids of all admitted applications (GR first, then BE, each in
    /// admission order).
    pub fn app_ids(&self) -> Vec<AppId> {
        self.state
            .gr_apps()
            .iter()
            .map(|a| a.id)
            .chain(self.state.be_apps().iter().map(|a| a.id))
            .collect()
    }

    /// `true` when `id` is currently admitted.
    pub fn contains(&self, id: AppId) -> bool {
        self.state.gr_apps().iter().any(|a| a.id == id)
            || self.state.be_apps().iter().any(|a| a.id == id)
    }

    /// Ids of admitted applications with at least one task assignment
    /// path crossing `element` (GR first, then BE, each in admission
    /// order) — the blast radius of an element failure.
    pub fn apps_using_element(&self, element: sparcle_model::NetworkElement) -> Vec<AppId> {
        let uses = |placement: &sparcle_model::Placement| {
            placement.elements_used(&self.network).contains(&element)
        };
        let gr = self
            .state
            .gr_apps()
            .iter()
            .filter(|a| a.paths.iter().any(|(p, _)| uses(&p.placement)))
            .map(|a| a.id);
        let be = self
            .state
            .be_apps()
            .iter()
            .filter(|a| a.paths.iter().any(|p| uses(&p.placement)))
            .map(|a| a.id);
        gr.chain(be).collect()
    }

    /// Reacts to a computing-network capacity fluctuation (the paper's
    /// stated future-work direction): replaces the base capacities with
    /// `new_capacities` (same shape as the network), re-derives the
    /// GR-residual by subtracting the existing GR reservations, and
    /// re-solves the BE allocation. Placements are *not* migrated — only
    /// rates adapt, consistent with the no-migration constraint.
    ///
    /// Returns the ids of GR applications whose reservations no longer
    /// fit the new capacities (sorted by id, deduplicated); their
    /// guarantee is violated until capacity recovers or the caller
    /// removes and resubmits them.
    ///
    /// # Panics
    ///
    /// Panics if `new_capacities` does not match the network shape or
    /// contains negative / non-finite entries.
    pub fn apply_capacity_fluctuation(&mut self, new_capacities: CapacityMap) -> Vec<AppId> {
        assert_eq!(
            new_capacities.ncp_count(),
            self.network.ncp_count(),
            "capacity map must match the network"
        );
        assert_eq!(
            new_capacities.link_count(),
            self.network.link_count(),
            "capacity map must match the network"
        );
        assert!(
            new_capacities.is_finite_non_negative(),
            "capacities must be finite and non-negative"
        );
        let mut txn = self.begin();
        let violated = txn.apply_fluctuation(new_capacities);
        txn.commit();
        violated
    }

    /// Migrates an admitted application to a fresh placement in one
    /// transaction (see [`SystemTxn::migrate`]): commits when the move
    /// lands, rolls back — leaving the old placement bitwise intact —
    /// when the fresh admission fails. Returns `None` for an unknown id.
    ///
    /// This is also the escape hatch for capacity fluctuation: when
    /// [`Self::apply_capacity_fluctuation`] flags a GR application,
    /// `migrate` finds it new paths that fit the shrunken network (or
    /// proves none exist). It deliberately breaks the paper's
    /// no-migration rule, so it is never invoked implicitly.
    pub fn migrate(&mut self, id: AppId) -> Option<MigrationOutcome> {
        let mut txn = self.begin();
        let outcome = txn.migrate(id)?;
        if outcome.moved() {
            txn.commit();
        } else {
            txn.rollback();
        }
        Some(outcome)
    }

    /// The canonical-state invariant ([`SystemState::audit`]) as a debug
    /// assertion at a transaction boundary.
    fn debug_audit(&self, boundary: &str) {
        debug_assert_eq!(
            self.state.audit(&self.network),
            Ok(()),
            "derived state left canonical form at txn {boundary}"
        );
    }

    /// Solves problem (4) over all admitted BE applications against the
    /// GR-residual capacities and stores each `allocated_rate`: refresh
    /// the incrementally-maintained constraint system to the live
    /// residual and run the solver warm-started from the incumbent
    /// rates. The solver demotes itself to a bitwise-cold start when no
    /// incumbent rate is usable (first admission, lone readmit).
    fn solve_be_internal(&mut self) -> Result<(), sparcle_alloc::AllocError> {
        if self.state.be_apps().is_empty() {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        let state = &mut self.state;
        let priorities: Vec<f64> = state.be_apps.iter().map(|a| a.priority).collect();
        state.constraints.refresh_capacities(&state.gr_residual);
        let system = state.constraints.system();
        let (rates, solve_stats) = match self.config.allocation_policy {
            AllocationPolicy::ProportionalFair => {
                let previous: Vec<f64> = state.be_apps.iter().map(|a| a.allocated_rate).collect();
                let (allocation, stats) = ProportionalFairSolver::new().solve_warm_with_stats(
                    system,
                    &priorities,
                    &previous,
                )?;
                (allocation.rates, Some(stats))
            }
            AllocationPolicy::MaxMin => (max_min_allocation(system, &priorities)?.rates, None),
        };
        state.stats.solves += 1;
        match solve_stats {
            Some(s) if s.warm_started => {
                state.stats.warm_solves += 1;
                state.stats.inner_iters_warm += s.inner_iters as u64;
            }
            Some(s) => {
                state.stats.cold_solves += 1;
                state.stats.inner_iters_cold += s.inner_iters as u64;
            }
            None => {}
        }
        state.stats.solve_nanos += t0.elapsed().as_nanos() as u64;
        for (entry, rate) in state.be_apps.iter_mut().zip(rates) {
            entry.allocated_rate = rate;
        }
        Ok(())
    }
}

/// An open transaction over a [`SparcleSystem`].
///
/// Every mutating operation appends undo records; [`Self::commit`] makes
/// the changes permanent, while [`Self::rollback`] — or dropping the
/// handle — replays the records in reverse, restoring the pre-transaction
/// state bitwise (BE rates, residuals, priority loads, constraint
/// matrix, and the id counter included).
#[derive(Debug)]
pub struct SystemTxn<'a> {
    sys: &'a mut SparcleSystem,
    log: TxnLog,
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

    fn submit_inner(
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
    /// [`RejectReason::AllocationFailed`] attribution matches the
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
        if deferred && !self.sys.state.be_apps.is_empty() {
            self.log
                .push(UndoOp::RestoreRates(self.sys.state.snapshot_rates()));
            if self.sys.solve_be_internal().is_err() {
                // The joint solve failed where the sequential chain
                // might partially succeed: fall back to the sequential
                // path for exact per-application attribution.
                self.unwind_to(batch);
                admissions.clear();
                for app in apps {
                    admissions.push(self.submit_inner(Arc::clone(app), false)?);
                }
            }
        }
        Ok(admissions)
    }

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
        let mut removed = 0;
        for &id in ids {
            assert!(
                self.displace_inner(id, false),
                "batch displace of unknown id {id:?}"
            );
            removed += 1;
        }
        if removed > 0 && !self.sys.state.be_apps.is_empty() {
            self.log
                .push(UndoOp::RestoreRates(self.sys.state.snapshot_rates()));
            let _ = self.sys.solve_be_internal();
        }
        removed
    }

    fn displace_inner(&mut self, id: AppId, solve: bool) -> bool {
        let sys = &mut *self.sys;
        if let Some(pos) = sys.state.gr_apps.iter().position(|a| a.id == id) {
            let entry = sys.state.gr_apps.remove(pos);
            let touched = gr_touched_elements(&entry);
            sys.state.refresh_residual(&touched);
            self.log.push(UndoOp::InsertGr(pos, entry));
            if solve && !sys.state.be_apps.is_empty() {
                self.log
                    .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
                let _ = sys.solve_be_internal();
            }
            return true;
        }
        if let Some(pos) = sys.state.be_apps.iter().position(|a| a.id == id) {
            let entry = sys.state.be_apps.remove(pos);
            sys.state.constraints.remove_app(pos);
            let touched = entry.combined_load.loaded_elements();
            sys.state.refresh_priorities(&touched);
            self.log.push(UndoOp::InsertBe(pos, entry));
            if solve {
                self.log
                    .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
                let _ = sys.solve_be_internal();
            }
            return true;
        }
        false
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
        let (app, old_rate) = {
            let state = &self.sys.state;
            if let Some(a) = state.gr_apps.iter().find(|a| a.id == id) {
                (a.app.clone(), a.guaranteed_rate())
            } else if let Some(a) = state.be_apps.iter().find(|a| a.id == id) {
                (a.app.clone(), a.allocated_rate)
            } else {
                return None;
            }
        };
        let savepoint = self.log.savepoint();
        // Lift without the intermediate BE solve: the submission half
        // solves once over the final membership.
        assert!(
            self.displace_inner(id, false),
            "id was found in the state above"
        );
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

    /// Makes the transaction's changes permanent. Returns the entries
    /// displaced during the transaction (ownership leaves the log here,
    /// so displacement never clones a placement).
    pub fn commit(mut self) -> Vec<DisplacedApp> {
        let mut displaced = Vec::new();
        for op in self.log.ops.drain(..) {
            match op {
                UndoOp::InsertGr(_, entry) => displaced.push(DisplacedApp::Gr(entry)),
                UndoOp::InsertBe(_, entry) => displaced.push(DisplacedApp::Be(entry)),
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

    fn unwind_to(&mut self, savepoint: usize) -> Vec<DisplacedApp> {
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

    fn fresh_id(&mut self) -> AppId {
        self.log.push(UndoOp::RestoreNextId(self.sys.state.next_id));
        let id = AppId::new(self.sys.state.next_id);
        self.sys.state.next_id += 1;
        id
    }

    /// Figure 3, steps 1–4 for a BE application. With `defer_solve` the
    /// final re-solve (step 4) is left to the caller's batch epilogue —
    /// sound because nothing in steps 1–3 reads `allocated_rate`s (see
    /// [`Self::submit_all`]).
    fn submit_be(
        &mut self,
        app: Arc<Application>,
        priority: f64,
        availability_target: Option<f64>,
        defer_solve: bool,
    ) -> Result<Admission, AssignError> {
        let sys = &mut *self.sys;
        // Step 1: predict available resources via eq. (6).
        let predicted = sys
            .state
            .priority_loads
            .predict(&sys.state.gr_residual, priority);

        // Steps 2–3: add paths until the availability target is met.
        // This phase only reads system state, so rejections here leave
        // nothing to unwind.
        let want_paths = if availability_target.is_some() {
            MAX_PATHS_PER_APP
        } else {
            1
        };
        // `assigner`/`network` (shared) and `engine_scratch` (mutable)
        // are disjoint fields, so the borrows coexist.
        let (all_paths, _, assign_stats) = assign_multipath_scratch_stats(
            &sys.assigner,
            &mut sys.engine_scratch,
            &app,
            &sys.network,
            &predicted,
            want_paths,
            MIN_PATH_RATE,
        );
        sys.state.stats.add_assign(&assign_stats);
        if all_paths.is_empty() {
            return Ok(Admission::Rejected(RejectReason::NoPath(
                "no task assignment path with positive rate",
            )));
        }
        // Keep the minimal prefix of paths satisfying the target.
        let mut paths: Vec<AssignedPath> = Vec::new();
        let mut achieved: Option<f64> = None;
        let mut analyzer = PathAvailability::new();
        for path in all_paths {
            analyzer
                .add_path(
                    &sys.network,
                    path.placement.elements_used(&sys.network),
                    path.rate,
                )
                .map_err(|e| AssignError::Model(availability_to_model_error(&e)))?;
            paths.push(path);
            let a = analyzer
                .any_working()
                .map_err(|e| AssignError::Model(availability_to_model_error(&e)))?;
            achieved = Some(a);
            match availability_target {
                Some(target) if a + 1e-12 < target => continue,
                _ => break,
            }
        }
        if let (Some(target), Some(a)) = (availability_target, achieved) {
            if a + 1e-12 < target {
                return Ok(Admission::Rejected(RejectReason::QoeUnreachable {
                    achieved: a,
                    target,
                }));
            }
        }

        // Combined per-unit-rate load, splitting rate across paths
        // proportionally to their standalone rates.
        let combined_load = combine_loads(&sys.network, &paths);

        let savepoint = self.log.savepoint();
        let id = self.fresh_id();
        let sys = &mut *self.sys;
        sys.state.priority_loads.add_app(&combined_load, priority);
        sys.state.constraints.push_app(&combined_load);
        sys.state.be_apps.push(PlacedBeApp {
            id,
            app,
            paths,
            combined_load,
            priority,
            availability: availability_target.and(achieved),
            allocated_rate: 0.0,
        });
        self.log.push(UndoOp::PopBe);
        if defer_solve {
            return Ok(Admission::Admitted(id));
        }
        self.log
            .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));

        // Step 4: re-solve (4) for all BE applications.
        match self.sys.solve_be_internal() {
            Ok(_) => Ok(Admission::Admitted(id)),
            Err(e) => {
                let message = e.to_string();
                self.unwind_to(savepoint);
                Ok(Admission::Rejected(RejectReason::AllocationFailed(message)))
            }
        }
    }

    /// §IV-D for a GR application: iterate paths until eq. (7) meets the
    /// target, reserving capacity; all-or-nothing (a rejection unwinds
    /// the trial reservations exactly).
    fn submit_gr(
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
        let sys = &mut *self.sys;
        sys.state.gr_apps.push(PlacedGrApp {
            id,
            app,
            paths,
            min_rate_availability: achieved,
            min_rate,
        });
        self.log.push(UndoOp::PopGr);
        // GR reservations shrink what BE apps share; re-solve their rates
        // (deferred to the batch epilogue under `defer_solve`).
        if !defer_solve && !sys.state.be_apps.is_empty() {
            self.log
                .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
            let _ = sys.solve_be_internal();
        }
        Ok(Admission::Admitted(id))
    }

    /// The GR path loop: reserve trial paths directly on the residual
    /// (each subtraction is logged for exact undo) until the min-rate
    /// availability of eq. (7) reaches the target or paths run out.
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
            let touched = path.load.loaded_elements();
            sys.state
                .gr_residual
                .subtract_load_sparse(&path.load, reserved);
            self.log.push(UndoOp::RecomputeResidual(touched));
            analyzer
                .add_path(
                    &sys.network,
                    path.placement.elements_used(&sys.network),
                    reserved,
                )
                .map_err(|e| AssignError::Model(availability_to_model_error(&e)))?;
            paths.push((path, reserved));
            achieved = analyzer
                .min_rate(min_rate)
                .map_err(|e| AssignError::Model(availability_to_model_error(&e)))?;
            if achieved + 1e-12 >= target {
                break;
            }
        }
        Ok((paths, achieved))
    }

    /// Reinstates a displaced entry (see [`SparcleSystem::try_readmit`]).
    #[allow(clippy::result_large_err)] // Err returns ownership, not a message
    fn readmit_inner(
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
                let mut unfit = None;
                for (i, (path, rate)) in entry.paths.iter().enumerate() {
                    let sys = &mut *self.sys;
                    if sys.state.gr_residual.bottleneck_rate(&path.load) + 1e-9 < *rate {
                        unfit = Some(i);
                        break;
                    }
                    let touched = path.load.loaded_elements();
                    sys.state
                        .gr_residual
                        .subtract_load_sparse(&path.load, *rate);
                    self.log.push(UndoOp::RecomputeResidual(touched));
                }
                if let Some(path) = unfit {
                    self.unwind_to(savepoint);
                    return Err((
                        DisplacedApp::Gr(entry),
                        RejectReason::PlacementUnfit { path },
                    ));
                }
                let sys = &mut *self.sys;
                sys.state.gr_apps.push(entry);
                self.log.push(UndoOp::PopGr);
                if !sys.state.be_apps.is_empty() {
                    self.log
                        .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
                    let _ = sys.solve_be_internal();
                }
                Ok(id)
            }
            DisplacedApp::Be(mut entry) => {
                let displaced_rate = entry.allocated_rate;
                entry.allocated_rate = 0.0;
                let sys = &mut *self.sys;
                sys.state
                    .priority_loads
                    .add_app(&entry.combined_load, entry.priority);
                sys.state.constraints.push_app(&entry.combined_load);
                sys.state.be_apps.push(entry);
                self.log.push(UndoOp::PopBe);
                self.log
                    .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
                match self.sys.solve_be_internal() {
                    Ok(_) => Ok(id),
                    Err(e) => {
                        let message = e.to_string();
                        let mut popped = self.unwind_to(savepoint);
                        let mut entry = match popped.pop() {
                            Some(DisplacedApp::Be(entry)) => entry,
                            other => {
                                unreachable!("undo log returns the pushed entry, got {other:?}")
                            }
                        };
                        // Keep the pre-displacement rate visible to the
                        // caller: reconcile policies order by it.
                        entry.allocated_rate = displaced_rate;
                        Err((
                            DisplacedApp::Be(entry),
                            RejectReason::AllocationFailed(message),
                        ))
                    }
                }
            }
        }
    }

    /// Replaces the base capacities (see
    /// [`SparcleSystem::apply_capacity_fluctuation`]). The residual
    /// rebuild below *is* the canonical fold, interleaved with the
    /// per-path fit checks that flag violated GR guarantees.
    fn apply_fluctuation(&mut self, new_capacities: CapacityMap) -> Vec<AppId> {
        let sys = &mut *self.sys;
        let old = std::mem::replace(&mut sys.state.current_capacities, new_capacities);
        self.log.push(UndoOp::RestoreCaps(old));
        let mut residual = sys.state.current_capacities.clone();
        let mut violated = Vec::new();
        for gr in &sys.state.gr_apps {
            for (path, rate) in &gr.paths {
                // Check fit before subtracting (subtraction clamps).
                if residual.bottleneck_rate(&path.load) + 1e-9 < *rate {
                    violated.push(gr.id);
                }
                residual.subtract_load(&path.load, *rate);
            }
        }
        violated.sort_unstable_by_key(|id| id.as_u32());
        violated.dedup();
        sys.state.gr_residual = residual;
        sys.state.stats.residual_full_recomputes += 1;
        if !sys.state.be_apps.is_empty() {
            self.log
                .push(UndoOp::RestoreRates(sys.state.snapshot_rates()));
            let _ = sys.solve_be_internal();
        }
        violated
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

fn availability_to_model_error(e: &sparcle_alloc::AvailabilityError) -> sparcle_model::ModelError {
    sparcle_model::ModelError::InvalidQuantity {
        what: "availability analysis",
        value: match e {
            sparcle_alloc::AvailabilityError::TooManyElements(n) => *n as f64,
            sparcle_alloc::AvailabilityError::TooManyPaths(n) => *n as f64,
            sparcle_alloc::AvailabilityError::BadProbability(p) => *p,
            _ => f64::NAN,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, ResourceVec, TaskGraphBuilder};

    fn star_network(failure: f64) -> Network {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(50.0));
        for i in 0..4 {
            let leaf = nb
                .add_ncp_with_failure(format!("leaf{i}"), ResourceVec::cpu(100.0), 0.0)
                .unwrap();
            nb.add_link_full(
                format!("l{i}"),
                hub,
                leaf,
                500.0,
                sparcle_model::LinkDirection::Undirected,
                failure,
            )
            .unwrap();
        }
        nb.build().unwrap()
    }

    fn simple_app(qoe: QoeClass, cycles: f64, bits: f64) -> Application {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(cycles));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, bits).unwrap();
        tb.add_tt("wt", w, t, bits / 10.0).unwrap();
        let graph = tb.build().unwrap();
        Application::new(graph, qoe, [(s, NcpId::new(0)), (t, NcpId::new(0))]).unwrap()
    }

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

    #[test]
    fn ids_are_unique_and_increasing() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let a = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let b = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        assert!(a.id().unwrap() < b.id().unwrap());
    }

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
        let shared_rate = sys.be_apps().iter().map(|x| x.allocated_rate).sum::<f64>();
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
        let violated = sys.apply_capacity_fluctuation(halved);
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
        let violated = sys.apply_capacity_fluctuation(tiny);
        assert_eq!(violated, vec![id]);
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
        let violated = sys.apply_capacity_fluctuation(caps);
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
        sys.apply_capacity_fluctuation(caps);
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
    /// the availability analyser refuses. That used to panic; it is a
    /// failed move, unwound like any other.
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
        let id = sys
            .submit(app(QoeClass::best_effort(1.0)))
            .unwrap()
            .id()
            .unwrap();
        sys.submit(app(QoeClass::best_effort(2.0))).unwrap();
        // Starve the direct link: both apps keep their placements over
        // it, but a fresh search goes the long way.
        let mut caps = sys.network().capacity_map();
        let direct = sys.network().link_ids().next().expect("ring0");
        caps.set_link(direct, 1e-3);
        sys.apply_capacity_fluctuation(caps);
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
        sys.apply_capacity_fluctuation(tiny);
        let before = sys.gr_residual().clone();
        let adm = sys.readmit(displaced);
        assert!(matches!(
            adm,
            Admission::Rejected(RejectReason::PlacementUnfit { .. })
        ));
        assert_eq!(sys.gr_residual(), &before, "rejection leaves no trace");
        assert!(!sys.contains(id));
    }

    #[test]
    fn apps_using_element_finds_the_blast_radius() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        let id = sys
            .submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap()
            .id()
            .unwrap();
        // The app's endpoints are pinned on the hub, so the hub is
        // always in the blast radius.
        let hub = sparcle_model::NetworkElement::Ncp(NcpId::new(0));
        assert_eq!(sys.apps_using_element(hub), vec![id]);
        // Union over all elements covers every app.
        let mut seen = std::collections::BTreeSet::new();
        for e in sys.network().elements().collect::<Vec<_>>() {
            seen.extend(sys.apps_using_element(e));
        }
        assert!(seen.contains(&id));
    }

    #[test]
    fn max_min_policy_is_selectable() {
        let net = star_network(0.0);
        let config = SystemConfig {
            allocation_policy: AllocationPolicy::MaxMin,
            ..SystemConfig::default()
        };
        let mut sys = SparcleSystem::with_config(net, config);
        sys.submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap();
        sys.submit(simple_app(QoeClass::best_effort(1.0), 100.0, 5000.0))
            .unwrap();
        for be in sys.be_apps() {
            assert!(be.allocated_rate > 0.0);
        }
        // Joint feasibility under the max-min rates.
        let mut demand = LoadMap::zeroed(sys.network());
        for be in sys.be_apps() {
            demand.merge_scaled(&be.combined_load, be.allocated_rate);
        }
        assert!(sys.gr_residual().bottleneck_rate(&demand) >= 1.0 - 1e-9);
    }

    #[test]
    fn be_utility_matches_definition() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(2.0), 10.0, 50.0))
            .unwrap();
        let expect = 2.0 * sys.be_apps()[0].allocated_rate.ln();
        assert!((sys.be_utility() - expect).abs() < 1e-12);
    }

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
        let batch_admissions = batched.submit_batch(&apps).unwrap();
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
        let batch_admissions = batched.submit_batch(&apps).unwrap();

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
        let batch = batched.submit_batch(std::slice::from_ref(&app)).unwrap();
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

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sys = SparcleSystem::new(star_network(0.0));
        sys.submit(simple_app(QoeClass::best_effort(1.0), 10.0, 50.0))
            .unwrap();
        let before = sys.snapshot();
        let solves = sys.state_stats().solves;
        let admissions = sys.submit_batch(&[]).unwrap();
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
