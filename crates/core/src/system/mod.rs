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

//!
//! ## Layout
//!
//! One file per part of the pipeline (DESIGN.md §10 maps every box of
//! Figure 3 to its function): `txn.rs` — the transaction, the BE/GR
//! fork, batch admission and the one shared re-solve; `be.rs` — predict
//! (eq. (6)) → assign (Algorithm 2) → availability (eq. (7)) → allocate
//! (problem (4)); `gr.rs` — path-by-path reservation (§IV-D);
//! `repair.rs` — displace, readmit, migrate, fluctuation; this file —
//! the system, its types and the one-transaction conveniences.

mod be;
mod gr;
mod repair;
mod txn;

pub use txn::SystemTxn;

use crate::assignment::DynamicRankingAssigner;
use crate::engine::{AssignedPath, EngineScratch};
use crate::error::AssignError;
use crate::state::{Slot, StateStats, SystemState, TxnLog};
use sparcle_alloc::availability::PathAvailability;
use sparcle_alloc::AvailabilityError;
use sparcle_model::{
    AppId, Application, CapacityMap, LoadMap, ModelError, Network, NetworkElement,
};
use std::sync::Arc;

/// Maximum task assignment paths per application (the paper keeps this
/// small; path extraction has diminishing returns).
const MAX_PATHS_PER_APP: usize = 8;

/// Paths with a rate at or below this threshold are not used.
pub const MIN_PATH_RATE: f64 = 1e-9;

/// Tunables of the system pipeline.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Worker threads of the γ evaluator
    /// ([`DynamicRankingAssigner::with_threads`]); results are
    /// bit-identical for every thread count.
    pub assigner_threads: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
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
    /// The residual elements `paths` load, sorted — derived when the
    /// entry is installed, so residual refreshes and the GR fit re-check
    /// never scan the network.
    pub(crate) touched: Vec<NetworkElement>,
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
    assigner: DynamicRankingAssigner,
    state: SystemState,
    /// Hoisted placement-engine buffers, reused by every assignment the
    /// system runs (admissions, reconcile probes, migration probes) so
    /// probe loops stay off the allocator for content-independent
    /// scratch. Carries no placement state — rollback never touches it.
    engine_scratch: EngineScratch,
    /// Eq. (6)'s prediction for the BE submission in progress: every
    /// one refills it before reading it, so it carries no state either.
    /// Starts empty; the first BE submission sizes it.
    predicted: CapacityMap,
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
            assigner,
            state,
            engine_scratch: EngineScratch::default(),
            predicted: CapacityMap::default(),
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

    /// Total rate allocated to the admitted BE applications, summed in
    /// admission order — the delivered-rate figure both control loops
    /// integrate.
    pub fn be_rate_total(&self) -> f64 {
        self.state.be_apps.iter().map(|a| a.allocated_rate).sum()
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
        self.state.slot(id).is_some()
    }

    /// The rate the identified application carries (GR: guaranteed; BE:
    /// last allocated), or `None` for an unknown id.
    pub fn rate_of(&self, id: AppId) -> Option<f64> {
        Some(match self.state.slot(id)? {
            Slot::Gr(pos) => self.state.gr_apps[pos].guaranteed_rate(),
            Slot::Be(pos) => self.state.be_apps[pos].allocated_rate,
        })
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

    /// Sets the capacity of each listed element to its value in
    /// `capacities`, in one transaction (see
    /// [`SystemTxn::change_capacities`]). This is how an element failure
    /// or recovery reaches the system: the caller keeps its capacity map
    /// and names the element that flipped. Only the listed elements are
    /// validated.
    ///
    /// Returns the ids of GR applications whose reservations no longer
    /// fit (sorted by id, deduplicated); their guarantee is violated
    /// until capacity recovers or the caller moves or removes them.
    ///
    /// # Errors
    ///
    /// As [`SystemTxn::change_capacities`]; the system is unchanged then.
    pub fn change_capacities(
        &mut self,
        capacities: &CapacityMap,
        elements: &[NetworkElement],
    ) -> Result<Vec<AppId>, ModelError> {
        let mut txn = self.begin();
        let violated = txn.change_capacities(capacities, elements)?;
        txn.commit();
        Ok(violated)
    }

    /// Reacts to a computing-network capacity fluctuation (the paper's
    /// stated future-work direction): [`Self::change_capacities`] over
    /// every element whose capacity in `new_capacities` differs from the
    /// current one in any bit. Placements are *not* migrated — only
    /// rates adapt, consistent with the no-migration constraint.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownNcp`] / [`ModelError::UnknownLink`] when
    /// `new_capacities` does not match the network's shape, and
    /// [`ModelError::InvalidQuantity`] for a NaN, negative or infinite
    /// capacity; the system is unchanged then.
    pub fn apply_capacity_fluctuation(
        &mut self,
        new_capacities: &CapacityMap,
    ) -> Result<Vec<AppId>, ModelError> {
        let changed = self
            .state
            .current_capacities
            .changed_elements(new_capacities)?;
        self.change_capacities(new_capacities, &changed)
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
}

/// One step of the availability loop both arms of Figure 3 share
/// (eq. (7)): adds `path`, carrying `rate`, to the analysis and returns
/// what `evaluate` then reads off it — the chance that any path works
/// (BE) or that the working paths sustain the minimum rate (GR).
///
/// # Errors
///
/// A path set past the analyser's limits is reported as
/// [`AssignError::Model`].
fn extend_availability(
    analyzer: &mut PathAvailability,
    network: &Network,
    path: &AssignedPath,
    rate: f64,
    evaluate: impl FnOnce(&PathAvailability) -> Result<f64, AvailabilityError>,
) -> Result<f64, AssignError> {
    analyzer
        .add_path(network, path.placement.elements_used(network), rate)
        .and_then(|()| evaluate(analyzer))
        .map_err(|e| {
            AssignError::Model(ModelError::InvalidQuantity {
                what: "availability analysis",
                value: match e {
                    AvailabilityError::TooManyElements(n) | AvailabilityError::TooManyPaths(n) => {
                        n as f64
                    }
                    AvailabilityError::BadProbability(p) => p,
                    _ => f64::NAN,
                },
            })
        })
}

#[cfg(test)]
mod fixtures {
    use sparcle_model::{
        Application, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
    };

    pub(super) fn star_network(failure: f64) -> Network {
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

    pub(super) fn simple_app(qoe: QoeClass, cycles: f64, bits: f64) -> Application {
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(cycles));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, bits).unwrap();
        tb.add_tt("wt", w, t, bits / 10.0).unwrap();
        let graph = tb.build().unwrap();
        Application::new(graph, qoe, [(s, NcpId::new(0)), (t, NcpId::new(0))]).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{simple_app, star_network};
    use super::*;
    use sparcle_model::{NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder};

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
    fn be_utility_matches_definition() {
        let net = star_network(0.0);
        let mut sys = SparcleSystem::new(net);
        sys.submit(simple_app(QoeClass::best_effort(2.0), 10.0, 50.0))
            .unwrap();
        let expect = 2.0 * sys.be_apps()[0].allocated_rate.ln();
        assert!((sys.be_utility() - expect).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_bandwidth_is_a_rejection_not_a_panic() {
        // `-0.0` passes the builder's `bandwidth < 0.0` check; the
        // widest-path search must treat it as the zero-width link it is.
        let mut nb = NetworkBuilder::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| nb.add_ncp(n, ResourceVec::cpu(100.0)));
        nb.add_link("ab", a, b, 100.0).unwrap();
        nb.add_link("bc", b, c, -0.0).unwrap();
        let mut tb = TaskGraphBuilder::new();
        let s = tb.add_ct("s", ResourceVec::new());
        let w = tb.add_ct("w", ResourceVec::cpu(10.0));
        let t = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sw", s, w, 5.0).unwrap();
        tb.add_tt("wt", w, t, 5.0).unwrap();
        let qoe = QoeClass::best_effort(1.0);
        let app = Application::new(tb.build().unwrap(), qoe, [(s, a), (t, c)]).unwrap();
        let mut sys = SparcleSystem::new(nb.build().unwrap());
        assert!(matches!(sys.submit(app), Ok(Admission::Rejected(_))));
    }
}
