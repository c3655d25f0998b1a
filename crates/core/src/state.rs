//! The incrementally-maintained mutable state of a
//! [`SparcleSystem`](crate::SparcleSystem), and the undo machinery
//! behind its transactional mutation API.
//!
//! ## The canonical-state invariant
//!
//! At every transaction boundary, the derived state is a **pure
//! function** of the primary state:
//!
//! * `gr_residual` equals `current_capacities` minus every admitted GR
//!   reservation, folded in `gr_apps` vector order (each path's load
//!   subtracted with clamping at zero);
//! * `priority_loads` equals, per element, the sum of the priorities of
//!   the BE applications whose combined load touches that element,
//!   accumulated in `be_apps` vector order;
//! * the incremental constraint matrix equals
//!   `ConstraintSystem::from_loads` over the `be_apps` loads
//!   (maintained by [`sparcle_alloc::IncrementalConstraints`]), with one
//!   price per row.
//!
//! The row prices are primary state like the rates: the last solve's
//! dual answer and the next solve's warm start. The undo log restores
//! them bitwise with the rates, so a rolled-back probe leaves the next
//! solve exactly as if it had never run.
//!
//! Incremental maintenance preserves these equalities **bitwise**, not
//! just approximately:
//!
//! * admissions extend the fold (subtract the new loads in path order —
//!   exactly the operations the canonical fold would append);
//! * removals, undos and capacity changes re-derive each *touched*
//!   (or changed) element by replaying
//!   the canonical fold restricted to that element, using the
//!   per-element ops of [`CapacityMap`] that are bitwise identical to
//!   the dense ones;
//! * untouched elements keep their value, which is sound because
//!   subtracting a zero load is the bitwise identity on non-negative
//!   capacities (`(x − 0·r).max(0) = x`), so dropping a zero-load term
//!   from the fold cannot change it.
//!
//! [`SystemState::audit`] is the invariant as code: the full folds,
//! compared with what delta maintenance left behind. Every
//! [`crate::SystemTxn`] commit, rollback and drop `debug_assert!`s it;
//! `tests/incremental_equivalence.rs` drives full runtime histories
//! through it.

use crate::engine::{AssignStats, AssignedPath};
use crate::system::{DisplacedApp, PlacedBeApp, PlacedGrApp};
use sparcle_alloc::num::{ConstraintRow, ConstraintSystem, IncrementalConstraints, SolverScratch};
use sparcle_alloc::predict::PriorityLoads;
use sparcle_model::{AppId, CapacityMap, LoadMap, Network, NetworkElement, ResourceVec};

/// Counters describing the work the state core has done. Obtain via
/// [`crate::SparcleSystem::state_stats`].
///
/// All fields except [`Self::solve_nanos`] are deterministic functions
/// of the operation sequence; `solve_nanos` is wall-clock and must
/// never be exported into determinism-checked telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateStats {
    /// BE allocations solved (problem (4)).
    pub solves: u64,
    /// Solves that reused the previous rates via the solver's fast
    /// warm-start schedule.
    pub warm_solves: u64,
    /// Solves that ran the full cold barrier schedule.
    pub cold_solves: u64,
    /// Newton steps spent inside warm solves.
    pub inner_iters_warm: u64,
    /// Newton steps spent inside cold solves.
    pub inner_iters_cold: u64,
    /// Wall-clock nanoseconds spent in BE solves (including constraint
    /// refresh). **Not deterministic** — keep out of traced counters.
    pub solve_nanos: u64,
    /// Individual residual elements re-derived by the canonical
    /// per-element replay.
    pub residual_element_updates: u64,
    /// Transactions committed.
    pub txn_commits: u64,
    /// Transactions rolled back (including what-if probes).
    pub txn_rollbacks: u64,
    /// γ-cache (tree store) hits across every assignment the system ran
    /// (GR path collection and BE multipath extraction alike): reach-set
    /// entries whose widest-path tree was already stored
    /// ([`AssignStats::cache_hits`]). Monotone work counters: like
    /// [`Self::txn_rollbacks`], rolled-back transactions keep the work
    /// they did.
    pub gamma_cache_hits: u64,
    /// Widest-path trees computed across every assignment the system
    /// ran — one Algorithm-1 sweep each ([`AssignStats::cache_misses`]).
    pub gamma_cache_misses: u64,
}

impl StateStats {
    /// The deterministic counters as `(trace counter name, value)` pairs
    /// — every field except the wall-clock [`Self::solve_nanos`] — the
    /// one list both control loops export at end of run.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("system.solves", self.solves),
            ("system.warm_solves", self.warm_solves),
            ("system.cold_solves", self.cold_solves),
            ("system.warm_inner_iters", self.inner_iters_warm),
            ("system.cold_inner_iters", self.inner_iters_cold),
            (
                "system.residual_element_updates",
                self.residual_element_updates,
            ),
            ("system.txn_commits", self.txn_commits),
            ("system.txn_rollbacks", self.txn_rollbacks),
            ("system.gamma_cache_hits", self.gamma_cache_hits),
            ("system.gamma_cache_misses", self.gamma_cache_misses),
        ]
    }

    /// Adds one assignment's (or one multipath extraction's) engine
    /// work counters.
    pub(crate) fn add_assign(&mut self, stats: &AssignStats) {
        self.gamma_cache_hits += stats.cache_hits;
        self.gamma_cache_misses += stats.cache_misses;
    }
}

/// Where an admitted application sits: its position in `gr_apps` or in
/// `be_apps` ([`SystemState::slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Index into the Guaranteed-Rate list.
    Gr(usize),
    /// Index into the Best-Effort list.
    Be(usize),
}

/// The mutable state of a [`SparcleSystem`](crate::SparcleSystem):
/// admitted applications, current capacities, and the derived state
/// (GR residual, BE priority loads, incremental constraint matrix).
///
/// All mutation goes through [`crate::SystemTxn`] (obtained from
/// [`crate::SparcleSystem::begin`]), which records an undo log so any
/// prefix of a mutation sequence can be rolled back exactly; reads are
/// available here and via the owning system's accessors.
#[derive(Debug)]
pub struct SystemState {
    pub(crate) current_capacities: CapacityMap,
    pub(crate) gr_residual: CapacityMap,
    pub(crate) be_apps: Vec<PlacedBeApp>,
    pub(crate) gr_apps: Vec<PlacedGrApp>,
    pub(crate) priority_loads: PriorityLoads,
    pub(crate) constraints: IncrementalConstraints,
    /// The BE solve's buffers, kept across solves so a warm re-solve
    /// makes no allocator call.
    pub(crate) solver: SolverScratch,
    /// The running residual of the GR fit re-check
    /// ([`Self::violated_gr`]). Only elements some GR application loads
    /// are written, each seeded from `current_capacities` before the
    /// fold reads it, so between re-checks its contents mean nothing.
    fit_scratch: CapacityMap,
    pub(crate) next_id: u32,
    pub(crate) stats: StateStats,
}

impl SystemState {
    pub(crate) fn new(network: &Network) -> Self {
        let current_capacities = network.capacity_map();
        let gr_residual = current_capacities.clone();
        SystemState {
            current_capacities,
            gr_residual,
            be_apps: Vec::new(),
            gr_apps: Vec::new(),
            priority_loads: PriorityLoads::zeroed(network),
            constraints: IncrementalConstraints::new(),
            solver: SolverScratch::new(),
            fit_scratch: CapacityMap::zeroed(network),
            next_id: 0,
            stats: StateStats::default(),
        }
    }

    /// The network's current capacities (nominal until a fluctuation is
    /// applied).
    pub fn current_capacities(&self) -> &CapacityMap {
        &self.current_capacities
    }

    /// Current capacities minus all GR reservations.
    pub fn gr_residual(&self) -> &CapacityMap {
        &self.gr_residual
    }

    /// Admitted Best-Effort applications in admission order.
    pub fn be_apps(&self) -> &[PlacedBeApp] {
        &self.be_apps
    }

    /// Admitted Guaranteed-Rate applications in admission order.
    pub fn gr_apps(&self) -> &[PlacedGrApp] {
        &self.gr_apps
    }

    /// Work counters (see [`StateStats`]).
    pub fn stats(&self) -> &StateStats {
        &self.stats
    }

    /// The one by-id lookup: ids are unique across both lists, GR is
    /// scanned first.
    pub(crate) fn slot(&self, id: AppId) -> Option<Slot> {
        if let Some(pos) = self.gr_apps.iter().position(|a| a.id == id) {
            return Some(Slot::Gr(pos));
        }
        self.be_apps.iter().position(|a| a.id == id).map(Slot::Be)
    }

    /// The BE `allocated_rate` vector in admission order — the exact
    /// snapshot the undo log records before each solve so a rollback
    /// restores rates bitwise. Public so read-side consumers (the
    /// service plane's [`crate::StateSnapshot`], tests) can check the
    /// arity contract without relying on `debug_assert`s.
    pub fn snapshot_rates(&self) -> Vec<f64> {
        self.be_apps.iter().map(|a| a.allocated_rate).collect()
    }

    fn restore_rates(&mut self, rates: &[f64]) {
        debug_assert_eq!(rates.len(), self.be_apps.len(), "snapshot arity");
        for (entry, &rate) in self.be_apps.iter_mut().zip(rates) {
            entry.allocated_rate = rate;
        }
    }

    /// Re-derives one residual element from the canonical fold: copy
    /// the element's current capacity, then subtract every admitted GR
    /// path's load on it, in `gr_apps` order. This is the dense
    /// rebuild's arithmetic restricted to one element, so the result is
    /// bitwise identical to [`Self::canonical_residual`].
    fn recompute_residual_element(&mut self, element: NetworkElement) {
        self.gr_residual
            .copy_element_from(&self.current_capacities, element);
        for gr in &self.gr_apps {
            for (path, rate) in &gr.paths {
                self.gr_residual
                    .subtract_load_element(element, &path.load, *rate);
            }
        }
    }

    /// The canonical residual fold over the whole network: current
    /// capacities minus every admitted GR reservation, in `gr_apps`
    /// order.
    fn canonical_residual(&self) -> CapacityMap {
        let mut residual = self.current_capacities.clone();
        for gr in &self.gr_apps {
            for (path, rate) in &gr.paths {
                residual.subtract_load(&path.load, *rate);
            }
        }
        residual
    }

    /// Restores the canonical residual value of `elements` after a
    /// structural or capacity change, replaying the fold per element.
    pub(crate) fn refresh_residual(&mut self, elements: &[NetworkElement]) {
        for &e in elements {
            self.recompute_residual_element(e);
        }
        self.stats.residual_element_updates += elements.len() as u64;
    }

    /// The GR applications whose reservations no longer fit
    /// `current_capacities`, sorted by id: each path is checked against
    /// the running fold of the paths before it (in `gr_apps` order)
    /// before its own load comes off. The fold runs in `fit_scratch`
    /// over each application's own touched elements only. `min` does
    /// not depend on visiting order, and each element still sees its
    /// subtractions in `gr_apps` order, so the list is the dense fold's
    /// (`sparcle_oracle::dense_residual_fold`).
    pub(crate) fn violated_gr(&mut self) -> Vec<AppId> {
        let SystemState {
            current_capacities,
            gr_apps,
            fit_scratch,
            ..
        } = self;
        for gr in gr_apps.iter() {
            for &e in &gr.touched {
                fit_scratch.copy_element_from(current_capacities, e);
            }
        }
        let mut violated = Vec::new();
        for gr in gr_apps.iter() {
            for (path, rate) in &gr.paths {
                // Check fit before subtracting (subtraction clamps).
                if fit_scratch.bottleneck_rate_on(&path.load, &gr.touched) + 1e-9 < *rate {
                    violated.push(gr.id);
                }
                for &e in &gr.touched {
                    fit_scratch.subtract_load_element(e, &path.load, *rate);
                }
            }
        }
        violated.sort_unstable_by_key(|id| id.as_u32());
        violated.dedup();
        violated
    }

    /// Re-derives one priority-load element from the canonical fold:
    /// the sum of the priorities of the BE applications whose combined
    /// load touches the element, in `be_apps` order — the same
    /// accumulation [`PriorityLoads::add_app`] performs.
    fn recompute_priority_element(&mut self, element: NetworkElement) {
        let mut total = 0.0;
        for be in &self.be_apps {
            // Same loaded-element criterion as `LoadMap::loaded_elements`.
            let touched = match element {
                NetworkElement::Ncp(id) => !be.combined_load.ncp(id).is_zero(),
                NetworkElement::Link(id) => be.combined_load.link(id) > 0.0,
            };
            if touched {
                total += be.priority;
            }
        }
        self.priority_loads.set_element(element, total);
    }

    /// The canonical priority-load fold over the whole network.
    fn canonical_priorities(&self, network: &Network) -> PriorityLoads {
        let mut loads = PriorityLoads::zeroed(network);
        for be in &self.be_apps {
            loads.add_app(&be.combined_load, be.priority);
        }
        loads
    }

    /// Restores the canonical priority-load value of `elements` after a
    /// BE structural change.
    pub(crate) fn refresh_priorities(&mut self, elements: &[NetworkElement]) {
        for &e in elements {
            self.recompute_priority_element(e);
        }
    }

    /// Checks the canonical-state invariant (module docs): rebuilds the
    /// GR residual, the priority loads and the constraint matrix from
    /// the primary state with the full folds and compares each with the
    /// delta-maintained copy, bit for bit. Read-only — no
    /// [`StateStats`] counter moves. The constraint rows are compared on
    /// a copy refreshed to the residual's capacities, which is what
    /// every solve does to the original first.
    ///
    /// # Errors
    ///
    /// Names the first residual element, priority-load element or
    /// constraint column that differs.
    pub fn audit(&self, network: &Network) -> Result<(), String> {
        let residual = self.canonical_residual();
        let priorities = self.canonical_priorities(network);
        if residual != self.gr_residual || priorities != self.priority_loads {
            let total = |loads: &PriorityLoads, e| match e {
                NetworkElement::Ncp(id) => loads.ncp(id),
                NetworkElement::Link(id) => loads.link(id),
            };
            for e in network.elements() {
                if residual.element(e) != self.gr_residual.element(e) {
                    return Err(format!("gr_residual is off its canonical fold at {e}"));
                }
                if total(&priorities, e) != total(&self.priority_loads, e) {
                    return Err(format!("priority_loads is off its canonical fold at {e}"));
                }
            }
        }
        let loads: Vec<&LoadMap> = self.be_apps.iter().map(|a| &a.combined_load).collect();
        let canonical = ConstraintSystem::from_loads(network, &self.gr_residual, &loads);
        let mut maintained = self.constraints.clone();
        maintained.refresh_capacities(&self.gr_residual);
        if self.constraints.duals().len() != maintained.system().rows().len() {
            return Err("constraint rows and their prices are misaligned".to_owned());
        }
        let maintained = maintained.system();
        if maintained.app_count() != loads.len() || maintained.rows() != canonical.rows() {
            // A column is the rows it binds and its coefficients there.
            let column = |system: &ConstraintSystem, col: usize| -> Vec<_> {
                let entry = |r: &ConstraintRow| {
                    let at = r.entries.binary_search_by_key(&col, |e| e.0).ok()?;
                    Some((r.element, r.entries[at].1.to_bits()))
                };
                system.rows().iter().filter_map(entry).collect()
            };
            let col = (0..loads.len()).find(|&c| column(maintained, c) != column(&canonical, c));
            return Err(match col {
                Some(col) => format!("constraint column {col} is off its application's load"),
                None => "constraint rows are off `ConstraintSystem::from_loads`".to_owned(),
            });
        }
        Ok(())
    }

    /// Applies one undo record. Returns the application entry popped
    /// off the admitted lists, if the record held one (so a failed
    /// readmit can hand ownership back to its caller).
    pub(crate) fn apply_undo(&mut self, op: UndoOp) -> Option<DisplacedApp> {
        match op {
            UndoOp::PopGr => {
                let entry = self.gr_apps.pop().expect("undo log matches state");
                self.refresh_residual(&entry.touched);
                Some(DisplacedApp::Gr(entry))
            }
            UndoOp::InsertGr(pos, mut entry) => {
                let touched = std::mem::take(&mut entry.touched);
                self.gr_apps.insert(pos, entry);
                self.refresh_residual(&touched);
                self.gr_apps[pos].touched = touched;
                None
            }
            UndoOp::PopBe => {
                let entry = self.be_apps.pop().expect("undo log matches state");
                self.constraints.remove_app(self.be_apps.len());
                let touched = entry.combined_load.loaded_elements();
                self.refresh_priorities(&touched);
                Some(DisplacedApp::Be(entry))
            }
            UndoOp::InsertBe(pos, entry, duals) => {
                let touched = entry.combined_load.loaded_elements();
                self.be_apps.insert(pos, entry);
                self.constraints
                    .insert_app(pos, &self.be_apps[pos].combined_load);
                self.constraints.set_duals(&duals);
                self.refresh_priorities(&touched);
                None
            }
            UndoOp::RestoreRates { rates, duals } => {
                self.restore_rates(&rates);
                self.constraints.set_duals(&duals);
                None
            }
            UndoOp::RestoreNextId(id) => {
                self.next_id = id;
                None
            }
            UndoOp::RestoreCapacities(elements, old) => {
                for (&e, capacity) in elements.iter().zip(&old) {
                    self.current_capacities.set_element(e, capacity);
                }
                self.refresh_residual(&elements);
                None
            }
            UndoOp::RecomputeResidual(elements) => {
                self.refresh_residual(&elements);
                None
            }
        }
    }
}

/// Union of the residual elements a GR entry's paths load, sorted and
/// deduplicated.
pub(crate) fn gr_touched_elements(paths: &[(AssignedPath, f64)]) -> Vec<NetworkElement> {
    let mut out: Vec<NetworkElement> = paths
        .iter()
        .flat_map(|(path, _)| path.load.loaded_elements())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// One reversible step of a transaction, recorded *after* the forward
/// mutation it undoes. Undos run in reverse order; structural records
/// restore the canonical derived state of the elements they touch, so a
/// full unwind leaves the state bitwise equal to the pre-transaction
/// snapshot (see the module docs for the invariant).
#[derive(Debug)]
pub(crate) enum UndoOp {
    /// Undo a `gr_apps.push`: pop the entry (returning it) and restore
    /// the canonical residual of its touched elements.
    PopGr,
    /// Undo a `gr_apps.remove(pos)`: re-insert the stashed entry at its
    /// original position. Committing instead extracts the entry as a
    /// [`DisplacedApp`].
    InsertGr(usize, PlacedGrApp),
    /// Undo a `be_apps.push` (and its constraint column / priority
    /// fold-append).
    PopBe,
    /// Undo a `be_apps.remove(pos)` (see [`UndoOp::InsertGr`]), and put
    /// back every row's price as it was before the removal — the rows
    /// only this entry loaded come back with theirs.
    InsertBe(usize, PlacedBeApp, Vec<f64>),
    /// Restore every BE `allocated_rate`, and every constraint row's
    /// price (the next solve's warm start), from the snapshot taken
    /// before a solve.
    RestoreRates {
        /// The BE rates in admission order.
        rates: Vec<f64>,
        /// The row prices in row order.
        duals: Vec<f64>,
    },
    /// Restore the id counter (undoes `fresh_id` / readmit id bumps).
    RestoreNextId(u32),
    /// Undo a capacity change: put back each listed element's old
    /// capacity, then re-derive those residual elements.
    RestoreCapacities(Vec<NetworkElement>, Vec<ResourceVec>),
    /// Re-derive the given residual elements from the canonical fold
    /// (undoes raw sparse subtractions made during GR path search and
    /// readmission before the entry exists in `gr_apps`).
    RecomputeResidual(Vec<NetworkElement>),
}

/// The undo log of one [`crate::SystemTxn`].
#[derive(Debug, Default)]
pub(crate) struct TxnLog {
    pub(crate) ops: Vec<UndoOp>,
}

impl TxnLog {
    pub(crate) fn push(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// A marker for partial unwinds: everything pushed after the
    /// savepoint can be undone without touching what came before.
    pub(crate) fn savepoint(&self) -> usize {
        self.ops.len()
    }
}
