//! Weighted proportional-fair rate allocation — the paper's problem (4).
//!
//! Given the placements of all present Best-Effort applications, SPARCLE
//! solves
//!
//! ```text
//! maximize   Σ_i P_i log(x_i)
//! subject to R X ≤ C,   X ≥ 0
//! ```
//!
//! where column `i` of `R` is application `i`'s per-data-unit load on
//! every (element, resource-kind) pair and `C` stacks the corresponding
//! capacities. The objective is strictly concave and the feasible set is
//! a polytope, so the optimum is unique.
//!
//! [`solve`] and [`solve_into`] solve it on its *binding rows*. The
//! dual of problem (4) is
//!
//! ```text
//! minimize over λ ≥ 0   D(λ) = Σ_j λ_j C_j − Σ_i P_i log q_i,   q = Rᵀλ
//! ```
//!
//! whose gradient is the slack `C − R x` at `x_i = P_i / q_i` and whose
//! Hessian is `R diag(x² / P) Rᵀ`. Only the rows with a positive price
//! (plus the overloaded ones at price zero) are *free*; projected Newton
//! steps on those rows alone — one `|F|×|F|` positive definite solve each
//! — with a projected Armijo line search drive every free row tight and
//! keep every other row feasible. Stationarity `x_i = P_i / q_i` holds by
//! construction, so the answer is the optimum to the stopping tolerance,
//! not an interior approximation of it.
//!
//! The prices are the warm start: a re-solve starts from the last solve's
//! λ (the system layer keeps them with the constraint rows and undoes
//! them with the rates), and a re-solve of unchanged inputs takes no
//! step at all. A cold solve has no prices, so it first runs a
//! log-barrier path-following method in the variables `u_i = log x_i` (a
//! geometric program: the objective is linear in `u` and each constraint
//! `Σ_i R_ji e^{u_i} ≤ C_j` is convex) and hands its near-tight rows'
//! prices `μ / s_j` to the dual phase. The barrier is also the fallback
//! when the dual phase fails: a failed factorization, a non-finite value
//! or the step cap.
//!
//! `R` is sparse — applications couple only through the elements they
//! share — so each [`ConstraintRow`] lists only its positive
//! coefficients, and every price, gradient, Hessian and slack is
//! accumulated over those entries. Both Hessians are factored densely,
//! in place, in a reusable [`SolverScratch`]. The KKT conditions of the
//! original problem are checked by [`Allocation::kkt_residual`] and
//! [`Allocation::feasibility_violation`].

use sparcle_model::{CapacityMap, LoadMap, Network, NetworkElement, ResourceKind};
use std::error::Error;
use std::fmt;

/// Initial barrier weight μ₀, relative to the largest priority.
const MU0: f64 = 1.0;
/// Barrier reduction factor per outer round.
const MU_SHRINK: f64 = 0.15;
/// Outer (barrier-shrink) rounds of a barrier solve.
const OUTER_ITERS: usize = 11;
/// Damped-Newton steps per outer round, at most.
const INNER_ITERS: usize = 60;
/// Step halvings per backtracking line search, at most.
const LINE_SEARCH_STEPS: usize = 60;
/// Projected Newton steps of one dual phase, at most; past them the
/// solve falls back to the barrier.
const DUAL_STEPS: usize = 50;
/// Stopping tolerance of the dual phase, relative to each row's
/// capacity: a priced row within it of tight, every other row within it
/// of feasible.
const DUAL_TOL: f64 = 1e-10;
/// Sufficient-decrease fraction of the dual line search (Armijo).
const ARMIJO: f64 = 1e-4;
/// A full dual step whose predicted decrease is below this fraction of
/// `|D|` is taken without the Armijo test: that close to the optimum the
/// decrease is below the rounding of `D` itself, and judging the step
/// by `D` would reject every step.
const STALL: f64 = 1e-11;
/// Relative ridge on `H_FF`'s diagonal. Free rows can be linearly
/// dependent — two rows loaded by the same columns in proportion (a
/// multipath application's parallel links), or more free rows than
/// columns — which leaves `H_FF` singular; the ridge keeps it positive
/// definite, and a step along a dependent direction is clipped by the
/// projection instead of failing the factorization.
const DUAL_RIDGE: f64 = 1e-10;
/// A cold solve prices the rows whose barrier slack is under this
/// fraction of their capacity. The barrier is what makes a cold solve
/// converge: run from no prices at all (every column priced at its
/// bottleneck row alone), the dual phase hit [`DUAL_STEPS`] in 302 of
/// the 721 cold solves of 1,000 cases of `tests/solver_equivalence.rs`'s
/// random systems.
const NEAR_TIGHT: f64 = 0.01;

/// One capacity constraint row: `Σ_(i, c) ∈ entries c · x_i ≤ capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintRow {
    /// Which network element and resource kind this row models (for
    /// diagnostics; not used by the solver).
    pub element: Option<(NetworkElement, ResourceKind)>,
    /// Available capacity `C_j` (must be positive; zero-capacity rows
    /// with any entry make the problem infeasible).
    pub capacity: f64,
    /// `(column, R_ji)` for every application with a positive load on
    /// the row, strictly increasing in column. Applications without load
    /// here have no entry.
    pub entries: Vec<(usize, f64)>,
}

/// The constraint system `R X ≤ C` for a set of applications.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSystem {
    rows: Vec<ConstraintRow>,
    app_count: usize,
}

impl ConstraintSystem {
    /// Creates an empty system for `app_count` applications.
    pub fn new(app_count: usize) -> Self {
        ConstraintSystem {
            rows: Vec::new(),
            app_count,
        }
    }

    /// Number of applications (columns).
    pub fn app_count(&self) -> usize {
        self.app_count
    }

    /// The accumulated rows.
    pub fn rows(&self) -> &[ConstraintRow] {
        &self.rows
    }

    /// Adds a raw constraint row; a row without entries never binds and
    /// is dropped.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadCapacity`] unless the capacity is finite and
    /// non-negative; [`AllocError::ColumnOutOfRange`],
    /// [`AllocError::UnsortedColumns`] or [`AllocError::BadCoefficient`]
    /// for the first entry whose column is not below
    /// [`Self::app_count`], not above its predecessor's, or whose
    /// coefficient is not finite and positive. The system is unchanged
    /// on error.
    pub fn push_row(&mut self, row: ConstraintRow) -> Result<(), AllocError> {
        if !(row.capacity.is_finite() && row.capacity >= 0.0) {
            return Err(AllocError::BadCapacity(row.capacity));
        }
        let mut next = 0;
        for &(column, value) in &row.entries {
            if column >= self.app_count {
                return Err(AllocError::ColumnOutOfRange {
                    column,
                    app_count: self.app_count,
                });
            }
            if column < next {
                return Err(AllocError::UnsortedColumns { column });
            }
            if !(value.is_finite() && value > 0.0) {
                return Err(AllocError::BadCoefficient { column, value });
            }
            next = column + 1;
        }
        if !row.entries.is_empty() {
            self.rows.push(row);
        }
        Ok(())
    }

    /// Builds the system from per-application [`LoadMap`]s over a network
    /// with the given available capacities: one row per (NCP, resource
    /// kind) with any load, one per link with any load.
    pub fn from_loads(network: &Network, capacities: &CapacityMap, loads: &[&LoadMap]) -> Self {
        let mut sys = ConstraintSystem::new(loads.len());
        for ncp in network.ncp_ids() {
            // Collect every resource kind any app loads on this NCP.
            let mut kinds: Vec<ResourceKind> = Vec::new();
            for load in loads {
                for kind in load.ncp(ncp).kinds() {
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                }
            }
            kinds.sort();
            for kind in kinds {
                sys.push_loads(
                    (NetworkElement::Ncp(ncp), kind),
                    capacities.ncp(ncp).amount(kind),
                    loads.iter().map(|l| l.ncp(ncp).amount(kind)),
                );
            }
        }
        for link in network.link_ids() {
            sys.push_loads(
                (NetworkElement::Link(link), ResourceKind::Bandwidth),
                capacities.link(link),
                loads.iter().map(|l| l.link(link)),
            );
        }
        sys
    }

    /// Adds a row from one load per column, keeping the positive ones.
    /// Unchecked: `LoadMap` amounts are finite and non-negative and
    /// `CapacityMap` entries clamp at zero.
    fn push_loads(
        &mut self,
        element: (NetworkElement, ResourceKind),
        capacity: f64,
        loads: impl Iterator<Item = f64>,
    ) {
        let entries: Vec<(usize, f64)> = loads.enumerate().filter(|&(_, c)| c > 0.0).collect();
        if !entries.is_empty() {
            self.rows.push(ConstraintRow {
                element: Some(element),
                capacity,
                entries,
            });
        }
    }
}

/// A [`ConstraintSystem`] maintained incrementally as applications come
/// and go, without rebuilding the matrix from scratch per solve.
///
/// Rows are kept sorted by `(element, kind)` — exactly the emission
/// order of [`ConstraintSystem::from_loads`] (NCP rows ascending by id,
/// kinds sorted within each NCP, then link rows ascending) — and a row
/// is present iff at least one application has a strictly positive
/// coefficient on it (matching `from_loads`, which drops rows without
/// entries). The wrapped system is therefore **structurally identical**
/// to a scratch `from_loads` over the same load list: same rows in the
/// same order with the same entries, each coefficient the value of the
/// [`LoadMap`] accessor `from_loads` reads, so no arithmetic drift is
/// possible.
///
/// Row capacities are *not* tracked incrementally; call
/// [`Self::refresh_capacities`] with the live residual before each
/// solve.
///
/// Each row also carries its price `λ_j` from the last solve — the warm
/// start of the next one ([`solve_into`]). A row enters at price zero and
/// leaves with its price; whoever removes a column and may put it back
/// keeps [`Self::duals`] to restore with [`Self::set_duals`].
#[derive(Debug, Clone, Default)]
pub struct IncrementalConstraints {
    system: ConstraintSystem,
    /// `(element, kind)` of each row of `system`, in row order — the
    /// sort key.
    keys: Vec<(NetworkElement, ResourceKind)>,
    /// `λ_j` of each row of `system`, in row order.
    duals: Vec<f64>,
}

impl IncrementalConstraints {
    /// An empty system with no applications.
    pub fn new() -> Self {
        Self::default()
    }

    /// The wrapped constraint system (rows sorted by `(element, kind)`).
    pub fn system(&self) -> &ConstraintSystem {
        &self.system
    }

    /// Number of application columns.
    pub fn app_count(&self) -> usize {
        self.system.app_count
    }

    /// Each row's price from the last solve, in row order (zero for a
    /// row no solve has seen).
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Replaces every row's price, in row order.
    ///
    /// # Panics
    ///
    /// Panics unless there is one price per row.
    pub fn set_duals(&mut self, duals: &[f64]) {
        assert_eq!(duals.len(), self.duals.len(), "one price per row");
        self.duals.copy_from_slice(duals);
    }

    /// Appends a new application column at the end.
    pub fn push_app(&mut self, load: &LoadMap) {
        self.insert_app(self.system.app_count, load);
    }

    /// Inserts an application column at `col`, shifting later columns
    /// right — the inverse of [`Self::remove_app`] at the same position.
    ///
    /// # Panics
    ///
    /// Panics if `col > app_count()`.
    pub fn insert_app(&mut self, col: usize, load: &LoadMap) {
        assert!(col <= self.system.app_count, "column index in range");
        self.system.app_count += 1;
        for row in &mut self.system.rows {
            let at = row.entries.partition_point(|&(c, _)| c < col);
            for entry in &mut row.entries[at..] {
                entry.0 += 1;
            }
        }
        for (element, kind, amount) in load.positive_entries() {
            let key = (element, kind);
            match self.keys.binary_search(&key) {
                Ok(r) => {
                    let entries = &mut self.system.rows[r].entries;
                    let at = entries.partition_point(|&(c, _)| c < col);
                    entries.insert(at, (col, amount));
                }
                Err(r) => {
                    self.keys.insert(r, key);
                    self.duals.insert(r, 0.0);
                    self.system.rows.insert(
                        r,
                        ConstraintRow {
                            element: Some(key),
                            // Placeholder; refresh_capacities runs before
                            // every solve.
                            capacity: 0.0,
                            entries: vec![(col, amount)],
                        },
                    );
                }
            }
        }
    }

    /// Removes the application column at `col`, shifting later columns
    /// left and dropping rows no surviving application binds (and their
    /// prices).
    ///
    /// # Panics
    ///
    /// Panics if `col >= app_count()`.
    pub fn remove_app(&mut self, col: usize) {
        assert!(col < self.system.app_count, "column index in range");
        self.system.app_count -= 1;
        for row in &mut self.system.rows {
            let at = row.entries.partition_point(|&(c, _)| c < col);
            if row.entries.get(at).is_some_and(|&(c, _)| c == col) {
                row.entries.remove(at);
            }
            for entry in &mut row.entries[at..] {
                entry.0 -= 1;
            }
        }
        let rows = &self.system.rows;
        let mut r = 0;
        self.keys.retain(|_| {
            r += 1;
            !rows[r - 1].entries.is_empty()
        });
        let mut r = 0;
        self.duals.retain(|_| {
            r += 1;
            !rows[r - 1].entries.is_empty()
        });
        self.system.rows.retain(|row| !row.entries.is_empty());
    }

    /// Copies the current capacity of every row's element out of `caps`,
    /// through the same accessors [`ConstraintSystem::from_loads`] uses.
    /// Call once before each solve so the rows see the live GR residual.
    pub fn refresh_capacities(&mut self, caps: &CapacityMap) {
        for (row, &(element, kind)) in self.system.rows.iter_mut().zip(&self.keys) {
            row.capacity = match element {
                NetworkElement::Ncp(id) => caps.ncp(id).amount(kind),
                NetworkElement::Link(id) => caps.link(id),
            };
        }
    }
}

/// Why the allocator failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AllocError {
    /// An application has a positive load on a zero-capacity row — no
    /// positive rate is feasible.
    Infeasible {
        /// The application (column) that cannot receive any rate.
        app: usize,
    },
    /// An application has no binding constraint at all, so its
    /// proportional-fair rate is unbounded.
    Unbounded {
        /// The unconstrained application.
        app: usize,
    },
    /// A priority was non-positive or non-finite.
    BadPriority(f64),
    /// A row's capacity was negative or non-finite.
    BadCapacity(f64),
    /// A row entry named a column the system does not have.
    ColumnOutOfRange {
        /// The offending column.
        column: usize,
        /// The system's number of columns.
        app_count: usize,
    },
    /// A row entry's column was not above the previous entry's (the
    /// entries were unsorted or repeated a column).
    UnsortedColumns {
        /// The offending column.
        column: usize,
    },
    /// A row entry's coefficient was zero, negative or non-finite.
    BadCoefficient {
        /// The entry's column.
        column: usize,
        /// The rejected coefficient.
        value: f64,
    },
    /// A per-application input did not have one value per column.
    LengthMismatch {
        /// Which input (`"priorities"`, `"start rates"`, `"weights"`).
        what: &'static str,
        /// The system's number of columns.
        expected: usize,
        /// The input's length.
        got: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Infeasible { app } => {
                write!(f, "application {app} loads a zero-capacity element")
            }
            AllocError::Unbounded { app } => {
                write!(
                    f,
                    "application {app} is unconstrained; its fair rate is unbounded"
                )
            }
            AllocError::BadPriority(p) => {
                write!(f, "priority must be positive and finite, got {p}")
            }
            AllocError::BadCapacity(c) => {
                write!(f, "capacity must be finite and non-negative, got {c}")
            }
            AllocError::ColumnOutOfRange { column, app_count } => {
                write!(
                    f,
                    "row entry names column {column} of a {app_count}-column system"
                )
            }
            AllocError::UnsortedColumns { column } => {
                write!(
                    f,
                    "row entries must be strictly increasing in column, got {column} out of order"
                )
            }
            AllocError::BadCoefficient { column, value } => {
                write!(
                    f,
                    "coefficient of column {column} must be positive and finite, got {value}"
                )
            }
            AllocError::LengthMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "expected {expected} {what}, one per column, got {got}")
            }
        }
    }
}

impl Error for AllocError {}

/// The result of solving problem (4).
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Optimal processing rate `x_i` per application.
    pub rates: Vec<f64>,
    /// Dual price `λ_j` per constraint row.
    pub duals: Vec<f64>,
    /// Achieved objective `Σ P_i log x_i`.
    pub utility: f64,
}

impl Allocation {
    /// Maximum KKT stationarity residual `|P_i / x_i − Σ_j λ_j R_ji|`
    /// relative to `P_i / x_i`, over all applications. Near-zero means
    /// the allocation is (numerically) optimal; a zero, NaN or infinite
    /// rate makes it infinite.
    pub fn kkt_residual(&self, system: &ConstraintSystem, priorities: &[f64]) -> f64 {
        let mut price = vec![0.0; system.app_count()];
        for (row, &lambda) in system.rows().iter().zip(&self.duals) {
            for &(i, c) in &row.entries {
                price[i] += lambda * c;
            }
        }
        let mut worst: f64 = 0.0;
        for ((&rate, &priority), &price) in self.rates.iter().zip(priorities).zip(&price) {
            let grad = priority / rate;
            worst = worst_of(worst, (grad - price).abs() / grad.max(1e-300));
        }
        worst
    }

    /// Maximum relative constraint violation `max_j (R X − C)_j / C_j`
    /// (zero when strictly feasible). A NaN or infinite rate on a row
    /// makes the violation infinite.
    pub fn feasibility_violation(&self, system: &ConstraintSystem) -> f64 {
        let mut worst: f64 = 0.0;
        for row in system.rows() {
            let used: f64 = row
                .entries
                .iter()
                .filter_map(|&(i, c)| self.rates.get(i).map(|&x| c * x))
                .sum();
            let over = if row.capacity > 0.0 {
                (used - row.capacity) / row.capacity
            } else if used <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            worst = worst_of(worst, over);
        }
        worst
    }
}

/// The larger of a running worst term and a new one, a non-finite term
/// (a zero rate's `inf / inf`, a NaN rate) counting as `∞` — where
/// `f64::max` would drop a NaN and pass the answer.
fn worst_of(worst: f64, term: f64) -> f64 {
    if term.is_finite() {
        worst.max(term)
    } else {
        f64::INFINITY
    }
}

/// Iteration accounting for one [`solve`] or [`solve_into`] run.
///
/// Exposed so callers can report warm-start savings: a warm run that the
/// dual phase finishes runs no barrier round and a few Newton steps, a
/// re-solve of unchanged inputs none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Outer (barrier-shrink) rounds executed: `0` unless the solve was
    /// cold or fell back to the barrier.
    pub outer_iters: usize,
    /// Newton steps taken, barrier and dual phase together.
    pub inner_iters: usize,
    /// Whether the run started from a previous solve's prices.
    pub warm_started: bool,
}

/// Every buffer a solve needs, kept between runs: once they have
/// grown to a system's shape, a [`solve_into`] of that shape makes no
/// allocator call.
///
/// The caller puts one priority per column in with
/// [`Self::set_priorities`]; after a successful solve
/// [`Self::rates`] holds the allocation and [`Self::duals`] its prices.
#[derive(Debug, Default)]
pub struct SolverScratch {
    /// `P_i`, one per column.
    priorities: Vec<f64>,
    /// The barrier iterate `u = log x`.
    u: Vec<f64>,
    /// The rates at the iterate (`e^u`, or `P / q` in the dual phase);
    /// the allocation once a solve returns.
    x: Vec<f64>,
    /// Row slacks `C_j − Σ_i R_ji x_i` at `x`.
    slacks: Vec<f64>,
    /// Gradient of the barrier objective at `u`.
    grad: Vec<f64>,
    /// The Newton system's matrix — the barrier's `−H` or the dual
    /// phase's `H_FF` — as its lower triangle packed column by column
    /// (column `k` holds rows `k..n` from `col_start(k, n)`), factored in
    /// place into `L`.
    hess: Vec<f64>,
    /// Newton direction.
    dir: Vec<f64>,
    /// Line-search trial point and its `e^u` and slacks.
    trial: Vec<f64>,
    trial_x: Vec<f64>,
    trial_slacks: Vec<f64>,
    /// One row's `(column, R_ji x_i)` pairs with a non-zero product.
    rx: Vec<(usize, f64)>,
    /// The dual iterate `λ`, one price per row; the duals once a solve
    /// returns.
    lambda: Vec<f64>,
    /// Column prices `q = Rᵀλ` at `lambda`.
    q: Vec<f64>,
    /// Line-search trial prices and their column prices.
    trial_lambda: Vec<f64>,
    trial_q: Vec<f64>,
    /// The free rows, ascending.
    free: Vec<usize>,
    /// Per column, its free rows' `(position, R_ji x_i)`: column `i`'s
    /// run is `col_free[col_ends[i - 1]..col_ends[i]]`.
    col_ends: Vec<usize>,
    col_free: Vec<(usize, f64)>,
    /// Each column's bottleneck ratio `min_j C_j / R_ji`.
    bottleneck: Vec<f64>,
}

impl SolverScratch {
    /// An empty scratch; the first solve sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the priorities `P_i` of the next solve, one per column.
    pub fn set_priorities(&mut self, priorities: impl IntoIterator<Item = f64>) {
        self.priorities.clear();
        self.priorities.extend(priorities);
    }

    /// The rates `x_i` of the last successful solve.
    pub fn rates(&self) -> &[f64] {
        &self.x
    }

    /// The prices `λ_j` of the last successful solve, one per row — the
    /// warm start of the next solve over the same rows.
    pub fn duals(&self) -> &[f64] {
        &self.lambda
    }

    /// Damped Newton maximization of
    /// `F(u) = Σ P_i u_i + μ Σ_j log(C_j − Σ_i R_ji e^{u_i})`.
    ///
    /// With `x_i = e^{u_i}` and `w_j = μ / s_j`:
    ///
    /// * gradient `g_i = P_i − Σ_j w_j R_ji x_i`;
    /// * Hessian `H_ik = −[δ_ik Σ_j w_j R_ji x_i
    ///   + Σ_j (w_j / s_j)(R_ji x_i)(R_jk x_k)]` (negative definite).
    ///
    /// Returns the number of Newton steps attempted.
    fn maximize_barrier(&mut self, rows: &[ConstraintRow], mu: f64) -> usize {
        let n = self.u.len();
        for (x, &u) in self.x.iter_mut().zip(&self.u) {
            *x = u.exp();
        }
        compute_slacks(rows, &self.x, &mut self.slacks);
        let mut value = barrier_value(&self.priorities, mu, &self.u, &self.slacks);
        let pscale = self.priorities.iter().cloned().fold(f64::MIN, f64::max);
        let mut steps = 0usize;
        for _ in 0..INNER_ITERS {
            self.assemble(rows, mu);
            let gnorm: f64 = self.grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < 1e-11 * pscale {
                break;
            }
            steps += 1;
            // Newton direction d solves (−H) d = g; plain ascent if −H
            // is not numerically positive definite.
            if cholesky_in_place(&mut self.hess, n) {
                cholesky_solve(&self.hess, &self.grad, &mut self.dir);
            } else {
                self.dir.copy_from_slice(&self.grad);
            }
            // Backtracking line search with feasibility guard.
            let mut t = 1.0;
            let mut improved = false;
            for _ in 0..LINE_SEARCH_STEPS {
                let mut moved = false;
                for ((trial, &u), &d) in self.trial.iter_mut().zip(&self.u).zip(&self.dir) {
                    *trial = u + t * d;
                    moved |= trial.to_bits() != u.to_bits();
                }
                // The step has rounded away: this trial is the current
                // point (so it cannot beat `value`), and by monotone
                // rounding so is every shorter one.
                if !moved {
                    break;
                }
                for (x, &u) in self.trial_x.iter_mut().zip(&self.trial) {
                    *x = u.exp();
                }
                if slacks_positive(rows, &self.trial_x, &mut self.trial_slacks) {
                    let v = barrier_value(&self.priorities, mu, &self.trial, &self.trial_slacks);
                    if v > value {
                        std::mem::swap(&mut self.u, &mut self.trial);
                        std::mem::swap(&mut self.x, &mut self.trial_x);
                        std::mem::swap(&mut self.slacks, &mut self.trial_slacks);
                        value = v;
                        improved = true;
                        break;
                    }
                }
                t *= 0.5;
            }
            if !improved {
                break;
            }
        }
        steps
    }

    /// The gradient and `−H`'s lower triangle at `x`, accumulated row by
    /// row over each row's entries. Every entry of `−H` receives its row
    /// contributions in row order (the diagonal its `w·r_i` before its
    /// `(w/s)·r_i·r_i`), the order the dense assembly used.
    fn assemble(&mut self, rows: &[ConstraintRow], mu: f64) {
        let n = self.x.len();
        self.grad.copy_from_slice(&self.priorities);
        self.hess.fill(0.0);
        for (row, &s) in rows.iter().zip(&self.slacks) {
            let s = s.max(1e-300);
            let w = mu / s;
            let ws = w / s;
            self.rx.clear();
            self.rx.extend(row.entries.iter().filter_map(|&(i, c)| {
                let ri = c * self.x[i];
                (ri != 0.0).then_some((i, ri))
            }));
            for (a, &(k, rk)) in self.rx.iter().enumerate() {
                self.grad[k] -= w * rk;
                let col = col_start(k, n) - k;
                self.hess[col + k] += w * rk;
                for &(i, ri) in &self.rx[a..] {
                    self.hess[col + i] += ws * ri * rk;
                }
            }
        }
    }

    /// Projected Newton on the dual `D(λ)` (module docs) from the prices
    /// in `self.lambda`, each step on the free rows only: `H_FF d =
    /// −slack_F`, then the projected line search. Stops when every
    /// priced row is tight and every other row feasible, to [`DUAL_TOL`]
    /// of its capacity, leaving `x = P / q` at the final prices in
    /// `self.x`.
    ///
    /// Returns the steps taken; `Err` with them when the phase gives up
    /// (a non-finite value, a failed factorization, a line search that
    /// finds no decrease, or [`DUAL_STEPS`]).
    fn dual_newton(&mut self, rows: &[ConstraintRow]) -> Result<usize, usize> {
        column_prices(rows, &self.lambda, &mut self.q);
        let mut value = dual_value(rows, &self.priorities, &self.lambda, &self.q);
        let mut steps = 0;
        loop {
            if !value.is_finite() {
                return Err(steps);
            }
            for ((x, &p), &q) in self.x.iter_mut().zip(&self.priorities).zip(&self.q) {
                *x = p / q;
            }
            compute_slacks(rows, &self.x, &mut self.slacks);
            if self.select_free(rows) {
                return Ok(steps);
            }
            if steps == DUAL_STEPS {
                return Err(steps);
            }
            steps += 1;
            let k = self.free.len();
            self.assemble_dual(rows);
            if !cholesky_in_place(&mut self.hess, k) {
                return Err(steps);
            }
            self.grad.clear();
            self.grad.extend(self.free.iter().map(|&j| -self.slacks[j]));
            self.dir.resize(k, 0.0);
            cholesky_solve(&self.hess, &self.grad, &mut self.dir);
            let searched = self.line_search(rows, value).or_else(|| {
                // Through a dependent direction the projected Newton step
                // can point uphill: retry along the diagonally scaled
                // gradient, `d_j = −slack_j / H_jj`, which descends.
                for (d, &j) in self.dir.iter_mut().zip(&self.free) {
                    let x = &self.x;
                    let p = &self.priorities;
                    let h: f64 = (rows[j].entries.iter())
                        .map(|&(i, c)| (c * x[i]) * (c * x[i]) / p[i])
                        .sum();
                    *d = -self.slacks[j] / h;
                }
                self.line_search(rows, value)
            });
            match searched {
                Some(v) => value = v,
                None => return Err(steps),
            }
        }
    }

    /// The projected Armijo line search along `self.dir` from the prices
    /// in `self.lambda`, whose dual value is `value`: `λ_F ← max(0, λ_F +
    /// t d)` with `t` halved until the decrease is at least [`ARMIJO`] of
    /// the one the gradient predicts (or, for the full step, the
    /// predicted decrease is below [`STALL`] of `|D|`). Moves to the
    /// accepted prices and returns their value; `None` if no `t` passes.
    fn line_search(&mut self, rows: &[ConstraintRow], value: f64) -> Option<f64> {
        let mut t = 1.0;
        for _ in 0..LINE_SEARCH_STEPS {
            self.trial_lambda.copy_from_slice(&self.lambda);
            // The decrease the gradient predicts for the projected step,
            // `−slack · (λ_t − λ)`.
            let mut predicted = 0.0;
            for (&j, &d) in self.free.iter().zip(&self.dir) {
                let l = (self.lambda[j] + t * d).max(0.0);
                self.trial_lambda[j] = l;
                predicted -= self.slacks[j] * (l - self.lambda[j]);
            }
            column_prices(rows, &self.trial_lambda, &mut self.trial_q);
            let v = dual_value(rows, &self.priorities, &self.trial_lambda, &self.trial_q);
            let stalled = t == 1.0 && predicted.abs() <= STALL * value.abs();
            let sufficient = predicted > 0.0 && v <= value - ARMIJO * predicted;
            if v.is_finite() && (stalled || sufficient) {
                std::mem::swap(&mut self.lambda, &mut self.trial_lambda);
                std::mem::swap(&mut self.q, &mut self.trial_q);
                return Some(v);
            }
            t *= 0.5;
        }
        None
    }

    /// Lists the free rows — priced, or unpriced and overloaded — in
    /// `self.free`, and reports whether the prices are optimal: every
    /// priced row tight and every other row feasible, to [`DUAL_TOL`] of
    /// its capacity.
    fn select_free(&mut self, rows: &[ConstraintRow]) -> bool {
        self.free.clear();
        let mut optimal = true;
        for (j, ((row, &l), &s)) in rows.iter().zip(&self.lambda).zip(&self.slacks).enumerate() {
            let tol = DUAL_TOL * row.capacity;
            optimal &= if l > 0.0 { s.abs() <= tol } else { s >= -tol };
            if l > 0.0 || s < 0.0 {
                self.free.push(j);
            }
        }
        optimal
    }

    /// `H_FF = (R diag(x² / P) Rᵀ)_FF` into `self.hess`, packed: column
    /// by column of `R`, every pair of its free rows gets
    /// `(R_ji x_i)(R_ki x_i) / P_i`; then the [`DUAL_RIDGE`] on the
    /// diagonal.
    fn assemble_dual(&mut self, rows: &[ConstraintRow]) {
        let n = self.x.len();
        let k = self.free.len();
        self.col_ends.clear();
        self.col_ends.resize(n, 0);
        for &j in &self.free {
            for &(i, _) in &rows[j].entries {
                self.col_ends[i] += 1;
            }
        }
        let mut end = 0;
        for e in &mut self.col_ends {
            end += *e;
            *e = end - *e; // the run's start for now; the fill moves it to its end
        }
        self.col_free.clear();
        self.col_free.resize(end, (0, 0.0));
        for (at, &j) in self.free.iter().enumerate() {
            for &(i, c) in &rows[j].entries {
                self.col_free[self.col_ends[i]] = (at, c * self.x[i]);
                self.col_ends[i] += 1;
            }
        }
        self.hess.clear();
        self.hess.resize(k * (k + 1) / 2, 0.0);
        let mut start = 0;
        for (&end, &p) in self.col_ends.iter().zip(&self.priorities) {
            let run = &self.col_free[start..end];
            for (a, &(ja, ra)) in run.iter().enumerate() {
                let wa = ra / p;
                let col = col_start(ja, k) - ja;
                for &(jb, rb) in &run[a..] {
                    self.hess[col + jb] += wa * rb;
                }
            }
            start = end;
        }
        for at in 0..k {
            self.hess[col_start(at, k)] *= 1.0 + DUAL_RIDGE;
        }
    }

    /// Prices every column no priced row binds: its bottleneck row (the
    /// first attaining `min_j C_j / R_ji`) gets `λ_j = Σ_i∈row P_i / C_j`,
    /// the price at which that row alone would be exactly full.
    fn price_orphans(&mut self, rows: &[ConstraintRow]) {
        column_prices(rows, &self.lambda, &mut self.q);
        for (row, l) in rows.iter().zip(self.lambda.iter_mut()) {
            let orphaned = |&(i, c): &(usize, f64)| {
                self.q[i] == 0.0 && (row.capacity / c).to_bits() == self.bottleneck[i].to_bits()
            };
            if row.entries.iter().any(orphaned) {
                let total: f64 = row.entries.iter().map(|&(i, _)| self.priorities[i]).sum();
                *l = total / row.capacity;
                for &(i, _) in &row.entries {
                    // Marks the column as priced: its first bottleneck
                    // row wins.
                    self.q[i] = f64::INFINITY;
                }
            }
        }
    }
}

/// `q = Rᵀλ`: each column's price, summed over its priced rows in row
/// order.
fn column_prices(rows: &[ConstraintRow], lambda: &[f64], q: &mut [f64]) {
    q.fill(0.0);
    for (row, &l) in rows.iter().zip(lambda) {
        if l != 0.0 {
            for &(i, c) in &row.entries {
                q[i] += c * l;
            }
        }
    }
}

/// The dual objective `Σ_j λ_j C_j − Σ_i P_i log q_i`; `+∞` (or NaN)
/// when a column has no price.
fn dual_value(rows: &[ConstraintRow], priorities: &[f64], lambda: &[f64], q: &[f64]) -> f64 {
    let cost: f64 = rows.iter().zip(lambda).map(|(r, &l)| l * r.capacity).sum();
    let utility: f64 = priorities.iter().zip(q).map(|(&p, &q)| p * q.ln()).sum();
    cost - utility
}

/// Where column `k` of an `n`-column packed lower triangle starts; it
/// holds rows `k..n`.
fn col_start(k: usize, n: usize) -> usize {
    k * (2 * n - k + 1) / 2
}

/// Factors the packed lower triangle `a` (see [`SolverScratch`]) of a
/// symmetric matrix into `L` with `A = L Lᵀ`, in place, column by column.
/// Column `j` takes off every earlier column's term as one sweep over its
/// rows, so the rows of a column advance together while each entry's
/// `a_ij − Σ_k l_ik l_jk` still runs `k` upward. Returns `false` if `A`
/// is not numerically positive definite (a diagonal ≤ 0).
fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    for j in 0..n {
        let (done, rest) = a.split_at_mut(col_start(j, n));
        let col = &mut rest[..n - j];
        for k in 0..j {
            let start = col_start(k, n) - k;
            let lk = &done[start + j..start + n];
            let ljk = lk[0];
            for (c, &l) in col.iter_mut().zip(lk) {
                *c -= l * ljk;
            }
        }
        if col[0] <= 0.0 {
            return false;
        }
        let d = col[0].sqrt();
        col[0] = d;
        for c in &mut col[1..] {
            *c /= d;
        }
    }
    true
}

/// Solves `L Lᵀ d = b` for the factor [`cholesky_in_place`] left in `l`:
/// forward column by column (each `y_i` takes its `l_ik y_k` terms `k`
/// upward), then backward down each column.
fn cholesky_solve(l: &[f64], b: &[f64], d: &mut [f64]) {
    let n = b.len();
    d.copy_from_slice(b);
    for k in 0..n {
        let col = &l[col_start(k, n)..col_start(k, n) + n - k];
        let yk = d[k] / col[0];
        d[k] = yk;
        for (di, &lik) in d[k + 1..].iter_mut().zip(&col[1..]) {
            *di -= lik * yk;
        }
    }
    for i in (0..n).rev() {
        let col = &l[col_start(i, n)..col_start(i, n) + n - i];
        let mut sum = d[i];
        for (&lki, &dk) in col[1..].iter().zip(&d[i + 1..]) {
            sum -= lki * dk;
        }
        d[i] = sum / col[0];
    }
}

fn row_load(row: &ConstraintRow, x: &[f64]) -> f64 {
    row.entries.iter().map(|&(i, c)| c * x[i]).sum()
}

fn compute_slacks(rows: &[ConstraintRow], x: &[f64], slacks: &mut [f64]) {
    for (row, s) in rows.iter().zip(slacks.iter_mut()) {
        *s = row.capacity - row_load(row, x);
    }
}

/// [`compute_slacks`] that stops at the first row without positive
/// slack and reports whether it got through all of them.
fn slacks_positive(rows: &[ConstraintRow], x: &[f64], slacks: &mut [f64]) -> bool {
    rows.iter().zip(slacks.iter_mut()).all(|(row, s)| {
        *s = row.capacity - row_load(row, x);
        *s > 0.0
    })
}

fn barrier_value(priorities: &[f64], mu: f64, u: &[f64], slacks: &[f64]) -> f64 {
    let mut v: f64 = priorities.iter().zip(u).map(|(&p, &ui)| p * ui).sum();
    for &s in slacks {
        if s <= 0.0 {
            return f64::NEG_INFINITY;
        }
        v += mu * s.ln();
    }
    v
}

/// The check both allocators run before solving: every column must be
/// bound by some row, and by no zero-capacity one. Leaves
/// `min_j C_j / R_ji` over column `i`'s rows in `cap[i]`.
///
/// # Errors
///
/// [`AllocError::Infeasible`] or [`AllocError::Unbounded`] for the
/// lowest offending column.
pub(crate) fn column_bottlenecks(
    system: &ConstraintSystem,
    cap: &mut Vec<f64>,
) -> Result<(), AllocError> {
    // NaN marks "no positive-capacity row yet": `f64::min` returns its
    // other operand, and the ratios themselves are never NaN.
    cap.clear();
    cap.resize(system.app_count, f64::NAN);
    let mut infeasible = usize::MAX;
    for row in &system.rows {
        for &(i, c) in &row.entries {
            if row.capacity <= 0.0 {
                infeasible = infeasible.min(i);
            } else {
                cap[i] = cap[i].min(row.capacity / c);
            }
        }
    }
    // A column bound only by zero-capacity rows is NaN too, but it is
    // never below `infeasible`: the first NaN column is unbound only if
    // it comes first.
    let unbound = cap.iter().position(|c| c.is_nan()).unwrap_or(usize::MAX);
    if infeasible != usize::MAX && infeasible <= unbound {
        Err(AllocError::Infeasible { app: infeasible })
    } else if unbound != usize::MAX {
        Err(AllocError::Unbounded { app: unbound })
    } else {
        Ok(())
    }
}

/// Checks that `values` has one entry per column of `system`.
pub(crate) fn check_len(
    what: &'static str,
    values: &[f64],
    system: &ConstraintSystem,
) -> Result<(), AllocError> {
    if values.len() == system.app_count {
        Ok(())
    } else {
        Err(AllocError::LengthMismatch {
            what,
            expected: system.app_count,
            got: values.len(),
        })
    }
}

/// Solves the weighted proportional-fair allocation problem (4),
/// returning the rates, their prices (the dual optimum, one per row), the
/// utility and the iteration counts. The answer satisfies
/// `R x ≤ C` as computed and the KKT conditions to rounding
/// ([`Allocation::kkt_residual`] ≲ 1e-10 on well-scaled problems).
///
/// With `start`, the solve is warm-started from a previous solve's
/// prices over the same rows (its [`Allocation::duals`]): the dual phase
/// (module docs) runs from them, every column no priced row binds first
/// getting its bottleneck row priced. A start with no usable entry
/// (nothing positive and finite) carries no information; such runs are
/// cold solves, bitwise identical to `start: None`, and report
/// `warm_started: false`. A cold solve, and a warm one whose dual phase
/// fails, runs the barrier from a strictly feasible start and then the
/// dual phase from the barrier's near-tight rows; when that fails too,
/// the barrier's answer is returned. A failed warm solve therefore
/// answers bitwise what the cold solve does.
///
/// # Examples
///
/// Two applications sharing one unit-capacity link, one with twice the
/// priority of the other, split the capacity 2:1 (Theorem 3's
/// proportionality); re-solving from the answer's prices takes no step:
///
/// ```
/// use sparcle_alloc::num::{self, ConstraintRow, ConstraintSystem};
///
/// # fn main() -> Result<(), sparcle_alloc::num::AllocError> {
/// let mut sys = ConstraintSystem::new(2);
/// sys.push_row(ConstraintRow { element: None, capacity: 1.0, entries: vec![(0, 1.0), (1, 1.0)] })?;
/// let (alloc, _stats) = num::solve(&sys, &[2.0, 1.0], None)?;
/// assert!((alloc.rates[0] - 2.0 / 3.0).abs() < 1e-12);
/// assert!((alloc.rates[1] - 1.0 / 3.0).abs() < 1e-12);
/// let (again, stats) = num::solve(&sys, &[2.0, 1.0], Some(&alloc.duals))?;
/// assert_eq!((stats.inner_iters, again.rates), (0, alloc.rates));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`AllocError::LengthMismatch`] unless there is one priority
/// per column (and, with `start`, one start price per row),
/// [`AllocError::BadPriority`] for non-positive priorities,
/// [`AllocError::Unbounded`] when an application has no constraint, and
/// [`AllocError::Infeasible`] when an application can never get a
/// positive rate.
pub fn solve(
    system: &ConstraintSystem,
    priorities: &[f64],
    start: Option<&[f64]>,
) -> Result<(Allocation, SolveStats), AllocError> {
    let mut scratch = SolverScratch::new();
    scratch.set_priorities(priorities.iter().copied());
    let stats = solve_into(system, start, &mut scratch)?;
    let utility = priorities
        .iter()
        .zip(&scratch.x)
        .map(|(&p, &x)| p * x.ln())
        .sum();
    let allocation = Allocation {
        rates: scratch.x,
        duals: scratch.lambda,
        utility,
    };
    Ok((allocation, stats))
}

/// [`solve`] without the utility: problem (4) over `system` with the
/// priorities in `scratch`, warm-started from the prices `start` when
/// given, leaving the rates in [`SolverScratch::rates`] and the prices in
/// [`SolverScratch::duals`]. Allocation-free once `scratch` has seen a
/// system of this shape; the rates, prices and stats are bitwise those
/// of [`solve`].
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_into(
    system: &ConstraintSystem,
    start: Option<&[f64]>,
    s: &mut SolverScratch,
) -> Result<SolveStats, AllocError> {
    let n = system.app_count();
    let rows = system.rows();
    let m = rows.len();
    check_len("priorities", &s.priorities, system)?;
    if let Some(start) = start {
        if start.len() != m {
            return Err(AllocError::LengthMismatch {
                what: "start prices",
                expected: m,
                got: start.len(),
            });
        }
    }
    for &p in &s.priorities {
        if !p.is_finite() || p <= 0.0 {
            return Err(AllocError::BadPriority(p));
        }
    }
    column_bottlenecks(system, &mut s.bottleneck)?;
    for v in [
        &mut s.u,
        &mut s.x,
        &mut s.trial,
        &mut s.trial_x,
        &mut s.q,
        &mut s.trial_q,
    ] {
        v.resize(n, 0.0);
    }
    for v in [
        &mut s.slacks,
        &mut s.trial_slacks,
        &mut s.lambda,
        &mut s.trial_lambda,
    ] {
        v.resize(m, 0.0);
    }

    let usable = |w: f64| w.is_finite() && w > 0.0;
    let mut stats = SolveStats::default();
    if let Some(warm) = start.filter(|warm| warm.iter().any(|&w| usable(w))) {
        stats.warm_started = true;
        for (l, &w) in s.lambda.iter_mut().zip(warm) {
            *l = if usable(w) { w } else { 0.0 };
        }
        s.price_orphans(rows);
        match s.dual_newton(rows) {
            Ok(steps) => {
                stats.inner_iters = steps;
                fit_capacities(rows, &mut s.x);
                return Ok(stats);
            }
            Err(steps) => stats.inner_iters = steps,
        }
    }
    // Cold, or a warm solve whose dual phase failed: the barrier from the
    // strictly feasible `x_i = (1/2n) · min_j C_j / R_ji` (a failed
    // start's own rates can sit anywhere — a row priced orders of
    // magnitude off puts its columns near zero).
    for (u, &b) in s.u.iter_mut().zip(&s.bottleneck) {
        *u = (b / (2.0 * n as f64)).max(1e-12).ln();
    }

    for v in [&mut s.grad, &mut s.dir] {
        v.resize(n, 0.0);
    }
    s.hess.resize(n * (n + 1) / 2, 0.0);
    let pscale = s.priorities.iter().cloned().fold(f64::MIN, f64::max);
    let mut mu = MU0 * pscale;
    for _ in 0..OUTER_ITERS {
        stats.inner_iters += s.maximize_barrier(rows, mu);
        mu *= MU_SHRINK;
    }
    mu /= MU_SHRINK; // μ of the last completed round
    stats.outer_iters = OUTER_ITERS;

    // The dual phase from the barrier's near-tight rows.
    for (x, &u) in s.x.iter_mut().zip(&s.u) {
        *x = u.exp();
    }
    compute_slacks(rows, &s.x, &mut s.slacks);
    for ((l, &slack), row) in s.lambda.iter_mut().zip(&s.slacks).zip(rows) {
        *l = if slack < NEAR_TIGHT * row.capacity {
            mu / slack.max(1e-300)
        } else {
            0.0
        };
    }
    s.price_orphans(rows);
    match s.dual_newton(rows) {
        Ok(steps) => {
            stats.inner_iters += steps;
            fit_capacities(rows, &mut s.x);
        }
        Err(steps) => {
            // The barrier's answer, with its dual estimates λ_j = μ / s_j.
            stats.inner_iters += steps;
            for (x, &u) in s.x.iter_mut().zip(&s.u) {
                *x = u.exp();
            }
            compute_slacks(rows, &s.x, &mut s.slacks);
            for (l, &slack) in s.lambda.iter_mut().zip(&s.slacks) {
                *l = mu / slack.max(1e-300);
            }
        }
    }
    Ok(stats)
}

/// Makes `R x ≤ C` hold as computed: divides the rates by the worst row's
/// `(R x)_j / C_j` when it exceeds 1 (the dual phase stops within
/// [`DUAL_TOL`] of tight, on either side).
fn fit_capacities(rows: &[ConstraintRow], x: &mut [f64]) {
    let worst = rows
        .iter()
        .map(|row| row_load(row, x) / row.capacity)
        .fold(1.0, f64::max);
    if worst > 1.0 {
        for x in x.iter_mut() {
            *x /= worst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row from dense coefficients; zeros get no entry.
    fn row(capacity: f64, dense: &[f64]) -> ConstraintRow {
        ConstraintRow {
            element: None,
            capacity,
            entries: dense
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c != 0.0)
                .collect(),
        }
    }

    fn system(apps: usize, rows: &[(f64, &[f64])]) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(apps);
        for &(capacity, coeffs) in rows {
            sys.push_row(row(capacity, coeffs)).unwrap();
        }
        sys
    }

    fn optimum(rows: &[(f64, &[f64])], prios: &[f64]) -> Allocation {
        solve(&system(prios.len(), rows), prios, None).unwrap().0
    }

    #[test]
    fn single_app_fills_its_bottleneck() {
        let a = optimum(&[(10.0, &[2.0]), (6.0, &[1.0])], &[1.0]);
        // min(10/2, 6/1) = 5.
        assert!((a.rates[0] - 5.0).abs() < 1e-5, "rate = {}", a.rates[0]);
    }

    #[test]
    fn equal_priorities_split_evenly() {
        let a = optimum(&[(1.0, &[1.0, 1.0])], &[1.0, 1.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-6);
        assert!((a.rates[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn priorities_give_proportional_shares() {
        let a = optimum(&[(3.0, &[1.0, 1.0, 1.0])], &[1.0, 2.0, 3.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-5);
        assert!((a.rates[1] - 1.0).abs() < 1e-5);
        assert!((a.rates[2] - 1.5).abs() < 1e-5);
    }

    #[test]
    fn independent_constraints_decouple() {
        let a = optimum(&[(4.0, &[1.0, 0.0]), (10.0, &[0.0, 5.0])], &[1.0, 7.0]);
        assert!((a.rates[0] - 4.0).abs() < 1e-5);
        assert!((a.rates[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn classic_three_flow_line_network() {
        // Flow 0 crosses both links; flows 1 and 2 cross one each
        // (capacity 1). Proportional fairness gives x0 = 1/3, x1 = x2 =
        // 2/3 for equal priorities.
        let a = optimum(
            &[(1.0, &[1.0, 1.0, 0.0]), (1.0, &[1.0, 0.0, 1.0])],
            &[1.0, 1.0, 1.0],
        );
        assert!((a.rates[0] - 1.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
        assert!((a.rates[1] - 2.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
        assert!((a.rates[2] - 2.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
    }

    #[test]
    fn kkt_residual_is_small() {
        let sys = system(3, &[(2.0, &[1.0, 2.0, 0.5]), (5.0, &[0.0, 1.0, 4.0])]);
        let prios = [1.0, 2.0, 0.5];
        let (a, _) = solve(&sys, &prios, None).unwrap();
        assert!(a.feasibility_violation(&sys) <= 0.0, "feasible");
        assert!(
            a.kkt_residual(&sys, &prios) < 1e-9,
            "kkt = {}",
            a.kkt_residual(&sys, &prios)
        );
    }

    /// A zero rate (`inf / inf` in the residual) or a NaN one fails both
    /// checks instead of slipping through `f64::max`.
    #[test]
    fn kkt_checks_fail_a_zero_or_nan_rate() {
        let sys = system(2, &[(1.0, &[1.0, 1.0])]);
        let prios = [1.0, 1.0];
        let answer = |rates: Vec<f64>| Allocation {
            rates,
            duals: vec![2.0],
            utility: 0.0,
        };
        let zero = answer(vec![0.0, 0.5]);
        assert_eq!(zero.kkt_residual(&sys, &prios), f64::INFINITY);
        let nan = answer(vec![f64::NAN, 0.5]);
        assert_eq!(nan.kkt_residual(&sys, &prios), f64::INFINITY);
        assert_eq!(nan.feasibility_violation(&sys), f64::INFINITY);
        let optimum = answer(vec![0.5, 0.5]);
        assert_eq!(optimum.kkt_residual(&sys, &prios), 0.0);
        assert_eq!(optimum.feasibility_violation(&sys), 0.0);
    }

    #[test]
    fn unconstrained_app_is_rejected() {
        let sys = system(2, &[(1.0, &[1.0, 0.0])]);
        let err = solve(&sys, &[1.0, 1.0], None);
        assert_eq!(err, Err(AllocError::Unbounded { app: 1 }));
    }

    #[test]
    fn zero_capacity_with_load_is_infeasible() {
        let sys = system(1, &[(0.0, &[1.0])]);
        let err = solve(&sys, &[1.0], None);
        assert_eq!(err, Err(AllocError::Infeasible { app: 0 }));
    }

    /// The lowest offending column is reported, whichever kind it is.
    #[test]
    fn lowest_bad_column_is_reported() {
        // Column 0 bound only by a zero-capacity row; column 1 unbound.
        let sys = system(3, &[(0.0, &[1.0, 0.0, 0.0]), (1.0, &[0.0, 0.0, 1.0])]);
        let err = solve(&sys, &[1.0; 3], None);
        assert_eq!(err, Err(AllocError::Infeasible { app: 0 }));
        // Column 0 unbound; column 1 infeasible next to a feasible row.
        let sys = system(3, &[(0.0, &[0.0, 1.0, 0.0]), (1.0, &[0.0, 1.0, 1.0])]);
        let err = solve(&sys, &[1.0; 3], None);
        assert_eq!(err, Err(AllocError::Unbounded { app: 0 }));
        // Column 0 fine; column 1 infeasible despite a feasible row.
        let sys = system(2, &[(1.0, &[1.0, 1.0]), (0.0, &[0.0, 1.0])]);
        let err = solve(&sys, &[1.0; 2], None);
        assert_eq!(err, Err(AllocError::Infeasible { app: 1 }));
    }

    #[test]
    fn bad_priority_is_rejected() {
        let sys = system(1, &[(1.0, &[1.0])]);
        let err = solve(&sys, &[-1.0], None);
        assert_eq!(err, Err(AllocError::BadPriority(-1.0)));
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let sys = system(3, &[(2.0, &[1.0, 2.0, 0.5]), (5.0, &[0.5, 1.0, 4.0])]);
        let prios = [1.0, 2.0, 0.5];
        let (cold, _) = solve(&sys, &prios, None).unwrap();
        // Warm starts from far-off prices, with unusable entries too.
        for garbage in [[1e9, -3.0], [f64::NAN, 1e-9], [0.0, 7.0]] {
            let (fixed, stats) = solve(&sys, &prios, Some(&garbage)).unwrap();
            assert!(stats.warm_started);
            for (a, b) in cold.rates.iter().zip(&fixed.rates) {
                assert!((a - b).abs() < 1e-9 * a, "{a} vs {b}");
            }
        }
    }

    /// Proportional fairness on a shared row and a private one: the
    /// answer is the optimum, tight where priced and feasible as
    /// computed, not an interior point near it.
    #[test]
    fn the_answer_is_the_exact_optimum() {
        // x0 + x1 ≤ 1/2, x1 ≤ 1/3: P = (1, 2) wants x1 = 1/3, which its
        // private row allows exactly; x0 gets the remaining 1/6.
        let sys = system(2, &[(0.5, &[1.0, 1.0]), (1.0 / 3.0, &[0.0, 1.0])]);
        let prios = [1.0, 2.0];
        let (a, stats) = solve(&sys, &prios, None).unwrap();
        assert!((a.rates[0] - 1.0 / 6.0).abs() < 1e-12, "{:?}", a.rates);
        assert!((a.rates[1] - 1.0 / 3.0).abs() < 1e-12, "{:?}", a.rates);
        assert!(a.kkt_residual(&sys, &prios) <= 1e-9);
        assert!(a.feasibility_violation(&sys) <= 0.0);
        assert_eq!(
            stats.outer_iters, OUTER_ITERS,
            "a cold solve runs the barrier"
        );
    }

    #[test]
    fn utility_matches_rates() {
        let a = optimum(&[(1.0, &[1.0, 1.0])], &[1.0, 1.0]);
        let expect = a.rates[0].ln() + a.rates[1].ln();
        assert!((a.utility - expect).abs() < 1e-12);
    }

    #[test]
    fn from_loads_builds_one_row_per_kind_and_link() {
        use sparcle_model::{LinkId, LoadMap, NetworkBuilder, ResourceVec};
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu_memory(100.0, 50.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(80.0));
        nb.add_link("xy", x, y, 40.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();

        let mut load_a = LoadMap::zeroed(&net);
        load_a.add_ct_load(x, &ResourceVec::cpu_memory(10.0, 5.0));
        load_a.add_tt_load(LinkId::new(0), 8.0);
        let mut load_b = LoadMap::zeroed(&net);
        load_b.add_ct_load(y, &ResourceVec::cpu(4.0));

        let sys = ConstraintSystem::from_loads(&net, &caps, &[&load_a, &load_b]);
        // Rows: x/cpu, x/memory, y/cpu, link — 4 binding rows.
        assert_eq!(sys.rows().len(), 4);
        let row_of = |element| {
            sys.rows()
                .iter()
                .find(|r| r.element == Some(element))
                .expect("row present")
        };
        let cpu_row = row_of((NetworkElement::Ncp(x), ResourceKind::Cpu));
        assert_eq!(cpu_row.capacity, 100.0);
        assert_eq!(cpu_row.entries, vec![(0, 10.0)]);
        let mem_row = row_of((NetworkElement::Ncp(x), ResourceKind::Memory));
        assert_eq!(mem_row.capacity, 50.0);
        assert_eq!(mem_row.entries, vec![(0, 5.0)]);
        let link_row = row_of((
            NetworkElement::Link(LinkId::new(0)),
            ResourceKind::Bandwidth,
        ));
        assert_eq!(link_row.entries, vec![(0, 8.0)]);
        let y_row = row_of((NetworkElement::Ncp(y), ResourceKind::Cpu));
        assert_eq!(y_row.entries, vec![(1, 4.0)]);

        // Solving the system matches the hand-derived optimum: app A is
        // bound by the link (40/8 = 5), app B by y's cpu (80/4 = 20).
        let (alloc, _) = solve(&sys, &[1.0, 1.0], None).unwrap();
        assert!((alloc.rates[0] - 5.0).abs() < 1e-4, "{:?}", alloc.rates);
        assert!((alloc.rates[1] - 20.0).abs() < 1e-3, "{:?}", alloc.rates);
    }

    #[test]
    fn warm_start_stats_show_iteration_savings() {
        let sys = system(3, &[(2.0, &[1.0, 2.0, 0.5]), (5.0, &[0.5, 1.0, 4.0])]);
        let prios = [1.0, 2.0, 0.5];
        let (cold, cold_stats) = solve(&sys, &prios, None).unwrap();
        assert!(!cold_stats.warm_started);
        assert_eq!(cold_stats.outer_iters, 11);
        // Half the prices: a few dual steps, no barrier round.
        let start: Vec<f64> = cold.duals.iter().map(|l| l * 0.5).collect();
        let (warm, warm_stats) = solve(&sys, &prios, Some(&start)).unwrap();
        assert!(warm_stats.warm_started);
        assert_eq!(warm_stats.outer_iters, 0);
        assert!(
            0 < warm_stats.inner_iters && warm_stats.inner_iters < cold_stats.inner_iters,
            "warm {} vs cold {}",
            warm_stats.inner_iters,
            cold_stats.inner_iters
        );
        for (a, b) in cold.rates.iter().zip(&warm.rates) {
            assert!((a - b).abs() < 1e-9 * a, "{a} vs {b}");
        }
    }

    /// A re-solve of unchanged inputs from the last solve's prices is a
    /// fixed point: no step, and the incumbent rates and prices bit for
    /// bit — through the scratch path too.
    #[test]
    fn resolving_unchanged_inputs_takes_no_step() {
        let sys = system(
            3,
            &[
                (2.0, &[1.0, 2.0, 0.5]),
                (5.0, &[0.5, 1.0, 4.0]),
                (9.0, &[1.0, 0.0, 0.0]),
            ],
        );
        let prios = [1.0, 2.0, 0.5];
        let (first, _) = solve(&sys, &prios, None).unwrap();
        let (again, stats) = solve(&sys, &prios, Some(&first.duals)).unwrap();
        assert_eq!((stats.outer_iters, stats.inner_iters), (0, 0));
        assert_eq!(again, first);
        let mut scratch = SolverScratch::new();
        scratch.set_priorities(prios);
        let stats = solve_into(&sys, Some(&first.duals), &mut scratch).unwrap();
        assert_eq!(stats.inner_iters, 0);
        assert_eq!(scratch.rates(), &first.rates[..]);
        assert_eq!(scratch.duals(), &first.duals[..]);
    }

    #[test]
    fn useless_warm_start_is_bitwise_identical_to_cold() {
        // No positive finite entry ⇒ the warm path must degrade to the
        // exact cold solve (the system layer relies on this when a BE
        // app is readmitted with a zeroed rate as the only resident).
        let sys = system(2, &[(3.0, &[1.0, 2.0])]);
        let prios = [1.0, 4.0];
        let (cold, _) = solve(&sys, &prios, None).unwrap();
        for start in [[0.0], [-1.0], [f64::NAN], [f64::INFINITY]] {
            let (warm, stats) = solve(&sys, &prios, Some(&start)).unwrap();
            assert!(!stats.warm_started);
            assert_eq!(cold.rates, warm.rates);
            assert_eq!(cold.duals, warm.duals);
            assert_eq!(cold.utility, warm.utility);
        }
    }

    /// The scratch path and the allocating path are one body: same
    /// rates, bit for bit, on a reused scratch of a different shape.
    #[test]
    fn scratch_solve_matches_the_allocating_solve() {
        let sys = system(3, &[(2.0, &[1.0, 2.0, 0.5]), (5.0, &[0.5, 1.0, 4.0])]);
        let prios = [1.0, 2.0, 0.5];
        let mut scratch = SolverScratch::new();
        scratch.set_priorities([3.0]);
        solve_into(&system(1, &[(1.0, &[1.0])]), None, &mut scratch).unwrap();
        scratch.set_priorities(prios);
        let stats = solve_into(&sys, None, &mut scratch).unwrap();
        let (cold, cold_stats) = solve(&sys, &prios, None).unwrap();
        assert_eq!(stats, cold_stats);
        assert_eq!(scratch.rates(), &cold.rates[..]);
        let start = [0.5, 0.25];
        let stats = solve_into(&sys, Some(&start), &mut scratch).unwrap();
        let (warm, warm_stats) = solve(&sys, &prios, Some(&start)).unwrap();
        assert_eq!(stats, warm_stats);
        assert_eq!(scratch.rates(), &warm.rates[..]);
        assert_eq!(scratch.duals(), &warm.duals[..]);
    }

    #[test]
    fn incremental_constraints_match_from_loads_through_churn() {
        use sparcle_model::{LinkId, LoadMap, NetworkBuilder, ResourceVec};
        let mut nb = NetworkBuilder::new();
        let x = nb.add_ncp("x", ResourceVec::cpu_memory(100.0, 50.0));
        let y = nb.add_ncp("y", ResourceVec::cpu(80.0));
        let z = nb.add_ncp("z", ResourceVec::cpu(60.0));
        nb.add_link("xy", x, y, 40.0).unwrap();
        nb.add_link("yz", y, z, 30.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();

        let mut load_a = LoadMap::zeroed(&net);
        load_a.add_ct_load(x, &ResourceVec::cpu_memory(10.0, 5.0));
        load_a.add_tt_load(LinkId::new(0), 8.0);
        let mut load_b = LoadMap::zeroed(&net);
        load_b.add_ct_load(y, &ResourceVec::cpu(4.0));
        load_b.add_tt_load(LinkId::new(1), 2.0);
        let mut load_c = LoadMap::zeroed(&net);
        load_c.add_ct_load(x, &ResourceVec::cpu(1.0));
        load_c.add_ct_load(z, &ResourceVec::cpu(6.0));

        let check = |inc: &IncrementalConstraints, resident: &[&LoadMap]| {
            let mut inc = inc.clone();
            inc.refresh_capacities(&caps);
            let scratch = ConstraintSystem::from_loads(&net, &caps, resident);
            assert_eq!(inc.system().app_count(), scratch.app_count());
            assert_eq!(inc.system().rows(), scratch.rows());
        };

        let mut inc = IncrementalConstraints::new();
        check(&inc, &[]);
        inc.push_app(&load_a);
        check(&inc, &[&load_a]);
        inc.push_app(&load_b);
        check(&inc, &[&load_a, &load_b]);
        inc.push_app(&load_c);
        check(&inc, &[&load_a, &load_b, &load_c]);
        // Remove the middle column; later columns shift left.
        inc.remove_app(1);
        check(&inc, &[&load_a, &load_c]);
        // Re-insert at the original position.
        inc.insert_app(1, &load_b);
        check(&inc, &[&load_a, &load_b, &load_c]);
        // Insert in front; every column shifts right.
        inc.insert_app(0, &load_c);
        check(&inc, &[&load_c, &load_a, &load_b, &load_c]);
        inc.remove_app(0);
        check(&inc, &[&load_a, &load_b, &load_c]);
        // Drain completely; rows must vanish with their last binder.
        inc.remove_app(0);
        check(&inc, &[&load_b, &load_c]);
        inc.remove_app(1);
        check(&inc, &[&load_b]);
        inc.remove_app(0);
        check(&inc, &[]);
        assert!(inc.system().rows().is_empty());
    }

    #[test]
    fn rows_without_entries_are_dropped() {
        let mut sys = ConstraintSystem::new(1);
        sys.push_row(row(1.0, &[0.0])).unwrap();
        assert!(sys.rows().is_empty());
    }

    // Public input that used to panic (`assert!` in `push_row`,
    // `assert_eq!` in the solver) is an error now: one test per case.

    fn push(apps: usize, capacity: f64, entries: Vec<(usize, f64)>) -> Result<(), AllocError> {
        let mut sys = ConstraintSystem::new(apps);
        let outcome = sys.push_row(ConstraintRow {
            element: None,
            capacity,
            entries,
        });
        if outcome.is_err() {
            assert!(sys.rows().is_empty(), "a rejected row is not kept");
        }
        outcome
    }

    #[test]
    fn push_row_rejects_a_column_past_the_arity() {
        assert_eq!(
            push(2, 1.0, vec![(0, 1.0), (2, 1.0)]),
            Err(AllocError::ColumnOutOfRange {
                column: 2,
                app_count: 2
            })
        );
    }

    #[test]
    fn push_row_rejects_a_nan_coefficient() {
        let err = push(2, 1.0, vec![(1, f64::NAN)]).unwrap_err();
        assert!(
            matches!(err, AllocError::BadCoefficient { column: 1, value } if value.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn push_row_rejects_a_negative_coefficient() {
        assert_eq!(
            push(2, 1.0, vec![(0, 1.0), (1, -2.0)]),
            Err(AllocError::BadCoefficient {
                column: 1,
                value: -2.0
            })
        );
    }

    #[test]
    fn push_row_rejects_an_infinite_coefficient() {
        assert_eq!(
            push(1, 1.0, vec![(0, f64::INFINITY)]),
            Err(AllocError::BadCoefficient {
                column: 0,
                value: f64::INFINITY
            })
        );
    }

    #[test]
    fn push_row_rejects_a_negative_capacity() {
        assert_eq!(
            push(1, -1.0, vec![(0, 1.0)]),
            Err(AllocError::BadCapacity(-1.0))
        );
    }

    #[test]
    fn push_row_rejects_a_nan_capacity() {
        let err = push(1, f64::NAN, vec![(0, 1.0)]).unwrap_err();
        assert!(
            matches!(err, AllocError::BadCapacity(c) if c.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn push_row_rejects_a_zero_coefficient_entry() {
        assert_eq!(
            push(2, 1.0, vec![(0, 0.0)]),
            Err(AllocError::BadCoefficient {
                column: 0,
                value: 0.0
            })
        );
    }

    #[test]
    fn push_row_rejects_unsorted_and_repeated_columns() {
        assert_eq!(
            push(3, 1.0, vec![(2, 1.0), (1, 1.0)]),
            Err(AllocError::UnsortedColumns { column: 1 })
        );
        assert_eq!(
            push(3, 1.0, vec![(1, 1.0), (1, 1.0)]),
            Err(AllocError::UnsortedColumns { column: 1 })
        );
    }

    #[test]
    fn solve_rejects_a_priority_count_mismatch() {
        let sys = system(2, &[(1.0, &[1.0, 1.0])]);
        let expect = Err(AllocError::LengthMismatch {
            what: "priorities",
            expected: 2,
            got: 1,
        });
        assert_eq!(solve(&sys, &[1.0], None), expect);
        assert_eq!(solve(&sys, &[1.0], Some(&[1.0, 1.0])), expect);
    }

    #[test]
    fn warm_solve_rejects_a_start_count_mismatch() {
        let sys = system(2, &[(1.0, &[1.0, 1.0])]);
        assert_eq!(
            solve(&sys, &[1.0, 1.0], Some(&[0.5, 0.5])),
            Err(AllocError::LengthMismatch {
                what: "start prices",
                expected: 1,
                got: 2
            })
        );
    }
}
