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
//! [`ProportionalFairSolver`] solves the problem with a log-barrier
//! path-following method in the variables `u_i = log x_i` (a geometric
//! program: the objective is linear in `u` and each constraint
//! `Σ_i R_ji e^{u_i} ≤ C_j` is convex), which is robust for the small,
//! dense systems that arise here (tens of applications, hundreds of
//! constraint rows). The KKT conditions of the original problem are
//! checked by [`Allocation::kkt_residual`].

use sparcle_model::{CapacityMap, LoadMap, Network, NetworkElement, ResourceKind};
use std::error::Error;
use std::fmt;

/// One capacity constraint row: `Σ_i coeffs[i] · x_i ≤ capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintRow {
    /// Which network element and resource kind this row models (for
    /// diagnostics; not used by the solver).
    pub element: Option<(NetworkElement, ResourceKind)>,
    /// Available capacity `C_j` (must be positive; zero-capacity rows
    /// with any positive coefficient make the problem infeasible).
    pub capacity: f64,
    /// Per-application load coefficients `R_ji` (non-negative).
    pub coeffs: Vec<f64>,
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

    /// Adds a raw constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` length differs from the app count or any value
    /// is negative/non-finite.
    pub fn push_row(&mut self, row: ConstraintRow) {
        assert_eq!(row.coeffs.len(), self.app_count, "coefficient arity");
        assert!(
            row.capacity.is_finite() && row.capacity >= 0.0,
            "capacity must be finite and non-negative"
        );
        assert!(
            row.coeffs.iter().all(|&c| c.is_finite() && c >= 0.0),
            "coefficients must be finite and non-negative"
        );
        // Rows with no load never bind.
        if row.coeffs.iter().any(|&c| c > 0.0) {
            self.rows.push(row);
        }
    }

    /// Builds the system from per-application [`LoadMap`]s over a network
    /// with the given available capacities: one row per (NCP, resource
    /// kind) with any load, one per link with any load.
    pub fn from_loads(
        network: &Network,
        capacities: &sparcle_model::CapacityMap,
        loads: &[&LoadMap],
    ) -> Self {
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
                let coeffs: Vec<f64> = loads.iter().map(|l| l.ncp(ncp).amount(kind)).collect();
                sys.push_row(ConstraintRow {
                    element: Some((NetworkElement::Ncp(ncp), kind)),
                    capacity: capacities.ncp(ncp).amount(kind),
                    coeffs,
                });
            }
        }
        for link in network.link_ids() {
            let coeffs: Vec<f64> = loads.iter().map(|l| l.link(link)).collect();
            sys.push_row(ConstraintRow {
                element: Some((NetworkElement::Link(link), ResourceKind::Bandwidth)),
                capacity: capacities.link(link),
                coeffs,
            });
        }
        sys
    }
}

/// A [`ConstraintSystem`] maintained incrementally as applications come
/// and go, without rebuilding the matrix from scratch per solve.
///
/// Rows are kept sorted by `(element, kind)` — exactly the emission
/// order of [`ConstraintSystem::from_loads`] (NCP rows ascending by id,
/// kinds sorted within each NCP, then link rows ascending) — and a row
/// is present iff at least one application has a strictly positive
/// coefficient on it (matching `from_loads`, whose all-zero rows are
/// dropped by [`ConstraintSystem::push_row`]). The wrapped system is
/// therefore **structurally identical** to a scratch `from_loads` over
/// the same load list: same rows in the same order, and each
/// coefficient is read through the same [`LoadMap`] accessor
/// `from_loads` uses, so no arithmetic drift is possible.
///
/// Row capacities are *not* tracked incrementally; call
/// [`Self::refresh_capacities`] with the live residual before each
/// solve.
#[derive(Debug, Clone, Default)]
pub struct IncrementalConstraints {
    system: ConstraintSystem,
    /// Per-row count of strictly positive coefficients; the row is
    /// dropped when this reaches zero.
    nonzero: Vec<usize>,
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

    fn row_key(row: &ConstraintRow) -> (NetworkElement, ResourceKind) {
        row.element
            .expect("incremental rows always carry their element key")
    }

    fn coeff(load: &LoadMap, element: NetworkElement, kind: ResourceKind) -> f64 {
        match element {
            NetworkElement::Ncp(id) => load.ncp(id).amount(kind),
            NetworkElement::Link(id) => load.link(id),
        }
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
        for (row, nz) in self.system.rows.iter_mut().zip(&mut self.nonzero) {
            let (element, kind) = row
                .element
                .expect("incremental rows always carry their element key");
            let c = Self::coeff(load, element, kind);
            row.coeffs.insert(col, c);
            if c > 0.0 {
                *nz += 1;
            }
        }
        // Create the rows this load binds that no resident app binds yet,
        // at their sorted position.
        for (element, kind, amount) in load.positive_entries() {
            let key = (element, kind);
            if let Err(pos) = self
                .system
                .rows
                .binary_search_by(|r| Self::row_key(r).cmp(&key))
            {
                let mut coeffs = vec![0.0; self.system.app_count];
                coeffs[col] = amount;
                self.system.rows.insert(
                    pos,
                    ConstraintRow {
                        element: Some(key),
                        // Placeholder; refresh_capacities runs before
                        // every solve.
                        capacity: 0.0,
                        coeffs,
                    },
                );
                self.nonzero.insert(pos, 1);
            }
        }
    }

    /// Removes the application column at `col`, shifting later columns
    /// left and dropping rows no surviving application binds.
    ///
    /// # Panics
    ///
    /// Panics if `col >= app_count()`.
    pub fn remove_app(&mut self, col: usize) {
        assert!(col < self.system.app_count, "column index in range");
        self.system.app_count -= 1;
        let mut i = 0;
        while i < self.system.rows.len() {
            let c = self.system.rows[i].coeffs.remove(col);
            if c > 0.0 {
                self.nonzero[i] -= 1;
            }
            if self.nonzero[i] == 0 {
                self.system.rows.remove(i);
                self.nonzero.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Copies the current capacity of every row's element out of `caps`,
    /// through the same accessors [`ConstraintSystem::from_loads`] uses.
    /// Call once before each solve so the rows see the live GR residual.
    pub fn refresh_capacities(&mut self, caps: &CapacityMap) {
        for row in &mut self.system.rows {
            let (element, kind) = row
                .element
                .expect("incremental rows always carry their element key");
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
    /// the allocation is (numerically) optimal.
    pub fn kkt_residual(&self, system: &ConstraintSystem, priorities: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, (&rate, &priority)) in self.rates.iter().zip(priorities).enumerate() {
            let grad = priority / rate;
            let price: f64 = system
                .rows()
                .iter()
                .zip(&self.duals)
                .map(|(row, &lambda)| lambda * row.coeffs[i])
                .sum();
            worst = worst.max((grad - price).abs() / grad.max(1e-300));
        }
        worst
    }

    /// Maximum relative constraint violation `max_j (R X − C)_j / C_j`
    /// (zero when strictly feasible).
    pub fn feasibility_violation(&self, system: &ConstraintSystem) -> f64 {
        let mut worst: f64 = 0.0;
        for row in system.rows() {
            let used: f64 = row
                .coeffs
                .iter()
                .zip(&self.rates)
                .map(|(&c, &x)| c * x)
                .sum();
            if row.capacity > 0.0 {
                worst = worst.max((used - row.capacity) / row.capacity);
            } else if used > 0.0 {
                worst = f64::INFINITY;
            }
        }
        worst
    }
}

/// Iteration accounting for one [`ProportionalFairSolver`] run.
///
/// Exposed so callers can report warm-start savings (a warm run executes
/// only the tail of the cold barrier schedule, so `outer_iters` and
/// `inner_iters` drop well below their cold counterparts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Outer (barrier-shrink) rounds executed.
    pub outer_iters: usize,
    /// Total damped-Newton steps taken across all rounds.
    pub inner_iters: usize,
    /// Whether the run reused a previous allocation as its start.
    pub warm_started: bool,
}

/// Log-barrier path-following solver for the weighted proportional-fair
/// allocation problem (4).
///
/// # Examples
///
/// Two applications sharing one unit-capacity link, one with twice the
/// priority of the other, split the capacity 2:1 (Theorem 3's
/// proportionality):
///
/// ```
/// use sparcle_alloc::num::{ConstraintRow, ConstraintSystem, ProportionalFairSolver};
///
/// # fn main() -> Result<(), sparcle_alloc::num::AllocError> {
/// let mut sys = ConstraintSystem::new(2);
/// sys.push_row(ConstraintRow { element: None, capacity: 1.0, coeffs: vec![1.0, 1.0] });
/// let alloc = ProportionalFairSolver::new().solve(&sys, &[2.0, 1.0])?;
/// assert!((alloc.rates[0] - 2.0 / 3.0).abs() < 1e-6);
/// assert!((alloc.rates[1] - 1.0 / 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProportionalFairSolver {
    /// Initial barrier weight.
    mu0: f64,
    /// Barrier reduction factor per outer iteration.
    mu_shrink: f64,
    /// Outer iterations (final μ = mu0 · mu_shrink^outer).
    outer_iters: usize,
    /// Gradient-ascent steps per outer iteration.
    inner_iters: usize,
    /// Outer iterations used when warm-started: the run executes only
    /// the **tail** of the cold μ schedule (the early high-μ rounds
    /// exist to walk a bad start onto the central path, which a warm
    /// start is already near), landing on the same final μ as a cold
    /// solve so duals and accuracy match.
    warm_outer_iters: usize,
}

impl Default for ProportionalFairSolver {
    fn default() -> Self {
        ProportionalFairSolver {
            mu0: 1.0,
            mu_shrink: 0.15,
            outer_iters: 11,
            inner_iters: 60,
            warm_outer_iters: 3,
        }
    }
}

impl ProportionalFairSolver {
    /// Creates a solver with default accuracy (KKT residual ≲ 1e-6 on
    /// well-scaled problems).
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves problem (4).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::BadPriority`] for non-positive priorities,
    /// [`AllocError::Unbounded`] when an application has no constraint,
    /// and [`AllocError::Infeasible`] when an application can never get a
    /// positive rate.
    pub fn solve(
        &self,
        system: &ConstraintSystem,
        priorities: &[f64],
    ) -> Result<Allocation, AllocError> {
        Ok(self.solve_impl(system, priorities, None)?.0)
    }

    /// Like [`Self::solve`], additionally returning iteration counts.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_with_stats(
        &self,
        system: &ConstraintSystem,
        priorities: &[f64],
    ) -> Result<(Allocation, SolveStats), AllocError> {
        self.solve_impl(system, priorities, None)
    }

    /// Like [`Self::solve`] but warm-started from a previous allocation
    /// (e.g. the last epoch's rates during capacity fluctuation). The
    /// start is scaled into the strictly feasible interior before the
    /// barrier iteration begins, so an infeasible or stale start is
    /// safe; the answer is the same optimum, typically reached in fewer
    /// inner iterations.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_warm(
        &self,
        system: &ConstraintSystem,
        priorities: &[f64],
        start: &[f64],
    ) -> Result<Allocation, AllocError> {
        Ok(self.solve_warm_with_stats(system, priorities, start)?.0)
    }

    /// Like [`Self::solve_warm`], additionally returning iteration
    /// counts.
    ///
    /// A `start` with no usable entry (nothing positive and finite)
    /// carries no information; such runs degrade to a cold solve whose
    /// result is **bitwise identical** to [`Self::solve`] and report
    /// `warm_started: false`. A start that is usable but wildly
    /// infeasible (worst row overloaded more than 10×) also reports
    /// `warm_started: false` and runs the full barrier schedule from
    /// the repaired start, since the fast tail-only schedule cannot
    /// recover from it.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_warm_with_stats(
        &self,
        system: &ConstraintSystem,
        priorities: &[f64],
        start: &[f64],
    ) -> Result<(Allocation, SolveStats), AllocError> {
        assert_eq!(start.len(), system.app_count(), "one start rate per app");
        self.solve_impl(system, priorities, Some(start))
    }

    fn solve_impl(
        &self,
        system: &ConstraintSystem,
        priorities: &[f64],
        start: Option<&[f64]>,
    ) -> Result<(Allocation, SolveStats), AllocError> {
        let n = system.app_count();
        assert_eq!(priorities.len(), n, "one priority per application");
        for &p in priorities {
            if !p.is_finite() || p <= 0.0 {
                return Err(AllocError::BadPriority(p));
            }
        }
        let rows = system.rows();
        // Sanity: every app must be constrained by a positive-capacity
        // row, and never by a zero-capacity one.
        for i in 0..n {
            let mut constrained = false;
            for row in rows {
                if row.coeffs[i] > 0.0 {
                    if row.capacity <= 0.0 {
                        return Err(AllocError::Infeasible { app: i });
                    }
                    constrained = true;
                }
            }
            if !constrained {
                return Err(AllocError::Unbounded { app: i });
            }
        }

        // A warm start with no usable (positive, finite) entry carries
        // no information — demote it to a cold solve so the result is
        // bitwise identical to `solve` (readmission of a lone BE app
        // with a zeroed rate relies on this exactness).
        let start = start.filter(|warm| warm.iter().any(|&w| w.is_finite() && w > 0.0));

        // Strictly feasible start: x_i = (1/2n) · min over binding rows
        // of C_j / R_ji — or the caller's warm start pulled into the
        // interior.
        let cold: Vec<f64> = (0..n)
            .map(|i| {
                let cap = rows
                    .iter()
                    .filter(|r| r.coeffs[i] > 0.0)
                    .map(|r| r.capacity / r.coeffs[i])
                    .fold(f64::INFINITY, f64::min);
                (cap / (2.0 * n as f64)).max(1e-12)
            })
            .collect();
        let (x0, warm_started): (Vec<f64>, bool) = match start {
            None => (cold, false),
            Some(warm) => {
                // Replace non-positive entries, then shrink uniformly
                // until every row has at least 10 % slack.
                let mut x: Vec<f64> = warm
                    .iter()
                    .zip(&cold)
                    .map(|(&w, &c)| if w.is_finite() && w > 0.0 { w } else { c })
                    .collect();
                let mut worst = 0.0f64;
                for row in rows {
                    let used: f64 = row.coeffs.iter().zip(&x).map(|(&c, &xi)| c * xi).sum();
                    if row.capacity > 0.0 {
                        worst = worst.max(used / row.capacity);
                    }
                }
                if worst > 0.9 {
                    let shrink = 0.9 / worst;
                    for xi in &mut x {
                        *xi *= shrink;
                    }
                }
                // The fast tail-only schedule is safe only for a start
                // that is already near-feasible (the previous optimum
                // after a bounded capacity change, or one new app next
                // to incumbents). A wildly overloaded start needs the
                // early high-μ rounds to walk back to the central path,
                // so it runs the full schedule instead.
                (x, worst <= 10.0)
            }
        };
        let mut u: Vec<f64> = x0.iter().map(|&x| x.max(1e-300).ln()).collect();

        let pscale = priorities.iter().cloned().fold(f64::MIN, f64::max);
        // Warm runs execute only the tail of the cold μ schedule; μ is
        // advanced to the tail's start by the same repeated
        // multiplication a cold run performs, so the μ sequence (and the
        // final μ the duals are scaled by) matches bitwise.
        let outer = if warm_started {
            self.warm_outer_iters.min(self.outer_iters)
        } else {
            self.outer_iters
        };
        let mut mu = self.mu0 * pscale;
        for _ in 0..self.outer_iters - outer {
            mu *= self.mu_shrink;
        }
        let mut slacks = vec![0.0; rows.len()];
        let mut inner_total = 0usize;
        for _ in 0..outer {
            inner_total += self.maximize_barrier(rows, priorities, mu, &mut u, &mut slacks);
            mu *= self.mu_shrink;
        }
        mu /= self.mu_shrink; // μ of the last completed solve

        let rates: Vec<f64> = u.iter().map(|&ui| ui.exp()).collect();
        // Dual estimate from the barrier: λ_j = μ / slack_j.
        compute_slacks(rows, &rates, &mut slacks);
        let duals: Vec<f64> = slacks.iter().map(|&s| mu / s.max(1e-300)).collect();
        let utility = priorities
            .iter()
            .zip(&rates)
            .map(|(&p, &x)| p * x.ln())
            .sum();
        Ok((
            Allocation {
                rates,
                duals,
                utility,
            },
            SolveStats {
                outer_iters: outer,
                inner_iters: inner_total,
                warm_started,
            },
        ))
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
    fn maximize_barrier(
        &self,
        rows: &[ConstraintRow],
        priorities: &[f64],
        mu: f64,
        u: &mut [f64],
        slacks: &mut [f64],
    ) -> usize {
        let n = u.len();
        let mut x: Vec<f64> = u.iter().map(|&ui| ui.exp()).collect();
        compute_slacks(rows, &x, slacks);
        let mut value = barrier_value(rows, priorities, mu, u, slacks);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n * n]; // stores −H (positive definite)
        let mut trial = vec![0.0; n];
        let mut trial_x = vec![0.0; n];
        let mut trial_slacks = vec![0.0; rows.len()];
        // Per-row sparse scratch: the (index, R_ji·x_i) pairs with a
        // nonzero product. Rebuilt each Newton step; index order matches
        // the dense loop, so every float is accumulated in the same
        // order and the result stays bitwise identical.
        let mut rx: Vec<(usize, f64)> = Vec::with_capacity(n);
        let pscale = priorities.iter().cloned().fold(f64::MIN, f64::max);
        let mut steps = 0usize;
        for _ in 0..self.inner_iters {
            for (g, &p) in grad.iter_mut().zip(priorities) {
                *g = p;
            }
            hess.iter_mut().for_each(|h| *h = 0.0);
            for (row, &s) in rows.iter().zip(slacks.iter()) {
                let s = s.max(1e-300);
                let w = mu / s;
                rx.clear();
                rx.extend(
                    row.coeffs
                        .iter()
                        .zip(&x)
                        .enumerate()
                        .filter_map(|(i, (&c, &xi))| {
                            let ri = c * xi;
                            (ri != 0.0).then_some((i, ri))
                        }),
                );
                for &(i, ri) in &rx {
                    grad[i] -= w * ri;
                    hess[i * n + i] += w * ri;
                    let hrow = &mut hess[i * n..(i + 1) * n];
                    for &(k, rk) in &rx {
                        hrow[k] += (w / s) * ri * rk;
                    }
                }
            }
            let gnorm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < 1e-11 * pscale {
                break;
            }
            steps += 1;
            // Newton direction d solves (−H) d = g.
            let dir = match cholesky_solve(&hess, &grad, n) {
                Some(d) => d,
                None => grad.clone(), // fall back to plain ascent
            };
            // Backtracking line search with feasibility guard.
            let mut t = 1.0;
            let mut improved = false;
            for _ in 0..60 {
                for i in 0..n {
                    trial[i] = u[i] + t * dir[i];
                    trial_x[i] = trial[i].exp();
                }
                compute_slacks(rows, &trial_x, &mut trial_slacks);
                if trial_slacks.iter().all(|&s| s > 0.0) {
                    let v = barrier_value(rows, priorities, mu, &trial, &trial_slacks);
                    if v > value {
                        u.copy_from_slice(&trial);
                        x.copy_from_slice(&trial_x);
                        slacks.copy_from_slice(&trial_slacks);
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
}

/// Solves `A d = b` for symmetric positive-definite `A` (row-major,
/// `n × n`) by Cholesky factorization. Returns `None` if `A` is not
/// numerically positive definite.
fn cholesky_solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    // Factor A = L Lᵀ.
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // Back substitution: Lᵀ d = y.
    let mut d = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * d[k];
        }
        d[i] = sum / l[i * n + i];
    }
    Some(d)
}

fn compute_slacks(rows: &[ConstraintRow], x: &[f64], slacks: &mut [f64]) {
    for (row, s) in rows.iter().zip(slacks.iter_mut()) {
        let used: f64 = row.coeffs.iter().zip(x).map(|(&c, &xi)| c * xi).sum();
        *s = row.capacity - used;
    }
}

fn barrier_value(
    rows: &[ConstraintRow],
    priorities: &[f64],
    mu: f64,
    u: &[f64],
    slacks: &[f64],
) -> f64 {
    let mut v: f64 = priorities.iter().zip(u).map(|(&p, &ui)| p * ui).sum();
    for (_, &s) in rows.iter().zip(slacks) {
        if s <= 0.0 {
            return f64::NEG_INFINITY;
        }
        v += mu * s.ln();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(rows: Vec<(f64, Vec<f64>)>, prios: &[f64]) -> Allocation {
        let mut sys = ConstraintSystem::new(prios.len());
        for (capacity, coeffs) in rows {
            sys.push_row(ConstraintRow {
                element: None,
                capacity,
                coeffs,
            });
        }
        ProportionalFairSolver::new().solve(&sys, prios).unwrap()
    }

    #[test]
    fn single_app_fills_its_bottleneck() {
        let a = solve(vec![(10.0, vec![2.0]), (6.0, vec![1.0])], &[1.0]);
        // min(10/2, 6/1) = 5.
        assert!((a.rates[0] - 5.0).abs() < 1e-5, "rate = {}", a.rates[0]);
    }

    #[test]
    fn equal_priorities_split_evenly() {
        let a = solve(vec![(1.0, vec![1.0, 1.0])], &[1.0, 1.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-6);
        assert!((a.rates[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn priorities_give_proportional_shares() {
        let a = solve(vec![(3.0, vec![1.0, 1.0, 1.0])], &[1.0, 2.0, 3.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-5);
        assert!((a.rates[1] - 1.0).abs() < 1e-5);
        assert!((a.rates[2] - 1.5).abs() < 1e-5);
    }

    #[test]
    fn independent_constraints_decouple() {
        let a = solve(
            vec![(4.0, vec![1.0, 0.0]), (10.0, vec![0.0, 5.0])],
            &[1.0, 7.0],
        );
        assert!((a.rates[0] - 4.0).abs() < 1e-5);
        assert!((a.rates[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn classic_three_flow_line_network() {
        // Flow 0 crosses both links; flows 1 and 2 cross one each
        // (capacity 1). Proportional fairness gives x0 = 1/3, x1 = x2 =
        // 2/3 for equal priorities.
        let a = solve(
            vec![(1.0, vec![1.0, 1.0, 0.0]), (1.0, vec![1.0, 0.0, 1.0])],
            &[1.0, 1.0, 1.0],
        );
        assert!((a.rates[0] - 1.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
        assert!((a.rates[1] - 2.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
        assert!((a.rates[2] - 2.0 / 3.0).abs() < 1e-4, "{:?}", a.rates);
    }

    #[test]
    fn kkt_residual_is_small() {
        let mut sys = ConstraintSystem::new(3);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 2.0,
            coeffs: vec![1.0, 2.0, 0.5],
        });
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 5.0,
            coeffs: vec![0.0, 1.0, 4.0],
        });
        let prios = [1.0, 2.0, 0.5];
        let a = ProportionalFairSolver::new().solve(&sys, &prios).unwrap();
        assert!(a.feasibility_violation(&sys) <= 1e-9, "feasible");
        assert!(
            a.kkt_residual(&sys, &prios) < 1e-3,
            "kkt = {}",
            a.kkt_residual(&sys, &prios)
        );
    }

    #[test]
    fn unconstrained_app_is_rejected() {
        let mut sys = ConstraintSystem::new(2);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 1.0,
            coeffs: vec![1.0, 0.0],
        });
        let err = ProportionalFairSolver::new().solve(&sys, &[1.0, 1.0]);
        assert_eq!(err, Err(AllocError::Unbounded { app: 1 }));
    }

    #[test]
    fn zero_capacity_with_load_is_infeasible() {
        let mut sys = ConstraintSystem::new(1);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 0.0,
            coeffs: vec![1.0],
        });
        let err = ProportionalFairSolver::new().solve(&sys, &[1.0]);
        assert_eq!(err, Err(AllocError::Infeasible { app: 0 }));
    }

    #[test]
    fn bad_priority_is_rejected() {
        let mut sys = ConstraintSystem::new(1);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 1.0,
            coeffs: vec![1.0],
        });
        let err = ProportionalFairSolver::new().solve(&sys, &[-1.0]);
        assert_eq!(err, Err(AllocError::BadPriority(-1.0)));
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let mut sys = ConstraintSystem::new(3);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 2.0,
            coeffs: vec![1.0, 2.0, 0.5],
        });
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 5.0,
            coeffs: vec![0.5, 1.0, 4.0],
        });
        let prios = [1.0, 2.0, 0.5];
        let solver = ProportionalFairSolver::new();
        let cold = solver.solve(&sys, &prios).unwrap();
        // Warm start from the optimum itself.
        let warm = solver.solve_warm(&sys, &prios, &cold.rates).unwrap();
        for (a, b) in cold.rates.iter().zip(&warm.rates) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // Warm start from garbage (infeasible and non-positive entries).
        let garbage = [1e9, -3.0, f64::NAN];
        let fixed = solver.solve_warm(&sys, &prios, &garbage).unwrap();
        for (a, b) in cold.rates.iter().zip(&fixed.rates) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn utility_matches_rates() {
        let a = solve(vec![(1.0, vec![1.0, 1.0])], &[1.0, 1.0]);
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
        let cpu_row = sys
            .rows()
            .iter()
            .find(|r| r.element == Some((sparcle_model::NetworkElement::Ncp(x), ResourceKind::Cpu)))
            .expect("x cpu row");
        assert_eq!(cpu_row.capacity, 100.0);
        assert_eq!(cpu_row.coeffs, vec![10.0, 0.0]);
        let mem_row = sys
            .rows()
            .iter()
            .find(|r| {
                r.element == Some((sparcle_model::NetworkElement::Ncp(x), ResourceKind::Memory))
            })
            .expect("x memory row");
        assert_eq!(mem_row.capacity, 50.0);
        assert_eq!(mem_row.coeffs, vec![5.0, 0.0]);
        let link_row = sys
            .rows()
            .iter()
            .find(|r| {
                r.element
                    == Some((
                        sparcle_model::NetworkElement::Link(LinkId::new(0)),
                        ResourceKind::Bandwidth,
                    ))
            })
            .expect("link row");
        assert_eq!(link_row.coeffs, vec![8.0, 0.0]);

        // Solving the system matches the hand-derived optimum: app A is
        // bound by the link (40/8 = 5), app B by y's cpu (80/4 = 20).
        let alloc = ProportionalFairSolver::new()
            .solve(&sys, &[1.0, 1.0])
            .unwrap();
        assert!((alloc.rates[0] - 5.0).abs() < 1e-4, "{:?}", alloc.rates);
        assert!((alloc.rates[1] - 20.0).abs() < 1e-3, "{:?}", alloc.rates);
    }

    #[test]
    fn warm_start_stats_show_iteration_savings() {
        let mut sys = ConstraintSystem::new(3);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 2.0,
            coeffs: vec![1.0, 2.0, 0.5],
        });
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 5.0,
            coeffs: vec![0.5, 1.0, 4.0],
        });
        let prios = [1.0, 2.0, 0.5];
        let solver = ProportionalFairSolver::new();
        let (cold, cold_stats) = solver.solve_with_stats(&sys, &prios).unwrap();
        assert!(!cold_stats.warm_started);
        assert_eq!(cold_stats.outer_iters, 11);
        let (warm, warm_stats) = solver
            .solve_warm_with_stats(&sys, &prios, &cold.rates)
            .unwrap();
        assert!(warm_stats.warm_started);
        assert_eq!(warm_stats.outer_iters, 3);
        assert!(
            warm_stats.inner_iters < cold_stats.inner_iters,
            "warm {} vs cold {}",
            warm_stats.inner_iters,
            cold_stats.inner_iters
        );
        for (a, b) in cold.rates.iter().zip(&warm.rates) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn useless_warm_start_is_bitwise_identical_to_cold() {
        // No positive finite entry ⇒ the warm path must degrade to the
        // exact cold solve (the system layer relies on this when a BE
        // app is readmitted with a zeroed rate as the only resident).
        let mut sys = ConstraintSystem::new(2);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 3.0,
            coeffs: vec![1.0, 2.0],
        });
        let prios = [1.0, 4.0];
        let solver = ProportionalFairSolver::new();
        let cold = solver.solve(&sys, &prios).unwrap();
        for start in [[0.0, 0.0], [0.0, -1.0], [f64::NAN, f64::INFINITY]] {
            let (warm, stats) = solver.solve_warm_with_stats(&sys, &prios, &start).unwrap();
            assert!(!stats.warm_started);
            assert_eq!(cold.rates, warm.rates);
            assert_eq!(cold.duals, warm.duals);
            assert_eq!(cold.utility, warm.utility);
        }
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
    fn all_zero_coeff_rows_are_dropped() {
        let mut sys = ConstraintSystem::new(1);
        sys.push_row(ConstraintRow {
            element: None,
            capacity: 1.0,
            coeffs: vec![0.0],
        });
        assert!(sys.rows().is_empty());
    }
}
