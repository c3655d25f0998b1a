//! The dense NUM solver the sparse [`sparcle_alloc::num`] kernel
//! replaced, kept verbatim as the reference it is differenced against
//! (`tests/solver_equivalence.rs`): every row carries one coefficient per
//! application, every Newton step and line-search trial walks the whole
//! matrix, and the Cholesky factor is a fresh `n × n` buffer.
//!
//! Results come back in `sparcle_alloc`'s own types, so a test compares
//! rates, duals, utility and [`SolveStats`] bit for bit.

use sparcle_alloc::num::{AllocError, Allocation, ConstraintSystem, SolveStats};
use sparcle_alloc::MaxMinAllocation;
use sparcle_model::{NetworkElement, ResourceKind};

/// One dense capacity row: `Σ_i coeffs[i] · x_i ≤ capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseRow {
    /// Which network element and resource kind this row models.
    pub element: Option<(NetworkElement, ResourceKind)>,
    /// Available capacity `C_j`.
    pub capacity: f64,
    /// Per-application load coefficients `R_ji`, zeros included.
    pub coeffs: Vec<f64>,
}

/// The dense constraint system `R X ≤ C`.
#[derive(Debug, Clone, Default)]
pub struct DenseSystem {
    rows: Vec<DenseRow>,
    app_count: usize,
}

impl DenseSystem {
    /// Creates an empty system for `app_count` applications.
    pub fn new(app_count: usize) -> Self {
        DenseSystem {
            rows: Vec::new(),
            app_count,
        }
    }

    /// The same system with every sparse row expanded to one coefficient
    /// per application.
    pub fn from_sparse(system: &ConstraintSystem) -> Self {
        let mut dense = DenseSystem::new(system.app_count());
        for row in system.rows() {
            let mut coeffs = vec![0.0; system.app_count()];
            for &(i, c) in &row.entries {
                coeffs[i] = c;
            }
            dense.push_row(DenseRow {
                element: row.element,
                capacity: row.capacity,
                coeffs,
            });
        }
        dense
    }

    /// Number of applications (columns).
    pub fn app_count(&self) -> usize {
        self.app_count
    }

    /// The accumulated rows.
    pub fn rows(&self) -> &[DenseRow] {
        &self.rows
    }

    /// Adds a raw constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` length differs from the app count or any value
    /// is negative/non-finite.
    pub fn push_row(&mut self, row: DenseRow) {
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
}

/// Log-barrier path-following solver for problem (4) over dense rows.
#[derive(Debug, Clone)]
pub struct DenseSolver {
    /// Initial barrier weight.
    mu0: f64,
    /// Barrier reduction factor per outer iteration.
    mu_shrink: f64,
    /// Outer iterations (final μ = mu0 · mu_shrink^outer).
    outer_iters: usize,
    /// Gradient-ascent steps per outer iteration.
    inner_iters: usize,
    /// Outer iterations used when warm-started.
    warm_outer_iters: usize,
}

impl Default for DenseSolver {
    fn default() -> Self {
        DenseSolver {
            mu0: 1.0,
            mu_shrink: 0.15,
            outer_iters: 11,
            inner_iters: 60,
            warm_outer_iters: 3,
        }
    }
}

impl DenseSolver {
    /// Creates a solver with the production schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves problem (4) cold.
    ///
    /// # Errors
    ///
    /// As [`sparcle_alloc::num::solve`].
    pub fn solve_with_stats(
        &self,
        system: &DenseSystem,
        priorities: &[f64],
    ) -> Result<(Allocation, SolveStats), AllocError> {
        self.solve_impl(system, priorities, None)
    }

    /// Solves problem (4) warm-started from `start`.
    ///
    /// # Errors
    ///
    /// As [`sparcle_alloc::num::solve`].
    pub fn solve_warm_with_stats(
        &self,
        system: &DenseSystem,
        priorities: &[f64],
        start: &[f64],
    ) -> Result<(Allocation, SolveStats), AllocError> {
        assert_eq!(start.len(), system.app_count(), "one start rate per app");
        self.solve_impl(system, priorities, Some(start))
    }

    fn solve_impl(
        &self,
        system: &DenseSystem,
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
        // no information — demote it to a cold solve.
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
                (x, worst <= 10.0)
            }
        };
        let mut u: Vec<f64> = x0.iter().map(|&x| x.max(1e-300).ln()).collect();

        let pscale = priorities.iter().cloned().fold(f64::MIN, f64::max);
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
    /// Returns the number of Newton steps attempted.
    fn maximize_barrier(
        &self,
        rows: &[DenseRow],
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

fn compute_slacks(rows: &[DenseRow], x: &[f64], slacks: &mut [f64]) {
    for (row, s) in rows.iter().zip(slacks.iter_mut()) {
        let used: f64 = row.coeffs.iter().zip(x).map(|(&c, &xi)| c * xi).sum();
        *s = row.capacity - used;
    }
}

fn barrier_value(rows: &[DenseRow], priorities: &[f64], mu: f64, u: &[f64], slacks: &[f64]) -> f64 {
    let mut v: f64 = priorities.iter().zip(u).map(|(&p, &ui)| p * ui).sum();
    for (_, &s) in rows.iter().zip(slacks) {
        if s <= 0.0 {
            return f64::NEG_INFINITY;
        }
        v += mu * s.ln();
    }
    v
}

/// Weighted max-min fair allocation by progressive filling over dense
/// rows — the reference for [`sparcle_alloc::max_min_allocation`].
///
/// # Errors
///
/// As [`sparcle_alloc::max_min_allocation`].
pub fn max_min_allocation(
    system: &DenseSystem,
    weights: &[f64],
) -> Result<MaxMinAllocation, AllocError> {
    let n = system.app_count();
    assert_eq!(weights.len(), n, "one weight per application");
    for &w in weights {
        if !w.is_finite() || w <= 0.0 {
            return Err(AllocError::BadPriority(w));
        }
    }
    let rows = system.rows();
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

    let mut frozen = vec![false; n];
    let mut rates = vec![0.0; n];
    let mut levels = vec![0.0; n];
    let mut used: Vec<f64> = vec![0.0; rows.len()];
    let mut row_open: Vec<bool> = rows.iter().map(|_| true).collect();
    let mut level = 0.0f64;
    while frozen.iter().any(|&f| !f) {
        let mut next: Option<(f64, usize)> = None;
        for (j, row) in rows.iter().enumerate() {
            if !row_open[j] {
                continue;
            }
            let growth: f64 = row
                .coeffs
                .iter()
                .zip(weights)
                .zip(&frozen)
                .map(|((&c, &w), &fr)| if fr { 0.0 } else { c * w })
                .sum();
            if growth <= 0.0 {
                continue;
            }
            let slack = row.capacity - used[j];
            let delta = slack / growth;
            if next.is_none_or(|(d, _)| delta < d) {
                next = Some((delta, j));
            }
        }
        let Some((delta, saturating)) = next else {
            for i in 0..n {
                if !frozen[i] {
                    frozen[i] = true;
                    levels[i] = level;
                }
            }
            break;
        };
        level += delta;
        for (j, row) in rows.iter().enumerate() {
            let growth: f64 = row
                .coeffs
                .iter()
                .zip(weights)
                .zip(&frozen)
                .map(|((&c, &w), &fr)| if fr { 0.0 } else { c * w })
                .sum();
            used[j] += growth * delta;
        }
        for i in 0..n {
            if !frozen[i] {
                rates[i] = weights[i] * level;
            }
        }
        row_open[saturating] = false;
        for i in 0..n {
            if !frozen[i] && rows[saturating].coeffs[i] > 0.0 {
                frozen[i] = true;
                levels[i] = level;
            }
        }
    }
    Ok(MaxMinAllocation { rates, levels })
}
