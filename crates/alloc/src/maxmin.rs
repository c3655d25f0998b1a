//! Weighted max-min fair rate allocation — an analysis to set beside the
//! paper's weighted proportional fairness.
//!
//! Max-min fairness raises every application's rate together (scaled by
//! its weight) until some constraint row saturates; the applications
//! binding there are frozen and the rest keep growing. The classic
//! *progressive filling* algorithm computes the exact allocation in at
//! most one pass per constraint row.
//!
//! Compared to proportional fairness (problem (4)): max-min protects the
//! weakest flow absolutely — no application can gain by starving the
//! minimum — at the cost of total utility. The system allocates by
//! proportional fairness only; max-min is computed over the same
//! constraint system (e.g. [`ConstraintSystem::from_loads`] of the live
//! placements) to compare the two.

use crate::num::{check_len, column_bottlenecks, AllocError, ConstraintRow, ConstraintSystem};

/// The result of a max-min fair allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxMinAllocation {
    /// Allocated rate per application.
    pub rates: Vec<f64>,
    /// The filling level at which each application froze (its rate
    /// divided by its weight).
    pub levels: Vec<f64>,
}

/// Computes the weighted max-min fair allocation by progressive filling.
///
/// Rates grow as `x_i = w_i · t` with a common level `t`; whenever a
/// row saturates, every application with positive coefficient there is
/// frozen at the current level.
///
/// # Errors
///
/// Mirrors the proportional-fair solver: [`AllocError::LengthMismatch`]
/// unless there is one weight per column, [`AllocError::Unbounded`] when
/// some application is never constrained, [`AllocError::Infeasible`]
/// when an application loads a zero-capacity row, and
/// [`AllocError::BadPriority`] for non-positive weights.
///
/// # Examples
///
/// One unit-capacity link shared by a light and a heavy user of equal
/// weight splits by *load*, not rate: with coefficients 1 and 3 the
/// fill stops at `t = 0.25`, giving both the same rate 0.25.
///
/// ```
/// use sparcle_alloc::maxmin::max_min_allocation;
/// use sparcle_alloc::num::{ConstraintRow, ConstraintSystem};
///
/// # fn main() -> Result<(), sparcle_alloc::num::AllocError> {
/// let mut sys = ConstraintSystem::new(2);
/// sys.push_row(ConstraintRow { element: None, capacity: 1.0, entries: vec![(0, 1.0), (1, 3.0)] })?;
/// let alloc = max_min_allocation(&sys, &[1.0, 1.0])?;
/// assert!((alloc.rates[0] - 0.25).abs() < 1e-9);
/// assert!((alloc.rates[1] - 0.25).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn max_min_allocation(
    system: &ConstraintSystem,
    weights: &[f64],
) -> Result<MaxMinAllocation, AllocError> {
    let n = system.app_count();
    check_len("weights", weights, system)?;
    for &w in weights {
        if !w.is_finite() || w <= 0.0 {
            return Err(AllocError::BadPriority(w));
        }
    }
    column_bottlenecks(system, &mut Vec::new())?;
    let rows = system.rows();

    let mut frozen = vec![false; n];
    let mut rates = vec![0.0; n];
    let mut levels = vec![0.0; n];
    let mut used: Vec<f64> = vec![0.0; rows.len()];
    let mut row_open: Vec<bool> = vec![true; rows.len()];
    let mut level = 0.0f64;
    // How fast a row's load grows with the level: the weights of its
    // unfrozen applications times their coefficients.
    let growth = |row: &ConstraintRow, frozen: &[bool]| -> f64 {
        row.entries
            .iter()
            .map(|&(i, c)| if frozen[i] { 0.0 } else { c * weights[i] })
            .sum()
    };
    while frozen.iter().any(|&f| !f) {
        // How much can the common level still grow before some open row
        // with growing (unfrozen) load saturates?
        let mut next: Option<(f64, usize)> = None;
        for (j, row) in rows.iter().enumerate() {
            if !row_open[j] {
                continue;
            }
            let growth = growth(row, &frozen);
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
            // No open row constrains the remaining apps — but we proved
            // every app is constrained, so all its rows must already be
            // saturated with zero slack; freeze the rest at the current
            // level.
            for i in 0..n {
                if !frozen[i] {
                    frozen[i] = true;
                    levels[i] = level;
                }
            }
            break;
        };
        level += delta;
        // Advance all unfrozen rates and row usages.
        for (j, row) in rows.iter().enumerate() {
            used[j] += growth(row, &frozen) * delta;
        }
        for i in 0..n {
            if !frozen[i] {
                rates[i] = weights[i] * level;
            }
        }
        // Freeze the apps loading the saturated row.
        row_open[saturating] = false;
        for &(i, _) in &rows[saturating].entries {
            if !frozen[i] {
                frozen[i] = true;
                levels[i] = level;
            }
        }
    }
    Ok(MaxMinAllocation { rates, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::solve;

    /// Rows from dense coefficients; zeros get no entry.
    fn system(rows: &[(f64, &[f64])], apps: usize) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(apps);
        for &(capacity, coeffs) in rows {
            let entries = coeffs
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c != 0.0)
                .collect();
            sys.push_row(ConstraintRow {
                element: None,
                capacity,
                entries,
            })
            .unwrap();
        }
        sys
    }

    fn used(row: &ConstraintRow, rates: &[f64]) -> f64 {
        row.entries.iter().map(|&(i, c)| c * rates[i]).sum()
    }

    #[test]
    fn equal_apps_split_evenly() {
        let sys = system(&[(2.0, &[1.0, 1.0])], 2);
        let a = max_min_allocation(&sys, &[1.0, 1.0]).unwrap();
        assert!((a.rates[0] - 1.0).abs() < 1e-12);
        assert!((a.rates[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_shares() {
        let sys = system(&[(3.0, &[1.0, 1.0])], 2);
        let a = max_min_allocation(&sys, &[2.0, 1.0]).unwrap();
        assert!((a.rates[0] - 2.0).abs() < 1e-12);
        assert!((a.rates[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classic_line_network_protects_the_long_flow() {
        // Flow 0 crosses both links; flows 1, 2 one each. Max-min gives
        // everyone 0.5 (proportional fairness gives the long flow 1/3).
        let sys = system(&[(1.0, &[1.0, 1.0, 0.0]), (1.0, &[1.0, 0.0, 1.0])], 3);
        let mm = max_min_allocation(&sys, &[1.0, 1.0, 1.0]).unwrap();
        assert!((mm.rates[0] - 0.5).abs() < 1e-9, "{:?}", mm.rates);
        assert!((mm.rates[1] - 0.5).abs() < 1e-9);
        assert!((mm.rates[2] - 0.5).abs() < 1e-9);
        let (pf, _) = solve(&sys, &[1.0, 1.0, 1.0], None).unwrap();
        assert!(
            mm.rates[0] > pf.rates[0],
            "max-min protects the long flow: {} vs {}",
            mm.rates[0],
            pf.rates[0]
        );
    }

    #[test]
    fn second_stage_fills_the_leftover() {
        // App 0 saturates a private tight row; app 1 keeps filling its
        // looser one.
        let sys = system(&[(1.0, &[1.0, 0.0]), (5.0, &[0.0, 1.0])], 2);
        let a = max_min_allocation(&sys, &[1.0, 1.0]).unwrap();
        assert!((a.rates[0] - 1.0).abs() < 1e-12);
        assert!((a.rates[1] - 5.0).abs() < 1e-12);
        assert!(a.levels[0] < a.levels[1]);
    }

    #[test]
    fn allocation_is_feasible_and_maximal() {
        let sys = system(
            &[
                (4.0, &[1.0, 2.0, 0.0]),
                (3.0, &[0.0, 1.0, 1.0]),
                (10.0, &[3.0, 0.0, 1.0]),
            ],
            3,
        );
        let a = max_min_allocation(&sys, &[1.0, 2.0, 0.5]).unwrap();
        for row in sys.rows() {
            assert!(used(row, &a.rates) <= row.capacity + 1e-9);
        }
        // Max-min maximality: every app is blocked by some saturated row.
        for i in 0..3 {
            let blocked = sys.rows().iter().any(|row| {
                row.entries.iter().any(|&(c, _)| c == i)
                    && (row.capacity - used(row, &a.rates)).abs() < 1e-9
            });
            assert!(blocked, "app {i} could still grow");
        }
    }

    #[test]
    fn errors_match_proportional_solver() {
        let sys = system(&[(1.0, &[1.0, 0.0])], 2);
        assert_eq!(
            max_min_allocation(&sys, &[1.0, 1.0]),
            Err(AllocError::Unbounded { app: 1 })
        );
        let sys = system(&[(0.0, &[1.0])], 1);
        assert_eq!(
            max_min_allocation(&sys, &[1.0]),
            Err(AllocError::Infeasible { app: 0 })
        );
        let sys = system(&[(1.0, &[1.0])], 1);
        assert_eq!(
            max_min_allocation(&sys, &[0.0]),
            Err(AllocError::BadPriority(0.0))
        );
    }

    /// Used to `assert_eq!` on the weight count.
    #[test]
    fn weight_count_mismatch_is_an_error() {
        let sys = system(&[(1.0, &[1.0, 1.0])], 2);
        assert_eq!(
            max_min_allocation(&sys, &[1.0]),
            Err(AllocError::LengthMismatch {
                what: "weights",
                expected: 2,
                got: 1
            })
        );
    }
}
