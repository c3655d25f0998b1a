//! The sparse NUM kernel (`sparcle_alloc::num`) against the dense solver
//! it replaced (`sparcle_oracle::num`, kept verbatim): on random sparse
//! systems both must return the same rates, duals, utility and
//! `SolveStats` bit for bit — cold, and warm from every kind of start
//! the system layer can hand in — and the same errors. Max-min is held
//! to its dense twin the same way.

use proptest::prelude::*;
use sparcle_alloc::num::{
    self, AllocError, Allocation, ConstraintRow, ConstraintSystem, SolveStats,
};
use sparcle_alloc::{max_min_allocation, MaxMinAllocation};
use sparcle_oracle::num::{self as dense, DenseSolver, DenseSystem};

/// A coefficient: mostly an exact zero (no entry) or a well-scaled
/// load, sometimes one near the bottom of the normal range.
fn coeff() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.0),
        0.05f64..10.0,
        0.05f64..10.0,
        (1.0f64..10.0).prop_map(|c| c * 1e-300),
    ]
}

/// A random sparse system and priorities. Some applications get a
/// private row (so a single row binds them); a few rows are
/// zero-capacity, and some columns may end up unbound, so the error
/// paths are compared too.
fn arb_system() -> impl Strategy<Value = (ConstraintSystem, Vec<f64>)> {
    (1usize..=8, 0usize..=10)
        .prop_flat_map(|(apps, rows)| {
            let shared = proptest::collection::vec(
                (proptest::collection::vec(coeff(), apps), capacity()),
                rows,
            );
            let private = proptest::collection::vec(
                prop_oneof![
                    Just(None),
                    (0.05f64..10.0, capacity()).prop_map(Some),
                    (0.05f64..10.0, capacity()).prop_map(Some),
                ],
                apps,
            );
            let prios = proptest::collection::vec(0.1f64..5.0, apps);
            (Just(apps), shared, private, prios)
        })
        .prop_map(|(apps, shared, private, prios)| {
            let mut sys = ConstraintSystem::new(apps);
            let mut push = |capacity, entries| {
                sys.push_row(ConstraintRow {
                    element: None,
                    capacity,
                    entries,
                })
                .expect("valid row");
            };
            for (coeffs, capacity) in shared {
                let entries = coeffs.into_iter().enumerate().filter(|&(_, c)| c > 0.0);
                push(capacity, entries.collect());
            }
            for (i, row) in private.into_iter().enumerate() {
                if let Some((c, capacity)) = row {
                    push(capacity, vec![(i, c)]);
                }
            }
            (sys, prios)
        })
}

/// Row capacity: usually 1–100, one draw in forty exactly zero.
fn capacity() -> impl Strategy<Value = f64> {
    (0u8..40, 1.0f64..100.0).prop_map(|(zero, c)| if zero == 0 { 0.0 } else { c })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type Solved = Result<(Allocation, SolveStats), AllocError>;

/// Bitwise equality of two solver outcomes (NaN-safe, sign-of-zero
/// exact).
fn same(sparse: &Solved, dense: &Solved) -> Result<(), TestCaseError> {
    match (sparse, dense) {
        (Ok((a, sa)), Ok((b, sb))) => {
            prop_assert_eq!(sa, sb, "SolveStats");
            prop_assert_eq!(
                bits(&a.rates),
                bits(&b.rates),
                "rates {:?} vs {:?}",
                a.rates,
                b.rates
            );
            prop_assert_eq!(
                bits(&a.duals),
                bits(&b.duals),
                "duals {:?} vs {:?}",
                a.duals,
                b.duals
            );
            prop_assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "utility");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "one side failed: {sparse:?} vs {dense:?}"),
    }
    Ok(())
}

fn same_max_min(
    sparse: &Result<MaxMinAllocation, AllocError>,
    dense: &Result<MaxMinAllocation, AllocError>,
) -> Result<(), TestCaseError> {
    match (sparse, dense) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(bits(&a.rates), bits(&b.rates), "max-min rates");
            prop_assert_eq!(bits(&a.levels), bits(&b.levels), "max-min levels");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "one side failed: {sparse:?} vs {dense:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold, and warm from: garbage (NaN, ±∞, ≤ 0 mixed with usable
    /// entries, and all-unusable, which demotes to cold), the optimum,
    /// a perturbed optimum, and the optimum overloaded 20× (which runs
    /// the full schedule).
    #[test]
    fn sparse_kernel_is_bitwise_the_dense_solver(
        (sys, prios) in arb_system(),
        junk in proptest::collection::vec(
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(-1.0),
                Just(0.0),
                0.01f64..1e3,
            ],
            8,
        ),
        jitter in proptest::collection::vec(0.5f64..1.5, 8),
    ) {
        let n = sys.app_count();
        let oracle = DenseSystem::from_sparse(&sys);
        let reference = DenseSolver::new();

        let cold = num::solve(&sys, &prios, None);
        same(&cold, &reference.solve_with_stats(&oracle, &prios))?;

        let optimum = match &cold {
            Ok((a, _)) => a.rates.clone(),
            Err(_) => vec![1.0; n],
        };
        let starts = [
            junk[..n].to_vec(),
            vec![f64::NAN; n],
            vec![0.0; n],
            optimum.clone(),
            optimum.iter().zip(&jitter).map(|(x, j)| x * j).collect(),
            optimum.iter().map(|x| x * 20.0).collect(),
        ];
        for start in &starts {
            same(
                &num::solve(&sys, &prios, Some(start)),
                &reference.solve_warm_with_stats(&oracle, &prios, start),
            )?;
        }

        same_max_min(
            &max_min_allocation(&sys, &prios),
            &dense::max_min_allocation(&oracle, &prios),
        )?;
    }
}
