//! The NUM solver (`sparcle_alloc::num`) against the dense log-barrier
//! solver it grew out of (`sparcle_oracle::num`, kept verbatim): on
//! random sparse systems both must fail with the same errors, and every
//! answer of the production solver — cold, and warm from every kind of
//! start prices the system layer can hand in — must be certified the
//! optimum by its own KKT conditions (stationarity residual at most
//! 1e-9, capacity violation at most 1e-12, prices non-negative, every
//! priced row within 1e-9 of tight), with a utility no lower than the
//! oracle's feasible answer and rates within 1e-5 relative of it. The
//! oracle's barrier stops at `μ ≈ 6e-9 · max P`, which leaves its own
//! rates up to ~4e-6 off the optimum on about one random system in a
//! few thousand; the certificate is what pins the production answer.
//! A solve is a pure function of its inputs: repeats and solves on
//! other threads return the same bits, and a re-solve from the answer's
//! own prices takes no step and returns it bit for bit. Max-min is held
//! to its dense twin bitwise.

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

/// The most rows [`arb_system`] builds: 10 shared, 8 private.
const MAX_ROWS: usize = 18;

/// Row capacity: usually 1–100, one draw in forty exactly zero.
fn capacity() -> impl Strategy<Value = f64> {
    (0u8..40, 1.0f64..100.0).prop_map(|(zero, c)| if zero == 0 { 0.0 } else { c })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type Solved = Result<(Allocation, SolveStats), AllocError>;

/// Bitwise equality of two outcomes of the production solver.
fn identical(a: &Solved, b: &Solved) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok((a, sa)), Ok((b, sb))) => {
            prop_assert_eq!(sa, sb, "SolveStats");
            prop_assert_eq!(bits(&a.rates), bits(&b.rates), "rates");
            prop_assert_eq!(bits(&a.duals), bits(&b.duals), "duals");
            prop_assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "utility");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "one side failed: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// The production answer is the optimum the oracle's cold barrier
/// approximates: the same error, or an answer certified optimal by its
/// KKT conditions, at least as good as the oracle's and within 1e-5 of
/// its rates.
fn optimal(
    sys: &ConstraintSystem,
    prios: &[f64],
    solved: &Solved,
    oracle: &Solved,
) -> Result<(), TestCaseError> {
    match (solved, oracle) {
        (Ok((a, _)), Ok((o, _))) => {
            let kkt = a.kkt_residual(sys, prios);
            prop_assert!(kkt <= 1e-9, "KKT residual {kkt} of {a:?}");
            let over = a.feasibility_violation(sys);
            prop_assert!(over <= 1e-12, "capacity violation {over} of {a:?}");
            for (row, &price) in sys.rows().iter().zip(&a.duals) {
                let used: f64 = row.entries.iter().map(|&(i, c)| c * a.rates[i]).sum();
                prop_assert!(price >= 0.0, "negative price {price} in {a:?}");
                prop_assert!(
                    price == 0.0 || row.capacity - used <= 1e-9 * row.capacity,
                    "a priced row is slack: {used} of {} in {a:?}",
                    row.capacity
                );
            }
            prop_assert!(
                a.utility >= o.utility - 1e-12 * o.utility.abs().max(1.0),
                "utility {} below the oracle's {}",
                a.utility,
                o.utility
            );
            for (x, y) in a.rates.iter().zip(&o.rates) {
                prop_assert!(
                    (x - y).abs() <= 1e-5 * y.abs(),
                    "rates {:?} vs the oracle's {:?}",
                    a.rates,
                    o.rates
                );
            }
        }
        (Err(a), Err(o)) => prop_assert_eq!(a, o),
        _ => prop_assert!(false, "one side failed: {solved:?} vs {oracle:?}"),
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

    /// Cold, and warm from: garbage prices (NaN, ±∞, ≤ 0 mixed with
    /// usable entries, and all-unusable, which demotes to cold), the
    /// optimum's own prices, perturbed ones and ones 20× too high.
    #[test]
    fn every_answer_is_the_optimum(
        (sys, prios) in arb_system(),
        junk in proptest::collection::vec(
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(-1.0),
                Just(0.0),
                0.01f64..1e3,
            ],
            MAX_ROWS,
        ),
        jitter in proptest::collection::vec(0.5f64..1.5, MAX_ROWS),
    ) {
        let m = sys.rows().len();
        let oracle = DenseSolver::new().solve_with_stats(&DenseSystem::from_sparse(&sys), &prios);

        let cold = num::solve(&sys, &prios, None);
        optimal(&sys, &prios, &cold, &oracle)?;
        identical(&cold, &num::solve(&sys, &prios, None))?;
        let threaded = std::thread::scope(|scope| {
            scope.spawn(|| num::solve(&sys, &prios, None)).join().expect("no panic")
        });
        identical(&cold, &threaded)?;

        let optimum = match &cold {
            Ok((a, _)) => a.duals.clone(),
            Err(_) => vec![1.0; m],
        };
        if let Ok((answer, _)) = &cold {
            let again = num::solve(&sys, &prios, Some(&optimum));
            prop_assert_eq!(again.as_ref().map(|(_, s)| s.inner_iters), Ok(0));
            identical(&again, &Ok((answer.clone(), again.clone().expect("solved").1)))?;
        }
        identical(&num::solve(&sys, &prios, Some(&vec![0.0; m])), &cold)?;
        let starts = [
            junk[..m].to_vec(),
            vec![f64::NAN; m],
            optimum.iter().zip(&jitter).map(|(l, j)| l * j).collect(),
            optimum.iter().map(|l| l * 20.0).collect(),
        ];
        for start in &starts {
            let warm = num::solve(&sys, &prios, Some(start));
            optimal(&sys, &prios, &warm, &oracle)?;
            identical(&warm, &num::solve(&sys, &prios, Some(start)))?;
        }

        same_max_min(
            &max_min_allocation(&sys, &prios),
            &dense::max_min_allocation(&DenseSystem::from_sparse(&sys), &prios),
        )?;
    }
}
