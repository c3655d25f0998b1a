//! Property-based tests for the allocation crate: NUM solver optimality
//! conditions, the single-bottleneck closed form, availability-analysis
//! consistency, and eq. (6) into a reused buffer.

use proptest::prelude::*;
use sparcle_alloc::availability::PathAvailability;
use sparcle_alloc::num::{solve, ConstraintRow, ConstraintSystem};
use sparcle_alloc::PriorityLoads;
use sparcle_model::{
    CapacityMap, LinkId, LoadMap, NcpId, NetworkBuilder, NetworkElement, ResourceKind, ResourceVec,
};

/// Strategy: a feasible random constraint system where every app is
/// constrained (diagonal safety rows guarantee it).
fn arb_system(
    max_apps: usize,
    max_rows: usize,
) -> impl Strategy<Value = (ConstraintSystem, Vec<f64>)> {
    (1..=max_apps, 0..=max_rows)
        .prop_flat_map(|(apps, rows)| {
            let row = proptest::collection::vec(0.0f64..10.0, apps);
            let all_rows = proptest::collection::vec((row, 1.0f64..100.0), rows);
            let prios = proptest::collection::vec(0.1f64..5.0, apps);
            let diag_caps = proptest::collection::vec(1.0f64..100.0, apps);
            (Just(apps), all_rows, prios, diag_caps)
        })
        .prop_map(|(apps, all_rows, prios, diag_caps)| {
            let mut sys = ConstraintSystem::new(apps);
            for (coeffs, capacity) in all_rows {
                let entries = coeffs.into_iter().enumerate().filter(|&(_, c)| c > 0.0);
                sys.push_row(ConstraintRow {
                    element: None,
                    capacity,
                    entries: entries.collect(),
                })
                .expect("valid row");
            }
            for (i, &cap) in diag_caps.iter().enumerate() {
                sys.push_row(ConstraintRow {
                    element: None,
                    capacity: cap,
                    entries: vec![(i, 1.0)],
                })
                .expect("valid row");
            }
            (sys, prios)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Solutions are strictly feasible and satisfy the KKT conditions.
    #[test]
    fn solver_is_feasible_and_stationary((sys, prios) in arb_system(6, 8)) {
        let (alloc, _) = solve(&sys, &prios, None).expect("diagonal rows make it solvable");
        prop_assert!(alloc.rates.iter().all(|&x| x > 0.0));
        prop_assert!(alloc.feasibility_violation(&sys) <= 1e-9);
        prop_assert!(
            alloc.kkt_residual(&sys, &prios) < 1e-3,
            "kkt {}",
            alloc.kkt_residual(&sys, &prios)
        );
        prop_assert!(alloc.duals.iter().all(|&l| l >= 0.0));
    }

    /// The solver's utility is never beaten by scaled perturbations of
    /// its own answer that remain feasible (local optimality probe).
    #[test]
    fn no_feasible_perturbation_improves(
        (sys, prios) in arb_system(4, 6),
        bump in 0usize..4,
        delta in -0.2f64..0.2,
    ) {
        let (alloc, _) = solve(&sys, &prios, None).unwrap();
        let i = bump % alloc.rates.len();
        let mut perturbed = alloc.rates.clone();
        perturbed[i] *= 1.0 + delta;
        // Feasible?
        let feasible = sys.rows().iter().all(|row| {
            let used: f64 = row.entries.iter().map(|&(i, c)| c * perturbed[i]).sum();
            used <= row.capacity
        });
        if feasible {
            let utility: f64 = prios
                .iter()
                .zip(&perturbed)
                .map(|(&p, &x)| p * x.ln())
                .sum();
            prop_assert!(
                utility <= alloc.utility + 1e-4 * alloc.utility.abs().max(1.0),
                "perturbation improved utility: {utility} > {}",
                alloc.utility
            );
        }
    }

    /// Doubling every priority leaves the optimal rates unchanged
    /// (scale invariance of weighted proportional fairness).
    #[test]
    fn priority_scale_invariance((sys, prios) in arb_system(5, 6)) {
        let (a, _) = solve(&sys, &prios, None).unwrap();
        let doubled: Vec<f64> = prios.iter().map(|p| 2.0 * p).collect();
        let (b, _) = solve(&sys, &doubled, None).unwrap();
        for (x, y) in a.rates.iter().zip(&b.rates) {
            prop_assert!((x - y).abs() / x.max(*y) < 1e-4, "{x} vs {y}");
        }
    }

    /// One row shared by every application has the closed form
    /// `x_i = P_i · C / (R_i · Σ P)` — the cross-check DESIGN.md §3
    /// names. Reached cold, and warm from the optimal price moved by up
    /// to 20 % (a bounded capacity change), to 1e-9 relative.
    #[test]
    fn single_shared_row_matches_the_closed_form(
        (coeffs, prios, jitter) in (1usize..=8).prop_flat_map(|apps| (
            proptest::collection::vec(0.1f64..10.0, apps),
            proptest::collection::vec(0.1f64..5.0, apps),
            proptest::collection::vec(0.8f64..1.2, apps),
        )),
        capacity in 1.0f64..100.0,
    ) {
        let mut sys = ConstraintSystem::new(coeffs.len());
        sys.push_row(ConstraintRow {
            element: None,
            capacity,
            entries: coeffs.iter().copied().enumerate().collect(),
        })
        .expect("valid row");
        let total: f64 = prios.iter().sum();
        let exact: Vec<f64> = prios
            .iter()
            .zip(&coeffs)
            .map(|(&p, &r)| p * capacity / (r * total))
            .collect();
        // The one row's price puts it exactly at capacity.
        let start = [total / capacity * jitter[0]];
        let (cold, _) = solve(&sys, &prios, None).unwrap();
        let (warm, _) = solve(&sys, &prios, Some(&start)).unwrap();
        for rates in [&cold.rates, &warm.rates] {
            for (x, e) in rates.iter().zip(&exact) {
                prop_assert!((x - e).abs() <= 1e-9 * e, "{x} vs closed form {e}");
            }
        }
    }

    /// Monte-Carlo availability converges to the exact inclusion–
    /// exclusion value on random overlapping path sets.
    #[test]
    fn monte_carlo_matches_exact(
        paths in proptest::collection::vec(
            (proptest::collection::vec((0u64..12, 0.0f64..0.4), 1..5), 0.1f64..5.0),
            1..5,
        ),
        seed in 0u64..1000,
    ) {
        let mut pa = PathAvailability::new();
        // Deduplicate per-path element keys (same key twice in one path
        // is legal but keep pf consistent by first-wins).
        let mut pf_of: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for (elems, rate) in &paths {
            let fixed: Vec<(u64, f64)> = elems
                .iter()
                .map(|&(k, p)| {
                    let pf = *pf_of.entry(k).or_insert(p);
                    (k, pf)
                })
                .collect();
            pa.add_path_raw(fixed, *rate).unwrap();
        }
        let exact = pa.any_working().unwrap();
        let mc = pa.monte_carlo_any(60_000, seed);
        prop_assert!((exact - mc).abs() < 0.015, "exact {exact} vs mc {mc}");
    }

    /// Min-rate availability is monotone in the threshold and coincides
    /// with any-working at threshold → 0⁺ and with the all-paths-up
    /// probability at the total rate.
    #[test]
    fn min_rate_monotonicity(
        paths in proptest::collection::vec(
            (proptest::collection::vec((0u64..10, 0.0f64..0.3), 1..4), 0.5f64..3.0),
            1..4,
        ),
    ) {
        let mut pa = PathAvailability::new();
        let mut pf_of: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        let mut total = 0.0;
        for (elems, rate) in &paths {
            let fixed: Vec<(u64, f64)> = elems
                .iter()
                .map(|&(k, p)| (k, *pf_of.entry(k).or_insert(p)))
                .collect();
            pa.add_path_raw(fixed, *rate).unwrap();
            total += rate;
        }
        let any = pa.any_working().unwrap();
        let tiny = pa.min_rate(1e-9).unwrap();
        prop_assert!((tiny - any).abs() < 1e-9, "tiny-threshold = any-working");
        let mut last = 1.0f64;
        for step in 0..=10 {
            let r = total * step as f64 / 10.0;
            let v = pa.min_rate(r).unwrap();
            prop_assert!(v <= last + 1e-9, "monotone: {v} after {last}");
            last = v;
        }
        // Exactly the total requires every path up.
        let all_up = pa.exactly_working((1 << paths.len()) - 1).unwrap()
            + {
                // Other exact sets cannot reach the total unless some
                // rate is zero (excluded by the strategy), so min_rate
                // at total equals P(all up).
                0.0
            };
        prop_assert!((pa.min_rate(total).unwrap() - all_up).abs() < 1e-9);
    }
}

/// Strategy: a line network of 2–6 NCPs with a residual base map (CPU,
/// sometimes memory, some amounts zero) and a priority tracker holding
/// 0–4 resident BE applications on random elements.
fn arb_prediction_input() -> impl Strategy<Value = (CapacityMap, PriorityLoads)> {
    (2usize..=6)
        .prop_flat_map(|n| {
            let amount = || prop_oneof![Just(0.0f64), 1e-3f64..1e4];
            // A memory amount only when the flag is 1.
            let ncps = proptest::collection::vec((amount(), 0u8..2, amount()), n);
            let links = proptest::collection::vec(0.0f64..1e4, n - 1);
            let resident = (proptest::collection::vec(0u8..2, 2 * n - 1), 0.1f64..5.0);
            (ncps, links, proptest::collection::vec(resident, 0..=4))
        })
        .prop_map(|(ncps, links, residents)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<_> = (0..ncps.len())
                .map(|i| b.add_ncp(format!("n{i}"), ResourceVec::cpu(1.0)))
                .collect();
            for w in ids.windows(2) {
                b.add_link("l", w[0], w[1], 1.0).expect("valid link");
            }
            let network = b.build().expect("non-empty network");
            let mut base = network.capacity_map();
            for (i, &(cpu, has_memory, memory)) in ncps.iter().enumerate() {
                let capacity = match has_memory {
                    1 => ResourceVec::cpu_memory(cpu, memory),
                    _ => ResourceVec::cpu(cpu),
                };
                base.set_element(NetworkElement::Ncp(NcpId::new(i as u32)), &capacity);
            }
            for (l, &bandwidth) in links.iter().enumerate() {
                base.set_link(LinkId::new(l as u32), bandwidth);
            }
            let mut tracker = PriorityLoads::zeroed(&network);
            for (on, priority) in residents {
                let mut load = LoadMap::zeroed(&network);
                for (e, _) in on.iter().enumerate().filter(|(_, &on)| on == 1) {
                    match e.checked_sub(ncps.len()) {
                        None => load.add_ct_load(NcpId::new(e as u32), &ResourceVec::cpu(1.0)),
                        Some(l) => load.add_tt_load(LinkId::new(l as u32), 1.0),
                    }
                }
                tracker.add_app(&load, priority);
            }
            (base, tracker)
        })
}

/// A capacity map's shape and every amount as its bits.
fn map_bits(map: &CapacityMap) -> (Vec<Vec<(ResourceKind, u64)>>, Vec<u64>) {
    let ncps = (0..map.ncp_count())
        .map(|i| {
            let capacity = map.ncp(NcpId::new(i as u32));
            capacity.iter().map(|(k, x)| (k, x.to_bits())).collect()
        })
        .collect();
    let links = (0..map.link_count())
        .map(|l| map.link(LinkId::new(l as u32)).to_bits())
        .collect();
    (ncps, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Eq. (6) into a dirty buffer — one last filled from another
    /// network's base and another priority — is `predict` to the bit.
    #[test]
    fn predict_into_a_dirty_buffer_is_predict_bitwise(
        (base, tracker) in arb_prediction_input(),
        priority in 0.1f64..5.0,
        (other_base, other_tracker) in arb_prediction_input(),
        other_priority in 0.1f64..5.0,
    ) {
        let mut buffer = CapacityMap::default();
        other_tracker.predict_into(&other_base, other_priority, &mut buffer);
        tracker.predict_into(&base, priority, &mut buffer);
        prop_assert_eq!(map_bits(&buffer), map_bits(&tracker.predict(&base, priority)));
    }
}
