//! Differential determinism suite for the cached/parallel γ evaluator.
//!
//! The placement engine promises (see `sparcle_core::engine` module docs)
//! that the incrementally-cached, optionally multi-threaded Algorithm-2
//! path commits *exactly* the placements of the uncached serial reference
//! scan — same CT→NCP mapping, same TT routes, bit-identical bottleneck
//! rate — for every worker-thread count. The reference scan is
//! `sparcle_oracle::assign_reference`: eq. (2) one pair at a time over
//! heap widest-path searches, sharing no cache, tree, thread or CSR
//! array with the engine. This suite holds production to it over a grid
//! of seeded random scenarios spanning every bottleneck regime,
//! task-graph family, and topology the workload generator produces.

mod common;

use common::{assert_matches_reference, assert_same_outcome};
use sparcle_core::DynamicRankingAssigner;
use sparcle_oracle::assign_reference;
use sparcle_workloads::Scenario;

fn scenario_grid() -> Vec<(String, Scenario)> {
    common::scenario_grid(0x5bac1e)
}

#[test]
fn cached_engine_matches_reference_at_every_thread_count() {
    let mut compared = 0;
    for (label, scenario) in scenario_grid() {
        let caps = scenario.network.capacity_map();
        if assert_matches_reference(&label, &scenario.app, &scenario.network, &caps) {
            compared += 1;
        }
    }
    assert!(compared >= 20, "too few feasible comparisons: {compared}");
}

/// TT routes specifically: `Placement` equality already covers them, but
/// route divergence is the likeliest failure mode of the shared
/// commit-time scratch, so check them one TT at a time with a pointed
/// message.
#[test]
fn tt_routes_are_identical_across_modes() {
    for (label, scenario) in scenario_grid().into_iter().take(8) {
        let caps = scenario.network.capacity_map();
        let reference = assign_reference(&scenario.app, &scenario.network, &caps)
            .expect("grid head scenarios are feasible");
        let cached = DynamicRankingAssigner::with_threads(8)
            .assign(&scenario.app, &scenario.network, &caps)
            .expect("grid head scenarios are feasible");
        for tt in scenario.app.graph().tt_ids() {
            assert_eq!(
                reference.placement.tt_route(tt),
                cached.placement.tt_route(tt),
                "{label}: route for {tt} diverged"
            );
        }
    }
}

/// The default assigner is the single-threaded one and must also agree
/// with the reference — this is what every other test and binary in
/// the workspace implicitly relies on.
#[test]
fn default_assigner_is_cached_and_equivalent() {
    assert_eq!(
        DynamicRankingAssigner::new(),
        DynamicRankingAssigner::with_threads(1)
    );
    for (label, scenario) in scenario_grid().into_iter().step_by(3) {
        let caps = scenario.network.capacity_map();
        let reference = assign_reference(&scenario.app, &scenario.network, &caps);
        let default = DynamicRankingAssigner::new().assign(&scenario.app, &scenario.network, &caps);
        assert_same_outcome(&label, &reference, &default, "default");
    }
}

/// Worker threads steal *trees*, so the determinism contract is proved
/// at that level: driving the engine round by round at 1, 2 and 8
/// threads yields the same picks with bit-identical γ, the same
/// always-compiled work counters — tree-store hits and misses, which
/// therefore cannot depend on who computed what — and a store that
/// passes the engine's from-scratch audit after every round and commit.
/// The grid must actually reach the stolen path (a round missing two or
/// more distinct trees) and the sharing path.
#[test]
fn tree_level_work_stealing_is_thread_count_independent() {
    use sparcle_core::PlacementEngine;
    let (mut shared, mut stolen) = (0, 0);
    for (label, scenario) in scenario_grid().into_iter().step_by(2) {
        let caps = scenario.network.capacity_map();
        let drive = |threads: usize| {
            let mut engine = PlacementEngine::new(&scenario.app, &scenario.network, &caps)
                .expect("grid pins are routable");
            let mut picks = Vec::new();
            let mut widest_round = 0;
            loop {
                let before = engine.stats().cache_misses;
                let Ok(Some((ct, host, gamma))) = engine.rank_round(threads) else {
                    break;
                };
                widest_round = widest_round.max(engine.stats().cache_misses - before);
                assert_eq!(engine.audit_caches(), Ok(()), "{label}: ranked {ct}");
                picks.push((ct, host, gamma.to_bits()));
                if engine.commit(ct, host).is_err() {
                    break;
                }
                assert_eq!(engine.audit_caches(), Ok(()), "{label}: committed {ct}");
            }
            (picks, engine.stats(), widest_round)
        };
        let (picks_1, stats_1, widest_round) = drive(1);
        for threads in [2, 8] {
            let (picks, stats, _) = drive(threads);
            assert_eq!(
                picks_1, picks,
                "{label}: picks diverged at {threads} threads"
            );
            assert_eq!(
                stats_1, stats,
                "{label}: counters diverged at {threads} threads"
            );
        }
        shared += u64::from(stats_1.cache_hits > 0);
        stolen += u64::from(widest_round >= 2);
    }
    assert!(shared > 0, "no scenario ever reused a stored tree");
    assert!(stolen > 0, "no round ever had two trees to steal");
}

/// The telemetry stream obeys the same contract as the placements: the
/// decision trace (candidate sets, chosen host, γ, tie-break reasons)
/// and every counter (commits, γ-cache hits/misses, witness
/// invalidations) must be identical whether trees are computed by one
/// worker thread, two or eight.
#[test]
fn decision_traces_and_counters_identical_across_thread_counts() {
    use sparcle_core::TraceHandle;
    use sparcle_telemetry::{CollectRecorder, Event};

    for (label, scenario) in scenario_grid().into_iter().take(8) {
        let caps = scenario.network.capacity_map();
        let run = |threads: usize| {
            let recorder = CollectRecorder::new();
            DynamicRankingAssigner::with_threads(threads)
                .assign_with_trace(
                    &scenario.app,
                    &scenario.network,
                    &caps,
                    TraceHandle::new(&recorder),
                )
                .expect("grid head scenarios are feasible");
            (recorder.events(), recorder.snapshot())
        };
        let (events_1, snap_1) = run(1);
        for threads in [2, 8] {
            let (events, snap) = run(threads);
            assert_eq!(
                events_1, events,
                "{label}: decision/commit event streams diverged at {threads} threads"
            );
            assert_eq!(
                snap_1.counters, snap.counters,
                "{label}: counters diverged at {threads} threads"
            );
        }
        // The streams must actually carry the assignment: one decision
        // per ranked CT, one commit per placed CT (ranked + pinned),
        // with live cache counters.
        let decisions = events_1
            .iter()
            .filter(|e| matches!(e, Event::Decision(_)))
            .count();
        let commits = events_1
            .iter()
            .filter(|e| matches!(e, Event::Commit(_)))
            .count();
        assert!(decisions > 0, "{label}: no decisions traced");
        assert!(
            commits >= decisions,
            "{label}: fewer commits ({commits}) than ranking rounds ({decisions})"
        );
        assert_eq!(snap_1.counter("engine.commits"), commits as u64, "{label}");
        assert!(
            snap_1.counter("gamma_cache.hits") + snap_1.counter("gamma_cache.misses") > 0,
            "{label}: γ-cache counters silent"
        );
    }
}

/// Infeasible instances must fail identically too: the cached scan's
/// `NoHostForCt` must name the same CT the reference scan stops at.
#[test]
fn infeasible_scenarios_fail_identically() {
    common::assert_island_sink_fails_identically(2);
}
