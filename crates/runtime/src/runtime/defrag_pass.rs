//! The background defragmentation pass (DESIGN.md §15). It is an
//! `impl Timeline` block because its `runtime_migrate` events
//! interleave with the loop's own and re-key the loop's index maps.

use sparcle_core::telemetry::Event;
use sparcle_core::{MigrationCause, TraceHandle};

use super::{ChurnEvent, Timeline};
use crate::defrag::MOVE_COST;

impl Timeline {
    /// One background defragmentation pass (DESIGN.md §15). Reconcile
    /// repair always outranks optimization churn: the pass is skipped
    /// outright while displaced applications wait. A pass that does run:
    ///
    /// 1. **Probes** every live application with a rollback-only
    ///    [`sparcle_core::SystemTxn::migrate`] and scores the move by
    ///    the *system-wide* BE delivered-rate delta — per-app deltas
    ///    would miss moves whose value is the capacity they free for
    ///    everyone else (and would never move a GR app, whose own rate
    ///    is fixed at R_J wherever it sits).
    /// 2. **Selects greedily**: best probed gain first (arrival index
    ///    breaks ties), bounded by the epoch's displaced-seconds budget
    ///    (each commit consumes `MOVE_COST`).
    /// 3. **Re-validates and commits**: earlier commits shift the
    ///    allocation, so each selected move is re-probed against the
    ///    current state and committed only if still net-positive;
    ///    otherwise its transaction rolls back (outcome `"kept"`).
    ///
    /// Committed moves are charged to the [`SloLedger`] as planned
    /// churn (`record_migration`), re-keyed in the arrival-index maps
    /// (the index stays the stable identity across the new [`AppId`]),
    /// and emitted as `runtime_migrate` lifecycle events chained to the
    /// app's previous lifecycle hop.
    pub(super) fn on_defrag_tick(&mut self, t: f64, trace: TraceHandle<'_>) {
        let Some(d) = &self.defrag else {
            return;
        };
        let cfg = d.config().clone();
        let next = t + cfg.period;
        if next <= self.config.horizon {
            self.queue.schedule(next, ChurnEvent::DefragTick);
        }
        trace.counter("runtime.defrag_ticks", 1);
        if !self.pending.is_empty() {
            self.defrag.as_mut().expect("checked above").note_skip();
            return;
        }
        let pass_span = trace.span("runtime.defrag");
        let mut budget = self.defrag.as_mut().expect("checked above").begin_pass();
        // Probe phase (rollback-only; the system is bitwise untouched).
        let before = self.system.be_rate_total();
        let mut probes = 0u64;
        let mut candidates: Vec<(f64, u64)> = Vec::new();
        for (&index, &id) in &self.live {
            let mut txn = self.system.begin();
            let gain = match txn.migrate(id) {
                Some(o) if o.moved() => txn.system().be_rate_total() - before,
                _ => f64::NEG_INFINITY,
            };
            txn.rollback();
            probes += 1;
            if gain > cfg.min_gain {
                candidates.push((gain, index));
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        if !candidates.is_empty() {
            // A move may commit: integrate the ledger up to now on the
            // pre-move state.
            self.accrue(t);
        }
        // Commit phase: re-validate each selected move on the current
        // (post-earlier-commits) state, under the epoch budget.
        let mut moves = 0u64;
        for (_, index) in candidates {
            if budget < MOVE_COST {
                break;
            }
            let id = self.live[&index];
            let current = self.system.be_rate_total();
            let mut txn = self.system.begin();
            let outcome = txn.migrate(id).expect("live apps are placed");
            let committed =
                outcome.moved() && txn.system().be_rate_total() - current > cfg.min_gain;
            if committed {
                txn.commit();
            } else {
                txn.rollback();
            }
            let mut new_rate = outcome.old_rate;
            if committed {
                let new_id = outcome.new_id().expect("committed moves were admitted");
                self.live.insert(index, new_id);
                self.index_of.remove(&outcome.old_id);
                self.index_of.insert(new_id, index);
                // The move re-ran admission on the current capacities,
                // so a previously violated guarantee is fit again.
                self.violating.remove(&index);
                budget -= MOVE_COST;
                moves += 1;
                self.ledger.record_migration(MOVE_COST);
                new_rate = self.system.rate_of(new_id).unwrap_or(0.0);
            }
            if trace.is_enabled() {
                let prev = self.last_event.get(&index).copied().unwrap_or(0);
                let buf = [prev];
                let causes: &[u64] = if prev != 0 { &buf } else { &[] };
                let eid = trace.event_caused(
                    &Event::RuntimeMigrate {
                        time: t,
                        app: index as u32,
                        lineage: index,
                        outcome: if committed { "migrated" } else { "kept" },
                        old_rate: outcome.old_rate,
                        new_rate,
                        cause: MigrationCause::Defragmentation.code(),
                    },
                    causes,
                );
                if committed && eid != 0 {
                    self.last_event.insert(index, eid);
                }
            }
        }
        let d = self.defrag.as_mut().expect("checked above");
        d.note_probes(probes);
        d.note_moves(moves);
        trace.counter("runtime.defrag_passes", 1);
        trace.counter("runtime.defrag_moves", moves);
        pass_span.finish();
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::tests::{app_source, config, two_route_network};
    use crate::{DefragConfig, ReconcilePolicy, SparcleRuntime};
    use sparcle_workloads::ArrivalTrace;

    #[test]
    fn defrag_commits_budgeted_net_positive_moves() {
        // A churny run fragments placements across the two routes; the
        // defragmenter must find net-positive moves and stay inside its
        // displaced-seconds budget (asserted from the ledger alone).
        let run = |defrag: Option<DefragConfig>, threads: usize| {
            let mut cfg = config(ReconcilePolicy::Fifo, threads);
            cfg.horizon = 80.0;
            cfg.defrag = defrag;
            let arrivals = ArrivalTrace::Poisson { rate: 1.0 }.events(cfg.horizon, 42);
            let mut rt = SparcleRuntime::new(two_route_network(0.15), arrivals, app_source, cfg);
            rt.run();
            rt
        };
        let on = run(Some(DefragConfig::default()), 1);
        let d = on.defrag().expect("defrag was enabled");
        assert!(d.passes() > 0, "an 80 s run must fit several passes");
        assert!(d.probes() > 0, "passes must probe live apps");
        assert!(
            on.ledger().migrations() > 0,
            "a fragmented run must yield at least one net-positive move"
        );
        assert_eq!(on.ledger().migrations(), d.moves());
        // The budget invariant, from the ledger alone: every pass spends
        // at most one epoch's allowance.
        let budget = DefragConfig::default().budget_per_epoch;
        assert!(
            on.ledger().migration_displaced_seconds() <= d.passes() as f64 * budget + 1e-12,
            "displaced-seconds {} exceed {} passes × {} budget",
            on.ledger().migration_displaced_seconds(),
            d.passes(),
            budget
        );
        // Migrated apps stay fully registered: the system and the
        // arrival-index maps agree.
        assert_eq!(on.system().app_ids().len(), on.live_indices().len());
        // Planned moves never change the exogenous arrival volume
        // (displacement counts *may* differ: migrated apps sit on
        // different paths, so failure blast radii shift).
        let off = run(None, 1);
        assert_eq!(off.ledger().arrivals(), on.ledger().arrivals());
        assert_eq!(off.ledger().migrations(), 0);
    }

    #[test]
    fn defrag_is_deterministic_across_threads() {
        // Migration probes and commits go through the same transactional
        // core as admission: a defragmenting run stays a pure function
        // of the timeline across γ-evaluator thread counts.
        let run = |threads: usize| {
            let mut cfg = config(ReconcilePolicy::GammaProbe, threads);
            cfg.horizon = 60.0;
            cfg.defrag = Some(DefragConfig::default());
            let arrivals = ArrivalTrace::Poisson { rate: 1.0 }.events(cfg.horizon, 42);
            let mut rt = SparcleRuntime::new(two_route_network(0.15), arrivals, app_source, cfg);
            rt.run();
            (format!("{:?}", rt.ledger()), rt.ledger().migrations())
        };
        let (a, moves_a) = run(1);
        let (b, moves_b) = run(8);
        assert_eq!(a, b);
        assert_eq!(moves_a, moves_b);
    }
}
