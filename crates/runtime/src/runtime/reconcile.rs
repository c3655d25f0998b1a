//! The reconcile pass: re-places displaced applications in the order
//! the [`ReconcilePolicy`] decides — exact reinstatement first, a fresh
//! admission otherwise — and emits their `runtime_readmit` /
//! `runtime_probe` / `runtime_reconcile` lifecycle events. An
//! `impl Timeline` block: a re-placement resubmits the displaced
//! application it kept, so the pass never needs the source.

use sparcle_core::telemetry::Event;
use sparcle_core::{Admission, DisplacedApp, RejectCause, TraceHandle};
use sparcle_model::Placement;

use super::{PendingApp, Timeline};
use crate::policy::ReconcilePolicy;

impl Timeline {
    /// `true` when any path of the displaced placement crosses a downed
    /// element — exact reinstatement is pointless, go straight to a
    /// fresh placement search.
    fn placement_touches_down(&self, displaced: &DisplacedApp) -> bool {
        if self.down.is_empty() {
            return false;
        }
        let network = self.system.network();
        let crosses = |placement: &Placement| {
            placement
                .elements_used(network)
                .iter()
                .any(|e| self.down.contains(e))
        };
        match displaced {
            DisplacedApp::Gr(a) => a.paths.iter().any(|(p, _)| crosses(&p.placement)),
            DisplacedApp::Be(a) => a.paths.iter().any(|p| crosses(&p.placement)),
        }
    }

    pub(super) fn on_reconcile(&mut self, t: f64, cause: f64, trace: TraceHandle<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let reconcile_span = trace.span("runtime.reconcile");
        let mut batch = std::mem::take(&mut self.pending);
        if self.config.policy == ReconcilePolicy::GammaProbe {
            self.order_by_probe(&mut batch, t, trace);
        } else {
            self.config.policy.order(&mut batch);
        }
        let (mut restored, mut replaced, mut failed) = (0u64, 0u64, 0u64);
        // Provenance ids of the lifecycle events (displacements) this
        // pass is resolving — the aggregate reconcile event links back
        // to all of them.
        let mut pass_causes: Vec<u64> = Vec::new();
        for mut p in batch {
            let prev = {
                let prev = self.last_event.get(&p.index).copied().unwrap_or(0);
                if prev != 0 {
                    pass_causes.push(prev);
                }
                prev
            };
            // Cheap path first: reinstate the preserved placement (no γ
            // evaluation) unless it crosses a still-downed element.
            if !self.placement_touches_down(&p.displaced) {
                match self.system.try_readmit(p.displaced) {
                    Ok(id) => {
                        restored += 1;
                        self.register(p.index, id);
                        self.ledger.record_restore(t - p.since);
                        self.emit_readmit(
                            trace,
                            t,
                            p.index,
                            "restored",
                            self.system.rate_of(id).unwrap_or(0.0),
                            None,
                            prev,
                        );
                        continue;
                    }
                    // Ownership comes back on rejection; fall through to
                    // the fresh-placement path.
                    Err((displaced, _)) => p.displaced = displaced,
                }
            }
            // Full re-placement: a fresh admission pipeline run on the
            // current capacities (a new id; the arrival index stays the
            // stable identity). An `Err` depends on the path found, not
            // on the application — the only detour left may cross more
            // elements than the availability analyser accepts — so, as
            // in `on_arrival`, it is this attempt's failure and the
            // app waits for the next pass.
            let cause = match self.system.submit(p.displaced.application_arc()) {
                Ok(Admission::Admitted(id)) => {
                    replaced += 1;
                    self.register(p.index, id);
                    self.ledger.record_replacement(t - p.since);
                    self.emit_readmit(
                        trace,
                        t,
                        p.index,
                        "replaced",
                        self.system.rate_of(id).unwrap_or(0.0),
                        None,
                        prev,
                    );
                    continue;
                }
                Ok(Admission::Rejected(reason)) => reason.cause_code(),
                Err(_) => RejectCause::SubmitError.code(),
            };
            failed += 1;
            self.emit_readmit(trace, t, p.index, "failed", 0.0, Some(cause), prev);
            self.pending.push(p);
        }
        self.ledger.record_reconcile();
        trace.counter("runtime.reconciles", 1);
        if trace.is_enabled() {
            pass_causes.sort_unstable();
            pass_causes.dedup();
            trace.event_caused(
                &Event::RuntimeReconcile {
                    time: t,
                    policy: self.config.policy.label(),
                    restored,
                    replaced,
                    failed,
                    latency: t - cause,
                },
                &pass_causes,
            );
        }
        reconcile_span.finish();
    }

    /// Emits one `runtime_readmit` lifecycle event linking back to the
    /// app's previous lifecycle hop, and advances the lineage cursor.
    #[allow(clippy::too_many_arguments)]
    fn emit_readmit(
        &mut self,
        trace: TraceHandle<'_>,
        t: f64,
        index: u64,
        outcome: &'static str,
        rate: f64,
        cause: Option<&'static str>,
        prev: u64,
    ) {
        if !trace.is_enabled() {
            return;
        }
        let buf = [prev];
        let causes: &[u64] = if prev != 0 { &buf } else { &[] };
        let id = trace.event_caused(
            &Event::RuntimeReadmit {
                time: t,
                app: index as u32,
                lineage: index,
                outcome,
                rate,
                cause,
            },
            causes,
        );
        if id != 0 {
            self.last_event.insert(index, id);
        }
    }

    /// Orders the displaced batch by what-if probes: each application is
    /// submitted inside a rollback-only transaction and the rate it
    /// would get *on the current capacities* is read before the
    /// transaction unwinds — the system (rates, residuals, and the id
    /// counter included) is left bitwise untouched. Highest probed rate
    /// first; failed probes last; ties fall back to the arrival index.
    ///
    /// With a recorder attached, each probe's counterfactual answer
    /// is emitted as a `runtime_probe` event linked to the app's latest
    /// lifecycle event — the what-if results `sparcle-trace explain`
    /// attaches to the timeline.
    fn order_by_probe(&mut self, batch: &mut Vec<PendingApp>, t: f64, trace: TraceHandle<'_>) {
        let mut keyed: Vec<(f64, PendingApp)> = batch
            .drain(..)
            .map(|p| {
                let mut txn = self.system.begin();
                let probed = match txn.submit(p.displaced.application_arc()) {
                    Ok(Admission::Admitted(_)) => {
                        if p.displaced.is_gr() {
                            // A GR admission guarantees exactly R_J.
                            p.displaced.displaced_rate()
                        } else {
                            txn.system()
                                .be_apps()
                                .last()
                                .map_or(f64::NEG_INFINITY, |a| a.allocated_rate)
                        }
                    }
                    _ => f64::NEG_INFINITY,
                };
                txn.rollback();
                if trace.is_enabled() {
                    let feasible = probed > f64::NEG_INFINITY;
                    let prev = self.last_event.get(&p.index).copied().unwrap_or(0);
                    let buf = [prev];
                    let causes: &[u64] = if prev != 0 { &buf } else { &[] };
                    trace.event_caused(
                        &Event::RuntimeProbe {
                            time: t,
                            app: p.index as u32,
                            lineage: p.index,
                            feasible,
                            rate: if feasible { probed } else { 0.0 },
                        },
                        causes,
                    );
                }
                (probed, p)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.index.cmp(&b.1.index)));
        batch.extend(keyed.into_iter().map(|(_, p)| p));
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::tests::{app_source, run_once, targeted_be};
    use crate::{ReconcilePolicy, RuntimeConfig, SparcleRuntime};
    use sparcle_core::telemetry::Event;
    use sparcle_core::TraceHandle;
    use sparcle_model::{Application, LinkDirection, NcpId, NetworkBuilder, ResourceVec};
    use sparcle_workloads::graphs::linear_task_graph;
    use sparcle_workloads::ArrivalEvent;

    #[test]
    fn policies_share_the_same_timeline_volume() {
        // Policies reorder re-placement, never the exogenous events.
        let a = run_once(ReconcilePolicy::Fifo, 1);
        let b = run_once(ReconcilePolicy::Priority, 1);
        assert_eq!(a.arrivals(), b.arrivals());
        assert_eq!(a.displacements(), b.displacements());
    }

    #[test]
    fn gamma_probe_policy_is_deterministic_across_threads() {
        // The probe transactions must roll back exactly: a probing run
        // is a pure function of the timeline, including across γ
        // evaluator thread counts.
        let a = run_once(ReconcilePolicy::GammaProbe, 1);
        let b = run_once(ReconcilePolicy::GammaProbe, 8);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // And probing never changes the exogenous event volume.
        let c = run_once(ReconcilePolicy::GammaImpact, 1);
        assert_eq!(a.arrivals(), c.arrivals());
        assert_eq!(a.displacements(), c.displacements());
    }

    /// Regression: whether `submit` errs depends on the path found, not
    /// on the application (given that it asks for an availability). On
    /// an 80-NCP ring whose source and sink share one flaky direct link,
    /// the app is admitted over the link; once
    /// the link fails the only detour crosses 80 NCPs and 79 links —
    /// past the availability analyser's 128 elements. Reconcile used to
    /// panic there; the app stays pending until the link recovers.
    #[test]
    fn submit_error_in_reconcile_leaves_the_app_pending() {
        const RING: u32 = 80;
        let mut b = NetworkBuilder::new();
        for n in 0..RING {
            b.add_ncp(format!("n{n}"), ResourceVec::cpu(1000.0));
        }
        b.add_link_full(
            "direct",
            NcpId::new(0),
            NcpId::new(1),
            1e4,
            LinkDirection::Undirected,
            0.3,
        )
        .unwrap();
        for n in 1..RING {
            b.add_link(
                format!("ring{n}"),
                NcpId::new(n),
                NcpId::new((n + 1) % RING),
                1e4,
            )
            .unwrap();
        }
        let source = |_| {
            let graph = linear_task_graph(&[50.0], &[1000.0, 500.0]).unwrap();
            let (src, sink) = (graph.sources()[0], graph.sinks()[0]);
            Application::new(
                graph,
                targeted_be(),
                [(src, NcpId::new(0)), (sink, NcpId::new(1))],
            )
            .unwrap()
        };
        let arrivals = [ArrivalEvent {
            time: 0.5,
            index: 0,
        }];
        let cfg = RuntimeConfig {
            horizon: 30.0,
            mean_hold: 1e6, // never departs
            failure_seed: 3,
            ..RuntimeConfig::default()
        };
        let mut rt = SparcleRuntime::new(b.build().unwrap(), arrivals, source, cfg);

        let recorder = sparcle_core::telemetry::CollectRecorder::new();
        rt.run_traced(TraceHandle::new(&recorder));

        let ledger = rt.ledger();
        assert_eq!((ledger.arrivals(), ledger.admitted()), (1, 1));
        assert!(ledger.displacements() > 0, "the direct link must fail");
        let pending: Vec<u64> = rt.pending().iter().map(|p| p.index).collect();
        assert_eq!(
            [rt.live_indices(), pending].concat(),
            vec![0],
            "the app is live or pending, never lost"
        );
        let failed_readmits = recorder
            .events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::RuntimeReadmit { outcome, cause, .. }
                        if *outcome == "failed" && *cause == Some("submit_error")
                )
            })
            .count();
        assert!(failed_readmits > 0, "the detour's readmit must fail");
    }

    #[test]
    fn failure_displaces_and_reconcile_repairs() {
        // One app, one permanently failing hub route: the app must end up
        // re-placed on the alt route.
        let mut net = NetworkBuilder::new();
        let src = net.add_ncp("src", ResourceVec::cpu(10.0));
        let hub = net.add_ncp("hub", ResourceVec::cpu(1000.0));
        let sink = net.add_ncp("sink", ResourceVec::cpu(10.0));
        let alt = net.add_ncp("alt", ResourceVec::cpu(1000.0));
        net.add_link_full("l0", src, hub, 1e6, LinkDirection::Undirected, 0.25)
            .unwrap();
        net.add_link_full("l1", hub, sink, 1e6, LinkDirection::Undirected, 0.25)
            .unwrap();
        net.add_link("l2", src, alt, 1e4).unwrap();
        net.add_link("l3", alt, sink, 1e4).unwrap();
        let net = net.build().unwrap();

        let cfg = RuntimeConfig {
            horizon: 20.0,
            mean_hold: 1e6, // never departs
            failure_seed: 3,
            ..RuntimeConfig::default()
        };
        let arrivals = vec![ArrivalEvent {
            time: 0.5,
            index: 0,
        }];
        let mut rt = SparcleRuntime::new(net, arrivals, |_| app_source(1), cfg);
        let ledger = rt.run().clone();
        assert_eq!(ledger.arrivals(), 1);
        assert_eq!(ledger.admitted(), 1);
        assert!(ledger.displacements() >= 1, "hub route must fail");
        assert!(
            ledger.restores() + ledger.placement_churn() >= 1,
            "the app must be repaired at least once"
        );
        assert!(
            rt.live_indices() == vec![0] || !rt.pending().is_empty(),
            "the app is either live or awaiting a reconcile"
        );
        assert!(ledger.mean_reaction_latency() > 0.0);
    }
}
