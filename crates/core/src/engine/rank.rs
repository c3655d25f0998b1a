//! The ranking scan: `γ_{i,j}` (eq. (2)) for one pair, and one full
//! `argmin_i max_j γ_{i,j}` round of Algorithm 2, both read straight off
//! the tree store.

use super::{EngineScratch, PlacementEngine};
use crate::error::AssignError;
use sparcle_model::{CtId, NcpId};
use sparcle_telemetry::{Candidate, CtTieBreak, Event, HostTieBreak, PlacementDecision};

impl PlacementEngine<'_> {
    /// The paper's `γ_{i,j}` (eq. (2)): the bottleneck processing rate
    /// that results from hypothetically placing CT `i` on NCP `j`,
    /// considering
    ///
    /// * the host's compute headroom
    ///   `min_r C_j^(r) / (a_i^(r) + Σ_{i''} y_{i'',j} a_{i''}^(r))`, and
    /// * for every already-placed reachable CT `i'` (through unplaced
    ///   intermediates), the widest-path bottleneck from `j` to `h(i')`
    ///   for the cheapest TT in `G(i, i')` (Algorithm 2 lines 10–13).
    ///
    /// Returns `None` when some reachable placed CT cannot be routed to
    /// from `j` at all (placing `i` there would strand a TT).
    ///
    /// Served from the γ-cache: computes (or reuses) the trees `ct`'s
    /// reach set names — evicting none, so a caller's per-host loop
    /// sweeps once — then combines their widths at `host` with a fresh
    /// host term. Bit-identical to the oracle's uncached pair scan — the
    /// core proptests hold it to that at every Algorithm-2 step.
    pub fn gamma_batched(&mut self, ct: CtId, host: NcpId) -> Option<f64> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let EngineScratch {
            reach,
            reached,
            needs,
            ..
        } = &mut scratch;
        needs.clear();
        self.eval_view().reach_keys(ct, reach, reached, needs);
        self.fill_trees(&mut scratch, 1);
        let net = scratch.trees.net_gamma(&scratch.slots, host);
        self.scratch = scratch;
        (net != f64::NEG_INFINITY).then(|| self.host_rate(ct, host).min(net))
    }

    /// One ranking round of Algorithm 2 over the γ-cache: returns the
    /// `argmin_i max_j γ_{i,j}` choice `(i*, j*, γ)` among unplaced CTs,
    /// or `None` when everything is placed. Missing trees are computed
    /// by up to `threads` worker threads; the choice is identical for
    /// every `threads` value and identical to the oracle's serial pair
    /// scan (module docs describe the tie-break).
    ///
    /// # Errors
    ///
    /// Returns [`AssignError::NoHostForCt`] for the lowest-id unplaced CT
    /// that no host can route — exactly where the oracle's scan stops.
    pub fn rank_round(
        &mut self,
        threads: usize,
    ) -> Result<Option<(CtId, NcpId, f64)>, AssignError> {
        if self.unplaced().next().is_none() {
            return Ok(None);
        }
        let round_span = self.trace.span("engine.rank_round");
        self.stats.rank_rounds += 1;
        // One pass over the graph gathers every unplaced CT's reach set
        // as tree keys into the (reused) scratch — no per-round
        // allocation once it has grown to its high-water mark.
        let fill_span = self.trace.span("engine.tree_fill");
        let mut scratch = std::mem::take(&mut self.scratch);
        let EngineScratch {
            trees,
            reach,
            reached,
            needs,
            need_ends,
            ..
        } = &mut scratch;
        needs.clear();
        need_ends.clear();
        let view = self.eval_view();
        for ct in self.unplaced() {
            view.reach_keys(ct, reach, reached, needs);
            need_ends.push(needs.len());
        }
        // A tree no key of this round names is one no reach set names
        // any more: evict it (its buffers serve the fill).
        trees.retire(|t| !needs.contains(&t.key));
        let (cache_hits, cache_misses) = self.fill_trees(&mut scratch, threads);
        self.scratch = scratch;
        fill_span.finish();
        let merge_span = self.trace.span("engine.rank_merge");
        // Serial merge straight off the stored trees — per host the
        // `min` of the `φ` the CT's reach set names; the strict
        // comparisons are the tie-breaks of the module docs.
        let EngineScratch {
            trees,
            need_ends,
            slots,
            ..
        } = &self.scratch;
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut ct_tied = false;
        let mut pick: Option<(f64, CtId, NcpId)> = None;
        let mut first = 0;
        for (ct, &end) in self.unplaced().zip(need_ends) {
            let reach = &slots[first..end];
            first = end;
            let mut best: Option<(NcpId, f64)> = None;
            let mut host_tied = false;
            for host in self.network.ncp_ids() {
                let net = trees.net_gamma(reach, host);
                if net == f64::NEG_INFINITY {
                    continue;
                }
                let g = self.host_rate(ct, host).min(net);
                if best.is_none_or(|(_, bg)| g > bg) {
                    best = Some((host, g));
                    host_tied = false;
                } else if best.is_some_and(|(_, bg)| g == bg) {
                    host_tied = true;
                }
            }
            let (host, g) = best.ok_or(AssignError::NoHostForCt(ct))?;
            if self.trace.is_enabled() {
                candidates.push(Candidate {
                    ct: ct.index() as u32,
                    host: host.index() as u32,
                    gamma: g,
                    host_tie: if host_tied {
                        HostTieBreak::LowerNcpId
                    } else {
                        HostTieBreak::UniqueMax
                    },
                });
            }
            if pick.is_none_or(|(bg, _, _)| g < bg) {
                pick = Some((g, ct, host));
                ct_tied = false;
            } else if pick.is_some_and(|(bg, _, _)| g == bg) {
                ct_tied = true;
            }
        }
        let (g, ct, host) = pick.expect("unplaced set is non-empty");
        merge_span.finish();
        self.trace.counter("engine.rank_rounds", 1);
        if self.trace.is_enabled() {
            self.trace.event(&Event::Decision(PlacementDecision {
                round: self.round,
                candidates,
                ct: ct.index() as u32,
                host: host.index() as u32,
                gamma: g,
                tie_break: if ct_tied {
                    CtTieBreak::LowerCtId
                } else {
                    CtTieBreak::UniqueMin
                },
                cache_hits,
                cache_misses,
            }));
        }
        self.round += 1;
        round_span.finish();
        Ok(Some((ct, host, g)))
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::fixture;
    use crate::engine::PlacementEngine;
    use sparcle_model::{
        Application, CtId, NcpId, NetworkBuilder, QoeClass, ResourceVec, TaskGraphBuilder,
    };

    #[test]
    fn gamma_accounts_for_host_and_paths() {
        let (app, net) = fixture();
        let caps = net.capacity_map();
        let mut engine = PlacementEngine::new(&app, &net, &caps).unwrap();
        let w = CtId::new(1);
        // On NCP1 (middle): host 100/10 = 10; TT "in" (8 bits) one hop
        // 80/8 = 10; TT "out" (2 bits) one hop 80/2 = 40 ⇒ γ = 10.
        let g1 = engine.gamma_batched(w, NcpId::new(1)).unwrap();
        assert!((g1 - 10.0).abs() < 1e-12, "γ = {g1}");
        // On NCP0 (source host): host 40/10 = 4; "in" local; "out"
        // crosses both links: min(80/2, 80/2) = 40 ⇒ γ = 4.
        let g0 = engine.gamma_batched(w, NcpId::new(0)).unwrap();
        assert!((g0 - 4.0).abs() < 1e-12, "γ = {g0}");
        // Best host is the middle NCP.
        assert_eq!(engine.rank_round(1), Ok(Some((w, NcpId::new(1), g1))));
    }

    #[test]
    fn gamma_none_when_host_cannot_reach_placed_neighbor() {
        let mut nb = NetworkBuilder::new();
        let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
        let c = nb.add_ncp("c", ResourceVec::cpu(1.0));
        nb.add_link("ab", a, b, 1.0).unwrap();
        let net = nb.build().unwrap();
        let caps = net.capacity_map();
        let mut tb = TaskGraphBuilder::new();
        let s2 = tb.add_ct("s", ResourceVec::new());
        let m2 = tb.add_ct("m", ResourceVec::cpu(1.0));
        let t2 = tb.add_ct("t", ResourceVec::new());
        tb.add_tt("sm", s2, m2, 1.0).unwrap();
        tb.add_tt("mt", m2, t2, 1.0).unwrap();
        let graph3 = tb.build().unwrap();
        let app3 = Application::new(
            graph3,
            QoeClass::best_effort(1.0),
            [(s2, NcpId::new(0)), (t2, NcpId::new(1))],
        )
        .unwrap();
        let mut engine = PlacementEngine::new(&app3, &net, &caps).unwrap();
        // Hosting m on isolated c cannot route to a or b.
        assert_eq!(engine.gamma_batched(m2, c), None);
        assert!(engine.gamma_batched(m2, a).is_some());
    }
}
