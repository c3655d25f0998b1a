//! The ranking scan: `γ_{i,j}` (eq. (2)) for one pair, and one full
//! `argmin_i max_j γ_{i,j}` round of Algorithm 2, both read straight off
//! the tree store; each CT's `argmax_j` scans hosts in capacity order and
//! stops at the threshold (module docs, "Ranking scan").

use super::trees::TreeStore;
use super::{EngineScratch, PlacementEngine};
use crate::error::AssignError;
use sparcle_model::{CapacityMap, CtId, NcpId, ResourceKind};
use sparcle_telemetry::{Candidate, CtTieBreak, Event, HostTieBreak, PlacementDecision};
use std::cmp::Ordering;

/// The first prefix a scan sorts; each further step doubles it.
const FIRST_PREFIX: usize = 32;

/// One host order per resource kind the engine's CTs name, filled from
/// the engine's capacities the first time a scan asks for the kind. The
/// buffers outlive the engine (they sit in [`EngineScratch`]); their
/// contents do not, because every engine has capacities of its own.
#[derive(Debug, Clone, Default)]
pub(super) struct CapacityOrders {
    orders: Vec<CapacityOrder>,
    /// How many of `orders` the current engine has filled.
    live: usize,
}

impl CapacityOrders {
    /// Forgets every order, keeping the buffers for the next engine.
    pub(super) fn reset(&mut self) {
        self.live = 0;
    }

    /// The order of `kind` under `capacities`, filled (unsorted) on
    /// first use.
    fn order(&mut self, kind: ResourceKind, capacities: &CapacityMap) -> &mut CapacityOrder {
        let at = match self.orders[..self.live].iter().position(|o| o.kind == kind) {
            Some(at) => at,
            None => {
                if self.live == self.orders.len() {
                    self.orders.push(CapacityOrder::default());
                }
                self.orders[self.live].fill(kind, capacities);
                self.live += 1;
                self.live - 1
            }
        };
        &mut self.orders[at]
    }
}

/// Every host as `(C_j^(kind), j)`, sorted lazily into scan order —
/// capacity descending, ties toward the lower id — only as far as a scan
/// has read: `hosts[..sorted]` is in scan order and every entry behind
/// it comes after all of them.
#[derive(Debug, Clone, Default)]
struct CapacityOrder {
    kind: ResourceKind,
    hosts: Vec<(f64, NcpId)>,
    sorted: usize,
}

impl CapacityOrder {
    fn fill(&mut self, kind: ResourceKind, capacities: &CapacityMap) {
        self.kind = kind;
        self.hosts.clear();
        self.hosts.extend((0..capacities.ncp_count()).map(|i| {
            let host = NcpId::new(i as u32);
            (capacities.ncp(host).amount(kind), host)
        }));
        self.sorted = 0;
    }

    /// The `i`-th host in scan order, sorting the prefix out to it
    /// (doubled) on first reach: the tail's smallest entries are
    /// selected, then sorted in place.
    fn get(&mut self, i: usize) -> Option<(f64, NcpId)> {
        if i >= self.sorted && i < self.hosts.len() {
            let end = (2 * self.sorted).max(FIRST_PREFIX).max(i + 1);
            let tail = &mut self.hosts[self.sorted..];
            let take = (end - self.sorted).min(tail.len());
            if take < tail.len() {
                tail.select_nth_unstable_by(take - 1, scan_order);
            }
            tail[..take].sort_unstable_by(scan_order);
            self.sorted += take;
        }
        self.hosts.get(i).copied()
    }
}

/// Capacity descending (by total order: `-0.0` after `0.0`, which IEEE
/// comparison calls equal), ties toward the lower id. A total order, so
/// the sorted prefix is unique.
fn scan_order(a: &(f64, NcpId), b: &(f64, NcpId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

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
        // Serial merge straight off the stored trees; the strict
        // comparisons are the tie-breaks of the module docs.
        let mut orders = std::mem::take(&mut self.scratch.orders);
        let EngineScratch {
            trees,
            need_ends,
            slots,
            ..
        } = &self.scratch;
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut ct_tied = false;
        let mut pick: Option<(f64, CtId, NcpId)> = None;
        let mut stranded = None;
        let mut evaluated = 0;
        let mut first = 0;
        for (ct, &end) in self.unplaced().zip(need_ends) {
            let reach = &slots[first..end];
            first = end;
            let Some((host, g, host_tied)) =
                self.best_host(ct, trees, reach, &mut orders, &mut evaluated)
            else {
                stranded = Some(ct);
                break;
            };
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
        self.scratch.orders = orders;
        self.stats.hosts_evaluated += evaluated;
        if let Some(ct) = stranded {
            return Err(AssignError::NoHostForCt(ct));
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

    /// `argmax_j γ_{ct,j}` over the stored trees `reach` names: the
    /// host, its γ, and whether another host reaches the same γ (the
    /// host is then the lowest id among them). `None` when no host can
    /// route `ct`. Scans hosts in the capacity order of a kind `ct`
    /// needs and stops at the first whose bound `C/a` is strictly below
    /// the best γ so far (module docs, "Ranking scan"); adds the hosts
    /// it read to `evaluated`.
    fn best_host(
        &self,
        ct: CtId,
        trees: &TreeStore,
        reach: &[usize],
        orders: &mut CapacityOrders,
        evaluated: &mut u64,
    ) -> Option<(NcpId, f64, bool)> {
        // A CT that needs nothing gets `a = +0.0`: every bound is then
        // `+∞` or NaN, neither is below a γ, and the scan reads every
        // host.
        let (kind, a) = self
            .app
            .graph()
            .ct(ct)
            .requirement()
            .iter()
            .find(|&(_, a)| a > 0.0)
            .unwrap_or((ResourceKind::Cpu, 0.0));
        let order = orders.order(kind, self.capacities);
        let mut best: Option<(NcpId, f64)> = None;
        let mut tied = false;
        let mut read = 0;
        while let Some((capacity, host)) = order.get(read) {
            if best.is_some_and(|(_, bg)| capacity / a < bg) {
                break;
            }
            read += 1;
            let net = trees.net_gamma(reach, host);
            if net == f64::NEG_INFINITY {
                continue;
            }
            let g = self.host_rate(ct, host).min(net);
            match best {
                Some((_, bg)) if g > bg => {
                    best = Some((host, g));
                    tied = false;
                }
                Some((bh, bg)) if g == bg => {
                    tied = true;
                    if host < bh {
                        best = Some((host, g));
                    }
                }
                Some(_) => {}
                None => best = Some((host, g)),
            }
        }
        *evaluated += read as u64;
        best.map(|(host, g)| (host, g, tied))
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
