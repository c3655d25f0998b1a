//! The γ-cache: the store of shared widest-path trees behind the
//! engine's evaluators (caching contract in the [module docs](super)),
//! how missing trees are computed — the unit worker threads steal — and
//! the audit that holds a surviving tree to a fresh sweep.

use super::{EngineScratch, PlacementEngine};
use crate::widest_path::{csr_widest_tree, CsrWidestTree};
use sparcle_model::{
    CapacityMap, CsrNetwork, CtId, LinkId, LoadMap, NcpId, Placement, ReachScratch,
    ReachablePlacedCt, TaskGraph,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-size bitset over the network's links.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// Empties the set and sizes it for `links` links, keeping the
    /// allocation.
    pub(super) fn reset(&mut self, links: usize) {
        self.words.clear();
        self.words.resize(links.div_ceil(64), 0);
    }

    pub(super) fn insert(&mut self, link: LinkId) {
        self.words[link.index() / 64] |= 1 << (link.index() % 64);
    }

    pub(super) fn intersects(&self, other: &LinkSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }
}

/// What one widest-path tree is a function of, besides the link loads:
/// the sweep's target host and the TT bits its widths are sized for.
/// Bits compare by representation, so `0.0` and `-0.0` are two keys —
/// harmless, each gets its own (identical) tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TreeKey {
    target: NcpId,
    bits: u64,
}

impl TreeKey {
    fn new(target: NcpId, min_bits: f64) -> Self {
        TreeKey {
            target,
            bits: min_bits.to_bits(),
        }
    }

    fn min_bits(self) -> f64 {
        f64::from_bits(self.bits)
    }
}

/// One stored widest-path tree: `phi[j]` is the widest `j → target`
/// width (`NEG_INFINITY` when `j` cannot reach the target) and `witness`
/// the links of the sweep's parent tree. The parent pointers, visited
/// flags and queue stay in the sweep buffers the tree was cut from. A
/// tree never outlives the engine (and so the loads) it was swept for.
#[derive(Debug, Clone)]
pub(super) struct StoredTree {
    pub(super) key: TreeKey,
    phi: Vec<f64>,
    pub(super) witness: LinkSet,
}

/// The γ-cache (module docs, "Caching contract"). A handful of trees at
/// a time — one per distinct `(target, bits)` the unplaced CTs' reach
/// sets name — so lookup is a linear scan. Dropped trees park in `free`,
/// which is all that survives into the next engine built over the same
/// [`EngineScratch`].
#[derive(Debug, Clone, Default)]
pub(super) struct TreeStore {
    pub(super) live: Vec<StoredTree>,
    free: Vec<StoredTree>,
}

impl TreeStore {
    /// Where in `live` the tree for `key` sits, if stored.
    fn position(&self, key: TreeKey) -> Option<usize> {
        self.live.iter().position(|t| t.key == key)
    }

    /// A recycled (or new) buffer labelled `key`, for
    /// [`EvalView::fill_tree`] to overwrite.
    fn fresh(&mut self, key: TreeKey) -> StoredTree {
        let (phi, witness) = self
            .free
            .pop()
            .map(|tree| (tree.phi, tree.witness))
            .unwrap_or_default();
        StoredTree { key, phi, witness }
    }

    /// `net_γ(·, host)` for a reach set whose trees sit at `slots`: the
    /// `min` of their widths from `host` — `NEG_INFINITY` as soon as one
    /// target is unreachable, `INFINITY` for an empty reach set.
    pub(super) fn net_gamma(&self, slots: &[usize], host: NcpId) -> f64 {
        slots.iter().fold(f64::INFINITY, |net, &tree| {
            net.min(self.live[tree].phi[host.index()])
        })
    }

    /// Drops every live tree `stale` selects, keeping its buffers.
    pub(super) fn retire(&mut self, mut stale: impl FnMut(&StoredTree) -> bool) {
        let mut i = 0;
        while i < self.live.len() {
            if stale(&self.live[i]) {
                self.free.push(self.live.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
}

/// Bitwise equality of two width vectors.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The read-only engine state trees and reach sets are pure functions
/// of. Borrowing it field-by-field (rather than `&self`) is what lets
/// worker threads share it while each owns a private sweep buffer.
pub(super) struct EvalView<'e> {
    graph: &'e TaskGraph,
    placement: &'e Placement,
    placed: &'e [bool],
    capacities: &'e CapacityMap,
    load: &'e LoadMap,
    csr: &'e CsrNetwork,
    link_count: usize,
}

impl EvalView<'_> {
    /// Computes the tree `tree.key` names under the current loads: one
    /// reversed widest-path sweep, its widths moved (not copied) into
    /// `tree.phi` and its parent links recorded in `tree.witness`.
    fn fill_tree(&self, tree: &mut StoredTree, sweep: &mut CsrWidestTree) {
        let (target, bits) = (tree.key.target, tree.key.min_bits());
        tree.witness.reset(self.link_count);
        csr_widest_tree(self.csr, sweep, self.capacities, self.load, bits, target);
        sweep.for_each_tree_link(|l| tree.witness.insert(l));
        sweep.swap_widths(&mut tree.phi);
    }

    /// The tree keys of `ct`'s reach set, in reach-set order, appended
    /// to `keys`.
    pub(super) fn reach_keys(
        &self,
        ct: CtId,
        reach: &mut ReachScratch,
        reached: &mut Vec<ReachablePlacedCt>,
        keys: &mut Vec<TreeKey>,
    ) {
        self.graph
            .placed_reachable_into(ct, |c| self.placed[c.index()], reach, reached);
        keys.extend(reached.iter().map(|r| {
            let target = self
                .placement
                .ct_host(r.ct)
                .expect("reachable CTs are placed");
            TreeKey::new(target, r.min_bits)
        }));
    }
}

impl PlacementEngine<'_> {
    /// The read-only state snapshot trees and reach sets are computed
    /// from.
    pub(super) fn eval_view(&self) -> EvalView<'_> {
        EvalView {
            graph: self.app.graph(),
            placement: &self.placement,
            placed: &self.placed,
            capacities: self.capacities,
            load: &self.load,
            csr: &self.csr,
            link_count: self.network.link_count(),
        }
    }

    /// Makes the store hold a tree for every key in `scratch.needs`:
    /// lists the distinct keys it lacks and computes them — the unit up
    /// to `threads` workers steal (module docs, "Caching contract") —
    /// then records in `scratch.slots` where each key's tree sits.
    /// Returns the evaluation's `(hits, misses)`. Takes the engine's
    /// scratch by argument because the caller has it moved out already.
    pub(super) fn fill_trees(&mut self, scratch: &mut EngineScratch, threads: usize) -> (u64, u64) {
        let EngineScratch {
            sweep,
            trees,
            needs,
            slots,
            compute,
            ..
        } = scratch;
        compute.clear();
        for &key in needs.iter() {
            if trees.position(key).is_none() && !compute.contains(&key) {
                compute.push(key);
            }
        }
        let (hits, misses) = ((needs.len() - compute.len()) as u64, compute.len() as u64);
        let view = self.eval_view();
        let workers = threads.max(1).min(compute.len());
        if workers > 1 {
            let slots: Vec<Mutex<StoredTree>> = compute
                .iter()
                .map(|&key| Mutex::new(trees.fresh(key)))
                .collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut sweep = CsrWidestTree::default();
                        while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let mut tree = slot.lock().expect("one worker per tree slot");
                            view.fill_tree(&mut tree, &mut sweep);
                        }
                    });
                }
            });
            trees.live.extend(
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().expect("workers have joined")),
            );
        } else {
            for &key in compute.iter() {
                let mut tree = trees.fresh(key);
                view.fill_tree(&mut tree, sweep);
                trees.live.push(tree);
            }
        }
        slots.clear();
        slots.extend(needs.iter().map(|&key| {
            trees
                .position(key)
                .expect("every needed tree is stored now")
        }));
        self.stats.cache_hits += hits;
        self.stats.cache_misses += misses;
        self.trace.counter("gamma_cache.hits", hits);
        self.trace.counter("gamma_cache.misses", misses);
        (hits, misses)
    }

    /// Recomputes every stored tree from scratch — a plain sweep under
    /// the current loads, sharing nothing with the store — and compares
    /// the two bit for bit, widths and witness links. The check behind
    /// the "a survivor equals a fresh sweep" half of the caching
    /// contract (module docs); the staleness proptests run it after
    /// every commit.
    ///
    /// # Errors
    ///
    /// Names the first tree that differs.
    pub fn audit_caches(&self) -> Result<(), String> {
        let view = self.eval_view();
        let mut sweep = CsrWidestTree::default();
        for tree in &self.scratch.trees.live {
            let mut again = TreeStore::default().fresh(tree.key);
            view.fill_tree(&mut again, &mut sweep);
            if !bits_eq(&again.phi, &tree.phi) || again.witness != tree.witness {
                return Err(format!("stored tree {:?} is stale", tree.key));
            }
        }
        Ok(())
    }
}
