//! Stream processing application task graphs.
//!
//! An application is modeled as a Directed Acyclic Graph (§III-A of the
//! paper): vertices are *computation tasks* (CTs) carrying a per-data-unit
//! [`ResourceVec`] requirement, and edges are *transport tasks* (TTs)
//! carrying the number of bits each data unit occupies on the wire between
//! the hosts of two consecutive CTs.
//!
//! A [`TaskGraph`] is immutable once built; construct one with
//! [`TaskGraphBuilder`], which validates acyclicity and weak connectivity.
//!
//! # Examples
//!
//! Building the two-camera object classification pipeline of the paper's
//! Figure 1:
//!
//! ```
//! # use sparcle_model::{TaskGraphBuilder, ResourceVec};
//! # fn main() -> Result<(), sparcle_model::ModelError> {
//! let mut b = TaskGraphBuilder::new();
//! let cam1 = b.add_ct("camera1", ResourceVec::new());
//! let cam2 = b.add_ct("camera2", ResourceVec::new());
//! let detect = b.add_ct("object-detection", ResourceVec::cpu(5_000.0));
//! let classify = b.add_ct("object-classification", ResourceVec::cpu(8_000.0));
//! let consumer = b.add_ct("consumer", ResourceVec::new());
//! b.add_tt("images-1", cam1, detect, 3.1e6 * 8.0)?;
//! b.add_tt("images-2", cam2, detect, 3.1e6 * 8.0)?;
//! b.add_tt("objects", detect, classify, 182e3 * 8.0)?;
//! b.add_tt("classes", classify, consumer, 11e3 * 8.0)?;
//! let graph = b.build()?;
//! assert_eq!(graph.sources().len(), 2);
//! assert_eq!(graph.sinks().len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::error::ModelError;
use crate::ids::{CtId, TtId};
use crate::resources::ResourceVec;
use std::collections::VecDeque;

/// A computation task: one vertex of the application DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputationTask {
    name: String,
    requirement: ResourceVec,
}

impl ComputationTask {
    /// Human-readable task name (unique within a graph is recommended but
    /// not enforced; identity is the [`CtId`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resources needed to process one data unit (`a_i^(r)`).
    pub fn requirement(&self) -> &ResourceVec {
        &self.requirement
    }
}

/// A transport task: one edge of the application DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportTask {
    name: String,
    from: CtId,
    to: CtId,
    bits_per_unit: f64,
}

impl TransportTask {
    /// Human-readable task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The upstream (producing) CT.
    pub fn from(&self) -> CtId {
        self.from
    }

    /// The downstream (consuming) CT.
    pub fn to(&self) -> CtId {
        self.to
    }

    /// Bits carried per data unit (`a_k^(b)`).
    pub fn bits_per_unit(&self) -> f64 {
        self.bits_per_unit
    }

    /// The bandwidth requirement as a [`ResourceVec`].
    pub fn requirement(&self) -> ResourceVec {
        ResourceVec::bandwidth(self.bits_per_unit)
    }

    /// Returns the endpoint other than `ct`, or `None` if `ct` is not an
    /// endpoint of this TT.
    pub fn other_endpoint(&self, ct: CtId) -> Option<CtId> {
        if ct == self.from {
            Some(self.to)
        } else if ct == self.to {
            Some(self.from)
        } else {
            None
        }
    }
}

/// Incrementally builds a [`TaskGraph`].
///
/// See the [module documentation](self) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    name: String,
    cts: Vec<ComputationTask>,
    tts: Vec<TransportTask>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a human-readable name for the application graph.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Adds a computation task and returns its id.
    pub fn add_ct(&mut self, name: impl Into<String>, requirement: ResourceVec) -> CtId {
        let id = CtId::new(self.cts.len() as u32);
        self.cts.push(ComputationTask {
            name: name.into(),
            requirement,
        });
        id
    }

    /// Adds a transport task from `from` to `to` carrying `bits_per_unit`
    /// bits per data unit, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCt`] if either endpoint has not been
    /// added, [`ModelError::SelfLoop`] if `from == to`, and
    /// [`ModelError::InvalidQuantity`] if `bits_per_unit` is negative or
    /// not finite.
    pub fn add_tt(
        &mut self,
        name: impl Into<String>,
        from: CtId,
        to: CtId,
        bits_per_unit: f64,
    ) -> Result<TtId, ModelError> {
        if from.index() >= self.cts.len() {
            return Err(ModelError::UnknownCt(from));
        }
        if to.index() >= self.cts.len() {
            return Err(ModelError::UnknownCt(to));
        }
        if from == to {
            return Err(ModelError::SelfLoop(from));
        }
        if !bits_per_unit.is_finite() || bits_per_unit < 0.0 {
            return Err(ModelError::InvalidQuantity {
                what: "TT bits per data unit",
                value: bits_per_unit,
            });
        }
        let id = TtId::new(self.tts.len() as u32);
        self.tts.push(TransportTask {
            name: name.into(),
            from,
            to,
            bits_per_unit,
        });
        Ok(id)
    }

    /// Validates the accumulated tasks and produces an immutable
    /// [`TaskGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTaskGraph`] when no CT was added,
    /// [`ModelError::CyclicTaskGraph`] when the TTs form a directed cycle,
    /// and [`ModelError::DisconnectedTaskGraph`] when the graph is not
    /// weakly connected (an application with unrelated islands of tasks
    /// should be split into separate applications).
    pub fn build(self) -> Result<TaskGraph, ModelError> {
        TaskGraph::from_parts(self.name, self.cts, self.tts)
    }
}

/// An immutable, validated application DAG of CTs and TTs.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    cts: Vec<ComputationTask>,
    tts: Vec<TransportTask>,
    /// Outgoing TTs per CT.
    out_edges: Vec<Vec<TtId>>,
    /// Incoming TTs per CT.
    in_edges: Vec<Vec<TtId>>,
    /// CTs with no incoming TT (data sources).
    sources: Vec<CtId>,
    /// CTs with no outgoing TT (result consumers).
    sinks: Vec<CtId>,
    /// A topological order of the CTs.
    topo: Vec<CtId>,
}

impl TaskGraph {
    fn from_parts(
        name: String,
        cts: Vec<ComputationTask>,
        tts: Vec<TransportTask>,
    ) -> Result<Self, ModelError> {
        if cts.is_empty() {
            return Err(ModelError::EmptyTaskGraph);
        }
        let n = cts.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for (idx, tt) in tts.iter().enumerate() {
            let id = TtId::new(idx as u32);
            out_edges[tt.from.index()].push(id);
            in_edges[tt.to.index()].push(id);
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            topo.push(CtId::new(i as u32));
            for &tt in &out_edges[i] {
                let j = tts[tt.index()].to.index();
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if topo.len() != n {
            return Err(ModelError::CyclicTaskGraph);
        }

        // Weak connectivity: BFS over undirected edges.
        if n > 1 {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::from([0usize]);
            seen[0] = true;
            let mut count = 1;
            while let Some(i) = queue.pop_front() {
                for &tt in out_edges[i].iter().chain(in_edges[i].iter()) {
                    let t = &tts[tt.index()];
                    let j = if t.from.index() == i {
                        t.to.index()
                    } else {
                        t.from.index()
                    };
                    if !seen[j] {
                        seen[j] = true;
                        count += 1;
                        queue.push_back(j);
                    }
                }
            }
            if count != n {
                return Err(ModelError::DisconnectedTaskGraph);
            }
        }

        let sources = (0..n)
            .filter(|&i| in_edges[i].is_empty())
            .map(|i| CtId::new(i as u32))
            .collect();
        let sinks = (0..n)
            .filter(|&i| out_edges[i].is_empty())
            .map(|i| CtId::new(i as u32))
            .collect();

        Ok(TaskGraph {
            name,
            cts,
            tts,
            out_edges,
            in_edges,
            sources,
            sinks,
            topo,
        })
    }

    /// The application graph's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of computation tasks.
    pub fn ct_count(&self) -> usize {
        self.cts.len()
    }

    /// Number of transport tasks.
    pub fn tt_count(&self) -> usize {
        self.tts.len()
    }

    /// Returns the CT with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn ct(&self, id: CtId) -> &ComputationTask {
        &self.cts[id.index()]
    }

    /// Returns the TT with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn tt(&self, id: TtId) -> &TransportTask {
        &self.tts[id.index()]
    }

    /// Iterates over all CT ids in index order.
    pub fn ct_ids(&self) -> impl Iterator<Item = CtId> + '_ {
        (0..self.cts.len() as u32).map(CtId::new)
    }

    /// Iterates over all TT ids in index order.
    pub fn tt_ids(&self) -> impl Iterator<Item = TtId> + '_ {
        (0..self.tts.len() as u32).map(TtId::new)
    }

    /// TTs leaving `ct`.
    pub fn out_edges(&self, ct: CtId) -> &[TtId] {
        &self.out_edges[ct.index()]
    }

    /// TTs entering `ct`.
    pub fn in_edges(&self, ct: CtId) -> &[TtId] {
        &self.in_edges[ct.index()]
    }

    /// TTs incident to `ct` in either direction.
    pub fn incident_edges(&self, ct: CtId) -> impl Iterator<Item = TtId> + '_ {
        self.in_edges[ct.index()]
            .iter()
            .chain(self.out_edges[ct.index()].iter())
            .copied()
    }

    /// Data-source CTs (no incoming TT).
    pub fn sources(&self) -> &[CtId] {
        &self.sources
    }

    /// Result-consumer CTs (no outgoing TT).
    pub fn sinks(&self) -> &[CtId] {
        &self.sinks
    }

    /// A topological order of the CTs (sources first).
    pub fn topo_order(&self) -> &[CtId] {
        &self.topo
    }

    /// All TTs directly connecting `a` and `b` in either direction — the
    /// paper's `G(i, i')` for neighbor CTs.
    pub fn tts_between(&self, a: CtId, b: CtId) -> Vec<TtId> {
        self.incident_edges(a)
            .filter(|&tt| self.tts[tt.index()].other_endpoint(a) == Some(b))
            .collect()
    }

    /// Computes the *placed reachable CTs* `ν_i` of CT `i` used by the
    /// dynamic ranking algorithm (Algorithm 2, line 8): the CTs for which
    /// `placed` returns `true` that are connected to `i` through TTs whose
    /// intermediate CTs are all unplaced — together with, for each, the
    /// minimum `a^(b)` over the connecting TT set `G(i, i')` (line 12 picks
    /// the most optimistic TT for the bottleneck bound).
    ///
    /// The traversal is undirected: data dependencies constrain ordering of
    /// execution, not of placement.
    pub fn placed_reachable(
        &self,
        i: CtId,
        placed: impl Fn(CtId) -> bool,
    ) -> Vec<ReachablePlacedCt> {
        let mut found = Vec::new();
        self.placed_reachable_into(i, placed, &mut ReachScratch::default(), &mut found);
        found
    }

    /// [`Self::placed_reachable`] over caller-owned buffers: the
    /// traversal runs inside `scratch` and the result replaces the
    /// contents of `found` (ascending `CtId`), so a caller that asks
    /// every ranking round allocates nothing once both have grown.
    pub fn placed_reachable_into(
        &self,
        i: CtId,
        placed: impl Fn(CtId) -> bool,
        scratch: &mut ReachScratch,
        found: &mut Vec<ReachablePlacedCt>,
    ) {
        // Relaxation through unplaced CTs, tracking per-CT the minimum TT
        // bits (and the TT attaining it) over the best connecting walk
        // found so far. Values only decrease, so this terminates.
        let n = self.cts.len();
        let ReachScratch {
            best,
            best_tt,
            found_best,
            found_tt,
            queue,
        } = scratch;
        for bits in [&mut *best, &mut *found_best] {
            bits.clear();
            bits.resize(n, f64::INFINITY);
        }
        for tts in [&mut *best_tt, &mut *found_tt] {
            tts.clear();
            tts.resize(n, None);
        }
        queue.clear();
        queue.push_back(i);
        while let Some(u) = queue.pop_front() {
            for tt in self.incident_edges(u) {
                let t = &self.tts[tt.index()];
                let v = t.other_endpoint(u).expect("incident edge endpoint");
                let (along, along_tt) = if t.bits_per_unit <= best[u.index()] {
                    (t.bits_per_unit, Some(tt))
                } else {
                    (best[u.index()], best_tt[u.index()])
                };
                if placed(v) {
                    if along < found_best[v.index()] {
                        found_best[v.index()] = along;
                        found_tt[v.index()] = along_tt;
                    }
                } else if v != i && along < best[v.index()] {
                    best[v.index()] = along;
                    best_tt[v.index()] = along_tt;
                    queue.push_back(v);
                }
            }
        }
        found.clear();
        for (idx, tt) in found_tt.iter().enumerate() {
            if let Some(tt) = *tt {
                found.push(ReachablePlacedCt {
                    ct: CtId::new(idx as u32),
                    min_bits_tt: tt,
                    min_bits: found_best[idx],
                });
            }
        }
    }
}

/// Reusable traversal buffers for [`TaskGraph::placed_reachable_into`].
#[derive(Debug, Clone, Default)]
pub struct ReachScratch {
    best: Vec<f64>,
    best_tt: Vec<Option<TtId>>,
    found_best: Vec<f64>,
    found_tt: Vec<Option<TtId>>,
    queue: VecDeque<CtId>,
}

/// One placed CT reachable from an unplaced CT, as computed by
/// [`TaskGraph::placed_reachable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachablePlacedCt {
    /// The placed CT `i'`.
    pub ct: CtId,
    /// The TT `k = argmin_y a_y^(b), y ∈ G(i, i')` whose bandwidth
    /// requirement bounds the network bottleneck check.
    pub min_bits_tt: TtId,
    /// `a_k^(b)` for that TT.
    pub min_bits: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear3() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_ct("a", ResourceVec::cpu(1.0));
        let c = b.add_ct("b", ResourceVec::cpu(2.0));
        let d = b.add_ct("c", ResourceVec::cpu(3.0));
        b.add_tt("ab", a, c, 10.0).unwrap();
        b.add_tt("bc", c, d, 20.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_linear_graph() {
        let g = linear3();
        assert_eq!(g.ct_count(), 3);
        assert_eq!(g.tt_count(), 2);
        assert_eq!(g.sources(), &[CtId::new(0)]);
        assert_eq!(g.sinks(), &[CtId::new(2)]);
        assert_eq!(g.topo_order(), &[CtId::new(0), CtId::new(1), CtId::new(2)]);
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(matches!(
            TaskGraphBuilder::new().build(),
            Err(ModelError::EmptyTaskGraph)
        ));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        let y = b.add_ct("y", ResourceVec::new());
        b.add_tt("xy", x, y, 1.0).unwrap();
        b.add_tt("yx", y, x, 1.0).unwrap();
        assert!(matches!(b.build(), Err(ModelError::CyclicTaskGraph)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        assert!(matches!(
            b.add_tt("xx", x, x, 1.0),
            Err(ModelError::SelfLoop(_))
        ));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        assert!(matches!(
            b.add_tt("bad", x, CtId::new(9), 1.0),
            Err(ModelError::UnknownCt(_))
        ));
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        let y = b.add_ct("y", ResourceVec::new());
        let z = b.add_ct("z", ResourceVec::new());
        b.add_tt("xy", x, y, 1.0).unwrap();
        let _ = z;
        assert!(matches!(b.build(), Err(ModelError::DisconnectedTaskGraph)));
    }

    #[test]
    fn rejects_negative_bits() {
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        let y = b.add_ct("y", ResourceVec::new());
        assert!(matches!(
            b.add_tt("xy", x, y, -1.0),
            Err(ModelError::InvalidQuantity { .. })
        ));
    }

    #[test]
    fn tts_between_finds_direct_edges() {
        let g = linear3();
        assert_eq!(
            g.tts_between(CtId::new(0), CtId::new(1)),
            vec![TtId::new(0)]
        );
        assert_eq!(
            g.tts_between(CtId::new(1), CtId::new(0)),
            vec![TtId::new(0)]
        );
        assert!(g.tts_between(CtId::new(0), CtId::new(2)).is_empty());
    }

    #[test]
    fn placed_reachable_direct_neighbor() {
        let g = linear3();
        // Only CT0 placed; from CT1, CT0 is reachable via TT0.
        let r = g.placed_reachable(CtId::new(1), |ct| ct == CtId::new(0));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].ct, CtId::new(0));
        assert_eq!(r[0].min_bits_tt, TtId::new(0));
        assert_eq!(r[0].min_bits, 10.0);
    }

    #[test]
    fn placed_reachable_through_unplaced_intermediate() {
        let g = linear3();
        // CT0 and CT2 placed; from CT1 both are direct neighbors.
        let r = g.placed_reachable(CtId::new(1), |ct| ct != CtId::new(1));
        assert_eq!(r.len(), 2);
        // From CT0 (unplaced scenario): CT2 is reachable *through* CT1.
        let r = g.placed_reachable(CtId::new(0), |ct| ct == CtId::new(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].ct, CtId::new(2));
        // min bits over {TT0(10), TT1(20)} path = 10.
        assert_eq!(r[0].min_bits, 10.0);
    }

    #[test]
    fn placed_reachable_blocked_by_placed_intermediate() {
        let g = linear3();
        // CT1 and CT2 placed. From CT0, BFS stops at placed CT1: CT2 is
        // not reached through an unplaced walk.
        let r = g.placed_reachable(CtId::new(0), |ct| ct.index() >= 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].ct, CtId::new(1));
    }

    #[test]
    fn diamond_has_one_source_one_sink() {
        let mut b = TaskGraphBuilder::new();
        let s = b.add_ct("s", ResourceVec::new());
        let u = b.add_ct("u", ResourceVec::cpu(1.0));
        let v = b.add_ct("v", ResourceVec::cpu(1.0));
        let t = b.add_ct("t", ResourceVec::new());
        b.add_tt("su", s, u, 1.0).unwrap();
        b.add_tt("sv", s, v, 1.0).unwrap();
        b.add_tt("ut", u, t, 1.0).unwrap();
        b.add_tt("vt", v, t, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.sources(), &[s]);
        assert_eq!(g.sinks(), &[t]);
        assert_eq!(g.topo_order()[0], s);
        assert_eq!(*g.topo_order().last().unwrap(), t);
    }

    #[test]
    fn parallel_edges_are_allowed() {
        // Figure 1 allows multiple TTs between a pair of CTs via G(i,i').
        let mut b = TaskGraphBuilder::new();
        let x = b.add_ct("x", ResourceVec::new());
        let y = b.add_ct("y", ResourceVec::cpu(1.0));
        b.add_tt("t1", x, y, 5.0).unwrap();
        b.add_tt("t2", x, y, 7.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.tts_between(x, y).len(), 2);
        let r = g.placed_reachable(y, |ct| ct == x);
        assert_eq!(r[0].min_bits, 5.0, "min-bits TT should be picked");
    }
}
