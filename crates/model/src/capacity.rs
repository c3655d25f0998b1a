//! Capacity and load bookkeeping over network elements.
//!
//! The paper's rate constraint is `R x ≤ C`: the per-element load vector
//! `R` (sums of task requirements placed on each element, per data unit)
//! times the application rate must stay within the per-element capacity
//! vector `C`.
//!
//! [`CapacityMap`] holds the (possibly residual or predicted) capacities
//! `C`, dense and indexed by [`NcpId`]/[`LinkId`], because every
//! algorithm in SPARCLE reads capacities all over the network.
//! [`LoadMap`] holds the per-data-unit loads `R` contributed by one or
//! more placements, compact: an application loads a few elements, and
//! every admitted one keeps its loads for as long as it lives. While an
//! application is being placed the engine accumulates into a
//! [`DenseLoad`] instead, whose per-element lookups are O(1), and
//! compacts it when the placement is done; [`LinkLoads`] lets the
//! widest-path search read either.

use crate::error::ModelError;
use crate::ids::{LinkId, NcpId, NetworkElement};
use crate::network::Network;
use crate::resources::{ResourceKind, ResourceVec};

/// Per-element capacities `C` — either the full network capacity, a
/// residual after subtracting previously placed applications, or a
/// predicted share (eq. (6) of the paper).
///
/// The [`Default`] map has no elements: a buffer to fill with
/// [`Clone::clone_from`], which — unlike the derived form — refills a
/// warm map entry by entry without allocating.
#[derive(Debug, PartialEq, Default)]
pub struct CapacityMap {
    ncps: Vec<ResourceVec>,
    links: Vec<f64>,
}

impl Clone for CapacityMap {
    fn clone(&self) -> Self {
        CapacityMap {
            ncps: self.ncps.clone(),
            links: self.links.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ncps.clone_from(&source.ncps);
        self.links.clone_from(&source.links);
    }
}

impl CapacityMap {
    /// Snapshot of a network's full capacities.
    pub fn full(network: &Network) -> Self {
        CapacityMap {
            ncps: network
                .ncp_ids()
                .map(|id| network.ncp(id).capacity().clone())
                .collect(),
            links: network
                .link_ids()
                .map(|id| network.link(id).bandwidth())
                .collect(),
        }
    }

    /// A zero-capacity map with the same shape as `network`.
    pub fn zeroed(network: &Network) -> Self {
        CapacityMap {
            ncps: vec![ResourceVec::new(); network.ncp_count()],
            links: vec![0.0; network.link_count()],
        }
    }

    /// Number of NCP entries.
    pub fn ncp_count(&self) -> usize {
        self.ncps.len()
    }

    /// Number of link entries.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Capacity vector of an NCP.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ncp(&self, id: NcpId) -> &ResourceVec {
        &self.ncps[id.index()]
    }

    /// Mutable capacity vector of an NCP.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ncp_mut(&mut self, id: NcpId) -> &mut ResourceVec {
        &mut self.ncps[id.index()]
    }

    /// Residual bandwidth of a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> f64 {
        self.links[id.index()]
    }

    /// Sets the residual bandwidth of a link (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_link(&mut self, id: LinkId, bandwidth: f64) {
        self.links[id.index()] = bandwidth.max(0.0);
    }

    /// Capacity of an arbitrary element as a [`ResourceVec`].
    pub fn element(&self, element: NetworkElement) -> ResourceVec {
        match element {
            NetworkElement::Ncp(id) => self.ncp(id).clone(),
            NetworkElement::Link(id) => ResourceVec::bandwidth(self.link(id)),
        }
    }

    /// Subtracts `rate × load` from every element the load touches —
    /// the residual update applied between multi-path assignment
    /// iterations (§IV-D: after a path with rate `r1` is found, the
    /// available capacity becomes `C_j^(r) − r1 Σ y a^(r)`). Entries
    /// clamp at zero. An untouched element keeps its value, which is what
    /// subtracting its zero load would leave on a non-negative capacity —
    /// the delta op the incremental residual maintenance in
    /// `sparcle-core` relies on.
    pub fn subtract_load(&mut self, load: &LoadMap, rate: f64) {
        for (id, l) in &load.ncps {
            self.ncps[id.index()].sub_scaled(l, rate);
        }
        for &(id, bits) in &load.links {
            let i = id.index();
            self.links[i] = (self.links[i] - bits * rate).max(0.0);
        }
    }

    /// Adds `rate × load` back to every element the load touches
    /// (undoing [`Self::subtract_load`], e.g. when an application
    /// departs).
    pub fn add_load(&mut self, load: &LoadMap, rate: f64) {
        for (id, l) in &load.ncps {
            self.ncps[id.index()].add_vec(&l.scaled(rate));
        }
        for &(id, bits) in &load.links {
            self.links[id.index()] += bits * rate;
        }
    }

    /// Subtracts `rate × load` on a **single** element, leaving every
    /// other entry untouched. Uses the exact arithmetic of
    /// [`Self::subtract_load`] restricted to `element`, so replaying a
    /// sequence of subtractions per-element reproduces the dense fold
    /// bit-for-bit.
    pub fn subtract_load_element(&mut self, element: NetworkElement, load: &LoadMap, rate: f64) {
        match element {
            NetworkElement::Ncp(id) => {
                self.ncps[id.index()].sub_scaled(load.ncp(id), rate);
            }
            NetworkElement::Link(id) => {
                let i = id.index();
                self.links[i] = (self.links[i] - load.link(id) * rate).max(0.0);
            }
        }
    }

    /// Copies one element's capacity from `other` (same shape) — the
    /// seed of a per-element canonical recompute.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range for either map.
    pub fn copy_element_from(&mut self, other: &CapacityMap, element: NetworkElement) {
        match element {
            NetworkElement::Ncp(id) => {
                self.ncps[id.index()].clone_from(&other.ncps[id.index()]);
            }
            NetworkElement::Link(id) => {
                self.links[id.index()] = other.links[id.index()];
            }
        }
    }

    /// Puts back one element's capacity as [`Self::element`] returned it
    /// — unclamped, so the round trip is bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range.
    pub fn set_element(&mut self, element: NetworkElement, capacity: &ResourceVec) {
        match element {
            NetworkElement::Ncp(id) => self.ncps[id.index()].clone_from(capacity),
            NetworkElement::Link(id) => {
                self.links[id.index()] = capacity.amount(ResourceKind::Bandwidth);
            }
        }
    }

    /// Checks one element's capacity: the element exists in this map and
    /// every amount on it is finite and non-negative — the precondition
    /// under which the sparse delta ops above are bitwise equivalent to
    /// their dense counterparts.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownNcp`] / [`ModelError::UnknownLink`] for an
    /// element outside the map, [`ModelError::InvalidQuantity`] for a
    /// NaN, negative or infinite amount.
    pub fn check_element(&self, element: NetworkElement) -> Result<(), ModelError> {
        let valid = |a: f64| a.is_finite() && a >= 0.0;
        let bad = match element {
            NetworkElement::Ncp(id) => {
                let capacity = self
                    .ncps
                    .get(id.index())
                    .ok_or(ModelError::UnknownNcp(id))?;
                capacity.iter().map(|(_, a)| a).find(|&a| !valid(a))
            }
            NetworkElement::Link(id) => {
                let &b = self
                    .links
                    .get(id.index())
                    .ok_or(ModelError::UnknownLink(id))?;
                (!valid(b)).then_some(b)
            }
        };
        match bad {
            Some(value) => Err(ModelError::InvalidQuantity {
                what: "element capacity",
                value,
            }),
            None => Ok(()),
        }
    }

    /// The elements whose capacity differs from `other`'s in any bit
    /// (kinds included), NCPs then links.
    ///
    /// # Errors
    ///
    /// When the shapes differ, [`ModelError::UnknownNcp`] /
    /// [`ModelError::UnknownLink`] names the first index only one of the
    /// two maps has.
    pub fn changed_elements(&self, other: &CapacityMap) -> Result<Vec<NetworkElement>, ModelError> {
        let first_unmatched = |a: usize, b: usize| a.min(b) as u32;
        if self.ncps.len() != other.ncps.len() {
            let id = first_unmatched(self.ncps.len(), other.ncps.len());
            return Err(ModelError::UnknownNcp(NcpId::new(id)));
        }
        if self.links.len() != other.links.len() {
            let id = first_unmatched(self.links.len(), other.links.len());
            return Err(ModelError::UnknownLink(LinkId::new(id)));
        }
        let bits = |(kind, a): (ResourceKind, f64)| (kind, a.to_bits());
        let ncps = (self.ncps.iter().zip(&other.ncps).enumerate())
            .filter(|(_, (a, b))| a.iter().map(bits).ne(b.iter().map(bits)))
            .map(|(i, _)| NetworkElement::Ncp(NcpId::new(i as u32)));
        let links = (self.links.iter().zip(&other.links).enumerate())
            .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
            .map(|(i, _)| NetworkElement::Link(LinkId::new(i as u32)));
        Ok(ncps.chain(links).collect())
    }

    /// Scales the capacity of one element by `factor` — used by the
    /// priority-share prediction of eq. (6).
    pub fn scale_element(&mut self, element: NetworkElement, factor: f64) {
        match element {
            NetworkElement::Ncp(id) => self.ncps[id.index()].scale(factor),
            NetworkElement::Link(id) => self.links[id.index()] *= factor,
        }
    }

    /// The maximum stable rate this capacity supports for the given load:
    /// `min over elements with load, over resource kinds, of C / R`.
    ///
    /// Returns `f64::INFINITY` for an all-zero load (nothing placed — no
    /// constraint).
    pub fn bottleneck_rate(&self, load: &LoadMap) -> f64 {
        let mut rate = f64::INFINITY;
        for (id, l) in &load.ncps {
            if let Some(r) = self.ncps[id.index()].rate_supported(l) {
                rate = rate.min(r);
            }
        }
        for &(id, bits) in &load.links {
            if bits > 0.0 {
                rate = rate.min(self.links[id.index()] / bits);
            }
        }
        rate
    }

    /// [`Self::bottleneck_rate`] visiting only `elements`: the same rate
    /// whenever `elements` covers every element `load` loads, because the
    /// minimum depends neither on visiting order nor on repeats.
    ///
    /// # Panics
    ///
    /// Panics if an element is out of range for either map.
    pub fn bottleneck_rate_on(&self, load: &LoadMap, elements: &[NetworkElement]) -> f64 {
        let mut rate = f64::INFINITY;
        for &element in elements {
            let supported = match element {
                NetworkElement::Ncp(id) => self.ncps[id.index()].rate_supported(load.ncp(id)),
                NetworkElement::Link(id) => {
                    let bits = load.link(id);
                    (bits > 0.0).then(|| self.links[id.index()] / bits)
                }
            };
            if let Some(r) = supported {
                rate = rate.min(r);
            }
        }
        rate
    }

    /// Per-element utilization at processing rate `rate` under `load`:
    /// the fraction of each element's (tightest) capacity consumed,
    /// `rate × load / C` (`f64::INFINITY` for loaded zero-capacity
    /// elements; `0.0` for unloaded ones). Returned in NCPs-then-links
    /// order, aligned with [`Network::elements`](crate::Network::elements).
    pub fn utilization(&self, load: &LoadMap, rate: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.ncps.len() + self.links.len()];
        for (id, l) in &load.ncps {
            out[id.index()] = match self.ncps[id.index()].rate_supported(l) {
                Some(max) if max > 0.0 => rate / max,
                Some(_) => f64::INFINITY,
                None => 0.0,
            };
        }
        for &(id, bits) in &load.links {
            let i = id.index();
            out[self.ncps.len() + i] = if bits <= 0.0 {
                0.0
            } else if self.links[i] > 0.0 {
                rate * bits / self.links[i]
            } else {
                f64::INFINITY
            };
        }
        out
    }
}

/// The placeholder [`LoadMap::ncp`] hands out for an unloaded NCP.
static NO_LOAD: ResourceVec = ResourceVec::new();

/// Per-element, per-data-unit loads `R` contributed by placed tasks,
/// stored compactly: only the loaded elements, sorted by id, next to the
/// network's shape as two counts. An application loads a handful of the
/// network's elements, and every admitted one keeps its loads for life.
///
/// An NCP is stored iff its load vector has a kind (zero amounts
/// included, as a dense map would hold them), a link iff its bits are
/// non-zero; every accessor answers for an unstored element exactly what
/// a dense map would hold there.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMap {
    ncps: Vec<(NcpId, ResourceVec)>,
    links: Vec<(LinkId, f64)>,
    ncp_count: usize,
    link_count: usize,
}

impl LoadMap {
    /// An empty load map shaped like `network`.
    pub fn zeroed(network: &Network) -> Self {
        LoadMap {
            ncps: Vec::new(),
            links: Vec::new(),
            ncp_count: network.ncp_count(),
            link_count: network.link_count(),
        }
    }

    /// The stored load vector of `ncp`, inserted empty if absent.
    fn ncp_entry(&mut self, ncp: NcpId) -> &mut ResourceVec {
        assert!(ncp.index() < self.ncp_count, "{ncp:?} out of range");
        let at = match self.ncps.binary_search_by_key(&ncp, |e| e.0) {
            Ok(at) => at,
            Err(at) => {
                self.ncps.insert(at, (ncp, ResourceVec::new()));
                at
            }
        };
        &mut self.ncps[at].1
    }

    /// Adds `bits` onto `link`'s stored bits (`0.0` if absent).
    fn add_link_bits(&mut self, link: LinkId, bits: f64) {
        assert!(link.index() < self.link_count, "{link:?} out of range");
        match self.links.binary_search_by_key(&link, |e| e.0) {
            Ok(at) => self.links[at].1 += bits,
            Err(at) if bits != 0.0 => self.links.insert(at, (link, bits)),
            Err(_) => {}
        }
    }

    /// Adds a CT's per-data-unit requirement onto its host NCP.
    ///
    /// # Panics
    ///
    /// Panics if `ncp` is out of range.
    pub fn add_ct_load(&mut self, ncp: NcpId, requirement: &ResourceVec) {
        if !requirement.is_empty() {
            self.ncp_entry(ncp).add_vec(requirement);
        }
    }

    /// Adds a TT's per-data-unit bits onto a link it traverses.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn add_tt_load(&mut self, link: LinkId, bits_per_unit: f64) {
        self.add_link_bits(link, bits_per_unit);
    }

    /// Load vector on an NCP.
    pub fn ncp(&self, id: NcpId) -> &ResourceVec {
        match self.ncps.binary_search_by_key(&id, |e| e.0) {
            Ok(at) => &self.ncps[at].1,
            Err(_) => &NO_LOAD,
        }
    }

    /// Bits per data unit on a link.
    pub fn link(&self, id: LinkId) -> f64 {
        match self.links.binary_search_by_key(&id, |e| e.0) {
            Ok(at) => self.links[at].1,
            Err(_) => 0.0,
        }
    }

    /// Load of an arbitrary element as a [`ResourceVec`].
    pub fn element(&self, element: NetworkElement) -> ResourceVec {
        match element {
            NetworkElement::Ncp(id) => self.ncp(id).clone(),
            NetworkElement::Link(id) => ResourceVec::bandwidth(self.link(id)),
        }
    }

    /// Merges another load map (same shape) into this one, scaled by
    /// `scale` (e.g. a path's share of the application's rate).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge_scaled(&mut self, other: &LoadMap, scale: f64) {
        assert_eq!(self.ncp_count, other.ncp_count, "NCP shape mismatch");
        assert_eq!(self.link_count, other.link_count, "link shape mismatch");
        for (id, l) in &other.ncps {
            self.ncp_entry(*id).add_vec(&l.scaled(scale));
        }
        for &(id, bits) in &other.links {
            self.add_link_bits(id, bits * scale);
        }
    }

    /// Number of NCP entries.
    pub fn ncp_count(&self) -> usize {
        self.ncp_count
    }

    /// Number of link entries.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Strictly positive `(element, kind, amount)` entries in
    /// NCPs-then-links order, kinds in their sorted storage order — the
    /// same order [`crate::Network::elements`] walks and constraint
    /// builders emit rows in.
    pub fn positive_entries(
        &self,
    ) -> impl Iterator<Item = (NetworkElement, ResourceKind, f64)> + '_ {
        let ncps = self.ncps.iter().flat_map(|(id, v)| {
            v.iter()
                .filter(|&(_, a)| a > 0.0)
                .map(move |(kind, a)| (NetworkElement::Ncp(*id), kind, a))
        });
        let links = (self.links.iter())
            .filter(|&&(_, b)| b > 0.0)
            .map(|&(id, b)| (NetworkElement::Link(id), ResourceKind::Bandwidth, b));
        ncps.chain(links)
    }

    /// Elements carrying non-zero load, in NCPs-then-links order.
    pub fn loaded_elements(&self) -> Vec<NetworkElement> {
        let ncps = (self.ncps.iter())
            .filter(|(_, l)| !l.is_zero())
            .map(|&(id, _)| NetworkElement::Ncp(id));
        let links = (self.links.iter())
            .filter(|&&(_, bits)| bits > 0.0)
            .map(|&(id, _)| NetworkElement::Link(id));
        ncps.chain(links).collect()
    }

    /// Returns `true` if nothing is loaded.
    pub fn is_zero(&self) -> bool {
        self.ncps.iter().all(|(_, l)| l.is_zero()) && self.links.iter().all(|&(_, b)| b == 0.0)
    }
}

/// The dense working form of a [`LoadMap`]: one entry per element, so
/// the placement engine's inner loops (a host's load per candidate, a
/// link's bits per arc) look a load up in O(1) while an application is
/// being placed. [`Self::to_load_map`] compacts it once the placement is
/// done; the per-element arithmetic is the same in both forms.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLoad {
    ncps: Vec<ResourceVec>,
    links: Vec<f64>,
}

impl DenseLoad {
    /// An empty load shaped like `network`.
    pub fn zeroed(network: &Network) -> Self {
        DenseLoad {
            ncps: vec![ResourceVec::new(); network.ncp_count()],
            links: vec![0.0; network.link_count()],
        }
    }

    /// As [`LoadMap::add_ct_load`].
    ///
    /// # Panics
    ///
    /// Panics if `ncp` is out of range.
    pub fn add_ct_load(&mut self, ncp: NcpId, requirement: &ResourceVec) {
        self.ncps[ncp.index()].add_vec(requirement);
    }

    /// As [`LoadMap::add_tt_load`].
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn add_tt_load(&mut self, link: LinkId, bits_per_unit: f64) {
        self.links[link.index()] += bits_per_unit;
    }

    /// Load vector on an NCP.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ncp(&self, id: NcpId) -> &ResourceVec {
        &self.ncps[id.index()]
    }

    /// Bits per data unit on a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> f64 {
        self.links[id.index()]
    }

    /// The compact [`LoadMap`] holding the same loads.
    pub fn to_load_map(&self) -> LoadMap {
        let ids = (0u32..).map(NcpId::new);
        let ncps = (ids.zip(&self.ncps))
            .filter(|(_, l)| !l.is_empty())
            .map(|(id, l)| (id, l.clone()));
        let ids = (0u32..).map(LinkId::new);
        let links = (ids.zip(&self.links))
            .filter(|&(_, &bits)| bits != 0.0)
            .map(|(id, &bits)| (id, bits));
        LoadMap {
            ncps: ncps.collect(),
            links: links.collect(),
            ncp_count: self.ncps.len(),
            link_count: self.links.len(),
        }
    }
}

/// Read access to the bits per data unit a load puts on each link —
/// all the widest-path search reads of it, once per arc — so the search
/// runs over the engine's [`DenseLoad`] and a stored [`LoadMap`] alike.
pub trait LinkLoads {
    /// Bits per data unit on `id`.
    fn link(&self, id: LinkId) -> f64;
}

impl LinkLoads for LoadMap {
    fn link(&self, id: LinkId) -> f64 {
        LoadMap::link(self, id)
    }
}

impl LinkLoads for DenseLoad {
    fn link(&self, id: LinkId) -> f64 {
        DenseLoad::link(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    fn net2() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::cpu(100.0));
        let y = b.add_ncp("y", ResourceVec::cpu(50.0));
        b.add_link("xy", x, y, 1000.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_capacity_snapshot() {
        let net = net2();
        let cap = CapacityMap::full(&net);
        assert_eq!(cap.ncp(NcpId::new(0)).amount(ResourceKind::Cpu), 100.0);
        assert_eq!(cap.link(LinkId::new(0)), 1000.0);
    }

    #[test]
    fn bottleneck_rate_matches_paper_formula() {
        let net = net2();
        let cap = CapacityMap::full(&net);
        let mut load = LoadMap::zeroed(&net);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(10.0)); // 100/10 = 10
        load.add_ct_load(NcpId::new(1), &ResourceVec::cpu(1.0)); // 50/1 = 50
        load.add_tt_load(LinkId::new(0), 250.0); // 1000/250 = 4  <- bottleneck
        assert_eq!(cap.bottleneck_rate(&load), 4.0);
    }

    #[test]
    fn empty_load_is_unconstrained() {
        let net = net2();
        let cap = CapacityMap::full(&net);
        let load = LoadMap::zeroed(&net);
        assert_eq!(cap.bottleneck_rate(&load), f64::INFINITY);
        assert!(load.is_zero());
    }

    #[test]
    fn subtract_and_add_load_roundtrip() {
        let net = net2();
        let mut cap = CapacityMap::full(&net);
        let mut load = LoadMap::zeroed(&net);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(10.0));
        load.add_tt_load(LinkId::new(0), 100.0);
        cap.subtract_load(&load, 2.0);
        assert_eq!(cap.ncp(NcpId::new(0)).amount(ResourceKind::Cpu), 80.0);
        assert_eq!(cap.link(LinkId::new(0)), 800.0);
        cap.add_load(&load, 2.0);
        assert_eq!(cap.ncp(NcpId::new(0)).amount(ResourceKind::Cpu), 100.0);
        assert_eq!(cap.link(LinkId::new(0)), 1000.0);
    }

    #[test]
    fn subtract_clamps_at_zero() {
        let net = net2();
        let mut cap = CapacityMap::full(&net);
        let mut load = LoadMap::zeroed(&net);
        load.add_tt_load(LinkId::new(0), 100.0);
        cap.subtract_load(&load, 1e9);
        assert_eq!(cap.link(LinkId::new(0)), 0.0);
    }

    /// The compact map and the dense working form hold the same loads,
    /// and an unstored element reads as the dense map's zero.
    #[test]
    fn dense_load_compacts_to_the_same_map() {
        let net = net2();
        let mut dense = DenseLoad::zeroed(&net);
        let mut sparse = LoadMap::zeroed(&net);
        dense.add_ct_load(NcpId::new(1), &ResourceVec::cpu(4.0));
        dense.add_ct_load(NcpId::new(0), &ResourceVec::new());
        dense.add_tt_load(LinkId::new(0), 8.0);
        sparse.add_tt_load(LinkId::new(0), 8.0);
        sparse.add_ct_load(NcpId::new(0), &ResourceVec::new());
        sparse.add_ct_load(NcpId::new(1), &ResourceVec::cpu(4.0));
        assert_eq!(dense.to_load_map(), sparse);
        assert!(sparse.ncp(NcpId::new(0)).is_empty());
        assert_eq!(sparse.ncp(NcpId::new(1)), dense.ncp(NcpId::new(1)));
        assert_eq!(LinkLoads::link(&sparse, LinkId::new(0)), 8.0);
        assert_eq!(sparse.loaded_elements().len(), 2);
        assert!(LoadMap::zeroed(&net).is_zero());
    }

    #[test]
    fn scale_element_for_prediction() {
        let net = net2();
        let mut cap = CapacityMap::full(&net);
        cap.scale_element(NetworkElement::Ncp(NcpId::new(0)), 2.0 / 3.0);
        assert!((cap.ncp(NcpId::new(0)).amount(ResourceKind::Cpu) - 200.0 / 3.0).abs() < 1e-9);
        cap.scale_element(NetworkElement::Link(LinkId::new(0)), 0.5);
        assert_eq!(cap.link(LinkId::new(0)), 500.0);
    }

    #[test]
    fn merge_scaled_accumulates() {
        let net = net2();
        let mut a = LoadMap::zeroed(&net);
        let mut b = LoadMap::zeroed(&net);
        b.add_ct_load(NcpId::new(1), &ResourceVec::cpu(4.0));
        b.add_tt_load(LinkId::new(0), 8.0);
        a.merge_scaled(&b, 0.5);
        assert_eq!(a.ncp(NcpId::new(1)).amount(ResourceKind::Cpu), 2.0);
        assert_eq!(a.link(LinkId::new(0)), 4.0);
        assert_eq!(a.loaded_elements().len(), 2);
    }

    #[test]
    fn utilization_matches_hand_math() {
        let net = net2();
        let cap = CapacityMap::full(&net);
        let mut load = LoadMap::zeroed(&net);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(10.0)); // max 10/s
        load.add_tt_load(LinkId::new(0), 250.0); // max 4/s
        let u = cap.utilization(&load, 2.0);
        assert!((u[0] - 0.2).abs() < 1e-12, "ncp0 {}", u[0]);
        assert_eq!(u[1], 0.0, "unloaded ncp");
        assert!((u[2] - 0.5).abs() < 1e-12, "link {}", u[2]);
        // At the bottleneck rate, the binding element hits 1.0.
        let u = cap.utilization(&load, cap.bottleneck_rate(&load));
        assert!((u[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_element_replay_matches_the_whole_subtraction_bitwise() {
        let net = net2();
        let mut load = LoadMap::zeroed(&net);
        load.add_ct_load(NcpId::new(0), &ResourceVec::cpu(7.3));
        load.add_tt_load(LinkId::new(0), 11.1);

        let mut dense = CapacityMap::full(&net);
        dense.subtract_load(&load, 1.7);

        // Per-element replay over every element reproduces the dense fold.
        let mut replayed = CapacityMap::full(&net);
        for i in 0..replayed.ncp_count() {
            replayed.subtract_load_element(NetworkElement::Ncp(NcpId::new(i as u32)), &load, 1.7);
        }
        for i in 0..replayed.link_count() {
            replayed.subtract_load_element(NetworkElement::Link(LinkId::new(i as u32)), &load, 1.7);
        }
        assert_eq!(dense, replayed);

        // copy_element_from restores individual elements.
        let full = CapacityMap::full(&net);
        let mut restored = dense.clone();
        restored.copy_element_from(&full, NetworkElement::Ncp(NcpId::new(0)));
        restored.copy_element_from(&full, NetworkElement::Link(LinkId::new(0)));
        assert_eq!(restored, full);

        // The per-element bottleneck over the loaded elements (here
        // repeated and out of order) is the dense one.
        let on = [
            NetworkElement::Link(LinkId::new(0)),
            NetworkElement::Ncp(NcpId::new(0)),
            NetworkElement::Link(LinkId::new(0)),
        ];
        let rate = dense.bottleneck_rate(&load);
        assert_eq!(
            dense.bottleneck_rate_on(&load, &on).to_bits(),
            rate.to_bits()
        );
    }

    #[test]
    fn element_capacities_round_trip_and_diff_bitwise() {
        let net = net2();
        let full = CapacityMap::full(&net);
        let (x, xy) = (
            NetworkElement::Ncp(NcpId::new(0)),
            NetworkElement::Link(LinkId::new(0)),
        );
        let mut changed = full.clone();
        changed.scale_element(xy, 0.5);
        changed.set_element(x, &ResourceVec::cpu_memory(1.0, 2.0));
        assert_eq!(full.changed_elements(&changed), Ok(vec![x, xy]));
        assert_eq!(full.changed_elements(&full), Ok(vec![]));
        // A sign flip on zero is a change in bits.
        let mut zero = full.clone();
        zero.scale_element(xy, 0.0);
        let mut negative_zero = zero.clone();
        negative_zero.scale_element(xy, -1.0);
        assert_eq!(zero.changed_elements(&negative_zero), Ok(vec![xy]));
        for e in [x, xy] {
            changed.set_element(e, &full.element(e));
        }
        assert_eq!(full.changed_elements(&changed), Ok(vec![]));

        let mut b = NetworkBuilder::new();
        b.add_ncp("solo", ResourceVec::cpu(1.0));
        let solo = CapacityMap::full(&b.build().unwrap());
        assert_eq!(
            full.changed_elements(&solo),
            Err(ModelError::UnknownNcp(NcpId::new(1)))
        );
    }

    #[test]
    fn check_element_names_range_and_value_faults() {
        let net = net2();
        let mut caps = CapacityMap::full(&net);
        let (x, xy) = (
            NetworkElement::Ncp(NcpId::new(0)),
            NetworkElement::Link(LinkId::new(0)),
        );
        assert_eq!(caps.check_element(x), Ok(()));
        assert_eq!(
            caps.check_element(NetworkElement::Ncp(NcpId::new(2))),
            Err(ModelError::UnknownNcp(NcpId::new(2)))
        );
        assert_eq!(
            caps.check_element(NetworkElement::Link(LinkId::new(1))),
            Err(ModelError::UnknownLink(LinkId::new(1)))
        );
        caps.scale_element(xy, -1.0);
        assert!(matches!(
            caps.check_element(xy),
            Err(ModelError::InvalidQuantity { value, .. }) if value == -1000.0
        ));
        caps.ncp_mut(NcpId::new(0)).scale(f64::MAX);
        assert!(matches!(
            caps.check_element(x),
            Err(ModelError::InvalidQuantity { value, .. }) if value == f64::INFINITY
        ));
    }

    #[test]
    fn positive_entries_lists_loads_in_element_order() {
        let net = net2();
        let mut load = LoadMap::zeroed(&net);
        load.add_ct_load(NcpId::new(1), &ResourceVec::cpu(4.0));
        load.add_tt_load(LinkId::new(0), 8.0);
        let entries: Vec<_> = load.positive_entries().collect();
        assert_eq!(
            entries,
            vec![
                (NetworkElement::Ncp(NcpId::new(1)), ResourceKind::Cpu, 4.0),
                (
                    NetworkElement::Link(LinkId::new(0)),
                    ResourceKind::Bandwidth,
                    8.0
                ),
            ]
        );
        assert_eq!(load.ncp_count(), 2);
        assert_eq!(load.link_count(), 1);
    }
}
