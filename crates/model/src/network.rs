//! Dispersed computing network model.
//!
//! A computing network (§III-B of the paper) is a graph whose vertices are
//! *networked computing points* (NCPs, [`Ncp`]) carrying per-resource
//! computation capacities `C_j^(r)`, and whose edges are communication
//! [`Link`]s carrying a bandwidth capacity `C_j^(b)`. Every element may
//! fail independently with a failure probability `Pf_j`, which drives the
//! availability analysis of §IV-C/D.
//!
//! Links are *undirected by default* (bandwidth shared between both
//! directions, the common wireless case in the paper's footnote 2); build
//! a directed network by adding one [`LinkDirection::Directed`] link per
//! direction.
//!
//! The adjacency is stored once, as the flat [`CsrNetwork`] that
//! [`NetworkBuilder::build`] lays out from the link list;
//! [`Network::neighbors`] and the widest-path searches both read it.
//!
//! # Examples
//!
//! A three-node chain:
//!
//! ```
//! # use sparcle_model::{NetworkBuilder, ResourceVec};
//! # fn main() -> Result<(), sparcle_model::ModelError> {
//! let mut b = NetworkBuilder::new();
//! let a = b.add_ncp("edge-a", ResourceVec::cpu(3000.0));
//! let m = b.add_ncp("mid", ResourceVec::cpu(2000.0));
//! let c = b.add_ncp("cloud", ResourceVec::cpu(16_000.0));
//! b.add_link("a-m", a, m, 10e6)?;
//! b.add_link("m-c", m, c, 100e6)?;
//! let net = b.build()?;
//! assert_eq!(net.ncp_count(), 3);
//! assert_eq!(net.neighbors(m).count(), 2);
//! # Ok(())
//! # }
//! ```

use crate::csr::CsrNetwork;
use crate::error::ModelError;
use crate::ids::{LinkId, NcpId, NetworkElement};
use crate::resources::ResourceVec;

/// Whether a link's bandwidth is shared between both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkDirection {
    /// Bandwidth is shared between both directions (undirected edge).
    #[default]
    Undirected,
    /// Bandwidth applies only from `a` to `b`.
    Directed,
}

/// A networked computing point: one vertex of the computing network.
#[derive(Debug, Clone, PartialEq)]
pub struct Ncp {
    name: String,
    capacity: ResourceVec,
    failure_probability: f64,
}

impl Ncp {
    /// Human-readable node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Computation capacities `C_j^(r)` per resource type.
    pub fn capacity(&self) -> &ResourceVec {
        &self.capacity
    }

    /// Independent failure probability `Pf_j` of this node.
    pub fn failure_probability(&self) -> f64 {
        self.failure_probability
    }
}

/// A communication link: one edge of the computing network.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    name: String,
    a: NcpId,
    b: NcpId,
    bandwidth: f64,
    direction: LinkDirection,
    failure_probability: f64,
}

impl Link {
    /// Human-readable link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One endpoint (the tail, for directed links).
    pub fn a(&self) -> NcpId {
        self.a
    }

    /// The other endpoint (the head, for directed links).
    pub fn b(&self) -> NcpId {
        self.b
    }

    /// Bandwidth capacity `C_j^(b)` in bits per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Whether bandwidth is shared between directions.
    pub fn direction(&self) -> LinkDirection {
        self.direction
    }

    /// Independent failure probability `Pf_j` of this link.
    pub fn failure_probability(&self) -> f64 {
        self.failure_probability
    }

    /// The bandwidth capacity as a [`ResourceVec`].
    pub fn capacity(&self) -> ResourceVec {
        ResourceVec::bandwidth(self.bandwidth)
    }

    /// Returns the endpoint opposite `ncp`, honoring directedness when
    /// `respect_direction` traversal is needed (see
    /// [`Network::neighbors`]); returns `None` if `ncp` is not an endpoint
    /// or the link cannot be traversed from `ncp`.
    pub fn traverse_from(&self, ncp: NcpId) -> Option<NcpId> {
        if ncp == self.a {
            Some(self.b)
        } else if ncp == self.b && self.direction == LinkDirection::Undirected {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Incrementally builds a [`Network`].
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    name: String,
    ncps: Vec<Ncp>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a human-readable name for the network.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Adds an NCP with zero failure probability and returns its id.
    pub fn add_ncp(&mut self, name: impl Into<String>, capacity: ResourceVec) -> NcpId {
        self.add_ncp_with_failure(name, capacity, 0.0)
            .expect("zero failure probability is always valid")
    }

    /// Adds an NCP with the given failure probability.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] if `failure_probability`
    /// is outside `[0, 1]`.
    pub fn add_ncp_with_failure(
        &mut self,
        name: impl Into<String>,
        capacity: ResourceVec,
        failure_probability: f64,
    ) -> Result<NcpId, ModelError> {
        check_probability(failure_probability)?;
        let id = NcpId::new(self.ncps.len() as u32);
        self.ncps.push(Ncp {
            name: name.into(),
            capacity,
            failure_probability,
        });
        Ok(id)
    }

    /// Adds an undirected link with zero failure probability.
    ///
    /// # Errors
    ///
    /// See [`Self::add_link_full`].
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        a: NcpId,
        b: NcpId,
        bandwidth: f64,
    ) -> Result<LinkId, ModelError> {
        self.add_link_full(name, a, b, bandwidth, LinkDirection::Undirected, 0.0)
    }

    /// Adds a link with full control over direction and failure
    /// probability.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownNcp`] for dangling endpoints,
    /// [`ModelError::SelfLink`] if `a == b`,
    /// [`ModelError::InvalidQuantity`] for a negative/non-finite
    /// bandwidth, and [`ModelError::InvalidProbability`] for a failure
    /// probability outside `[0, 1]`.
    pub fn add_link_full(
        &mut self,
        name: impl Into<String>,
        a: NcpId,
        b: NcpId,
        bandwidth: f64,
        direction: LinkDirection,
        failure_probability: f64,
    ) -> Result<LinkId, ModelError> {
        if a.index() >= self.ncps.len() {
            return Err(ModelError::UnknownNcp(a));
        }
        if b.index() >= self.ncps.len() {
            return Err(ModelError::UnknownNcp(b));
        }
        if a == b {
            return Err(ModelError::SelfLink(a));
        }
        if !bandwidth.is_finite() || bandwidth < 0.0 {
            return Err(ModelError::InvalidQuantity {
                what: "link bandwidth",
                value: bandwidth,
            });
        }
        check_probability(failure_probability)?;
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link {
            name: name.into(),
            a,
            b,
            bandwidth,
            direction,
            failure_probability,
        });
        Ok(id)
    }

    /// Validates and produces an immutable [`Network`], building its
    /// CSR adjacency from the links.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyNetwork`] when no NCP was added.
    pub fn build(self) -> Result<Network, ModelError> {
        if self.ncps.is_empty() {
            return Err(ModelError::EmptyNetwork);
        }
        let csr = CsrNetwork::from_links(self.ncps.len(), &self.links);
        Ok(Network {
            name: self.name,
            ncps: self.ncps,
            links: self.links,
            csr,
        })
    }
}

/// An immutable dispersed computing network of NCPs and links.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    ncps: Vec<Ncp>,
    links: Vec<Link>,
    /// Every traversable arc, forward and reverse.
    csr: CsrNetwork,
}

impl Network {
    /// The network's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of NCPs.
    pub fn ncp_count(&self) -> usize {
        self.ncps.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the NCP with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn ncp(&self, id: NcpId) -> &Ncp {
        &self.ncps[id.index()]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all NCP ids in index order.
    pub fn ncp_ids(&self) -> impl Iterator<Item = NcpId> + '_ {
        (0..self.ncps.len() as u32).map(NcpId::new)
    }

    /// Iterates over all link ids in index order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// Iterates over all elements: NCPs first, then links.
    pub fn elements(&self) -> impl Iterator<Item = NetworkElement> + '_ {
        self.ncp_ids()
            .map(NetworkElement::Ncp)
            .chain(self.link_ids().map(NetworkElement::Link))
    }

    /// `(link, neighbor)` pairs traversable from `ncp`, honoring link
    /// direction.
    pub fn neighbors(&self, ncp: NcpId) -> impl Iterator<Item = (LinkId, NcpId)> + '_ {
        self.csr.neighbors(ncp)
    }

    /// Failure probability of an arbitrary element.
    pub fn element_failure_probability(&self, element: NetworkElement) -> f64 {
        match element {
            NetworkElement::Ncp(id) => self.ncp(id).failure_probability(),
            NetworkElement::Link(id) => self.link(id).failure_probability(),
        }
    }

    /// Returns `true` if the network is connected when traversing links in
    /// their permitted directions from `from`.
    pub fn all_reachable_from(&self, from: NcpId) -> bool {
        let mut seen = vec![false; self.ncps.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (_, v) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.ncps.len()
    }

    /// Snapshot of all capacities, indexed by element — the paper's vector
    /// `C`. This is the starting point for residual-capacity bookkeeping
    /// (see [`crate::capacity::CapacityMap`]).
    pub fn capacity_map(&self) -> crate::capacity::CapacityMap {
        crate::capacity::CapacityMap::full(self)
    }

    /// The flat CSR adjacency the widest-path searches traverse.
    pub fn csr(&self) -> &CsrNetwork {
        &self.csr
    }
}

fn check_probability(p: f64) -> Result<(), ModelError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(ModelError::InvalidProbability(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::cpu(10.0));
        let y = b.add_ncp("y", ResourceVec::cpu(20.0));
        let z = b.add_ncp("z", ResourceVec::cpu(30.0));
        b.add_link("xy", x, y, 100.0).unwrap();
        b.add_link("yz", y, z, 200.0).unwrap();
        b.add_link("zx", z, x, 300.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_triangle() {
        let net = triangle();
        assert_eq!(net.ncp_count(), 3);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.neighbors(NcpId::new(0)).count(), 2);
        assert!(net.all_reachable_from(NcpId::new(0)));
    }

    #[test]
    fn rejects_empty_network() {
        assert!(matches!(
            NetworkBuilder::new().build(),
            Err(ModelError::EmptyNetwork)
        ));
    }

    #[test]
    fn rejects_self_link() {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::new());
        assert!(matches!(
            b.add_link("xx", x, x, 1.0),
            Err(ModelError::SelfLink(_))
        ));
    }

    #[test]
    fn rejects_dangling_link() {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::new());
        assert!(matches!(
            b.add_link("bad", x, NcpId::new(5), 1.0),
            Err(ModelError::UnknownNcp(_))
        ));
    }

    #[test]
    fn rejects_bad_probability() {
        let mut b = NetworkBuilder::new();
        assert!(matches!(
            b.add_ncp_with_failure("x", ResourceVec::new(), 1.5),
            Err(ModelError::InvalidProbability(_))
        ));
    }

    #[test]
    fn directed_link_traverses_one_way() {
        let mut b = NetworkBuilder::new();
        let x = b.add_ncp("x", ResourceVec::new());
        let y = b.add_ncp("y", ResourceVec::new());
        b.add_link_full("xy", x, y, 1.0, LinkDirection::Directed, 0.0)
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.neighbors(x).count(), 1);
        assert_eq!(net.neighbors(y).count(), 0);
        assert!(net.all_reachable_from(x));
        assert!(!net.all_reachable_from(y));
    }

    #[test]
    fn element_failure_probability() {
        let mut b = NetworkBuilder::new();
        let x = b
            .add_ncp_with_failure("x", ResourceVec::cpu(5.0), 0.1)
            .unwrap();
        let y = b.add_ncp("y", ResourceVec::new());
        let l = b
            .add_link_full("xy", x, y, 7.0, LinkDirection::Undirected, 0.02)
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.element_failure_probability(NetworkElement::Ncp(x)), 0.1);
        assert_eq!(
            net.element_failure_probability(NetworkElement::Link(l)),
            0.02
        );
    }

    #[test]
    fn elements_enumerate_ncps_then_links() {
        let net = triangle();
        let elems: Vec<_> = net.elements().collect();
        assert_eq!(elems.len(), 6);
        assert!(elems[0].is_ncp());
        assert!(elems[5].is_link());
    }
}
