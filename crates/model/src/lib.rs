//! Data models for SPARCLE: stream processing applications, dispersed
//! computing networks, and task assignment paths.
//!
//! This crate is the foundation of the SPARCLE workspace (a reproduction
//! of *SPARCLE: Stream Processing Applications over Dispersed Computing
//! Networks*, ICDCS 2020). It defines:
//!
//! * [`TaskGraph`] — an application DAG of computation tasks (CTs) and
//!   transport tasks (TTs), each with per-data-unit resource requirements;
//! * [`Network`] — a graph of networked computing points (NCPs) and
//!   links, each with capacities and failure probabilities;
//! * [`Placement`] — one *task assignment path*: CT → NCP hosts and
//!   TT → link routes, with bottleneck-rate scoring and validation;
//! * [`CapacityMap`] / [`LoadMap`] (and its dense working form
//!   [`DenseLoad`]) — the capacity vector `C` and load
//!   vector `R` of the paper's rate constraint `R x ≤ C`;
//! * [`Application`] — a task graph plus QoE class (Best-Effort or
//!   Guaranteed-Rate) and source/sink pinning.
//!
//! # Examples
//!
//! Score a hand-made placement of a two-stage pipeline on a two-node
//! network:
//!
//! ```
//! use sparcle_model::{
//!     NetworkBuilder, Placement, ResourceVec, TaskGraphBuilder,
//! };
//!
//! # fn main() -> Result<(), sparcle_model::ModelError> {
//! let mut tb = TaskGraphBuilder::new();
//! let src = tb.add_ct("source", ResourceVec::new());
//! let work = tb.add_ct("work", ResourceVec::cpu(50.0));
//! tb.add_tt("feed", src, work, 100.0)?;
//! let graph = tb.build()?;
//!
//! let mut nb = NetworkBuilder::new();
//! let sensor = nb.add_ncp("sensor", ResourceVec::cpu(10.0));
//! let server = nb.add_ncp("server", ResourceVec::cpu(1000.0));
//! let uplink = nb.add_link("uplink", sensor, server, 400.0)?;
//! let network = nb.build()?;
//!
//! let mut placement = Placement::empty(&graph);
//! placement.place_ct(src, sensor);
//! placement.place_ct(work, server);
//! placement.route_tt(graph.tt_ids().next().unwrap(), vec![uplink]);
//! placement.validate(&graph, &network)?;
//!
//! let rate = placement.bottleneck_rate(&graph, &network, &network.capacity_map());
//! assert_eq!(rate, 4.0); // uplink: 400 bits/s ÷ 100 bits/unit
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod capacity;
pub mod csr;
pub mod dot;
pub mod error;
pub mod ids;
pub mod network;
pub mod placement;
pub mod resources;
pub mod taskgraph;

pub use app::{Application, QoeClass};
pub use capacity::{CapacityMap, DenseLoad, LinkLoads, LoadMap};
pub use csr::CsrNetwork;
pub use error::{ModelError, RouteError};
pub use ids::{AppId, CtId, LinkId, NcpId, NetworkElement, TtId};
pub use network::{Link, LinkDirection, Ncp, Network, NetworkBuilder};
pub use placement::{Placement, Route};
pub use resources::{ResourceKind, ResourceVec};
pub use taskgraph::{
    ComputationTask, ReachScratch, ReachablePlacedCt, TaskGraph, TaskGraphBuilder, TransportTask,
};
