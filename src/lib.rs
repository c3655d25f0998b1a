//! SPARCLE: network-aware scheduling for stream processing applications
//! over dispersed computing networks.
//!
//! This is the facade crate of the SPARCLE workspace — a from-scratch
//! reproduction of *SPARCLE: Stream Processing Applications over Dispersed
//! Computing Networks* (ICDCS 2020). It re-exports the public API of every
//! member crate:
//!
//! * [`model`] — task graphs, networks, placements, capacities.
//! * [`core`] — Algorithm 1 (widest-path routing), Algorithm 2
//!   (dynamic-ranking task assignment), multi-path extraction, and the
//!   full SPARCLE system pipeline (admission control + allocation).
//! * [`alloc`] — the proportional-fair rate allocator for problem (4),
//!   priority-share capacity prediction (eq. 6), and availability
//!   analysis for BE and GR applications.
//! * [`baselines`] — the comparison algorithms of §V: T-Storm, VNE,
//!   HEFT, Greedy Sorted/Random, Random, cloud-only, and exhaustive
//!   optimal search.
//! * [`sim`] — a discrete-event queueing simulator, the emulated
//!   testbed of Figure 4, failure injection, and the energy model.
//! * [`workloads`] — generators for the paper's task graphs, network
//!   topologies, bottleneck scenarios, arrival traces, and the
//!   face-detection workload.
//! * [`runtime`] — the online churn runtime: a deterministic control
//!   plane driving a live system through arrivals, departures, element
//!   failures, and capacity fluctuation, with pluggable reconcile
//!   policies and an SLO ledger.
//! * [`service`] — the admission service plane, a plane on the
//!   runtime's event queue: it coalesces placement requests into
//!   micro-batched transactions (one warm solve per window), answers
//!   what-if probes from an immutable state snapshot, and sheds load
//!   under backpressure.
//!
//! # Quickstart
//!
//! ```
//! use sparcle::core::DynamicRankingAssigner;
//! use sparcle::model::QoeClass;
//! use sparcle::workloads::{face_detection_app, testbed_network};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let network = testbed_network(10.0e6); // 10 Mbps field bandwidth
//! let app = face_detection_app(QoeClass::best_effort(1.0))?;
//! let assigner = DynamicRankingAssigner::new();
//! let path = assigner.assign(&app, &network, &network.capacity_map())?;
//! println!(
//!     "processing rate: {:.3} images/s via {} elements",
//!     path.rate,
//!     path.placement.elements_used(&network).len()
//! );
//! # Ok(())
//! # }
//! ```

pub use sparcle_alloc as alloc;
pub use sparcle_baselines as baselines;
pub use sparcle_core as core;
pub use sparcle_model as model;
pub use sparcle_runtime as runtime;
pub use sparcle_runtime::service;
pub use sparcle_sim as sim;
pub use sparcle_workloads as workloads;
