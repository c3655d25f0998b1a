//! Workload and topology generators for the SPARCLE evaluation.
//!
//! * [`graphs`] — the linear and diamond task graphs of Figure 7;
//! * [`edge_hub`] — the four-edge, two-hub network and the per-index
//!   application mixes the online experiments replay;
//! * [`topologies`] — the star / linear / fully-connected networks of
//!   §V-B-1;
//! * [`scenarios`] — seeded samplers for the NCP-bottleneck,
//!   link-bottleneck, balanced, and memory-bottleneck regimes;
//! * [`face_detection`] — the real experimental workload of §V-A:
//!   Table II's face-detection pipeline and Table I's testbed network
//!   (Figure 4), parameterized by the field bandwidth swept in Figure 6;
//! * [`scale`] — seeded 5k–10k-NCP two-level hub-and-spoke topologies
//!   (plus a backbone-crossing pipeline app) for scale experiments;
//! * [`scenario_file`] — the plain-text experiment scenario files the
//!   paper's emulator reads (parser + writer);
//! * [`traces`] — seeded arrival-time generators (Poisson, diurnal,
//!   flash-crowd) for system-level churn studies;
//! * [`requests`] — the request-stream adapter over [`traces`] feeding
//!   the admission service plane (submissions + what-if probes).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod edge_hub;
pub mod face_detection;
pub mod graphs;
pub mod requests;
pub mod scale;
pub mod scenario_file;
pub mod scenarios;
pub mod topologies;
pub mod traces;

pub use face_detection::{face_detection_app, face_detection_graph, testbed_network};
pub use graphs::{
    diamond_task_graph, linear_task_graph, linear_task_graph_multi, random_task_graph,
};
pub use requests::{RequestKind, RequestStream, ServiceRequest};
pub use scale::{ScaleScenario, ScaleSpec};
pub use scenario_file::{parse_scenario, write_scenario, FileScenario, ScenarioParseError};
pub use scenarios::{BottleneckCase, GraphKind, Scenario, ScenarioConfig};
pub use topologies::{TopologyKind, TopologySpec};
pub use traces::{ArrivalEvent, ArrivalEvents, ArrivalTrace};
