//! SPARCLE's core scheduling algorithms (§IV of the paper).
//!
//! * [`mod@widest_path`] — Algorithm 1: load-aware widest-path routing for
//!   transport tasks (`P*_k(j, j')`, eq. (3)).
//! * [`engine`] — the incremental placement engine computing the paper's
//!   `γ_{i,j}` bottleneck metric (eq. (2)) and committing placements
//!   with widest-path TT routing. Shared with the baseline algorithms.
//!   One type over `engine/{trees, rank, route}.rs`: tree store, ranking
//!   scan, route-and-commit.
//! * [`assignment`] — Algorithm 2: the dynamic-ranking task assignment
//!   maximizing an application's stable processing rate, plus multi-path
//!   extraction over residual capacities.
//! * [`system`] — the full SPARCLE pipeline of Figure 3: admission
//!   control for Best-Effort and Guaranteed-Rate applications, capacity
//!   prediction (eq. (6)), availability-driven path addition, GR
//!   reservation, and proportional-fair rate allocation (problem (4)).
//!   Laid out along the figure: `system/{txn, be, gr, repair}.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assignment;
pub mod cause;
pub mod engine;
pub mod error;
pub mod snapshot;
pub mod state;
pub mod system;
pub mod trace;
pub mod widest_path;

pub use assignment::{
    assign_multipath, assign_multipath_diverse, assign_multipath_scratch_stats,
    DynamicRankingAssigner,
};
pub use cause::{DisplaceCause, MigrationCause, RejectCause, ShedCause, DEFER_WRITER_BUSY};
pub use engine::{
    fewest_hops_path, AssignStats, AssignedPath, EngineScratch, PlacementEngine, RoutePolicy,
};
pub use error::AssignError;
pub use snapshot::{SnapshotBeApp, SnapshotGrApp, StateSnapshot};
pub use sparcle_telemetry as telemetry;
pub use state::{StateStats, SystemState};
pub use system::{
    Admission, DisplacedApp, MigrationOutcome, PlacedBeApp, PlacedGrApp, RejectReason,
    SparcleSystem, SystemConfig, SystemTxn, MIN_PATH_RATE,
};
pub use trace::{SpanGuard, TraceHandle};
pub use widest_path::{
    csr_widest_path, csr_widest_path_with, csr_widest_tree, CsrWidestTree, WidestPath,
};
