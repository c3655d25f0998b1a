//! The SPARCLE **admission-control service plane** (DESIGN.md §13): a
//! long-running, deterministic front-end that owns a
//! [`sparcle_core::SparcleSystem`] and serves a sustained stream of
//! placement requests instead of one-shot batch experiments.
//!
//! Three mechanisms make the service plane cheaper than per-request
//! admission while preserving its decisions bitwise:
//!
//! * **Micro-batched admission** — arrivals inside one batch window are
//!   coalesced into a single transaction
//!   ([`sparcle_core::system::SystemTxn::submit_all`]) that runs *one*
//!   warm Best-Effort solve per window instead of one per request,
//!   mirroring how batched failures share one blast-radius solve.
//! * **Snapshot reads** — read-only what-if/γ-probe queries are answered
//!   from an immutable [`sparcle_core::StateSnapshot`] (rates, GR
//!   residuals, predicted capacities), so probes never wait on the
//!   writer — even while a commit is in flight.
//! * **Backpressure + SLO-aware shedding** — when arrivals outrun solve
//!   capacity the ingest queue defers whole windows (charged to the
//!   [`sparcle_runtime::SloLedger`] as deferrals) and sheds
//!   lowest-priority requests first (Guaranteed-Rate requests are
//!   protected; ties shed the youngest), charged as sheds.
//!
//! Everything runs in simulated time: the same request stream produces a
//! byte-identical `service_*` telemetry log across runs and across
//! γ-evaluator thread counts (`SystemConfig::assigner_threads`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod service;

pub use cost::SolveCostModel;
pub use service::{AdmissionService, ProbeAnswer, ServiceConfig, ServiceStats};
