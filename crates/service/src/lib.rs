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
//! * **Backpressure + SLO-aware shedding** — each commit holds the
//!   writer for the work it counted: its Newton steps and its
//!   widest-path tree sweeps, each at a fixed sim-time price. A window
//!   boundary that falls inside that busy time is deferred whole
//!   (charged to the [`sparcle_runtime::SloLedger`] as deferrals), and
//!   requests deferred too often are shed lowest-priority first
//!   (Guaranteed-Rate requests are protected; ties shed the youngest),
//!   charged as sheds.
//!
//! Everything runs in simulated time: the same request stream produces a
//! byte-identical `service_*` telemetry log across runs and across
//! γ-evaluator thread counts (`SystemConfig::assigner_threads`), because
//! the work counts behind the writer clock are themselves deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod service;

pub use service::{AdmissionService, ProbeAnswer, ServiceConfig, ServiceStats};
