//! The SPARCLE **admission-control service plane** (DESIGN.md §13): a
//! long-running, deterministic front-end over the runtime's
//! [`SparcleSystem`](sparcle_core::SparcleSystem) that serves a
//! sustained stream of placement requests instead of one-shot batch
//! experiments.
//!
//! Three mechanisms make the service plane cheaper than per-request
//! admission while preserving its decisions bitwise:
//!
//! * **Micro-batched admission** — submissions inside one batch window
//!   are coalesced into a single transaction
//!   ([`sparcle_core::system::SystemTxn::submit_all`]) that runs *one*
//!   warm Best-Effort solve per window instead of one per request,
//!   mirroring how batched failures share one blast-radius solve.
//! * **Snapshot reads** — read-only what-if/γ-probe queries are answered
//!   from an immutable [`StateSnapshot`](sparcle_core::StateSnapshot)
//!   (rates, GR residuals, predicted capacities), so probes never wait
//!   on the writer — even while a commit is in flight.
//! * **Backpressure + SLO-aware shedding** — each commit holds the
//!   writer for the work it counted: its Newton steps and its
//!   widest-path tree sweeps, each at a fixed sim-time price. A window
//!   boundary that falls inside that busy time is deferred whole
//!   (charged to the [`SloLedger`](crate::SloLedger) as deferrals), and
//!   requests deferred past `max_defer_windows`, or pushed out of a full
//!   ingest queue, are shed — lowest priority first, with
//!   Guaranteed-Rate requests protected by an infinite rank; ties shed
//!   the youngest.
//!
//! The plane runs on the churn runtime's event queue: an
//! [`AdmissionService`] is a [`SparcleRuntime`](crate::SparcleRuntime)
//! that schedules no churn, only the plane's window closes. Before each
//! request at `t` every close due at or before `t` runs, so a request
//! due exactly on a boundary `k × batch_window` joins the next window.
//!
//! Everything runs in simulated time: the same request stream produces a
//! byte-identical `service_*` telemetry log across runs and across
//! γ-evaluator thread counts (`SystemConfig::assigner_threads`), because
//! the work counts behind the writer clock are themselves deterministic.

use sparcle_core::SystemConfig;

use crate::monitor::MonitorConfig;

pub use crate::runtime::admission::AdmissionService;

/// Tunables of the admission service plane.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Micro-batch window length in sim-seconds; every boundary
    /// `k × batch_window` closes the current batch. Must be positive.
    pub batch_window: f64,
    /// Maximum requests coalesced into one transaction; the remainder
    /// stays queued for the next window.
    pub max_batch: usize,
    /// Ingest queue capacity; an arrival that would overflow it sheds
    /// the lowest-priority queued request (possibly itself).
    pub queue_capacity: usize,
    /// A request deferred past this many windows by backpressure is
    /// shed instead of deferred again.
    pub max_defer_windows: u64,
    /// Optional observability monitor ticked at every window close.
    pub monitor: Option<MonitorConfig>,
    /// Configuration of the owned [`SparcleSystem`](sparcle_core::SparcleSystem).
    pub system: SystemConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_window: 1.0,
            max_batch: 64,
            queue_capacity: 256,
            max_defer_windows: 4,
            monitor: None,
            system: SystemConfig::default(),
        }
    }
}

/// Decision counters of one service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Batched transactions committed.
    pub batches: u64,
    /// Window boundaries deferred because the writer was busy.
    pub windows_deferred: u64,
    /// Placement decisions served (admitted + rejected, not shed).
    pub decisions: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests shed by backpressure (queue overflow or deferral
    /// budget).
    pub shed: u64,
    /// Probes answered from the snapshot.
    pub probes: u64,
    /// Probes whose what-if assignment was feasible.
    pub probes_feasible: u64,
    /// Per-request deferral charges: every request queued in a deferred
    /// window counts one (the ledger's `deferrals`).
    pub deferrals: u64,
}

impl ServiceStats {
    /// The exported counters as `(trace counter name, value)` pairs —
    /// the one `service.*` list [`AdmissionService::run_traced`] exports.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("service.batches", self.batches),
            ("service.decisions", self.decisions),
            ("service.admitted", self.admitted),
            ("service.rejected", self.rejected),
            ("service.shed", self.shed),
            ("service.probes", self.probes),
            ("service.deferrals", self.deferrals),
        ]
    }
}

/// The answer to a read-only what-if probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeAnswer {
    /// Whether a fresh assignment path would clear admission (for GR
    /// probes the path must also carry the requested minimum rate).
    pub feasible: bool,
    /// The rate the found path would carry (`0.0` when none was found).
    pub rate: f64,
}
