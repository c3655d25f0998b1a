//! The SPARCLE **online churn runtime**: an event-driven control plane
//! that owns a [`sparcle_core::SparcleSystem`] and drives it through a
//! deterministic simulated timeline of
//!
//! * application **arrivals** (consumed from the lazy
//!   [`sparcle_workloads::ArrivalEvents`] iterators) and exponential
//!   hold-time **departures**,
//! * network-element **failures and recoveries** (the same
//!   [`sparcle_sim::ElementStateStream`] epochs the Figure-10 batch
//!   study samples), and
//! * background **capacity fluctuation** steps
//!   ([`sparcle_sim::FluctuationModel`]).
//!
//! The paper treats SPARCLE as an *online* scheduler — applications
//! "arrive over time" (§III-A), placements never move *implicitly*, and
//! admission reacts to the network as it is *now*. The batch experiments
//! elsewhere in this workspace study each mechanism in isolation; this
//! crate closes the loop: disruptions displace applications, a pluggable
//! [`ReconcilePolicy`] decides the order in which they are re-placed
//! after a configurable control-plane delay, and an [`SloLedger`]
//! integrates the damage (GR violation-seconds, BE delivered-rate,
//! reaction latency, placement churn) between events.
//!
//! Planned moves are the one sanctioned exception: the optional
//! [`defrag`] plane periodically probes placed applications with
//! rollback-only what-if migrations
//! ([`sparcle_core::SystemTxn::migrate`]) and commits the net-positive
//! ones under a bounded displaced-seconds-per-epoch budget, charged to
//! the ledger as deliberate churn.
//!
//! Everything is driven off the deterministic
//! [`sparcle_sim::des::EventQueue`]: the same seeds produce a
//! byte-identical `runtime_*` telemetry event log across runs *and
//! across γ-evaluator thread counts* (`SystemConfig::assigner_threads`).
//!
//! Long runs are watched from inside the timeline by the [`monitor`]
//! module: a periodic monitor-tick event folds the ledger and the state
//! core's work counters into sim-time sliding windows, evaluates
//! burn-rate/degradation detectors, and emits `monitor_*` telemetry
//! events (and an optional Prometheus-style metrics file) with the same
//! byte-identical determinism guarantee.
//!
//! The admission [`service`] is a plane on the same loop: its runtime's
//! queue carries no churn, only the plane's batch-window closes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod defrag;
pub mod ledger;
pub mod monitor;
pub mod policy;
pub mod runtime;
pub mod service;

pub use defrag::{DefragConfig, Defragmenter};
pub use ledger::SloLedger;
pub use monitor::{
    AlertRules, AlertTransition, Monitor, MonitorConfig, MonitorSample, TickInput, ALERT_RULES,
};
pub use policy::ReconcilePolicy;
pub use runtime::{ChurnEvent, FluctuationConfig, PendingApp, RuntimeConfig, SparcleRuntime};
