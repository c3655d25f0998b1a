//! Resource allocation algorithms for SPARCLE (§IV-C/D of the paper).
//!
//! Three building blocks sit in this crate, each usable on its own:
//!
//! * [`num`] — the weighted proportional-fair rate allocator solving
//!   problem (4) `max Σ P_i log x_i s.t. R X ≤ C` for all present
//!   Best-Effort applications, with KKT verification.
//! * [`maxmin`] — a weighted max-min fair allocator (progressive
//!   filling), an analysis to compare with problem (4) over the same
//!   placements.
//! * [`predict`] — the priority-share capacity prediction of eq. (6),
//!   which lets the task assignment of a newly arriving BE application
//!   anticipate the share it will receive next to already-placed ones.
//! * [`availability`] — exact (inclusion–exclusion) and Monte-Carlo
//!   availability analysis over overlapping task assignment paths: BE
//!   "at least one path works" availability and the GR min-rate
//!   availability of eq. (7).
//!
//! The loops that *add* paths until a QoE target is met live in
//! `sparcle-core::system`, because they need the task assignment
//! algorithm; this crate is pure analysis.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod availability;
pub mod maxmin;
pub mod num;
pub mod predict;

pub use availability::{AvailabilityError, PathAvailability};
pub use maxmin::{max_min_allocation, MaxMinAllocation};
pub use num::{
    AllocError, Allocation, ConstraintRow, ConstraintSystem, IncrementalConstraints, SolveStats,
    SolverScratch,
};
pub use predict::PriorityLoads;
