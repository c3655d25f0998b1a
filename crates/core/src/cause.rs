//! Cause codes for the decision-provenance plane (DESIGN.md §14).
//!
//! Every negative decision the system makes — rejecting an admission,
//! shedding a queued request, displacing a running app — is attributed
//! to one of the closed cause taxonomies below. The enums replace the
//! ad-hoc reason strings that used to leak into telemetry: emitters
//! attach [`RejectCause::code`]/[`ShedCause::code`]/
//! [`DisplaceCause::code`] to the event's `cause` key, so `sparcle-trace
//! explain` and the summary cause-taxonomy rollup aggregate on stable
//! identifiers while the `detail` renderings keep the binding
//! constraint (bottleneck element, losing availability comparison,
//! writer-busy horizon) human-readable.
//!
//! The code strings are part of the trace schema: renaming one is a
//! breaking change for stored traces, so variants may be added but not
//! reworded.

use crate::system::RejectReason;
use std::fmt;

/// Why an admission (or readmission) was rejected.
///
/// Derived from the richer [`RejectReason`] via [`RejectReason::cause`];
/// the payload carries the binding constraint at decision time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RejectCause {
    /// No task assignment path with positive rate exists.
    NoPath,
    /// The availability target could not be reached with the configured
    /// maximum number of paths — the losing comparison is attached.
    AvailabilityUnreachable {
        /// Best availability achieved.
        achieved: f64,
        /// The requested target.
        target: f64,
    },
    /// The proportional-fair allocation was infeasible.
    AllocationInfeasible,
    /// A preserved placement no longer fits the current capacities; the
    /// index of the first unfit path is the binding constraint.
    PlacementUnfit {
        /// Index of the first path that no longer fits.
        path: usize,
    },
    /// The submission failed outright — `submit` returned an
    /// [`crate::AssignError`] instead of a decision, e.g. for an application
    /// that touches more elements than the availability analyser
    /// accepts. The caller turned the error into a rejection rather
    /// than let one application take the timeline down.
    SubmitError,
}

impl RejectCause {
    /// The stable cause code carried on trace lines.
    pub fn code(&self) -> &'static str {
        match self {
            RejectCause::NoPath => "no_path",
            RejectCause::AvailabilityUnreachable { .. } => "availability_unreachable",
            RejectCause::AllocationInfeasible => "allocation_infeasible",
            RejectCause::PlacementUnfit { .. } => "placement_unfit",
            RejectCause::SubmitError => "submit_error",
        }
    }
}

impl fmt::Display for RejectCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectCause::NoPath => write!(f, "no_path"),
            RejectCause::AvailabilityUnreachable { achieved, target } => {
                write!(
                    f,
                    "availability_unreachable (achieved {achieved:.4} < target {target:.4})"
                )
            }
            RejectCause::AllocationInfeasible => write!(f, "allocation_infeasible"),
            RejectCause::PlacementUnfit { path } => {
                write!(f, "placement_unfit (path {path})")
            }
            RejectCause::SubmitError => write!(f, "submit_error"),
        }
    }
}

impl RejectReason {
    /// The cause-coded view of this rejection.
    pub fn cause(&self) -> RejectCause {
        match self {
            RejectReason::NoPath(_) => RejectCause::NoPath,
            RejectReason::QoeUnreachable { achieved, target } => {
                RejectCause::AvailabilityUnreachable {
                    achieved: *achieved,
                    target: *target,
                }
            }
            RejectReason::AllocationFailed(_) => RejectCause::AllocationInfeasible,
            RejectReason::PlacementUnfit { path } => RejectCause::PlacementUnfit { path: *path },
            RejectReason::SubmitError(_) => RejectCause::SubmitError,
        }
    }

    /// Shorthand for `self.cause().code()`.
    pub fn cause_code(&self) -> &'static str {
        self.cause().code()
    }
}

/// Why the admission service shed a queued request before placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedCause {
    /// The bounded request queue overflowed and this request lost the
    /// lowest-rank-first comparison.
    QueueOverflow,
    /// The request sat through more deferred windows than its budget
    /// allows.
    DeferBudget,
}

impl ShedCause {
    /// The stable cause code carried on trace lines.
    pub fn code(self) -> &'static str {
        match self {
            ShedCause::QueueOverflow => "queue_overflow",
            ShedCause::DeferBudget => "defer_budget",
        }
    }
}

impl fmt::Display for ShedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Why a running application lost its placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DisplaceCause {
    /// A network element its placement routed through failed.
    ElementFailure,
}

impl DisplaceCause {
    /// The stable cause code carried on trace lines.
    pub fn code(self) -> &'static str {
        match self {
            DisplaceCause::ElementFailure => "element_failure",
        }
    }
}

impl fmt::Display for DisplaceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Why a placed application was deliberately moved to a new placement
/// (a planned migration, as opposed to a failure-driven displacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MigrationCause {
    /// A background defragmentation pass found a net-positive move on
    /// the current capacities.
    Defragmentation,
}

impl MigrationCause {
    /// The stable cause code carried on trace lines.
    pub fn code(self) -> &'static str {
        match self {
            MigrationCause::Defragmentation => "defrag_net_gain",
        }
    }
}

impl fmt::Display for MigrationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Cause code for a wholesale window deferral (the writer was still
/// busy committing the previous batch). A constant rather than an enum:
/// deferral has exactly one cause today, but the code string is schema
/// like the enum codes above.
pub const DEFER_WRITER_BUSY: &str = "writer_busy";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_map_to_stable_codes() {
        assert_eq!(RejectReason::NoPath("x").cause_code(), "no_path");
        let qoe = RejectReason::QoeUnreachable {
            achieved: 0.5,
            target: 0.9,
        };
        assert_eq!(qoe.cause_code(), "availability_unreachable");
        assert!(qoe.cause().to_string().contains("0.5000"));
        assert_eq!(
            RejectReason::AllocationFailed("solver".into()).cause_code(),
            "allocation_infeasible"
        );
        assert_eq!(
            RejectReason::PlacementUnfit { path: 2 }.cause_code(),
            "placement_unfit"
        );
        assert_eq!(
            RejectReason::PlacementUnfit { path: 2 }.cause().to_string(),
            "placement_unfit (path 2)"
        );
    }

    #[test]
    fn shed_and_displace_codes_are_stable() {
        assert_eq!(ShedCause::QueueOverflow.code(), "queue_overflow");
        assert_eq!(ShedCause::DeferBudget.code(), "defer_budget");
        assert_eq!(DisplaceCause::ElementFailure.code(), "element_failure");
        assert_eq!(ShedCause::DeferBudget.to_string(), "defer_budget");
        assert_eq!(DEFER_WRITER_BUSY, "writer_busy");
    }

    #[test]
    fn migration_codes_are_stable() {
        assert_eq!(MigrationCause::Defragmentation.code(), "defrag_net_gain");
        assert_eq!(
            MigrationCause::Defragmentation.to_string(),
            "defrag_net_gain"
        );
    }
}
