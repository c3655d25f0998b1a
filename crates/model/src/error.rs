//! Error types for model construction and validation.

use crate::ids::{CtId, LinkId, NcpId, TtId};
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating SPARCLE models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A task graph must contain at least one CT.
    EmptyTaskGraph,
    /// The transport tasks form a directed cycle; applications must be
    /// DAGs.
    CyclicTaskGraph,
    /// The task graph splits into unrelated components.
    DisconnectedTaskGraph,
    /// A TT referenced a CT id that was never added.
    UnknownCt(CtId),
    /// A TT connected a CT to itself.
    SelfLoop(CtId),
    /// A network must contain at least one NCP.
    EmptyNetwork,
    /// A link referenced an NCP id that was never added.
    UnknownNcp(NcpId),
    /// A link connected an NCP to itself.
    SelfLink(NcpId),
    /// A physical quantity was negative or not finite.
    InvalidQuantity {
        /// What the quantity measures.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A quantity that must be strictly positive was zero, negative or
    /// not finite.
    NonPositiveQuantity {
        /// What the quantity measures.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A probability was outside `[0, 1]`.
    InvalidProbability(f64),
    /// A placement left a CT without a host (violates constraint (1b)).
    UnplacedCt(CtId),
    /// A placement left a TT between remotely-hosted CTs without a route.
    UnroutedTt(TtId),
    /// A TT route does not form a path between the hosts of its endpoint
    /// CTs (violates constraint (1c)).
    BrokenRoute {
        /// The transport task whose route is invalid.
        tt: TtId,
        /// Why the route is invalid.
        reason: RouteError,
    },
    /// A pinned CT host refers to an NCP outside the target network.
    PinnedHostOutOfRange {
        /// The pinned computation task.
        ct: CtId,
        /// The out-of-range host.
        ncp: NcpId,
    },
    /// The application's pinning does not cover a source or sink CT.
    UnpinnedEndpoint(CtId),
    /// A referenced link does not exist in the network.
    UnknownLink(LinkId),
}

/// Detail for [`ModelError::BrokenRoute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The first link of the route is not incident to the upstream host.
    BadStart,
    /// Two consecutive links do not share an NCP.
    Discontinuous,
    /// The route ends at an NCP other than the downstream host.
    BadEnd,
    /// The route is non-empty although both endpoints share a host.
    NonEmptyLocal,
    /// A directed link is traversed against its direction.
    WrongDirection,
    /// The same link appears more than once in the route.
    RepeatedLink,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyTaskGraph => f.write_str("task graph has no computation tasks"),
            ModelError::CyclicTaskGraph => f.write_str("task graph contains a directed cycle"),
            ModelError::DisconnectedTaskGraph => f.write_str("task graph is not weakly connected"),
            ModelError::UnknownCt(id) => write!(f, "unknown computation task {id}"),
            ModelError::SelfLoop(id) => write!(f, "transport task loops {id} to itself"),
            ModelError::EmptyNetwork => f.write_str("network has no computing nodes"),
            ModelError::UnknownNcp(id) => write!(f, "unknown computing node {id}"),
            ModelError::SelfLink(id) => write!(f, "link connects {id} to itself"),
            ModelError::InvalidQuantity { what, value } => {
                write!(f, "{what} must be finite and non-negative, got {value}")
            }
            ModelError::NonPositiveQuantity { what, value } => {
                write!(f, "{what} must be finite and positive, got {value}")
            }
            ModelError::InvalidProbability(p) => {
                write!(f, "probability must lie in [0, 1], got {p}")
            }
            ModelError::UnplacedCt(id) => write!(f, "computation task {id} has no host"),
            ModelError::UnroutedTt(id) => {
                write!(f, "transport task {id} crosses hosts but has no route")
            }
            ModelError::BrokenRoute { tt, reason } => {
                write!(f, "route of transport task {tt} is invalid: {reason}")
            }
            ModelError::PinnedHostOutOfRange { ct, ncp } => {
                write!(f, "pinned host {ncp} for {ct} is outside the network")
            }
            ModelError::UnpinnedEndpoint(id) => {
                write!(f, "source or sink {id} has no pinned host")
            }
            ModelError::UnknownLink(id) => write!(f, "unknown link {id}"),
        }
    }
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadStart => f.write_str("first link is not incident to the source host"),
            RouteError::Discontinuous => f.write_str("consecutive links do not share a node"),
            RouteError::BadEnd => f.write_str("route does not end at the destination host"),
            RouteError::NonEmptyLocal => {
                f.write_str("endpoints share a host but the route is non-empty")
            }
            RouteError::WrongDirection => {
                f.write_str("a directed link is traversed against its direction")
            }
            RouteError::RepeatedLink => f.write_str("a link appears more than once"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let msgs = [
            ModelError::EmptyTaskGraph.to_string(),
            ModelError::UnknownCt(CtId::new(1)).to_string(),
            ModelError::BrokenRoute {
                tt: TtId::new(0),
                reason: RouteError::BadStart,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "lowercase: {m}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
    }
}
