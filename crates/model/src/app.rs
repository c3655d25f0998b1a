//! Stream processing applications and their QoE requirements.
//!
//! The paper distinguishes two application classes (§III-A):
//!
//! * **Best-Effort (BE)** — no minimum rate; higher rate ⇒ higher QoE.
//!   Each carries a priority `P_j` used by the weighted proportional-fair
//!   allocation (problem (4)) and optionally an availability target (the
//!   probability that at least one task assignment path is working).
//! * **Guaranteed-Rate (GR)** — a minimum processing rate that must hold
//!   for a target fraction of time (*min-rate availability*, problem (5)).
//!
//! An [`Application`] couples a [`TaskGraph`] with a [`QoeClass`] and the
//! *pinning* of its data-source and result-consumer CTs to physical NCPs
//! (Algorithm 2 lines 3–4 place source/sink CTs on their predetermined
//! hosts before anything else).

use crate::error::ModelError;
use crate::ids::{CtId, NcpId};
use crate::network::Network;
use crate::taskgraph::TaskGraph;
use std::collections::BTreeMap;

/// QoE class of an application: Best-Effort or Guaranteed-Rate.
#[derive(Debug, Clone, PartialEq)]
pub enum QoeClass {
    /// Best-Effort: maximize rate, weighted by `priority`; optionally
    /// require that at least one path works with probability
    /// `availability`.
    BestEffort {
        /// Relative importance `P_j` among BE applications (must be
        /// positive).
        priority: f64,
        /// Optional availability target in `[0, 1]`.
        availability: Option<f64>,
    },
    /// Guaranteed-Rate: `min_rate` data units/s must be sustained for at
    /// least a `min_rate_availability` fraction of time.
    GuaranteedRate {
        /// Required processing rate `R_J` in data units per second.
        min_rate: f64,
        /// Required min-rate availability `A_J` in `[0, 1]`.
        min_rate_availability: f64,
    },
}

impl QoeClass {
    /// A Best-Effort class with the given priority and no availability
    /// target.
    pub fn best_effort(priority: f64) -> Self {
        QoeClass::BestEffort {
            priority,
            availability: None,
        }
    }

    /// A Guaranteed-Rate class.
    pub fn guaranteed_rate(min_rate: f64, min_rate_availability: f64) -> Self {
        QoeClass::GuaranteedRate {
            min_rate,
            min_rate_availability,
        }
    }

    /// Returns `true` for Best-Effort applications.
    pub fn is_best_effort(&self) -> bool {
        matches!(self, QoeClass::BestEffort { .. })
    }

    /// The BE priority, or `None` for GR applications.
    pub fn priority(&self) -> Option<f64> {
        match self {
            QoeClass::BestEffort { priority, .. } => Some(*priority),
            QoeClass::GuaranteedRate { .. } => None,
        }
    }

    fn validate(&self) -> Result<(), ModelError> {
        match *self {
            QoeClass::BestEffort {
                priority,
                availability,
            } => {
                if !priority.is_finite() || priority <= 0.0 {
                    return Err(ModelError::NonPositiveQuantity {
                        what: "BE priority",
                        value: priority,
                    });
                }
                if let Some(a) = availability {
                    if !a.is_finite() || !(0.0..=1.0).contains(&a) {
                        return Err(ModelError::InvalidProbability(a));
                    }
                }
            }
            QoeClass::GuaranteedRate {
                min_rate,
                min_rate_availability,
            } => {
                if !min_rate.is_finite() || min_rate <= 0.0 {
                    return Err(ModelError::NonPositiveQuantity {
                        what: "GR minimum rate",
                        value: min_rate,
                    });
                }
                if !min_rate_availability.is_finite()
                    || !(0.0..=1.0).contains(&min_rate_availability)
                {
                    return Err(ModelError::InvalidProbability(min_rate_availability));
                }
            }
        }
        Ok(())
    }
}

/// A stream processing application: task graph + QoE + endpoint pinning.
///
/// # Examples
///
/// ```
/// # use sparcle_model::{Application, QoeClass, TaskGraphBuilder, ResourceVec, NcpId};
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut b = TaskGraphBuilder::new();
/// let src = b.add_ct("source", ResourceVec::new());
/// let work = b.add_ct("work", ResourceVec::cpu(100.0));
/// let sink = b.add_ct("sink", ResourceVec::new());
/// b.add_tt("in", src, work, 1e6)?;
/// b.add_tt("out", work, sink, 1e4)?;
/// let graph = b.build()?;
/// let app = Application::new(
///     graph,
///     QoeClass::best_effort(1.0),
///     [(src, NcpId::new(0)), (sink, NcpId::new(2))],
/// )?;
/// assert!(app.qoe().is_best_effort());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    graph: TaskGraph,
    qoe: QoeClass,
    pinned: BTreeMap<CtId, NcpId>,
}

impl Application {
    /// Creates an application.
    ///
    /// `pinned` must cover every source and sink CT of the graph (data
    /// sources and result consumers have predetermined hosts); it may also
    /// pin interior CTs (e.g. a task requiring a GPU present only on one
    /// NCP).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnpinnedEndpoint`] if a source or sink is not
    /// pinned, [`ModelError::UnknownCt`] if a pinned CT is outside the
    /// graph, or an invalid-quantity/probability error for a malformed
    /// [`QoeClass`].
    pub fn new(
        graph: TaskGraph,
        qoe: QoeClass,
        pinned: impl IntoIterator<Item = (CtId, NcpId)>,
    ) -> Result<Self, ModelError> {
        qoe.validate()?;
        let pinned: BTreeMap<CtId, NcpId> = pinned.into_iter().collect();
        for &ct in pinned.keys() {
            if ct.index() >= graph.ct_count() {
                return Err(ModelError::UnknownCt(ct));
            }
        }
        for &ct in graph.sources().iter().chain(graph.sinks()) {
            if !pinned.contains_key(&ct) {
                return Err(ModelError::UnpinnedEndpoint(ct));
            }
        }
        Ok(Application { graph, qoe, pinned })
    }

    /// The application's task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The application's QoE class.
    pub fn qoe(&self) -> &QoeClass {
        &self.qoe
    }

    /// The pinned `CT → NCP` assignments.
    pub fn pinned(&self) -> &BTreeMap<CtId, NcpId> {
        &self.pinned
    }

    /// The pinned host of `ct`, if any.
    pub fn pinned_host(&self, ct: CtId) -> Option<NcpId> {
        self.pinned.get(&ct).copied()
    }

    /// Checks that every pinned host exists in `network`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PinnedHostOutOfRange`] for a pin referencing
    /// an NCP beyond the network.
    pub fn check_against_network(&self, network: &Network) -> Result<(), ModelError> {
        for (&ct, &ncp) in &self.pinned {
            if ncp.index() >= network.ncp_count() {
                return Err(ModelError::PinnedHostOutOfRange { ct, ncp });
            }
        }
        Ok(())
    }

    /// Replaces the QoE class, revalidating it.
    ///
    /// # Errors
    ///
    /// Same as [`Application::new`] for a malformed class.
    pub fn with_qoe(mut self, qoe: QoeClass) -> Result<Self, ModelError> {
        qoe.validate()?;
        self.qoe = qoe;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;
    use crate::taskgraph::TaskGraphBuilder;

    fn graph3() -> (TaskGraph, CtId, CtId, CtId) {
        let mut b = TaskGraphBuilder::new();
        let s = b.add_ct("s", ResourceVec::new());
        let m = b.add_ct("m", ResourceVec::cpu(1.0));
        let t = b.add_ct("t", ResourceVec::new());
        b.add_tt("sm", s, m, 1.0).unwrap();
        b.add_tt("mt", m, t, 1.0).unwrap();
        (b.build().unwrap(), s, m, t)
    }

    #[test]
    fn requires_pinned_endpoints() {
        let (g, s, _, t) = graph3();
        let err = Application::new(g.clone(), QoeClass::best_effort(1.0), [(s, NcpId::new(0))]);
        assert!(matches!(err, Err(ModelError::UnpinnedEndpoint(ct)) if ct == t));
        let ok = Application::new(
            g,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(1))],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn allows_pinning_interior_cts() {
        let (g, s, m, t) = graph3();
        let app = Application::new(
            g,
            QoeClass::best_effort(2.0),
            [(s, NcpId::new(0)), (m, NcpId::new(1)), (t, NcpId::new(2))],
        )
        .unwrap();
        assert_eq!(app.pinned_host(m), Some(NcpId::new(1)));
        assert_eq!(app.qoe().priority(), Some(2.0));
    }

    #[test]
    fn rejects_nonpositive_priority() {
        let (g, s, _, t) = graph3();
        let err = Application::new(
            g,
            QoeClass::best_effort(0.0),
            [(s, NcpId::new(0)), (t, NcpId::new(1))],
        );
        assert!(matches!(err, Err(ModelError::NonPositiveQuantity { .. })));
    }

    /// The message states the rule that was broken: zero is
    /// non-negative, so it must say "positive".
    #[test]
    fn nonpositive_messages_state_the_rule() {
        for (qoe, what) in [
            (QoeClass::best_effort(0.0), "BE priority"),
            (QoeClass::guaranteed_rate(0.0, 0.9), "GR minimum rate"),
        ] {
            let (g, s, _, t) = graph3();
            let e = Application::new(g, qoe, [(s, NcpId::new(0)), (t, NcpId::new(1))]).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("{what} must be finite and positive, got 0")
            );
        }
    }

    #[test]
    fn rejects_bad_gr_parameters() {
        let (g, s, _, t) = graph3();
        let pins = [(s, NcpId::new(0)), (t, NcpId::new(1))];
        assert!(Application::new(g.clone(), QoeClass::guaranteed_rate(-1.0, 0.9), pins).is_err());
        assert!(Application::new(g, QoeClass::guaranteed_rate(1.0, 1.0001), pins).is_err());
    }

    #[test]
    fn rejects_unknown_pinned_ct() {
        let (g, s, _, t) = graph3();
        let err = Application::new(
            g,
            QoeClass::best_effort(1.0),
            [
                (s, NcpId::new(0)),
                (t, NcpId::new(1)),
                (CtId::new(99), NcpId::new(0)),
            ],
        );
        assert!(matches!(err, Err(ModelError::UnknownCt(_))));
    }

    #[test]
    fn network_check_catches_out_of_range_pin() {
        use crate::network::NetworkBuilder;
        let (g, s, _, t) = graph3();
        let app = Application::new(
            g,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(7))],
        )
        .unwrap();
        let mut nb = NetworkBuilder::new();
        nb.add_ncp("only", ResourceVec::cpu(1.0));
        let net = nb.build().unwrap();
        assert!(matches!(
            app.check_against_network(&net),
            Err(ModelError::PinnedHostOutOfRange { .. })
        ));
    }

    #[test]
    fn with_qoe_swaps_class() {
        let (g, s, _, t) = graph3();
        let app = Application::new(
            g,
            QoeClass::best_effort(1.0),
            [(s, NcpId::new(0)), (t, NcpId::new(1))],
        )
        .unwrap();
        let app = app.with_qoe(QoeClass::guaranteed_rate(2.5, 0.9)).unwrap();
        assert!(!app.qoe().is_best_effort());
    }
}
