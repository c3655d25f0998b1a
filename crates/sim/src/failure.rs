//! Epoch-based failure injection for availability experiments (Fig. 10).
//!
//! Time is divided into epochs. In each epoch every network element is
//! independently up with probability `1 − Pf_j` (the paper's §III-B
//! failure model). A task assignment path *works* in an epoch iff all
//! its elements are up; the application's effective rate that epoch is
//! the sum of the rates of its working paths.
//!
//! This is the simulation counterpart of the analytic
//! `sparcle_alloc::PathAvailability`: the measured frequencies must
//! converge to the closed-form probabilities, which the tests check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_core::telemetry::Event;
use sparcle_core::TraceHandle;
use sparcle_model::{Network, NetworkElement};
use std::collections::BTreeSet;

/// Stable trace label of a network element (`"ncp:3"`, `"link:7"`), the
/// one format every element-state trace event carries.
pub fn element_label(e: NetworkElement) -> String {
    match e {
        NetworkElement::Ncp(id) => format!("ncp:{}", id.index()),
        NetworkElement::Link(id) => format!("link:{}", id.index()),
    }
}

/// One path exposed to failure injection.
#[derive(Debug, Clone)]
pub struct FailurePath {
    /// The elements whose survival the path needs.
    pub elements: BTreeSet<NetworkElement>,
    /// The rate the path contributes while working.
    pub rate: f64,
}

/// One timestamped element state change: at the start of `epoch` the
/// element switched to `up`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementTransition {
    /// Epoch index at which the new state takes effect.
    pub epoch: u64,
    /// The element that changed state.
    pub element: NetworkElement,
    /// `true` when the element recovered, `false` when it failed.
    pub up: bool,
}

/// Seeded per-epoch element state sampler exposing up/down changes as an
/// *ordered, timestamped* transition stream.
///
/// This is the single failure code path: [`FailureSim::run_traced`]
/// (the Fig. 10 batch study) and the online runtime both drive their
/// failure timelines through it, so the per-epoch snapshots and the
/// event stream can never disagree.
///
/// Elements start up; epoch `e` transitions are ordered by element id.
///
/// # Examples
///
/// ```
/// use sparcle_sim::failure::ElementStateStream;
/// use sparcle_model::{LinkDirection, NetworkBuilder, NetworkElement, ResourceVec};
///
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut nb = NetworkBuilder::new();
/// let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
/// let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
/// let l = nb.add_link_full("ab", a, b, 1.0, LinkDirection::Undirected, 0.5)?;
/// let net = nb.build()?;
/// let mut stream =
///     ElementStateStream::new(&net, [NetworkElement::Link(l)], 1_000, 7);
/// let mut flips = 0;
/// let mut transitions = Vec::new();
/// while stream.step_into(&mut transitions) {
///     flips += transitions.len();
/// }
/// assert!(flips > 0, "a 50%-flaky link flips eventually");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ElementStateStream {
    elements: Vec<NetworkElement>,
    survival: Vec<f64>,
    rng: StdRng,
    up: Vec<bool>,
    next_epoch: u64,
    epochs: u64,
}

impl ElementStateStream {
    /// Builds a stream over `elements` (deduplicated and sorted by id)
    /// sampling epochs `0..epochs` with the given seed. Every element
    /// starts up.
    pub fn new(
        network: &Network,
        elements: impl IntoIterator<Item = NetworkElement>,
        epochs: u64,
        seed: u64,
    ) -> Self {
        let elements: Vec<NetworkElement> = elements
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let survival = elements
            .iter()
            .map(|&e| 1.0 - network.element_failure_probability(e))
            .collect();
        let up = vec![true; elements.len()];
        ElementStateStream {
            elements,
            survival,
            rng: StdRng::seed_from_u64(seed),
            up,
            next_epoch: 0,
            epochs,
        }
    }

    /// The distinct elements the stream samples, in id order.
    pub fn elements(&self) -> &[NetworkElement] {
        &self.elements
    }

    /// Current up/down state per element (aligned with
    /// [`ElementStateStream::elements`]).
    pub fn up_states(&self) -> &[bool] {
        &self.up
    }

    /// The epoch the next [`ElementStateStream::step_into`] will sample.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Samples the next epoch. Replaces `transitions` with the state
    /// changes relative to the previous epoch, ordered by element id.
    /// Returns `false` (leaving `transitions` empty) once all epochs are
    /// exhausted.
    pub fn step_into(&mut self, transitions: &mut Vec<ElementTransition>) -> bool {
        transitions.clear();
        if self.next_epoch >= self.epochs {
            return false;
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        for (i, (u, &s)) in self.up.iter_mut().zip(&self.survival).enumerate() {
            let now = self.rng.gen::<f64>() < s;
            if now != *u {
                *u = now;
                transitions.push(ElementTransition {
                    epoch,
                    element: self.elements[i],
                    up: now,
                });
            }
        }
        true
    }

    /// Runs the stream to completion and returns the full ordered
    /// transition list (by `(epoch, element)`).
    pub fn collect_transitions(mut self) -> Vec<ElementTransition> {
        let mut all = Vec::new();
        let mut step = Vec::new();
        while self.step_into(&mut step) {
            all.extend_from_slice(&step);
        }
        all
    }
}

impl Iterator for ElementStateStream {
    type Item = Vec<ElementTransition>;

    /// Per-epoch transition batches (possibly empty vectors) until the
    /// epoch budget runs out. Prefer [`ElementStateStream::step_into`]
    /// in hot loops — it reuses one allocation.
    fn next(&mut self) -> Option<Vec<ElementTransition>> {
        let mut transitions = Vec::new();
        if self.step_into(&mut transitions) {
            Some(transitions)
        } else {
            None
        }
    }
}

/// Aggregate results of a failure-injection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureStats {
    /// Fraction of epochs with at least one working path (BE
    /// availability).
    pub availability: f64,
    /// Fraction of epochs whose aggregate rate met the `min_rate`
    /// threshold (GR min-rate availability); `1.0` when no threshold was
    /// given.
    pub min_rate_availability: f64,
    /// Mean aggregate rate over all epochs.
    pub mean_rate: f64,
    /// Number of epochs simulated.
    pub epochs: u64,
}

/// Epoch-based failure injector.
///
/// # Examples
///
/// A single path over one 10 %-flaky link is up ~90 % of epochs:
///
/// ```
/// use sparcle_sim::{FailurePath, FailureSim};
/// use sparcle_model::{NetworkBuilder, NetworkElement, ResourceVec, LinkDirection};
/// use std::collections::BTreeSet;
///
/// # fn main() -> Result<(), sparcle_model::ModelError> {
/// let mut nb = NetworkBuilder::new();
/// let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
/// let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
/// let l = nb.add_link_full("ab", a, b, 1.0, LinkDirection::Undirected, 0.1)?;
/// let net = nb.build()?;
/// let path = FailurePath {
///     elements: BTreeSet::from([NetworkElement::Link(l)]),
///     rate: 1.0,
/// };
/// let stats = FailureSim::new(50_000, 1).run(&net, &[path], None);
/// assert!((stats.availability - 0.9).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FailureSim {
    /// Number of epochs to draw.
    pub epochs: u64,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
}

impl Default for FailureSim {
    fn default() -> Self {
        FailureSim {
            epochs: 100_000,
            seed: 0,
        }
    }
}

impl FailureSim {
    /// Creates an injector with the given epoch count and seed.
    pub fn new(epochs: u64, seed: u64) -> Self {
        FailureSim { epochs, seed }
    }

    /// Runs the injection over `paths` on `network`, optionally checking
    /// a GR `min_rate` threshold.
    pub fn run(
        &self,
        network: &Network,
        paths: &[FailurePath],
        min_rate: Option<f64>,
    ) -> FailureStats {
        self.run_traced(network, paths, min_rate, TraceHandle::none())
    }

    /// Like [`FailureSim::run`], recording telemetry into `trace`: one
    /// `sim_element_state` event per up/down transition (elements start
    /// up) plus epoch/transition counters. Events depend only on the
    /// seed and inputs, so traces are byte-identical across runs.
    pub fn run_traced(
        &self,
        network: &Network,
        paths: &[FailurePath],
        min_rate: Option<f64>,
        trace: TraceHandle<'_>,
    ) -> FailureStats {
        // One shared failure code path: the per-epoch snapshots come
        // from the same ElementStateStream the online runtime consumes.
        let mut stream = ElementStateStream::new(
            network,
            paths.iter().flat_map(|p| p.elements.iter().copied()),
            self.epochs,
            self.seed,
        );
        let path_members: Vec<Vec<usize>> = paths
            .iter()
            .map(|p| {
                p.elements
                    .iter()
                    .map(|e| stream.elements().binary_search(e).expect("indexed"))
                    .collect()
            })
            .collect();

        let mut available_epochs = 0u64;
        let mut min_rate_epochs = 0u64;
        let mut rate_sum = 0.0;
        let mut transitions = 0u64;
        let mut step = Vec::new();
        while stream.step_into(&mut step) {
            transitions += step.len() as u64;
            if trace.is_enabled() {
                for tr in &step {
                    trace.event(&Event::SimElementState {
                        epoch: tr.epoch,
                        element: element_label(tr.element),
                        up: tr.up,
                    });
                }
            }
            let up = stream.up_states();
            let mut rate = 0.0;
            let mut any = false;
            for (members, path) in path_members.iter().zip(paths) {
                if members.iter().all(|&i| up[i]) {
                    any = true;
                    rate += path.rate;
                }
            }
            if any {
                available_epochs += 1;
            }
            if min_rate.is_none_or(|r| rate + 1e-12 >= r) {
                min_rate_epochs += 1;
            }
            rate_sum += rate;
        }
        if trace.is_enabled() {
            trace.counter("sim.failure.epochs", self.epochs);
            trace.counter("sim.failure.available_epochs", available_epochs);
            trace.counter("sim.failure.min_rate_epochs", min_rate_epochs);
            trace.counter("sim.failure.transitions", transitions);
        }
        let epochs = self.epochs.max(1);
        FailureStats {
            availability: available_epochs as f64 / epochs as f64,
            min_rate_availability: min_rate_epochs as f64 / epochs as f64,
            mean_rate: rate_sum / epochs as f64,
            epochs: self.epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_alloc::PathAvailability;
    use sparcle_model::{LinkDirection, NcpId, NetworkBuilder, ResourceVec};

    /// Star with 2 % link failures, as in Figure 10's setup.
    fn star(link_failure: f64) -> Network {
        let mut b = NetworkBuilder::new();
        let hub = b.add_ncp("hub", ResourceVec::cpu(1.0));
        for i in 0..4 {
            let leaf = b.add_ncp(format!("leaf{i}"), ResourceVec::cpu(1.0));
            b.add_link_full(
                format!("l{i}"),
                hub,
                leaf,
                1.0,
                LinkDirection::Undirected,
                link_failure,
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    fn path(_net: &Network, links: &[u32], rate: f64) -> FailurePath {
        let mut elements = BTreeSet::new();
        elements.insert(NetworkElement::Ncp(NcpId::new(0)));
        for &l in links {
            elements.insert(NetworkElement::Link(sparcle_model::LinkId::new(l)));
        }
        FailurePath { elements, rate }
    }

    #[test]
    fn measured_availability_matches_analytic() {
        let net = star(0.02);
        let paths = vec![path(&net, &[0, 1], 2.0), path(&net, &[2, 3], 1.0)];
        let stats = FailureSim::new(200_000, 13).run(&net, &paths, None);
        let mut analytic = PathAvailability::new();
        for p in &paths {
            analytic
                .add_path(&net, p.elements.iter().copied(), p.rate)
                .unwrap();
        }
        let expect = analytic.any_working().unwrap();
        assert!(
            (stats.availability - expect).abs() < 3e-3,
            "measured {} vs analytic {expect}",
            stats.availability
        );
    }

    #[test]
    fn measured_min_rate_availability_matches_analytic() {
        let net = star(0.05);
        let paths = vec![path(&net, &[0], 2.0), path(&net, &[1], 1.5)];
        let stats = FailureSim::new(200_000, 17).run(&net, &paths, Some(2.0));
        let mut analytic = PathAvailability::new();
        for p in &paths {
            analytic
                .add_path(&net, p.elements.iter().copied(), p.rate)
                .unwrap();
        }
        let expect = analytic.min_rate(2.0).unwrap();
        assert!(
            (stats.min_rate_availability - expect).abs() < 3e-3,
            "measured {} vs analytic {expect}",
            stats.min_rate_availability
        );
    }

    #[test]
    fn mean_rate_is_rate_weighted_availability() {
        let net = star(0.1);
        let paths = vec![path(&net, &[0], 4.0)];
        let stats = FailureSim::new(100_000, 23).run(&net, &paths, None);
        // Path works with P = (1-0.1) for its single failing link (hub
        // has no failures) ⇒ mean rate ≈ 0.9 × 4.
        assert!(
            (stats.mean_rate - 3.6).abs() < 0.05,
            "mean rate {}",
            stats.mean_rate
        );
    }

    #[test]
    fn no_failures_means_always_available() {
        let net = star(0.0);
        let paths = vec![path(&net, &[0, 1], 1.0)];
        let stats = FailureSim::new(1_000, 1).run(&net, &paths, Some(1.0));
        assert_eq!(stats.availability, 1.0);
        assert_eq!(stats.min_rate_availability, 1.0);
    }

    #[test]
    fn no_paths_means_never_available() {
        let net = star(0.0);
        let stats = FailureSim::new(100, 1).run(&net, &[], None);
        assert_eq!(stats.availability, 0.0);
        assert_eq!(stats.mean_rate, 0.0);
    }

    #[test]
    fn transition_stream_is_ordered_and_deterministic() {
        let net = star(0.3);
        let elements = net.elements().collect::<Vec<_>>();
        let a =
            ElementStateStream::new(&net, elements.iter().copied(), 500, 9).collect_transitions();
        let b =
            ElementStateStream::new(&net, elements.iter().copied(), 500, 9).collect_transitions();
        assert_eq!(a, b, "same seed must give the same stream");
        assert!(!a.is_empty(), "30%-flaky links must flip");
        for w in a.windows(2) {
            assert!(
                (w[0].epoch, w[0].element) < (w[1].epoch, w[1].element),
                "stream must be ordered by (epoch, element): {w:?}"
            );
        }
        let c = ElementStateStream::new(&net, elements, 500, 10).collect_transitions();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn transition_stream_replays_to_batch_availability() {
        // Reconstructing per-epoch states from the transition stream
        // must reproduce the batch run's availability exactly — the
        // "one code path" guarantee the online runtime relies on.
        let net = star(0.05);
        let paths = vec![path(&net, &[0, 1], 2.0), path(&net, &[2], 1.0)];
        let sim = FailureSim::new(20_000, 21);
        let stats = sim.run(&net, &paths, Some(2.0));

        let mut stream = ElementStateStream::new(
            &net,
            paths.iter().flat_map(|p| p.elements.iter().copied()),
            sim.epochs,
            sim.seed,
        );
        let members: Vec<Vec<usize>> = paths
            .iter()
            .map(|p| {
                p.elements
                    .iter()
                    .map(|e| stream.elements().binary_search(e).unwrap())
                    .collect()
            })
            .collect();
        let mut up: Vec<bool> = vec![true; stream.elements().len()];
        let (mut avail, mut min_rate_ok) = (0u64, 0u64);
        let mut step = Vec::new();
        let mut epochs = 0u64;
        while stream.step_into(&mut step) {
            for tr in &step {
                let i = stream.elements().binary_search(&tr.element).unwrap();
                up[i] = tr.up;
            }
            epochs += 1;
            let rate: f64 = members
                .iter()
                .zip(&paths)
                .filter(|(m, _)| m.iter().all(|&i| up[i]))
                .map(|(_, p)| p.rate)
                .sum();
            if rate > 0.0 {
                avail += 1;
            }
            if rate + 1e-12 >= 2.0 {
                min_rate_ok += 1;
            }
        }
        assert_eq!(epochs, sim.epochs);
        assert_eq!(stats.availability, avail as f64 / epochs as f64);
        assert_eq!(
            stats.min_rate_availability,
            min_rate_ok as f64 / epochs as f64
        );
    }
}
