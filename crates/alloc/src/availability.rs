//! Availability analysis of task assignment paths under element failures.
//!
//! Every network element `j` fails independently with probability
//! `Pf_j` (§III-B). A task assignment path works iff *all* elements it
//! uses are up, so a single path's availability is `Π_j (1 − Pf_j)`
//! (§IV-D). With multiple, possibly overlapping paths:
//!
//! * a **Best-Effort** application is *available* when at least one path
//!   works — `P(∪_k A_k)`, computed exactly by inclusion–exclusion over
//!   path subsets (overlaps make paths dependent, but any intersection
//!   `∩_{k∈S} A_k` is just "all elements of the union up");
//! * a **Guaranteed-Rate** application meets its QoE when the rates of
//!   the working paths sum to at least `R_J` — the paper's eq. (7) sums
//!   `P(exactly the paths in s work)` over every subset `s` whose rates
//!   subset-sum to ≥ `R_J`.
//!
//! [`PathAvailability`] provides both analyses exactly (for the path
//! counts SPARCLE actually uses — a handful) plus a seeded Monte-Carlo
//! estimator for cross-checking and for very large path sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparcle_model::{Network, NetworkElement};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Maximum number of distinct elements across all paths for the exact
/// bitmask-based analysis.
pub const MAX_DISTINCT_ELEMENTS: usize = 128;

/// Maximum path count for the exact inclusion–exclusion (`2^n` subsets).
pub const MAX_EXACT_PATHS: usize = 20;

/// Errors from availability analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AvailabilityError {
    /// More than [`MAX_DISTINCT_ELEMENTS`] distinct elements are in play.
    TooManyElements(usize),
    /// More than [`MAX_EXACT_PATHS`] paths for an exact computation; use
    /// the Monte-Carlo estimators instead.
    TooManyPaths(usize),
    /// A failure probability outside `[0, 1]`.
    BadProbability(f64),
}

impl fmt::Display for AvailabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvailabilityError::TooManyElements(n) => write!(
                f,
                "exact analysis supports at most {MAX_DISTINCT_ELEMENTS} distinct elements, got {n}"
            ),
            AvailabilityError::TooManyPaths(n) => write!(
                f,
                "exact analysis supports at most {MAX_EXACT_PATHS} paths, got {n}; use monte carlo"
            ),
            AvailabilityError::BadProbability(p) => {
                write!(f, "failure probability must lie in [0, 1], got {p}")
            }
        }
    }
}

impl Error for AvailabilityError {}

/// Availability analyzer over a set of (possibly overlapping) task
/// assignment paths.
///
/// # Examples
///
/// Two disjoint paths with element survival 0.9 each (two elements per
/// path ⇒ per-path availability 0.81):
///
/// ```
/// # use sparcle_alloc::availability::PathAvailability;
/// # fn main() -> Result<(), sparcle_alloc::availability::AvailabilityError> {
/// let mut pa = PathAvailability::new();
/// pa.add_path_raw(vec![(0, 0.1), (1, 0.1)], 2.0)?;
/// pa.add_path_raw(vec![(2, 0.1), (3, 0.1)], 1.0)?;
/// let single = 0.9f64 * 0.9;
/// assert!((pa.single_path(0) - single).abs() < 1e-12);
/// let any = 1.0 - (1.0 - single) * (1.0 - single);
/// assert!((pa.any_working()? - any).abs() < 1e-12);
/// // Rate ≥ 2 requires path 0 up: P = 0.81.
/// assert!((pa.min_rate(2.0)? - single).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathAvailability {
    /// Survival probability (1 − Pf) per distinct element.
    survival: Vec<f64>,
    /// Key → dense index for deduplication.
    index: BTreeMap<u64, usize>,
    /// Element membership bitmask per path.
    masks: Vec<u128>,
    /// Rate of each path.
    rates: Vec<f64>,
}

/// Stable numeric key for a network element.
fn element_key(e: NetworkElement) -> u64 {
    match e {
        NetworkElement::Ncp(id) => u64::from(id.as_u32()),
        NetworkElement::Link(id) => (1u64 << 32) | u64::from(id.as_u32()),
    }
}

impl PathAvailability {
    /// Creates an analyzer with no paths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rates of the added paths, in insertion order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Adds a path given the network it lives on: the elements it uses
    /// (e.g. from [`sparcle_model::Placement::elements_used`]) and the
    /// rate it carries.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::TooManyElements`] past the bitmask
    /// capacity.
    pub fn add_path(
        &mut self,
        network: &Network,
        elements: impl IntoIterator<Item = NetworkElement>,
        rate: f64,
    ) -> Result<(), AvailabilityError> {
        let raw: Vec<(u64, f64)> = elements
            .into_iter()
            .map(|e| (element_key(e), network.element_failure_probability(e)))
            .collect();
        self.add_path_raw(raw, rate)
    }

    /// Like [`Self::add_path`] but with *shared-risk groups* (an
    /// extension beyond the paper's independent-failure model):
    /// `risk_group` maps an element to an optional `(group id, group
    /// failure probability)` — e.g. NCPs on the same power feed, links
    /// through the same conduit. An element is up iff its own
    /// independent draw *and* its group's draw are both up; every
    /// element of a group shares one group draw, so their failures are
    /// positively correlated.
    ///
    /// Internally the group is one extra pseudo-element per path, so
    /// all the exact and Monte-Carlo machinery applies unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`Self::add_path`]; group keys count toward the distinct
    /// element limit.
    pub fn add_path_grouped(
        &mut self,
        network: &Network,
        elements: impl IntoIterator<Item = NetworkElement>,
        rate: f64,
        risk_group: impl Fn(NetworkElement) -> Option<(u32, f64)>,
    ) -> Result<(), AvailabilityError> {
        // Group keys live in a namespace disjoint from element keys.
        const GROUP_BIT: u64 = 1 << 62;
        let mut raw: Vec<(u64, f64)> = Vec::new();
        for e in elements {
            raw.push((element_key(e), network.element_failure_probability(e)));
            if let Some((group, pf)) = risk_group(e) {
                raw.push((GROUP_BIT | u64::from(group), pf));
            }
        }
        self.add_path_raw(raw, rate)
    }

    /// Adds a path as raw `(element key, failure probability)` pairs —
    /// useful in tests and when paths span synthetic elements.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::BadProbability`] for probabilities
    /// outside `[0, 1]` and [`AvailabilityError::TooManyElements`] past
    /// the bitmask capacity.
    pub fn add_path_raw(
        &mut self,
        elements: impl IntoIterator<Item = (u64, f64)>,
        rate: f64,
    ) -> Result<(), AvailabilityError> {
        let mut mask = 0u128;
        for (key, pf) in elements {
            if !pf.is_finite() || !(0.0..=1.0).contains(&pf) {
                return Err(AvailabilityError::BadProbability(pf));
            }
            let next = self.index.len();
            let idx = *self.index.entry(key).or_insert(next);
            if idx >= MAX_DISTINCT_ELEMENTS {
                return Err(AvailabilityError::TooManyElements(idx + 1));
            }
            if idx == self.survival.len() {
                self.survival.push(1.0 - pf);
            }
            mask |= 1u128 << idx;
        }
        self.masks.push(mask);
        self.rates.push(rate);
        Ok(())
    }

    /// Probability that every element of `mask` is up.
    fn up_probability(&self, mask: u128) -> f64 {
        let mut p = 1.0;
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            p *= self.survival[i];
            m &= m - 1;
        }
        p
    }

    /// Availability of a single path: `Π (1 − Pf_j)` over its elements.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range.
    pub fn single_path(&self, path: usize) -> f64 {
        self.up_probability(self.masks[path])
    }

    /// Exact probability that **at least one** path works (BE
    /// availability), by inclusion–exclusion over path subsets.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::TooManyPaths`] beyond
    /// [`MAX_EXACT_PATHS`].
    pub fn any_working(&self) -> Result<f64, AvailabilityError> {
        let n = self.masks.len();
        if n == 0 {
            return Ok(0.0);
        }
        if n > MAX_EXACT_PATHS {
            return Err(AvailabilityError::TooManyPaths(n));
        }
        let mut total = 0.0;
        for subset in 1u32..(1u32 << n) {
            let mut union = 0u128;
            let mut bits = subset;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                union |= self.masks[k];
                bits &= bits - 1;
            }
            let sign = if subset.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            total += sign * self.up_probability(union);
        }
        Ok(total.clamp(0.0, 1.0))
    }

    /// Exact probability that **exactly** the paths in `working_mask`
    /// work and all other paths fail — the per-subset term of eq. (7).
    ///
    /// Computed as `P(U_S up) · Σ_{G ⊆ F} (−1)^{|G|} P(U_G \ U_S up)`,
    /// where `S` is the working set and `F` its complement.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::TooManyPaths`] beyond
    /// [`MAX_EXACT_PATHS`].
    pub fn exactly_working(&self, working_mask: u32) -> Result<f64, AvailabilityError> {
        let n = self.masks.len();
        if n > MAX_EXACT_PATHS {
            return Err(AvailabilityError::TooManyPaths(n));
        }
        let mut union_s = 0u128;
        for k in 0..n {
            if working_mask & (1 << k) != 0 {
                union_s |= self.masks[k];
            }
        }
        let p_s = self.up_probability(union_s);
        if p_s == 0.0 {
            return Ok(0.0);
        }
        // Enumerate subsets G of the failing set F.
        let failing: Vec<usize> = (0..n).filter(|&k| working_mask & (1 << k) == 0).collect();
        let m = failing.len();
        let mut sum = 0.0;
        for g in 0u32..(1u32 << m) {
            let mut union_g = 0u128;
            let mut bits = g;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                union_g |= self.masks[failing[j]];
                bits &= bits - 1;
            }
            let extra = union_g & !union_s;
            let sign = if g.count_ones() % 2 == 0 { 1.0 } else { -1.0 };
            sum += sign * self.up_probability(extra);
        }
        Ok((p_s * sum).clamp(0.0, 1.0))
    }

    /// Exact min-rate availability — eq. (7): the probability that the
    /// rates of the working paths sum to at least `min_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::TooManyPaths`] beyond
    /// [`MAX_EXACT_PATHS`] (note the cost is `O(3^n)`; keep `n ≲ 14`).
    pub fn min_rate(&self, min_rate: f64) -> Result<f64, AvailabilityError> {
        let n = self.masks.len();
        if n > MAX_EXACT_PATHS {
            return Err(AvailabilityError::TooManyPaths(n));
        }
        let mut total = 0.0;
        for subset in 0u32..(1u32 << n) {
            let rate: f64 = (0..n)
                .filter(|&k| subset & (1 << k) != 0)
                .map(|k| self.rates[k])
                .sum();
            if rate + 1e-12 >= min_rate {
                total += self.exactly_working(subset)?;
            }
        }
        Ok(total.clamp(0.0, 1.0))
    }

    /// Monte-Carlo estimate of [`Self::any_working`], sampling element
    /// failures independently. Deterministic for a fixed `seed`.
    pub fn monte_carlo_any(&self, samples: usize, seed: u64) -> f64 {
        // Not a `contains` check: a path works when its mask is a
        // *subset* of the up-set.
        #[allow(clippy::manual_contains)]
        self.monte_carlo(samples, seed, |up| self.masks.iter().any(|&m| m & up == m))
    }

    /// Monte-Carlo estimate of [`Self::min_rate`].
    pub fn monte_carlo_min_rate(&self, min_rate: f64, samples: usize, seed: u64) -> f64 {
        self.monte_carlo(samples, seed, |up| {
            let rate: f64 = self
                .masks
                .iter()
                .zip(&self.rates)
                .filter(|&(&m, _)| m & up == m)
                .map(|(_, &r)| r)
                .sum();
            rate + 1e-12 >= min_rate
        })
    }

    fn monte_carlo(&self, samples: usize, seed: u64, ok: impl Fn(u128) -> bool) -> f64 {
        if self.masks.is_empty() || samples == 0 {
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        for _ in 0..samples {
            let mut up = 0u128;
            for (i, &s) in self.survival.iter().enumerate() {
                if rng.gen::<f64>() < s {
                    up |= 1u128 << i;
                }
            }
            if ok(up) {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_disjoint() -> PathAvailability {
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.1), (1, 0.2)], 3.0).unwrap();
        pa.add_path_raw(vec![(2, 0.3)], 1.0).unwrap();
        pa
    }

    #[test]
    fn single_path_product() {
        let pa = two_disjoint();
        assert!((pa.single_path(0) - 0.9 * 0.8).abs() < 1e-12);
        assert!((pa.single_path(1) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn any_working_disjoint_matches_closed_form() {
        let pa = two_disjoint();
        let expect = 1.0 - (1.0 - 0.72) * (1.0 - 0.7);
        assert!((pa.any_working().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn any_working_with_shared_element() {
        // Both paths share element 0 (pf 0.5); privately they are
        // perfect. P(any) = P(elem 0 up) = 0.5.
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.5), (1, 0.0)], 1.0).unwrap();
        pa.add_path_raw(vec![(0, 0.5), (2, 0.0)], 1.0).unwrap();
        assert!((pa.any_working().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exactly_working_partitions_unity() {
        let pa = two_disjoint();
        let mut total = 0.0;
        for mask in 0u32..4 {
            total += pa.exactly_working(mask).unwrap();
        }
        assert!((total - 1.0).abs() < 1e-12, "exact-set probs sum to 1");
    }

    #[test]
    fn exactly_working_disjoint_closed_form() {
        let pa = two_disjoint();
        let p0 = 0.72;
        let p1 = 0.7;
        assert!((pa.exactly_working(0b01).unwrap() - p0 * (1.0 - p1)).abs() < 1e-12);
        assert!((pa.exactly_working(0b10).unwrap() - (1.0 - p0) * p1).abs() < 1e-12);
        assert!((pa.exactly_working(0b11).unwrap() - p0 * p1).abs() < 1e-12);
        assert!((pa.exactly_working(0b00).unwrap() - (1.0 - p0) * (1.0 - p1)).abs() < 1e-12);
    }

    #[test]
    fn min_rate_picks_sufficient_subsets() {
        let pa = two_disjoint(); // rates 3 and 1
                                 // min_rate 2 ⇒ path 0 must work (alone or with path 1).
        let expect = 0.72;
        assert!((pa.min_rate(2.0).unwrap() - expect).abs() < 1e-12);
        // min_rate 4 ⇒ both must work.
        assert!((pa.min_rate(4.0).unwrap() - 0.72 * 0.7).abs() < 1e-12);
        // min_rate 0.5 ⇒ any path works.
        let any = pa.any_working().unwrap();
        assert!((pa.min_rate(0.5).unwrap() - any).abs() < 1e-12);
        // min_rate 0 ⇒ always satisfied.
        assert!((pa.min_rate(0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_rate_with_overlap() {
        // Paths share element 0; given 0 up, private elements decide.
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.2), (1, 0.1)], 2.0).unwrap();
        pa.add_path_raw(vec![(0, 0.2), (2, 0.3)], 2.0).unwrap();
        // Need rate ≥ 2: at least one path up.
        // P = P(0 up) * (1 - P(1 down)P(2 down)) = 0.8 * (1 - 0.1*0.3)
        let expect = 0.8 * (1.0 - 0.1 * 0.3);
        assert!((pa.min_rate(2.0).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.1), (1, 0.2), (2, 0.05)], 2.0)
            .unwrap();
        pa.add_path_raw(vec![(1, 0.2), (3, 0.15)], 1.5).unwrap();
        pa.add_path_raw(vec![(4, 0.25)], 0.5).unwrap();
        let exact_any = pa.any_working().unwrap();
        let mc_any = pa.monte_carlo_any(200_000, 7);
        assert!(
            (exact_any - mc_any).abs() < 5e-3,
            "exact {exact_any} vs mc {mc_any}"
        );
        let exact_mr = pa.min_rate(2.0).unwrap();
        let mc_mr = pa.monte_carlo_min_rate(2.0, 200_000, 11);
        assert!(
            (exact_mr - mc_mr).abs() < 5e-3,
            "exact {exact_mr} vs mc {mc_mr}"
        );
    }

    #[test]
    fn empty_analyzer_reports_zero() {
        let pa = PathAvailability::new();
        assert_eq!(pa.any_working().unwrap(), 0.0);
        assert_eq!(pa.monte_carlo_any(100, 1), 0.0);
        assert!(pa.rates().is_empty());
    }

    #[test]
    fn rejects_bad_probability() {
        let mut pa = PathAvailability::new();
        assert!(matches!(
            pa.add_path_raw(vec![(0, 1.5)], 1.0),
            Err(AvailabilityError::BadProbability(_))
        ));
    }

    #[test]
    fn zero_failure_probability_means_always_available() {
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.0), (1, 0.0)], 1.0).unwrap();
        assert_eq!(pa.any_working().unwrap(), 1.0);
        assert_eq!(pa.min_rate(1.0).unwrap(), 1.0);
    }

    #[test]
    fn paper_fig10b_style_three_paths() {
        // A GR app with min rate 2.7; path rates 2.67, 1.2, 0.42 (paper
        // §V-B-2). Only subsets containing path 0 plus at least one more
        // reach 2.7.
        let mut pa = PathAvailability::new();
        pa.add_path_raw(vec![(0, 0.05), (1, 0.05)], 2.67).unwrap();
        pa.add_path_raw(vec![(2, 0.05), (3, 0.05)], 1.2).unwrap();
        pa.add_path_raw(vec![(4, 0.05), (5, 0.05)], 0.42).unwrap();
        let p = 0.95f64 * 0.95; // per-path availability
        let expect = p * (1.0 - (1.0 - p) * (1.0 - p)); // path0 and (1 or 2)
        assert!((pa.min_rate(2.7).unwrap() - expect).abs() < 1e-12);
    }
}

#[cfg(test)]
mod grouped_tests {
    use super::*;
    use sparcle_model::{LinkDirection, NetworkBuilder, NetworkElement, ResourceVec};

    /// Two leaf paths whose links sit in the same conduit (risk group):
    /// the union availability collapses toward the group's survival.
    #[test]
    fn shared_risk_group_correlates_failures() {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(1.0));
        let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
        let la = nb
            .add_link_full("la", hub, a, 1.0, LinkDirection::Undirected, 0.0)
            .unwrap();
        let lb = nb
            .add_link_full("lb", hub, b, 1.0, LinkDirection::Undirected, 0.0)
            .unwrap();
        let net = nb.build().unwrap();

        // Independent case: both links perfect ⇒ always available.
        let mut independent = PathAvailability::new();
        independent
            .add_path(&net, [NetworkElement::Link(la)], 1.0)
            .unwrap();
        independent
            .add_path(&net, [NetworkElement::Link(lb)], 1.0)
            .unwrap();
        assert!((independent.any_working().unwrap() - 1.0).abs() < 1e-12);

        // Same conduit with 10 % failure: both paths die together.
        let conduit = |e: NetworkElement| match e {
            NetworkElement::Link(_) => Some((1, 0.1)),
            NetworkElement::Ncp(_) => None,
        };
        let mut grouped = PathAvailability::new();
        grouped
            .add_path_grouped(&net, [NetworkElement::Link(la)], 1.0, conduit)
            .unwrap();
        grouped
            .add_path_grouped(&net, [NetworkElement::Link(lb)], 1.0, conduit)
            .unwrap();
        let any = grouped.any_working().unwrap();
        assert!(
            (any - 0.9).abs() < 1e-12,
            "union capped by the conduit: {any}"
        );
        // Both paths up requires the single group draw: min-rate 2.0
        // also equals 0.9 (perfectly correlated).
        assert!((grouped.min_rate(2.0).unwrap() - 0.9).abs() < 1e-12);
    }

    /// Group draw composes with per-element failures.
    #[test]
    fn group_and_element_failures_multiply() {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(1.0));
        let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
        let la = nb
            .add_link_full("la", hub, a, 1.0, LinkDirection::Undirected, 0.2)
            .unwrap();
        let net = nb.build().unwrap();
        let mut pa = PathAvailability::new();
        pa.add_path_grouped(&net, [NetworkElement::Link(la)], 1.0, |_| Some((7, 0.1)))
            .unwrap();
        // P(up) = (1 − 0.2)(1 − 0.1).
        assert!((pa.single_path(0) - 0.8 * 0.9).abs() < 1e-12);
    }

    /// Different groups stay independent.
    #[test]
    fn distinct_groups_are_independent() {
        let mut nb = NetworkBuilder::new();
        let hub = nb.add_ncp("hub", ResourceVec::cpu(1.0));
        let a = nb.add_ncp("a", ResourceVec::cpu(1.0));
        let b = nb.add_ncp("b", ResourceVec::cpu(1.0));
        let la = nb
            .add_link_full("la", hub, a, 1.0, LinkDirection::Undirected, 0.0)
            .unwrap();
        let lb = nb
            .add_link_full("lb", hub, b, 1.0, LinkDirection::Undirected, 0.0)
            .unwrap();
        let net = nb.build().unwrap();
        let mut pa = PathAvailability::new();
        pa.add_path_grouped(&net, [NetworkElement::Link(la)], 1.0, |_| Some((1, 0.1)))
            .unwrap();
        pa.add_path_grouped(&net, [NetworkElement::Link(lb)], 1.0, |_| Some((2, 0.1)))
            .unwrap();
        let expect = 1.0 - 0.1 * 0.1;
        assert!((pa.any_working().unwrap() - expect).abs() < 1e-12);
    }
}
