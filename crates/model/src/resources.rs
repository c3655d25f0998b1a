//! Multi-resource requirement and capacity vectors.
//!
//! The paper associates every computation task with a *resource requirement
//! vector* `a_i^(r)` (the amount of resource type `r` needed to process one
//! data unit — e.g. CPU mega-cycles and megabytes of memory) and every NCP
//! with a capacity `C_j^(r)` per resource type (e.g. CPU Hz). Transport
//! tasks and links use the single [`ResourceKind::Bandwidth`] type.
//!
//! [`ResourceVec`] is a tiny sorted association list from [`ResourceKind`]
//! to `f64`. Applications rarely use more than two or three resource types,
//! so a sorted `Vec` beats a hash map both in speed and determinism.

use std::fmt;

/// A kind of consumable resource on a network element.
///
/// `Cpu` and `Memory` apply to NCPs/CTs; `Bandwidth` applies to links/TTs.
/// `Custom(n)` supports experiments with additional resource types beyond
/// the ones the paper evaluates (Figure 12 uses CPU + memory).
///
/// # Examples
///
/// ```
/// # use sparcle_model::resources::ResourceKind;
/// assert!(ResourceKind::Cpu < ResourceKind::Memory);
/// assert_eq!(ResourceKind::Custom(3).to_string(), "custom3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ResourceKind {
    /// Processor cycles (requirements in cycles/data-unit, capacity in Hz).
    #[default]
    Cpu,
    /// Memory (requirements in bytes/data-unit, capacity in bytes/s of churn).
    Memory,
    /// Link bandwidth (requirements in bits/data-unit, capacity in bits/s).
    Bandwidth,
    /// An experiment-defined resource type.
    Custom(u8),
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Cpu => f.write_str("cpu"),
            ResourceKind::Memory => f.write_str("memory"),
            ResourceKind::Bandwidth => f.write_str("bandwidth"),
            ResourceKind::Custom(n) => write!(f, "custom{n}"),
        }
    }
}

/// A sparse vector of per-resource quantities.
///
/// Used both for task requirements (`a_i^(r)`, per data unit) and element
/// capacities (`C_j^(r)`, per second). Entries are kept sorted by kind and
/// entries with value exactly `0.0` are retained (a zero requirement is
/// meaningful: the paper models data sources as CTs "with possibly zero
/// resource requirements").
///
/// # Examples
///
/// ```
/// # use sparcle_model::resources::{ResourceKind, ResourceVec};
/// let req = ResourceVec::cpu(9880.0); // mega-cycles per image (Table II `resize`)
/// let cap = ResourceVec::cpu(3000.0); // field NCP MHz (Table I)
/// // Service rate = min over kinds of capacity / requirement:
/// assert!((cap.rate_supported(&req).unwrap() - 3000.0 / 9880.0).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq, Default)]
pub struct ResourceVec {
    entries: Vec<(ResourceKind, f64)>,
}

/// `clone_from` refills the destination's buffer in place: a warm
/// vector is overwritten without touching the allocator (the derived
/// `clone_from` is `*self = source.clone()`, a fresh buffer every time).
impl Clone for ResourceVec {
    fn clone(&self) -> Self {
        ResourceVec {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl ResourceVec {
    /// Creates an empty resource vector (all quantities zero).
    pub const fn new() -> Self {
        ResourceVec {
            entries: Vec::new(),
        }
    }

    /// Creates a vector with a single CPU entry.
    pub fn cpu(amount: f64) -> Self {
        Self::from_entries([(ResourceKind::Cpu, amount)])
    }

    /// Creates a vector with a single memory entry.
    pub fn memory(amount: f64) -> Self {
        Self::from_entries([(ResourceKind::Memory, amount)])
    }

    /// Creates a vector with a single bandwidth entry.
    pub fn bandwidth(amount: f64) -> Self {
        Self::from_entries([(ResourceKind::Bandwidth, amount)])
    }

    /// Creates a vector with CPU and memory entries (the two computation
    /// resource types evaluated in the paper's Figure 12).
    pub fn cpu_memory(cpu: f64, memory: f64) -> Self {
        Self::from_entries([(ResourceKind::Cpu, cpu), (ResourceKind::Memory, memory)])
    }

    /// Creates a vector from `(kind, amount)` pairs.
    ///
    /// Later duplicates of a kind are summed into the earlier entry.
    ///
    /// # Panics
    ///
    /// Panics if any amount is negative, NaN, or infinite: requirements and
    /// capacities are physical quantities.
    pub fn from_entries<I: IntoIterator<Item = (ResourceKind, f64)>>(entries: I) -> Self {
        let mut v = Self::new();
        for (kind, amount) in entries {
            v.add(kind, amount);
        }
        v
    }

    /// Returns the quantity of `kind` (zero if absent).
    pub fn amount(&self, kind: ResourceKind) -> f64 {
        match self.entries.binary_search_by_key(&kind, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Sets the quantity of `kind`, replacing any previous value.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite.
    pub fn set(&mut self, kind: ResourceKind, amount: f64) {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "resource amount must be finite and non-negative, got {amount}"
        );
        match self.entries.binary_search_by_key(&kind, |e| e.0) {
            Ok(i) => self.entries[i].1 = amount,
            Err(i) => self.entries.insert(i, (kind, amount)),
        }
    }

    /// Adds `amount` of `kind` to the vector.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite. Use [`Self::sub`] to
    /// remove quantity.
    pub fn add(&mut self, kind: ResourceKind, amount: f64) {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "resource amount must be finite and non-negative, got {amount}"
        );
        match self.entries.binary_search_by_key(&kind, |e| e.0) {
            Ok(i) => self.entries[i].1 += amount,
            Err(i) => self.entries.insert(i, (kind, amount)),
        }
    }

    /// Subtracts `amount` of `kind`, clamping at zero.
    ///
    /// Clamping (rather than going negative) matches how residual
    /// capacities are maintained between multi-path assignment iterations:
    /// floating-point drift must not produce negative capacities.
    pub fn sub(&mut self, kind: ResourceKind, amount: f64) {
        if let Ok(i) = self.entries.binary_search_by_key(&kind, |e| e.0) {
            self.entries[i].1 = (self.entries[i].1 - amount).max(0.0);
        }
    }

    /// Adds an entire vector, entry-wise.
    pub fn add_vec(&mut self, other: &ResourceVec) {
        for &(kind, amount) in &other.entries {
            self.add(kind, amount);
        }
    }

    /// Subtracts `scale * other` entry-wise, clamping each entry at zero.
    pub fn sub_scaled(&mut self, other: &ResourceVec, scale: f64) {
        for &(kind, amount) in &other.entries {
            self.sub(kind, amount * scale);
        }
    }

    /// Returns `self + scale * other` without mutating `self`.
    pub fn plus_scaled(&self, other: &ResourceVec, scale: f64) -> ResourceVec {
        let mut out = self.clone();
        for &(kind, amount) in &other.entries {
            out.add(kind, amount * scale);
        }
        out
    }

    /// Scales every entry by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        for e in &mut self.entries {
            e.1 *= factor;
        }
    }

    /// Returns a scaled copy of this vector.
    pub fn scaled(&self, factor: f64) -> ResourceVec {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// Iterates over the non-zero structure as `(kind, amount)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Returns the set of kinds present in this vector.
    pub fn kinds(&self) -> impl Iterator<Item = ResourceKind> + '_ {
        self.entries.iter().map(|e| e.0)
    }

    /// Returns `true` if no kind is present, not even at a zero amount.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if no kind is present (or all amounts are zero).
    pub fn is_zero(&self) -> bool {
        self.entries.iter().all(|e| e.1 == 0.0)
    }

    /// Computes the maximum stable rate (data units per second) a server
    /// with capacity `self` can sustain for a task demanding `requirement`
    /// per data unit:
    ///
    /// `min over r present in requirement of  C^(r) / a^(r)`
    ///
    /// (the inverse of the paper's per-data-unit processing time
    /// `max_r a_i^(r) / C_j^(r)`).
    ///
    /// Returns `None` when the requirement is all-zero (the rate is
    /// unbounded — e.g. a data-source CT pinned to its host).
    /// Zero-requirement kinds are skipped; a kind required but entirely
    /// missing from the capacity yields a rate of `0.0`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use sparcle_model::resources::ResourceVec;
    /// let cap = ResourceVec::cpu_memory(100.0, 50.0);
    /// let req = ResourceVec::cpu_memory(10.0, 25.0);
    /// assert_eq!(cap.rate_supported(&req), Some(2.0)); // memory binds: 50/25
    /// ```
    pub fn rate_supported(&self, requirement: &ResourceVec) -> Option<f64> {
        let mut rate: Option<f64> = None;
        for &(kind, need) in &requirement.entries {
            if need == 0.0 {
                continue;
            }
            let have = self.amount(kind);
            let r = have / need;
            rate = Some(match rate {
                Some(best) => best.min(r),
                None => r,
            });
        }
        rate
    }

    /// `self.rate_supported(&base.plus_scaled(extra, 1.0))` without the
    /// temporary vector: the rate capacity `self` sustains once `extra`
    /// is added on top of `base`.
    ///
    /// All three vectors are sorted by kind, so one merged walk visits
    /// the kinds of `base ∪ extra` in the order the temporary would hold
    /// them and performs the same float operations in the same order
    /// (scaling by `1.0` is exact, so it is elided) — the result is
    /// bit-identical (the model proptests hold it to that). The placement engine asks this once per (CT, host) pair
    /// every ranking round.
    pub fn rate_supported_sum(&self, base: &ResourceVec, extra: &ResourceVec) -> Option<f64> {
        let (b, e, c) = (&base.entries, &extra.entries, &self.entries);
        let (mut bi, mut ei, mut ci) = (0, 0, 0);
        let mut rate: Option<f64> = None;
        while bi < b.len() || ei < e.len() {
            let (kind, need) = match (b.get(bi), e.get(ei)) {
                (Some(&(bk, ba)), Some(&(ek, ea))) if bk == ek => {
                    bi += 1;
                    ei += 1;
                    (bk, ba + ea)
                }
                (Some(&(bk, ba)), Some(&(ek, _))) if bk < ek => {
                    bi += 1;
                    (bk, ba)
                }
                (Some(&(bk, ba)), None) => {
                    bi += 1;
                    (bk, ba)
                }
                (_, Some(&(ek, ea))) => {
                    ei += 1;
                    (ek, ea)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if need == 0.0 {
                continue;
            }
            while ci < c.len() && c[ci].0 < kind {
                ci += 1;
            }
            let have = match c.get(ci) {
                Some(&(ck, amount)) if ck == kind => amount,
                _ => 0.0,
            };
            let r = have / need;
            rate = Some(match rate {
                Some(best) => best.min(r),
                None => r,
            });
        }
        rate
    }

    /// Returns `true` if every entry of `requirement` fits within `self`
    /// (with a small relative tolerance for floating-point drift).
    pub fn covers(&self, requirement: &ResourceVec) -> bool {
        const REL_TOL: f64 = 1e-9;
        requirement.entries.iter().all(|&(kind, need)| {
            let have = self.amount(kind);
            have + REL_TOL * need.max(1.0) >= need
        })
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (kind, amount)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{kind}: {amount}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(ResourceKind, f64)> for ResourceVec {
    fn from_iter<I: IntoIterator<Item = (ResourceKind, f64)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

impl Extend<(ResourceKind, f64)> for ResourceVec {
    fn extend<I: IntoIterator<Item = (ResourceKind, f64)>>(&mut self, iter: I) {
        for (kind, amount) in iter {
            self.add(kind, amount);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector_is_zero() {
        let v = ResourceVec::new();
        assert!(v.is_zero());
        assert_eq!(v.amount(ResourceKind::Cpu), 0.0);
        assert_eq!(v.to_string(), "{}");
    }

    #[test]
    fn add_accumulates_and_sorts() {
        let mut v = ResourceVec::new();
        v.add(ResourceKind::Memory, 2.0);
        v.add(ResourceKind::Cpu, 1.0);
        v.add(ResourceKind::Cpu, 3.0);
        assert_eq!(v.amount(ResourceKind::Cpu), 4.0);
        assert_eq!(v.amount(ResourceKind::Memory), 2.0);
        let kinds: Vec<_> = v.kinds().collect();
        assert_eq!(kinds, vec![ResourceKind::Cpu, ResourceKind::Memory]);
    }

    #[test]
    fn sub_clamps_at_zero() {
        let mut v = ResourceVec::cpu(1.0);
        v.sub(ResourceKind::Cpu, 5.0);
        assert_eq!(v.amount(ResourceKind::Cpu), 0.0);
        // Subtracting an absent kind is a no-op.
        v.sub(ResourceKind::Memory, 1.0);
        assert_eq!(v.amount(ResourceKind::Memory), 0.0);
    }

    #[test]
    fn rate_supported_takes_min_over_kinds() {
        let cap = ResourceVec::cpu_memory(100.0, 30.0);
        let req = ResourceVec::cpu_memory(10.0, 10.0);
        assert_eq!(cap.rate_supported(&req), Some(3.0));
    }

    #[test]
    fn rate_supported_none_for_zero_requirement() {
        let cap = ResourceVec::cpu(100.0);
        assert_eq!(cap.rate_supported(&ResourceVec::new()), None);
        assert_eq!(cap.rate_supported(&ResourceVec::cpu(0.0)), None);
    }

    #[test]
    fn rate_supported_zero_when_kind_missing() {
        let cap = ResourceVec::cpu(100.0);
        let req = ResourceVec::memory(1.0);
        assert_eq!(cap.rate_supported(&req), Some(0.0));
    }

    #[test]
    fn covers_with_tolerance() {
        let cap = ResourceVec::cpu(1.0);
        let mut req = ResourceVec::cpu(1.0);
        assert!(cap.covers(&req));
        req.set(ResourceKind::Cpu, 1.0 + 1e-12);
        assert!(cap.covers(&req), "tiny overshoot should be tolerated");
        req.set(ResourceKind::Cpu, 1.1);
        assert!(!cap.covers(&req));
    }

    #[test]
    fn plus_scaled_and_sub_scaled_are_inverse() {
        let base = ResourceVec::cpu_memory(10.0, 20.0);
        let delta = ResourceVec::cpu_memory(1.0, 2.0);
        let mut bumped = base.plus_scaled(&delta, 3.0);
        assert_eq!(bumped.amount(ResourceKind::Cpu), 13.0);
        bumped.sub_scaled(&delta, 3.0);
        assert_eq!(bumped.amount(ResourceKind::Cpu), 10.0);
        assert_eq!(bumped.amount(ResourceKind::Memory), 20.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amount_panics() {
        ResourceVec::cpu(-1.0);
    }

    #[test]
    fn from_iterator_collects() {
        let v: ResourceVec = [(ResourceKind::Cpu, 1.0), (ResourceKind::Memory, 2.0)]
            .into_iter()
            .collect();
        assert_eq!(v.amount(ResourceKind::Memory), 2.0);
    }

    #[test]
    fn scaled_display() {
        let v = ResourceVec::cpu(2.0).scaled(2.5);
        assert_eq!(v.amount(ResourceKind::Cpu), 5.0);
        assert_eq!(v.to_string(), "{cpu: 5}");
    }
}
