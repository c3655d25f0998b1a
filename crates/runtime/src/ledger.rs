//! The SLO ledger: damage accounting integrated over simulated time.
//!
//! Between any two consecutive timeline events the system state is
//! constant, so every integral quantity (GR violation-seconds, BE
//! delivered rate) accrues exactly as `state × Δt`. The runtime calls
//! [`SloLedger::advance_to`] with the pre-event state before applying
//! each event, which makes the ledger an exact — not sampled — account
//! of the run.

use std::collections::BTreeMap;

/// Per-run service-level accounting for one churn timeline.
#[derive(Debug, Clone, Default)]
pub struct SloLedger {
    last_time: f64,
    /// Seconds each GR application (keyed by arrival index) spent with
    /// its guarantee violated — displaced, or placed but unfit after a
    /// capacity change.
    gr_violation: BTreeMap<u64, f64>,
    /// `∫ Σ_BE allocated_rate dt` — total Best-Effort work delivered.
    be_rate_integral: f64,
    /// Disruption-to-re-placement latency per re-placed application.
    reaction_latencies: Vec<f64>,
    /// Applications re-placed onto a *new* placement (the churn count —
    /// exact reinstatements are tracked separately as `restores`).
    placement_churn: u64,
    restores: u64,
    arrivals: u64,
    admitted: u64,
    /// Arrivals that were not admitted, by cause code
    /// (`RejectCause::code()`).
    rejections: BTreeMap<&'static str, u64>,
    departures: u64,
    displacements: u64,
    reconciles: u64,
    /// Requests the admission service dropped under backpressure
    /// (charged here so shedding is SLO damage, not free capacity).
    sheds: u64,
    /// Requests the service pushed past their arrival window into a
    /// later batch (each deferral is one window of added decision
    /// latency).
    deferrals: u64,
    /// Planned migrations committed by the background defragmenter.
    migrations: u64,
    /// Modeled seconds of per-app unavailability charged for those
    /// migrations — the currency the defragmenter's per-epoch budget is
    /// denominated in.
    migration_displaced_seconds: f64,
}

impl SloLedger {
    /// Accrues the integrals from the previous event time up to `t`:
    /// each index in `violating_gr` gains `Δt` violation-seconds and the
    /// BE integral gains `be_rate × Δt`. Out-of-order times are clamped
    /// (Δt ≥ 0).
    pub fn advance_to(
        &mut self,
        t: f64,
        violating_gr: impl IntoIterator<Item = u64>,
        be_rate: f64,
    ) {
        let dt = (t - self.last_time).max(0.0);
        self.last_time = self.last_time.max(t);
        if dt == 0.0 {
            return;
        }
        for index in violating_gr {
            *self.gr_violation.entry(index).or_insert(0.0) += dt;
        }
        self.be_rate_integral += be_rate * dt;
    }

    /// Records one arrival and its admission outcome.
    pub fn record_arrival(&mut self, admitted: bool) {
        self.arrivals += 1;
        if admitted {
            self.admitted += 1;
        }
    }

    /// Records why one arrival was not admitted, by its stable cause
    /// code; call next to `record_arrival(false)`.
    pub fn record_rejection(&mut self, cause: &'static str) {
        *self.rejections.entry(cause).or_insert(0) += 1;
    }

    /// Records one departure (of a live or displaced application).
    pub fn record_departure(&mut self) {
        self.departures += 1;
    }

    /// Records `n` applications displaced by one disruption.
    pub fn record_displacements(&mut self, n: u64) {
        self.displacements += n;
    }

    /// Records one reconcile pass.
    pub fn record_reconcile(&mut self) {
        self.reconciles += 1;
    }

    /// Records one admission request shed by the service's
    /// backpressure/load-shedding policy (counted as an arrival that
    /// was not admitted, plus the shed charge).
    pub fn record_shed(&mut self) {
        self.arrivals += 1;
        self.sheds += 1;
    }

    /// Records `n` requests deferred past their arrival window into a
    /// later micro-batch.
    pub fn record_deferrals(&mut self, n: u64) {
        self.deferrals += n;
    }

    /// Records an exact reinstatement (original placement intact).
    pub fn record_restore(&mut self, latency: f64) {
        self.restores += 1;
        self.reaction_latencies.push(latency);
    }

    /// Records a re-placement onto a new placement (placement churn).
    pub fn record_replacement(&mut self, latency: f64) {
        self.placement_churn += 1;
        self.reaction_latencies.push(latency);
    }

    /// Records one committed planned migration, charging its modeled
    /// per-app unavailability. Migrations are deliberate churn: they
    /// count toward [`Self::placement_churn`] like a failure-driven
    /// re-placement, and their displaced-seconds are tracked separately
    /// so budget enforcement can be asserted from the ledger alone.
    pub fn record_migration(&mut self, displaced_seconds: f64) {
        self.migrations += 1;
        self.placement_churn += 1;
        self.migration_displaced_seconds += displaced_seconds;
    }

    /// Total GR violation-seconds across all applications.
    pub fn total_gr_violation_seconds(&self) -> f64 {
        self.gr_violation.values().sum()
    }

    /// Violation-seconds of one GR application by arrival index (`0.0`
    /// when it never violated).
    pub fn gr_violation_seconds(&self, index: u64) -> f64 {
        self.gr_violation.get(&index).copied().unwrap_or(0.0)
    }

    /// `∫ Σ_BE allocated_rate dt` over the run.
    pub fn be_rate_integral(&self) -> f64 {
        self.be_rate_integral
    }

    /// Mean disruption-to-re-placement latency (`NaN` when nothing was
    /// re-placed).
    pub fn mean_reaction_latency(&self) -> f64 {
        if self.reaction_latencies.is_empty() {
            f64::NAN
        } else {
            self.reaction_latencies.iter().sum::<f64>() / self.reaction_latencies.len() as f64
        }
    }

    /// All recorded reaction latencies, in re-placement order.
    pub fn reaction_latencies(&self) -> &[f64] {
        &self.reaction_latencies
    }

    /// Applications moved to a *new* placement after displacement.
    pub fn placement_churn(&self) -> u64 {
        self.placement_churn
    }

    /// Applications reinstated on their original placement.
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Arrivals processed.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Arrivals admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Arrivals not admitted, counted per cause code.
    pub fn rejections(&self) -> &BTreeMap<&'static str, u64> {
        &self.rejections
    }

    /// Departures processed.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Applications displaced by element failures.
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Reconcile passes that ran.
    pub fn reconciles(&self) -> u64 {
        self.reconciles
    }

    /// Admission requests shed under backpressure.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Admission requests deferred past their arrival window.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Planned migrations committed by the defragmenter.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Modeled displaced-seconds charged for planned migrations.
    pub fn migration_displaced_seconds(&self) -> f64 {
        self.migration_displaced_seconds
    }

    /// The simulated time the ledger has accrued up to.
    pub fn time(&self) -> f64 {
        self.last_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrals_accrue_piecewise() {
        let mut l = SloLedger::default();
        l.advance_to(2.0, [7u64], 3.0);
        l.advance_to(5.0, [7u64, 9], 1.0);
        assert_eq!(l.gr_violation_seconds(7), 5.0);
        assert_eq!(l.gr_violation_seconds(9), 3.0);
        assert_eq!(l.gr_violation_seconds(4), 0.0);
        assert_eq!(l.total_gr_violation_seconds(), 8.0);
        assert_eq!(l.be_rate_integral(), 2.0 * 3.0 + 3.0 * 1.0);
        assert_eq!(l.time(), 5.0);
        // Same-instant and out-of-order advances accrue nothing.
        l.advance_to(5.0, [7u64], 100.0);
        l.advance_to(4.0, [7u64], 100.0);
        assert_eq!(l.be_rate_integral(), 9.0);
    }

    #[test]
    fn latency_stats() {
        let mut l = SloLedger::default();
        assert!(l.mean_reaction_latency().is_nan());
        l.record_restore(0.2);
        l.record_replacement(0.6);
        assert!((l.mean_reaction_latency() - 0.4).abs() < 1e-12);
        assert_eq!(l.restores(), 1);
        assert_eq!(l.placement_churn(), 1);
        assert_eq!(l.reaction_latencies(), &[0.2, 0.6]);
    }

    #[test]
    fn counters_count() {
        let mut l = SloLedger::default();
        l.record_arrival(true);
        l.record_arrival(false);
        l.record_departure();
        l.record_displacements(3);
        l.record_reconcile();
        assert_eq!((l.arrivals(), l.admitted(), l.departures()), (2, 1, 1));
        assert_eq!((l.displacements(), l.reconciles()), (3, 1));
    }

    #[test]
    fn migrations_are_charged_as_planned_churn() {
        let mut l = SloLedger::default();
        l.record_replacement(0.5);
        l.record_migration(0.2);
        l.record_migration(0.3);
        assert_eq!(l.migrations(), 2);
        // Migrations are churn too, but carry no reaction latency (they
        // are planned, not disruption responses).
        assert_eq!(l.placement_churn(), 3);
        assert_eq!(l.reaction_latencies().len(), 1);
        assert!((l.migration_displaced_seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sheds_and_deferrals_are_charged() {
        let mut l = SloLedger::default();
        l.record_arrival(true);
        l.record_shed();
        l.record_shed();
        l.record_deferrals(3);
        // A shed request is an arrival that was never admitted.
        assert_eq!((l.arrivals(), l.admitted()), (3, 1));
        assert_eq!(l.sheds(), 2);
        assert_eq!(l.deferrals(), 3);
    }
}
