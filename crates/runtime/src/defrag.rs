//! The background **defragmentation re-optimizer** (DESIGN.md §15):
//! bookkeeping for the runtime's periodic migration pass.
//!
//! Long churn runs fragment the network: every failure, recovery, and
//! capacity step re-places applications on whatever paths were best *at
//! that moment*, so after enough churn many placements sit on paths the
//! current capacities no longer favour. The paper's no-migration
//! constraint means admission alone can never repair this — only an
//! explicit, planned move can ([`sparcle_core::SystemTxn::migrate`]).
//!
//! The defragmenter is deliberately split in two:
//!
//! * the **pass itself** lives in the runtime event loop (a
//!   [`crate::ChurnEvent::DefragTick`] handler) because it needs the
//!   live system, the arrival-index maps, and the trace handle;
//! * this module owns the **accounting**: the per-epoch
//!   displaced-seconds budget and the pass/skip/probe/move counters the
//!   differential and budget tests assert on.
//!
//! Everything here is pure state-in/state-out on simulated time; a run
//! with `defrag: None` never constructs a [`Defragmenter`] and is
//! byte-identical to a run built before this plane existed.

/// Modeled displaced-seconds of unavailability charged to the
/// [`crate::SloLedger`] per committed move (the app is briefly off-path
/// while its placement switches).
pub(crate) const MOVE_COST: f64 = 0.25;

/// Tunables of the background defragmentation pass.
#[derive(Debug, Clone)]
pub struct DefragConfig {
    /// Simulated seconds between defragmentation passes. One period is
    /// also one **budget epoch**: every pass starts with a fresh
    /// [`Self::budget_per_epoch`] allowance.
    pub period: f64,
    /// Displaced-seconds of planned unavailability the defragmenter may
    /// spend per epoch. Each committed move consumes a fixed 0.25; the
    /// pass stops selecting moves when the remaining allowance cannot
    /// cover another one.
    pub budget_per_epoch: f64,
    /// Minimum total-BE-delivered-rate improvement a move must show (at
    /// probe time *and* again at commit time) to be worth its churn.
    pub min_gain: f64,
}

impl Default for DefragConfig {
    fn default() -> Self {
        DefragConfig {
            period: 5.0,
            budget_per_epoch: 1.0,
            min_gain: 1e-9,
        }
    }
}

/// Accounting state of the background defragmenter: per-epoch budget
/// and the counters (passes/skips/probes/moves) the budget invariant is
/// asserted from.
#[derive(Debug, Clone)]
pub struct Defragmenter {
    config: DefragConfig,
    passes: u64,
    skipped: u64,
    probes: u64,
    moves: u64,
}

impl Defragmenter {
    /// Builds the accounting state.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive period, or a negative budget or gain
    /// threshold.
    pub fn new(config: DefragConfig) -> Self {
        assert!(
            config.period.is_finite() && config.period > 0.0,
            "defrag period must be positive"
        );
        assert!(
            config.budget_per_epoch >= 0.0,
            "defrag budget must be non-negative"
        );
        assert!(
            config.min_gain >= 0.0,
            "defrag min gain must be non-negative"
        );
        Defragmenter {
            config,
            passes: 0,
            skipped: 0,
            probes: 0,
            moves: 0,
        }
    }

    /// The configuration this defragmenter runs under.
    pub fn config(&self) -> &DefragConfig {
        &self.config
    }

    /// Records a tick that skipped its pass (a reconcile is owed).
    pub(crate) fn note_skip(&mut self) {
        self.skipped += 1;
    }

    /// Starts one pass and returns its fresh epoch budget in
    /// displaced-seconds.
    pub(crate) fn begin_pass(&mut self) -> f64 {
        self.passes += 1;
        self.config.budget_per_epoch
    }

    /// Records `n` rollback-only what-if probes.
    pub(crate) fn note_probes(&mut self, n: u64) {
        self.probes += n;
    }

    /// Records the committed moves of a pass.
    pub(crate) fn note_moves(&mut self, moves: u64) {
        self.moves += moves;
    }

    /// Passes that ran (ticks that passed the backlog gate).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Ticks that skipped their pass.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Rollback-only migration probes issued.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Planned migrations committed.
    pub fn moves(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_follow_the_pass_bookkeeping() {
        let mut d = Defragmenter::new(DefragConfig::default());
        assert_eq!(d.begin_pass(), 1.0);
        d.note_probes(4);
        d.note_moves(3);
        d.note_skip();
        assert_eq!(
            (d.passes(), d.probes(), d.moves(), d.skipped()),
            (1, 4, 3, 1)
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        Defragmenter::new(DefragConfig {
            period: 0.0,
            ..DefragConfig::default()
        });
    }
}
