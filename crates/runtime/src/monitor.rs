//! The online observability monitor: windowed health signals and
//! deterministic burn-rate alerting inside the DES timeline.
//!
//! A [`Monitor`] is driven by a periodic `MonitorTick` event on the
//! runtime's deterministic event queue. Each tick folds the run's
//! cumulative signals — the SLO ledger, the state core's
//! [`StateStats`](sparcle_core::StateStats) work counters, and
//! instantaneous queue/backlog depths — into the
//! sim-time sliding windows of [`sparcle_telemetry::window`], then
//! evaluates a small rule set of degradation detectors over those
//! windows:
//!
//! * **`gr_burn_rate`** — the windowed GR violation-seconds divided by
//!   the window's SLO budget (`slo_violation_budget` violation-seconds
//!   per simulated second). A burn of 1.0 means the run is consuming
//!   exactly its error budget; above that the rule fires.
//! * **`solver_iteration_blowup`** — warm-start Newton iterations per
//!   BE solve exceeded [`AlertRules::warm_iters_ceiling`] (evaluated
//!   only once the window holds [`AlertRules::min_solves`] solves).
//! * **`backlog_growth`** — the displaced-application backlog grew on
//!   three consecutive ticks.
//!
//! Alerts are **edge-triggered**: one `monitor_alert` event when a rule
//! starts firing, one when it clears. Every input is a deterministic
//! function of the timeline and every window is keyed on simulated
//! time, so the full `monitor_*` event stream is byte-identical across
//! evaluator thread counts — the same contract the `runtime_*` events
//! obey.
//!
//! The monitor's windows are pure state-in/state-out (no I/O, no clock):
//! its owner, the runtime, feeds [`Monitor::tick`] a [`TickInput`] —
//! from a periodic `MonitorTick` on a churn timeline, from every batch-window
//! close in the admission service — and hands the returned
//! [`MonitorSample`] to [`Monitor::publish`], which emits the telemetry
//! events ([`MonitorSample::emit`]) and rewrites the optional
//! Prometheus-style text exposition ([`Monitor::render_prometheus`]).
//!
//! A series is listed twice, not five times: the sample *holds* the
//! `monitor_snapshot` payload ([`MonitorSnapshot`], defined with its
//! keys in the telemetry event table) and the exposition walks one
//! `GAUGES` list of series names and help texts.

use std::path::PathBuf;

use sparcle_core::TraceHandle;
use sparcle_telemetry::window::{RateEstimator, WindowedCounter, WindowedHistogram};
use sparcle_telemetry::{Event, MonitorSnapshot};

/// Labels of the three alert rules, in evaluation order.
pub const ALERT_RULES: [&str; 3] = ["gr_burn_rate", "solver_iteration_blowup", "backlog_growth"];

/// `gr_burn_rate` fires when windowed burn exceeds this multiple of the
/// SLO budget.
const GR_BURN_THRESHOLD: f64 = 1.0;

/// `backlog_growth` fires after this many consecutive ticks of strictly
/// growing displaced-application backlog.
const BACKLOG_GROWTH_TICKS: u64 = 3;

/// Thresholds of the degradation detectors (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertRules {
    /// SLO budget: tolerated GR violation-seconds per simulated second
    /// (0.05 = each second of the run may carry 0.05 violation-seconds
    /// across all GR applications).
    pub slo_violation_budget: f64,
    /// `solver_iteration_blowup` fires when windowed warm Newton
    /// iterations per solve exceed this ceiling…
    pub warm_iters_ceiling: f64,
    /// …provided the window saw at least this many solves.
    pub min_solves: u64,
}

impl Default for AlertRules {
    fn default() -> Self {
        AlertRules {
            slo_violation_budget: 0.05,
            warm_iters_ceiling: 25.0,
            min_solves: 5,
        }
    }
}

/// Configuration of the runtime's observability monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Width of one window slot in simulated seconds. The churn runtime
    /// also ticks every `period` (one tick per slot); the admission
    /// service ticks at every batch-window close instead, so for it this
    /// is only the slot width.
    pub period: f64,
    /// Ring slots per window; the window spans `period × slots`
    /// simulated seconds.
    pub slots: usize,
    /// Alert thresholds.
    pub rules: AlertRules,
    /// When set, the monitor's owner (runtime or service) rewrites this
    /// file with a Prometheus-style text exposition of the latest sample
    /// on every tick ([`Monitor::publish`]).
    pub metrics_out: Option<PathBuf>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            period: 5.0,
            slots: 6,
            rules: AlertRules::default(),
            metrics_out: None,
        }
    }
}

/// Cumulative (and instantaneous) signals the runtime hands the monitor
/// at each tick. Cumulative fields are run totals; the monitor
/// differences them against the previous tick internally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickInput {
    /// Total GR violation-seconds accrued by the SLO ledger.
    pub gr_violation_seconds: f64,
    /// Total arrivals processed.
    pub arrivals: u64,
    /// Total arrivals admitted.
    pub admitted: u64,
    /// Total BE solves (`StateStats::solves`).
    pub solves: u64,
    /// Total warm-solve Newton iterations
    /// (`StateStats::inner_iters_warm`).
    pub warm_inner_iters: u64,
    /// Instantaneous aggregate BE allocated rate.
    pub be_rate: f64,
    /// Instantaneous DES future-event-list depth.
    pub queue_depth: u64,
    /// Instantaneous displaced-application backlog.
    pub backlog: u64,
    /// Instantaneous live (placed) application count.
    pub live: u64,
    /// Total planned migrations committed by the defragmenter
    /// ([`crate::SloLedger::migrations`]); 0 with defrag off.
    pub migrations: u64,
}

/// One alert rule crossing its threshold (either direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// Rule label (one of [`ALERT_RULES`]).
    pub rule: &'static str,
    /// `true` on the rising edge (rule started firing), `false` on the
    /// falling edge (rule cleared).
    pub firing: bool,
    /// The observed value at the transition.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// The monitor's output for one tick: the windowed aggregates plus the
/// alert transitions this tick produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSample {
    /// Every windowed aggregate of the tick — the `monitor_snapshot`
    /// event payload, held (and emitted) as-is.
    pub snapshot: MonitorSnapshot,
    /// Planned migrations in the window (the defrag-churn gauge; 0 with
    /// defrag off). In the exposition, not in the event.
    pub defrag_churn: u64,
    /// Edge transitions produced by this tick, in rule order.
    pub transitions: Vec<AlertTransition>,
}

impl MonitorSample {
    /// Emits this sample as one `monitor_snapshot` event followed by one
    /// `monitor_alert` event per edge transition, in rule order. Nothing
    /// is built when `trace` carries no recorder.
    pub fn emit(&self, trace: TraceHandle<'_>) {
        if !trace.is_enabled() {
            return;
        }
        trace.event(&Event::MonitorSnapshot(self.snapshot.clone()));
        for tr in &self.transitions {
            trace.event(&Event::MonitorAlert {
                time: self.snapshot.time,
                rule: tr.rule,
                state: if tr.firing { "firing" } else { "cleared" },
                value: tr.value,
                threshold: tr.threshold,
            });
        }
    }
}

type Read = fn(&MonitorSample) -> f64;

/// The exposition's gauges, in output order: how each is read off a
/// sample, its series name, its help text. (`solves` is in the event but
/// has no series; `defrag_churn` is the one series not in the event.)
const GAUGES: &[(Read, &str, &str)] = &[
    (
        |s| s.snapshot.time,
        "sparcle_sim_time_seconds",
        "Simulated time of the latest monitor tick",
    ),
    (
        |s| s.snapshot.window,
        "sparcle_monitor_window_seconds",
        "Window span in simulated seconds",
    ),
    (
        |s| s.snapshot.gr_burn,
        "sparcle_gr_burn_ratio",
        "Windowed GR violation-seconds over the window SLO budget",
    ),
    (
        |s| s.snapshot.gr_violation_s,
        "sparcle_gr_violation_seconds_window",
        "GR violation-seconds in the window",
    ),
    (
        |s| s.snapshot.be_rate,
        "sparcle_be_rate",
        "Instantaneous aggregate BE allocated rate",
    ),
    (
        |s| s.snapshot.arrival_rate,
        "sparcle_arrival_rate",
        "Windowed arrivals per simulated second",
    ),
    (
        |s| s.snapshot.admit_rate,
        "sparcle_admit_rate",
        "Windowed admissions per simulated second",
    ),
    (
        |s| s.snapshot.warm_iters_per_solve,
        "sparcle_warm_iters_per_solve",
        "Windowed warm Newton iterations per BE solve",
    ),
    (
        |s| s.snapshot.queue_depth as f64,
        "sparcle_queue_depth",
        "DES future-event-list depth at the tick",
    ),
    (
        |s| s.snapshot.queue_p95 as f64,
        "sparcle_queue_depth_p95",
        "p95 of windowed queue-depth samples",
    ),
    (
        |s| s.snapshot.backlog as f64,
        "sparcle_backlog",
        "Displaced applications awaiting re-placement",
    ),
    (
        |s| s.snapshot.live as f64,
        "sparcle_live_apps",
        "Applications currently placed",
    ),
    (
        |s| s.defrag_churn as f64,
        "sparcle_defrag_churn",
        "Planned migrations committed in the window",
    ),
    (
        |s| s.snapshot.alerts_firing as f64,
        "sparcle_alerts_firing",
        "Alert rules currently firing",
    ),
];

/// Sliding-window health aggregation + edge-triggered alerting for one
/// churn run. Construct via [`Monitor::new`], drive via
/// [`Monitor::tick`].
#[derive(Debug, Clone)]
pub struct Monitor {
    config: MonitorConfig,
    viol_s: RateEstimator,
    arrivals: RateEstimator,
    admits: RateEstimator,
    solves: WindowedCounter,
    warm_iters: WindowedCounter,
    migrations: WindowedCounter,
    queue_depths: WindowedHistogram,
    last: TickInput,
    /// Firing state per rule, indexed like [`ALERT_RULES`].
    firing: [bool; 3],
    backlog_streak: u64,
    last_backlog: Option<u64>,
    ticks: u64,
    alerts_total: u64,
}

impl Monitor {
    /// Builds a monitor with empty windows.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite period, zero slots, or a
    /// non-positive SLO violation budget.
    pub fn new(config: MonitorConfig) -> Self {
        assert!(
            config.period.is_finite() && config.period > 0.0,
            "monitor period must be positive"
        );
        assert!(config.slots > 0, "monitor window needs at least one slot");
        assert!(
            config.rules.slo_violation_budget > 0.0,
            "SLO violation budget must be positive"
        );
        let (w, n) = (config.period, config.slots);
        Monitor {
            viol_s: RateEstimator::new(w, n),
            arrivals: RateEstimator::new(w, n),
            admits: RateEstimator::new(w, n),
            solves: WindowedCounter::new(w, n),
            warm_iters: WindowedCounter::new(w, n),
            migrations: WindowedCounter::new(w, n),
            queue_depths: WindowedHistogram::new(w, n),
            config,
            last: TickInput::default(),
            firing: [false; 3],
            backlog_streak: 0,
            last_backlog: None,
            ticks: 0,
            alerts_total: 0,
        }
    }

    /// The configuration this monitor runs under.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Alert transitions emitted so far (rising and falling edges).
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// Rules currently in the firing state, in [`ALERT_RULES`] order.
    pub fn firing(&self) -> Vec<&'static str> {
        ALERT_RULES
            .iter()
            .zip(self.firing)
            .filter_map(|(&r, f)| f.then_some(r))
            .collect()
    }

    /// Folds one tick's signals into the windows and evaluates the
    /// alert rules. `input`'s cumulative fields must be monotone across
    /// ticks (they are differenced against the previous tick).
    pub fn tick(&mut self, t: f64, input: &TickInput) -> MonitorSample {
        // Window deltas since the previous tick.
        let d_viol = (input.gr_violation_seconds - self.last.gr_violation_seconds).max(0.0);
        self.viol_s.record(t, d_viol);
        self.arrivals
            .record(t, input.arrivals.saturating_sub(self.last.arrivals) as f64);
        self.admits
            .record(t, input.admitted.saturating_sub(self.last.admitted) as f64);
        self.solves
            .record(t, input.solves.saturating_sub(self.last.solves));
        self.warm_iters.record(
            t,
            input
                .warm_inner_iters
                .saturating_sub(self.last.warm_inner_iters),
        );
        self.migrations
            .record(t, input.migrations.saturating_sub(self.last.migrations));
        self.queue_depths.record(t, input.queue_depth);
        self.last = *input;

        // Windowed aggregates.
        let gr_violation_s = self.viol_s.sum();
        let budget = self.viol_s.covered_seconds() * self.config.rules.slo_violation_budget;
        let gr_burn = if budget > 0.0 {
            gr_violation_s / budget
        } else {
            0.0
        };
        let solves = self.solves.sum();
        let warm_iters_per_solve = if solves == 0 {
            0.0
        } else {
            self.warm_iters.sum() as f64 / solves as f64
        };
        if input.backlog > self.last_backlog.unwrap_or(u64::MAX) {
            self.backlog_streak += 1;
        } else {
            self.backlog_streak = 0;
        }
        self.last_backlog = Some(input.backlog);

        // Rule evaluation, in ALERT_RULES order.
        let rules = &self.config.rules;
        let verdicts: [(bool, f64, f64); 3] = [
            (gr_burn > GR_BURN_THRESHOLD, gr_burn, GR_BURN_THRESHOLD),
            (
                solves >= rules.min_solves && warm_iters_per_solve > rules.warm_iters_ceiling,
                warm_iters_per_solve,
                rules.warm_iters_ceiling,
            ),
            (
                self.backlog_streak >= BACKLOG_GROWTH_TICKS,
                self.backlog_streak as f64,
                BACKLOG_GROWTH_TICKS as f64,
            ),
        ];
        let mut transitions = Vec::new();
        for (i, &(active, value, threshold)) in verdicts.iter().enumerate() {
            if active != self.firing[i] {
                self.firing[i] = active;
                self.alerts_total += 1;
                transitions.push(AlertTransition {
                    rule: ALERT_RULES[i],
                    firing: active,
                    value,
                    threshold,
                });
            }
        }
        self.ticks += 1;

        MonitorSample {
            snapshot: MonitorSnapshot {
                time: t,
                window: self.viol_s.window_seconds(),
                gr_burn,
                gr_violation_s,
                be_rate: input.be_rate,
                arrival_rate: self.arrivals.rate(),
                admit_rate: self.admits.rate(),
                warm_iters_per_solve,
                solves,
                queue_depth: input.queue_depth,
                queue_p95: self.queue_depths.quantile(0.95).unwrap_or(0),
                backlog: input.backlog,
                live: input.live,
                alerts_firing: self.firing.iter().filter(|&&f| f).count() as u64,
            },
            defrag_churn: self.migrations.sum(),
            transitions,
        }
    }

    /// Publishes one tick's `sample`: its `monitor_*` events into
    /// `trace` ([`MonitorSample::emit`]), then — when
    /// [`MonitorConfig::metrics_out`] is set — the file rewritten with
    /// the sample's exposition. A failed write warns on stderr and never
    /// disturbs the run.
    pub fn publish(&self, sample: &MonitorSample, trace: TraceHandle<'_>) {
        sample.emit(trace);
        if let Some(path) = &self.config.metrics_out {
            if let Err(e) = std::fs::write(path, self.render_prometheus(sample)) {
                eprintln!(
                    "warning: failed to write metrics file {}: {e}",
                    path.display()
                );
            }
        }
    }

    /// Renders `sample` (typically the latest) as a Prometheus-style
    /// text exposition: `# TYPE` headers plus one `sparcle_*` series
    /// per signal. Deterministic — pure function of the sample and the
    /// monitor's cumulative counters.
    pub fn render_prometheus(&self, sample: &MonitorSample) -> String {
        let mut out = String::new();
        for (value, name, help) in GAUGES {
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", value(sample)));
        }
        for (i, rule) in ALERT_RULES.iter().enumerate() {
            out.push_str(&format!(
                "sparcle_alert_firing{{rule=\"{rule}\"}} {}\n",
                u64::from(self.firing[i])
            ));
        }
        out.push_str("# HELP sparcle_monitor_ticks_total Monitor ticks processed\n");
        out.push_str("# TYPE sparcle_monitor_ticks_total counter\n");
        out.push_str(&format!("sparcle_monitor_ticks_total {}\n", self.ticks));
        out.push_str("# HELP sparcle_alert_transitions_total Alert edges emitted\n");
        out.push_str("# TYPE sparcle_alert_transitions_total counter\n");
        out.push_str(&format!(
            "sparcle_alert_transitions_total {}\n",
            self.alerts_total
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_input() -> TickInput {
        TickInput {
            be_rate: 2.0,
            queue_depth: 10,
            live: 3,
            ..TickInput::default()
        }
    }

    #[test]
    fn quiet_run_never_alerts() {
        let mut m = Monitor::new(MonitorConfig::default());
        for k in 1..=20 {
            let s = m.tick(5.0 * k as f64, &quiet_input());
            assert!(s.transitions.is_empty(), "tick {k}: {:?}", s.transitions);
            assert_eq!(s.snapshot.alerts_firing, 0);
            assert_eq!(s.snapshot.gr_burn, 0.0);
        }
        assert_eq!(m.alerts_total(), 0);
        assert_eq!(m.ticks(), 20);
    }

    #[test]
    fn burn_rate_fires_and_clears_edge_triggered() {
        let cfg = MonitorConfig::default(); // budget 0.05/s, 30 s window
        let mut m = Monitor::new(cfg);
        let mut input = quiet_input();
        // Tick 1: 3 violation-seconds in a 5-second-covered window vs a
        // 0.25 s budget -> burn 12, fires.
        input.gr_violation_seconds = 3.0;
        let s = m.tick(5.0, &input);
        assert_eq!(s.transitions.len(), 1);
        assert_eq!(s.transitions[0].rule, "gr_burn_rate");
        assert!(s.transitions[0].firing);
        assert!(s.snapshot.gr_burn > 1.0, "burn = {}", s.snapshot.gr_burn);
        // Tick 2, no new damage: still inside the window, stays firing
        // with NO new transition (edge-triggered).
        let s = m.tick(10.0, &input);
        assert!(s.transitions.is_empty());
        assert_eq!(s.snapshot.alerts_firing, 1);
        // Scroll the window far past the damage: clears with one
        // falling edge.
        let mut cleared = false;
        for k in 3..=12 {
            let s = m.tick(5.0 * k as f64, &input);
            for tr in &s.transitions {
                assert_eq!(tr.rule, "gr_burn_rate");
                assert!(!tr.firing);
                cleared = true;
            }
        }
        assert!(cleared, "the burn alert must clear once the window rolls");
        assert_eq!(m.firing(), Vec::<&str>::new());
        assert_eq!(m.alerts_total(), 2);
    }

    #[test]
    fn the_rule_set_is_the_remaining_three_in_order() {
        assert_eq!(
            ALERT_RULES,
            ["gr_burn_rate", "solver_iteration_blowup", "backlog_growth"]
        );
    }

    #[test]
    fn solver_blowup_detected() {
        let mut m = Monitor::new(MonitorConfig::default());
        let mut input = quiet_input();
        input.solves = 10;
        input.warm_inner_iters = 50; // 5 iters/solve: healthy
        let s = m.tick(5.0, &input);
        assert!(s.transitions.is_empty());
        input.solves = 20;
        // 60-iters/solve burst: the window now averages
        // (50 + 600) / 20 = 32.5 iters/solve, past the 25 ceiling.
        input.warm_inner_iters = 50 + 10 * 60;
        let s = m.tick(10.0, &input);
        assert_eq!(s.transitions.len(), 1);
        assert_eq!(s.transitions[0].rule, "solver_iteration_blowup");
        assert!(s.snapshot.warm_iters_per_solve > 30.0);
    }

    #[test]
    fn backlog_growth_needs_consecutive_ticks() {
        let mut m = Monitor::new(MonitorConfig::default());
        let mut input = quiet_input();
        // Growth, dip, growth, growth: streak never reaches 3.
        for (k, backlog) in [1u64, 2, 1, 2, 3].into_iter().enumerate() {
            input.backlog = backlog;
            let s = m.tick(5.0 * (k + 1) as f64, &input);
            assert!(s.transitions.is_empty(), "backlog {backlog}");
        }
        // Third consecutive growth fires.
        input.backlog = 4;
        let s = m.tick(30.0, &input);
        assert_eq!(s.transitions.len(), 1);
        assert_eq!(s.transitions[0].rule, "backlog_growth");
        assert!(s.transitions[0].firing);
        // Any non-growth tick clears.
        let s = m.tick(35.0, &input);
        assert_eq!(s.transitions.len(), 1);
        assert!(!s.transitions[0].firing);
    }

    #[test]
    fn prometheus_exposition_is_complete_and_deterministic() {
        let mut m = Monitor::new(MonitorConfig::default());
        let s = m.tick(5.0, &quiet_input());
        let text = m.render_prometheus(&s);
        for series in [
            "sparcle_sim_time_seconds 5",
            "sparcle_gr_burn_ratio 0",
            "sparcle_queue_depth 10",
            "sparcle_live_apps 3",
            "sparcle_monitor_ticks_total 1",
            "sparcle_alert_firing{rule=\"gr_burn_rate\"} 0",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
        let again = m.render_prometheus(&s);
        assert_eq!(text, again);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_is_rejected() {
        let mut cfg = MonitorConfig::default();
        cfg.rules.slo_violation_budget = 0.0;
        let _ = Monitor::new(cfg);
    }
}
