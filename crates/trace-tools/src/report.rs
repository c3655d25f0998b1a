//! The `report` subcommand: renders the observability plane's
//! `monitor_snapshot` / `monitor_alert` event families as a
//! health-over-time table plus an alert timeline — the offline
//! counterpart of watching a run's `--metrics-out` file.

use sparcle_telemetry::Json;

use crate::{kind_of, num_field};

/// One `monitor_snapshot` line, decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotRow {
    /// Simulated time of the tick.
    pub time: f64,
    /// GR burn rate vs. the SLO budget.
    pub gr_burn: f64,
    /// Windowed warm Newton iterations per solve.
    pub warm_iters_per_solve: f64,
    /// Windowed arrivals per simulated second.
    pub arrival_rate: f64,
    /// Windowed admissions per simulated second.
    pub admit_rate: f64,
    /// DES queue depth at the tick.
    pub queue_depth: u64,
    /// p95 of windowed queue depths.
    pub queue_p95: u64,
    /// Displaced backlog at the tick.
    pub backlog: u64,
    /// Live applications at the tick.
    pub live: u64,
    /// Alert rules firing after the tick.
    pub alerts_firing: u64,
}

/// One `monitor_alert` line, decoded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertRow {
    /// Simulated time of the transition.
    pub time: f64,
    /// Rule label.
    pub rule: String,
    /// `"firing"` or `"cleared"`.
    pub state: String,
    /// Observed value at the transition.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// Everything the `report` subcommand shows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorReport {
    /// Snapshot rows in trace order.
    pub snapshots: Vec<SnapshotRow>,
    /// Alert transitions in trace order.
    pub alerts: Vec<AlertRow>,
}

/// Extracts the monitor event families from a parsed trace. Unknown
/// kinds are ignored, so the report works on full mixed traces.
pub fn build(events: &[Json]) -> MonitorReport {
    let mut report = MonitorReport::default();
    let num = |e: &Json, k: &str| num_field(e, k).unwrap_or(0.0);
    for event in events {
        match kind_of(event) {
            "monitor_snapshot" => report.snapshots.push(SnapshotRow {
                time: num(event, "time"),
                gr_burn: num(event, "gr_burn"),
                warm_iters_per_solve: num(event, "warm_iters_per_solve"),
                arrival_rate: num(event, "arrival_rate"),
                admit_rate: num(event, "admit_rate"),
                queue_depth: num(event, "queue_depth") as u64,
                queue_p95: num(event, "queue_p95") as u64,
                backlog: num(event, "backlog") as u64,
                live: num(event, "live") as u64,
                alerts_firing: num(event, "alerts_firing") as u64,
            }),
            "monitor_alert" => report.alerts.push(AlertRow {
                time: num(event, "time"),
                rule: event
                    .get("rule")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                state: event
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                value: num(event, "value"),
                threshold: num(event, "threshold"),
            }),
            _ => {}
        }
    }
    report
}

impl MonitorReport {
    /// `true` when the trace carried no monitor events at all.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty() && self.alerts.is_empty()
    }

    /// The human-readable report: header, snapshot table, alert
    /// timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str(
                "no monitor events in trace — enable RuntimeConfig::monitor (or pass \
                 --monitor to a churn experiment) to record them\n",
            );
            return out;
        }
        let span = match (self.snapshots.first(), self.snapshots.last()) {
            (Some(first), Some(last)) => {
                format!(" over [{:.1}, {:.1}] sim-s", first.time, last.time)
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "monitor report: {} snapshots{span}, {} alert transitions\n",
            self.snapshots.len(),
            self.alerts.len(),
        ));
        if !self.snapshots.is_empty() {
            out.push_str(&format!(
                "\n{:>9} {:>7} {:>8} {:>7} {:>7} {:>6} {:>5} {:>8} {:>5} {:>7}\n",
                "time",
                "burn",
                "iters/s",
                "arr/s",
                "adm/s",
                "queue",
                "p95",
                "backlog",
                "live",
                "alerts",
            ));
            for row in &self.snapshots {
                out.push_str(&format!(
                    "{:>9.3} {:>7.2} {:>8.1} {:>7.2} {:>7.2} {:>6} {:>5} {:>8} {:>5} {:>7}\n",
                    row.time,
                    row.gr_burn,
                    row.warm_iters_per_solve,
                    row.arrival_rate,
                    row.admit_rate,
                    row.queue_depth,
                    row.queue_p95,
                    row.backlog,
                    row.live,
                    row.alerts_firing,
                ));
            }
        }
        out.push_str("\nalert timeline:\n");
        if self.alerts.is_empty() {
            out.push_str("  (no alerts — every detector stayed below threshold)\n");
        }
        for a in &self.alerts {
            let relation = if a.state == "firing" { ">" } else { "<=" };
            out.push_str(&format!(
                "  {:>9.3}  {:<24} {:<8} value {:.3} {relation} threshold {:.3}\n",
                a.time,
                a.rule,
                a.state.to_uppercase(),
                a.value,
                a.threshold,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_trace;

    fn monitor_trace() -> Vec<Json> {
        let lines = [
            r#"{"type":"run_start","name":"t"}"#,
            r#"{"type":"monitor_snapshot","time":5,"window":30,"gr_burn":0.0,"gr_violation_s":0,"be_rate":3.5,"arrival_rate":0.8,"admit_rate":0.6,"warm_iters_per_solve":51.0,"solves":12,"queue_depth":14,"queue_p95":14,"backlog":0,"live":4,"alerts_firing":0}"#,
            r#"{"type":"monitor_alert","time":10,"rule":"gr_burn_rate","state":"firing","value":3.42,"threshold":1.0}"#,
            r#"{"type":"monitor_snapshot","time":10,"window":30,"gr_burn":3.42,"gr_violation_s":0.86,"be_rate":3.1,"arrival_rate":0.9,"admit_rate":0.5,"warm_iters_per_solve":60.0,"solves":15,"queue_depth":17,"queue_p95":17,"backlog":2,"live":5,"alerts_firing":1}"#,
            r#"{"type":"monitor_alert","time":25,"rule":"gr_burn_rate","state":"cleared","value":0.2,"threshold":1.0}"#,
            r#"{"type":"runtime_arrival","time":11,"app":9,"class":"be","admitted":true,"rate":1.0}"#,
        ];
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn decodes_both_monitor_families() {
        let r = build(&monitor_trace());
        assert_eq!(r.snapshots.len(), 2);
        assert_eq!(r.alerts.len(), 2);
        assert_eq!(r.snapshots[1].backlog, 2);
        assert_eq!(r.snapshots[1].alerts_firing, 1);
        assert_eq!(r.alerts[0].rule, "gr_burn_rate");
        assert_eq!(r.alerts[1].state, "cleared");
    }

    #[test]
    fn render_shows_table_and_timeline() {
        let text = build(&monitor_trace()).render();
        assert!(text.contains("monitor report: 2 snapshots over [5.0, 10.0] sim-s"));
        assert!(text.contains("burn"));
        assert!(text.contains("gr_burn_rate"));
        assert!(text.contains("FIRING"));
        assert!(text.contains("CLEARED"));
    }

    #[test]
    fn empty_trace_renders_a_hint() {
        let r = build(&[]);
        assert!(r.is_empty());
        assert!(r.render().contains("no monitor events"));
    }

    #[test]
    fn quiet_run_reports_no_alerts() {
        let events = load_trace(
            r#"{"type":"monitor_snapshot","time":5,"window":30,"gr_burn":0.0,"gr_violation_s":0,"be_rate":1.0,"arrival_rate":0.1,"admit_rate":0.1,"warm_iters_per_solve":0.0,"solves":0,"queue_depth":3,"queue_p95":3,"backlog":0,"live":1,"alerts_firing":0}"#,
        )
        .unwrap();
        let text = build(&events).render();
        assert!(text.contains("(no alerts"));
    }
}
