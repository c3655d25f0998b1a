//! Metric names and the result every workload hands back. The names are
//! the contract with `BENCHMARK.json` (a test holds the two together).

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p90_ms", "ms"),
    ("delivered_rate", "rate"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload never enters reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.network_build_ms", "ms"),
    ("model.csr_build_ms", "ms"),
    ("core.engine.assign_ms_p50", "ms"),
    ("core.engine.assign_ms_p95", "ms"),
    ("core.engine.assign_share", "ratio"),
    ("core.engine.rows_filled_per_assign", "count"),
    ("core.engine.gamma_hit_rate", "ratio"),
    ("core.widest_path.tree_us_p50", "us"),
    ("core.widest_path.tree_share", "ratio"),
    ("core.state.submit_self_ms_p50", "ms"),
    ("core.state.remove_ms_p50", "ms"),
    ("core.state.migrate_probe_ms_p50", "ms"),
    ("core.state.residual_updates_per_commit", "count"),
    ("core.state.rollbacks", "count"),
    ("core.snapshot.capture_us_p50", "us"),
    ("core.snapshot.predict_us_p50", "us"),
    ("alloc.num.solve_ms_p50", "ms"),
    ("alloc.num.solve_ms_p95", "ms"),
    ("alloc.num.solve_share", "ratio"),
    ("alloc.num.warm_iters_per_solve", "count"),
    ("alloc.num.cold_solves", "count"),
    ("alloc.num.solves_per_decision", "ratio"),
    ("alloc.availability.analysis_us_p50", "us"),
    ("alloc.availability.too_many_elements", "count"),
    ("service.batch_ms_p50", "ms"),
    ("service.batch_ms_p95", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.self_share", "ratio"),
    ("service.probe_ms_p50", "ms"),
    ("service.on_time_share", "ratio"),
    ("service.shed", "count"),
    ("service.windows_deferred", "count"),
    ("service.pacer_lag_ms_max", "ms"),
    ("runtime.events_per_s", "1/s"),
    ("runtime.event_us_mean", "us"),
    ("runtime.reconcile_ms_p50", "ms"),
    ("runtime.reconcile_ms_p95", "ms"),
    ("runtime.solve_share", "ratio"),
    ("runtime.defrag_overhead_ratio", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.ns_per_event", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (submissions, departures, requests).
    pub attempted: u64,
    /// Operations that failed: `Err` results, sheds and panics.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run
    /// incorrect and counts as one failed operation.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn failed_total(&self) -> u64 {
        self.failed + self.problems.len() as u64
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_total(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_telemetry::json::{parse, Json};

    fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&manifest, "end_to_end"), names(END_TO_END));
        assert_eq!(declared(&manifest, "per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = parse(&outcome.result_line(END_TO_END)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_num), Some(10.0));
        assert_eq!(line.get("failed").and_then(Json::as_num), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("value").and_then(Json::as_num), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        outcome.problems.push("residual off".to_owned());
        let line = parse(&outcome.result_line(END_TO_END)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_num), Some(1.0));
    }
}
