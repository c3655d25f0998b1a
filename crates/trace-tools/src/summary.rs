//! Whole-trace rollups: event-kind counts, per-app admission/rate
//! stats from the `runtime_*` family, reconcile aggregates by policy,
//! peak queue depth from the DES samples, and the final counter
//! snapshot.

use std::collections::BTreeMap;

use sparcle_telemetry::Json;

use crate::{kind_of, num_field};

/// Admission and lifetime facts for one application id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppStats {
    /// Service class from the arrival event (empty when unknown).
    pub class: String,
    /// Whether the placement engine admitted the app.
    pub admitted: bool,
    /// Offered rate at arrival.
    pub rate: f64,
    /// Arrival time.
    pub arrived_at: f64,
    /// Departure time, when a `runtime_departure` was seen.
    pub departed_at: Option<f64>,
}

/// Aggregate over all `runtime_reconcile` events of one policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconcileStats {
    /// Number of reconcile passes.
    pub count: u64,
    /// Summed restored placements.
    pub restored: u64,
    /// Summed re-placed placements.
    pub replaced: u64,
    /// Summed failures to re-place.
    pub failed: u64,
    /// Summed reconcile latency (divide by `count` for the mean).
    pub total_latency: f64,
}

/// Aggregate over the admission-service plane's `service_*` events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Batched transactions (`service_batch` events).
    pub batches: u64,
    /// Summed batch sizes (divide by `batches` for the mean).
    pub batched_requests: u64,
    /// Summed warm solves charged to batches.
    pub solves: u64,
    /// Highest post-batch ingest queue depth.
    pub peak_queue_depth: u64,
    /// Decision count per outcome (`admitted` / `rejected` / `shed`).
    pub outcomes: BTreeMap<String, u64>,
    /// Summed arrival→decision wait over all decisions.
    pub total_wait: f64,
    /// Largest single arrival→decision wait.
    pub max_wait: f64,
    /// Snapshot probes answered (`service_probe` events).
    pub probes: u64,
    /// Probes whose what-if placement was feasible.
    pub probes_feasible: u64,
}

impl ServiceStats {
    fn is_empty(&self) -> bool {
        self.batches == 0 && self.outcomes.is_empty() && self.probes == 0
    }

    fn decisions(&self) -> u64 {
        self.outcomes.values().sum()
    }
}

/// Negative-decision counts by stable cause code (DESIGN.md §14), plus
/// the per-element displacement rollup that names the bottlenecks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CauseTaxonomy {
    /// Rejections by cause code: `runtime_arrival` with
    /// `admitted=false`, `service_decision` with `outcome="rejected"`,
    /// and `runtime_readmit` with `outcome="failed"`.
    pub rejections: BTreeMap<String, u64>,
    /// Sheds by cause code (`service_decision` with `outcome="shed"`).
    pub sheds: BTreeMap<String, u64>,
    /// Deferred windows by cause code (`service_defer`).
    pub deferrals: BTreeMap<String, u64>,
    /// Displacements by cause code (`runtime_displace`).
    pub displacements: BTreeMap<String, u64>,
    /// Displacements per failing element — the elements that actually
    /// cost placements, most-destructive first in the render.
    pub bottleneck_elements: BTreeMap<String, u64>,
}

impl CauseTaxonomy {
    /// True when the trace carried no cause-coded negative decisions.
    pub fn is_empty(&self) -> bool {
        self.rejections.is_empty()
            && self.sheds.is_empty()
            && self.deferrals.is_empty()
            && self.displacements.is_empty()
    }

    fn add(map: &mut BTreeMap<String, u64>, code: &str) {
        *map.entry(code.to_owned()).or_insert(0) += 1;
    }

    /// Folds one parsed event into the taxonomy (no-op for kinds that
    /// carry no cause code).
    pub fn observe(&mut self, event: &Json) {
        fn cause(e: &Json) -> Option<&str> {
            e.get("cause").and_then(Json::as_str)
        }
        match kind_of(event) {
            "runtime_arrival" if event.get("admitted").and_then(Json::as_bool) == Some(false) => {
                Self::add(&mut self.rejections, cause(event).unwrap_or("?"));
            }
            "runtime_readmit" if event.get("outcome").and_then(Json::as_str) == Some("failed") => {
                Self::add(&mut self.rejections, cause(event).unwrap_or("?"));
            }
            "runtime_displace" => {
                Self::add(&mut self.displacements, cause(event).unwrap_or("?"));
                if let Some(element) = event.get("element").and_then(Json::as_str) {
                    Self::add(&mut self.bottleneck_elements, element);
                }
            }
            "service_decision" => match event.get("outcome").and_then(Json::as_str) {
                Some("rejected") => Self::add(&mut self.rejections, cause(event).unwrap_or("?")),
                Some("shed") => Self::add(&mut self.sheds, cause(event).unwrap_or("?")),
                _ => {}
            },
            "service_defer" => Self::add(&mut self.deferrals, cause(event).unwrap_or("?")),
            _ => {}
        }
    }

    /// The cause-taxonomy table: one row per (family, code), then the
    /// top bottleneck elements by displacement count.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("\ncause taxonomy (negative decisions by cause code):\n");
        for (family, map) in [
            ("rejected", &self.rejections),
            ("shed", &self.sheds),
            ("deferred", &self.deferrals),
            ("displaced", &self.displacements),
        ] {
            for (code, count) in map {
                out.push_str(&format!("  {family:<10} {code:<28} {count:>6}\n"));
            }
        }
        if !self.bottleneck_elements.is_empty() {
            out.push_str("  top bottleneck elements (by displacements):\n");
            let mut elements: Vec<(&String, &u64)> = self.bottleneck_elements.iter().collect();
            elements.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (element, count) in elements.into_iter().take(5) {
                out.push_str(&format!("    {element:<26} {count:>6}\n"));
            }
        }
        out
    }
}

/// Folds a whole parsed trace into its [`CauseTaxonomy`].
pub fn collect_causes(events: &[Json]) -> CauseTaxonomy {
    let mut taxonomy = CauseTaxonomy::default();
    for event in events {
        taxonomy.observe(event);
    }
    taxonomy
}

/// Everything the `summary` subcommand reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Event count per `type` tag.
    pub kind_counts: BTreeMap<String, u64>,
    /// Per-app rollups keyed by app id (`runtime_arrival`/`_departure`).
    pub apps: BTreeMap<u64, AppStats>,
    /// Reconcile aggregates keyed by policy name.
    pub reconciles: BTreeMap<String, ReconcileStats>,
    /// Admission-service plane rollup (`service_*` events).
    pub service: ServiceStats,
    /// Negative decisions by cause code (DESIGN.md §14).
    pub causes: CauseTaxonomy,
    /// Highest `sim_queue_depth.depth` sample.
    pub peak_queue_depth: Option<u64>,
    /// Last `sim_queue_depth.processed` sample (monotone in the DES).
    pub processed: Option<u64>,
    /// Counters from the final snapshot line, in snapshot order.
    pub counters: Vec<(String, f64)>,
}

/// Folds a parsed trace into a [`TraceSummary`]. Unknown event kinds
/// are counted but otherwise ignored, so newer traces still summarize.
pub fn summarize(events: &[Json]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for event in events {
        let kind = kind_of(event);
        *s.kind_counts.entry(kind.to_owned()).or_insert(0) += 1;
        s.causes.observe(event);
        match kind {
            "runtime_arrival" => {
                let Some(app) = num_field(event, "app").map(|v| v as u64) else {
                    continue;
                };
                let entry = s.apps.entry(app).or_default();
                entry.class = event
                    .get("class")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                entry.admitted = event
                    .get("admitted")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                entry.rate = num_field(event, "rate").unwrap_or(0.0);
                entry.arrived_at = num_field(event, "time").unwrap_or(0.0);
            }
            "runtime_departure" => {
                let Some(app) = num_field(event, "app").map(|v| v as u64) else {
                    continue;
                };
                s.apps.entry(app).or_default().departed_at = num_field(event, "time");
            }
            "runtime_reconcile" => {
                let policy = event
                    .get("policy")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                let entry = s.reconciles.entry(policy).or_default();
                entry.count += 1;
                entry.restored += num_field(event, "restored").map_or(0, |v| v as u64);
                entry.replaced += num_field(event, "replaced").map_or(0, |v| v as u64);
                entry.failed += num_field(event, "failed").map_or(0, |v| v as u64);
                entry.total_latency += num_field(event, "latency").unwrap_or(0.0);
            }
            "service_batch" => {
                s.service.batches += 1;
                s.service.batched_requests += num_field(event, "size").map_or(0, |v| v as u64);
                s.service.solves += num_field(event, "solves").map_or(0, |v| v as u64);
                if let Some(depth) = num_field(event, "queue_depth").map(|v| v as u64) {
                    s.service.peak_queue_depth = s.service.peak_queue_depth.max(depth);
                }
            }
            "service_decision" => {
                let outcome = event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                *s.service.outcomes.entry(outcome).or_insert(0) += 1;
                if let Some(wait) = num_field(event, "wait") {
                    s.service.total_wait += wait;
                    s.service.max_wait = s.service.max_wait.max(wait);
                }
            }
            "service_probe" => {
                s.service.probes += 1;
                if event.get("feasible").and_then(Json::as_bool) == Some(true) {
                    s.service.probes_feasible += 1;
                }
            }
            "sim_queue_depth" => {
                if let Some(depth) = num_field(event, "depth").map(|v| v as u64) {
                    s.peak_queue_depth = Some(s.peak_queue_depth.unwrap_or(0).max(depth));
                }
                if let Some(p) = num_field(event, "processed").map(|v| v as u64) {
                    s.processed = Some(p);
                }
            }
            "snapshot" => {
                if let Some(Json::Obj(pairs)) = event.get("counters") {
                    for (name, value) in pairs {
                        if let Some(v) = value.as_num() {
                            s.counters.push((name.clone(), v));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    s
}

impl TraceSummary {
    /// How many apps the trace admitted (vs. total seen arriving).
    pub fn admitted_count(&self) -> (usize, usize) {
        let admitted = self.apps.values().filter(|a| a.admitted).count();
        (admitted, self.apps.len())
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("events by kind:\n");
        for (kind, count) in &self.kind_counts {
            out.push_str(&format!("  {kind:<24} {count:>8}\n"));
        }
        if !self.apps.is_empty() {
            let (admitted, total) = self.admitted_count();
            out.push_str(&format!("\napps: {admitted}/{total} admitted\n"));
            for (app, stats) in &self.apps {
                let lifetime = match stats.departed_at {
                    Some(d) => format!("{:.3}..{d:.3}", stats.arrived_at),
                    None => format!("{:.3}..", stats.arrived_at),
                };
                out.push_str(&format!(
                    "  app {app:>4} [{}] {} rate {:.3} alive {lifetime}\n",
                    stats.class,
                    if stats.admitted {
                        "admitted"
                    } else {
                        "rejected"
                    },
                    stats.rate,
                ));
            }
        }
        if !self.reconciles.is_empty() {
            out.push_str("\nreconcile passes by policy:\n");
            for (policy, r) in &self.reconciles {
                let mean = if r.count == 0 {
                    0.0
                } else {
                    r.total_latency / r.count as f64
                };
                out.push_str(&format!(
                    "  {policy:<12} passes {:>4}  restored {:>4}  replaced {:>4}  failed {:>4}  \
                     mean latency {mean:.3}\n",
                    r.count, r.restored, r.replaced, r.failed,
                ));
            }
        }
        if !self.service.is_empty() {
            let svc = &self.service;
            let decisions = svc.decisions();
            let mean_batch = if svc.batches == 0 {
                0.0
            } else {
                svc.batched_requests as f64 / svc.batches as f64
            };
            let mean_wait = if decisions == 0 {
                0.0
            } else {
                svc.total_wait / decisions as f64
            };
            out.push_str("\nadmission service (service_* rollup):\n");
            out.push_str(&format!(
                "  batches {:>4}  requests {:>5}  mean batch {mean_batch:.2}  solves {:>4}  \
                 peak queue {}\n",
                svc.batches, svc.batched_requests, svc.solves, svc.peak_queue_depth,
            ));
            out.push_str(&format!(
                "  decisions {decisions} ({})  mean wait {mean_wait:.3}  max wait {:.3}\n",
                svc.outcomes
                    .iter()
                    .map(|(o, n)| format!("{o} {n}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                svc.max_wait,
            ));
            out.push_str(&format!(
                "  probes {} ({} feasible)\n",
                svc.probes, svc.probes_feasible,
            ));
        }
        out.push_str(&self.causes.render());
        if let Some(peak) = self.peak_queue_depth {
            out.push_str(&format!(
                "\nDES: peak queue depth {peak}, events processed {}\n",
                self.processed.unwrap_or(0)
            ));
        }
        out.push_str(&self.render_state_core());
        if !self.counters.is_empty() {
            out.push_str("\nfinal counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<32} {value}\n"));
            }
        }
        out
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Rolls the `system.*` state-core work counters (exported by the
    /// churn runtime's final snapshot) into derived health ratios:
    /// warm-solve share, Newton iterations per solve, rollback rate,
    /// and the γ-cache hit rate. Empty when the trace carries none.
    fn render_state_core(&self) -> String {
        if !self.counters.iter().any(|(n, _)| n.starts_with("system.")) {
            return String::new();
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut out = String::new();
        out.push_str("\nstate core (system.* rollup):\n");
        let (solves, warm, cold) = (
            self.counter("system.solves"),
            self.counter("system.warm_solves"),
            self.counter("system.cold_solves"),
        );
        out.push_str(&format!(
            "  solves {solves} (warm {warm} / cold {cold}, warm share {:.1}%)\n",
            100.0 * ratio(warm, solves)
        ));
        out.push_str(&format!(
            "  newton iters/solve: warm {:.1}, cold {:.1}\n",
            ratio(self.counter("system.warm_inner_iters"), warm),
            ratio(self.counter("system.cold_inner_iters"), cold),
        ));
        out.push_str(&format!(
            "  residual maintenance: {} element updates\n",
            self.counter("system.residual_element_updates"),
        ));
        let (commits, rollbacks) = (
            self.counter("system.txn_commits"),
            self.counter("system.txn_rollbacks"),
        );
        out.push_str(&format!(
            "  transactions: {commits} commits, {rollbacks} rollbacks ({:.1}% rolled back)\n",
            100.0 * ratio(rollbacks, commits + rollbacks)
        ));
        let (hits, misses) = (
            self.counter("system.gamma_cache_hits"),
            self.counter("system.gamma_cache_misses"),
        );
        out.push_str(&format!(
            "  gamma cache: {hits} tree hits / {misses} sweeps ({:.1}% hit rate)\n",
            100.0 * ratio(hits, hits + misses)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_trace;

    fn runtime_trace() -> Vec<Json> {
        let lines = [
            r#"{"type":"run_start","name":"t"}"#,
            r#"{"type":"runtime_arrival","time":0.5,"app":0,"class":"gold","admitted":true,"rate":2.5}"#,
            r#"{"type":"runtime_arrival","time":0.7,"app":1,"class":"be","admitted":false,"rate":1.0}"#,
            r#"{"type":"runtime_departure","time":3.0,"app":0}"#,
            r#"{"type":"runtime_reconcile","time":1.0,"policy":"fifo","restored":2,"replaced":1,"failed":0,"latency":0.4}"#,
            r#"{"type":"runtime_reconcile","time":2.0,"policy":"fifo","restored":1,"replaced":0,"failed":1,"latency":0.6}"#,
            r#"{"type":"sim_queue_depth","time":1.0,"depth":4,"processed":10}"#,
            r#"{"type":"sim_queue_depth","time":2.0,"depth":9,"processed":25}"#,
            r#"{"type":"sim_queue_depth","time":3.0,"depth":2,"processed":40}"#,
            r#"{"type":"snapshot","counters":{"engine.rounds":12,"gamma.cache_hits":30}}"#,
        ];
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn counts_kinds_and_rolls_up_apps() {
        let s = summarize(&runtime_trace());
        assert_eq!(s.kind_counts["runtime_arrival"], 2);
        assert_eq!(s.kind_counts["sim_queue_depth"], 3);
        assert_eq!(s.admitted_count(), (1, 2));
        let app0 = &s.apps[&0];
        assert_eq!(app0.class, "gold");
        assert!(app0.admitted);
        assert_eq!(app0.departed_at, Some(3.0));
        assert_eq!(s.apps[&1].departed_at, None);
    }

    #[test]
    fn aggregates_reconciles_and_queue_depth() {
        let s = summarize(&runtime_trace());
        let fifo = &s.reconciles["fifo"];
        assert_eq!(fifo.count, 2);
        assert_eq!((fifo.restored, fifo.replaced, fifo.failed), (3, 1, 1));
        assert!((fifo.total_latency - 1.0).abs() < 1e-9);
        assert_eq!(s.peak_queue_depth, Some(9));
        assert_eq!(s.processed, Some(40));
    }

    #[test]
    fn captures_snapshot_counters_in_order() {
        let s = summarize(&runtime_trace());
        assert_eq!(
            s.counters,
            vec![
                ("engine.rounds".to_owned(), 12.0),
                ("gamma.cache_hits".to_owned(), 30.0),
            ]
        );
    }

    #[test]
    fn render_mentions_every_section() {
        let report = summarize(&runtime_trace()).render();
        assert!(report.contains("events by kind:"));
        assert!(report.contains("apps: 1/2 admitted"));
        assert!(report.contains("reconcile passes by policy:"));
        assert!(report.contains("peak queue depth 9"));
        assert!(report.contains("engine.rounds"));
    }

    #[test]
    fn system_counters_get_a_rollup_section() {
        let lines = [
            r#"{"type":"snapshot","counters":{"system.solves":40,"system.warm_solves":30,"system.cold_solves":10,"system.warm_inner_iters":1500,"system.cold_inner_iters":2100,"system.residual_element_updates":12,"system.txn_commits":36,"system.txn_rollbacks":4,"system.gamma_cache_hits":95,"system.gamma_cache_misses":5}}"#,
        ];
        let report = summarize(&load_trace(&lines.join("\n")).unwrap()).render();
        assert!(report.contains("state core (system.* rollup):"));
        assert!(report.contains("warm share 75.0%"));
        assert!(report.contains("warm 50.0, cold 210.0"));
        assert!(report.contains("residual maintenance: 12 element updates\n"));
        assert!(report.contains("10.0% rolled back"));
        assert!(report.contains("95.0% hit rate"));
    }

    #[test]
    fn traces_without_system_counters_skip_the_rollup() {
        let report = summarize(&runtime_trace()).render();
        assert!(!report.contains("state core"));
    }

    fn service_trace() -> Vec<Json> {
        let lines = [
            r#"{"type":"service_batch","time":1.0,"window":1,"size":3,"admitted":2,"rejected":1,"shed":0,"queue_depth":2,"solves":1}"#,
            r#"{"type":"service_batch","time":2.0,"window":2,"size":5,"admitted":5,"rejected":0,"shed":1,"queue_depth":7,"solves":1}"#,
            r#"{"type":"service_decision","time":1.0,"request":0,"class":"be","outcome":"admitted","wait":0.4,"rate":1.5}"#,
            r#"{"type":"service_decision","time":1.0,"request":1,"class":"gr","outcome":"rejected","wait":0.2,"rate":0.0}"#,
            r#"{"type":"service_decision","time":2.0,"request":2,"class":"be","outcome":"shed","wait":1.4,"rate":0.0}"#,
            r#"{"type":"service_probe","time":1.5,"request":3,"feasible":true,"rate":2.0}"#,
            r#"{"type":"service_probe","time":1.6,"request":4,"feasible":false,"rate":0.0}"#,
        ];
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn service_events_get_a_rollup() {
        let s = summarize(&service_trace());
        let svc = &s.service;
        assert_eq!(svc.batches, 2);
        assert_eq!(svc.batched_requests, 8);
        assert_eq!(svc.solves, 2);
        assert_eq!(svc.peak_queue_depth, 7);
        assert_eq!(svc.outcomes["admitted"], 1);
        assert_eq!(svc.outcomes["rejected"], 1);
        assert_eq!(svc.outcomes["shed"], 1);
        assert_eq!(svc.decisions(), 3);
        assert!((svc.total_wait - 2.0).abs() < 1e-9);
        assert_eq!(svc.max_wait, 1.4);
        assert_eq!((svc.probes, svc.probes_feasible), (2, 1));
    }

    #[test]
    fn service_rollup_renders_a_section() {
        let report = summarize(&service_trace()).render();
        assert!(report.contains("admission service (service_* rollup):"));
        assert!(report.contains("mean batch 4.00"), "{report}");
        assert!(
            report.contains("admitted 1, rejected 1, shed 1"),
            "{report}"
        );
        assert!(report.contains("probes 2 (1 feasible)"), "{report}");
    }

    #[test]
    fn traces_without_service_events_skip_the_service_section() {
        let report = summarize(&runtime_trace()).render();
        assert!(!report.contains("admission service"));
    }

    fn caused_trace() -> Vec<Json> {
        let lines = [
            r#"{"type":"runtime_arrival","id":1,"time":0.5,"app":0,"lineage":0,"class":"be","admitted":false,"rate":1.0,"cause":"no_path"}"#,
            r#"{"type":"runtime_displace","id":2,"time":1.0,"app":1,"lineage":1,"element":"link:2->4","cause":"element_failure"}"#,
            r#"{"type":"runtime_displace","id":3,"time":1.5,"app":2,"lineage":2,"element":"link:2->4","cause":"element_failure"}"#,
            r#"{"type":"runtime_displace","id":4,"time":1.6,"app":3,"lineage":3,"element":"node:7","cause":"element_failure"}"#,
            r#"{"type":"runtime_readmit","id":5,"time":2.0,"app":1,"lineage":1,"outcome":"failed","rate":0.0,"cause":"placement_unfit","causes":[2]}"#,
            r#"{"type":"service_decision","id":6,"time":3.0,"request":9,"lineage":9,"class":"be","outcome":"shed","wait":1.0,"rate":0.0,"cause":"defer_budget"}"#,
            r#"{"type":"service_decision","id":7,"time":3.0,"request":10,"lineage":10,"class":"gr","outcome":"rejected","wait":0.5,"rate":0.0,"cause":"availability_unreachable"}"#,
            r#"{"type":"service_defer","id":8,"time":4.0,"window":4,"queue_depth":3,"writer_free":4.5,"cause":"writer_busy"}"#,
        ];
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn cause_taxonomy_counts_by_family_and_code() {
        let s = summarize(&caused_trace());
        assert_eq!(s.causes.rejections["no_path"], 1);
        assert_eq!(s.causes.rejections["placement_unfit"], 1);
        assert_eq!(s.causes.rejections["availability_unreachable"], 1);
        assert_eq!(s.causes.sheds["defer_budget"], 1);
        assert_eq!(s.causes.deferrals["writer_busy"], 1);
        assert_eq!(s.causes.displacements["element_failure"], 3);
        assert_eq!(s.causes.bottleneck_elements["link:2->4"], 2);
    }

    #[test]
    fn cause_taxonomy_renders_with_bottleneck_elements_first_by_count() {
        let report = summarize(&caused_trace()).render();
        assert!(report.contains("cause taxonomy"), "{report}");
        assert!(report.contains("rejected   no_path"), "{report}");
        assert!(report.contains("shed       defer_budget"), "{report}");
        assert!(report.contains("deferred   writer_busy"), "{report}");
        assert!(report.contains("displaced  element_failure"), "{report}");
        let link = report.find("link:2->4").expect("busiest element listed");
        let node = report.find("node:7").expect("other element listed");
        assert!(link < node, "elements must sort by displacement count");
    }

    #[test]
    fn traces_without_causes_skip_the_taxonomy() {
        let report = summarize(&service_trace()).render();
        // The fixture's decisions carry no cause codes for the negative
        // outcomes, so they land in the "?" bucket — but a trace with
        // only positive decisions must skip the section entirely.
        let positive = load_trace(
            r#"{"type":"service_decision","id":1,"time":1.0,"request":0,"lineage":0,"class":"be","outcome":"admitted","wait":0.4,"rate":1.5}"#,
        )
        .unwrap();
        assert!(!summarize(&positive).render().contains("cause taxonomy"));
        assert!(report.contains("cause taxonomy"), "{report}");
    }

    #[test]
    fn empty_trace_summarizes_to_defaults() {
        let s = summarize(&[]);
        assert!(s.kind_counts.is_empty());
        assert_eq!(s.peak_queue_depth, None);
        assert!(s.render().contains("events by kind:"));
    }
}
