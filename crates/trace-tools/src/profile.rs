//! Span profiling: tree reconstruction, self/total-time attribution,
//! flamegraph folded stacks, and critical-path extraction.
//!
//! Input is the `span_open`/`span_close` event pairs emitted by
//! `sparcle_telemetry::span` (enabled with `--trace-spans` on the
//! experiment binaries). `span_open` carries the span id (the `span`
//! key — `id` is the line's provenance stamp), parent id, and a
//! monotonic-relative `t_ns`; `span_close` carries the measured
//! `dur_ns` and the `aborted` flag. From those this module rebuilds the
//! span forest and derives:
//!
//! * a per-name **self/total table** (self = duration minus the sum of
//!   child durations, clamped at zero against scheduler noise);
//! * **folded stacks** in the `a;b;c <self_ns>` format every flamegraph
//!   renderer accepts;
//! * the **critical path**: the chain of heaviest children from a root
//!   span downward — where a placement round actually spent its time;
//! * per-round attribution over the `engine.rank_round` spans.

use std::collections::BTreeMap;

use sparcle_telemetry::Json;

use crate::{kind_of, num_field};

/// The span name the placement engine opens once per ranking round.
pub const ROUND_SPAN: &str = "engine.rank_round";

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Trace-unique span id.
    pub id: u64,
    /// Static span name (e.g. `engine.tree_fill`).
    pub name: String,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Open timestamp, ns since the tracker epoch.
    pub t_ns: u64,
    /// Measured duration in ns (0 until the close event is seen).
    pub dur_ns: u64,
    /// Whether the span was closed by a drop on an error path.
    pub aborted: bool,
    /// Whether a matching `span_close` was seen at all.
    pub closed: bool,
    /// Child indices into [`SpanForest::nodes`], in open order.
    pub children: Vec<usize>,
}

/// All spans of one trace, linked into trees.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Every span, in `span_open` order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans, in open order.
    pub roots: Vec<usize>,
}

impl SpanForest {
    /// Reconstructs the forest from a parsed trace. Non-span events are
    /// skipped; a `span_close` without a prior open, or an open naming
    /// an unknown parent, is tolerated (the span becomes a root) so a
    /// truncated trace still profiles.
    pub fn build(events: &[Json]) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        for event in events {
            match kind_of(event) {
                "span_open" => {
                    let Some(id) = num_field(event, "span").map(|v| v as u64) else {
                        continue;
                    };
                    let parent = num_field(event, "parent").map(|v| v as u64);
                    let node = SpanNode {
                        id,
                        name: event
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_owned(),
                        parent,
                        t_ns: num_field(event, "t_ns").map_or(0, |v| v as u64),
                        dur_ns: 0,
                        aborted: false,
                        closed: false,
                        children: Vec::new(),
                    };
                    let idx = forest.nodes.len();
                    forest.nodes.push(node);
                    index_of.insert(id, idx);
                    match parent.and_then(|p| index_of.get(&p).copied()) {
                        Some(p_idx) => forest.nodes[p_idx].children.push(idx),
                        None => forest.roots.push(idx),
                    }
                }
                "span_close" => {
                    let Some(idx) = num_field(event, "span")
                        .map(|v| v as u64)
                        .and_then(|id| index_of.get(&id).copied())
                    else {
                        continue;
                    };
                    let node = &mut forest.nodes[idx];
                    node.dur_ns = num_field(event, "dur_ns").map_or(0, |v| v as u64);
                    node.aborted = event
                        .get("aborted")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    node.closed = true;
                }
                _ => {}
            }
        }
        forest
    }

    /// Duration minus the summed child durations, clamped at zero
    /// (child wall-clocks can overshoot the parent's by scheduler
    /// noise; negative self time is meaningless).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let child_total: u64 = node.children.iter().map(|&c| self.nodes[c].dur_ns).sum();
        node.dur_ns.saturating_sub(child_total)
    }

    /// The `a;b;c` stack string for a node (root-first).
    fn stack_of(&self, idx: usize) -> String {
        let mut names = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            names.push(self.nodes[i].name.as_str());
            cur = self.nodes[i]
                .parent
                .and_then(|p| self.nodes.iter().position(|n| n.id == p));
        }
        names.reverse();
        names.join(";")
    }

    /// Flamegraph folded stacks: one `stack self_ns` line per distinct
    /// stack, self-times summed, sorted lexicographically for a
    /// deterministic render.
    pub fn folded_stacks(&self) -> String {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for idx in 0..self.nodes.len() {
            let self_ns = self.self_ns(idx);
            *merged.entry(self.stack_of(idx)).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (stack, self_ns) in merged {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The chain of heaviest children from `root` downward:
    /// `(name, dur_ns)` per hop. This is where the wall time of that
    /// subtree actually went.
    pub fn critical_path(&self, root: usize) -> Vec<(String, u64)> {
        let mut path = Vec::new();
        let mut cur = root;
        loop {
            let node = &self.nodes[cur];
            path.push((node.name.clone(), node.dur_ns));
            // Heaviest child; ties go to the earliest-opened, keeping
            // the report deterministic.
            let Some(&next) = node
                .children
                .iter()
                .max_by_key(|&&c| (self.nodes[c].dur_ns, std::cmp::Reverse(c)))
            else {
                break;
            };
            cur = next;
        }
        path
    }

    /// Indices of all `engine.rank_round` spans, in open order.
    pub fn round_spans(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].name == ROUND_SPAN)
            .collect()
    }
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameStats {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus children).
    pub self_ns: u64,
    /// How many of them closed via the abort path.
    pub aborted: u64,
}

/// Per-name rollup of a forest, ordered by descending self time (ties
/// broken by name for determinism).
pub fn aggregate(forest: &SpanForest) -> Vec<NameStats> {
    let mut by_name: BTreeMap<&str, NameStats> = BTreeMap::new();
    for idx in 0..forest.nodes.len() {
        let node = &forest.nodes[idx];
        let entry = by_name.entry(&node.name).or_insert_with(|| NameStats {
            name: node.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            aborted: 0,
        });
        entry.count += 1;
        entry.total_ns += node.dur_ns;
        entry.self_ns += forest.self_ns(idx);
        entry.aborted += u64::from(node.aborted);
    }
    let mut stats: Vec<NameStats> = by_name.into_values().collect();
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    stats
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

/// The human-readable self/total table.
pub fn render_table(stats: &[NameStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>7} {:>12} {:>12} {:>8}\n",
        "span", "count", "total_ms", "self_ms", "aborted"
    ));
    for s in stats {
        out.push_str(&format!(
            "{:<24} {:>7} {:>12.3} {:>12.3} {:>8}\n",
            s.name,
            s.count,
            ms(s.total_ns),
            ms(s.self_ns),
            s.aborted
        ));
    }
    out
}

/// Per-placement-round critical-path attribution: for each
/// `engine.rank_round` span, its duration and the heaviest-descendant
/// chain below it; plus the aggregate child breakdown across rounds.
pub fn render_rounds(forest: &SpanForest) -> String {
    let rounds = forest.round_spans();
    if rounds.is_empty() {
        return String::from("no engine.rank_round spans in trace\n");
    }
    let mut out = String::new();
    let mut child_totals: BTreeMap<String, u64> = BTreeMap::new();
    for (round_no, &idx) in rounds.iter().enumerate() {
        let node = &forest.nodes[idx];
        let path = forest.critical_path(idx);
        let chain = path
            .iter()
            .skip(1) // skip the round span itself
            .map(|(name, dur)| format!("{name} ({:.3} ms)", ms(*dur)))
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push_str(&format!(
            "round {round_no:>3}: {:>10.3} ms  critical path: {}\n",
            ms(node.dur_ns),
            if chain.is_empty() { "(leaf)" } else { &chain }
        ));
        for &c in &node.children {
            let child = &forest.nodes[c];
            *child_totals.entry(child.name.clone()).or_insert(0) += child.dur_ns;
        }
    }
    let total: u64 = rounds.iter().map(|&i| forest.nodes[i].dur_ns).sum();
    out.push_str(&format!(
        "\n{} round(s), {:.3} ms total; attribution across rounds:\n",
        rounds.len(),
        ms(total)
    ));
    let self_total: u64 = rounds.iter().map(|&i| forest.self_ns(i)).sum();
    for (name, dur) in &child_totals {
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * *dur as f64 / total as f64
        };
        out.push_str(&format!(
            "  {:<24} {:>10.3} ms  {:>5.1}%\n",
            name,
            ms(*dur),
            pct
        ));
    }
    let self_pct = if total == 0 {
        0.0
    } else {
        100.0 * self_total as f64 / total as f64
    };
    out.push_str(&format!(
        "  {:<24} {:>10.3} ms  {:>5.1}%\n",
        "(round overhead)",
        ms(self_total),
        self_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_trace;

    /// A two-round engine trace shaped like the real emitter's output:
    /// assign > rank_round > {tree_fill, rank_merge}.
    fn engine_trace() -> Vec<Json> {
        let lines = [
            r#"{"type":"run_start","id":1,"name":"t"}"#,
            r#"{"type":"span_open","id":2,"span":0,"parent":null,"name":"engine.assign","t_ns":0}"#,
            r#"{"type":"span_open","id":3,"span":1,"parent":0,"name":"engine.rank_round","t_ns":10}"#,
            r#"{"type":"span_open","id":4,"span":2,"parent":1,"name":"engine.tree_fill","t_ns":20}"#,
            r#"{"type":"span_close","id":5,"span":2,"name":"engine.tree_fill","dur_ns":600,"aborted":false}"#,
            r#"{"type":"span_open","id":6,"span":3,"parent":1,"name":"engine.rank_merge","t_ns":700}"#,
            r#"{"type":"span_close","id":7,"span":3,"name":"engine.rank_merge","dur_ns":200,"aborted":false}"#,
            r#"{"type":"span_close","id":8,"span":1,"name":"engine.rank_round","dur_ns":1000,"aborted":false}"#,
            r#"{"type":"span_open","id":9,"span":4,"parent":0,"name":"engine.rank_round","t_ns":1100}"#,
            r#"{"type":"span_close","id":10,"span":4,"name":"engine.rank_round","dur_ns":300,"aborted":false}"#,
            r#"{"type":"span_close","id":11,"span":0,"name":"engine.assign","dur_ns":2000,"aborted":false}"#,
        ];
        load_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn builds_tree_with_parenting_and_close_data() {
        let forest = SpanForest::build(&engine_trace());
        assert_eq!(forest.nodes.len(), 5);
        assert_eq!(forest.roots, vec![0]);
        let assign = &forest.nodes[0];
        assert_eq!(assign.name, "engine.assign");
        assert_eq!(assign.children, vec![1, 4]);
        assert_eq!(forest.nodes[1].children, vec![2, 3]);
        assert!(forest.nodes.iter().all(|n| n.closed && !n.aborted));
        // assign self = 2000 - (1000 + 300); round 1 self = 1000 - 800.
        assert_eq!(forest.self_ns(0), 700);
        assert_eq!(forest.self_ns(1), 200);
        assert_eq!(forest.self_ns(2), 600);
    }

    #[test]
    fn aggregate_orders_by_self_time() {
        let stats = aggregate(&SpanForest::build(&engine_trace()));
        assert_eq!(stats[0].name, "engine.assign");
        assert_eq!(stats[0].self_ns, 700);
        let round = stats.iter().find(|s| s.name == ROUND_SPAN).unwrap();
        assert_eq!(round.count, 2);
        assert_eq!(round.total_ns, 1300);
        assert_eq!(round.self_ns, 200 + 300);
        let table = render_table(&stats);
        assert!(table.contains("engine.tree_fill"));
        assert!(table.starts_with("span"));
    }

    #[test]
    fn folded_stacks_use_semicolon_paths_and_self_time() {
        let folded = SpanForest::build(&engine_trace()).folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"engine.assign 700"));
        // Two rank_round spans under the same stack: self times merge.
        assert!(lines.contains(&"engine.assign;engine.rank_round 500"));
        assert!(lines.contains(&"engine.assign;engine.rank_round;engine.tree_fill 600"));
        assert!(lines.contains(&"engine.assign;engine.rank_round;engine.rank_merge 200"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn critical_path_follows_heaviest_children() {
        let forest = SpanForest::build(&engine_trace());
        let path = forest.critical_path(0);
        let names: Vec<&str> = path.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["engine.assign", "engine.rank_round", "engine.tree_fill"]
        );
        assert_eq!(path[2].1, 600);
    }

    #[test]
    fn round_attribution_reports_each_round_and_totals() {
        let forest = SpanForest::build(&engine_trace());
        let report = render_rounds(&forest);
        assert!(report.contains("round   0"));
        assert!(report.contains("round   1"));
        assert!(report.contains("2 round(s)"));
        assert!(report.contains("engine.tree_fill"));
        assert!(report.contains("(round overhead)"));
    }

    #[test]
    fn tolerates_truncated_traces() {
        // Open without close (crash mid-run) and a close for an unknown
        // id must not panic.
        let events = load_trace(
            &[
                r#"{"type":"span_open","id":1,"span":7,"parent":null,"name":"x","t_ns":5}"#,
                r#"{"type":"span_close","id":2,"span":99,"name":"y","dur_ns":1,"aborted":true}"#,
            ]
            .join("\n"),
        )
        .unwrap();
        let forest = SpanForest::build(&events);
        assert_eq!(forest.nodes.len(), 1);
        assert!(!forest.nodes[0].closed);
        assert_eq!(forest.self_ns(0), 0);
        assert!(render_rounds(&forest).contains("no engine.rank_round"));
    }
}
