//! Counters, fixed-bucket histograms, and the end-of-run snapshot.

use std::collections::BTreeMap;

use crate::json::Json;

/// Number of log2 buckets: values up to `2^63` nanoseconds (~292 years)
/// land in a bucket; everything larger saturates into the last one.
pub const BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram.
///
/// Bucket `k` holds values `v` with `ceil(log2(v + 1)) == k`, i.e.
/// bucket 0 is exactly `0`, bucket 1 is `1`, bucket 2 is `2..=3`, bucket
/// 3 is `4..=7`, and so on. Recording is branch-light (`leading_zeros`)
/// and allocation-free, so it is safe to call from hot paths when
/// telemetry is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimate of the q-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// across the holding bucket's value range, clamped to the observed
    /// `[min, max]`.
    ///
    /// The clamp makes degenerate cases exact: a single-sample
    /// histogram returns that sample for every `q`, and `q = 1` returns
    /// the true maximum rather than the bucket's upper bound. Within a
    /// populated bucket the estimate is still only bucket-resolution
    /// accurate (a factor of two) — fine for the order-of-magnitude
    /// latency questions telemetry answers.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket k covers [2^(k-1), 2^k - 1] (bucket 0 is just
                // 0). Interpolate by the rank's position within the
                // bucket's occupants.
                let lower = if k == 0 { 0u64 } else { 1u64 << (k - 1) };
                let upper = if k == 0 {
                    0u64
                } else {
                    (1u64 << k.min(63)) - 1
                };
                let frac = (rank - seen) as f64 / *n as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return Some((est.round() as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("min", Json::Num(self.min().unwrap_or(0) as f64)),
            ("max", Json::Num(self.max().unwrap_or(0) as f64)),
            ("mean", Json::num(self.mean().unwrap_or(0.0))),
            ("p50", Json::Num(self.quantile(0.50).unwrap_or(0) as f64)),
            ("p99", Json::Num(self.quantile(0.99).unwrap_or(0) as f64)),
        ])
    }
}

/// A frozen view of all counters and histograms at the end of a run.
///
/// The bench harness embeds this in its result JSON; the JSONL sink
/// writes it as the final `snapshot` trace line (counters only — see
/// [`MetricsSnapshot::to_trace_json`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Named monotonic counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms (timings in nanoseconds by convention).
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Value of a counter, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Full JSON form: counters plus histogram summaries. This goes
    /// into result JSON files, **not** the trace stream (histograms
    /// carry wall-clock data and would break trace determinism).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deterministic trace-line form: `type: "snapshot"` plus counters
    /// only. Counters are pure function of the input (cache hits,
    /// commits, invalidations...), so this line stays bit-identical
    /// across runs and thread counts.
    pub fn to_trace_json(&self) -> Json {
        Json::obj([
            ("type", Json::Str("snapshot".to_owned())),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders a human-readable summary table (for `--summary`).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry summary ==\n");
        if !self.counters.is_empty() {
            let width = self
                .counters
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max(7);
            out.push_str(&format!("{:<width$}  {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<width$}  {value:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            let width = self
                .histograms
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max(9);
            out.push_str(&format!(
                "{:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "mean", "p50<=", "p99<=", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{name:<width$}  {:>8} {:>12.1} {:>12} {:>12} {:>12}\n",
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        if self.counters.is_empty() && self.histograms.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        // p50 of 8 values -> 4th smallest (3): rank 4 tops out bucket
        // [2,3], interpolating to its upper bound.
        assert_eq!(h.quantile(0.5), Some(3));
        // p100 lands in 1000's bucket [512,1023]; the [min,max] clamp
        // pulls the bucket bound back to the true maximum.
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);

        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);

        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert_eq!(both.count(), 0);
        assert_eq!(both.quantile(0.5), None);
        assert_eq!(both.min(), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(5);
        // The [min,max] clamp collapses the bucket range [4,7] to the
        // one observed value, for every q.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(5), "q={q}");
        }
    }

    #[test]
    fn quantile_interpolates_within_and_across_buckets() {
        // Two samples sharing bucket [4,7]: p50 interpolates halfway
        // (5.5 -> 6), p100 reaches the bucket's upper bound.
        let mut h = Histogram::new();
        h.record(4);
        h.record(7);
        assert_eq!(h.quantile(0.5), Some(6));
        assert_eq!(h.quantile(1.0), Some(7));

        // Samples in distant buckets: the quantile jumps buckets rather
        // than interpolating between them.
        let mut far = Histogram::new();
        far.record(1);
        far.record(1000);
        assert_eq!(far.quantile(0.5), Some(1));
        assert_eq!(far.quantile(1.0), Some(1000));
    }

    #[test]
    fn merged_percentiles_match_combined_population() {
        let mut a = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            a.record(v);
        }
        let mut b = Histogram::new();
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 3006);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(2000));
        // rank 3 of 6 -> bucket [2,3] upper half.
        assert_eq!(a.quantile(0.5), Some(3));
        // p100 clamps bucket [1024,2047] down to the true max.
        assert_eq!(a.quantile(1.0), Some(2000));
    }

    #[test]
    fn snapshot_trace_json_is_counters_only() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("z.commits".into(), 3);
        s.counters.insert("a.hits".into(), 9);
        s.histograms.insert("tree_fill_ns".into(), Histogram::new());
        let trace = s.to_trace_json();
        assert_eq!(trace.get("type").unwrap().as_str(), Some("snapshot"));
        assert!(trace.get("histograms").is_none());
        // BTreeMap ordering: "a.hits" before "z.commits".
        let rendered = trace.render();
        assert!(rendered.find("a.hits").unwrap() < rendered.find("z.commits").unwrap());
    }

    #[test]
    fn summary_renders_counters_and_histograms() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("gamma_cache.hits".into(), 42);
        let mut h = Histogram::new();
        h.record(10);
        s.histograms.insert("tree_fill_ns".into(), h);
        let text = s.render_summary();
        assert!(text.contains("gamma_cache.hits"));
        assert!(text.contains("42"));
        assert!(text.contains("tree_fill_ns"));
    }

    #[test]
    fn empty_quantile_is_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(Histogram::new().mean(), None);
    }
}
