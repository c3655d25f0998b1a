//! Order statistics and process memory.

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`): the smallest
/// sample with at least `q` of the samples at or below it. `0.0` for an
/// empty slice, so a layer a workload never enters reads as zero.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q`-percentile of `n`
/// samples. A percentile is reported only with at least ten beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Repeated timings of the same operations, one slice per repeat:
/// the fastest time of each operation, over the operations every repeat
/// reached. Interference from the machine only ever adds time, so the
/// fastest of a few repeats is the best estimate of the undisturbed
/// cost.
pub fn fastest<'a>(repeats: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Option<Vec<f64>> = None;
    for repeat in repeats {
        best = Some(match best {
            None => repeat.to_vec(),
            Some(b) => b.iter().zip(repeat).map(|(x, y)| x.min(*y)).collect(),
        });
    }
    best.unwrap_or_default()
}

/// Median by the same rule as [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `numerator / denominator`, or `0.0` when the denominator is zero.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set of this process in MB (`VmHWM`). The driver runs
/// one workload per process, so this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_p95_need_two_hundred() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn fastest_keeps_the_minimum_over_the_shared_prefix() {
        let a = [5.0, 2.0, 9.0, 4.0];
        let b = [3.0, 6.0, 1.0];
        assert_eq!(fastest([&a[..], &b[..]].into_iter()), vec![3.0, 2.0, 1.0]);
        assert_eq!(fastest([&a[..]].into_iter()), a.to_vec());
        assert!(fastest(std::iter::empty()).is_empty());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
