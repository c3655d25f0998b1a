//! The SPARCLE experiments and the pieces they share.
//!
//! Every figure and table of the paper's evaluation section, and every
//! extension this repository adds, is one entry of [`EXPERIMENTS`], run
//! as `sparcle-exp <name>`; each prints the paper's rows/series as an
//! ASCII table and writes a CSV under `target/experiments/`. This
//! library holds the experiments, the one flag parser and trace harness
//! they run under ([`harness`]), and table rendering, order statistics,
//! CDF extraction and CSV output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;

pub use harness::{ExpFlags, ExpHarness, ParsedFlags};

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `sparcle-exp` subcommand.
    pub command: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Declares the experiment's own flags on top of the shared ones.
    pub flags: fn(&mut ExpFlags),
    /// Runs the experiment under the harness `sparcle-exp` created.
    pub run: fn(&ParsedFlags, &ExpHarness),
}

fn no_flags(_: &mut ExpFlags) {}

/// Declares every experiment once. Each row names a module of
/// `src/exp/`, which exposes `run` (and `flags`, when the row says
/// `[flags]`), and its one-line description; the rows generate the
/// module tree and [`EXPERIMENTS`].
macro_rules! experiments {
    ($($module:ident $([$flags:ident])? = $what:literal,)*) => {
        /// One module per experiment.
        mod exp {
            $(pub mod $module;)*
        }

        /// The experiment registry, in the order `sparcle-exp all` runs
        /// it.
        ///
        /// `tests/exp_list.rs` holds it to DESIGN.md §4 and
        /// EXPERIMENTS.md: every entry must have its row in both.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            command: stringify!($module),
            what: $what,
            flags: experiments!(@flags $module $($flags)?),
            run: exp::$module::run,
        },)*];
    };
    (@flags $module:ident) => { no_flags };
    (@flags $module:ident $flags:ident) => { exp::$module::$flags };
}

experiments! {
    fig6 = "Tables I/II + Figure 6: face-detection testbed sweep",
    fig8 = "Figure 8: SPARCLE vs exhaustive optimum percentiles",
    fig9 = "Figure 9: energy efficiency",
    fig10 = "Figure 10: BE/GR availability vs #paths",
    fig11 = "Figure 11: rate CDFs across bottleneck cases",
    fig12 = "Figure 12: multi-resource percentiles",
    fig13 = "Figure 13: two-app proportional-fair utility CDF",
    fig14 = "Figure 14: total admitted GR rate",
    ablation = "Ablations: routing / ranking / prediction",
    fluctuation = "Extension: capacity fluctuation (§VI)",
    latency = "Extension: end-to-end latency analysis",
    diversity = "Extension: diverse multipath extraction",
    admission = "Extension: GR admission under churn",
    policy = "Extension: proportional-fair vs max-min allocation",
    aimd = "Extension: AIMD rate control vs analytic bottleneck",
    scaling = "Theorem 2: running-time scaling table",
    churn = "Online runtime: SLO ledger under churn, per reconcile policy",
    service = "Service plane: batched admission vs per-request under flash crowds",
    defrag [flags] = "Defrag plane: planned-migration uplift under a budget sweep",
}

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Simple fixed-width ASCII table renderer.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "cell count mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!(" {cell:<w$} |"));
            }
            s
        };
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&line(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }

    /// Writes the table as CSV to `target/experiments/<name>.csv` and
    /// returns the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (experiment binaries want loud failures).
    pub fn write_csv(&self, name: &str) -> PathBuf {
        let dir = experiments_dir();
        fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create csv");
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        )
        .expect("write header");
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            )
            .expect("write row");
        }
        path
    }
}

/// Directory experiment CSVs land in.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by linear interpolation.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples the empirical CDF of `values` at `points` evenly-spaced
/// abscissae between 0 and `max`, returning `(x, F(x))` pairs.
pub fn empirical_cdf(values: &[f64], max: f64, points: usize) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (0..=points)
        .map(|i| {
            let x = max * i as f64 / points as f64;
            let count = sorted.partition_point(|&v| v <= x);
            (x, count as f64 / sorted.len().max(1) as f64)
        })
        .collect()
}

/// Formats a ratio as a percentage-improvement string ("+38%").
pub fn improvement(ours: f64, theirs: f64) -> String {
    if theirs <= 0.0 {
        return "n/a".to_owned();
    }
    format!("{:+.0}%", 100.0 * (ours - theirs) / theirs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["algo", "rate"]);
        t.row(["SPARCLE", "0.50"]);
        t.row(["T-Storm", "0.30"]);
        let s = t.render();
        assert!(s.contains("| SPARCLE | 0.50 |"), "{s}");
        assert!(s.lines().count() >= 6);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn table_checks_arity() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.25), 1.75);
    }

    #[test]
    fn mean_and_empty() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let v = [0.1, 0.5, 0.9, 0.9];
        let cdf = empirical_cdf(&v, 1.0, 10);
        assert_eq!(cdf.first().unwrap().1, 0.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn improvement_formats() {
        assert_eq!(improvement(1.5, 1.0), "+50%");
        assert_eq!(improvement(0.5, 1.0), "-50%");
        assert_eq!(improvement(1.0, 0.0), "n/a");
    }

    #[test]
    fn csv_writes() {
        let mut t = Table::new(["x", "y"]);
        t.row(["1", "a,b"]);
        let path = t.write_csv("unit-test-table");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,\"a,b\"\n");
        let _ = std::fs::remove_file(path); // keep artifacts dir clean
    }
}
