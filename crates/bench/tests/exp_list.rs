//! Guards the experiment registry: `sparcle_bench::EXPERIMENTS` must
//! list exactly the `exp_*` binaries present in `src/bin/` (minus the
//! `exp_all` driver itself), so `exp_all` can never silently skip a
//! newly added experiment.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn registry_matches_binaries_on_disk() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&bin_dir)
        .expect("read src/bin")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .map(|p| {
            p.file_stem()
                .expect("file stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();

    let mut registered: BTreeSet<String> = sparcle_bench::EXPERIMENTS
        .iter()
        .map(|(name, _)| (*name).to_owned())
        .collect();
    assert_eq!(
        registered.len(),
        sparcle_bench::EXPERIMENTS.len(),
        "duplicate names in EXPERIMENTS"
    );
    registered.insert("exp_all".to_owned()); // the driver runs the list

    assert_eq!(
        registered, on_disk,
        "EXPERIMENTS registry out of sync with src/bin/ \
         (add new binaries to sparcle_bench::EXPERIMENTS)"
    );
}

/// The perf-baseline entry points ride the same registry: `exp_all`
/// (and anything else iterating `EXPERIMENTS`) must reach the baseline
/// runner, and every pinned baseline workload must be resolvable by
/// name so `exp_baseline run <name>` / `compare <name>` cannot drift
/// from the registered list.
#[test]
fn registry_covers_baseline_entry_points() {
    assert!(
        sparcle_bench::EXPERIMENTS
            .iter()
            .any(|(name, _)| *name == "exp_baseline"),
        "exp_baseline must be in the experiment registry"
    );
    let baselines = &sparcle_bench::baseline::BASELINE_EXPERIMENTS;
    assert!(baselines.len() >= 3, "need at least three pinned workloads");
    let mut names: Vec<&str> = baselines.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        baselines.len(),
        "baseline workload names must be unique (they key BENCH_<name>.json)"
    );
}

/// Every registered binary must accept `--metrics-out` so operators
/// can point any experiment at a Prometheus scrape file. Binaries get
/// that by going through `ExpHarness` (which parses the flag); the one
/// holdout with a bespoke CLI (`exp_baseline`) must at least tolerate
/// unknown flags instead of dying on them.
#[test]
fn every_registered_binary_accepts_metrics_out() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    for (name, _) in sparcle_bench::EXPERIMENTS {
        let source = std::fs::read_to_string(bin_dir.join(format!("{name}.rs")))
            .unwrap_or_else(|e| panic!("read {name}.rs: {e}"));
        assert!(
            source.contains("ExpHarness") || source.contains("ignoring unknown argument"),
            "{name} must parse --metrics-out via ExpHarness \
             (or explicitly tolerate unknown flags)"
        );
    }
}

#[test]
fn registry_descriptions_are_nonempty() {
    for (name, what) in sparcle_bench::EXPERIMENTS {
        assert!(
            name.starts_with("exp_"),
            "experiment binaries are exp_*: {name}"
        );
        assert!(!what.is_empty(), "{name} needs a description");
    }
}
