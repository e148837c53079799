//! Integration tests for the harness itself: shape verdicts decide the
//! run, CSVs round-trip, the parallel runner is worker-count independent,
//! and paper presets run end to end, deterministically.

use profirt_experiments::campaign::{presets, run_campaign, CampaignOutcome, CampaignSpec};
use profirt_experiments::csvout::write_table;
use profirt_experiments::runner::try_par_map_seeds;
use profirt_experiments::shape::verdict;
use profirt_experiments::{ShapeCheck, Table};

/// Runs `spec` into a fresh `profirt-harness-<tag>` temp root.
fn run_fresh(spec: &CampaignSpec, tag: &str) -> (CampaignOutcome, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("profirt-harness-{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    (run_campaign(spec, &root).unwrap(), root)
}

#[test]
fn report_exit_semantics() {
    // A spec file makes no claims: the run succeeds.
    assert!(verdict(&[]).is_ok());
    let ok = [ShapeCheck::new("always true", true, "detail".into())];
    assert!(verdict(&ok).is_ok());
    let bad = [
        ShapeCheck::new("true", true, String::new()),
        ShapeCheck::new("false", false, String::new()),
    ];
    let err = verdict(&bad).unwrap_err();
    assert!(err.contains("false"), "{err}");
}

#[test]
fn table_csv_round_trip_preserves_cells() {
    let dir = std::env::temp_dir().join("profirt-harness-test");
    let mut t = Table::new("round trip", &["k", "v"]);
    for i in 0..10 {
        t.row(vec![format!("key{i}"), format!("value,{i}")]);
    }
    let path = write_table(&dir, "rt", &t).unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 11); // header + 10 rows
    assert_eq!(lines[0], "k,v");
    assert!(lines[1].contains("\"value,0\"")); // comma escaped
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runner_scales_with_worker_counts() {
    for workers in [1usize, 2, 8, 64] {
        let out = try_par_map_seeds(32, workers, |seed| seed * seed).unwrap();
        assert_eq!(out, (0..32).map(|s| s * s).collect::<Vec<_>>());
    }
}

#[test]
fn quick_config_runs_a_real_experiment_end_to_end() {
    // The cheapest paper preset (F3 is pure analysis) as an end-to-end
    // smoke test of the harness plumbing: rows, artifacts and verdict.
    let spec = presets::f3().quick();
    let (outcome, root) = run_fresh(&spec, "f3-quick");
    assert_eq!(outcome.rows.len(), spec.unit_count());
    assert!(outcome.unit_errors.iter().all(Option::is_none));
    assert!(!outcome.artifacts.is_empty());
    assert!(
        outcome.artifacts.iter().all(|a| a.exists()),
        "{:?}",
        outcome.artifacts
    );
    let units = std::fs::read_to_string(outcome.out_dir.join("units.csv")).unwrap();
    assert_eq!(units.lines().count(), spec.unit_count() + 1); // header + units
    assert!(verdict(&presets::shape_checks(&outcome)).is_ok());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn experiment_reports_are_deterministic() {
    let mut spec = presets::f2().quick();
    spec.replications = 6;
    let (a, root_a) = run_fresh(&spec, "det-a");
    let (b, root_b) = run_fresh(&spec, "det-b");
    // Same rows cell-for-cell (a NaN cell is NaN in both runs).
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        for (x, y) in ra.iter().zip(rb) {
            assert!((x.is_nan() && y.is_nan()) || x == y, "{ra:?} vs {rb:?}");
        }
    }
    std::fs::remove_dir_all(&root_a).ok();
    std::fs::remove_dir_all(&root_b).ok();
}
