//! End-to-end tests of the `profirt` command-line binary.

use std::process::Command;

use profirt::base::json;

fn profirt(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_profirt"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_config(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("profirt-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn example_config_round_trips_through_analyze() {
    let (ok, stdout, _) = profirt(&["example-config"]);
    assert!(ok);
    let path = write_config("example.json", &stdout);
    let (ok, stdout, stderr) = profirt(&["analyze", path.to_str().unwrap(), "--policy", "all"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("FCFS (eq. 11)"));
    assert!(stdout.contains("DM conservative"));
    assert!(stdout.contains("EDF (eqs. 17-18)"));
}

#[test]
fn ttr_subcommand_reports_feasible_setting() {
    let (_, example, _) = profirt(&["example-config"]);
    let path = write_config("ttr.json", &example);
    let (ok, stdout, _) = profirt(&["ttr", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("largest FCFS-feasible TTR"));
    let (ok, stdout, _) = profirt(&["ttr", path.to_str().unwrap(), "--model", "refined"]);
    assert!(ok);
    assert!(stdout.contains("Refined"));
}

#[test]
fn simulate_subcommand_validates_bounds() {
    let (_, example, _) = profirt(&["example-config"]);
    let path = write_config("sim.json", &example);
    let (ok, stdout, stderr) = profirt(&[
        "simulate",
        path.to_str().unwrap(),
        "--horizon",
        "1000000",
        "--seed",
        "7",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("all observations within analytical bounds"));
}

#[test]
fn criticality_mix_arms_the_mode_controller() {
    let (_, example, _) = profirt(&["example-config"]);
    let path = write_config("mc.json", &example);
    // The flag labels streams and arms the controller: the mode summary
    // line appears and bound exceedances (if any) become a note, since a
    // mode-enabled run is no longer the static §3.1 ring.
    let (ok, stdout, stderr) = profirt(&[
        "simulate",
        path.to_str().unwrap(),
        "--horizon",
        "1000000",
        "--criticality-mix",
        "mixed",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mode:"), "stdout: {stdout}");
    // all-hi is the identity: no mode line, byte-identical to the flagless run.
    let (ok, allhi, _) = profirt(&[
        "simulate",
        path.to_str().unwrap(),
        "--horizon",
        "1000000",
        "--criticality-mix",
        "all-hi",
    ]);
    assert!(ok);
    assert!(!allhi.contains("mode:"));
    let (ok, flagless, _) = profirt(&["simulate", path.to_str().unwrap(), "--horizon", "1000000"]);
    assert!(ok);
    assert_eq!(allhi, flagless);

    let (ok, _, stderr) = profirt(&[
        "simulate",
        path.to_str().unwrap(),
        "--criticality-mix",
        "sometimes",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --criticality-mix"), "stderr: {stderr}");
}

#[test]
fn config_file_criticality_yields_two_verdicts() {
    let cfg = write_config(
        "mixed.json",
        r#"{"ttr": 2000, "masters": [
            {"streams": [
                {"ch": 10, "d": 4000, "t": 4000},
                {"ch": 10, "d": 4000, "t": 4000, "criticality": "lo"}
            ]},
            {"streams": [{"ch": 10, "d": 4000, "t": 4000}]}
        ]}"#,
    );
    let (ok, stdout, stderr) = profirt(&["analyze", cfg.to_str().unwrap(), "--policy", "fcfs"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("[LO mode, stable phases]"), "{stdout}");
    assert!(stdout.contains("[HI mode, any disturbance]"), "{stdout}");

    let bad = write_config(
        "badcrit.json",
        r#"{"ttr": 2000, "masters": [{"streams": [
            {"ch": 10, "d": 4000, "t": 4000, "criticality": "urgent"}
        ]}]}"#,
    );
    let (ok, _, stderr) = profirt(&["analyze", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("criticality"), "stderr: {stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = profirt(&["analyze", "/nonexistent/x.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));

    let path = write_config("bad.json", "{ not json");
    let (ok, _, stderr) = profirt(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("cannot parse"));

    let empty = write_config("empty.json", r#"{"ttr": 100, "masters": []}"#);
    let (ok, _, stderr) = profirt(&["analyze", empty.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("at least one master"));

    let (ok, _, stderr) = profirt(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));

    let badpol = write_config(
        "badpol.json",
        r#"{"ttr": 100, "masters": [{"policy": "magic",
            "streams": [{"ch": 10, "d": 100, "t": 100}]}]}"#,
    );
    let (ok, _, stderr) = profirt(&["analyze", badpol.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"));
}

#[test]
fn campaign_horizon_override() {
    let out = std::env::temp_dir().join("profirt-cli-horizon");
    let _ = std::fs::remove_dir_all(&out);
    // A simulated preset accepts the override: the campaign.json artifact
    // echoes the overridden horizon.
    let (ok, stdout, stderr) = profirt(&[
        "campaign",
        "run",
        "t5",
        "--quick",
        "--horizon",
        "150000",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let echoed = std::fs::read_to_string(out.join("t5").join("campaign.json")).unwrap();
    assert!(echoed.contains("150000"), "{echoed}");
    std::fs::remove_dir_all(&out).ok();

    // Analysis-only specs reject it.
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/campaign_smoke.json");
    let (ok, _, stderr) = profirt(&["campaign", "run", smoke, "--horizon", "1000"]);
    assert!(!ok);
    assert!(stderr.contains("analysis-only"), "stderr: {stderr}");

    // Garbage values fail cleanly.
    let (ok, _, stderr) = profirt(&["campaign", "run", "t5", "--horizon", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("bad --horizon"), "stderr: {stderr}");
}

#[test]
fn campaign_run_prints_shape_verdicts_for_presets_only() {
    let out = std::env::temp_dir().join("profirt-cli-shape");
    let _ = std::fs::remove_dir_all(&out);
    let out_arg = out.to_str().unwrap();
    // A paper preset prints its claims after the CONTRACT/artifact lines.
    let (ok, stdout, stderr) = profirt(&["campaign", "run", "f1", "--quick", "--out", out_arg]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let shapes: Vec<&str> = stdout.lines().filter(|l| l.starts_with("SHAPE")).collect();
    assert_eq!(shapes.len(), 3, "{stdout}");
    assert!(
        shapes.iter().all(|l| l.starts_with("SHAPE [PASS] ")),
        "{stdout}"
    );
    // A spec file makes no claims.
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/campaign_smoke.json");
    let (ok, stdout, stderr) = profirt(&["campaign", "run", smoke, "--out", out_arg]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(!stdout.contains("SHAPE"), "{stdout}");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn sample_config_in_repo_is_valid() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/sample_network.json");
    let (ok, stdout, stderr) = profirt(&["analyze", path, "--policy", "dm"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("streams schedulable"));
}

#[test]
fn oversized_ttr_is_a_load_error_not_a_panic() {
    // 10 x TTR, the low-priority cadence, overflows i64 for TTR = 2^62.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/sample_network.json");
    let sample = std::fs::read_to_string(path).unwrap();
    let huge = sample.replacen("\"ttr\": 2000", "\"ttr\": 4611686018427387904", 1);
    assert_ne!(huge, sample, "the sample config's TTR moved");
    let cfg = write_config("huge_ttr.json", &huge);
    let (ok, _, stderr) = profirt(&["analyze", cfg.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("10 x TTR overflows"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn overflowing_simulation_clock_is_an_error_not_a_hang() {
    // The ring cost token_pass x masters (2 x 2^62) overflows i64: the
    // kernel's clock would wrap and the run would never reach its horizon.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/sample_network.json");
    let sample = std::fs::read_to_string(path).unwrap();
    let huge = sample.replacen(
        "\"token_pass\": 166",
        "\"token_pass\": 4611686018427387904",
        1,
    );
    assert_ne!(huge, sample, "the sample config's token_pass moved");
    let cfg = write_config("huge_token_pass.json", &huge);
    let (ok, _, stderr) = profirt(&[
        "simulate",
        cfg.to_str().unwrap(),
        "--horizon",
        "9000000000000000000",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("ring cost token_pass x masters overflows"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // A horizon within one visit of i64::MAX overflows the step past it.
    let (ok, _, stderr) = profirt(&["simulate", path, "--horizon", "9223372036854775800"]);
    assert!(!ok);
    assert!(
        stderr.contains("horizon plus one token visit's worst step overflows"),
        "stderr: {stderr}"
    );
}

#[test]
fn releases_past_the_tick_range_stop_the_source() {
    // The second arrival (5e18) lies within the horizon; the third would be
    // at 1e19, past i64::MAX, and the second's absolute deadline too. Both
    // once wrapped to negative times: 9 completions, 5 misses and a response
    // time near 8.4e18 against a bound of 1266.
    let cfg = write_config(
        "huge_period.json",
        r#"{"ttr": 1000, "masters": [{"cl": 0, "streams": [{"ch": 100, "d": 5000000000000000000, "t": 5000000000000000000}]}]}"#,
    );
    let (ok, stdout, stderr) = profirt(&[
        "simulate",
        cfg.to_str().unwrap(),
        "--horizon",
        "8000000000000000000",
    ]);
    assert!(ok, "stderr: {stderr}");
    let row: Vec<&str> = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("M0/S0"))
        .expect("a row for the stream")
        .split_whitespace()
        .collect();
    // stream, completed, max resp, misses, policy, bound, ok
    assert_eq!(row[1], "2", "completions: {stdout}");
    assert_eq!(row[3], "0", "misses: {stdout}");
    assert_eq!(row[6], "yes", "{stdout}");
    assert!(stdout.contains("all observations within analytical bounds"));
}

/// One malformed network per error class. `crates/serve/tests/prop_proto.rs`
/// reads the same table: serve answers each with the listed `kind` and
/// `detail`, and the CLI fails to load it with the same detail.
const MALFORMED: &str = include_str!("data/malformed_networks.json");

#[test]
fn malformed_networks_are_load_errors_with_serves_detail() {
    let table = json::parse(MALFORMED).unwrap();
    for (i, row) in table.as_array().unwrap().iter().enumerate() {
        let case = row.get("case").and_then(json::Value::as_str).unwrap();
        let detail = row.get("detail").and_then(json::Value::as_str).unwrap();
        let cfg = write_config(
            &format!("malformed_{i}.json"),
            &row.get("net").unwrap().pretty(),
        );
        let want = format!("invalid network in {}: {detail}", cfg.display());
        for cmd in ["analyze", "ttr", "simulate"] {
            let (ok, _, stderr) = profirt(&[cmd, cfg.to_str().unwrap()]);
            assert!(!ok, "{case}: {cmd} accepted it");
            assert!(stderr.contains(&want), "{case}: {cmd}: {stderr}");
        }
    }
}

#[test]
fn negative_token_pass_is_a_load_error() {
    // `simulate` used to clamp this pass to 1 tick, and its analytical
    // bounds went below the observed responses ("an observation exceeded
    // its analytical bound").
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/sample_network.json");
    let sample = std::fs::read_to_string(path).unwrap();
    let negative = sample.replacen("\"token_pass\": 166", "\"token_pass\": -1000", 1);
    assert_ne!(negative, sample, "the sample config's token_pass moved");
    let cfg = write_config("negative_token_pass.json", &negative);
    let (ok, stdout, stderr) = profirt(&["simulate", cfg.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("field \"token_pass\" must be non-negative, got -1000"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_master_without_streams_still_holds_the_token() {
    // Master 0 sends no high-priority traffic, but its Cl = 500 still
    // counts in Tdel = 500 + 800.
    let cfg = write_config(
        "streamless_master.json",
        r#"{"ttr": 2000, "masters": [
            {"cl": 500, "streams": []},
            {"cl": 0, "streams": [{"ch": 800, "d": 30000, "t": 40000}]}
        ]}"#,
    );
    let cfg = cfg.to_str().unwrap();
    let (ok, stdout, stderr) = profirt(&["analyze", cfg, "--policy", "all"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Tcycle = 3632 (Tdel = 1300), 1/1 streams schedulable"));
    let (ok, stdout, stderr) = profirt(&["ttr", cfg]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("largest FCFS-feasible TTR"), "{stdout}");
    let (ok, stdout, stderr) = profirt(&["simulate", cfg, "--horizon", "1000000"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("all observations within analytical bounds"));
}
