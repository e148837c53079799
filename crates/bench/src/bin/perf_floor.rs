//! Advisory perf floor over the `BENCH_analysis.json` and
//! `BENCH_sim.json` baselines.
//!
//! Reads the artifact the `analysis_fast` bench writes
//! (`BENCH_analysis.json`, found where the bench puts it — see
//! `profirt_base::artifact`) and warns — exit code 1 — when either
//! batch-analysis headline slips:
//!
//! * the `warm_sweep_chain64_vs_cold` speedup drops below
//!   [`WARM_SWEEP_FLOOR`] (the warm chain should stay at least 2x the
//!   per-call cold walk), or
//! * the campaign `warm_units_per_sec` regresses more than
//!   [`REGRESSION_TOLERANCE`] below [`CAMPAIGN_UNITS_PER_SEC_REFERENCE`]
//!   (a committed reference measurement; absolute throughput is
//!   machine-relative, which is one reason the CI step is advisory).
//!
//! It then reads the artifact the `sim_kernel` bench writes
//! (`BENCH_sim.json`, found the same way) and applies the idle
//! fast-forward floors:
//!
//! * the sparse fixture's `ffwd_speedup` must stay at least
//!   [`SPARSE_FFWD_FLOOR`] (the O(1) idle-span skip measures two orders
//!   of magnitude on that fixture; below 5x it has effectively stopped
//!   engaging), and
//! * the dense fixture's `ffwd_speedup` must not fall below
//!   `1 / (1 + REGRESSION_TOLERANCE)` — the fast-forward bookkeeping is
//!   a streak counter on the hot loop and must stay within noise when it
//!   never fires.
//!
//! A missing or unparseable artifact, or one written by a smoke run
//! (`smoke_run: true` — throughput of a smoke fixture is meaningless),
//! exits 2 so CI logs distinguish "floor tripped" from "nothing to
//! check". Success prints the checked numbers and exits 0.
//!
//! The CI step running this is `continue-on-error: true` by design: the
//! floor flags a perf regression for a human to look at; it must not
//! block an otherwise-green build on a noisy shared runner.

use profirt_base::artifact;
use profirt_base::json::{self, Value};

/// Minimum acceptable warm-sweep speedup (warm chain vs per-call cold).
const WARM_SWEEP_FLOOR: f64 = 2.0;

/// Committed reference for the warm campaign's evaluation throughput,
/// measured on the fixture of `analysis_fast::campaign_spec` (256 units,
/// one worker). Re-measure and update when the fixture changes.
const CAMPAIGN_UNITS_PER_SEC_REFERENCE: f64 = 230_000.0;

/// Fractional regression against the reference that trips the warning.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Minimum acceptable `ffwd_speedup` on the sparse sim fixture.
const SPARSE_FFWD_FLOOR: f64 = 5.0;

fn fail_setup(msg: &str) -> ! {
    eprintln!("perf_floor: {msg}");
    std::process::exit(2);
}

/// Loads a bench artifact, refusing smoke-run data (exit 2).
fn load_artifact(path: &str, bench_hint: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail_setup(&format!(
            "cannot read {path}: {e} (run `cargo bench -p profirt_bench --bench {bench_hint}` first)"
        )),
    };
    let doc = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => fail_setup(&format!("cannot parse {path}: {e}")),
    };
    if doc.get("smoke_run").and_then(Value::as_bool) != Some(false) {
        fail_setup(&format!(
            "{path} was written by a smoke run; throughput floors only apply to full runs"
        ));
    }
    doc
}

/// The `ffwd_speedup` recorded for one sim fixture.
fn ffwd_speedup(doc: &Value, path: &str, fixture: &str) -> f64 {
    doc.get("fixtures")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("fixture").and_then(Value::as_str) == Some(fixture))
        })
        .and_then(|r| r.get("ffwd_speedup"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| fail_setup(&format!("{path} has no {fixture} ffwd_speedup")))
}

fn main() {
    let path = artifact::bench_json_path("BENCH_ANALYSIS_JSON", "BENCH_analysis.json")
        .display()
        .to_string();
    let doc = load_artifact(&path, "analysis_fast");

    let warm_sweep = doc
        .get("comparisons")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter().find(|r| {
                r.get("comparison").and_then(Value::as_str) == Some("warm_sweep_chain64_vs_cold")
            })
        })
        .and_then(|r| r.get("speedup"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| fail_setup(&format!("{path} has no warm_sweep_chain64_vs_cold row")));
    let campaign_ups = doc
        .get("campaign")
        .and_then(|c| c.get("warm_units_per_sec"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| fail_setup(&format!("{path} has no campaign.warm_units_per_sec")));

    let sim_path = artifact::bench_json_path("BENCH_SIM_JSON", "BENCH_sim.json")
        .display()
        .to_string();
    let sim_doc = load_artifact(&sim_path, "sim_kernel");
    let sparse_ffwd = ffwd_speedup(&sim_doc, &sim_path, "sparse_long_horizon");
    let dense_ffwd = ffwd_speedup(&sim_doc, &sim_path, "dense_long_horizon");

    let ups_floor = CAMPAIGN_UNITS_PER_SEC_REFERENCE * (1.0 - REGRESSION_TOLERANCE);
    let dense_floor = 1.0 / (1.0 + REGRESSION_TOLERANCE);
    let mut tripped = false;
    if warm_sweep < WARM_SWEEP_FLOOR {
        eprintln!(
            "perf_floor: WARN warm-sweep speedup {warm_sweep:.2}x is below the {WARM_SWEEP_FLOOR:.1}x floor"
        );
        tripped = true;
    }
    if campaign_ups < ups_floor {
        eprintln!(
            "perf_floor: WARN campaign warm throughput {campaign_ups:.0} units/s regressed \
             more than {:.0}% below the committed reference {CAMPAIGN_UNITS_PER_SEC_REFERENCE:.0} \
             units/s (floor {ups_floor:.0})",
            REGRESSION_TOLERANCE * 100.0
        );
        tripped = true;
    }
    if sparse_ffwd < SPARSE_FFWD_FLOOR {
        eprintln!(
            "perf_floor: WARN sparse-fixture fast-forward speedup {sparse_ffwd:.2}x is below \
             the {SPARSE_FFWD_FLOOR:.1}x floor — the idle-span skip has stopped engaging"
        );
        tripped = true;
    }
    if dense_ffwd < dense_floor {
        eprintln!(
            "perf_floor: WARN dense-fixture fast-forward ratio {dense_ffwd:.2}x is below \
             {dense_floor:.2}x — the skip bookkeeping slowed the busy per-visit loop \
             by more than {:.0}%",
            REGRESSION_TOLERANCE * 100.0
        );
        tripped = true;
    }
    if tripped {
        std::process::exit(1);
    }
    println!(
        "perf_floor: ok (warm-sweep {warm_sweep:.2}x >= {WARM_SWEEP_FLOOR:.1}x, campaign \
         {campaign_ups:.0} units/s >= {ups_floor:.0} units/s, sparse ffwd {sparse_ffwd:.1}x \
         >= {SPARSE_FFWD_FLOOR:.1}x, dense ffwd {dense_ffwd:.2}x >= {dense_floor:.2}x)"
    );
}
