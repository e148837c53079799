//! The `profirt campaign` subcommand: declarative scenario-matrix runs.
//!
//! ```text
//! profirt campaign run <spec.json|preset> [--quick] [--horizon TICKS] [--out DIR]
//! profirt campaign list
//! profirt campaign describe <spec.json|preset>
//! ```
//!
//! A spec argument is resolved as a file path first and as a preset name
//! (`f1`…`f6`, `t1`…`t8`) second, so `profirt campaign run t8 --quick`
//! re-runs the paper's validation experiment and
//! `profirt campaign run configs/campaign_smoke.json` runs a custom
//! matrix. Artifacts land under `<out>/<campaign name>/`.
//!
//! A run resolved to a paper preset also prints the preset's
//! `SHAPE [PASS|FAIL] <claim> — <detail>` verdicts after the `CONTRACT`
//! line; a failing shape check fails the run just as a broken contract
//! does. A spec file makes no shape claims.

use std::path::Path;

use profirt::experiments::campaign::{
    plan, presets, print_outcome, run_campaign, CampaignOutcome, CampaignSpec,
};
use profirt::experiments::shape;

/// Resolves a spec argument: existing file path, then preset name. The
/// flag is `true` for a preset.
fn resolve(arg: &str) -> Result<(CampaignSpec, bool), String> {
    let path = Path::new(arg);
    if path.exists() {
        return CampaignSpec::load(path)
            .map(|spec| (spec, false))
            .map_err(|e| e.to_string());
    }
    presets::preset(arg)
        .map(|spec| (spec, true))
        .ok_or_else(|| {
            format!("{arg:?} is neither a spec file nor a preset (try `profirt campaign list`)")
        })
}

/// `profirt campaign run`.
///
/// `horizon` overrides the spec's `sim_horizon` (applied after any
/// `--quick` scaling) — the streaming simulation kernel makes horizons
/// orders of magnitude beyond the preset defaults affordable, so long
/// validation sweeps are one flag, not a spec edit.
pub fn run(arg: &str, quick: bool, horizon: Option<i64>, out_root: &str) -> Result<(), String> {
    let (mut spec, is_preset) = resolve(arg)?;
    if quick {
        spec = spec.quick();
    }
    if let Some(h) = horizon {
        if spec.sim_horizon == 0 {
            return Err(format!(
                "--horizon is meaningless for analysis-only campaign {:?} (sim_horizon = 0)",
                spec.name
            ));
        }
        spec = spec.sim_horizon(h);
    }
    let outcome = run_campaign(&spec, Path::new(out_root)).map_err(|e| e.to_string())?;
    report(&outcome, is_preset)
}

/// Prints the outcome, then — for a preset — its shape verdicts, and
/// turns a broken contract or a failed shape check into the run's error.
fn report(outcome: &CampaignOutcome, is_preset: bool) -> Result<(), String> {
    let contract_broken = print_outcome(outcome) != 0;
    let checks = if is_preset {
        presets::shape_checks(outcome)
    } else {
        Vec::new()
    };
    for check in &checks {
        println!("{check}");
    }
    if contract_broken {
        return Err(
            "a sound analysis broke the observed <= analytical contract (see CONTRACT lines)"
                .into(),
        );
    }
    shape::verdict(&checks)
}

/// `profirt campaign list`.
pub fn list() -> Result<(), String> {
    println!("campaign presets (run with `profirt campaign run <name>`):\n");
    for spec in presets::all() {
        println!(
            "  {:<4} {:>4} units x {:>3} reps  {:<8} {}",
            spec.name,
            spec.unit_count(),
            spec.replications,
            spec.kind.name(),
            spec.description
        );
    }
    println!(
        "\ncustom matrices: `profirt campaign run <spec.json>` (see configs/campaign_smoke.json)"
    );
    Ok(())
}

/// `profirt campaign describe`.
pub fn describe(arg: &str) -> Result<(), String> {
    let (spec, _) = resolve(arg)?;
    let plan = plan(&spec).map_err(|e| e.to_string())?;
    println!("{}", spec.to_json().pretty());
    println!(
        "\nexpands to {} work unit(s) x {} replication(s):",
        plan.units.len(),
        spec.replications
    );
    for unit in &plan.units {
        println!("  {}", unit.id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt::experiments::campaign::eval::metric_names;

    /// An `f1` outcome in which every policy accepts everything except
    /// DM at the loosest tightness, which accepts nothing.
    fn fcfs_beats_dm() -> CampaignOutcome {
        let spec = presets::f1().quick();
        let plan = plan(&spec).unwrap();
        let metrics = metric_names(spec.kind).to_vec();
        let col = metrics.iter().position(|m| *m == "sched_ratio").unwrap();
        let rows = plan
            .units
            .iter()
            .map(|unit| {
                let mut row = vec![f64::NAN; metrics.len()];
                let beaten =
                    unit.get_str("policy", "") == "dm" && unit.get_f64("tightness", 0.0) == 1.0;
                row[col] = if beaten { 0.0 } else { 1.0 };
                row
            })
            .collect();
        let n = plan.units.len();
        CampaignOutcome {
            out_dir: std::env::temp_dir()
                .join("profirt-shape-fail")
                .join(&spec.name),
            spec,
            plan,
            metrics,
            rows,
            unit_micros: vec![0.0; n],
            fixpoint_iters: vec![f64::NAN; n],
            warm_hits: vec![0.0; n],
            unit_errors: vec![None; n],
            total_wall_secs: 0.0,
            artifacts: Vec::new(),
        }
    }

    #[test]
    fn violated_shape_claim_fails_the_run() {
        let outcome = fcfs_beats_dm();
        let checks = presets::shape_checks(&outcome);
        let failed: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
        assert!(
            failed
                .iter()
                .any(|c| c.claim.starts_with("DM and EDF acceptance >= FCFS")),
            "{checks:?}"
        );
        assert!(failed[0].to_string().starts_with("SHAPE [FAIL] "));
        let err = report(&outcome, true).unwrap_err();
        assert!(err.contains("SHAPE"), "{err}");
        // The same outcome from a spec file makes no claims.
        assert!(report(&outcome, false).is_ok());
    }
}
