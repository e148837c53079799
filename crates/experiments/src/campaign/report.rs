//! Artifact generation: the machine-readable `summary.json` and the
//! auto-generated `EXPERIMENTS.md` report of a campaign run.

use profirt_base::json::{self, Value};

use super::exec::{fmt_metric, CampaignOutcome};

/// Builds the `summary.json` document for a finished campaign.
pub fn summary_json(outcome: &CampaignOutcome) -> Value {
    let units = outcome
        .plan
        .units
        .iter()
        .enumerate()
        .zip(outcome.rows.iter().zip(&outcome.unit_micros))
        .map(|((i, unit), (row, &micros))| {
            let axes = Value::Object(
                unit.point
                    .iter()
                    .map(|(name, v)| {
                        (
                            name,
                            match v {
                                super::spec::AxisValue::Int(n) => Value::Int(*n),
                                super::spec::AxisValue::Float(f) => Value::Float(*f),
                                super::spec::AxisValue::Str(s) => Value::Str(s.clone()),
                            },
                        )
                    })
                    .collect(),
            );
            let metrics = Value::Object(
                outcome
                    .metrics
                    .iter()
                    .zip(row)
                    .map(|(name, &x)| {
                        let v = if x.is_nan() {
                            Value::Null
                        } else {
                            Value::Float(x)
                        };
                        (name, v)
                    })
                    .collect(),
            );
            let iters = outcome.fixpoint_iters[i];
            json::object([
                ("id", Value::Str(unit.id.clone())),
                ("axes", axes),
                ("metrics", metrics),
                (
                    "fixpoint_iters",
                    if iters.is_nan() {
                        Value::Null
                    } else {
                        Value::Float(iters)
                    },
                ),
                ("warm_hit", Value::Float(outcome.warm_hits[i])),
                (
                    "error",
                    match &outcome.unit_errors[i] {
                        Some(e) => Value::Str(e.clone()),
                        None => Value::Null,
                    },
                ),
                ("unit_micros", Value::Float(micros)),
            ])
        })
        .collect();
    json::object([
        ("name", Value::Str(outcome.spec.name.clone())),
        ("description", Value::Str(outcome.spec.description.clone())),
        ("kind", Value::Str(outcome.spec.kind.name().to_string())),
        ("replications", Value::Int(outcome.spec.replications as i64)),
        ("seed", Value::Int(outcome.spec.seed as i64)),
        ("sim_horizon", Value::Int(outcome.spec.sim_horizon)),
        ("unit_count", Value::Int(outcome.plan.units.len() as i64)),
        (
            "metric_names",
            Value::Array(
                outcome
                    .metrics
                    .iter()
                    .map(|m| Value::Str(m.to_string()))
                    .collect(),
            ),
        ),
        (
            "timing",
            json::object([
                ("total_wall_secs", Value::Float(outcome.total_wall_secs)),
                ("units_per_sec", Value::Float(outcome.units_per_sec())),
                ("warm_hit_rate", Value::Float(outcome.warm_hit_rate())),
                (
                    "fixpoint_iters",
                    Value::Float(outcome.total_fixpoint_iters()),
                ),
            ]),
        ),
        ("units", Value::Array(units)),
    ])
}

/// Renders the human-readable `EXPERIMENTS.md` report.
pub fn experiments_md(outcome: &CampaignOutcome) -> String {
    let spec = &outcome.spec;
    let mut md = String::new();
    md.push_str(&format!("# Campaign `{}`\n\n", spec.name));
    if !spec.description.is_empty() {
        md.push_str(&format!("{}\n\n", spec.description));
    }
    md.push_str(&format!(
        "Scenario kind **{}** · {} work unit(s) · {} replication(s)/unit · base seed `{:#x}` · {}\n\n",
        spec.kind.name(),
        outcome.plan.units.len(),
        spec.replications,
        spec.seed,
        if spec.sim_horizon > 0 {
            format!("simulation horizon {} ticks", spec.sim_horizon)
        } else {
            "analysis only (no simulation)".to_string()
        }
    ));

    md.push_str("## Matrix\n\n| axis | values |\n|---|---|\n");
    for axis in &spec.axes {
        let values: Vec<String> = axis.values.iter().map(|v| format!("`{v}`")).collect();
        md.push_str(&format!("| `{}` | {} |\n", axis.name, values.join(", ")));
    }
    md.push('\n');

    md.push_str("## Results\n\n");
    // Header: unit, axes, metrics.
    let mut headers: Vec<String> = vec!["unit".into()];
    headers.extend(spec.axes.iter().map(|a| a.name.clone()));
    headers.extend(outcome.metrics.iter().map(|m| m.to_string()));
    md.push_str(&format!("| {} |\n", headers.join(" | ")));
    md.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for (unit, row) in outcome.plan.units.iter().zip(&outcome.rows) {
        let mut cells: Vec<String> = vec![format!("`{}`", unit.id)];
        cells.extend(unit.point.iter().map(|(_, v)| v.to_string()));
        cells.extend(row.iter().map(|&x| fmt_metric(x)));
        md.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    md.push('\n');

    if spec.sim_horizon > 0 {
        md.push_str(
            "## Validation contract\n\n\
             Simulation columns are checked against the analytical bounds: \
             `sim_worst_ratio` is the largest observed/bound response-time \
             ratio over schedulable streams and must stay ≤ 1, and \
             `sim_violations` counts streams whose observed maximum exceeded \
             the bound (must be 0 for the sound analyses; the paper-literal \
             variants are *expected* to violate occasionally — that optimism \
             is the finding, see ARCHITECTURE.md).\n\n",
        );
    }

    md.push_str("## Artifacts\n\n");
    md.push_str(
        "* `campaign.json` — the executed spec (re-runnable via `profirt campaign run`).\n\
         * `units.csv` — one row per work unit (this table, machine-readable).\n\
         * `summary.json` — spec + per-unit rows as one JSON document.\n",
    );
    md.push_str("\n*Generated by `profirt-experiments::campaign`.*\n");
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::exec::run_campaign;
    use crate::campaign::spec::{CampaignSpec, ScenarioKind};

    #[test]
    fn report_contains_matrix_results_and_artifacts() {
        let spec = CampaignSpec::new("report-test", "report smoke", ScenarioKind::Cpu)
            .replications(2)
            .axis_f64("utilization", &[0.5])
            .axis_str("policy", &["rm-ll", "rm-rta"]);
        let root = std::env::temp_dir().join("profirt-report-test");
        let _ = std::fs::remove_dir_all(&root);
        let outcome = run_campaign(&spec, &root).unwrap();
        let md = experiments_md(&outcome);
        assert!(md.contains("# Campaign `report-test`"));
        assert!(md.contains("| `policy` | `rm-ll`, `rm-rta` |"));
        assert!(md.contains("accept_ratio"));
        assert!(md.contains("`units.csv`"));

        let summary = summary_json(&outcome);
        assert_eq!(summary.get("unit_count").and_then(Value::as_i64), Some(2));
        let units = summary.get("units").and_then(Value::as_array).unwrap();
        assert_eq!(units.len(), 2);
        assert!(units[0]
            .get("metrics")
            .unwrap()
            .get("accept_ratio")
            .is_some());
        std::fs::remove_dir_all(&root).ok();
    }
}
