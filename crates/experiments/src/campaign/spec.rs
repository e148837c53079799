//! The declarative campaign model.
//!
//! A [`CampaignSpec`] names a scenario matrix: a [`ScenarioKind`] selecting
//! the evaluator (PROFIBUS network or single-CPU task set), execution
//! parameters (replications, base seed, simulation horizon, worker count),
//! and a list of [`Axis`] value lists whose cross-product the planner
//! expands into work units. Specs parse from and serialise to JSON through
//! [`profirt_base::json`] — the same hand-rolled parser the CLI config
//! files use.

use profirt_base::json::{self, Value};
use profirt_core::PolicyKind;

use super::CampaignError;

/// Which evaluator interprets the matrix points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioKind {
    /// PROFIBUS network scenarios (§3–§4): axes over network size,
    /// stream-set shape, deadline tightness, `TTR` and queue policy.
    Network,
    /// Single-processor task-set scenarios (§2): axes over task count,
    /// utilisation, deadline fraction and scheduling test.
    Cpu,
}

impl ScenarioKind {
    /// The JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Network => "network",
            ScenarioKind::Cpu => "cpu",
        }
    }

    /// Parses the JSON spelling.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        match s {
            "network" => Some(ScenarioKind::Network),
            "cpu" => Some(ScenarioKind::Cpu),
            _ => None,
        }
    }

    /// The axis names this kind's evaluator understands.
    pub fn supported_axes(self) -> &'static [&'static str] {
        match self {
            ScenarioKind::Network => &[
                "masters",
                "streams",
                "tightness",
                "criticality",
                "ttr",
                "policy",
                "gap_factor",
                "churn",
            ],
            ScenarioKind::Cpu => &[
                "tasks",
                "utilization",
                "deadline_frac",
                "period_spread",
                "policy",
            ],
        }
    }
}

/// The CPU-side policy/test names (the network side uses
/// [`PolicyKind::parse`] names).
pub const CPU_POLICIES: [&str; 12] = [
    "rm-ll",
    "rm-hb",
    "rm-rta",
    "dm-rta",
    "np-dm",
    "edf-util",
    "edf-demand",
    "edf-demand-paper",
    "np-edf-zs",
    "np-edf-george",
    "edf-rta",
    "np-edf-rta",
];

/// One coordinate value of a matrix axis.
#[derive(Clone, PartialEq, Debug)]
pub enum AxisValue {
    /// An integer coordinate (master counts, stream counts, ticks).
    Int(i64),
    /// A fractional coordinate (tightness, utilisation).
    Float(f64),
    /// A categorical coordinate (policy names).
    Str(String),
}

impl AxisValue {
    /// Integer view (accepts exactly-integral floats of safe magnitude,
    /// matching [`profirt_base::json::Value::as_i64`] — a saturating cast
    /// would silently rewrite the coordinate).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AxisValue::Int(n) => Some(*n),
            AxisValue::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Floating-point view (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AxisValue::Int(n) => Some(*n as f64),
            AxisValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AxisValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn from_json(v: &Value) -> Result<AxisValue, String> {
        match v {
            Value::Int(n) => Ok(AxisValue::Int(*n)),
            Value::Float(f) => Ok(AxisValue::Float(*f)),
            Value::Str(s) => Ok(AxisValue::Str(s.clone())),
            other => Err(format!(
                "axis values must be numbers or strings, got {other:?}"
            )),
        }
    }

    fn to_json(&self) -> Value {
        match self {
            AxisValue::Int(n) => Value::Int(*n),
            AxisValue::Float(f) => Value::Float(*f),
            AxisValue::Str(s) => Value::Str(s.clone()),
        }
    }

    /// A filesystem/ID-safe slug of the value (`0.8` → `0p8`).
    pub fn slug(&self) -> String {
        let raw = self.to_string();
        raw.chars()
            .map(|c| match c {
                '.' => 'p',
                '-' => 'm',
                c if c.is_ascii_alphanumeric() => c,
                _ => '_',
            })
            .collect()
    }
}

impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisValue::Int(n) => write!(f, "{n}"),
            AxisValue::Float(x) => write!(f, "{x}"),
            AxisValue::Str(s) => f.write_str(s),
        }
    }
}

/// One named axis of the scenario matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Axis {
    /// Axis name (must be one of the kind's supported axes).
    pub name: String,
    /// The coordinate values swept along this axis.
    pub values: Vec<AxisValue>,
}

/// A declarative experiment campaign: cross-product axes plus execution
/// parameters. See the README's campaign quickstart for the JSON schema.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name — also the artifact directory name under `out/`.
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Which evaluator interprets the matrix points.
    pub kind: ScenarioKind,
    /// Seeds evaluated per work unit.
    pub replications: u64,
    /// Base RNG seed; unit and replication indices are mixed in.
    pub seed: u64,
    /// Simulation horizon in ticks; `0` runs the analyses only.
    pub sim_horizon: i64,
    /// Worker threads for the unit shards; `0` means all available cores.
    pub workers: usize,
    /// The matrix axes, outermost first.
    pub axes: Vec<Axis>,
}

impl CampaignSpec {
    /// Creates an empty campaign with default execution parameters
    /// (50 replications, analysis-only, all cores).
    pub fn new(name: &str, description: &str, kind: ScenarioKind) -> CampaignSpec {
        CampaignSpec {
            name: name.to_string(),
            description: description.to_string(),
            kind,
            replications: 50,
            seed: 0x5EED,
            sim_horizon: 0,
            workers: 0,
            axes: Vec::new(),
        }
    }

    /// Builder: appends an axis.
    pub fn axis(mut self, name: &str, values: Vec<AxisValue>) -> CampaignSpec {
        self.axes.push(Axis {
            name: name.to_string(),
            values,
        });
        self
    }

    /// Builder: appends an integer axis.
    pub fn axis_i64(self, name: &str, values: &[i64]) -> CampaignSpec {
        self.axis(name, values.iter().map(|&v| AxisValue::Int(v)).collect())
    }

    /// Builder: appends a float axis.
    pub fn axis_f64(self, name: &str, values: &[f64]) -> CampaignSpec {
        self.axis(name, values.iter().map(|&v| AxisValue::Float(v)).collect())
    }

    /// Builder: appends a categorical axis.
    pub fn axis_str(self, name: &str, values: &[&str]) -> CampaignSpec {
        self.axis(
            name,
            values
                .iter()
                .map(|v| AxisValue::Str(v.to_string()))
                .collect(),
        )
    }

    /// Builder: sets replications.
    pub fn replications(mut self, n: u64) -> CampaignSpec {
        self.replications = n;
        self
    }

    /// Builder: sets the simulation horizon (ticks; `0` = analysis only).
    pub fn sim_horizon(mut self, horizon: i64) -> CampaignSpec {
        self.sim_horizon = horizon;
        self
    }

    /// The `--quick` scale: at most 24 replications and, for simulated
    /// campaigns, a horizon of at most 1.5M ticks; the worker count becomes
    /// the machine's available parallelism. The base seed is part of the
    /// campaign's identity and is kept.
    pub fn quick(&self) -> CampaignSpec {
        let mut spec = self.clone();
        spec.replications = spec.replications.min(24);
        if spec.sim_horizon > 0 {
            spec.sim_horizon = spec.sim_horizon.min(1_500_000);
        }
        spec.workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        spec
    }

    /// The largest matrix [`validate`](CampaignSpec::validate) accepts: a
    /// friendly error beats an allocation abort (or a product overflow)
    /// deep inside the planner.
    pub const MAX_UNITS: usize = 100_000;

    /// Number of work units the matrix expands to (product of axis sizes),
    /// saturating at `usize::MAX` for absurd matrices.
    pub fn unit_count(&self) -> usize {
        self.axes
            .iter()
            .map(|a| a.values.len())
            .try_fold(1usize, |acc, n| acc.checked_mul(n))
            .unwrap_or(usize::MAX)
    }

    /// Validates the spec: at least one axis, no duplicate or unknown axis
    /// names, no empty axes, parseable policy values, and a bounded matrix.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(CampaignError::BadSpec(format!(
                "campaign name {:?} must be non-empty [a-zA-Z0-9_-]",
                self.name
            )));
        }
        if self.axes.is_empty() {
            return Err(CampaignError::BadSpec(
                "a campaign needs at least one axis".into(),
            ));
        }
        if self.replications == 0 {
            return Err(CampaignError::BadSpec("replications must be >= 1".into()));
        }
        // The runner additionally clamps workers to the unit count; this
        // bound just rejects obviously nonsensical specs up front.
        if self.workers > 4096 {
            return Err(CampaignError::BadSpec(format!(
                "workers = {} is absurd (max 4096; 0 = all cores)",
                self.workers
            )));
        }
        if self.unit_count() > Self::MAX_UNITS {
            return Err(CampaignError::BadSpec(format!(
                "the axis cross-product expands to more than {} work units",
                Self::MAX_UNITS
            )));
        }
        let mut seen: Vec<&str> = Vec::new();
        for axis in &self.axes {
            if seen.contains(&axis.name.as_str()) {
                return Err(CampaignError::DuplicateAxis(axis.name.clone()));
            }
            seen.push(&axis.name);
            if axis.values.is_empty() {
                return Err(CampaignError::BadSpec(format!(
                    "axis {:?} has no values",
                    axis.name
                )));
            }
            if !self.kind.supported_axes().contains(&axis.name.as_str()) {
                return Err(CampaignError::UnknownAxis {
                    axis: axis.name.clone(),
                    kind: self.kind.name(),
                });
            }
            self.validate_axis_values(axis)?;
        }
        Ok(())
    }

    /// Type- and range-checks one axis's values so a bad coordinate fails
    /// up front instead of being silently evaluated at a default.
    fn validate_axis_values(&self, axis: &Axis) -> Result<(), CampaignError> {
        let bad = |v: &AxisValue, want: &str| {
            Err(CampaignError::BadSpec(format!(
                "axis {:?}: value {v:?} must be {want}",
                axis.name
            )))
        };
        for v in &axis.values {
            match axis.name.as_str() {
                "masters" | "streams" | "tasks" | "ttr" if v.as_i64().is_none_or(|n| n < 1) => {
                    return bad(v, "an integer >= 1");
                }
                "masters" | "streams" | "tasks" | "ttr" => {}
                "tightness" | "utilization" | "deadline_frac"
                    if !v.as_f64().is_some_and(|x| x > 0.0 && x <= 1.0) =>
                {
                    return bad(v, "a number in (0, 1]");
                }
                "tightness" | "utilization" | "deadline_frac" => {}
                "period_spread" if !matches!(v.as_str(), Some("standard") | Some("wide")) => {
                    return bad(v, "\"standard\" or \"wide\"");
                }
                "period_spread" => {}
                "gap_factor" if v.as_i64().is_none_or(|n| !(0..=1_000).contains(&n)) => {
                    return bad(v, "an integer in 0..=1000 (0 disables GAP polling)");
                }
                "gap_factor" => {}
                "churn" if !matches!(v.as_str(), Some("none") | Some("light") | Some("heavy")) => {
                    return bad(v, "\"none\", \"light\" or \"heavy\"");
                }
                "churn" => {}
                "criticality"
                    if v.as_str()
                        .is_none_or(|s| profirt_workload::CriticalityMix::parse(s).is_none()) =>
                {
                    return bad(v, "\"all-hi\", \"mixed\" or \"mixed3\"");
                }
                "criticality" => {}
                "policy" => {
                    let name = v.as_str().unwrap_or("");
                    let known = match self.kind {
                        ScenarioKind::Network => PolicyKind::parse(name).is_some(),
                        ScenarioKind::Cpu => CPU_POLICIES.contains(&name),
                    };
                    if !known {
                        return Err(CampaignError::BadSpec(format!(
                            "unknown {} policy {v:?}",
                            self.kind.name()
                        )));
                    }
                }
                // Unknown names were already rejected by the caller.
                _ => {}
            }
        }
        Ok(())
    }

    /// Parses a spec from a JSON document string.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, CampaignError> {
        let doc = json::parse(text).map_err(|e| CampaignError::BadSpec(e.to_string()))?;
        Self::from_json(&doc)
    }

    /// Loads and validates a spec from a file.
    pub fn load(path: &std::path::Path) -> Result<CampaignSpec, CampaignError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Io(format!("cannot read {}: {e}", path.display())))?;
        let spec = Self::from_json_str(&text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from a parsed JSON document. Unknown fields are
    /// rejected so a typoed execution parameter (`"replication"`,
    /// `"horizon"`) cannot silently run the campaign with defaults.
    pub fn from_json(doc: &Value) -> Result<CampaignSpec, CampaignError> {
        let bad = |m: String| CampaignError::BadSpec(m);
        const KNOWN: [&str; 8] = [
            "name",
            "description",
            "kind",
            "replications",
            "seed",
            "sim_horizon",
            "workers",
            "axes",
        ];
        if let Some(map) = doc.as_object() {
            for key in map.keys() {
                if !KNOWN.contains(&key) {
                    return Err(bad(format!(
                        "unknown field {key:?} (known: {})",
                        KNOWN.join(", ")
                    )));
                }
            }
        }
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field \"name\"".into()))?;
        let description = doc
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let kind_name = doc.get("kind").and_then(Value::as_str).unwrap_or("network");
        let kind = ScenarioKind::parse(kind_name)
            .ok_or_else(|| bad(format!("unknown kind {kind_name:?} (network|cpu)")))?;
        let int_field = |key: &str, default: i64| -> Result<i64, CampaignError> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_i64()
                    .ok_or_else(|| bad(format!("field {key:?} must be an integer"))),
            }
        };
        let replications = int_field("replications", 50)?;
        let seed = int_field("seed", 0x5EED)?;
        let sim_horizon = int_field("sim_horizon", 0)?;
        let workers = int_field("workers", 0)?;
        if replications < 0 || workers < 0 || sim_horizon < 0 {
            return Err(bad(
                "replications, workers and sim_horizon must be >= 0".into()
            ));
        }
        let mut axes = Vec::new();
        for entry in doc
            .get("axes")
            .ok_or_else(|| bad("missing field \"axes\"".into()))?
            .as_array()
            .ok_or_else(|| bad("field \"axes\" must be an array".into()))?
        {
            if let Some(map) = entry.as_object() {
                for key in map.keys() {
                    if key != "name" && key != "values" {
                        return Err(bad(format!(
                            "unknown axis field {key:?} (known: name, values)"
                        )));
                    }
                }
            }
            let axis_name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("each axis needs a string \"name\"".into()))?;
            let values = entry
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| bad(format!("axis {axis_name:?} needs a \"values\" array")))?
                .iter()
                .map(AxisValue::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(bad)?;
            axes.push(Axis {
                name: axis_name.to_string(),
                values,
            });
        }
        Ok(CampaignSpec {
            name: name.to_string(),
            description,
            kind,
            replications: replications as u64,
            seed: seed as u64,
            sim_horizon,
            workers: workers as usize,
            axes,
        })
    }

    /// Serialises the spec back to a JSON document.
    pub fn to_json(&self) -> Value {
        json::object([
            ("name", Value::Str(self.name.clone())),
            ("description", Value::Str(self.description.clone())),
            ("kind", Value::Str(self.kind.name().to_string())),
            ("replications", Value::Int(self.replications as i64)),
            ("seed", Value::Int(self.seed as i64)),
            ("sim_horizon", Value::Int(self.sim_horizon)),
            ("workers", Value::Int(self.workers as i64)),
            (
                "axes",
                Value::Array(
                    self.axes
                        .iter()
                        .map(|a| {
                            json::object([
                                ("name", Value::Str(a.name.clone())),
                                (
                                    "values",
                                    Value::Array(a.values.iter().map(AxisValue::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CampaignSpec {
        CampaignSpec::new("demo", "a demo", ScenarioKind::Network)
            .axis_i64("masters", &[2, 4])
            .axis_f64("tightness", &[0.8, 0.4])
            .axis_str("policy", &["fcfs", "edf"])
    }

    #[test]
    fn json_round_trip() {
        let spec = demo();
        let text = spec.to_json().pretty();
        let again = CampaignSpec::from_json_str(&text).unwrap();
        assert_eq!(spec, again);
        again.validate().unwrap();
    }

    #[test]
    fn validation_rejects_duplicates_unknowns_and_bad_policies() {
        let dup = demo().axis_i64("masters", &[8]);
        assert!(matches!(
            dup.validate(),
            Err(CampaignError::DuplicateAxis(name)) if name == "masters"
        ));

        let unknown = demo().axis_i64("warp_factor", &[9]);
        assert!(matches!(
            unknown.validate(),
            Err(CampaignError::UnknownAxis { axis, .. }) if axis == "warp_factor"
        ));

        let bad_policy =
            CampaignSpec::new("p", "", ScenarioKind::Network).axis_str("policy", &["round-robin"]);
        assert!(bad_policy.validate().is_err());

        let mut absurd_workers = demo();
        absurd_workers.workers = 1_000_000;
        assert!(absurd_workers.validate().is_err());

        // Axis values are type- and range-checked, not silently defaulted.
        let stringly =
            CampaignSpec::new("s", "", ScenarioKind::Network).axis_str("masters", &["three"]);
        assert!(stringly.validate().is_err());
        let zero = CampaignSpec::new("z", "", ScenarioKind::Network).axis_i64("masters", &[0]);
        assert!(zero.validate().is_err());
        let loose = CampaignSpec::new("l", "", ScenarioKind::Network).axis_f64("tightness", &[1.5]);
        assert!(loose.validate().is_err());
        let narrow =
            CampaignSpec::new("n", "", ScenarioKind::Cpu).axis_str("period_spread", &["narrow"]);
        assert!(narrow.validate().is_err());
        let wide =
            CampaignSpec::new("w", "", ScenarioKind::Cpu).axis_str("period_spread", &["wide"]);
        wide.validate().unwrap();

        // Out-of-range float coordinates are rejected, not saturated.
        assert_eq!(AxisValue::Float(1e19).as_i64(), None);
        let huge = CampaignSpec::new("h", "", ScenarioKind::Network)
            .axis("ttr", vec![AxisValue::Float(1e19)]);
        assert!(huge.validate().is_err());

        // The matrix size is capped before any allocation happens.
        let vals: Vec<i64> = (1..=1000).collect();
        let exploded = CampaignSpec::new("x", "", ScenarioKind::Network)
            .axis_i64("masters", &vals)
            .axis_i64("streams", &vals)
            .axis_i64("ttr", &vals);
        assert_eq!(exploded.unit_count(), 1_000_000_000);
        assert!(exploded.validate().is_err());

        // Cpu kind accepts its own policy names but not network axes.
        let cpu = CampaignSpec::new("c", "", ScenarioKind::Cpu)
            .axis_i64("tasks", &[4])
            .axis_str("policy", &["rm-rta"]);
        cpu.validate().unwrap();
        let cpu_bad = CampaignSpec::new("c", "", ScenarioKind::Cpu).axis_i64("masters", &[2]);
        assert!(cpu_bad.validate().is_err());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let typo =
            r#"{"name": "x", "replication": 500, "axes": [{"name": "masters", "values": [2]}]}"#;
        let err = CampaignSpec::from_json_str(typo).unwrap_err();
        assert!(err.to_string().contains("replication"), "{err}");
        let axis_typo =
            r#"{"name": "x", "axes": [{"name": "masters", "values": [2], "value": [3]}]}"#;
        assert!(CampaignSpec::from_json_str(axis_typo).is_err());
    }

    #[test]
    fn unit_count_is_axis_product() {
        assert_eq!(demo().unit_count(), 2 * 2 * 2);
    }

    #[test]
    fn slugs_are_id_safe() {
        assert_eq!(AxisValue::Float(0.8).slug(), "0p8");
        assert_eq!(AxisValue::Str("dm-paper".into()).slug(), "dmmpaper");
        assert_eq!(AxisValue::Int(-3).slug(), "m3");
    }

    #[test]
    fn scaling_caps_replications_and_horizon() {
        let spec = demo().replications(200).sim_horizon(6_000_000);
        let quick = spec.quick();
        assert_eq!(quick.replications, 24);
        assert_eq!(quick.sim_horizon, 1_500_000);
        let analysis_only = demo().quick();
        assert_eq!(analysis_only.sim_horizon, 0);
    }
}
