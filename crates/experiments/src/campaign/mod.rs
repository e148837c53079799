//! # The campaign engine — one declarative runner for every experiment
//!
//! The paper's evaluation is a grid of figures and tables; this module
//! replaces per-experiment sweep plumbing with a single pipeline:
//!
//! 1. **Spec** ([`CampaignSpec`]) — a declarative scenario matrix: axes
//!    over network size, stream-set shape, deadline tightness, `TTR`,
//!    queue policy, plus replications/seed/horizon/workers. Parses from
//!    JSON via [`profirt_base::json`].
//! 2. **Plan** ([`plan()`]) — expands the axis cross-product into
//!    [`WorkUnit`]s with stable, coordinate-bearing IDs.
//! 3. **Execute** ([`run_campaign`]) — shards units over the panic-safe
//!    seed-parallel worker pool and aggregates each unit's metric row.
//! 4. **Report** — writes `out/<campaign>/{campaign.json, units.csv,
//!    summary.json, EXPERIMENTS.md}`.
//!
//! The paper's T1–T8/F1–F6 experiments are [`presets`]: each sweep is a
//! ~15-line [`CampaignSpec`] constructor, and
//! [`presets::shape_checks`] states its qualitative claims on the finished
//! [`CampaignOutcome`]. A new scenario study is a preset or a JSON file —
//! not a new binary.
//!
//! ```
//! use profirt_experiments::campaign::{self, CampaignSpec, ScenarioKind};
//!
//! let spec = CampaignSpec::new("doc-demo", "doctest", ScenarioKind::Cpu)
//!     .replications(2)
//!     .axis_f64("utilization", &[0.4, 0.9])
//!     .axis_str("policy", &["rm-ll", "rm-rta"]);
//! let plan = campaign::plan(&spec).unwrap();
//! assert_eq!(plan.units.len(), 4); // 2 utilizations x 2 policies
//! assert!(plan.units[0].id.starts_with("u0000__utilization_0p4"));
//! ```

pub mod eval;
pub mod exec;
mod netsim;
pub mod plan;
pub mod presets;
pub mod report;
pub mod spec;

pub use eval::UnitEval;
pub use exec::{print_outcome, run_campaign, run_campaign_with, CampaignOutcome, EvalMode};
pub use plan::{generation_axes, plan, CampaignPlan, WorkUnit};
pub use spec::{Axis, AxisValue, CampaignSpec, ScenarioKind};

use crate::runner::SeedPanics;

/// Everything that can go wrong planning or executing a campaign.
#[derive(Clone, Debug)]
pub enum CampaignError {
    /// The spec is malformed (missing fields, bad types, bad values).
    BadSpec(String),
    /// Two axes share a name.
    DuplicateAxis(String),
    /// An axis name the scenario kind's evaluator does not understand.
    UnknownAxis {
        /// The offending axis name.
        axis: String,
        /// The scenario kind it was rejected for.
        kind: &'static str,
    },
    /// One or more work units panicked during evaluation.
    UnitPanics {
        /// `(unit id, panic message)` per failing unit.
        units: Vec<(String, String)>,
    },
    /// Artifact I/O failure.
    Io(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::BadSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::DuplicateAxis(name) => write!(f, "duplicate axis {name:?}"),
            CampaignError::UnknownAxis { axis, kind } => {
                write!(f, "axis {axis:?} is not supported by {kind} scenarios")
            }
            CampaignError::UnitPanics { units } => {
                write!(f, "{} work unit(s) failed:", units.len())?;
                for (id, msg) in units {
                    write!(f, " [{id}: {msg}]")?;
                }
                Ok(())
            }
            CampaignError::Io(msg) => write!(f, "artifact I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SeedPanics> for CampaignError {
    fn from(p: SeedPanics) -> CampaignError {
        CampaignError::UnitPanics {
            units: p
                .failures
                .into_iter()
                .map(|(seed, msg)| (format!("seed {seed}"), msg))
                .collect(),
        }
    }
}
