//! # profirt-experiments — the reproduction harness
//!
//! The paper's tables and figures (`T1`–`T8`, `F1`–`F6`) are campaign
//! [`presets`](campaign::presets), run by the one [`campaign`] engine
//! behind `profirt campaign run <preset>`. Each paper preset carries the
//! [`ShapeCheck`]s its finished outcome must satisfy; claims that need a
//! crafted exemplar or a quantity no campaign column holds are pinned by
//! tests in the crates that own the analyses.
//!
//! Infrastructure:
//! * [`campaign`] — declarative scenario-matrix campaigns: spec → plan →
//!   parallel execution → CSV/JSON/Markdown artifacts under `out/`.
//! * [`table`] — aligned text tables for terminal output.
//! * [`csvout`] — minimal CSV writing (no external dependency).
//! * [`runner`] — panic-safe seed-parallel execution (std scoped threads
//!   mounted on the model-checked work-stealing core from
//!   `profirt_conc::exec`).
//! * [`shape`] — recorded shape checks: explicit PASS/FAIL verdicts for
//!   the qualitative predictions of the paper presets.
//!
//! ## Seed-parallel sweeps
//!
//! [`runner::try_par_map_seeds`] fans a closure over seeds and returns
//! results in seed order no matter how the worker threads interleave:
//!
//! ```
//! use profirt_experiments::runner::try_par_map_seeds;
//!
//! // 8 workers race over 16 seeds; the output is still seed-ordered.
//! let out = try_par_map_seeds(16, 8, |seed| seed * seed).unwrap();
//! assert_eq!(out, (0..16).map(|s| s * s).collect::<Vec<_>>());
//! ```
//!
//! A panicking seed does not abort the sweep — it is caught, attributed,
//! and reported:
//!
//! ```
//! use profirt_experiments::runner::try_par_map_seeds;
//!
//! let err = try_par_map_seeds(8, 4, |seed| {
//!     assert!(seed != 3, "seed 3 is cursed");
//!     seed
//! })
//! .unwrap_err();
//! assert_eq!(err.failures.len(), 1);
//! assert_eq!(err.failures[0].0, 3);
//! ```
//!
//! ## Campaigns
//!
//! ```
//! use profirt_experiments::campaign::{self, presets};
//!
//! // Every paper experiment is a preset spec; plan one without running it.
//! let spec = presets::f1();
//! let plan = campaign::plan(&spec).unwrap();
//! assert_eq!(plan.units.len(), spec.unit_count());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod csvout;
pub mod runner;
pub mod shape;
pub mod table;

pub use shape::ShapeCheck;
pub use table::Table;

#[cfg(test)]
mod tests {
    use crate::campaign::presets;

    #[test]
    fn quick_is_smaller() {
        let full = presets::t8();
        let quick = full.quick();
        assert!(quick.replications < full.replications);
        assert!(quick.sim_horizon < full.sim_horizon);
    }
}

/// The shape gate of the paper experiments: one test per paper preset
/// (`T1`–`T8`, `F1`–`F6`) runs it at the `--quick` scale and asserts that
/// its outcome is clean and that every [`shape_checks`] claim holds.
#[cfg(test)]
mod exps {
    use crate::campaign::presets::{self, shape_checks};
    use crate::campaign::run_campaign;

    /// The paper presets whose claims are all pinned by tests in the crates
    /// that own the analyses: their outcomes carry no checks.
    const WITHOUT_OUTCOME_CHECKS: [&str; 4] = ["t6", "f2", "f3", "f5"];

    /// Runs preset `name` at the `--quick` scale and asserts a clean outcome
    /// whose shape checks all pass (or, for [`WITHOUT_OUTCOME_CHECKS`], are
    /// absent).
    fn assert_shape_at_quick_scale(name: &str) {
        let spec = presets::preset(name).unwrap().quick();
        let root = std::env::temp_dir()
            .join("profirt-preset-shapes")
            .join(name);
        let _ = std::fs::remove_dir_all(&root);
        let outcome = run_campaign(&spec, &root).unwrap();
        assert!(
            outcome.unit_errors.iter().all(Option::is_none),
            "{name}: {:?}",
            outcome.unit_errors
        );
        assert!(
            outcome.contract_failures().is_empty(),
            "{name}: {:?}",
            outcome.contract_failures()
        );
        let checks = shape_checks(&outcome);
        assert_eq!(
            checks.is_empty(),
            WITHOUT_OUTCOME_CHECKS.contains(&name),
            "{name}: {checks:?}"
        );
        for check in &checks {
            assert!(check.pass, "{name}: {check}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// One `<preset>::tests::<test>` module per paper preset, plus the list of
    /// gated preset names.
    macro_rules! gate {
        ($($preset:ident :: $test:ident),* $(,)?) => {
            $(mod $preset {
                mod tests {
                    #[test]
                    fn $test() {
                        super::super::assert_shape_at_quick_scale(stringify!($preset));
                    }
                }
            })*
            const GATED: &[&str] = &[$(stringify!($preset)),*];
        };
    }

    gate!(
        t1::t1_quick_passes,
        t2::t2_quick_passes,
        t3::t3_quick_passes,
        t4::t4_quick_passes,
        t5::t5_quick_passes,
        t6::t6_quick_passes,
        t7::t7_quick_passes,
        t8::t8_quick_passes,
        f1::f1_quick_passes,
        f2::f2_passes,
        f3::f3_passes,
        f4::f4_quick_passes,
        f5::f5_passes,
        f6::f6_quick_passes,
    );

    #[test]
    fn every_paper_preset_is_gated() {
        let paper: Vec<String> = presets::all()
            .into_iter()
            .map(|spec| spec.name)
            .filter(|name| !name.contains("churn"))
            .collect();
        assert_eq!(paper, GATED);
    }
}
