//! Recorded shape checks.
//!
//! A paper preset states its qualitative predictions (who wins, what
//! dominates, where curves collapse) as [`ShapeCheck`]s evaluated on the
//! finished campaign outcome (see
//! [`presets::shape_checks`](crate::campaign::presets::shape_checks)), so a
//! run reports machine-verified verdicts instead of prose.

use std::fmt;

/// One qualitative prediction and its verdict.
#[derive(Clone, Debug)]
pub struct ShapeCheck {
    /// What the paper (or our fidelity note) predicts.
    pub claim: String,
    /// Whether the run confirmed it.
    pub pass: bool,
    /// Supporting detail (numbers behind the verdict).
    pub detail: String,
}

impl ShapeCheck {
    /// Creates a check.
    pub fn new(claim: &str, pass: bool, detail: String) -> ShapeCheck {
        ShapeCheck {
            claim: claim.to_string(),
            pass,
            detail,
        }
    }
}

/// The report line: `SHAPE [PASS|FAIL] <claim> — <detail>`.
impl fmt::Display for ShapeCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        write!(f, "SHAPE [{verdict}] {} — {}", self.claim, self.detail)
    }
}

/// The run's verdict on its checks: `Err` naming every failed claim when
/// any check failed (the CLI's non-zero exit), `Ok` otherwise — including
/// for a run that makes no claims.
pub fn verdict(checks: &[ShapeCheck]) -> Result<(), String> {
    let failed: Vec<&str> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.claim.as_str())
        .collect();
    if failed.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} paper claim(s) failed on this outcome (see SHAPE lines): {}",
        failed.len(),
        failed.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_aggregation() {
        let a = ShapeCheck::new("a", true, "x".into());
        let b = ShapeCheck::new("b", false, "y".into());
        let c = ShapeCheck::new("c", false, "z".into());
        assert_eq!(a.to_string(), "SHAPE [PASS] a — x");
        assert_eq!(b.to_string(), "SHAPE [FAIL] b — y");
        assert!(verdict(&[]).is_ok());
        assert!(verdict(std::slice::from_ref(&a)).is_ok());
        let err = verdict(&[a, b, c]).unwrap_err();
        assert!(err.starts_with("2 paper claim(s) failed"), "{err}");
        assert!(err.ends_with(": b; c"), "{err}");
    }
}
