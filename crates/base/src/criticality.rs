//! Criticality levels for mixed-criticality scheduling.
//!
//! Following Novak et al.'s match-up scheduling model, every stream and
//! task carries a criticality level. `Hi` traffic must meet its bounds
//! through *any* disturbance (ring churn, overload); `Lo` traffic is shed
//! in degraded mode and only re-admitted after a completed match-up
//! phase; `Mid` sits between the two in the three-level variant (shed
//! after `Lo`, re-admitted before it — this workspace sheds both together
//! but keeps the level distinct for analysis and reporting).
//!
//! The default is [`Criticality::Hi`]: a workload that never mentions
//! criticality is an all-HI workload, which keeps every pre-existing
//! config, preset and artifact byte-identical.

use core::fmt;

/// A criticality level; `Hi` must survive any overload, `Lo` is shed first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Criticality {
    /// Best-effort traffic: shed in degraded mode, re-admitted at match-up.
    Lo,
    /// Intermediate level of the three-level model (shed with `Lo`, but
    /// tracked separately).
    Mid,
    /// Safety-critical traffic: never shed; bounds must hold through churn.
    Hi,
}

impl Criticality {
    /// Short lowercase name (`"lo"` / `"mid"` / `"hi"`), the config-file
    /// and wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Criticality::Lo => "lo",
            Criticality::Mid => "mid",
            Criticality::Hi => "hi",
        }
    }

    /// Parses the config-file spelling produced by [`Criticality::name`].
    pub fn parse(s: &str) -> Option<Criticality> {
        match s {
            "lo" => Some(Criticality::Lo),
            "mid" => Some(Criticality::Mid),
            "hi" => Some(Criticality::Hi),
            _ => None,
        }
    }

    /// Whether traffic of this level is shed in degraded (HI) mode.
    #[inline]
    pub fn shed_in_hi_mode(self) -> bool {
        !matches!(self, Criticality::Hi)
    }
}

impl Default for Criticality {
    /// Absent criticality means HI — the backward-compatible reading under
    /// which every pre-existing workload is unchanged.
    fn default() -> Self {
        Criticality::Hi
    }
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parse_roundtrip() {
        for c in [Criticality::Lo, Criticality::Mid, Criticality::Hi] {
            assert_eq!(Criticality::parse(c.name()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(Criticality::parse("HI"), None);
        assert_eq!(Criticality::parse(""), None);
    }

    #[test]
    fn default_is_hi_and_only_hi_survives_shedding() {
        assert_eq!(Criticality::default(), Criticality::Hi);
        assert!(Criticality::Lo.shed_in_hi_mode());
        assert!(Criticality::Mid.shed_in_hi_mode());
        assert!(!Criticality::Hi.shed_in_hi_mode());
    }

    #[test]
    fn ordering_ranks_hi_above_mid_above_lo() {
        assert!(Criticality::Hi > Criticality::Mid);
        assert!(Criticality::Mid > Criticality::Lo);
    }
}
