//! Setting the `TTR` parameter (paper §3.4, eq. (15)).
//!
//! Substituting `Tcycle = TTR + Tdel` into the schedulability condition
//! `Dhi^k ≥ nh^k · Tcycle` and solving for `TTR`:
//!
//! `0 ≤ TTR ≤ min_{k, i} { Dhi^k / nh^k − Tdel }`             (eq. (15))
//!
//! The *largest* feasible `TTR` is operationally desirable (more room for
//! low-priority traffic and GAP maintenance); [`max_feasible_ttr`] computes
//! it exactly with floor division, and [`TtrSetting`] also reports the
//! binding stream.

use profirt_base::{AnalysisResult, Time};

use crate::config::NetworkConfig;
use crate::tcycle::{token_lateness, TcycleModel};

/// Result of the eq. (15) computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TtrSetting {
    /// The largest feasible `TTR` (ticks). `None` if even `TTR → 0⁺` cannot
    /// satisfy the tightest stream (the right-hand side is non-positive).
    pub max_ttr: Option<Time>,
    /// The effective lateness used: `Tdel` plus the configured ring
    /// overhead (zero in the paper-literal configuration).
    pub tdel: Time,
    /// The `(master, stream)` whose constraint binds.
    pub binding: (usize, usize),
}

/// Computes eq. (15): the largest `TTR` for which the FCFS condition
/// (eq. (12)) holds for every stream, or `None` when infeasible.
///
/// Returns `None` inside [`TtrSetting::max_ttr`] when the bound is `< 1`
/// tick (PROFIBUS requires a positive `TTR`).
///
/// # Errors
/// [`profirt_base::AnalysisError::Overflow`] if `Tdel` plus the ring
/// overhead exceeds the tick range.
pub fn max_feasible_ttr(net: &NetworkConfig, model: TcycleModel) -> AnalysisResult<TtrSetting> {
    let tdel = token_lateness(net, model)?.try_add(net.ring_overhead()?)?;
    let mut best: Option<(Time, (usize, usize))> = None;
    for (k, master) in net.masters.iter().enumerate() {
        let nh = master.nh() as i64;
        if nh == 0 {
            continue;
        }
        for (i, s) in master.streams.iter() {
            // TTR <= D/nh - Tdel - overhead, integer-safe via floor division.
            let limit = Time::new(s.d.floor_div(Time::new(nh))) - tdel;
            match best {
                Some((b, _)) if b <= limit => {}
                _ => best = Some((limit, (k, i))),
            }
        }
    }
    let (limit, binding) = best.unwrap_or((Time::MAX, (0, 0)));
    Ok(TtrSetting {
        max_ttr: if limit >= Time::ONE {
            Some(limit)
        } else {
            None
        },
        tdel,
        binding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use crate::fcfs::FcfsAnalysis;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    fn net() -> NetworkConfig {
        NetworkConfig::new(
            vec![
                MasterConfig::new(
                    StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 9_000, 60_000)]).unwrap(),
                    t(360),
                ),
                MasterConfig::new(StreamSet::from_cdt(&[(300, 45_000, 45_000)]).unwrap(), t(0)),
            ],
            t(3_000),
        )
        .unwrap()
    }

    #[test]
    fn derived_ttr_makes_set_schedulable() {
        let setting = max_feasible_ttr(&net(), TcycleModel::Paper).unwrap();
        let ttr = setting.max_ttr.expect("feasible");
        // Tdel = 660. Limits: (0,0): 30000/2-660 = 14340; (0,1): 9000/2-660
        // = 3840; (1,0): 45000-660 = 44340. Binding: (0,1) at 3840.
        assert_eq!(setting.tdel, t(660));
        assert_eq!(ttr, t(3_840));
        assert_eq!(setting.binding, (0, 1));

        let tuned = net().with_ttr(ttr).unwrap();
        assert!(FcfsAnalysis::analyze(&tuned).unwrap().all_schedulable());
    }

    #[test]
    fn one_tick_more_breaks_the_binding_stream() {
        let setting = max_feasible_ttr(&net(), TcycleModel::Paper).unwrap();
        let ttr = setting.max_ttr.unwrap();
        let over = net().with_ttr(ttr + t(1)).unwrap();
        let an = FcfsAnalysis::analyze(&over).unwrap();
        assert!(!an.all_schedulable());
        let (mk, si) = setting.binding;
        assert!(!an.masters[mk][si].schedulable);
    }

    #[test]
    fn infeasible_when_deadline_shorter_than_lateness() {
        // Deadline so tight that even TTR -> 0 fails: D/nh <= Tdel.
        let net = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(500, 400, 10_000)]).unwrap(),
                t(0),
            )],
            t(1_000),
        )
        .unwrap();
        // Tdel = 500 > D = 400.
        let setting = max_feasible_ttr(&net, TcycleModel::Paper).unwrap();
        assert_eq!(setting.max_ttr, None);
    }

    #[test]
    fn refined_model_allows_larger_ttr() {
        // With Cl inflating one master's CM, the refined Tdel is smaller,
        // leaving more TTR headroom.
        let net = NetworkConfig::new(
            vec![
                MasterConfig::new(
                    StreamSet::from_cdt(&[(100, 20_000, 20_000)]).unwrap(),
                    t(900),
                ),
                MasterConfig::new(
                    StreamSet::from_cdt(&[(100, 20_000, 20_000)]).unwrap(),
                    t(900),
                ),
            ],
            t(1_000),
        )
        .unwrap();
        let paper = max_feasible_ttr(&net, TcycleModel::Paper).unwrap();
        let refined = max_feasible_ttr(&net, TcycleModel::Refined).unwrap();
        // Paper Tdel = 900+900 = 1800; refined = max(900+100) = 1000.
        assert_eq!(paper.tdel, t(1_800));
        assert_eq!(refined.tdel, t(1_000));
        assert!(refined.max_ttr.unwrap() > paper.max_ttr.unwrap());
    }

    #[test]
    fn binding_stream_is_tightest_per_capita_deadline() {
        let setting = max_feasible_ttr(&net(), TcycleModel::Paper).unwrap();
        assert_eq!(setting.binding, (0, 1));
    }
}
