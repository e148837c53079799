//! The token-cycle upper bound `Tcycle` (paper §3.3, eqs. (13)–(14)).
//!
//! `Tcycle` bounds the interval between consecutive token arrivals at any
//! master. The real rotation time exceeds `TTR` only through *token
//! lateness*: some master overruns its `TTH` (a message cycle started just
//! before expiry always completes), and each following master, receiving a
//! late token, may still transmit one high-priority message cycle. The
//! worst chain is bounded by
//!
//! `Tdel = Σ_k CM^k`,  `CM^k = max{max_i Chi^k, Cl^k}`       (eq. (13))
//!
//! `Tcycle = TTR + Tdel`                                      (eq. (14))
//!
//! The paper notes a more accurate `Tcycle` exists (its reference \[14\])
//! accounting for which master overruns and what the others may send on a
//! late token: the overrunner contributes its longest cycle of *either*
//! priority, but every other master — holding a late token — can send at
//! most **one high-priority** cycle, so
//!
//! `Tdel_refined = max_j { CM^j + Σ_{k≠j} maxHigh^k }`
//!
//! which never exceeds the eq. (13) value. Both are provided via
//! [`TcycleModel`].
//!
//! Every sum is checked: a network whose `Tdel` or `Tcycle` does not fit in
//! a tick count gets [`profirt_base::AnalysisError::Overflow`], never a wrapped bound.

use profirt_base::{AnalysisResult, Time};

use crate::config::{MasterConfig, NetworkConfig};

/// Which token-lateness bound to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TcycleModel {
    /// Eq. (13) verbatim: every master charged its longest cycle `CM^k`.
    #[default]
    Paper,
    /// The per-overrunner refinement: one master overruns with `CM^j`; the
    /// others contribute at most one high-priority cycle each.
    Refined,
}

/// The computed token-cycle bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcycleBound {
    /// Worst-case token lateness `Tdel`.
    pub tdel: Time,
    /// `Tcycle = TTR + Tdel`.
    pub tcycle: Time,
    /// The model used.
    pub model: TcycleModel,
}

/// Computes the token lateness `Tdel` under the chosen model.
///
/// # Errors
/// [`profirt_base::AnalysisError::Overflow`] if `Tdel` exceeds the tick range.
pub fn token_lateness(net: &NetworkConfig, model: TcycleModel) -> AnalysisResult<Time> {
    let sum = |cycle: fn(&MasterConfig) -> Time| {
        net.masters
            .iter()
            .try_fold(Time::ZERO, |acc, m| acc.try_add(cycle(m)))
    };
    match model {
        TcycleModel::Paper => sum(MasterConfig::longest_cycle),
        TcycleModel::Refined => {
            let high_sum = sum(MasterConfig::max_high_cycle)?;
            net.masters.iter().try_fold(Time::ZERO, |worst, m| {
                Ok(worst.max(m.longest_cycle().try_add(high_sum - m.max_high_cycle())?))
            })
        }
    }
}

/// Computes the full bound `Tcycle = TTR + Tdel + ring overhead`
/// (eq. (14); the overhead term is zero in the paper-literal configuration,
/// see [`NetworkConfig::token_pass`]).
///
/// # Errors
/// [`profirt_base::AnalysisError::Overflow`] if `Tdel` or `Tcycle` exceeds the tick
/// range.
pub fn tcycle(net: &NetworkConfig, model: TcycleModel) -> AnalysisResult<TcycleBound> {
    let tdel = token_lateness(net, model)?;
    Ok(TcycleBound {
        tdel,
        tcycle: net.ttr.try_add(tdel)?.try_add(net.ring_overhead()?)?,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::time::t;
    use profirt_base::{AnalysisError, StreamSet};

    fn net3() -> NetworkConfig {
        // Master 0: high cycles {300, 240}, Cl = 360 -> CM = 360.
        // Master 1: high {300},           Cl = 0   -> CM = 300.
        // Master 2: high {500},           Cl = 450 -> CM = 500.
        NetworkConfig::new(
            vec![
                MasterConfig::new(
                    StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 60_000, 60_000)]).unwrap(),
                    t(360),
                ),
                MasterConfig::new(StreamSet::from_cdt(&[(300, 45_000, 45_000)]).unwrap(), t(0)),
                MasterConfig::new(
                    StreamSet::from_cdt(&[(500, 90_000, 90_000)]).unwrap(),
                    t(450),
                ),
            ],
            t(3_000),
        )
        .unwrap()
    }

    #[test]
    fn paper_tdel_sums_longest_cycles() {
        let net = net3();
        assert_eq!(
            token_lateness(&net, TcycleModel::Paper).unwrap(),
            t(360 + 300 + 500)
        );
        let b = tcycle(&net, TcycleModel::Paper).unwrap();
        assert_eq!(b.tdel, t(1160));
        assert_eq!(b.tcycle, t(4160));
    }

    #[test]
    fn refined_tdel_charges_one_overrunner() {
        let net = net3();
        // maxHigh = (300, 300, 500), sum = 1100.
        // overrunner 0: 360 + (1100-300) = 1160
        // overrunner 1: 300 + (1100-300) = 1100
        // overrunner 2: 500 + (1100-500) = 1100
        // max = 1160.
        assert_eq!(token_lateness(&net, TcycleModel::Refined).unwrap(), t(1160));
    }

    #[test]
    fn refined_never_exceeds_paper() {
        let net = net3();
        assert!(
            token_lateness(&net, TcycleModel::Refined).unwrap()
                <= token_lateness(&net, TcycleModel::Paper).unwrap()
        );
        // Strictly smaller when some master's Cl dominates its high cycles
        // at more than one station: make master 1 carry a big Cl.
        let mut masters = net.masters.clone();
        masters[1].cl = t(900); // CM1 = 900 now
        let net2 = NetworkConfig::new(masters, t(3_000)).unwrap();
        let p = token_lateness(&net2, TcycleModel::Paper).unwrap(); // 360+900+500 = 1760
        let r = token_lateness(&net2, TcycleModel::Refined).unwrap();
        // overrunner 1: 900 + (1100-300) = 1700; others smaller.
        assert_eq!(p, t(1760));
        assert_eq!(r, t(1700));
        assert!(r < p);
    }

    #[test]
    fn single_master_tdel_is_its_longest_cycle() {
        let net = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(120, 10_000, 10_000)]).unwrap(),
                t(200),
            )],
            t(1_000),
        )
        .unwrap();
        assert_eq!(token_lateness(&net, TcycleModel::Paper).unwrap(), t(200));
        assert_eq!(token_lateness(&net, TcycleModel::Refined).unwrap(), t(200));
        assert_eq!(tcycle(&net, TcycleModel::Paper).unwrap().tcycle, t(1_200));
    }

    #[test]
    fn overflowing_sums_are_errors() {
        let huge = i64::MAX / 2 + 1;
        let master = MasterConfig::new(
            StreamSet::from_cdt(&[(huge, i64::MAX, i64::MAX)]).unwrap(),
            t(0),
        );
        let net = NetworkConfig::new(vec![master.clone(), master], t(1)).unwrap();
        for model in [TcycleModel::Paper, TcycleModel::Refined] {
            assert!(matches!(
                token_lateness(&net, model),
                Err(AnalysisError::Overflow { .. })
            ));
        }
        // Tdel fits, TTR + Tdel does not.
        let one = NetworkConfig::new(vec![net.masters[0].clone()], t(huge)).unwrap();
        assert_eq!(token_lateness(&one, TcycleModel::Paper).unwrap(), t(huge));
        assert!(matches!(
            tcycle(&one, TcycleModel::Paper),
            Err(AnalysisError::Overflow { .. })
        ));
    }

    #[test]
    fn paper_worked_scenario() {
        // §3.3 illustration: after an idle rotation, master k holds the
        // token for TTH plus its longest message; all following masters get
        // a late token and send one high-priority cycle each. The bound
        // must cover that chain: Tcycle >= TTR + CM^k + Σ_{j≠k} maxHigh^j.
        let net = net3();
        let b = tcycle(&net, TcycleModel::Paper).unwrap();
        for k in 0..net.n_masters() {
            let chain: Time = net.masters[k].longest_cycle()
                + net
                    .masters
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .map(|(_, m)| m.max_high_cycle())
                    .sum::<Time>();
            assert!(net.ttr + chain <= b.tcycle);
        }
    }
}
