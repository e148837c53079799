//! Low-priority traffic outlook — an extension beyond the paper.
//!
//! The paper analyses only high-priority streams; low-priority traffic
//! (parameterisation data, file transfers, GAP maintenance) runs on
//! *residual* token-holding time and is starved whenever the token arrives
//! late (§3.1: low-priority cycles require `TTH > 0` and an empty
//! high-priority queue). This module answers the operational questions the
//! paper leaves open:
//!
//! * **Guaranteed residual budget.** Over any window of `n_rot` rotations,
//!   high-priority traffic and token passes consume at most
//!   `demand = Σ_streams ⌈window/T⌉·Ch + n_rot · ring_overhead`; the
//!   *target* gives the budget `n_rot · TTR`. If `budget > demand` the
//!   surplus is available to low-priority cycles in the long run.
//! * **Starvation risk.** If a single synchronous batch of high-priority
//!   requests plus overheads already exceeds `TTR`, every subsequent token
//!   arrival can be late and low-priority traffic may starve indefinitely
//!   (the `low_priority_starved_on_late_token` behaviour demonstrated by
//!   the simulator).
//!
//! These are *throughput* statements, not per-message response-time
//! bounds: a low-priority message has no worst-case latency guarantee
//! under PROFIBUS, which is exactly why the paper routes deadline traffic
//! through the high-priority queue.

use profirt_base::{AnalysisError, AnalysisResult, Frac, Time};

use crate::config::NetworkConfig;

/// Long-run outlook for low-priority traffic on one network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowPriorityOutlook {
    /// Long-run fraction of bus time consumed by high-priority streams
    /// (exact rational).
    pub high_utilization: Frac,
    /// Worst-case duration of one synchronous high-priority batch across
    /// the whole ring (every stream fires once) plus one round of token
    /// passes.
    pub burst: Time,
    /// `true` if such a batch exceeds `TTR`: rotations can then stay late
    /// back-to-back and low-priority traffic has no guaranteed service.
    pub starvation_risk: bool,
    /// Mean residual bus time per target rotation available to
    /// low-priority traffic in the long run (zero when saturated),
    /// in ticks, rounded down.
    pub residual_per_rotation: Time,
}

/// Computes the low-priority outlook.
///
/// # Errors
/// [`AnalysisError::Overflow`] if the burst or the residual exceeds the
/// tick range, or the exact utilisation needs more than `i128`
/// (pairwise-coprime periods near 10^12 and beyond).
pub fn low_priority_outlook(net: &NetworkConfig) -> AnalysisResult<LowPriorityOutlook> {
    // Long-run high-priority utilisation Σ Ch/T (exact).
    let high_utilization = net
        .masters
        .iter()
        .flat_map(|m| m.streams.streams())
        .try_fold(Frac::ZERO, |u, s| u.checked_add(s.utilization()))
        .ok_or(AnalysisError::Overflow {
            context: "low-priority utilisation",
        })?;
    // One synchronous batch: every stream's cycle once + one full round of
    // token passes.
    let overhead = net.ring_overhead()?;
    let burst = net
        .masters
        .iter()
        .flat_map(|m| m.streams.streams())
        .try_fold(Time::ZERO, |acc, s| acc.try_add(s.ch))?
        .try_add(overhead)?;
    let starvation_risk = burst >= net.ttr;
    // Mean residual per target rotation: TTR·(1 − U_high) − overhead,
    // computed exactly as `(TTR·(den − num) − overhead·den) / den` with
    // `U_high = num/den`, then floored; clamped at zero.
    let overflow = || AnalysisError::Overflow {
        context: "low-priority residual",
    };
    let (num, den) = (high_utilization.num(), high_utilization.den());
    let residual_num = (net.ttr.ticks() as i128)
        .checked_mul(den - num)
        .zip((overhead.ticks() as i128).checked_mul(den))
        .and_then(|(budget, passes)| budget.checked_sub(passes))
        .ok_or_else(overflow)?;
    let residual = if residual_num <= 0 {
        Time::ZERO
    } else {
        Time::new(i64::try_from(residual_num / den).map_err(|_| overflow())?)
    };
    Ok(LowPriorityOutlook {
        high_utilization,
        burst,
        starvation_risk,
        residual_per_rotation: residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    fn net(streams: &[(i64, i64, i64)], ttr: i64) -> NetworkConfig {
        NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(streams).unwrap(),
                t(0),
            )],
            t(ttr),
        )
        .unwrap()
    }

    #[test]
    fn light_load_leaves_residual() {
        let n = net(&[(100, 10_000, 10_000)], 2_000);
        let o = low_priority_outlook(&n).unwrap();
        assert_eq!(o.high_utilization, Frac::new(1, 100));
        assert_eq!(o.burst, t(100));
        assert!(!o.starvation_risk);
        // TTR·(1−0.01) = 1980.
        assert_eq!(o.residual_per_rotation, t(1_980));
    }

    #[test]
    fn heavy_burst_flags_starvation() {
        // One synchronous batch (900+900=1800) >= TTR (1500).
        let n = net(&[(900, 50_000, 5_000), (900, 50_000, 5_000)], 1_500);
        let o = low_priority_outlook(&n).unwrap();
        assert!(o.starvation_risk);
        assert_eq!(o.burst, t(1_800));
    }

    #[test]
    fn saturation_zeroes_residual() {
        // U_high = 0.9, TTR = 1000, residual = 1000*0.1 = 100; with
        // overhead pushing past it, clamps to zero.
        let n = net(&[(900, 10_000, 1_000)], 1_000);
        let o = low_priority_outlook(&n).unwrap();
        assert_eq!(o.high_utilization, Frac::new(9, 10));
        assert_eq!(o.residual_per_rotation, t(100));
        let with_ovh = n.with_token_pass(t(150));
        let o2 = low_priority_outlook(&with_ovh).unwrap();
        assert_eq!(o2.residual_per_rotation, Time::ZERO);
    }

    #[test]
    fn outlook_matches_simulator_behaviour() {
        // The starvation example from the simulator tests: heavy high
        // stream with TTR = 500 -> risk; generous TTR -> no risk.
        let starved = net(&[(900, 50_000, 1_000)], 500);
        assert!(low_priority_outlook(&starved).unwrap().starvation_risk);
        let healthy = net(&[(200, 8_000, 10_000)], 2_000);
        assert!(!low_priority_outlook(&healthy).unwrap().starvation_risk);
    }

    #[test]
    fn utilisation_beyond_i128_is_an_overflow() {
        // Pairwise-coprime periods near 10^12: the exact sum's
        // denominator leaves i128.
        let streams: Vec<(i64, i64, i64)> = [
            999_999_999_989_i64,
            1_000_000_000_039,
            1_000_000_000_061,
            1_000_000_000_063,
        ]
        .iter()
        .map(|&t| (t * 3 / 10, t, t))
        .collect();
        assert_eq!(
            low_priority_outlook(&net(&streams, 2_000)),
            Err(AnalysisError::Overflow {
                context: "low-priority utilisation"
            })
        );
        assert!(low_priority_outlook(&net(&streams[..2], 2_000)).is_ok());
    }

    #[test]
    fn multi_master_burst_sums_all_streams() {
        let n = NetworkConfig::new(
            vec![
                MasterConfig::new(StreamSet::from_cdt(&[(300, 50_000, 50_000)]).unwrap(), t(0)),
                MasterConfig::new(StreamSet::from_cdt(&[(400, 50_000, 50_000)]).unwrap(), t(0)),
            ],
            t(5_000),
        )
        .unwrap()
        .with_token_pass(t(100));
        let o = low_priority_outlook(&n).unwrap();
        assert_eq!(o.burst, t(300 + 400 + 200));
    }
}
