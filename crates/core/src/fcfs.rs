//! The stock-PROFIBUS FCFS bound (paper §3.2, eqs. (11)–(12)).
//!
//! With FCFS outgoing queues, at most one message per stream is pending at
//! once (two would already imply a missed deadline), so at most `nh^k`
//! messages precede any request, and one high-priority cycle is guaranteed
//! per token visit:
//!
//! `Qi^k = nh^k · Tcycle − Chi^k`,  `Ri^k = Qi^k + Chi^k = nh^k · Tcycle` (eq. (11))
//!
//! schedulable iff `Dhi^k ≥ Ri^k` for every stream (eq. (12)).
//!
//! Note the bound is *the same for every stream of a master* — deadline
//! tightness is invisible to FCFS. That flat profile is precisely the
//! priority-inversion cost the paper's §4 removes.

use profirt_base::AnalysisResult;

use crate::config::NetworkConfig;
use crate::tcycle::{tcycle, TcycleModel};
use crate::{NetworkAnalysis, StreamResponse};

/// The FCFS analysis of eqs. (11)–(12).
#[derive(Clone, Copy, Debug, Default)]
pub struct FcfsAnalysis {
    /// Token-cycle model feeding eq. (11).
    pub model: TcycleModel,
}

impl FcfsAnalysis {
    /// Analysis with the paper's eq. (13) lateness bound.
    pub fn paper() -> FcfsAnalysis {
        FcfsAnalysis {
            model: TcycleModel::Paper,
        }
    }

    /// Analysis with the refined lateness bound.
    pub fn refined() -> FcfsAnalysis {
        FcfsAnalysis {
            model: TcycleModel::Refined,
        }
    }

    /// Computes eq. (11) for every stream and eq. (12) verdicts.
    pub fn analyze(net: &NetworkConfig) -> AnalysisResult<NetworkAnalysis> {
        FcfsAnalysis::default().run(net)
    }

    /// Computes the analysis with this configuration.
    pub fn run(&self, net: &NetworkConfig) -> AnalysisResult<NetworkAnalysis> {
        let bound = tcycle(net, self.model)?;
        let mut masters = Vec::with_capacity(net.n_masters());
        for (k, master) in net.masters.iter().enumerate() {
            let nh = master.nh() as i64;
            let mut rows = Vec::with_capacity(master.nh());
            for (i, s) in master.streams.iter() {
                let r = bound.tcycle.try_mul(nh)?;
                rows.push(StreamResponse {
                    master: k,
                    stream: i,
                    response_time: r,
                    deadline: s.d,
                    schedulable: s.d >= r,
                    queuing_delay: (r - s.ch).max_zero(),
                });
            }
            masters.push(rows);
        }
        Ok(NetworkAnalysis {
            tcycle: bound.tcycle,
            tdel: bound.tdel,
            masters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    fn net() -> NetworkConfig {
        NetworkConfig::new(
            vec![
                MasterConfig::new(
                    StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 7_000, 60_000)]).unwrap(),
                    t(360),
                ),
                MasterConfig::new(StreamSet::from_cdt(&[(300, 45_000, 45_000)]).unwrap(), t(0)),
            ],
            t(3_000),
        )
        .unwrap()
    }

    #[test]
    fn response_is_nh_times_tcycle() {
        let an = FcfsAnalysis::analyze(&net()).unwrap();
        // Tdel = max(300,240,360) + 300 = 360 + 300 = 660; Tcycle = 3660.
        assert_eq!(an.tdel, t(660));
        assert_eq!(an.tcycle, t(3_660));
        // Master 0 has nh = 2: R = 7320 for both streams.
        assert_eq!(an.masters[0][0].response_time, t(7_320));
        assert_eq!(an.masters[0][1].response_time, t(7_320));
        // Master 1 has nh = 1: R = 3660.
        assert_eq!(an.masters[1][0].response_time, t(3_660));
    }

    #[test]
    fn flat_profile_ignores_deadlines() {
        let an = FcfsAnalysis::analyze(&net()).unwrap();
        // Stream (0,1) has the tighter deadline 7000 but the same R: FCFS
        // misses it while the lax stream passes.
        assert!(an.masters[0][0].schedulable); // D = 30000 >= 7320
        assert!(!an.masters[0][1].schedulable); // D = 7000 < 7320
        assert!(!an.all_schedulable());
        assert_eq!(an.schedulable_count(), 2);
    }

    #[test]
    fn queuing_delay_decomposition() {
        let an = FcfsAnalysis::analyze(&net()).unwrap();
        // Q = R - Ch per eq. (11).
        assert_eq!(an.masters[0][0].queuing_delay, t(7_320 - 300));
        assert_eq!(an.masters[1][0].queuing_delay, t(3_660 - 300));
    }

    #[test]
    fn exact_deadline_boundary_schedulable() {
        let net = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(100, 1_100, 10_000)]).unwrap(),
                t(0),
            )],
            t(1_000),
        )
        .unwrap();
        // Tdel = 100, Tcycle = 1100, nh=1 -> R = 1100 = D: schedulable.
        let an = FcfsAnalysis::analyze(&net).unwrap();
        assert!(an.masters[0][0].schedulable);
        // One tick tighter fails.
        let net2 = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(100, 1_099, 10_000)]).unwrap(),
                t(0),
            )],
            t(1_000),
        )
        .unwrap();
        assert!(!FcfsAnalysis::analyze(&net2).unwrap().masters[0][0].schedulable);
    }

    #[test]
    fn refined_model_gives_smaller_or_equal_r() {
        let p = FcfsAnalysis::paper().run(&net()).unwrap();
        let r = FcfsAnalysis::refined().run(&net()).unwrap();
        for (a, b) in p.iter().zip(r.iter()) {
            assert!(b.response_time <= a.response_time);
        }
    }

    #[test]
    fn response_grows_with_stream_count() {
        // Adding a stream to a master increases every R of that master.
        let base = FcfsAnalysis::analyze(&net()).unwrap();
        let mut masters = net().masters.clone();
        let mut streams: Vec<_> = masters[1].streams.clone().into();
        streams.push(profirt_base::MessageStream::new(t(200), t(50_000), t(50_000)).unwrap());
        masters[1] = MasterConfig::new(StreamSet::new(streams).unwrap(), t(0));
        let bigger =
            FcfsAnalysis::analyze(&NetworkConfig::new(masters, t(3_000)).unwrap()).unwrap();
        assert!(bigger.masters[1][0].response_time > base.masters[1][0].response_time);
    }
}
