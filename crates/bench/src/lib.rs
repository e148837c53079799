//! # profirt-bench — benchmark fixtures
//!
//! Shared inputs for the Criterion benchmarks in `benches/` (one benchmark
//! per reproduced table/figure, plus the `ablation_*` benches). The
//! fixtures pin seeds so timing comparisons across commits measure code,
//! not workload drift.

#![forbid(unsafe_code)]

use profirt_base::{Prng, TaskSet, Time};
use profirt_core::NetworkConfig;
use profirt_profibus::BusParams;
use profirt_workload::{
    generate_network, generate_task_set, DeadlinePolicy, NetGenParams, PeriodRange,
    StreamGenParams, TaskGenParams,
};

/// A pinned-seed task set with `n` tasks at utilisation `u`.
pub fn task_set(n: usize, u: f64) -> TaskSet {
    let mut rng = Prng::seed_from_u64(0xBE4C_0000 + n as u64);
    generate_task_set(
        &mut rng,
        &TaskGenParams {
            n,
            total_utilization: u,
            periods: PeriodRange::new(Time::new(100), Time::new(5_000), Time::new(10)),
            deadline: DeadlinePolicy::Implicit,
        },
    )
    .expect("task generation")
}

/// A pinned-seed constrained-deadline task set.
pub fn constrained_task_set(n: usize, u: f64) -> TaskSet {
    let mut rng = Prng::seed_from_u64(0xBE4C_1000 + n as u64);
    generate_task_set(
        &mut rng,
        &TaskGenParams {
            n,
            total_utilization: u,
            periods: PeriodRange::new(Time::new(100), Time::new(5_000), Time::new(10)),
            deadline: DeadlinePolicy::ConstrainedFraction {
                min_frac: 0.5,
                max_frac: 1.0,
            },
        },
    )
    .expect("task generation")
}

/// A pinned-seed network with `n_masters` masters × `nh` streams.
pub fn network(n_masters: usize, nh: usize, tightness: f64) -> NetworkConfig {
    let mut rng = Prng::seed_from_u64(0xBE4C_2000 + (n_masters * 37 + nh) as u64);
    generate_network(
        &mut rng,
        &BusParams::profile_500k(),
        &NetGenParams {
            n_masters,
            streams: StreamGenParams {
                nh,
                req_payload: (2, 16),
                resp_payload: (2, 32),
                periods: PeriodRange::new(Time::new(80_000), Time::new(800_000), Time::new(100)),
                deadline_frac: (tightness, tightness),
            },
            low_priority_prob: 0.4,
            low_payload: (8, 32),
            low_period: Time::new(500_000),
            ttr: Time::new(4_000),
            criticality_mix: profirt_workload::CriticalityMix::AllHi,
        },
    )
    .expect("network generation")
    .config
}

pub mod large {
    //! Shared large-n worst-case fixtures for the analysis benchmarks.
    //!
    //! The extended `edf_demand` / `edf_np_feasibility` / `edf_rta` /
    //! `fixed_rta` benches and the `analysis_fast` fast-vs-exhaustive
    //! comparison all pull from here, so old and new benches stress the
    //! same workloads and their numbers are directly comparable.

    use profirt_base::{Task, TaskSet};

    /// The preemptive demand-test stress set: 448 tasks at `U = 0.94`
    /// whose synchronous busy period spans ~1570 light periods.
    ///
    /// 48 "light" tasks share a 1000-tick period with staggered constrained
    /// deadlines (940…987); 400 "bulk" tasks at period 2 000 000 carry
    /// `ΣC = 440 000` of cost, stretching the busy period to ~1.57M ticks —
    /// ~75 000 distinct checkpoints for the exhaustive scan, while the QPA
    /// backward scan clears the bulk-deadline band in a handful of jumps
    /// and then descends geometrically through the light band. Deadlines
    /// are staggered so no two progressions collapse into one merged
    /// point; two period classes keep the exact utilisation arithmetic
    /// within the 128-bit fraction bound.
    pub fn demand_set() -> TaskSet {
        let mut tasks = Vec::with_capacity(448);
        for i in 0..48i64 {
            tasks.push(Task::new(15, 940 + i, 1_000).unwrap());
        }
        for i in 0..400i64 {
            tasks.push(Task::new(1_100, 1_200_000 + 2_000 * i, 2_000_000).unwrap());
        }
        TaskSet::new(tasks).expect("large demand fixture")
    }

    /// The non-preemptive demand-test stress set: like [`demand_set`] but
    /// with bulk costs (110) kept *below* the earliest light deadline, so
    /// the set stays feasible under George/Zheng–Shin blocking — the
    /// worst case for eqs. (4)/(5) is the full-horizon scan, not an early
    /// violation exit. Its ~7700 checkpoints spread over ~450 distinct
    /// deadlines, which also exercises the fast front's
    /// checkpoints-vs-segments selection rule.
    pub fn np_demand_set() -> TaskSet {
        let mut tasks = Vec::with_capacity(448);
        for i in 0..48i64 {
            tasks.push(Task::new(15, 940 + i, 1_000).unwrap());
        }
        for i in 0..400i64 {
            tasks.push(Task::new(110, 120_000 + 200 * i, 200_000).unwrap());
        }
        TaskSet::new(tasks).expect("large np demand fixture")
    }

    /// The EDF-RTA stress set: 32 constrained-deadline tasks at `U = 0.9`
    /// (the deadline-busy-period enumeration is quadratic-ish in practice,
    /// so this is "large" for eqs. (6)–(10)).
    pub fn edf_rta_set() -> TaskSet {
        super::constrained_task_set(32, 0.9)
    }

    /// The fixed-priority RTA stress set: 48 implicit-deadline tasks at
    /// `U = 0.9` (the largest size whose exact utilisation arithmetic stays
    /// within the 128-bit fraction bound for this generator's period pool).
    pub fn fp_rta_set() -> TaskSet {
        super::task_set(48, 0.9)
    }

    /// A campaign-shaped sweep: many small pinned-seed task sets, the
    /// workload pattern where per-call allocation dominates the RTA cost
    /// and [`profirt_sched::AnalysisScratch`] reuse pays off.
    pub fn rta_sweep(sets: usize, n: usize, u: f64) -> Vec<TaskSet> {
        (0..sets)
            .map(|k| {
                let mut rng = profirt_base::Prng::seed_from_u64(0xBE4C_3000 + k as u64);
                profirt_workload::generate_task_set(
                    &mut rng,
                    &profirt_workload::TaskGenParams::standard(n, u),
                )
                .expect("sweep task generation")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(task_set(6, 0.7), task_set(6, 0.7));
        assert_eq!(network(3, 4, 0.8), network(3, 4, 0.8));
        assert_eq!(constrained_task_set(5, 0.8), constrained_task_set(5, 0.8));
        assert_eq!(large::demand_set(), large::demand_set());
    }

    #[test]
    fn large_fixtures_are_analyzable() {
        let demand = large::demand_set();
        assert_eq!(demand.len(), 448);
        assert!(demand.total_utilization().lt_one());
        assert!(large::np_demand_set().total_utilization().lt_one());
        assert!(large::edf_rta_set().total_utilization().lt_one());
        assert!(large::fp_rta_set().total_utilization().lt_one());
        assert_eq!(large::rta_sweep(4, 6, 0.85).len(), 4);
    }

    #[test]
    fn fixture_shapes() {
        assert_eq!(task_set(6, 0.7).len(), 6);
        let net = network(3, 4, 0.8);
        assert_eq!(net.n_masters(), 3);
        assert_eq!(net.total_streams(), 12);
    }
}
