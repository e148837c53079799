//! Literature exemplars: task sets with known analytical results, used as
//! golden tests for the §2 analyses beyond the in-module unit tests.

use profirt_base::TaskSet;
use profirt_sched::edf::{
    edf_feasible_nonpreemptive, edf_feasible_preemptive, edf_response_times, np_edf_response_times,
    synchronous_busy_period, DemandConfig, DemandFormula, EdfRtaConfig, NpBlockingModel,
    NpEdfRtaConfig, NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    liu_layland_bound, np_response_times, response_times, rm_utilization_schedulable,
    NpFixedConfig, PriorityMap, RtaConfig,
};
use profirt_sched::FixpointConfig;

/// Liu & Layland (1973): the n-task boundary sets `Ci/Ti = 2^{1/n} − 1`
/// sit exactly on the bound and are RTA-schedulable.
#[test]
fn liu_layland_boundary_families() {
    // n=2 exact boundary set: C=(41,41), T=(100,100) is inside
    // (0.82 < 0.8284...); C=(42,42) is outside (0.84).
    let inside = TaskSet::from_ct(&[(41, 100), (41, 100)]).unwrap();
    assert!(rm_utilization_schedulable(&inside).is_schedulable());
    let outside = TaskSet::from_ct(&[(42, 100), (42, 100)]).unwrap();
    assert!(!rm_utilization_schedulable(&outside).is_schedulable());
    // The f64 bound agrees on both sides with margin.
    assert!(0.82 < liu_layland_bound(2));
    assert!(0.84 > liu_layland_bound(2));
    // The outside set is still RTA-schedulable (sufficiency, not necessity):
    // r2 = 42 + ⌈r/100⌉·42 = 84 <= 100.
    let pm = PriorityMap::rate_monotonic(&outside);
    let rta = response_times(&outside, &pm, &RtaConfig::default()).unwrap();
    assert_eq!(rta.wcrts().unwrap()[1].ticks(), 84);
}

/// Lehoczky, Sha & Ding's classic example: RM schedules up to exactly full
/// utilisation for harmonic periods.
#[test]
fn harmonic_periods_fully_utilised() {
    let set = TaskSet::from_ct(&[(1, 2), (1, 4), (1, 8), (1, 8)]).unwrap();
    assert_eq!(set.total_utilization().to_f64(), 1.0);
    let pm = PriorityMap::rate_monotonic(&set);
    let rta = response_times(&set, &pm, &RtaConfig::default()).unwrap();
    assert!(rta.all_schedulable());
    // WCRTs fill the periods exactly at the bottom level.
    assert_eq!(rta.wcrts().unwrap()[3].ticks(), 8);
}

/// Burns & Wellings' canonical RTA example with blocking (here as pure
/// non-preemptive blocking): the analysis orders effects correctly.
#[test]
fn non_preemptive_blocking_chain() {
    // DM order τ0 > τ1 > τ2; blocking of τ0 = max(C1, C2) = 6.
    let set = TaskSet::from_cdt(&[(2, 12, 20), (4, 30, 40), (6, 70, 80)]).unwrap();
    let pm = PriorityMap::deadline_monotonic(&set);
    let an = np_response_times(&set, &pm, &NpFixedConfig::paper()).unwrap();
    let w = an.wcrts().unwrap();
    // τ0: B=6, w=6, r=8. τ1: B=6, w=6+2=8, r=12. τ2: B=0, w=2+4=6, r=12.
    assert_eq!(w[0].ticks(), 8);
    assert_eq!(w[1].ticks(), 12);
    assert_eq!(w[2].ticks(), 12);
}

/// Spuri's running example (TR-2772 flavour): EDF WCRT via deadline busy
/// periods where the critical arrival is asynchronous.
#[test]
fn spuri_asynchronous_critical_instant() {
    let set = TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap();
    let (an, det) = edf_response_times(&set, &EdfRtaConfig::default()).unwrap();
    assert_eq!(an.wcrts().unwrap(), vec![4.into(), 6.into()]);
    // Task 0's worst case is NOT at a = 0.
    assert!(det[0].critical_a.is_positive());
    // The busy period is 14 (hand-computed in the module tests).
    assert_eq!(
        synchronous_busy_period(&set, FixpointConfig::default())
            .unwrap()
            .ticks(),
        14
    );
}

/// George, Rivierre & Spuri's non-preemptive EDF example shape: the
/// non-preemptive penalty falls only on tight-deadline tasks.
#[test]
fn george_np_edf_penalty_distribution() {
    let set = TaskSet::from_cdt(&[(1, 8, 20), (1, 14, 20), (6, 60, 60)]).unwrap();
    let (_, p) = edf_response_times(&set, &EdfRtaConfig::default()).unwrap();
    let (_, np) = np_edf_response_times(&set, &NpEdfRtaConfig::default()).unwrap();
    // Tight tasks pay blocking (Cmax − 1 = 5).
    assert_eq!((np[0].wcrt - p[0].wcrt).ticks(), 5);
    assert_eq!((np[1].wcrt - p[1].wcrt).ticks(), 5);
    // The long task pays nothing (it IS the blocker) — non-preemption can
    // even help it (no preemption after start).
    assert!(np[2].wcrt <= p[2].wcrt + set.tasks()[2].c);
}

/// Baruah/Mok/Rosier demand-criterion exemplar: feasibility flips exactly
/// at the deadline where cumulative demand crosses supply.
#[test]
fn demand_crossing_point() {
    // τ0=(3,5,10), τ1=(3,D,10): demand at t=D is 6; feasible iff D >= 6
    // (given t=5 carries only 3 <= 5).
    for (d1, feasible) in [(5, false), (6, true), (7, true)] {
        let set = TaskSet::from_cdt(&[(3, 5, 10), (3, d1, 10)]).unwrap();
        let r = edf_feasible_preemptive(&set, &DemandConfig::default()).unwrap();
        assert_eq!(
            r.feasible, feasible,
            "D1 = {d1}: expected feasible = {feasible}"
        );
    }
}

/// RM vs EDF separation: the classic set RM misses but EDF schedules.
#[test]
fn rm_edf_separation_set() {
    let set = TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap();
    let pm = PriorityMap::rate_monotonic(&set);
    let rm = response_times(&set, &pm, &RtaConfig::default()).unwrap();
    assert!(!rm.all_schedulable(), "RM should miss τ1 (r = 8 > 7)");
    let edf = edf_feasible_preemptive(&set, &DemandConfig::default()).unwrap();
    assert!(edf.feasible, "EDF schedules U = 34/35");
}

/// The eq. (4) pessimism gap: Zheng & Shin charge `max Ci` blocking at
/// every checkpoint, George et al.'s eq. (5) only the blocking of tasks
/// whose deadline lies beyond it. A lone task `(3, 5, 10)` blocks itself
/// under eq. (4) (3 + 3 > 5), and a short-deadline task next to a long
/// job is swamped by the long job's cost: both sets are eq. (5)-feasible
/// yet eq. (4)-infeasible.
#[test]
fn zheng_shin_rejects_sets_george_accepts() {
    for set in [
        TaskSet::from_cdt(&[(3, 5, 10)]).unwrap(),
        TaskSet::from_cdt(&[(2, 10, 20), (9, 100, 100)]).unwrap(),
    ] {
        let feasible = |blocking| {
            edf_feasible_nonpreemptive(
                &set,
                &NpFeasibilityConfig {
                    blocking,
                    formula: DemandFormula::Standard,
                    ..Default::default()
                },
            )
            .unwrap()
            .feasible
        };
        assert!(!feasible(NpBlockingModel::ZhengShin), "{set:?}");
        assert!(feasible(NpBlockingModel::George), "{set:?}");
    }
}
