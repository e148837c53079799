//! Property-based tests for the schedulability analyses.

use proptest::prelude::*;

use profirt_base::{Task, TaskSet, Time};
use profirt_sched::edf::{
    edf_feasible_nonpreemptive, edf_feasible_preemptive, edf_response_times, np_edf_response_times,
    synchronous_busy_period, DemandConfig, DemandFormula, EdfRtaConfig, NpBlockingModel,
    NpEdfRtaConfig, NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    hyperbolic_schedulable, np_response_times, response_times, rm_utilization_schedulable,
    BlockingRule, NpFixedConfig, NpFixedVariant, PriorityMap, RtaConfig,
};
use profirt_sched::FixpointConfig;

/// Small random constrained-deadline task sets with bounded utilisation.
fn arb_task_set(max_n: usize) -> impl Strategy<Value = TaskSet> {
    proptest::collection::vec((1i64..20, 1i64..100, 0i64..50), 1..=max_n).prop_map(|raw| {
        let tasks: Vec<Task> = raw
            .into_iter()
            .map(|(c, t_extra, d_slack)| {
                // T = 5*C + extra ensures per-task utilisation <= 0.2,
                // so sets of <= 4 tasks stay under U = 0.8 < 1.
                let t = 5 * c + t_extra;
                let d = (c + d_slack).min(t);
                Task::new(c, d, t).unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn utilization_tests_sound_wrt_rta(set in arb_task_set(4)) {
        // LL and hyperbolic are sufficient tests for implicit-deadline RM:
        // build the implicit version of the set.
        let implicit = TaskSet::new(
            set.tasks().iter().map(|t| Task::implicit(t.c, t.t).unwrap()).collect()
        ).unwrap();
        let pm = PriorityMap::rate_monotonic(&implicit);
        let rta = response_times(&implicit, &pm, &RtaConfig::default()).unwrap();
        if rm_utilization_schedulable(&implicit).is_schedulable() {
            prop_assert!(rta.all_schedulable(), "LL accepted an RTA-infeasible set");
        }
        if hyperbolic_schedulable(&implicit).is_schedulable() {
            prop_assert!(rta.all_schedulable(), "hyperbolic accepted an RTA-infeasible set");
        }
    }

    #[test]
    fn rta_monotone_in_cost(set in arb_task_set(4), which in 0usize..4) {
        let idx = which % set.len();
        let mut bumped: Vec<Task> = set.tasks().to_vec();
        if bumped[idx].c + Time::ONE > bumped[idx].d {
            return Ok(()); // bump would invalidate the task
        }
        bumped[idx].c += Time::ONE;
        let bumped = TaskSet::new(bumped).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        let pm2 = PriorityMap::deadline_monotonic(&bumped);
        let a = response_times(&set, &pm, &RtaConfig::default()).unwrap();
        let b = response_times(&bumped, &pm2, &RtaConfig::default()).unwrap();
        for (va, vb) in a.verdicts.iter().zip(b.verdicts.iter()) {
            if let (Some(ra), Some(rb)) = (va.wcrt(), vb.wcrt()) {
                prop_assert!(rb >= ra, "response shrank after cost bump");
            }
        }
    }

    #[test]
    fn np_george_dominates_audsley(set in arb_task_set(4)) {
        let pm = PriorityMap::deadline_monotonic(&set);
        let mk = |variant| NpFixedConfig {
            variant,
            blocking: BlockingRule::MaxLowerCost,
            fixpoint: FixpointConfig::default(),
        };
        let aud = np_response_times(&set, &pm, &mk(NpFixedVariant::Audsley)).unwrap();
        let geo = np_response_times(&set, &pm, &mk(NpFixedVariant::George)).unwrap();
        for (a, g) in aud.verdicts.iter().zip(geo.verdicts.iter()) {
            if let (Some(ra), Some(rg)) = (a.wcrt(), g.wcrt()) {
                prop_assert!(rg >= ra);
            }
        }
    }

    #[test]
    fn np_rta_dominates_preemptive_rta(set in arb_task_set(4)) {
        // Non-preemptive response of the highest-priority task >= its
        // preemptive response (blocking can only hurt).
        let pm = PriorityMap::deadline_monotonic(&set);
        let p = response_times(&set, &pm, &RtaConfig::default()).unwrap();
        let np = np_response_times(&set, &pm, &NpFixedConfig::george()).unwrap();
        let top = pm.by_urgency()[0];
        if let (Some(rp), Some(rnp)) = (p.verdicts[top].wcrt(), np.verdicts[top].wcrt()) {
            prop_assert!(rnp >= rp);
        }
    }

    #[test]
    fn demand_function_monotone_and_stepped(set in arb_task_set(4), at in 0i64..2_000) {
        let t0 = Time::new(at);
        let t1 = Time::new(at + 1);
        for f in [DemandFormula::Standard, DemandFormula::PaperCeiling] {
            let h0 = profirt_sched::edf::demand(&set, t0, f);
            let h1 = profirt_sched::edf::demand(&set, t1, f);
            prop_assert!(h1 >= h0, "demand decreased");
        }
        // Ceiling form never exceeds the standard form.
        prop_assert!(
            profirt_sched::edf::demand(&set, t0, DemandFormula::PaperCeiling)
                <= profirt_sched::edf::demand(&set, t0, DemandFormula::Standard)
        );
    }

    #[test]
    fn edf_rta_agrees_with_demand_test(set in arb_task_set(4)) {
        let dem = edf_feasible_preemptive(&set, &DemandConfig::default()).unwrap();
        let rta = edf_response_times(&set, &EdfRtaConfig::default());
        match rta {
            Ok((an, details)) => {
                prop_assert_eq!(an.all_schedulable(), dem.feasible,
                    "EDF RTA and demand test disagree");
                let l = synchronous_busy_period(&set, FixpointConfig::default()).unwrap();
                for (i, d) in details.iter().enumerate() {
                    prop_assert!(d.wcrt >= set.tasks()[i].c);
                    prop_assert!(d.wcrt <= l);
                }
            }
            Err(_) => prop_assert!(!dem.feasible || !set.total_utilization().lt_one()),
        }
    }

    #[test]
    fn np_edf_rta_agrees_with_np_feasibility(set in arb_task_set(3)) {
        let feas = edf_feasible_nonpreemptive(
            &set,
            &NpFeasibilityConfig {
                blocking: NpBlockingModel::George,
                formula: DemandFormula::Standard,
                fixpoint: FixpointConfig::default(),
            },
        )
        .unwrap();
        if let Ok((an, _)) = np_edf_response_times(&set, &NpEdfRtaConfig::default()) {
            prop_assert_eq!(
                an.all_schedulable(),
                feas.feasible,
                "np-EDF RTA vs feasibility disagree on {:?}", set
            );
        }
    }

    #[test]
    fn george_np_feasibility_no_more_pessimistic_than_zheng_shin(set in arb_task_set(4)) {
        let zs = edf_feasible_nonpreemptive(
            &set,
            &NpFeasibilityConfig {
                blocking: NpBlockingModel::ZhengShin,
                formula: DemandFormula::Standard,
                fixpoint: FixpointConfig::default(),
            },
        )
        .unwrap();
        let g = edf_feasible_nonpreemptive(
            &set,
            &NpFeasibilityConfig {
                blocking: NpBlockingModel::George,
                formula: DemandFormula::Standard,
                fixpoint: FixpointConfig::default(),
            },
        )
        .unwrap();
        if zs.feasible {
            prop_assert!(g.feasible, "eq. (5) rejected a set eq. (4) accepted");
        }
    }

    #[test]
    fn busy_period_bounds_total_cost(set in arb_task_set(4)) {
        let l = synchronous_busy_period(&set, FixpointConfig::default()).unwrap();
        prop_assert!(l >= set.total_cost());
        // And the busy period is a genuine fixpoint of W.
        let w: Time = set
            .tasks()
            .iter()
            .map(|t| t.c * l.ceil_div(t.t).max(1))
            .sum();
        prop_assert_eq!(w, l);
    }
}
