//! Cross-crate validation of the §2 toolbox: generated task sets flow
//! through the analyses and the CPU simulator; bounds must dominate
//! observations and the independent tests must agree with each other.

use profirt::base::{Prng, Time};
use profirt::sched::edf::{
    edf_feasible_nonpreemptive, edf_feasible_preemptive, edf_response_times, np_edf_response_times,
    DemandConfig, EdfRtaConfig, NpEdfRtaConfig, NpFeasibilityConfig,
};
use profirt::sched::fixed::{
    np_response_times, response_times, rm_utilization_schedulable, NpFixedConfig, PriorityMap,
    RtaConfig,
};
use profirt::sim::{simulate_cpu, CpuPolicy, CpuSimConfig};
use profirt::workload::{generate_task_set, DeadlinePolicy, PeriodRange, TaskGenParams};

fn params(n: usize, u: f64) -> TaskGenParams {
    TaskGenParams {
        n,
        total_utilization: u,
        periods: PeriodRange::new(Time::new(100), Time::new(5_000), Time::new(10)),
        deadline: DeadlinePolicy::Implicit,
    }
}

#[test]
fn rta_bounds_dominate_preemptive_fp_simulation() {
    for seed in 0..20u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let set = generate_task_set(&mut rng, &params(5, 0.7)).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let rta = response_times(&set, &pm, &RtaConfig::default()).unwrap();
        let sim = simulate_cpu(
            &set,
            Some(&pm),
            &CpuSimConfig {
                policy: CpuPolicy::FixedPreemptive,
                horizon: Time::new(100_000),
                offsets: vec![],
                criticality: vec![],
                shed_lo: false,
            },
        );
        for (i, v) in rta.verdicts.iter().enumerate() {
            if let Some(bound) = v.wcrt() {
                assert!(
                    sim.max_response[i] <= bound,
                    "seed {seed}, task {i}: {:?} > {:?}",
                    sim.max_response[i],
                    bound
                );
            }
        }
    }
}

#[test]
fn np_rta_bounds_dominate_nonpreemptive_simulation() {
    for seed in 0..20u64 {
        let mut rng = Prng::seed_from_u64(1000 + seed);
        let set = generate_task_set(&mut rng, &params(4, 0.6)).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        let an = np_response_times(&set, &pm, &NpFixedConfig::george()).unwrap();
        // Adversarial offsets: shift each task in turn to start just before
        // the others (probing the blocking worst case).
        for shift in 0..set.len() {
            let offsets: Vec<Time> = (0..set.len())
                .map(|i| if i == shift { Time::ZERO } else { Time::ONE })
                .collect();
            let sim = simulate_cpu(
                &set,
                Some(&pm),
                &CpuSimConfig {
                    policy: CpuPolicy::FixedNonPreemptive,
                    horizon: Time::new(100_000),
                    offsets,
                    criticality: vec![],
                    shed_lo: false,
                },
            );
            for (i, v) in an.verdicts.iter().enumerate() {
                if let Some(bound) = v.wcrt() {
                    assert!(
                        sim.max_response[i] <= bound,
                        "seed {seed}, shift {shift}, task {i}: {:?} > {:?}",
                        sim.max_response[i],
                        bound
                    );
                }
            }
        }
    }
}

#[test]
fn edf_rta_bounds_dominate_edf_simulation_with_offset_sweep() {
    for seed in 0..12u64 {
        let mut rng = Prng::seed_from_u64(2_000 + seed);
        let set = generate_task_set(&mut rng, &params(4, 0.75)).unwrap();
        let Ok((an, _)) = edf_response_times(&set, &EdfRtaConfig::default()) else {
            continue; // realised utilisation rounded up to >= 1
        };
        // EDF worst cases need asynchronous patterns: sweep random offsets.
        for trial in 0..6u64 {
            let mut orng = Prng::seed_from_u64(seed * 100 + trial);
            let offsets: Vec<Time> = set.tasks().iter().map(|t| orng.time_in(t.t)).collect();
            let sim = simulate_cpu(
                &set,
                None,
                &CpuSimConfig {
                    policy: CpuPolicy::EdfPreemptive,
                    horizon: Time::new(150_000),
                    offsets,
                    criticality: vec![],
                    shed_lo: false,
                },
            );
            for (i, v) in an.verdicts.iter().enumerate() {
                if let Some(bound) = v.wcrt() {
                    assert!(
                        sim.max_response[i] <= bound,
                        "seed {seed} trial {trial} task {i}: {:?} > {:?}",
                        sim.max_response[i],
                        bound
                    );
                }
            }
        }
    }
}

#[test]
fn utilization_test_agrees_with_rta_and_simulation() {
    let mut accepted = 0;
    for seed in 0..40u64 {
        let mut rng = Prng::seed_from_u64(3_000 + seed);
        let u = 0.3 + 0.6 * (seed as f64 / 40.0);
        let set = generate_task_set(&mut rng, &params(4, u)).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        if rm_utilization_schedulable(&set).is_schedulable() {
            accepted += 1;
            // Sufficient test: RTA must agree...
            let rta = response_times(&set, &pm, &RtaConfig::default()).unwrap();
            assert!(rta.all_schedulable());
            // ...and so must the machine.
            let sim = simulate_cpu(
                &set,
                Some(&pm),
                &CpuSimConfig {
                    policy: CpuPolicy::FixedPreemptive,
                    horizon: Time::new(100_000),
                    offsets: vec![],
                    criticality: vec![],
                    shed_lo: false,
                },
            );
            assert!(sim.no_misses());
        }
    }
    assert!(
        accepted > 5,
        "LL test accepted too few sets to be meaningful"
    );
}

#[test]
fn edf_demand_feasible_sets_do_not_miss_in_simulation() {
    for seed in 0..20u64 {
        let mut rng = Prng::seed_from_u64(4_000 + seed);
        let set = generate_task_set(&mut rng, &params(5, 0.85)).unwrap();
        let feas = edf_feasible_preemptive(&set, &DemandConfig::default()).unwrap();
        if feas.feasible {
            let sim = simulate_cpu(
                &set,
                None,
                &CpuSimConfig {
                    policy: CpuPolicy::EdfPreemptive,
                    horizon: Time::new(200_000),
                    offsets: vec![],
                    criticality: vec![],
                    shed_lo: false,
                },
            );
            assert!(sim.no_misses(), "seed {seed}: feasible set missed");
        }
    }
}

#[test]
fn np_edf_feasible_sets_do_not_miss_in_simulation() {
    // Eq. (5) on wide period spreads (strong blocking) with constrained
    // deadlines: every accepted set runs miss-free under non-preemptive
    // EDF from a synchronous release.
    let mut accepted = 0;
    for seed in 0..60u64 {
        let mut rng = Prng::seed_from_u64(5_000 + seed);
        let params = TaskGenParams {
            n: [3, 4][seed as usize % 2],
            total_utilization: [0.3, 0.4, 0.5][seed as usize % 3],
            periods: PeriodRange::new(Time::new(50), Time::new(20_000), Time::new(10)),
            deadline: DeadlinePolicy::ConstrainedFraction {
                min_frac: 0.5,
                max_frac: 1.0,
            },
        };
        let set = generate_task_set(&mut rng, &params).unwrap();
        let feas = edf_feasible_nonpreemptive(&set, &NpFeasibilityConfig::default()).unwrap();
        if feas.feasible {
            accepted += 1;
            let sim = simulate_cpu(
                &set,
                None,
                &CpuSimConfig {
                    policy: CpuPolicy::EdfNonPreemptive,
                    horizon: Time::new(200_000),
                    offsets: vec![],
                    criticality: vec![],
                    shed_lo: false,
                },
            );
            assert!(sim.no_misses(), "seed {seed}: eq. (5)-feasible set missed");
        }
    }
    assert!(accepted >= 10, "eq. (5) accepted only {accepted} set(s)");
}

#[test]
fn edf_and_np_edf_rta_bounds_dominate_simulation() {
    // Spuri's preemptive and George's non-preemptive EDF bounds against
    // both simulators, from a synchronous release and three random
    // offset patterns.
    for seed in 0..12u64 {
        let mut rng = Prng::seed_from_u64(6_000 + seed);
        let u = [0.55, 0.7, 0.85][seed as usize % 3];
        let set = generate_task_set(&mut rng, &params(4, u)).unwrap();
        let (Ok((_, p)), Ok((_, np))) = (
            edf_response_times(&set, &EdfRtaConfig::default()),
            np_edf_response_times(&set, &NpEdfRtaConfig::default()),
        ) else {
            continue; // realised utilisation rounded up to >= 1
        };
        for trial in 0..4u64 {
            let offsets: Vec<Time> = if trial == 0 {
                vec![]
            } else {
                let mut orng = Prng::seed_from_u64(seed * 17 + trial);
                set.tasks().iter().map(|t| orng.time_in(t.t)).collect()
            };
            for (policy, bounds) in [
                (CpuPolicy::EdfPreemptive, &p),
                (CpuPolicy::EdfNonPreemptive, &np),
            ] {
                let sim = simulate_cpu(
                    &set,
                    None,
                    &CpuSimConfig {
                        policy,
                        horizon: Time::new(60_000),
                        offsets: offsets.clone(),
                        criticality: vec![],
                        shed_lo: false,
                    },
                );
                for (i, b) in bounds.iter().enumerate() {
                    assert!(
                        sim.max_response[i] <= b.wcrt,
                        "seed {seed} trial {trial} {policy:?} task {i}: {:?} > {:?}",
                        sim.max_response[i],
                        b.wcrt
                    );
                }
            }
        }
    }
}
