//! Cross-crate tests for the fault-injection extensions: bounds under
//! cycle undershoot, recovery accounting under token loss, and trace
//! consistency.

use profirt::base::Prng;
use profirt::base::Time;
use profirt::core::{low_priority_outlook, DmAnalysis, FcfsAnalysis};
use profirt::profibus::{token_recovery_timeout, BusParams, QueuePolicy};
use profirt::sim::{
    simulate_network, simulate_network_traced, NetEvent, NetworkSimConfig, SimMaster, SimNetwork,
};
use profirt::workload::{generate_network, NetGenParams, PeriodRange, StreamGenParams};

fn gen(seed: u64) -> (profirt::core::NetworkConfig, SimNetwork) {
    let params = NetGenParams {
        n_masters: 3,
        streams: StreamGenParams {
            nh: 3,
            req_payload: (2, 16),
            resp_payload: (2, 32),
            periods: PeriodRange::new(Time::new(80_000), Time::new(800_000), Time::new(100)),
            deadline_frac: (0.8, 1.0),
        },
        low_priority_prob: 0.3,
        low_payload: (8, 32),
        low_period: Time::new(500_000),
        ttr: Time::new(4_000),
        criticality_mix: Default::default(),
    };
    let mut rng = Prng::seed_from_u64(seed);
    let g = generate_network(&mut rng, &BusParams::profile_500k(), &params).unwrap();
    let config = g.config.clone().with_token_pass(Time::new(166));
    let sim = SimNetwork {
        masters: g
            .streams
            .iter()
            .zip(&g.low_priority)
            .map(|(s, lp)| {
                let mut m = SimMaster::priority_queued(s.clone(), QueuePolicy::DeadlineMonotonic);
                m.low_priority = lp.clone();
                m
            })
            .collect(),
        ttr: config.ttr,
        token_pass: Time::new(166),
    };
    (config, sim)
}

#[test]
fn dm_bounds_hold_under_cycle_undershoot() {
    // Undershoot only shortens actual cycles; despite the non-monotonicity
    // anomaly, worst-case bounds computed from full Ch must dominate.
    for seed in 0..4 {
        let (config, sim) = gen(seed);
        let bounds = DmAnalysis::conservative().analyze(&config).unwrap();
        for undershoot in [0.3, 0.7] {
            let obs = simulate_network(
                &sim,
                &NetworkSimConfig {
                    horizon: Time::new(6_000_000),
                    seed,
                    cycle_undershoot: undershoot,
                    ..Default::default()
                },
            );
            for (k, rows) in bounds.masters.iter().enumerate() {
                for (i, row) in rows.iter().enumerate() {
                    if row.schedulable {
                        assert!(
                            obs.streams[k][i].max_response <= row.response_time,
                            "seed {seed} undershoot {undershoot}: M{k}/S{i} \
                             {:?} > {:?}",
                            obs.streams[k][i].max_response,
                            row.response_time
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn multi_master_trr_bounded_without_faults() {
    for seed in 0..4 {
        let (config, sim) = gen(seed);
        let an = FcfsAnalysis::paper().run(&config).unwrap();
        let obs = simulate_network(
            &sim,
            &NetworkSimConfig {
                horizon: Time::new(6_000_000),
                seed,
                ..Default::default()
            },
        );
        assert!(obs.max_trr_overall() <= an.tcycle);
        assert_eq!(obs.token_recoveries, 0);
    }
}

#[test]
fn token_loss_rotations_explained_by_recovery_timeout() {
    // Every rotation stretch beyond the fault-free bound must be
    // attributable to recoveries: max TRR <= fault-free Tcycle plus the
    // recovery delay times the worst per-rotation loss count (loose, but
    // structurally meaningful: one recovery adds exactly 6*TSL).
    let (config, sim) = gen(1);
    let an = FcfsAnalysis::paper().run(&config).unwrap();
    let slot = Time::new(200);
    let obs = simulate_network(
        &sim,
        &NetworkSimConfig {
            horizon: Time::new(6_000_000),
            seed: 1,
            token_loss_prob: 0.02,
            slot_time: slot,
            ..Default::default()
        },
    );
    assert!(obs.token_recoveries > 0);
    // A rotation of n masters has n pass attempts; allow a generous 8
    // consecutive losses per rotation before declaring the model broken.
    let budget = an.tcycle + slot * 6 * 8;
    assert!(
        obs.max_trr_overall() <= budget,
        "TRR {:?} not explained by recoveries (budget {:?})",
        obs.max_trr_overall(),
        budget
    );
}

#[test]
fn trace_recovery_count_matches_result_and_fdl_timeout_is_plausible() {
    let (_, sim) = gen(2);
    let cfg = NetworkSimConfig {
        horizon: Time::new(2_000_000),
        seed: 2,
        token_loss_prob: 0.05,
        ..Default::default()
    };
    let (result, trace) = simulate_network_traced(&sim, &cfg, 1_000_000);
    let recoveries = trace
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, NetEvent::Recovery { claimant: 0 }))
        .count() as u64;
    assert_eq!(recoveries, result.token_recoveries);

    // The simulator's flat 6*TSL recovery matches the FDL state machine's
    // timeout for the lowest-address master.
    let p = BusParams::profile_500k();
    assert_eq!(
        token_recovery_timeout(&p, profirt::base::MasterAddr(0)),
        p.slot_time * 6
    );
}

#[test]
fn low_priority_outlook_consistent_with_generated_networks() {
    for seed in 0..8 {
        let (config, _) = gen(seed);
        let o = low_priority_outlook(&config).unwrap();
        // Generated networks are lightly loaded: no starvation risk and a
        // positive residual unless the burst is extreme.
        assert!(o.high_utilization.to_f64() < 0.5);
        if !o.starvation_risk {
            // TTR covers the burst: residual reflects the utilisation gap.
            assert!(o.burst < config.ttr || o.residual_per_rotation.is_zero());
        }
    }
}
