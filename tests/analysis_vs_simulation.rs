//! Cross-crate validation: every analytical message response-time bound
//! must dominate what the discrete-event simulator observes on the same
//! network (the T8 experiment's contract, run here on a fixed seed batch).

use profirt::base::{Prng, Time};
use profirt::core::{
    max_feasible_ttr, DmAnalysis, EdfAnalysis, FcfsAnalysis, NetworkAnalysis, TcycleModel,
};
use profirt::profibus::{BusParams, QueuePolicy};
use profirt::sim::{
    simulate_network, JitterInjection, NetworkSimConfig, OffsetMode, SimMaster, SimNetwork,
};
use profirt::workload::{
    generate_network, GeneratedNetwork, NetGenParams, PeriodRange, StreamGenParams,
};

fn gen(seed: u64) -> GeneratedNetwork {
    let bus = BusParams::profile_500k();
    let params = NetGenParams {
        n_masters: 3,
        streams: StreamGenParams {
            nh: 3,
            req_payload: (2, 16),
            resp_payload: (2, 32),
            periods: PeriodRange::new(Time::new(80_000), Time::new(800_000), Time::new(100)),
            deadline_frac: (0.5, 1.0),
        },
        low_priority_prob: 0.4,
        low_payload: (8, 32),
        low_period: Time::new(500_000),
        ttr: Time::new(4_000),
        criticality_mix: Default::default(),
    };
    let mut rng = Prng::seed_from_u64(seed);
    let mut g = generate_network(&mut rng, &bus, &params).expect("generation");
    // Carry the simulator's token-pass overhead in the analysis view so the
    // Tcycle-derived bounds are sound against observation (see the fidelity
    // note on NetworkConfig::token_pass and the T5 finding).
    g.config = g.config.with_token_pass(Time::new(166));
    g
}

fn simulate(g: &GeneratedNetwork, policy: QueuePolicy, seed: u64) -> Vec<Vec<Time>> {
    let masters: Vec<SimMaster> = g
        .streams
        .iter()
        .zip(&g.low_priority)
        .map(|(s, lp)| {
            let mut m = match policy {
                QueuePolicy::Fcfs => SimMaster::stock(s.clone()),
                p => SimMaster::priority_queued(s.clone(), p),
            };
            m.low_priority = lp.clone();
            m
        })
        .collect();
    let net = SimNetwork {
        masters,
        ttr: g.config.ttr,
        token_pass: Time::new(166),
    };
    let obs = simulate_network(
        &net,
        &NetworkSimConfig {
            horizon: Time::new(8_000_000),
            seed,
            offsets: OffsetMode::Synchronous,
            jitter: JitterInjection::None,
            ..Default::default()
        },
    );
    obs.streams
        .iter()
        .map(|m| m.iter().map(|o| o.max_response).collect())
        .collect()
}

fn assert_dominates(bounds: &NetworkAnalysis, observed: &[Vec<Time>], label: &str) {
    for (k, rows) in bounds.masters.iter().enumerate() {
        for (i, row) in rows.iter().enumerate() {
            if row.schedulable {
                assert!(
                    observed[k][i] <= row.response_time,
                    "{label}: observed {:?} > bound {:?} at master {k} stream {i}",
                    observed[k][i],
                    row.response_time
                );
            }
        }
    }
}

#[test]
fn fcfs_bound_dominates_simulation() {
    for seed in 0..6 {
        let g = gen(seed);
        let an = FcfsAnalysis::paper().run(&g.config).unwrap();
        let obs = simulate(&g, QueuePolicy::Fcfs, seed);
        assert_dominates(&an, &obs, "FCFS");
    }
}

#[test]
fn dm_conservative_bound_dominates_simulation() {
    for seed in 0..6 {
        let g = gen(seed);
        let an = DmAnalysis::conservative().analyze(&g.config).unwrap();
        let obs = simulate(&g, QueuePolicy::DeadlineMonotonic, seed);
        assert_dominates(&an, &obs, "DM-conservative");
    }
}

#[test]
fn edf_bound_dominates_simulation() {
    for seed in 0..6 {
        let g = gen(seed);
        match EdfAnalysis::paper().analyze(&g.config) {
            Ok(an) => {
                let obs = simulate(&g, QueuePolicy::Edf, seed);
                assert_dominates(&an, &obs, "EDF");
            }
            Err(profirt::base::AnalysisError::UtilizationAtLeastOne) => {}
            Err(e) => panic!("unexpected analysis error: {e}"),
        }
    }
}

#[test]
fn trr_observation_bounded_by_tcycle() {
    for seed in 0..6 {
        let g = gen(seed);
        let an = FcfsAnalysis::paper().run(&g.config).unwrap();
        let masters: Vec<SimMaster> = g
            .streams
            .iter()
            .zip(&g.low_priority)
            .map(|(s, lp)| {
                let mut m = SimMaster::stock(s.clone());
                m.low_priority = lp.clone();
                m
            })
            .collect();
        let net = SimNetwork {
            masters,
            ttr: g.config.ttr,
            token_pass: Time::new(166),
        };
        let obs = simulate_network(
            &net,
            &NetworkSimConfig {
                horizon: Time::new(8_000_000),
                seed,
                ..Default::default()
            },
        );
        assert!(
            obs.max_trr_overall() <= an.tcycle,
            "seed {seed}: TRR {:?} exceeds Tcycle {:?}",
            obs.max_trr_overall(),
            an.tcycle
        );
    }
}

#[test]
fn paper_dm_optimism_is_covered_by_conservative() {
    // The literal eq. (16) may under-approximate (see `DmVariant` in
    // `core::dm`); whenever simulation exceeds the paper bound, the
    // conservative bound must still hold — and we record that the gap is
    // real at least somewhere is NOT required (networks here may or may
    // not expose it).
    for seed in 0..6 {
        let g = gen(seed);
        let paper = DmAnalysis::paper().analyze(&g.config).unwrap();
        let cons = DmAnalysis::conservative().analyze(&g.config).unwrap();
        let obs = simulate(&g, QueuePolicy::DeadlineMonotonic, seed);
        for (k, rows) in paper.masters.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                let c_row = cons.masters[k][i];
                if c_row.schedulable {
                    assert!(
                        obs[k][i] <= c_row.response_time,
                        "conservative DM bound violated at M{k}/S{i}"
                    );
                }
                let _ = row; // paper bound recorded by the T8 experiment
            }
        }
    }
}

#[test]
fn fcfs_at_max_feasible_ttr_is_miss_free() {
    // Eq. (15)'s TTR* is the largest target rotation time at which every
    // FCFS bound meets its deadline; stock masters tuned to it must not
    // miss a deadline in simulation either.
    let mut tuned = 0;
    for seed in 0..6 {
        let mut g = gen(seed);
        let Some(ttr) = max_feasible_ttr(&g.config, TcycleModel::Paper)
            .unwrap()
            .max_ttr
        else {
            continue;
        };
        g.config = g.config.with_ttr(ttr).unwrap();
        tuned += 1;
        let obs = simulate(&g, QueuePolicy::Fcfs, seed);
        for (k, master) in g.config.masters.iter().enumerate() {
            for (i, stream) in master.streams.streams().iter().enumerate() {
                assert!(
                    obs[k][i] <= stream.d,
                    "seed {seed}, TTR* {ttr:?}: M{k}/S{i} observed {:?} > D {:?}",
                    obs[k][i],
                    stream.d
                );
            }
        }
    }
    assert!(tuned > 0, "no network had a feasible TTR");
}
