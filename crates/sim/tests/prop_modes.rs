//! Mode-machine invariants for the mixed-criticality controller, pinned
//! over random churn plans, seeds, GAP factors and ring sizes:
//!
//! * HI traffic is never shed — every [`NetEvent::Shed`] names a sub-HI
//!   stream, and sheds happen only inside a degraded window.
//! * Every LO re-admission is justified by a completed match-up: each
//!   `ModeSwitch { degraded: false }` is emitted at the same instant as a
//!   [`NetEvent::Matchup`] with a positive waited span, and the two
//!   switch directions strictly alternate starting with a degrade.
//! * `time_to_matchup` is finite whenever the churn plan ends with a
//!   full ring: once every power-cycled master is back and the horizon
//!   leaves room for the clean-rotation span, a degraded run must close
//!   with a match-up (the last switch is LO-ward).
//! * The [`profirt_sim::ModeSummary`] counters agree with the raw event
//!   stream, and the whole stream is seed-deterministic.

use proptest::prelude::*;

use profirt_base::{Criticality, MasterAddr, StreamSet, Time};
use profirt_sim::network::run_network;
use profirt_sim::{
    simulate_network_stats, MembershipPlan, ModeSimConfig, NetEvent, NetworkSimConfig, SimMaster,
    SimNetwork, Trace,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// A mixed-criticality ring: master 0 carries one HI and one LO stream,
/// every other master one HI stream — so sheds can only ever name
/// master 0 / stream 1.
fn mixed_net(n_masters: usize) -> SimNetwork {
    let mut masters = vec![SimMaster::stock(
        StreamSet::from_cdt(&[(100, 5_000, 10_000), (100, 5_000, 10_000)]).unwrap(),
    )
    .with_addr(MasterAddr(0))
    .with_criticality(vec![Criticality::Hi, Criticality::Lo])];
    for k in 1..n_masters {
        masters.push(
            SimMaster::stock(StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap())
                .with_addr(MasterAddr(k as u8)),
        );
    }
    SimNetwork::new(masters, t(2_000), t(100)).unwrap()
}

/// Builds a plan of power cycles confined to masters 1.. and the first
/// quarter of the horizon, so every plan ends with a full ring and ample
/// time for the match-up span.
fn build_plan(n_masters: usize, cycles: &[(usize, i64, i64)]) -> MembershipPlan {
    let mut plan = MembershipPlan::new();
    for &(m, off_at, span) in cycles {
        let master = 1 + m % (n_masters - 1);
        plan = plan.power_cycle(master, t(off_at), t(off_at + span));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mode_machine_invariants_hold_under_churn(
        n_masters in 2usize..=4,
        cycles in proptest::collection::vec(
            (0usize..8, 10_000i64..60_000, 5_000i64..30_000),
            0..=2,
        ),
        seed in any::<u64>(),
        gap_factor in 1u32..4,
    ) {
        let net = mixed_net(n_masters);
        let plan = build_plan(n_masters, &cycles);
        let cfg = NetworkSimConfig {
            horizon: t(400_000),
            seed,
            gap_factor,
            membership: plan,
            mode: ModeSimConfig::enabled(),
            ..Default::default()
        };

        // Seed determinism, mode events included.
        let mut log = Trace::new(usize::MAX);
        run_network(&net, &cfg, &mut [&mut log]);
        let events = log.events().to_vec();
        let mut again = Trace::new(usize::MAX);
        run_network(&net, &cfg, &mut [&mut again]);
        prop_assert_eq!(&events[..], again.events());

        let mut degraded = false;
        let mut switches = 0u64;
        let mut sheds = 0u64;
        let mut matchups = 0u64;
        let mut max_waited = Time::ZERO;
        let mut prev: Option<(Time, NetEvent)> = None;
        for &(at, ev) in &events {
            match ev {
                NetEvent::ModeSwitch { degraded: to } => {
                    switches += 1;
                    // Strict alternation: LO→HI→LO→…, starting degraded.
                    prop_assert_ne!(to, degraded, "switch to the current mode at {}", at);
                    if !to {
                        // Re-admission must be justified by a completed
                        // match-up at the same instant.
                        let justified = matches!(
                            prev,
                            Some((m_at, NetEvent::Matchup { .. })) if m_at == at
                        );
                        prop_assert!(justified, "LO-ward switch at {} without a match-up", at);
                    }
                    degraded = to;
                }
                NetEvent::Shed { master, stream, .. } => {
                    sheds += 1;
                    prop_assert!(degraded, "shed outside a degraded window at {}", at);
                    let crit = net.masters[master].criticality_of(stream.0);
                    prop_assert!(
                        crit.shed_in_hi_mode(),
                        "HI stream M{}/S{} shed at {}",
                        master,
                        stream.0,
                        at
                    );
                }
                NetEvent::Matchup { waited } => {
                    matchups += 1;
                    prop_assert!(degraded, "match-up while not degraded at {}", at);
                    prop_assert!(waited.is_positive(), "zero match-up span at {}", at);
                    max_waited = max_waited.max(waited);
                }
                _ => {}
            }
            prev = Some((at, ev));
        }

        // The plan ends with a full ring a quarter into the horizon: a
        // degraded run must have matched back up before the end.
        if switches > 0 {
            prop_assert!(!degraded, "run ends degraded despite a full final ring");
            prop_assert_eq!(matchups * 2, switches);
            prop_assert!(max_waited.is_positive());
        } else {
            prop_assert_eq!(sheds, 0);
        }

        // The summary observer agrees with the raw stream.
        let (_, stats) = simulate_network_stats(&net, &cfg);
        prop_assert_eq!(stats.mode.switches, switches);
        prop_assert_eq!(stats.mode.sheds, sheds);
        prop_assert_eq!(stats.mode.matchups, matchups);
        prop_assert_eq!(stats.mode.max_time_to_matchup, max_waited);
    }
}
