//! Live-ring dynamics: tick-exact unit tests for GAP-driven joins and
//! failed-pass leave detection, claim recovery after a holder crash, and
//! churn property tests pinning determinism (same seed + plan ⇒ same
//! event stream) plus the ring-consistency invariants (the token holder
//! is always a ring member; every admitted master was GAP-polled or
//! claimed first).

use proptest::prelude::*;

use profirt_base::{MasterAddr, StreamSet, Time};
use profirt_profibus::QueuePolicy;
use profirt_sim::network::run_network;
use profirt_sim::{
    simulate_network, simulate_network_stats, MembershipAction, MembershipPlan, ModeSimConfig,
    NetEvent, NetworkSimConfig, SimMaster, SimNetwork, Trace,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// The raw event stream.
fn run_logged(net: &SimNetwork, cfg: &NetworkSimConfig) -> Vec<(Time, NetEvent)> {
    let mut log = Trace::new(usize::MAX);
    run_network(net, cfg, &mut [&mut log]);
    log.events().to_vec()
}

fn quiet_master(addr: u8) -> SimMaster {
    SimMaster::stock(StreamSet::new(vec![]).unwrap()).with_addr(MasterAddr(addr))
}

/// GAP admission, tick for tick. Ring {0, 2}, joiner at address 1 powered
/// on at t = 0, GAP factor 1, no traffic, token_pass = 100, TSL = 200.
/// 500 kbit/s GAP poll costs: answered = TSYN + SD1 + maxTSDR + SD1 + TID1
/// = 33+66+100+66+37 = 302; silent = TSYN + SD1 + TSL = 33+66+200 = 299.
///
/// t=0    visit M0 (wrap #1 for the listener), poll addr 1 → not ready
///        (one rotation observed), +302 → pass +100
/// t=402  visit M2, poll addr 3 → silent, +299 → pass +100
/// t=801  visit M0 (wrap #2 → ready), poll addr 1 → MasterReady, +302:
///        M1 joins at 1103 → pass +100
/// t=1203 first token arrival at M1.
#[test]
fn join_latency_two_rotations_then_gap_admission() {
    let net = SimNetwork::new(
        vec![quiet_master(0), quiet_master(1), quiet_master(2)],
        t(10_000),
        t(100),
    )
    .unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(3_000),
        gap_factor: 1,
        membership: MembershipPlan::new()
            .starts_off(1)
            .at(t(0), 1, MembershipAction::PowerOn),
        ..Default::default()
    };
    let events = run_logged(&net, &cfg);

    // First poll of address 1 happens on the first visit but does not
    // admit: only one rotation observed.
    let first_poll = events
        .iter()
        .find(|(_, e)| matches!(e, NetEvent::GapPoll { target, .. } if *target == MasterAddr(1)))
        .expect("address 1 polled");
    assert_eq!(first_poll.0, t(0));
    assert!(
        matches!(first_poll.1, NetEvent::GapPoll { admitted: None, .. }),
        "one observed rotation must not satisfy the LAS-learning rule"
    );

    // The admitting poll starts at t = 801 and completes at t = 1103.
    let admitting = events
        .iter()
        .find(|(_, e)| {
            matches!(
                e,
                NetEvent::GapPoll {
                    admitted: Some(1),
                    ..
                }
            )
        })
        .expect("admitting poll");
    assert_eq!(admitting.0, t(801));
    let join = events
        .iter()
        .find(|(_, e)| matches!(e, NetEvent::MasterJoin { master: 1 }))
        .expect("join event");
    assert_eq!(join.0, t(1_103));

    // The very next rotation already includes the joiner.
    let first_arrival = events
        .iter()
        .find(|(_, e)| matches!(e, NetEvent::TokenArrival { master: 1, .. }))
        .expect("token reaches the joiner");
    assert_eq!(first_arrival.0, t(1_203));
}

/// Leave detection, tick for tick. Ring {0, 1, 2}, no GAP polling, M1
/// powers off at t = 150; token_pass = 100, TSL = 200, max_retry = 1 so a
/// dead successor costs 2·(pass + TSL) = 600 before the skip.
///
/// t=0..300 rotation reaches M0 again (M1's death applied at t = 200).
/// t=300  M0 passes: attempt +100 → silence +200 → retry +300:
///        M1 dropped at t = 900, next member +100 → M2 at t = 1000.
#[test]
fn leave_detection_retries_exhaust_then_successor_skip() {
    let net = SimNetwork::new(
        vec![quiet_master(0), quiet_master(1), quiet_master(2)],
        t(10_000),
        t(100),
    )
    .unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(2_000),
        membership: MembershipPlan::new().at(t(150), 1, MembershipAction::PowerOff),
        ..Default::default()
    };
    let events = run_logged(&net, &cfg);

    let leave = events
        .iter()
        .find(|(_, e)| matches!(e, NetEvent::MasterLeave { master: 1 }))
        .expect("leave detected");
    assert_eq!(leave.0, t(900));
    // The skip pass lands on M2 at t = 1000.
    assert!(events.contains(&(t(1_000), NetEvent::TokenPass { from: 0, to: 2 })));
    assert!(events
        .iter()
        .any(|(at, e)| *at == t(1_000) && matches!(e, NetEvent::TokenArrival { master: 2, .. })));
    // M1 receives no token after its last pre-death arrival at t = 100.
    let last_m1 = events
        .iter()
        .filter(|(_, e)| matches!(e, NetEvent::TokenArrival { master: 1, .. }))
        .map(|(at, _)| *at)
        .max()
        .unwrap();
    assert_eq!(last_m1, t(100));
}

/// A holder crash makes the token vanish: the surviving lowest-address
/// powered member claims it after its staggered timeout
/// `TTO = (6 + 2·addr)·TSL`.
#[test]
fn holder_crash_recovers_through_claim_timeout() {
    let net = SimNetwork::new(vec![quiet_master(0), quiet_master(1)], t(10_000), t(100)).unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(5_000),
        membership: MembershipPlan::new().at(t(0), 0, MembershipAction::Crash),
        ..Default::default()
    };
    let events = run_logged(&net, &cfg);
    // M0 crashes before its first visit; M1 (addr 1) claims after
    // (6 + 2)·200 = 1600 ticks of silence.
    let claim = events
        .iter()
        .find(|(_, e)| matches!(e, NetEvent::Claim { master: 1 }))
        .expect("claim");
    assert_eq!(claim.0, t(1_600));
    assert!(events
        .iter()
        .any(|(at, e)| *at == t(1_600) && matches!(e, NetEvent::TokenArrival { master: 1, .. })));
    assert!(
        !events
            .iter()
            .any(|(_, e)| matches!(e, NetEvent::TokenArrival { master: 0, .. })),
        "the crashed master must never see the token"
    );
    // Its corpse is skipped out of the LAS on M1's first pass.
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, NetEvent::MasterLeave { master: 0 })));
}

/// Ring statistics surface the membership timeline.
#[test]
fn ring_stats_track_churn() {
    let streams = StreamSet::from_cdt(&[(200, 20_000, 10_000)]).unwrap();
    let mk = |addr: u8| SimMaster::stock(streams.clone()).with_addr(MasterAddr(addr));
    let net = SimNetwork::new(vec![mk(0), mk(1), mk(2)], t(3_000), t(100)).unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(400_000),
        gap_factor: 2,
        membership: MembershipPlan::new().power_cycle(2, t(50_000), t(80_000)),
        ..Default::default()
    };
    let (result, stats) = simulate_network_stats(&net, &cfg);
    assert_eq!(stats.ring.min_size, 2, "{:?}", stats.ring);
    assert_eq!(stats.ring.max_size, 3);
    assert_eq!(stats.ring.final_size, 3, "the master must rejoin");
    assert_eq!(stats.ring.events, 2); // one leave + one rejoin
    assert!(stats.ring.gap_polls > 0);
    assert!(result.token_visits[2] > 0);
    // Rotation histograms exist for both ring sizes the run passed
    // through, and the small ring rotates strictly faster on average.
    assert_eq!(
        stats
            .trr_by_ring_size
            .iter()
            .map(|(s, _)| *s)
            .collect::<Vec<_>>(),
        vec![2, 3]
    );
    let mean = |s: &profirt_sim::HistSummary| s.mean;
    let two = &stats.trr_by_ring_size[0].1;
    let three = &stats.trr_by_ring_size[1].1;
    assert!(
        mean(two) < mean(three),
        "2-ring {:?} vs 3-ring {:?}",
        two,
        three
    );
}

/// `NetworkSimConfig::default()` is the fixed §3.1 ring; GAP polling on
/// the same network makes the ring live and costs rotation time.
#[test]
fn defaults_select_the_fixed_ring() {
    assert!(NetworkSimConfig::default().is_static_ring());
    // GAP polling alone (no churn) leaves the ring full but costs
    // rotation time: the poll overhead must show up in max TRR.
    let streams = StreamSet::from_cdt(&[(200, 20_000, 10_000)]).unwrap();
    let net = SimNetwork::new(
        vec![SimMaster::stock(streams.clone()), SimMaster::stock(streams)],
        t(3_000),
        t(100),
    )
    .unwrap();
    let quiet = simulate_network(&net, &NetworkSimConfig::default());
    let polled = simulate_network(
        &net,
        &NetworkSimConfig {
            gap_factor: 1,
            ..Default::default()
        },
    );
    assert!(polled.max_trr_overall() > quiet.max_trr_overall());
    // Same served traffic either way on this uncontended network.
    assert_eq!(
        quiet
            .streams
            .iter()
            .flatten()
            .map(|o| o.misses)
            .sum::<u64>(),
        0
    );
    assert_eq!(
        polled
            .streams
            .iter()
            .flatten()
            .map(|o| o.misses)
            .sum::<u64>(),
        0
    );
}

/// The token follows FDL address order on every ring, not ring-vector
/// order: masters at addresses [5, 2, 9] pass 0→2→1→0 (5 → 9 → 2 → 5) on
/// the static ring, with the mode controller armed, and on the live
/// `RingController` path (forced by a membership event at the horizon,
/// which never fires).
#[test]
fn token_order_is_address_order_on_every_ring() {
    let net = SimNetwork::new(
        vec![quiet_master(5), quiet_master(2), quiet_master(9)],
        t(10_000),
        t(100),
    )
    .unwrap();
    let fixed = NetworkSimConfig {
        horizon: t(1_000),
        ..Default::default()
    };
    let moded = NetworkSimConfig {
        mode: ModeSimConfig::enabled(),
        ..fixed.clone()
    };
    let passes = |cfg: &NetworkSimConfig| -> Vec<(usize, usize)> {
        run_logged(&net, cfg)
            .into_iter()
            .filter_map(|(_, e)| match e {
                NetEvent::TokenPass { from, to } => Some((from, to)),
                _ => None,
            })
            .collect()
    };
    let live_ring = NetworkSimConfig {
        membership: MembershipPlan::new().at(t(1_000), 0, MembershipAction::Crash),
        ..fixed.clone()
    };
    let static_passes = passes(&fixed);
    assert_eq!(static_passes[..3], [(0, 2), (2, 1), (1, 0)]);
    assert_eq!(static_passes, passes(&moded));
    assert_eq!(static_passes, passes(&live_ring));
}

fn arb_plan() -> impl Strategy<Value = MembershipPlan> {
    (
        proptest::collection::vec((1usize..3, 1i64..90_000, 1i64..90_000), 0..=3),
        proptest::collection::vec(1usize..3, 0..=1),
    )
        .prop_map(|(cycles, off)| {
            let mut plan = MembershipPlan::new();
            for m in off {
                plan = plan.starts_off(m);
            }
            for (m, a, b) in cycles {
                plan = plan.power_cycle(m, t(a.min(b)), t(a.max(b) + 1));
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn determinism + ring-consistency invariants over random plans,
    /// seeds, GAP factors and fault injection.
    #[test]
    fn churn_runs_are_deterministic_and_ring_consistent(
        plan in arb_plan(),
        seed in any::<u64>(),
        gap_factor in 1u32..4,
        lossy in any::<bool>(),
    ) {
        let streams = StreamSet::from_cdt(&[(150, 6_000, 8_000), (250, 9_000, 12_000)]).unwrap();
        let mk = |addr: u8| {
            SimMaster::priority_queued(streams.clone(), QueuePolicy::DeadlineMonotonic)
                .with_addr(MasterAddr(addr))
        };
        let net = SimNetwork::new(vec![mk(0), mk(1), mk(2)], t(4_000), t(166)).unwrap();
        let cfg = NetworkSimConfig {
            horizon: t(120_000),
            seed,
            gap_factor,
            token_loss_prob: if lossy { 0.05 } else { 0.0 },
            membership: plan,
            ..Default::default()
        };

        // Same seed + plan ⇒ byte-identical event stream (and therefore
        // identical results for any observer set).
        let a = run_logged(&net, &cfg);
        let b = run_logged(&net, &cfg);
        prop_assert_eq!(&a, &b);

        // Ring-consistency invariants over the stream.
        let mut in_ring = [true; 3];
        for m in cfg.membership.initially_off() {
            in_ring[*m] = false;
        }
        let mut prev: Option<NetEvent> = None;
        for (_, ev) in &a {
            match *ev {
                NetEvent::TokenArrival { master, .. } => {
                    prop_assert!(in_ring[master], "token at non-member {master}");
                }
                NetEvent::MasterJoin { master } => {
                    prop_assert!(!in_ring[master], "double join {master}");
                    // Every admission is justified by the event before it:
                    // a GAP poll that found the master ready, or its claim
                    // of a dead bus.
                    let justified = matches!(
                        prev,
                        Some(NetEvent::GapPoll { admitted: Some(m), .. }) if m == master
                    ) || matches!(
                        prev,
                        Some(NetEvent::Claim { master: m }) if m == master
                    );
                    prop_assert!(justified, "unjustified join of {master} after {prev:?}");
                    in_ring[master] = true;
                }
                NetEvent::MasterLeave { master } => {
                    prop_assert!(in_ring[master], "leave of non-member {master}");
                    in_ring[master] = false;
                }
                NetEvent::TokenPass { from, to } => {
                    prop_assert!(in_ring[from] && in_ring[to]);
                }
                _ => {}
            }
            prev = Some(*ev);
        }
    }
}
