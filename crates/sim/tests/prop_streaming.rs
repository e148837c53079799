//! Differential property tests: the streaming kernels must reproduce the
//! pre-materialized reference simulators **exactly** — same
//! `NetworkSimResult` / `CpuSimResult`, field for field — across random
//! networks, FDL address orders, seeds, offset/jitter modes, queue
//! policies, and fault injection; and the network kernel's fixed-ring
//! step must emit the same event stream as its full `RingController`
//! path on the same ring. Plus the long-horizon memory contract: the
//! kernel's release state stays O(streams) no matter the horizon.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use profirt_base::{Criticality, MasterAddr, MessageStream, StreamSet, Task, TaskSet, Time};
use profirt_profibus::{LowPriorityTraffic, QueuePolicy};
use profirt_sched::fixed::PriorityMap;
use profirt_sim::network::run_network;
use profirt_sim::{
    simulate_cpu, simulate_cpu_materialized, simulate_network, simulate_network_materialized,
    simulate_network_stats, CpuPolicy, CpuSimConfig, JitterInjection, MembershipAction,
    MembershipPlan, ModeSimConfig, NetEvent, NetworkSimConfig, OffsetMode, SimMaster, SimNetwork,
    Trace,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// Cases of the network differentials: `PROPTEST_CASES` when set (CI
/// runs 2048 in release), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// How the masters are addressed: `None` keeps the ring-index default;
/// `Some((base, stride, keys))` assigns explicit addresses `base +
/// stride·rank`, the ranks a random permutation (the order of `keys`), so
/// the address order is usually not the ring-vector order.
type Addressing = Option<(u8, u8, [u64; 4])>;

fn arb_addressing() -> impl Strategy<Value = Addressing> {
    (0u8..3, 0u8..20, 1u8..30, any::<[u64; 4]>())
        .prop_map(|(mode, base, stride, keys)| (mode > 0).then_some((base, stride, keys)))
}

/// Applies `addressing` to at most four masters.
fn address(masters: &mut [SimMaster], addressing: Addressing) {
    let Some((base, stride, keys)) = addressing else {
        return;
    };
    let mut order: Vec<usize> = (0..masters.len()).collect();
    order.sort_by_key(|&k| keys[k]);
    for (rank, &k) in order.iter().enumerate() {
        masters[k].addr = Some(MasterAddr(base + stride * rank as u8));
    }
}

/// Streams with deliberately wild jitter (J can exceed T, so the lazy
/// generators' reorder buffering is exercised) and deadlines both tight
/// and lax.
fn arb_streams() -> impl Strategy<Value = StreamSet> {
    proptest::collection::vec((50i64..400, 1i64..12, 1i64..8, 0i64..4), 0..=4).prop_map(|raw| {
        let streams: Vec<MessageStream> = raw
            .into_iter()
            .map(|(ch, df, tf, jf)| {
                MessageStream::with_jitter(
                    Time::new(ch),
                    Time::new(1_000 * df),
                    Time::new(2_500 * tf),
                    Time::new(1_700 * jf),
                )
                .unwrap()
            })
            .collect();
        StreamSet::new(streams).unwrap()
    })
}

fn arb_master() -> impl Strategy<Value = SimMaster> {
    (
        arb_streams(),
        0u8..3,
        proptest::collection::vec((100i64..400, 1i64..6), 0..=2),
    )
        .prop_map(|(streams, policy, lp)| {
            let mut m = match policy {
                0 => SimMaster::stock(streams),
                1 => SimMaster::priority_queued(streams, QueuePolicy::DeadlineMonotonic),
                _ => SimMaster::priority_queued(streams, QueuePolicy::Edf),
            };
            for (cycle, pf) in lp {
                m.low_priority
                    .push(LowPriorityTraffic::new(t(cycle), t(1_500 * pf)));
            }
            m
        })
}

fn arb_net_config() -> impl Strategy<Value = NetworkSimConfig> {
    (
        any::<u64>(),
        0u8..2, // offset mode
        0u8..3, // jitter mode
        0u8..3, // loss level
        0u8..2, // undershoot level
    )
        .prop_map(|(seed, off, jit, loss, under)| NetworkSimConfig {
            horizon: t(250_000),
            seed,
            offsets: if off == 0 {
                OffsetMode::Synchronous
            } else {
                OffsetMode::Random
            },
            jitter: match jit {
                0 => JitterInjection::None,
                1 => JitterInjection::FirstLate,
                _ => JitterInjection::Random,
            },
            token_loss_prob: [0.0, 0.05, 0.4][loss as usize],
            cycle_undershoot: [0.0, 0.3][under as usize],
            ..Default::default()
        })
}

fn arb_task_set() -> impl Strategy<Value = TaskSet> {
    proptest::collection::vec((1i64..10, 1i64..60, 1u8..4), 0..=5).prop_map(|raw| {
        let tasks: Vec<Task> = raw
            .into_iter()
            .map(|(c, extra, df)| {
                let period = 4 * c + extra;
                // Deadlines from tight-constrained to implicit; some sets
                // overload, exercising same-task job backlogs.
                let d = ((period * df as i64) / 3).max(1);
                Task::new(c, d, period).unwrap()
            })
            .collect();
        TaskSet::new(tasks).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(20)))]

    #[test]
    fn network_streaming_equals_materialized(
        masters in proptest::collection::vec(arb_master(), 1..=3),
        ttr in 500i64..6_000,
        cfg in arb_net_config(),
        addressing in arb_addressing(),
    ) {
        let mut masters = masters;
        address(&mut masters, addressing);
        let net = SimNetwork {
            masters,
            ttr: t(ttr),
            token_pass: t(166),
        };
        // The membership defaults (empty plan, GAP polling off, no mode
        // controller) are the static §3.1 ring the reference models.
        prop_assert!(cfg.is_static_ring());
        let streaming = simulate_network(&net, &cfg);
        let materialized = simulate_network_materialized(&net, &cfg);
        prop_assert_eq!(streaming, materialized);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn cpu_streaming_equals_materialized(
        set in arb_task_set(),
        policy in 0u8..4,
        offset_step in 0i64..5,
        seed_horizon in 5_000i64..40_000,
    ) {
        let policy = [
            CpuPolicy::FixedPreemptive,
            CpuPolicy::FixedNonPreemptive,
            CpuPolicy::EdfPreemptive,
            CpuPolicy::EdfNonPreemptive,
        ][policy as usize];
        let pm = PriorityMap::deadline_monotonic(&set);
        let prio = match policy {
            CpuPolicy::FixedPreemptive | CpuPolicy::FixedNonPreemptive => Some(&pm),
            _ => None,
        };
        let offsets: Vec<Time> = if offset_step == 0 {
            vec![]
        } else {
            (0..set.len()).map(|i| t(offset_step * i as i64)).collect()
        };
        let cfg = CpuSimConfig {
            policy,
            horizon: t(seed_horizon),
            offsets,
            criticality: vec![],
            shed_lo: false,
        };
        let streaming = simulate_cpu(&set, prio, &cfg);
        let materialized = simulate_cpu_materialized(&set, prio, &cfg);
        prop_assert_eq!(streaming, materialized);
    }
}

/// The fixed-ring step against the full protocol path: a fixed ring (no
/// churn, no GAP polling) must emit the same event stream as the same
/// config plus a membership plan whose only event — a crash of master 0
/// — lies at or after the horizon. That plan never fires, but it makes
/// the ring live, so every visit runs the `RingController` bookkeeping,
/// `RingController::successor` passes and `RingController::claimant`
/// recoveries. Covers shuffled FDL addresses, jitter, cycle undershoot,
/// token loss, the mode controller (with HI/MID/LO labels) and the idle
/// fast-forward, each on and off.
#[test]
fn fixed_ring_step_equals_protocol_path() {
    let mut rng = TestRng::for_test("fixed_ring_step_equals_protocol_path");
    let labels = [Criticality::Hi, Criticality::Mid, Criticality::Lo];
    let (mut out_of_vector_order, mut recoveries, mut switches, mut sheds, mut skipped) =
        (0, 0, 0, 0, 0);
    for _ in 0..cases(128) {
        let mut masters = proptest::collection::vec(arb_master(), 1..=4).generate(&mut rng);
        address(&mut masters, arb_addressing().generate(&mut rng));
        let (mode_on, fast_forward) = (any::<bool>(), any::<bool>()).generate(&mut rng);
        for m in &mut masters {
            m.criticality = (0..m.streams.len())
                .map(|_| labels[(0usize..3).generate(&mut rng)])
                .collect();
        }
        let net = SimNetwork {
            masters,
            ttr: t((500i64..6_000).generate(&mut rng)),
            token_pass: t(166),
        };
        let fixed = NetworkSimConfig {
            mode: if mode_on {
                ModeSimConfig::enabled()
            } else {
                ModeSimConfig::default()
            },
            fast_forward,
            ..arb_net_config().generate(&mut rng)
        };
        let late = (0i64..50_000).generate(&mut rng);
        let live = NetworkSimConfig {
            membership: MembershipPlan::new().at(
                fixed.horizon + t(late),
                0,
                MembershipAction::Crash,
            ),
            ..fixed.clone()
        };

        let mut fixed_log = Trace::new(usize::MAX);
        let mem = run_network(&net, &fixed, &mut [&mut fixed_log]);
        let mut live_log = Trace::new(usize::MAX);
        run_network(&net, &live, &mut [&mut live_log]);
        assert!(
            fixed_log.events() == live_log.events(),
            "fixed-ring step diverges from the protocol path: net {net:?}, config {fixed:?}"
        );

        let n = net.masters.len();
        let count = |pred: fn(&NetEvent, usize) -> bool| {
            usize::from(fixed_log.events().iter().any(|(_, e)| pred(e, n)))
        };
        out_of_vector_order +=
            count(|e, n| matches!(*e, NetEvent::TokenPass { from, to } if to != (from + 1) % n));
        recoveries += count(|e, _| matches!(e, NetEvent::Recovery { .. }));
        switches += count(|e, _| matches!(e, NetEvent::ModeSwitch { .. }));
        sheds += count(|e, _| matches!(e, NetEvent::Shed { .. }));
        skipped += usize::from(mem.rotations_fast_forwarded > 0);
    }
    for (shape, drawn) in [
        ("token pass out of ring-vector order", out_of_vector_order),
        ("token recovery", recoveries),
        ("mode switch", switches),
        ("shed request", sheds),
        ("fast-forwarded span", skipped),
    ] {
        assert!(drawn > 0, "no {shape} drawn");
    }
}

/// The memory contract the streaming kernel exists for: the number of
/// releases buffered inside the generators is bounded by
/// `streams + Σ ⌈J/T⌉`-ish look-ahead and — crucially — does **not** grow
/// with the horizon. A 100×-longer run holds exactly as much release
/// state as the short one.
#[test]
fn long_horizon_release_state_is_o_streams() {
    let streams = StreamSet::from_cdtj(&[
        (200, 9_000, 10_000, 2_000),
        (150, 8_000, 9_000, 0),
        (100, 30_000, 12_000, 15_000), // J > T: forces look-ahead buffering
        (250, 20_000, 20_000, 1_000),
    ])
    .unwrap();
    let net = SimNetwork {
        masters: vec![SimMaster::priority_queued(streams, QueuePolicy::Edf)
            .with_low_priority(LowPriorityTraffic::new(t(300), t(25_000)))],
        ttr: t(3_000),
        token_pass: t(166),
    };
    let cfg = |horizon: i64| NetworkSimConfig {
        horizon: t(horizon),
        jitter: JitterInjection::Random,
        seed: 11,
        ..Default::default()
    };

    let (_, short) = simulate_network_stats(&net, &cfg(500_000));
    let (result, long) = simulate_network_stats(&net, &cfg(50_000_000)); // 100×

    // The long run really simulated 100× the traffic…
    let completed: u64 = result.streams.iter().flatten().map(|o| o.completed).sum();
    assert!(completed > 10_000, "completed {completed}");

    // …while release state stayed flat: 4 stream heads + 1 low-priority
    // head, one primed look-ahead slot each (generators keep `peek_ready`
    // answerable from buffered state), plus the J/T look-ahead of the
    // jittered streams (Σ ⌈J/T⌉ = 4 here) — nowhere near the ~20k
    // releases a materialized run holds.
    let sources = 5;
    assert!(
        long.mem.peak_release_buffer <= 2 * sources + 4,
        "peak release buffer {} not O(streams)",
        long.mem.peak_release_buffer
    );
    assert_eq!(
        long.mem.peak_release_buffer, short.mem.peak_release_buffer,
        "release state must be independent of the horizon"
    );

    // The pending backlog is workload-bound, not horizon-bound, on this
    // schedulable network.
    assert!(
        long.mem.peak_pending <= 4 * sources,
        "peak pending {} grew beyond the schedulable backlog",
        long.mem.peak_pending
    );
}

/// The time-compression contract next to the memory contract above: on a
/// sparse fixture the number of token visits the kernel actually
/// *executes* must be sublinear in the horizon — a 100×-longer idle tail
/// costs O(1) extra visits, because whole rotations are fast-forwarded
/// arithmetically. If the skip silently stopped engaging, the long run
/// would execute ~100× the visits and this pin would trip.
#[test]
fn long_horizon_executed_visits_are_sublinear() {
    // One early burst, then silence: the period exceeds even the long
    // horizon, so both runs see the same single release and everything
    // after it is pure idle rotation.
    let streams = StreamSet::from_cdt(&[(200, 50_000, 200_000_000)]).unwrap();
    let net = SimNetwork {
        masters: vec![SimMaster::stock(streams)],
        ttr: t(2_000),
        token_pass: t(166),
    };
    let cfg = |horizon: i64| NetworkSimConfig {
        horizon: t(horizon),
        ..Default::default()
    };

    let (short_result, short) = simulate_network_stats(&net, &cfg(1_000_000));
    let (long_result, long) = simulate_network_stats(&net, &cfg(100_000_000)); // 100×

    // Both runs served the burst…
    assert_eq!(short_result.streams[0][0].completed, 1);
    assert_eq!(long_result.streams[0][0].completed, 1);

    // …and the long run compressed its idle tail instead of walking it.
    assert!(long.mem.rotations_fast_forwarded > 0);
    assert!(
        long.mem.visits_simulated < 2 * short.mem.visits_simulated,
        "100× horizon must cost <2× executed visits: {} vs {}",
        long.mem.visits_simulated,
        short.mem.visits_simulated
    );
    // The accounting still closes: every skipped rotation is one visit of
    // the single master.
    assert_eq!(
        long.mem.visits_simulated + long.mem.rotations_fast_forwarded,
        long_result.token_visits[0]
    );
}

/// Percentile observers on a long run: sanity of the constant-memory
/// summaries against the exact extremes.
#[test]
fn long_horizon_percentiles_are_consistent() {
    let streams = StreamSet::from_cdt(&[(300, 15_000, 4_000), (200, 9_000, 3_000)]).unwrap();
    let net = SimNetwork {
        masters: vec![SimMaster::stock(streams)],
        ttr: t(2_000),
        token_pass: t(166),
    };
    let (result, stats) = simulate_network_stats(
        &net,
        &NetworkSimConfig {
            horizon: t(20_000_000),
            ..Default::default()
        },
    );
    let completed: u64 = result.streams.iter().flatten().map(|o| o.completed).sum();
    assert_eq!(stats.response.count, completed);
    let exact_max = result
        .streams
        .iter()
        .flatten()
        .map(|o| o.max_response)
        .max()
        .unwrap();
    assert_eq!(stats.response.max, exact_max);
    assert!(stats.response.p50 <= stats.response.p95);
    assert!(stats.response.p95 <= stats.response.p99);
    assert!(stats.response.p99 <= stats.response.max);
    assert!(stats.trr.p99 <= stats.trr.max);
    assert_eq!(stats.trr.max, result.max_trr_overall());
}
