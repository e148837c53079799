//! Differential property test for the fused statistics observer.
//!
//! `simulate_network_stats` attaches one `NetStats` observer. The oracle
//! here is the five-observer assembly it replaced: a `ResultObserver`
//! plus the split `ResponseStats`, `TrrStats` (segmented by ring size),
//! `RingStats` and `ModeStats` observers, each fed every event through
//! its own dynamic call. Over random networks — static and dynamic rings,
//! churn plans, GAP factors 0–4, the mode controller with mixed
//! criticality, token loss, cycle undershoot, jitter and random offsets —
//! the run result and the run statistics must be equal (`==` on
//! `(NetworkSimResult, NetworkSimStats)`), and so must the campaign's
//! extras: the match-up waits and the sub-HI shed ratio of a `NetStats`
//! run next to a `StableResponseObserver`, the campaign's observer set.
//!
//! Non-vacuity: across the run some cases must hold several ring sizes,
//! mode switches, sheds beside completed HI and sub-HI cycles, token
//! recoveries, GAP polls and fast-forwarded spans, and every GAP factor
//! must be drawn. Cases per run: `PROPTEST_CASES` (default 256); run
//! under any `PROPTEST_SEED`.

use proptest::test_runner::TestRng;

use profirt_base::{Criticality, MessageStream, StreamSet, Time};
use profirt_profibus::{LowPriorityTraffic, QueuePolicy};
use profirt_sim::network::run_network;
use profirt_sim::{
    simulate_network_stats, JitterInjection, MembershipPlan, ModeSimConfig, ModeStats, NetStats,
    NetworkSimConfig, NetworkSimResult, NetworkSimStats, OffsetMode, ResponseStats, ResultObserver,
    RingStats, SimMaster, SimNetwork, StableResponseObserver, TrrStats,
};

/// Cases per test: `PROPTEST_CASES` when set (CI runs 2048 in release),
/// else 256.
fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn t(v: i64) -> Time {
    Time::new(v)
}

/// The oracle's extras beyond `NetworkSimStats`: match-up waits and the
/// sub-HI shed ratio.
type ModeExtras = (Vec<Time>, f64);

/// The five-observer assembly `simulate_network_stats` ran before the
/// observers were fused: the named oracle of this test.
fn five_observer_stats(
    net: &SimNetwork,
    config: &NetworkSimConfig,
) -> (NetworkSimResult, NetworkSimStats, ModeExtras) {
    let initial_ring = net.masters.len() - config.membership.initially_off().len();
    let mut result = ResultObserver::new(net);
    let mut response = ResponseStats::new();
    let mut trr = TrrStats::with_ring_size(initial_ring);
    let mut ring = RingStats::new(initial_ring);
    let mut mode = ModeStats::new(net);
    let mem = run_network(
        net,
        config,
        &mut [&mut result, &mut response, &mut trr, &mut ring, &mut mode],
    );
    let stats = NetworkSimStats {
        response: response.hist.summary(),
        trr: trr.hist.summary(),
        trr_by_ring_size: trr.per_size(),
        ring: ring.summary(),
        mode: mode.summary(),
        mem,
    };
    let extras = (mode.matchup_waits().to_vec(), mode.lo_shed_ratio());
    (result.into_result(), stats, extras)
}

/// Uniform draws from the test RNG.
struct Draw(TestRng);

impl Draw {
    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.0.below_u128((hi - lo) as u128) as i64
    }

    fn coin(&mut self, one_in: i64) -> bool {
        self.int(0, one_in) == 0
    }
}

/// A master of 0–3 streams (some jittered, some longer-than-deadline
/// jitters), one of the three queue policies, 0–2 low-priority sources;
/// `mixed` labels each stream HI, MID or LO at random.
fn master(d: &mut Draw, mixed: bool) -> SimMaster {
    let n = d.int(0, 4) as usize;
    let streams: Vec<MessageStream> = (0..n)
        .map(|_| {
            MessageStream::with_jitter(
                t(d.int(50, 400)),
                t(1_000 * d.int(1, 12)),
                t(2_500 * d.int(1, 30)),
                t(1_700 * d.int(0, 4)),
            )
            .unwrap()
        })
        .collect();
    let streams = StreamSet::new(streams).unwrap();
    let mut m = match d.int(0, 3) {
        0 => SimMaster::stock(streams),
        1 => SimMaster::priority_queued(streams, QueuePolicy::DeadlineMonotonic),
        _ => SimMaster::priority_queued(streams, QueuePolicy::Edf),
    };
    for _ in 0..d.int(0, 3) {
        m.low_priority.push(LowPriorityTraffic::new(
            t(d.int(100, 400)),
            t(2_500 * d.int(4, 40)),
        ));
    }
    if mixed {
        let labels = [Criticality::Hi, Criticality::Mid, Criticality::Lo];
        m.criticality = (0..n).map(|_| labels[d.int(0, 3) as usize]).collect();
    }
    m
}

/// One random case: 1–4 masters, a static or dynamic ring.
fn case(d: &mut Draw) -> (SimNetwork, NetworkSimConfig) {
    let n_masters = d.int(1, 5) as usize;
    let mixed = d.coin(2);
    let masters = (0..n_masters).map(|_| master(d, mixed)).collect();
    let net = SimNetwork {
        masters,
        ttr: t(d.int(500, 6_000)),
        token_pass: t([100, 166][d.int(0, 2) as usize]),
    };
    // Churn: 0–3 power cycles of masters other than ring index 0 (which
    // keeps the bus alive), one in six cases with a master off at zero.
    let mut plan = MembershipPlan::new();
    if n_masters > 1 && d.coin(2) {
        for _ in 0..d.int(1, 4) {
            let m = d.int(1, n_masters as i64) as usize;
            let off_at = d.int(5_000, 300_000);
            plan = plan.power_cycle(m, t(off_at), t(off_at + d.int(2_000, 80_000)));
        }
        if d.coin(6) {
            plan = plan.starts_off(d.int(1, n_masters as i64) as usize);
        }
    }
    let config = NetworkSimConfig {
        horizon: t(d.int(100_000, 600_000)),
        seed: d.0.next_u64(),
        offsets: if d.coin(2) {
            OffsetMode::Synchronous
        } else {
            OffsetMode::Random
        },
        jitter: [
            JitterInjection::None,
            JitterInjection::FirstLate,
            JitterInjection::Random,
        ][d.int(0, 3) as usize],
        token_loss_prob: if d.coin(4) { 0.05 } else { 0.0 },
        cycle_undershoot: if d.coin(4) { 0.3 } else { 0.0 },
        gap_factor: d.int(0, 5) as u32,
        membership: plan,
        mode: if mixed && !d.coin(4) {
            ModeSimConfig::enabled()
        } else {
            ModeSimConfig::default()
        },
        ..Default::default()
    };
    (net, config)
}

/// Shapes drawn across the run (non-vacuity).
#[derive(Default)]
struct Shapes {
    static_ring: usize,
    dynamic_ring: usize,
    several_sizes: usize,
    mode_switches: usize,
    sheds_beside_completions: usize,
    recoveries: usize,
    gap_polls: usize,
    fast_forwarded: usize,
    gap_factors: [usize; 5],
}

fn check_case(net: &SimNetwork, config: &NetworkSimConfig, shapes: &mut Shapes) {
    let ctx = format!("net {net:?}, config {config:?}");
    let (result, stats, (waits, ratio)) = five_observer_stats(net, config);
    let fused = simulate_network_stats(net, config);
    assert_eq!(
        fused,
        (result.clone(), stats.clone()),
        "simulate_network_stats diverges from the five-observer oracle, {ctx}"
    );

    // The campaign's observer set: NetStats beside the stable-phase
    // observer, plus the extras only the campaign reads.
    let initial = net.masters.len() - config.membership.initially_off().len();
    let mut stable = StableResponseObserver::new(net, initial, net.ttr * 2);
    let mut net_stats = NetStats::new(net, config);
    let mem = run_network(net, config, &mut [&mut net_stats, &mut stable]);
    assert_eq!(
        net_stats.matchup_waits(),
        &waits[..],
        "match-up waits, {ctx}"
    );
    assert_eq!(net_stats.lo_shed_ratio(), ratio, "shed ratio, {ctx}");
    assert_eq!(
        net_stats.finish(mem),
        (result.clone(), stats.clone()),
        "NetStats beside a StableResponseObserver diverges, {ctx}"
    );

    if config.is_static_ring() {
        shapes.static_ring += 1;
    } else {
        shapes.dynamic_ring += 1;
    }
    shapes.several_sizes += usize::from(stats.trr_by_ring_size.len() > 1);
    shapes.mode_switches += usize::from(stats.mode.switches > 0);
    let hi_completed = net.masters.iter().enumerate().any(|(k, m)| {
        (0..m.streams.len())
            .any(|i| m.criticality_of(i) == Criticality::Hi && result.streams[k][i].completed > 0)
    });
    shapes.sheds_beside_completions +=
        usize::from(stats.mode.sheds > 0 && ratio < 1.0 && hi_completed);
    shapes.recoveries += usize::from(result.token_recoveries > 0);
    shapes.gap_polls += usize::from(stats.ring.gap_polls > 0);
    shapes.fast_forwarded += usize::from(stats.mem.rotations_fast_forwarded > 0);
    shapes.gap_factors[config.gap_factor as usize] += 1;
}

#[test]
fn fused_stats_match_the_five_observer_oracle() {
    let mut d = Draw(TestRng::for_test(
        "fused_stats_match_the_five_observer_oracle",
    ));
    let mut shapes = Shapes::default();
    for _ in 0..cases() {
        let (net, config) = case(&mut d);
        check_case(&net, &config, &mut shapes);
    }
    for (shape, count) in [
        ("static ring", shapes.static_ring),
        ("dynamic ring", shapes.dynamic_ring),
        ("several ring sizes", shapes.several_sizes),
        ("mode switch", shapes.mode_switches),
        (
            "sheds beside completed HI and sub-HI cycles",
            shapes.sheds_beside_completions,
        ),
        ("token recovery", shapes.recoveries),
        ("GAP poll", shapes.gap_polls),
        ("fast-forwarded span", shapes.fast_forwarded),
    ] {
        assert!(count > 0, "no {shape} drawn");
    }
    for (g, count) in shapes.gap_factors.iter().enumerate() {
        assert!(*count > 0, "GAP factor {g} never drawn");
    }
}
