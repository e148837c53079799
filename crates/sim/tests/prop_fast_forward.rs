//! Differential property tests of the idle fast-forward: with
//! `fast_forward` on (the default) both network loops must emit an event
//! stream **byte-identical** to the unskipped per-visit loop — same
//! events, same instants, same order — across random workloads, jitter
//! and offset injection, queue policies, GAP factors, churn plans, and
//! the mode controller. The run statistics must agree on the peak-memory
//! indicators, and the executed/skipped visit accounting must close:
//! every skipped rotation is exactly one visit per ring member.

use proptest::prelude::*;

use profirt_base::{Criticality, MasterAddr, MessageStream, StreamSet, Time};
use profirt_profibus::{LowPriorityTraffic, QueuePolicy};
use profirt_sim::network::run_network;
use profirt_sim::{
    JitterInjection, KernelMemStats, MembershipPlan, ModeSimConfig, NetEvent, NetworkSimConfig,
    OffsetMode, SimMaster, SimNetwork, Trace,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// The raw event stream (instant + event), recorded by an unbounded
/// [`Trace`] through the default `on_idle_span` replay, so a
/// fast-forwarding run materializes into exactly the events an unskipped
/// run emits.
fn run_logged(net: &SimNetwork, cfg: &NetworkSimConfig) -> (Vec<(Time, NetEvent)>, KernelMemStats) {
    let mut log = Trace::new(usize::MAX);
    let mem = run_network(net, cfg, &mut [&mut log]);
    (log.events().to_vec(), mem)
}

/// Asserts the fast-forwarded run reproduces the unskipped run exactly
/// and returns how many rotations the skipping version compressed.
fn assert_fast_forward_equivalent(net: &SimNetwork, cfg: &NetworkSimConfig) -> u64 {
    let on = NetworkSimConfig {
        fast_forward: true,
        ..cfg.clone()
    };
    let off = NetworkSimConfig {
        fast_forward: false,
        ..cfg.clone()
    };
    let (ev_on, mem_on) = run_logged(net, &on);
    let (ev_off, mem_off) = run_logged(net, &off);

    assert_eq!(
        ev_on.len(),
        ev_off.len(),
        "event counts diverge: {} fast-forwarded vs {} unskipped",
        ev_on.len(),
        ev_off.len()
    );
    for (a, b) in ev_on.iter().zip(&ev_off) {
        assert_eq!(a, b, "event streams diverge");
    }

    // Memory peaks are measured at executed syncs only, and spans pull
    // nothing — both runs see the same peaks.
    assert_eq!(mem_on.peak_release_buffer, mem_off.peak_release_buffer);
    assert_eq!(mem_on.peak_pending, mem_off.peak_pending);

    // Visit accounting closes: the unskipped loop executes every visit;
    // each skipped rotation stands for one visit of every ring member
    // (spans only ever cover full rings).
    assert_eq!(mem_off.rotations_fast_forwarded, 0);
    assert_eq!(
        mem_off.visits_simulated,
        mem_on.visits_simulated + net.masters.len() as u64 * mem_on.rotations_fast_forwarded,
        "executed + skipped visits must equal the unskipped visit count"
    );

    mem_on.rotations_fast_forwarded
}

/// Streams from sparse (long periods — deep idle spans) to dense, with
/// jitter exceeding the period on some arms.
fn arb_streams() -> impl Strategy<Value = StreamSet> {
    proptest::collection::vec((50i64..400, 1i64..12, 1i64..30, 0i64..4), 0..=3).prop_map(|raw| {
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
        proptest::collection::vec((100i64..400, 4i64..40), 0..=2),
    )
        .prop_map(|(streams, policy, lp)| {
            let mut m = match policy {
                0 => SimMaster::stock(streams),
                1 => SimMaster::priority_queued(streams, QueuePolicy::DeadlineMonotonic),
                _ => SimMaster::priority_queued(streams, QueuePolicy::Edf),
            };
            for (cycle, pf) in lp {
                m.low_priority
                    .push(LowPriorityTraffic::new(t(cycle), t(2_500 * pf)));
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Static ring: loss-free runs must be byte-identical whether or not
    /// idle rotations are skipped; with loss injected the fast-forward
    /// disarms itself and the runs are trivially the same loop.
    #[test]
    fn static_fast_forward_stream_is_byte_identical(
        masters in proptest::collection::vec(arb_master(), 1..=3),
        ttr in 500i64..6_000,
        seed in any::<u64>(),
        off in 0u8..2,
        jit in 0u8..3,
        loss in 0u8..2,
        under in 0u8..2,
    ) {
        let net = SimNetwork {
            masters,
            ttr: t(ttr),
            token_pass: t(166),
        };
        let cfg = NetworkSimConfig {
            horizon: t(400_000),
            seed,
            offsets: if off == 0 { OffsetMode::Synchronous } else { OffsetMode::Random },
            jitter: match jit {
                0 => JitterInjection::None,
                1 => JitterInjection::FirstLate,
                _ => JitterInjection::Random,
            },
            token_loss_prob: [0.0, 0.05][loss as usize],
            cycle_undershoot: [0.0, 0.3][under as usize],
            ..Default::default()
        };
        prop_assert!(cfg.is_static_ring());
        let skipped = assert_fast_forward_equivalent(&net, &cfg);
        if loss > 0 {
            prop_assert_eq!(skipped, 0, "loss RNG consumption forbids skipping");
        }
    }

    /// Dynamic ring: GAP polling, scripted churn and the mode controller
    /// cap and veto spans but never change the emitted stream.
    #[test]
    fn dynamic_fast_forward_stream_is_byte_identical(
        n_masters in 2usize..=4,
        cycles in proptest::collection::vec(
            (0usize..8, 10_000i64..60_000, 5_000i64..30_000),
            0..=2,
        ),
        seed in any::<u64>(),
        gap_factor in 1u32..5,
        mode_on in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        // Master 0 carries HI + LO streams, the rest one HI stream; the
        // sparse arm stretches periods so long idle spans appear between
        // releases, the dense arm keeps the bus busy.
        let period = if sparse { 40_000 } else { 5_000 };
        let mut masters = vec![SimMaster::stock(
            StreamSet::from_cdt(&[(100, period / 2, period), (100, period / 2, period)]).unwrap(),
        )
        .with_addr(MasterAddr(0))
        .with_criticality(vec![Criticality::Hi, Criticality::Lo])];
        for k in 1..n_masters {
            masters.push(
                SimMaster::stock(StreamSet::from_cdt(&[(100, period / 2, period)]).unwrap())
                    .with_addr(MasterAddr(k as u8)),
            );
        }
        let net = SimNetwork::new(masters, t(2_000), t(100)).unwrap();

        let mut plan = MembershipPlan::new();
        for &(m, off_at, span) in &cycles {
            let master = 1 + m % (n_masters - 1);
            plan = plan.power_cycle(master, t(off_at), t(off_at + span));
        }
        let cfg = NetworkSimConfig {
            horizon: t(400_000),
            seed,
            gap_factor,
            membership: plan,
            mode: if mode_on { ModeSimConfig::enabled() } else { ModeSimConfig::default() },
            ..Default::default()
        };
        prop_assert!(!cfg.is_static_ring());
        assert_fast_forward_equivalent(&net, &cfg);
    }
}

/// A quiet single-master run must actually exercise the skip (guards the
/// proptests above against vacuous equality).
#[test]
fn sparse_static_run_skips_most_rotations() {
    let net = SimNetwork {
        masters: vec![SimMaster::stock(
            StreamSet::from_cdt(&[(200, 50_000, 100_000)]).unwrap(),
        )],
        ttr: t(2_000),
        token_pass: t(100),
    };
    let cfg = NetworkSimConfig {
        horizon: t(10_000_000),
        ..Default::default()
    };
    let skipped = assert_fast_forward_equivalent(&net, &cfg);
    assert!(skipped > 90_000, "only {skipped} rotations were skipped");
}

/// Same on a ring that can change: a calm full ring with GAP polling
/// skips between poll boundaries.
#[test]
fn sparse_dynamic_run_skips_between_poll_boundaries() {
    let masters = vec![
        SimMaster::stock(StreamSet::from_cdt(&[(200, 50_000, 100_000)]).unwrap())
            .with_addr(MasterAddr(0)),
        SimMaster::stock(StreamSet::from_cdt(&[(200, 50_000, 100_000)]).unwrap())
            .with_addr(MasterAddr(3)),
    ];
    let net = SimNetwork::new(masters, t(2_000), t(100)).unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(10_000_000),
        gap_factor: 10,
        ..Default::default()
    };
    assert!(!cfg.is_static_ring());
    let skipped = assert_fast_forward_equivalent(&net, &cfg);
    assert!(skipped > 10_000, "only {skipped} rotations were skipped");
}
