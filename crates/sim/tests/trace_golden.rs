//! Golden bytes of [`Trace::render`].
//!
//! Two small fixed-seed runs of `simulate_network_traced`, rendered and
//! concatenated, are pinned byte for byte in `data/trace_golden.txt`.
//! Between them they emit every network event kind: late tokens, high and
//! low cycles, token passes, wire-loss recoveries, GAP polls, joins,
//! leaves, claims, both mode switches, sheds and match-ups, plus the
//! truncated tail of a full trace. Any change to what a trace records or
//! how it renders shows up here as a diff.
//!
//! After an intended change to the timeline, replace the pinned file with
//! the text the failing test prints, and review the diff.

use profirt_base::{Criticality, MasterAddr, StreamSet, Time};
use profirt_profibus::{LowPriorityTraffic, QueuePolicy};
use profirt_sim::{
    simulate_network_traced, MembershipAction, MembershipPlan, ModeSimConfig, NetworkSimConfig,
    SimMaster, SimNetwork,
};

const GOLDEN: &str = include_str!("data/trace_golden.txt");

fn t(v: i64) -> Time {
    Time::new(v)
}

/// A loaded two-master ring with background traffic, a TTR too short for
/// its load (late tokens) and a lossy wire; the capacity cuts the trace
/// short.
fn lossy_ring() -> String {
    let lp = LowPriorityTraffic::new(t(400), t(1_500));
    let net = SimNetwork::new(
        vec![
            SimMaster::priority_queued(
                StreamSet::from_cdt(&[(700, 25_000, 30_000), (500, 6_000, 8_000)]).unwrap(),
                QueuePolicy::DeadlineMonotonic,
            )
            .with_low_priority(lp),
            SimMaster::stock(StreamSet::from_cdt(&[(600, 4_000, 5_000)]).unwrap())
                .with_low_priority(lp),
        ],
        t(1_500),
        t(166),
    )
    .unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(20_000),
        seed: 11,
        token_loss_prob: 0.1,
        ..Default::default()
    };
    let (_, trace) = simulate_network_traced(&net, &cfg, 60);
    trace.render()
}

/// A three-master ring whose lowest-address master crashes before its
/// first visit and powers back on later: a claim, a leave, GAP polls, a
/// join, and a mode controller that degrades on the shrunken ring, sheds
/// the LO stream and matches up once the ring is whole again. The highest
/// station sits at address 126, so its GAP is address 0 alone and the
/// rejoin is polled within a few rotations.
fn churn_with_modes() -> String {
    let quiet =
        |addr: u8| SimMaster::stock(StreamSet::new(vec![]).unwrap()).with_addr(MasterAddr(addr));
    let net = SimNetwork::new(
        vec![
            quiet(0),
            SimMaster::stock(StreamSet::from_cdt(&[(100, 1_500, 2_000)]).unwrap())
                .with_addr(MasterAddr(1))
                .with_criticality(vec![Criticality::Lo]),
            SimMaster::stock(StreamSet::from_cdt(&[(200, 3_000, 4_000)]).unwrap())
                .with_addr(MasterAddr(126)),
        ],
        t(1_000),
        t(100),
    )
    .unwrap();
    let cfg = NetworkSimConfig {
        horizon: t(8_300),
        gap_factor: 1,
        membership: MembershipPlan::new()
            .at(t(0), 0, MembershipAction::Crash)
            .at(t(3_000), 0, MembershipAction::PowerOn),
        mode: ModeSimConfig::enabled(),
        ..Default::default()
    };
    let (_, trace) = simulate_network_traced(&net, &cfg, 1_000);
    trace.render()
}

fn rendered() -> String {
    format!(
        "# lossy ring\n{}# churn with modes\n{}",
        lossy_ring(),
        churn_with_modes()
    )
}

#[test]
fn render_matches_the_pinned_bytes() {
    let actual = rendered();
    assert!(
        actual == GOLDEN,
        "Trace::render drifted from tests/data/trace_golden.txt; actual:\n{actual}"
    );
}

/// The pinned runs stay worth pinning: every event kind, and the
/// truncation notice, appears in the rendered text.
#[test]
fn golden_runs_cover_every_event_kind() {
    let text = rendered();
    let markers = "◀ token|LATE|▶ high|▷ low|token pass|reclaimed by|gap poll|joined the ring|\
                   left the ring|token claimed by|mode switch: HI|mode switch: LO|×× shed|\
                   match-up complete|further events dropped";
    for marker in markers.split('|') {
        assert!(text.contains(marker), "no {marker:?} in the golden runs");
    }
}
