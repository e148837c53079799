//! Step-by-step verification of the §3.1 token-passing algorithm using the
//! event trace: these tests pin the *semantics* of the simulator (one
//! guaranteed high-priority cycle on a late token, TTH overrun completion,
//! low-priority gating) on tiny deterministic scenarios where the exact
//! event sequence can be hand-computed.

use profirt_base::{StreamSet, Time};
use profirt_profibus::LowPriorityTraffic;
use profirt_sim::{simulate_network_traced, NetEvent, NetworkSimConfig, SimMaster, SimNetwork};

fn t(v: i64) -> Time {
    Time::new(v)
}

fn trace_events(net: &SimNetwork, horizon: i64) -> Vec<(Time, NetEvent)> {
    let (_, trace) = simulate_network_traced(
        net,
        &NetworkSimConfig {
            horizon: t(horizon),
            ..Default::default()
        },
        100_000,
    );
    trace.events().to_vec()
}

/// Single master, single stream, generous TTR: the first visit serves the
/// synchronous request immediately; later requests wait for the token
/// rotation. Hand-computed first events:
///   t=0   token arrives (TRR = 0, TTH = TTR = 2000)
///   t=0   high cycle S0 [0..400]
///   t=400 token pass (to itself), arriving t=500
#[test]
fn first_rotation_hand_computed() {
    let net = SimNetwork {
        masters: vec![SimMaster::stock(
            StreamSet::from_cdt(&[(400, 20_000, 10_000)]).unwrap(),
        )],
        ttr: t(2_000),
        token_pass: t(100),
    };
    let ev = trace_events(&net, 1_500);
    // Event 0: token arrival with full TTH.
    assert!(matches!(
        ev[0],
        (at, NetEvent::TokenArrival { master: 0, tth, .. }) if at == t(0) && tth == t(2_000)
    ));
    // Event 1: the high cycle, exactly [0..400].
    assert!(matches!(
        ev[1],
        (_, NetEvent::HighCycle { master: 0, start, end, .. })
            if start == t(0) && end == t(400)
    ));
    // Event 2: token pass recorded at t=500 (after 100 ticks of pass time).
    assert!(matches!(
        ev[2],
        (at, NetEvent::TokenPass { from: 0, to: 0 }) if at == t(500)
    ));
    // Event 3: next arrival at t=500 with TRR = 500 -> TTH = 1500.
    assert!(matches!(
        ev[3],
        (at, NetEvent::TokenArrival { master: 0, tth, .. }) if at == t(500) && tth == t(1_500)
    ));
}

/// Late-token rule: with TTR = 1, every arrival after the first is late
/// (TRR >= pass time > TTR), yet each visit still serves exactly one
/// pending high-priority cycle — the guarantee eq. (11) builds on.
#[test]
fn late_token_serves_exactly_one_high_cycle_per_visit() {
    // Two streams with short periods (arrival rate 4/1000 vs service
    // capacity 2.5/1000) keep a backlog at every visit.
    let net = SimNetwork {
        masters: vec![SimMaster::stock(
            StreamSet::from_cdt(&[(300, 50_000, 500), (300, 50_000, 500)]).unwrap(),
        )],
        ttr: t(1),
        token_pass: t(100),
    };
    let ev = trace_events(&net, 30_000);
    // Group events between consecutive arrivals; after the first visit all
    // tokens are late -> exactly one HighCycle per visit (backlog permitting).
    let mut per_visit: Vec<usize> = Vec::new();
    let mut count = 0usize;
    let mut late = false;
    let mut seen_first_arrival = false;
    for (_, e) in &ev {
        match e {
            NetEvent::TokenArrival { tth, .. } => {
                if seen_first_arrival {
                    per_visit.push(count);
                }
                seen_first_arrival = true;
                count = 0;
                late = !tth.is_positive();
            }
            NetEvent::HighCycle { .. } => count += 1,
            _ => {}
        }
        let _ = late;
    }
    // Skip the first (early-token) visit; all subsequent visits are late
    // and the backlog never empties (period 2000 < service interval).
    assert!(per_visit.len() > 5);
    for (i, &c) in per_visit.iter().enumerate().skip(1) {
        assert_eq!(c, 1, "late visit {i} served {c} != 1 high cycles");
    }
}

/// TTH-overrun semantics: a low-priority cycle longer than the residual
/// TTH starts (the timer is tested only at cycle start) and runs to
/// completion, stretching the rotation — the §3.3 lateness source.
#[test]
fn tth_overrun_low_cycle_completes() {
    let net = SimNetwork {
        masters: vec![SimMaster::stock(StreamSet::new(vec![]).unwrap())
            .with_low_priority(LowPriorityTraffic::new(t(5_000), t(6_000)))],
        ttr: t(1_000),
        token_pass: t(100),
    };
    let ev = trace_events(&net, 20_000);
    // Find the first low cycle: starts while TTH > 0 and runs its full
    // 5000 ticks despite TTR being only 1000.
    let lc = ev
        .iter()
        .find_map(|(_, e)| match e {
            NetEvent::LowCycle { start, end, .. } => Some((*start, *end)),
            _ => None,
        })
        .expect("a low cycle must run");
    assert_eq!(lc.1 - lc.0, t(5_000), "overrun cycle must complete fully");
}

/// Low-priority gating: on a late token no low-priority cycle may start,
/// even with low-priority backlog present.
#[test]
fn no_low_cycles_on_late_tokens() {
    let net = SimNetwork {
        masters: vec![
            SimMaster::stock(StreamSet::from_cdt(&[(900, 50_000, 1_000)]).unwrap())
                .with_low_priority(LowPriorityTraffic::new(t(500), t(1_000))),
        ],
        ttr: t(500), // every rotation exceeds TTR once traffic flows
        token_pass: t(100),
    };
    let ev = trace_events(&net, 40_000);
    // Track lateness at each arrival; assert no LowCycle follows a late
    // arrival before the next arrival.
    let mut late = false;
    let mut violations = 0;
    for (_, e) in &ev {
        match e {
            NetEvent::TokenArrival { tth, .. } => late = !tth.is_positive(),
            NetEvent::LowCycle { .. } if late => violations += 1,
            _ => {}
        }
    }
    assert_eq!(violations, 0, "low-priority cycle started on a late token");
}

/// Ring order: with three masters the token cycles 0 → 1 → 2 → 0 strictly.
#[test]
fn token_passes_in_ring_order() {
    let mk = || SimMaster::stock(StreamSet::new(vec![]).unwrap());
    let net = SimNetwork {
        masters: vec![mk(), mk(), mk()],
        ttr: t(2_000),
        token_pass: t(100),
    };
    let ev = trace_events(&net, 5_000);
    let passes: Vec<(usize, usize)> = ev
        .iter()
        .filter_map(|(_, e)| match e {
            NetEvent::TokenPass { from, to } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(passes.len() >= 9);
    for (i, &(from, to)) in passes.iter().enumerate() {
        assert_eq!(from, i % 3, "pass {i} from wrong master");
        assert_eq!(to, (i + 1) % 3, "pass {i} to wrong master");
    }
}

/// Idle-ring rotation time: with no traffic, every rotation is exactly
/// n · token_pass and TTH stabilises at TTR − n·token_pass.
#[test]
fn idle_rotation_is_pass_time_only() {
    let mk = || SimMaster::stock(StreamSet::new(vec![]).unwrap());
    let net = SimNetwork {
        masters: vec![mk(), mk(), mk(), mk()],
        ttr: t(3_000),
        token_pass: t(150),
    };
    let (result, trace) = simulate_network_traced(
        &net,
        &NetworkSimConfig {
            horizon: t(50_000),
            ..Default::default()
        },
        100_000,
    );
    assert_eq!(result.max_trr_overall(), t(4 * 150));
    // After the warm-up arrival, every TTH equals TTR - 600.
    let tths: Vec<Time> = trace
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            NetEvent::TokenArrival { master: 0, tth, .. } => Some(*tth),
            _ => None,
        })
        .collect();
    for &tth in &tths[1..] {
        assert_eq!(tth, t(3_000 - 600));
    }
}
