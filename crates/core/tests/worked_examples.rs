//! Worked numerical examples of the paper's equations, with every value
//! hand-computed in the comments — the executable version of a referee's
//! margin calculations.

use profirt_base::{StreamSet, TaskSet, Time};
use profirt_core::tcycle::{tcycle, token_lateness, TcycleModel};
use profirt_core::{
    max_feasible_ttr, DmAnalysis, EdfAnalysis, EndToEndAnalysis, FcfsAnalysis, JitterModel,
    MasterConfig, NetworkConfig, TaskSegments,
};
use profirt_sched::fixed::PriorityMap;

fn t(v: i64) -> Time {
    Time::new(v)
}

/// The running network of this file, all numbers chosen for mental
/// arithmetic. Three masters at TTR = 5000:
///   M0: Sh = {(400, 9000, 20000), (600, 24000, 30000)}, Cl = 700
///   M1: Sh = {(500, 30000, 40000)},                     Cl = 0
///   M2: Sh = {(300, 50000, 60000)},                     Cl = 900
fn example() -> NetworkConfig {
    NetworkConfig::new(
        vec![
            MasterConfig::new(
                StreamSet::from_cdt(&[(400, 9_000, 20_000), (600, 24_000, 30_000)]).unwrap(),
                t(700),
            ),
            MasterConfig::new(StreamSet::from_cdt(&[(500, 30_000, 40_000)]).unwrap(), t(0)),
            MasterConfig::new(
                StreamSet::from_cdt(&[(300, 50_000, 60_000)]).unwrap(),
                t(900),
            ),
        ],
        t(5_000),
    )
    .unwrap()
}

/// Eq. (13): Tdel = Σ CM^k.
///   CM^0 = max{max(400,600), 700} = 700
///   CM^1 = max{500, 0}           = 500
///   CM^2 = max{300, 900}         = 900
///   Tdel = 700 + 500 + 900       = 2100
/// Eq. (14): Tcycle = TTR + Tdel = 5000 + 2100 = 7100.
#[test]
fn eq13_eq14_token_cycle() {
    let net = example();
    assert_eq!(token_lateness(&net, TcycleModel::Paper).unwrap(), t(2_100));
    let b = tcycle(&net, TcycleModel::Paper).unwrap();
    assert_eq!(b.tcycle, t(7_100));

    // Refined: overrunner charged CM, others only their longest high cycle.
    //   maxHigh = (600, 500, 300), Σ = 1400
    //   j=0: 700 + (1400-600) = 1500
    //   j=1: 500 + (1400-500) = 1400
    //   j=2: 900 + (1400-300) = 2000  <- max
    assert_eq!(
        token_lateness(&net, TcycleModel::Refined).unwrap(),
        t(2_000)
    );
}

/// Eq. (11): Ri^k = nh^k · Tcycle.
///   M0 (nh=2): R = 2·7100 = 14200; M1, M2 (nh=1): R = 7100.
/// Eq. (12): schedulable iff Dh >= R.
///   M0/S0: D =  9000 < 14200  -> MISS
///   M0/S1: D = 24000 >= 14200 -> ok
///   M1/S0: D = 30000 >= 7100  -> ok
///   M2/S0: D = 50000 >= 7100  -> ok
#[test]
fn eq11_eq12_fcfs() {
    let an = FcfsAnalysis::paper().run(&example()).unwrap();
    assert_eq!(an.masters[0][0].response_time, t(14_200));
    assert_eq!(an.masters[0][1].response_time, t(14_200));
    assert_eq!(an.masters[1][0].response_time, t(7_100));
    assert_eq!(an.masters[2][0].response_time, t(7_100));
    assert!(!an.masters[0][0].schedulable);
    assert!(an.masters[0][1].schedulable);
    assert_eq!(an.schedulable_count(), 3);
    // Q = R - Ch decomposition (eq. 11): Q(M0/S0) = 14200 - 400.
    assert_eq!(an.masters[0][0].queuing_delay, t(13_800));
}

/// Eq. (15): TTR <= min over streams { Dh/nh - Tdel }.
///   M0/S0:  9000/2 - 2100 = 2400   <- binding
///   M0/S1: 24000/2 - 2100 = 9900
///   M1/S0: 30000/1 - 2100 = 27900
///   M2/S0: 50000/1 - 2100 = 47900
#[test]
fn eq15_ttr_setting() {
    let setting = max_feasible_ttr(&example(), TcycleModel::Paper).unwrap();
    assert_eq!(setting.max_ttr, Some(t(2_400)));
    assert_eq!(setting.binding, (0, 0));
    // Verification loop: schedulable at 2400, not at 2401.
    let at = example().with_ttr(t(2_400)).unwrap();
    assert!(FcfsAnalysis::paper().run(&at).unwrap().all_schedulable());
    let over = example().with_ttr(t(2_401)).unwrap();
    assert!(!FcfsAnalysis::paper().run(&over).unwrap().all_schedulable());
}

/// Eq. (16) on master 0 under the paper-literal variant (Tcycle = 7100):
/// DM order: S0 (D=9000) above S1 (D=24000).
///   S0 (has lower-priority S1): R = T* = 7100          (no hp)
///   S1 (lowest, T* = 0):        R = ⌈R/20000⌉·7100, seeded 7100 -> 7100
/// Conservative variant:
///   S0: blocking + own = 2·7100 = 14200; still <= 24000? D(S0)=9000 —
///       14200 > 9000 -> S0 unschedulable under the conservative bound.
///   S1: own 7100 + ⌈R/20000⌉·7100 -> seeded 14200 -> 14200 <= 24000 ok.
#[test]
fn eq16_dm_both_variants() {
    let net = example();
    let paper = DmAnalysis::paper().analyze(&net).unwrap();
    assert_eq!(paper.masters[0][0].response_time, t(7_100));
    assert_eq!(paper.masters[0][1].response_time, t(7_100));
    assert!(paper.masters[0][0].schedulable); // 7100 <= 9000

    let cons = DmAnalysis::conservative().analyze(&net).unwrap();
    assert_eq!(cons.masters[0][1].response_time, t(14_200));
    assert!(
        !cons.masters[0][0].schedulable,
        "blocking+own = 14200 > 9000"
    );
    // The T8 finding in miniature: the two variants disagree about S0, and
    // simulation (the `t8` campaign preset) shows the conservative verdict
    // is the trustworthy one.
}

/// Eqs. (17)-(18) on master 1 (single stream): R = Tcycle exactly.
/// On master 0: S0's bound includes one blocking cycle from the
/// later-deadline S1 (Dj = 24000 > a + 9000 for small a):
///   a = 0: L = T* (blocking 7100) + 0 own prior; W = 0 (S1 deadline
///   excluded) -> L = 7100; R = max(7100, 7100 + 7100 - 0) = 14200.
#[test]
fn eq17_eq18_edf() {
    let net = example();
    let an = EdfAnalysis::paper().analyze(&net).unwrap();
    assert_eq!(an.masters[1][0].response_time, t(7_100));
    assert_eq!(an.masters[0][0].response_time, t(14_200));
    // S1 (latest deadline on the master): no blocking possible, its worst
    // case is interference from S0 within its deadline window.
    assert!(an.masters[0][1].response_time >= t(7_100));
    assert!(an.masters[0][1].schedulable);
}

/// §3.3 worked scenario on this network: idle rotation, then master 0
/// overruns with CM^0 = 700; masters 1 and 2 each send one high-priority
/// cycle on the late token. Chain = TTR + 700 + 500 + 300 = 6500 <= 7100.
#[test]
fn section_3_3_worked_chain() {
    let net = example();
    let bound = tcycle(&net, TcycleModel::Paper).unwrap().tcycle;
    let chain = net.ttr
        + net.masters[0].longest_cycle()   // 700 (overrunner, any priority)
        + net.masters[1].max_high_cycle()  // 500 (late token: high only)
        + net.masters[2].max_high_cycle(); // 300
    assert_eq!(chain, t(6_500));
    assert!(chain <= bound);
}

/// `n` identical masters at TTR = 4000, each with high-priority cycles of
/// 600 and 450 and a longest low-priority cycle `cl`.
fn uniform_masters(n: usize, cl: i64) -> NetworkConfig {
    let master = || {
        MasterConfig::new(
            StreamSet::from_cdt(&[(600, 200_000, 200_000), (450, 300_000, 300_000)]).unwrap(),
            t(cl),
        )
    };
    NetworkConfig::new((0..n).map(|_| master()).collect(), t(4_000)).unwrap()
}

/// Eq. (13) on uniform masters: every CM^k = max(600, Cl) = 900, so the
/// paper Tdel is exactly n · 900 — linear in the master count.
#[test]
fn paper_tdel_is_linear_in_uniform_master_count() {
    for n in [2usize, 4, 6, 8, 12, 16] {
        let net = uniform_masters(n, 900);
        assert_eq!(
            token_lateness(&net, TcycleModel::Paper).unwrap(),
            t(900 * n as i64)
        );
    }
}

/// The refinement charges the longest cycle to one overrunner only; the
/// late masters send high-priority traffic (600) alone. On 4 uniform
/// masters the gap is 3 · (max(600, Cl) − 600): zero until Cl exceeds
/// the high cycle, then growing with Cl.
#[test]
fn refinement_gap_grows_with_longest_low_priority_cycle() {
    let gaps: Vec<i64> = [0i64, 300, 600, 900, 1_800, 3_600]
        .iter()
        .map(|&cl| {
            let net = uniform_masters(4, cl);
            (token_lateness(&net, TcycleModel::Paper).unwrap()
                - token_lateness(&net, TcycleModel::Refined).unwrap())
            .ticks()
        })
        .collect();
    assert_eq!(gaps, [0, 0, 0, 900, 3_600, 9_000]);
    assert!(gaps.windows(2).all(|w| w[1] >= w[0]));
}

/// An 8-stream master (C = 600, deadlines 12000 · 1.6^i, Cl = 800) next
/// to a one-stream master, TTR = 4000: Tcycle = 4000 + 800 + 700 = 5500.
fn eight_stream_master() -> NetworkConfig {
    let mut streams = Vec::new();
    let mut d = 12_000i64;
    for _ in 0..8 {
        streams.push((600i64, d, 400_000i64));
        d = (d as f64 * 1.6) as i64;
    }
    NetworkConfig::new(
        vec![
            MasterConfig::new(StreamSet::from_cdt(&streams).unwrap(), t(800)),
            MasterConfig::new(
                StreamSet::from_cdt(&[(700, 200_000, 400_000)]).unwrap(),
                t(0),
            ),
        ],
        t(4_000),
    )
    .unwrap()
}

/// The WCRT profile across the master's streams: FCFS charges every stream
/// nh · Tcycle = 44000, while DM grades the bounds by deadline rank — from
/// two cycles for the tightest stream up to the FCFS figure — so the
/// tightest stream gains 4x.
#[test]
fn dm_profile_is_graded_by_deadline_rank() {
    let net = eight_stream_master();
    let fcfs = FcfsAnalysis::analyze(&net).unwrap();
    let dm = DmAnalysis::conservative().analyze(&net).unwrap();
    let fcfs: Vec<Time> = fcfs.masters[0].iter().map(|r| r.response_time).collect();
    let dm: Vec<Time> = dm.masters[0].iter().map(|r| r.response_time).collect();
    assert!(fcfs.iter().all(|&r| r == t(44_000)), "{fcfs:?}");
    assert_eq!((dm[0], dm[7]), (t(11_000), t(44_000)));
    assert!(dm.windows(2).all(|w| w[0] <= w[1]), "{dm:?}");
    assert!(fcfs[0].ticks() >= 2 * dm[0].ticks());
}

/// One master whose short-period stream S0 carries release jitter `j`;
/// S1 is the observed stream, S2 a lax background stream.
fn peer_jitter(j: i64) -> NetworkConfig {
    NetworkConfig::new(
        vec![MasterConfig::new(
            StreamSet::from_cdtj(&[
                (600, 25_000, 30_000, j),
                (600, 90_000, 200_000, 0),
                (600, 350_000, 400_000, 0),
            ])
            .unwrap(),
            t(800),
        )],
        t(4_000),
    )
    .unwrap()
}

/// Eqs. (16) and (18) carry the peers' jitter: S1's DM and EDF bounds never
/// fall as S0's jitter sweeps 0 → T, and the DM bound grows strictly
/// (S0 can interfere one extra time).
#[test]
fn peer_jitter_inflates_dm_and_edf_bounds() {
    let (mut dm, mut edf) = (Vec::new(), Vec::new());
    for j in [0i64, 6_000, 12_000, 18_000, 24_000, 30_000] {
        let net = peer_jitter(j);
        dm.push(DmAnalysis::conservative().analyze(&net).unwrap().masters[0][1].response_time);
        edf.push(EdfAnalysis::paper().analyze(&net).unwrap().masters[0][1].response_time);
    }
    assert!(dm.windows(2).all(|w| w[1] >= w[0]), "{dm:?}");
    assert!(edf.windows(2).all(|w| w[1] >= w[0]), "{edf:?}");
    assert!(dm[5] > dm[0], "{dm:?}");
}

/// §4.2 end-to-end decomposition on the jitter network with one separate
/// sender task per stream: every total is exactly g + (Q+C) + d, and the
/// generation delay g follows the generators' WCRTs (DM priority order).
#[test]
fn end_to_end_totals_decompose_with_ordered_generation_delay() {
    let host = TaskSet::from_cdt(&[
        (200, 8_000, 30_000),
        (1_500, 25_000, 60_000),
        (4_000, 100_000, 200_000),
    ])
    .unwrap();
    let pm = PriorityMap::deadline_monotonic(&host);
    let segments: Vec<TaskSegments> = (0..3)
        .map(|task| TaskSegments {
            generator: JitterModel::SeparateSender { task },
            delivery_task: task,
        })
        .collect();
    let e2e = EndToEndAnalysis::edf()
        .analyze(&peer_jitter(0), 0, &host, &pm, &segments)
        .unwrap();
    assert!(e2e.iter().all(|b| b.total == b.g + b.qc + b.d));
    assert!(e2e[0].g <= e2e[1].g && e2e[1].g <= e2e[2].g);
}
