//! Differential property test for the EDF message analysis, eqs. (17)–(18).
//!
//! `EdfAnalysis` maps each master's streams to rows `(Tcycle, D, T, J)` and
//! runs `profirt-sched`'s non-preemptive EDF scan on them: warm-seeded
//! fixpoints and an early stop. The oracle here is the literal analysis
//! the message module used to carry itself: every arrival candidate (plain
//! and jitter-shifted), each start busy period iterated from zero, no early
//! stop. Over random networks of 1–3 masters — empty masters, jittered
//! streams, deadlines below `Tcycle`, masters whose `Σ Tcycle/Tj ≥ 1` —
//! analysed through one shared `AnalysisScratch`, the library must
//! reproduce the oracle's `wcrt`, `critical_a` and verdict for every stream,
//! and the same utilisation rejections, while examining no more
//! candidates. Run under any `PROPTEST_SEED`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use profirt_base::{AnalysisError, Frac, MessageStream, StreamSet, Time};
use profirt_core::tcycle::tcycle;
use profirt_core::{EdfAnalysis, MasterConfig, NetworkConfig, TcycleModel};
use profirt_sched::AnalysisScratch;

/// Cases per test: `PROPTEST_CASES` when set (CI runs 2048 in release),
/// else 256.
fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Random networks. Token cycles run up to about 3400 ticks and periods
/// from 1500, so a master of up to four streams lands on either side of
/// `Σ Tcycle/Tj = 1`; deadlines go from far below `Tcycle` to twice the
/// period, and half the streams carry a jitter of up to their period.
/// Masters with `9/10 < Σ Tcycle/Tj < 1`, whose busy periods can run to
/// millions of candidates, are skipped.
fn arb_network() -> impl Strategy<Value = NetworkConfig> {
    let stream = (
        1i64..200,
        1_500i64..20_000,
        0i64..2_000,
        0u8..2,
        0i64..20_000,
    )
        .prop_map(|(ch, t, d_raw, jittered, j_raw)| {
            let d = 50 + d_raw * t / 1_000;
            let j = if jittered == 1 { j_raw % t } else { 0 };
            MessageStream::with_jitter(ch, d, t, j).unwrap()
        });
    let master = (proptest::collection::vec(stream, 0..=4), 0i64..300).prop_map(|(streams, cl)| {
        MasterConfig::new(StreamSet::new(streams).unwrap(), Time::new(cl))
    });
    (proptest::collection::vec(master, 1..=3), 100i64..2_500)
        .prop_map(|(masters, ttr)| NetworkConfig::new(masters, Time::new(ttr)).unwrap())
}

/// One stream's worst case as the literal scan finds it.
#[derive(Debug)]
struct OracleWcrt {
    wcrt: i64,
    critical_a: i64,
    candidates: usize,
}

/// Least fixpoint of `f` iterated from `seed`.
fn lfp(seed: i64, f: impl Fn(i64) -> i64) -> i64 {
    let mut x = seed;
    loop {
        let next = f(x);
        if next == x {
            return x;
        }
        x = next;
    }
}

/// Eqs. (17)–(18) over one master's `(D, T, J)` rows:
/// `Li(a) = Tcycle·[∃j≠i: Dj > a+Di] + ⌊a/Ti⌋·Tcycle + Σ_{j≠i, Dj ≤ a+Di}
/// min{1 + ⌊(Li(a)+Jj)/Tj⌋, 1 + ⌊(a+Di−Dj+Jj)/Tj⌋}·Tcycle` and
/// `Ri(a) = max{Tcycle, Li(a) + Tcycle − a}` over the candidates
/// `k·Tj + Dj − Di` and `k·Tj + Dj − Jj − Di` in `[0, L]`, `L` the message
/// busy period `Tcycle + Σ ⌈(L+Jj)/Tj⌉·Tcycle`.
fn oracle(rows: &[(i64, i64, i64)], tc: i64) -> Result<Vec<OracleWcrt>, AnalysisError> {
    let u: Frac = rows
        .iter()
        .map(|&(_, t, _)| Frac::new(tc as i128, t as i128))
        .sum();
    if !u.lt_one() {
        return Err(AnalysisError::UtilizationAtLeastOne);
    }
    let n = rows.len() as i64;
    let l = lfp(tc * (n + 1), |t| {
        tc + rows
            .iter()
            .map(|&(_, t_j, j_j)| ((t + j_j + t_j - 1) / t_j).max(1) * tc)
            .sum::<i64>()
    });
    Ok((0..rows.len())
        .map(|i| {
            let (d_i, t_i, _) = rows[i];
            let mut cands = Vec::new();
            for &(d_j, t_j, j_j) in rows {
                let offsets = if j_j > 0 { vec![0, j_j] } else { vec![0] };
                for shift in offsets {
                    let mut a = d_j - shift - d_i;
                    while a < 0 {
                        a += t_j;
                    }
                    while a <= l {
                        cands.push(a);
                        a += t_j;
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let mut best = OracleWcrt {
                wcrt: tc,
                critical_a: 0,
                candidates: cands.len(),
            };
            for &a in &cands {
                let others = rows.iter().enumerate().filter(|&(j, _)| j != i);
                let blocked = others.clone().any(|(_, &(d_j, _, _))| d_j > a + d_i);
                let base = if blocked { tc } else { 0 } + (a / t_i) * tc;
                let li = lfp(0, |t| {
                    base + others
                        .clone()
                        .filter(|&(_, &(d_j, _, _))| d_j <= a + d_i)
                        .map(|(_, &(d_j, t_j, j_j))| {
                            let by_time = 1 + (t + j_j) / t_j;
                            let by_deadline = 1 + (a + d_i - d_j + j_j) / t_j;
                            by_time.min(by_deadline).max(0) * tc
                        })
                        .sum::<i64>()
                });
                assert!(li <= l, "start busy period {li} beyond L = {l}");
                let r = tc.max(li + tc - a);
                if r > best.wcrt {
                    best.wcrt = r;
                    best.critical_a = a;
                }
            }
            best
        })
        .collect())
}

/// Run-wide tallies for the non-vacuity checks.
#[derive(Default)]
struct Tally {
    skipped: usize,
    analysed: usize,
    rejected: usize,
    multi_master: usize,
    jittered: usize,
    below_tcycle: usize,
    stopped: usize,
}

fn check_case(net: &NetworkConfig, scratch: &mut AnalysisScratch, tally: &mut Tally) {
    let tc = tcycle(net, TcycleModel::Paper).unwrap().tcycle.ticks();
    let near_one = net.masters.iter().any(|m| {
        let u: Frac = m
            .streams
            .streams()
            .iter()
            .map(|s| Frac::new(tc as i128, s.t.ticks() as i128))
            .sum();
        Frac::new(9, 10) < u && u.lt_one()
    });
    if near_one {
        tally.skipped += 1;
        return;
    }
    let want: Result<Vec<_>, _> = net
        .masters
        .iter()
        .filter(|m| !m.streams.is_empty())
        .map(|m| {
            let rows: Vec<_> = m
                .streams
                .streams()
                .iter()
                .map(|s| (s.d.ticks(), s.t.ticks(), s.j.ticks()))
                .collect();
            oracle(&rows, tc)
        })
        .collect();
    let got = EdfAnalysis::paper().analyze_detailed(net, scratch);
    let (an, details) = match (got, want) {
        (Err(e), Err(w)) => {
            assert_eq!(e, w, "{net:?}");
            tally.rejected += 1;
            return;
        }
        (Ok(got), Ok(_)) => got,
        (got, want) => panic!("library {got:?} vs oracle {want:?} on {net:?}"),
    };
    tally.analysed += 1;
    tally.multi_master += usize::from(net.n_masters() > 1);
    for (k, master) in net.masters.iter().enumerate() {
        assert_eq!(an.masters[k].len(), master.streams.len());
        if master.streams.is_empty() {
            continue;
        }
        let rows: Vec<_> = master
            .streams
            .streams()
            .iter()
            .map(|s| (s.d.ticks(), s.t.ticks(), s.j.ticks()))
            .collect();
        let want = oracle(&rows, tc).unwrap();
        for (i, s) in master.streams.iter() {
            let ctx = format!("master {k}, stream {i} of {net:?}");
            let (row, w, o) = (&an.masters[k][i], &details[k][i], &want[i]);
            assert_eq!(w.wcrt.ticks(), o.wcrt, "wcrt, {ctx}");
            assert_eq!(w.critical_a.ticks(), o.critical_a, "critical_a, {ctx}");
            assert_eq!(row.response_time, w.wcrt, "response_time, {ctx}");
            assert_eq!(row.schedulable, o.wcrt <= s.d.ticks(), "verdict, {ctx}");
            assert!(w.candidates <= o.candidates, "candidates, {ctx}");
            tally.stopped += usize::from(w.candidates < o.candidates);
            tally.jittered += usize::from(s.j.is_positive());
            tally.below_tcycle += usize::from(s.d.ticks() < tc);
        }
    }
}

#[test]
fn message_scan_matches_literal_oracle() {
    let strategy = arb_network();
    let mut rng = TestRng::for_test("message_scan_matches_literal_oracle");
    let mut scratch = AnalysisScratch::new();
    let mut tally = Tally::default();
    let cases = cases();
    for _ in 0..cases {
        check_case(&strategy.generate(&mut rng), &mut scratch, &mut tally);
    }
    assert!(tally.skipped < cases / 4, "too many skipped networks");
    assert!(tally.analysed >= cases / 4, "too few analysable networks");
    assert!(tally.rejected > 0, "no utilisation rejection exercised");
    assert!(tally.multi_master > 0, "no multi-master network analysed");
    assert!(tally.jittered > 0, "no jittered stream analysed");
    assert!(tally.below_tcycle > 0, "no stream with D < Tcycle analysed");
    assert!(tally.stopped > 0, "the early stop never fired");
}
