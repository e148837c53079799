//! Differential property test for the EDF response-time candidate scans.
//!
//! The library scans arrival candidates with warm-seeded fixpoints and stops
//! once no later offset can beat the best response found (see
//! `profirt_sched::edf::rta`). The oracle here is the literal scan of the
//! paper's eqs. (6)–(10): every candidate, each busy period iterated from
//! zero, no early stop, with release jitter entering as in eqs. (17)–(18).
//! Over random implicit- and constrained-deadline sets of 1–8 tasks, once
//! jitter-free and once with jitter on some tasks, analysed through one
//! shared `AnalysisScratch`, the library must reproduce the oracle's
//! verdicts, `wcrt` and `critical_a` for the preemptive analysis and for
//! both non-preemptive candidate ranges, while examining no more
//! candidates. Non-vacuity: across the run the stop must
//! fire on some tasks, and the library's fixpoint evaluations (busy periods
//! included) must total fewer than the oracle's on the candidates the
//! library evaluated — the saving of the warm seeds alone.
//!
//! A third generator forces the shapes a scan shared by all rows of a set
//! can get wrong: coinciding deadline points (duplicate `(D, T)` rows, and
//! a jitter with `Dj − Jj = Dk`), a row whose deadline lies past the busy
//! period, a row that is the unique largest non-preemptive blocker, and
//! single-row sets. There the preemptive analysis, both non-preemptive
//! candidate ranges and the message form (`np_edf_rows_with` with full-cost
//! blocking) must match the oracle exactly: `wcrt`, `critical_a`, the
//! candidates up to the stop rule's position in the oracle's scan, and the
//! error, with and without a tight candidate cap. Run under any
//! `PROPTEST_SEED`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use profirt_base::{AnalysisError, AnalysisResult, Task, TaskSet, Time};
use profirt_sched::edf::{
    edf_response_times_with, nonpreemptive_busy_period, np_edf_response_times_with,
    np_edf_rows_with, synchronous_busy_period, EdfRtaConfig, EdfWcrt, NpEdfRtaConfig,
};
use profirt_sched::fixed::BlockingRule;
use profirt_sched::{AnalysisScratch, FixpointConfig};

/// Cases per test: `PROPTEST_CASES` when set (CI runs 2048 in release),
/// else 256.
fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Random sets of 1–8 tasks, implicit or constrained deadlines. Without
/// the optional heavy task (cost up to 400, period 1000: long blocking
/// terms for the non-preemptive analysis) each task's utilisation is below
/// `1/n`, so sets run long busy periods close to `U = 1`; with it the light
/// tasks share `U < 1/2`. One draw in eight adds a task that pushes `U` to
/// 1 or beyond.
fn arb_task_set() -> impl Strategy<Value = TaskSet> {
    (
        proptest::collection::vec((1i64..20, 1i64..60, 0i64..80), 1..=7),
        (0i64..400, 0i64..1000),
        0u8..2,
        0u8..8,
    )
        .prop_map(|(raw, (heavy, heavy_slack), implicit, overload)| {
            let implicit = implicit == 1;
            let n = raw.len() as i64;
            let scale = if heavy > 0 { 2 * n } else { n };
            let mut tasks: Vec<Task> = raw
                .into_iter()
                .map(|(c, t_extra, d_slack)| {
                    let t = scale * c + t_extra;
                    let d = if implicit { t } else { (c + d_slack).min(t) };
                    Task::new(c, d, t).unwrap()
                })
                .collect();
            if heavy > 0 {
                let d = if implicit {
                    1000
                } else {
                    (heavy + heavy_slack).min(1000)
                };
                tasks.push(Task::new(heavy, d, 1000).unwrap());
            }
            if overload == 0 {
                tasks.push(Task::implicit(1, 1).unwrap());
            }
            TaskSet::new(tasks).unwrap()
        })
}

/// One task's worst case as the literal scan finds it.
#[derive(Debug)]
struct OracleWcrt {
    wcrt: i64,
    critical_a: i64,
    /// Fixpoint evaluations per candidate, in scan order.
    evals: Vec<u64>,
    /// `(a, ri(a))` per candidate, in scan order.
    responses: Vec<(i64, i64)>,
}

/// The sets of [`arb_task_set`] with a jitter of up to twice its period
/// on each task drawn `1`, and none on the others.
fn arb_jittered_task_set() -> impl Strategy<Value = TaskSet> {
    (
        arb_task_set(),
        proptest::collection::vec((0u8..3, 0i64..2_000), 9),
    )
        .prop_map(|(set, draws)| {
            let tasks = set
                .tasks()
                .iter()
                .zip(draws)
                .map(|(task, (draw, j))| Task {
                    j: if draw == 1 {
                        profirt_base::Time::new(j % (2 * task.t.ticks()))
                    } else {
                        task.j
                    },
                    ..*task
                })
                .collect();
            TaskSet::new(tasks).unwrap()
        })
}

/// `(Di, Ti, Ci, Ji)` rows in ticks.
fn rows(set: &TaskSet) -> Vec<(i64, i64, i64, i64)> {
    set.tasks()
        .iter()
        .map(|t| (t.d.ticks(), t.t.ticks(), t.c.ticks(), t.j.ticks()))
        .collect()
}

/// Every candidate `a = k·Tj + Dj − Di`, and `a = k·Tj + Dj − Jj − Di` for
/// a jittered task, in `[0, last]`, ascending, without duplicates.
fn candidates(rows: &[(i64, i64, i64, i64)], i: usize, last: i64) -> Vec<i64> {
    let d_i = rows[i].0;
    let mut out = Vec::new();
    for &(d_j, t_j, _, j_j) in rows {
        for shift in [0, j_j] {
            let mut a = d_j - shift - d_i;
            while a < 0 {
                a += t_j;
            }
            while a <= last {
                out.push(a);
                a += t_j;
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Least fixpoint of `f` iterated from zero, counting evaluations.
fn lfp_from_zero(evals: &mut Vec<u64>, f: impl Fn(i64) -> i64) -> i64 {
    evals.push(0);
    let count = evals.last_mut().unwrap();
    let mut x = 0;
    loop {
        *count += 1;
        let next = f(x);
        if next == x {
            return x;
        }
        x = next;
    }
}

/// Eqs. (6)–(8): `Li(a) = (1 + ⌊a/Ti⌋)·Ci + Σ_{j≠i, Dj ≤ a+Di}
/// min{⌈(t+Jj)/Tj⌉, 1 + ⌊(a+Di−Dj+Jj)/Tj⌋}·Cj`,
/// `ri(a) = max{Ci, Li(a) − a}` over `a ∈ [0, L)`.
fn oracle_preemptive(rows: &[(i64, i64, i64, i64)], l: i64) -> Vec<OracleWcrt> {
    (0..rows.len())
        .map(|i| {
            let (d_i, t_i, c_i, _) = rows[i];
            let cands = candidates(rows, i, (l - 1).max(0));
            let mut best = OracleWcrt {
                wcrt: c_i,
                critical_a: 0,
                evals: Vec::with_capacity(cands.len()),
                responses: Vec::with_capacity(cands.len()),
            };
            for &a in &cands {
                let li = lfp_from_zero(&mut best.evals, |t| {
                    let mut w = (1 + a / t_i) * c_i;
                    for (j, &(d_j, t_j, c_j, j_j)) in rows.iter().enumerate() {
                        if j != i && d_j <= a + d_i {
                            let jobs =
                                ((t + j_j + t_j - 1) / t_j).min(1 + (a + d_i - d_j + j_j) / t_j);
                            w += jobs * c_j;
                        }
                    }
                    w
                });
                let r = c_i.max(li - a);
                best.responses.push((a, r));
                if r > best.wcrt {
                    best.wcrt = r;
                    best.critical_a = a;
                }
            }
            best
        })
        .collect()
}

/// Eqs. (9)–(10): `Li(a) = max_{Dj > a+Di} block(Cj) + ⌊a/Ti⌋·Ci +
/// Σ_{j≠i, Dj ≤ a+Di} min{1 + ⌊(t+Jj)/Tj⌋, 1 + ⌊(a+Di−Dj+Jj)/Tj⌋}·Cj`,
/// `ri(a) = max{Ci, Li(a) + Ci − a}` over `a ∈ [0, last]`; tasks block for
/// `Cj − 1`, messages for `Cj`.
fn oracle_np(
    rows: &[(i64, i64, i64, i64)],
    last: i64,
    block: impl Fn(i64) -> i64,
) -> Vec<OracleWcrt> {
    (0..rows.len())
        .map(|i| {
            let (d_i, t_i, c_i, _) = rows[i];
            let cands = candidates(rows, i, last);
            let mut best = OracleWcrt {
                wcrt: c_i,
                critical_a: 0,
                evals: Vec::with_capacity(cands.len()),
                responses: Vec::with_capacity(cands.len()),
            };
            for &a in &cands {
                let blocking = rows
                    .iter()
                    .enumerate()
                    .filter(|&(j, &(d_j, _, _, _))| j != i && d_j > a + d_i)
                    .map(|(_, &(_, _, c_j, _))| block(c_j))
                    .max()
                    .unwrap_or(0);
                let li = lfp_from_zero(&mut best.evals, |t| {
                    let mut w = blocking + (a / t_i) * c_i;
                    for (j, &(d_j, t_j, c_j, j_j)) in rows.iter().enumerate() {
                        if j != i && d_j <= a + d_i {
                            let jobs = (1 + (t + j_j) / t_j).min(1 + (a + d_i - d_j + j_j) / t_j);
                            w += jobs * c_j;
                        }
                    }
                    w
                });
                let r = c_i.max(li + c_i - a);
                best.responses.push((a, r));
                if r > best.wcrt {
                    best.wcrt = r;
                    best.critical_a = a;
                }
            }
            best
        })
        .collect()
}

/// Run-wide tallies for the non-vacuity checks.
#[derive(Default)]
struct Tally {
    analysed: usize,
    /// Jittered tasks among the analysed sets.
    jittered_tasks: usize,
    /// Tasks whose scan stopped before the last candidate.
    stopped_tasks: usize,
    /// Library fixpoint evaluations, busy periods included.
    library_evals: u64,
    /// Oracle evaluations on the candidates the library evaluated.
    oracle_evals: u64,
}

fn check_case(set: &TaskSet, scratch: &mut AnalysisScratch, tally: &mut Tally) {
    let u_lt_one = set.total_utilization().lt_one();
    let fix = FixpointConfig::default();
    let rows = rows(set);
    let np_paper = NpEdfRtaConfig::paper();
    let np_ext = NpEdfRtaConfig::default();

    scratch.take_fixpoint_iters();
    let pre = edf_response_times_with(set, &EdfRtaConfig::default(), scratch);
    let lit = np_edf_response_times_with(set, &np_paper, scratch);
    let ext = np_edf_response_times_with(set, &np_ext, scratch);
    if !u_lt_one {
        for got in [&pre, &lit, &ext] {
            assert_eq!(
                got.as_ref().unwrap_err(),
                &AnalysisError::UtilizationAtLeastOne,
                "{set:?}"
            );
        }
        return;
    }
    tally.analysed += 1;
    tally.jittered_tasks += rows.iter().filter(|row| row.3 > 0).count();
    tally.library_evals += scratch.take_fixpoint_iters();

    let l = synchronous_busy_period(set, fix).unwrap().ticks();
    let max_block = rows.iter().map(|&(_, _, c, _)| c - 1).max().unwrap_or(0);
    let l_blocked = nonpreemptive_busy_period(set, profirt_base::Time::new(max_block), fix)
        .unwrap()
        .ticks();
    let runs = [
        ("edf-rta", pre, oracle_preemptive(&rows, l)),
        ("np-edf-rta paper", lit, oracle_np(&rows, l, |c| c - 1)),
        ("np-edf-rta", ext, oracle_np(&rows, l_blocked, |c| c - 1)),
    ];
    for (name, got, want) in runs {
        let (analysis, details) = got.unwrap_or_else(|e| panic!("{name} failed on {set:?}: {e:?}"));
        for (i, (w, o)) in details.iter().zip(&want).enumerate() {
            let ctx = format!("{name}, task {i} of {set:?}");
            assert_eq!(w.wcrt.ticks(), o.wcrt, "wcrt, {ctx}");
            assert_eq!(w.critical_a.ticks(), o.critical_a, "critical_a, {ctx}");
            let total = o.evals.len();
            assert!(w.candidates <= total, "candidates, {ctx}");
            assert_eq!(
                analysis.verdicts[i].is_schedulable(),
                o.wcrt <= rows[i].0,
                "verdict, {ctx}"
            );
            // A scan that stopped counted, but did not evaluate, its last
            // examined candidate.
            let evaluated = if w.candidates < total {
                tally.stopped_tasks += 1;
                w.candidates - 1
            } else {
                w.candidates
            };
            tally.oracle_evals += o.evals[..evaluated].iter().sum::<u64>();
        }
    }
}

#[test]
fn scan_matches_literal_oracle() {
    run_scan_against_oracle("scan_matches_literal_oracle", arb_task_set());
}

#[test]
fn jittered_scan_matches_literal_oracle() {
    let tally = run_scan_against_oracle(
        "jittered_scan_matches_literal_oracle",
        arb_jittered_task_set(),
    );
    assert!(tally.jittered_tasks > 0, "no jittered task analysed");
}

fn run_scan_against_oracle(name: &str, strategy: impl Strategy<Value = TaskSet>) -> Tally {
    let mut rng = TestRng::for_test(name);
    let mut scratch = AnalysisScratch::new();
    let mut tally = Tally::default();
    let cases = cases();
    for _ in 0..cases {
        check_case(&strategy.generate(&mut rng), &mut scratch, &mut tally);
    }
    assert!(tally.analysed >= cases / 2, "too few analysable sets");
    assert!(tally.stopped_tasks > 0, "the early stop never fired");
    assert!(
        tally.library_evals < tally.oracle_evals,
        "warm seeds saved nothing: {} library vs {} oracle evaluations on the same candidates",
        tally.library_evals,
        tally.oracle_evals
    );
    tally
}

/// Sets of 1–8 rows with small parameters, so deadline points of
/// different rows coincide often, each draw forcing some of these shapes:
/// a duplicated `(D, T)` row; a jitter `Jj = Dj − Dk`, so row `j`'s jittered
/// points fall on row `k`'s deadline points; a row whose deadline lies far
/// past the busy period; a row of unique largest cost (the largest
/// non-preemptive blocker of every row but itself); a single row; and,
/// one draw in eight, an overloading row.
fn arb_walk_edge_set() -> impl Strategy<Value = TaskSet> {
    (
        proptest::collection::vec((1i64..6, 0i64..30, 0i64..40), 1..=4),
        (0u8..3, 0u8..3, 0u8..3, 0u8..3, 0u8..4, 0u8..8),
        (0usize..8, 0usize..8, 0i64..60),
    )
        .prop_map(
            |(raw, (dup, coincide, far, big, single, overload), (p, q, big_slack))| {
                let n = raw.len() as i64 + 4;
                let mut tasks: Vec<Task> = raw
                    .into_iter()
                    .map(|(c, t_extra, d_slack)| {
                        Task::new(c, c + d_slack, 2 * n * c + t_extra).unwrap()
                    })
                    .collect();
                if single == 0 {
                    tasks.truncate(1);
                } else {
                    if dup == 0 {
                        tasks.push(tasks[p % tasks.len()]);
                    }
                    if coincide == 0 && tasks.len() > 1 {
                        let (j, k) = (p % tasks.len(), q % tasks.len());
                        let (j, k) = if tasks[j].d >= tasks[k].d {
                            (j, k)
                        } else {
                            (k, j)
                        };
                        tasks[j].j = tasks[j].d - tasks[k].d;
                    }
                    if far == 0 {
                        tasks.push(Task::new(1, 10_000, 10_000).unwrap());
                    }
                    if big == 0 {
                        tasks.push(Task::new(40, 40 + big_slack, 1_000).unwrap());
                    }
                }
                if overload == 0 {
                    tasks.push(Task::implicit(1, 1).unwrap());
                }
                TaskSet::new(tasks).unwrap()
            },
        )
}

/// The candidates a scan with the early stop examines: up to and including
/// the first candidate `a` with `bound − a ≤ best − tail`, `best` the
/// largest response before it.
fn stopped_candidates(o: &OracleWcrt, c_i: i64, bound: i64, tail: i64) -> usize {
    let mut best = c_i;
    for (examined, &(a, r)) in o.responses.iter().enumerate() {
        if bound - a <= best - tail {
            return examined + 1;
        }
        best = best.max(r);
    }
    o.responses.len()
}

/// Run-wide counts of the forced shapes, for the non-vacuity checks.
#[derive(Default)]
struct Shapes {
    analysed: usize,
    single: usize,
    duplicate: usize,
    coinciding_jitter: usize,
    past_busy_period: usize,
    own_largest_blocker: usize,
    overloaded: usize,
    capped: usize,
}

fn check_walk_case(set: &TaskSet, scratch: &mut AnalysisScratch, shapes: &mut Shapes) {
    let rows = rows(set);
    let fix = FixpointConfig::default();
    let max_c = rows.iter().map(|row| row.2).max().unwrap_or(0);
    if rows.len() == 1 {
        shapes.single += 1;
    }
    if (1..rows.len()).any(|j| (0..j).any(|k| (rows[j].0, rows[j].1) == (rows[k].0, rows[k].1))) {
        shapes.duplicate += 1;
    }
    if rows
        .iter()
        .any(|&(d, _, _, j)| j > 0 && rows.iter().any(|row| row.0 == d - j))
    {
        shapes.coinciding_jitter += 1;
    }
    if rows.iter().filter(|row| row.2 == max_c).count() == 1 && rows.len() > 1 {
        shapes.own_largest_blocker += 1;
    }
    let analyses = |scratch: &mut AnalysisScratch, cap: u64| {
        let pre = EdfRtaConfig {
            max_candidates: cap,
            ..Default::default()
        };
        let lit = NpEdfRtaConfig {
            max_candidates: cap,
            ..NpEdfRtaConfig::paper()
        };
        let ext = NpEdfRtaConfig {
            max_candidates: cap,
            ..Default::default()
        };
        let details = |got: AnalysisResult<(_, Vec<EdfWcrt>)>| got.map(|(_, d)| d);
        [
            details(edf_response_times_with(set, &pre, scratch)),
            details(np_edf_response_times_with(set, &lit, scratch)),
            details(np_edf_response_times_with(set, &ext, scratch)),
            np_edf_rows_with(set.tasks(), BlockingRule::MaxLowerCost, &ext, scratch),
        ]
    };
    if !set.total_utilization().lt_one() {
        shapes.overloaded += 1;
        for got in analyses(scratch, 2_000_000) {
            assert_eq!(got, Err(AnalysisError::UtilizationAtLeastOne), "{set:?}");
        }
        return;
    }
    shapes.analysed += 1;
    let l = synchronous_busy_period(set, fix).unwrap().ticks();
    let blocked = |b: i64| {
        nonpreemptive_busy_period(set, Time::new(b), fix)
            .unwrap()
            .ticks()
    };
    let (l_minus_one, l_full) = (blocked(max_c - 1), blocked(max_c));
    if rows
        .iter()
        .any(|row| row.0 > l_full + rows.iter().map(|r| r.0).min().unwrap_or(0))
    {
        shapes.past_busy_period += 1;
    }
    // (name, oracle, fixpoint bound, non-preemptive tail, candidate label)
    let want = [
        (
            "edf-rta",
            oracle_preemptive(&rows, l),
            l,
            false,
            "edf-rta candidates",
        ),
        (
            "np-edf-rta paper",
            oracle_np(&rows, l, |c| c - 1),
            l_minus_one,
            true,
            "np-edf-rta candidates",
        ),
        (
            "np-edf-rta",
            oracle_np(&rows, l_minus_one, |c| c - 1),
            l_minus_one,
            true,
            "np-edf-rta candidates",
        ),
        (
            "message rows",
            oracle_np(&rows, l_full, |c| c),
            l_full,
            true,
            "np-edf-rta candidates",
        ),
    ];
    for cap in [2_000_000, 3] {
        for (got, (name, oracle, bound, np, what)) in analyses(scratch, cap).into_iter().zip(&want)
        {
            let stops: Vec<usize> = oracle
                .iter()
                .zip(&rows)
                .map(|(o, row)| stopped_candidates(o, row.2, *bound, if *np { row.2 } else { 0 }))
                .collect();
            let ctx = format!("{name}, cap {cap}, {set:?}");
            if stops.iter().any(|&s| s as u64 > cap) {
                shapes.capped += 1;
                assert_eq!(
                    got,
                    Err(AnalysisError::IterationLimit { what, limit: cap }),
                    "{ctx}"
                );
                continue;
            }
            let got = got.unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            for (i, (w, o)) in got.iter().zip(oracle).enumerate() {
                assert_eq!(w.wcrt.ticks(), o.wcrt, "wcrt, row {i}, {ctx}");
                assert_eq!(
                    w.critical_a.ticks(),
                    o.critical_a,
                    "critical_a, row {i}, {ctx}"
                );
                assert_eq!(w.candidates, stops[i], "candidates, row {i}, {ctx}");
            }
        }
    }
}

#[test]
fn walk_edge_cases_match_literal_oracle() {
    let strategy = arb_walk_edge_set();
    let mut rng = TestRng::for_test("walk_edge_cases_match_literal_oracle");
    let mut scratch = AnalysisScratch::new();
    let mut shapes = Shapes::default();
    let cases = cases();
    for _ in 0..cases {
        check_walk_case(&strategy.generate(&mut rng), &mut scratch, &mut shapes);
    }
    assert!(shapes.analysed >= cases / 2, "too few analysable sets");
    for (shape, count) in [
        ("single-row set", shapes.single),
        ("duplicate (D, T) rows", shapes.duplicate),
        ("jitter onto another deadline", shapes.coinciding_jitter),
        ("deadline past the busy period", shapes.past_busy_period),
        ("unique largest blocker", shapes.own_largest_blocker),
        ("overloaded set", shapes.overloaded),
        ("candidate cap crossed", shapes.capped),
    ] {
        assert!(count > 0, "no {shape} drawn");
    }
}
