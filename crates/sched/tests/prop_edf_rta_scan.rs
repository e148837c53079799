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
//! library evaluated — the saving of the warm seeds alone. Run under any
//! `PROPTEST_SEED`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use profirt_base::{AnalysisError, Task, TaskSet};
use profirt_sched::edf::{
    edf_response_times_with, nonpreemptive_busy_period, np_edf_response_times_with,
    synchronous_busy_period, EdfRtaConfig, NpEdfRtaConfig,
};
use profirt_sched::{AnalysisScratch, FixpointConfig};

const CASES: usize = 256;

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
                if r > best.wcrt {
                    best.wcrt = r;
                    best.critical_a = a;
                }
            }
            best
        })
        .collect()
}

/// Eqs. (9)–(10): `Li(a) = max_{Dj > a+Di}(Cj − 1) + ⌊a/Ti⌋·Ci +
/// Σ_{j≠i, Dj ≤ a+Di} min{1 + ⌊(t+Jj)/Tj⌋, 1 + ⌊(a+Di−Dj+Jj)/Tj⌋}·Cj`,
/// `ri(a) = max{Ci, Li(a) + Ci − a}` over `a ∈ [0, last]`.
fn oracle_np(rows: &[(i64, i64, i64, i64)], last: i64) -> Vec<OracleWcrt> {
    (0..rows.len())
        .map(|i| {
            let (d_i, t_i, c_i, _) = rows[i];
            let cands = candidates(rows, i, last);
            let mut best = OracleWcrt {
                wcrt: c_i,
                critical_a: 0,
                evals: Vec::with_capacity(cands.len()),
            };
            for &a in &cands {
                let blocking = rows
                    .iter()
                    .enumerate()
                    .filter(|&(j, &(d_j, _, _, _))| j != i && d_j > a + d_i)
                    .map(|(_, &(_, _, c_j, _))| c_j - 1)
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
        ("np-edf-rta paper", lit, oracle_np(&rows, l)),
        ("np-edf-rta", ext, oracle_np(&rows, l_blocked)),
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
    for _ in 0..CASES {
        check_case(&strategy.generate(&mut rng), &mut scratch, &mut tally);
    }
    assert!(tally.analysed >= CASES / 2, "too few analysable sets");
    assert!(tally.stopped_tasks > 0, "the early stop never fired");
    assert!(
        tally.library_evals < tally.oracle_evals,
        "warm seeds saved nothing: {} library vs {} oracle evaluations on the same candidates",
        tally.library_evals,
        tally.oracle_evals
    );
    tally
}
