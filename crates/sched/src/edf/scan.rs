//! The arrival-candidate scan shared by the EDF response-time analyses
//! ([`crate::edf::rta`], eqs. (6)–(8), and [`crate::edf::rta_np`],
//! eqs. (9)–(10)).
//!
//! For one task `τi` both analyses walk the candidates `a` of eqs. (8)/(10)
//! in strictly increasing order, solve one busy-period recurrence
//!
//! `Li(a) = base(a) + Σ_{j≠i, Dj ≤ a+Di} min{jobs_j(Li(a) + Jj), capj(a)} · Cj`
//!
//! per candidate, and keep the first strict maximum of
//! `ri(a) = max{Ci, Li(a) + tail − a}` (`tail` is `0` preemptively and `Ci`
//! non-preemptively). Release jitter enters as in the paper's message
//! analysis, eqs. (17)–(18): a task released up to `Jj` late adds the
//! candidates `k·Tj + Dj − Jj − Di` to the plain `k·Tj + Dj − Di`, its job
//! count in a window `t` is taken at `t + Jj`, and its deadline cap is
//! `1 + ⌊(a + Di − Dj + Jj)/Tj⌋`. With every `J = 0` these are the
//! jitter-free eqs. (6)–(10). The scan returns exactly that maximum and its
//! offset, but does less work than solving every candidate from zero:
//!
//! * **Warm seed.** Between two candidates `a < a'` the own-job count, the
//!   set of deadline-qualified tasks and every `capj` only grow, so
//!   `f_a'(t) ≥ f_a(t)` pointwise whenever `base` does not shrink. Then
//!   `f_a'(Li(a)) ≥ f_a(Li(a)) = Li(a)`, and iterating `f_a'` from `Li(a)`
//!   stays at or below `Li(a')` and reaches the same least fixpoint as
//!   iterating from zero, in at most as many evaluations. The analyses
//!   hand the scan a *reseed key* with each recurrence: the seed carries
//!   over only while the key is unchanged. The preemptive key is constant;
//!   the non-preemptive key is the blocking term `max_{Dj > a+Di}(Cj − 1)`
//!   (`Cj` for messages), the one part of `base` that shrinks as `a` grows, so the scan restarts
//!   from zero at most `n` times per task.
//! * **Cold redo on error.** A warm-seeded fixpoint that fails (bound
//!   crossed, iteration cap, overflow) is redone from zero and the cold
//!   result is returned, so error values are the ones the cold iteration
//!   gives.
//! * **Early stop.** Every converged `Li(a)` is at most the fixpoint bound
//!   `B`, so `ri(a) ≤ max{Ci, B + tail − a}`. Once `B − a ≤ best − tail` no
//!   later candidate can beat the current maximum strictly, and the scan
//!   ends. The test is written in that form so it cannot overflow.
//!   Candidates are counted, and the `max_candidates` cap checked, before
//!   the stop test: [`EdfWcrt::candidates`] counts the candidates examined
//!   until the scan stopped.
//!
//! ### The one permitted divergence from a full cold scan
//!
//! `FixpointConfig::max_iterations` caps the iterations a fixpoint actually
//! runs, so a candidate whose cold chain would hit the cap may converge
//! from a warm seed; and candidates after the stop are never evaluated, so
//! an arithmetic error one of them would raise no longer surfaces. In both
//! cases every returned value is still the exact least fixpoint; verdicts,
//! `wcrt` and `critical_a` never differ otherwise.

use profirt_base::{AnalysisError, AnalysisResult, Task, TaskSet, Time};

use crate::edf::rta::EdfWcrt;
use crate::fixpoint::{fixpoint_counted, FixOutcome, FixpointConfig};
use crate::scratch::AnalysisScratch;
use crate::{soa, SetAnalysis, TaskVerdict};

/// Interference terms `(Tj, Cj, Jj, capj)` of one candidate's recurrence.
pub(crate) type Caps = Vec<(Time, Time, Time, i64)>;

/// The per-analysis constants of an arrival scan.
pub(crate) struct ScanSpec {
    /// Error label of the candidate cap.
    pub candidates_what: &'static str,
    /// Error label of the per-candidate busy-period fixpoint.
    pub busy_what: &'static str,
    /// Fixpoint limits per candidate.
    pub fixpoint: FixpointConfig,
    /// Hard cap on candidates per task.
    pub max_candidates: u64,
    /// Last candidate offset (inclusive).
    pub candidate_bound: Time,
    /// Bound of every per-candidate fixpoint; an iterate above it is an
    /// error.
    pub fix_bound: Time,
    /// `Li(a)` is the busy period preceding the instance's *start*
    /// (eq. (9)): `ri(a) = max{Ci, Li(a) + Ci − a}` and the jobs of `τj` in
    /// `t` count as `1 + ⌊(t + Jj)/Tj⌋`. Otherwise it precedes the
    /// completion (eq. (6)): `ri(a) = max{Ci, Li(a) − a}` with
    /// `⌈(t + Jj)/Tj⌉` jobs.
    pub start_preceding: bool,
}

/// Scans every row's arrival candidates (see the module docs) and returns
/// the per-row worst cases. `load(rows, i, a, caps)` is the analysis'
/// per-candidate recurrence: it fills `caps` with the interference terms
/// of row `i`'s candidate `a` and returns `(base, reseed_key)`.
pub(crate) fn scan_arrivals<F>(
    spec: &ScanSpec,
    rows: &[Task],
    scratch: &mut AnalysisScratch,
    load: F,
) -> AnalysisResult<Vec<EdfWcrt>>
where
    F: Fn(&[Task], usize, Time, &mut Caps) -> AnalysisResult<(Time, Time)>,
{
    (0..rows.len())
        .map(|i| scan_task(spec, rows, i, scratch, &load))
        .collect()
}

/// The deadline verdicts of a task set's worst cases, paired with them.
pub(crate) fn with_verdicts(set: &TaskSet, details: Vec<EdfWcrt>) -> (SetAnalysis, Vec<EdfWcrt>) {
    let verdicts = set
        .iter()
        .map(|(i, task)| {
            let wcrt = details[i].wcrt;
            if wcrt <= task.d {
                TaskVerdict::Schedulable { wcrt }
            } else {
                TaskVerdict::Unschedulable { exceeded_at: wcrt }
            }
        })
        .collect();
    (SetAnalysis { verdicts }, details)
}

/// The scan of one row `i`.
fn scan_task<F>(
    spec: &ScanSpec,
    rows: &[Task],
    i: usize,
    scratch: &mut AnalysisScratch,
    load: &F,
) -> AnalysisResult<EdfWcrt>
where
    F: Fn(&[Task], usize, Time, &mut Caps) -> AnalysisResult<(Time, Time)>,
{
    let AnalysisScratch {
        checkpoints,
        progressions,
        caps,
        fixpoint_iters: iters,
        ..
    } = scratch;
    let Task { c: c_i, d: d_i, .. } = rows[i];
    let tail = if spec.start_preceding {
        c_i
    } else {
        Time::ZERO
    };
    // Candidates a = k*Tj + Dj - Di >= 0, and a = k*Tj + Dj - Jj - Di for a
    // jittered row; the merge advances negative offsets automatically.
    progressions.clear();
    for row in rows {
        progressions.push((row.d - d_i, row.t));
        if row.j.is_positive() {
            progressions.push((row.d - row.j - d_i, row.t));
        }
    }
    let mut best = EdfWcrt {
        wcrt: c_i,
        critical_a: Time::ZERO,
        candidates: 0,
    };
    let mut examined: u64 = 0;
    // (reseed key, Li) of the previous candidate.
    let mut warm: Option<(Time, Time)> = None;
    let mut cursor = checkpoints.start(progressions, spec.candidate_bound);
    while let Some(a) = cursor.next_point() {
        examined += 1;
        if examined > spec.max_candidates {
            return Err(AnalysisError::IterationLimit {
                what: spec.candidates_what,
                limit: spec.max_candidates,
            });
        }
        if spec.fix_bound - a <= best.wcrt - tail {
            break;
        }
        let (base, key) = load(rows, i, a, caps)?;
        let seed = match warm {
            Some((k, li)) if k == key => li,
            _ => Time::ZERO,
        };
        let li = match busy_period(spec, base, caps, seed, iters) {
            Err(_) if seed > Time::ZERO => busy_period(spec, base, caps, Time::ZERO, iters)?,
            solved => solved?,
        };
        warm = Some((key, li));
        let r = c_i.max((li - a).try_add(tail)?);
        if r > best.wcrt {
            best.wcrt = r;
            best.critical_a = a;
        }
    }
    best.candidates = examined as usize;
    Ok(best)
}

/// Solves `L = base + Σ min{jobs_j(L), capj} · Cj` from `seed`.
fn busy_period(
    spec: &ScanSpec,
    base: Time,
    caps: &Caps,
    seed: Time,
    iters: &mut u64,
) -> AnalysisResult<Time> {
    let outcome = fixpoint_counted(
        spec.busy_what,
        seed,
        spec.fix_bound,
        spec.fixpoint,
        iters,
        |t| base.try_add(soa::capped_interference(caps, t, spec.start_preceding)?),
    )?;
    match outcome {
        FixOutcome::Converged(v) => Ok(v),
        // Cannot exceed the bound by the dominance argument (see the
        // busy_period docs); reaching here indicates arithmetic trouble.
        FixOutcome::ExceededBound(v) => Err(AnalysisError::DivergentIteration {
            what: spec.busy_what,
            bound: v.ticks(),
        }),
    }
}
