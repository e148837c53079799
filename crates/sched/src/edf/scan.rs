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
//! jitter-free eqs. (6)–(10).
//!
//! ### One deadline walk per row set
//!
//! Every candidate is an absolute deadline point shifted by `−Di`:
//! `a = P − Di` with `P ∈ ⋃_j {k·Tj + Dj} ∪ {k·Tj + Dj − Jj}` and
//! `P ≥ Di`. So all rows of a set read one sorted sequence of points, each
//! from its own start. A call merges that sequence once
//! ([`DeadlineWalk`]), lazily: a point is generated only when some row's
//! scan reads it, so the early stop below keeps paying. Each point records
//! the rows that step there with their new deadline cap
//! `capj(P) = 1 + ⌊(P − Dj + Jj)/Tj⌋`.
//!
//! Rows are scanned one after another, not in lockstep, in ascending
//! deadline order. Each row starts at or after the previous row's start,
//! so the walk only moves forward: points below the current start are
//! dropped, and a stretch of points that no row reads (between the stop of
//! one row and the start of the next) is skipped, not generated. Every
//! point is generated once. A row's result does not depend on the order,
//! and the scan returns the error of the lowest-indexed failing row, as a
//! scan in index order would; rows above the lowest failure found so far
//! are not scanned.
//!
//! Row `i`'s scan keeps the interference terms of the other rows in one
//! slot each, in deadline order. At a point `P` the qualified rows
//! (`Dj ≤ P`) are then a prefix of the slots, only the slots of the rows
//! that step at `P` change, and the non-preemptive blocking term
//! `max_{Dj > P} rule(Cj)` is a suffix maximum over the same order, built
//! once per set. Row `i` is never its own blocker there, since `Di ≤ P`.
//! Outside the fixpoint itself a candidate costs one division (the own-job
//! count) plus its steps; a row's first candidate loads its slots in
//! `O(n)`.
//!
//! ### Less work than a cold scan of every candidate
//!
//! The scan returns exactly the maximum and offset of a full scan, but
//! does not solve every candidate from zero:
//!
//! * **Warm seed.** Between two candidates `a < a'` the own-job count, the
//!   set of deadline-qualified tasks and every `capj` only grow, so
//!   `f_a'(t) ≥ f_a(t)` pointwise whenever `base` does not shrink. Then
//!   `f_a'(Li(a)) ≥ f_a(Li(a)) = Li(a)`, and iterating `f_a'` from `Li(a)`
//!   stays at or below `Li(a')` and reaches the same least fixpoint as
//!   iterating from zero, in at most as many evaluations. Each recurrence
//!   comes with a *reseed key*: the seed carries over only while the key is
//!   unchanged. The preemptive key is constant; the non-preemptive key is
//!   the blocking term, the one part of `base` that shrinks as `a` grows,
//!   so the scan restarts from zero at most `n` times per task.
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

use crate::checkpoints::Checkpoints;
use crate::edf::rta::EdfWcrt;
use crate::fixed::BlockingRule;
use crate::fixpoint::{fixpoint_counted, FixOutcome, FixpointConfig};
use crate::scratch::AnalysisScratch;
use crate::{soa, SetAnalysis, TaskVerdict};

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
    /// `Some(rule)`: the non-preemptive analysis (eq. (9)). `Li(a)` is the
    /// busy period preceding the instance's *start*: its base is
    /// `max_{Dj > a+Di} rule(Cj) + ⌊a/Ti⌋·Ci`, the jobs of `τj` in `t`
    /// count as `1 + ⌊(t + Jj)/Tj⌋`, and `ri(a) = max{Ci, Li(a) + Ci − a}`.
    /// `None`: the preemptive analysis (eq. (6)). `Li(a)` precedes the
    /// completion: its base is `(1 + ⌊a/Ti⌋)·Ci`, the jobs count as
    /// `⌈(t + Jj)/Tj⌉`, and `ri(a) = max{Ci, Li(a) − a}`.
    pub blocking: Option<BlockingRule>,
}

/// An interference term `(Tj, Cj, Jj, capj)` of one candidate's recurrence.
type CapTerm = (Time, Time, Time, i64);

/// The merged deadline walk of one row set (see the module docs) and the
/// per-set tables its scans read. It lives in [`AnalysisScratch`], so the
/// buffers are reused across calls.
///
/// Points are stored as `q = P − Dmin`, `Dmin` the smallest deadline of
/// the set: no row reads a point below it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadlineWalk {
    /// The steps of the points generated and not yet passed, ascending by
    /// point: `(q, rank, capj)` for each progression with an element at
    /// `q`, `capj = 1 + ⌊(q − (Dj − Dmin) + Jj)/Tj⌋` its row's deadline
    /// cap there. Every point has at least one step.
    steps: Vec<(Time, usize, i64)>,
    /// `(Dj − Dmin, j)` ascending: the rows in deadline order. A row's
    /// position here is its rank.
    order: Vec<(Time, usize)>,
    /// The rank of each progression's row: rows `0..n` first, then one
    /// entry per jittered row, in the order of the merge's progressions.
    prog_rank: Vec<usize>,
    /// `block[r] = max_{r' ≥ r} rule(C of order[r'])`, `block[n] = 0`;
    /// empty for the preemptive analysis.
    block: Vec<Time>,
}

impl DeadlineWalk {
    /// Clears the walk and builds the per-set tables of `rows`, leaving the
    /// progressions of the merge in `progressions`.
    fn reset(
        &mut self,
        rows: &[Task],
        d_min: Time,
        blocking: Option<BlockingRule>,
        progressions: &mut Vec<(Time, Time)>,
    ) {
        self.steps.clear();
        self.order.clear();
        self.order
            .extend(rows.iter().enumerate().map(|(j, row)| (row.d - d_min, j)));
        self.order.sort_unstable();
        self.prog_rank.clear();
        self.prog_rank.resize(rows.len(), 0);
        for (r, &(_, j)) in self.order.iter().enumerate() {
            self.prog_rank[j] = r;
        }
        // Points P = k*Tj + Dj, and P = k*Tj + Dj - Jj for a jittered row;
        // the merge advances negative offsets automatically.
        progressions.clear();
        progressions.extend(rows.iter().map(|row| (row.d - d_min, row.t)));
        for (j, row) in rows.iter().enumerate() {
            if row.j.is_positive() {
                progressions.push((row.d - row.j - d_min, row.t));
                self.prog_rank.push(self.prog_rank[j]);
            }
        }
        self.block.clear();
        if let Some(rule) = blocking {
            self.block.resize(rows.len() + 1, Time::ZERO);
            for r in (0..rows.len()).rev() {
                self.block[r] = self.block[r + 1].max(rule.of(rows[self.order[r].1].c));
            }
        }
    }

    /// Fills `caps` with one slot per row but `i`, in rank order, holding
    /// the row's interference term at point `q`: `(Tj, Cj, Jj, capj)` with
    /// `capj` taken at `q` for a qualified row and `0` otherwise.
    fn load_caps(&self, rows: &[Task], i: usize, q: Time, caps: &mut Vec<CapTerm>) {
        caps.clear();
        for &(off, j) in &self.order {
            if j == i {
                continue;
            }
            let row = &rows[j];
            let since = q - off;
            let cap = if since.is_negative() {
                0
            } else {
                1 + (since + row.j) / row.t
            };
            caps.push((row.t, row.c, row.j, cap));
        }
    }
}

/// A row set's [`DeadlineWalk`] with the live merge that grows it.
struct Walk<'a> {
    buf: &'a mut DeadlineWalk,
    merge: Checkpoints<'a>,
    rows: &'a [Task],
    /// Running count of generated points.
    generated: &'a mut u64,
}

impl Walk<'_> {
    /// Positions the walk for a scan from `from` on. Scans start in
    /// ascending order, so no later scan reads a point below `from`: the
    /// steps below it are dropped, and the merge skips such points if it
    /// has not reached `from` yet.
    fn start_at(&mut self, from: Time) {
        let passed = self.buf.steps.partition_point(|&(q, _, _)| q < from);
        self.buf.steps.drain(..passed);
        self.merge.skip_to(from);
    }

    /// The point whose steps start at `steps[k]`, if it is at most `last`,
    /// generating it on demand.
    fn point(&mut self, k: usize, last: Time) -> Option<Time> {
        if k == self.buf.steps.len() {
            if self.merge.peek_point()? > last {
                return None;
            }
            let (q, steppers) = self.merge.next_with_steppers()?;
            *self.generated += 1;
            for &p in steppers {
                let r = self.buf.prog_rank[p];
                let (off, j) = self.buf.order[r];
                let row = &self.rows[j];
                // Below Dj (a jittered point) the cap is never read.
                let cap = 1 + (q - off + row.j) / row.t;
                self.buf.steps.push((q, r, cap));
            }
        }
        Some(self.buf.steps[k].0).filter(|&q| q <= last)
    }
}

/// Scans every row's arrival candidates on one shared deadline walk (see
/// the module docs) and returns the per-row worst cases, or the error of
/// the lowest-indexed row that fails.
pub(crate) fn scan_arrivals(
    spec: &ScanSpec,
    rows: &[Task],
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<Vec<EdfWcrt>> {
    let (Some(d_min), Some(d_max)) = (
        rows.iter().map(|row| row.d).min(),
        rows.iter().map(|row| row.d).max(),
    ) else {
        return Ok(Vec::new());
    };
    let AnalysisScratch {
        checkpoints,
        progressions,
        caps,
        walk,
        walk_points,
        fixpoint_iters,
        ..
    } = scratch;
    walk.reset(rows, d_min, spec.blocking, progressions);
    let bound = spec.candidate_bound.saturating_add(d_max - d_min);
    let mut walk = Walk {
        buf: walk,
        merge: checkpoints.start(progressions, bound),
        rows,
        generated: walk_points,
    };
    let unset = EdfWcrt {
        wcrt: Time::ZERO,
        critical_a: Time::ZERO,
        candidates: 0,
    };
    let mut details = vec![unset; rows.len()];
    // Rows run in deadline order, so the walk only moves forward; a row
    // above the lowest failure so far cannot change the result.
    let mut failed: Option<(usize, AnalysisError)> = None;
    for rank in 0..rows.len() {
        let i = walk.buf.order[rank].1;
        if failed.as_ref().is_some_and(|&(f, _)| f < i) {
            continue;
        }
        match scan_row(spec, &mut walk, rank, caps, fixpoint_iters) {
            Ok(wcrt) => details[i] = wcrt,
            Err(e) => failed = Some((i, e)),
        }
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok(details),
    }
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

/// The scan of the row of rank `rank_i`, row `i`: its candidates are the
/// walk's points `Di − Dmin ≤ q ≤ candidate_bound + Di − Dmin`, at
/// `a = q − (Di − Dmin)`.
fn scan_row(
    spec: &ScanSpec,
    walk: &mut Walk<'_>,
    rank_i: usize,
    caps: &mut Vec<CapTerm>,
    iters: &mut u64,
) -> AnalysisResult<EdfWcrt> {
    let rows = walk.rows;
    let (off_i, i) = walk.buf.order[rank_i];
    let Task { c: c_i, t: t_i, .. } = rows[i];
    let last = spec.candidate_bound.saturating_add(off_i);
    let tail = if spec.blocking.is_some() {
        c_i
    } else {
        Time::ZERO
    };
    let mut best = EdfWcrt {
        wcrt: c_i,
        critical_a: Time::ZERO,
        candidates: 0,
    };
    let mut examined: u64 = 0;
    // (reseed key, Li) of the previous candidate.
    let mut warm: Option<(Time, Time)> = None;
    // Rows of rank below `qualified` have Dj <= P; row i is one of them.
    let mut qualified = 0;
    walk.start_at(off_i);
    // The index of the current point's first step.
    let mut k = 0;
    while let Some(q) = walk.point(k, last) {
        examined += 1;
        if examined > spec.max_candidates {
            return Err(AnalysisError::IterationLimit {
                what: spec.candidates_what,
                limit: spec.max_candidates,
            });
        }
        let a = q - off_i;
        if spec.fix_bound - a <= best.wcrt - tail {
            break;
        }
        let steps = &walk.buf.steps[k..];
        let n_steps = steps.iter().take_while(|step| step.0 == q).count();
        if k == 0 {
            walk.buf.load_caps(rows, i, q, caps);
        } else {
            // Row i has no slot: the ranks above it shift down by one.
            for &(_, r, cap) in &steps[..n_steps] {
                if r != rank_i {
                    caps[r - usize::from(r > rank_i)].3 = cap;
                }
            }
        }
        k += n_steps;
        while walk
            .buf
            .order
            .get(qualified)
            .is_some_and(|&(off, _)| off <= q)
        {
            qualified += 1;
        }
        let (base, key) = match spec.blocking {
            None => (c_i.try_mul(1 + a / t_i)?, Time::ZERO),
            Some(_) => {
                // Blocking by a later-deadline job, plus the ⌊a/Ti⌋ earlier
                // instances of τi itself (asap pattern).
                let blocking = walk.buf.block[qualified];
                (blocking.try_add(c_i.try_mul(a / t_i)?)?, blocking)
            }
        };
        let terms = &caps[..qualified - 1];
        let seed = match warm {
            Some((prev_key, li)) if prev_key == key => li,
            _ => Time::ZERO,
        };
        let li = match busy_period(spec, base, terms, seed, iters) {
            Err(_) if seed > Time::ZERO => busy_period(spec, base, terms, Time::ZERO, iters)?,
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
    terms: &[CapTerm],
    seed: Time,
    iters: &mut u64,
) -> AnalysisResult<Time> {
    let start_preceding = spec.blocking.is_some();
    let outcome = fixpoint_counted(
        spec.busy_what,
        seed,
        spec.fix_bound,
        spec.fixpoint,
        iters,
        |t| base.try_add(soa::capped_interference(terms, t, start_preceding)?),
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

#[cfg(test)]
mod tests {
    use profirt_base::{AnalysisError, TaskSet};

    use crate::edf::{edf_response_times, EdfRtaConfig};
    use crate::fixpoint::FixpointConfig;

    #[test]
    fn a_later_row_over_the_candidate_cap_fails_the_set() {
        // Row 0 stops after two candidates; row 1 (D = 2, scanned first)
        // needs about a hundred and crosses the cap of ten.
        let set = TaskSet::from_cdt(&[(99, 200, 200), (1, 2, 2)]).unwrap();
        let pre = EdfRtaConfig {
            max_candidates: 10,
            ..Default::default()
        };
        let (_, ok) = edf_response_times(&set, &EdfRtaConfig::default()).unwrap();
        assert!(ok[0].candidates <= 10 && ok[1].candidates > 10, "{ok:?}");
        assert_eq!(
            edf_response_times(&set, &pre).unwrap_err(),
            AnalysisError::IterationLimit {
                what: "edf-rta candidates",
                limit: 10
            }
        );
    }

    #[test]
    fn the_lowest_failing_row_names_the_error() {
        // Rows scan in deadline order: row 1 (D = 10) crosses the candidate
        // cap before row 0 (D = 26) runs out of fixpoint iterations, but
        // row 0's error is the one returned.
        let set = TaskSet::from_cdt(&[(3, 26, 15), (1, 10, 17), (2, 13, 22)]).unwrap();
        let cfg = EdfRtaConfig {
            fixpoint: FixpointConfig { max_iterations: 2 },
            max_candidates: 1,
        };
        assert_eq!(
            edf_response_times(&set, &cfg).unwrap_err(),
            AnalysisError::IterationLimit {
                what: "edf-rta busy period",
                limit: 2
            }
        );
    }
}
