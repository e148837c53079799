//! `analysis_fast` bench: the analysis fast paths against their retained
//! exhaustive/plain references, over the shared large-n fixtures of
//! [`profirt_bench::large`].
//!
//! Six comparisons:
//!
//! * `demand` — QPA backward scan vs the exhaustive checkpoint walk for
//!   the preemptive demand test (eq. (3)) on the ~75k-checkpoint fixture.
//! * `np_demand` — the non-preemptive test (eq. (5), George blocking) on
//!   the feasible many-deadline fixture; here the selection rule selects
//!   the exhaustive walk (checkpoints do not dominate segments), so this
//!   comparison guards against regression rather than proving a speedup.
//! * `edf_rta` / `fp_rta` — one shared [`profirt_sched::AnalysisScratch`]
//!   across a campaign-shaped sweep of small task sets vs the
//!   fresh-allocation entry points (identical algorithm; measures the
//!   allocation/hoisting discipline in the pattern campaigns actually
//!   execute).
//! * `warm_sweep` — a campaign-shaped warm chain: 64 deadline-varied
//!   variants of one constrained set (one axis varied per step), each
//!   analysed through [`edf_feasibility_batch`] (all six demand variants
//!   in one checkpoint merge) plus the warm-memo np-RTA, against the
//!   per-call cold path with no shared state. Verdict equality across
//!   the whole chain is asserted before timing.
//! * `campaign` — the end-to-end fixture of ISSUE 8: an analysis-only
//!   network matrix with `ttr` as the fastest axis, executed through
//!   [`EvalMode::Warm`] vs [`EvalMode::Cold`] on one worker, with the
//!   stripped `units.csv` payloads asserted byte-identical before the
//!   throughput ratio is recorded.
//!
//! Besides the criterion groups, the bench writes `BENCH_analysis.json`
//! (path from `profirt_base::artifact`: `BENCH_ANALYSIS_JSON`, else
//! `CARGO_TARGET_DIR`, else the workspace `target/`) — the
//! analysis-side perf baseline artifact CI uploads alongside `BENCH_sim`,
//! recording per-comparison best-of-N ns for both paths and the fast/reference
//! speedup, the `edf_rta_scan` block (summed arrival candidates,
//! fixpoint evaluations, merged deadline-walk points and exact
//! `Σ Ci/Ti ⋚ 1` fallbacks of `edf-rta` and `np-edf-rta` over the
//! `edf_rta_sweep` fixture: deterministic work counts, free of timing
//! noise), the `edf_message_scan` block (the same
//! four counts for the EDF message analysis of eqs. (17)–(18) over a
//! fixed set of generated networks), plus the campaign `units_per_sec`
//! block the advisory `perf_floor` CI step checks. Before timing, every
//! pair is checked for verdict equality, so a speedup in the artifact is
//! always a speedup at equal answers.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use profirt_base::artifact;
use profirt_base::json::{self, Value};
use profirt_base::{Task, TaskSet, Time};
use profirt_bench::large;
use profirt_core::{EdfAnalysis, NetworkConfig};
use profirt_experiments::campaign::{
    run_campaign_with, CampaignOutcome, CampaignSpec, EvalMode, ScenarioKind,
};
use profirt_sched::edf::{
    edf_feasibility_batch, edf_feasible_nonpreemptive, edf_feasible_nonpreemptive_exhaustive,
    edf_feasible_preemptive, edf_feasible_preemptive_exhaustive, edf_response_times,
    edf_response_times_with, np_edf_response_times_with, DemandConfig, DemandFormula,
    DemandVariantSpec, EdfRtaConfig, Feasibility, NpBlockingModel, NpEdfRtaConfig,
    NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    np_response_times, np_response_times_with, response_times, response_times_with, NpFixedConfig,
    PriorityMap, RtaConfig,
};
use profirt_sched::{AnalysisScratch, FixpointConfig};

fn edf_sweep_fresh(sets: &[TaskSet]) {
    for set in sets {
        black_box(edf_response_times(black_box(set), &EdfRtaConfig::default()).unwrap());
    }
}

fn edf_sweep_scratch(sets: &[TaskSet], scratch: &mut AnalysisScratch) {
    for set in sets {
        black_box(
            edf_response_times_with(black_box(set), &EdfRtaConfig::default(), scratch).unwrap(),
        );
    }
}

/// The deterministic work of the EDF response-time scans over `sets`: for
/// `edf-rta` and `np-edf-rta`, each on its own fresh scratch, the summed
/// per-task arrival candidates examined, the fixpoint evaluations
/// (busy periods included), the deadline-walk points the scans merged and
/// the utilisation checks left to the exact fallback.
/// Counts, not times: they move only when the scan itself changes.
fn edf_scan_work(sets: &[TaskSet]) -> Value {
    let sum = |analyze: &dyn Fn(&TaskSet, &mut AnalysisScratch) -> Vec<usize>| {
        let mut scratch = AnalysisScratch::new();
        let candidates: usize = sets
            .iter()
            .map(|set| analyze(set, &mut scratch).iter().sum::<usize>())
            .sum();
        json::object([
            ("candidates", Value::Int(candidates as i64)),
            (
                "fixpoint_iters",
                Value::Int(scratch.take_fixpoint_iters() as i64),
            ),
            ("walk_points", Value::Int(scratch.walk_points() as i64)),
            (
                "exact_fallbacks",
                Value::Int(scratch.exact_fallbacks() as i64),
            ),
        ])
    };
    let edf = sum(&|set, scratch| {
        let (_, d) = edf_response_times_with(set, &EdfRtaConfig::default(), scratch).unwrap();
        d.iter().map(|w| w.candidates).collect()
    });
    let np = sum(&|set, scratch| {
        let (_, d) = np_edf_response_times_with(set, &NpEdfRtaConfig::default(), scratch).unwrap();
        d.iter().map(|w| w.candidates).collect()
    });
    json::object([
        ("task_sets", Value::Int(sets.len() as i64)),
        ("edf_rta", edf),
        ("np_edf_rta", np),
    ])
}

fn fp_sweep_fresh(sets: &[(TaskSet, PriorityMap)]) {
    for (set, pm) in sets {
        black_box(response_times(black_box(set), pm, &RtaConfig::default()).unwrap());
    }
}

fn fp_sweep_scratch(sets: &[(TaskSet, PriorityMap)], scratch: &mut AnalysisScratch) {
    for (set, pm) in sets {
        black_box(response_times_with(black_box(set), pm, &RtaConfig::default(), scratch).unwrap());
    }
}

fn fp_sweep() -> Vec<(TaskSet, PriorityMap)> {
    large::rta_sweep(256, 8, 0.85)
        .into_iter()
        .map(|set| {
            let pm = PriorityMap::rate_monotonic(&set);
            (set, pm)
        })
        .collect()
}

/// Tightens one task's deadline without violating `C <= D` — the
/// "one axis varied" neighbor step the campaign's warm chains walk.
fn tighten(set: &TaskSet, step: usize) -> TaskSet {
    let tasks: Vec<Task> = set
        .iter()
        .map(|(i, task)| {
            if i == step % set.len() {
                let d = (task.d - Time::ONE).max(task.c);
                Task::new(task.c, d, task.t).unwrap()
            } else {
                *task
            }
        })
        .collect();
    TaskSet::new(tasks).unwrap()
}

/// The warm-sweep chain: 64 deadline-varied variants of one small
/// constrained-deadline set at `U = 0.995` (a long synchronous busy
/// period, so the warm busy-period memo — keyed on the deadline-free
/// `(C, T)` columns and therefore hot across the whole chain — retires
/// the dominant fixpoints; `n = 8` keeps every level-i busy period inside
/// the memo's capacity), paired with their DM priority maps.
fn warm_sweep_chain() -> Vec<(TaskSet, PriorityMap)> {
    let mut current = profirt_bench::constrained_task_set(8, 0.995);
    let mut chain = Vec::with_capacity(64);
    for step in 0..64 {
        let pm = PriorityMap::deadline_monotonic(&current);
        chain.push((current.clone(), pm));
        current = tighten(&current, step);
    }
    chain
}

/// All six demand variants (both formulas × preemptive/ZS/George).
fn demand_variants() -> Vec<DemandVariantSpec> {
    let mut v = Vec::new();
    for formula in [DemandFormula::Standard, DemandFormula::PaperCeiling] {
        for blocking in [
            None,
            Some(NpBlockingModel::ZhengShin),
            Some(NpBlockingModel::George),
        ] {
            v.push(DemandVariantSpec { formula, blocking });
        }
    }
    v
}

/// The cold per-call reference for one demand variant.
fn per_call_feasibility(set: &TaskSet, v: DemandVariantSpec) -> Feasibility {
    match v.blocking {
        None => edf_feasible_preemptive(
            set,
            &DemandConfig {
                formula: v.formula,
                ..Default::default()
            },
        )
        .unwrap(),
        Some(blocking) => edf_feasible_nonpreemptive(
            set,
            &NpFeasibilityConfig {
                blocking,
                formula: v.formula,
                ..Default::default()
            },
        )
        .unwrap(),
    }
}

/// The warm chain walk: batched demand variants sharing one checkpoint
/// merge plus the warm-memo np-RTA, all on one shared scratch.
fn warm_sweep_warm(
    chain: &[(TaskSet, PriorityMap)],
    variants: &[DemandVariantSpec],
    scratch: &mut AnalysisScratch,
) {
    for (set, pm) in chain {
        black_box(
            edf_feasibility_batch(black_box(set), variants, FixpointConfig::default(), scratch)
                .unwrap(),
        );
        black_box(np_response_times_with(set, pm, &NpFixedConfig::george(), scratch).unwrap());
    }
}

/// The cold reference walk: per-call entry points, no shared state.
fn warm_sweep_cold(chain: &[(TaskSet, PriorityMap)], variants: &[DemandVariantSpec]) {
    for (set, pm) in chain {
        for v in variants {
            black_box(per_call_feasibility(black_box(set), *v));
        }
        black_box(np_response_times(set, pm, &NpFixedConfig::george()).unwrap());
    }
}

/// The ISSUE 8 campaign fixture: an analysis-only network matrix with
/// `ttr` as the fastest axis. A cold unit pays workload generation plus
/// the eq. (15) search per replication; a warm-chain unit pays only the
/// O(1) in-place `TTR` patch and the policy analysis, so generation-heavy
/// networks (many masters × many streams) with long ttr chains are where
/// the amortization shows. One worker, so the recorded ratio measures the
/// algorithm, not core count.
fn campaign_spec(full: bool) -> CampaignSpec {
    let ttrs: Vec<i64> = if full {
        (1..=64).map(|k| 1_000 + 100 * k).collect()
    } else {
        vec![1_500, 3_000, 4_500, 6_000]
    };
    let mut spec = CampaignSpec::new(
        "bench-warm-campaign",
        "analysis-only warm-vs-cold throughput fixture",
        ScenarioKind::Network,
    )
    .replications(if full { 2 } else { 1 });
    spec = if full {
        spec.axis_i64("masters", &[10, 12])
            .axis_i64("streams", &[32])
            .axis_f64("tightness", &[0.9, 0.6])
            .axis_str("policy", &["fcfs"])
    } else {
        spec.axis_i64("masters", &[2])
            .axis_f64("tightness", &[0.9])
            .axis_str("policy", &["fcfs", "dm"])
    };
    let mut spec = spec.axis_i64("ttr", &ttrs);
    spec.workers = 1;
    spec
}

/// Strips the trailing instrumentation columns (`fixpoint_iters`,
/// `warm_hit`, `unit_micros`) from `units.csv`, leaving the payload the
/// warm path must reproduce byte-identically.
fn stripped_units_csv(dir: &std::path::Path) -> Vec<String> {
    let csv = std::fs::read_to_string(dir.join("units.csv")).expect("units.csv");
    csv.lines()
        .map(|line| {
            let mut rest = line;
            for _ in 0..3 {
                rest = rest.rsplit_once(',').expect("instrumentation column").0;
            }
            rest.to_string()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let demand_set = large::demand_set();
    let np_set = large::np_demand_set();
    let edf_sweep = large::rta_sweep(64, 6, 0.85);
    let fp_sets = fp_sweep();
    let mut scratch = AnalysisScratch::new();

    let mut group = c.benchmark_group("analysis_fast");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("demand", "fast"), &(), |b, ()| {
        b.iter(|| edf_feasible_preemptive(black_box(&demand_set), &DemandConfig::default()))
    });
    group.bench_with_input(BenchmarkId::new("demand", "exhaustive"), &(), |b, ()| {
        b.iter(|| {
            edf_feasible_preemptive_exhaustive(black_box(&demand_set), &DemandConfig::default())
        })
    });
    group.bench_with_input(BenchmarkId::new("np_demand", "fast"), &(), |b, ()| {
        b.iter(|| edf_feasible_nonpreemptive(black_box(&np_set), &NpFeasibilityConfig::default()))
    });
    group.bench_with_input(BenchmarkId::new("np_demand", "exhaustive"), &(), |b, ()| {
        b.iter(|| {
            edf_feasible_nonpreemptive_exhaustive(
                black_box(&np_set),
                &NpFeasibilityConfig::default(),
            )
        })
    });
    group.bench_with_input(
        BenchmarkId::new("edf_rta_sweep", "scratch"),
        &(),
        |b, ()| b.iter(|| edf_sweep_scratch(&edf_sweep, &mut scratch)),
    );
    group.bench_with_input(BenchmarkId::new("edf_rta_sweep", "fresh"), &(), |b, ()| {
        b.iter(|| edf_sweep_fresh(&edf_sweep))
    });
    group.bench_with_input(BenchmarkId::new("fp_rta_sweep", "scratch"), &(), |b, ()| {
        b.iter(|| fp_sweep_scratch(&fp_sets, &mut scratch))
    });
    group.bench_with_input(BenchmarkId::new("fp_rta_sweep", "fresh"), &(), |b, ()| {
        b.iter(|| fp_sweep_fresh(&fp_sets))
    });
    let chain = warm_sweep_chain();
    let variants = demand_variants();
    group.bench_with_input(BenchmarkId::new("warm_sweep", "warm"), &(), |b, ()| {
        b.iter(|| warm_sweep_warm(&chain, &variants, &mut scratch))
    });
    group.bench_with_input(BenchmarkId::new("warm_sweep", "cold"), &(), |b, ()| {
        b.iter(|| warm_sweep_cold(&chain, &variants))
    });
    group.finish();
}

criterion_group!(benches, bench);

/// Best (minimum) per-iteration nanoseconds of `f` over `iters` runs.
///
/// Every timed path is deterministic, so run-to-run variation is pure
/// scheduling/frequency noise; the minimum estimates the true cost where a
/// mean would fold contention spikes into the reported ratio.
fn best_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// The deterministic work of the EDF message analysis, on one fresh
/// scratch, over a fixed fixture — one pinned-seed network per 2–4
/// masters × 2–6 streams each, deadlines at 80% of the period: the summed
/// per-stream arrival candidates examined, the fixpoint evaluations,
/// busy periods included, the deadline-walk points the scans merged and
/// the utilisation checks left to the exact fallback.
fn edf_message_work() -> Value {
    let nets: Vec<NetworkConfig> = (2..=4)
        .flat_map(|masters| (2..=6).map(move |nh| profirt_bench::network(masters, nh, 0.8)))
        .collect();
    let mut scratch = AnalysisScratch::new();
    let mut streams = 0;
    let mut candidates = 0;
    for net in &nets {
        let (_, details) = EdfAnalysis::paper()
            .analyze_detailed(net, &mut scratch)
            .expect("message fixture is analysable");
        streams += details.iter().map(Vec::len).sum::<usize>();
        candidates += details
            .iter()
            .flatten()
            .map(|w| w.candidates)
            .sum::<usize>();
    }
    json::object([
        ("networks", Value::Int(nets.len() as i64)),
        ("streams", Value::Int(streams as i64)),
        ("candidates", Value::Int(candidates as i64)),
        (
            "fixpoint_iters",
            Value::Int(scratch.take_fixpoint_iters() as i64),
        ),
        ("walk_points", Value::Int(scratch.walk_points() as i64)),
        (
            "exact_fallbacks",
            Value::Int(scratch.exact_fallbacks() as i64),
        ),
    ])
}

/// Checks every fast path against its reference once, then times both and
/// writes the `BENCH_analysis.json` perf baseline (the artifact CI
/// uploads).
fn write_baseline(full: bool) {
    let iters = if full { 20 } else { 2 };
    let demand_set = large::demand_set();
    let np_set = large::np_demand_set();
    let edf_sweep = large::rta_sweep(64, 6, 0.85);
    let fp_sets = fp_sweep();
    let mut scratch = AnalysisScratch::new();

    // Equality gates: a speedup is only meaningful at equal answers.
    let d_fast = edf_feasible_preemptive(&demand_set, &DemandConfig::default()).unwrap();
    let d_ref = edf_feasible_preemptive_exhaustive(&demand_set, &DemandConfig::default()).unwrap();
    assert_eq!(d_fast.feasible, d_ref.feasible, "demand verdict mismatch");
    assert_eq!(
        d_fast.violation, d_ref.violation,
        "demand violation mismatch"
    );
    assert!(
        d_fast.feasible,
        "demand fixture must exercise the full scan"
    );
    let n_fast = edf_feasible_nonpreemptive(&np_set, &NpFeasibilityConfig::default()).unwrap();
    let n_ref =
        edf_feasible_nonpreemptive_exhaustive(&np_set, &NpFeasibilityConfig::default()).unwrap();
    assert_eq!(n_fast.feasible, n_ref.feasible, "np verdict mismatch");
    assert_eq!(n_fast.violation, n_ref.violation, "np violation mismatch");
    assert!(n_fast.feasible, "np fixture must exercise the full scan");
    for set in &edf_sweep {
        let fresh = edf_response_times(set, &EdfRtaConfig::default()).unwrap();
        let reused = edf_response_times_with(set, &EdfRtaConfig::default(), &mut scratch).unwrap();
        assert_eq!(fresh, reused, "edf rta scratch mismatch");
    }
    for (set, pm) in &fp_sets {
        let fresh = response_times(set, pm, &RtaConfig::default()).unwrap();
        let reused = response_times_with(set, pm, &RtaConfig::default(), &mut scratch).unwrap();
        assert_eq!(fresh, reused, "fp rta scratch mismatch");
    }

    let mut rows = Vec::new();
    let mut record = |label: &str, fast_ns: f64, reference_ns: f64| {
        rows.push(json::object([
            ("comparison", Value::Str(label.to_string())),
            ("fast_ns", Value::Float(fast_ns)),
            ("reference_ns", Value::Float(reference_ns)),
            ("speedup", Value::Float(reference_ns / fast_ns)),
        ]));
    };

    let fast = best_ns(iters, || {
        black_box(edf_feasible_preemptive(black_box(&demand_set), &DemandConfig::default()).ok());
    });
    let refr = best_ns(iters, || {
        black_box(
            edf_feasible_preemptive_exhaustive(black_box(&demand_set), &DemandConfig::default())
                .ok(),
        );
    });
    record("demand_qpa_vs_exhaustive", fast, refr);

    let fast = best_ns(iters, || {
        black_box(
            edf_feasible_nonpreemptive(black_box(&np_set), &NpFeasibilityConfig::default()).ok(),
        );
    });
    let refr = best_ns(iters, || {
        black_box(
            edf_feasible_nonpreemptive_exhaustive(
                black_box(&np_set),
                &NpFeasibilityConfig::default(),
            )
            .ok(),
        );
    });
    record("np_demand_fast_vs_exhaustive", fast, refr);

    let fast = best_ns(iters, || edf_sweep_scratch(&edf_sweep, &mut scratch));
    let refr = best_ns(iters, || edf_sweep_fresh(&edf_sweep));
    record("edf_rta_sweep_scratch_vs_fresh", fast, refr);

    let fast = best_ns(iters, || fp_sweep_scratch(&fp_sets, &mut scratch));
    let refr = best_ns(iters, || fp_sweep_fresh(&fp_sets));
    record("fp_rta_sweep_scratch_vs_fresh", fast, refr);

    // Warm-sweep chain: equality across all 64 variants first, then time
    // the batched/warm walk against the per-call cold walk.
    let chain = warm_sweep_chain();
    let variants = demand_variants();
    let mut warm = AnalysisScratch::new();
    for (set, pm) in &chain {
        let batch =
            edf_feasibility_batch(set, &variants, FixpointConfig::default(), &mut warm).unwrap();
        for (v, got) in variants.iter().zip(batch.iter()) {
            assert_eq!(
                *got,
                per_call_feasibility(set, *v),
                "warm-sweep demand mismatch for {v:?}"
            );
        }
        let np_warm = np_response_times_with(set, pm, &NpFixedConfig::george(), &mut warm).unwrap();
        let np_cold = np_response_times(set, pm, &NpFixedConfig::george()).unwrap();
        assert_eq!(np_warm, np_cold, "warm-sweep np rta mismatch");
    }
    let fast = best_ns(iters, || warm_sweep_warm(&chain, &variants, &mut warm));
    let refr = best_ns(iters, || warm_sweep_cold(&chain, &variants));
    record("warm_sweep_chain64_vs_cold", fast, refr);

    // Campaign throughput: the warm executor against the cold per-unit
    // path on the same analysis-only matrix (ISSUE 8's ≥10× target). The
    // stripped payload must match byte-for-byte before the ratio counts.
    let spec = campaign_spec(full);
    assert!(
        (spec.unit_count() as u64) * spec.replications <= 100_000,
        "campaign fixture exceeds the 100k-unit cap"
    );
    let tmp = std::env::temp_dir().join("profirt-bench-analysis-campaign");
    let _ = std::fs::remove_dir_all(&tmp);
    // Both campaigns are deterministic, so (as with `best_ns`) the fastest
    // of a few runs estimates the true per-mode cost; a single sample can
    // be 2x off under CI-runner contention.
    let runs = if full { 3 } else { 1 };
    let run_mode = |mode: EvalMode, tag: &str| -> (f64, f64, CampaignOutcome) {
        let mut best: Option<(f64, f64, CampaignOutcome)> = None;
        for r in 0..runs {
            let t0 = Instant::now();
            let out = run_campaign_with(&spec, &tmp.join(format!("{tag}{r}")), mode)
                .expect("campaign run");
            let wall = t0.elapsed().as_secs_f64();
            let eval = out.unit_micros.iter().sum::<f64>() / 1e6;
            if best.as_ref().is_none_or(|(b, _, _)| eval < *b) {
                best = Some((eval, wall, out));
            }
        }
        best.expect("at least one campaign run")
    };
    let (cold_secs, cold_wall, cold) = run_mode(EvalMode::Cold, "cold");
    let (warm_secs, warm_wall, warm) = run_mode(EvalMode::Warm, "warm");
    assert_eq!(
        stripped_units_csv(&cold.out_dir),
        stripped_units_csv(&warm.out_dir),
        "warm campaign diverged from the cold reference"
    );
    std::fs::remove_dir_all(&tmp).ok();
    // Evaluation time = the worker-observed per-unit timing summed over
    // the matrix (the `unit_micros` column). Both runs additionally pay an
    // identical artifact-serialization cost, reported as `*_wall_secs`;
    // the headline `units_per_sec` ratio compares the evaluation paths
    // the warm engine actually changes.
    let units = spec.unit_count() as f64;
    record(
        "campaign_warm_vs_cold_per_unit",
        warm_secs * 1e9 / units,
        cold_secs * 1e9 / units,
    );
    let campaign = json::object([
        ("unit_count", Value::Int(spec.unit_count() as i64)),
        ("replications", Value::Int(spec.replications as i64)),
        ("workers", Value::Int(spec.workers as i64)),
        ("cold_units_per_sec", Value::Float(units / cold_secs)),
        ("warm_units_per_sec", Value::Float(units / warm_secs)),
        ("speedup", Value::Float(cold_secs / warm_secs)),
        ("cold_wall_secs", Value::Float(cold_wall)),
        ("warm_wall_secs", Value::Float(warm_wall)),
        ("wall_speedup", Value::Float(cold_wall / warm_wall)),
        ("warm_hit_rate", Value::Float(warm.warm_hit_rate())),
        ("fixpoint_iters", Value::Float(warm.total_fixpoint_iters())),
    ]);

    let doc = json::object([
        ("bench", Value::Str("analysis_fast".to_string())),
        ("samples_per_path", Value::Int(iters as i64)),
        ("smoke_run", Value::Bool(!full)),
        ("comparisons", Value::Array(rows)),
        ("edf_rta_scan", edf_scan_work(&edf_sweep)),
        ("edf_message_scan", edf_message_work()),
        ("campaign", campaign),
    ]);
    let path = artifact::bench_json_path("BENCH_ANALYSIS_JSON", "BENCH_analysis.json")
        .display()
        .to_string();
    match std::fs::write(&path, doc.pretty() + "\n") {
        Ok(()) => println!("[baseline] wrote {path}"),
        Err(e) => eprintln!("[baseline] cannot write {path}: {e}"),
    }
}

fn main() {
    benches();
    // Full measurement only under `cargo bench` (the harness passes
    // `--bench`); test/smoke invocations still emit a valid artifact.
    let full = std::env::args().any(|a| a == "--bench");
    write_baseline(full);
}
