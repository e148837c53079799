//! `campaign_churn` and `campaign_sweep`: `campaign::run_campaign` on
//! pinned matrices with 2 workers.
//!
//! Operation: one work unit. The untraced run repeats the whole campaign
//! (spec parse and plan excluded, artifact writing included) until the
//! window is spent. The traced run executes the same campaign on one
//! thread through `plan`, `eval::eval_chain` and the artifact renderers,
//! then splits each chain's evaluation by re-running its generation,
//! analysis and simulation calls on the same generated inputs (the
//! probes). The probes also recompute unit metrics, which must match the
//! campaign's rows: a replica that drifted from the evaluator fails the
//! run instead of reporting a wrong split.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use profirt_base::json::Value;
use profirt_base::{Prng, TaskSet, Time};
use profirt_core::{max_feasible_ttr, ModeAnalysis, PolicyKind, PolicyTuning, TcycleModel};
use profirt_experiments::campaign::{
    self, eval, generation_axes, plan, report, run_campaign, AxisValue, CampaignOutcome,
    CampaignPlan, CampaignSpec, ScenarioKind, WorkUnit,
};
use profirt_experiments::csvout;
use profirt_sched::edf::{
    edf_feasibility_batch, edf_feasible_nonpreemptive_with, edf_feasible_preemptive_with,
    edf_response_times_with, edf_utilization_test, np_edf_response_times_with, DemandConfig,
    DemandFormula, DemandVariantSpec, EdfRtaConfig, NpBlockingModel, NpEdfRtaConfig,
    NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    hyperbolic_schedulable, np_response_times_with, response_times_batch, response_times_with,
    rm_utilization_schedulable, FixedBatchMode, FixedBatchVariant, NpFixedConfig, PriorityMap,
    RtaConfig,
};
use profirt_sched::{AnalysisScratch, FixpointConfig};
use profirt_sim::{
    simulate_network, simulate_network_observed, MembershipPlan, ModeSimConfig, ModeStats,
    ResponseStats, RingStats, StableResponseObserver, TrrStats,
};
use profirt_workload::{
    generate_task_set, CriticalityMix, NetGenParams, PeriodRange, TaskGenParams,
};

use crate::common::{
    fnv1a, median, mix, p50_p99, secs, setup_due, time_setup, EndToEnd, HostSpeed, Outcome,
    RunOpts, Tracer, FNV_OFFSET, TRACE_ROUNDS,
};
use crate::simulate::{
    core_span, drain_releases, gen_network, set_sim_counts, sim_config, to_sim, GapPollCounter,
    SimTotals,
};

/// Which pinned campaign a run executes.
#[derive(Clone, Copy, Debug)]
pub enum Matrix {
    /// Simulated ring dynamics: churn × gap_factor × policy × criticality.
    Churn,
    /// Analysis-only: a network matrix with `ttr` fastest (warm chains)
    /// and a CPU matrix over the 12 §2 tests.
    Sweep,
}

/// Campaign workers of every campaign run.
const WORKERS: usize = 2;

/// Spec parse + plan calls per set-up sample (one takes microseconds).
const SETUP_REPS: usize = 20;

/// Most rounds of a traced run.
const MAX_TRACE_ROUNDS: usize = 12;

/// The seed whose stripped `units.csv` digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a 64 of each campaign's `units.csv` without the
/// `fixpoint_iters`, `warm_hit` and `unit_micros` columns, on
/// [`DEFAULT_SEED`].
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("bench-churn", 0xe407_a2ee_f15a_00a3),
    ("bench-sweep-net", 0xc221_3ee5_a5ed_85db),
    ("bench-sweep-cpu", 0x2fe7_73e5_f005_0541),
];

/// The matrix's campaign specs for a workload seed.
fn specs(matrix: Matrix, seed: u64) -> Vec<CampaignSpec> {
    let mut specs = match matrix {
        // `criticality` is the fastest axis and a generation axis, so a
        // chain never reuses a workload: every unit generates and
        // simulates afresh.
        Matrix::Churn => vec![CampaignSpec::new(
            "bench-churn",
            "ring churn, GAP polling and mixed-criticality modes",
            ScenarioKind::Network,
        )
        .replications(8)
        .sim_horizon(3_000_000)
        .axis_f64("tightness", &[0.5, 0.6, 0.7])
        .axis_i64("masters", &[3])
        .axis_i64("streams", &[3])
        .axis_str("churn", &["none", "light", "heavy"])
        .axis_i64("gap_factor", &[3, 10])
        .axis_str("policy", &["fcfs", "dm", "edf"])
        .axis_str("criticality", &["all-hi", "mixed"])],
        Matrix::Sweep => vec![
            CampaignSpec::new(
                "bench-sweep-net",
                "analysis-only network matrix, ttr fastest",
                ScenarioKind::Network,
            )
            .replications(64)
            // Rings of 8 masters × 6 streams at tightness 0.8 made one EDF
            // chain 90% of the matrix's time and its spread across seeds
            // the benchmark's; 4 masters keep every chain within ~10×.
            .axis_i64("masters", &[2, 3, 4])
            .axis_i64("streams", &[3, 6])
            .axis_f64("tightness", &[0.5, 0.8])
            .axis_str("policy", &["fcfs", "dm", "dm-paper", "edf"])
            .axis_i64("ttr", &[2_000, 3_000, 4_000, 5_000, 6_000, 8_000, 10_000]),
            CampaignSpec::new(
                "bench-sweep-cpu",
                "analysis-only CPU matrix over the 12 section-2 tests",
                ScenarioKind::Cpu,
            )
            .replications(128)
            .axis_i64("tasks", &[4, 6, 8])
            .axis_f64("utilization", &[0.5, 0.65, 0.8])
            .axis_f64("deadline_frac", &[0.8, 1.0])
            .axis(
                "policy",
                campaign::spec::CPU_POLICIES
                    .iter()
                    .map(|p| AxisValue::Str(p.to_string()))
                    .collect(),
            ),
        ],
    };
    for (i, spec) in specs.iter_mut().enumerate() {
        spec.seed = mix(seed, 0xCA4A + i as u64);
        spec.workers = WORKERS;
    }
    specs
}

/// The `.hi` half of a campaign's units: heavy churn, or the CPU matrix.
fn is_hi(spec: &CampaignSpec, unit: &WorkUnit) -> bool {
    match spec.kind {
        ScenarioKind::Cpu => true,
        ScenarioKind::Network => unit.get_str("churn", "none") == "heavy",
    }
}

/// Set-up as a user pays it: parse the JSON spec, validate, plan.
fn set_up(texts: &[String]) -> Result<Vec<(CampaignSpec, CampaignPlan)>, String> {
    texts
        .iter()
        .map(|text| {
            let spec = CampaignSpec::from_json_str(text).map_err(|e| e.to_string())?;
            let plan = plan(&spec).map_err(|e| e.to_string())?;
            Ok((spec, plan))
        })
        .collect()
}

/// `units.csv` without its three instrumentation columns.
fn stripped_units_csv(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let cells: Vec<&str> = line.split(',').collect();
        let keep = cells.len().saturating_sub(3);
        out.push_str(&cells[..keep].join(","));
        out.push('\n');
    }
    Ok(out)
}

/// The output checks of one finished campaign; each failing unit counts
/// as one failed operation.
fn check_outcome(out: &mut Outcome, outcome: &CampaignOutcome, seed: u64) -> Result<(), String> {
    for f in outcome.contract_failures() {
        out.fail(format!("{}: contract: {f}", outcome.spec.name));
    }
    for (unit, err) in outcome.plan.units.iter().zip(&outcome.unit_errors) {
        if let Some(err) = err {
            out.fail(format!("{}: {}: {err}", outcome.spec.name, unit.id));
        }
    }
    if seed == DEFAULT_SEED {
        let stripped = stripped_units_csv(&outcome.out_dir.join("units.csv"))?;
        let digest = fnv1a(FNV_OFFSET, stripped.as_bytes());
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(name, _)| *name == outcome.spec.name)
            .map(|&(_, d)| d);
        if pinned != Some(digest) {
            out.fail(format!(
                "{}: stripped units.csv digest {digest:#018x}, pinned {pinned:x?}",
                outcome.spec.name
            ));
        }
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(matrix: Matrix, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let texts: Vec<String> = specs(matrix, opts.seed)
        .iter()
        .map(|s| s.to_json().compact())
        .collect();
    let (first_setup, campaigns) = time_setup(SETUP_REPS, true, || set_up(&texts))?;
    let mut setup = vec![first_setup];

    // Every repetition runs identical work, so each unit keeps its
    // fastest time and the run its fastest repetition: the ones least
    // disturbed by other tenants of the host.
    let mut best_rate = 0f64;
    let mut best_ms: Vec<Vec<f64>> = campaigns
        .iter()
        .map(|(_, plan)| vec![f64::INFINITY; plan.units.len()])
        .collect();
    let mut reps = 0usize;
    let mut speed = HostSpeed::default();
    let started = Instant::now();
    loop {
        speed.sample(3);
        let mut units = 0usize;
        let mut wall = 0f64;
        let mut outcomes = Vec::with_capacity(campaigns.len());
        for (spec, _) in &campaigns {
            let t0 = Instant::now();
            let outcome = run_campaign(spec, &opts.out_dir).map_err(|e| e.to_string())?;
            wall += secs(t0.elapsed());
            units += outcome.plan.units.len();
            outcomes.push(outcome);
        }
        best_rate = best_rate.max(units as f64 / wall.max(1e-9));
        for (outcome, best) in outcomes.iter().zip(best_ms.iter_mut()) {
            out.attempted += outcome.plan.units.len() as u64;
            if reps == 0 {
                check_outcome(&mut out, outcome, opts.seed)?;
            }
            for (b, &micros) in best.iter_mut().zip(&outcome.unit_micros) {
                *b = b.min(micros / 1e3);
            }
        }
        reps += 1;
        let elapsed = secs(started.elapsed());
        if setup_due(setup.len(), elapsed, opts.seconds) {
            setup.push(time_setup(SETUP_REPS, true, || set_up(&texts))?.0);
        }
        if elapsed + elapsed / reps as f64 > opts.seconds {
            break;
        }
    }

    let (mut lo_ms, mut hi_ms) = (Vec::new(), Vec::new());
    for ((spec, plan), best) in campaigns.iter().zip(&best_ms) {
        for (unit, &ms) in plan.units.iter().zip(best) {
            if is_hi(spec, unit) {
                hi_ms.push(ms);
            } else {
                lo_ms.push(ms);
            }
        }
    }
    let figures = EndToEnd {
        setup_s: median(&setup),
        units_per_s: best_rate,
        lo_ms: p50_p99(&lo_ms),
        hi_ms: p50_p99(&hi_ms),
    };
    out.set_end_to_end(&figures, &speed, true);
    out.note_info("repetitions", Value::Int(reps as i64));
    out.note_info("units_lo", Value::Int(lo_ms.len() as i64));
    out.note_info("units_hi", Value::Int(hi_ms.len() as i64));
    Ok(out)
}

/// One campaign on the current thread with spans around `plan`, each
/// `eval_chain` and the artifact writers: the traced twin of
/// `run_campaign` with one worker.
fn traced_campaign(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    out_root: &Path,
) -> Result<CampaignOutcome, String> {
    let started = Instant::now();
    let plan = tr
        .span("campaign.plan", |_| plan(spec))
        .map_err(|e| e.to_string())?;
    let mut rows = Vec::with_capacity(plan.units.len());
    let mut unit_micros = Vec::with_capacity(plan.units.len());
    let mut fixpoint_iters = Vec::with_capacity(plan.units.len());
    let mut warm_hits = Vec::with_capacity(plan.units.len());
    let mut unit_errors = Vec::with_capacity(plan.units.len());
    for range in plan.warm_chains(spec) {
        let t0 = Instant::now();
        let evals = tr.span("campaign.eval", |_| {
            eval::eval_chain(spec, &plan.units[range.clone()])
        });
        let micros = secs(t0.elapsed()) * 1e6 / range.len().max(1) as f64;
        for e in evals {
            rows.push(e.row);
            unit_micros.push(micros);
            fixpoint_iters.push(e.fixpoint_iters);
            warm_hits.push(e.warm_hit);
            unit_errors.push(e.error);
        }
    }
    let mut outcome = CampaignOutcome {
        spec: spec.clone(),
        plan,
        metrics: eval::metric_names(spec.kind).to_vec(),
        rows,
        unit_micros,
        fixpoint_iters,
        warm_hits,
        unit_errors,
        total_wall_secs: secs(started.elapsed()),
        out_dir: out_root.join(&spec.name),
        artifacts: Vec::new(),
    };
    tr.span("campaign.write", |_| write_artifacts(&mut outcome))?;
    Ok(outcome)
}

/// The artifact set `run_campaign` writes, through the same renderers.
fn write_artifacts(outcome: &mut CampaignOutcome) -> Result<(), String> {
    let dir = outcome.out_dir.clone();
    let io = |what: &str, e: std::io::Error| format!("cannot write {what}: {e}");
    std::fs::create_dir_all(&dir).map_err(|e| io("the campaign directory", e))?;
    let spec_path = dir.join("campaign.json");
    std::fs::write(&spec_path, outcome.spec.to_json().pretty() + "\n")
        .map_err(|e| io("campaign.json", e))?;
    let csv = csvout::write_table(&dir, "units", &outcome.units_table())
        .map_err(|e| io("units.csv", e))?;
    let summary_path = dir.join("summary.json");
    std::fs::write(&summary_path, outcome.summary_json().pretty() + "\n")
        .map_err(|e| io("summary.json", e))?;
    let md_path = dir.join("EXPERIMENTS.md");
    std::fs::write(&md_path, report::experiments_md(outcome))
        .map_err(|e| io("EXPERIMENTS.md", e))?;
    outcome.artifacts = vec![spec_path, csv, summary_path, md_path];
    Ok(())
}

/// The traced run: per-layer metrics.
pub fn run_traced(matrix: Matrix, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = specs(matrix, opts.seed);

    // Untraced references: the 2-worker campaign (worker balance and
    // the sched counters) and the 1-worker campaign (the wall the traced
    // pass is compared with).
    let mut eval_busy = 0f64;
    let mut eval_wall = 0f64;
    let mut iters = 0f64;
    let mut warm = 0f64;
    let mut units = 0f64;
    for spec in &specs {
        let two = run_campaign(spec, &opts.out_dir).map_err(|e| e.to_string())?;
        eval_busy += two.unit_micros.iter().sum::<f64>() / 1e6;
        eval_wall += two.total_wall_secs * WORKERS as f64;
        iters += two.total_fixpoint_iters();
        warm += two.warm_hit_rate() * two.plan.units.len() as f64;
        units += two.plan.units.len() as f64;
    }

    // Rounds of the 1-worker reference, the traced campaign and its
    // probes, until the window is spent. Each layer keeps its fastest
    // round, as the wall does: one traced sweep lasts a quarter of a
    // second, so a single disturbed round would decide its split.
    let traced_root = opts.out_dir.join("traced");
    let mut single_wall = f64::INFINITY;
    let mut fastest: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut best: Option<(f64, Tracer, ProbeCounts)> = None;
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds < TRACE_ROUNDS || {
        let elapsed = secs(started.elapsed());
        rounds < MAX_TRACE_ROUNDS && elapsed + elapsed / rounds as f64 <= opts.seconds
    } {
        rounds += 1;
        let t0 = Instant::now();
        for spec in &specs {
            let mut one_spec = spec.clone();
            one_spec.workers = 1;
            run_campaign(&one_spec, &opts.out_dir.join("one-worker")).map_err(|e| e.to_string())?;
        }
        single_wall = single_wall.min(secs(t0.elapsed()));

        let mut tr = Tracer::default();
        let t0 = Instant::now();
        let outcomes = tr.span("wall", |tr| {
            specs
                .iter()
                .map(|spec| traced_campaign(tr, spec, &traced_root))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let wall = secs(t0.elapsed());
        let mut counts = ProbeCounts::default();
        for outcome in &outcomes {
            out.attempted += outcome.plan.units.len() as u64;
            check_outcome(&mut out, outcome, opts.seed)?;
            probe_campaign(&mut tr, outcome, &mut counts, &mut out);
        }
        for (name, t) in tr.totals() {
            let f = fastest.entry(name).or_insert(t);
            *f = f.min(t);
        }
        if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
            best = Some((wall, tr, counts));
        }
    }
    let Some((traced_wall, tr, counts)) = best else {
        return Err("no traced round ran".to_string());
    };
    out.note_info("trace_rounds", Value::Int(rounds as i64));

    // No span nests inside these names, so a total is a self time.
    let total = |name: &str| fastest.get(name).copied().unwrap_or(0.0);
    let get = total;
    let gen = total("probe.gen");
    let core: Vec<(PolicyKind, f64)> = PolicyKind::ALL
        .iter()
        .map(|&p| (p, total(core_span(p))))
        .collect();
    let core_sum: f64 =
        core.iter().map(|(_, v)| v).sum::<f64>() + total("core.mode") + total("core.ttr");
    let sched = [total("sched.fp"), total("sched.edf"), total("sched.util")];
    let drain = total("probe.drain");
    let plain = total("probe.plain");
    let observed = total("probe.observed");
    let probes = gen + core_sum + sched.iter().sum::<f64>() + observed;
    // What `eval_chain` spends outside the probed calls (row assembly,
    // observers' bookkeeping); negative when the probes ran slower than
    // the chain itself.
    let eval_self = get("campaign.eval") - probes;
    let (plan_s, write_s) = (get("campaign.plan"), get("campaign.write"));
    // Measured layers only: the probes stand in for the chains, so the
    // closure shows how much of the traced wall they account for.
    let layer_sum = plan_s + write_s + probes;

    out.set("campaign.plan_s", plan_s, "s");
    out.set("campaign.eval_s", eval_self, "s");
    out.set("campaign.write_s", write_s, "s");
    out.set("conc.busy_frac", eval_busy / eval_wall.max(1e-9), "ratio");
    out.set("workload.gen_s", gen, "s");
    out.set("workload.gen_calls", counts.gen_calls as f64, "count");
    for (p, v) in core {
        out.set(&format!("core.analyze_s.{}", p.name()), v, "s");
    }
    out.set("core.mode_s", total("core.mode"), "s");
    out.set("core.ttr_s", total("core.ttr"), "s");
    out.set("sched.analyze_s.fp", sched[0], "s");
    out.set("sched.analyze_s.edf", sched[1], "s");
    out.set("sched.analyze_s.util", sched[2], "s");
    out.set("sched.fixpoint_iters", iters, "count");
    out.set("sched.warm_hit_rate", warm / units.max(1.0), "ratio");
    if observed > 0.0 {
        let kernel = plain - drain;
        out.set("release.drain_s", drain, "s");
        out.set("release.count", counts.releases as f64, "count");
        out.set("sim.kernel_s", kernel, "s");
        out.set("sim.observers_s", observed - plain, "s");
        out.set("sim.run_s", observed, "s");
        set_sim_counts(&mut out, &counts.sim, kernel);
        out.set("profibus.gap_polls", counts.gap_polls as f64, "count");
    }
    out.set("trace.wall_s", traced_wall, "s");
    out.set("trace.closure", layer_sum / traced_wall.max(1e-9), "ratio");
    out.set(
        "trace_overhead",
        traced_wall / single_wall.max(1e-9) - 1.0,
        "ratio",
    );
    tr.dump(&opts.out_dir.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(out)
}

/// Counters the probes collect.
#[derive(Debug, Default)]
struct ProbeCounts {
    gen_calls: u64,
    releases: u64,
    gap_polls: u64,
    sim: SimTotals,
}

/// The evaluator's workload-generation seed: the campaign seed, the
/// unit's generation coordinates and the replication.
fn gen_seed(spec: &CampaignSpec, unit: &WorkUnit, rep: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for axis in generation_axes(spec.kind) {
        if let Some(value) = unit.get(axis) {
            h = fnv1a(h, axis.as_bytes());
            h = fnv1a(h, value.slug().as_bytes());
        }
    }
    spec.seed ^ h ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The evaluator's per-unit simulation seed.
fn unit_seed(spec: &CampaignSpec, unit: &WorkUnit, rep: u64) -> u64 {
    spec.seed
        ^ (unit.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The generation coordinates of a unit (equal keys draw equal workloads).
fn gen_key(spec: &CampaignSpec, unit: &WorkUnit) -> Vec<String> {
    generation_axes(spec.kind)
        .iter()
        .filter_map(|a| unit.get(a).map(|v| format!("{a}={}", v.slug())))
        .collect()
}

/// A metric column of an outcome row (`NaN` when absent).
fn column(outcome: &CampaignOutcome, row: &[f64], name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .position(|m| *m == name)
        .map_or(f64::NAN, |i| row[i])
}

/// Re-runs every chain's generation, analysis and simulation calls on the
/// same inputs, with spans, and checks the recomputed metrics against the
/// campaign's rows.
fn probe_campaign(
    tr: &mut Tracer,
    outcome: &CampaignOutcome,
    counts: &mut ProbeCounts,
    out: &mut Outcome,
) {
    let spec = &outcome.spec;
    for range in outcome.plan.warm_chains(spec) {
        let units = &outcome.plan.units[range.clone()];
        let rows = &outcome.rows[range];
        let recomputed = match spec.kind {
            ScenarioKind::Network => probe_network_chain(tr, spec, units, counts),
            ScenarioKind::Cpu => probe_cpu_chain(tr, spec, units, counts),
        };
        for ((unit, row), (name, value)) in units.iter().zip(rows).zip(recomputed) {
            let expected = column(outcome, row, name);
            if expected != value {
                out.fail(format!(
                    "{}: probe replica diverged on {name}: {value} vs {expected}",
                    unit.id
                ));
            }
            // The kernel's visit counters, as the campaign's own columns
            // report them (NaN on analysis-only campaigns).
            let (visits, ffwd) = (
                column(outcome, row, "sim_visits"),
                column(outcome, row, "sim_ffwd"),
            );
            if visits.is_finite() && ffwd.is_finite() {
                let ring = unit.get_i64("masters", 3).max(1) as u64;
                counts.sim.visits += visits as u64;
                counts.sim.ffwd += ffwd as u64;
                counts.sim.skipped_visits += ffwd as u64 * ring;
            }
        }
    }
}

/// Network chain probes. Returns, per unit, a recomputed row metric:
/// `ring_events` for simulated campaigns, `sched_ratio` otherwise.
fn probe_network_chain(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    units: &[WorkUnit],
    counts: &mut ProbeCounts,
) -> Vec<(&'static str, f64)> {
    let tuning = PolicyTuning::default();
    let mut all_sched = vec![0u64; units.len()];
    let mut ring_events = vec![0u64; units.len()];
    for rep in 0..spec.replications {
        let mut cached: Option<(Vec<String>, profirt_workload::GeneratedNetwork)> = None;
        for (i, unit) in units.iter().enumerate() {
            let key = gen_key(spec, unit);
            if cached.as_ref().is_none_or(|(k, _)| *k != key) {
                let params = network_params(unit);
                let Ok(g) = tr.span("probe.gen", |_| {
                    gen_network(gen_seed(spec, unit, rep), &params)
                }) else {
                    continue;
                };
                counts.gen_calls += 1;
                tr.span("core.ttr", |_| {
                    max_feasible_ttr(&g.config, TcycleModel::Paper)
                });
                cached = Some((key, g));
            }
            let Some((_, base)) = cached.as_ref() else {
                continue;
            };
            let mut g = base.clone();
            if let Some(ttr) = unit.get("ttr").and_then(AxisValue::as_i64) {
                if g.config.set_ttr(Time::new(ttr)).is_err() {
                    continue;
                }
            }
            let policy = unit_policy(unit);
            let Ok(an) = tr.span(core_span(policy), |_| {
                policy.analyze_with(&g.config, &tuning)
            }) else {
                continue;
            };
            if an.all_schedulable() {
                all_sched[i] += 1;
            }
            if spec.sim_horizon > 0 {
                ring_events[i] += probe_sim(tr, spec, unit, rep, &g, policy, counts);
                if g.config.has_sub_hi() {
                    tr.span("core.mode", |_| {
                        ModeAnalysis::analyze(policy, &g.config, &tuning)
                    })
                    .ok();
                }
            }
        }
    }
    let n = spec.replications as f64;
    (0..units.len())
        .map(|i| {
            if spec.sim_horizon > 0 {
                ("ring_events", ring_events[i] as f64)
            } else {
                ("sched_ratio", all_sched[i] as f64 / n)
            }
        })
        .collect()
}

fn unit_policy(unit: &WorkUnit) -> PolicyKind {
    PolicyKind::parse(unit.get_str("policy", "fcfs")).unwrap_or(PolicyKind::Fcfs)
}

fn network_params(unit: &WorkUnit) -> NetGenParams {
    let mix = CriticalityMix::parse(unit.get_str("criticality", "all-hi"))
        .unwrap_or(CriticalityMix::AllHi);
    NetGenParams::standard(
        unit.get_f64("tightness", 0.8),
        unit.get_i64("streams", 3).max(1) as usize,
        unit.get_i64("masters", 3).max(1) as usize,
    )
    .with_criticality_mix(mix)
}

/// One replication's simulation, as the evaluator runs it (its observer
/// set), with the release-only and result-only probes that split it.
/// Returns the ring events the run observed.
fn probe_sim(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    unit: &WorkUnit,
    rep: u64,
    g: &profirt_workload::GeneratedNetwork,
    policy: PolicyKind,
    counts: &mut ProbeCounts,
) -> u64 {
    let masters = unit.get_i64("masters", 3).max(1) as usize;
    let seed = unit_seed(spec, unit, rep);
    let horizon = Time::new(spec.sim_horizon);
    let membership = match unit.get_str("churn", "none") {
        "light" => MembershipPlan::random_churn(seed, masters, horizon, 1),
        "heavy" => MembershipPlan::random_churn(seed, masters, horizon, 3),
        _ => MembershipPlan::new(),
    };
    let net = to_sim(g, policy.queue_policy());
    let mut cfg = sim_config(spec.sim_horizon, seed);
    cfg.gap_factor = unit.get_i64("gap_factor", 0).max(0) as u32;
    cfg.membership = membership;
    if g.config.has_sub_hi() {
        cfg.mode = ModeSimConfig::enabled();
    }
    let initial = net.masters.len() - cfg.membership.initially_off().len();
    counts.releases += tr.span("probe.drain", |_| drain_releases(&net, &cfg));
    tr.span("probe.plain", |_| simulate_network(&net, &cfg));

    let mut stable = StableResponseObserver::new(&net, initial, net.ttr * 2);
    let mut response = ResponseStats::new();
    let mut trr = TrrStats::with_ring_size(initial);
    let mut ring = RingStats::new(initial);
    let mut mode = ModeStats::new(&net);
    tr.span("probe.observed", |_| {
        simulate_network_observed(
            &net,
            &cfg,
            &mut [&mut response, &mut trr, &mut ring, &mut stable, &mut mode],
        )
    });
    // The poll counter is not one of the evaluator's observers, so it
    // runs on its own, outside every span.
    let mut gaps = GapPollCounter::default();
    simulate_network_observed(&net, &cfg, &mut [&mut gaps]);
    let (ring, mode) = (ring.summary(), mode.summary());
    counts.gap_polls += gaps.polls;
    counts.sim.ring_events += ring.events;
    counts.sim.mode_switches += mode.switches;
    counts.sim.shed += mode.sheds;
    ring.events
}

/// How one CPU test joins the evaluator's batched analysis.
enum Batch {
    Demand(DemandVariantSpec),
    Fixed(FixedBatchVariant),
    Solo,
}

fn batch_of(test: &str, set: &TaskSet) -> Batch {
    let demand = |formula, blocking| Batch::Demand(DemandVariantSpec { formula, blocking });
    let preemptive = FixedBatchMode::Preemptive {
        config: RtaConfig::default(),
        with_jitter: false,
    };
    match test {
        "edf-demand" => demand(DemandFormula::Standard, None),
        "edf-demand-paper" => demand(DemandFormula::PaperCeiling, None),
        "np-edf-zs" => demand(DemandFormula::Standard, Some(NpBlockingModel::ZhengShin)),
        "np-edf-george" => demand(DemandFormula::Standard, Some(NpBlockingModel::George)),
        "rm-rta" => Batch::Fixed(FixedBatchVariant {
            prio: PriorityMap::rate_monotonic(set),
            mode: preemptive,
        }),
        "dm-rta" => Batch::Fixed(FixedBatchVariant {
            prio: PriorityMap::deadline_monotonic(set),
            mode: preemptive,
        }),
        "np-dm" => Batch::Fixed(FixedBatchVariant {
            prio: PriorityMap::deadline_monotonic(set),
            mode: FixedBatchMode::Nonpreemptive(NpFixedConfig::george()),
        }),
        _ => Batch::Solo,
    }
}

/// The §2 test group a test's time is charged to.
fn sched_span(test: &str) -> &'static str {
    match test {
        "rm-ll" | "rm-hb" | "edf-util" => "sched.util",
        "rm-rta" | "dm-rta" | "np-dm" => "sched.fp",
        _ => "sched.edf",
    }
}

/// One §2 test on its own, as the evaluator's per-call fallback runs it.
fn solo_test(test: &str, set: &TaskSet, scratch: &mut AnalysisScratch) -> bool {
    let fixed = |pm: &PriorityMap, np: bool, scratch: &mut AnalysisScratch| {
        let an = if np {
            np_response_times_with(set, pm, &NpFixedConfig::george(), scratch)
        } else {
            response_times_with(set, pm, &RtaConfig::default(), scratch)
        };
        an.is_ok_and(|an| an.all_schedulable())
    };
    let demand = |formula, scratch: &mut AnalysisScratch| {
        let cfg = DemandConfig {
            formula,
            ..Default::default()
        };
        edf_feasible_preemptive_with(set, &cfg, scratch).is_ok_and(|f| f.feasible)
    };
    let np_demand = |blocking, scratch: &mut AnalysisScratch| {
        let cfg = NpFeasibilityConfig {
            blocking,
            formula: DemandFormula::Standard,
            ..Default::default()
        };
        edf_feasible_nonpreemptive_with(set, &cfg, scratch).is_ok_and(|f| f.feasible)
    };
    match test {
        "rm-ll" => rm_utilization_schedulable(set).is_schedulable(),
        "rm-hb" => hyperbolic_schedulable(set).is_schedulable(),
        "rm-rta" => fixed(&PriorityMap::rate_monotonic(set), false, scratch),
        "dm-rta" => fixed(&PriorityMap::deadline_monotonic(set), false, scratch),
        "np-dm" => fixed(&PriorityMap::deadline_monotonic(set), true, scratch),
        "edf-util" => edf_utilization_test(set).at_most_one && set.all_implicit_deadlines(),
        "edf-demand" => demand(DemandFormula::Standard, scratch),
        "edf-demand-paper" => demand(DemandFormula::PaperCeiling, scratch),
        "np-edf-zs" => np_demand(NpBlockingModel::ZhengShin, scratch),
        "np-edf-george" => np_demand(NpBlockingModel::George, scratch),
        "edf-rta" => edf_response_times_with(set, &EdfRtaConfig::default(), scratch)
            .is_ok_and(|(_, d)| set.iter().all(|(i, task)| d[i].wcrt <= task.d)),
        _ => np_edf_response_times_with(set, &NpEdfRtaConfig::default(), scratch)
            .is_ok_and(|(_, d)| set.iter().all(|(i, task)| d[i].wcrt <= task.d)),
    }
}

fn cpu_params(unit: &WorkUnit) -> TaskGenParams {
    let mut params = TaskGenParams::standard(
        unit.get_i64("tasks", 4).max(1) as usize,
        unit.get_f64("utilization", 0.7),
    );
    let deadline_frac = unit.get_f64("deadline_frac", 1.0);
    if deadline_frac < 1.0 {
        params = params.with_deadline_frac(deadline_frac, 1.0);
    }
    if unit.get_str("period_spread", "standard") == "wide" {
        params = params.with_periods(PeriodRange::new(
            Time::new(50),
            Time::new(20_000),
            Time::new(10),
        ));
    }
    params
}

/// CPU chain probes: generation once per run of equal generation
/// coordinates, the batched demand and fixed-priority analyses, and the
/// remaining tests one by one. Returns each unit's `accept_ratio`.
fn probe_cpu_chain(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    units: &[WorkUnit],
    counts: &mut ProbeCounts,
) -> Vec<(&'static str, f64)> {
    let mut accepted = vec![0u64; units.len()];
    let mut scratch = AnalysisScratch::new();
    let keys: Vec<Vec<String>> = units.iter().map(|u| gen_key(spec, u)).collect();
    for rep in 0..spec.replications {
        let mut start = 0;
        while start < units.len() {
            let end = (start..units.len())
                .find(|&j| keys[j] != keys[start])
                .unwrap_or(units.len());
            let mut rng = Prng::seed_from_u64(gen_seed(spec, &units[start], rep));
            let params = cpu_params(&units[start]);
            let set = tr.span("probe.gen", |_| generate_task_set(&mut rng, &params));
            counts.gen_calls += 1;
            if let Ok(set) = set {
                probe_cpu_run(tr, units, start..end, &set, &mut scratch, &mut accepted);
            }
            start = end;
        }
    }
    let n = spec.replications as f64;
    accepted
        .iter()
        .map(|&a| ("accept_ratio", a as f64 / n))
        .collect()
}

fn probe_cpu_run(
    tr: &mut Tracer,
    units: &[WorkUnit],
    run: std::ops::Range<usize>,
    set: &TaskSet,
    scratch: &mut AnalysisScratch,
    accepted: &mut [u64],
) {
    let test = |i: usize| units[i].get_str("policy", "rm-rta");
    let (mut demand, mut demand_v, mut fixed, mut fixed_v, mut solo) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in run {
        match batch_of(test(i), set) {
            Batch::Demand(v) => {
                demand.push(i);
                demand_v.push(v);
            }
            Batch::Fixed(v) => {
                fixed.push(i);
                fixed_v.push(v);
            }
            Batch::Solo => solo.push(i),
        }
    }
    if !demand.is_empty() {
        let res = tr.span("sched.edf", |_| {
            edf_feasibility_batch(set, &demand_v, FixpointConfig::default(), scratch)
        });
        match res {
            Ok(res) => {
                for (&i, f) in demand.iter().zip(&res) {
                    accepted[i] += u64::from(f.feasible);
                }
            }
            Err(_) => solo.extend_from_slice(&demand),
        }
    }
    if !fixed.is_empty() {
        let res = tr.span("sched.fp", |_| response_times_batch(set, &fixed_v, scratch));
        match res {
            Ok(res) => {
                for (&i, an) in fixed.iter().zip(&res) {
                    accepted[i] += u64::from(an.all_schedulable());
                }
            }
            Err(_) => solo.extend_from_slice(&fixed),
        }
    }
    for i in solo {
        let ok = tr.span(sched_span(test(i)), |_| solo_test(test(i), set, scratch));
        accepted[i] += u64::from(ok);
    }
}
