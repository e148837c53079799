//! Work-unit evaluators: one matrix point → one row of metrics.
//!
//! Each [`ScenarioKind`] has a fixed metric column set so every unit of a
//! campaign produces a uniform CSV row. A metric that does not apply (a
//! simulation column in an analysis-only campaign, a WCRT column for a
//! pure feasibility test) is `NaN` and rendered as `-`.
//!
//! Two evaluation paths produce those rows:
//!
//! * **Cold** ([`eval_unit`]) — the reference: each unit generates its own
//!   workloads and analyses them from scratch.
//! * **Warm** ([`eval_chain`]) — the production path: a contiguous warm
//!   chain (see [`super::plan::CampaignPlan::warm_chains`]) is walked front
//!   to back, generating each workload **once** per replication (the
//!   generation seed hashes only the generation axes), hoisting
//!   ttr-independent network analyses, and analysing CPU workloads through
//!   the batched `sched` entry points with one shared warm
//!   [`AnalysisScratch`].
//!
//! Both paths yield identical metric rows — `tests/prop_batch_eval.rs`
//! pins byte-identical `units.csv` output modulo the instrumentation
//! columns (`fixpoint_iters`, `warm_hit`, `unit_micros`).

use profirt_base::{Prng, TaskSet, Time};
use profirt_core::{
    max_feasible_ttr, ModeAnalysis, PolicyKind, PolicyTuning, TcycleModel, TtrSetting,
};
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
use profirt_sched::{AnalysisScratch, FixpointConfig, SetAnalysis};
use profirt_sim::ModeSimConfig;
use profirt_workload::{
    generate_task_set, CriticalityMix, GeneratedNetwork, NetGenParams, PeriodRange, TaskGenParams,
};

use super::netsim::{
    churn_plan, gen_network, hi_obs_over_bound, obs_over_bound, percentile, sim_observed_with,
    RingScenario,
};
use super::plan::{generation_axes, WorkUnit};
use super::spec::{AxisValue, CampaignSpec, ScenarioKind};

/// The metric columns a campaign of the given kind produces, in CSV order.
pub fn metric_names(kind: ScenarioKind) -> &'static [&'static str] {
    match kind {
        ScenarioKind::Network => &[
            "sched_ratio",
            "mean_sched_frac",
            "mean_tdel",
            "mean_tcycle",
            "mean_max_response",
            "ttr_feasible_ratio",
            "mean_max_ttr",
            "sim_max_trr",
            "sim_worst_ratio",
            "sim_violations",
            "sim_p95_response",
            "sim_p99_response",
            "sim_p99_trr",
            "ring_events",
            "min_ring_size",
            "max_ring_size",
            "mode_switches",
            "time_to_matchup_p99",
            "lo_shed_ratio",
            "hi_sim_violations",
            "sim_visits",
            "sim_ffwd",
        ],
        ScenarioKind::Cpu => &["accept_ratio", "mean_wcrt_norm"],
    }
}

/// One evaluated work unit: the metric row plus instrumentation.
#[derive(Clone, Debug)]
pub struct UnitEval {
    /// Metric values, matching `metric_names(spec.kind)` in length/order.
    pub row: Vec<f64>,
    /// Fixpoint iterations spent analysing this unit (`NaN` where the
    /// analyses are not instrumented, e.g. the network evaluators).
    pub fixpoint_iters: f64,
    /// `1.0` when the unit reused a workload generated by its warm
    /// predecessor, `0.0` for chain heads and the cold path.
    pub warm_hit: f64,
    /// Workload-generation failure note; when set, every metric is `NaN`.
    pub error: Option<String>,
}

/// Mixes the campaign seed with unit and replication indices
/// (splitmix64-style odd multipliers) so units draw independent
/// *simulation* streams.
fn unit_seed(spec: &CampaignSpec, unit_index: usize, replication: u64) -> u64 {
    spec.seed
        ^ (unit_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ replication.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The unit's generation-relevant coordinates, in axis-list order.
fn gen_key(kind: ScenarioKind, unit: &WorkUnit) -> Vec<(&'static str, &AxisValue)> {
    generation_axes(kind)
        .iter()
        .filter_map(|a| unit.get(a).map(|v| (*a, v)))
        .collect()
}

/// Workload-generation seed: a function of the campaign seed, the unit's
/// *generation-relevant* coordinates (FNV-1a over axis name/value slugs)
/// and the replication — deliberately **not** of the unit index, so matrix
/// points differing only in analysis axes (policy, `ttr`, simulation
/// knobs) draw identical workloads and warm chains can generate once.
pub(crate) fn gen_seed(spec: &CampaignSpec, unit: &WorkUnit, rep: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (axis, value) in gen_key(spec.kind, unit) {
        h = fnv1a(h, axis.as_bytes());
        h = fnv1a(h, value.slug().as_bytes());
    }
    spec.seed ^ h ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Evaluates one work unit cold: runs every replication seed and
/// aggregates the kind's metric row. The reference semantics the warm
/// chain path must reproduce exactly.
pub fn eval_unit(spec: &CampaignSpec, unit: &WorkUnit) -> UnitEval {
    match spec.kind {
        ScenarioKind::Network => eval_network_unit(spec, unit),
        ScenarioKind::Cpu => eval_cpu_unit(spec, unit),
    }
}

/// Evaluates a contiguous warm chain of units, amortizing workload
/// generation, ttr-independent network analyses and fixpoint work across
/// the chain. Metric rows are identical to [`eval_unit`] on each unit.
pub fn eval_chain(spec: &CampaignSpec, units: &[WorkUnit]) -> Vec<UnitEval> {
    match spec.kind {
        ScenarioKind::Network => eval_network_chain(spec, units),
        ScenarioKind::Cpu => eval_cpu_chain(spec, units),
    }
}

fn gen_error_note(rep: u64, err: &dyn std::fmt::Display) -> String {
    format!("workload generation failed at replication {rep}: {err}")
}

fn ttr_error_note(rep: u64, err: &dyn std::fmt::Display) -> String {
    format!("eq. (15) TTR setting failed at replication {rep}: {err}")
}

fn failed_unit(kind: ScenarioKind, warm_hit: f64, error: String) -> UnitEval {
    UnitEval {
        row: vec![f64::NAN; metric_names(kind).len()],
        fixpoint_iters: f64::NAN,
        warm_hit,
        error: Some(error),
    }
}

fn mean_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn max_or_nan(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

// ---------------------------------------------------------------------------
// Network units
// ---------------------------------------------------------------------------

/// The analysis-relevant coordinates of one network unit.
struct NetUnitCfg {
    masters: usize,
    policy: PolicyKind,
    gap_factor: u32,
    churn: String,
    ttr: Option<i64>,
}

fn net_unit_cfg(unit: &WorkUnit) -> NetUnitCfg {
    NetUnitCfg {
        masters: unit.get_i64("masters", 3).max(1) as usize,
        policy: PolicyKind::parse(unit.get_str("policy", "fcfs")).expect("validated policy"),
        gap_factor: unit.get_i64("gap_factor", 0).max(0) as u32,
        churn: unit.get_str("churn", "none").to_string(),
        ttr: unit.get("ttr").and_then(AxisValue::as_i64),
    }
}

fn network_base_params(unit: &WorkUnit) -> NetGenParams {
    let masters = unit.get_i64("masters", 3).max(1) as usize;
    let streams = unit.get_i64("streams", 3).max(1) as usize;
    let tightness = unit.get_f64("tightness", 0.8);
    let mix = CriticalityMix::parse(unit.get_str("criticality", "all-hi"))
        .expect("validated criticality mix");
    NetGenParams::standard(tightness, streams, masters).with_criticality_mix(mix)
}

/// Per-unit metric accumulators, shared between the cold and warm network
/// paths so the aggregation arithmetic cannot drift between them.
struct NetAccum {
    all_sched: u64,
    sched_fracs: Vec<f64>,
    tdels: Vec<f64>,
    tcycles: Vec<f64>,
    max_responses: Vec<f64>,
    ttr_feasible: u64,
    max_ttrs: Vec<f64>,
    trrs: Vec<f64>,
    worst_ratios: Vec<f64>,
    violations: u64,
    resp_p95s: Vec<f64>,
    resp_p99s: Vec<f64>,
    trr_p99s: Vec<f64>,
    ring_events: u64,
    min_ring: usize,
    max_ring: usize,
    mode_switches: u64,
    matchup_waits: Vec<f64>,
    lo_shed_ratios: Vec<f64>,
    hi_violations: u64,
    visits_simulated: u64,
    rotations_fast_forwarded: u64,
}

impl NetAccum {
    fn new() -> NetAccum {
        NetAccum {
            all_sched: 0,
            sched_fracs: Vec::new(),
            tdels: Vec::new(),
            tcycles: Vec::new(),
            max_responses: Vec::new(),
            ttr_feasible: 0,
            max_ttrs: Vec::new(),
            trrs: Vec::new(),
            worst_ratios: Vec::new(),
            violations: 0,
            resp_p95s: Vec::new(),
            resp_p99s: Vec::new(),
            trr_p99s: Vec::new(),
            ring_events: 0,
            min_ring: usize::MAX,
            max_ring: 0,
            mode_switches: 0,
            matchup_waits: Vec::new(),
            lo_shed_ratios: Vec::new(),
            hi_violations: 0,
            visits_simulated: 0,
            rotations_fast_forwarded: 0,
        }
    }

    fn finalize(&self, spec: &CampaignSpec) -> Vec<f64> {
        let n = spec.replications as f64;
        let sim = spec.sim_horizon > 0;
        vec![
            self.all_sched as f64 / n,
            mean_or_nan(&self.sched_fracs),
            mean_or_nan(&self.tdels),
            mean_or_nan(&self.tcycles),
            mean_or_nan(&self.max_responses),
            self.ttr_feasible as f64 / n,
            mean_or_nan(&self.max_ttrs),
            if sim {
                max_or_nan(&self.trrs)
            } else {
                f64::NAN
            },
            if sim {
                max_or_nan(&self.worst_ratios)
            } else {
                f64::NAN
            },
            if sim {
                self.violations as f64
            } else {
                f64::NAN
            },
            if sim {
                mean_or_nan(&self.resp_p95s)
            } else {
                f64::NAN
            },
            if sim {
                mean_or_nan(&self.resp_p99s)
            } else {
                f64::NAN
            },
            if sim {
                mean_or_nan(&self.trr_p99s)
            } else {
                f64::NAN
            },
            if sim {
                self.ring_events as f64
            } else {
                f64::NAN
            },
            if sim { self.min_ring as f64 } else { f64::NAN },
            if sim { self.max_ring as f64 } else { f64::NAN },
            if sim {
                self.mode_switches as f64
            } else {
                f64::NAN
            },
            if sim {
                percentile(&self.matchup_waits, 99.0)
            } else {
                f64::NAN
            },
            if sim {
                mean_or_nan(&self.lo_shed_ratios)
            } else {
                f64::NAN
            },
            if sim {
                self.hi_violations as f64
            } else {
                f64::NAN
            },
            if sim {
                self.visits_simulated as f64
            } else {
                f64::NAN
            },
            if sim {
                self.rotations_fast_forwarded as f64
            } else {
                f64::NAN
            },
        ]
    }
}

/// One replication of one network unit: the ttr-setting bookkeeping, the
/// policy analysis, and (when enabled) the simulation contract check.
/// `g.config` must already carry the unit's `ttr` coordinate; `setting` is
/// ttr-independent (eq. (15) reads only the stream sets and the ring
/// overhead) and may be hoisted across a warm chain.
fn record_network_rep(
    acc: &mut NetAccum,
    spec: &CampaignSpec,
    cfg: &NetUnitCfg,
    g: &GeneratedNetwork,
    setting: &TtrSetting,
    sim_seed: u64,
) {
    if let Some(ttr) = setting.max_ttr {
        acc.ttr_feasible += 1;
        acc.max_ttrs.push(ttr.ticks() as f64);
    }

    let tuning = PolicyTuning::default();
    let Ok(an) = cfg.policy.analyze_with(&g.config, &tuning) else {
        // EDF service saturation etc.: counts as not schedulable.
        acc.sched_fracs.push(0.0);
        return;
    };
    if an.all_schedulable() {
        acc.all_sched += 1;
    }
    acc.sched_fracs
        .push(an.schedulable_count() as f64 / an.stream_count().max(1) as f64);
    acc.tdels.push(an.tdel.ticks() as f64);
    acc.tcycles.push(an.tcycle.ticks() as f64);
    if let Some(r) = an.max_response() {
        acc.max_responses.push(r.ticks() as f64);
    }

    if spec.sim_horizon > 0 {
        // A mixed-criticality workload turns the mode controller on; an
        // all-HI workload leaves it off, keeping the config-default fast
        // path (and every pre-existing campaign row) byte-identical.
        let scenario = RingScenario {
            gap_factor: cfg.gap_factor,
            plan: churn_plan(&cfg.churn, cfg.masters, spec.sim_horizon, sim_seed),
            mode: if g.config.has_sub_hi() {
                ModeSimConfig::enabled()
            } else {
                ModeSimConfig::default()
            },
        };
        let dynamic_ring = !scenario.is_static();
        let s = sim_observed_with(
            g,
            cfg.policy.queue_policy(),
            spec.sim_horizon,
            sim_seed,
            &scenario,
        );
        acc.trrs.push(s.max_trr.ticks() as f64);
        // The observed ≤ analytical contract assumes the §3.1 static
        // ring: any dynamic-ring unit (churn, or GAP polling alone) is
        // checked on the stable-phase maxima only — full ring, no
        // membership disturbance within two rotations of the release.
        // Transition windows are measured by the ring columns instead
        // of gating the contract; persistent GAP overhead inside
        // stable phases still counts, as it should.
        let contract_obs = if dynamic_ring {
            &s.stable_max_responses
        } else {
            &s.max_responses
        };
        let (worst, viols) = obs_over_bound(&an, contract_obs);
        acc.violations += viols as u64;
        if let Some(w) = worst {
            acc.worst_ratios.push(w);
        }
        acc.resp_p95s.push(s.response_p95);
        acc.resp_p99s.push(s.response_p99);
        acc.trr_p99s.push(s.trr_p99);
        acc.ring_events += s.ring.events;
        acc.min_ring = acc.min_ring.min(s.ring.min_size);
        acc.max_ring = acc.max_ring.max(s.ring.max_size);
        acc.mode_switches += s.mode.switches;
        acc.matchup_waits.extend_from_slice(&s.matchup_waits);
        acc.lo_shed_ratios.push(s.lo_shed_ratio);
        acc.visits_simulated += s.visits_simulated;
        acc.rotations_fast_forwarded += s.rotations_fast_forwarded;
        // The HI-mode contract: degraded-calm maxima against the
        // HI-projection bounds, valid through *any* churn plan (the
        // full-ring HI bound dominates every degraded subring).
        if scenario.mode.enabled {
            if let Ok(man) = ModeAnalysis::analyze(cfg.policy, &g.config, &tuning) {
                let (_, hi_viols) = hi_obs_over_bound(&man, &s.hi_stable_max_responses);
                acc.hi_violations += hi_viols as u64;
            }
        }
    }
}

fn eval_network_unit(spec: &CampaignSpec, unit: &WorkUnit) -> UnitEval {
    let cfg = net_unit_cfg(unit);
    let params = network_base_params(unit);
    let mut acc = NetAccum::new();
    for rep in 0..spec.replications {
        let mut g = match gen_network(gen_seed(spec, unit, rep), &params) {
            Ok(g) => g,
            Err(e) => return failed_unit(spec.kind, 0.0, gen_error_note(rep, &e)),
        };
        if let Some(t) = cfg.ttr {
            g.config = match g.config.with_ttr(Time::new(t)) {
                Ok(c) => c,
                Err(e) => return failed_unit(spec.kind, 0.0, gen_error_note(rep, &e)),
            };
        }
        let setting = match max_feasible_ttr(&g.config, TcycleModel::Paper) {
            Ok(s) => s,
            Err(e) => return failed_unit(spec.kind, 0.0, ttr_error_note(rep, &e)),
        };
        record_network_rep(
            &mut acc,
            spec,
            &cfg,
            &g,
            &setting,
            unit_seed(spec, unit.index, rep),
        );
    }
    UnitEval {
        row: acc.finalize(spec),
        fixpoint_iters: f64::NAN,
        warm_hit: 0.0,
        error: None,
    }
}

fn eval_network_chain(spec: &CampaignSpec, units: &[WorkUnit]) -> Vec<UnitEval> {
    let n = units.len();
    let cfgs: Vec<NetUnitCfg> = units.iter().map(net_unit_cfg).collect();
    let params: Vec<NetGenParams> = units.iter().map(network_base_params).collect();
    let keys: Vec<_> = units.iter().map(|u| gen_key(spec.kind, u)).collect();
    let mut accs: Vec<NetAccum> = (0..n).map(|_| NetAccum::new()).collect();
    let mut errors: Vec<Option<String>> = vec![None; n];
    let mut hits = vec![false; n];

    for rep in 0..spec.replications {
        // One generated network per run of equal generation coordinates;
        // `max_feasible_ttr` is ttr-independent, so its result is hoisted
        // alongside the workload. `realized` is the run's single mutable
        // copy for ttr-bearing units: patching `TTR` in place keeps the
        // per-unit residual O(1) instead of O(streams).
        let mut cached: Option<(usize, GeneratedNetwork, TtrSetting)> = None;
        let mut realized: Option<GeneratedNetwork> = None;
        for (i, unit) in units.iter().enumerate() {
            if errors[i].is_some() {
                continue;
            }
            let fresh = !matches!(&cached, Some((j, ..)) if keys[*j] == keys[i]);
            if fresh {
                let g = match gen_network(gen_seed(spec, unit, rep), &params[i]) {
                    Ok(g) => g,
                    Err(e) => {
                        errors[i] = Some(gen_error_note(rep, &e));
                        cached = None;
                        continue;
                    }
                };
                let setting = match max_feasible_ttr(&g.config, TcycleModel::Paper) {
                    Ok(s) => s,
                    Err(e) => {
                        errors[i] = Some(ttr_error_note(rep, &e));
                        cached = None;
                        continue;
                    }
                };
                cached = Some((i, g, setting));
                realized = None;
            } else if rep == 0 {
                hits[i] = true;
            }
            let (_, base, setting) = cached.as_ref().expect("cache just populated");
            let g = if let Some(t) = cfgs[i].ttr {
                let patched = realized.get_or_insert_with(|| base.clone());
                match patched.config.set_ttr(Time::new(t)) {
                    Ok(()) => &*patched,
                    Err(e) => {
                        errors[i] = Some(gen_error_note(rep, &e));
                        continue;
                    }
                }
            } else {
                base
            };
            record_network_rep(
                &mut accs[i],
                spec,
                &cfgs[i],
                g,
                setting,
                unit_seed(spec, unit.index, rep),
            );
        }
    }

    (0..n)
        .map(|i| {
            let warm_hit = if hits[i] { 1.0 } else { 0.0 };
            match errors[i].take() {
                Some(err) => failed_unit(spec.kind, warm_hit, err),
                None => UnitEval {
                    row: accs[i].finalize(spec),
                    fixpoint_iters: f64::NAN,
                    warm_hit,
                    error: None,
                },
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// CPU units
// ---------------------------------------------------------------------------

fn cpu_gen_params(unit: &WorkUnit) -> TaskGenParams {
    let tasks = unit.get_i64("tasks", 4).max(1) as usize;
    let utilization = unit.get_f64("utilization", 0.7);
    let deadline_frac = unit.get_f64("deadline_frac", 1.0);
    let mut params = TaskGenParams::standard(tasks, utilization);
    if deadline_frac < 1.0 {
        params = params.with_deadline_frac(deadline_frac, 1.0);
    }
    if unit.get_str("period_spread", "standard") == "wide" {
        // Wide period range -> wide cost range -> strong blocking effects
        // (the T3 workload envelope).
        params = params.with_periods(PeriodRange::new(
            Time::new(50),
            Time::new(20_000),
            Time::new(10),
        ));
    }
    params
}

fn eval_cpu_unit(spec: &CampaignSpec, unit: &WorkUnit) -> UnitEval {
    let params = cpu_gen_params(unit);
    let policy = unit.get_str("policy", "rm-rta").to_string();

    let mut accepted = 0u64;
    let mut wcrt_norms = Vec::new();
    // The analysis scratch is allocated once per unit and reused across
    // every replication seed — the campaign hot loop never re-allocates
    // candidate/progression buffers.
    let mut scratch = AnalysisScratch::new();
    let mut iters = 0u64;
    for rep in 0..spec.replications {
        let mut rng = Prng::seed_from_u64(gen_seed(spec, unit, rep));
        let set = match generate_task_set(&mut rng, &params) {
            Ok(set) => set,
            Err(e) => return failed_unit(spec.kind, 0.0, gen_error_note(rep, &e)),
        };
        let (ok, norm) = eval_cpu_policy(&policy, &set, &mut scratch);
        iters += scratch.take_fixpoint_iters();
        if ok {
            accepted += 1;
        }
        if let Some(norm) = norm {
            wcrt_norms.push(norm);
        }
    }
    UnitEval {
        row: vec![
            accepted as f64 / spec.replications as f64,
            mean_or_nan(&wcrt_norms),
        ],
        fixpoint_iters: iters as f64,
        warm_hit: 0.0,
        error: None,
    }
}

/// How one CPU policy joins the batched analysis of a shared workload.
enum BatchKind {
    Demand(DemandVariantSpec),
    Fixed(FixedBatchVariant),
}

fn batch_kind(policy: &str, set: &TaskSet) -> Option<BatchKind> {
    let demand =
        |formula, blocking| Some(BatchKind::Demand(DemandVariantSpec { formula, blocking }));
    match policy {
        "edf-demand" => demand(DemandFormula::Standard, None),
        "edf-demand-paper" => demand(DemandFormula::PaperCeiling, None),
        "np-edf-zs" => demand(DemandFormula::Standard, Some(NpBlockingModel::ZhengShin)),
        "np-edf-george" => demand(DemandFormula::Standard, Some(NpBlockingModel::George)),
        "rm-rta" => Some(BatchKind::Fixed(FixedBatchVariant {
            prio: PriorityMap::rate_monotonic(set),
            mode: FixedBatchMode::Preemptive {
                config: RtaConfig::default(),
                with_jitter: false,
            },
        })),
        "dm-rta" => Some(BatchKind::Fixed(FixedBatchVariant {
            prio: PriorityMap::deadline_monotonic(set),
            mode: FixedBatchMode::Preemptive {
                config: RtaConfig::default(),
                with_jitter: false,
            },
        })),
        "np-dm" => Some(BatchKind::Fixed(FixedBatchVariant {
            prio: PriorityMap::deadline_monotonic(set),
            mode: FixedBatchMode::Nonpreemptive(NpFixedConfig::george()),
        })),
        _ => None,
    }
}

/// Evaluates one run of chain units that share `set`, batching the
/// demand-type and fixed-RTA-type policies and falling back to the
/// per-call evaluators for everything else (and on any batch-level
/// analysis error, where per-call error mapping must apply per unit).
fn evaluate_cpu_run(
    run: std::ops::Range<usize>,
    policies: &[String],
    set: &TaskSet,
    scratch: &mut AnalysisScratch,
    accepted: &mut [u64],
    norms: &mut [Vec<f64>],
    iters: &mut [f64],
) {
    let mut demand_units = Vec::new();
    let mut demand_variants = Vec::new();
    let mut fixed_units = Vec::new();
    let mut fixed_variants = Vec::new();
    let mut solo_units = Vec::new();
    for i in run {
        match batch_kind(&policies[i], set) {
            Some(BatchKind::Demand(v)) => {
                demand_units.push(i);
                demand_variants.push(v);
            }
            Some(BatchKind::Fixed(v)) => {
                fixed_units.push(i);
                fixed_variants.push(v);
            }
            None => solo_units.push(i),
        }
    }

    if !demand_units.is_empty() {
        match edf_feasibility_batch(set, &demand_variants, FixpointConfig::default(), scratch) {
            Ok(res) => {
                let share = scratch.take_fixpoint_iters() as f64 / demand_units.len() as f64;
                for (&i, f) in demand_units.iter().zip(&res) {
                    if f.feasible {
                        accepted[i] += 1;
                    }
                    iters[i] += share;
                }
            }
            Err(_) => {
                scratch.take_fixpoint_iters();
                solo_units.extend_from_slice(&demand_units);
            }
        }
    }

    if !fixed_units.is_empty() {
        match response_times_batch(set, &fixed_variants, scratch) {
            Ok(res) => {
                let share = scratch.take_fixpoint_iters() as f64 / fixed_units.len() as f64;
                for (&i, an) in fixed_units.iter().zip(&res) {
                    if an.all_schedulable() {
                        accepted[i] += 1;
                    }
                    if let Some(norm) = rta_norm(set, an) {
                        norms[i].push(norm);
                    }
                    iters[i] += share;
                }
            }
            Err(_) => {
                scratch.take_fixpoint_iters();
                solo_units.extend_from_slice(&fixed_units);
            }
        }
    }

    for &i in &solo_units {
        let (ok, norm) = eval_cpu_policy(&policies[i], set, scratch);
        iters[i] += scratch.take_fixpoint_iters() as f64;
        if ok {
            accepted[i] += 1;
        }
        if let Some(norm) = norm {
            norms[i].push(norm);
        }
    }
}

fn eval_cpu_chain(spec: &CampaignSpec, units: &[WorkUnit]) -> Vec<UnitEval> {
    let n = units.len();
    let policies: Vec<String> = units
        .iter()
        .map(|u| u.get_str("policy", "rm-rta").to_string())
        .collect();
    let params: Vec<TaskGenParams> = units.iter().map(cpu_gen_params).collect();
    let keys: Vec<_> = units.iter().map(|u| gen_key(spec.kind, u)).collect();

    // Maximal runs of identical generation coordinates: one generated task
    // set per (run, replication).
    let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    for i in 1..=n {
        if i == n || keys[i] != keys[start] {
            runs.push(start..i);
            start = i;
        }
    }

    let mut accepted = vec![0u64; n];
    let mut norms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut iters = vec![0f64; n];
    let mut errors: Vec<Option<String>> = vec![None; n];
    let mut hits = vec![false; n];
    for run in &runs {
        for i in run.clone().skip(1) {
            hits[i] = true;
        }
    }

    // One warm scratch for the whole chain: the busy-period and RTA memos
    // carry least-fixpoint seeds across the chain's policies and variants.
    let mut scratch = AnalysisScratch::new();
    for rep in 0..spec.replications {
        for run in &runs {
            if errors[run.start].is_some() {
                continue;
            }
            let mut rng = Prng::seed_from_u64(gen_seed(spec, &units[run.start], rep));
            let set = match generate_task_set(&mut rng, &params[run.start]) {
                Ok(set) => set,
                Err(e) => {
                    let note = gen_error_note(rep, &e);
                    for i in run.clone() {
                        errors[i] = Some(note.clone());
                    }
                    continue;
                }
            };
            evaluate_cpu_run(
                run.clone(),
                &policies,
                &set,
                &mut scratch,
                &mut accepted,
                &mut norms,
                &mut iters,
            );
        }
    }

    (0..n)
        .map(|i| {
            let warm_hit = if hits[i] { 1.0 } else { 0.0 };
            match errors[i].take() {
                Some(err) => failed_unit(spec.kind, warm_hit, err),
                None => UnitEval {
                    row: vec![
                        accepted[i] as f64 / spec.replications as f64,
                        mean_or_nan(&norms[i]),
                    ],
                    fixpoint_iters: iters[i],
                    warm_hit,
                    error: None,
                },
            }
        })
        .collect()
}

/// The set's worst WCRT/deadline ratio over the schedulable tasks.
fn rta_norm(set: &TaskSet, an: &SetAnalysis) -> Option<f64> {
    set.iter()
        .filter_map(|(i, task)| {
            an.verdicts[i]
                .wcrt()
                .map(|w| w.ticks() as f64 / task.d.ticks().max(1) as f64)
        })
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        })
}

fn fixed_rta(
    set: &TaskSet,
    pm: &PriorityMap,
    nonpreemptive: bool,
    scratch: &mut AnalysisScratch,
) -> (bool, Option<f64>) {
    let an = if nonpreemptive {
        np_response_times_with(set, pm, &NpFixedConfig::george(), scratch)
    } else {
        response_times_with(set, pm, &RtaConfig::default(), scratch)
    };
    match an {
        Ok(an) => (an.all_schedulable(), rta_norm(set, &an)),
        Err(_) => (false, None),
    }
}

fn edf_rta(
    set: &TaskSet,
    nonpreemptive: bool,
    scratch: &mut AnalysisScratch,
) -> (bool, Option<f64>) {
    let details = if nonpreemptive {
        np_edf_response_times_with(set, &NpEdfRtaConfig::default(), scratch).map(|(_, d)| d)
    } else {
        edf_response_times_with(set, &EdfRtaConfig::default(), scratch).map(|(_, d)| d)
    };
    match details {
        Ok(details) => {
            let mut ok = true;
            let mut norm = 0.0f64;
            for (i, task) in set.iter() {
                ok &= details[i].wcrt <= task.d;
                norm = norm.max(details[i].wcrt.ticks() as f64 / task.d.ticks().max(1) as f64);
            }
            (ok, Some(norm))
        }
        Err(_) => (false, None),
    }
}

fn demand(set: &TaskSet, formula: DemandFormula, scratch: &mut AnalysisScratch) -> bool {
    edf_feasible_preemptive_with(
        set,
        &DemandConfig {
            formula,
            ..Default::default()
        },
        scratch,
    )
    .map(|f| f.feasible)
    .unwrap_or(false)
}

fn np_demand(set: &TaskSet, blocking: NpBlockingModel, scratch: &mut AnalysisScratch) -> bool {
    edf_feasible_nonpreemptive_with(
        set,
        &NpFeasibilityConfig {
            blocking,
            formula: DemandFormula::Standard,
            ..Default::default()
        },
        scratch,
    )
    .map(|f| f.feasible)
    .unwrap_or(false)
}

/// Runs one §2 schedulability test. Returns `(accepted, wcrt/deadline)`
/// where the normalised WCRT is the set's worst ratio (RTA-style tests
/// only; feasibility tests return `None`).
fn eval_cpu_policy(
    policy: &str,
    set: &TaskSet,
    scratch: &mut AnalysisScratch,
) -> (bool, Option<f64>) {
    match policy {
        "rm-ll" => (rm_utilization_schedulable(set).is_schedulable(), None),
        "rm-hb" => (hyperbolic_schedulable(set).is_schedulable(), None),
        "rm-rta" => fixed_rta(set, &PriorityMap::rate_monotonic(set), false, scratch),
        "dm-rta" => fixed_rta(set, &PriorityMap::deadline_monotonic(set), false, scratch),
        "np-dm" => fixed_rta(set, &PriorityMap::deadline_monotonic(set), true, scratch),
        "edf-util" => (
            edf_utilization_test(set).at_most_one && set.all_implicit_deadlines(),
            None,
        ),
        "edf-demand" => (demand(set, DemandFormula::Standard, scratch), None),
        "edf-demand-paper" => (demand(set, DemandFormula::PaperCeiling, scratch), None),
        "np-edf-zs" => (np_demand(set, NpBlockingModel::ZhengShin, scratch), None),
        "np-edf-george" => (np_demand(set, NpBlockingModel::George, scratch), None),
        "edf-rta" => edf_rta(set, false, scratch),
        "np-edf-rta" => edf_rta(set, true, scratch),
        other => panic!("unknown cpu policy {other:?} (spec validation missed it)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::plan::plan;

    fn net_spec() -> CampaignSpec {
        CampaignSpec::new("eval-net", "", ScenarioKind::Network)
            .replications(3)
            .axis_i64("masters", &[2])
            .axis_str("policy", &["fcfs", "dm"])
    }

    fn rows_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x == y)
    }

    #[test]
    fn network_rows_match_metric_schema_and_are_deterministic() {
        let spec = net_spec();
        let p = plan(&spec).unwrap();
        let a: Vec<UnitEval> = p.units.iter().map(|u| eval_unit(&spec, u)).collect();
        let b: Vec<UnitEval> = p.units.iter().map(|u| eval_unit(&spec, u)).collect();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.row.len(), metric_names(ScenarioKind::Network).len());
            assert!(rows_eq(&ra.row, &rb.row), "{:?} vs {:?}", ra.row, rb.row);
        }
        // Analysis-only: all sim columns (incl. the ring, mode and
        // kernel-counter columns) are NaN.
        for col in 7..=21 {
            assert!(
                a[0].row[col].is_nan(),
                "sim column {col} not NaN: {:?}",
                a[0].row
            );
        }
        // Ratios live in [0, 1].
        assert!((0.0..=1.0).contains(&a[0].row[0]));
    }

    #[test]
    fn simulated_units_populate_percentile_columns() {
        let spec = CampaignSpec::new("eval-net-sim", "", ScenarioKind::Network)
            .replications(2)
            .sim_horizon(400_000)
            .axis_i64("masters", &[2])
            .axis_str("policy", &["dm"]);
        let p = plan(&spec).unwrap();
        let names = metric_names(ScenarioKind::Network);
        let row = eval_unit(&spec, &p.units[0]).row;
        let col = |name: &str| row[names.iter().position(|m| *m == name).unwrap()];
        let p95 = col("sim_p95_response");
        let p99 = col("sim_p99_response");
        let trr_p99 = col("sim_p99_trr");
        assert!(p95.is_finite() && p99.is_finite() && trr_p99.is_finite());
        assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        // Percentiles sit below the recorded maxima.
        assert!(trr_p99 <= col("sim_max_trr"));
        // A static-ring unit reports a flat membership timeline.
        assert_eq!(col("ring_events"), 0.0);
        assert_eq!(col("min_ring_size"), 2.0);
        assert_eq!(col("max_ring_size"), 2.0);
        // The kernel run counters surface as columns: visits were
        // executed and the fast-forward counter is populated (possibly
        // zero on a bus this busy, but never NaN on a simulated unit).
        assert!(col("sim_visits") > 0.0);
        assert!(col("sim_ffwd").is_finite());
    }

    #[test]
    fn churn_units_report_membership_and_stable_contract() {
        let spec = CampaignSpec::new("eval-net-churn", "", ScenarioKind::Network)
            .replications(2)
            .sim_horizon(600_000)
            .axis_i64("masters", &[3])
            .axis_f64("tightness", &[0.6])
            .axis_i64("gap_factor", &[3])
            .axis_str("churn", &["none", "light", "heavy"])
            .axis_str("policy", &["dm"]);
        let p = plan(&spec).unwrap();
        let names = metric_names(ScenarioKind::Network);
        let col = |row: &[f64], name: &str| row[names.iter().position(|m| *m == name).unwrap()];
        let rows: Vec<Vec<f64>> = p.units.iter().map(|u| eval_unit(&spec, u).row).collect();
        // churn=none keeps the ring full (GAP polls hit only empty
        // addresses); churn scenarios shrink it and come back.
        let (none, light, heavy) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(col(none, "ring_events"), 0.0);
        assert_eq!(col(none, "min_ring_size"), 3.0);
        assert!(col(light, "ring_events") > 0.0);
        assert!(col(light, "min_ring_size") < 3.0);
        assert_eq!(col(light, "max_ring_size"), 3.0, "churned masters rejoin");
        assert!(col(heavy, "ring_events") >= col(light, "ring_events"));
        // The stable-phase contract holds for the sound DM analysis even
        // under churn; determinism across re-evaluation holds too.
        for row in &rows {
            assert_eq!(col(row, "sim_violations"), 0.0, "{row:?}");
        }
        let again: Vec<Vec<f64>> = p.units.iter().map(|u| eval_unit(&spec, u).row).collect();
        for (ra, rb) in rows.iter().zip(&again) {
            assert!(rows_eq(ra, rb), "{ra:?} vs {rb:?}");
        }
    }

    #[test]
    fn mixed_criticality_units_shed_and_match_up() {
        let spec = CampaignSpec::new("eval-net-mc", "", ScenarioKind::Network)
            .replications(2)
            .sim_horizon(600_000)
            .axis_i64("masters", &[3])
            .axis_f64("tightness", &[0.6])
            .axis_i64("gap_factor", &[3])
            .axis_str("criticality", &["all-hi", "mixed"])
            .axis_str("churn", &["heavy"])
            .axis_str("policy", &["dm"]);
        let p = plan(&spec).unwrap();
        let names = metric_names(ScenarioKind::Network);
        let col = |row: &[f64], name: &str| row[names.iter().position(|m| *m == name).unwrap()];
        let rows: Vec<Vec<f64>> = p.units.iter().map(|u| eval_unit(&spec, u).row).collect();
        let (all_hi, mixed) = (&rows[0], &rows[1]);
        // An all-HI unit never turns the controller on: churn alone must
        // not shed anything or switch modes.
        assert_eq!(col(all_hi, "mode_switches"), 0.0);
        assert_eq!(col(all_hi, "lo_shed_ratio"), 0.0);
        assert_eq!(col(all_hi, "time_to_matchup_p99"), 0.0);
        // The mixed unit degrades on ring shrinkage, sheds sub-HI traffic
        // and recovers through a measured match-up phase.
        assert!(col(mixed, "mode_switches") > 0.0, "{mixed:?}");
        assert!(col(mixed, "lo_shed_ratio") > 0.0, "{mixed:?}");
        assert!(col(mixed, "time_to_matchup_p99") > 0.0, "{mixed:?}");
        // The HI-projection bounds hold through the churn plan for the
        // sound DM analysis — the mc contract.
        for row in &rows {
            assert_eq!(col(row, "hi_sim_violations"), 0.0, "{row:?}");
        }
        // Determinism across re-evaluation.
        let again: Vec<Vec<f64>> = p.units.iter().map(|u| eval_unit(&spec, u).row).collect();
        for (ra, rb) in rows.iter().zip(&again) {
            assert!(rows_eq(ra, rb), "{ra:?} vs {rb:?}");
        }
    }

    #[test]
    fn cpu_policies_all_evaluate() {
        let spec = CampaignSpec::new("eval-cpu", "", ScenarioKind::Cpu)
            .replications(2)
            .axis_i64("tasks", &[3])
            .axis_f64("utilization", &[0.5])
            .axis_str("policy", &super::super::spec::CPU_POLICIES);
        let p = plan(&spec).unwrap();
        assert_eq!(p.units.len(), super::super::spec::CPU_POLICIES.len());
        for u in &p.units {
            let e = eval_unit(&spec, u);
            assert_eq!(e.row.len(), metric_names(ScenarioKind::Cpu).len());
            assert!((0.0..=1.0).contains(&e.row[0]), "{}: {:?}", u.id, e.row);
            assert!(e.error.is_none());
            assert_eq!(e.warm_hit, 0.0, "cold path never reports warm hits");
        }
    }

    #[test]
    fn low_utilization_rta_accepts_nearly_everything() {
        let spec = CampaignSpec::new("eval-easy", "", ScenarioKind::Cpu)
            .replications(8)
            .axis_f64("utilization", &[0.3])
            .axis_str("policy", &["rm-rta"]);
        let p = plan(&spec).unwrap();
        let e = eval_unit(&spec, &p.units[0]);
        assert!(e.row[0] > 0.9, "accept ratio {:?}", e.row);
        assert!(e.row[1] > 0.0, "wcrt norm should be recorded");
        assert!(e.fixpoint_iters > 0.0, "RTA must report fixpoint work");
    }

    #[test]
    fn gen_seed_ignores_analysis_axes() {
        // Units differing only in policy must draw identical workloads.
        let spec = CampaignSpec::new("gen-seed", "", ScenarioKind::Cpu)
            .axis_i64("tasks", &[3, 4])
            .axis_str("policy", &["rm-rta", "edf-demand"]);
        let p = plan(&spec).unwrap();
        assert_eq!(
            gen_seed(&spec, &p.units[0], 0),
            gen_seed(&spec, &p.units[1], 0)
        );
        assert_ne!(
            gen_seed(&spec, &p.units[0], 0),
            gen_seed(&spec, &p.units[2], 0)
        );
        assert_ne!(
            gen_seed(&spec, &p.units[0], 0),
            gen_seed(&spec, &p.units[0], 1)
        );
    }

    #[test]
    fn cpu_chain_matches_cold_per_unit() {
        let spec = CampaignSpec::new("chain-cpu", "", ScenarioKind::Cpu)
            .replications(3)
            .axis_i64("tasks", &[3, 5])
            .axis_f64("utilization", &[0.6, 0.9])
            .axis_str("policy", &super::super::spec::CPU_POLICIES);
        let p = plan(&spec).unwrap();
        let chains = p.warm_chains(&spec);
        for chain in chains {
            let units = &p.units[chain];
            let warm = eval_chain(&spec, units);
            for (u, w) in units.iter().zip(&warm) {
                let cold = eval_unit(&spec, u);
                assert!(
                    rows_eq(&w.row, &cold.row),
                    "{}: {:?} vs {:?}",
                    u.id,
                    w.row,
                    cold.row
                );
                assert!(w.error.is_none() && cold.error.is_none());
            }
            // Every unit after the chain head shares the head's workload
            // (only the policy axis varies), so all of them are warm hits.
            assert_eq!(warm[0].warm_hit, 0.0);
            assert!(warm[1..].iter().all(|w| w.warm_hit == 1.0));
        }
    }

    #[test]
    fn network_chain_matches_cold_per_unit_across_ttr() {
        let spec = CampaignSpec::new("chain-net", "", ScenarioKind::Network)
            .replications(2)
            .axis_i64("masters", &[2, 3])
            .axis_str("policy", &["fcfs", "dm"])
            .axis_i64("ttr", &[2_000, 4_000, 8_000]);
        let p = plan(&spec).unwrap();
        for chain in p.warm_chains(&spec) {
            let units = &p.units[chain];
            let warm = eval_chain(&spec, units);
            for (u, w) in units.iter().zip(&warm) {
                let cold = eval_unit(&spec, u);
                assert!(
                    rows_eq(&w.row, &cold.row),
                    "{}: {:?} vs {:?}",
                    u.id,
                    w.row,
                    cold.row
                );
            }
            assert_eq!(warm[0].warm_hit, 0.0);
            assert!(warm[1..].iter().all(|w| w.warm_hit == 1.0));
        }
    }
}
