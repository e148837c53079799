//! The T1–T8 / F1–F6 experiments as campaign presets.
//!
//! Each paper experiment's sweep is a declarative [`CampaignSpec`] over
//! the canonical workload envelope
//! ([`profirt_workload::NetGenParams::standard`] /
//! [`profirt_workload::TaskGenParams::standard`]), run by the one campaign
//! executor (`profirt campaign run <preset>`).
//!
//! [`shape_checks`] states each paper preset's qualitative claims on its
//! finished [`CampaignOutcome`], reading the metric rows by axis value. A
//! claim that needs a crafted exemplar or a per-stream quantity no column
//! carries is pinned by a test in the crate that owns the analysis
//! instead; `t6`, `f2`, `f3` and `f5` have all their claims there, so their
//! outcomes carry no checks.

use profirt_workload::NetGenParams;

use super::exec::{fmt_metric, CampaignOutcome};
use super::plan::WorkUnit;
use super::spec::{CampaignSpec, ScenarioKind};
use crate::shape::ShapeCheck;

/// The F1 deadline-tightness sweep.
const TIGHTNESS: [f64; 8] = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15];

/// F1 — schedulability-ratio curves vs deadline tightness per policy.
pub fn f1() -> CampaignSpec {
    CampaignSpec::new(
        "f1",
        "acceptance ratio vs deadline tightness (FCFS/DM/EDF)",
        ScenarioKind::Network,
    )
    .replications(200)
    .axis_f64("tightness", &TIGHTNESS)
    .axis_str("policy", &["fcfs", "dm", "edf"])
    .axis_i64("streams", &[4])
    .axis_i64("masters", &[3])
}

/// F2 — WCRT profile across stream-set size per policy (the graded-vs-flat
/// picture, as mean max response).
pub fn f2() -> CampaignSpec {
    CampaignSpec::new(
        "f2",
        "WCRT profile on an 8-stream master (FCFS flat, DM/EDF graded)",
        ScenarioKind::Network,
    )
    .replications(100)
    .axis_i64("streams", &[8])
    .axis_f64("tightness", &[0.4])
    .axis_i64("masters", &[2])
    .axis_str("policy", &["fcfs", "dm", "edf"])
}

/// F3 — token-lateness (`Tdel`) growth with the master count.
pub fn f3() -> CampaignSpec {
    CampaignSpec::new(
        "f3",
        "Tdel/Tcycle growth vs number of masters (eq. 13/14)",
        ScenarioKind::Network,
    )
    .replications(100)
    .axis_i64("masters", &[2, 4, 6, 8, 12, 16])
    .axis_i64("streams", &[2])
    .axis_f64("tightness", &[1.0])
    .axis_str("policy", &["fcfs"])
}

/// F4 — the eq. (15) feasibility region: `TTR` headroom vs tightness.
pub fn f4() -> CampaignSpec {
    CampaignSpec::new(
        "f4",
        "max feasible TTR vs deadline tightness (eq. 15 region)",
        ScenarioKind::Network,
    )
    .replications(200)
    .axis_f64("tightness", &[1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1])
    .axis_i64("streams", &[4])
    .axis_i64("masters", &[3])
    .axis_str("policy", &["fcfs"])
}

/// F5 — jitter-sensitive priority policies across the tightness sweep
/// (the §4.1 analyses carry the jitter terms).
pub fn f5() -> CampaignSpec {
    CampaignSpec::new(
        "f5",
        "DM/EDF response bounds across tightness (§4.1 jitter-aware analyses)",
        ScenarioKind::Network,
    )
    .replications(100)
    .axis_f64("tightness", &[0.8, 0.6, 0.4])
    .axis_str("policy", &["dm", "edf"])
    .axis_i64("streams", &[3])
    .axis_i64("masters", &[1])
}

/// F6 — bound tightness under simulation (pessimism distributions).
pub fn f6() -> CampaignSpec {
    CampaignSpec::new(
        "f6",
        "bound pessimism vs simulation per policy",
        ScenarioKind::Network,
    )
    .replications(60)
    .sim_horizon(6_000_000)
    .axis_str("policy", &["fcfs", "dm", "edf"])
    .axis_f64("tightness", &[0.8])
    .axis_i64("streams", &[3])
    .axis_i64("masters", &[3])
}

/// T1 — fixed-priority acceptance: utilisation tests vs RTA over
/// (task count × utilisation).
pub fn t1() -> CampaignSpec {
    CampaignSpec::new(
        "t1",
        "preemptive RM acceptance: LL vs hyperbolic vs RTA (§2.1)",
        ScenarioKind::Cpu,
    )
    .replications(200)
    .axis_i64("tasks", &[4, 8, 16])
    .axis_f64("utilization", &[0.5, 0.7, 0.8, 0.9])
    .axis_str("policy", &["rm-ll", "rm-hb", "rm-rta"])
}

/// T2 — preemptive EDF feasibility: utilisation vs demand tests, plus the
/// Standard-vs-PaperCeiling formula ablation (fidelity note B-A3).
pub fn t2() -> CampaignSpec {
    CampaignSpec::new(
        "t2",
        "EDF demand-test acceptance and the paper-ceiling ablation (§2.2 eq. 3)",
        ScenarioKind::Cpu,
    )
    .replications(200)
    .axis_i64("tasks", &[6])
    .axis_f64("utilization", &[0.6, 0.75, 0.9])
    .axis_f64("deadline_frac", &[1.0, 0.6, 0.3])
    .axis_str("policy", &["edf-util", "edf-demand", "edf-demand-paper"])
}

/// T3 — non-preemptive EDF feasibility: eq. (4) pessimism vs eq. (5).
pub fn t3() -> CampaignSpec {
    CampaignSpec::new(
        "t3",
        "np-EDF feasibility: Zheng-Shin eq. 4 vs George eq. 5",
        ScenarioKind::Cpu,
    )
    .replications(200)
    .axis_i64("tasks", &[4, 8])
    .axis_f64("utilization", &[0.4, 0.6, 0.8])
    .axis_f64("deadline_frac", &[0.5])
    .axis_str("period_spread", &["wide"])
    .axis_str("policy", &["np-edf-zs", "np-edf-george"])
}

/// T4 — EDF worst-case response times, preemptive vs non-preemptive.
pub fn t4() -> CampaignSpec {
    CampaignSpec::new(
        "t4",
        "EDF WCRT bounds (Spuri / George, eqs. 6-10)",
        ScenarioKind::Cpu,
    )
    .replications(64)
    .axis_i64("tasks", &[4])
    .axis_f64("utilization", &[0.55, 0.7, 0.85])
    .axis_str("policy", &["edf-rta", "np-edf-rta"])
}

/// T5 — the §3.3 token-cycle bound vs observed `TRR` over network size.
pub fn t5() -> CampaignSpec {
    CampaignSpec::new(
        "t5",
        "Tcycle bound vs observed TRR over network size (eq. 13/14)",
        ScenarioKind::Network,
    )
    .replications(40)
    .sim_horizon(6_000_000)
    .axis_i64("masters", &[2, 4, 8])
    .axis_i64("streams", &[3])
    .axis_f64("tightness", &[0.9])
    .axis_str("policy", &["fcfs"])
}

/// T6 — FCFS schedulability and the eq. (15) `TTR` derivation over
/// stream-set size.
pub fn t6() -> CampaignSpec {
    CampaignSpec::new(
        "t6",
        "FCFS TTR setting (eq. 15) over stream-set size, with simulation",
        ScenarioKind::Network,
    )
    .replications(60)
    .sim_horizon(6_000_000)
    .axis_i64("streams", &[2, 4, 8])
    .axis_f64("tightness", &[0.9])
    .axis_i64("masters", &[3])
    .axis_str("policy", &["fcfs"])
}

/// T7 — the headline per-policy comparison on one network class.
pub fn t7() -> CampaignSpec {
    CampaignSpec::new(
        "t7",
        "headline FCFS vs DM vs EDF comparison (§4.3)",
        ScenarioKind::Network,
    )
    .replications(200)
    .axis_str("policy", &["fcfs", "dm", "dm-paper", "edf"])
    .axis_f64("tightness", &[0.45])
    .axis_i64("streams", &[4])
    .axis_i64("masters", &[2])
}

/// T8 — analysis-vs-simulation validation of every policy (the
/// `observed ≤ analytical` contract, including the paper-literal DM
/// variant whose occasional violations are the finding).
pub fn t8() -> CampaignSpec {
    CampaignSpec::new(
        "t8",
        "observed/bound validation per policy (§4 architecture)",
        ScenarioKind::Network,
    )
    .replications(80)
    .sim_horizon(6_000_000)
    .axis_str("policy", &["fcfs", "dm", "dm-paper", "edf"])
    .axis_f64("tightness", &[0.8])
    .axis_i64("streams", &[3])
    .axis_i64("masters", &[3])
}

/// CH — live-ring dynamics: membership churn and GAP polling stress the
/// token service beyond the paper's static-ring assumption. The
/// `observed ≤ analytical` contract is checked on stable phases only
/// (full ring, two calm rotations before a release); the `ring_events` /
/// `min_ring_size` / `max_ring_size` columns quantify the disturbance.
pub fn churn() -> CampaignSpec {
    CampaignSpec::new(
        "churn",
        "ring membership churn and GAP polling vs the stable-phase contract",
        ScenarioKind::Network,
    )
    .replications(24)
    .sim_horizon(3_000_000)
    .axis_str("churn", &["none", "light", "heavy"])
    .axis_i64("gap_factor", &[3, 10])
    .axis_str("policy", &["fcfs", "dm"])
    .axis_f64("tightness", &[0.6])
    .axis_i64("streams", &[3])
    .axis_i64("masters", &[3])
}

/// MC — mixed-criticality overload modes under ring churn: HI bounds must
/// hold through *any* disturbance (`hi_sim_violations == 0`, no policy
/// exemption) while the full-workload bounds are promised in stable LO
/// phases only. The `mode_switches` / `time_to_matchup_p99` /
/// `lo_shed_ratio` columns quantify the degradation-and-recovery cycle.
pub fn mc_churn() -> CampaignSpec {
    CampaignSpec::new(
        "mc-churn",
        "mixed-criticality overload modes with match-up recovery under ring churn",
        ScenarioKind::Network,
    )
    .replications(24)
    .sim_horizon(3_000_000)
    .axis_str("criticality", &["all-hi", "mixed", "mixed3"])
    .axis_str("churn", &["none", "light", "heavy"])
    .axis_i64("gap_factor", &[3])
    .axis_str("policy", &["fcfs", "dm"])
    .axis_f64("tightness", &[0.6])
    .axis_i64("streams", &[3])
    .axis_i64("masters", &[3])
}

/// Every preset, in the paper's presentation order (the churn and
/// mixed-criticality studies, not part of the paper, come last).
pub fn all() -> Vec<CampaignSpec> {
    vec![
        t1(),
        t2(),
        t3(),
        t4(),
        t5(),
        t6(),
        t7(),
        t8(),
        f1(),
        f2(),
        f3(),
        f4(),
        f5(),
        f6(),
        churn(),
        mc_churn(),
    ]
}

/// Looks up a preset by name (`"f1"` … `"t8"`, case-insensitive).
pub fn preset(id: &str) -> Option<CampaignSpec> {
    let id = id.to_ascii_lowercase();
    all().into_iter().find(|spec| spec.name == id)
}

/// The shape checks of a paper preset, evaluated on its finished outcome
/// (dispatched on the campaign name). Empty for `t6`, `f2`, `f3`, `f5`,
/// the churn studies (whose verdict is the `CONTRACT` line) and any
/// campaign that is not a preset; callers decide whether the outcome came
/// from a preset.
pub fn shape_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    match outcome.spec.name.as_str() {
        "t1" => t1_checks(outcome),
        "t2" => t2_checks(outcome),
        "t3" => t3_checks(outcome),
        "t4" => t4_checks(outcome),
        "t5" => t5_checks(outcome),
        "t7" => t7_checks(outcome),
        "t8" => t8_checks(outcome),
        "f1" => f1_checks(outcome),
        "f4" => f4_checks(outcome),
        "f6" => f6_checks(outcome),
        _ => Vec::new(),
    }
}

/// One point of a policy comparison: the units that share every
/// coordinate except `policy`.
struct Point<'a> {
    metrics: &'a [&'static str],
    /// The first unit of the point (its non-policy coordinates).
    unit: &'a WorkUnit,
    /// `(policy, metric row)` per unit at this point, in plan order.
    rows: Vec<(&'a str, &'a [f64])>,
}

impl Point<'_> {
    /// `metric` of the unit running `policy` here (`NaN` when absent, so
    /// every comparison against it fails).
    fn get(&self, metric: &str, policy: &str) -> f64 {
        let col = self.metrics.iter().position(|m| *m == metric);
        let row = self.rows.iter().find(|(p, _)| *p == policy);
        match (col, row) {
            (Some(col), Some((_, row))) => row[col],
            _ => f64::NAN,
        }
    }

    /// A coordinate of the point (`NaN` when the axis is absent).
    fn coord(&self, axis: &str) -> f64 {
        self.unit.get_f64(axis, f64::NAN)
    }

    /// `axis=value` for every non-policy coordinate.
    fn label(&self) -> String {
        self.unit
            .point
            .iter()
            .filter(|(axis, _)| axis != "policy")
            .map(|(axis, v)| format!("{axis}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// `policy=value` of `metric` for every unit at the point.
    fn values(&self, metric: &str) -> String {
        self.rows
            .iter()
            .map(|(p, _)| format!("{p}={}", fmt_metric(self.get(metric, p))))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The outcome's policy-comparison points, in plan order.
fn points(outcome: &CampaignOutcome) -> Vec<Point<'_>> {
    let mut points: Vec<Point> = Vec::new();
    for (unit, row) in outcome.plan.units.iter().zip(&outcome.rows) {
        let policy = unit.get_str("policy", "");
        let same = |p: &&mut Point| {
            p.unit
                .point
                .iter()
                .zip(&unit.point)
                .all(|((axis, a), (_, b))| axis == "policy" || a == b)
        };
        match points.iter_mut().find(same) {
            Some(p) => p.rows.push((policy, row)),
            None => points.push(Point {
                metrics: &outcome.metrics,
                unit,
                rows: vec![(policy, row)],
            }),
        }
    }
    points
}

/// A claim that must hold at every point of `metric`'s comparison.
fn everywhere(
    claim: &str,
    points: &[Point],
    metric: &str,
    holds: impl Fn(&Point) -> bool,
) -> ShapeCheck {
    match points.iter().find(|p| !holds(p)) {
        None => ShapeCheck::new(
            claim,
            true,
            format!("holds at all {} point(s)", points.len()),
        ),
        Some(p) => ShapeCheck::new(
            claim,
            false,
            format!("fails at {}: {} {}", p.label(), metric, p.values(metric)),
        ),
    }
}

/// T1 — the per-set acceptance ordering LL ⊆ hyperbolic ⊆ RTA implies the
/// ordering of acceptance ratios over the shared workloads of a point.
fn t1_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let acc = |p: &Point, policy| p.get("accept_ratio", policy);
    vec![everywhere(
        "acceptance ordering LL <= hyperbolic <= RTA at every (tasks, utilization) point",
        &points(outcome),
        "accept_ratio",
        |p| acc(p, "rm-ll") <= acc(p, "rm-hb") && acc(p, "rm-hb") <= acc(p, "rm-rta"),
    )]
}

/// T2 — the paper's ceiling demand formula is optimistic: a superset of
/// the standard test's acceptances, strictly larger somewhere.
fn t2_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let pts = points(outcome);
    let gap =
        |p: &Point| p.get("accept_ratio", "edf-demand-paper") - p.get("accept_ratio", "edf-demand");
    let widest = pts.iter().max_by(|a, b| gap(a).total_cmp(&gap(b)));
    vec![
        everywhere(
            "paper's ceiling formula accepts at least as often as the standard demand test",
            &pts,
            "accept_ratio",
            |p| gap(p) >= 0.0,
        ),
        ShapeCheck::new(
            "the optimism is real: the paper formula accepts strictly more somewhere",
            widest.is_some_and(|p| gap(p) > 0.0),
            widest.map_or_else(String::new, |p| {
                format!(
                    "at {}: accept_ratio {}",
                    p.label(),
                    p.values("accept_ratio")
                )
            }),
        ),
    ]
}

/// T3 — George et al.'s eq. (5) accepts every eq. (4)-accepted set.
fn t3_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let acc = |p: &Point, policy| p.get("accept_ratio", policy);
    vec![everywhere(
        "eq. (5) (George) accepts at least as often as eq. (4) (Zheng-Shin) at every point",
        &points(outcome),
        "accept_ratio",
        |p| acc(p, "np-edf-george") >= acc(p, "np-edf-zs"),
    )]
}

/// T4 — non-preemptive blocking raises the EDF response-time bounds.
fn t4_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let norm = |p: &Point, policy| p.get("mean_wcrt_norm", policy);
    vec![everywhere(
        "blocking raises the bound: non-preemptive mean WCRT/D exceeds preemptive at every utilization",
        &points(outcome),
        "mean_wcrt_norm",
        |p| norm(p, "np-edf-rta") > norm(p, "edf-rta"),
    )]
}

/// T5 — the token is observed late: some rotation exceeds the target
/// `TTR` (the preset has no `ttr` axis, so every network runs at the
/// generator's target).
fn t5_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let ttr = NetGenParams::standard(0.9, 3, 2).ttr.ticks() as f64;
    let trr = points(outcome)
        .iter()
        .map(|p| p.get("sim_max_trr", "fcfs"))
        .fold(f64::NAN, f64::max);
    vec![ShapeCheck::new(
        "token lateness actually occurs (observed TRR > TTR)",
        trr > ttr,
        format!("largest observed TRR {} vs TTR {ttr}", fmt_metric(trr)),
    )]
}

/// T7 — priority queues schedule at least as many streams as FCFS.
fn t7_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let frac = |p: &Point, policy| p.get("mean_sched_frac", policy);
    vec![everywhere(
        "DM and EDF schedule at least as many streams as FCFS on average",
        &points(outcome),
        "mean_sched_frac",
        |p| frac(p, "dm") >= frac(p, "fcfs") && frac(p, "edf") >= frac(p, "fcfs"),
    )]
}

/// T8 — the sound bounds dominate simulation; the paper-literal DM bound's
/// violations are the recorded finding.
fn t8_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let pts = points(outcome);
    let violations = |p: &Point, policy| p.get("sim_violations", policy);
    let paper_dm: f64 = pts.iter().map(|p| violations(p, "dm-paper")).sum();
    vec![ShapeCheck::new(
        "FCFS, conservative-DM and EDF bounds dominate simulation everywhere",
        pts.iter().all(|p| {
            ["fcfs", "dm", "edf"]
                .iter()
                .all(|&q| violations(p, q) == 0.0)
        }),
        format!("paper-DM violations observed: {paper_dm}"),
    )]
}

/// F1 — acceptance-ratio curves vs deadline tightness.
fn f1_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let pts = points(outcome);
    let ratio = |p: &Point, policy| p.get("sched_ratio", policy);
    let gap = |p: &Point| ratio(p, "dm") - ratio(p, "fcfs");
    let widest = pts.iter().max_by(|a, b| gap(a).total_cmp(&gap(b)));
    let loosest = pts
        .iter()
        .max_by(|a, b| a.coord("tightness").total_cmp(&b.coord("tightness")));
    vec![
        everywhere(
            "DM and EDF acceptance >= FCFS at every tightness",
            &pts,
            "sched_ratio",
            |p| ratio(p, "dm") >= ratio(p, "fcfs") && ratio(p, "edf") >= ratio(p, "fcfs"),
        ),
        ShapeCheck::new(
            "FCFS collapses markedly earlier (DM - FCFS gap >= 0.25 somewhere)",
            widest.is_some_and(|p| gap(p) >= 0.25),
            widest.map_or_else(String::new, |p| {
                format!("largest gap {} at {}", fmt_metric(gap(p)), p.label())
            }),
        ),
        ShapeCheck::new(
            "all policies accept nearly everything (> 0.9) at the loosest deadlines",
            loosest.is_some_and(|p| ["fcfs", "dm", "edf"].iter().all(|&q| ratio(p, q) > 0.9)),
            loosest.map_or_else(String::new, |p| {
                format!("at {}: sched_ratio {}", p.label(), p.values("sched_ratio"))
            }),
        ),
    ]
}

/// F4 — the eq. (15) feasibility region shrinks as deadlines tighten.
fn f4_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let mut pts = points(outcome);
    pts.sort_by(|a, b| b.coord("tightness").total_cmp(&a.coord("tightness")));
    let frac = |p: &Point| p.get("ttr_feasible_ratio", "fcfs");
    let ttr = |p: &Point| p.get("mean_max_ttr", "fcfs");
    let series = |f: &dyn Fn(&Point) -> f64| {
        pts.iter()
            .map(|p| fmt_metric(f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let tightest = pts.last();
    vec![
        ShapeCheck::new(
            "feasible fraction shrinks monotonically as deadlines tighten",
            pts.windows(2).all(|w| frac(&w[0]) >= frac(&w[1])),
            format!("ttr_feasible_ratio by falling tightness: {}", series(&frac)),
        ),
        ShapeCheck::new(
            "mean TTR* shrinks as deadlines tighten (TTR headroom = D/nh - Tdel)",
            pts.windows(2)
                .filter(|w| frac(&w[0]) > 0.0 && frac(&w[1]) > 0.0)
                .all(|w| ttr(&w[0]) >= ttr(&w[1])),
            format!("mean_max_ttr by falling tightness: {}", series(&ttr)),
        ),
        ShapeCheck::new(
            "a hard-infeasible region exists at very tight deadlines (feasible fraction < 0.5)",
            tightest.is_some_and(|p| frac(p) < 0.5),
            tightest.map_or_else(String::new, |p| {
                format!(
                    "ttr_feasible_ratio {} at {}",
                    fmt_metric(frac(p)),
                    p.label()
                )
            }),
        ),
    ]
}

/// F6 — bound tightness under simulation: sound everywhere, with visible
/// FCFS pessimism.
fn f6_checks(outcome: &CampaignOutcome) -> Vec<ShapeCheck> {
    let pts = points(outcome);
    let worst = |p: &Point, policy| p.get("sim_worst_ratio", policy);
    let fcfs = pts
        .iter()
        .map(|p| worst(p, "fcfs"))
        .fold(f64::NAN, f64::max);
    vec![
        everywhere(
            "every bound/observed ratio is >= 1 (bounds are upper bounds)",
            &pts,
            "sim_worst_ratio",
            |p| ["fcfs", "dm", "edf"].iter().all(|&q| worst(p, q) <= 1.0),
        ),
        ShapeCheck::new(
            "bounds carry visible pessimism: every FCFS bound exceeds its observation by > 10%",
            fcfs * 1.1 < 1.0,
            format!("largest FCFS observed/bound {}", fmt_metric(fcfs)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::plan::plan;

    #[test]
    fn all_sixteen_presets_validate_and_plan() {
        let specs = all();
        assert_eq!(specs.len(), 16);
        for spec in &specs {
            let p = plan(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(p.units.len(), spec.unit_count(), "{}", spec.name);
            assert!(!spec.description.is_empty(), "{}", spec.name);
        }
        // Names are unique and resolvable.
        for spec in &specs {
            assert_eq!(preset(&spec.name).unwrap(), *spec);
        }
        assert!(preset("nope").is_none());
    }

    #[test]
    fn presets_scale_down_for_quick_runs() {
        let quick = t8().quick();
        assert!(quick.replications <= 24);
        assert!(quick.sim_horizon <= 1_500_000);
        // Analysis-only presets stay analysis-only.
        assert_eq!(f1().quick().sim_horizon, 0);
    }

    #[test]
    fn churn_preset_contract_holds_and_is_worker_independent() {
        let mut spec = churn().quick();
        spec.replications = 2;
        spec.sim_horizon = 500_000;
        spec.name = "churn-preset-smoke".into();
        spec.workers = 1;
        let root = std::env::temp_dir().join("profirt-churn-smoke");
        let _ = std::fs::remove_dir_all(&root);
        let one = run_preset_like(&spec, &root.join("w1"));
        // The stable-phase contract holds for the sound policies.
        assert!(
            one.contract_failures().is_empty(),
            "{:?}",
            one.contract_failures()
        );
        // Churn really happened and was surfaced in the ring columns.
        let names = crate::campaign::eval::metric_names(spec.kind);
        let events_col = names.iter().position(|m| *m == "ring_events").unwrap();
        let min_col = names.iter().position(|m| *m == "min_ring_size").unwrap();
        assert!(one.rows.iter().any(|r| r[events_col] > 0.0));
        assert!(one.rows.iter().any(|r| r[min_col] < 3.0));
        // Same spec, different worker count: identical rows (the unit,
        // not the thread, owns the RNG stream).
        let mut wide = spec.clone();
        wide.workers = 3;
        let three = run_preset_like(&wide, &root.join("w3"));
        for (a, b) in one.rows.iter().zip(&three.rows) {
            for (x, y) in a.iter().zip(b) {
                assert!((x.is_nan() && y.is_nan()) || x == y, "{a:?} vs {b:?}");
            }
        }
        // The written artifact must be byte-identical too, modulo the
        // one wall-clock column (`unit_micros`): steal order and worker
        // count may vary freely, but nothing else thread-dependent may
        // leak into units.csv.
        let strip_wall_clock = |path: std::path::PathBuf| {
            let text = std::fs::read_to_string(path).unwrap();
            let header = text.lines().next().unwrap();
            let drop_col = header
                .split(',')
                .position(|c| c == "unit_micros")
                .expect("units.csv has a unit_micros column");
            text.lines()
                .map(|line| {
                    line.split(',')
                        .enumerate()
                        .filter(|&(i, _)| i != drop_col)
                        .map(|(_, c)| c)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let csv_one = strip_wall_clock(root.join("w1").join(&spec.name).join("units.csv"));
        let csv_three = strip_wall_clock(root.join("w3").join(&spec.name).join("units.csv"));
        assert_eq!(csv_one, csv_three, "units.csv differs across worker counts");
        std::fs::remove_dir_all(&root).ok();
    }

    fn run_preset_like(
        spec: &CampaignSpec,
        root: &std::path::Path,
    ) -> crate::campaign::CampaignOutcome {
        crate::campaign::run_campaign(spec, root).unwrap()
    }

    #[test]
    fn mc_churn_preset_hi_contract_holds_and_is_worker_independent() {
        let mut spec = mc_churn().quick();
        spec.replications = 2;
        spec.sim_horizon = 600_000;
        spec.name = "mc-churn-preset-smoke".into();
        spec.workers = 1;
        let root = std::env::temp_dir().join("profirt-mc-churn-smoke");
        let _ = std::fs::remove_dir_all(&root);
        let one = run_preset_like(&spec, &root.join("w1"));
        // Both contracts hold: LO bounds in stable phases, HI-projection
        // bounds through every churn plan (no exemption).
        assert!(
            one.contract_failures().is_empty(),
            "{:?}",
            one.contract_failures()
        );
        let names = crate::campaign::eval::metric_names(spec.kind);
        let col = |name: &str| names.iter().position(|m| *m == name).unwrap();
        let unit_str = |i: usize, axis: &str| one.plan.units[i].get_str(axis, "");
        // Mixed workloads under churn really degrade, shed and match up.
        let mixed_heavy = (0..one.rows.len())
            .filter(|&i| unit_str(i, "criticality") != "all-hi" && unit_str(i, "churn") == "heavy");
        let mut saw_matchup = false;
        for i in mixed_heavy {
            let row = &one.rows[i];
            assert!(
                row[col("mode_switches")] > 0.0,
                "{}: {row:?}",
                one.plan.units[i].id
            );
            saw_matchup |= row[col("time_to_matchup_p99")] > 0.0;
        }
        assert!(saw_matchup, "no mixed/heavy unit completed a match-up");
        // All-HI units are mode-blind regardless of churn.
        for i in 0..one.rows.len() {
            if unit_str(i, "criticality") == "all-hi" {
                assert_eq!(one.rows[i][col("mode_switches")], 0.0);
                assert_eq!(one.rows[i][col("lo_shed_ratio")], 0.0);
            }
        }
        // Same spec, three workers: identical rows — the mc contract must
        // not depend on the worker count.
        let mut wide = spec.clone();
        wide.workers = 3;
        let three = run_preset_like(&wide, &root.join("w3"));
        assert!(three.contract_failures().is_empty());
        for (a, b) in one.rows.iter().zip(&three.rows) {
            for (x, y) in a.iter().zip(b) {
                assert!((x.is_nan() && y.is_nan()) || x == y, "{a:?} vs {b:?}");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn one_preset_runs_end_to_end_quickly() {
        let mut spec = f3().quick();
        spec.replications = 2;
        spec.name = "f3-preset-smoke".into();
        let root = std::env::temp_dir().join("profirt-preset-smoke");
        let _ = std::fs::remove_dir_all(&root);
        let outcome = crate::campaign::run_campaign(&spec, &root).unwrap();
        assert_eq!(outcome.rows.len(), 6); // 6 master counts
                                           // Tdel grows with the master count (the F3 shape, via the matrix).
        let tdel_col = outcome
            .metrics
            .iter()
            .position(|m| *m == "mean_tdel")
            .unwrap();
        let first = outcome.rows.first().unwrap()[tdel_col];
        let last = outcome.rows.last().unwrap()[tdel_col];
        assert!(
            last > first,
            "Tdel should grow with masters: {first} -> {last}"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
