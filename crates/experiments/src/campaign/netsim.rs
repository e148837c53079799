//! Network-scenario scaffolding of the campaign evaluators: workload
//! generation with the simulator's token-pass overhead, the simulator view
//! of a generated network, the observer-equipped simulation run, and the
//! `observed ≤ analytical` comparisons the `CONTRACT` verdicts rest on.

use profirt_base::{AnalysisResult, Prng, Time};
use profirt_core::{ModeAnalysis, NetworkAnalysis};
use profirt_profibus::{BusParams, QueuePolicy};
use profirt_sim::{
    network::run_network, JitterInjection, MembershipPlan, ModeSimConfig, ModeSummary, NetStats,
    NetworkSimConfig, OffsetMode, RingSummary, SimMaster, SimNetwork, StableResponseObserver,
};
use profirt_workload::{generate_network, GeneratedNetwork, NetGenParams};

/// The token-pass duration used by the simulator and the overhead-aware
/// bounds (SD4 + TSYN + TID2 at 500 kbit/s).
const TOKEN_PASS: i64 = 166;

/// Generates the `seed`-th network for the given parameters.
///
/// The analysis view carries the simulator's token-pass overhead so that
/// every `Tcycle`-derived bound is sound against simulation (see the
/// fidelity note on [`profirt_core::NetworkConfig::token_pass`]). The
/// paper-literal (zero-overhead) view is `g.config.clone()` re-created via
/// `NetworkConfig::new` or by resetting `token_pass`.
pub(super) fn gen_network(seed: u64, params: &NetGenParams) -> AnalysisResult<GeneratedNetwork> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut g = generate_network(&mut rng, &BusParams::profile_500k(), params)?;
    g.config = g.config.with_token_pass(Time::new(TOKEN_PASS));
    Ok(g)
}

/// Assembles the simulator view of a generated network under one policy.
/// Per-stream criticality labels carry over from the analysis config, so a
/// mode-enabled simulation sheds exactly the streams the HI projection
/// drops.
fn to_sim(g: &GeneratedNetwork, policy: QueuePolicy) -> SimNetwork {
    SimNetwork {
        masters: g
            .streams
            .iter()
            .zip(&g.low_priority)
            .zip(&g.config.masters)
            .map(|((s, lp), mc)| {
                let mut m = match policy {
                    QueuePolicy::Fcfs => SimMaster::stock(s.clone()),
                    p => SimMaster::priority_queued(s.clone(), p),
                };
                m.low_priority = lp.clone();
                m.criticality = mc.criticality.clone();
                m
            })
            .collect(),
        ttr: g.config.ttr,
        token_pass: Time::new(TOKEN_PASS),
    }
}

/// The canonical simulation config of the campaigns: synchronous
/// releases, no jitter injection (the worst-case-biased setting every
/// contract comparison uses).
fn contract_sim_config(horizon: i64, seed: u64) -> NetworkSimConfig {
    NetworkSimConfig {
        horizon: Time::new(horizon),
        seed,
        offsets: OffsetMode::Synchronous,
        jitter: JitterInjection::None,
        ..Default::default()
    }
}

/// Ring-dynamics scenario of a simulated unit: the GAP update factor plus
/// the scripted membership plan. The default (`gap_factor = 0`, empty
/// plan) is the static §3.1 ring of every paper preset.
#[derive(Clone, Debug, Default)]
pub(super) struct RingScenario {
    /// GAP update factor `G` (`0` disables GAP polling).
    pub(super) gap_factor: u32,
    /// Scripted membership churn.
    pub(super) plan: MembershipPlan,
    /// Mixed-criticality mode controller (disabled by default; it runs on
    /// fixed and churning rings alike).
    pub(super) mode: ModeSimConfig,
}

impl RingScenario {
    /// `true` when this scenario is the static ring.
    pub(super) fn is_static(&self) -> bool {
        self.gap_factor == 0 && self.plan.is_empty() && !self.mode.enabled
    }
}

/// The deterministic membership plan of a named churn level: `"none"`
/// (static), `"light"` (one power cycle per non-anchor master) or
/// `"heavy"` (three). Plans derive from the unit seed, so replications
/// churn differently but reproducibly.
pub(super) fn churn_plan(level: &str, n_masters: usize, horizon: i64, seed: u64) -> MembershipPlan {
    let power_cycles = match level {
        "light" => 1,
        "heavy" => 3,
        // "none": spec validation admits no other level.
        _ => return MembershipPlan::new(),
    };
    MembershipPlan::random_churn(seed, n_masters, Time::new(horizon), power_cycles)
}

/// Observer-derived summary of one simulation run: the per-stream maxima
/// the `observed ≤ analytical` contract needs, the constant-memory
/// distribution statistics the campaign percentile columns consume, and —
/// under ring dynamics — the membership timeline plus the stable-phase
/// response maxima the churn-aware contract check is restricted to.
#[derive(Clone, Debug)]
pub(super) struct SimObservation {
    /// Per-master, per-stream maximum observed responses (whole run).
    pub max_responses: Vec<Vec<Time>>,
    /// Largest observed TRR across all masters.
    pub max_trr: Time,
    /// 95th-percentile response time (ticks) pooled over all streams.
    pub response_p95: f64,
    /// 99th-percentile response time (ticks) pooled over all streams.
    pub response_p99: f64,
    /// 99th-percentile token rotation time (ticks) over all masters.
    pub trr_p99: f64,
    /// Ring-membership timeline summary (configured size and zero events
    /// on a static run).
    pub ring: RingSummary,
    /// Per-master, per-stream maximum responses over stable phases only:
    /// full ring, no membership disturbance within two rotations before
    /// the release. The `observed ≤ analytical` contract under churn is
    /// checked against these.
    pub stable_max_responses: Vec<Vec<Time>>,
    /// Mode-controller summary (all zeroes on a mode-disabled run).
    pub mode: ModeSummary,
    /// Every observed `time_to_matchup` span, in ticks (one entry per
    /// completed match-up; pooled into the campaign's p99 column).
    pub matchup_waits: Vec<f64>,
    /// Fraction of sub-HI releases shed at admission (0 when no sub-HI
    /// traffic was released).
    pub lo_shed_ratio: f64,
    /// Per-master, per-stream maximum responses over *degraded* calm
    /// phases: HI mode, no disturbance within the guard window. The
    /// HI-projection bounds are checked against these.
    pub hi_stable_max_responses: Vec<Vec<Time>>,
    /// Token visits the kernel actually executed (`sim_visits` column).
    pub visits_simulated: u64,
    /// Idle rotations fast-forwarded arithmetically instead of being
    /// walked visit by visit (`sim_ffwd` column).
    pub rotations_fast_forwarded: u64,
}

/// Simulates under a ring-dynamics scenario with the statistics observers
/// attached and summarises the run for the campaign evaluators. Observers
/// are passive: the result path is that of a plain simulation.
pub(super) fn sim_observed_with(
    g: &GeneratedNetwork,
    policy: QueuePolicy,
    horizon: i64,
    seed: u64,
    scenario: &RingScenario,
) -> SimObservation {
    let net = to_sim(g, policy);
    let mut cfg = contract_sim_config(horizon, seed);
    cfg.gap_factor = scenario.gap_factor;
    cfg.membership = scenario.plan.clone();
    cfg.mode = scenario.mode;
    let initial = net.masters.len() - cfg.membership.initially_off().len();
    // Two target rotations of calm before a release counts as stable.
    let mut stable = StableResponseObserver::new(&net, initial, net.ttr * 2);
    let mut stats = NetStats::new(&net, &cfg);
    let mem = run_network(&net, &cfg, &mut [&mut stats, &mut stable]);
    let matchup_waits = stats
        .matchup_waits()
        .iter()
        .map(|w| w.ticks() as f64)
        .collect();
    let lo_shed_ratio = stats.lo_shed_ratio();
    let (obs, summary) = stats.finish(mem);
    SimObservation {
        max_responses: obs
            .streams
            .iter()
            .map(|m| m.iter().map(|o| o.max_response).collect())
            .collect(),
        max_trr: obs.max_trr_overall(),
        response_p95: summary.response.p95.ticks() as f64,
        response_p99: summary.response.p99.ticks() as f64,
        trr_p99: summary.trr.p99.ticks() as f64,
        ring: summary.ring,
        stable_max_responses: stable.max_responses,
        mode: summary.mode,
        matchup_waits,
        lo_shed_ratio,
        hi_stable_max_responses: stable.hi_max_responses,
        visits_simulated: summary.mem.visits_simulated,
        rotations_fast_forwarded: summary.mem.rotations_fast_forwarded,
    }
}

/// The observed-vs-bound comparison over the schedulable streams of an
/// analysis: the largest observed/bound ratio (`None` when nothing was
/// comparable) and the number of streams whose observation exceeded the
/// bound. The single implementation of the `observed ≤ analytical`
/// contract check.
pub(super) fn obs_over_bound(an: &NetworkAnalysis, observed: &[Vec<Time>]) -> (Option<f64>, usize) {
    let mut worst: Option<f64> = None;
    let mut violations = 0;
    for (k, rows) in an.masters.iter().enumerate() {
        for (i, row) in rows.iter().enumerate() {
            if row.schedulable && row.response_time.is_positive() {
                if observed[k][i] > row.response_time {
                    violations += 1;
                }
                let r = observed[k][i].ticks() as f64 / row.response_time.ticks() as f64;
                worst = Some(worst.map_or(r, |w: f64| w.max(r)));
            }
        }
    }
    (worst, violations)
}

/// The HI-mode contract check: streams whose *degraded-calm* observation
/// exceeded the HI-projection bound. Unlike [`obs_over_bound`], this
/// contract has no stable-phase restriction beyond the calm guard — the
/// full-ring HI bound dominates the bound on every degraded subring (see
/// [`ModeAnalysis`]), so it must hold through any churn plan.
pub(super) fn hi_obs_over_bound(an: &ModeAnalysis, observed: &[Vec<Time>]) -> (Option<f64>, usize) {
    let mut worst: Option<f64> = None;
    let mut violations = 0;
    for (k, kept) in an.hi_kept.iter().enumerate() {
        for (j, &orig) in kept.iter().enumerate() {
            let row = &an.hi.masters[k][j];
            if row.schedulable && row.response_time.is_positive() {
                if observed[k][orig] > row.response_time {
                    violations += 1;
                }
                let r = observed[k][orig].ticks() as f64 / row.response_time.ticks() as f64;
                worst = Some(worst.map_or(r, |w: f64| w.max(r)));
            }
        }
    }
    (worst, violations)
}

/// p-th percentile (0..=100) of a slice (nearest-rank).
pub(super) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn network_roundtrip() {
        let g = gen_network(1, &NetGenParams::standard(0.8, 2, 2)).unwrap();
        assert_eq!(g.config.n_masters(), 2);
        let s = sim_observed_with(&g, QueuePolicy::Fcfs, 500_000, 1, &RingScenario::default());
        assert_eq!(s.max_responses.len(), 2);
        assert!(s.max_trr.is_positive());
    }

    #[test]
    fn observed_stats_agree_with_plain_simulation() {
        let g = gen_network(3, &NetGenParams::standard(0.8, 2, 2)).unwrap();
        // A plain observer-free simulation of the same canonical config.
        let plain = profirt_sim::simulate_network(
            &to_sim(&g, QueuePolicy::Edf),
            &contract_sim_config(500_000, 3),
        );
        let obs: Vec<Vec<Time>> = plain
            .streams
            .iter()
            .map(|m| m.iter().map(|o| o.max_response).collect())
            .collect();
        let s = sim_observed_with(&g, QueuePolicy::Edf, 500_000, 3, &RingScenario::default());
        // Observers are passive: the contract-relevant maxima match the
        // plain run exactly.
        assert_eq!(s.max_responses, obs);
        assert_eq!(s.max_trr, plain.max_trr_overall());
        // Percentiles sit below the pooled maxima.
        let overall_max = obs.iter().flatten().copied().max().unwrap();
        assert!(s.response_p95 <= s.response_p99);
        assert!(s.response_p99 <= overall_max.ticks() as f64);
        assert!(s.trr_p99 <= s.max_trr.ticks() as f64);
    }
}
