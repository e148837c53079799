//! `simulate_static`: the `profirt simulate` path on a pinned mix of
//! lightly and heavily loaded static rings, one thread, long horizons.
//!
//! Operation: one `simulate_network_stats` call on one ring. Timed work is
//! the simulation only; generation, `SimNetwork::validate` and the bound
//! check sit outside the timed calls. Light rings leave the token idle for
//! most rotations (the idle fast-forward carries them), heavy rings keep
//! the visit loop busy.

use std::time::Instant;

use profirt_base::release::MergedReleases;
use profirt_base::{AnalysisResult, Prng, Time};
use profirt_core::{NetworkAnalysis, PolicyKind};
use profirt_profibus::{BusParams, QueuePolicy};
use profirt_sim::engine::IdleSpan;
use profirt_sim::{
    simulate_network, simulate_network_stats, JitterInjection, NetEvent, NetworkSimConfig,
    NetworkSimResult, Observer, OffsetMode, SimMaster, SimNetwork,
};
use profirt_workload::{
    generate_network, low_priority_release_gens, stream_release_gens, GeneratedNetwork,
    NetGenParams,
};

use crate::common::{
    median, mix, p50_p99, secs, setup_due, time_setup, EndToEnd, HostSpeed, Outcome, RunOpts,
    Tracer, TRACE_ROUNDS,
};

/// Token-pass time shared by the generated analysis view and the
/// simulator (SD4 + TSYN + TID2 at 500 kbit/s), so bounds are sound
/// against simulation.
pub const TOKEN_PASS: i64 = 166;

/// One class of the pinned ring mix.
struct RingClass {
    heavy: bool,
    count: usize,
    masters: (usize, usize),
    streams: usize,
    tightness: f64,
    horizon: i64,
}

/// The pinned mix: light rings over a long horizon (idle token, the
/// fast-forward carries them) and heavy rings over a shorter one (busy
/// visit loop).
const MIX: [RingClass; 2] = [
    RingClass {
        heavy: false,
        count: 600,
        masters: (2, 3),
        streams: 2,
        tightness: 0.9,
        horizon: 40_000_000,
    },
    RingClass {
        heavy: true,
        count: 400,
        masters: (6, 8),
        streams: 5,
        tightness: 0.5,
        horizon: 4_000_000,
    },
];

/// Mix builds per set-up sample (one takes a few milliseconds).
const SETUP_REPS: usize = 5;

/// The queue policies the mix rotates through (the sound analyses).
const POLICIES: [PolicyKind; 3] = [PolicyKind::Fcfs, PolicyKind::Dm, PolicyKind::Edf];

/// One ring of the mix, ready to simulate.
pub struct Ring {
    heavy: bool,
    policy: PolicyKind,
    gen: GeneratedNetwork,
    net: SimNetwork,
    cfg: NetworkSimConfig,
}

/// Generates a network with the simulator's token-pass overhead in its
/// analysis view.
pub fn gen_network(seed: u64, params: &NetGenParams) -> Result<GeneratedNetwork, String> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut g = generate_network(&mut rng, &BusParams::profile_500k(), params)
        .map_err(|e| format!("network generation failed: {e}"))?;
    g.config = g.config.with_token_pass(Time::new(TOKEN_PASS));
    Ok(g)
}

/// The simulator view of a generated network under one queue policy.
pub fn to_sim(g: &GeneratedNetwork, policy: QueuePolicy) -> SimNetwork {
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

/// Synchronous releases, no jitter injection: the worst-case-biased
/// setting of the contract checks.
pub fn sim_config(horizon: i64, seed: u64) -> NetworkSimConfig {
    NetworkSimConfig {
        horizon: Time::new(horizon),
        seed,
        offsets: OffsetMode::Synchronous,
        jitter: JitterInjection::None,
        ..Default::default()
    }
}

/// Drains every master's merged release generators over the horizon,
/// exactly as the kernel builds them, and returns the release count. The
/// release layer measured alone.
pub fn drain_releases(net: &SimNetwork, cfg: &NetworkSimConfig) -> u64 {
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let mut count = 0u64;
    for m in &net.masters {
        let mut high = MergedReleases::new(stream_release_gens(
            &m.streams,
            cfg.horizon,
            cfg.offsets,
            cfg.jitter,
            &mut rng,
        ));
        while high.next_release().is_some() {
            count += 1;
        }
        let mut low = MergedReleases::new(low_priority_release_gens(&m.low_priority, cfg.horizon));
        while low.next_release().is_some() {
            count += 1;
        }
    }
    count
}

/// Counts `NetEvent::GapPoll` events, including those inside
/// fast-forwarded idle spans.
#[derive(Debug, Default)]
pub struct GapPollCounter {
    /// Polls seen.
    pub polls: u64,
}

impl Observer<NetEvent> for GapPollCounter {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        if matches!(event, NetEvent::GapPoll { .. }) {
            self.polls += 1;
        }
    }

    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        let per_rotation = span
            .pattern
            .iter()
            .filter(|(_, e)| matches!(e, NetEvent::GapPoll { .. }))
            .count() as u64;
        self.polls += per_rotation * span.rotations;
    }
}

/// Streams whose observed maximum response exceeds the analysed bound
/// (schedulable streams with a positive bound only).
pub fn bound_violations(an: &NetworkAnalysis, observed: &NetworkSimResult) -> usize {
    let mut violations = 0;
    for (k, rows) in an.masters.iter().enumerate() {
        for (i, row) in rows.iter().enumerate() {
            let seen = observed
                .streams
                .get(k)
                .and_then(|m| m.get(i))
                .map_or(Time::ZERO, |o| o.max_response);
            if row.schedulable && row.response_time.is_positive() && seen > row.response_time {
                violations += 1;
            }
        }
    }
    violations
}

/// One ring of the mix before generation.
struct RingSpec {
    heavy: bool,
    params: NetGenParams,
    policy: PolicyKind,
    horizon: i64,
}

/// The mix, in ring order; ring `idx` draws its network from
/// `mix(seed, idx)` and its simulation stream from `mix(seed, 1000 + idx)`.
fn ring_specs() -> Vec<RingSpec> {
    let mut specs = Vec::new();
    for class in &MIX {
        let spread = class.masters.1 - class.masters.0 + 1;
        for i in 0..class.count {
            let masters = class.masters.0 + i % spread;
            specs.push(RingSpec {
                heavy: class.heavy,
                params: NetGenParams::standard(class.tightness, class.streams, masters),
                policy: POLICIES[specs.len() % POLICIES.len()],
                horizon: class.horizon,
            });
        }
    }
    specs
}

/// Generates, builds and validates the whole mix for `seed`.
fn build_mix(seed: u64) -> Result<Vec<Ring>, String> {
    ring_specs()
        .into_iter()
        .enumerate()
        .map(|(idx, spec)| {
            let gen = gen_network(mix(seed, idx as u64), &spec.params)?;
            let net = to_sim(&gen, spec.policy.queue_policy());
            net.validate().map_err(|e| format!("ring {idx}: {e}"))?;
            Ok(Ring {
                heavy: spec.heavy,
                policy: spec.policy,
                gen,
                net,
                cfg: sim_config(spec.horizon, mix(seed, 1000 + idx as u64)),
            })
        })
        .collect()
}

/// Checks one simulation result against its ring's analytical bounds. A
/// ring without bounds (e.g. EDF service saturation) has nothing to check.
fn check(
    out: &mut Outcome,
    idx: usize,
    analysis: &AnalysisResult<NetworkAnalysis>,
    res: &NetworkSimResult,
) {
    if let Ok(an) = analysis {
        let v = bound_violations(an, res);
        if v > 0 {
            out.fail(format!(
                "ring {idx}: {v} stream(s) observed above the bound"
            ));
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (first_setup, rings) = time_setup(SETUP_REPS, true, || build_mix(opts.seed))?;
    let mut setup = vec![first_setup];

    // Every pass repeats identical work, so each ring keeps its fastest
    // time: the one least disturbed by other tenants of the host.
    let mut best = vec![f64::INFINITY; rings.len()];
    let mut passes = 0usize;
    let mut speed = HostSpeed::default();
    let started = Instant::now();
    loop {
        for (idx, ring) in rings.iter().enumerate() {
            if idx % 100 == 0 {
                speed.sample(1);
            }
            let t0 = Instant::now();
            let (res, _stats) = simulate_network_stats(&ring.net, &ring.cfg);
            best[idx] = best[idx].min(secs(t0.elapsed()));
            out.attempted += 1;
            if passes == 0 {
                check(&mut out, idx, &ring.policy.analyze(&ring.gen.config), &res);
            }
        }
        passes += 1;
        let elapsed = secs(started.elapsed());
        if setup_due(setup.len(), elapsed, opts.seconds) {
            setup.push(time_setup(SETUP_REPS, true, || build_mix(opts.seed))?.0);
        }
        if elapsed + elapsed / passes as f64 > opts.seconds {
            break;
        }
    }

    let ticks: f64 = rings.iter().map(|r| r.cfg.horizon.ticks() as f64).sum();
    let class_ms = |heavy: bool| -> Vec<f64> {
        rings
            .iter()
            .zip(&best)
            .filter(|(r, _)| r.heavy == heavy)
            .map(|(_, t)| t * 1e3)
            .collect()
    };
    let (lo_ms, hi_ms) = (class_ms(false), class_ms(true));
    let figures = EndToEnd {
        setup_s: median(&setup),
        units_per_s: ticks / best.iter().sum::<f64>(),
        lo_ms: p50_p99(&lo_ms),
        hi_ms: p50_p99(&hi_ms),
    };
    out.set_end_to_end(&figures, &speed, true);
    out.note_info("passes", profirt_base::json::Value::Int(passes as i64));
    out.note_info(
        "rings_lo",
        profirt_base::json::Value::Int(lo_ms.len() as i64),
    );
    out.note_info(
        "rings_hi",
        profirt_base::json::Value::Int(hi_ms.len() as i64),
    );
    Ok(out)
}

/// One pass of the workload's work per ring — generate, build, validate,
/// simulate, analyse, check — with or without spans.
fn pass(
    out: &mut Outcome,
    seed: u64,
    tr: &mut Tracer,
    totals: &mut SimTotals,
) -> Result<(), String> {
    for (idx, spec) in ring_specs().into_iter().enumerate() {
        let gen = tr.span("workload.gen", |_| {
            gen_network(mix(seed, idx as u64), &spec.params)
        })?;
        let net = to_sim(&gen, spec.policy.queue_policy());
        tr.span("sim.validate", |_| net.validate())
            .map_err(|e| format!("ring {idx}: {e}"))?;
        let cfg = sim_config(spec.horizon, mix(seed, 1000 + idx as u64));
        let (res, stats) = tr.span("sim.stats", |_| simulate_network_stats(&net, &cfg));
        let an = tr.span(core_span(spec.policy), |_| spec.policy.analyze(&gen.config));
        check(out, idx, &an, &res);
        totals.visits += stats.mem.visits_simulated;
        totals.ffwd += stats.mem.rotations_fast_forwarded;
        totals.skipped_visits += stats.mem.rotations_fast_forwarded * net.masters.len() as u64;
        totals.mode_switches += stats.mode.switches;
        totals.shed += stats.mode.sheds;
        totals.ring_events += stats.ring.events;
    }
    Ok(())
}

/// The span name of one policy's analysis call.
pub fn core_span(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Fcfs => "core.analyze.fcfs",
        PolicyKind::Dm => "core.analyze.dm",
        PolicyKind::DmPaper => "core.analyze.dm-paper",
        PolicyKind::Edf => "core.analyze.edf",
    }
}

/// Kernel counters summed over a pass.
#[derive(Debug, Default)]
pub struct SimTotals {
    /// Token visits executed.
    pub visits: u64,
    /// Idle rotations fast-forwarded.
    pub ffwd: u64,
    /// Token visits inside fast-forwarded rotations.
    pub skipped_visits: u64,
    /// Mode switches.
    pub mode_switches: u64,
    /// Sub-HI releases shed.
    pub shed: u64,
    /// Ring membership events.
    pub ring_events: u64,
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rings = build_mix(opts.seed)?;
    // Alternate the untraced pass and the same pass with spans; each side
    // keeps its fastest round. Each traced round ends with differential
    // probes on the same inputs, outside the traced wall: the releases
    // drained alone, and the kernel with the result observer only.
    let mut untraced_wall = f64::INFINITY;
    let mut best: Option<(f64, Tracer, SimTotals, u64)> = None;
    for _ in 0..TRACE_ROUNDS {
        let t0 = Instant::now();
        pass(
            &mut out,
            opts.seed,
            &mut Tracer::off(),
            &mut SimTotals::default(),
        )?;
        untraced_wall = untraced_wall.min(secs(t0.elapsed()));

        let mut tr = Tracer::default();
        let mut totals = SimTotals::default();
        let t0 = Instant::now();
        tr.span("wall", |tr| pass(&mut out, opts.seed, tr, &mut totals))?;
        let wall = secs(t0.elapsed());
        let mut releases = 0u64;
        for ring in &rings {
            releases += tr.span("probe.drain", |_| drain_releases(&ring.net, &ring.cfg));
            tr.span("probe.plain", |_| simulate_network(&ring.net, &ring.cfg));
        }
        out.attempted += 2 * rings.len() as u64;
        if best.as_ref().is_none_or(|(w, ..)| wall < *w) {
            best = Some((wall, tr, totals, releases));
        }
    }
    let Some((traced_wall, tr, totals, releases)) = best else {
        return Err("no traced round ran".to_string());
    };

    let drain = tr.total("probe.drain");
    let plain = tr.total("probe.plain");
    let stats = tr.total("sim.stats");
    let kernel = plain - drain;
    let observers = stats - plain;
    let selfs = tr.self_times();
    let gen = selfs.get("workload.gen").copied().unwrap_or(0.0);
    let validate = selfs.get("sim.validate").copied().unwrap_or(0.0);
    let mut layer_sum = gen + validate + drain + kernel + observers;
    for p in PolicyKind::ALL {
        let name = core_span(p);
        let v = selfs.get(name).copied().unwrap_or(0.0);
        layer_sum += v;
        out.set(&format!("core.analyze_s.{}", p.name()), v, "s");
    }
    out.set("release.drain_s", drain, "s");
    out.set("release.count", releases as f64, "count");
    out.set("sim.kernel_s", kernel, "s");
    out.set("sim.observers_s", observers, "s");
    out.set("sim.run_s", stats, "s");
    set_sim_counts(&mut out, &totals, kernel);
    out.set("workload.gen_s", gen, "s");
    out.set(
        "workload.gen_calls",
        tr.count("workload.gen") as f64,
        "count",
    );
    out.set("trace.wall_s", traced_wall, "s");
    out.set("trace.closure", layer_sum / traced_wall.max(1e-9), "ratio");
    out.set(
        "trace_overhead",
        traced_wall / untraced_wall.max(1e-9) - 1.0,
        "ratio",
    );
    tr.dump(&opts.out_dir.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(out)
}

/// The kernel counters as per-layer metrics.
pub fn set_sim_counts(out: &mut Outcome, t: &SimTotals, kernel_s: f64) {
    out.set("sim.visits", t.visits as f64, "count");
    out.set("sim.rotations_ffwd", t.ffwd as f64, "count");
    let all = (t.visits + t.skipped_visits) as f64;
    out.set(
        "sim.ffwd_share",
        if all > 0.0 {
            t.skipped_visits as f64 / all
        } else {
            0.0
        },
        "ratio",
    );
    out.set(
        "sim.ns_per_visit",
        if t.visits > 0 {
            kernel_s * 1e9 / t.visits as f64
        } else {
            0.0
        },
        "ns",
    );
    out.set("sim.mode_switches", t.mode_switches as f64, "count");
    out.set("sim.shed", t.shed as f64, "count");
    out.set("profibus.ring_events", t.ring_events as f64, "count");
}
