//! CLI output rendering for the three subcommands.

use profirt::base::{Criticality, Time};
use profirt::core::{
    max_feasible_ttr, FcfsAnalysis, ModeAnalysis, NetworkAnalysis, NetworkConfig, PolicyKind,
    TcycleModel,
};
use profirt::sim::{simulate_network_stats, MembershipPlan, ModeSimConfig, NetworkSimConfig};
use profirt::workload::CriticalityMix;

use crate::config_file::CliNetwork;

fn print_analysis(label: &str, an: &NetworkAnalysis) {
    println!(
        "{label}: Tcycle = {} (Tdel = {}), {}/{} streams schedulable",
        an.tcycle,
        an.tdel,
        an.schedulable_count(),
        an.stream_count()
    );
    println!(
        "  {:<10} {:>10} {:>12} {:>12} {:>6}",
        "stream", "deadline", "response", "queuing", "ok"
    );
    for r in an.iter() {
        println!(
            "  M{}/S{:<7} {:>10} {:>12} {:>12} {:>6}",
            r.master,
            r.stream,
            r.deadline.ticks(),
            r.response_time.ticks(),
            r.queuing_delay.ticks(),
            if r.schedulable { "yes" } else { "NO" }
        );
    }
    println!();
}

/// `profirt analyze`.
///
/// On a mixed-criticality config (any sub-HI stream) every policy prints
/// two verdicts: the nominal (LO-mode) bounds of the full workload, valid
/// in stable phases, and the HI-mode bounds of the HI-only projection,
/// valid through any ring disturbance.
pub fn analyze(config: &NetworkConfig, policy: &str) -> Result<(), String> {
    let kinds: Vec<PolicyKind> = if policy == "all" {
        PolicyKind::ALL.to_vec()
    } else {
        vec![PolicyKind::parse(policy).ok_or_else(|| format!("unknown policy {policy:?}"))?]
    };
    let mixed = config.has_sub_hi();
    for kind in kinds {
        let result = if mixed {
            ModeAnalysis::analyze(kind, config, &Default::default()).map(|man| {
                print_analysis(
                    &format!("{} [LO mode, stable phases]", kind.label()),
                    &man.lo,
                );
                print_analysis(
                    &format!("{} [HI mode, any disturbance]", kind.label()),
                    &man.hi,
                );
            })
        } else {
            kind.analyze(config)
                .map(|an| print_analysis(kind.label(), &an))
        };
        match result {
            Ok(()) => {}
            Err(profirt::base::AnalysisError::UtilizationAtLeastOne) if kind == PolicyKind::Edf => {
                println!(
                    "{}: not analysable — some master's streams \
                     saturate the token service (Σ Tcycle/T >= 1)\n",
                    kind.label()
                );
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

/// `profirt ttr`.
pub fn ttr(config: &NetworkConfig, model: TcycleModel) -> Result<(), String> {
    let setting = max_feasible_ttr(config, model).map_err(|e| e.to_string())?;
    println!("lateness model: {model:?}");
    println!("effective Tdel (incl. ring overhead): {}", setting.tdel);
    match setting.max_ttr {
        Some(ttr) => {
            println!(
                "largest FCFS-feasible TTR: {} ticks (binding stream M{}/S{})",
                ttr, setting.binding.0, setting.binding.1
            );
            let tuned = config.with_ttr(ttr).map_err(|e| e.to_string())?;
            let an = FcfsAnalysis::paper()
                .run(&tuned)
                .map_err(|e| e.to_string())?;
            println!(
                "verification at TTR*: {}/{} streams schedulable",
                an.schedulable_count(),
                an.stream_count()
            );
        }
        None => {
            println!(
                "infeasible: stream M{}/S{} cannot meet its deadline even as TTR -> 0",
                setting.binding.0, setting.binding.1
            );
        }
    }
    Ok(())
}

/// Deterministic per-stream criticality labels for `--criticality-mix`
/// (no RNG: the CLI flag must label the same config the same way every
/// run). `mixed` alternates HI/LO by stream index; `mixed3` cycles
/// HI/LO/MID.
fn mix_labels(mix: CriticalityMix, n_streams: usize) -> Vec<Criticality> {
    (0..n_streams)
        .map(|i| match mix {
            CriticalityMix::AllHi => Criticality::Hi,
            CriticalityMix::Mixed => {
                if i % 2 == 1 {
                    Criticality::Lo
                } else {
                    Criticality::Hi
                }
            }
            CriticalityMix::Mixed3 => match i % 3 {
                1 => Criticality::Lo,
                2 => Criticality::Mid,
                _ => Criticality::Hi,
            },
        })
        .collect()
}

/// `profirt simulate`.
pub fn simulate(
    net: CliNetwork,
    horizon: i64,
    seed: u64,
    gap_factor: u32,
    power_cycles: &[(usize, i64, i64)],
    mix: Option<CriticalityMix>,
) -> Result<(), String> {
    let CliNetwork {
        mut config,
        sim: mut sim_net,
    } = net;
    // `--criticality-mix` overrides the file's per-stream labels with a
    // deterministic index-based assignment in both views.
    if let Some(mix) = mix {
        for (k, m) in sim_net.masters.iter_mut().enumerate() {
            let labels = mix_labels(mix, m.streams.len());
            config.masters[k].criticality = if labels.iter().any(|c| c.shed_in_hi_mode()) {
                labels.clone()
            } else {
                Vec::new()
            };
            m.criticality = labels;
        }
    }
    let mut membership = MembershipPlan::new();
    for &(master, off_at, on_at) in power_cycles {
        if master >= sim_net.masters.len() {
            return Err(format!(
                "--power-cycle names master {master}, but the config has {}",
                sim_net.masters.len()
            ));
        }
        membership = membership.power_cycle(master, Time::new(off_at), Time::new(on_at));
    }
    // Any sub-HI stream (from the file or the flag) arms the mode
    // controller; an all-HI run stays on the criticality-blind path.
    let mode = if config.has_sub_hi() {
        ModeSimConfig::enabled()
    } else {
        ModeSimConfig::default()
    };
    let sim_config = NetworkSimConfig {
        horizon: Time::new(horizon),
        seed,
        gap_factor,
        membership,
        mode,
        ..Default::default()
    };
    sim_config
        .check_tick_range(&sim_net)
        .map_err(|e| format!("cannot simulate: {e}"))?;
    let dynamic_ring = !sim_config.is_static_ring();
    let started = std::time::Instant::now();
    let (obs, stats) = simulate_network_stats(&sim_net, &sim_config);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "simulated {horizon} ticks (seed {seed}): {} token visits, max TRR = {}",
        obs.token_visits.iter().sum::<u64>(),
        obs.max_trr_overall()
    );
    // The kernel counters behind the campaign's `sim_visits`/`sim_ffwd`
    // columns. The wall-clock throughput goes to stderr: stdout stays
    // seed-deterministic (pinned by the CLI tests), timing is diagnostic.
    println!(
        "kernel: sim_visits = {}, sim_ffwd = {} idle rotation(s) fast-forwarded",
        stats.mem.visits_simulated, stats.mem.rotations_fast_forwarded
    );
    eprintln!(
        "throughput: {:.2e} simulated ticks per wall second",
        horizon as f64 / wall.max(1e-9)
    );
    if dynamic_ring {
        println!(
            "ring: size {}..{} (final {}), {} membership event(s), \
             {} GAP poll(s), {} claim(s)",
            stats.ring.min_size,
            stats.ring.max_size,
            stats.ring.final_size,
            stats.ring.events,
            stats.ring.gap_polls,
            stats.ring.claims
        );
        for (size, trr) in &stats.trr_by_ring_size {
            println!(
                "  ring size {size}: {} rotation(s), p99 TRR = {}, max TRR = {}",
                trr.count, trr.p99, trr.max
            );
        }
    }
    if sim_config.mode.enabled {
        println!(
            "mode: {} switch(es), {} shed(s), {} match-up(s), \
             max time-to-matchup = {}",
            stats.mode.switches,
            stats.mode.sheds,
            stats.mode.matchups,
            stats.mode.max_time_to_matchup.ticks()
        );
    }

    // Reference bounds per master policy.
    let fcfs = PolicyKind::Fcfs.analyze(&config).ok();
    let dm = PolicyKind::Dm.analyze(&config).ok();
    let edf = PolicyKind::Edf.analyze(&config).ok();
    println!(
        "  {:<10} {:>10} {:>10} {:>8} {:>8} {:>12} {:>6}",
        "stream", "completed", "max resp", "misses", "policy", "bound", "ok"
    );
    let mut sound = true;
    for (k, rows) in obs.streams.iter().enumerate() {
        let policy = sim_net.masters[k].policy;
        for (i, o) in rows.iter().enumerate() {
            let bound = match policy {
                profirt::profibus::QueuePolicy::Fcfs => fcfs.as_ref().map(|a| a.masters[k][i]),
                profirt::profibus::QueuePolicy::DeadlineMonotonic => {
                    dm.as_ref().map(|a| a.masters[k][i])
                }
                profirt::profibus::QueuePolicy::Edf => edf.as_ref().map(|a| a.masters[k][i]),
            };
            let (bound_str, ok) = match bound {
                Some(b) if b.schedulable => {
                    let ok = o.max_response <= b.response_time;
                    sound &= ok;
                    (b.response_time.ticks().to_string(), ok)
                }
                Some(_) => ("(unsched)".into(), true),
                None => ("-".into(), true),
            };
            println!(
                "  M{k}/S{i:<7} {:>10} {:>10} {:>8} {:>8} {:>12} {:>6}",
                o.completed,
                o.max_response.ticks(),
                o.misses,
                format!("{policy:?}").chars().take(8).collect::<String>(),
                bound_str,
                if ok { "yes" } else { "NO" }
            );
        }
    }
    if !sound {
        if dynamic_ring {
            // The bounds assume the §3.1 static ring: churn and GAP
            // overhead legitimately stretch rotations, so exceedances are
            // a reported finding here, not a failure.
            println!(
                "\nnote: observations exceeded static-ring bounds under a \
                 dynamic ring (expected during membership transitions)"
            );
            return Ok(());
        }
        return Err("an observation exceeded its analytical bound".into());
    }
    println!("\nall observations within analytical bounds");
    Ok(())
}
