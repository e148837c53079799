//! Fault injection walkthrough: token loss with claim-timeout recovery,
//! cycle-duration undershoot (and the timing anomaly it exposes), and the
//! bus event trace.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use profirt::base::{StreamSet, Time};
use profirt::core::{low_priority_outlook, DmAnalysis, MasterConfig, NetworkConfig};
use profirt::profibus::QueuePolicy;
use profirt::sim::{
    simulate_network, simulate_network_traced, NetworkSimConfig, SimMaster, SimNetwork,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let streams = StreamSet::from_cdt(&[(700, 25_000, 30_000), (500, 60_000, 80_000)])?;
    let net = SimNetwork {
        masters: vec![
            SimMaster::priority_queued(streams.clone(), QueuePolicy::DeadlineMonotonic),
            SimMaster::priority_queued(
                StreamSet::from_cdt(&[(600, 40_000, 50_000)])?,
                QueuePolicy::DeadlineMonotonic,
            ),
        ],
        ttr: Time::new(3_000),
        token_pass: Time::new(166),
    };

    // --- 1. Clean run with a trace --------------------------------------
    let (clean, trace) = simulate_network_traced(
        &net,
        &NetworkSimConfig {
            horizon: Time::new(40_000),
            ..Default::default()
        },
        200,
    );
    println!("first 40k ticks of bus activity:\n");
    print!("{}", trace.render());
    println!(
        "\nclean run: max TRR = {}, misses = {}",
        clean.max_trr_overall(),
        if clean.no_misses() { "none" } else { "SOME" }
    );

    // --- 2. Token loss sweep ---------------------------------------------
    println!("\ntoken-loss sweep (horizon 4M ticks):");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "loss prob", "recoveries", "max TRR", "completed", "misses"
    );
    for loss in [0.0, 0.001, 0.01, 0.05] {
        let obs = simulate_network(
            &net,
            &NetworkSimConfig {
                horizon: Time::new(4_000_000),
                token_loss_prob: loss,
                ..Default::default()
            },
        );
        let completed: u64 = obs.streams.iter().flatten().map(|o| o.completed).sum();
        let misses: u64 = obs.streams.iter().flatten().map(|o| o.misses).sum();
        println!(
            "{:<12} {:>12} {:>12} {:>10} {:>8}",
            format!("{loss:.3}"),
            obs.token_recoveries,
            obs.max_trr_overall().ticks(),
            completed,
            misses
        );
    }
    println!(
        "\nnote: the analytical bounds assume a fault-free bus; token losses\n\
         stretch rotations past Tcycle, so misses at high loss rates are\n\
         expected — the analysis quantifies the *fault-free* guarantee."
    );

    // --- 3. Cycle undershoot anomaly --------------------------------------
    println!("\ncycle-undershoot sweep (shorter cycles are NOT always better):");
    println!(
        "{:<12} {:>14} {:>14}",
        "undershoot", "max resp S0", "max resp S1"
    );
    for v in [0.0, 0.2, 0.5, 0.9] {
        let obs = simulate_network(
            &net,
            &NetworkSimConfig {
                horizon: Time::new(4_000_000),
                cycle_undershoot: v,
                ..Default::default()
            },
        );
        println!(
            "{:<12} {:>14} {:>14}",
            format!("{v:.1}"),
            obs.streams[0][0].max_response.ticks(),
            obs.streams[0][1].max_response.ticks()
        );
    }
    println!(
        "\n(a request can *just miss* a token visit it would have caught under\n\
         worst-case durations — responses are not monotone in cycle length;\n\
         only the worst-case bound is invariant)"
    );

    // --- 4. The invariant: bounds hold under undershoot -------------------
    let analysis_net = NetworkConfig::new(
        vec![
            MasterConfig::new(streams, Time::ZERO),
            MasterConfig::new(StreamSet::from_cdt(&[(600, 40_000, 50_000)])?, Time::ZERO),
        ],
        Time::new(3_000),
    )?
    .with_token_pass(Time::new(166));
    let bounds = DmAnalysis::conservative().analyze(&analysis_net)?;
    let mut ok = true;
    for v in [0.0, 0.5, 0.9] {
        let obs = simulate_network(
            &net,
            &NetworkSimConfig {
                horizon: Time::new(4_000_000),
                cycle_undershoot: v,
                ..Default::default()
            },
        );
        for (k, rows) in bounds.masters.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                ok &= obs.streams[k][i].max_response <= row.response_time;
            }
        }
    }
    assert!(ok);
    println!("\nall undershoot observations within the DM bounds ✓");

    // --- 5. Low-priority outlook ------------------------------------------
    let outlook = low_priority_outlook(&analysis_net)?;
    println!(
        "\nlow-priority outlook: U_high = {} ({:.1}%), burst = {}, \
         starvation risk = {}, residual/rotation = {}",
        outlook.high_utilization,
        outlook.high_utilization.to_f64() * 100.0,
        outlook.burst,
        outlook.starvation_risk,
        outlook.residual_per_rotation
    );
    Ok(())
}
