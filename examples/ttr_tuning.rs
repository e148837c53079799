//! TTR tuning walkthrough (paper §3.4, eq. (15)).
//!
//! Sweeps the target token rotation time and shows the FCFS feasibility
//! region, the eq. (15) optimum, and how the refined token-lateness model
//! widens the region. Then cross-checks the boundary by simulation.
//!
//! ```sh
//! cargo run --example ttr_tuning
//! ```

use profirt::base::{StreamSet, Time};
use profirt::core::{max_feasible_ttr, FcfsAnalysis, MasterConfig, NetworkConfig, TcycleModel};
use profirt::sim::{simulate_network, NetworkSimConfig, SimMaster, SimNetwork};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three masters with mixed deadline tightness; Cl on master 2 inflates
    // the token lateness.
    let masters = vec![
        MasterConfig::new(
            StreamSet::from_cdt(&[(700, 20_000, 40_000), (500, 60_000, 60_000)])?,
            Time::new(0),
        ),
        MasterConfig::new(StreamSet::from_cdt(&[(900, 30_000, 50_000)])?, Time::new(0)),
        MasterConfig::new(
            StreamSet::from_cdt(&[(600, 80_000, 100_000)])?,
            Time::new(2_500),
        ),
    ];
    let probe = NetworkConfig::new(masters.clone(), Time::new(1))?;

    for model in [TcycleModel::Paper, TcycleModel::Refined] {
        let setting = max_feasible_ttr(&probe, model)?;
        println!(
            "{model:?} lateness model: Tdel = {}, max feasible TTR = {:?} (binding M{}/S{})",
            setting.tdel,
            setting.max_ttr.map(Time::ticks),
            setting.binding.0,
            setting.binding.1,
        );
    }
    let setting = max_feasible_ttr(&probe, TcycleModel::Paper)?;
    let ttr_star = setting.max_ttr.ok_or("no feasible TTR")?;

    // --- Feasibility sweep around the optimum ----------------------------
    println!(
        "\n{:<12} {:>10} {:>12} {:>14}",
        "TTR", "Tcycle", "schedulable", "worst R/D"
    );
    for factor in [0.25, 0.5, 0.75, 1.0, 1.05, 1.5, 2.0] {
        let ttr = Time::new(((ttr_star.ticks() as f64) * factor) as i64).max(Time::ONE);
        let net = NetworkConfig::new(masters.clone(), ttr)?;
        let an = FcfsAnalysis::paper().run(&net)?;
        let worst = an
            .iter()
            .map(|r| r.response_time.ticks() as f64 / r.deadline.ticks() as f64)
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>10} {:>12} {:>14.3}",
            format!("{:.2}xTTR*", factor),
            an.tcycle.ticks(),
            format!("{}/{}", an.schedulable_count(), an.stream_count()),
            worst
        );
    }

    // --- Simulation cross-check at the optimum ---------------------------
    let net_star = NetworkConfig::new(masters.clone(), ttr_star)?;
    let an_star = FcfsAnalysis::paper().run(&net_star)?;
    assert!(an_star.all_schedulable());
    let sim_net = SimNetwork {
        masters: net_star
            .masters
            .iter()
            .map(|m| SimMaster::stock(m.streams.clone()))
            .collect(),
        ttr: ttr_star,
        token_pass: Time::new(166),
    };
    let obs = simulate_network(
        &sim_net,
        &NetworkSimConfig {
            horizon: Time::new(5_000_000),
            ..Default::default()
        },
    );
    println!(
        "\nsimulation at TTR* = {}: max TRR {} vs Tcycle bound {}  [{}]",
        ttr_star,
        obs.max_trr_overall(),
        an_star.tcycle,
        if obs.max_trr_overall() <= an_star.tcycle {
            "OK"
        } else {
            "VIOLATION"
        }
    );
    assert!(obs.max_trr_overall() <= an_star.tcycle);
    assert!(obs.no_misses(), "analysis promised schedulability");
    println!("no simulated deadline misses at the tuned TTR ✓");
    Ok(())
}
