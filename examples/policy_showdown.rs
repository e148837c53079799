//! Policy showdown on randomised workloads: acceptance ratios for FCFS vs
//! DM vs EDF application-process queues as deadlines tighten — the paper's
//! headline claim, measured.
//!
//! ```sh
//! cargo run --release --example policy_showdown
//! ```

use profirt::base::{Prng, Time};
use profirt::core::{compare_policies, DmAnalysis, EdfAnalysis};
use profirt::profibus::BusParams;
use profirt::workload::{generate_network, NetGenParams, PeriodRange, StreamGenParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bus = BusParams::profile_500k();
    let sets_per_point = 120;
    println!(
        "{:<14} {:>8} {:>8} {:>8}   (fraction of {} networks fully schedulable)",
        "deadline/T", "FCFS", "DM", "EDF", sets_per_point
    );

    for tightness in [1.0, 0.8, 0.6, 0.4, 0.3, 0.2] {
        let mut ok = (0u32, 0u32, 0u32);
        for seed in 0..sets_per_point {
            let mut rng = Prng::seed_from_u64(0xBEEF + seed);
            let params = NetGenParams {
                n_masters: 3,
                streams: StreamGenParams {
                    nh: 4,
                    req_payload: (2, 16),
                    resp_payload: (2, 32),
                    periods: PeriodRange::new(
                        Time::new(60_000),
                        Time::new(600_000),
                        Time::new(100),
                    ),
                    deadline_frac: (tightness, tightness),
                },
                low_priority_prob: 0.5,
                low_payload: (8, 32),
                low_period: Time::new(400_000),
                ttr: Time::new(4_000),
                criticality_mix: Default::default(),
            };
            let net = generate_network(&mut rng, &bus, &params)?.config;
            let cmp = compare_policies(&net, &DmAnalysis::conservative(), &EdfAnalysis::paper())?;
            if cmp.fcfs.all_schedulable() {
                ok.0 += 1;
            }
            if cmp.dm.all_schedulable() {
                ok.1 += 1;
            }
            if cmp.edf.map(|e| e.all_schedulable()).unwrap_or(false) {
                ok.2 += 1;
            }
        }
        let pct = |c: u32| c as f64 / sets_per_point as f64;
        println!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2}",
            format!("{:.1}", tightness),
            pct(ok.0),
            pct(ok.1),
            pct(ok.2)
        );
    }
    println!(
        "\nexpected shape: all ~1.0 at loose deadlines; FCFS collapses first as\n\
         deadlines tighten (flat nh*Tcycle bound), DM/EDF degrade gracefully."
    );
    Ok(())
}
