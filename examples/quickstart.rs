//! Quickstart: analyse one PROFIBUS network under all three dispatching
//! policies and validate the bounds against simulation.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use profirt::base::{StreamSet, Time};
use profirt::core::{
    compare_policies, max_feasible_ttr, DmAnalysis, EdfAnalysis, MasterConfig, NetworkConfig,
    TcycleModel,
};
use profirt::profibus::QueuePolicy;
use profirt::sim::{simulate_network, NetworkSimConfig, SimMaster, SimNetwork};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Describe the network -----------------------------------------
    // Two masters at 500 kbit/s (1 tick = 2 us). Times in bit times.
    // Master 0: three sensor-polling streams; master 1: one actuator stream.
    let m0_streams = StreamSet::from_cdt(&[
        // (Ch: message cycle, Dh: deadline, Th: period)
        (700, 12_000, 25_000),
        (500, 25_000, 50_000),
        (900, 80_000, 100_000),
    ])?;
    let m1_streams = StreamSet::from_cdt(&[(800, 30_000, 40_000)])?;

    let net = NetworkConfig::new(
        vec![
            MasterConfig::new(m0_streams.clone(), Time::new(1_000)),
            MasterConfig::new(m1_streams.clone(), Time::new(0)),
        ],
        Time::new(2_000), // TTR
    )?;

    // --- 2. Worst-case response times under FCFS / DM / EDF --------------
    let cmp = compare_policies(&net, &DmAnalysis::conservative(), &EdfAnalysis::paper())?;
    println!(
        "Tcycle bound: {} bit times (Tdel = {})",
        cmp.fcfs.tcycle, cmp.fcfs.tdel
    );
    println!();
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "stream", "deadline", "FCFS", "DM", "EDF"
    );
    for row in cmp.rows() {
        println!(
            "M{}/S{:<4} {:>10} {:>10} {:>10} {:>10}",
            row.master,
            row.stream,
            row.deadline.ticks(),
            row.fcfs.ticks(),
            row.dm.ticks(),
            row.edf
                .map(|t| t.ticks().to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    let (f, d, e) = cmp.schedulable_counts();
    println!(
        "\nschedulable streams: FCFS {f}/4, DM {d}/4, EDF {:?}/4",
        e.unwrap_or(0)
    );

    // --- 3. Set the TTR parameter from deadlines (eq. (15)) --------------
    let setting = max_feasible_ttr(&net, TcycleModel::Paper)?;
    match setting.max_ttr {
        Some(ttr) => println!(
            "largest FCFS-feasible TTR: {} (binding stream M{}/S{})",
            ttr, setting.binding.0, setting.binding.1
        ),
        None => println!("no TTR makes the FCFS configuration feasible"),
    }

    // --- 4. Validate against the discrete-event simulator ----------------
    let sim_net = SimNetwork {
        masters: vec![
            SimMaster::priority_queued(m0_streams, QueuePolicy::DeadlineMonotonic),
            SimMaster::priority_queued(m1_streams, QueuePolicy::DeadlineMonotonic),
        ],
        ttr: net.ttr,
        token_pass: Time::new(166),
    };
    let obs = simulate_network(&sim_net, &NetworkSimConfig::default());
    println!(
        "\nsimulated {} token visits; max observed TRR = {}",
        obs.token_visits.iter().sum::<u64>(),
        obs.max_trr_overall()
    );
    let mut all_bounded = true;
    for (k, master_obs) in obs.streams.iter().enumerate() {
        for (i, o) in master_obs.iter().enumerate() {
            let bound = cmp.dm.masters[k][i].response_time;
            let ok = o.max_response <= bound;
            all_bounded &= ok;
            println!(
                "M{k}/S{i}: observed max {} <= DM bound {}  [{}]",
                o.max_response,
                bound,
                if ok { "OK" } else { "VIOLATION" }
            );
        }
    }
    assert!(
        all_bounded,
        "a simulated response exceeded its analytical bound"
    );
    println!("\nall observations within analytical bounds ✓");
    Ok(())
}
