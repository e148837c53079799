//! Factory cell walkthrough: from physical bus parameters and frame layouts
//! to end-to-end delays (`E = g + Q + C + d`, paper §4.2).
//!
//! Models a machining cell at 1.5 Mbit/s: one PLC master polling a drive, a
//! gripper and a safety scanner, plus a supervisory master. Host tasks on
//! the PLC generate the requests; messages inherit their release jitter.
//!
//! ```sh
//! cargo run --example factory_cell
//! ```

use profirt::base::{MessageStream, StreamSet, TaskSet, Time};
use profirt::core::{EndToEndAnalysis, JitterModel, MasterConfig, NetworkConfig, TaskSegments};
use profirt::profibus::{BusParams, MessageCycleSpec, TokenPassTime};
use profirt::sched::fixed::PriorityMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bus = BusParams::profile_1m5().with_ttr(Time::new(1_000));
    println!(
        "bus: 1.5 Mbit/s, 1 tick = {} ns, TTR = {} bit times ({:.0} us)",
        bus.bit_time_ns(),
        bus.ttr,
        bus.ticks_to_micros(bus.ttr)
    );
    println!("token pass costs {} bit times\n", TokenPassTime::time(&bus));

    // --- Message cycles priced from payload sizes ------------------------
    // Drive setpoint: 8 bytes out, 12 bytes status back, every 8 ms.
    // Gripper command: 4/4 bytes, every 16 ms (12 ms deadline).
    // Safety scanner: 2 bytes out, 32-byte scan back, every 24 ms.
    let drive = MessageCycleSpec::srd_sd2(8, 12).worst_case_time(&bus);
    let gripper = MessageCycleSpec::srd_sd2(4, 4).worst_case_time(&bus);
    let scanner = MessageCycleSpec::srd_sd2(2, 32).worst_case_time(&bus);
    println!(
        "message cycles (worst case incl. {} retries):",
        bus.max_retry
    );
    println!(
        "  drive   : {} bit times ({:.0} us)",
        drive,
        bus.ticks_to_micros(drive)
    );
    println!(
        "  gripper : {} bit times ({:.0} us)",
        gripper,
        bus.ticks_to_micros(gripper)
    );
    println!(
        "  scanner : {} bit times ({:.0} us)",
        scanner,
        bus.ticks_to_micros(scanner)
    );

    let ms = |us: f64| bus.micros_to_ticks(us * 1_000.0);
    let plc_streams = StreamSet::new(vec![
        MessageStream::new(drive, ms(8.0), ms(8.0))?,
        MessageStream::new(gripper, ms(12.0), ms(16.0))?,
        MessageStream::new(scanner, ms(24.0), ms(24.0))?,
    ])?;
    // Supervisory master: one slow data-collection stream + big low-priority
    // file transfers.
    let sup_streams = StreamSet::new(vec![MessageStream::new(
        MessageCycleSpec::srd_sd2(16, 64).worst_case_time(&bus),
        ms(50.0),
        ms(100.0),
    )?])?;
    let sup_low = MessageCycleSpec::srd_sd2(32, 32).worst_case_time(&bus);

    let net = NetworkConfig::new(
        vec![
            MasterConfig::new(plc_streams, Time::ZERO),
            MasterConfig::new(sup_streams, sup_low),
        ],
        bus.ttr,
    )?;

    // --- Host tasks on the PLC -------------------------------------------
    // CPU ticks == bus ticks for simplicity (1 tick = 2/3 us).
    // τ0 drive control loop, τ1 gripper sequencer, τ2 safety monitor,
    // τ3 HMI housekeeping.
    let host = TaskSet::from_cdt(&[
        (300, 3_000, 6_000),
        (450, 12_000, 24_000),
        (400, 18_000, 36_000),
        (2_000, 90_000, 150_000),
    ])?;
    let prio = PriorityMap::deadline_monotonic(&host);

    let segments = [
        TaskSegments {
            generator: JitterModel::CombinedTask {
                task: 0,
                generation_cost: Time::new(80),
            },
            delivery_task: 0,
        },
        TaskSegments {
            generator: JitterModel::SeparateSender { task: 1 },
            delivery_task: 2,
        },
        TaskSegments {
            generator: JitterModel::SeparateSender { task: 2 },
            delivery_task: 2,
        },
    ];

    // --- End-to-end analysis under both priority policies ----------------
    for (name, analysis) in [
        ("DM ", EndToEndAnalysis::dm()),
        ("EDF", EndToEndAnalysis::edf()),
    ] {
        let breakdown = analysis.analyze(&net, 0, &host, &prio, &segments)?;
        println!("\n{name} end-to-end delays (bit times):");
        println!(
            "  {:<9} {:>8} {:>8} {:>8} {:>10} {:>8}",
            "stream", "g", "Q+C", "d", "E", "msg-ok"
        );
        for (i, b) in breakdown.iter().enumerate() {
            println!(
                "  {:<9} {:>8} {:>8} {:>8} {:>10} {:>8}",
                ["drive", "gripper", "scanner"][i],
                b.g.ticks(),
                b.qc.ticks(),
                b.d.ticks(),
                b.total.ticks(),
                if b.message_schedulable { "yes" } else { "NO" }
            );
        }
        let worst = breakdown
            .iter()
            .map(|b| b.total)
            .max()
            .ok_or("no stream analysed")?;
        println!(
            "  worst end-to-end: {} bit times = {:.2} ms",
            worst,
            bus.ticks_to_micros(worst) / 1_000.0
        );
    }
    Ok(())
}
