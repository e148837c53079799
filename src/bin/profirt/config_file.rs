//! Network config files for `analyze`, `ttr` and `simulate`.
//!
//! A config file is one network document in the format of
//! [`profirt::core::wire`], which decodes it for the CLI and for `serve`
//! alike (see the README's "Network JSON" table; all times are ticks).
//! This module reads the file, builds the simulator view from the decoded
//! `policy`, `stack_capacity` and `addr` fields, and prints the example
//! config of `profirt example-config`.

use profirt::base::json;
use profirt::base::{AnalysisResult, MasterAddr, MessageStream, StreamSet, Time};
use profirt::core::wire::{self, Ring, SimFields};
use profirt::core::{MasterConfig, NetworkConfig};
use profirt::profibus::{LowPriorityTraffic, QueuePolicy};
use profirt::sim::{SimMaster, SimNetwork};

/// A loaded config file: the analysis view and the simulator view.
#[derive(Debug)]
pub struct CliNetwork {
    /// The analysis input, criticality labels included.
    pub config: NetworkConfig,
    /// The simulated ring.
    pub sim: SimNetwork,
}

/// Loads and validates a config file. The decoder checks the FDL address
/// plan and the low-priority cadence, so every subcommand rejects a ring
/// the simulator cannot build.
pub fn load(path: &str) -> Result<CliNetwork, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let ring = wire::decode_ring(&doc).map_err(|e| format!("invalid network in {path}: {e}"))?;
    let sim = to_sim(&ring)?;
    Ok(CliNetwork {
        config: ring.net,
        sim,
    })
}

/// Builds the simulator view of a decoded ring.
fn to_sim(ring: &Ring) -> Result<SimNetwork, String> {
    let net = &ring.net;
    let masters = net
        .masters
        .iter()
        .zip(&ring.sim)
        .map(|(m, fields)| {
            let mut master = match fields.policy {
                QueuePolicy::Fcfs => SimMaster::stock(m.streams.clone()),
                p => SimMaster::priority_queued(m.streams.clone(), p),
            };
            if let Some(cap) = fields.stack_capacity {
                master.stack_capacity = cap.max(1);
            }
            if m.cl.is_positive() {
                let cadence = wire::low_priority_cadence(net.ttr).map_err(|e| e.to_string())?;
                master
                    .low_priority
                    .push(LowPriorityTraffic::new(m.cl, cadence));
            }
            master.addr = fields.addr;
            master.criticality = m.criticality.clone();
            Ok(master)
        })
        .collect::<Result<Vec<_>, String>>()?;
    SimNetwork::new(masters, net.ttr, net.token_pass.max(Time::ONE)).map_err(|e| e.to_string())
}

/// A commented example configuration, printed by `profirt example-config`.
pub fn example_json() -> Result<String, String> {
    example().map_err(|e| e.to_string())
}

fn example() -> AnalysisResult<String> {
    let master = |cl: i64, rows: &[(i64, i64, i64, i64)]| -> AnalysisResult<MasterConfig> {
        let streams = rows
            .iter()
            .map(|&(ch, d, t, j)| MessageStream::with_jitter(ch, d, t, j))
            .collect::<AnalysisResult<Vec<_>>>()?;
        Ok(MasterConfig::new(StreamSet::new(streams)?, Time::new(cl)))
    };
    let masters = vec![
        master(
            1_000,
            &[(700, 12_000, 25_000, 0), (500, 25_000, 50_000, 200)],
        )?,
        master(0, &[(800, 30_000, 40_000, 0)])?,
    ];
    let net = NetworkConfig::new(masters, Time::new(2_000))?
        .with_token_pass(Time::new(wire::DEFAULT_TOKEN_PASS));
    let sim = [
        SimFields {
            policy: QueuePolicy::DeadlineMonotonic,
            addr: Some(MasterAddr(3)),
            stack_capacity: Some(1),
        },
        SimFields {
            policy: QueuePolicy::Fcfs,
            addr: Some(MasterAddr(7)),
            stack_capacity: None,
        },
    ];
    Ok(wire::encode(&net, &sim).pretty())
}
