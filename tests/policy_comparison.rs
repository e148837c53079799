//! The §4.3 policy comparison on generated networks: what a priority
//! queue buys the tightest stream of each master over FCFS.

use profirt::base::{Prng, Time};
use profirt::core::{compare_policies, DmAnalysis, EdfAnalysis};
use profirt::profibus::BusParams;
use profirt::workload::{generate_network, NetGenParams};

#[test]
fn dm_strictly_improves_the_tightest_stream_in_most_networks() {
    // Two masters of four streams at D = 0.45 T: FCFS charges every
    // stream nh cycles, DM only those of higher priority, so in most
    // networks some master's tightest stream gets a strictly smaller bound.
    let params = NetGenParams::standard(0.45, 4, 2);
    let networks = 24u64;
    let strict = (0..networks)
        .filter(|&seed| {
            let mut rng = Prng::seed_from_u64(seed);
            let g = generate_network(&mut rng, &BusParams::profile_500k(), &params).unwrap();
            let config = g.config.with_token_pass(Time::new(166));
            let cmp = compare_policies(&config, &DmAnalysis::conservative(), &EdfAnalysis::paper())
                .unwrap();
            cmp.fcfs.masters.iter().zip(&cmp.dm.masters).any(|(f, d)| {
                f.iter()
                    .zip(d)
                    .min_by_key(|(fr, _)| fr.deadline)
                    .is_some_and(|(fr, dr)| dr.response_time < fr.response_time)
            })
        })
        .count() as u64;
    assert!(
        strict * 2 > networks,
        "strict improvement in only {strict}/{networks} networks"
    );
}
