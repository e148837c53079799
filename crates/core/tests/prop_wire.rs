//! Round-trip properties of the network JSON format (`core::wire`).
//!
//! Over random rings with criticality labels, jitter, empty masters, a
//! non-default `token_pass` and random simulator fields, decoding the
//! encoder's text gives back the network and the fields it was written
//! from. An unlabelled network written without simulator fields must be
//! the bytes `serve`'s `net_to_value` wrote before the encoder was shared;
//! [`oracle_net_to_value`] keeps that renderer as the oracle. Run under any
//! `PROPTEST_SEED`.

use proptest::prelude::*;

use profirt_base::json::{self, Value};
use profirt_base::{check_address_plan, Criticality, MasterAddr, MessageStream, StreamSet, Time};
use profirt_core::wire::{self, Ring, SimFields};
use profirt_core::{MasterConfig, NetworkConfig};
use profirt_profibus::QueuePolicy;

/// Cases per test: `PROPTEST_CASES` when set (CI runs 2048 in release),
/// else 256.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// `serve::proto::net_to_value` as it was before it delegated to
/// `wire::encode`.
fn oracle_net_to_value(net: &NetworkConfig) -> Value {
    let masters = net
        .masters
        .iter()
        .map(|m| {
            let streams = m
                .streams
                .streams()
                .iter()
                .map(|s| {
                    json::object([
                        ("ch", Value::Int(s.ch.ticks())),
                        ("d", Value::Int(s.d.ticks())),
                        ("t", Value::Int(s.t.ticks())),
                        ("j", Value::Int(s.j.ticks())),
                    ])
                })
                .collect();
            json::object([
                ("cl", Value::Int(m.cl.ticks())),
                ("streams", Value::Array(streams)),
            ])
        })
        .collect();
    json::object([
        ("ttr", Value::Int(net.ttr.ticks())),
        ("token_pass", Value::Int(net.token_pass.ticks())),
        ("masters", Value::Array(masters)),
    ])
}

const LEVELS: [Criticality; 3] = [Criticality::Lo, Criticality::Mid, Criticality::Hi];
const POLICIES: [QueuePolicy; 3] = [
    QueuePolicy::Fcfs,
    QueuePolicy::DeadlineMonotonic,
    QueuePolicy::Edf,
];

/// A stream the decoder accepts (`0 < ch <= d`, `t > 0`, `0 <= j`) and
/// its label draw.
fn arb_stream() -> impl Strategy<Value = (MessageStream, usize)> {
    (
        1i64..2_000,
        0i64..60_000,
        1i64..100_000,
        0i64..5_000,
        0usize..3,
    )
        .prop_map(|(ch, slack, t, j, level)| {
            let stream = MessageStream::with_jitter(ch, ch + slack, t, j).unwrap();
            (stream, level)
        })
}

/// A master, half of them labelled (all-HI labels included), and its
/// simulator fields.
fn arb_master() -> impl Strategy<Value = (MasterConfig, SimFields)> {
    (
        proptest::collection::vec(arb_stream(), 0..=3),
        0i64..3_000,
        any::<bool>(),
        0usize..3,
        (any::<bool>(), 0u8..=MasterAddr::MAX_ADDRESS),
        (any::<bool>(), 0usize..8),
    )
        .prop_map(|(rows, cl, labelled, policy, addr, stack_capacity)| {
            let labels = if labelled {
                rows.iter().map(|&(_, level)| LEVELS[level]).collect()
            } else {
                Vec::new()
            };
            let streams = StreamSet::new(rows.into_iter().map(|(s, _)| s).collect()).unwrap();
            let master = MasterConfig::new(streams, Time::new(cl)).with_criticality(labels);
            let fields = SimFields {
                policy: POLICIES[policy],
                addr: addr.0.then_some(MasterAddr(addr.1)),
                stack_capacity: stack_capacity.0.then_some(stack_capacity.1),
            };
            (master, fields)
        })
}

fn arb_ring() -> impl Strategy<Value = Ring> {
    (
        proptest::collection::vec(arb_master(), 1..=4),
        1i64..10_000,
        0i64..1_000,
    )
        .prop_map(|(masters, ttr, token_pass)| {
            let (masters, mut sim): (Vec<_>, Vec<SimFields>) = masters.into_iter().unzip();
            // Two masters on one FDL address are a decode error: a plan
            // that collides gives its explicit addresses their ring
            // indices instead.
            if check_address_plan(sim.iter().map(|s| s.addr)).is_err() {
                for (k, s) in sim.iter_mut().enumerate() {
                    s.addr = s.addr.map(|_| MasterAddr(k as u8));
                }
            }
            let net = NetworkConfig::new(masters, Time::new(ttr))
                .unwrap()
                .with_token_pass(Time::new(token_pass));
            Ring { net, sim }
        })
}

/// Encodes, renders to text, parses and decodes.
fn through_text(net: &NetworkConfig, sim: &[SimFields]) -> Ring {
    let text = wire::encode(net, sim).compact();
    wire::decode_ring(&json::parse(&text).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn decode_inverts_encode(ring in arb_ring()) {
        prop_assert_eq!(&through_text(&ring.net, &ring.sim), &ring);
        // Without simulator fields the network survives and every master
        // reads the default fields.
        let bare = through_text(&ring.net, &[]);
        prop_assert_eq!(&bare.net, &ring.net);
        prop_assert!(bare.sim.iter().all(|s| *s == SimFields::default()));
        prop_assert_eq!(
            wire::decode_network(&wire::encode(&ring.net, &ring.sim)).unwrap(),
            ring.net
        );
    }

    #[test]
    fn unlabelled_rings_encode_as_before(ring in arb_ring()) {
        let mut net = ring.net;
        for m in &mut net.masters {
            m.criticality.clear();
        }
        prop_assert_eq!(
            wire::encode(&net, &[]).compact(),
            oracle_net_to_value(&net).compact()
        );
    }
}
