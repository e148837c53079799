//! The network JSON format: the one decoder and encoder of the ring
//! `{TTR, token_pass, masters[k] = {Cl^k, streams (Ch, D, T, J)}}`.
//!
//! The CLI's config files and the `serve` protocol's `"net"` field are the
//! same document, read by this module alone:
//! `{ttr, token_pass, masters: [{cl, policy, stack_capacity, addr,
//! streams: [{ch, d, t, j, criticality}]}]}` (the README's "Network JSON"
//! table gives each field's default and domain).
//!
//! All times are ticks. A stream's optional `criticality` becomes its
//! master's label vector; a master with no labelled stream keeps the empty
//! (all-HI) vector. `policy`, `stack_capacity` and `addr` only configure
//! the simulator ([`SimFields`]); they are type-checked for every caller.
//! `null` on `policy`, `stack_capacity`, `addr` or `criticality` reads as
//! absent. Unknown fields are ignored.

use std::fmt;

use profirt_base::json::{self, Value};
use profirt_base::{check_address_plan, Criticality, MasterAddr, MessageStream, StreamSet, Time};
use profirt_profibus::QueuePolicy;

use crate::config::{MasterConfig, NetworkConfig};

/// The `token_pass` of a document that omits it: SD4 + TSYN + TID2 at
/// 500 kbit/s, in bit times.
pub const DEFAULT_TOKEN_PASS: i64 = 166;

/// Target rotations per low-priority exchange: the simulator view gives
/// a master with `cl > 0` one background exchange per this many TTRs.
pub const LOW_PRIORITY_ROTATIONS: i64 = 10;

/// The class of a [`DecodeError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// A field is missing, has the wrong JSON type, or names no known
    /// spelling.
    Schema,
    /// Every field is well-typed, but the values describe no valid ring.
    Model,
}

impl ErrorKind {
    /// The name `serve` reports as the error's `kind`.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Schema => "schema",
            ErrorKind::Model => "model",
        }
    }
}

/// Why a document is not a network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Schema or model.
    pub kind: ErrorKind,
    /// What is wrong and where, worded the same for every front-end.
    pub detail: String,
}

impl DecodeError {
    fn at(self, place: fmt::Arguments<'_>) -> DecodeError {
        DecodeError {
            detail: format!("{place}: {}", self.detail),
            ..self
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for DecodeError {}

fn schema(detail: impl Into<String>) -> DecodeError {
    DecodeError {
        kind: ErrorKind::Schema,
        detail: detail.into(),
    }
}

fn model(detail: impl Into<String>) -> DecodeError {
    DecodeError {
        kind: ErrorKind::Model,
        detail: detail.into(),
    }
}

/// The per-master fields only the simulator reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimFields {
    /// AP-queue policy (`"fcfs"`, `"dm"` or `"edf"`; default FCFS).
    pub policy: QueuePolicy,
    /// FDL station address (`0..=126`); `None` means the ring index.
    pub addr: Option<MasterAddr>,
    /// Stack-queue capacity; `None` means the policy's default.
    pub stack_capacity: Option<usize>,
}

/// A decoded document: the analysed network plus, per master, its
/// simulator fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    /// The analysis input, criticality labels included.
    pub net: NetworkConfig,
    /// Parallel to `net.masters`.
    pub sim: Vec<SimFields>,
}

/// Reads integer field `key` of `obj`; `default` applies when it is absent.
///
/// # Errors
/// A schema error when the field is not an integer, or is absent without
/// a default.
pub fn field_i64(obj: &Value, key: &str, default: Option<i64>) -> Result<i64, DecodeError> {
    match obj.get(key) {
        Some(v) => v
            .as_i64()
            .ok_or_else(|| schema(format!("field {key:?} must be an integer"))),
        None => default.ok_or_else(|| schema(format!("missing field {key:?}"))),
    }
}

fn optional<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.get(key).filter(|v| !matches!(v, Value::Null))
}

fn optional_str<'a>(obj: &'a Value, key: &str) -> Result<Option<&'a str>, DecodeError> {
    optional(obj, key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| schema(format!("field {key:?} must be a string")))
        })
        .transpose()
}

/// The optional integer field `key`, converted to `T` and accepted by
/// `valid`; `want` names the domain in the error.
fn optional_int<T: TryFrom<i64>>(
    obj: &Value,
    key: &str,
    valid: impl Fn(&T) -> bool,
    want: &str,
) -> Result<Option<T>, DecodeError> {
    let Some(v) = optional(obj, key) else {
        return Ok(None);
    };
    let n = v
        .as_i64()
        .ok_or_else(|| schema(format!("field {key:?} must be an integer")))?;
    let value = T::try_from(n).ok().filter(valid);
    value
        .map(Some)
        .ok_or_else(|| model(format!("field {key:?} must be {want}, got {n}")))
}

/// Decodes one stream `{ch, d, t, j}`; its `criticality` is read by
/// [`decode_criticality`].
///
/// # Errors
/// A schema error for a missing or non-integer field; a model error for a
/// stream [`MessageStream::with_jitter`] rejects or with `ch > d`.
pub fn decode_stream(v: &Value) -> Result<MessageStream, DecodeError> {
    let ch = field_i64(v, "ch", None)?;
    let d = field_i64(v, "d", None)?;
    let t = field_i64(v, "t", None)?;
    let j = field_i64(v, "j", Some(0))?;
    let stream = MessageStream::with_jitter(ch, d, t, j).map_err(|e| model(e.to_string()))?;
    if ch > d {
        return Err(model(format!("ch {ch} exceeds the deadline d {d}")));
    }
    Ok(stream)
}

/// The optional `criticality` label of a stream.
///
/// # Errors
/// A schema error when the field is not `"lo"`, `"mid"` or `"hi"`.
pub fn decode_criticality(v: &Value) -> Result<Option<Criticality>, DecodeError> {
    optional_str(v, "criticality")?
        .map(|name| {
            Criticality::parse(name).ok_or_else(|| {
                schema(format!(
                    "field \"criticality\" must be \"lo\", \"mid\" or \"hi\", got {name:?}"
                ))
            })
        })
        .transpose()
}

fn policy_name(policy: QueuePolicy) -> &'static str {
    match policy {
        QueuePolicy::Fcfs => "fcfs",
        QueuePolicy::DeadlineMonotonic => "dm",
        QueuePolicy::Edf => "edf",
    }
}

fn decode_sim_fields(m: &Value) -> Result<SimFields, DecodeError> {
    let policy = match optional_str(m, "policy")? {
        None | Some("fcfs") => QueuePolicy::Fcfs,
        Some("dm") => QueuePolicy::DeadlineMonotonic,
        Some("edf") => QueuePolicy::Edf,
        Some(other) => {
            return Err(schema(format!(
                "unknown policy {other:?} (want fcfs|dm|edf)"
            )))
        }
    };
    let station = |&a: &u8| MasterAddr(a).is_valid_station();
    Ok(SimFields {
        policy,
        addr: optional_int(m, "addr", station, "a station address (0..=126)")?.map(MasterAddr),
        stack_capacity: optional_int(m, "stack_capacity", |_: &usize| true, "non-negative")?,
    })
}

fn decode_master(m: &Value) -> Result<(MasterConfig, SimFields), DecodeError> {
    let cl = field_i64(m, "cl", Some(0))?;
    let sim = decode_sim_fields(m)?;
    let items = m
        .get("streams")
        .ok_or_else(|| schema("missing field \"streams\""))?
        .as_array()
        .ok_or_else(|| schema("field \"streams\" must be an array"))?;
    let mut streams = Vec::with_capacity(items.len());
    let mut labels = Vec::new();
    for (i, s) in items.iter().enumerate() {
        let place = |e: DecodeError| e.at(format_args!("stream {i}"));
        streams.push(decode_stream(s).map_err(place)?);
        match decode_criticality(s).map_err(place)? {
            Some(c) => {
                labels.resize(i, Criticality::Hi);
                labels.push(c);
            }
            None if !labels.is_empty() => labels.push(Criticality::Hi),
            None => {}
        }
    }
    let set = StreamSet::new(streams).map_err(|e| model(e.to_string()))?;
    Ok((
        MasterConfig::new(set, Time::new(cl)).with_criticality(labels),
        sim,
    ))
}

/// Decodes the analysis view, checking the simulator fields without
/// keeping them.
///
/// # Errors
/// See [`DecodeError`]: schema errors for shape and spelling, model errors
/// for values no ring can carry.
pub fn decode_network(v: &Value) -> Result<NetworkConfig, DecodeError> {
    decode_ring(v).map(|ring| ring.net)
}

/// The one decoder: the analysis view and the simulator fields. The FDL
/// address plan — each master's `addr`, or else its ring index — is
/// checked by [`check_address_plan`], the rule the simulator applies.
/// When some master sends background traffic (`cl > 0`), the
/// [`low_priority_cadence`] must fit in i64 ticks.
///
/// # Errors
/// As [`decode_network`].
pub fn decode_ring(v: &Value) -> Result<Ring, DecodeError> {
    let ttr = field_i64(v, "ttr", None)?;
    let token_pass = field_i64(v, "token_pass", Some(DEFAULT_TOKEN_PASS))?;
    if token_pass < 0 {
        return Err(model(format!(
            "field \"token_pass\" must be non-negative, got {token_pass}"
        )));
    }
    let items = v
        .get("masters")
        .ok_or_else(|| schema("missing field \"masters\""))?
        .as_array()
        .ok_or_else(|| schema("field \"masters\" must be an array"))?;
    if items.is_empty() {
        return Err(model("the network needs at least one master"));
    }
    let mut masters = Vec::with_capacity(items.len());
    let mut sim = Vec::with_capacity(items.len());
    for (k, m) in items.iter().enumerate() {
        let (master, fields) = decode_master(m).map_err(|e| e.at(format_args!("master {k}")))?;
        masters.push(master);
        sim.push(fields);
    }
    let net = NetworkConfig::new(masters, Time::new(ttr))
        .map_err(|e| model(e.to_string()))?
        .with_token_pass(Time::new(token_pass));
    check_address_plan(sim.iter().map(|s| s.addr)).map_err(|e| model(e.to_string()))?;
    if net.masters.iter().any(|m| m.cl.is_positive()) {
        low_priority_cadence(net.ttr)?;
    }
    Ok(Ring { net, sim })
}

/// The simulator's background cadence for target rotation time `ttr`:
/// one low-priority exchange per [`LOW_PRIORITY_ROTATIONS`] rotations.
///
/// # Errors
/// A model error when the product overflows i64 ticks.
pub fn low_priority_cadence(ttr: Time) -> Result<Time, DecodeError> {
    ttr.checked_mul(LOW_PRIORITY_ROTATIONS).ok_or_else(|| {
        model(format!(
            "ttr {} is too large: {LOW_PRIORITY_ROTATIONS} x TTR overflows",
            ttr.ticks()
        ))
    })
}

/// The one encoder, the inverse of [`decode_ring`]. Master `k` carries
/// `policy`, `stack_capacity` and `addr` only when `sim` has an entry for
/// it, and its streams carry `criticality` only when it is labelled; so an
/// unlabelled network with no `sim` writes just
/// `{ttr, token_pass, masters: [{cl, streams: [{ch, d, t, j}]}]}`.
pub fn encode(net: &NetworkConfig, sim: &[SimFields]) -> Value {
    let or_null = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let masters = net
        .masters
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let streams = m
                .streams
                .streams()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut fields = vec![
                        ("ch", Value::Int(s.ch.ticks())),
                        ("d", Value::Int(s.d.ticks())),
                        ("t", Value::Int(s.t.ticks())),
                        ("j", Value::Int(s.j.ticks())),
                    ];
                    if !m.criticality.is_empty() {
                        let label = m.criticality_of(i).name().to_string();
                        fields.push(("criticality", Value::Str(label)));
                    }
                    json::object(fields)
                })
                .collect();
            let mut fields = vec![
                ("cl", Value::Int(m.cl.ticks())),
                ("streams", Value::Array(streams)),
            ];
            if let Some(s) = sim.get(k) {
                fields.extend([
                    ("policy", Value::Str(policy_name(s.policy).to_string())),
                    (
                        "stack_capacity",
                        or_null(s.stack_capacity.map(|c| c as i64)),
                    ),
                    ("addr", or_null(s.addr.map(|a| i64::from(a.0)))),
                ]);
            }
            json::object(fields)
        })
        .collect();
    json::object([
        ("ttr", Value::Int(net.ttr.ticks())),
        ("token_pass", Value::Int(net.token_pass.ticks())),
        ("masters", Value::Array(masters)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_text(text: &str) -> Result<Ring, DecodeError> {
        decode_ring(&json::parse(text).map_err(|e| schema(e.to_string()))?)
    }

    #[test]
    fn one_label_labels_every_stream_of_its_master() {
        let ring = decode_text(
            r#"{"ttr":2000,"masters":[{"streams":[{"ch":1,"d":5,"t":9},
                {"ch":1,"d":5,"t":9,"criticality":"lo"},{"ch":1,"d":5,"t":9}]},
                {"streams":[{"ch":1,"d":5,"t":9}]}]}"#,
        )
        .unwrap();
        use Criticality::{Hi, Lo};
        assert_eq!(ring.net.masters[0].criticality, vec![Hi, Lo, Hi]);
        assert!(ring.net.masters[1].criticality.is_empty());
    }

    #[test]
    fn addresses_past_the_last_station_are_model_errors() {
        let err = decode_text(r#"{"ttr":2000,"masters":[{"addr":127,"streams":[]}]}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Model);
        assert_eq!(
            err.detail,
            "master 0: field \"addr\" must be a station address (0..=126), got 127"
        );
    }

    #[test]
    fn the_address_plan_counts_implicit_ring_indices() {
        // Master 1's implicit address 1 is master 0's explicit one.
        let err = decode_text(r#"{"ttr":2000,"masters":[{"addr":1,"streams":[]},{"streams":[]}]}"#)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Model);
        assert_eq!(err.detail, "masters 0 and 1 alias FDL address M1");
    }

    #[test]
    fn the_cadence_bounds_ttr_only_with_background_traffic() {
        let ring = |cl: i64| {
            decode_text(&format!(
                r#"{{"ttr":4611686018427387904,"masters":[{{"cl":{cl},"streams":[]}}]}}"#
            ))
        };
        assert!(ring(0).is_ok());
        let err = ring(1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Model);
        assert_eq!(
            err.detail,
            "ttr 4611686018427387904 is too large: 10 x TTR overflows"
        );
        assert_eq!(
            low_priority_cadence(Time::new(i64::MAX / 10)),
            Ok(Time::new(i64::MAX / 10 * 10))
        );
    }
}
