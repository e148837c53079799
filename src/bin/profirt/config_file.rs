//! JSON network configuration files.
//!
//! The on-disk schema mirrors the analysis inputs one-to-one; all times are
//! ticks (bit times at the network's baud rate):
//!
//! ```json
//! {
//!   "ttr": 2000,
//!   "token_pass": 166,
//!   "masters": [
//!     {
//!       "cl": 1000,
//!       "policy": "dm",
//!       "stack_capacity": 1,
//!       "addr": 3,
//!       "streams": [ { "ch": 700, "d": 12000, "t": 25000, "j": 0 } ]
//!     }
//!   ]
//! }
//! ```
//!
//! `addr` is the optional FDL station address (0..=126, unique across
//! masters); it defaults to the master's ring index and drives the
//! address-staggered token-recovery timeout and the token order
//! (next-higher address, wrapping) of every `simulate` run.
//!
//! Each stream may carry an optional `"criticality"` field
//! (`"lo"` / `"mid"` / `"hi"`). Absent means HI, and the field is only
//! serialised when present, so every pre-existing config file parses and
//! round-trips byte-identically. Sub-HI streams are shed in degraded mode
//! by `simulate` when the mode controller is active and are dropped from
//! the HI-mode verdict of `analyze`.

use profirt::base::{Criticality, MessageStream, StreamSet, Time};
use profirt::core::{MasterConfig, NetworkConfig};
use profirt::profibus::QueuePolicy;
use profirt::sim::{SimMaster, SimNetwork};

use profirt::base::json::{self, Value};

/// One stream entry.
#[derive(Clone, Copy, Debug)]
pub struct CliStream {
    /// Worst-case message-cycle time `Ch`.
    pub ch: i64,
    /// Relative deadline `Dh`.
    pub d: i64,
    /// Period `Th`.
    pub t: i64,
    /// Release jitter `J` (defaults to 0).
    pub j: i64,
    /// Criticality level; `None` (the default) reads as HI and is not
    /// serialised, keeping pre-existing files byte-identical.
    pub criticality: Option<Criticality>,
}

/// One master entry.
#[derive(Clone, Debug)]
pub struct CliMaster {
    /// Longest low-priority message cycle `Cl` (defaults to 0).
    pub cl: i64,
    /// AP-queue policy: `"fcfs"`, `"dm"` or `"edf"` (defaults to `"fcfs"`).
    pub policy: String,
    /// Stack-queue capacity (defaults to 1 for dm/edf, unbounded for fcfs).
    pub stack_capacity: Option<usize>,
    /// FDL station address (defaults to the ring index).
    pub addr: Option<u8>,
    /// High-priority streams.
    pub streams: Vec<CliStream>,
}

fn default_policy() -> String {
    "fcfs".into()
}

/// The whole network file.
#[derive(Clone, Debug)]
pub struct CliNetwork {
    /// Target token rotation time `TTR`.
    pub ttr: i64,
    /// Per-hop token pass time used by the simulator and the overhead-aware
    /// bounds (defaults to 166 = SD4 + TSYN + TID2 at 500 kbit/s).
    pub token_pass: i64,
    /// Masters in ring order.
    pub masters: Vec<CliMaster>,
}

fn default_token_pass() -> i64 {
    166
}

fn field_i64(obj: &Value, key: &str, default: Option<i64>) -> Result<i64, String> {
    match obj.get(key) {
        Some(v) => v
            .as_i64()
            .ok_or(format!("field {key:?} must be an integer")),
        None => default.ok_or(format!("missing field {key:?}")),
    }
}

impl CliStream {
    fn from_json(v: &Value) -> Result<CliStream, String> {
        let criticality = match v.get("criticality") {
            Some(Value::Null) | None => None,
            Some(c) => {
                let raw = c.as_str().ok_or("field \"criticality\" must be a string")?;
                Some(Criticality::parse(raw).ok_or(format!(
                    "field \"criticality\" must be \"lo\", \"mid\" or \"hi\", got {raw:?}"
                ))?)
            }
        };
        Ok(CliStream {
            ch: field_i64(v, "ch", None)?,
            d: field_i64(v, "d", None)?,
            t: field_i64(v, "t", None)?,
            j: field_i64(v, "j", Some(0))?,
            criticality,
        })
    }

    fn to_json(self) -> Value {
        let mut fields = vec![
            ("ch", Value::Int(self.ch)),
            ("d", Value::Int(self.d)),
            ("t", Value::Int(self.t)),
            ("j", Value::Int(self.j)),
        ];
        if let Some(c) = self.criticality {
            fields.push(("criticality", Value::Str(c.name().to_string())));
        }
        json::object(fields)
    }
}

impl CliMaster {
    fn from_json(v: &Value) -> Result<CliMaster, String> {
        let policy = match v.get("policy") {
            Some(p) => p
                .as_str()
                .ok_or("field \"policy\" must be a string")?
                .to_string(),
            None => default_policy(),
        };
        let stack_capacity = match v.get("stack_capacity") {
            Some(Value::Null) | None => None,
            Some(c) => Some(
                usize::try_from(
                    c.as_i64()
                        .ok_or("field \"stack_capacity\" must be an integer")?,
                )
                .map_err(|_| "field \"stack_capacity\" must be non-negative")?,
            ),
        };
        let addr = match v.get("addr") {
            Some(Value::Null) | None => None,
            Some(a) => Some(
                u8::try_from(a.as_i64().ok_or("field \"addr\" must be an integer")?)
                    .map_err(|_| "field \"addr\" must be a station address (0..=126)")?,
            ),
        };
        let streams = v
            .get("streams")
            .ok_or("missing field \"streams\"")?
            .as_array()
            .ok_or("field \"streams\" must be an array")?
            .iter()
            .map(CliStream::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CliMaster {
            cl: field_i64(v, "cl", Some(0))?,
            policy,
            stack_capacity,
            addr,
            streams,
        })
    }

    fn to_json(&self) -> Value {
        json::object([
            ("cl", Value::Int(self.cl)),
            ("policy", Value::Str(self.policy.clone())),
            (
                "stack_capacity",
                match self.stack_capacity {
                    Some(c) => Value::Int(c as i64),
                    None => Value::Null,
                },
            ),
            (
                "addr",
                match self.addr {
                    Some(a) => Value::Int(a as i64),
                    None => Value::Null,
                },
            ),
            (
                "streams",
                Value::Array(self.streams.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

impl CliNetwork {
    /// Loads and validates a config file.
    pub fn load(path: &str) -> Result<CliNetwork, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let net = Self::from_json_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        net.validate()?;
        Ok(net)
    }

    /// Parses the JSON document (no semantic validation).
    pub fn from_json_str(text: &str) -> Result<CliNetwork, String> {
        let doc = json::parse(text)?;
        let masters = doc
            .get("masters")
            .ok_or("missing field \"masters\"")?
            .as_array()
            .ok_or("field \"masters\" must be an array")?
            .iter()
            .map(CliMaster::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CliNetwork {
            ttr: field_i64(&doc, "ttr", None)?,
            token_pass: field_i64(&doc, "token_pass", Some(default_token_pass()))?,
            masters,
        })
    }

    /// Serialises back to pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        json::object([
            ("ttr", Value::Int(self.ttr)),
            ("token_pass", Value::Int(self.token_pass)),
            (
                "masters",
                Value::Array(self.masters.iter().map(|m| m.to_json()).collect()),
            ),
        ])
        .pretty()
    }

    /// Schema-level validation beyond what the analysis types enforce.
    pub fn validate(&self) -> Result<(), String> {
        if self.masters.is_empty() {
            return Err("config needs at least one master".into());
        }
        for (k, m) in self.masters.iter().enumerate() {
            self.policy_of(k)?;
            if m.streams.is_empty() {
                return Err(format!("master {k} has no streams"));
            }
            let _ = m;
        }
        self.to_analysis()?;
        // The simulator view additionally checks the FDL address plan
        // (unique, in range) — aliasing two masters onto one address is a
        // config error, not a silently-merged claim timeout.
        self.to_sim().map(|_| ())
    }

    /// The parsed policy of master `k`.
    pub fn policy_of(&self, k: usize) -> Result<QueuePolicy, String> {
        match self.masters[k].policy.as_str() {
            "fcfs" => Ok(QueuePolicy::Fcfs),
            "dm" => Ok(QueuePolicy::DeadlineMonotonic),
            "edf" => Ok(QueuePolicy::Edf),
            other => Err(format!("master {k}: unknown policy {other:?}")),
        }
    }

    fn stream_set(&self, k: usize) -> Result<StreamSet, String> {
        let streams = self.masters[k]
            .streams
            .iter()
            .map(|s| MessageStream::with_jitter(s.ch, s.d, s.t, s.j))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("master {k}: {e}"))?;
        StreamSet::new(streams).map_err(|e| format!("master {k}: {e}"))
    }

    /// The per-stream criticality labels of master `k` (empty when no
    /// stream of the master declares one — the all-HI reading).
    pub fn criticality_of(&self, k: usize) -> Vec<Criticality> {
        let m = &self.masters[k];
        if m.streams.iter().any(|s| s.criticality.is_some()) {
            m.streams
                .iter()
                .map(|s| s.criticality.unwrap_or_default())
                .collect()
        } else {
            Vec::new()
        }
    }

    /// Builds the analysis view.
    pub fn to_analysis(&self) -> Result<NetworkConfig, String> {
        let masters = (0..self.masters.len())
            .map(|k| {
                Ok(
                    MasterConfig::new(self.stream_set(k)?, Time::new(self.masters[k].cl))
                        .with_criticality(self.criticality_of(k)),
                )
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(NetworkConfig::new(masters, Time::new(self.ttr))
            .map_err(|e| e.to_string())?
            .with_token_pass(Time::new(self.token_pass)))
    }

    /// Builds the simulator view.
    pub fn to_sim(&self) -> Result<SimNetwork, String> {
        let masters = (0..self.masters.len())
            .map(|k| {
                let streams = self.stream_set(k)?;
                let policy = self.policy_of(k)?;
                let mut m = match policy {
                    QueuePolicy::Fcfs => SimMaster::stock(streams),
                    p => SimMaster::priority_queued(streams, p),
                };
                if let Some(cap) = self.masters[k].stack_capacity {
                    m.stack_capacity = cap.max(1);
                }
                if self.masters[k].cl > 0 {
                    // Background traffic cadence: one low-priority
                    // exchange per ~10 target rotations.
                    let cadence = self.ttr.checked_mul(10).ok_or_else(|| {
                        format!("ttr {} is too large: 10 x TTR overflows", self.ttr)
                    })?;
                    m.low_priority
                        .push(profirt::profibus::LowPriorityTraffic::new(
                            Time::new(self.masters[k].cl),
                            Time::new(cadence),
                        ));
                }
                if let Some(a) = self.masters[k].addr {
                    m.addr = Some(profirt::base::MasterAddr(a));
                }
                m.criticality = self.criticality_of(k);
                Ok(m)
            })
            .collect::<Result<Vec<_>, String>>()?;
        SimNetwork::new(
            masters,
            Time::new(self.ttr),
            Time::new(self.token_pass.max(1)),
        )
        .map_err(|e| e.to_string())
    }
}

/// A commented example configuration, printed by `profirt example-config`.
pub fn example_json() -> String {
    let example = CliNetwork {
        ttr: 2_000,
        token_pass: 166,
        masters: vec![
            CliMaster {
                cl: 1_000,
                policy: "dm".into(),
                stack_capacity: Some(1),
                addr: Some(3),
                streams: vec![
                    CliStream {
                        ch: 700,
                        d: 12_000,
                        t: 25_000,
                        j: 0,
                        criticality: None,
                    },
                    CliStream {
                        ch: 500,
                        d: 25_000,
                        t: 50_000,
                        j: 200,
                        criticality: None,
                    },
                ],
            },
            CliMaster {
                cl: 0,
                policy: "fcfs".into(),
                stack_capacity: None,
                addr: Some(7),
                streams: vec![CliStream {
                    ch: 800,
                    d: 30_000,
                    t: 40_000,
                    j: 0,
                    criticality: None,
                }],
            },
        ],
    };
    example.to_json_string()
}
