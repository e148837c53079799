//! The wire protocol: request parsing, pure evaluation, and canonical
//! response rendering.
//!
//! One request per line, one response per line, both JSON. A request is
//! an object with an `"op"` field selecting the query and an optional
//! `"id"` echoed verbatim in the response (any JSON value — correlate
//! pipelined requests however you like). Responses are rendered with
//! [`Value::compact`]: single line, no insignificant whitespace, object
//! keys sorted — equal answers are equal bytes, which is what the memo
//! cache and the differential tests rely on.
//!
//! Success: `{"id":…,"ok":true,"op":"…","result":{…}}`.
//! Failure: `{"id":…,"ok":false,"error":{"kind":"…","detail":"…"}}`.
//!
//! The split between the two follows the campaign evaluator's precedent:
//! an *analysis* outcome — including "this set is not schedulable" and
//! "utilization ≥ 1, the analysis rejects the set" — is a successful
//! answer (`ok:true` with `"feasible":false` and a `"reason"`), while
//! wire-level problems (malformed JSON, unknown ops, invalid model
//! parameters, queue overload) are errors with a typed `kind`. A network
//! whose bounds overflow the tick range (`Tcycle` past `i64::MAX`, say) has
//! invalid model parameters: its `feasibility` and `response_times`
//! queries answer a `"model"` error.
//!
//! [`eval`] is deliberately free of any serving machinery: the engine is
//! a scheduler around it, and [`answer_line`] — parse, evaluate, render
//! with fresh scratch — is the reference implementation the differential
//! tests compare the whole queue/shard/memo pipeline against.

use profirt_base::json::{self, Value};
use profirt_base::{
    AnalysisError, AnalysisResult, Criticality, MessageStream, StreamSet, Task, TaskSet, Time,
};
use profirt_core::wire::{self, field_i64, DecodeError};
use profirt_core::{
    MasterConfig, ModeAnalysis, NetworkAnalysis, NetworkConfig, PolicyKind, PolicyTuning,
};
use profirt_sched::edf::{
    edf_feasible_nonpreemptive_with, edf_feasible_preemptive_with, edf_response_times_with,
    edf_utilization_test, np_edf_response_times_with, DemandConfig, DemandFormula, EdfRtaConfig,
    NpBlockingModel, NpEdfRtaConfig, NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    hyperbolic_schedulable, np_response_times_with, response_times_with,
    rm_utilization_schedulable, NpFixedConfig, PriorityMap, RtaConfig,
};
use profirt_sched::AnalysisScratch;

use crate::memo::QuestionKey;

/// Default cap on one request line, in bytes. Generous for any realistic
/// ring spec (a 32-master, 32-stream network renders well under 8 KiB)
/// while bounding per-connection memory — the line-length analogue of the
/// parser's nesting cap.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 64 * 1024;

/// The task-set schedulability tests servable through
/// `{"op":"task_feasibility"}` — the same spellings the campaign engine's
/// `cpu` scenarios accept.
pub const TASK_TESTS: [&str; 12] = [
    "rm-ll",
    "rm-hb",
    "rm-rta",
    "dm-rta",
    "np-dm",
    "edf-util",
    "edf-demand",
    "edf-demand-paper",
    "np-edf-zs",
    "np-edf-george",
    "edf-rta",
    "np-edf-rta",
];

/// A wire-level failure: a stable machine-readable `kind` plus a
/// human-readable detail. Rendered as the response's `"error"` object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable error class: `"oversized"`, `"parse"`, `"schema"`,
    /// `"unknown_op"`, `"unknown_policy"`, `"unknown_test"`, `"model"`,
    /// `"overloaded"`, `"shed"`, `"closed"`, or `"internal"`.
    pub kind: &'static str,
    /// Free-form diagnostic text.
    pub detail: String,
}

fn wire(kind: &'static str, detail: impl Into<String>) -> WireError {
    WireError {
        kind,
        detail: detail.into(),
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        wire(e.kind.name(), e.detail)
    }
}

/// A request that failed before evaluation, with whatever `id` could be
/// recovered from the line (so even malformed requests correlate).
#[derive(Clone, Debug)]
pub struct RequestError {
    /// The request's `id` if the document parsed far enough to have one.
    pub id: Value,
    /// What went wrong.
    pub err: WireError,
}

/// A parsed, validated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Echo token (`Value::Null` when absent).
    pub id: Value,
    /// Memo key: an integer encoding of the decoded `op` (its tag,
    /// policy, ring and candidate or task rows). Requests that decode to
    /// the same operation have equal keys whatever their `id`, field
    /// order, number spelling (`300` or `300.0`), explicit defaults or
    /// unknown extra fields. [`eval`] reads nothing but `op`, so equal
    /// keys mean equal answers.
    pub key: QuestionKey,
    /// The validated operation.
    pub op: Op,
}

/// The operations the daemon answers.
#[derive(Clone, Debug)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Engine counters (served by the engine, not by [`eval`]).
    Stats,
    /// Whole-ring schedulability: is every stream's bound within its
    /// deadline under the given policy?
    Feasibility {
        /// Queue policy to analyze under.
        policy: PolicyKind,
        /// The ring specification.
        net: NetworkConfig,
    },
    /// Per-stream worst-case response-time bounds.
    ResponseTimes {
        /// Queue policy to analyze under.
        policy: PolicyKind,
        /// The ring specification.
        net: NetworkConfig,
    },
    /// Admission control: would the ring stay fully schedulable with one
    /// more stream on the given master?
    Admit {
        /// Queue policy to analyze under.
        policy: PolicyKind,
        /// The ring as currently admitted.
        net: NetworkConfig,
        /// Index of the master the stream would join.
        master: usize,
        /// The candidate stream.
        stream: MessageStream,
        /// The candidate's declared criticality, when the request carries
        /// one. `None` reads as HI; on an unlabelled ring it keeps the
        /// legacy result shape byte-identical.
        criticality: Option<Criticality>,
    },
    /// A §2-style processor task-set schedulability test (see
    /// [`TASK_TESTS`] for the accepted names).
    TaskFeasibility {
        /// Test name.
        test: String,
        /// The task set under test.
        tasks: TaskSet,
    },
}

impl Op {
    /// The canonical op name, echoed in responses.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Feasibility { .. } => "feasibility",
            Op::ResponseTimes { .. } => "response_times",
            Op::Admit { .. } => "admit",
            Op::TaskFeasibility { .. } => "task_feasibility",
        }
    }
}

fn parse_policy(obj: &Value) -> Result<PolicyKind, WireError> {
    let name = obj
        .get("policy")
        .ok_or_else(|| wire("schema", "missing field \"policy\""))?
        .as_str()
        .ok_or_else(|| wire("schema", "field \"policy\" must be a string"))?;
    PolicyKind::parse(name).ok_or_else(|| {
        wire(
            "unknown_policy",
            format!("unknown policy {name:?} (want fcfs|dm|dm-paper|edf)"),
        )
    })
}

/// The `"net"` field, decoded by [`wire::decode_network`].
fn parse_net(obj: &Value) -> Result<NetworkConfig, WireError> {
    let net = obj
        .get("net")
        .ok_or_else(|| wire("schema", "missing field \"net\""))?;
    Ok(wire::decode_network(net)?)
}

fn parse_tasks(obj: &Value) -> Result<TaskSet, WireError> {
    let tasks = obj
        .get("tasks")
        .ok_or_else(|| wire("schema", "missing field \"tasks\""))?
        .as_array()
        .ok_or_else(|| wire("schema", "field \"tasks\" must be an array"))?
        .iter()
        .map(|t| {
            let c = field_i64(t, "c", None)?;
            let d = field_i64(t, "d", None)?;
            let period = field_i64(t, "t", None)?;
            let j = field_i64(t, "j", Some(0))?;
            Task::with_jitter(c, d, period, j).map_err(|e| wire("model", e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    TaskSet::new(tasks).map_err(|e| wire("model", e.to_string()))
}

/// Parses and validates one request line. On failure the recovered `id`
/// (if any) rides along so the error response still correlates.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let fail = |id: Value, err: WireError| Err(RequestError { id, err });
    let mut doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return fail(Value::Null, wire("parse", e.to_string())),
    };
    let Value::Object(obj) = &mut doc else {
        return fail(Value::Null, wire("schema", "request must be a JSON object"));
    };
    // The question is the request minus its correlation id.
    let id = obj.remove("id").unwrap_or(Value::Null);
    let op_name = match doc.get("op").map(|v| v.as_str()) {
        Some(Some(name)) => name,
        Some(None) => return fail(id, wire("schema", "field \"op\" must be a string")),
        None => return fail(id, wire("schema", "missing field \"op\"")),
    };
    let parsed = match op_name {
        "ping" => Ok(Op::Ping),
        "stats" => Ok(Op::Stats),
        "feasibility" => parse_policy(&doc).and_then(|policy| {
            Ok(Op::Feasibility {
                policy,
                net: parse_net(&doc)?,
            })
        }),
        "response_times" => parse_policy(&doc).and_then(|policy| {
            Ok(Op::ResponseTimes {
                policy,
                net: parse_net(&doc)?,
            })
        }),
        "admit" => parse_policy(&doc).and_then(|policy| {
            let net = parse_net(&doc)?;
            let sv = doc
                .get("stream")
                .ok_or_else(|| wire("schema", "missing field \"stream\""))?;
            let master = field_i64(sv, "master", None)?;
            let master = usize::try_from(master)
                .ok()
                .filter(|&k| k < net.n_masters())
                .ok_or_else(|| {
                    wire(
                        "schema",
                        format!(
                            "field \"stream.master\" must index a master (0..{})",
                            net.n_masters()
                        ),
                    )
                })?;
            Ok(Op::Admit {
                policy,
                net,
                master,
                stream: wire::decode_stream(sv)?,
                criticality: wire::decode_criticality(sv)?,
            })
        }),
        "task_feasibility" => {
            let test = match doc.get("test").map(|v| v.as_str()) {
                Some(Some(name)) => name.to_string(),
                Some(None) => return fail(id, wire("schema", "field \"test\" must be a string")),
                None => return fail(id, wire("schema", "missing field \"test\"")),
            };
            if !TASK_TESTS.contains(&test.as_str()) {
                return fail(
                    id,
                    wire("unknown_test", format!("unknown task test {test:?}")),
                );
            }
            parse_tasks(&doc).map(|tasks| Op::TaskFeasibility { test, tasks })
        }
        other => return fail(id, wire("unknown_op", format!("unknown op {other:?}"))),
    };
    match parsed {
        Ok(op) => Ok(Request {
            id,
            key: question_key(&op),
            op,
        }),
        Err(err) => fail(id, err),
    }
}

/// The memo key of `op`: its op tag, then each field it carries, every
/// list prefixed by its length, so distinct operations never encode to
/// equal words.
///
/// Layout: the op tag (`ping` 0 … `task_feasibility` 5). The network ops
/// add the policy, `ttr`, `token_pass`, the master count and, per master,
/// `cl`, its criticality labels and its streams' `(ch, d, t, j)`. `admit`
/// then adds the master index, the candidate's `(ch, d, t, j)` and its
/// criticality (`-1` when absent, so `None` differs from `Some(Hi)`).
/// `task_feasibility` adds the test's index in [`TASK_TESTS`] and the
/// tasks' `(c, d, t, j)`.
fn question_key(op: &Op) -> QuestionKey {
    let mut w = Vec::with_capacity(64);
    let push_net = |w: &mut Vec<i64>, policy: PolicyKind, net: &NetworkConfig| {
        w.extend([
            policy as i64,
            net.ttr.ticks(),
            net.token_pass.ticks(),
            net.masters.len() as i64,
        ]);
        for m in &net.masters {
            w.extend([m.cl.ticks(), m.criticality.len() as i64]);
            w.extend(m.criticality.iter().map(|&c| c as i64));
            w.push(m.streams.len() as i64);
            for s in m.streams.streams() {
                w.extend([s.ch, s.d, s.t, s.j].map(Time::ticks));
            }
        }
    };
    match op {
        Op::Ping => w.push(0),
        Op::Stats => w.push(1),
        Op::Feasibility { policy, net } => {
            w.push(2);
            push_net(&mut w, *policy, net);
        }
        Op::ResponseTimes { policy, net } => {
            w.push(3);
            push_net(&mut w, *policy, net);
        }
        Op::Admit {
            policy,
            net,
            master,
            stream,
            criticality,
        } => {
            w.push(4);
            push_net(&mut w, *policy, net);
            w.push(*master as i64);
            w.extend([stream.ch, stream.d, stream.t, stream.j].map(Time::ticks));
            w.push(criticality.map_or(-1, |c| c as i64));
        }
        Op::TaskFeasibility { test, tasks } => {
            // parse_request admits only TASK_TESTS names, and eval answers
            // any other name like the last of them: -1 merges no two
            // questions with different answers.
            let test = TASK_TESTS.iter().position(|t| t == test);
            w.extend([5, test.map_or(-1, |i| i as i64), tasks.len() as i64]);
            for t in tasks.tasks() {
                w.extend([t.c, t.d, t.t, t.j].map(Time::ticks));
            }
        }
    }
    QuestionKey::new(w)
}

/// Reusable per-shard working memory: the policy-dispatch scratch for
/// network analyses plus the `profirt_sched` scratch for task-set tests.
#[derive(Debug, Default)]
pub struct EvalScratch {
    policy: profirt_core::PolicyScratch,
    tasks: AnalysisScratch,
}

fn feasibility_result(an: &NetworkAnalysis) -> Value {
    json::object([
        ("feasible", Value::Bool(an.all_schedulable())),
        ("streams", Value::Int(an.stream_count() as i64)),
        (
            "schedulable_streams",
            Value::Int(an.schedulable_count() as i64),
        ),
        ("tcycle", Value::Int(an.tcycle.ticks())),
        ("tdel", Value::Int(an.tdel.ticks())),
    ])
}

/// The analysis of `net` under `policy`; when `two_sided`, the LO-mode
/// analysis plus the HI-mode verdict.
fn analyze(
    policy: PolicyKind,
    net: &NetworkConfig,
    two_sided: bool,
    tuning: &PolicyTuning,
    scratch: &mut EvalScratch,
) -> AnalysisResult<(NetworkAnalysis, Option<bool>)> {
    if two_sided {
        let man = ModeAnalysis::analyze_with_scratch(policy, net, tuning, &mut scratch.policy)?;
        let hi = man.hi_schedulable();
        Ok((man.lo, Some(hi)))
    } else {
        let an = policy.analyze_with_scratch(net, tuning, &mut scratch.policy)?;
        Ok((an, None))
    }
}

/// Analyses `net` under `policy` and renders the result with `render`.
/// A labelled ring is analysed in both modes: `render` shows the LO-mode
/// analysis, `hi_feasible` the HI-mode verdict, and `feasible` requires
/// both. An overflow is a `"model"` error; any other analysis error gets
/// the `ok:true, feasible:false` shape for analysis-level rejections
/// (utilization ≥ 1, divergent recurrences): the analysis *answered* —
/// the set is not admissible — and says why.
fn network_result(
    policy: PolicyKind,
    net: &NetworkConfig,
    render: fn(&NetworkAnalysis) -> Value,
    tuning: &PolicyTuning,
    scratch: &mut EvalScratch,
) -> Result<Value, WireError> {
    match analyze(policy, net, net.is_labelled(), tuning, scratch) {
        Ok((an, hi)) => {
            let mut value = render(&an);
            if let (Some(hi), Value::Object(fields)) = (hi, &mut value) {
                fields.insert("feasible", Value::Bool(an.all_schedulable() && hi));
                fields.insert("hi_feasible", Value::Bool(hi));
            }
            Ok(value)
        }
        Err(e @ AnalysisError::Overflow { .. }) => Err(wire("model", e.to_string())),
        Err(e) => Ok(json::object([
            ("feasible", Value::Bool(false)),
            ("reason", Value::Str(e.to_string())),
        ])),
    }
}

fn response_times_result(an: &NetworkAnalysis) -> Value {
    let rows = an
        .masters
        .iter()
        .flatten()
        .map(|r| {
            json::object([
                ("master", Value::Int(r.master as i64)),
                ("stream", Value::Int(r.stream as i64)),
                ("r", Value::Int(r.response_time.ticks())),
                ("d", Value::Int(r.deadline.ticks())),
                ("schedulable", Value::Bool(r.schedulable)),
            ])
        })
        .collect();
    json::object([
        ("feasible", Value::Bool(an.all_schedulable())),
        ("tcycle", Value::Int(an.tcycle.ticks())),
        ("tdel", Value::Int(an.tdel.ticks())),
        ("rows", Value::Array(rows)),
    ])
}

fn eval_admit(
    policy: PolicyKind,
    net: &NetworkConfig,
    master: usize,
    stream: MessageStream,
    criticality: Option<Criticality>,
    tuning: &PolicyTuning,
    scratch: &mut EvalScratch,
) -> Result<Value, WireError> {
    // Candidate ring: the existing spec with the stream appended to the
    // target master. Reconstruction can fail only on model-level limits
    // (e.g. overflow) — that is a definitive "no".
    let mut masters = net.masters.clone();
    let mut streams = masters[master].streams.streams().to_vec();
    streams.push(stream);
    // The candidate is the last stream and keeps the master's labels; an
    // unlabelled master gets labels only for a sub-HI candidate.
    let mut labels = std::mem::take(&mut masters[master].criticality);
    if !labels.is_empty() || criticality.is_some_and(|c| c.shed_in_hi_mode()) {
        labels.resize(streams.len() - 1, Criticality::Hi);
        labels.push(criticality.unwrap_or_default());
    }
    let candidate = StreamSet::new(streams)
        .and_then(|set| {
            masters[master] = MasterConfig::new(set, masters[master].cl).with_criticality(labels);
            NetworkConfig::new(masters, net.ttr)
        })
        .map(|c| c.with_token_pass(net.token_pass));
    let reject = |e: &dyn std::fmt::Display| {
        Ok(json::object([
            ("admit", Value::Bool(false)),
            ("reason", Value::Str(e.to_string())),
        ]))
    };
    let candidate = match candidate {
        Ok(c) => c,
        Err(e) => return reject(&e),
    };
    // A labelled ring or candidate gets the two-verdict shape, with an
    // unlabelled candidate read as HI: `admit` needs both modes, and a
    // sub-HI candidate, shed in HI mode, is gated by the LO verdict while
    // the HI baseline must stay feasible. Without labels the legacy shape
    // carries no criticality.
    let shape = criticality.or(net.is_labelled().then_some(Criticality::Hi));
    let (an, hi) = match analyze(policy, &candidate, shape.is_some(), tuning, scratch) {
        Ok(answer) => answer,
        Err(e) => return reject(&e),
    };
    let r_new = an.masters[master]
        .last()
        .map(|r| r.response_time.ticks())
        .unwrap_or(0);
    let admit = an.all_schedulable() && hi != Some(false);
    let mut fields = vec![
        ("admit", Value::Bool(admit)),
        ("streams", Value::Int(an.stream_count() as i64)),
        (
            "schedulable_streams",
            Value::Int(an.schedulable_count() as i64),
        ),
        ("tcycle", Value::Int(an.tcycle.ticks())),
        ("r_new", Value::Int(r_new)),
    ];
    if let (Some(c), Some(hi)) = (shape, hi) {
        fields.push(("criticality", Value::Str(c.name().to_string())));
        fields.push(("hi_feasible", Value::Bool(hi)));
    }
    Ok(json::object(fields))
}

fn wcrts_value(wcrts: Option<Vec<Time>>) -> Value {
    match wcrts {
        Some(ws) => Value::Array(ws.iter().map(|w| Value::Int(w.ticks())).collect()),
        None => Value::Null,
    }
}

fn task_result(accepted: bool, wcrts: Value) -> Value {
    json::object([("accepted", Value::Bool(accepted)), ("wcrts", wcrts)])
}

fn eval_task_test(test: &str, set: &TaskSet, scratch: &mut AnalysisScratch) -> Value {
    let fixed = |pm: &PriorityMap, np: bool, scratch: &mut AnalysisScratch| {
        let an = if np {
            np_response_times_with(set, pm, &NpFixedConfig::george(), scratch)
        } else {
            response_times_with(set, pm, &RtaConfig::default(), scratch)
        };
        match an {
            Ok(an) => task_result(an.all_schedulable(), wcrts_value(an.wcrts())),
            Err(e) => infeasible_task(e),
        }
    };
    let edf = |np: bool, scratch: &mut AnalysisScratch| {
        let details = if np {
            np_edf_response_times_with(set, &NpEdfRtaConfig::default(), scratch).map(|(_, d)| d)
        } else {
            edf_response_times_with(set, &EdfRtaConfig::default(), scratch).map(|(_, d)| d)
        };
        match details {
            Ok(details) => {
                let ok = set.iter().all(|(i, task)| details[i].wcrt <= task.d);
                let ws = details.iter().map(|d| d.wcrt).collect();
                task_result(ok, wcrts_value(Some(ws)))
            }
            Err(e) => infeasible_task(e),
        }
    };
    let demand = |formula: DemandFormula, scratch: &mut AnalysisScratch| {
        let cfg = DemandConfig {
            formula,
            ..Default::default()
        };
        match edf_feasible_preemptive_with(set, &cfg, scratch) {
            Ok(f) => task_result(f.feasible, Value::Null),
            Err(e) => infeasible_task(e),
        }
    };
    let np_demand = |blocking: NpBlockingModel, scratch: &mut AnalysisScratch| {
        let cfg = NpFeasibilityConfig {
            blocking,
            formula: DemandFormula::Standard,
            ..Default::default()
        };
        match edf_feasible_nonpreemptive_with(set, &cfg, scratch) {
            Ok(f) => task_result(f.feasible, Value::Null),
            Err(e) => infeasible_task(e),
        }
    };
    match test {
        "rm-ll" => task_result(
            rm_utilization_schedulable(set).is_schedulable(),
            Value::Null,
        ),
        "rm-hb" => task_result(hyperbolic_schedulable(set).is_schedulable(), Value::Null),
        "rm-rta" => fixed(&PriorityMap::rate_monotonic(set), false, scratch),
        "dm-rta" => fixed(&PriorityMap::deadline_monotonic(set), false, scratch),
        "np-dm" => fixed(&PriorityMap::deadline_monotonic(set), true, scratch),
        "edf-util" => task_result(
            edf_utilization_test(set).at_most_one && set.all_implicit_deadlines(),
            Value::Null,
        ),
        "edf-demand" => demand(DemandFormula::Standard, scratch),
        "edf-demand-paper" => demand(DemandFormula::PaperCeiling, scratch),
        "np-edf-zs" => np_demand(NpBlockingModel::ZhengShin, scratch),
        "np-edf-george" => np_demand(NpBlockingModel::George, scratch),
        "edf-rta" => edf(false, scratch),
        // parse_request validated against TASK_TESTS, so this arm is the
        // last member, not a catch-all that could mask typos.
        _ => edf(true, scratch),
    }
}

fn infeasible_task(reason: impl std::fmt::Display) -> Value {
    json::object([
        ("accepted", Value::Bool(false)),
        ("wcrts", Value::Null),
        ("reason", Value::Str(reason.to_string())),
    ])
}

/// Evaluates one request to its `"result"` value. Pure: same request,
/// same tuning → same value, independent of scratch history (every
/// scratch buffer is cleared before use — pinned by the core tests).
///
/// `Op::Stats` is the one op this function cannot answer (counters live
/// in the engine); it returns a `"schema"` error here so the pure path
/// stays total.
pub fn eval(
    req: &Request,
    tuning: &PolicyTuning,
    scratch: &mut EvalScratch,
) -> Result<Value, WireError> {
    match &req.op {
        Op::Ping => Ok(json::object([("pong", Value::Bool(true))])),
        Op::Stats => Err(wire(
            "schema",
            "op \"stats\" is only answered by a running engine",
        )),
        Op::Feasibility { policy, net } => {
            network_result(*policy, net, feasibility_result, tuning, scratch)
        }
        Op::ResponseTimes { policy, net } => {
            network_result(*policy, net, response_times_result, tuning, scratch)
        }
        Op::Admit {
            policy,
            net,
            master,
            stream,
            criticality,
        } => eval_admit(
            *policy,
            net,
            *master,
            *stream,
            *criticality,
            tuning,
            scratch,
        ),
        Op::TaskFeasibility { test, tasks } => Ok(eval_task_test(test, tasks, &mut scratch.tasks)),
    }
}

/// Renders an analysis network back to the wire schema's `"net"` value
/// with [`wire::encode`] — the inverse of the parser, used by the load
/// harness and the test corpora to build request lines from generated
/// networks.
pub fn net_to_value(net: &NetworkConfig) -> Value {
    wire::encode(net, &[])
}

/// Builds the success envelope.
pub fn ok_envelope(id: &Value, op: &str, result: Value) -> Value {
    json::object([
        ("id", id.clone()),
        ("ok", Value::Bool(true)),
        ("op", Value::Str(op.to_string())),
        ("result", result),
    ])
}

/// Builds the failure envelope.
pub fn err_envelope(id: &Value, err: &WireError) -> Value {
    json::object([
        ("id", id.clone()),
        ("ok", Value::Bool(false)),
        (
            "error",
            json::object([
                ("kind", Value::Str(err.kind.to_string())),
                ("detail", Value::Str(err.detail.clone())),
            ]),
        ),
    ])
}

/// The oversized-line response (the request was never parsed, so no `id`
/// can be echoed).
pub fn oversized_response(len: usize, cap: usize) -> String {
    err_envelope(
        &Value::Null,
        &wire(
            "oversized",
            format!("request line is {len} bytes; the cap is {cap}"),
        ),
    )
    .compact()
}

/// The invalid-UTF-8 response for raw byte streams.
pub fn invalid_utf8_response() -> String {
    err_envelope(
        &Value::Null,
        &wire("parse", "request line is not valid UTF-8"),
    )
    .compact()
}

/// A backpressure response (`kind` is `"overloaded"`, `"shed"` or
/// `"closed"`), best-effort recovering the request's `id` so shed load
/// still correlates.
pub fn reject_response(line: &str, kind: &'static str, detail: &str) -> String {
    let id = json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").cloned())
        .unwrap_or(Value::Null);
    err_envelope(&id, &wire(kind, detail)).compact()
}

/// The criticality a request line declares on its candidate stream, if
/// any. Used by the engine's reject path to shed sub-HI work first
/// without evaluating the request.
pub fn declared_criticality(line: &str) -> Option<Criticality> {
    json::parse(line)
        .ok()?
        .get("stream")?
        .get("criticality")?
        .as_str()
        .and_then(Criticality::parse)
}

/// A full-queue rejection carrying a queue-depth-derived
/// `retry_after_hint_ms` inside the error object: the time to drain the
/// (full) injection queue across the shard workers, floored at 1 ms.
/// `kind` is `"shed"` when the request declared sub-HI criticality —
/// graceful degradation drops LO work first — and `"overloaded"`
/// otherwise.
pub fn overload_response(
    line: &str,
    kind: &'static str,
    queue_depth: usize,
    workers: usize,
) -> String {
    let id = json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").cloned())
        .unwrap_or(Value::Null);
    let hint = (queue_depth as i64 / workers.max(1) as i64).max(1);
    let detail = match kind {
        "shed" => "injection queue is full; sub-HI request shed first",
        _ => "injection queue is full; retry or shed",
    };
    json::object([
        ("id", id),
        ("ok", Value::Bool(false)),
        (
            "error",
            json::object([
                ("kind", Value::Str(kind.to_string())),
                ("detail", Value::Str(detail.to_string())),
                ("retry_after_hint_ms", Value::Int(hint)),
            ]),
        ),
    ])
    .compact()
}

/// The pure reference path: parse, evaluate with the given tuning and
/// scratch, render. The engine must answer byte-identically to this for
/// every request (`stats` aside) — the differential tests enforce it.
pub fn answer_line_with(line: &str, tuning: &PolicyTuning, scratch: &mut EvalScratch) -> String {
    match parse_request(line) {
        Err(re) => err_envelope(&re.id, &re.err).compact(),
        Ok(req) => match eval(&req, tuning, scratch) {
            Ok(result) => ok_envelope(&req.id, req.op.name(), result).compact(),
            Err(err) => err_envelope(&req.id, &err).compact(),
        },
    }
}

/// [`answer_line_with`] with default tuning and fresh scratch — one
/// request, zero shared state.
pub fn answer_line(line: &str) -> String {
    answer_line_with(line, &PolicyTuning::default(), &mut EvalScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: &str = r#""net":{"ttr":2000,"masters":[{"cl":0,"streams":[{"ch":300,"d":30000,"t":30000},{"ch":240,"d":60000,"t":60000}]}]}"#;

    #[test]
    fn ping_pongs() {
        let resp = answer_line(r#"{"op":"ping","id":7}"#);
        assert_eq!(
            resp,
            r#"{"id":7,"ok":true,"op":"ping","result":{"pong":true}}"#
        );
    }

    #[test]
    fn feasibility_answers_and_echoes_id() {
        let line = format!(r#"{{"op":"feasibility","id":"q1","policy":"dm",{NET}}}"#);
        let resp = answer_line(&line);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("q1"));
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("feasible").unwrap().as_bool(), Some(true));
        assert_eq!(result.get("streams").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn response_times_match_direct_analysis() {
        let line = format!(r#"{{"op":"response_times","policy":"fcfs",{NET}}}"#);
        let doc = json::parse(&answer_line(&line)).unwrap();
        let rows = doc
            .get("result")
            .unwrap()
            .get("rows")
            .unwrap()
            .as_array()
            .unwrap();
        // Direct library call on the same spec.
        let req = parse_request(&line).unwrap();
        let Op::ResponseTimes { net, .. } = &req.op else {
            panic!("parsed op mismatch")
        };
        let an = PolicyKind::Fcfs.analyze(net).unwrap();
        let direct: Vec<i64> = an
            .masters
            .iter()
            .flatten()
            .map(|r| r.response_time.ticks())
            .collect();
        let served: Vec<i64> = rows
            .iter()
            .map(|r| r.get("r").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(served, direct);
    }

    #[test]
    fn admit_accepts_then_rejects() {
        // A lax stream fits; a stream with a sub-Tcycle deadline never can
        // (a deadline below its own `ch` is a model error, not a "no").
        let ok_line = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"d":50000,"t":50000}}}}"#
        );
        let doc = json::parse(&answer_line(&ok_line)).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("admit").unwrap().as_bool(), Some(true));
        assert!(result.get("r_new").unwrap().as_i64().unwrap() > 0);

        let no_line = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"d":1000,"t":50000}}}}"#
        );
        let doc = json::parse(&answer_line(&no_line)).unwrap();
        assert_eq!(
            doc.get("result").unwrap().get("admit").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn admit_criticality_changes_shape_not_legacy_bytes() {
        // A labelled HI candidate gets the two-verdict shape; the same
        // request without the field keeps the legacy shape byte-for-byte.
        let plain = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"d":50000,"t":50000}}}}"#
        );
        let hi = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"criticality":"hi","d":50000,"t":50000}}}}"#
        );
        let plain_doc = json::parse(&answer_line(&plain)).unwrap();
        assert!(plain_doc
            .get("result")
            .unwrap()
            .get("criticality")
            .is_none());
        let hi_doc = json::parse(&answer_line(&hi)).unwrap();
        let result = hi_doc.get("result").unwrap();
        assert_eq!(result.get("criticality").unwrap().as_str(), Some("hi"));
        assert_eq!(result.get("hi_feasible").unwrap().as_bool(), Some(true));
        assert_eq!(result.get("admit").unwrap().as_bool(), Some(true));

        // A LO candidate is excluded from the HI projection: hi_feasible
        // reflects the HI baseline, and the verdict gates on both modes.
        let lo = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"criticality":"lo","d":50000,"t":50000}}}}"#
        );
        let lo_doc = json::parse(&answer_line(&lo)).unwrap();
        let result = lo_doc.get("result").unwrap();
        assert_eq!(result.get("criticality").unwrap().as_str(), Some("lo"));
        assert_eq!(result.get("hi_feasible").unwrap().as_bool(), Some(true));
        assert_eq!(result.get("admit").unwrap().as_bool(), Some(true));

        let bad = format!(
            r#"{{"op":"admit","policy":"dm",{NET},"stream":{{"master":0,"ch":100,"criticality":"urgent","d":50000,"t":50000}}}}"#
        );
        let doc = json::parse(&answer_line(&bad)).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("schema")
        );
    }

    /// One master whose second stream is LO and misses its deadline in
    /// LO mode; HI mode sheds it.
    const LABELLED: &str = r#""net":{"ttr":2000,"masters":[{"cl":0,"streams":[{"ch":300,"d":30000,"t":30000},{"ch":240,"d":1000,"t":60000,"criticality":"lo"}]}]}"#;

    #[test]
    fn labelled_rings_get_two_verdicts() {
        // The rows are the LO-mode analysis, `hi_feasible` is the HI-mode
        // verdict, and `feasible` needs both, as `profirt analyze` prints
        // them for the same ring.
        let line = format!(r#"{{"op":"response_times","policy":"dm",{LABELLED}}}"#);
        assert_eq!(
            answer_line(&line),
            r#"{"id":null,"ok":true,"op":"response_times","result":{"feasible":false,"hi_feasible":true,"rows":[{"d":30000,"master":0,"r":4932,"schedulable":true,"stream":0},{"d":1000,"master":0,"r":4932,"schedulable":false,"stream":1}],"tcycle":2466,"tdel":300}}"#
        );
        let line = format!(r#"{{"op":"feasibility","policy":"dm",{LABELLED}}}"#);
        let req = parse_request(&line).unwrap();
        let Op::Feasibility { net, .. } = &req.op else {
            panic!("parsed op mismatch")
        };
        let man = ModeAnalysis::analyze(PolicyKind::Dm, net, &PolicyTuning::default()).unwrap();
        let doc = json::parse(&answer_line(&line)).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(
            result.get("feasible").unwrap().as_bool(),
            Some(man.lo_schedulable() && man.hi_schedulable())
        );
        assert_eq!(
            result.get("hi_feasible").unwrap().as_bool(),
            Some(man.hi_schedulable())
        );

        // `admit` keeps the LO label: re-marked HI, the stream would fail
        // HI mode too.
        let line = format!(
            r#"{{"op":"admit","policy":"dm",{LABELLED},"stream":{{"master":0,"ch":100,"d":50000,"t":50000}}}}"#
        );
        assert_eq!(
            answer_line(&line),
            r#"{"id":null,"ok":true,"op":"admit","result":{"admit":false,"criticality":"hi","hi_feasible":true,"r_new":7398,"schedulable_streams":2,"streams":3,"tcycle":2466}}"#
        );
    }

    #[test]
    fn negative_token_pass_is_a_model_error() {
        // The sample ring with a pass of -1000 ticks was answered
        // `feasible:true` with a `tcycle` of 1800, below its TTR of 2000.
        let line = r#"{"op":"feasibility","policy":"dm","net":{"ttr":2000,"token_pass":-1000,"masters":[{"cl":1000,"policy":"dm","stack_capacity":1,"streams":[{"ch":700,"d":12000,"t":25000,"j":0},{"ch":500,"d":25000,"t":50000,"j":200}]},{"cl":0,"policy":"fcfs","streams":[{"ch":800,"d":30000,"t":40000}]}]}}"#;
        assert_eq!(
            answer_line(line),
            r#"{"error":{"detail":"field \"token_pass\" must be non-negative, got -1000","kind":"model"},"id":null,"ok":false}"#
        );
    }

    #[test]
    fn overload_response_carries_retry_hint_and_sheds_sub_hi() {
        let lo_line = r#"{"op":"admit","id":9,"stream":{"criticality":"lo"}}"#;
        assert_eq!(declared_criticality(lo_line), Some(Criticality::Lo));
        assert_eq!(declared_criticality(r#"{"op":"ping"}"#), None);

        let resp = overload_response(lo_line, "shed", 256, 4);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("id").unwrap().as_i64(), Some(9));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("shed"));
        assert_eq!(err.get("retry_after_hint_ms").unwrap().as_i64(), Some(64));

        // The hint never rounds to zero.
        let resp = overload_response(lo_line, "overloaded", 2, 8);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error")
                .unwrap()
                .get("retry_after_hint_ms")
                .unwrap()
                .as_i64(),
            Some(1)
        );
    }

    #[test]
    fn utilization_overflow_is_an_answer_not_an_error() {
        // Periods equal to Tcycle-scale: utilization >= 1 under EDF.
        let line = r#"{"op":"feasibility","policy":"edf","net":{"ttr":900,"masters":[{"cl":100,"streams":[{"ch":100,"d":1500,"t":1500},{"ch":100,"d":1500,"t":1500}]}]}}"#;
        let doc = json::parse(&answer_line(line)).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("feasible").unwrap().as_bool(), Some(false));
        assert!(result.get("reason").unwrap().as_str().is_some());
    }

    #[test]
    fn task_feasibility_runs_every_test() {
        for test in TASK_TESTS {
            let line = format!(
                r#"{{"op":"task_feasibility","test":"{test}","tasks":[{{"c":1,"d":10,"t":10}},{{"c":2,"d":14,"t":14}}]}}"#
            );
            let doc = json::parse(&answer_line(&line)).unwrap();
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true), "{test}");
            let accepted = doc
                .get("result")
                .unwrap()
                .get("accepted")
                .unwrap()
                .as_bool()
                .unwrap();
            assert!(accepted, "{test}: trivial set must be accepted");
        }
    }

    #[test]
    fn wire_errors_are_typed() {
        let kind_of = |line: &str| {
            let doc = json::parse(&answer_line(line)).unwrap();
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
            doc.get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(kind_of("not json"), "parse");
        assert_eq!(kind_of("[1,2]"), "schema");
        assert_eq!(kind_of(r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(
            kind_of(&format!(r#"{{"op":"feasibility","policy":"lifo",{NET}}}"#)),
            "unknown_policy"
        );
        assert_eq!(
            kind_of(r#"{"op":"task_feasibility","test":"nope","tasks":[]}"#),
            "unknown_test"
        );
        // Model-level rejection: a zero period is not a valid stream.
        assert_eq!(
            kind_of(
                r#"{"op":"feasibility","policy":"dm","net":{"ttr":2000,"masters":[{"streams":[{"ch":1,"d":5,"t":0}]}]}}"#
            ),
            "model"
        );
        assert_eq!(kind_of(r#"{"op":"stats"}"#), "schema");
    }

    #[test]
    fn overflowing_token_cycle_is_a_model_error() {
        // TTR + Tdel wraps past i64::MAX; this line used to be answered
        // `feasible:true` with a negative Tcycle.
        let line = r#"{"op":"feasibility","policy":"dm","net":{"ttr":9223372036854775000,"masters":[{"cl":9223372036854775000,"streams":[{"ch":9223372036854775000,"d":9223372036854775000,"t":9223372036854775000}]}]}}"#;
        for line in [
            line.to_string(),
            line.replace("feasibility", "response_times"),
        ] {
            let doc = json::parse(&answer_line(&line)).unwrap();
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{line}");
            let error = doc.get("error").unwrap();
            assert_eq!(error.get("kind").unwrap().as_str(), Some("model"));
            assert!(error
                .get("detail")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("overflow"));
        }
    }

    #[test]
    fn overflowing_ring_overhead_is_a_model_error() {
        // n_masters x token_pass wraps past i64::MAX; this line used to be
        // answered `feasible:true` with a negative Tcycle.
        let line = r#"{"op":"feasibility","policy":"dm","net":{"ttr":1000,"token_pass":4611686018427387904,"masters":[{"cl":10,"streams":[{"ch":10,"d":30000,"t":30000}]},{"cl":10,"streams":[{"ch":10,"d":30000,"t":30000}]}]}}"#;
        let doc = json::parse(&answer_line(line)).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("model"));
        assert!(error
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("overflow"));
    }

    #[test]
    fn overflowing_dm_blocking_term_is_a_model_error() {
        // Tcycle ≈ 4.7e18, so DM's blocking-plus-own-cycle term 2·Tcycle
        // exceeds i64::MAX; this line used to panic in a debug build and
        // answer from wrapped arithmetic in release.
        let line = r#"{"op":"response_times","policy":"dm","net":{"ttr":4700000000000000000,"masters":[{"cl":0,"streams":[{"ch":10,"d":9200000000000000000,"t":9200000000000000000},{"ch":10,"d":9200000000000000000,"t":9200000000000000000,"j":9000000000000000000}]}]}}"#;
        let doc = json::parse(&answer_line(line)).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("model"));
        assert!(error
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("overflow"));
    }

    /// Four tasks with pairwise-coprime periods near 10^12, each at
    /// `C = 0.3·T`: `U = 1.2`, and the exact `Frac` sum of these leaves
    /// `i128`.
    const COPRIME_TASKS: &str = r#""tasks":[{"c":299999999996,"d":999999999989,"t":999999999989},{"c":300000000011,"d":1000000000039,"t":1000000000039},{"c":300000000018,"d":1000000000061,"t":1000000000061},{"c":300000000018,"d":1000000000063,"t":1000000000063}]"#;

    #[test]
    fn wrapped_utilisation_sums_answer_from_exact_arithmetic() {
        // These lines once panicked in a debug build (`attempt to multiply
        // with overflow` in the `Frac` sum); a release build wrapped and
        // answered `edf-util` and `rm-ll` with `accepted:true`.
        let rejected = r#"{"id":null,"ok":true,"op":"task_feasibility","result":{"accepted":false,"wcrts":null}}"#;
        let no_busy_period = r#"{"id":null,"ok":true,"op":"task_feasibility","result":{"accepted":false,"reason":"total utilisation is >= 1; busy-period bounds do not exist","wcrts":null}}"#;
        for test in TASK_TESTS {
            let line = format!(r#"{{"op":"task_feasibility","test":"{test}",{COPRIME_TASKS}}}"#);
            let want = match test {
                "edf-rta" | "np-edf-rta" => no_busy_period,
                _ => rejected,
            };
            assert_eq!(answer_line(&line), want, "{test}");
        }
        // The message analysis sums Tcycle/T over the same periods: U is
        // tiny, and exactly so.
        let net = r#"{"op":"feasibility","policy":"edf","net":{"ttr":2000,"masters":[{"cl":0,"streams":[{"ch":300,"d":999999999989,"t":999999999989},{"ch":300,"d":1000000000039,"t":1000000000039},{"ch":300,"d":1000000000061,"t":1000000000061},{"ch":300,"d":1000000000063,"t":1000000000063}]}]}}"#;
        assert_eq!(
            answer_line(net),
            r#"{"id":null,"ok":true,"op":"feasibility","result":{"feasible":true,"schedulable_streams":4,"streams":4,"tcycle":2466,"tdel":300}}"#
        );
    }

    #[test]
    fn memo_key_ignores_id_but_not_payload() {
        let a = parse_request(&format!(
            r#"{{"op":"feasibility","id":1,"policy":"dm",{NET}}}"#
        ))
        .unwrap();
        let b = parse_request(&format!(
            r#"{{"op":"feasibility","id":"other","policy":"dm",{NET}}}"#
        ))
        .unwrap();
        let c = parse_request(&format!(
            r#"{{"op":"feasibility","id":1,"policy":"edf",{NET}}}"#
        ))
        .unwrap();
        assert_eq!(a.key, b.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn responses_are_single_line_compact() {
        let line = format!(r#"{{"op":"response_times","policy":"edf",{NET}}}"#);
        let resp = answer_line(&line);
        assert!(!resp.contains('\n'));
        assert_eq!(json::parse(&resp).unwrap().compact(), resp);
    }
}
