//! The profirt benchmark: end-to-end and per-layer metrics of the three
//! user paths (`simulate`, `campaign run`, `serve`) on four named
//! workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`). The line before it records
//! the run's workload, seed, `nproc` and git revision. See
//! `perfbench/README.md` for the workloads and metric definitions.

#![forbid(unsafe_code)]

mod campaign;
mod common;
mod serve;
mod simulate;

use std::path::PathBuf;
use std::process::ExitCode;

use profirt_base::json::{self, Value};

use common::{Outcome, RunOpts};

/// Every end-to-end metric, with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("units_per_s", "units/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p50_ms.hi", "ms"),
    ("latency_p99_ms.hi", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit. A layer a workload bypasses
/// reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("failed_frac", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.closure", "ratio"),
    ("trace.wall_s", "s"),
    ("release.drain_s", "s"),
    ("release.count", "count"),
    ("sim.kernel_s", "s"),
    ("sim.observers_s", "s"),
    ("sim.run_s", "s"),
    ("sim.visits", "count"),
    ("sim.rotations_ffwd", "count"),
    ("sim.ffwd_share", "ratio"),
    ("sim.ns_per_visit", "ns"),
    ("sim.mode_switches", "count"),
    ("sim.shed", "count"),
    ("profibus.ring_events", "count"),
    ("profibus.gap_polls", "count"),
    ("workload.gen_s", "s"),
    ("workload.gen_calls", "count"),
    ("core.analyze_s.fcfs", "s"),
    ("core.analyze_s.dm", "s"),
    ("core.analyze_s.dm-paper", "s"),
    ("core.analyze_s.edf", "s"),
    ("core.mode_s", "s"),
    ("core.ttr_s", "s"),
    ("sched.analyze_s.fp", "s"),
    ("sched.analyze_s.edf", "s"),
    ("sched.analyze_s.util", "s"),
    ("sched.fixpoint_iters", "count"),
    ("sched.warm_hit_rate", "ratio"),
    ("campaign.plan_s", "s"),
    ("campaign.eval_s", "s"),
    ("campaign.write_s", "s"),
    ("conc.busy_frac", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.memo_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.eval_us_p99", "us"),
    ("serve.render_us", "us"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.rejected", "count"),
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.gen_lag_ms_p99", "ms"),
];

const WORKLOADS: [&str; 4] = [
    "simulate_static",
    "campaign_churn",
    "campaign_sweep",
    "serve_open_loop",
];

struct Args {
    workload: String,
    opts: RunOpts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    // Artifacts go under the cargo target directory, honouring
    // CARGO_TARGET_DIR when it is set.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let out_dir = target.join("perfbench").join(&workload);
    Ok(Args {
        workload,
        opts: RunOpts {
            seed,
            seconds,
            trace,
            out_dir,
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let o = &args.opts;
    match (args.workload.as_str(), o.trace) {
        ("simulate_static", false) => simulate::run(o),
        ("simulate_static", true) => simulate::run_traced(o),
        ("campaign_churn", false) => campaign::run(campaign::Matrix::Churn, o),
        ("campaign_churn", true) => campaign::run_traced(campaign::Matrix::Churn, o),
        ("campaign_sweep", false) => campaign::run(campaign::Matrix::Sweep, o),
        ("campaign_sweep", true) => campaign::run_traced(campaign::Matrix::Sweep, o),
        (_, false) => serve::run(o),
        (_, true) => serve::run_traced(o),
    }
}

/// Renders the result line: exactly the metrics the mode promises.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&(v, _)) => v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push((
            name,
            json::object([
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(json::object([
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::Int(out.attempted as i64)),
        ("failed", Value::Int(out.failed as i64)),
        ("metrics", json::object(metrics)),
    ])
    .compact())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if out.attempted == 0 {
        eprintln!("perfbench: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    out.set("peak_rss_mb", common::peak_rss_mb(), "MB");
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    for note in &out.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let line = match result_line(&out, args.opts.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut info = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Int(args.opts.seed as i64)),
        ("seconds", Value::Float(args.opts.seconds)),
        ("trace", Value::Bool(args.opts.trace)),
        ("nproc", Value::Int(common::nproc() as i64)),
        (
            "git_rev",
            Value::Str(common::git_rev(std::path::Path::new("."))),
        ),
    ];
    info.append(&mut out.info);
    println!("{}", json::object([("run", json::object(info))]).compact());
    println!("{line}");
    ExitCode::SUCCESS
}
