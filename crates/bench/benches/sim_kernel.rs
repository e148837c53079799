//! `sim_kernel` bench: the streaming simulation kernel against the
//! pre-materialized baseline, over pinned fixtures.
//!
//! The fixtures bracket the design space:
//!
//! * `dense_long_horizon` — 3 masters × 6 short-period streams over a
//!   20M-tick horizon (~100k releases): the baseline materializes, sorts
//!   and walks a multi-megabyte release vector that the streaming kernel
//!   never allocates.
//! * `lp_backlog` — a single master whose low-priority arrival rate
//!   outruns its service rate: the pending backlog grows with the
//!   horizon, so the baseline's linear-scan + `Vec::remove` low-priority
//!   selection goes quadratic while the kernel's heap stays logarithmic.
//! * `churn_ring` — the dense fixture under membership churn + GAP
//!   polling (kernel-only: the reference models static rings). The
//!   kernel runs both through one loop; the static fixtures take its
//!   fixed-ring step, which skips the churn machinery's per-visit
//!   bookkeeping — the baseline JSON records both so CI can watch the
//!   fixed ring staying within noise of the pre-churn numbers.
//! * `mc_churn` — the churn fixture with mixed-criticality labels and
//!   the mode controller armed: records the mode machinery's overhead
//!   against the churn-only loop (and asserts the armed controller is a
//!   result-no-op on all-HI traffic first).
//! * `sparse_long_horizon` — long-period traffic over a 100M-tick
//!   horizon: almost every token rotation is idle, so the run is
//!   dominated by rotation bookkeeping unless the kernel fast-forwards
//!   idle spans in O(1). The fixture the `ffwd_speedup` floor watches.
//!
//! Besides the criterion groups, the bench writes `BENCH_sim.json`
//! (path from `profirt_base::artifact`: `BENCH_SIM_JSON`, else
//! `CARGO_TARGET_DIR`, else the workspace `target/`) — the
//! perf baseline artifact CI uploads, recording per-fixture mean ns for
//! both engines, the streaming/materialized speedup, and — for every
//! static fixture — `unskipped_ns`/`ffwd_speedup`: the same kernel with
//! `fast_forward` disabled, so the idle-span skip's win (sparse) and
//! non-regression (dense) are both on record. Before timing, the bench
//! asserts static-fixture result equality between the kernel and the
//! reference (with the fast-forward on — the skip is inside the equality
//! pin), and churn-fixture determinism — a perf artifact from
//! disagreeing engines would be meaningless.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use profirt_base::artifact;
use profirt_base::json::{self, Value};
use profirt_base::{Criticality, StreamSet, Time};
use profirt_profibus::{LowPriorityTraffic, QueuePolicy};
use profirt_sim::{
    simulate_network, simulate_network_materialized, MembershipPlan, ModeSimConfig,
    NetworkSimConfig, SimMaster, SimNetwork,
};

/// Pinned release-dense, schedulable fixture: ~100k releases over the
/// horizon, jitter on some streams to exercise the look-ahead path.
fn dense_long_horizon() -> (SimNetwork, NetworkSimConfig) {
    let mk_master = |shift: i64| {
        let streams = StreamSet::from_cdtj(&[
            (80, 2_000 + shift, 2_000 + shift, 0),
            (60, 2_500, 2_500 + shift, 300),
            (90, 3_000 + shift, 3_000, 0),
            (70, 4_000, 4_000 + shift, 500),
            (50, 5_000 + shift, 5_000, 0),
            (60, 9_000, 9_000 + shift, 0),
        ])
        .unwrap();
        SimMaster::priority_queued(streams, QueuePolicy::DeadlineMonotonic)
    };
    let net = SimNetwork {
        masters: vec![mk_master(0), mk_master(100), mk_master(250)],
        ttr: Time::new(4_000),
        token_pass: Time::new(166),
    };
    let cfg = NetworkSimConfig {
        horizon: Time::new(20_000_000),
        ..Default::default()
    };
    (net, cfg)
}

/// Pinned fixture whose low-priority backlog grows with the horizon:
/// arrivals every 50 ticks, service bounded by the rotation budget.
fn lp_backlog() -> (SimNetwork, NetworkSimConfig) {
    let streams = profirt_base::StreamSet::from_cdt(&[(300, 40_000, 30_000)]).unwrap();
    let master = SimMaster::stock(streams)
        .with_low_priority(LowPriorityTraffic::new(Time::new(300), Time::new(50)));
    let net = SimNetwork {
        masters: vec![master],
        ttr: Time::new(10_000),
        token_pass: Time::new(166),
    };
    let cfg = NetworkSimConfig {
        horizon: Time::new(1_000_000),
        ..Default::default()
    };
    (net, cfg)
}

/// The dense fixture under mid-run joins/leaves plus GAP maintenance:
/// the dynamic-membership loop's overhead fixture. Kernel-only — the
/// materialized reference is gated to static rings.
fn churn_ring() -> (SimNetwork, NetworkSimConfig) {
    let (net, cfg) = dense_long_horizon();
    let horizon = cfg.horizon;
    let cfg = NetworkSimConfig {
        gap_factor: 5,
        membership: MembershipPlan::new()
            .power_cycle(
                1,
                Time::new(horizon.ticks() / 5),
                Time::new(horizon.ticks() / 3),
            )
            .power_cycle(
                2,
                Time::new(horizon.ticks() / 2),
                Time::new(horizon.ticks() * 7 / 10),
            ),
        ..cfg
    };
    (net, cfg)
}

/// The churn fixture with the mixed-criticality mode controller armed:
/// every master's streams alternate HI/LO, so ring shrinkage degrades
/// the mode and sheds half the traffic until match-up. The overhead
/// record pairs this against the churn-only loop on identical traffic.
fn mc_churn() -> (SimNetwork, NetworkSimConfig) {
    let (mut net, cfg) = churn_ring();
    for m in &mut net.masters {
        net_labels(m);
    }
    let cfg = NetworkSimConfig {
        mode: ModeSimConfig::enabled(),
        ..cfg
    };
    (net, cfg)
}

/// Pinned sparse fixture: periods three to four orders of magnitude above
/// the rotation time, over a 100M-tick horizon. Without the idle-span
/// fast-forward the kernel walks ~300k idle rotations (~600k visits);
/// with it the visit count tracks the ~500 releases instead.
fn sparse_long_horizon() -> (SimNetwork, NetworkSimConfig) {
    let mk_master = |shift: i64| {
        let streams =
            StreamSet::from_cdt(&[(120, 400_000, 1_000_000 + shift), (90, 800_000, 2_000_000)])
                .unwrap();
        SimMaster::stock(streams)
    };
    let net = SimNetwork {
        masters: vec![mk_master(0), mk_master(7_000)],
        ttr: Time::new(4_000),
        token_pass: Time::new(166),
    };
    let cfg = NetworkSimConfig {
        horizon: Time::new(100_000_000),
        ..Default::default()
    };
    (net, cfg)
}

fn net_labels(m: &mut SimMaster) {
    m.criticality = (0..m.streams.len())
        .map(|i| {
            if i % 2 == 1 {
                Criticality::Lo
            } else {
                Criticality::Hi
            }
        })
        .collect();
}

fn fixtures() -> Vec<(&'static str, SimNetwork, NetworkSimConfig)> {
    let (d_net, d_cfg) = dense_long_horizon();
    let (l_net, l_cfg) = lp_backlog();
    let (s_net, s_cfg) = sparse_long_horizon();
    vec![
        ("dense_long_horizon", d_net, d_cfg),
        ("lp_backlog", l_net, l_cfg),
        ("sparse_long_horizon", s_net, s_cfg),
    ]
}

/// The same config with the idle-span fast-forward disabled: the
/// per-visit reference loop the `ffwd_speedup` records compare against.
fn no_ffwd(cfg: &NetworkSimConfig) -> NetworkSimConfig {
    NetworkSimConfig {
        fast_forward: false,
        ..cfg.clone()
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(10);
    for (label, net, cfg) in fixtures() {
        group.bench_with_input(BenchmarkId::new("streaming", label), &(), |b, ()| {
            b.iter(|| simulate_network(black_box(&net), &cfg))
        });
        group.bench_with_input(BenchmarkId::new("materialized", label), &(), |b, ()| {
            b.iter(|| simulate_network_materialized(black_box(&net), &cfg))
        });
    }
    // The sparse fixture without the idle-span skip: the gap between this
    // and `streaming/sparse_long_horizon` is the fast-forward's win.
    let (sparse_net, sparse_cfg) = sparse_long_horizon();
    let sparse_off = no_ffwd(&sparse_cfg);
    group.bench_with_input(
        BenchmarkId::new("unskipped", "sparse_long_horizon"),
        &(),
        |b, ()| b.iter(|| simulate_network(black_box(&sparse_net), &sparse_off)),
    );
    let (churn_net, churn_cfg) = churn_ring();
    group.bench_with_input(BenchmarkId::new("streaming", "churn_ring"), &(), |b, ()| {
        b.iter(|| simulate_network(black_box(&churn_net), &churn_cfg))
    });
    let (mc_net, mc_cfg) = mc_churn();
    group.bench_with_input(BenchmarkId::new("streaming", "mc_churn"), &(), |b, ()| {
        b.iter(|| simulate_network(black_box(&mc_net), &mc_cfg))
    });
    group.finish();
}

criterion_group!(benches, bench);

/// Mean per-iteration nanoseconds of `f` over `iters` runs.
fn mean_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Writes the `BENCH_sim.json` perf baseline (the artifact CI uploads).
fn write_baseline(full: bool) {
    let iters = if full { 5 } else { 1 };
    let mut rows = Vec::new();
    for (label, net, cfg) in fixtures() {
        // Verdict check before timing: the engines must agree on every
        // static fixture or the speedup numbers are meaningless. The
        // default config fast-forwards idle spans, so the idle-span skip
        // sits inside this equality pin; the explicit unskipped run must
        // land on the identical result too.
        assert_eq!(
            simulate_network(&net, &cfg),
            simulate_network_materialized(&net, &cfg),
            "engine disagreement on {label}"
        );
        assert_eq!(
            simulate_network(&net, &cfg),
            simulate_network(&net, &no_ffwd(&cfg)),
            "fast-forward changed the result on {label}"
        );
        let streaming = mean_ns(iters, || {
            black_box(simulate_network(black_box(&net), &cfg));
        });
        let materialized = mean_ns(iters, || {
            black_box(simulate_network_materialized(black_box(&net), &cfg));
        });
        let unskipped = mean_ns(iters, || {
            black_box(simulate_network(black_box(&net), &no_ffwd(&cfg)));
        });
        rows.push(json::object([
            ("fixture", Value::Str(label.to_string())),
            ("horizon_ticks", Value::Int(cfg.horizon.ticks())),
            ("streaming_ns", Value::Float(streaming)),
            ("materialized_ns", Value::Float(materialized)),
            ("speedup", Value::Float(materialized / streaming)),
            ("unskipped_ns", Value::Float(unskipped)),
            ("ffwd_speedup", Value::Float(unskipped / streaming)),
        ]));
    }
    // Churn fixture: kernel-only (the reference is static-ring-gated);
    // the record pairs the loop under churn against the fixed-ring step
    // on the identical traffic so fixed-ring regressions stand out.
    let (churn_net, churn_cfg) = churn_ring();
    assert_eq!(
        simulate_network(&churn_net, &churn_cfg),
        simulate_network(&churn_net, &churn_cfg),
        "churn fixture must be deterministic"
    );
    let (static_net, static_cfg) = dense_long_horizon();
    let static_ns = mean_ns(iters, || {
        black_box(simulate_network(black_box(&static_net), &static_cfg));
    });
    let churn_ns = mean_ns(iters, || {
        black_box(simulate_network(black_box(&churn_net), &churn_cfg));
    });
    rows.push(json::object([
        ("fixture", Value::Str("churn_ring".to_string())),
        ("horizon_ticks", Value::Int(churn_cfg.horizon.ticks())),
        ("streaming_ns", Value::Float(churn_ns)),
        ("fixed_ring_ns", Value::Float(static_ns)),
        ("churn_overhead", Value::Float(churn_ns / static_ns)),
    ]));
    // Mode-controller fixture: on all-HI traffic the armed controller
    // must be a result-no-op (it may switch modes, but sheds nothing) —
    // asserted before timing. The recorded overhead then pairs the
    // mixed-criticality run against the churn-only loop on identical
    // traffic, isolating the mode machinery's per-visit cost.
    let (mc_net, mc_cfg) = mc_churn();
    let all_hi_cfg = NetworkSimConfig {
        mode: ModeSimConfig::enabled(),
        ..churn_cfg.clone()
    };
    assert_eq!(
        simulate_network(&churn_net, &churn_cfg),
        simulate_network(&churn_net, &all_hi_cfg),
        "armed controller must not change all-HI results"
    );
    assert_eq!(
        simulate_network(&mc_net, &mc_cfg),
        simulate_network(&mc_net, &mc_cfg),
        "mc_churn fixture must be deterministic"
    );
    let mc_ns = mean_ns(iters, || {
        black_box(simulate_network(black_box(&mc_net), &mc_cfg));
    });
    rows.push(json::object([
        ("fixture", Value::Str("mc_churn".to_string())),
        ("horizon_ticks", Value::Int(mc_cfg.horizon.ticks())),
        ("streaming_ns", Value::Float(mc_ns)),
        ("churn_only_ns", Value::Float(churn_ns)),
        ("mode_overhead", Value::Float(mc_ns / churn_ns)),
    ]));
    let doc = json::object([
        ("bench", Value::Str("sim_kernel".to_string())),
        ("samples_per_engine", Value::Int(iters as i64)),
        ("smoke_run", Value::Bool(!full)),
        ("fixtures", Value::Array(rows)),
    ]);
    let path = artifact::bench_json_path("BENCH_SIM_JSON", "BENCH_sim.json")
        .display()
        .to_string();
    match std::fs::write(&path, doc.pretty() + "\n") {
        Ok(()) => println!("[baseline] wrote {path}"),
        Err(e) => eprintln!("[baseline] cannot write {path}: {e}"),
    }
}

fn main() {
    benches();
    // Full measurement only under `cargo bench` (the harness passes
    // `--bench`); test/smoke invocations still emit a valid artifact.
    let full = std::env::args().any(|a| a == "--bench");
    write_baseline(full);
}
