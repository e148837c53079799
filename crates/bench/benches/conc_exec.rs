//! `conc_exec` bench: the work-stealing executor core behind
//! `try_par_map_seeds` against the channel-fed worker pool it replaced, on
//! a campaign-shaped workload (many independent seeds, each evaluating
//! a small schedulability analysis).
//!
//! The reference implementation below is the previous runner in shape:
//! one channel distributes seeds to scoped workers that share its
//! receiver behind a mutex, and results land in per-seed mutex slots. The executor path is
//! `profirt_experiments::runner::try_par_map_seeds`, now mounted on
//! `profirt_conc::exec::Core` (sharded deques + stealing + the
//! model-checked park protocol).
//!
//! Besides the criterion group, the bench writes `BENCH_conc.json`
//! (path from `profirt_base::artifact`: `BENCH_CONC_JSON`, else
//! `CARGO_TARGET_DIR`, else the workspace `target/`) — the
//! executor-side perf baseline artifact CI uploads alongside
//! `BENCH_sim`/`BENCH_analysis`, recording per-worker-count mean ns for
//! both pools. Before timing, both paths are checked for identical
//! seed-ordered results, so the comparison is always at equal answers.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use profirt_base::artifact;
use profirt_base::json::{self, Value};
use profirt_bench::task_set;
use profirt_experiments::runner::try_par_map_seeds;
use profirt_sched::edf::{edf_response_times, EdfRtaConfig};

const SEEDS: u64 = 96;

/// One campaign-shaped work unit: a seed-dependent task set through the
/// EDF response-time analysis, folded to a checksum.
fn unit(seed: u64) -> u64 {
    let n = 4 + (seed % 5) as usize;
    let u = 0.55 + (seed % 32) as f64 * 0.01;
    let set = task_set(n, u);
    match edf_response_times(&set, &EdfRtaConfig::default()) {
        Ok((_, rts)) => rts.iter().fold(seed, |acc, r| {
            acc.wrapping_mul(31).wrapping_add(r.wcrt.ticks() as u64)
        }),
        Err(_) => seed,
    }
}

/// The retained reference: the channel-fed pool the seed runner used
/// before it moved onto the executor core.
fn channel_pool(n: u64, workers: usize) -> Vec<u64> {
    let workers = workers.clamp(1, n.max(1) as usize);
    let (tx, rx) = mpsc::channel::<u64>();
    for seed in 0..n {
        tx.send(seed).expect("channel open");
    }
    drop(tx);
    let rx = Mutex::new(rx);
    let mut results: Vec<Option<u64>> = (0..n).map(|_| None).collect();
    let slots: Vec<_> = results.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (rx, slots) = (&rx, &slots);
            scope.spawn(move || loop {
                // A `let` statement drops the receiver guard before the
                // unit runs, so workers only serialize on the hand-off.
                let next = rx.lock().expect("receiver lock").recv();
                let Ok(seed) = next else { break };
                **slots[seed as usize].lock().expect("slot lock") = Some(unit(seed));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

fn executor_pool(n: u64, workers: usize) -> Vec<u64> {
    try_par_map_seeds(n, workers, unit).expect("no unit panics")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("conc_exec");
    group.sample_size(10);
    for workers in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("executor", workers), &workers, |b, &w| {
            b.iter(|| black_box(executor_pool(SEEDS, w)))
        });
        group.bench_with_input(
            BenchmarkId::new("channel_pool", workers),
            &workers,
            |b, &w| b.iter(|| black_box(channel_pool(SEEDS, w))),
        );
    }
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

/// Checks both pools produce identical seed-ordered results, then times
/// them and writes the `BENCH_conc.json` perf baseline.
fn write_baseline(full: bool) {
    let iters = if full { 20 } else { 2 };

    // Equality gate across worker counts — including the serial pool,
    // which doubles as the ground truth for both.
    let reference: Vec<u64> = (0..SEEDS).map(unit).collect();
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(
            executor_pool(SEEDS, workers),
            reference,
            "executor results diverge at {workers} workers"
        );
        assert_eq!(
            channel_pool(SEEDS, workers),
            reference,
            "channel pool results diverge at {workers} workers"
        );
    }

    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let exec_ns = mean_ns(iters, || {
            black_box(executor_pool(SEEDS, workers));
        });
        let chan_ns = mean_ns(iters, || {
            black_box(channel_pool(SEEDS, workers));
        });
        rows.push(json::object([
            ("workers", Value::Int(workers as i64)),
            ("executor_ns", Value::Float(exec_ns)),
            ("channel_pool_ns", Value::Float(chan_ns)),
            ("speedup", Value::Float(chan_ns / exec_ns)),
        ]));
    }

    let doc = json::object([
        ("bench", Value::Str("conc_exec".to_string())),
        ("seeds", Value::Int(SEEDS as i64)),
        ("samples_per_path", Value::Int(iters as i64)),
        ("smoke_run", Value::Bool(!full)),
        ("comparisons", Value::Array(rows)),
    ]);
    let path = artifact::bench_json_path("BENCH_CONC_JSON", "BENCH_conc.json")
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
