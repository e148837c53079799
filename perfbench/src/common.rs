//! Shared pieces of the workloads: the run options, the result record,
//! order statistics, the span tracer and the host facts recorded with
//! every result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line options every workload receives.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window of the timed phase.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Directory for artifacts and span dumps.
    pub out_dir: PathBuf,
}

/// What one workload run reports: operation counts plus named metrics
/// (value, unit).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the run.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Why checks failed (first few), reported on stderr.
    pub notes: Vec<String>,
    /// Run facts printed with the result (sample counts, offered rates).
    pub info: Vec<(&'static str, profirt_base::json::Value)>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records the end-to-end metrics. With `corrected`, times are divided
    /// and rates multiplied by the host slowdown, so they read as on the
    /// undisturbed reference host; the measured figures and the slowdown
    /// go to the info line either way. Set-up time is recorded as given:
    /// [`time_setup`] corrects each sample on its own.
    pub fn set_end_to_end(&mut self, m: &EndToEnd, speed: &HostSpeed, corrected: bool) {
        use profirt_base::json::Value;
        let sd = if corrected { speed.slowdown() } else { 1.0 };
        self.set("setup_s", m.setup_s, "s");
        self.set("units_per_s", m.units_per_s * sd, "units/s");
        self.set("latency_p50_ms", m.lo_ms[0] / sd, "ms");
        self.set("latency_p99_ms", m.lo_ms[1] / sd, "ms");
        self.set("latency_p50_ms.hi", m.hi_ms[0] / sd, "ms");
        self.set("latency_p99_ms.hi", m.hi_ms[1] / sd, "ms");
        self.note_info("host_slowdown", Value::Float(speed.slowdown()));
        self.note_info("speed_corrected", Value::Bool(corrected));
        let raw = [
            m.setup_s,
            m.units_per_s,
            m.lo_ms[0],
            m.lo_ms[1],
            m.hi_ms[0],
            m.hi_ms[1],
        ];
        self.note_info(
            "measured_setup_units_lo_hi",
            Value::Array(raw.into_iter().map(Value::Float).collect()),
        );
    }

    /// Records one run fact for the info line.
    pub fn note_info(&mut self, key: &'static str, value: profirt_base::json::Value) {
        self.info.push((key, value));
    }

    /// Counts one failed check, keeping the first few reasons.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// One run's end-to-end figures as measured: set-up seconds, work units
/// per second, and (p50, p99) milliseconds of the light and heavy halves.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Work units per second.
    pub units_per_s: f64,
    /// (p50, p99) latency of the light half, ms.
    pub lo_ms: [f64; 2],
    /// (p50, p99) latency of the heavy half, ms.
    pub hi_ms: [f64; 2],
}

/// (p50, p99) of a sample.
pub fn p50_p99(xs: &[f64]) -> [f64; 2] {
    [percentile(xs, 50.0), percentile(xs, 99.0)]
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds in a duration, as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `reps` back-to-back calls of `f` as one set-up sample and
/// returns the fastest call's time in seconds with the last call's value.
/// A burst of short calls keeps a sample from resting on one call that
/// another tenant of the host preempted; workloads take one sample at
/// start and more between timed repetitions, so the reported median
/// spans the whole run.
///
/// With `calibrate`, each call follows one run of the calibration kernel
/// and the time is divided by the slowdown of the fastest of those runs.
/// On a shared host the speed changes from one second to the next (the
/// same spec parse and plan took 0.14 ms and 0.27 ms a few seconds apart
/// in one process, the kernel moving with it), so a sub-millisecond
/// set-up is corrected by the host's speed at that moment, not the run's
/// best.
pub fn time_setup<T, E>(
    reps: usize,
    calibrate: bool,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(f64, T), E> {
    let mut speed = HostSpeed::default();
    let mut call = || {
        if calibrate {
            speed.sample(1);
        }
        let t0 = Instant::now();
        let value = f()?;
        Ok((secs(t0.elapsed()), value))
    };
    let (mut best, mut last) = call()?;
    for _ in 1..reps {
        let (t, value) = call()?;
        best = best.min(t);
        // The previous value is dropped outside the timing.
        last = value;
    }
    let slowdown = if calibrate { speed.slowdown() } else { 1.0 };
    Ok((best / slowdown, last))
}

/// Set-up samples wanted per run.
pub const SETUP_SAMPLES: usize = 9;

/// Whether a workload that has taken `taken` set-up samples, `elapsed`
/// seconds into a `window`-second run, takes the next one: samples are
/// spread evenly over the window, so a slow phase of the host moves few
/// of them.
pub fn setup_due(taken: usize, elapsed: f64, window: f64) -> bool {
    taken < SETUP_SAMPLES && elapsed >= taken as f64 * window / SETUP_SAMPLES as f64
}

/// Untraced/traced alternations of a traced run; each side keeps its
/// fastest round, so `trace_overhead` compares like with like.
pub const TRACE_ROUNDS: usize = 2;

/// Seconds one run of the calibration kernel takes on an undisturbed
/// core of the reference host (a 2-vCPU x86-64 VM): the scale of
/// [`HostSpeed::slowdown`].
pub const CALIBRATION_REF_S: f64 = 2.0e-4;

/// Words the calibration kernel fills, sorts and hashes (64 KiB, reused,
/// so a run allocates nothing).
const CALIBRATION_WORDS: u64 = 8_192;

/// The host's speed as the fastest run of a fixed CPU-bound kernel
/// (fill, sort, hash) seen during a workload run. On a shared host the
/// same binary runs up to ~1.7× slower for minutes at a time; timings
/// divided by [`HostSpeed::slowdown`] stay comparable across those
/// phases.
#[derive(Debug)]
pub struct HostSpeed {
    best_s: f64,
    buf: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            best_s: f64::INFINITY,
            buf: Vec::with_capacity(CALIBRATION_WORDS as usize),
        }
    }
}

impl HostSpeed {
    /// Runs the calibration kernel `n` times, keeping the fastest run.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = Instant::now();
            self.buf.clear();
            self.buf
                .extend((0..CALIBRATION_WORDS).map(|i| mix(i, 0xCA11B)));
            self.buf.sort_unstable();
            let h = self
                .buf
                .iter()
                .fold(FNV_OFFSET, |h, &x| fnv1a(h, &x.to_le_bytes()));
            std::hint::black_box(h);
            self.best_s = self.best_s.min(secs(t0.elapsed()));
        }
    }

    /// The fastest kernel run over its reference time (1 on an
    /// undisturbed reference host, above 1 on a slower or busier one).
    pub fn slowdown(&self) -> f64 {
        self.best_s / CALIBRATION_REF_S
    }
}

/// The FNV-1a 64 offset basis: the start value of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`, continuing from `h` (start at [`FNV_OFFSET`]):
/// the pinned-digest function of the output checks, and the campaign
/// evaluator's generation-seed hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git
/// (`"unknown"` outside a git checkout).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`workload.gen`, `sim.stats`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder around calls into the layers. Spans nest
/// through an explicit stack; nothing is written until [`Tracer::dump`].
/// A tracer made by [`Tracer::off`] records nothing, so one code path
/// serves the traced run and its untraced twin.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer that runs every span's body without recording it.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Duration of span `idx`, in seconds.
    fn dur(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur(i))
            .sum()
    }

    /// Total duration per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.dur(i);
        }
        out
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name: each span's duration minus its children's
    /// (children nest inside their parent on one thread, so the parts
    /// they cover are their durations).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.dur(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.dur(i) - child[i];
        }
        out
    }

    /// Per-span durations (seconds) of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur(i))
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut text = String::with_capacity(self.spans.len() * 64);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
