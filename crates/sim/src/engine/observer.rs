//! The observer pipeline: pluggable sinks for simulation events.
//!
//! The simulation kernels do not aggregate anything themselves — they
//! emit a typed event stream, and every consumer (result assembly, event
//! tracing, response-time statistics, TRR statistics) is an [`Observer`]
//! attached to the run. Observers are passive: they may not perturb the
//! simulation, so a run with any observer set produces the same event
//! stream as a run with none.
//!
//! [`TickHistogram`] is the O(1)-memory aggregation primitive behind the
//! percentile observers: a log-bucketed histogram of tick values
//! (64 sub-buckets per octave, ≤ 1.6 % relative quantile error) whose
//! footprint is a fixed ~30 KB regardless of how many samples a
//! long-horizon run records.

use profirt_base::Time;

/// A passive sink for simulation events of type `E`.
///
/// `at` is the simulation instant the event was emitted at (for cycle
/// events this is the transmission start, matching the trace convention).
pub trait Observer<E> {
    /// Consumes one event.
    fn observe(&mut self, at: Time, event: &E);

    /// Consumes a compressed idle span: `span.rotations` repetitions of
    /// the one-rotation event pattern in `span.pattern`, the first
    /// starting at `span.start` and each subsequent one `span.period`
    /// later. The kernel only emits spans whose replay is event-for-event
    /// identical to what the unskipped loop would have produced, so the
    /// default implementation — literally replaying every rotation via
    /// [`replay_span`] — keeps any observer byte-correct with zero
    /// changes. Hot observers override this with O(1) batched ingestion;
    /// an override must be *semantically equal to the replay* for every
    /// possible span, not just the spans a particular kernel happens to
    /// produce.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, E>) {
        replay_span(self, span);
    }
}

/// A run of identical idle token rotations, compressed by the kernel's
/// idle fast-forward (see `sim::network::kernel`). The concatenation of
/// `rotations` copies of `pattern` — copy `r` shifted by `start +
/// r·period` — is exactly the event stream the unskipped loop would have
/// emitted over the span.
#[derive(Debug)]
pub struct IdleSpan<'a, E> {
    /// Start instant of the first rotation.
    pub start: Time,
    /// Duration of one rotation (the full ring cost).
    pub period: Time,
    /// Number of rotations compressed into this span (≥ 1).
    pub rotations: u64,
    /// Event pattern of one rotation as `(offset, event)` pairs, offsets
    /// relative to the rotation's start and nondecreasing.
    pub pattern: &'a [(Time, E)],
}

/// Replays `span` event by event into `obs` — the reference semantics of
/// [`Observer::on_idle_span`], and its default implementation. O(1)
/// overrides are tested against this replay for equivalence.
pub fn replay_span<E, O: Observer<E> + ?Sized>(obs: &mut O, span: &IdleSpan<'_, E>) {
    let mut base = span.start;
    for _ in 0..span.rotations {
        for (offset, event) in span.pattern {
            obs.observe(base + *offset, event);
        }
        base += span.period;
    }
}

/// Linear buckets below `2^LINEAR_BITS`.
const LINEAR_BITS: u32 = 7;
/// Sub-bucket resolution: `2^SUB_BITS` buckets per octave.
const SUB_BITS: u32 = 6;
const LINEAR_BUCKETS: usize = 1 << LINEAR_BITS; // 128
const SUB_BUCKETS: usize = 1 << SUB_BITS; // 64
/// Octaves LINEAR_BITS..=62 (i64 non-negative range).
const OCTAVES: usize = 63 - LINEAR_BITS as usize;
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB_BUCKETS;

/// A log-bucketed histogram of non-negative tick values with constant
/// memory and bounded relative quantile error.
///
/// Values below 128 are recorded exactly; larger values land in one of 64
/// sub-buckets per power-of-two octave, so any reported quantile is an
/// upper bound at most `1/64` above the true value. The exact minimum,
/// maximum, count, and sum are tracked separately (`p0`/`p100` are
/// therefore exact). Negative samples are clamped to zero.
#[derive(Clone)]
pub struct TickHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: i128,
    min: i64,
    max: i64,
}

impl std::fmt::Debug for TickHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for TickHistogram {
    fn default() -> Self {
        TickHistogram::new()
    }
}

/// Bucket index of a non-negative value.
fn bucket_of(v: i64) -> usize {
    let v = v as u64;
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= LINEAR_BITS
    let sub = ((v >> (octave - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    LINEAR_BUCKETS + (octave - LINEAR_BITS) as usize * SUB_BUCKETS + sub
}

/// Largest value mapping into bucket `index` (the reported quantile
/// representative, making every quantile an upper bound).
fn bucket_upper(index: usize) -> i64 {
    if index < LINEAR_BUCKETS {
        return index as i64;
    }
    let rel = index - LINEAR_BUCKETS;
    let octave = LINEAR_BITS + (rel / SUB_BUCKETS) as u32;
    let sub = (rel % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let base = (SUB_BUCKETS as u64 + sub) * width;
    (base + width - 1) as i64
}

impl TickHistogram {
    /// An empty histogram.
    pub fn new() -> TickHistogram {
        TickHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: 0,
        }
    }

    /// Records one sample (negative values clamp to zero).
    pub fn record(&mut self, value: Time) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in O(1) — the run-length ingestion
    /// path of the idle fast-forward (`n` equal TRR measurements cost one
    /// bucket increment, not `n`). Exactly equivalent to calling
    /// [`TickHistogram::record`] `n` times; a no-op when `n == 0`.
    pub fn record_n(&mut self, value: Time, n: u64) {
        if n == 0 {
            return;
        }
        let v = value.ticks().max(0);
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum += v as i128 * n as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` to `self` — exactly equivalent to
    /// recording them one by one (bucket counts, count and sum add; the
    /// extremes combine). Merging an empty histogram is a no-op.
    pub fn merge(&mut self, other: &TickHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact largest recorded sample (zero when empty).
    pub fn max(&self) -> Time {
        Time::new(if self.count == 0 { 0 } else { self.max })
    }

    /// Exact smallest recorded sample (zero when empty).
    pub fn min(&self) -> Time {
        Time::new(if self.count == 0 { 0 } else { self.min })
    }

    /// Mean of the recorded samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`, nearest-rank) as a value upper
    /// bound, clamped to the exact recorded extremes. Zero when empty.
    pub fn quantile(&self, q: f64) -> Time {
        if self.count == 0 {
            return Time::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Time::new(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Time::new(self.max)
    }

    /// The standard summary of this histogram.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Fixed summary statistics extracted from a [`TickHistogram`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact minimum (zero when empty).
    pub min: Time,
    /// Exact maximum (zero when empty).
    pub max: Time,
    /// Mean (zero when empty).
    pub mean: f64,
    /// Median upper bound.
    pub p50: Time,
    /// 90th-percentile upper bound.
    pub p90: Time,
    /// 95th-percentile upper bound.
    pub p95: Time,
    /// 99th-percentile upper bound.
    pub p99: Time,
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = TickHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), t(0));
        assert_eq!(h.min(), t(0));
        assert_eq!(h.quantile(0.99), t(0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = TickHistogram::new();
        for v in 0..100 {
            h.record(t(v));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), t(0));
        assert_eq!(h.max(), t(99));
        assert_eq!(h.quantile(0.5), t(49));
        assert_eq!(h.quantile(1.0), t(99));
        assert_eq!(h.quantile(0.0), t(0));
        assert!((h.mean() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_tight_upper_bounds() {
        let mut h = TickHistogram::new();
        let values: Vec<i64> = (0..10_000).map(|i| 37 + i * 313).collect();
        for &v in &values {
            h.record(t(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let exact = sorted[rank] as f64;
            let approx = h.quantile(q).ticks() as f64;
            assert!(approx >= exact, "q{q}: {approx} < exact {exact}");
            assert!(
                approx <= exact * (1.0 + 1.0 / 64.0) + 1.0,
                "q{q}: {approx} too far above exact {exact}"
            );
        }
        // Extremes stay exact.
        assert_eq!(h.max().ticks(), *sorted.last().unwrap());
        assert_eq!(h.min().ticks(), sorted[0]);
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = TickHistogram::new();
        h.record(t(i64::MAX));
        h.record(t(i64::MAX - 1));
        h.record(t(1));
        assert_eq!(h.max(), t(i64::MAX));
        assert_eq!(h.quantile(1.0), t(i64::MAX));
        assert_eq!(h.quantile(0.01), t(1));
    }

    #[test]
    fn negative_samples_clamp_to_zero() {
        let mut h = TickHistogram::new();
        h.record(t(-5));
        assert_eq!(h.min(), t(0));
        assert_eq!(h.max(), t(0));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn bucket_roundtrip_upper_bound_property() {
        // Every value must land in a bucket whose upper bound is >= the
        // value and within 1/64 relative error.
        for v in [
            0i64,
            1,
            127,
            128,
            129,
            1_000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            i64::MAX / 2,
            i64::MAX,
        ] {
            let ub = bucket_upper(bucket_of(v));
            assert!(ub >= v, "upper {ub} < value {v}");
            assert!(
                (ub as u128) <= (v as u128) + (v as u128) / 64 + 1,
                "upper {ub} too loose for {v}"
            );
        }
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut one_by_one = TickHistogram::new();
        let mut batched = TickHistogram::new();
        for &(v, n) in &[(0i64, 3u64), (127, 5), (1_000, 64), (-4, 2), (1 << 40, 7)] {
            for _ in 0..n {
                one_by_one.record(t(v));
            }
            batched.record_n(t(v), n);
        }
        batched.record_n(t(99), 0); // no-op
        assert_eq!(one_by_one.count(), batched.count());
        assert_eq!(one_by_one.min(), batched.min());
        assert_eq!(one_by_one.max(), batched.max());
        assert_eq!(one_by_one.mean(), batched.mean());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one_by_one.quantile(q), batched.quantile(q));
        }
    }

    #[test]
    fn merge_equals_recording_every_sample_of_both() {
        let (left, right): (&[i64], &[i64]) = (&[0, 5, 127, 1_000, -3], &[128, 5, 1 << 40, 999]);
        let mut merged = TickHistogram::new();
        let mut other = TickHistogram::new();
        let mut all = TickHistogram::new();
        for &v in left {
            merged.record(t(v));
            all.record(t(v));
        }
        for &v in right {
            other.record(t(v));
            all.record(t(v));
        }
        merged.merge(&other);
        assert_eq!(merged.summary(), all.summary());
        assert_eq!(merged.counts[..], all.counts[..]);
        assert_eq!(merged.sum, all.sum);

        // An empty histogram is the identity on both sides.
        let before = merged.summary();
        merged.merge(&TickHistogram::new());
        assert_eq!(merged.summary(), before);
        let mut empty = TickHistogram::new();
        empty.merge(&all);
        assert_eq!(empty.summary(), all.summary());
        assert_eq!(empty.counts[..], all.counts[..]);
        let mut nothing = TickHistogram::new();
        nothing.merge(&TickHistogram::new());
        assert_eq!(nothing.summary(), TickHistogram::new().summary());
        assert_eq!((nothing.min, nothing.max), (i64::MAX, 0));
    }

    #[test]
    fn default_on_idle_span_replays_every_rotation() {
        struct Collect(Vec<(Time, u32)>);
        impl Observer<u32> for Collect {
            fn observe(&mut self, at: Time, event: &u32) {
                self.0.push((at, *event));
            }
        }
        let pattern = [(t(0), 7u32), (t(5), 8), (t(5), 9)];
        let mut c = Collect(Vec::new());
        c.on_idle_span(&IdleSpan {
            start: t(100),
            period: t(10),
            rotations: 3,
            pattern: &pattern,
        });
        assert_eq!(
            c.0,
            vec![
                (t(100), 7),
                (t(105), 8),
                (t(105), 9),
                (t(110), 7),
                (t(115), 8),
                (t(115), 9),
                (t(120), 7),
                (t(125), 8),
                (t(125), 9),
            ]
        );
    }

    #[test]
    fn summary_is_consistent() {
        let mut h = TickHistogram::new();
        for v in 1..=1000 {
            h.record(t(v));
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
        assert!(s.min <= s.p50);
    }
}
