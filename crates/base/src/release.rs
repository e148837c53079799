//! Lazy release generation for the streaming simulation kernel.
//!
//! The simulators used to pre-materialize every request release over the
//! whole horizon into sorted `Vec`s, so memory grew with
//! `horizon × sources`. This module provides the lazy counterpart: a
//! [`ReleaseGen`] yields `(ready, item)` pairs **on demand** in
//! nondecreasing `ready` order, so a simulation holds only O(sources)
//! state at any horizon.
//!
//! * [`PeriodicReleases`] — one periodic source (first release at
//!   `offset`, then every `period` until `horizon`), with optional release
//!   jitter injection ([`JitterMode`]). Jitter can reorder raw arrivals
//!   (`J > T`); an internal look-ahead buffer of at most `⌈J/T⌉ + 1`
//!   entries re-establishes sorted emission, which keeps per-source memory
//!   a constant independent of the horizon.
//! * [`MergedReleases`] — a deterministic k-way merge of several
//!   generators: items pop ordered by `(ready, source index)`, with each
//!   source's internal order preserved. This reproduces exactly the order
//!   a stable sort over source-major materialized vectors would produce,
//!   which is what makes the streaming simulators byte-identical to the
//!   materialized reference.
//!
//! The enums [`OffsetMode`] and [`JitterMode`] describe how first releases
//! are placed and how per-request jitter is drawn; they live here (rather
//! than in the simulator crate) so workload-level generator constructors
//! can be built without depending on the simulators.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rng::Prng;
use crate::time::Time;

/// How first releases are placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OffsetMode {
    /// All sources release synchronously at time zero.
    #[default]
    Synchronous,
    /// Uniformly random first offsets in `[0, T)` per source (seeded).
    Random,
}

/// How per-release jitter is injected (releases become *ready* at
/// `arrival + jitter`, with `jitter ∈ [0, J]`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JitterMode {
    /// No jitter (all releases ready at arrival).
    #[default]
    None,
    /// Adversarial: the first release of each source is maximally late
    /// (`+J`), subsequent ones on time — the pattern that realises the
    /// back-to-back interference the analyses charge for.
    FirstLate,
    /// Uniformly random in `[0, J]` per release (seeded).
    Random,
}

/// A lazy source of timed releases, emitted in nondecreasing `ready`
/// order.
///
/// Implementations must be *exhaustive iterators*: once `next_release`
/// returns `None` it keeps returning `None`.
pub trait ReleaseGen {
    /// The payload attached to each release.
    type Item;

    /// Ready time of the next release without consuming it.
    ///
    /// Takes `&self` — the same shape as [`MergedReleases::peek_ready`] —
    /// so callers can probe "when is the next release?" on any generator,
    /// single source or merge, without mutable access (the idle fast-
    /// forward computes skip bounds from exactly this probe). In exchange,
    /// implementations must keep their look-ahead *primed*: generate
    /// enough at construction and after each `next_release` that peeking
    /// is a pure read.
    fn peek_ready(&self) -> Option<Time>;

    /// Consumes and returns the next `(ready, item)` release.
    fn next_release(&mut self) -> Option<(Time, Self::Item)>;

    /// Number of releases currently buffered inside the generator (the
    /// look-ahead needed to emit in sorted order). Used by the kernel's
    /// memory instrumentation; O(1) for jitter-free sources.
    fn buffered(&self) -> usize {
        0
    }
}

/// One periodic release source: arrivals at `offset, offset + T, …`
/// strictly before `horizon`, each made ready at `arrival + jitter`.
///
/// Yields the zero-based arrival index as its item so wrappers can attach
/// their own payloads.
#[derive(Clone, Debug)]
pub struct PeriodicReleases {
    next_arrival: Time,
    period: Time,
    horizon: Time,
    jitter: Time,
    mode: JitterMode,
    rng: Option<Prng>,
    next_index: u64,
    /// Look-ahead buffer ordered by `(ready, arrival index)`.
    buffer: BinaryHeap<Reverse<(Time, u64)>>,
}

impl PeriodicReleases {
    /// A jitter-free periodic source.
    ///
    /// # Panics
    /// Panics on a non-positive period (the source would never advance).
    pub fn new(offset: Time, period: Time, horizon: Time) -> PeriodicReleases {
        PeriodicReleases::with_jitter(offset, period, horizon, Time::ZERO, JitterMode::None, None)
    }

    /// A periodic source with jitter injection.
    ///
    /// `rng` is consulted only for [`JitterMode::Random`] with a positive
    /// `jitter` bound; it may be `None` otherwise.
    ///
    /// # Panics
    /// Panics on a non-positive period, a negative jitter bound, or a
    /// missing RNG when random jitter is requested.
    pub fn with_jitter(
        offset: Time,
        period: Time,
        horizon: Time,
        jitter: Time,
        mode: JitterMode,
        rng: Option<Prng>,
    ) -> PeriodicReleases {
        assert!(period.is_positive(), "release period must be positive");
        assert!(!jitter.is_negative(), "jitter bound must be non-negative");
        assert!(
            !(mode == JitterMode::Random && jitter.is_positive() && rng.is_none()),
            "random jitter requires a seeded RNG"
        );
        let mut gen = PeriodicReleases {
            next_arrival: offset,
            period,
            horizon,
            jitter,
            mode,
            rng,
            next_index: 0,
            buffer: BinaryHeap::new(),
        };
        // Prime the look-ahead so `peek_ready` is a pure read (the
        // `ReleaseGen::peek_ready` contract). Jitter draws stay in
        // arrival-index order, so the per-source RNG stream is unchanged —
        // draws just happen at construction instead of first peek.
        gen.fill();
        gen
    }

    /// Draws the jitter for arrival `index` (consuming RNG state for
    /// random mode only).
    fn draw_jitter(&mut self, index: u64) -> Time {
        match self.mode {
            JitterMode::None => Time::ZERO,
            JitterMode::FirstLate => {
                if index == 0 {
                    self.jitter
                } else {
                    Time::ZERO
                }
            }
            JitterMode::Random => match &mut self.rng {
                Some(rng) => rng.time_in(self.jitter),
                None => Time::ZERO,
            },
        }
    }

    /// Generates raw arrivals into the buffer until the earliest buffered
    /// ready time is safe to emit: every future arrival `a` satisfies
    /// `ready(a) >= a >= next_arrival`, so once `next_arrival` reaches the
    /// buffer minimum no earlier release can appear.
    fn fill(&mut self) {
        loop {
            if self.next_arrival >= self.horizon {
                return;
            }
            if let Some(&Reverse((ready, _))) = self.buffer.peek() {
                if self.next_arrival >= ready {
                    return;
                }
            }
            let index = self.next_index;
            let jitter = self.draw_jitter(index);
            // Saturating: a release that could only be ready past
            // `Time::MAX` is never served before the horizon.
            let ready = self.next_arrival.saturating_add(jitter);
            self.buffer.push(Reverse((ready, index)));
            self.next_index += 1;
            // An arrival past `Time::MAX` lies past every horizon, so a
            // saturated `next_arrival` stops the source.
            self.next_arrival = self.next_arrival.saturating_add(self.period);
        }
    }
}

impl ReleaseGen for PeriodicReleases {
    type Item = u64;

    fn peek_ready(&self) -> Option<Time> {
        // The buffer is primed at construction and after every pop, so
        // its minimum is always the true next ready time.
        self.buffer.peek().map(|&Reverse((ready, _))| ready)
    }

    fn next_release(&mut self) -> Option<(Time, u64)> {
        let popped = self
            .buffer
            .pop()
            .map(|Reverse((ready, index))| (ready, index));
        self.fill(); // re-prime the look-ahead for the next peek
        popped
    }

    fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

/// A deterministic k-way merge of release generators.
///
/// Pops globally ordered by `(ready, source index)` — one head per
/// source, so the `(ready, source)` heap key is unique and totally
/// ordered. Each source's own emission order is preserved. Memory is
/// O(sources) plus whatever the sources buffer internally.
#[derive(Debug)]
pub struct MergedReleases<G: ReleaseGen> {
    sources: Vec<G>,
    heads: Vec<Option<(Time, G::Item)>>,
    order: BinaryHeap<Reverse<(Time, usize)>>,
}

impl<G: ReleaseGen> MergedReleases<G> {
    /// Merges `sources` (source index = position in the vector).
    pub fn new(sources: Vec<G>) -> MergedReleases<G> {
        let mut merged = MergedReleases {
            heads: sources.iter().map(|_| None).collect(),
            sources,
            order: BinaryHeap::new(),
        };
        for i in 0..merged.sources.len() {
            merged.refill(i);
        }
        merged
    }

    /// Pulls the next release of source `i` into its head slot.
    fn refill(&mut self, i: usize) {
        debug_assert!(self.heads[i].is_none());
        if let Some((ready, item)) = self.sources[i].next_release() {
            self.order.push(Reverse((ready, i)));
            self.heads[i] = Some((ready, item));
        }
    }

    /// Ready time of the next release across all sources.
    pub fn peek_ready(&self) -> Option<Time> {
        self.order.peek().map(|&Reverse((ready, _))| ready)
    }

    /// Consumes and returns the next `(ready, item)` release.
    pub fn next_release(&mut self) -> Option<(Time, G::Item)> {
        let Reverse((ready, i)) = self.order.pop()?;
        let (_, item) = self.heads[i].take().expect("head present for popped slot");
        self.refill(i);
        Some((ready, item))
    }

    /// Total releases buffered across the merge: one head per live source
    /// plus the sources' internal look-ahead buffers. This is the number
    /// the long-horizon memory contract bounds by O(sources).
    pub fn buffered(&self) -> usize {
        self.order.len() + self.sources.iter().map(|s| s.buffered()).sum::<usize>()
    }

    /// Drains the remaining releases into a vector (the materialized
    /// view; used by the reference simulators and tests).
    pub fn drain_to_vec(&mut self) -> Vec<(Time, G::Item)> {
        let mut out = Vec::new();
        while let Some(r) = self.next_release() {
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::t;

    fn drain(mut g: impl ReleaseGen<Item = u64>) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while let Some(r) = g.next_release() {
            let peeked = out.len(); // peek consistency checked below
            let _ = peeked;
            out.push(r);
        }
        out
    }

    #[test]
    fn periodic_without_jitter() {
        let g = PeriodicReleases::new(t(5), t(10), t(40));
        assert_eq!(
            drain(g),
            vec![(t(5), 0), (t(15), 1), (t(25), 2), (t(35), 3)]
        );
    }

    #[test]
    fn horizon_excludes_boundary_arrival() {
        let g = PeriodicReleases::new(t(0), t(10), t(30));
        // Arrivals strictly before the horizon: 0, 10, 20.
        assert_eq!(drain(g).len(), 3);
    }

    #[test]
    fn arrivals_past_the_tick_range_end_the_source() {
        // 0 and 5e18 lie before the horizon; 1e19 would wrap i64.
        let period = t(5_000_000_000_000_000_000);
        let g = PeriodicReleases::new(Time::ZERO, period, t(8_000_000_000_000_000_000));
        assert_eq!(drain(g), vec![(Time::ZERO, 0), (period, 1)]);
        let g = PeriodicReleases::new(Time::ZERO, period, Time::MAX);
        assert_eq!(drain(g).len(), 2);
    }

    #[test]
    fn first_late_jitter_delays_only_first() {
        let g =
            PeriodicReleases::with_jitter(t(0), t(10), t(40), t(3), JitterMode::FirstLate, None);
        assert_eq!(
            drain(g),
            vec![(t(3), 0), (t(10), 1), (t(20), 2), (t(30), 3)]
        );
    }

    #[test]
    fn random_jitter_emits_sorted_even_when_j_exceeds_t() {
        // J = 50 over T = 10: raw ready times invert; emission must not.
        let rng = Prng::seed_from_u64(7);
        let g = PeriodicReleases::with_jitter(
            t(0),
            t(10),
            t(500),
            t(50),
            JitterMode::Random,
            Some(rng),
        );
        let out = drain(g);
        assert_eq!(out.len(), 50);
        for w in out.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
        // Equal ready times keep arrival order.
        for w in out.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn random_jitter_matches_eager_stable_sort() {
        // The lazy emission must equal materialize-then-stable-sort.
        let mk = || {
            PeriodicReleases::with_jitter(
                t(2),
                t(7),
                t(300),
                t(20),
                JitterMode::Random,
                Some(Prng::seed_from_u64(99)),
            )
        };
        let lazy = drain(mk());
        let mut eager: Vec<(Time, u64)> = Vec::new();
        let mut rng = Prng::seed_from_u64(99);
        let mut arrival = t(2);
        let mut idx = 0u64;
        while arrival < t(300) {
            eager.push((arrival + rng.time_in(t(20)), idx));
            arrival += t(7);
            idx += 1;
        }
        eager.sort_by_key(|&(ready, _)| ready); // stable: ties keep arrival order
        assert_eq!(lazy, eager);
    }

    #[test]
    fn buffer_stays_bounded_by_jitter_over_period() {
        let rng = Prng::seed_from_u64(3);
        let mut g = PeriodicReleases::with_jitter(
            t(0),
            t(10),
            t(100_000),
            t(45),
            JitterMode::Random,
            Some(rng),
        );
        let mut peak = 0usize;
        while g.next_release().is_some() {
            peak = peak.max(g.buffered());
        }
        // ⌈J/T⌉ + 1 = 6 plus the re-primed slot the `peek_ready`
        // invariant keeps filled after each pop, plus one of slack.
        assert!(peak <= 8, "peak buffer {peak} not O(J/T)");
    }

    #[test]
    fn peek_agrees_with_next() {
        let mut g = PeriodicReleases::new(t(1), t(4), t(20));
        while let Some(ready) = g.peek_ready() {
            let (r, _) = g.next_release().unwrap();
            assert_eq!(r, ready);
        }
        assert!(g.next_release().is_none());
        assert!(g.next_release().is_none(), "stays exhausted");
    }

    #[test]
    fn merge_orders_by_ready_then_source() {
        let a = PeriodicReleases::new(t(0), t(10), t(30)); // 0, 10, 20
        let b = PeriodicReleases::new(t(0), t(5), t(21)); // 0, 5, 10, 15, 20
        let mut m = MergedReleases::new(vec![a, b]);
        let order: Vec<(i64, usize)> = std::iter::from_fn(|| m.next_release())
            .map(|(ready, _)| (ready.ticks(), 0))
            .collect();
        let readys: Vec<i64> = order.iter().map(|&(r, _)| r).collect();
        assert_eq!(readys, vec![0, 0, 5, 10, 10, 15, 20, 20]);
    }

    /// Test adaptor attaching the source identity to every release.
    struct Tagged {
        source: usize,
        inner: PeriodicReleases,
    }

    impl ReleaseGen for Tagged {
        type Item = (usize, u64);

        fn peek_ready(&self) -> Option<Time> {
            self.inner.peek_ready()
        }

        fn next_release(&mut self) -> Option<(Time, (usize, u64))> {
            self.inner
                .next_release()
                .map(|(ready, idx)| (ready, (self.source, idx)))
        }

        fn buffered(&self) -> usize {
            self.inner.buffered()
        }
    }

    #[test]
    fn merge_tie_break_prefers_lower_source_index() {
        let mk = |source| Tagged {
            source,
            inner: PeriodicReleases::new(t(0), t(10), t(30)),
        };
        let mut m = MergedReleases::new(vec![mk(0), mk(1)]);
        let order: Vec<(Time, usize)> = std::iter::from_fn(|| m.next_release())
            .map(|(ready, (source, _))| (ready, source))
            .collect();
        assert_eq!(
            order,
            vec![
                (t(0), 0),
                (t(0), 1),
                (t(10), 0),
                (t(10), 1),
                (t(20), 0),
                (t(20), 1),
            ]
        );
    }

    #[test]
    fn merge_matches_materialized_stable_sort() {
        // Source-major materialization + stable sort by ready must equal
        // the merged stream (the byte-identity argument the simulators
        // rely on): the stable sort keeps ties in push order, which is
        // (source, arrival) — exactly the merge's (ready, source) order.
        let mk = |source: usize, seed: u64, offset: i64, period: i64| Tagged {
            source,
            inner: PeriodicReleases::with_jitter(
                t(offset),
                t(period),
                t(2_000),
                t(30),
                JitterMode::Random,
                Some(Prng::seed_from_u64(seed)),
            ),
        };
        let mut merged =
            MergedReleases::new(vec![mk(0, 1, 0, 13), mk(1, 2, 4, 7), mk(2, 3, 9, 25)]);
        let lazy = merged.drain_to_vec();

        let mut eager: Vec<(Time, (usize, u64))> = Vec::new();
        for mut g in [mk(0, 1, 0, 13), mk(1, 2, 4, 7), mk(2, 3, 9, 25)] {
            while let Some(r) = g.next_release() {
                eager.push(r);
            }
        }
        eager.sort_by_key(|&(ready, _)| ready); // stable
        assert_eq!(lazy, eager);
    }

    #[test]
    fn merge_buffered_counts_heads_and_lookahead() {
        let a = PeriodicReleases::new(t(0), t(10), t(100));
        let b = PeriodicReleases::new(t(0), t(10), t(100));
        let m = MergedReleases::new(vec![a, b]);
        // One head each, plus the one-slot look-ahead each source keeps
        // primed for `peek_ready`.
        assert_eq!(m.buffered(), 4);
    }

    #[test]
    fn drain_to_vec_empties_the_merge() {
        let a = PeriodicReleases::new(t(0), t(10), t(50));
        let mut m = MergedReleases::new(vec![a]);
        assert_eq!(m.drain_to_vec().len(), 5);
        assert!(m.next_release().is_none());
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = PeriodicReleases::new(t(0), t(0), t(100));
    }

    #[test]
    #[should_panic(expected = "requires a seeded RNG")]
    fn random_jitter_without_rng_panics() {
        let _ = PeriodicReleases::with_jitter(t(0), t(10), t(100), t(5), JitterMode::Random, None);
    }
}
