//! The split statistics observers: one [`Observer`] per statistic.
//!
//! [`ResponseStats`], [`TrrStats`], [`RingStats`] and [`ModeStats`] are
//! what [`NetStats`](crate::network::observe::NetStats) fuses into one
//! `match`. They stay as its reference: the `prop_net_stats` differential
//! test assembles them with a [`ResultObserver`](crate::network::ResultObserver)
//! as the named oracle of
//! [`simulate_network_stats`](crate::network::simulate_network_stats), and
//! the perfbench campaign probe times them. Runs that want the statistics
//! should call `simulate_network_stats` (or attach a `NetStats`): each
//! event here costs one dynamic call per observer.

use profirt_base::{Criticality, Time};

use crate::engine::observer::{replay_span, HistSummary, IdleSpan, Observer, TickHistogram};
use crate::network::config::SimNetwork;
use crate::network::observe::{ModeSummary, NetEvent, RingSummary};

/// Histogram of high-priority response times, pooled over all masters and
/// streams (constant memory at any horizon).
#[derive(Clone, Debug, Default)]
pub struct ResponseStats {
    /// The underlying histogram.
    pub hist: TickHistogram,
}

impl ResponseStats {
    /// An empty observer.
    pub fn new() -> ResponseStats {
        ResponseStats::default()
    }
}

impl Observer<NetEvent> for ResponseStats {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        if let NetEvent::HighCycle { request, end, .. } = event {
            self.hist.record(*end - request.release);
        }
    }

    /// O(pattern): each rotation would record the identical response
    /// value, so the histogram ingests it as one run-length increment.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        for (_, ev) in span.pattern {
            if let NetEvent::HighCycle { request, end, .. } = ev {
                self.hist.record_n(*end - request.release, span.rotations);
            }
        }
    }
}

/// Histogram of measured token rotation times, pooled over all masters —
/// optionally segmented by the live ring size, so the rotation cost of
/// GAP polls, claims and shrunken rings is measurable per phase.
#[derive(Clone, Debug, Default)]
pub struct TrrStats {
    /// The pooled histogram (all rotations, any ring size).
    pub hist: TickHistogram,
    /// Current ring size (tracked from join/leave events); `None` when
    /// size segmentation is disabled.
    size: Option<usize>,
    /// `(ring size, histogram)` per observed size, ascending.
    by_size: Vec<(usize, TickHistogram)>,
}

impl TrrStats {
    /// A pooled-only observer (no per-ring-size segmentation).
    pub fn new() -> TrrStats {
        TrrStats::default()
    }

    /// An observer that additionally buckets rotations by the ring size
    /// at the moment the rotation completed. `initial` is the ring size
    /// at time zero (masters powered on and in the ring).
    pub fn with_ring_size(initial: usize) -> TrrStats {
        TrrStats {
            size: Some(initial),
            ..TrrStats::default()
        }
    }

    /// Per-ring-size rotation summaries, ascending by size. Empty when
    /// segmentation is disabled or no rotation completed.
    pub fn per_size(&self) -> Vec<(usize, HistSummary)> {
        self.by_size
            .iter()
            .map(|(size, hist)| (*size, hist.summary()))
            .collect()
    }
}

impl Observer<NetEvent> for TrrStats {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        match *event {
            NetEvent::TokenArrival { trr: Some(trr), .. } => {
                self.hist.record(trr);
                if let Some(size) = self.size {
                    let hist = match self.by_size.binary_search_by_key(&size, |e| e.0) {
                        Ok(i) => &mut self.by_size[i].1,
                        Err(i) => {
                            self.by_size.insert(i, (size, TickHistogram::default()));
                            &mut self.by_size[i].1
                        }
                    };
                    hist.record(trr);
                }
            }
            NetEvent::MasterJoin { .. } => {
                if let Some(size) = &mut self.size {
                    *size += 1;
                }
            }
            NetEvent::MasterLeave { .. } => {
                if let Some(size) = &mut self.size {
                    *size = size.saturating_sub(1);
                }
            }
            _ => {}
        }
    }

    /// O(pattern) run-length ingestion of the span's rotation samples.
    /// A pattern carrying membership events would change the ring size
    /// mid-span, so that (never kernel-emitted) case replays instead.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        let churns = span.pattern.iter().any(|(_, ev)| {
            matches!(
                ev,
                NetEvent::MasterJoin { .. } | NetEvent::MasterLeave { .. }
            )
        });
        if churns {
            replay_span(self, span);
            return;
        }
        for (_, ev) in span.pattern {
            if let NetEvent::TokenArrival { trr: Some(trr), .. } = *ev {
                self.hist.record_n(trr, span.rotations);
                if let Some(size) = self.size {
                    let hist = match self.by_size.binary_search_by_key(&size, |e| e.0) {
                        Ok(i) => &mut self.by_size[i].1,
                        Err(i) => {
                            self.by_size.insert(i, (size, TickHistogram::default()));
                            &mut self.by_size[i].1
                        }
                    };
                    hist.record_n(trr, span.rotations);
                }
            }
        }
    }
}

/// Tracks the ring-size timeline: min/max/final size plus membership
/// event counts. On a static run it reports the configured size and zero
/// events.
#[derive(Clone, Debug)]
pub struct RingStats {
    size: usize,
    summary: RingSummary,
}

impl RingStats {
    /// An observer starting from `initial` ring members.
    pub fn new(initial: usize) -> RingStats {
        RingStats {
            size: initial,
            summary: RingSummary {
                min_size: initial,
                max_size: initial,
                final_size: initial,
                events: 0,
                gap_polls: 0,
                claims: 0,
            },
        }
    }

    /// The run summary.
    pub fn summary(&self) -> RingSummary {
        RingSummary {
            final_size: self.size,
            ..self.summary
        }
    }
}

impl Observer<NetEvent> for RingStats {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        match *event {
            NetEvent::MasterJoin { .. } => {
                self.size += 1;
                self.summary.events += 1;
                self.summary.max_size = self.summary.max_size.max(self.size);
            }
            NetEvent::MasterLeave { .. } => {
                self.size = self.size.saturating_sub(1);
                self.summary.events += 1;
                self.summary.min_size = self.summary.min_size.min(self.size);
            }
            NetEvent::GapPoll { .. } => self.summary.gap_polls += 1,
            NetEvent::Claim { .. } => self.summary.claims += 1,
            _ => {}
        }
    }

    /// O(pattern): pure counter bumps multiply by the rotation count.
    /// Membership events would move the size timeline mid-span, so that
    /// (never kernel-emitted) case replays instead.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        let churns = span.pattern.iter().any(|(_, ev)| {
            matches!(
                ev,
                NetEvent::MasterJoin { .. } | NetEvent::MasterLeave { .. }
            )
        });
        if churns {
            replay_span(self, span);
            return;
        }
        for (_, ev) in span.pattern {
            match ev {
                NetEvent::GapPoll { .. } => self.summary.gap_polls += span.rotations,
                NetEvent::Claim { .. } => self.summary.claims += span.rotations,
                _ => {}
            }
        }
    }
}

/// Counts mode switches, sheds and match-ups, and tracks how much sub-HI
/// traffic still completed — the denominators and numerators of the
/// campaign's `lo_shed_ratio` and `time_to_matchup` columns.
#[derive(Clone, Debug)]
pub struct ModeStats {
    /// Per-master criticality maps (empty inner vec = all HI).
    criticality: Vec<Vec<Criticality>>,
    summary: ModeSummary,
    waits: Vec<Time>,
    sub_hi_completed: u64,
}

impl ModeStats {
    /// An observer shaped for `net` (copies its criticality maps).
    pub fn new(net: &SimNetwork) -> ModeStats {
        ModeStats {
            criticality: net.masters.iter().map(|m| m.criticality.clone()).collect(),
            summary: ModeSummary::default(),
            waits: Vec::new(),
            sub_hi_completed: 0,
        }
    }

    /// The run summary.
    pub fn summary(&self) -> ModeSummary {
        self.summary
    }

    /// Every completed match-up's degradation-to-recovery span, in
    /// completion order (for pooled percentiles across runs).
    pub fn matchup_waits(&self) -> &[Time] {
        &self.waits
    }

    /// Sub-HI high-priority cycles that executed to completion.
    pub fn sub_hi_completed(&self) -> u64 {
        self.sub_hi_completed
    }

    /// Fraction of sub-HI demand shed at admission:
    /// `sheds / (sheds + completed sub-HI cycles)`, `0.0` when the run
    /// carried no sub-HI traffic at all.
    pub fn lo_shed_ratio(&self) -> f64 {
        let total = self.summary.sheds + self.sub_hi_completed;
        if total == 0 {
            0.0
        } else {
            self.summary.sheds as f64 / total as f64
        }
    }
}

impl Observer<NetEvent> for ModeStats {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        match *event {
            NetEvent::ModeSwitch { .. } => self.summary.switches += 1,
            NetEvent::Shed { .. } => self.summary.sheds += 1,
            NetEvent::Matchup { waited } => {
                self.summary.matchups += 1;
                self.summary.max_time_to_matchup = self.summary.max_time_to_matchup.max(waited);
                self.waits.push(waited);
            }
            NetEvent::HighCycle {
                master,
                ref request,
                ..
            } => {
                let crit = self.criticality[master]
                    .get(request.stream.0)
                    .copied()
                    .unwrap_or(Criticality::Hi);
                if crit != Criticality::Hi {
                    self.sub_hi_completed += 1;
                }
            }
            _ => {}
        }
    }

    /// O(pattern) counter multiplication. Match-ups append to the wait
    /// list per occurrence, so that (never kernel-emitted) case replays.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        if span
            .pattern
            .iter()
            .any(|(_, ev)| matches!(ev, NetEvent::Matchup { .. }))
        {
            replay_span(self, span);
            return;
        }
        for (_, ev) in span.pattern {
            match *ev {
                NetEvent::ModeSwitch { .. } => self.summary.switches += span.rotations,
                NetEvent::Shed { .. } => self.summary.sheds += span.rotations,
                NetEvent::HighCycle {
                    master,
                    ref request,
                    ..
                } => {
                    let crit = self.criticality[master]
                        .get(request.stream.0)
                        .copied()
                        .unwrap_or(Criticality::Hi);
                    if crit != Criticality::Hi {
                        self.sub_hi_completed += span.rotations;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::observe::tests::{batched_pattern, fallback_pattern, two_master_net};
    use profirt_base::time::t;

    #[test]
    fn batched_idle_span_ingestion_equals_replay() {
        let net = two_master_net();
        for pattern in [batched_pattern(), fallback_pattern()] {
            let span = IdleSpan {
                start: t(1_000),
                period: t(200),
                rotations: 5,
                pattern: &pattern,
            };

            let mut batched = ResponseStats::new();
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.hist.summary(), replayed.hist.summary());

            let mut batched = TrrStats::with_ring_size(2);
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.hist.summary(), replayed.hist.summary());
            assert_eq!(batched.per_size(), replayed.per_size());

            let mut batched = RingStats::new(2);
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.summary(), replayed.summary());

            let mut batched = ModeStats::new(&net);
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.summary(), replayed.summary());
            assert_eq!(batched.matchup_waits(), replayed.matchup_waits());
            assert_eq!(batched.sub_hi_completed(), replayed.sub_hi_completed());
        }
    }
}
