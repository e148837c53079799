//! The mixed-criticality mode controller.
//!
//! [`ModeController`] is the single owner of the run's criticality-mode
//! state (the `profirt-lint` `mode` rule bans mutating it anywhere else).
//! It implements a two-state machine over the kernel's token loop:
//!
//! ```text
//!            ring shrinks (MasterLeave), or
//!            TRR > degrade_factor·TTR on `degrade_arrivals`
//!            consecutive measured arrivals
//!   ┌────┐ ─────────────────────────────────────────────▶ ┌────┐
//!   │ LO │                                                │ HI │
//!   └────┘ ◀───────────────────────────────────────────── └────┘
//!            match-up: full ring AND ≥ matchup_factor·TTR
//!            of uninterrupted clean rotations (TRR ≤ TTR)
//! ```
//!
//! In **LO** (nominal) mode every stream is admitted. In **HI**
//! (degraded) mode the kernel sheds sub-HI releases at admission — they
//! never enter the AP queue — so HI traffic competes only against HI
//! traffic and the HI-mode bounds of
//! [`profirt_core::ModeAnalysis`](../../../profirt_core/mode/struct.ModeAnalysis.html)
//! apply. Requests already queued when the mode switches are not
//! recalled: shedding is admission control, per the match-up model
//! (aborting in-flight bus cycles is not physical).
//!
//! The *match-up* phase is the recovery contract: LO traffic is
//! re-admitted only after the controller has observed a full ring and a
//! span of clean rotations (`TRR ≤ TTR`) of at least `matchup_factor ·
//! TTR`, i.e. the nominal timeline has genuinely resumed. The span from
//! degradation to the completed match-up is the `time_to_matchup`
//! statistic.

use profirt_base::Time;

use crate::network::config::SimNetworkError;

/// Mode-controller parameters (a field of
/// [`NetworkSimConfig`](crate::network::NetworkSimConfig)).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ModeSimConfig {
    /// Enables the controller. Disabled (the default) the simulator is
    /// criticality-blind and every pre-existing run is byte-identical.
    /// Enabled, it is fed the live TRR of every token arrival on any
    /// ring, fixed or churning.
    pub enabled: bool,
    /// Overload threshold: a measured rotation counts as overloaded when
    /// `TRR > degrade_factor · TTR`.
    pub degrade_factor: u32,
    /// Consecutive overloaded arrivals required before degrading (ring
    /// shrinkage degrades immediately, without this filter).
    pub degrade_arrivals: u32,
    /// Match-up span: LO traffic is re-admitted after `matchup_factor ·
    /// TTR` of uninterrupted clean rotations on a full ring.
    pub matchup_factor: u32,
}

impl ModeSimConfig {
    /// An enabled controller with the default thresholds.
    pub fn enabled() -> ModeSimConfig {
        ModeSimConfig {
            enabled: true,
            ..ModeSimConfig::default()
        }
    }

    /// The controller's two thresholds on a ring with target rotation
    /// `ttr`: the overload bound `degrade_factor · TTR` and the match-up
    /// span `matchup_factor · TTR`, or the typed error naming the product
    /// that overflows i64 ticks.
    pub fn thresholds(&self, ttr: Time) -> Result<(Time, Time), SimNetworkError> {
        let times = |factor: u32, what: &'static str| {
            ttr.checked_mul(i64::from(factor))
                .ok_or(SimNetworkError::TickOverflow { what })
        };
        Ok((
            times(
                self.degrade_factor,
                "the mode threshold degrade_factor x TTR",
            )?,
            times(
                self.matchup_factor,
                "the mode threshold matchup_factor x TTR",
            )?,
        ))
    }
}

impl Default for ModeSimConfig {
    fn default() -> Self {
        ModeSimConfig {
            enabled: false,
            degrade_factor: 2,
            degrade_arrivals: 2,
            matchup_factor: 2,
        }
    }
}

/// A mode transition decided by the controller; the kernel turns it into
/// the matching [`NetEvent`](crate::network::observe::NetEvent)s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModeTransition {
    /// Enter HI (degraded) mode: start shedding sub-HI traffic.
    Degrade,
    /// Match-up complete, back to LO mode; `waited` is the span from
    /// degradation (`time_to_matchup`).
    Matchup {
        /// Degradation instant → match-up completion.
        waited: Time,
    },
}

/// The run-wide criticality-mode state machine (see the module docs).
#[derive(Clone, Debug)]
pub struct ModeController {
    cfg: ModeSimConfig,
    ttr: Time,
    /// `degrade_factor · TTR`: a longer rotation is overloaded.
    overload_above: Time,
    /// `matchup_factor · TTR`: the clean span a match-up needs.
    matchup_span: Time,
    full_size: usize,
    size: usize,
    degraded: bool,
    degraded_at: Time,
    /// Consecutive overloaded arrivals observed in LO mode.
    over_streak: u32,
    /// Start of the current clean full-ring rotation streak (HI mode).
    clean_since: Option<Time>,
}

impl ModeController {
    /// A controller for a ring of `full_size` masters, `initial_size` of
    /// them powered at time zero. Starting below full membership starts
    /// the run degraded (LO traffic is only admitted once the ring has
    /// formed and matched up); this initial degradation is a starting
    /// state, not a transition — no event is emitted for it.
    ///
    /// Fails with [`SimNetworkError::TickOverflow`] when a threshold
    /// ([`ModeSimConfig::thresholds`]) does not fit i64 ticks.
    pub fn new(
        ttr: Time,
        full_size: usize,
        initial_size: usize,
        cfg: ModeSimConfig,
    ) -> Result<ModeController, SimNetworkError> {
        let (overload_above, matchup_span) = cfg.thresholds(ttr)?;
        Ok(ModeController {
            cfg,
            ttr,
            overload_above,
            matchup_span,
            full_size,
            size: initial_size,
            degraded: initial_size < full_size,
            degraded_at: Time::ZERO,
            over_streak: 0,
            clean_since: None,
        })
    }

    /// `true` while sub-HI releases must be shed (HI mode).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    fn degrade(&mut self, now: Time) -> Option<ModeTransition> {
        if self.degraded {
            return None;
        }
        self.degraded = true;
        self.degraded_at = now;
        self.over_streak = 0;
        self.clean_since = None;
        Some(ModeTransition::Degrade)
    }

    /// Feeds a ring-membership change (one join or leave, mirroring the
    /// kernel's `MasterJoin` / `MasterLeave` events). Shrinking below full
    /// membership degrades immediately.
    pub fn on_membership(&mut self, now: Time, joined: bool) -> Option<ModeTransition> {
        if joined {
            self.size += 1;
        } else {
            self.size = self.size.saturating_sub(1);
            // Any shrink interrupts a clean streak even if the ring was
            // already below full (the rotation set changed under us).
            self.clean_since = None;
        }
        if self.size < self.full_size {
            self.degrade(now)
        } else {
            None
        }
    }

    /// Feeds a token arrival (`trr` as measured by the arriving master,
    /// `None` on its first arrival). In LO mode this drives overload
    /// detection; in HI mode, match-up progress.
    pub fn on_token_arrival(&mut self, now: Time, trr: Option<Time>) -> Option<ModeTransition> {
        let trr = trr?;
        if !self.degraded {
            if trr > self.overload_above {
                self.over_streak += 1;
                if self.over_streak >= self.cfg.degrade_arrivals {
                    return self.degrade(now);
                }
            } else {
                self.over_streak = 0;
            }
            return None;
        }
        // HI mode: a match-up needs a full ring and a clean streak.
        if self.size < self.full_size || trr > self.ttr {
            self.clean_since = None;
            return None;
        }
        let since = *self.clean_since.get_or_insert(now);
        if now - since >= self.matchup_span {
            self.degraded = false;
            self.clean_since = None;
            self.over_streak = 0;
            return Some(ModeTransition::Matchup {
                waited: now - self.degraded_at,
            });
        }
        None
    }

    /// Batch-feeds an idle span of token arrivals — every arrival
    /// measuring the same full-ring rotation `trr`, the first at `first`,
    /// the last at `last` — in O(1). Returns `true` when the whole span
    /// was absorbed with *no transition possible at any arrival in it*
    /// (the state afterwards equals feeding each arrival through
    /// [`ModeController::on_token_arrival`]). Returns `false`, mutating
    /// nothing, when some arrival in the span could fire a transition:
    /// the kernel must then fall back to per-visit simulation so the
    /// transition is emitted at its exact instant. This is the assertion
    /// the fast-forward relies on — a skipped idle span can never trip
    /// the TRR-overload trigger or swallow a match-up.
    ///
    /// Callers must hold the span preconditions: full ring membership
    /// throughout (no shrink trigger can arise) and a constant `trr`.
    pub fn on_idle_span(&mut self, first: Time, last: Time, trr: Time) -> bool {
        debug_assert!(
            self.size == self.full_size,
            "idle spans require a full ring"
        );
        debug_assert!(first <= last);
        if !self.degraded {
            // LO mode: a clean rotation resets the overload streak at
            // every arrival. An overloaded idle rotation (TTR below the
            // ring cost) could degrade mid-span — refuse the batch.
            if trr > self.overload_above {
                return false;
            }
            self.over_streak = 0;
            return true;
        }
        // HI mode: dirty idle rotations only reset the clean streak;
        // clean ones make match-up progress, and the span must stop
        // strictly before the match-up would complete.
        if trr > self.ttr {
            self.clean_since = None;
            return true;
        }
        let since = self.clean_since.unwrap_or(first);
        if last - since >= self.matchup_span {
            return false;
        }
        self.clean_since = Some(since);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn ctrl() -> ModeController {
        ModeController::new(t(1_000), 3, 3, ModeSimConfig::enabled()).unwrap()
    }

    #[test]
    fn shrinkage_degrades_immediately_and_once() {
        let mut c = ctrl();
        assert!(!c.degraded());
        assert_eq!(c.on_membership(t(50), false), Some(ModeTransition::Degrade));
        assert!(c.degraded());
        // Further shrinks while degraded are not new transitions.
        assert_eq!(c.on_membership(t(60), false), None);
    }

    #[test]
    fn overload_needs_consecutive_arrivals() {
        let mut c = ctrl();
        let over = Some(t(2_500)); // > 2 · TTR
        let clean = Some(t(900));
        assert_eq!(c.on_token_arrival(t(10), over), None); // streak 1
        assert_eq!(c.on_token_arrival(t(20), clean), None); // streak reset
        assert_eq!(c.on_token_arrival(t(30), over), None); // streak 1
        assert_eq!(
            c.on_token_arrival(t(40), over),
            Some(ModeTransition::Degrade)
        );
        assert!(c.degraded());
    }

    #[test]
    fn first_arrivals_and_boundary_rotations_do_not_degrade() {
        let mut c = ctrl();
        assert_eq!(c.on_token_arrival(t(10), None), None);
        // Exactly at the threshold is not overloaded (strict >).
        for at in [20, 30, 40, 50] {
            assert_eq!(c.on_token_arrival(t(at), Some(t(2_000))), None);
        }
        assert!(!c.degraded());
    }

    #[test]
    fn matchup_requires_full_ring_and_a_clean_span() {
        let mut c = ctrl();
        c.on_membership(t(100), false); // degrade at 100
                                        // Ring still short: clean rotations do not count.
        assert_eq!(c.on_token_arrival(t(200), Some(t(500))), None);
        c.on_membership(t(300), true); // back to full size
        assert_eq!(c.on_token_arrival(t(400), Some(t(500))), None); // streak starts
        assert_eq!(c.on_token_arrival(t(1_400), Some(t(500))), None); // 1000 < 2·TTR
                                                                      // A dirty rotation resets the streak.
        assert_eq!(c.on_token_arrival(t(2_000), Some(t(1_500))), None);
        assert_eq!(c.on_token_arrival(t(2_100), Some(t(500))), None); // new streak
        let got = c.on_token_arrival(t(4_200), Some(t(500)));
        assert_eq!(got, Some(ModeTransition::Matchup { waited: t(4_100) }));
        assert!(!c.degraded());
    }

    #[test]
    fn idle_span_batches_match_per_arrival_feeding() {
        // LO, clean rotations: batch == feeding every arrival.
        let mut batch = ctrl();
        let mut per = ctrl();
        let trr = t(600);
        assert!(batch.on_idle_span(t(100), t(1_900), trr));
        for at in (100..2_000).step_by(200) {
            assert_eq!(per.on_token_arrival(t(at), Some(trr)), None);
        }
        assert_eq!(batch.degraded(), per.degraded());

        // LO, overloaded idle rotations (TTR below the ring cost): the
        // batch refuses rather than arming the overload trigger.
        let mut c = ModeController::new(t(100), 3, 3, ModeSimConfig::enabled()).unwrap();
        assert!(!c.on_idle_span(t(0), t(10_000), t(600)));
        assert!(!c.degraded(), "a refused span mutates nothing");

        // HI, clean rotations short of the match-up span: absorbed.
        let mut c = ctrl();
        c.on_membership(t(0), false);
        c.on_membership(t(50), true);
        assert!(c.on_idle_span(t(100), t(1_500), t(600)));
        assert!(c.degraded());
        // Extending past matchup_factor·TTR of clean streak: refused, so
        // the per-visit path emits the Matchup at its exact arrival.
        assert!(!c.on_idle_span(t(1_600), t(2_200), t(600)));
        assert_eq!(
            c.on_token_arrival(t(2_100), Some(t(600))),
            Some(ModeTransition::Matchup { waited: t(2_100) })
        );

        // HI, dirty idle rotations (TTR below ring cost) reset the clean
        // streak, exactly like per-arrival feeding.
        let mut c = ModeController::new(t(100), 3, 2, ModeSimConfig::enabled()).unwrap();
        c.on_membership(t(10), true);
        assert!(c.on_idle_span(t(20), t(5_000), t(600)));
        assert!(c.degraded(), "dirty rotations never match up");
    }

    #[test]
    fn wrapping_thresholds_are_typed_errors() {
        let cfg = |degrade_factor: u32, matchup_factor: u32| ModeSimConfig {
            degrade_factor,
            matchup_factor,
            ..ModeSimConfig::enabled()
        };
        // 1e10 x u32::MAX > i64::MAX.
        let ttr = t(10_000_000_000);
        assert!(ModeController::new(ttr, 3, 3, cfg(2, 2)).is_ok());
        for (c, what) in [
            (cfg(u32::MAX, 2), "the mode threshold degrade_factor x TTR"),
            (cfg(2, u32::MAX), "the mode threshold matchup_factor x TTR"),
        ] {
            assert_eq!(
                ModeController::new(ttr, 3, 3, c).err(),
                Some(SimNetworkError::TickOverflow { what })
            );
        }
    }

    #[test]
    fn starting_below_full_membership_starts_degraded() {
        let mut c = ModeController::new(t(1_000), 3, 2, ModeSimConfig::enabled()).unwrap();
        assert!(c.degraded());
        // The missing master joins; match-up measures from time zero.
        c.on_membership(t(500), true);
        assert_eq!(c.on_token_arrival(t(600), Some(t(400))), None);
        assert_eq!(
            c.on_token_arrival(t(2_700), Some(t(400))),
            Some(ModeTransition::Matchup { waited: t(2_700) })
        );
    }
}
