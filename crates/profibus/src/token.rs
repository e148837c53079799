//! The timed-token state machine of the paper's §3.1.
//!
//! Each master measures the *real token rotation time* `TRR` (from one token
//! arrival to the next) and, on arrival, loads the token-holding timer
//! `TTH := TTR − TRR`:
//!
//! * **Late token** (`TTH ≤ 0`): the master may execute *at most one*
//!   high-priority message cycle and no low-priority cycles.
//! * **Early token** (`TTH > 0`): high-priority cycles run while `TTH > 0`;
//!   low-priority cycles run afterwards while `TTH > 0`. The timer is tested
//!   only at the **start** of each cycle — a started cycle always completes,
//!   including retries, even if `TTH` expires meanwhile (a *TTH overrun*,
//!   the root cause of token lateness analysed in §3.3).
//!
//! [`TokenTimer`] keeps per-master rotation state; [`TokenHold`] answers the
//! dispatch questions for one token visit. Both are pure (no I/O, no
//! wall-clock) so the analysis crate and the simulator share them.

use profirt_base::Time;

/// Per-master token rotation timer (`TRR` measurement + `TTR` target).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TokenTimer {
    ttr: Time,
    /// Instant at which the current TRR measurement started (= last token
    /// arrival; protocol initialisation starts the count-up at time 0).
    trr_started_at: Time,
}

impl TokenTimer {
    /// Creates a timer with target rotation time `ttr`; the initial `TRR`
    /// count-up starts at time 0 (the paper's initialisation procedure).
    pub fn new(ttr: Time) -> TokenTimer {
        TokenTimer {
            ttr,
            trr_started_at: Time::ZERO,
        }
    }

    /// The configured target token rotation time.
    pub fn ttr(&self) -> Time {
        self.ttr
    }

    /// Handles a token arrival at `now`: returns the hold state for this
    /// visit and restarts the `TRR` measurement.
    pub fn on_token_arrival(&mut self, now: Time) -> TokenHold {
        let trr = now - self.trr_started_at;
        self.trr_started_at = now;
        let tth = self.ttr - trr;
        TokenHold {
            arrived_at: now,
            tth_at_arrival: tth,
        }
    }

    /// The most recent measured rotation start (for diagnostics).
    pub fn trr_started_at(&self) -> Time {
        self.trr_started_at
    }
}

/// The token-holding state for a single token visit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TokenHold {
    /// Token arrival instant.
    pub arrived_at: Time,
    /// `TTH = TTR − TRR` computed at arrival (may be negative: late token).
    pub tth_at_arrival: Time,
}

impl TokenHold {
    /// `true` iff the token arrived late (`TTH ≤ 0`): only the single
    /// guaranteed high-priority message cycle may run.
    pub fn is_late(&self) -> bool {
        !self.tth_at_arrival.is_positive()
    }

    /// The instant at which `TTH` reaches zero (equals `arrived_at` for a
    /// late token).
    pub fn expires_at(&self) -> Time {
        self.arrived_at + self.tth_at_arrival.max_zero()
    }

    /// Whether a *further* high-priority cycle may start at `now` (the first
    /// one is always allowed — use [`TokenHold::first_high_allowed`]).
    ///
    /// Per §3.1 the timer is tested at the start of the cycle: the test is
    /// `TTH > 0`, i.e. `now < expires_at`. The cycle then runs to
    /// completion regardless (TTH overrun).
    pub fn may_start_additional_high(&self, now: Time) -> bool {
        now < self.expires_at()
    }

    /// The first pending high-priority cycle is allowed unconditionally —
    /// even on a late token (the property that makes `Tcycle`-based response
    /// bounds possible at all).
    pub fn first_high_allowed(&self) -> bool {
        true
    }

    /// Whether a low-priority cycle may start at `now`: requires a
    /// non-late token and remaining `TTH`.
    pub fn may_start_low(&self, now: Time) -> bool {
        !self.is_late() && now < self.expires_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn early_token_gets_residual_tth() {
        let mut timer = TokenTimer::new(t(1000));
        // First arrival at 400: TRR = 400, TTH = 600.
        let hold = timer.on_token_arrival(t(400));
        assert_eq!(hold.tth_at_arrival, t(600));
        assert!(!hold.is_late());
        assert_eq!(hold.expires_at(), t(1000));
        assert!(hold.may_start_additional_high(t(999)));
        assert!(!hold.may_start_additional_high(t(1000)));
        assert!(hold.may_start_low(t(999)));
        assert!(!hold.may_start_low(t(1000)));
    }

    #[test]
    fn late_token_allows_only_first_high() {
        let mut timer = TokenTimer::new(t(500));
        let _ = timer.on_token_arrival(t(100)); // TRR restarts at 100
        let hold = timer.on_token_arrival(t(900)); // TRR = 800 > TTR
        assert_eq!(hold.tth_at_arrival, t(-300));
        assert!(hold.is_late());
        assert!(hold.first_high_allowed());
        assert!(!hold.may_start_additional_high(t(900)));
        assert!(!hold.may_start_low(t(900)));
        assert_eq!(hold.expires_at(), t(900));
    }

    #[test]
    fn exactly_on_time_token_is_late() {
        // TTH = 0 means "IF TTH > 0" fails: treated as late.
        let mut timer = TokenTimer::new(t(500));
        let _ = timer.on_token_arrival(t(0));
        let hold = timer.on_token_arrival(t(500));
        assert_eq!(hold.tth_at_arrival, t(0));
        assert!(hold.is_late());
    }

    #[test]
    fn trr_measurement_restarts_each_arrival() {
        let mut timer = TokenTimer::new(t(1000));
        let _ = timer.on_token_arrival(t(100));
        assert_eq!(timer.trr_started_at(), t(100));
        let hold = timer.on_token_arrival(t(350));
        assert_eq!(hold.tth_at_arrival, t(750)); // TRR = 250
        assert_eq!(timer.trr_started_at(), t(350));
    }

    #[test]
    fn initialisation_counts_from_zero() {
        // Paper's init: TRR starts counting at startup, so the first
        // arrival at `now` sees TRR = now.
        let mut timer = TokenTimer::new(t(300));
        let hold = timer.on_token_arrival(t(120));
        assert_eq!(hold.tth_at_arrival, t(180));
    }

    #[test]
    fn overrun_semantics_cycle_started_before_expiry_runs() {
        // A cycle that starts one tick before expiry is permitted; the hold
        // gives no completion bound (the caller lets it run to completion).
        let mut timer = TokenTimer::new(t(100));
        let hold = timer.on_token_arrival(t(40)); // TTH = 60, expires 100
        assert!(hold.may_start_additional_high(t(99)));
        // Even a very long cycle is not interrupted — nothing to assert on
        // the hold itself; the simulator owns completion. Document by
        // checking expires_at stays fixed.
        assert_eq!(hold.expires_at(), t(100));
    }
}
