//! The GAP update mechanism.
//!
//! Each master periodically polls the address range between itself and its
//! successor (its *GAP*) with `Request FDL Status` telegrams, one address
//! per update cycle, to discover stations that want to join the logical
//! ring. The poll cadence is controlled by the GAP update factor `G`: one
//! GAP address is examined every `G` token receptions.
//!
//! This is a simplified-but-functional model: it tracks the rotation
//! counter, yields the next address to poll when due, and folds poll
//! results back into ring membership knowledge.

use profirt_base::{MasterAddr, Time};

use crate::chartime::{char_time, frame_chars};
use crate::params::BusParams;
use crate::ring::LogicalRing;

/// Bus time consumed by one `Request FDL Status` GAP poll.
///
/// The poll is an SD1 request (6 characters, preceded by the `TSYN`
/// synchronisation gap). An addressed station answers with an SD1 status
/// frame after its station delay (worst case `max TSDR`), followed by the
/// initiator idle time `TID1`; an empty address stays silent for the full
/// slot time `TSL` before the initiator gives up.
pub fn poll_time(params: &BusParams, answered: bool) -> Time {
    let request = params.tsyn + char_time(frame_chars::SD1);
    if answered {
        request + params.max_tsdr + char_time(frame_chars::SD1) + params.tid1
    } else {
        request + params.slot_time
    }
}

/// Result of polling one GAP address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GapPollResult {
    /// No station answered within the slot time.
    NoStation,
    /// A slave answered (never joins the ring).
    Slave,
    /// A master answered and is ready to enter the ring.
    MasterReady,
    /// A master answered but is not ready yet.
    MasterNotReady,
}

/// Per-master GAP maintenance state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GapState {
    /// This master's address.
    pub addr: MasterAddr,
    /// GAP update factor `G` (poll one address every `G` token visits).
    pub update_factor: u32,
    visits_since_poll: u32,
    next_index: usize,
}

impl GapState {
    /// Creates GAP state with update factor `g >= 1`.
    ///
    /// # Panics
    /// Panics if `g == 0`.
    pub fn new(addr: MasterAddr, g: u32) -> GapState {
        assert!(g >= 1, "GAP update factor must be at least 1");
        GapState {
            addr,
            update_factor: g,
            visits_since_poll: 0,
            next_index: 0,
        }
    }

    /// Called on each token visit; returns the address to poll this visit,
    /// if the update factor says one is due and the GAP is non-empty.
    pub fn on_token_visit(&mut self, ring: &LogicalRing) -> Option<MasterAddr> {
        self.visits_since_poll += 1;
        if self.visits_since_poll < self.update_factor {
            return None;
        }
        self.visits_since_poll = 0;
        let gap = ring.gap_range(self.addr)?;
        if gap.is_empty() {
            return None;
        }
        let target = gap[self.next_index % gap.len()];
        self.next_index = (self.next_index + 1) % gap.len();
        Some(target)
    }

    /// Token visits by this master until its next poll becomes due
    /// (always ≥ 1: a poll-due visit resets the counter first). The idle
    /// fast-forward uses this to cap a skipped span strictly before any
    /// holder's poll boundary.
    pub fn visits_until_due(&self) -> u32 {
        self.update_factor - self.visits_since_poll
    }

    /// Advances the visit counter by `n` poll-free visits in O(1) — the
    /// bulk form of `n` calls to [`GapState::on_token_visit`] that all
    /// return before the due check fires.
    ///
    /// # Panics
    /// Panics (debug) when the span would cross the poll boundary
    /// (`n >= visits_until_due()`); callers must cap spans first.
    pub fn advance_visits(&mut self, n: u32) {
        debug_assert!(
            n < self.visits_until_due(),
            "bulk GAP advance of {n} visits crosses the poll boundary \
             ({} visits until due)",
            self.visits_until_due()
        );
        self.visits_since_poll += n;
    }

    /// Folds a poll result into the ring: a ready master joins.
    ///
    /// Returns `true` if the ring changed.
    pub fn apply_result(ring: &mut LogicalRing, target: MasterAddr, result: GapPollResult) -> bool {
        match result {
            GapPollResult::MasterReady => ring.join(target),
            GapPollResult::NoStation | GapPollResult::Slave | GapPollResult::MasterNotReady => {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(addrs: &[u8]) -> LogicalRing {
        LogicalRing::new(addrs.iter().map(|&a| MasterAddr(a)).collect())
    }

    #[test]
    fn polls_every_g_visits() {
        let r = ring(&[1, 5]);
        let mut gap = GapState::new(MasterAddr(1), 3);
        assert_eq!(gap.on_token_visit(&r), None);
        assert_eq!(gap.on_token_visit(&r), None);
        assert_eq!(gap.on_token_visit(&r), Some(MasterAddr(2)));
        assert_eq!(gap.on_token_visit(&r), None);
        assert_eq!(gap.on_token_visit(&r), None);
        assert_eq!(gap.on_token_visit(&r), Some(MasterAddr(3)));
    }

    #[test]
    fn cycles_through_gap_addresses() {
        let r = ring(&[1, 4]);
        let mut gap = GapState::new(MasterAddr(1), 1);
        assert_eq!(gap.on_token_visit(&r), Some(MasterAddr(2)));
        assert_eq!(gap.on_token_visit(&r), Some(MasterAddr(3)));
        assert_eq!(gap.on_token_visit(&r), Some(MasterAddr(2)));
    }

    #[test]
    fn bulk_advance_matches_per_visit_counting() {
        let r = ring(&[1, 5]);
        let mut per_visit = GapState::new(MasterAddr(1), 5);
        let mut bulk = GapState::new(MasterAddr(1), 5);
        assert_eq!(per_visit.visits_until_due(), 5);
        for _ in 0..3 {
            assert_eq!(per_visit.on_token_visit(&r), None);
        }
        bulk.advance_visits(3);
        assert_eq!(per_visit, bulk);
        assert_eq!(per_visit.visits_until_due(), 2);
        // Both reach the due poll on the same visit with the same target.
        assert_eq!(per_visit.on_token_visit(&r), None);
        assert_eq!(bulk.on_token_visit(&r), None);
        assert_eq!(per_visit.on_token_visit(&r), Some(MasterAddr(2)));
        assert_eq!(bulk.on_token_visit(&r), Some(MasterAddr(2)));
    }

    #[test]
    fn ready_master_joins_ring() {
        let mut r = ring(&[1, 5]);
        let changed = GapState::apply_result(&mut r, MasterAddr(3), GapPollResult::MasterReady);
        assert!(changed);
        assert!(r.contains(MasterAddr(3)));
        // Idempotent: joining again changes nothing.
        assert!(!GapState::apply_result(
            &mut r,
            MasterAddr(3),
            GapPollResult::MasterReady
        ));
    }

    #[test]
    fn non_masters_do_not_join() {
        let mut r = ring(&[1, 5]);
        for res in [
            GapPollResult::NoStation,
            GapPollResult::Slave,
            GapPollResult::MasterNotReady,
        ] {
            assert!(!GapState::apply_result(&mut r, MasterAddr(2), res));
        }
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_update_factor_panics() {
        let _ = GapState::new(MasterAddr(1), 0);
    }

    #[test]
    fn empty_gap_yields_none() {
        // Adjacent addresses: GAP of 1 before 2 is empty.
        let r = ring(&[1, 2]);
        let mut gap = GapState::new(MasterAddr(1), 1);
        assert_eq!(gap.on_token_visit(&r), None);
    }

    #[test]
    fn poll_time_is_chartime_derived() {
        use profirt_base::time::t;
        let p = BusParams::profile_500k();
        // Silent address: TSYN + SD1 request + slot time = 33 + 66 + 200.
        assert_eq!(poll_time(&p, false), t(299));
        // Answered: TSYN + SD1 + max TSDR + SD1 reply + TID1
        //         = 33 + 66 + 100 + 66 + 37.
        assert_eq!(poll_time(&p, true), t(302));
        // An answered poll costs slightly more than a silent slot-time
        // wait at this profile (302 vs 299 bit times).
        assert!(poll_time(&p, true) > poll_time(&p, false));
    }
}
