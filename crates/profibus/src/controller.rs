//! The ring-membership controller: one object driving the per-station FDL
//! state machines, the shared [`LogicalRing`] (LAS), and per-master GAP
//! maintenance.
//!
//! A [`RingController`] owns one [`FdlStation`] per configured master
//! ("slot"), the logical ring keyed by station address, and — when the GAP
//! update factor `G ≥ 1` — one [`GapState`] per active master. Simulation
//! kernels talk to it in slot indices (their ring indices) and it maps to
//! FDL addresses internally. The controller is pure protocol state: it
//! advances no clocks and emits no events; timing (slot times, claim
//! timeouts, poll durations) stays with the caller.
//!
//! Lifecycle of a joining master, as the DIN 19245 GAP mechanism admits it:
//!
//! ```text
//! power_on ─► ListenToken ─(observe_wrap ×2)─► ready_to_join
//!          ─(GAP poll by the holder: MasterReady)─► admit ─► ActiveIdle
//! ```
//!
//! Departures are detected by the token holder: a pass to a powered-off
//! successor stays unanswered, and after the retry budget the holder drops
//! the station from the LAS ([`RingController::drop_member`]) and tries the
//! next member. A token that vanishes entirely (holder crash, lost frame)
//! is re-originated by [`RingController::claimant`] — the lowest-address
//! powered ring member, falling back to the lowest-address powered
//! listener when the whole ring died — after its address-staggered timeout
//! ([`crate::fdl::token_recovery_timeout`]).

use profirt_base::{AddressPlan, MasterAddr};

use crate::fdl::{FdlEvent, FdlState, FdlStation};
use crate::gap::{GapPollResult, GapState};
use crate::ring::LogicalRing;

/// Protocol state of a dynamic logical ring (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RingController {
    addrs: Vec<MasterAddr>,
    stations: Vec<FdlStation>,
    ring: LogicalRing,
    /// Per-slot GAP maintenance state; `None` while the slot is not an
    /// active ring member (or GAP polling is disabled).
    gap: Vec<Option<GapState>>,
    /// Token rotations observed while listening (LAS learning).
    rotations_seen: Vec<u32>,
    gap_factor: u32,
}

/// Rotations a listening station must observe before a GAP poll may admit
/// it (DIN 19245: two identical token rotations pin the LAS).
pub const LISTEN_ROTATIONS: u32 = 2;

impl RingController {
    /// Creates a controller for a checked address plan (slot `k` is ring
    /// index `k`), all stations powered off and the ring empty.
    /// `gap_factor == 0` disables GAP polling entirely.
    pub fn new(plan: AddressPlan, gap_factor: u32) -> RingController {
        let addrs = plan.into_addrs();
        let n = addrs.len();
        let stations = addrs.iter().map(|&a| FdlStation::new(a)).collect();
        RingController {
            addrs,
            stations,
            ring: LogicalRing::default(),
            gap: vec![None; n],
            rotations_seen: vec![0; n],
            gap_factor,
        }
    }

    /// Number of configured slots.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` when no slots are configured.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The FDL address of `slot`.
    pub fn addr_of(&self, slot: usize) -> MasterAddr {
        self.addrs[slot]
    }

    /// The slot owning `addr`, if any.
    pub fn slot_of(&self, addr: MasterAddr) -> Option<usize> {
        self.addrs.iter().position(|&a| a == addr)
    }

    /// Current FDL state of `slot`.
    pub fn state_of(&self, slot: usize) -> FdlState {
        self.stations[slot].state()
    }

    /// The live LAS.
    pub fn ring(&self) -> &LogicalRing {
        &self.ring
    }

    /// Number of LAS members.
    pub fn ring_size(&self) -> usize {
        self.ring.len()
    }

    /// `true` when `slot` is a LAS member (powered or not — a dead station
    /// stays listed until a failed pass removes it).
    pub fn in_ring(&self, slot: usize) -> bool {
        self.ring.contains(self.addrs[slot])
    }

    /// `true` when `slot` is powered off.
    pub fn is_offline(&self, slot: usize) -> bool {
        self.stations[slot].state() == FdlState::Offline
    }

    /// Whether `slot` would accept a token pass right now: powered and
    /// idle in the ring (or stuck claiming after a lost race — receiving
    /// the token resolves the claim).
    pub fn accepts_token(&self, slot: usize) -> bool {
        matches!(
            self.stations[slot].state(),
            FdlState::ActiveIdle | FdlState::ClaimToken
        )
    }

    /// Boots `slot` directly into the ring (simulation bootstrap for
    /// masters that are already members at time zero — the static-ring
    /// assumption of the paper's §3.1).
    pub fn boot_in_ring(&mut self, slot: usize) {
        self.apply(slot, FdlEvent::PowerOn);
        self.apply(slot, FdlEvent::RingEntryComplete);
        self.ring.join(self.addrs[slot]);
        self.arm_gap(slot);
    }

    /// Powers `slot` on: it starts listening for the LAS. Returns `false`
    /// (no-op) if the station was already powered.
    pub fn power_on(&mut self, slot: usize) -> bool {
        if !self.is_offline(slot) {
            return false;
        }
        self.apply(slot, FdlEvent::PowerOn);
        self.rotations_seen[slot] = 0;
        true
    }

    /// Powers `slot` off (crash or switch-off — the FDL cannot tell the
    /// difference; neither is announced on the bus). The station stays in
    /// the other masters' LAS until a failed token pass removes it.
    /// Returns `false` (no-op) if it was already offline.
    pub fn power_off(&mut self, slot: usize) -> bool {
        if self.is_offline(slot) {
            return false;
        }
        self.apply(slot, FdlEvent::PowerOff);
        self.gap[slot] = None;
        self.rotations_seen[slot] = 0;
        true
    }

    /// Delivers the token to `slot`: `ActiveIdle`/`ClaimToken` →
    /// `UseToken`. A station already in `UseToken` (it just claimed) is
    /// left alone.
    pub fn deliver_token(&mut self, slot: usize) {
        if self.accepts_token(slot) {
            self.apply(slot, FdlEvent::TokenReceived);
        }
    }

    /// All message cycles of this visit are done: `UseToken` → `PassToken`.
    pub fn holding_done(&mut self, slot: usize) {
        self.apply(slot, FdlEvent::HoldingDone);
    }

    /// The successor accepted the token: `PassToken` → `ActiveIdle`.
    pub fn pass_confirmed(&mut self, slot: usize) {
        self.apply(slot, FdlEvent::PassConfirmed);
    }

    /// The pass retries are exhausted and no successor took over (a lost
    /// token frame): `PassToken` → `ClaimToken`.
    pub fn pass_failed(&mut self, slot: usize) {
        self.apply(slot, FdlEvent::PassFailed);
    }

    /// The ring successor of `slot` (LAS order: next-higher address,
    /// wrapping). `None` when `slot` is not a member.
    pub fn successor(&self, slot: usize) -> Option<usize> {
        let next = self.ring.next_of(self.addrs[slot])?;
        self.slot_of(next)
    }

    /// Removes `slot` from the LAS after its departure was detected.
    /// Returns `true` if it was a member.
    pub fn drop_member(&mut self, slot: usize) -> bool {
        self.gap[slot] = None;
        self.ring.leave(self.addrs[slot])
    }

    /// `true` when `slot` holds the lowest LAS address — a token arrival
    /// there starts a new rotation, which is what listening stations count.
    pub fn is_wrap_point(&self, slot: usize) -> bool {
        self.ring.members().first() == Some(&self.addrs[slot])
    }

    /// A full token rotation completed: every listening station has
    /// observed one more rotation of the LAS.
    pub fn observe_wrap(&mut self) {
        for slot in 0..self.stations.len() {
            if self.stations[slot].state() == FdlState::ListenToken {
                self.rotations_seen[slot] = self.rotations_seen[slot].saturating_add(1);
            }
        }
    }

    /// Whether `slot` is listening and has observed enough rotations to
    /// answer a GAP poll with `MasterReady`.
    pub fn ready_to_join(&self, slot: usize) -> bool {
        self.stations[slot].state() == FdlState::ListenToken
            && self.rotations_seen[slot] >= LISTEN_ROTATIONS
    }

    /// How a GAP poll of `target` would be answered right now.
    pub fn poll_response(&self, target: MasterAddr) -> GapPollResult {
        match self.slot_of(target) {
            None => GapPollResult::NoStation,
            Some(slot) if self.is_offline(slot) => GapPollResult::NoStation,
            Some(slot) if self.ready_to_join(slot) => GapPollResult::MasterReady,
            Some(_) => GapPollResult::MasterNotReady,
        }
    }

    /// Admits `slot` into the ring after a `MasterReady` GAP poll:
    /// `ListenToken` → `ActiveIdle`, LAS join, GAP maintenance armed.
    pub fn admit(&mut self, slot: usize) {
        debug_assert!(self.ready_to_join(slot), "admit requires a ready listener");
        self.apply(slot, FdlEvent::RingEntryComplete);
        self.ring.join(self.addrs[slot]);
        self.rotations_seen[slot] = 0;
        self.arm_gap(slot);
    }

    /// Called on each token visit of `slot`: returns the GAP address to
    /// poll this visit, if the update factor `G` says one is due.
    pub fn gap_poll_due(&mut self, slot: usize) -> Option<MasterAddr> {
        let ring = &self.ring;
        self.gap[slot].as_mut()?.on_token_visit(ring)
    }

    /// Token visits of `slot` until its next GAP poll becomes due, or
    /// `None` when GAP maintenance is not armed for it (polling disabled,
    /// or not an active member). Read-only companion of
    /// [`RingController::gap_poll_due`] for the idle fast-forward's span
    /// capping.
    pub fn gap_visits_until_due(&self, slot: usize) -> Option<u32> {
        self.gap[slot].as_ref().map(GapState::visits_until_due)
    }

    /// Bulk-advances `slot`'s GAP visit counter by `n` poll-free visits
    /// (see [`GapState::advance_visits`]); a no-op when GAP maintenance is
    /// not armed.
    pub fn gap_advance_visits(&mut self, slot: usize, n: u32) {
        if let Some(gap) = self.gap[slot].as_mut() {
            gap.advance_visits(n);
        }
    }

    /// The station that re-originates a vanished token: the lowest-address
    /// powered LAS member, or — when the whole ring is dead — the
    /// lowest-address powered listener. `None` when no station is powered.
    pub fn claimant(&self) -> Option<usize> {
        let powered = |&slot: &usize| !self.is_offline(slot);
        let mut slots: Vec<usize> = (0..self.len())
            .filter(powered)
            .filter(|&s| self.in_ring(s))
            .collect();
        if slots.is_empty() {
            slots = (0..self.len()).filter(powered).collect();
        }
        slots.into_iter().min_by_key(|&s| self.addrs[s])
    }

    /// `slot` wins the claim after its recovery timeout: it ends holding
    /// the token (`UseToken`). A listener claiming an empty bus joins the
    /// LAS as its sole member; returns `true` when the claim added `slot`
    /// to the ring.
    pub fn claim(&mut self, slot: usize) -> bool {
        match self.stations[slot].state() {
            FdlState::ListenToken | FdlState::ActiveIdle => {
                self.apply(slot, FdlEvent::TimeoutTto);
                self.apply(slot, FdlEvent::ClaimSucceeded);
            }
            FdlState::ClaimToken => self.apply(slot, FdlEvent::ClaimSucceeded),
            other => panic!("claim from {other:?} (slot {slot})"),
        }
        let joined = self.ring.join(self.addrs[slot]);
        if joined {
            self.rotations_seen[slot] = 0;
            self.arm_gap(slot);
        }
        joined
    }

    fn arm_gap(&mut self, slot: usize) {
        if self.gap_factor >= 1 {
            self.gap[slot] = Some(GapState::new(self.addrs[slot], self.gap_factor));
        }
    }

    /// Applies an FDL event, panicking on an invalid transition — the
    /// controller is supposed to make those unrepresentable, so one firing
    /// is a simulator bug, not a protocol condition.
    fn apply(&mut self, slot: usize, event: FdlEvent) {
        if let Err(state) = self.stations[slot].apply(event) {
            panic!("invalid FDL transition {event:?} from {state:?} (slot {slot})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::check_address_plan;

    fn controller(addrs: &[u8], g: u32) -> RingController {
        let plan = check_address_plan(addrs.iter().map(|&a| Some(MasterAddr(a)))).unwrap();
        RingController::new(plan, g)
    }

    #[test]
    fn construction_validates_addresses() {
        // A controller is built only from a checked plan, which takes each
        // explicit address as its slot's.
        let c = controller(&[1, 2], 1);
        assert_eq!(
            (c.len(), c.addr_of(0), c.addr_of(1)),
            (2, MasterAddr(1), MasterAddr(2))
        );
        assert_eq!(c.slot_of(MasterAddr(2)), Some(1));
        assert_eq!(c.slot_of(MasterAddr(3)), None);
        // An address outside 0..=126 or an aliased one yields no plan.
        let plan = |addrs: &[u8]| check_address_plan(addrs.iter().map(|&a| Some(MasterAddr(a))));
        assert_eq!(
            plan(&[1, 127]),
            Err(profirt_base::AddressPlanError::InvalidAddress { master: 1 })
        );
        assert_eq!(
            plan(&[5, 3, 5]),
            Err(profirt_base::AddressPlanError::DuplicateAddress {
                addr: MasterAddr(5),
                first: 0,
                second: 2
            })
        );
    }

    #[test]
    fn boot_in_ring_is_active_and_member() {
        let mut c = controller(&[2, 7], 1);
        c.boot_in_ring(0);
        c.boot_in_ring(1);
        assert_eq!(c.ring_size(), 2);
        assert_eq!(c.state_of(0), FdlState::ActiveIdle);
        assert!(c.accepts_token(1));
        assert_eq!(c.successor(0), Some(1));
        assert_eq!(c.successor(1), Some(0));
    }

    #[test]
    fn join_lifecycle_needs_two_rotations_then_admission() {
        let mut c = controller(&[0, 5], 1);
        c.boot_in_ring(0);
        assert!(c.power_on(1));
        assert!(!c.power_on(1), "double power-on is a no-op");
        assert_eq!(
            c.poll_response(MasterAddr(5)),
            GapPollResult::MasterNotReady
        );
        c.observe_wrap();
        assert!(!c.ready_to_join(1));
        c.observe_wrap();
        assert!(c.ready_to_join(1));
        assert_eq!(c.poll_response(MasterAddr(5)), GapPollResult::MasterReady);
        c.admit(1);
        assert!(c.in_ring(1));
        assert_eq!(c.state_of(1), FdlState::ActiveIdle);
        // An empty GAP address reports no station.
        assert_eq!(c.poll_response(MasterAddr(9)), GapPollResult::NoStation);
    }

    #[test]
    fn token_round_trip_states() {
        let mut c = controller(&[1, 4], 1);
        c.boot_in_ring(0);
        c.boot_in_ring(1);
        c.deliver_token(0);
        assert_eq!(c.state_of(0), FdlState::UseToken);
        c.holding_done(0);
        assert_eq!(c.state_of(0), FdlState::PassToken);
        c.pass_confirmed(0);
        assert_eq!(c.state_of(0), FdlState::ActiveIdle);
    }

    #[test]
    fn dead_successor_dropped_and_skipped() {
        let mut c = controller(&[1, 4, 9], 1);
        for s in 0..3 {
            c.boot_in_ring(s);
        }
        assert!(c.power_off(1));
        assert!(!c.power_off(1), "double power-off is a no-op");
        // Still in the LAS until the holder detects the failed pass.
        assert!(c.in_ring(1));
        assert_eq!(c.successor(0), Some(1));
        assert!(c.drop_member(1));
        assert_eq!(c.successor(0), Some(2));
        assert_eq!(c.ring_size(), 2);
    }

    #[test]
    fn claimant_prefers_powered_ring_members() {
        let mut c = controller(&[3, 8, 1], 2);
        c.boot_in_ring(0); // addr 3
        c.boot_in_ring(1); // addr 8
        c.power_on(2); // addr 1, listening only
                       // The listener has the lowest address but ring members claim first.
        assert_eq!(c.claimant(), Some(0));
        c.power_off(0);
        assert_eq!(c.claimant(), Some(1));
        c.power_off(1);
        // Whole ring dead: the listener may re-originate.
        assert_eq!(c.claimant(), Some(2));
        assert!(c.claim(2), "listener claim joins the ring");
        assert_eq!(c.state_of(2), FdlState::UseToken);
        assert!(c.in_ring(2));
        c.power_off(2);
        assert_eq!(c.claimant(), None);
    }

    #[test]
    fn wrap_point_is_lowest_member_address() {
        let mut c = controller(&[6, 2], 1);
        c.boot_in_ring(0);
        c.boot_in_ring(1);
        assert!(c.is_wrap_point(1));
        assert!(!c.is_wrap_point(0));
        c.drop_member(1);
        assert!(c.is_wrap_point(0));
    }

    #[test]
    fn gap_fast_forward_counters_match_per_visit() {
        let mut per_visit = controller(&[0, 3], 4);
        per_visit.boot_in_ring(0);
        per_visit.boot_in_ring(1);
        assert_eq!(per_visit.gap_visits_until_due(0), Some(4));
        let mut bulk = per_visit.clone();
        for _ in 0..3 {
            assert_eq!(per_visit.gap_poll_due(0), None);
        }
        bulk.gap_advance_visits(0, 3);
        assert_eq!(per_visit, bulk);
        assert_eq!(bulk.gap_visits_until_due(0), Some(1));
        assert_eq!(per_visit.gap_poll_due(0), bulk.gap_poll_due(0));
        // Unarmed slots: no due counter, bulk advances are no-ops.
        let mut off = controller(&[0, 3], 0);
        off.boot_in_ring(0);
        assert_eq!(off.gap_visits_until_due(0), None);
        off.gap_advance_visits(0, 7);
    }

    #[test]
    fn gap_poll_cadence_respects_factor() {
        let mut c = controller(&[0, 3], 3);
        c.boot_in_ring(0);
        c.boot_in_ring(1);
        assert_eq!(c.gap_poll_due(0), None);
        assert_eq!(c.gap_poll_due(0), None);
        // Third visit polls the first GAP address of master 0: address 1.
        assert_eq!(c.gap_poll_due(0), Some(MasterAddr(1)));
        // GAP polling disabled: never due.
        let mut off = controller(&[0, 3], 0);
        off.boot_in_ring(0);
        for _ in 0..10 {
            assert_eq!(off.gap_poll_due(0), None);
        }
    }
}
