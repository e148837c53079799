//! The FDL (MAC-layer) station state machine.
//!
//! A simplified-but-faithful model of the DIN 19245 part 1 master state
//! machine, covering the behaviour the timing analyses and the simulator
//! depend on:
//!
//! ```text
//! Offline ──PowerOn──► ListenToken ──(ring observed, in LAS gap poll)──► ActiveIdle
//!                          │ (timeout: no bus activity)
//!                          ▼
//!                      ClaimToken ──(claim succeeds)──► UseToken
//! ActiveIdle ──TokenReceived──► UseToken ──(cycles done)──► PassToken
//! UseToken ──(request sent)──► AwaitResponse ──(response/timeout)──► UseToken
//! PassToken ──(successor transmits)──► ActiveIdle
//! PassToken ──(no successor activity, retries exhausted)──► ClaimToken
//! ActiveIdle ──(token lost: timeout TTO)──► ClaimToken
//! ```
//!
//! The **token recovery timeout** is address-staggered per the standard —
//! `TTO = 6·TSL + 2·addr·TSL` — so the lowest-address master claims a lost
//! token first, making recovery deterministic and collision-free.

use profirt_base::{MasterAddr, Time};

use crate::params::BusParams;

/// FDL master states (simplified subset of DIN 19245).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FdlState {
    /// Not on the bus.
    Offline,
    /// Listening to learn the LAS before entering the ring.
    ListenToken,
    /// In the ring, waiting for the token.
    ActiveIdle,
    /// Claiming a lost token (after `TTO` of bus silence).
    ClaimToken,
    /// Holding the token and executing message cycles.
    UseToken,
    /// Waiting for a responder's immediate reply (within the slot time).
    AwaitResponse,
    /// Transmitting the token to the successor and supervising the pass.
    PassToken,
}

/// Events driving the state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FdlEvent {
    /// Station switched on.
    PowerOn,
    /// Station switched off / fatal error.
    PowerOff,
    /// The LAS has been learned (two identical token rotations observed)
    /// and the station was admitted through a GAP poll.
    RingEntryComplete,
    /// Token frame addressed to this station arrived.
    TokenReceived,
    /// Bus silent for the token-recovery timeout `TTO`.
    TimeoutTto,
    /// Token claim succeeded (we re-initialised the ring).
    ClaimSucceeded,
    /// A request frame of a message cycle was transmitted.
    RequestSent,
    /// The responder's reply arrived within the slot time.
    ResponseReceived,
    /// Slot time expired without a reply (retry or give up happens in
    /// `UseToken`).
    ResponseTimeout,
    /// All message cycles for this visit are done; token pass started.
    HoldingDone,
    /// The successor accepted the token (its activity was heard).
    PassConfirmed,
    /// The successor never transmitted (after the allowed pass retries).
    PassFailed,
}

/// Outcome of a transition attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transition {
    /// Moved to the new state.
    To(FdlState),
    /// The event is not meaningful in the current state (protocol error if
    /// it arrives on a real bus; simulators treat it as a bug).
    Invalid,
}

/// Applies the FDL transition function.
pub fn step(state: FdlState, event: FdlEvent) -> Transition {
    use FdlEvent as E;
    use FdlState as S;
    let next = match (state, event) {
        (_, E::PowerOff) => S::Offline,
        (S::Offline, E::PowerOn) => S::ListenToken,
        (S::ListenToken, E::RingEntryComplete) => S::ActiveIdle,
        (S::ListenToken, E::TimeoutTto) => S::ClaimToken, // alone on the bus
        (S::ActiveIdle, E::TokenReceived) => S::UseToken,
        (S::ActiveIdle, E::TimeoutTto) => S::ClaimToken,
        (S::ClaimToken, E::ClaimSucceeded) => S::UseToken,
        (S::ClaimToken, E::TokenReceived) => S::UseToken, // someone else won
        (S::UseToken, E::RequestSent) => S::AwaitResponse,
        (S::UseToken, E::HoldingDone) => S::PassToken,
        (S::AwaitResponse, E::ResponseReceived) => S::UseToken,
        (S::AwaitResponse, E::ResponseTimeout) => S::UseToken,
        (S::PassToken, E::PassConfirmed) => S::ActiveIdle,
        (S::PassToken, E::PassFailed) => S::ClaimToken,
        _ => return Transition::Invalid,
    };
    Transition::To(next)
}

/// The address-staggered token-recovery timeout
/// `TTO = 6·TSL + 2·addr·TSL`.
pub fn token_recovery_timeout(params: &BusParams, addr: MasterAddr) -> Time {
    params.slot_time * (6 + 2 * addr.0 as i64)
}

/// A station wrapper tracking its state and rejecting invalid events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdlStation {
    /// This station's address.
    pub addr: MasterAddr,
    state: FdlState,
}

impl FdlStation {
    /// A powered-off station.
    pub fn new(addr: MasterAddr) -> FdlStation {
        FdlStation {
            addr,
            state: FdlState::Offline,
        }
    }

    /// Current state.
    pub fn state(&self) -> FdlState {
        self.state
    }

    /// Applies an event; returns the new state or `Err` on an invalid
    /// transition (leaving the state unchanged).
    pub fn apply(&mut self, event: FdlEvent) -> Result<FdlState, FdlState> {
        match step(self.state, event) {
            Transition::To(s) => {
                self.state = s;
                Ok(s)
            }
            Transition::Invalid => Err(self.state),
        }
    }

    /// `true` when the station may transmit message cycles.
    pub fn holds_token(&self) -> bool {
        matches!(
            self.state,
            FdlState::UseToken | FdlState::AwaitResponse | FdlState::PassToken
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn happy_path_ring_lifecycle() {
        let mut st = FdlStation::new(MasterAddr(3));
        assert_eq!(st.state(), FdlState::Offline);
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::RingEntryComplete).unwrap();
        assert_eq!(st.state(), FdlState::ActiveIdle);
        assert!(!st.holds_token());
        st.apply(FdlEvent::TokenReceived).unwrap();
        assert!(st.holds_token());
        st.apply(FdlEvent::RequestSent).unwrap();
        st.apply(FdlEvent::ResponseReceived).unwrap();
        st.apply(FdlEvent::HoldingDone).unwrap();
        st.apply(FdlEvent::PassConfirmed).unwrap();
        assert_eq!(st.state(), FdlState::ActiveIdle);
    }

    #[test]
    fn retry_path_response_timeout_returns_to_use_token() {
        let mut st = FdlStation::new(MasterAddr(1));
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::RingEntryComplete).unwrap();
        st.apply(FdlEvent::TokenReceived).unwrap();
        st.apply(FdlEvent::RequestSent).unwrap();
        assert_eq!(st.state(), FdlState::AwaitResponse);
        st.apply(FdlEvent::ResponseTimeout).unwrap();
        assert_eq!(st.state(), FdlState::UseToken); // retry happens here
    }

    #[test]
    fn token_loss_recovery() {
        let mut st = FdlStation::new(MasterAddr(0));
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::RingEntryComplete).unwrap();
        // Token lost somewhere: silence for TTO.
        st.apply(FdlEvent::TimeoutTto).unwrap();
        assert_eq!(st.state(), FdlState::ClaimToken);
        st.apply(FdlEvent::ClaimSucceeded).unwrap();
        assert!(st.holds_token());
    }

    #[test]
    fn claim_race_lost_still_recovers() {
        let mut st = FdlStation::new(MasterAddr(5));
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::RingEntryComplete).unwrap();
        st.apply(FdlEvent::TimeoutTto).unwrap();
        // A lower-address master claimed first and eventually passes to us.
        st.apply(FdlEvent::TokenReceived).unwrap();
        assert_eq!(st.state(), FdlState::UseToken);
    }

    #[test]
    fn failed_pass_leads_to_reclaim() {
        let mut st = FdlStation::new(MasterAddr(2));
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::RingEntryComplete).unwrap();
        st.apply(FdlEvent::TokenReceived).unwrap();
        st.apply(FdlEvent::HoldingDone).unwrap();
        st.apply(FdlEvent::PassFailed).unwrap();
        assert_eq!(st.state(), FdlState::ClaimToken);
    }

    #[test]
    fn invalid_transitions_rejected_without_state_change() {
        let mut st = FdlStation::new(MasterAddr(1));
        assert_eq!(st.apply(FdlEvent::TokenReceived), Err(FdlState::Offline));
        st.apply(FdlEvent::PowerOn).unwrap();
        assert_eq!(
            st.apply(FdlEvent::ResponseReceived),
            Err(FdlState::ListenToken)
        );
        assert_eq!(st.state(), FdlState::ListenToken);
    }

    #[test]
    fn power_off_from_anywhere() {
        for state in [
            FdlState::Offline,
            FdlState::ListenToken,
            FdlState::ActiveIdle,
            FdlState::ClaimToken,
            FdlState::UseToken,
            FdlState::AwaitResponse,
            FdlState::PassToken,
        ] {
            assert_eq!(
                step(state, FdlEvent::PowerOff),
                Transition::To(FdlState::Offline)
            );
        }
    }

    #[test]
    fn recovery_timeout_is_address_staggered() {
        let p = BusParams::profile_500k(); // TSL = 200
        assert_eq!(token_recovery_timeout(&p, MasterAddr(0)), t(1_200));
        assert_eq!(token_recovery_timeout(&p, MasterAddr(1)), t(1_600));
        assert_eq!(token_recovery_timeout(&p, MasterAddr(10)), t(5_200));
        // Strictly increasing in address: the lowest address always wins
        // the claim race.
        for a in 0..=125u8 {
            assert!(
                token_recovery_timeout(&p, MasterAddr(a))
                    < token_recovery_timeout(&p, MasterAddr(a + 1))
            );
        }
    }

    #[test]
    fn lone_station_claims_from_listen() {
        let mut st = FdlStation::new(MasterAddr(0));
        st.apply(FdlEvent::PowerOn).unwrap();
        st.apply(FdlEvent::TimeoutTto).unwrap();
        assert_eq!(st.state(), FdlState::ClaimToken);
    }
}
