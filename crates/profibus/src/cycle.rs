//! Message-cycle timing.
//!
//! A PROFIBUS *message cycle* is the master's action frame plus the
//! responder's immediate acknowledgement/response (paper footnote 2). Its
//! worst-case duration — the `Chi` (high-priority) and `Cl` (low-priority)
//! inputs of the whole analysis — is assembled from the bus parameters:
//!
//! ```text
//! cycle      = TSYN + action + max_TSDR + response + TID1
//! worst-case = cycle + max_retry × (TSYN + action + TSL)
//! ```
//!
//! i.e. each allowed retry adds a timed-out attempt (the initiator waits a
//! full slot time `TSL` before retransmitting); the final attempt succeeds
//! and pays the full cycle (paper §3.1: "the message cycle time length must
//! also include the time needed to process the allowed retries").

use profirt_base::Time;

use crate::chartime::char_time;
use crate::params::BusParams;

/// Character-level description of one request/response exchange.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MessageCycleSpec {
    /// Characters of the action (request or send/request) frame.
    pub request_chars: usize,
    /// Characters of the immediate response (acknowledge or data).
    pub response_chars: usize,
}

impl MessageCycleSpec {
    /// An SRD exchange carrying `req_data` octets out and `resp_data` octets
    /// back, both in SD2 frames — the typical DP data exchange shape.
    pub fn srd_sd2(req_data: usize, resp_data: usize) -> MessageCycleSpec {
        MessageCycleSpec {
            request_chars: crate::chartime::frame_chars::sd2(req_data),
            response_chars: crate::chartime::frame_chars::sd2(resp_data),
        }
    }

    /// An SDA exchange (SD2 request, single-character acknowledge).
    pub fn sda_sd2(req_data: usize) -> MessageCycleSpec {
        MessageCycleSpec {
            request_chars: crate::chartime::frame_chars::sd2(req_data),
            response_chars: crate::chartime::frame_chars::SHORT_ACK,
        }
    }

    /// Duration of a single error-free exchange (no retries), in bit times.
    pub fn error_free_time(&self, params: &BusParams) -> Time {
        params.tsyn
            + char_time(self.request_chars)
            + params.max_tsdr
            + char_time(self.response_chars)
            + params.tid1
    }

    /// Worst-case cycle time including the maximum allowed retries.
    pub fn worst_case_time(&self, params: &BusParams) -> Time {
        let retries = params.max_retry as i64;
        let per_retry = params.tsyn + char_time(self.request_chars) + params.slot_time;
        self.error_free_time(params) + per_retry * retries
    }
}

/// Token-pass timing: the SD4 frame plus the post-transmission idle `TID2`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TokenPassTime;

impl TokenPassTime {
    /// Duration of one token pass in bit times.
    pub fn time(params: &BusParams) -> Time {
        params.tsyn + char_time(crate::chartime::frame_chars::TOKEN) + params.tid2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn error_free_cycle_components() {
        let p = BusParams::profile_500k();
        // SRD with 10 out / 20 back: req = 19 chars = 209 bits,
        // resp = 29 chars = 319 bits; 33 + 209 + 100 + 319 + 37 = 698.
        let spec = MessageCycleSpec::srd_sd2(10, 20);
        assert_eq!(spec.error_free_time(&p), t(698));
    }

    #[test]
    fn retries_extend_worst_case() {
        let p = BusParams::profile_500k(); // max_retry = 1, TSL = 200
        let spec = MessageCycleSpec::sda_sd2(4);
        // req = 13 chars = 143 bits; error-free = 33+143+100+11+37 = 324.
        assert_eq!(spec.error_free_time(&p), t(324));
        // one retry adds 33+143+200 = 376 -> 700.
        assert_eq!(spec.worst_case_time(&p), t(700));
        // retry = 0 collapses to error-free.
        let p0 = p.with_max_retry(0);
        assert_eq!(spec.worst_case_time(&p0), spec.error_free_time(&p0));
        // retry = 3 adds three slots.
        let p3 = p.with_max_retry(3);
        assert_eq!(spec.worst_case_time(&p3), t(324 + 3 * 376));
    }

    #[test]
    fn token_pass_time() {
        let p = BusParams::profile_500k();
        // 33 (TSYN) + 33 (3 chars) + 100 (TID2) = 166.
        assert_eq!(TokenPassTime::time(&p), t(166));
    }

    #[test]
    fn worst_case_monotone_in_payload() {
        let p = BusParams::profile_1m5();
        let small = MessageCycleSpec::srd_sd2(2, 2).worst_case_time(&p);
        let large = MessageCycleSpec::srd_sd2(64, 64).worst_case_time(&p);
        assert!(large > small);
    }
}
