//! Bus timing parameters.
//!
//! All durations are expressed in **bit times** (ticks): at baud rate `b`,
//! one bit time is `1/b` seconds, so every DIN 19245 parameter (slot time,
//! station delay, idle time) — specified by the standard in bit times — is
//! exactly representable. Conversions to microseconds are provided for
//! reporting.

use profirt_base::Time;

/// PROFIBUS bus parameter set (per-network, common to all masters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusParams {
    /// Baud rate in bit/s (defines the tick duration `1/baud`).
    pub baud_rate: u32,
    /// Slot time `TSL`: how long an initiator waits for the first response
    /// character before a retry (bit times).
    pub slot_time: Time,
    /// Minimum station delay of responders `min TSDR` (bit times).
    pub min_tsdr: Time,
    /// Maximum station delay of responders `max TSDR` (bit times) — the
    /// worst-case turnaround between request and response.
    pub max_tsdr: Time,
    /// Idle time `TID1`: inserted by the initiator after receiving an
    /// acknowledgement/response before its next transmission (bit times).
    pub tid1: Time,
    /// Idle time `TID2`: inserted after an unacknowledged transmission
    /// (e.g. token pass or SDN broadcast) (bit times).
    pub tid2: Time,
    /// Synchronisation period `TSYN` preceding each frame: 33 idle bit
    /// times per DIN 19245.
    pub tsyn: Time,
    /// Maximum number of retries after a missing/garbled response
    /// (`max_retry_limit`).
    pub max_retry: u8,
    /// Target token rotation time `TTR` (bit times) — the paper's key
    /// tunable, set via eq. (15).
    pub ttr: Time,
}

impl BusParams {
    /// Typical profile at 500 kbit/s (DIN 19245 defaults).
    pub fn profile_500k() -> BusParams {
        BusParams {
            baud_rate: 500_000,
            slot_time: Time::new(200),
            min_tsdr: Time::new(11),
            max_tsdr: Time::new(100),
            tid1: Time::new(37),
            tid2: Time::new(100),
            tsyn: Time::new(33),
            max_retry: 1,
            ttr: Time::new(20_000),
        }
    }

    /// Typical profile at 1.5 Mbit/s.
    pub fn profile_1m5() -> BusParams {
        BusParams {
            baud_rate: 1_500_000,
            slot_time: Time::new(300),
            min_tsdr: Time::new(11),
            max_tsdr: Time::new(150),
            tid1: Time::new(37),
            tid2: Time::new(150),
            tsyn: Time::new(33),
            max_retry: 1,
            ttr: Time::new(50_000),
        }
    }

    /// Typical profile at 93.75 kbit/s (long segments).
    pub fn profile_93_75k() -> BusParams {
        BusParams {
            baud_rate: 93_750,
            slot_time: Time::new(125),
            min_tsdr: Time::new(11),
            max_tsdr: Time::new(60),
            tid1: Time::new(37),
            tid2: Time::new(60),
            tsyn: Time::new(33),
            max_retry: 1,
            ttr: Time::new(4_000),
        }
    }

    /// Returns a copy with a different `TTR` (the analysis sweeps this).
    pub fn with_ttr(mut self, ttr: Time) -> BusParams {
        self.ttr = ttr;
        self
    }

    /// Returns a copy with a different slot time `TSL` (the simulators
    /// carry `TSL` in their run config and route it through here for the
    /// token-recovery timeout).
    pub fn with_slot_time(mut self, slot_time: Time) -> BusParams {
        self.slot_time = slot_time;
        self
    }

    /// Returns a copy with a different retry limit.
    pub fn with_max_retry(mut self, max_retry: u8) -> BusParams {
        self.max_retry = max_retry;
        self
    }

    /// Duration of one bit time in nanoseconds (rounded down).
    pub fn bit_time_ns(&self) -> u64 {
        1_000_000_000u64 / self.baud_rate as u64
    }

    /// Converts ticks (bit times) to microseconds as `f64`, for reporting
    /// only.
    pub fn ticks_to_micros(&self, t: Time) -> f64 {
        t.ticks() as f64 * 1e6 / self.baud_rate as f64
    }

    /// Converts a microsecond duration to ticks, rounding up (conservative
    /// for worst-case budgets).
    pub fn micros_to_ticks(&self, micros: f64) -> Time {
        Time::new((micros * self.baud_rate as f64 / 1e6).ceil() as i64)
    }

    /// Basic sanity validation of the parameter set.
    pub fn validate(&self) -> Result<(), String> {
        if self.baud_rate == 0 {
            return Err("baud rate must be positive".into());
        }
        if !self.slot_time.is_positive() {
            return Err("slot time must be positive".into());
        }
        if self.min_tsdr > self.max_tsdr {
            return Err("min TSDR exceeds max TSDR".into());
        }
        if self.max_tsdr >= self.slot_time {
            return Err("slot time must exceed max TSDR (or every cycle retries)".into());
        }
        if !self.ttr.is_positive() {
            return Err("TTR must be positive".into());
        }
        Ok(())
    }
}

impl Default for BusParams {
    fn default() -> Self {
        BusParams::profile_500k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn profiles_are_valid() {
        for p in [
            BusParams::profile_500k(),
            BusParams::profile_1m5(),
            BusParams::profile_93_75k(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn bit_time_values() {
        assert_eq!(BusParams::profile_500k().bit_time_ns(), 2_000);
        assert_eq!(BusParams::profile_1m5().bit_time_ns(), 666);
    }

    #[test]
    fn micros_round_trip() {
        let p = BusParams::profile_500k();
        // 2 us per bit: 100 us = 50 bits.
        assert_eq!(p.micros_to_ticks(100.0), t(50));
        assert!((p.ticks_to_micros(t(50)) - 100.0).abs() < 1e-9);
        // Rounding up: 1 us = 0.5 bits -> 1 tick.
        assert_eq!(p.micros_to_ticks(1.0), t(1));
    }

    #[test]
    fn with_builders() {
        let p = BusParams::profile_500k()
            .with_ttr(t(9_999))
            .with_max_retry(3);
        assert_eq!(p.ttr, t(9_999));
        assert_eq!(p.max_retry, 3);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = BusParams::profile_500k();
        p.min_tsdr = t(500);
        assert!(p.validate().is_err());

        let mut p2 = BusParams::profile_500k();
        p2.slot_time = t(50); // below max_tsdr = 100
        assert!(p2.validate().is_err());

        let mut p3 = BusParams::profile_500k();
        p3.ttr = t(0);
        assert!(p3.validate().is_err());
    }
}
