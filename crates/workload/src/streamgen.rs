//! Random PROFIBUS stream-set generation.
//!
//! Message-cycle times are *not* drawn directly: payload sizes are drawn
//! and priced through the DIN 19245 timing model
//! ([`profirt_profibus::MessageCycleSpec`]), so generated `Chi` values have
//! realistic magnitudes and correlations (request+response+turnaround+
//! retries at the configured baud rate).

use profirt_base::{AnalysisResult, MessageStream, Prng, StreamSet, Time};
use profirt_profibus::{BusParams, MessageCycleSpec};

use crate::periods::{log_uniform_period, PeriodRange};

/// Stream-set generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct StreamGenParams {
    /// Number of high-priority streams (`nh`).
    pub nh: usize,
    /// Request payload bounds in octets (inclusive).
    pub req_payload: (usize, usize),
    /// Response payload bounds in octets (inclusive).
    pub resp_payload: (usize, usize),
    /// Period sampling range (ticks).
    pub periods: PeriodRange,
    /// Deadline as a fraction of the period, uniform in this range
    /// (`(0, 1]`; `1` = implicit).
    pub deadline_frac: (f64, f64),
}

/// Generates one stream set under the given bus profile.
pub fn generate_stream_set(
    rng: &mut Prng,
    bus: &BusParams,
    params: &StreamGenParams,
) -> AnalysisResult<StreamSet> {
    let (dlo, dhi) = params.deadline_frac;
    assert!(
        dlo > 0.0 && dlo <= dhi && dhi <= 1.0,
        "deadline fractions must satisfy 0 < lo <= hi <= 1"
    );
    let mut streams = Vec::with_capacity(params.nh);
    for _ in 0..params.nh {
        let req = sample_range(rng, params.req_payload);
        let resp = sample_range(rng, params.resp_payload);
        let ch = MessageCycleSpec::srd_sd2(req, resp).worst_case_time(bus);
        let t_i = log_uniform_period(rng, &params.periods);
        let f = dlo + rng.unit() * (dhi - dlo);
        let d_i = Time::new(((t_i.ticks() as f64) * f).round() as i64).max(Time::ONE);
        streams.push(MessageStream::new(ch, d_i, t_i)?);
    }
    StreamSet::new(streams)
}

fn sample_range(rng: &mut Prng, (lo, hi): (usize, usize)) -> usize {
    assert!(lo <= hi, "payload range inverted");
    lo + rng.index(hi - lo + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periods::PeriodRange;
    use profirt_base::time::t;

    fn params(nh: usize) -> StreamGenParams {
        StreamGenParams {
            nh,
            req_payload: (2, 32),
            resp_payload: (2, 64),
            periods: PeriodRange::new(t(20_000), t(2_000_000), t(100)),
            deadline_frac: (0.5, 1.0),
        }
    }

    #[test]
    fn generates_realistic_cycle_times() {
        let bus = BusParams::profile_500k();
        let mut rng = Prng::seed_from_u64(1);
        let set = generate_stream_set(&mut rng, &bus, &params(10)).unwrap();
        assert_eq!(set.len(), 10);
        for (_, s) in set.iter() {
            // Smallest possible: srd_sd2(2,2) error-free + one retry.
            let min_ch = MessageCycleSpec::srd_sd2(2, 2).worst_case_time(&bus);
            let max_ch = MessageCycleSpec::srd_sd2(32, 64).worst_case_time(&bus);
            assert!(s.ch >= min_ch && s.ch <= max_ch, "Ch = {:?}", s.ch);
            assert!(s.d <= s.t);
            assert!(s.d.is_positive());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let bus = BusParams::profile_1m5();
        let a = generate_stream_set(&mut Prng::seed_from_u64(5), &bus, &params(6)).unwrap();
        let b = generate_stream_set(&mut Prng::seed_from_u64(5), &bus, &params(6)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_bounds_respected_across_profiles() {
        for bus in [
            BusParams::profile_93_75k(),
            BusParams::profile_500k(),
            BusParams::profile_1m5(),
        ] {
            let mut rng = Prng::seed_from_u64(2);
            let set = generate_stream_set(&mut rng, &bus, &params(4)).unwrap();
            assert_eq!(set.len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "deadline fractions")]
    fn bad_deadline_fracs_panic() {
        let mut p = params(2);
        p.deadline_frac = (0.0, 0.5);
        let mut rng = Prng::seed_from_u64(1);
        let _ = generate_stream_set(&mut rng, &BusParams::profile_500k(), &p);
    }
}
