//! Golden timing tables: hand-computed message-cycle and protocol timings
//! across the standard bus profiles (the numbers the paper's `Chi` / `Cl`
//! inputs come from).

use profirt_base::time::t;
use profirt_profibus::chartime::{char_time, frame_chars};
use profirt_profibus::{BusParams, MessageCycleSpec, TokenPassTime};

/// Error-free SRD cycle times at 500 kbit/s, hand-computed:
/// TSYN(33) + 11·(9+req) + maxTSDR(100) + 11·(9+resp) + TID1(37).
#[test]
fn srd_cycle_golden_values_500k() {
    let p = BusParams::profile_500k();
    let cases = [
        // (req, resp, expected bits)
        (0usize, 0usize, 33 + 99 + 100 + 99 + 37),
        (2, 2, 33 + 121 + 100 + 121 + 37),
        (8, 12, 33 + 187 + 100 + 231 + 37),
        (32, 64, 33 + 451 + 100 + 803 + 37),
        (246, 246, 33 + 2805 + 100 + 2805 + 37),
    ];
    for (req, resp, expected) in cases {
        let spec = MessageCycleSpec::srd_sd2(req, resp);
        assert_eq!(spec.error_free_time(&p), t(expected), "srd({req},{resp})");
    }
}

/// Worst-case (with retries) = error-free + retries · (TSYN + request + TSL).
#[test]
fn retry_expansion_all_profiles() {
    for p in [
        BusParams::profile_93_75k(),
        BusParams::profile_500k(),
        BusParams::profile_1m5(),
    ] {
        let spec = MessageCycleSpec::srd_sd2(8, 8);
        let error_free = spec.error_free_time(&p);
        for retries in 0..=4u8 {
            let pr = p.with_max_retry(retries);
            let per_retry = pr.tsyn + char_time(frame_chars::sd2(8)) + pr.slot_time;
            assert_eq!(
                spec.worst_case_time(&pr),
                error_free + per_retry * retries as i64,
                "{} baud, {retries} retries",
                p.baud_rate
            );
        }
    }
}

/// Token pass = TSYN + 3 chars + TID2 for every profile.
#[test]
fn token_pass_golden_values() {
    assert_eq!(
        TokenPassTime::time(&BusParams::profile_93_75k()),
        t(33 + 33 + 60)
    );
    assert_eq!(
        TokenPassTime::time(&BusParams::profile_500k()),
        t(33 + 33 + 100)
    );
    assert_eq!(
        TokenPassTime::time(&BusParams::profile_1m5()),
        t(33 + 33 + 150)
    );
}

/// Wall-clock sanity: cycle durations in microseconds match the bit-time
/// arithmetic at each baud rate.
#[test]
fn wall_clock_durations() {
    let spec = MessageCycleSpec::srd_sd2(8, 12);
    // 500 kbit/s: 588 bits (error-free) = 1176 us.
    let p500 = BusParams::profile_500k();
    let ef = spec.error_free_time(&p500);
    assert_eq!(ef, t(588));
    assert!((p500.ticks_to_micros(ef) - 1_176.0).abs() < 1e-9);
    // 1.5 Mbit/s: different TSDR -> 638 bits = 425.3 us.
    let p1m5 = BusParams::profile_1m5();
    let ef2 = spec.error_free_time(&p1m5);
    assert_eq!(ef2, t(33 + 187 + 150 + 231 + 37));
    assert!((p1m5.ticks_to_micros(ef2) - ef2.ticks() as f64 / 1.5).abs() < 1e-9);
}

/// The acknowledge-only SDA exchange is the shortest possible cycle; the
/// maximal SD2/SD2 exchange is the longest — the generators stay inside
/// this envelope.
#[test]
fn cycle_time_envelope() {
    let p = BusParams::profile_500k();
    let shortest = MessageCycleSpec::sda_sd2(0).worst_case_time(&p);
    let longest = MessageCycleSpec::srd_sd2(246, 246).worst_case_time(&p);
    assert!(shortest < longest);
    for (req, resp) in [(1, 1), (16, 32), (100, 200), (246, 0)] {
        let c = MessageCycleSpec::srd_sd2(req, resp).worst_case_time(&p);
        assert!(c <= longest, "srd({req},{resp}) above envelope");
    }
    // SDA with equal payload is never longer than SRD (short ack response).
    for n in [0usize, 8, 64, 246] {
        assert!(
            MessageCycleSpec::sda_sd2(n).worst_case_time(&p)
                <= MessageCycleSpec::srd_sd2(n, n).worst_case_time(&p)
        );
    }
}

/// Character-count arithmetic for every frame format: pins the *time*
/// model.
#[test]
fn frame_time_table() {
    assert_eq!(char_time(frame_chars::SHORT_ACK), t(11));
    assert_eq!(char_time(frame_chars::TOKEN), t(33));
    assert_eq!(char_time(frame_chars::SD1), t(66));
    assert_eq!(char_time(frame_chars::SD3), t(154));
    assert_eq!(char_time(frame_chars::sd2(0)), t(99));
    assert_eq!(char_time(frame_chars::sd2(246)), t(11 * 255));
}
