//! Log-uniform period sampling.
//!
//! Periods drawn log-uniformly from `[min, max]` spread across orders of
//! magnitude (1 ms is as likely as 10 ms as 100 ms), matching how control
//! loops are distributed in real installations and avoiding the
//! short-period bias of linear sampling.

use profirt_base::{Prng, Time};

/// An inclusive period range in ticks, with optional rounding granularity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeriodRange {
    /// Minimum period (ticks, > 0).
    pub min: Time,
    /// Maximum period (ticks, >= min).
    pub max: Time,
    /// Round sampled periods down to a multiple of this granularity
    /// (`1` = no rounding). Rounding keeps hyperperiods manageable.
    pub granularity: Time,
}

impl PeriodRange {
    /// Creates a validated range.
    ///
    /// # Panics
    /// Panics on `min <= 0`, `max < min`, or `granularity <= 0`.
    pub fn new(min: Time, max: Time, granularity: Time) -> PeriodRange {
        assert!(min.is_positive(), "min period must be positive");
        assert!(max >= min, "max period below min");
        assert!(granularity.is_positive(), "granularity must be positive");
        assert!(
            min.ticks() >= granularity.ticks(),
            "min period below granularity (rounding would hit zero)"
        );
        PeriodRange {
            min,
            max,
            granularity,
        }
    }
}

/// Samples one log-uniform period from the range.
pub fn log_uniform_period(rng: &mut Prng, range: &PeriodRange) -> Time {
    let lo = (range.min.ticks() as f64).ln();
    let hi = (range.max.ticks() as f64).ln();
    let x = (lo + rng.unit() * (hi - lo)).exp();
    let raw = x.round() as i64;
    let g = range.granularity.ticks();
    let rounded = (raw / g).max(1) * g;
    Time::new(rounded.clamp(range.min.ticks(), range.max.ticks()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn samples_within_range() {
        let mut rng = Prng::seed_from_u64(3);
        let range = PeriodRange::new(t(1_000), t(1_000_000), t(100));
        for _ in 0..2_000 {
            let p = log_uniform_period(&mut rng, &range);
            assert!(p >= range.min && p <= range.max);
            assert_eq!(p.ticks() % 100, 0);
        }
    }

    #[test]
    fn log_uniform_spreads_magnitudes() {
        // Roughly one third of samples per decade for a 3-decade range.
        let mut rng = Prng::seed_from_u64(11);
        let range = PeriodRange::new(t(1_000), t(1_000_000), t(1));
        let mut decades = [0u32; 3];
        let n = 6_000;
        for _ in 0..n {
            let p = log_uniform_period(&mut rng, &range).ticks();
            let d = if p < 10_000 {
                0
            } else if p < 100_000 {
                1
            } else {
                2
            };
            decades[d] += 1;
        }
        for &c in &decades {
            assert!(
                (n / 5..n / 2).contains(&(c as usize)),
                "decade counts skewed: {decades:?}"
            );
        }
    }

    #[test]
    fn degenerate_range_returns_min() {
        let mut rng = Prng::seed_from_u64(5);
        let range = PeriodRange::new(t(500), t(500), t(1));
        assert_eq!(log_uniform_period(&mut rng, &range), t(500));
    }

    #[test]
    #[should_panic(expected = "max period below min")]
    fn inverted_range_panics() {
        let _ = PeriodRange::new(t(10), t(5), t(1));
    }

    #[test]
    #[should_panic(expected = "below granularity")]
    fn min_below_granularity_panics() {
        let _ = PeriodRange::new(t(5), t(100), t(10));
    }
}
