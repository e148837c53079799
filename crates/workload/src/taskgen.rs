//! Random task-set generation for the §2 experiments.

use profirt_base::{AnalysisResult, Prng, Task, TaskSet, Time};

use crate::periods::{log_uniform_period, PeriodRange};
use crate::uunifast::uunifast;

/// How relative deadlines are assigned.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DeadlinePolicy {
    /// `Di = Ti` (the Liu & Layland model).
    Implicit,
    /// `Di = Ci + f · (Ti − Ci)` with `f` uniform in `[min_frac, max_frac]`
    /// (constrained deadlines; `f = 1` recovers implicit).
    ConstrainedFraction {
        /// Lower bound of `f` (0..=1).
        min_frac: f64,
        /// Upper bound of `f` (0..=1, >= min_frac).
        max_frac: f64,
    },
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct TaskGenParams {
    /// Number of tasks.
    pub n: usize,
    /// Target total utilisation (0, 1].
    pub total_utilization: f64,
    /// Period sampling range.
    pub periods: PeriodRange,
    /// Deadline assignment.
    pub deadline: DeadlinePolicy,
}

impl TaskGenParams {
    /// The canonical scenario-matrix point for the §2 experiments and the
    /// campaign engine's `cpu` scenarios: `n` tasks at total utilisation
    /// `u`, implicit deadlines, periods log-uniform on the standard
    /// `[100, 5000]` grid (step 10).
    ///
    /// Matrix axes (task count, utilisation) route through here; refine a
    /// point with [`with_deadline_frac`] / [`with_periods`].
    ///
    /// [`with_deadline_frac`]: TaskGenParams::with_deadline_frac
    /// [`with_periods`]: TaskGenParams::with_periods
    pub fn standard(n: usize, u: f64) -> TaskGenParams {
        TaskGenParams {
            n,
            total_utilization: u,
            periods: PeriodRange::new(Time::new(100), Time::new(5_000), Time::new(10)),
            deadline: DeadlinePolicy::Implicit,
        }
    }

    /// Switches to constrained deadlines `Di = Ci + f·(Ti − Ci)` with `f`
    /// uniform in `[min_frac, max_frac]` (the campaign `deadline_frac`
    /// axis hook).
    pub fn with_deadline_frac(mut self, min_frac: f64, max_frac: f64) -> TaskGenParams {
        self.deadline = DeadlinePolicy::ConstrainedFraction { min_frac, max_frac };
        self
    }

    /// Replaces the period sampling range (wide ranges amplify blocking in
    /// the non-preemptive experiments).
    pub fn with_periods(mut self, periods: PeriodRange) -> TaskGenParams {
        self.periods = periods;
        self
    }
}

/// Generates one validated task set.
///
/// Costs are `Ci = max(1, round(ui · Ti))`, so very small utilisation
/// shares on short periods round up to one tick — the realised total
/// utilisation can deviate slightly from the target (callers needing the
/// exact value should read it back from [`TaskSet::total_utilization`]).
pub fn generate_task_set(rng: &mut Prng, params: &TaskGenParams) -> AnalysisResult<TaskSet> {
    assert!(
        params.total_utilization > 0.0 && params.total_utilization <= 1.0,
        "total utilisation must be in (0, 1]"
    );
    let us = uunifast(rng, params.n, params.total_utilization);
    let mut tasks = Vec::with_capacity(params.n);
    for &u in &us {
        let t_i = log_uniform_period(rng, &params.periods);
        let c_raw = (u * t_i.ticks() as f64).round() as i64;
        let c_i = Time::new(c_raw.clamp(1, t_i.ticks()));
        let d_i = match params.deadline {
            DeadlinePolicy::Implicit => t_i,
            DeadlinePolicy::ConstrainedFraction { min_frac, max_frac } => {
                assert!(
                    (0.0..=1.0).contains(&min_frac) && (min_frac..=1.0).contains(&max_frac),
                    "deadline fractions must satisfy 0 <= min <= max <= 1"
                );
                let f = min_frac + rng.unit() * (max_frac - min_frac);
                let slack = (t_i - c_i).ticks() as f64;
                Time::new(c_i.ticks() + (f * slack).round() as i64)
            }
        };
        tasks.push(Task::new(c_i, d_i, t_i)?);
    }
    TaskSet::new(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn params(n: usize, u: f64, deadline: DeadlinePolicy) -> TaskGenParams {
        TaskGenParams {
            n,
            total_utilization: u,
            periods: PeriodRange::new(t(1_000), t(100_000), t(10)),
            deadline,
        }
    }

    #[test]
    fn generates_valid_sets() {
        let rng = Prng::seed_from_u64(1);
        for seed in 0..50u64 {
            let mut r = Prng::seed_from_u64(seed);
            let set = generate_task_set(&mut r, &params(8, 0.7, DeadlinePolicy::Implicit)).unwrap();
            assert_eq!(set.len(), 8);
            assert!(set.all_implicit_deadlines());
        }
        let _ = rng;
    }

    #[test]
    fn utilization_close_to_target() {
        let mut rng = Prng::seed_from_u64(2);
        let set = generate_task_set(&mut rng, &params(10, 0.6, DeadlinePolicy::Implicit)).unwrap();
        let u = set.total_utilization().to_f64();
        // Rounding of costs distorts the target only slightly with
        // periods >= 1000 ticks.
        assert!((u - 0.6).abs() < 0.02, "realised utilisation {u}");
    }

    #[test]
    fn constrained_deadlines_in_window() {
        let mut rng = Prng::seed_from_u64(3);
        let set = generate_task_set(
            &mut rng,
            &params(
                12,
                0.5,
                DeadlinePolicy::ConstrainedFraction {
                    min_frac: 0.3,
                    max_frac: 0.9,
                },
            ),
        )
        .unwrap();
        for (_, task) in set.iter() {
            assert!(task.d >= task.c);
            assert!(task.d <= task.t);
        }
        // At least one strictly constrained deadline in a 12-task draw.
        assert!(set.iter().any(|(_, t)| t.d < t.t));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_task_set(
            &mut Prng::seed_from_u64(9),
            &params(6, 0.8, DeadlinePolicy::Implicit),
        )
        .unwrap();
        let b = generate_task_set(
            &mut Prng::seed_from_u64(9),
            &params(6, 0.8, DeadlinePolicy::Implicit),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_utilization_rounds_up_to_one_tick() {
        let mut rng = Prng::seed_from_u64(4);
        let set = generate_task_set(&mut rng, &params(5, 0.001, DeadlinePolicy::Implicit)).unwrap();
        for (_, task) in set.iter() {
            assert!(task.c >= t(1));
        }
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn overload_target_panics() {
        let mut rng = Prng::seed_from_u64(1);
        let _ = generate_task_set(&mut rng, &params(3, 1.5, DeadlinePolicy::Implicit));
    }
}
