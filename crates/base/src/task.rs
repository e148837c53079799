//! The single-processor task model of the paper's §2.
//!
//! A task `τi` is characterised by its worst-case execution time `Ci`, its
//! relative deadline `Di` and its period (or minimum inter-arrival time for
//! sporadic tasks) `Ti`. The §4.1 extension adds a release jitter `Ji`: a
//! job that "arrives" at `a` may only become *ready* up to `Ji` later.

use crate::error::{AnalysisError, AnalysisResult, ModelError};
use crate::num::{lcm, Frac};
use crate::time::Time;

/// A periodic or sporadic task: `(Ci, Di, Ti, Ji)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Task {
    /// Worst-case execution time `Ci` (ticks, > 0).
    pub c: Time,
    /// Relative deadline `Di` (ticks, > 0).
    pub d: Time,
    /// Period / minimum inter-arrival time `Ti` (ticks, > 0).
    pub t: Time,
    /// Release jitter `Ji` (ticks, >= 0). Zero in the classical model.
    pub j: Time,
}

impl Task {
    /// Creates a validated task with implicit deadline `Di = Ti` and no
    /// jitter.
    pub fn implicit(c: impl Into<Time>, t: impl Into<Time>) -> AnalysisResult<Task> {
        let t = t.into();
        Task::new(c, t, t)
    }

    /// Creates a validated task `(C, D, T)` with no jitter.
    pub fn new(c: impl Into<Time>, d: impl Into<Time>, t: impl Into<Time>) -> AnalysisResult<Task> {
        Task::with_jitter(c, d, t, Time::ZERO)
    }

    /// Creates a validated task `(C, D, T, J)`.
    pub fn with_jitter(
        c: impl Into<Time>,
        d: impl Into<Time>,
        t: impl Into<Time>,
        j: impl Into<Time>,
    ) -> AnalysisResult<Task> {
        let task = Task {
            c: c.into(),
            d: d.into(),
            t: t.into(),
            j: j.into(),
        };
        task.validate()?;
        Ok(task)
    }

    /// Validates the parameter ranges (`C > 0`, `D > 0`, `T > 0`, `J >= 0`,
    /// `C <= D`).
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.c.is_positive() {
            return Err(ModelError::NonPositiveCost {
                value: self.c.ticks(),
            });
        }
        if !self.t.is_positive() {
            return Err(ModelError::NonPositivePeriod {
                value: self.t.ticks(),
            });
        }
        if !self.d.is_positive() {
            return Err(ModelError::NonPositiveDeadline {
                value: self.d.ticks(),
            });
        }
        if self.j.is_negative() {
            return Err(ModelError::NegativeJitter {
                value: self.j.ticks(),
            });
        }
        if self.c > self.d {
            return Err(ModelError::CostExceedsDeadline {
                cost: self.c.ticks(),
                deadline: self.d.ticks(),
            });
        }
        Ok(())
    }

    /// The exact utilisation `Ci / Ti`.
    pub fn utilization(&self) -> Frac {
        Frac::new(self.c.ticks() as i128, self.t.ticks() as i128)
    }

    /// `true` if `Di == Ti` (implicit deadline).
    pub fn has_implicit_deadline(&self) -> bool {
        self.d == self.t
    }

    /// `true` if `Di <= Ti` (constrained deadline).
    pub fn has_constrained_deadline(&self) -> bool {
        self.d <= self.t
    }
}

/// An immutable, validated collection of tasks.
///
/// Index order is the identity of the tasks; analyses refer to tasks by
/// index. No priority order is implied — priority assignments are explicit
/// (see `profirt-sched`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a task set, validating every task.
    pub fn new(tasks: Vec<Task>) -> AnalysisResult<TaskSet> {
        for t in &tasks {
            t.validate()?;
        }
        Ok(TaskSet { tasks })
    }

    /// Builds a set from `(C, D, T)` triples — the common test-fixture form.
    pub fn from_cdt(triples: &[(i64, i64, i64)]) -> AnalysisResult<TaskSet> {
        let tasks = triples
            .iter()
            .map(|&(c, d, t)| Task::new(c, d, t))
            .collect::<AnalysisResult<Vec<_>>>()?;
        TaskSet::new(tasks)
    }

    /// Builds an implicit-deadline set from `(C, T)` pairs.
    pub fn from_ct(pairs: &[(i64, i64)]) -> AnalysisResult<TaskSet> {
        let tasks = pairs
            .iter()
            .map(|&(c, t)| Task::implicit(c, t))
            .collect::<AnalysisResult<Vec<_>>>()?;
        TaskSet::new(tasks)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Immutable view of the tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task at `index`, or a typed error.
    pub fn get(&self, index: usize) -> AnalysisResult<&Task> {
        self.tasks.get(index).ok_or(AnalysisError::IndexOutOfRange {
            index,
            len: self.tasks.len(),
        })
    }

    /// Iterator over `(index, &Task)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Task)> {
        self.tasks.iter().enumerate()
    }

    /// Exact total utilisation `Σ Ci/Ti`, summed with `Frac`'s unchecked
    /// `+` (see its range note): for sets known to be small, such as test
    /// fixtures. Analyses compare the sum with 1 through
    /// [`crate::cmp_utilization_one`] and sum values with
    /// [`Frac::checked_add`].
    pub fn total_utilization(&self) -> Frac {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Sum of all execution times `Σ Ci`.
    pub fn total_cost(&self) -> Time {
        self.tasks.iter().map(|t| t.c).sum()
    }

    /// The largest execution time, or `None` for an empty set.
    pub fn max_cost(&self) -> Option<Time> {
        self.tasks.iter().map(|t| t.c).max()
    }

    /// The smallest relative deadline, or `None` for an empty set.
    pub fn min_deadline(&self) -> Option<Time> {
        self.tasks.iter().map(|t| t.d).min()
    }

    /// The largest relative deadline, or `None` for an empty set.
    pub fn max_deadline(&self) -> Option<Time> {
        self.tasks.iter().map(|t| t.d).max()
    }

    /// The hyperperiod `lcm(T1, …, Tn)`, or an overflow error (random period
    /// sets overflow easily; length-bounded analyses avoid relying on it).
    pub fn hyperperiod(&self) -> AnalysisResult<Time> {
        let mut h: i64 = 1;
        for task in &self.tasks {
            h = lcm(h, task.t.ticks())?;
        }
        Ok(Time::new(h))
    }

    /// `true` if every task has `Di == Ti`.
    pub fn all_implicit_deadlines(&self) -> bool {
        self.tasks.iter().all(Task::has_implicit_deadline)
    }

    /// `true` if every task has `Di <= Ti`.
    pub fn all_constrained_deadlines(&self) -> bool {
        self.tasks.iter().all(Task::has_constrained_deadline)
    }

    /// Indices sorted by ascending period (rate-monotonic order; ties by
    /// index for determinism).
    pub fn indices_by_period(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.tasks.len()).collect();
        idx.sort_by_key(|&i| (self.tasks[i].t, i));
        idx
    }

    /// Indices sorted by ascending relative deadline (deadline-monotonic
    /// order; ties by index for determinism).
    pub fn indices_by_deadline(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.tasks.len()).collect();
        idx.sort_by_key(|&i| (self.tasks[i].d, i));
        idx
    }
}

impl From<TaskSet> for Vec<Task> {
    fn from(set: TaskSet) -> Vec<Task> {
        set.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::t;

    #[test]
    fn valid_task_construction() {
        let task = Task::new(2, 7, 10).unwrap();
        assert_eq!(task.c, t(2));
        assert_eq!(task.d, t(7));
        assert_eq!(task.t, t(10));
        assert_eq!(task.j, t(0));
        assert!(task.has_constrained_deadline());
        assert!(!task.has_implicit_deadline());

        let imp = Task::implicit(2, 10).unwrap();
        assert!(imp.has_implicit_deadline());
    }

    #[test]
    fn invalid_tasks_are_rejected() {
        assert!(Task::new(0, 5, 5).is_err());
        assert!(Task::new(-1, 5, 5).is_err());
        assert!(Task::new(1, 0, 5).is_err());
        assert!(Task::new(1, 5, 0).is_err());
        assert!(Task::new(6, 5, 5).is_err()); // C > D
        assert!(Task::with_jitter(1, 5, 5, -1).is_err());
        assert!(Task::with_jitter(1, 5, 5, 2).is_ok());
    }

    #[test]
    fn utilization_is_exact() {
        let task = Task::implicit(1, 3).unwrap();
        assert_eq!(task.utilization(), Frac::new(1, 3));
        let set = TaskSet::from_ct(&[(1, 3), (1, 3), (1, 3)]).unwrap();
        assert_eq!(set.total_utilization(), Frac::ONE);
    }

    #[test]
    fn set_accessors() {
        let set = TaskSet::from_cdt(&[(1, 4, 5), (2, 9, 10), (3, 20, 20)]).unwrap();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.total_cost(), t(6));
        assert_eq!(set.max_cost(), Some(t(3)));
        assert_eq!(set.min_deadline(), Some(t(4)));
        assert_eq!(set.max_deadline(), Some(t(20)));
        assert!(set.get(2).is_ok());
        assert!(matches!(
            set.get(3),
            Err(AnalysisError::IndexOutOfRange { index: 3, len: 3 })
        ));
    }

    #[test]
    fn hyperperiod_and_orders() {
        let set = TaskSet::from_ct(&[(1, 4), (1, 6), (1, 10)]).unwrap();
        assert_eq!(set.hyperperiod().unwrap(), t(60));
        assert_eq!(set.indices_by_period(), vec![0, 1, 2]);

        let set2 = TaskSet::from_cdt(&[(1, 9, 10), (1, 3, 12), (1, 5, 8)]).unwrap();
        assert_eq!(set2.indices_by_deadline(), vec![1, 2, 0]);
        assert_eq!(set2.indices_by_period(), vec![2, 0, 1]);
    }

    #[test]
    fn deadline_classes() {
        let implicit = TaskSet::from_ct(&[(1, 5), (2, 8)]).unwrap();
        assert!(implicit.all_implicit_deadlines());
        assert!(implicit.all_constrained_deadlines());

        let constrained = TaskSet::from_cdt(&[(1, 4, 5)]).unwrap();
        assert!(!constrained.all_implicit_deadlines());
        assert!(constrained.all_constrained_deadlines());

        let arbitrary = TaskSet::from_cdt(&[(1, 9, 5)]).unwrap();
        assert!(!arbitrary.all_constrained_deadlines());
    }

    #[test]
    fn empty_set_edge_cases() {
        let set = TaskSet::new(vec![]).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.total_utilization(), Frac::ZERO);
        assert_eq!(set.max_cost(), None);
        assert_eq!(set.hyperperiod().unwrap(), t(1));
    }
}
