//! Fixed-priority levels.
//!
//! Convention used throughout the workspace: **numerically smaller value =
//! higher priority** (priority 0 is the most urgent). This matches the usual
//! presentation of rate/deadline-monotonic orderings where tasks are sorted
//! by period/deadline and indexed from the most urgent.

use core::fmt;

/// A fixed priority level; smaller is more urgent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u32);

impl Priority {
    /// The most urgent priority.
    pub const HIGHEST: Priority = Priority(0);

    /// Returns `true` if `self` is strictly more urgent than `other`.
    #[inline]
    pub fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }

    /// Returns `true` if `self` is strictly less urgent than `other`.
    #[inline]
    pub fn is_lower_than(self, other: Priority) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_value_is_higher_priority() {
        assert!(Priority(0).is_higher_than(Priority(1)));
        assert!(Priority(2).is_lower_than(Priority(1)));
        assert!(!Priority(1).is_higher_than(Priority(1)));
        assert_eq!(Priority::HIGHEST, Priority(0));
    }

    #[test]
    fn display() {
        assert_eq!(Priority(4).to_string(), "P4");
    }
}
