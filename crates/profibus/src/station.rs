//! Station model: the active masters that hold the token in the ring.

use profirt_base::{MasterAddr, StreamSet, Time};

use crate::queue::QueuePolicy;

/// Periodic low-priority background traffic at a master (parameterises the
/// `Cl^k` term of eq. (13) and loads the simulator realistically).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowPriorityTraffic {
    /// Worst-case message-cycle time of one low-priority exchange.
    pub cycle_time: Time,
    /// Generation period.
    pub period: Time,
}

impl LowPriorityTraffic {
    /// Creates a validated low-priority traffic source.
    ///
    /// # Panics
    /// Panics on non-positive cycle time or period (configuration error).
    pub fn new(cycle_time: Time, period: Time) -> LowPriorityTraffic {
        assert!(cycle_time.is_positive(), "cycle time must be positive");
        assert!(period.is_positive(), "period must be positive");
        LowPriorityTraffic { cycle_time, period }
    }
}

/// An active (token-holding) master station.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MasterStation {
    /// Bus address.
    pub addr: MasterAddr,
    /// High-priority message streams originating here (the paper's
    /// `Sh1..Shnh`).
    pub streams: StreamSet,
    /// Low-priority background traffic sources.
    pub low_priority: Vec<LowPriorityTraffic>,
    /// Dispatching policy of the application-process queue.
    pub ap_policy: QueuePolicy,
    /// Capacity of the communication-stack FCFS queue (1 = the paper's §4
    /// architecture; `usize::MAX` = stock behaviour).
    pub stack_capacity: usize,
}

impl MasterStation {
    /// Creates a stock-configuration master (FCFS AP queue, unbounded
    /// stack).
    pub fn stock(addr: MasterAddr, streams: StreamSet) -> MasterStation {
        MasterStation {
            addr,
            streams,
            low_priority: Vec::new(),
            ap_policy: QueuePolicy::Fcfs,
            stack_capacity: usize::MAX,
        }
    }

    /// Creates a master with the paper's priority-queue architecture.
    pub fn priority_queued(
        addr: MasterAddr,
        streams: StreamSet,
        policy: QueuePolicy,
    ) -> MasterStation {
        MasterStation {
            addr,
            streams,
            low_priority: Vec::new(),
            ap_policy: policy,
            stack_capacity: 1,
        }
    }

    /// Adds a low-priority traffic source (builder style).
    pub fn with_low_priority(mut self, lp: LowPriorityTraffic) -> MasterStation {
        self.low_priority.push(lp);
        self
    }

    /// The longest high-priority message cycle `max_i Chi^k`.
    pub fn max_high_cycle(&self) -> Option<Time> {
        self.streams.max_cycle_time()
    }

    /// The longest low-priority message cycle `Cl^k`.
    pub fn max_low_cycle(&self) -> Option<Time> {
        self.low_priority.iter().map(|l| l.cycle_time).max()
    }

    /// The paper's `CM^k = max{max_i Chi^k, Cl^k}` — the longest message
    /// cycle this master can start (eq. (13) input).
    pub fn longest_cycle(&self) -> Time {
        self.max_high_cycle()
            .unwrap_or(Time::ZERO)
            .max(self.max_low_cycle().unwrap_or(Time::ZERO))
    }

    /// Number of high-priority streams (`nh^k`).
    pub fn nh(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    fn streams() -> StreamSet {
        StreamSet::from_cdt(&[(300, 30_000, 30_000), (500, 60_000, 60_000)]).unwrap()
    }

    #[test]
    fn stock_master_defaults() {
        let m = MasterStation::stock(MasterAddr(1), streams());
        assert_eq!(m.ap_policy, QueuePolicy::Fcfs);
        assert_eq!(m.stack_capacity, usize::MAX);
        assert_eq!(m.nh(), 2);
        assert_eq!(m.max_high_cycle(), Some(t(500)));
        assert_eq!(m.max_low_cycle(), None);
        assert_eq!(m.longest_cycle(), t(500));
    }

    #[test]
    fn priority_master_has_single_slot_stack() {
        let m = MasterStation::priority_queued(MasterAddr(2), streams(), QueuePolicy::Edf);
        assert_eq!(m.stack_capacity, 1);
        assert_eq!(m.ap_policy, QueuePolicy::Edf);
    }

    #[test]
    fn longest_cycle_includes_low_priority() {
        let m = MasterStation::stock(MasterAddr(1), streams())
            .with_low_priority(LowPriorityTraffic::new(t(800), t(100_000)));
        assert_eq!(m.max_low_cycle(), Some(t(800)));
        assert_eq!(m.longest_cycle(), t(800));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn invalid_low_priority_panics() {
        let _ = LowPriorityTraffic::new(t(10), t(0));
    }
}
