//! Event tracing for the network simulator.
//!
//! A [`Trace`] is a bounded, time-ordered record of the kernel's
//! [`NetEvent`] stream (token arrivals, message-cycle executions, token
//! passes, recoveries, ring and mode changes), kept as emitted. Traces
//! explain *why* an observation happened — which master held the token
//! when a deadline slipped, where a TTH overrun stretched a rotation — and
//! render as a compact text timeline for docs and debugging.

use std::fmt::Write;

use profirt_base::Time;

use crate::engine::observer::Observer;
use crate::network::observe::NetEvent;

/// A bounded event trace, recorded as an [`Observer`] of the kernel.
///
/// Recording stops silently once `capacity` events are stored (the bound
/// keeps long simulations cheap); [`Trace::truncated`] reports whether
/// events were dropped.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    capacity: usize,
    events: Vec<(Time, NetEvent)>,
    dropped: u64,
}

impl Trace {
    /// Creates a trace storing at most `capacity` events.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[(Time, NetEvent)] {
        &self.events
    }

    /// `true` if the capacity bound dropped events.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Number of dropped events.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders a compact text timeline, one line per event: the instant in
    /// ticks, right-aligned (a message cycle's start), then the event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(at, ev) in &self.events {
            let (stamp, text) = match ev {
                NetEvent::TokenArrival { master, tth, .. } => {
                    let late = if tth.is_positive() { "" } else { " LATE" };
                    (at, format!("M{master} ◀ token (TTH = {tth}{late})"))
                }
                NetEvent::HighCycle {
                    master,
                    request,
                    start,
                    end,
                } => (
                    start,
                    format!(
                        "M{master} ▶ high {} [{start}..{end}] ({} ticks)",
                        request.stream,
                        end - start
                    ),
                ),
                NetEvent::LowCycle { master, start, end } => (
                    start,
                    format!("M{master} ▷ low  [{start}..{end}] ({} ticks)", end - start),
                ),
                NetEvent::TokenPass { from, to } => (at, format!("M{from} → M{to} token pass")),
                NetEvent::Recovery { claimant } => {
                    (at, format!("!! token lost, reclaimed by M{claimant}"))
                }
                NetEvent::GapPoll { master, target, .. } => {
                    (at, format!("M{master} ? gap poll {target}"))
                }
                NetEvent::MasterJoin { master } => (at, format!("++ M{master} joined the ring")),
                NetEvent::MasterLeave { master } => (at, format!("-- M{master} left the ring")),
                NetEvent::Claim { master } => (at, format!("!! token claimed by M{master}")),
                NetEvent::ModeSwitch { degraded: true } => (
                    at,
                    "!! mode switch: HI (shedding sub-HI traffic)".to_string(),
                ),
                NetEvent::ModeSwitch { degraded: false } => {
                    (at, "!! mode switch: LO (all traffic admitted)".to_string())
                }
                NetEvent::Shed { master, stream, .. } => {
                    (at, format!("M{master} ×× shed {stream} (HI mode)"))
                }
                NetEvent::Matchup { waited } => {
                    (at, format!("== match-up complete after {waited} ticks"))
                }
            };
            let _ = writeln!(out, "{:>10}  {text}", stamp.ticks());
        }
        if self.truncated() {
            let _ = writeln!(out, "… {} further events dropped", self.dropped);
        }
        out
    }

    /// The rotation spans of one master: `(arrival, next_arrival)` pairs.
    pub fn rotations(&self, master: usize) -> Vec<(Time, Time)> {
        let arrivals: Vec<Time> = self
            .events
            .iter()
            .filter_map(|&(at, ev)| match ev {
                NetEvent::TokenArrival { master: m, .. } if m == master => Some(at),
                _ => None,
            })
            .collect();
        arrivals.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

impl Observer<NetEvent> for Trace {
    // `on_idle_span` deliberately keeps the default replay: a trace
    // materializes every event (and counts drops past its capacity), so
    // a compressed span must be expanded rotation by rotation.
    fn observe(&mut self, at: Time, event: &NetEvent) {
        if self.events.len() < self.capacity {
            self.events.push((at, *event));
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::{Priority, StreamId};
    use profirt_profibus::Request;

    fn sample() -> Trace {
        let arrival = |master, tth, trr| NetEvent::TokenArrival {
            master,
            tth: t(tth),
            trr,
        };
        let request = Request {
            stream: StreamId(2),
            release: t(0),
            abs_deadline: t(5_000),
            priority: Priority(2),
            cycle_time: t(400),
        };
        let cycle = NetEvent::HighCycle {
            master: 0,
            request,
            start: t(0),
            end: t(400),
        };
        let mut tr = Trace::new(16);
        for (at, ev) in [
            (0, arrival(0, 1000, None)),
            (0, cycle),
            (400, NetEvent::TokenPass { from: 0, to: 1 }),
            (500, arrival(1, -20, None)),
            (900, NetEvent::Recovery { claimant: 0 }),
            (2000, arrival(0, 100, Some(t(2000)))),
        ] {
            tr.observe(t(at), &ev);
        }
        tr
    }

    #[test]
    fn records_in_order() {
        let tr = sample();
        assert_eq!(tr.events().len(), 6);
        assert!(!tr.truncated());
        for w in tr.events().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn capacity_bound_drops_and_reports() {
        let mut tr = Trace::new(2);
        for i in 0..5 {
            tr.observe(t(i), &NetEvent::TokenPass { from: 0, to: 1 });
        }
        assert_eq!(tr.events().len(), 2);
        assert!(tr.truncated());
        assert_eq!(tr.dropped(), 3);
        assert!(tr.render().contains("3 further events dropped"));
    }

    #[test]
    fn rotations_extracted_per_master() {
        let tr = sample();
        let rot = tr.rotations(0);
        assert_eq!(rot, vec![(t(0), t(2000))]);
        assert!(tr.rotations(1).is_empty()); // only one arrival at M1
        assert!(tr.rotations(7).is_empty());
    }
}
