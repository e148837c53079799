//! Event tracing for the network simulator.
//!
//! A [`Trace`] is a bounded, time-ordered record of bus-level events
//! (token arrivals, message-cycle executions, token passes, recoveries).
//! Traces explain *why* an observation happened — which master held the
//! token when a deadline slipped, where a TTH overrun stretched a rotation
//! — and render as a compact text timeline for docs and debugging.

use profirt_base::{MasterAddr, StreamId, Time};

/// One traced bus event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// Token arrived at a master.
    TokenArrival {
        /// Ring index of the master.
        master: usize,
        /// `TTH` loaded at arrival (negative = late token).
        tth: Time,
    },
    /// A high-priority message cycle executed.
    HighCycle {
        /// Ring index of the master.
        master: usize,
        /// Originating stream.
        stream: StreamId,
        /// Transmission start.
        start: Time,
        /// Transmission end.
        end: Time,
    },
    /// A low-priority message cycle executed.
    LowCycle {
        /// Ring index of the master.
        master: usize,
        /// Transmission start.
        start: Time,
        /// Transmission end.
        end: Time,
    },
    /// The token was passed to the successor.
    TokenPass {
        /// Sender ring index.
        from: usize,
        /// Receiver ring index.
        to: usize,
    },
    /// A lost token was recovered by the claim timeout.
    Recovery {
        /// The master that re-originated the token (lowest address).
        claimant: usize,
    },
    /// The token holder polled one GAP address (`Request FDL Status`).
    GapPoll {
        /// Ring index of the polling master.
        master: usize,
        /// The polled FDL address.
        target: MasterAddr,
    },
    /// A master entered the logical ring.
    MasterJoin {
        /// Ring index of the joining master.
        master: usize,
    },
    /// A master was dropped from the logical ring (departure detected).
    MasterLeave {
        /// Ring index of the departed master.
        master: usize,
    },
    /// A powered station claimed a vanished token (membership recovery).
    Claim {
        /// Ring index of the claiming master.
        master: usize,
    },
    /// The mixed-criticality mode controller switched modes.
    ModeSwitch {
        /// `true`: entering HI (degraded) mode; `false`: back to LO.
        degraded: bool,
    },
    /// A sub-HI request was shed at admission (HI mode).
    Shed {
        /// Ring index of the shedding master.
        master: usize,
        /// The shed request's stream.
        stream: StreamId,
    },
    /// The match-up phase completed: LO traffic re-admitted.
    Matchup {
        /// Span from the degradation instant to the completed match-up.
        waited: Time,
    },
}

/// A bounded event trace.
///
/// Recording stops silently once `capacity` events are stored (the bound
/// keeps long simulations cheap); [`Trace::truncated`] reports whether
/// events were dropped.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    capacity: usize,
    events: Vec<(Time, TraceEvent)>,
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

    /// Records an event at `at`.
    pub fn record(&mut self, at: Time, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push((at, event));
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[(Time, TraceEvent)] {
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

    /// Renders a compact text timeline, one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(at, ev) in &self.events {
            let line = match ev {
                TraceEvent::TokenArrival { master, tth } => {
                    format!(
                        "{at:>10}  M{master} ◀ token (TTH = {}{})",
                        tth,
                        if tth.is_positive() { "" } else { " LATE" }
                    )
                }
                TraceEvent::HighCycle {
                    master,
                    stream,
                    start,
                    end,
                } => format!(
                    "{start:>10}  M{master} ▶ high {stream} [{start}..{end}] ({} ticks)",
                    end - start
                ),
                TraceEvent::LowCycle { master, start, end } => format!(
                    "{start:>10}  M{master} ▷ low  [{start}..{end}] ({} ticks)",
                    end - start
                ),
                TraceEvent::TokenPass { from, to } => {
                    format!("{at:>10}  M{from} → M{to} token pass")
                }
                TraceEvent::Recovery { claimant } => {
                    format!("{at:>10}  !! token lost, reclaimed by M{claimant}")
                }
                TraceEvent::GapPoll { master, target } => {
                    format!("{at:>10}  M{master} ? gap poll {target}")
                }
                TraceEvent::MasterJoin { master } => {
                    format!("{at:>10}  ++ M{master} joined the ring")
                }
                TraceEvent::MasterLeave { master } => {
                    format!("{at:>10}  -- M{master} left the ring")
                }
                TraceEvent::Claim { master } => {
                    format!("{at:>10}  !! token claimed by M{master}")
                }
                TraceEvent::ModeSwitch { degraded } => {
                    if degraded {
                        format!("{at:>10}  !! mode switch: HI (shedding sub-HI traffic)")
                    } else {
                        format!("{at:>10}  !! mode switch: LO (all traffic admitted)")
                    }
                }
                TraceEvent::Shed { master, stream } => {
                    format!("{at:>10}  M{master} ×× shed {stream} (HI mode)")
                }
                TraceEvent::Matchup { waited } => {
                    format!("{at:>10}  == match-up complete after {waited} ticks")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        if self.truncated() {
            out.push_str(&format!("… {} further events dropped\n", self.dropped));
        }
        out
    }

    /// The rotation spans of one master: `(arrival, next_arrival)` pairs.
    pub fn rotations(&self, master: usize) -> Vec<(Time, Time)> {
        let arrivals: Vec<Time> = self
            .events
            .iter()
            .filter_map(|&(at, ev)| match ev {
                TraceEvent::TokenArrival { master: m, .. } if m == master => Some(at),
                _ => None,
            })
            .collect();
        arrivals.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn sample() -> Trace {
        let mut tr = Trace::new(16);
        tr.record(
            t(0),
            TraceEvent::TokenArrival {
                master: 0,
                tth: t(1000),
            },
        );
        tr.record(
            t(0),
            TraceEvent::HighCycle {
                master: 0,
                stream: StreamId(2),
                start: t(0),
                end: t(400),
            },
        );
        tr.record(t(400), TraceEvent::TokenPass { from: 0, to: 1 });
        tr.record(
            t(500),
            TraceEvent::TokenArrival {
                master: 1,
                tth: t(-20),
            },
        );
        tr.record(t(900), TraceEvent::Recovery { claimant: 0 });
        tr.record(
            t(2000),
            TraceEvent::TokenArrival {
                master: 0,
                tth: t(100),
            },
        );
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
            tr.record(t(i), TraceEvent::TokenPass { from: 0, to: 1 });
        }
        assert_eq!(tr.events().len(), 2);
        assert!(tr.truncated());
        assert_eq!(tr.dropped(), 3);
        assert!(tr.render().contains("3 further events dropped"));
    }

    #[test]
    fn render_contains_key_markers() {
        let s = sample().render();
        assert!(s.contains("M0 ◀ token"));
        assert!(s.contains("LATE"));
        assert!(s.contains("high S2"));
        assert!(s.contains("M0 → M1 token pass"));
        assert!(s.contains("reclaimed by M0"));
    }

    #[test]
    fn membership_events_render() {
        let mut tr = Trace::new(8);
        tr.record(
            t(10),
            TraceEvent::GapPoll {
                master: 0,
                target: MasterAddr(3),
            },
        );
        tr.record(t(10), TraceEvent::MasterJoin { master: 2 });
        tr.record(t(40), TraceEvent::MasterLeave { master: 1 });
        tr.record(t(90), TraceEvent::Claim { master: 0 });
        let s = tr.render();
        assert!(s.contains("M0 ? gap poll M3"));
        assert!(s.contains("++ M2 joined the ring"));
        assert!(s.contains("-- M1 left the ring"));
        assert!(s.contains("token claimed by M0"));
    }

    #[test]
    fn mode_events_render() {
        let mut tr = Trace::new(8);
        tr.record(t(10), TraceEvent::ModeSwitch { degraded: true });
        tr.record(
            t(20),
            TraceEvent::Shed {
                master: 1,
                stream: StreamId(3),
            },
        );
        tr.record(t(90), TraceEvent::Matchup { waited: t(80) });
        tr.record(t(90), TraceEvent::ModeSwitch { degraded: false });
        let s = tr.render();
        assert!(s.contains("mode switch: HI"));
        assert!(s.contains("M1 ×× shed S3"));
        assert!(s.contains("match-up complete after 80 ticks"));
        assert!(s.contains("mode switch: LO"));
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
