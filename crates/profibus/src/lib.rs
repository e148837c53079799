//! # profirt-profibus — PROFIBUS FDL substrate
//!
//! A faithful model of the PROFIBUS (DIN 19245 / EN 50170 volume 2) fieldbus
//! data-link layer, at the level of detail the timing analyses and the
//! discrete-event simulator need:
//!
//! * [`params`] — bus timing parameters (baud rate, slot time `TSL`, station
//!   delays `TSDR`, idle times `TID1/TID2`, retry limit, target rotation time
//!   `TTR`) with standard profiles. One tick = one **bit time**.
//! * [`chartime`] — UART character timing (11 bits/char) and frame lengths.
//! * [`cycle`] — message-cycle timing: action frame + responder turnaround +
//!   response + idle time, with worst-case retry expansion. This produces
//!   the `Chi` / `Cl` inputs of the paper's analysis from payload sizes.
//! * [`token`] — the timed-token state machine of the paper's §3.1: `TRR`
//!   measurement, `TTH = TTR − TRR`, the late-token rule (at most one
//!   high-priority message cycle), and the `TTH`-overrun semantics (timer
//!   tested only at cycle start).
//! * [`queue`] — outgoing queues: the stock FCFS queue, the paper's §4
//!   priority-ordered application-process queue (DM or EDF keyed), and the
//!   depth-limited communication-stack queue.
//! * [`station`] / [`ring`] / [`gap`] — the master station model, the
//!   logical token ring (LAS, next-station), and the GAP update mechanism.
//! * [`controller`] — the ring-membership controller tying [`fdl`],
//!   [`ring`] and [`gap`] together: per-station state machines, live LAS,
//!   GAP-driven admission and failed-pass departure detection, as driven
//!   by the dynamic-membership simulation kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chartime;
pub mod controller;
pub mod cycle;
pub mod fdl;
pub mod gap;
pub mod params;
pub mod queue;
pub mod ring;
pub mod station;
pub mod token;

pub use controller::RingController;
pub use cycle::{MessageCycleSpec, TokenPassTime};
pub use fdl::{token_recovery_timeout, FdlEvent, FdlState, FdlStation};
pub use gap::{GapPollResult, GapState};
pub use params::BusParams;
pub use queue::{ApQueue, QueuePolicy, Request, StackCapacity, StackQueue};
pub use ring::LogicalRing;
pub use station::{LowPriorityTraffic, MasterStation};
pub use token::{TokenHold, TokenTimer};
