//! Scripted ring-membership scenarios.
//!
//! A [`MembershipPlan`] drives joins and leaves through the simulation: it
//! names the masters that start powered off and schedules power-on /
//! power-off / crash events at absolute instants. The kernel applies due
//! events at token-visit boundaries — PROFIBUS has no mid-frame
//! preemption, so a finer grain would model nothing real.
//!
//! An empty plan (the default) combined with a GAP update factor of `0`
//! keeps the ring fixed: the kernel's one token loop takes its
//! **fixed-ring step** (see [`crate::network::kernel`]), and without the
//! mode controller its event stream stays byte-identical to the
//! materialized reference simulator.

use profirt_base::{Prng, Time};

/// What happens to a master at a scheduled instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MembershipAction {
    /// The station is switched on: it starts listening for the LAS and is
    /// admitted through a GAP poll once it has observed two rotations.
    PowerOn,
    /// The station is switched off. DIN 19245 has no leave announcement:
    /// the departure is detected by the first failed token pass.
    PowerOff,
    /// The station fails hard. On the bus this is indistinguishable from
    /// [`MembershipAction::PowerOff`] — the variant exists so scenario
    /// scripts can state intent (and future models can differ, e.g. a
    /// babbling idiot).
    Crash,
}

/// One scripted membership event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MembershipEvent {
    /// Absolute instant the event fires (applied at the next token-visit
    /// boundary at or after `at`).
    pub at: Time,
    /// Ring index of the affected master (position in
    /// [`SimNetwork::masters`](crate::network::SimNetwork::masters)).
    pub master: usize,
    /// What happens.
    pub action: MembershipAction,
}

/// A scripted membership scenario: initial power states plus a time-sorted
/// event list. Construct with the builder methods (which keep the list
/// sorted) or [`MembershipPlan::random_churn`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MembershipPlan {
    initially_off: Vec<usize>,
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// The empty plan: every master powered on and in the ring from time
    /// zero, no events — the static ring of the paper's §3.1.
    pub fn new() -> MembershipPlan {
        MembershipPlan::default()
    }

    /// `true` when nothing is scripted (the static-ring condition).
    pub fn is_empty(&self) -> bool {
        self.initially_off.is_empty() && self.events.is_empty()
    }

    /// Builder: `master` starts powered off (it is *not* a ring member at
    /// time zero and must join through GAP polling).
    pub fn starts_off(mut self, master: usize) -> MembershipPlan {
        if !self.initially_off.contains(&master) {
            self.initially_off.push(master);
            self.initially_off.sort_unstable();
        }
        self
    }

    /// Builder: schedules one event, keeping the list sorted by time
    /// (stable: same-instant events fire in insertion order).
    pub fn at(mut self, at: Time, master: usize, action: MembershipAction) -> MembershipPlan {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events
            .insert(pos, MembershipEvent { at, master, action });
        self
    }

    /// Builder: one off/on power cycle of `master`.
    pub fn power_cycle(self, master: usize, off_at: Time, on_at: Time) -> MembershipPlan {
        self.at(off_at, master, MembershipAction::PowerOff).at(
            on_at,
            master,
            MembershipAction::PowerOn,
        )
    }

    /// A stochastic churn scenario: each master except master 0 (kept
    /// stable so the ring never fully dies) power-cycles `cycles` times at
    /// instants drawn uniformly from the first 70 % of the horizon. Same
    /// seed ⇒ same plan.
    pub fn random_churn(seed: u64, n_masters: usize, horizon: Time, cycles: u32) -> MembershipPlan {
        let mut rng = Prng::seed_from_u64(seed ^ 0xC4_17_2B_5D);
        let mut plan = MembershipPlan::new();
        let window = (horizon.ticks() * 7 / 10).max(2);
        for master in 1..n_masters {
            for _ in 0..cycles {
                let a = 1 + rng.below(window as u64 - 1) as i64;
                let b = 1 + rng.below(window as u64 - 1) as i64;
                let (off_at, on_at) = (a.min(b), a.max(b).max(a.min(b) + 1));
                plan = plan.power_cycle(master, Time::new(off_at), Time::new(on_at));
            }
        }
        plan
    }

    /// The scheduled events, sorted ascending by time.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Masters powered off at time zero, sorted ascending.
    pub fn initially_off(&self) -> &[usize] {
        &self.initially_off
    }

    /// Whether `master` starts powered off.
    pub fn is_initially_off(&self, master: usize) -> bool {
        self.initially_off.binary_search(&master).is_ok()
    }

    /// Validates the plan against a network of `n_masters` masters: every
    /// referenced index must exist, and at least one master must start
    /// powered on (an all-dead bus at time zero has nothing to simulate).
    pub fn validate(&self, n_masters: usize) -> Result<(), String> {
        if let Some(m) = self
            .initially_off
            .iter()
            .chain(self.events.iter().map(|e| &e.master))
            .find(|&&m| m >= n_masters)
        {
            return Err(format!(
                "membership plan references master {m}, but the network has {n_masters}"
            ));
        }
        if self.initially_off.len() >= n_masters && n_masters > 0 {
            return Err("membership plan powers every master off at time zero".into());
        }
        for e in &self.events {
            if !e.at.is_positive() && e.at != Time::ZERO {
                return Err(format!("membership event at negative time {}", e.at));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn builders_keep_events_sorted() {
        let plan = MembershipPlan::new()
            .at(t(500), 1, MembershipAction::PowerOn)
            .at(t(100), 2, MembershipAction::Crash)
            .power_cycle(1, t(300), t(400));
        let ats: Vec<i64> = plan.events().iter().map(|e| e.at.ticks()).collect();
        assert_eq!(ats, vec![100, 300, 400, 500]);
        assert!(!plan.is_empty());
        assert!(MembershipPlan::new().is_empty());
    }

    #[test]
    fn same_instant_events_keep_insertion_order() {
        let plan = MembershipPlan::new()
            .at(t(100), 1, MembershipAction::PowerOff)
            .at(t(100), 2, MembershipAction::PowerOff);
        assert_eq!(plan.events()[0].master, 1);
        assert_eq!(plan.events()[1].master, 2);
    }

    #[test]
    fn initially_off_dedups_and_sorts() {
        let plan = MembershipPlan::new()
            .starts_off(3)
            .starts_off(1)
            .starts_off(3);
        assert_eq!(plan.initially_off(), &[1, 3]);
        assert!(plan.is_initially_off(3));
        assert!(!plan.is_initially_off(2));
    }

    #[test]
    fn validation_rejects_out_of_range_and_all_dead() {
        let plan = MembershipPlan::new().at(t(10), 5, MembershipAction::PowerOff);
        assert!(plan.validate(3).is_err());
        assert!(plan.validate(6).is_ok());
        let dead = MembershipPlan::new().starts_off(0).starts_off(1);
        assert!(dead.validate(2).is_err());
        assert!(dead.validate(3).is_ok());
    }

    #[test]
    fn random_churn_is_deterministic_and_spares_master_zero() {
        let a = MembershipPlan::random_churn(7, 4, t(1_000_000), 2);
        let b = MembershipPlan::random_churn(7, 4, t(1_000_000), 2);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.events().iter().all(|e| e.master != 0));
        assert!(a
            .events()
            .iter()
            .all(|e| e.at.ticks() <= 700_000 + 1 && e.at.is_positive()));
        let c = MembershipPlan::random_churn(8, 4, t(1_000_000), 2);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(a.validate(4).is_ok());
    }
}
