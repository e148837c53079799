//! The pre-materialized reference network simulator.
//!
//! This is the pre-streaming implementation kept as an executable
//! specification: it drains the same lazy release generators into sorted
//! `Vec`s up front (O(horizon × streams) memory) and runs the identical
//! §3.1 token loop with index pointers and linear-scan low-priority
//! selection. Two consumers depend on it:
//!
//! * the differential property tests, which pin the streaming kernel's
//!   results byte-for-byte against this baseline across random networks,
//!   seeds, jitter modes, and queue policies;
//! * the `sim_kernel` benchmark, which quantifies the streaming kernel's
//!   advantage over pre-materialization.
//!
//! It is **not** part of the supported simulation API and gets no
//! observer pipeline; use [`crate::network::simulate_network`].

use profirt_base::release::MergedReleases;
use profirt_base::Time;
use profirt_profibus::{ApQueue, Request, StackCapacity, StackQueue, TokenTimer};
use profirt_workload::{low_priority_release_gens, stream_release_gens};

use crate::engine::SimRng;
use crate::network::config::{NetworkSimConfig, SimMaster, SimNetwork};
use crate::network::kernel::{recovery_rule, ring_successors};
use crate::network::sim::{NetworkSimResult, StreamObservation};

struct MasterState {
    timer: TokenTimer,
    ap: ApQueue,
    stack: StackQueue,
    /// Every high-priority release of the run, materialized and sorted
    /// ascending by ready time (consumed from the front).
    releases: Vec<(Time, Request)>,
    next_release_index: usize,
    /// Low-priority pending queue: ready instants of generated requests.
    lp_pending: Vec<(Time, Time)>, // (ready, cycle_time)
    lp_next_index: usize,
    lp_releases: Vec<(Time, Time)>,
    observations: Vec<StreamObservation>,
    max_trr: Time,
    visits: u64,
    lp_completed: u64,
    first_arrival_seen: bool,
}

impl MasterState {
    /// Moves releases that became ready by `now` into the AP queue, doing
    /// the real-time AP→stack transfer at each release instant.
    fn sync(&mut self, now: Time) {
        while self.next_release_index < self.releases.len()
            && self.releases[self.next_release_index].0 <= now
        {
            let (_, r) = self.releases[self.next_release_index];
            self.next_release_index += 1;
            self.ap.push(r);
            self.transfer();
        }
        while self.lp_next_index < self.lp_releases.len()
            && self.lp_releases[self.lp_next_index].0 <= now
        {
            self.lp_pending.push(self.lp_releases[self.lp_next_index]);
            self.lp_next_index += 1;
        }
    }

    fn transfer(&mut self) {
        while !self.stack.is_full() {
            match self.ap.pop() {
                Some(r) => {
                    let ok = self.stack.try_push(r);
                    debug_assert!(ok);
                }
                None => break,
            }
        }
    }

    fn record(&mut self, req: &Request, completion: Time) {
        let obs = &mut self.observations[req.stream.0];
        obs.max_response = obs.max_response.max(completion - req.release);
        obs.completed += 1;
        if completion > req.abs_deadline {
            obs.misses += 1;
        }
    }
}

fn build_master(
    cfg: &SimMaster,
    ttr: Time,
    run: &NetworkSimConfig,
    rng: &mut SimRng,
) -> MasterState {
    // Materialize the full horizon: the memory profile the streaming
    // kernel exists to avoid.
    let releases = MergedReleases::new(stream_release_gens(
        &cfg.streams,
        run.horizon,
        run.offsets,
        run.jitter,
        rng,
    ))
    .drain_to_vec();
    let lp_releases =
        MergedReleases::new(low_priority_release_gens(&cfg.low_priority, run.horizon))
            .drain_to_vec();

    MasterState {
        timer: TokenTimer::new(ttr),
        ap: ApQueue::new(cfg.policy),
        stack: StackQueue::with_capacity(StackCapacity::from_config(cfg.stack_capacity)),
        releases,
        next_release_index: 0,
        lp_pending: Vec::new(),
        lp_next_index: 0,
        lp_releases,
        observations: vec![StreamObservation::default(); cfg.streams.len()],
        max_trr: Time::ZERO,
        visits: 0,
        lp_completed: 0,
        first_arrival_seen: false,
    }
}

/// Runs the pre-materialized baseline simulation.
///
/// # Panics
/// Panics if the network has no masters or a non-positive token-pass time
/// (time could stall).
pub fn simulate_network_materialized(
    net: &SimNetwork,
    config: &NetworkSimConfig,
) -> NetworkSimResult {
    if let Err(e) = net.validate() {
        panic!("{e}");
    }
    assert!(
        config.is_static_ring(),
        "the materialized reference models the static §3.1 ring only; \
         membership churn and GAP polling are kernel-only features"
    );
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut masters: Vec<MasterState> = net
        .masters
        .iter()
        .map(|m| build_master(m, net.ttr, config, &mut rng))
        .collect();
    let mut fault_rng = rng.fork();
    let mut sample_duration = move |ch: Time| -> Time {
        if config.cycle_undershoot <= 0.0 {
            return ch;
        }
        let v = config.cycle_undershoot.min(1.0);
        let lo = Time::new(((ch.ticks() as f64) * (1.0 - v)).ceil().max(1.0) as i64);
        lo + fault_rng.time_in(ch - lo)
    };
    let mut loss_rng = SimRng::seed_from_u64(config.seed ^ 0x70CE_55E5);
    let (claimant, recovery_timeout) = recovery_rule(net, config);
    let next_of = ring_successors(net);
    let mut recoveries: u64 = 0;

    let mut now = Time::ZERO;
    let mut holder = 0usize;
    while now < config.horizon {
        let m = &mut masters[holder];
        m.visits += 1;
        let prev_start = m.timer.trr_started_at();
        let hold = m.timer.on_token_arrival(now);
        if m.first_arrival_seen {
            m.max_trr = m.max_trr.max(now - prev_start);
        }
        m.first_arrival_seen = true;

        m.sync(now);

        // Step 2: one guaranteed high-priority cycle.
        if let Some(req) = m.stack.pop() {
            m.sync(now);
            m.transfer();
            now += sample_duration(req.cycle_time);
            m.sync(now);
            m.record(&req, now);

            // Step 3: more high-priority cycles while TTH > 0 at start.
            while hold.may_start_additional_high(now) && !m.stack.is_empty() {
                let req = m.stack.pop().expect("non-empty");
                m.transfer();
                now += sample_duration(req.cycle_time);
                m.sync(now);
                m.record(&req, now);
            }
        }

        // Step 4: low-priority cycles while TTH > 0 at start and no
        // high-priority request pends.
        while hold.may_start_low(now) && m.stack.is_empty() {
            // Oldest ready low-priority request, by linear scan.
            let pos = m
                .lp_pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(ready, _))| ready)
                .map(|(i, _)| i);
            let Some(pos) = pos else { break };
            let (_, cycle) = m.lp_pending.remove(pos);
            now += sample_duration(cycle);
            m.lp_completed += 1;
            m.sync(now);
        }

        // Step 5: pass the token to the next-higher FDL address
        // (possibly losing it).
        now += net.token_pass;
        if config.token_loss_prob > 0.0 && loss_rng.unit() < config.token_loss_prob {
            now += recovery_timeout;
            recoveries += 1;
            holder = claimant;
        } else {
            holder = next_of[holder];
        }
    }

    NetworkSimResult {
        streams: masters.iter().map(|m| m.observations.clone()).collect(),
        max_trr: masters.iter().map(|m| m.max_trr).collect(),
        token_visits: masters.iter().map(|m| m.visits).collect(),
        low_completed: masters.iter().map(|m| m.lp_completed).collect(),
        token_recoveries: recoveries,
    }
}
