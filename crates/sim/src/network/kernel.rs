//! The streaming network-simulation kernel.
//!
//! The kernel executes the paper-literal §3.1 token algorithm (see
//! [`simulate_network`](crate::network::simulate_network) for the rule list) against **lazy** release
//! generators: per-stream [`StreamReleases`] and per-source
//! [`LowPriorityReleases`] are merged through deterministic k-way merges,
//! so the kernel holds O(streams) release state at any horizon — no
//! release vector is ever materialized. Pending low-priority work sits in
//! a heap-backed [`EventQueue`] (ready-ordered, FIFO among equals),
//! replacing the former linear-scan `Vec`.
//!
//! The kernel aggregates nothing: it emits a [`NetEvent`] stream into the
//! observer pipeline. Results, traces, and percentile statistics are all
//! observers (see [`crate::network::observe`]).
//!
//! ## One loop, fixed-ring step
//!
//! Every run executes one token loop over a simulated membership: every
//! master runs the DIN 19245 FDL state machine, the token travels over a
//! live [`profirt_profibus::LogicalRing`] keyed by FDL address (the
//! "next station" is the next-higher address, wrapping), the holder's GAP
//! polls (one `Request FDL Status` every `G` visits, consuming real
//! token-holding time) admit listening masters after two observed
//! rotations, departures are detected through failed token passes (each
//! costing `(1 + max_retry) · (token_pass + TSL)` before the successor is
//! skipped), and a vanished token is re-originated by the lowest-address
//! powered station after its staggered claim timeout. All of that
//! protocol state lives in [`profirt_profibus::RingController`]; the
//! kernel owns time and traffic. Scripted membership events apply at
//! token-visit boundaries.
//!
//! A ring with an empty [`MembershipPlan`](crate::network::MembershipPlan)
//! and GAP polling disabled (`gap_factor == 0`, the config defaults)
//! cannot change, with or without the mode controller. There the loop
//! takes its **fixed-ring step**: it skips the per-visit
//! `RingController` calls (all no-ops on such a ring), passes the token
//! along a successor table built once in the same address order
//! (`ring_successors`), and recovers a lost token by `recovery_rule`
//! (the lowest-address master's claim). Without the mode controller its
//! event stream is byte-identical to the materialized reference
//! simulator ([`crate::network::reference`]); the differential property
//! tests pin that, and pin the fixed-ring step against the full protocol
//! path on the same ring.
//!
//! Determinism contract: for identical inputs — seed, plan, and config —
//! the kernel produces the exact same event stream, whatever the observer
//! set.

use profirt_base::release::MergedReleases;
use profirt_base::{AddressPlan, Criticality, Time};
use profirt_profibus::fdl::token_recovery_timeout;
use profirt_profibus::{
    gap, ApQueue, BusParams, Request, RingController, StackCapacity, StackQueue, TokenTimer,
};
use profirt_workload::{
    low_priority_release_gens, stream_release_gens, LowPriorityReleases, StreamReleases,
};

use crate::engine::{EventQueue, IdleSpan, Observer, SimRng};
use crate::network::config::{
    MembershipAction, NetworkSimConfig, SimMaster, SimNetwork, SimNetworkError,
};
use crate::network::mode::{ModeController, ModeTransition};
use crate::network::observe::NetEvent;

/// Run statistics of one kernel execution: the peak memory indicators
/// that pin the O(streams) memory contract in tests (counts, not bytes —
/// both scale together), plus the executed-work counters of the idle
/// fast-forward.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelMemStats {
    /// Largest number of releases buffered inside any master's merged
    /// generators at a token arrival (heads + primed look-ahead slots +
    /// jitter look-ahead). Bounded by `2·streams + Σ ⌈J/T⌉` independent
    /// of the horizon.
    pub peak_release_buffer: usize,
    /// Largest number of requests pending in any master's AP + stack +
    /// low-priority queues at a token arrival (the actual backlog, which
    /// is workload-dependent).
    pub peak_pending: usize,
    /// Token visits actually executed by the per-visit loop. Visits
    /// inside fast-forwarded idle spans are *not* counted — on sparse
    /// workloads this stays sublinear in the horizon (pinned in tests).
    pub visits_simulated: u64,
    /// Whole idle token rotations skipped arithmetically by the idle
    /// fast-forward (zero when `fast_forward` is off or the run never
    /// went idle for a full rotation).
    pub rotations_fast_forwarded: u64,
}

/// The token order of a ring that cannot change: `next[k]` is the ring
/// index of the master with the next-higher FDL address after master `k`
/// (wrapping to the lowest), the LAS "next station" rule of
/// [`profirt_profibus::RingController::successor`] on a full ring.
pub(crate) fn ring_successors(net: &SimNetwork) -> Vec<usize> {
    let addrs = net.addresses();
    let mut order: Vec<usize> = (0..addrs.len()).collect();
    order.sort_unstable_by_key(|&k| addrs[k]);
    let mut next = vec![0; addrs.len()];
    for (i, &k) in order.iter().enumerate() {
        next[k] = order[(i + 1) % order.len()];
    }
    next
}

/// The token-loss recovery rule of a ring that cannot change: the
/// lowest-address master claims the token after the FDL claim timeout
/// `TTO = (6 + 2·addr)·TSL` (DIN 19245, see
/// [`profirt_profibus::fdl::token_recovery_timeout`]), as
/// [`profirt_profibus::RingController::claimant`] picks on a full ring.
/// Returns the claimant's ring index and the bus-silence span before its
/// claim.
pub(crate) fn recovery_rule(net: &SimNetwork, config: &NetworkSimConfig) -> (usize, Time) {
    let addrs = net.addresses();
    let claimant = (0..addrs.len()).min_by_key(|&k| addrs[k]).unwrap_or(0);
    let bus = BusParams::profile_500k().with_slot_time(config.slot_time);
    (claimant, token_recovery_timeout(&bus, addrs[claimant]))
}

/// Per-master streaming state.
struct MasterKernel {
    timer: TokenTimer,
    ap: ApQueue,
    stack: StackQueue,
    /// Lazy high-priority releases, merged over the master's streams.
    high: MergedReleases<StreamReleases>,
    /// Lazy low-priority generations, merged over the master's sources.
    low: MergedReleases<LowPriorityReleases>,
    /// Cached `high.peek_ready()` — the idle-visit fast path is a plain
    /// compare instead of a heap peek.
    next_high: Option<Time>,
    /// Cached `low.peek_ready()`.
    next_low: Option<Time>,
    /// Ready low-priority work: heap-backed, ordered by `(ready, FIFO)`.
    /// Payload is the cycle time.
    lp_pending: EventQueue<Time>,
    first_arrival_seen: bool,
    /// Per-stream criticality (empty = all HI); drives admission-time
    /// shedding while the run's mode controller is degraded.
    criticality: Vec<Criticality>,
    /// Requests shed at admission during the current visit's syncs,
    /// buffered here so the visit can emit them as [`NetEvent::Shed`].
    shed: Vec<Request>,
}

impl MasterKernel {
    fn build(cfg: &SimMaster, ttr: Time, run: &NetworkSimConfig, rng: &mut SimRng) -> MasterKernel {
        let high = MergedReleases::new(stream_release_gens(
            &cfg.streams,
            run.horizon,
            run.offsets,
            run.jitter,
            rng,
        ));
        let low = MergedReleases::new(low_priority_release_gens(&cfg.low_priority, run.horizon));
        MasterKernel {
            timer: TokenTimer::new(ttr),
            ap: ApQueue::new(cfg.policy),
            stack: StackQueue::with_capacity(StackCapacity::from_config(cfg.stack_capacity)),
            next_high: high.peek_ready(),
            next_low: low.peek_ready(),
            high,
            low,
            lp_pending: EventQueue::new(),
            first_arrival_seen: false,
            criticality: cfg.criticality.clone(),
            shed: Vec::new(),
        }
    }

    /// Pulls releases that became ready by `now` out of the lazy
    /// generators: high-priority requests drop through the AP queue into
    /// the stack (the real-time AP→stack transfer at each release
    /// instant), low-priority generations into the pending heap. Returns
    /// `true` when anything was pulled (queue state changed).
    ///
    /// With `shed_lo` set (the run's mode controller is degraded), sub-HI
    /// requests are shed at admission: they go to the `shed` buffer
    /// instead of the AP queue. Requests admitted before the switch stay
    /// queued — shedding is admission control, not recall.
    fn sync(&mut self, now: Time, shed_lo: bool) -> bool {
        let mut pulled = false;
        while self.next_high.is_some_and(|r| r <= now) {
            let (_, request) = self.high.next_release().expect("due");
            self.next_high = self.high.peek_ready();
            let crit = self
                .criticality
                .get(request.stream.0)
                .copied()
                .unwrap_or(Criticality::Hi);
            if shed_lo && crit.shed_in_hi_mode() {
                self.shed.push(request);
            } else {
                self.ap.push(request);
                self.transfer();
            }
            pulled = true;
        }
        while self.next_low.is_some_and(|r| r <= now) {
            let (ready, cycle) = self.low.next_release().expect("due");
            self.next_low = self.low.peek_ready();
            self.lp_pending.schedule(ready, cycle);
            pulled = true;
        }
        pulled
    }

    /// AP → stack transfer: fill free stack slots with the most urgent AP
    /// requests.
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

    /// Re-initialises queue state after a power cycle: every request
    /// released while the station was off is discarded (the AP process
    /// was down), and the TRR measurement restarts on the next arrival.
    fn reboot(&mut self, now: Time) {
        self.sync(now, false);
        while self.ap.pop().is_some() {}
        while self.stack.pop().is_some() {}
        while self.lp_pending.pop().is_some() {}
        self.shed.clear();
        self.first_arrival_seen = false;
    }
}

/// Message-cycle duration sampling under the `cycle_undershoot` fault
/// model: uniform in `[⌈(1-v)·Ch⌉, Ch]` when enabled, always `Ch`
/// otherwise. Forked off the run RNG right after the masters' release
/// generators, where the materialized reference forks its own, so both
/// simulators consume the fault stream identically.
struct DurationSampler {
    undershoot: f64,
    rng: SimRng,
}

impl DurationSampler {
    fn sample(&mut self, ch: Time) -> Time {
        if self.undershoot <= 0.0 {
            return ch;
        }
        let v = self.undershoot.min(1.0);
        let lo = Time::new(((ch.ticks() as f64) * (1.0 - v)).ceil().max(1.0) as i64);
        lo + self.rng.time_in(ch - lo)
    }
}

fn emit(observers: &mut [&mut dyn Observer<NetEvent>], at: Time, ev: NetEvent) {
    for obs in observers.iter_mut() {
        obs.observe(at, &ev);
    }
}

/// Emits the visit's admission-shed requests (buffered by
/// [`MasterKernel::sync`]) as [`NetEvent::Shed`] at the sync instant.
fn drain_shed(
    shed: &mut Vec<Request>,
    holder: usize,
    at: Time,
    observers: &mut [&mut dyn Observer<NetEvent>],
) {
    for request in shed.drain(..) {
        emit(
            observers,
            at,
            NetEvent::Shed {
                master: holder,
                stream: request.stream,
                release: request.release,
            },
        );
    }
}

/// Turns a mode-controller transition into its event(s).
fn emit_transition(
    transition: Option<ModeTransition>,
    at: Time,
    observers: &mut [&mut dyn Observer<NetEvent>],
) {
    match transition {
        Some(ModeTransition::Degrade) => {
            emit(observers, at, NetEvent::ModeSwitch { degraded: true });
        }
        Some(ModeTransition::Matchup { waited }) => {
            emit(observers, at, NetEvent::Matchup { waited });
            emit(observers, at, NetEvent::ModeSwitch { degraded: false });
        }
        None => {}
    }
}

/// One token visit at `holder`: TRR bookkeeping and arrival emission,
/// release sync + peak tracking, then the §3.1 serve steps 2–4. Returns
/// the instant serving finished. `shed_lo` is the run's mode-controller
/// state for this visit (always `false` without the controller): sub-HI
/// releases synced during the visit are shed at admission and emitted as
/// [`NetEvent::Shed`].
#[allow(clippy::too_many_arguments)]
fn visit(
    m: &mut MasterKernel,
    holder: usize,
    now: Time,
    durations: &mut DurationSampler,
    mem: &mut KernelMemStats,
    observers: &mut [&mut dyn Observer<NetEvent>],
    shed_lo: bool,
) -> Time {
    mem.visits_simulated += 1;

    // TRR measurement: the timer records arrival-to-arrival spans
    // (reported from the second arrival on).
    let prev_start = m.timer.trr_started_at();
    let hold = m.timer.on_token_arrival(now);
    let trr = m.first_arrival_seen.then(|| now - prev_start);
    m.first_arrival_seen = true;
    emit(
        observers,
        now,
        NetEvent::TokenArrival {
            master: holder,
            tth: hold.tth_at_arrival,
            trr,
        },
    );

    // Peak tracking only when releases were pulled: backlog and
    // look-ahead sizes only change then, so idle visits skip the
    // bookkeeping entirely.
    if m.sync(now, shed_lo) {
        mem.peak_release_buffer = mem
            .peak_release_buffer
            .max(m.high.buffered() + m.low.buffered());
        mem.peak_pending = mem
            .peak_pending
            .max(m.ap.len() + m.stack.len() + m.lp_pending.len());
        drain_shed(&mut m.shed, holder, now, observers);
    }

    let mut now = now;

    // Step 2: one guaranteed high-priority cycle.
    if let Some(request) = m.stack.pop() {
        m.sync(now, shed_lo); // releases strictly before start already synced
        m.transfer(); // slot freed at transmission start
        let start = now;
        now += durations.sample(request.cycle_time);
        m.sync(now, shed_lo);
        drain_shed(&mut m.shed, holder, now, observers);
        emit(
            observers,
            start,
            NetEvent::HighCycle {
                master: holder,
                request,
                start,
                end: now,
            },
        );

        // Step 3: more high-priority cycles while TTH > 0 at start.
        while hold.may_start_additional_high(now) && !m.stack.is_empty() {
            let request = m.stack.pop().expect("non-empty");
            m.transfer();
            let start = now;
            now += durations.sample(request.cycle_time);
            m.sync(now, shed_lo);
            drain_shed(&mut m.shed, holder, now, observers);
            emit(
                observers,
                start,
                NetEvent::HighCycle {
                    master: holder,
                    request,
                    start,
                    end: now,
                },
            );
        }
    }

    // Step 4: low-priority cycles while TTH > 0 at cycle start and no
    // high-priority request pends (checked at each cycle start).
    while hold.may_start_low(now) && m.stack.is_empty() {
        // Oldest ready low-priority request (heap pop: min ready,
        // FIFO among equals — the former linear scan's order).
        let Some((_, cycle)) = m.lp_pending.pop() else {
            break;
        };
        let start = now;
        now += durations.sample(cycle);
        m.sync(now, shed_lo);
        drain_shed(&mut m.shed, holder, now, observers);
        emit(
            observers,
            start,
            NetEvent::LowCycle {
                master: holder,
                start,
                end: now,
            },
        );
    }

    now
}

/// Validates `net` and its clock range under `config`, then builds the
/// run's mode controller when `config` enables one; its thresholds must
/// fit i64 ticks as well. Returns the checked address plan too.
fn validated_mode_controller(
    net: &SimNetwork,
    config: &NetworkSimConfig,
) -> Result<(AddressPlan, Option<ModeController>), SimNetworkError> {
    let plan = net.validate()?;
    config.check_tick_range(net)?;
    if !config.mode.enabled {
        return Ok((plan, None));
    }
    let initial = (0..net.masters.len())
        .filter(|&k| !config.membership.is_initially_off(k))
        .count();
    let ctrl = ModeController::new(net.ttr, net.masters.len(), initial, config.mode)?;
    Ok((plan, Some(ctrl)))
}

/// Runs the streaming kernel, emitting every bus event into `observers`:
/// the one token loop of the module docs.
///
/// Observers are passive; the event stream (and thus any result derived
/// from it) is identical for every observer set, including the empty one.
/// Returns the run's peak-memory indicators.
///
/// # Panics
/// Panics if the network fails [`SimNetwork::validate`] (no masters,
/// non-positive token pass, invalid or aliased FDL addresses), the run's
/// clock could wrap ([`NetworkSimConfig::check_tick_range`]) or the
/// membership plan references masters the network does not have.
pub fn run_network(
    net: &SimNetwork,
    config: &NetworkSimConfig,
    observers: &mut [&mut dyn Observer<NetEvent>],
) -> KernelMemStats {
    // The mixed-criticality mode controller (when enabled): fed from the
    // same TRR measurements and join/leave events the observers see.
    let (plan, mut mode_ctrl) = match validated_mode_controller(net, config) {
        Ok(ctrl) => ctrl,
        Err(e) => panic!("{e}"),
    };
    if let Err(e) = config.membership.validate(net.masters.len()) {
        panic!("{e}");
    }

    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut masters: Vec<MasterKernel> = net
        .masters
        .iter()
        .map(|m| MasterKernel::build(m, net.ttr, config, &mut rng))
        .collect();
    // Uniform duration in [⌈(1-v)·Ch⌉, Ch] under cycle-undershoot
    // injection; always Ch otherwise.
    let mut durations = DurationSampler {
        undershoot: config.cycle_undershoot,
        rng: rng.fork(),
    };
    let mut loss_rng = SimRng::seed_from_u64(config.seed ^ 0x70CE_55E5);
    let mut mem = KernelMemStats::default();

    let bus = BusParams::profile_500k().with_slot_time(config.slot_time);
    let mut ctrl = RingController::new(plan, config.gap_factor);
    let plan = &config.membership;
    for k in 0..net.masters.len() {
        if !plan.is_initially_off(k) {
            ctrl.boot_in_ring(k);
        }
    }
    let events = plan.events();
    let mut next_event = 0usize;
    // Without scripted churn or GAP polling nobody joins or leaves: the
    // fixed-ring step skips the controller's per-visit bookkeeping and
    // passes along the address-order table (the order `ctrl.successor`
    // follows on a full ring, so the idle pattern below uses it too).
    let fixed = plan.is_empty() && config.gap_factor == 0;
    let next_of = ring_successors(net);
    let (fixed_claimant, fixed_recovery) = recovery_rule(net, config);
    // Failed-pass detection budget: the initial attempt plus the bus
    // profile's retries, each waiting a full slot time for successor
    // activity.
    let attempts = 1 + bus.max_retry as i64;

    let n_masters = masters.len();
    let rotation = net.token_pass * n_masters as i64;
    // The idle fast-forward needs determinism over the skipped span: with
    // token loss armed every pass draws from the loss RNG, so skipping
    // would desynchronise the fault stream. Loss-free runs (the default)
    // draw nothing on idle visits and can skip freely.
    let fast_forward = config.fast_forward && config.token_loss_prob <= 0.0;
    // Consecutive executed visits that were pure token hops: no serving,
    // no GAP poll, no retries — each exactly one `token_pass` apart. Any
    // membership disturbance resets it. Once every master went idle in
    // turn (`idle_streak >= n_masters`) on a full ring, all token timers
    // are rotation-aligned, so the next rotations emit the constant
    // pattern `TokenArrival { tth: TTR − R, trr: Some(R) }` / `TokenPass`
    // until a release comes due.
    let mut idle_streak = 0usize;
    let mut pattern: Vec<(Time, NetEvent)> = Vec::new();

    let mut now = Time::ZERO;
    // The first holder is the first initially-on master in ring-vector
    // order (ring index 0 when it is powered).
    let mut holder: Option<usize> = (0..net.masters.len()).find(|&k| ctrl.in_ring(k));

    while now < config.horizon {
        // Scripted membership events apply at token-visit boundaries.
        while events.get(next_event).is_some_and(|e| e.at <= now) {
            let e = events[next_event];
            next_event += 1;
            idle_streak = 0;
            match e.action {
                MembershipAction::PowerOn => {
                    if ctrl.power_on(e.master) {
                        masters[e.master].reboot(now);
                    }
                }
                MembershipAction::PowerOff | MembershipAction::Crash => {
                    if ctrl.power_off(e.master) && holder == Some(e.master) {
                        // The token died with its holder.
                        holder = None;
                    }
                }
            }
        }

        // No token on the bus: silence until a claim timeout fires.
        let Some(h) = holder else {
            idle_streak = 0;
            match ctrl.claimant() {
                Some(c) => {
                    now += token_recovery_timeout(&bus, ctrl.addr_of(c));
                    if now >= config.horizon {
                        break;
                    }
                    let joined = ctrl.claim(c);
                    emit(observers, now, NetEvent::Claim { master: c });
                    if joined {
                        emit(observers, now, NetEvent::MasterJoin { master: c });
                        if let Some(mc) = &mut mode_ctrl {
                            emit_transition(mc.on_membership(now, true), now, observers);
                        }
                    }
                    holder = Some(c);
                }
                None => {
                    // Every station is dead: jump to the next scripted
                    // power-on, or end the run.
                    match events.get(next_event) {
                        Some(e) => now = now.max(e.at),
                        None => break,
                    }
                }
            }
            continue;
        };

        // Idle fast-forward: inside a clean full-ring phase — every
        // station powered and a LAS member (so no listeners exist and
        // `observe_wrap` is a no-op), the last `n` visits pure token
        // hops — the next rotations are a fixed periodic pattern whose
        // per-visit FDL transitions cycle every station back to
        // `ActiveIdle`. Skip k of them in O(1), capped by the release
        // backlog/horizon bound, strictly before the next scripted
        // membership event (loop tops are one `token_pass` apart during
        // idle spans, so requiring `now + k·R ≤ event.at` preserves the
        // application instant), and strictly before every armed GAP
        // poll boundary.
        if fast_forward
            && idle_streak >= n_masters
            && (fixed
                || ctrl.ring_size() == n_masters && (0..n_masters).all(|s| !ctrl.is_offline(s)))
        {
            let mut k = idle_rotation_cap(&masters, now, rotation, config.horizon, net.token_pass);
            if let Some(e) = events.get(next_event) {
                k = k.min((e.at - now).ticks() / rotation.ticks());
            }
            if !fixed {
                for s in 0..n_masters {
                    if let Some(due) = ctrl.gap_visits_until_due(s) {
                        k = k.min(due as i64 - 1);
                    }
                }
            }
            if k >= 1 {
                // Idle rotations measure TRR = R ≤ TTR exactly, so they
                // can never trip the TRR-overload degrade trigger;
                // `on_idle_span` batches the k·n arrivals and refuses
                // the span only when a transition (a match-up deadline)
                // would fire inside it — then we fall back to per-visit
                // simulation, which fires it at the right arrival.
                let mode_ok = match &mut mode_ctrl {
                    Some(mc) => mc.on_idle_span(now, now + rotation * k - net.token_pass, rotation),
                    None => true,
                };
                if mode_ok {
                    pattern.clear();
                    let tth = net.ttr - rotation;
                    let mut cur = h;
                    for j in 0..n_masters {
                        let next = next_of[cur];
                        pattern.push((
                            net.token_pass * j as i64,
                            NetEvent::TokenArrival {
                                master: cur,
                                tth,
                                trr: Some(rotation),
                            },
                        ));
                        pattern.push((
                            net.token_pass * (j + 1) as i64,
                            NetEvent::TokenPass {
                                from: cur,
                                to: next,
                            },
                        ));
                        cur = next;
                    }
                    apply_idle_span(
                        &mut masters,
                        observers,
                        &pattern,
                        now,
                        rotation,
                        k,
                        &mut mem,
                    );
                    if !fixed {
                        for s in 0..n_masters {
                            // Capped above at `due − 1`, so this never
                            // crosses a poll boundary; a no-op when GAP
                            // polling is disabled.
                            ctrl.gap_advance_visits(s, k as u32);
                        }
                    }
                    // After k whole rotations the token is back at `h`,
                    // and the streak (still idle) carries over.
                    now += rotation * k;
                    continue;
                }
            }
        }

        // Token visit at `h`.
        if !fixed {
            ctrl.deliver_token(h);
            if ctrl.is_wrap_point(h) {
                // The token reached the lowest LAS address: one full
                // rotation for every listening station.
                ctrl.observe_wrap();
            }
        }
        // Feed the holder's TRR measurement (the same span `visit` will
        // report on its TokenArrival) to the mode controller before the
        // visit, so this visit already sheds/admits under the new mode.
        let shed_lo = match &mut mode_ctrl {
            Some(mc) => {
                let m = &masters[h];
                let trr = m.first_arrival_seen.then(|| now - m.timer.trr_started_at());
                emit_transition(mc.on_token_arrival(now, trr), now, observers);
                mc.degraded()
            }
            None => false,
        };
        let served_until = visit(
            &mut masters[h],
            h,
            now,
            &mut durations,
            &mut mem,
            observers,
            shed_lo,
        );
        let mut clean_hop = served_until == now;
        now = served_until;

        // GAP maintenance: one Request FDL Status every G visits,
        // consuming real token-holding time.
        if let Some(target) = if fixed { None } else { ctrl.gap_poll_due(h) } {
            clean_hop = false;
            let target_slot = ctrl.slot_of(target).filter(|&s| !ctrl.is_offline(s));
            let admitted = target_slot.filter(|&s| ctrl.ready_to_join(s));
            let start = now;
            now += gap::poll_time(&bus, target_slot.is_some());
            emit(
                observers,
                start,
                NetEvent::GapPoll {
                    master: h,
                    target,
                    admitted,
                },
            );
            if let Some(s) = admitted {
                ctrl.admit(s);
                emit(observers, now, NetEvent::MasterJoin { master: s });
                if let Some(mc) = &mut mode_ctrl {
                    emit_transition(mc.on_membership(now, true), now, observers);
                }
            }
        }

        // Step 5: pass the token over the ring (possibly losing it),
        // detecting dead successors.
        if !fixed {
            ctrl.holding_done(h);
        }
        loop {
            now += net.token_pass;
            if config.token_loss_prob > 0.0 && loss_rng.unit() < config.token_loss_prob {
                // The pass frame was lost on the wire: bus silence until
                // the recovery claimant's timeout fires; it then
                // re-originates the token.
                let c = if fixed {
                    now += fixed_recovery;
                    fixed_claimant
                } else {
                    ctrl.pass_failed(h);
                    let c = ctrl
                        .claimant()
                        .expect("the holder itself is powered and claim-eligible");
                    now += token_recovery_timeout(&bus, ctrl.addr_of(c));
                    ctrl.claim(c);
                    c
                };
                emit(observers, now, NetEvent::Recovery { claimant: c });
                holder = Some(c);
                clean_hop = false;
                break;
            }
            let succ = if fixed {
                next_of[h]
            } else {
                ctrl.successor(h).expect("holder is a ring member")
            };
            if fixed || succ == h || ctrl.accepts_token(succ) {
                // A sole member passes to itself (`succ == h`); either
                // way the next visit's `deliver_token` moves the receiver
                // from ActiveIdle to UseToken.
                if !fixed {
                    ctrl.pass_confirmed(h);
                }
                emit(observers, now, NetEvent::TokenPass { from: h, to: succ });
                holder = Some(succ);
                break;
            }
            // Dead successor: retries exhaust, then it is dropped from
            // the LAS and the next member is tried. Each attempt is one
            // pass frame plus a slot time of silence; the first pass
            // frame was already spent above.
            now += bus.slot_time + (net.token_pass + bus.slot_time) * (attempts - 1);
            ctrl.drop_member(succ);
            clean_hop = false;
            emit(observers, now, NetEvent::MasterLeave { master: succ });
            if let Some(mc) = &mut mode_ctrl {
                emit_transition(mc.on_membership(now, false), now, observers);
            }
        }
        idle_streak = if clean_hop { idle_streak + 1 } else { 0 };
    }
    mem
}

/// Whole idle rotations skippable from `now`, from queue state alone:
/// the horizon cap (every span visit must sit strictly before `horizon`,
/// like the per-visit loop's `now < horizon` check would place it) taken
/// to the earliest pending release across all masters (the span must pull
/// nothing, so its last visit stays strictly before every
/// `peek_ready`). Non-positive — no skip — when any master has backlog:
/// a span is pure token circulation, nothing may be queued anywhere.
///
/// Callers layer their own caps (scripted membership events, GAP-poll
/// boundaries, mode-controller arming) on top of this bound.
fn idle_rotation_cap(
    masters: &[MasterKernel],
    now: Time,
    rotation: Time,
    horizon: Time,
    token_pass: Time,
) -> i64 {
    let r = rotation.ticks();
    // Last span visit at `now + k·R − tp < horizon`.
    let mut k = ((horizon - now + token_pass).ticks() - 1) / r;
    for m in masters {
        if !(m.ap.is_empty() && m.stack.is_empty() && m.lp_pending.is_empty()) {
            return 0;
        }
        for next in [m.next_high, m.next_low].into_iter().flatten() {
            if next <= now {
                return 0;
            }
            k = k.min((next - now).ticks() / r);
        }
    }
    k
}

/// Commits one fast-forwarded span: hands the compressed rotations to
/// every observer (the default implementation replays them; hot
/// observers ingest in O(1)) and fast-forwards each visited master's
/// token timer to its **last** span arrival, so the next executed visit
/// measures the same TRR the unskipped loop would have. The visit order
/// is read back off the pattern's `TokenArrival` entries.
fn apply_idle_span(
    masters: &mut [MasterKernel],
    observers: &mut [&mut dyn Observer<NetEvent>],
    pattern: &[(Time, NetEvent)],
    start: Time,
    rotation: Time,
    k: i64,
    mem: &mut KernelMemStats,
) {
    let span = IdleSpan {
        start,
        period: rotation,
        rotations: k as u64,
        pattern,
    };
    for obs in observers.iter_mut() {
        obs.on_idle_span(&span);
    }
    let last_base = start + rotation * (k - 1);
    for (offset, ev) in pattern {
        if let NetEvent::TokenArrival { master, .. } = ev {
            let _ = masters[*master].timer.on_token_arrival(last_base + *offset);
        }
    }
    mem.rotations_fast_forwarded += k as u64;
}
