//! Network-simulation events and the built-in observers.
//!
//! The streaming kernel ([`crate::network::kernel`]) emits a [`NetEvent`]
//! stream; everything that used to be hand-threaded through the
//! simulation loop — result assembly, bounded event tracing, response
//! statistics — is an [`Observer`] over that stream. Custom observers
//! compose freely with the built-ins via
//! [`crate::network::simulate_network_observed`].
//!
//! * [`ResultObserver`] assembles the [`NetworkSimResult`] of a plain run.
//! * [`NetStats`] is the one statistics observer of
//!   [`crate::network::simulate_network_stats`] and the campaign
//!   simulator: the run result, the response histogram, the TRR
//!   histograms per live ring size, the ring-membership summary
//!   ([`RingSummary`]) and the mixed-criticality mode counters
//!   ([`ModeSummary`]), all updated by one `match` per event.
//! * [`StableResponseObserver`] keeps the stable-phase maxima the
//!   `observed ≤ analytical` contract is checked on under ring churn and
//!   mode switches.
//! * [`Trace`](crate::network::Trace) records a bounded event trace. It keeps each [`NetEvent`]
//!   as emitted, so this enum is the simulator's one event vocabulary.
//!
//! Under dynamic membership the kernel additionally emits ring-lifecycle
//! events — [`NetEvent::GapPoll`], [`NetEvent::MasterJoin`],
//! [`NetEvent::MasterLeave`], [`NetEvent::Claim`] — and with the
//! mixed-criticality mode controller enabled also
//! [`NetEvent::ModeSwitch`], [`NetEvent::Shed`] and [`NetEvent::Matchup`].
//! The split one-statistic observers that `NetStats` replaced stay in
//! [`crate::network::reference_stats`] as its differential-test oracle.

use profirt_base::{Criticality, MasterAddr, StreamId, Time};
use profirt_profibus::Request;

use crate::engine::observer::{replay_span, IdleSpan, Observer, TickHistogram};
use crate::network::config::{NetworkSimConfig, SimNetwork};
use crate::network::kernel::KernelMemStats;
use crate::network::sim::{NetworkSimResult, NetworkSimStats, StreamObservation};

/// One bus-level event of the network kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetEvent {
    /// Token arrived at a master (`tth` as loaded at arrival; negative =
    /// late token).
    TokenArrival {
        /// Ring index of the master.
        master: usize,
        /// `TTH = TTR − TRR` at arrival.
        tth: Time,
        /// The real rotation just completed (arrival-to-arrival span);
        /// `None` on the master's first arrival.
        trr: Option<Time>,
    },
    /// A high-priority message cycle executed to completion.
    HighCycle {
        /// Ring index of the executing master.
        master: usize,
        /// The served request (release, deadline, cycle time attached).
        request: Request,
        /// Transmission start.
        start: Time,
        /// Transmission end (completion instant).
        end: Time,
    },
    /// A low-priority message cycle executed to completion.
    LowCycle {
        /// Ring index of the executing master.
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
    /// A lost token was recovered by the claim timeout (fault injection).
    Recovery {
        /// Ring index of the claiming (lowest-address) master.
        claimant: usize,
    },
    /// The token holder polled one GAP address with `Request FDL Status`
    /// (dynamic membership only; consumes real token-holding time).
    GapPoll {
        /// Ring index of the polling token holder.
        master: usize,
        /// The polled FDL address (may be empty — no master there).
        target: MasterAddr,
        /// Ring index of the master this poll admits into the ring, if
        /// the target answered `MasterReady` (the kernel emits the
        /// matching [`NetEvent::MasterJoin`] right after).
        admitted: Option<usize>,
    },
    /// A master entered the logical ring (GAP admission, or a listener's
    /// claim on a dead bus).
    MasterJoin {
        /// Ring index of the joining master.
        master: usize,
    },
    /// A master was dropped from the logical ring after the token holder
    /// detected its departure through a failed pass.
    MasterLeave {
        /// Ring index of the departed master.
        master: usize,
    },
    /// A powered station re-originated a vanished token after its
    /// address-staggered claim timeout (dynamic membership: holder crash
    /// or dead-bus cold start).
    Claim {
        /// Ring index of the claiming master.
        master: usize,
    },
    /// The mixed-criticality mode controller switched modes (see
    /// [`crate::network::mode::ModeController`]).
    ModeSwitch {
        /// `true`: entering HI (degraded) mode — sub-HI admissions are
        /// shed from here on. `false`: match-up complete, back to LO.
        degraded: bool,
    },
    /// A sub-HI request was shed at admission while the controller was
    /// degraded (it never reached the AP queue).
    Shed {
        /// Ring index of the shedding master.
        master: usize,
        /// The shed request's stream.
        stream: StreamId,
        /// The shed request's release instant.
        release: Time,
    },
    /// The match-up phase completed (full ring plus a clean-rotation
    /// span); the kernel emits the LO-ward [`NetEvent::ModeSwitch`]
    /// right after.
    Matchup {
        /// Span from the degradation instant to the completed match-up —
        /// the `time_to_matchup` statistic.
        waited: Time,
    },
}

/// Assembles the [`NetworkSimResult`] from the event stream — result
/// computation is itself just an observer, so the kernel has a single
/// output path.
#[derive(Clone, Debug)]
pub struct ResultObserver {
    streams: Vec<Vec<StreamObservation>>,
    max_trr: Vec<Time>,
    visits: Vec<u64>,
    low_completed: Vec<u64>,
    recoveries: u64,
}

impl ResultObserver {
    /// An observer shaped for `net`.
    pub fn new(net: &SimNetwork) -> ResultObserver {
        ResultObserver {
            streams: net
                .masters
                .iter()
                .map(|m| vec![StreamObservation::default(); m.streams.len()])
                .collect(),
            max_trr: vec![Time::ZERO; net.masters.len()],
            visits: vec![0; net.masters.len()],
            low_completed: vec![0; net.masters.len()],
            recoveries: 0,
        }
    }

    /// Finalises into the run result.
    pub fn into_result(self) -> NetworkSimResult {
        NetworkSimResult {
            streams: self.streams,
            max_trr: self.max_trr,
            token_visits: self.visits,
            low_completed: self.low_completed,
            token_recoveries: self.recoveries,
        }
    }

    /// Ingests `n` repetitions of `event` (`n = 1` for a live event):
    /// every counter the event bumps is bumped `n` times at once; maxima
    /// are idempotent under repetition.
    fn ingest(&mut self, event: &NetEvent, n: u64) {
        match *event {
            NetEvent::TokenArrival { master, trr, .. } => self.arrival(master, trr, n),
            NetEvent::HighCycle {
                master,
                ref request,
                end,
                ..
            } => self.high_cycle(master, request, end - request.release, end, n),
            NetEvent::LowCycle { master, .. } => self.low_completed[master] += n,
            NetEvent::Recovery { .. } => self.recoveries += n,
            _ => {}
        }
    }

    fn arrival(&mut self, master: usize, trr: Option<Time>, n: u64) {
        self.visits[master] += n;
        if let Some(trr) = trr {
            self.max_trr[master] = self.max_trr[master].max(trr);
        }
    }

    /// One completed high-priority cycle whose `response` (`end −
    /// release`) the caller computed.
    fn high_cycle(&mut self, master: usize, request: &Request, response: Time, end: Time, n: u64) {
        let obs = &mut self.streams[master][request.stream.0];
        obs.max_response = obs.max_response.max(response);
        obs.completed += n;
        if end > request.abs_deadline {
            obs.misses += n;
        }
    }
}

impl Observer<NetEvent> for ResultObserver {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        self.ingest(event, 1);
    }

    /// O(pattern) batched ingestion: one pass over the pattern with each
    /// event counted `rotations` times is exact.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        for (_, ev) in span.pattern {
            self.ingest(ev, span.rotations);
        }
    }
}

/// The statistics of one run, gathered by one observer: the
/// [`NetworkSimResult`] record, the pooled high-priority response
/// histogram, the TRR histograms per live ring size, the ring-membership
/// summary and the mixed-criticality mode counters.
///
/// Each event is handled once: a high-priority completion computes its
/// response once for the per-stream maximum and the histogram, and each
/// TRR sample lands in exactly one ring-size histogram, whose index is
/// cached until the next join or leave. The pooled TRR distribution is
/// the merge of the per-size histograms, which is exact because the
/// sizes partition the samples.
#[derive(Clone, Debug)]
pub struct NetStats {
    result: ResultObserver,
    response: TickHistogram,
    /// `(ring size, histogram)` per size a rotation completed at,
    /// ascending by size.
    trr_by_size: Vec<(usize, TickHistogram)>,
    /// Live ring size (tracked from join/leave events).
    size: usize,
    /// Index of `size`'s histogram in `trr_by_size`; `None` until the
    /// first rotation after a join or leave.
    size_slot: Option<usize>,
    ring: RingSummary,
    mode: ModeSummary,
    waits: Vec<Time>,
    /// Per master, per stream: `true` for a sub-HI stream. Empty for a
    /// master whose streams are all HI, which skips the lookup.
    sub_hi: Vec<Vec<bool>>,
    sub_hi_completed: u64,
}

impl NetStats {
    /// An observer shaped for `net`, starting from the ring `config`
    /// powers at time zero.
    pub fn new(net: &SimNetwork, config: &NetworkSimConfig) -> NetStats {
        let initial = net.masters.len() - config.membership.initially_off().len();
        NetStats {
            result: ResultObserver::new(net),
            response: TickHistogram::new(),
            trr_by_size: Vec::new(),
            size: initial,
            size_slot: None,
            ring: RingSummary {
                min_size: initial,
                max_size: initial,
                final_size: initial,
                ..RingSummary::default()
            },
            mode: ModeSummary::default(),
            waits: Vec::new(),
            sub_hi: net
                .masters
                .iter()
                .map(|m| {
                    if m.criticality.iter().all(|&c| c == Criticality::Hi) {
                        Vec::new()
                    } else {
                        m.criticality
                            .iter()
                            .map(|&c| c != Criticality::Hi)
                            .collect()
                    }
                })
                .collect(),
            sub_hi_completed: 0,
        }
    }

    /// Every completed match-up's degradation-to-recovery span, in
    /// completion order (for pooled percentiles across runs).
    pub fn matchup_waits(&self) -> &[Time] {
        &self.waits
    }

    /// Fraction of sub-HI demand shed at admission:
    /// `sheds / (sheds + completed sub-HI cycles)`, `0.0` when the run
    /// carried no sub-HI traffic at all.
    pub fn lo_shed_ratio(&self) -> f64 {
        let total = self.mode.sheds + self.sub_hi_completed;
        if total == 0 {
            0.0
        } else {
            self.mode.sheds as f64 / total as f64
        }
    }

    /// Finalises into the run result and its statistics; `mem` is what
    /// [`crate::network::run_network`] returned.
    pub fn finish(self, mem: KernelMemStats) -> (NetworkSimResult, NetworkSimStats) {
        let mut trr = TickHistogram::new();
        for (_, hist) in &self.trr_by_size {
            trr.merge(hist);
        }
        let stats = NetworkSimStats {
            response: self.response.summary(),
            trr: trr.summary(),
            trr_by_ring_size: self
                .trr_by_size
                .iter()
                .map(|(size, hist)| (*size, hist.summary()))
                .collect(),
            ring: RingSummary {
                final_size: self.size,
                ..self.ring
            },
            mode: self.mode,
            mem,
        };
        (self.result.into_result(), stats)
    }

    /// `n` token arrivals at `master` that measured `trr`.
    fn arrival(&mut self, master: usize, trr: Option<Time>, n: u64) {
        self.result.arrival(master, trr, n);
        let Some(trr) = trr else { return };
        let (sizes, size) = (&mut self.trr_by_size, self.size);
        let slot = *self.size_slot.get_or_insert_with(|| {
            sizes
                .binary_search_by_key(&size, |e| e.0)
                .unwrap_or_else(|i| {
                    sizes.insert(i, (size, TickHistogram::new()));
                    i
                })
        });
        self.trr_by_size[slot].1.record_n(trr, n);
    }
}

impl Observer<NetEvent> for NetStats {
    fn observe(&mut self, _at: Time, event: &NetEvent) {
        match *event {
            NetEvent::TokenArrival { master, trr, .. } => self.arrival(master, trr, 1),
            NetEvent::TokenPass { .. } => {}
            NetEvent::HighCycle {
                master,
                ref request,
                end,
                ..
            } => {
                let response = end - request.release;
                self.result.high_cycle(master, request, response, end, 1);
                self.response.record(response);
                if self.sub_hi[master].get(request.stream.0) == Some(&true) {
                    self.sub_hi_completed += 1;
                }
            }
            NetEvent::LowCycle { .. } | NetEvent::Recovery { .. } => self.result.ingest(event, 1),
            NetEvent::GapPoll { .. } => self.ring.gap_polls += 1,
            NetEvent::MasterJoin { .. } => {
                self.size += 1;
                self.size_slot = None;
                self.ring.events += 1;
                self.ring.max_size = self.ring.max_size.max(self.size);
            }
            NetEvent::MasterLeave { .. } => {
                self.size = self.size.saturating_sub(1);
                self.size_slot = None;
                self.ring.events += 1;
                self.ring.min_size = self.ring.min_size.min(self.size);
            }
            NetEvent::Claim { .. } => self.ring.claims += 1,
            NetEvent::ModeSwitch { .. } => self.mode.switches += 1,
            NetEvent::Shed { .. } => self.mode.sheds += 1,
            NetEvent::Matchup { waited } => {
                self.mode.matchups += 1;
                self.mode.max_time_to_matchup = self.mode.max_time_to_matchup.max(waited);
                self.waits.push(waited);
            }
        }
    }

    /// O(pattern) for the spans the kernel emits, which hold only token
    /// arrivals and passes: each arrival counts `rotations` visits and
    /// `rotations` TRR samples at the (unchanging) ring size. Any other
    /// event in the pattern replays.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        let idle = span.pattern.iter().all(|(_, ev)| {
            matches!(
                ev,
                NetEvent::TokenArrival { .. } | NetEvent::TokenPass { .. }
            )
        });
        if !idle {
            replay_span(self, span);
            return;
        }
        for (_, ev) in span.pattern {
            if let NetEvent::TokenArrival { master, trr, .. } = *ev {
                self.arrival(master, trr, span.rotations);
            }
        }
    }
}

/// Summary of one run's ring-membership dynamics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RingSummary {
    /// Smallest live ring size observed.
    pub min_size: usize,
    /// Largest live ring size observed.
    pub max_size: usize,
    /// Ring size at the end of the run.
    pub final_size: usize,
    /// Membership events observed (joins + leaves).
    pub events: u64,
    /// GAP polls transmitted.
    pub gap_polls: u64,
    /// Token claims (membership recovery; fault-injection recoveries are
    /// counted separately in
    /// [`NetworkSimResult::token_recoveries`](crate::network::NetworkSimResult::token_recoveries)).
    pub claims: u64,
}

/// Per-master/per-stream maximum responses restricted to **stable
/// phases**: the ring at full configured membership, with no membership
/// disturbance (join, leave, claim, fault recovery) *and no mode switch*
/// within `guard` ticks before the request's release. The `observed ≤
/// analytical` contract assumes the §3.1 static ring, so under churn it
/// is enforced on these samples only; transition windows are excluded.
///
/// With the mode controller enabled, responses split into two buckets by
/// the mode at completion: `max_responses` holds LO-mode (nominal)
/// samples, checked against the full-set bounds, and `hi_max_responses`
/// holds HI-mode (degraded) samples — HI streams competing only against
/// HI traffic — checked against the HI-projection bounds of
/// [`profirt_core::ModeAnalysis`](../../../profirt_core/mode/struct.ModeAnalysis.html).
/// The HI bucket does **not** require full ring membership (the HI bound
/// is monotone in membership, so it holds on every subring), only the
/// guard of calm since the last disturbance. A mode switch disturbs both
/// buckets, so no sample straddles a shedding transition.
#[derive(Clone, Debug)]
pub struct StableResponseObserver {
    full_size: usize,
    size: usize,
    guard: Time,
    stable_since: Time,
    degraded: bool,
    /// Stable-phase (LO-mode) maximum responses, `[master][stream]`.
    pub max_responses: Vec<Vec<Time>>,
    /// High-priority cycles that counted as stable LO-mode samples.
    pub samples: u64,
    /// Degraded-phase maximum responses, `[master][stream]`; only HI
    /// streams complete in HI mode (plus a pre-switch sub-HI backlog,
    /// excluded by the guard).
    pub hi_max_responses: Vec<Vec<Time>>,
    /// High-priority cycles that counted as degraded-phase samples.
    pub hi_samples: u64,
}

impl StableResponseObserver {
    /// An observer for `net`, treating `initial` masters as in-ring at
    /// time zero and requiring `guard` ticks of calm before a release
    /// counts as stable.
    pub fn new(net: &SimNetwork, initial: usize, guard: Time) -> StableResponseObserver {
        let zeros: Vec<Vec<Time>> = net
            .masters
            .iter()
            .map(|m| vec![Time::ZERO; m.streams.len()])
            .collect();
        StableResponseObserver {
            full_size: net.masters.len(),
            size: initial,
            guard,
            stable_since: Time::ZERO,
            degraded: false,
            max_responses: zeros.clone(),
            samples: 0,
            hi_max_responses: zeros,
            hi_samples: 0,
        }
    }

    fn disturb(&mut self, at: Time) {
        self.stable_since = self.stable_since.max(at);
    }
}

impl Observer<NetEvent> for StableResponseObserver {
    fn observe(&mut self, at: Time, event: &NetEvent) {
        match *event {
            NetEvent::MasterJoin { .. } => {
                self.size += 1;
                self.disturb(at);
            }
            NetEvent::MasterLeave { .. } => {
                self.size = self.size.saturating_sub(1);
                self.disturb(at);
            }
            NetEvent::Claim { .. } | NetEvent::Recovery { .. } => self.disturb(at),
            // A mode switch ends the current stable phase in *both*
            // directions: samples released around the shedding transition
            // belong to neither bound's regime.
            NetEvent::ModeSwitch { degraded } => {
                self.degraded = degraded;
                self.disturb(at);
            }
            // Any disturbance between the release and this completion was
            // already observed (events arrive in time order) and pushed
            // `stable_since` past the release.
            NetEvent::HighCycle {
                master,
                ref request,
                end,
                ..
            } if request.release >= self.stable_since + self.guard => {
                if self.degraded {
                    let slot = &mut self.hi_max_responses[master][request.stream.0];
                    *slot = (*slot).max(end - request.release);
                    self.hi_samples += 1;
                } else if self.size == self.full_size {
                    let slot = &mut self.max_responses[master][request.stream.0];
                    *slot = (*slot).max(end - request.release);
                    self.samples += 1;
                }
            }
            _ => {}
        }
    }

    /// O(1) for kernel-emitted idle spans: token arrivals and passes
    /// neither disturb a stable phase nor produce samples, so the span is
    /// a no-op. Any state-affecting event in the pattern (samples,
    /// disturbances — never emitted by the kernel inside a span) replays.
    fn on_idle_span(&mut self, span: &IdleSpan<'_, NetEvent>) {
        let affecting = span.pattern.iter().any(|(_, ev)| {
            matches!(
                ev,
                NetEvent::HighCycle { .. }
                    | NetEvent::MasterJoin { .. }
                    | NetEvent::MasterLeave { .. }
                    | NetEvent::Claim { .. }
                    | NetEvent::Recovery { .. }
                    | NetEvent::ModeSwitch { .. }
            )
        });
        if affecting {
            replay_span(self, span);
        }
    }
}

/// Summary of one run's mixed-criticality mode dynamics. All zeros when
/// the mode controller is disabled (or never triggered).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ModeSummary {
    /// Mode switches, both directions (degrades + match-up returns).
    pub switches: u64,
    /// Sub-HI requests shed at admission.
    pub sheds: u64,
    /// Completed match-up phases.
    pub matchups: u64,
    /// Largest degradation-to-match-up span (`Time::ZERO` when no
    /// match-up completed).
    pub max_time_to_matchup: Time,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::network::config::SimMaster;
    use profirt_base::time::t;
    use profirt_base::{Priority, StreamSet};

    pub(crate) fn two_master_net() -> SimNetwork {
        SimNetwork {
            masters: vec![
                SimMaster::stock(StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap())
                    .with_criticality(vec![Criticality::Lo]),
                SimMaster::stock(StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap()),
            ],
            ttr: t(2_000),
            token_pass: t(100),
        }
    }

    fn request() -> Request {
        Request {
            stream: StreamId(0),
            release: t(10),
            abs_deadline: t(5_000),
            priority: Priority(1),
            cycle_time: t(100),
        }
    }

    /// A kitchen-sink pattern exercising every batched ingestion arm of
    /// the counting observers (no membership events or match-ups — those
    /// take the replay fallback, covered below).
    pub(crate) fn batched_pattern() -> Vec<(Time, NetEvent)> {
        vec![
            (
                t(0),
                NetEvent::TokenArrival {
                    master: 0,
                    tth: t(1_800),
                    trr: Some(t(200)),
                },
            ),
            (
                t(0),
                NetEvent::HighCycle {
                    master: 0,
                    request: request(),
                    start: t(0),
                    end: t(100),
                },
            ),
            (
                t(100),
                NetEvent::LowCycle {
                    master: 0,
                    start: t(100),
                    end: t(130),
                },
            ),
            (
                t(130),
                NetEvent::GapPoll {
                    master: 0,
                    target: MasterAddr(5),
                    admitted: None,
                },
            ),
            (
                t(140),
                NetEvent::Shed {
                    master: 0,
                    stream: StreamId(0),
                    release: t(35),
                },
            ),
            (t(150), NetEvent::ModeSwitch { degraded: true }),
            (t(160), NetEvent::TokenPass { from: 0, to: 1 }),
            (
                t(160),
                NetEvent::TokenArrival {
                    master: 1,
                    tth: t(1_800),
                    trr: Some(t(200)),
                },
            ),
            (t(170), NetEvent::Recovery { claimant: 0 }),
            (t(180), NetEvent::Claim { master: 0 }),
            (t(200), NetEvent::TokenPass { from: 1, to: 0 }),
        ]
    }

    /// Spans whose replay crosses observer state (membership churn, a
    /// match-up) — the overrides must detect them and fall back.
    pub(crate) fn fallback_pattern() -> Vec<(Time, NetEvent)> {
        vec![
            (t(0), NetEvent::MasterLeave { master: 1 }),
            (t(10), NetEvent::Matchup { waited: t(900) }),
            (
                t(20),
                NetEvent::TokenArrival {
                    master: 0,
                    tth: t(1_700),
                    trr: Some(t(300)),
                },
            ),
            (t(30), NetEvent::MasterJoin { master: 1 }),
        ]
    }

    #[test]
    fn batched_idle_span_ingestion_equals_replay() {
        let net = two_master_net();
        // The kernel's own spans: arrivals and passes only.
        let idle: Vec<(Time, NetEvent)> = batched_pattern()
            .into_iter()
            .filter(|(_, ev)| {
                matches!(
                    ev,
                    NetEvent::TokenArrival { .. } | NetEvent::TokenPass { .. }
                )
            })
            .collect();
        for pattern in [idle, batched_pattern(), fallback_pattern()] {
            let span = IdleSpan {
                start: t(1_000),
                period: t(200),
                rotations: 5,
                pattern: &pattern,
            };

            let mut batched = ResultObserver::new(&net);
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.into_result(), replayed.into_result());

            let mut batched = NetStats::new(&net, &NetworkSimConfig::default());
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.matchup_waits(), replayed.matchup_waits());
            assert_eq!(batched.lo_shed_ratio(), replayed.lo_shed_ratio());
            assert_eq!(
                batched.finish(KernelMemStats::default()),
                replayed.finish(KernelMemStats::default())
            );

            let mut batched = StableResponseObserver::new(&net, 2, t(0));
            let mut replayed = batched.clone();
            batched.on_idle_span(&span);
            replay_span(&mut replayed, &span);
            assert_eq!(batched.max_responses, replayed.max_responses);
            assert_eq!(batched.samples, replayed.samples);
            assert_eq!(batched.hi_max_responses, replayed.hi_max_responses);
            assert_eq!(batched.hi_samples, replayed.hi_samples);
        }
    }
}
