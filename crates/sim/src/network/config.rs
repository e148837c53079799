//! Simulation inputs.

use profirt_base::{
    check_address_plan, AddressPlan, AddressPlanError, MasterAddr, StreamSet, Time,
};
use profirt_profibus::{gap, BusParams, LowPriorityTraffic, QueuePolicy};

// The placement/jitter modes are defined next to the lazy release
// generators in `profirt_base::release` (the workload-level generator
// constructors need them without depending on this crate); re-exported
// here under their historical simulator names.
pub use profirt_base::release::{JitterMode as JitterInjection, OffsetMode};

pub use crate::network::membership::{MembershipAction, MembershipPlan};
pub use crate::network::mode::ModeSimConfig;
use profirt_base::Criticality;

/// One simulated master.
#[derive(Clone, Debug)]
pub struct SimMaster {
    /// High-priority streams (periods, deadlines, cycle times, jitters).
    pub streams: StreamSet,
    /// AP-queue dispatching policy.
    pub policy: QueuePolicy,
    /// Communication-stack queue capacity (1 = the §4 architecture;
    /// `usize::MAX` = stock).
    pub stack_capacity: usize,
    /// Low-priority background traffic sources.
    pub low_priority: Vec<LowPriorityTraffic>,
    /// FDL station address, used for the address-staggered token-recovery
    /// timeout and the token order (next-higher address) on every ring.
    /// `None` (the default) means "ring index", which preserves the
    /// convention that the first master in the ring claims lost tokens.
    pub addr: Option<MasterAddr>,
    /// Per-stream criticality, parallel to `streams`. Empty (the default)
    /// means every stream is HI; the vector only matters when the run's
    /// [`ModeSimConfig`] is enabled — sub-HI releases are shed at
    /// admission while the mode controller is degraded.
    pub criticality: Vec<Criticality>,
}

impl SimMaster {
    /// Stock FCFS master.
    pub fn stock(streams: StreamSet) -> SimMaster {
        SimMaster {
            streams,
            policy: QueuePolicy::Fcfs,
            stack_capacity: usize::MAX,
            low_priority: Vec::new(),
            addr: None,
            criticality: Vec::new(),
        }
    }

    /// §4-architecture master with the given AP policy.
    pub fn priority_queued(streams: StreamSet, policy: QueuePolicy) -> SimMaster {
        SimMaster {
            streams,
            policy,
            stack_capacity: 1,
            low_priority: Vec::new(),
            addr: None,
            criticality: Vec::new(),
        }
    }

    /// Adds low-priority background traffic (builder style).
    pub fn with_low_priority(mut self, lp: LowPriorityTraffic) -> SimMaster {
        self.low_priority.push(lp);
        self
    }

    /// Sets an explicit FDL station address (builder style).
    pub fn with_addr(mut self, addr: MasterAddr) -> SimMaster {
        self.addr = Some(addr);
        self
    }

    /// Sets per-stream criticalities (builder style); the vector must be
    /// parallel to `streams` (or empty for all-HI).
    pub fn with_criticality(mut self, criticality: Vec<Criticality>) -> SimMaster {
        self.criticality = criticality;
        self
    }

    /// The criticality of stream `i` (HI when unspecified).
    pub fn criticality_of(&self, i: usize) -> Criticality {
        self.criticality.get(i).copied().unwrap_or(Criticality::Hi)
    }

    /// The effective FDL address: the explicit one, or the ring index.
    ///
    /// # Panics
    /// Panics when the default addressing runs out of address space
    /// (ring index above [`MasterAddr::MAX_ADDRESS`]); silently clamping
    /// used to alias two masters onto one FDL address. Networks are
    /// checked up front by [`SimNetwork::validate`], so simulations report
    /// the structured [`SimNetworkError`] first.
    pub fn addr_or_ring(&self, ring_index: usize) -> MasterAddr {
        self.addr.unwrap_or_else(|| {
            assert!(
                ring_index <= MasterAddr::MAX_ADDRESS as usize,
                "ring index {ring_index} exceeds the FDL address space \
                 (0..={}); assign explicit addresses",
                MasterAddr::MAX_ADDRESS
            );
            MasterAddr(ring_index as u8)
        })
    }
}

/// What is wrong with a [`SimNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimNetworkError {
    /// The master list is empty.
    NoMasters,
    /// The token pass time is zero or negative (time could stall).
    NonPositiveTokenPass,
    /// The FDL address plan is invalid: an address out of range, or two
    /// masters on one address.
    Address(AddressPlanError),
    /// A clock sum of the run does not fit `i64` ticks (see
    /// [`NetworkSimConfig::check_tick_range`]).
    TickOverflow {
        /// The sum that overflows.
        what: &'static str,
    },
}

impl std::fmt::Display for SimNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimNetworkError::NoMasters => write!(f, "network needs at least one master"),
            SimNetworkError::NonPositiveTokenPass => {
                write!(f, "token pass time must be positive")
            }
            SimNetworkError::Address(e) => write!(f, "{e}"),
            SimNetworkError::TickOverflow { what } => write!(f, "{what} overflows i64 ticks"),
        }
    }
}

impl std::error::Error for SimNetworkError {}

/// The simulated network.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    /// The masters, indexed by ring index. The token visits them in FDL
    /// address order (next-higher address, wrapping), which is the vector
    /// order under the default ring-index addresses.
    pub masters: Vec<SimMaster>,
    /// Target token rotation time `TTR`.
    pub ttr: Time,
    /// Token pass duration (SD4 frame + idle time); must be positive so
    /// simulated time always advances.
    pub token_pass: Time,
}

impl SimNetwork {
    /// Builds a validated network: at least one master, a positive token
    /// pass time, and per-master FDL addresses that are unique and in
    /// range (explicit or ring-index defaulted).
    pub fn new(
        masters: Vec<SimMaster>,
        ttr: Time,
        token_pass: Time,
    ) -> Result<SimNetwork, SimNetworkError> {
        let net = SimNetwork {
            masters,
            ttr,
            token_pass,
        };
        net.validate()?;
        Ok(net)
    }

    /// Validates the network (see [`SimNetwork::new`]) and returns its
    /// checked address plan; the simulators run this before touching any
    /// state, so address aliasing is an error up front instead of a
    /// silently-merged claim timeout.
    pub fn validate(&self) -> Result<AddressPlan, SimNetworkError> {
        if self.masters.is_empty() {
            return Err(SimNetworkError::NoMasters);
        }
        if !self.token_pass.is_positive() {
            return Err(SimNetworkError::NonPositiveTokenPass);
        }
        check_address_plan(self.masters.iter().map(|m| m.addr)).map_err(SimNetworkError::Address)
    }

    /// The effective per-master FDL addresses, in ring order. Call
    /// [`SimNetwork::validate`] first — this panics where validation
    /// returns an error.
    pub fn addresses(&self) -> Vec<MasterAddr> {
        self.masters
            .iter()
            .enumerate()
            .map(|(k, m)| m.addr_or_ring(k))
            .collect()
    }
}

/// Simulation run parameters.
#[derive(Clone, Debug)]
pub struct NetworkSimConfig {
    /// Simulated horizon (ticks of bus time).
    pub horizon: Time,
    /// RNG seed (offsets, jitter, fault injection).
    pub seed: u64,
    /// First-release placement.
    pub offsets: OffsetMode,
    /// Jitter injection mode.
    pub jitter: JitterInjection,
    /// Fault injection: probability that any given token pass is lost
    /// (the frame corrupted / not accepted). A lost token is recovered via
    /// the address-staggered claim timeout (`TTO = (6 + 2·addr)·TSL`, see
    /// [`profirt_profibus::fdl`]); the lowest-address powered master wins
    /// the claim and re-originates the token. `0.0` disables losses.
    pub token_loss_prob: f64,
    /// Fault injection: per-execution undershoot of message-cycle
    /// durations. Each executed cycle takes a uniform duration in
    /// `[⌈(1 − v)·Ch⌉, Ch]` — the worst case `Ch` is an upper bound, as in
    /// reality (fewer retries, faster turnaround). `0.0` = always worst
    /// case.
    pub cycle_undershoot: f64,
    /// Slot time `TSL` used for the token-recovery timeout, GAP-poll
    /// silence windows, and failed-pass detection.
    pub slot_time: Time,
    /// GAP update factor `G`: the token holder transmits one `Request FDL
    /// Status` poll every `G` token visits, consuming real token-holding
    /// time ([`profirt_profibus::gap::poll_time`]). `0` (the default)
    /// disables GAP polling.
    pub gap_factor: u32,
    /// Scripted ring-membership churn. Empty (the default) keeps the ring
    /// static.
    pub membership: MembershipPlan,
    /// Mixed-criticality mode controller (see
    /// [`crate::network::mode::ModeController`]). Disabled by default.
    pub mode: ModeSimConfig,
    /// Enables the idle-span fast-forward (see the module docs of
    /// [`crate::network::kernel`]'s source): runs of idle token rotations
    /// are skipped arithmetically and handed to observers as compressed
    /// [`crate::engine::IdleSpan`]s, with an event stream byte-identical
    /// to the unskipped loop. On by default; the differential tests and
    /// the speedup benchmark disable it to run the per-visit loop as the
    /// reference.
    pub fast_forward: bool,
}

impl NetworkSimConfig {
    /// `true` when this run is the paper's §3.1 static logical ring: no
    /// scripted churn, no GAP polling and no mode controller. This is the
    /// precondition of the materialized reference simulator
    /// ([`crate::network::reference`]); the kernel runs every config
    /// through one loop (see [`crate::network::kernel`]).
    pub fn is_static_ring(&self) -> bool {
        self.gap_factor == 0 && self.membership.is_empty() && !self.mode.enabled
    }

    /// Checks that the kernel clock cannot wrap when `net` (already
    /// [validated](SimNetwork::validate)) runs under this config: the ring
    /// cost `token_pass × masters` must fit `i64`, and so must `horizon`
    /// plus the worst step one loop iteration can take from below the
    /// horizon. That step is bounded by TTR plus the longest message cycle
    /// (a visit with TTH overrun), one GAP poll, a pass sequence over the
    /// whole ring with every attempt failing (`token_pass + TSL` each,
    /// `1 + max_retry` attempts per successor) and the longest claim
    /// timeout `(6 + 2·126)·TSL`. With the mode controller enabled, its
    /// thresholds `degrade_factor × TTR` and `matchup_factor × TTR` must
    /// fit too.
    pub fn check_tick_range(&self, net: &SimNetwork) -> Result<(), SimNetworkError> {
        let n = net.masters.len() as i64;
        net.token_pass
            .checked_mul(n)
            .ok_or(SimNetworkError::TickOverflow {
                what: "the ring cost token_pass x masters",
            })?;
        if self.mode.enabled {
            self.mode.thresholds(net.ttr)?;
        }
        let longest_cycle = net
            .masters
            .iter()
            .flat_map(|m| {
                let high = m.streams.max_cycle_time();
                high.into_iter()
                    .chain(m.low_priority.iter().map(|l| l.cycle_time))
            })
            .max()
            .unwrap_or(Time::ZERO);
        let bus = BusParams::profile_500k();
        let slot = self.slot_time.max_zero();
        let attempts = 1 + bus.max_retry as i64;
        let step = (|| {
            let passes = net
                .token_pass
                .checked_add(slot)?
                .checked_mul(attempts * n)?;
            let claim = slot.checked_mul(6 + 2 * MasterAddr::MAX_ADDRESS as i64)?;
            let poll = gap::poll_time(&bus, true).checked_add(slot)?;
            net.ttr
                .max_zero()
                .checked_add(longest_cycle)?
                .checked_add(poll)?
                .checked_add(passes)?
                .checked_add(claim)
        })();
        match step.and_then(|step| self.horizon.checked_add(step)) {
            Some(_) => Ok(()),
            None => Err(SimNetworkError::TickOverflow {
                what: "the horizon plus one token visit's worst step",
            }),
        }
    }
}

impl Default for NetworkSimConfig {
    fn default() -> Self {
        NetworkSimConfig {
            horizon: Time::new(1_000_000),
            seed: 0xC0FFEE,
            offsets: OffsetMode::Synchronous,
            jitter: JitterInjection::None,
            token_loss_prob: 0.0,
            cycle_undershoot: 0.0,
            slot_time: Time::new(200),
            gap_factor: 0,
            membership: MembershipPlan::new(),
            mode: ModeSimConfig::default(),
            fast_forward: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn builders() {
        let streams = StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap();
        let stock = SimMaster::stock(streams.clone());
        assert_eq!(stock.policy, QueuePolicy::Fcfs);
        assert_eq!(stock.stack_capacity, usize::MAX);

        let pq = SimMaster::priority_queued(streams, QueuePolicy::Edf)
            .with_low_priority(LowPriorityTraffic::new(t(200), t(50_000)));
        assert_eq!(pq.stack_capacity, 1);
        assert_eq!(pq.low_priority.len(), 1);
    }

    #[test]
    fn addresses_default_to_ring_index() {
        use profirt_base::MasterAddr;
        let streams = StreamSet::new(vec![]).unwrap();
        let m = SimMaster::stock(streams.clone());
        assert_eq!(m.addr_or_ring(0), MasterAddr(0));
        assert_eq!(m.addr_or_ring(3), MasterAddr(3));
        let m = SimMaster::stock(streams).with_addr(MasterAddr(42));
        assert_eq!(m.addr_or_ring(3), MasterAddr(42));
    }

    #[test]
    #[should_panic(expected = "exceeds the FDL address space")]
    fn ring_index_overflow_no_longer_clamps() {
        let streams = StreamSet::new(vec![]).unwrap();
        let _ = SimMaster::stock(streams).addr_or_ring(127);
    }

    #[test]
    fn network_validation_catches_address_problems() {
        let streams = StreamSet::new(vec![]).unwrap();
        let mk = |addr: Option<u8>| {
            let mut m = SimMaster::stock(streams.clone());
            m.addr = addr.map(MasterAddr);
            m
        };
        // Two masters aliasing address 5: an error, not a silent merge.
        let aliased = SimNetwork {
            masters: vec![mk(Some(5)), mk(None), mk(Some(5))],
            ttr: t(1_000),
            token_pass: t(100),
        };
        assert_eq!(
            aliased.validate(),
            Err(SimNetworkError::Address(
                AddressPlanError::DuplicateAddress {
                    addr: MasterAddr(5),
                    first: 0,
                    second: 2
                }
            ))
        );
        // An explicit address colliding with another master's ring-index
        // default is caught too.
        let mixed = SimNetwork {
            masters: vec![mk(None), mk(Some(0))],
            ttr: t(1_000),
            token_pass: t(100),
        };
        assert!(matches!(
            mixed.validate(),
            Err(SimNetworkError::Address(
                AddressPlanError::DuplicateAddress { .. }
            ))
        ));
        // Out-of-range explicit address.
        let broadcast = SimNetwork {
            masters: vec![mk(Some(127))],
            ttr: t(1_000),
            token_pass: t(100),
        };
        assert_eq!(
            broadcast.validate(),
            Err(SimNetworkError::Address(AddressPlanError::InvalidAddress {
                master: 0
            }))
        );
        // The checked constructor surfaces the same errors.
        assert!(SimNetwork::new(vec![], t(1_000), t(100)).is_err());
        assert!(SimNetwork::new(vec![mk(None)], t(1_000), t(0)).is_err());
        let ok = SimNetwork::new(vec![mk(None), mk(Some(9))], t(1_000), t(100)).unwrap();
        assert_eq!(ok.addresses(), vec![MasterAddr(0), MasterAddr(9)]);
    }

    #[test]
    fn default_config() {
        let c = NetworkSimConfig::default();
        assert_eq!(c.offsets, OffsetMode::Synchronous);
        assert_eq!(c.jitter, JitterInjection::None);
        assert!(c.horizon.is_positive());
        // The defaults are the static §3.1 ring the reference models.
        assert_eq!(c.gap_factor, 0);
        assert!(c.membership.is_empty());
        assert!(c.is_static_ring());
        let churned = NetworkSimConfig {
            membership: MembershipPlan::new().power_cycle(1, t(10), t(20)),
            ..Default::default()
        };
        assert!(!churned.is_static_ring());
        let polling = NetworkSimConfig {
            gap_factor: 4,
            ..Default::default()
        };
        assert!(!polling.is_static_ring());
        let moded = NetworkSimConfig {
            mode: ModeSimConfig::enabled(),
            ..Default::default()
        };
        assert!(!moded.is_static_ring());
    }

    #[test]
    fn tick_range_rejects_a_wrapping_clock() {
        let master = || {
            SimMaster::stock(StreamSet::new(vec![]).unwrap())
                .with_low_priority(LowPriorityTraffic::new(t(700), t(5_000)))
        };
        let net = SimNetwork {
            masters: vec![master()],
            ttr: t(1_000),
            token_pass: t(100),
        };
        // TTR + longest cycle + answered poll and TSL + (pass + TSL) x
        // 2 attempts x 1 master + (6 + 2·126)·TSL.
        let step = 1_000 + 700 + (302 + 200) + (100 + 200) * 2 + 200 * 258;
        let at = |horizon: i64| NetworkSimConfig {
            horizon: t(horizon),
            ..Default::default()
        };
        assert_eq!(at(i64::MAX - step).check_tick_range(&net), Ok(()));
        assert_eq!(
            at(i64::MAX - step + 1).check_tick_range(&net),
            Err(SimNetworkError::TickOverflow {
                what: "the horizon plus one token visit's worst step"
            })
        );
        // A huge slot time overflows the claim timeout on its own.
        let slow = NetworkSimConfig {
            slot_time: t(i64::MAX / 100),
            ..Default::default()
        };
        assert!(slow.check_tick_range(&net).is_err());
        // Two masters at token_pass 2^62: the ring cost itself overflows.
        let huge = SimNetwork {
            masters: vec![master(), master()],
            ttr: t(1_000),
            token_pass: t(1 << 62),
        };
        let err = NetworkSimConfig::default()
            .check_tick_range(&huge)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "the ring cost token_pass x masters overflows i64 ticks"
        );
    }

    #[test]
    fn tick_range_rejects_wrapping_mode_thresholds() {
        let net = SimNetwork {
            masters: vec![SimMaster::stock(StreamSet::new(vec![]).unwrap())],
            ttr: t(10_000_000_000),
            token_pass: t(100),
        };
        let moded = |degrade_factor: u32, matchup_factor: u32| NetworkSimConfig {
            mode: ModeSimConfig {
                degrade_factor,
                matchup_factor,
                ..ModeSimConfig::enabled()
            },
            ..Default::default()
        };
        assert_eq!(moded(2, 2).check_tick_range(&net), Ok(()));
        // 1e10 x u32::MAX > i64::MAX: either product is a typed error.
        assert_eq!(
            moded(u32::MAX, 2).check_tick_range(&net),
            Err(SimNetworkError::TickOverflow {
                what: "the mode threshold degrade_factor x TTR"
            })
        );
        assert_eq!(
            moded(2, u32::MAX).check_tick_range(&net),
            Err(SimNetworkError::TickOverflow {
                what: "the mode threshold matchup_factor x TTR"
            })
        );
        // A disabled controller never computes its thresholds.
        let off = NetworkSimConfig {
            mode: ModeSimConfig {
                enabled: false,
                ..moded(u32::MAX, u32::MAX).mode
            },
            ..Default::default()
        };
        assert_eq!(off.check_tick_range(&net), Ok(()));
    }

    #[test]
    fn criticality_defaults_to_hi() {
        let streams = StreamSet::from_cdt(&[(100, 5_000, 10_000), (100, 5_000, 10_000)]).unwrap();
        let m = SimMaster::stock(streams).with_criticality(vec![profirt_base::Criticality::Lo]);
        assert_eq!(m.criticality_of(0), profirt_base::Criticality::Lo);
        assert_eq!(m.criticality_of(1), profirt_base::Criticality::Hi);
    }
}
