//! Whole-network generation.
//!
//! Produces matched **analysis** and **simulation** views of one random
//! PROFIBUS network: the [`profirt_core::NetworkConfig`] consumed by the
//! response-time analyses and the per-master stream/low-priority structure
//! consumed by `profirt-sim` (reconstructed there into a `SimNetwork` with
//! the chosen queue policies).

use profirt_base::{AnalysisResult, Criticality, Prng, StreamSet, Time};
use profirt_core::{MasterConfig, NetworkConfig};
use profirt_profibus::{BusParams, LowPriorityTraffic, MessageCycleSpec};

use crate::periods::PeriodRange;
use crate::streamgen::{generate_stream_set, StreamGenParams};

/// How stream criticalities are drawn — the campaign `criticality` axis.
///
/// [`CriticalityMix::AllHi`] consumes **no** RNG draws, so every workload
/// generated before the mix existed is byte-identical under it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CriticalityMix {
    /// Every stream is HI (the pre-mixed-criticality behaviour).
    #[default]
    AllHi,
    /// Two levels: each stream is LO with probability 0.4, else HI.
    Mixed,
    /// Three levels: LO with probability 0.3, MID with 0.2, else HI.
    Mixed3,
}

impl CriticalityMix {
    /// The canonical axis/CLI spelling (`"all-hi"` / `"mixed"` / `"mixed3"`).
    pub fn name(self) -> &'static str {
        match self {
            CriticalityMix::AllHi => "all-hi",
            CriticalityMix::Mixed => "mixed",
            CriticalityMix::Mixed3 => "mixed3",
        }
    }

    /// Parses the spelling produced by [`CriticalityMix::name`].
    pub fn parse(s: &str) -> Option<CriticalityMix> {
        match s {
            "all-hi" => Some(CriticalityMix::AllHi),
            "mixed" => Some(CriticalityMix::Mixed),
            "mixed3" => Some(CriticalityMix::Mixed3),
            _ => None,
        }
    }

    /// Draws one stream's criticality. `AllHi` returns without touching the
    /// RNG; the other mixes consume exactly one draw per stream.
    fn draw(self, rng: &mut Prng) -> Criticality {
        match self {
            CriticalityMix::AllHi => Criticality::Hi,
            CriticalityMix::Mixed => {
                if rng.unit() < 0.4 {
                    Criticality::Lo
                } else {
                    Criticality::Hi
                }
            }
            CriticalityMix::Mixed3 => {
                let u = rng.unit();
                if u < 0.3 {
                    Criticality::Lo
                } else if u < 0.5 {
                    Criticality::Mid
                } else {
                    Criticality::Hi
                }
            }
        }
    }
}

impl std::fmt::Display for CriticalityMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Network generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetGenParams {
    /// Number of masters in the ring.
    pub n_masters: usize,
    /// Per-master stream generation.
    pub streams: StreamGenParams,
    /// Probability that a master carries low-priority traffic.
    pub low_priority_prob: f64,
    /// Low-priority payload bounds (octets) when present.
    pub low_payload: (usize, usize),
    /// Low-priority generation period (ticks).
    pub low_period: Time,
    /// Target token rotation time `TTR` (ticks).
    pub ttr: Time,
    /// How per-stream criticality levels are drawn.
    pub criticality_mix: CriticalityMix,
}

impl NetGenParams {
    /// The canonical scenario-matrix point used by the experiments and the
    /// campaign engine: `n_masters` masters with `nh` high-priority streams
    /// each, deadlines at `tightness · period` (both bounds), the standard
    /// payload/period envelope at 500 kbit/s, and `TTR = 4000` ticks.
    ///
    /// Matrix axes (network size, stream-set shape, deadline tightness,
    /// `TTR`) all route through here so that "the same scenario" means the
    /// same thing to every caller; refine a point with [`with_ttr`]
    /// (campaign `ttr` axis) or by overriding fields directly.
    ///
    /// [`with_ttr`]: NetGenParams::with_ttr
    pub fn standard(tightness: f64, nh: usize, n_masters: usize) -> NetGenParams {
        NetGenParams {
            n_masters,
            streams: StreamGenParams {
                nh,
                req_payload: (2, 16),
                resp_payload: (2, 32),
                periods: PeriodRange::new(Time::new(80_000), Time::new(800_000), Time::new(100)),
                deadline_frac: (tightness, tightness),
            },
            low_priority_prob: 0.4,
            low_payload: (8, 32),
            low_period: Time::new(500_000),
            ttr: Time::new(4_000),
            criticality_mix: CriticalityMix::AllHi,
        }
    }

    /// Returns the parameters with the target token rotation time replaced
    /// (the campaign engine's `ttr` axis hook).
    pub fn with_ttr(mut self, ttr: Time) -> NetGenParams {
        self.ttr = ttr;
        self
    }

    /// Returns the parameters with the criticality mix replaced (the
    /// campaign engine's `criticality` axis hook).
    pub fn with_criticality_mix(mut self, mix: CriticalityMix) -> NetGenParams {
        self.criticality_mix = mix;
        self
    }
}

/// A generated network: the analysis view plus the raw per-master pieces
/// needed to assemble simulator inputs.
#[derive(Clone, Debug)]
pub struct GeneratedNetwork {
    /// Analysis input for `profirt-core`.
    pub config: NetworkConfig,
    /// Per-master stream sets (identical to `config`'s, re-exposed for
    /// simulator construction).
    pub streams: Vec<StreamSet>,
    /// Per-master low-priority traffic (empty vectors where absent).
    pub low_priority: Vec<Vec<LowPriorityTraffic>>,
}

/// Generates one network under the given bus profile.
pub fn generate_network(
    rng: &mut Prng,
    bus: &BusParams,
    params: &NetGenParams,
) -> AnalysisResult<GeneratedNetwork> {
    assert!(params.n_masters >= 1, "need at least one master");
    assert!(
        (0.0..=1.0).contains(&params.low_priority_prob),
        "probability out of range"
    );
    let mut masters = Vec::with_capacity(params.n_masters);
    let mut streams_out = Vec::with_capacity(params.n_masters);
    let mut low_out = Vec::with_capacity(params.n_masters);
    for _ in 0..params.n_masters {
        let streams = generate_stream_set(rng, bus, &params.streams)?;
        let low = if rng.unit() < params.low_priority_prob {
            let payload =
                params.low_payload.0 + rng.index(params.low_payload.1 - params.low_payload.0 + 1);
            let cl = MessageCycleSpec::srd_sd2(payload, payload).worst_case_time(bus);
            vec![LowPriorityTraffic::new(cl, params.low_period)]
        } else {
            Vec::new()
        };
        let cl_max = low.iter().map(|l| l.cycle_time).max().unwrap_or(Time::ZERO);
        // Criticality draws come last and only for non-trivial mixes, so
        // the all-HI RNG stream — and with it every pre-existing workload —
        // is untouched.
        let criticality = if params.criticality_mix == CriticalityMix::AllHi {
            Vec::new()
        } else {
            (0..streams.len())
                .map(|_| params.criticality_mix.draw(rng))
                .collect()
        };
        masters.push(MasterConfig::new(streams.clone(), cl_max).with_criticality(criticality));
        streams_out.push(streams);
        low_out.push(low);
    }
    Ok(GeneratedNetwork {
        config: NetworkConfig::new(masters, params.ttr)?,
        streams: streams_out,
        low_priority: low_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periods::PeriodRange;
    use profirt_base::time::t;

    fn params() -> NetGenParams {
        NetGenParams {
            n_masters: 4,
            streams: StreamGenParams {
                nh: 5,
                req_payload: (2, 16),
                resp_payload: (2, 32),
                periods: PeriodRange::new(t(50_000), t(5_000_000), t(100)),
                deadline_frac: (0.4, 1.0),
            },
            low_priority_prob: 0.5,
            low_payload: (8, 64),
            low_period: t(500_000),
            ttr: t(10_000),
            criticality_mix: CriticalityMix::AllHi,
        }
    }

    #[test]
    fn generates_consistent_views() {
        let bus = BusParams::profile_500k();
        let mut rng = Prng::seed_from_u64(1);
        let g = generate_network(&mut rng, &bus, &params()).unwrap();
        assert_eq!(g.config.n_masters(), 4);
        assert_eq!(g.streams.len(), 4);
        assert_eq!(g.low_priority.len(), 4);
        for (k, m) in g.config.masters.iter().enumerate() {
            assert_eq!(m.streams, g.streams[k]);
            let cl_max = g.low_priority[k]
                .iter()
                .map(|l| l.cycle_time)
                .max()
                .unwrap_or(t(0));
            assert_eq!(m.cl, cl_max);
        }
    }

    #[test]
    fn low_priority_probability_zero_and_one() {
        let bus = BusParams::profile_500k();
        let mut p = params();
        p.low_priority_prob = 0.0;
        let g = generate_network(&mut Prng::seed_from_u64(2), &bus, &p).unwrap();
        assert!(g.low_priority.iter().all(Vec::is_empty));
        p.low_priority_prob = 1.0;
        let g = generate_network(&mut Prng::seed_from_u64(2), &bus, &p).unwrap();
        assert!(g.low_priority.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn deterministic_per_seed() {
        let bus = BusParams::profile_1m5();
        let a = generate_network(&mut Prng::seed_from_u64(77), &bus, &params()).unwrap();
        let b = generate_network(&mut Prng::seed_from_u64(77), &bus, &params()).unwrap();
        assert_eq!(a.config, b.config);
    }

    #[test]
    fn all_hi_mix_draws_nothing_and_matches_pre_mix_output() {
        let bus = BusParams::profile_500k();
        // The same seed with and without the (default) all-HI mix must give
        // identical networks: the mix consumes zero draws.
        let a = generate_network(&mut Prng::seed_from_u64(9), &bus, &params()).unwrap();
        let b = generate_network(
            &mut Prng::seed_from_u64(9),
            &bus,
            &params().with_criticality_mix(CriticalityMix::AllHi),
        )
        .unwrap();
        assert_eq!(a.config, b.config);
        assert!(a.config.masters.iter().all(|m| m.criticality.is_empty()));
        assert!(!a.config.has_sub_hi());
    }

    #[test]
    fn mixed_draws_annotate_every_stream_without_touching_structure() {
        let bus = BusParams::profile_500k();
        for mix in [CriticalityMix::Mixed, CriticalityMix::Mixed3] {
            let g = generate_network(
                &mut Prng::seed_from_u64(40),
                &bus,
                &params().with_criticality_mix(mix),
            )
            .unwrap();
            // Criticality draws happen after each master's structural
            // draws, so stream parameters are identical to the all-HI
            // workload of the same seed... for the FIRST master. Later
            // masters see a shifted RNG stream by design; what must hold
            // everywhere is the annotation shape.
            for m in &g.config.masters {
                assert_eq!(m.criticality.len(), m.streams.len());
            }
            let a = generate_network(&mut Prng::seed_from_u64(40), &bus, &params()).unwrap();
            assert_eq!(g.config.masters[0].streams, a.config.masters[0].streams);
        }
        // Mixed3 is the only mix that can produce MID.
        let mut saw_mid = false;
        for seed in 0..20 {
            let g = generate_network(
                &mut Prng::seed_from_u64(seed),
                &bus,
                &params().with_criticality_mix(CriticalityMix::Mixed3),
            )
            .unwrap();
            saw_mid |= g
                .config
                .masters
                .iter()
                .flat_map(|m| &m.criticality)
                .any(|&c| c == profirt_base::Criticality::Mid);
        }
        assert!(saw_mid, "mixed3 should draw MID somewhere in 20 seeds");
    }

    #[test]
    fn mix_names_round_trip() {
        for mix in [
            CriticalityMix::AllHi,
            CriticalityMix::Mixed,
            CriticalityMix::Mixed3,
        ] {
            assert_eq!(CriticalityMix::parse(mix.name()), Some(mix));
            assert_eq!(mix.to_string(), mix.name());
        }
        assert_eq!(CriticalityMix::parse("mixed2"), None);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn zero_masters_panics() {
        let mut p = params();
        p.n_masters = 0;
        let _ = generate_network(&mut Prng::seed_from_u64(1), &BusParams::profile_500k(), &p);
    }
}
