//! The analysed network configuration.
//!
//! A [`NetworkConfig`] is the exact input of the paper's analysis: for each
//! master `k` in the logical ring, its high-priority message streams
//! `Shi^k` and its longest low-priority message cycle `Cl^k`; plus the
//! ring-wide target token rotation time `TTR`. All times in ticks (bit
//! times when derived from [`profirt_profibus::BusParams`]).

use profirt_base::{AnalysisError, AnalysisResult, Criticality, StreamSet, Time};
use profirt_profibus::{BusParams, MasterStation};

/// Analysis-relevant view of one master.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MasterConfig {
    /// High-priority streams of this master.
    pub streams: StreamSet,
    /// Longest low-priority message cycle `Cl^k` (zero if the master sends
    /// no low-priority traffic).
    pub cl: Time,
    /// Per-stream criticality levels, parallel to `streams`. An empty
    /// vector — the default of every constructor — means all-HI, the
    /// backward-compatible reading under which pre-existing configs are
    /// unchanged. When non-empty, the length must equal `streams.len()`.
    /// A config file that omits the field reads it as empty.
    pub criticality: Vec<Criticality>,
}

impl MasterConfig {
    /// Creates a master configuration (all streams HI).
    pub fn new(streams: StreamSet, cl: Time) -> MasterConfig {
        MasterConfig {
            streams,
            cl,
            criticality: Vec::new(),
        }
    }

    /// Derives the configuration from a full station model (all streams HI).
    pub fn from_station(station: &MasterStation) -> MasterConfig {
        MasterConfig {
            streams: station.streams.clone(),
            cl: station.max_low_cycle().unwrap_or(Time::ZERO),
            criticality: Vec::new(),
        }
    }

    /// Returns a copy carrying per-stream criticality levels. Lengths must
    /// match the stream set (or the vector may be empty for all-HI).
    pub fn with_criticality(mut self, criticality: Vec<Criticality>) -> MasterConfig {
        self.criticality = criticality;
        self
    }

    /// The criticality of stream `i`; absent entries read as HI.
    pub fn criticality_of(&self, i: usize) -> Criticality {
        self.criticality.get(i).copied().unwrap_or(Criticality::Hi)
    }

    /// `true` if any stream of this master is below HI criticality.
    pub fn has_sub_hi(&self) -> bool {
        self.criticality.iter().any(|c| c.shed_in_hi_mode())
    }

    /// Number of high-priority streams, the paper's `nh^k`.
    pub fn nh(&self) -> usize {
        self.streams.len()
    }

    /// The longest high-priority cycle `max_i Chi^k` (zero if none).
    pub fn max_high_cycle(&self) -> Time {
        self.streams.max_cycle_time().unwrap_or(Time::ZERO)
    }

    /// The paper's `CM^k = max{max_i Chi^k, Cl^k}` (eq. (13) term).
    pub fn longest_cycle(&self) -> Time {
        self.max_high_cycle().max(self.cl)
    }
}

/// The whole-network analysis input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkConfig {
    /// Masters in logical-ring order.
    pub masters: Vec<MasterConfig>,
    /// Target token rotation time `TTR`.
    pub ttr: Time,
    /// Per-hop token-pass overhead added to the `Tcycle` bound as
    /// `n_masters · token_pass`.
    ///
    /// **Fidelity note.** The paper's eq. (14) (`Tcycle = TTR + Tdel`)
    /// carries no explicit overhead term (its footnote 7 folds "ring
    /// latency and other protocol overheads" into the illustration only).
    /// Simulation shows the literal bound can be exceeded by up to one
    /// token pass per master in a worst-case rotation (the T5 finding), so
    /// validation campaigns set this to the real SD4+TID2 pass time. The
    /// default `0` reproduces the paper verbatim; a config file that
    /// omits the field reads it as `0`.
    pub token_pass: Time,
}

impl NetworkConfig {
    /// Creates and validates a network configuration: at least one master,
    /// positive `TTR`, and non-negative `Cl` everywhere. The token-pass
    /// overhead defaults to zero (paper-literal bound).
    pub fn new(masters: Vec<MasterConfig>, ttr: Time) -> AnalysisResult<NetworkConfig> {
        if masters.is_empty() {
            return Err(AnalysisError::EmptySet);
        }
        if !ttr.is_positive() {
            return Err(AnalysisError::Model(
                profirt_base::ModelError::NonPositivePeriod { value: ttr.ticks() },
            ));
        }
        for m in &masters {
            if m.cl.is_negative() {
                return Err(AnalysisError::Model(
                    profirt_base::ModelError::NonPositiveCost {
                        value: m.cl.ticks(),
                    },
                ));
            }
            if !m.criticality.is_empty() && m.criticality.len() != m.streams.len() {
                return Err(AnalysisError::IndexOutOfRange {
                    index: m.criticality.len(),
                    len: m.streams.len(),
                });
            }
        }
        Ok(NetworkConfig {
            masters,
            ttr,
            token_pass: Time::ZERO,
        })
    }

    /// Returns a copy carrying a per-hop token-pass overhead (included in
    /// every `Tcycle`-derived bound).
    pub fn with_token_pass(mut self, token_pass: Time) -> NetworkConfig {
        self.token_pass = token_pass;
        self
    }

    /// The whole-ring overhead `n_masters · token_pass`.
    ///
    /// # Errors
    /// [`AnalysisError::Overflow`] if the product exceeds the tick range.
    pub fn ring_overhead(&self) -> AnalysisResult<Time> {
        self.token_pass
            .checked_mul(self.masters.len() as i64)
            .ok_or(AnalysisError::Overflow {
                context: "ring overhead",
            })
    }

    /// Builds the configuration from full station models and bus
    /// parameters (taking `TTR` from the bus profile).
    pub fn from_stations(
        params: &BusParams,
        stations: &[MasterStation],
    ) -> AnalysisResult<NetworkConfig> {
        NetworkConfig::new(
            stations.iter().map(MasterConfig::from_station).collect(),
            params.ttr,
        )
    }

    /// Returns a copy with a different `TTR` (used by the eq. (15) sweep);
    /// the token-pass overhead is preserved.
    pub fn with_ttr(&self, ttr: Time) -> AnalysisResult<NetworkConfig> {
        Ok(NetworkConfig::new(self.masters.clone(), ttr)?.with_token_pass(self.token_pass))
    }

    /// Replaces `TTR` in place: exactly [`NetworkConfig::with_ttr`] minus
    /// the master-set copy, with the same validation and `self` untouched
    /// on error. The warm campaign chains re-parameterise one realized
    /// network per `ttr` coordinate; cloning every stream set per
    /// coordinate would dominate the chain walk.
    pub fn set_ttr(&mut self, ttr: Time) -> AnalysisResult<()> {
        if !ttr.is_positive() {
            return Err(AnalysisError::Model(
                profirt_base::ModelError::NonPositivePeriod { value: ttr.ticks() },
            ));
        }
        self.ttr = ttr;
        Ok(())
    }

    /// `true` if any stream anywhere in the ring is below HI criticality —
    /// the condition under which degraded-mode analysis differs from the
    /// nominal one.
    pub fn has_sub_hi(&self) -> bool {
        self.masters.iter().any(MasterConfig::has_sub_hi)
    }

    /// `true` if any master carries criticality labels, all-HI ones
    /// included: the condition under which `serve` answers two-sided.
    pub fn is_labelled(&self) -> bool {
        self.masters.iter().any(|m| !m.criticality.is_empty())
    }

    /// The HI-only projection: every master keeps only its HI-criticality
    /// streams (`cl`, `TTR` and the token-pass overhead are unchanged — the
    /// ring still rotates, and low-priority traffic is not criticality
    /// managed). Returns the projected configuration plus, per master, the
    /// *original* stream index of each kept stream, so degraded-mode bounds
    /// can be matched back to observations on the full workload.
    pub fn hi_projection(&self) -> AnalysisResult<(NetworkConfig, Vec<Vec<usize>>)> {
        let mut masters = Vec::with_capacity(self.masters.len());
        let mut kept = Vec::with_capacity(self.masters.len());
        for m in &self.masters {
            let mut indices = Vec::new();
            let mut streams = Vec::new();
            for (i, s) in m.streams.iter() {
                if m.criticality_of(i) == profirt_base::Criticality::Hi {
                    indices.push(i);
                    streams.push(*s);
                }
            }
            masters.push(MasterConfig::new(StreamSet::new(streams)?, m.cl));
            kept.push(indices);
        }
        Ok((
            NetworkConfig::new(masters, self.ttr)?.with_token_pass(self.token_pass),
            kept,
        ))
    }

    /// Number of masters `n`.
    pub fn n_masters(&self) -> usize {
        self.masters.len()
    }

    /// Total number of high-priority streams across all masters.
    pub fn total_streams(&self) -> usize {
        self.masters.iter().map(MasterConfig::nh).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::StreamSet;
    use profirt_profibus::QueuePolicy;

    fn streams() -> StreamSet {
        StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 60_000, 60_000)]).unwrap()
    }

    #[test]
    fn master_config_statistics() {
        let m = MasterConfig::new(streams(), t(360));
        assert_eq!(m.nh(), 2);
        assert_eq!(m.max_high_cycle(), t(300));
        assert_eq!(m.longest_cycle(), t(360)); // Cl dominates
        let m2 = MasterConfig::new(streams(), t(0));
        assert_eq!(m2.longest_cycle(), t(300));
    }

    #[test]
    fn network_validation() {
        assert!(matches!(
            NetworkConfig::new(vec![], t(1000)),
            Err(AnalysisError::EmptySet)
        ));
        assert!(NetworkConfig::new(vec![MasterConfig::new(streams(), t(0))], t(0)).is_err());
        let net = NetworkConfig::new(vec![MasterConfig::new(streams(), t(10))], t(1000)).unwrap();
        assert_eq!(net.n_masters(), 1);
        assert_eq!(net.total_streams(), 2);
    }

    #[test]
    fn from_stations_uses_bus_ttr() {
        let params = BusParams::profile_500k();
        let st = MasterStation::priority_queued(
            profirt_base::MasterAddr(3),
            streams(),
            QueuePolicy::DeadlineMonotonic,
        );
        let net = NetworkConfig::from_stations(&params, &[st]).unwrap();
        assert_eq!(net.ttr, params.ttr);
        assert_eq!(net.masters[0].cl, t(0));
    }

    #[test]
    fn with_ttr_replaces() {
        let net = NetworkConfig::new(vec![MasterConfig::new(streams(), t(5))], t(100)).unwrap();
        let net2 = net.with_ttr(t(999)).unwrap();
        assert_eq!(net2.ttr, t(999));
        assert_eq!(net2.masters, net.masters);
    }

    #[test]
    fn criticality_defaults_to_hi_and_validates_length() {
        use profirt_base::Criticality;
        let m = MasterConfig::new(streams(), t(0));
        assert_eq!(m.criticality_of(0), Criticality::Hi);
        assert_eq!(m.criticality_of(99), Criticality::Hi);
        assert!(!m.has_sub_hi());
        let mixed = m
            .clone()
            .with_criticality(vec![Criticality::Lo, Criticality::Hi]);
        assert!(mixed.has_sub_hi());
        assert_eq!(mixed.criticality_of(0), Criticality::Lo);
        // A non-empty vector of the wrong length is rejected at network
        // construction.
        let short = m.with_criticality(vec![Criticality::Lo]);
        assert!(matches!(
            NetworkConfig::new(vec![short], t(1000)),
            Err(AnalysisError::IndexOutOfRange { index: 1, len: 2 })
        ));
    }

    #[test]
    fn hi_projection_keeps_hi_streams_and_ring_shape() {
        use profirt_base::Criticality;
        let m0 = MasterConfig::new(streams(), t(360))
            .with_criticality(vec![Criticality::Lo, Criticality::Hi]);
        let m1 = MasterConfig::new(streams(), t(0)); // implicit all-HI
        let net = NetworkConfig::new(vec![m0, m1], t(3000))
            .unwrap()
            .with_token_pass(t(166));
        assert!(net.has_sub_hi());
        let (hi, kept) = net.hi_projection().unwrap();
        assert_eq!(hi.n_masters(), 2); // the ring shape is preserved
        assert_eq!(hi.masters[0].nh(), 1);
        assert_eq!(hi.masters[1].nh(), 2);
        assert_eq!(kept, vec![vec![1], vec![0, 1]]);
        assert_eq!(hi.masters[0].cl, t(360));
        assert_eq!(hi.token_pass, t(166));
        // All-HI networks project to themselves (modulo the criticality
        // annotation, which the projection drops).
        let plain = NetworkConfig::new(vec![MasterConfig::new(streams(), t(0))], t(3000)).unwrap();
        let (p, k) = plain.hi_projection().unwrap();
        assert_eq!(p, plain);
        assert_eq!(k, vec![vec![0, 1]]);
    }

    #[test]
    fn set_ttr_matches_with_ttr() {
        let net = NetworkConfig::new(vec![MasterConfig::new(streams(), t(5))], t(100))
            .unwrap()
            .with_token_pass(t(7));
        let copied = net.with_ttr(t(999)).unwrap();
        let mut patched = net.clone();
        patched.set_ttr(t(999)).unwrap();
        assert_eq!(patched, copied);
        // Same validation, and `self` is untouched on error.
        assert!(patched.set_ttr(t(0)).is_err());
        assert_eq!(patched.ttr, t(999));
    }
}
