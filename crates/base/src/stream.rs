//! The PROFIBUS message-stream model of the paper's §3.2.
//!
//! A *message stream* `Shi^k` at master `k` is a temporal sequence of message
//! cycles (e.g. periodic reads of a sensor). It is characterised by:
//!
//! * `Chi` — the maximum *message-cycle* length: request frame + responder's
//!   immediate response + turnaround time + the maximum allowed retries
//!   (footnote 2 and §3.2 of the paper);
//! * `Dhi` — the relative deadline of each message in the stream;
//! * `Thi` — the period (minimum inter-arrival time of requests);
//! * `Ji`  — the release jitter inherited from the generating task (§4.1).
//!
//! The structural identity with [`crate::Task`] is the whole point of the
//! paper — the same `(C, D, T, J)` quadruple flows into transposed analyses —
//! but the semantic difference (non-preemptable bus cycles, `Tcycle`-grained
//! service) warrants a distinct type so the two cannot be confused.

use crate::error::{AnalysisError, AnalysisResult, ModelError};
use crate::num::Frac;
use crate::time::Time;

/// A high-priority PROFIBUS message stream `(Ch, Dh, Th, J)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MessageStream {
    /// Worst-case message-cycle time `Chi` (request + response + turnaround +
    /// retries), in ticks; strictly positive.
    pub ch: Time,
    /// Relative deadline `Dhi`, strictly positive.
    pub d: Time,
    /// Period / minimum inter-arrival time `Thi`, strictly positive.
    pub t: Time,
    /// Release jitter `Ji` inherited from the generating task; non-negative.
    pub j: Time,
}

impl MessageStream {
    /// Creates a validated stream with no jitter.
    pub fn new(
        ch: impl Into<Time>,
        d: impl Into<Time>,
        t: impl Into<Time>,
    ) -> AnalysisResult<MessageStream> {
        MessageStream::with_jitter(ch, d, t, Time::ZERO)
    }

    /// Creates a validated stream `(Ch, D, T, J)`.
    pub fn with_jitter(
        ch: impl Into<Time>,
        d: impl Into<Time>,
        t: impl Into<Time>,
        j: impl Into<Time>,
    ) -> AnalysisResult<MessageStream> {
        let s = MessageStream {
            ch: ch.into(),
            d: d.into(),
            t: t.into(),
            j: j.into(),
        };
        s.validate()?;
        Ok(s)
    }

    /// Validates parameter ranges. Unlike tasks, `Ch > D` is allowed here
    /// only as far as `Ch <= D` is *not* required: the message response time
    /// is dominated by token cycles, and the analyses themselves decide
    /// schedulability. We still require positive `Ch`, `D`, `T` and
    /// non-negative `J`.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.ch.is_positive() {
            return Err(ModelError::NonPositiveCost {
                value: self.ch.ticks(),
            });
        }
        if !self.t.is_positive() {
            return Err(ModelError::NonPositivePeriod {
                value: self.t.ticks(),
            });
        }
        if !self.d.is_positive() {
            return Err(ModelError::NonPositiveDeadline {
                value: self.d.ticks(),
            });
        }
        if self.j.is_negative() {
            return Err(ModelError::NegativeJitter {
                value: self.j.ticks(),
            });
        }
        Ok(())
    }

    /// Bus utilisation of this stream, `Chi / Thi`.
    pub fn utilization(&self) -> Frac {
        Frac::new(self.ch.ticks() as i128, self.t.ticks() as i128)
    }
}

/// The set of high-priority message streams of one master.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StreamSet {
    streams: Vec<MessageStream>,
}

impl StreamSet {
    /// Creates a stream set, validating every stream.
    pub fn new(streams: Vec<MessageStream>) -> AnalysisResult<StreamSet> {
        for s in &streams {
            s.validate()?;
        }
        Ok(StreamSet { streams })
    }

    /// Builds a set from `(Ch, D, T)` triples.
    pub fn from_cdt(triples: &[(i64, i64, i64)]) -> AnalysisResult<StreamSet> {
        let streams = triples
            .iter()
            .map(|&(c, d, t)| MessageStream::new(c, d, t))
            .collect::<AnalysisResult<Vec<_>>>()?;
        StreamSet::new(streams)
    }

    /// Builds a set from `(Ch, D, T, J)` quadruples.
    pub fn from_cdtj(quads: &[(i64, i64, i64, i64)]) -> AnalysisResult<StreamSet> {
        let streams = quads
            .iter()
            .map(|&(c, d, t, j)| MessageStream::with_jitter(c, d, t, j))
            .collect::<AnalysisResult<Vec<_>>>()?;
        StreamSet::new(streams)
    }

    /// The number of streams — the paper's `nh^k`.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` if the master has no high-priority streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Immutable view of the streams.
    pub fn streams(&self) -> &[MessageStream] {
        &self.streams
    }

    /// The stream at `index`, or a typed error.
    pub fn get(&self, index: usize) -> AnalysisResult<&MessageStream> {
        self.streams
            .get(index)
            .ok_or(AnalysisError::IndexOutOfRange {
                index,
                len: self.streams.len(),
            })
    }

    /// Iterator over `(index, &MessageStream)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &MessageStream)> {
        self.streams.iter().enumerate()
    }

    /// The longest message-cycle time `max_i Chi^k` — feeds the token
    /// lateness bound `CM^k` (eq. (13)).
    pub fn max_cycle_time(&self) -> Option<Time> {
        self.streams.iter().map(|s| s.ch).max()
    }

    /// Indices sorted by ascending relative deadline (deadline-monotonic
    /// priority order; ties broken by index).
    pub fn indices_by_deadline(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.streams.len()).collect();
        idx.sort_by_key(|&i| (self.streams[i].d, i));
        idx
    }

    /// The smallest relative deadline in the set.
    pub fn min_deadline(&self) -> Option<Time> {
        self.streams.iter().map(|s| s.d).min()
    }
}

impl From<StreamSet> for Vec<MessageStream> {
    fn from(set: StreamSet) -> Vec<MessageStream> {
        set.streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::t;

    #[test]
    fn stream_construction_and_validation() {
        let s = MessageStream::new(5, 100, 200).unwrap();
        assert_eq!(s.ch, t(5));
        assert_eq!(s.j, t(0));
        assert!(MessageStream::new(0, 100, 200).is_err());
        assert!(MessageStream::new(5, 0, 200).is_err());
        assert!(MessageStream::new(5, 100, 0).is_err());
        assert!(MessageStream::with_jitter(5, 100, 200, -1).is_err());
        // Ch > D is allowed at the model level (analysis decides).
        assert!(MessageStream::new(500, 100, 200).is_ok());
    }

    #[test]
    fn set_statistics() {
        let set = StreamSet::from_cdt(&[(5, 100, 200), (3, 50, 60), (8, 400, 400)]).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.max_cycle_time(), Some(t(8)));
        assert_eq!(set.min_deadline(), Some(t(50)));
        assert_eq!(set.indices_by_deadline(), vec![1, 0, 2]);
    }

    #[test]
    fn utilization() {
        let set = StreamSet::from_cdt(&[(1, 10, 10), (1, 5, 5)]).unwrap();
        let u = set
            .streams()
            .iter()
            .try_fold(Frac::ZERO, |u, s| u.checked_add(s.utilization()));
        assert_eq!(u, Some(Frac::new(3, 10)));
    }

    #[test]
    fn jitter_quads() {
        let set = StreamSet::from_cdtj(&[(5, 100, 200, 10), (3, 50, 60, 0)]).unwrap();
        assert_eq!(set.get(0).unwrap().j, t(10));
        assert_eq!(set.get(1).unwrap().j, t(0));
        assert!(set.get(2).is_err());
    }

    #[test]
    fn empty_set() {
        let set = StreamSet::new(vec![]).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.max_cycle_time(), None);
    }
}
