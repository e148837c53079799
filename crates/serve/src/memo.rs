//! A bounded LRU memo for analysis results.
//!
//! Each engine shard owns one: near-duplicate queries — the campaign
//! matrix asking the same ring under four policies, an admission
//! controller re-probing after every reject — hit cache instead of
//! re-running the fixpoints. Keys are [`QuestionKey`]s: an integer
//! encoding of the decoded question ([`crate::proto::Request::key`]), so
//! requests that decode to the same operation share an entry whatever
//! their `id`, field order, explicit defaults or unknown extra fields.
//! Values are the cached `"result"` [`Value`]; the response envelope is
//! rebuilt per request, so a cache hit is byte-identical to a fresh
//! evaluation.
//!
//! Recency is stamp-based: a monotone tick per access, eviction removes
//! the minimum stamp. Eviction is `O(n)` over the map — deliberate: caps
//! are small (hundreds), and a scan beats the intrusive-list bookkeeping
//! an exact LRU would need for shapes this size.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use profirt_base::hash::Fnv1a64;
use profirt_base::json::Value;

/// A memo key: the words of a decoded question plus their FNV-1a 64 hash,
/// computed once. A map lookup hashes the 8-byte hash, not the words;
/// equality still compares every word, so a hash collision costs a miss,
/// never a wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuestionKey {
    hash: u64,
    words: Box<[i64]>,
}

impl QuestionKey {
    /// Keys `words`, hashing their little-endian bytes.
    pub fn new(words: Vec<i64>) -> QuestionKey {
        let mut h = Fnv1a64::new();
        for w in &words {
            h.write(&w.to_le_bytes());
        }
        QuestionKey {
            hash: h.finish(),
            words: words.into_boxed_slice(),
        }
    }
}

impl Hash for QuestionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A bounded least-recently-used map from question keys to cached result
/// values. Capacity 0 disables caching entirely.
#[derive(Debug, Default)]
pub struct Memo {
    cap: usize,
    tick: u64,
    map: HashMap<QuestionKey, (Value, u64)>,
}

impl Memo {
    /// Creates a memo holding at most `cap` entries (0 = disabled).
    pub fn new(cap: usize) -> Memo {
        Memo {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap.min(1024)),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&mut self, key: &QuestionKey) -> Option<Value> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, stamp)| {
            *stamp = tick;
            value.clone()
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn put(&mut self, key: &QuestionKey, value: Value) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(key) && self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key.clone(), (value, self.tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: i64) -> Value {
        Value::Int(n)
    }

    fn k(name: &str) -> QuestionKey {
        QuestionKey::new(name.bytes().map(i64::from).collect())
    }

    #[test]
    fn hit_and_miss() {
        let mut m = Memo::new(4);
        assert_eq!(m.get(&k("a")), None);
        m.put(&k("a"), v(1));
        assert_eq!(m.get(&k("a")), Some(v(1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut m = Memo::new(2);
        m.put(&k("a"), v(1));
        m.put(&k("b"), v(2));
        // Touch "a" so "b" is the LRU entry.
        assert_eq!(m.get(&k("a")), Some(v(1)));
        m.put(&k("c"), v(3));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&k("b")), None, "LRU entry must have been evicted");
        assert_eq!(m.get(&k("a")), Some(v(1)));
        assert_eq!(m.get(&k("c")), Some(v(3)));
    }

    #[test]
    fn refresh_does_not_grow() {
        let mut m = Memo::new(2);
        m.put(&k("a"), v(1));
        m.put(&k("a"), v(2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&k("a")), Some(v(2)));
    }

    #[test]
    fn cap_zero_disables() {
        let mut m = Memo::new(0);
        m.put(&k("a"), v(1));
        assert!(m.is_empty());
        assert_eq!(m.get(&k("a")), None);
    }
}
