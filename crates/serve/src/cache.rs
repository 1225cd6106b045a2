//! A small LRU cache with hit/miss/eviction accounting.
//!
//! Backed by a `HashMap` plus a monotone use-stamp per entry: `get` and
//! `insert` are O(1) expected, eviction scans for the minimum stamp —
//! O(capacity), fine for the artifact-cache sizes the server uses
//! (hundreds, not millions; the cached values are whole UCQ rewritings, so
//! capacity is bounded by memory long before scan cost matters).

use std::collections::HashMap;
use std::hash::Hash;

/// Cache counters, monotone except `entries` (exposed in `stats`
/// responses and the serve benchmark rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: usize,
    pub misses: usize,
    pub insertions: usize,
    pub evictions: usize,
    /// Hits where the caller reached the slot through an *alias*
    /// registration — a name other than the one that populated the slot,
    /// sharing it via canonical keying. A subset of `hits` (every alias
    /// hit also counts as a hit); the gap `hits - alias_hits` is the
    /// plain same-name hit count.
    pub alias_hits: usize,
    /// Live entries when the counters were read (a gauge, not a total).
    pub entries: usize,
}

/// An LRU map with fixed capacity. Capacity 0 disables storage entirely
/// (every lookup is a miss, every insert a no-op) — the `--no-cache`
/// configuration.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counts a hit served without a lookup: the caller took the value
    /// from a concurrent computation of the same key.
    pub fn count_hit(&mut self, alias: bool) {
        self.stats.hits += 1;
        if alias {
            self.stats.alias_hits += 1;
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.get_tagged(key, false)
    }

    /// [`LruCache::get`], additionally counting a hit as an *alias* hit
    /// when `alias` is true (the caller reached this slot through a name
    /// other than the one that populated it — see [`CacheStats::alias_hits`]).
    pub fn get_tagged(&mut self, key: &K, alias: bool) -> Option<V> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = self.clock;
                let v = v.clone();
                self.count_hit(alias);
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (value, self.clock);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.clock));
        self.stats.insertions += 1;
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "a");
        assert_eq!(c.get(&1), Some("a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.alias_hits, 0);
    }

    #[test]
    fn alias_hits_are_a_subset_of_hits() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        assert_eq!(c.get_tagged(&1, true), Some("a"));
        assert_eq!(c.get_tagged(&1, false), Some("a"));
        assert_eq!(c.get_tagged(&2, true), None, "an alias miss is a miss");
        let s = c.stats();
        assert_eq!((s.hits, s.alias_hits, s.misses), (2, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 is now oldest
        c.insert(3, 30);
        assert_eq!(c.get(&2), None, "2 was evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.stats().evictions, 0);
    }
}
