//! The turn-level result cache.
//!
//! Maps a query fingerprint to a cloned retrieval output so a repeated
//! dialogue turn (same text, image, weight override and knobs under the
//! same configuration) skips the search entirely. Invalidation is O(1):
//! a generation counter participates in every slot key, so
//! [`ResultCache::invalidate_all`] bumps it and all previous entries
//! become unreachable, aging out of the Clock shards naturally.
//!
//! Instrumented under `cache.result.*` with handles resolved at
//! construction; metrics are recorded after shard guards drop.

use crate::clock::{CacheShard, ClockCore};
use crate::fingerprint::Fingerprint;
use mqa_obs::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shard count (power of two; mixed-key low bits select the shard).
const SHARDS: usize = 4;

/// A sharded, generation-versioned value cache keyed by `u64`
/// fingerprints.
pub struct ResultCache<V> {
    shards: Vec<CacheShard<ClockCore<V>>>,
    generation: AtomicU64,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl<V: Clone> ResultCache<V> {
    /// A cache holding at most ~`capacity` entries (rounded up to a
    /// multiple of the shard count; clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS)
                .map(|_| CacheShard::new(ClockCore::new(per_shard)))
                .collect(),
            generation: AtomicU64::new(0),
            capacity: per_shard * SHARDS,
            hits: mqa_obs::counter("cache.result.hits"),
            misses: mqa_obs::counter("cache.result.misses"),
            evictions: mqa_obs::counter("cache.result.evictions"),
            invalidations: mqa_obs::counter("cache.result.invalidations"),
        }
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident (stale generations included until they
    /// age out).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(CacheShard::<ClockCore<V>>::len)
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(CacheShard::<ClockCore<V>>::is_empty)
    }

    /// The current generation (bumped by [`ResultCache::invalidate_all`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops every cached entry in O(1) by bumping the generation: keys
    /// from earlier generations can no longer be produced, so their
    /// entries are unreachable and get evicted by normal Clock pressure.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.invalidations.inc();
    }

    /// Mixes the caller's key with the live generation.
    fn slot_key(&self, key: u64) -> u64 {
        Fingerprint::new().u64(key).u64(self.generation()).finish()
    }

    fn shard(&self, slot_key: u64) -> &CacheShard<ClockCore<V>> {
        // INVARIANT: `% SHARDS` keeps the index in 0..SHARDS and the const
        // divisor is non-zero, so shard selection cannot panic.
        &self.shards[(slot_key as usize) % SHARDS]
    }

    /// Looks `key` up in the current generation.
    pub fn get(&self, key: u64) -> Option<V> {
        let sk = self.slot_key(key);
        let found = self.shard(sk).get(sk);
        if found.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        found
    }

    /// Stores `value` under `key` in the current generation.
    pub fn insert(&self, key: u64, value: V) {
        let sk = self.slot_key(key);
        if self.shard(sk).insert(sk, value) {
            self.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let cache: ResultCache<Vec<u32>> = ResultCache::new(16);
        assert_eq!(cache.get(1), None);
        cache.insert(1, vec![5, 6]);
        assert_eq!(cache.get(1), Some(vec![5, 6]));
    }

    #[test]
    fn invalidation_hides_every_entry() {
        let cache: ResultCache<u32> = ResultCache::new(16);
        for k in 0..8u64 {
            cache.insert(k, k as u32);
        }
        assert_eq!(cache.get(3), Some(3));
        let g0 = cache.generation();
        cache.invalidate_all();
        assert_eq!(cache.generation(), g0 + 1);
        for k in 0..8u64 {
            assert_eq!(cache.get(k), None, "stale entry visible for key {k}");
        }
        // The new generation works normally.
        cache.insert(3, 33);
        assert_eq!(cache.get(3), Some(33));
    }

    #[test]
    fn capacity_bounds_residency_across_generations() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        for round in 0..4u64 {
            for k in 0..20u64 {
                cache.insert(k, round * 100 + k);
            }
            cache.invalidate_all();
        }
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn invalidation_counter_moves() {
        let before = mqa_obs::counter("cache.result.invalidations").get();
        let cache: ResultCache<u8> = ResultCache::new(4);
        cache.invalidate_all();
        assert!(mqa_obs::counter("cache.result.invalidations").get() > before);
    }
}
