//! The shared Starling page cache.
//!
//! A presence cache over 4 KiB page ids: the paged index asks
//! [`PageCache::probe`] before charging the simulated device latency for
//! a page read. Hits are free (the page is "resident in the block
//! cache"), misses pay the device, and a missed page is kept while its
//! shard has room or when it is asked for more often than the page it
//! would evict (see [`crate::ProbeCore::touch`]). Sharded so the
//! `QueryEngine` workers contend on different mutexes — consecutive page
//! ids land on different shards.
//!
//! Instrumented through `mqa-obs` under `cache.page.*`; metric handles
//! are resolved once at construction so the hot path never touches the
//! registry mutex, and they are recorded only after the shard guard has
//! been dropped.

use crate::clock::{CacheShard, ProbeCore};
use mqa_obs::{Counter, Gauge};

/// Shard count (power of two; page id low bits select the shard).
const SHARDS: usize = 8;

/// A sharded presence cache over page ids, shared across search threads.
pub struct PageCache {
    shards: Vec<CacheShard<ProbeCore>>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    rejected: Counter,
    hit_rate: Gauge,
}

impl PageCache {
    /// Default total capacity in pages (≈ 16 MiB of simulated 4 KiB
    /// pages — a small fraction of any interesting corpus, but enough to
    /// hold the hot neighbourhoods dialogue rounds keep re-touching).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache holding at most ~`capacity` pages (rounded up to a
    /// multiple of the shard count; `capacity` is clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS)
                .map(|_| CacheShard::new(ProbeCore::new(per_shard)))
                .collect(),
            capacity: per_shard * SHARDS,
            hits: mqa_obs::counter("cache.page.hits"),
            misses: mqa_obs::counter("cache.page.misses"),
            evictions: mqa_obs::counter("cache.page.evictions"),
            rejected: mqa_obs::counter("cache.page.rejected"),
            hit_rate: mqa_obs::gauge("cache.page.hit_rate"),
        }
    }

    /// A cache with [`PageCache::DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    /// Total page capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(CacheShard::<ProbeCore>::len).sum()
    }

    /// Whether no page is resident.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(CacheShard::<ProbeCore>::is_empty)
    }

    /// Probes the cache for `page`. Returns `true` on a hit (the page is
    /// resident — no device read needed); `false` says the caller must
    /// pay the device read, after which the page is resident unless the
    /// shard was full and the page it would have evicted is asked for at
    /// least as often (`cache.page.rejected`). The counters keep
    /// `hits + misses` = probes and `misses − rejected − evictions` =
    /// pages resident.
    pub fn probe(&self, page: u32) -> bool {
        // INVARIANT: `% SHARDS` keeps the index in 0..SHARDS and the const
        // divisor is non-zero, so shard selection cannot panic.
        let touch = self.shards[page as usize % SHARDS].touch(u64::from(page));
        // The shard guard is gone; record on pre-resolved handles.
        if touch.hit {
            self.hits.inc();
            return true;
        }
        self.misses.inc();
        if touch.evicted {
            self.evictions.inc();
        }
        if !touch.admitted {
            self.rejected.inc();
        }
        // The gauge moves on misses only: a hit costs one counter, and
        // while every probe hits the rate only drifts towards 1.
        let h = self.hits.get() as f64;
        let m = self.misses.get() as f64;
        // INVARIANT: f64 division cannot panic, and `m >= 1` here.
        self.hit_rate.set(h / (h + m));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_warm_hit() {
        let cache = PageCache::new(64);
        assert!(!cache.probe(3), "first touch must miss");
        assert!(cache.probe(3), "second touch must hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let cache = PageCache::new(16);
        for page in 0..1000u32 {
            cache.probe(page);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(!cache.is_empty());
    }

    #[test]
    fn tiny_capacity_still_works() {
        let cache = PageCache::new(1);
        assert_eq!(cache.capacity(), SHARDS); // one slot per shard
        for page in 0..100u32 {
            cache.probe(page);
        }
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn metrics_move_on_probe() {
        let before_h = mqa_obs::counter("cache.page.hits").get();
        let before_m = mqa_obs::counter("cache.page.misses").get();
        let cache = PageCache::new(32);
        cache.probe(9);
        cache.probe(9);
        assert!(mqa_obs::counter("cache.page.hits").get() > before_h);
        assert!(mqa_obs::counter("cache.page.misses").get() > before_m);
    }

    #[test]
    fn full_shard_rejects_a_page_probed_no_more_than_the_resident() {
        let before = mqa_obs::counter("cache.page.rejected").get();
        let cache = PageCache::new(SHARDS); // one slot per shard
        for page in 0..SHARDS as u32 {
            assert!(!cache.probe(page));
        }
        // One probe each against residents probed once: every one loses.
        for page in SHARDS as u32..2 * SHARDS as u32 {
            assert!(!cache.probe(page));
        }
        assert!(mqa_obs::counter("cache.page.rejected").get() >= before + SHARDS as u64);
        for page in 0..SHARDS as u32 {
            assert!(cache.probe(page), "resident page {page} was displaced");
        }
        // Residents have been probed twice, newcomers once: a second
        // probe ties and loses, the third takes the slot, the fourth hits.
        for page in SHARDS as u32..2 * SHARDS as u32 {
            assert!(!cache.probe(page));
            assert!(!cache.probe(page));
            assert!(cache.probe(page), "page {page} never admitted");
        }
    }

    #[test]
    fn concurrent_probes_stay_bounded() {
        use std::sync::Arc;
        let cache = Arc::new(PageCache::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..2_000u32 {
                        if cache.probe((t * 37 + i) % 128) {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        let mut total_hits = 0;
        for h in handles {
            total_hits += h.join().unwrap_or(0);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(
            total_hits > 0,
            "a 128-page working set over 64 slots must hit"
        );
    }
}
