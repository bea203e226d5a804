//! The Clock (second-chance) replacement core and its mutex-guarded shard.
//!
//! Clock approximates LRU with O(1) bookkeeping per access: entries sit
//! on a circular buffer with a reference bit; a hit sets the bit, and
//! eviction sweeps a hand that clears set bits and evicts the first
//! clear one it finds. Every entry is therefore granted one "second
//! chance" sweep before leaving — hot entries keep getting re-armed and
//! effectively pin themselves.
//!
//! That pinning needs a key to come back before the hand does. A
//! presence probe ([`ProbeCore::touch`]) whose keys recur less often than
//! the cache turns over — a scan wider than the capacity, repeated —
//! would evict every entry just before its next use, so the probe also
//! keeps a frequency sketch (`Frequency`) and a newcomer takes the
//! swept victim's slot only when it has been asked for more often
//! (TinyLFU's admission rule in front of Clock's replacement). Only the
//! probe side ([`ProbeCore`]) carries the sketch: a value cache's caller
//! has already paid for what it inserts, so [`ClockCore::insert`] always
//! keeps it.

use crate::lock_ignore_poison;
use std::collections::HashMap;
use std::sync::Mutex;

/// One cache slot: a key, its value, and the second-chance bit.
struct Slot<V> {
    key: u64,
    value: V,
    referenced: bool,
}

/// Outcome of a presence probe ([`ProbeCore::touch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The key was already resident.
    pub hit: bool,
    /// The key was missing and is resident now. A miss that is not
    /// admitted lost the frequency comparison against the swept victim.
    pub admitted: bool,
    /// Admitting the key evicted another entry.
    pub evicted: bool,
}

/// How often each key has been probed lately: a count-min sketch of
/// saturating 4-bit counts, halved periodically so a key that stops being
/// asked for fades. Every size follows from the cache capacity. A row is
/// [`Frequency::CELLS_PER_SLOT`] cells per cache slot, and the counts are
/// halved every [`Frequency::PROBES_PER_SLOT`] probes per slot, so between
/// two halvings a cell collects four probes on average — room under the
/// cap of 15 for the keys that matter to stand out — and a key needs an
/// eighth of a slot's fair share of the traffic to reach half the cap.
struct Frequency {
    /// `ROWS` rows of `1 << (64 - shift)` counts each, row-major.
    cells: Vec<u8>,
    shift: u32,
    probes: usize,
    period: usize,
}

impl Frequency {
    const ROWS: usize = 4;
    const MAX: u8 = 15;
    const CELLS_PER_SLOT: usize = 16;
    const PROBES_PER_SLOT: usize = 64;
    /// One odd multiplier per row (multiplicative hashing on the top bits).
    const MULTIPLIERS: [u64; Self::ROWS] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0xd6e8_feb8_6659_fd93,
    ];

    fn new(capacity: usize) -> Self {
        let width = capacity
            .saturating_mul(Self::CELLS_PER_SLOT)
            .next_power_of_two();
        Self {
            cells: vec![0; Self::ROWS * width],
            shift: u64::BITS - width.trailing_zeros(),
            probes: 0,
            period: capacity.saturating_mul(Self::PROBES_PER_SLOT),
        }
    }

    /// The cell of `key` in each row.
    fn cells_of(&self, key: u64) -> [usize; Self::ROWS] {
        let mut row_start = 0;
        Self::MULTIPLIERS.map(|multiplier| {
            // INVARIANT: the shift leaves log2(row width) bits, so the
            // offset is below the row width and fits usize.
            let cell = row_start + (key.wrapping_mul(multiplier) >> self.shift) as usize;
            row_start += 1 << (u64::BITS - self.shift);
            cell
        })
    }

    /// The smallest of `key`'s counts — an upper bound on how often it
    /// was recorded since the counts last faded.
    fn estimate(&self, key: u64) -> u8 {
        self.cells_of(key)
            .iter()
            .map(|&i| self.cells.get(i).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Counts one probe of `key`, halving every count first when a period
    /// has passed.
    fn record(&mut self, key: u64) {
        self.probes += 1;
        if self.probes >= self.period {
            self.probes = 0;
            for c in &mut self.cells {
                *c >>= 1;
            }
        }
        for i in self.cells_of(key) {
            if let Some(c) = self.cells.get_mut(i) {
                *c = (*c + 1).min(Self::MAX);
            }
        }
    }
}

/// The single-threaded Clock core: a fixed-capacity key → value map with
/// second-chance eviction. Wrap it in [`CacheShard`] for shared use.
pub struct ClockCore<V> {
    capacity: usize,
    slots: Vec<Slot<V>>,
    map: HashMap<u64, usize>,
    hand: usize,
}

impl<V> ClockCore<V> {
    /// An empty core holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be >= 1");
        Self {
            capacity,
            slots: Vec::with_capacity(capacity.min(1024)),
            map: HashMap::new(),
            hand: 0,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `key` is resident (does not arm the reference bit).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Looks `key` up, arming its second-chance bit on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let idx = *self.map.get(&key)?;
        // INVARIANT: map values are always valid slot indices — entries are
        // inserted with `slots.len()` or a swept in-bounds victim index.
        self.slots[idx].referenced = true;
        Some(&self.slots[idx].value)
    }

    /// Inserts (or refreshes) `key`, evicting a victim when full.
    /// Returns the evicted key, if any. The caller has already paid for
    /// `value`, so it is always kept: no frequency comparison here.
    pub fn insert(&mut self, key: u64, value: V) -> Option<u64> {
        if let Some(&idx) = self.map.get(&key) {
            // INVARIANT: map values are always valid slot indices.
            self.slots[idx].value = value;
            self.slots[idx].referenced = true;
            return None;
        }
        if self.slots.len() < self.capacity {
            self.push(key, value);
            return None;
        }
        let victim = self.sweep();
        Some(self.replace(victim, key, value))
    }

    /// Appends an absent `key` to a core that still has room.
    fn push(&mut self, key: u64, value: V) {
        // ALLOC: cache admission on a miss; the steady-state hit path never inserts.
        self.map.insert(key, self.slots.len());
        // New entries enter unarmed: only a subsequent hit earns the
        // second chance, so a one-shot scan can never flush the
        // re-referenced working set (scan resistance).
        self.slots.push(Slot {
            key,
            value,
            referenced: false,
        });
    }

    /// Sweeps the hand over a full core: clears armed bits until an
    /// unarmed victim turns up and returns its slot, leaving the hand
    /// just past it. Terminates within two revolutions — the first pass
    /// can at worst clear every bit.
    fn sweep(&mut self) -> usize {
        loop {
            let idx = self.hand;
            // INVARIANT: callers sweep only when slots.len() == capacity,
            // and capacity >= 1 is asserted in `new`; `idx` wraps mod len.
            self.hand = (self.hand + 1) % self.slots.len();
            let armed = &mut self.slots[idx].referenced;
            if !*armed {
                return idx;
            }
            *armed = false;
        }
    }

    /// Puts an absent `key` in the swept slot `idx`; returns the key it
    /// displaced.
    fn replace(&mut self, idx: usize, key: u64, value: V) -> u64 {
        // INVARIANT: `idx` comes from `sweep`, which wraps it mod len.
        let old = self.slots[idx].key;
        self.slots[idx] = Slot {
            key,
            value,
            referenced: false,
        };
        self.map.remove(&old);
        // ALLOC: cache admission on a miss; the steady-state hit path never inserts.
        self.map.insert(key, idx);
        old
    }
}

/// A key-only [`ClockCore`] and the frequency sketch its admission rule
/// reads: the page cache's core. The sketch (64 bytes a slot, rounded up
/// to a power of two) is allocated here, so no probe ever allocates for it.
pub struct ProbeCore {
    clock: ClockCore<()>,
    frequency: Frequency,
}

impl ProbeCore {
    /// An empty core holding at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self {
            clock: ClockCore::new(capacity),
            frequency: Frequency::new(capacity),
        }
    }

    /// Presence probe: arms the bit on a hit; on a miss the key is kept
    /// while there is room, and after that only if it has been probed
    /// more often than the victim the sweep offers. A key that loses
    /// leaves the victim in place (unarmed, the hand past it), so the
    /// next miss is weighed against the next entry round the clock.
    pub fn touch(&mut self, key: u64) -> Touch {
        self.frequency.record(key);
        let hit = self.clock.get(key).is_some();
        let mut touch = Touch {
            hit,
            admitted: false,
            evicted: false,
        };
        if hit {
            return touch;
        }
        if self.clock.slots.len() < self.clock.capacity {
            self.clock.push(key, ());
            touch.admitted = true;
            return touch;
        }
        let victim = self.clock.sweep();
        // INVARIANT: `victim` comes from `sweep`, which wraps it mod len.
        let resident = self.clock.slots[victim].key;
        if self.frequency.estimate(key) > self.frequency.estimate(resident) {
            self.clock.replace(victim, key, ());
            touch.admitted = true;
            touch.evicted = true;
        }
        touch
    }
}

/// A cache core behind one mutex — the unit of sharding: a [`ClockCore`]
/// for the result cache, a [`ProbeCore`] for the page cache. All lock
/// acquisitions go through `lock_ignore_poison` and every method drops
/// the guard before returning, so no other lock is ever taken while a
/// shard's is held.
pub struct CacheShard<C> {
    slots: Mutex<C>,
}

impl<C> CacheShard<C> {
    /// A shard guarding `core`.
    pub fn new(core: C) -> Self {
        Self {
            slots: Mutex::new(core),
        }
    }
}

impl<V> CacheShard<ClockCore<V>> {
    /// Resident entries.
    pub fn len(&self) -> usize {
        let core = lock_ignore_poison(&self.slots);
        core.len()
    }

    /// Whether the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        let core = lock_ignore_poison(&self.slots);
        core.is_empty()
    }

    /// Clones the value under `key`, arming its bit on a hit.
    pub fn get(&self, key: u64) -> Option<V>
    where
        V: Clone,
    {
        let mut core = lock_ignore_poison(&self.slots);
        core.get(key).cloned()
    }

    /// Inserts (or refreshes) `key`; returns true when a victim was
    /// evicted.
    pub fn insert(&self, key: u64, value: V) -> bool {
        let mut core = lock_ignore_poison(&self.slots);
        core.insert(key, value).is_some()
    }
}

impl CacheShard<ProbeCore> {
    /// Resident keys.
    pub fn len(&self) -> usize {
        let core = lock_ignore_poison(&self.slots);
        core.clock.len()
    }

    /// Whether the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        let core = lock_ignore_poison(&self.slots);
        core.clock.is_empty()
    }

    /// Presence probe: hit arms the second-chance bit, miss admits the
    /// key if there is room or it is asked for more often than the
    /// victim it would evict (see [`ProbeCore::touch`]).
    pub fn touch(&self, key: u64) -> Touch {
        let mut core = lock_ignore_poison(&self.slots);
        core.touch(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_without_eviction() {
        let mut c = ClockCore::new(4);
        for k in 0..4u64 {
            assert_eq!(c.insert(k, k * 10), None);
        }
        assert_eq!(c.len(), 4);
        for k in 0..4u64 {
            assert_eq!(c.get(k), Some(&(k * 10)));
        }
    }

    #[test]
    fn evicts_exactly_one_when_full() {
        let mut c = ClockCore::new(2);
        c.insert(1, ());
        c.insert(2, ());
        let evicted = c.insert(3, ());
        assert!(evicted.is_some());
        assert_eq!(c.len(), 2);
        assert!(c.contains(3));
    }

    #[test]
    fn second_chance_protects_hot_entry() {
        let mut c = ClockCore::new(2);
        c.insert(1, ());
        c.insert(2, ());
        // Re-arm 1 repeatedly while streaming cold keys through: the hot
        // key must survive every sweep.
        for cold in 10..20u64 {
            assert!(c.get(1).is_some(), "hot key evicted at {cold}");
            c.insert(cold, ());
        }
        assert!(c.contains(1));
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = ClockCore::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn touch_reports_hits_misses_evictions() {
        let miss = |admitted, evicted| Touch {
            hit: false,
            admitted,
            evicted,
        };
        let mut c = ProbeCore::new(2);
        assert_eq!(c.touch(7), miss(true, false));
        assert_eq!(
            c.touch(7),
            Touch {
                hit: true,
                admitted: false,
                evicted: false
            }
        );
        assert_eq!(c.touch(8), miss(true, false));
        // The sweep clears 7's bit and offers 8; 9 has been probed once,
        // like 8, and a tie keeps the resident.
        assert_eq!(c.touch(9), miss(false, false));
        assert!(c.clock.contains(7) && c.clock.contains(8));
        // Probed a second time, 9 outweighs whichever resident the sweep
        // offers next only if that one was probed once: 7 (twice) stays.
        assert_eq!(c.touch(9), miss(false, false));
        assert_eq!(c.touch(9), miss(true, true));
        assert_eq!(c.clock.len(), 2);
        assert!(c.clock.contains(9));
    }

    /// One pass of the stream the page cache sees from queries: the
    /// `shared` keys every pass touches, then thirty keys never asked for
    /// again. Returns how many of the shared probes hit.
    fn pass(c: &mut ProbeCore, shared: std::ops::Range<u64>, fresh: &mut u64) -> usize {
        let hits = shared.filter(|&key| c.touch(key).hit).count();
        for _ in 0..30 {
            *fresh += 1;
            c.touch(*fresh);
        }
        hits
    }

    #[test]
    fn shared_keys_stay_resident_through_scans_wider_than_the_cache() {
        let mut c = ProbeCore::new(8);
        let mut fresh = 1_000_000u64;
        for _ in 0..2 {
            pass(&mut c, 0..6, &mut fresh);
        }
        let passes = 40;
        let hits: usize = (0..passes).map(|_| pass(&mut c, 0..6, &mut fresh)).sum();
        assert!(
            hits * 10 >= passes * 6 * 9,
            "{hits} of {} shared probes hit",
            passes * 6
        );
    }

    #[test]
    fn a_hot_set_that_moves_is_followed() {
        let mut c = ProbeCore::new(8);
        let mut fresh = 1_000_000u64;
        for _ in 0..50 {
            pass(&mut c, 0..6, &mut fresh);
        }
        // The old set's counts sit at the cap of 15 and are halved every
        // 64 x 8 = 512 probes (about 14 passes of 36 probes); a new key
        // gains one per pass. Whatever the phase of the switch, by the
        // second halving the old counts are at most 7 and every new key
        // is past that: two periods bound the hand-over (measured from
        // this phase: 9 passes).
        let settle = 2 * 512 / 36 + 1;
        for _ in 0..settle {
            pass(&mut c, 100..106, &mut fresh);
        }
        let passes = 20;
        let hits: usize = (0..passes)
            .map(|_| pass(&mut c, 100..106, &mut fresh))
            .sum();
        assert!(
            hits * 10 >= passes * 6 * 9,
            "{hits} of {} probes of the new hot set hit",
            passes * 6
        );
    }

    #[test]
    fn shard_len_never_exceeds_capacity_under_threads() {
        use std::sync::Arc;
        let shard = Arc::new(CacheShard::new(ProbeCore::new(8)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        shard.touch(t * 1000 + (i % 50));
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        assert!(shard.len() <= 8);
        assert!(!shard.is_empty());
    }
}
