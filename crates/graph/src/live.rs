//! Online-mutation primitives: tombstoned deletes and epoch-published
//! snapshots.
//!
//! The index family is snapshot-published-and-mutable (the FreshDiskANN shape):
//!
//! * **Readers** acquire an immutable snapshot through [`SnapshotCell::load`]
//!   — an `Arc` clone out of a briefly-locked slot, stamped with the
//!   publication epoch. A search holds its guard for the whole traversal;
//!   the writer can publish underneath without ever blocking it.
//! * **A single writer** (serialized by the owner's writer lock) drafts the
//!   next generation from the current one — sharing every part it does not
//!   change — and publishes it atomically with [`SnapshotCell::publish`],
//!   bumping the epoch.
//! * **Deletes are tombstones** ([`Tombstones`]): a dead bitmap filtered at
//!   result-collection time — never mid-traversal, so dead vertices keep
//!   routing until compaction rewires the graph around them — by the one
//!   routine a mutated index is read through, [`Tombstones::search_live`],
//!   whose beam widens by the share of dead vertices a walk can still
//!   reach, not by how many ids were ever deleted. A second
//!   bitmap records which dead ids compaction has already unlinked
//!   (`compacted ⊆ dead`); edges into *compacted* ids are a structural
//!   violation, while edges into merely-dead ids are legal routing.
//!
//! The epoch stamp extends the epoch-stamped [`crate::scratch::VisitedSet`]
//! idiom from per-search state to the index itself: a bumped counter makes
//! an entire generation of state stale at once, with no per-element sweep.

use crate::adjacency::Adjacency;
use crate::search::{SearchOutput, SearchStats};
use crate::util::parallel_map;
use mqa_vector::{Candidate, VecId, VectorStore};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Recovers the guard from a poisoned lock. A poisoned snapshot slot only
/// means another thread panicked mid-publish; the slot always holds a
/// coherent `Arc`, so readers and writers proceed with the inner value.
pub(crate) fn lock_ignore_poison<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Deletion state for a fixed-id vertex population.
///
/// Ids are never reused: a removed object's slot stays allocated forever
/// (its vector remains in the store as routing ballast until compaction).
/// Two bitmaps track the lifecycle:
///
/// * `dead` — the object must never surface in results (filtered at
///   result-collection time);
/// * `compacted` — compaction has rewired the graph around this id; edges
///   into it are invalid from then on. Always a subset of `dead`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tombstones {
    dead: Vec<u64>,
    compacted: Vec<u64>,
    dead_count: usize,
    compacted_count: usize,
    n: usize,
}

impl Tombstones {
    /// All-live tombstone state over `n` ids.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            dead: vec![0; words],
            compacted: vec![0; words],
            dead_count: 0,
            compacted_count: 0,
            n,
        }
    }

    /// Extends the population to `n` ids (new ids are live). Shrinking is
    /// a no-op — ids are never reclaimed.
    pub fn grow(&mut self, n: usize) {
        if n <= self.n {
            return;
        }
        let words = n.div_ceil(64);
        self.dead.resize(words, 0);
        self.compacted.resize(words, 0);
        self.n = n;
    }

    /// Population size (live + dead).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Marks `id` dead. Returns whether the state changed (false for
    /// already-dead or out-of-range ids — deletion is idempotent).
    pub fn kill(&mut self, id: VecId) -> bool {
        let idx = id as usize;
        if idx >= self.n {
            return false;
        }
        let bit = 1u64 << (idx % 64);
        match self.dead.get_mut(idx / 64) {
            Some(word) if *word & bit == 0 => {
                *word |= bit;
                self.dead_count += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `id` is dead (out-of-range ids read as live).
    #[inline]
    pub fn is_dead(&self, id: VecId) -> bool {
        let idx = id as usize;
        let bit = 1u64 << (idx % 64);
        idx < self.n && self.dead.get(idx / 64).copied().unwrap_or(0) & bit != 0
    }

    /// Whether compaction has already rewired the graph around `id`.
    #[inline]
    pub fn is_compacted(&self, id: VecId) -> bool {
        let idx = id as usize;
        let bit = 1u64 << (idx % 64);
        idx < self.n && self.compacted.get(idx / 64).copied().unwrap_or(0) & bit != 0
    }

    /// Number of dead ids.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Number of dead ids compaction has already rewired around.
    pub fn compacted_count(&self) -> usize {
        self.compacted_count
    }

    /// Dead ids compaction has not yet processed.
    pub fn pending_count(&self) -> usize {
        self.dead_count.saturating_sub(self.compacted_count)
    }

    /// Number of live (searchable) ids.
    pub fn live_count(&self) -> usize {
        self.n.saturating_sub(self.dead_count)
    }

    /// Fraction of the population that is dead.
    pub fn dead_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.dead_count as f64 / self.n as f64
        }
    }

    /// Share of the *reachable* population — live plus pending, the ids a
    /// walk can still meet — that is dead but not yet compacted: the
    /// compaction trigger quantity (resets to zero after a pass). Compacted
    /// ids are left out of the denominator: they never shrink, so counting
    /// them would make the trigger lazier with every generation.
    pub fn pending_fraction(&self) -> f64 {
        let reachable = self.n.saturating_sub(self.compacted_count);
        if reachable == 0 {
            0.0
        } else {
            self.pending_count() as f64 / reachable as f64
        }
    }

    /// The beam a `(k, ef)` request walks with so that the configured
    /// width is still there once the dead entries are dropped:
    /// `ceil(max(ef, k) · (live + pending) / live)` — the request's own
    /// width while nothing is pending. Only dead vertices a walk can
    /// *reach* crowd a beam: compacted ids have no in-edges (a retired
    /// entry is met as a seed only), so they earn no allowance however
    /// many there have ever been.
    fn live_beam(&self, k: usize, ef: usize) -> usize {
        let (live, width) = (self.live_count(), ef.max(k));
        if live == 0 {
            return width;
        }
        width
            .saturating_mul(live + self.pending_count())
            .div_ceil(live)
    }

    /// Searches a tombstoned index for the best `k` *live* results — the
    /// one routine every mutated index is read through. `walk(k, ef)` runs
    /// the index's own search (dead vertices keep routing; nothing is
    /// filtered mid-traversal); it is asked for the whole
    /// [beam](Self::live_beam) and the dead entries are dropped from what
    /// it returns. Should fewer than `min(k, live)` live results survive —
    /// a dense pocket of dead around the query — the walk runs again with
    /// the beam doubled, up to the population, so `k` live results come
    /// back whenever the walk can reach `k` live objects. The stats are
    /// those of every pass; a retry counts in `graph.search.widened`, and
    /// the final beam is noted on the active query trace.
    pub fn search_live(
        &self,
        k: usize,
        ef: usize,
        mut walk: impl FnMut(usize, usize) -> SearchOutput,
    ) -> SearchOutput {
        let want = k.min(self.live_count());
        let mut beam = self.live_beam(k, ef);
        let mut spent = SearchStats::default();
        loop {
            // At most `dead_count` of the results can be dropped, so with
            // nothing dead the request is the caller's own `(k, ef)`.
            let mut out = walk(beam.min(k + self.dead_count), beam);
            out.results.retain(|c| !self.is_dead(c.id));
            out.results.truncate(k);
            out.stats.merge(&spent);
            if out.results.len() >= want || beam >= self.n {
                mqa_obs::trace::note_beam_width(beam as u64);
                return out;
            }
            spent = out.stats;
            beam = beam.saturating_mul(2).min(self.n);
            LiveCounters::get().widened.inc();
        }
    }

    /// Rewires `layer` around the dead ids — the one compaction routine of
    /// every graph family, run once per layer. A dead vertex `keep` does
    /// not claim is unlinked; any other vertex with a dead neighbour gets
    /// `select(v, pool)`, where the pool is its live neighbours (at their
    /// stored distances) plus each dead neighbour's live neighbours
    /// (evaluated), deduplicated. `select` returns the picks with their
    /// distances and how many of them its rule kept, and they are
    /// installed as a prune result ([`Adjacency::set_pruned`]). Every new
    /// list is a function of the pre-compaction layer alone, so the
    /// vertices are rewired in parallel and installed after.
    pub(crate) fn rewire(
        &self,
        layer: &mut Adjacency,
        store: &VectorStore,
        keep: impl Fn(VecId) -> bool + Sync,
        select: impl Fn(VecId, &[Candidate]) -> (Vec<Candidate>, usize) + Sync,
    ) {
        let old = &*layer;
        let rewired = parallel_map(old.len(), |v| {
            if self.is_dead(v) && !keep(v) {
                return Some((Vec::new(), 0));
            }
            if !old.neighbors(v).iter().any(|&u| self.is_dead(u)) {
                return None;
            }
            let mut seen = std::collections::HashSet::new();
            let mut pool = Vec::new();
            for c in old.edges_of(v) {
                if !self.is_dead(c.id) {
                    if c.id != v && seen.insert(c.id) {
                        pool.push(c);
                    }
                    continue;
                }
                for &w in old.neighbors(c.id) {
                    if w != v && !self.is_dead(w) && seen.insert(w) {
                        pool.push(Candidate::new(w, crate::prune::distance(store, v, w)));
                    }
                }
            }
            let list = select(v, &pool);
            crate::prune::record_construction(0);
            Some(list)
        });
        for (v, picks) in rewired.into_iter().enumerate() {
            if let Some((list, kept)) = picks {
                layer.set_pruned(v as VecId, &list, kept);
            }
        }
    }

    /// Records that compaction has rewired the graph around every
    /// currently-dead id.
    pub fn mark_all_compacted(&mut self) {
        self.compacted.clone_from(&self.dead);
        self.compacted_count = self.dead_count;
    }

    /// Iterates over the dead ids in ascending order.
    pub fn iter_dead(&self) -> impl Iterator<Item = VecId> + '_ {
        (0..self.n as VecId).filter(|&id| self.is_dead(id))
    }

    /// Recounts both bitmaps and checks `compacted ⊆ dead`; returns the
    /// recomputed `(dead, compacted)` counts if consistent. Used by the
    /// structural validator against deserialized state.
    pub fn recount(&self) -> Option<(usize, usize)> {
        let mut dead = 0usize;
        let mut compacted = 0usize;
        for (w, (&d, &c)) in self.dead.iter().zip(self.compacted.iter()).enumerate() {
            if c & !d != 0 {
                return None; // compacted-but-not-dead bit
            }
            // Bits past `n` in the last word must be zero.
            let valid = valid_mask(self.n, w);
            if d & !valid != 0 || c & !valid != 0 {
                return None;
            }
            dead += d.count_ones() as usize;
            compacted += c.count_ones() as usize;
        }
        Some((dead, compacted))
    }
}

/// The counter [`Tombstones::search_live`] writes, resolved once per
/// process (the `search.rs` idiom): a widened search is one relaxed add,
/// with no registry lookup on the search path.
struct LiveCounters {
    widened: mqa_obs::Counter,
}

impl LiveCounters {
    fn get() -> &'static Self {
        static COUNTERS: OnceLock<LiveCounters> = OnceLock::new();
        COUNTERS.get_or_init(|| LiveCounters {
            widened: mqa_obs::counter("graph.search.widened"),
        })
    }
}

/// Mask of the bits of word `w` that correspond to ids `< n`.
fn valid_mask(n: usize, w: usize) -> u64 {
    let lo = w * 64;
    if n >= lo + 64 {
        u64::MAX
    } else if n <= lo {
        0
    } else {
        (1u64 << (n - lo)) - 1
    }
}

/// An atomically publishable, epoch-stamped snapshot slot.
///
/// Readers never hold the slot lock across a search: [`SnapshotCell::load`]
/// clones the `Arc` under a briefly-held mutex and releases it before
/// returning, so a publish contends with a reader only for the duration of
/// an `Arc` clone. The epoch is read under the same critical section,
/// guaranteeing the `(snapshot, epoch)` pair is consistent.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Wraps `value` as epoch-0 published state.
    pub fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(value)),
            epoch: AtomicU64::new(0),
        }
    }

    /// Acquires the current snapshot and its epoch. The returned guard
    /// keeps the snapshot alive; later publishes do not affect it.
    pub fn load(&self) -> SnapshotGuard<T> {
        let slot = lock_ignore_poison(&self.slot);
        let snapshot = Arc::clone(&slot);
        let epoch = self.epoch.load(Ordering::Acquire);
        drop(slot);
        SnapshotGuard { snapshot, epoch }
    }

    /// Atomically replaces the published snapshot and bumps the epoch.
    /// Returns the new epoch. In-flight readers keep their old snapshot.
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = lock_ignore_poison(&self.slot);
        *slot = Arc::new(value);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(slot);
        epoch
    }

    /// The current publication epoch (0 = initial build).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// A loaded snapshot pinned by a reader. Dereferences to the snapshot;
/// the underlying `Arc` keeps the generation alive even after newer
/// epochs are published.
#[derive(Debug)]
pub struct SnapshotGuard<T> {
    snapshot: Arc<T>,
    epoch: u64,
}

impl<T> SnapshotGuard<T> {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<T> {
        &self.snapshot
    }
}

impl<T> std::ops::Deref for SnapshotGuard<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.snapshot
    }
}

/// Why a mutation batch was rejected (the whole batch is rejected —
/// mutations are atomic at batch granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationError {
    /// An empty insert/delete batch (nothing to apply is an error so
    /// callers notice dropped plumbing).
    EmptyBatch,
    /// A delete named an id outside the population.
    IdOutOfRange {
        /// The offending id.
        id: VecId,
        /// The population size.
        n: usize,
    },
    /// An inserted object's modality count differs from the index schema.
    ArityMismatch {
        /// Modalities in the offered object.
        got: usize,
        /// Modalities the schema requires.
        want: usize,
    },
    /// An inserted object is missing a modality vector (online inserts
    /// must be complete; partial objects only arise as queries).
    IncompleteObject {
        /// The first absent modality.
        modality: usize,
    },
    /// An inserted object's modality vector has the wrong dimension (even
    /// when the total length matches, its blocks would be misread).
    DimensionMismatch {
        /// The modality whose vector is off.
        modality: usize,
        /// Its dimension in the offered object.
        got: usize,
        /// The dimension the schema requires.
        want: usize,
    },
    /// An inserted object holds a NaN or infinite component.
    NonFinite {
        /// The first modality holding one.
        modality: usize,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyBatch => write!(f, "empty mutation batch"),
            Self::IdOutOfRange { id, n } => {
                write!(f, "id {id} out of range (population {n})")
            }
            Self::ArityMismatch { got, want } => {
                write!(f, "object has {got} modalities, schema requires {want}")
            }
            Self::IncompleteObject { modality } => {
                write!(f, "inserted object is missing modality {modality}")
            }
            Self::DimensionMismatch {
                modality,
                got,
                want,
            } => write!(
                f,
                "modality {modality} has dimension {got}, schema requires {want}"
            ),
            Self::NonFinite { modality } => {
                write!(f, "modality {modality} holds a non-finite component")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// What a successful mutation batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationReport {
    /// The epoch the new snapshot was published at.
    pub epoch: u64,
    /// Objects inserted or newly deleted by this batch.
    pub applied: usize,
    /// Whether this batch triggered a compaction pass.
    pub compacted: bool,
    /// Live objects after the batch.
    pub live: usize,
    /// Dead objects after the batch.
    pub dead: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn tombstones_track_kill_and_counts() {
        let mut t = Tombstones::new(130);
        assert_eq!(t.len(), 130);
        assert_eq!(t.live_count(), 130);
        assert!(t.kill(0));
        assert!(t.kill(64));
        assert!(t.kill(129));
        assert!(!t.kill(129), "second kill is a no-op");
        assert!(!t.kill(130), "out of range is a no-op");
        assert_eq!(t.dead_count(), 3);
        assert_eq!(t.live_count(), 127);
        assert!(t.is_dead(0) && t.is_dead(64) && t.is_dead(129));
        assert!(!t.is_dead(1) && !t.is_dead(130));
        assert_eq!(t.iter_dead().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn grow_keeps_dead_and_adds_live() {
        let mut t = Tombstones::new(10);
        t.kill(3);
        t.grow(200);
        assert_eq!(t.len(), 200);
        assert!(t.is_dead(3));
        assert!(!t.is_dead(150));
        assert_eq!(t.dead_count(), 1);
        t.grow(5); // shrink is a no-op
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn compaction_marks_current_dead_only() {
        let mut t = Tombstones::new(100);
        t.kill(1);
        t.kill(2);
        assert_eq!(t.pending_count(), 2);
        t.mark_all_compacted();
        assert_eq!(t.compacted_count(), 2);
        assert_eq!(t.pending_count(), 0);
        assert!(t.is_compacted(1));
        t.kill(3);
        assert!(!t.is_compacted(3), "new deaths start uncompacted");
        assert_eq!(t.pending_count(), 1);
        // One pending among the 98 ids a walk can reach; three dead of 100.
        assert!((t.pending_fraction() - 1.0 / 98.0).abs() < 1e-12);
        assert!((t.dead_fraction() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn recount_validates_bitmaps() {
        let mut t = Tombstones::new(70);
        t.kill(5);
        t.kill(65);
        t.mark_all_compacted();
        assert_eq!(t.recount(), Some((2, 2)));
        // Corrupt: compacted bit without the dead bit.
        let mut bad = t.clone();
        bad.dead[0] = 0;
        assert_eq!(bad.recount(), None);
        // Corrupt: a bit past n.
        let mut bad = t;
        bad.dead[1] |= 1u64 << 20; // id 84 >= 70
        assert_eq!(bad.recount(), None);
    }

    /// A stand-in walk for [`Tombstones::search_live`]: the `k` best of
    /// `ranked`, as an exact searcher with beam `ef` would return them.
    fn ranked_walk(ranked: &[Candidate], k: usize, ef: usize) -> SearchOutput {
        assert!(k <= ef, "asked for {k} results of a {ef}-wide beam");
        SearchOutput {
            results: ranked.iter().take(k).copied().collect(),
            stats: SearchStats {
                evals: ef as u64,
                ..SearchStats::default()
            },
        }
    }

    #[test]
    fn search_live_is_the_request_itself_with_nothing_dead() {
        let tomb = Tombstones::new(60);
        let ranked: Vec<Candidate> = (0..60).map(|i| Candidate::new(i, i as f32)).collect();
        for (k, ef) in [(1usize, 16usize), (5, 3), (60, 60), (75, 16)] {
            let mut asked = Vec::new();
            let out = tomb.search_live(k, ef, |k, ef| {
                asked.push((k, ef));
                ranked_walk(&ranked, k, ef)
            });
            assert_eq!(asked, [(k, ef.max(k))], "one pass, the caller's request");
            assert_eq!(out.results, ranked[..k.min(60)]);
        }
    }

    /// The allowance is the share of dead vertices a walk can still reach:
    /// pending ids widen the beam in proportion, compacted ids not at all —
    /// so a delete history of any length leaves the configured width alone.
    /// (Restoring the lifetime-count allowance reads 197 and 64 + 5 000.)
    #[test]
    fn the_beam_widens_by_the_pending_share_and_not_by_compacted_ids() {
        let mut tomb = Tombstones::new(1192);
        assert_eq!(tomb.live_beam(5, 64), 64);
        assert_eq!(tomb.live_beam(80, 64), 80, "ef is clamped to k first");
        for id in 0..192 {
            tomb.kill(id);
        }
        assert_eq!(tomb.live_beam(5, 64), 77, "ceil(64 * 1192 / 1000)");
        tomb.mark_all_compacted();
        assert_eq!(tomb.live_beam(5, 64), 64, "compacted ids earn nothing");
        // Fifty generations of churn at constant live size.
        for generation in 0..50u32 {
            let n = tomb.len();
            tomb.grow(n + 100);
            for id in 0..100 {
                tomb.kill(192 + generation * 100 + id);
            }
            assert_eq!(tomb.live_count(), 1000);
            assert_eq!(tomb.live_beam(5, 64), 71, "ceil(64 * 1100 / 1000)");
            tomb.mark_all_compacted();
            assert_eq!(tomb.live_beam(5, 64), 64);
        }
        // Nothing live: no share to take, the request's own width.
        let mut all_dead = Tombstones::new(3);
        (0..3).for_each(|id| assert!(all_dead.kill(id)));
        assert_eq!(all_dead.live_beam(2, 8), 8);
    }

    /// A dense pocket of dead around the query: the first beam holds too
    /// few live results, so the walk runs again, doubled, until `k` live
    /// results survive — every pass counted, every pass's work reported.
    #[test]
    fn search_live_widens_until_k_live_results_survive() {
        let n = 1000u32;
        let ranked: Vec<Candidate> = (0..n).map(|i| Candidate::new(i, i as f32)).collect();
        let mut tomb = Tombstones::new(n as usize);
        for id in 0..100 {
            tomb.kill(id); // the hundred nearest
        }
        assert_eq!(tomb.live_beam(5, 16), 18, "ceil(16 * 1000 / 900)");
        let widened = || mqa_obs::counter("graph.search.widened").get();
        let before = widened();
        let mut asked = Vec::new();
        let out = tomb.search_live(5, 16, |k, ef| {
            asked.push((k, ef));
            ranked_walk(&ranked, k, ef)
        });
        assert_eq!(asked, [(18, 18), (36, 36), (72, 72), (105, 144)]);
        assert_eq!(out.ids(), [100, 101, 102, 103, 104]);
        assert_eq!(out.stats.evals, 18 + 36 + 72 + 144, "all four passes");
        assert!(widened() >= before + 3, "three retries counted");
        // More asked for than is alive: everything live comes back.
        let mut few = Tombstones::new(8);
        (0..6).for_each(|id| assert!(few.kill(id)));
        let out = few.search_live(5, 2, |k, ef| ranked_walk(&ranked[..8], k, ef));
        assert_eq!(out.ids(), [6, 7]);
    }

    /// The live filters against the brute-force oracle: with `d` dead, the
    /// filtered flat scan and `search_live` over the unfiltered one both
    /// return exactly the top-`k` of the live set, including `k` beyond the
    /// live count.
    #[test]
    fn live_scan_and_search_live_equal_exact_live_top_k() {
        use crate::flat::FlatSearcher;
        use crate::traits::FlatDistance;
        use mqa_rng::StdRng;
        use mqa_vector::{ops, VectorStore};

        let mut rng = StdRng::seed_from_u64(0x70B5);
        let n = 60usize;
        let mut store = VectorStore::new(4);
        for _ in 0..n {
            let v: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            store.push(&v);
        }
        let flat = FlatSearcher::new(n);
        for dead in [0usize, 1, 7, 30, 59, 60] {
            let mut tomb = Tombstones::new(n);
            while tomb.dead_count() < dead {
                tomb.kill(rng.gen_range(0..n as VecId));
            }
            for k in [1usize, 5, 30, 60, 75] {
                let q: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut d = FlatDistance::new(&store, &q).unwrap();
                let mut want: Vec<Candidate> = (0..n as VecId)
                    .filter(|&id| !tomb.is_dead(id))
                    .map(|id| Candidate::new(id, ops::l2_sq(&q, store.get(id))))
                    .collect();
                want.sort_unstable();
                want.truncate(k);
                let scanned = flat.scan(&mut d, k, |id| !tomb.is_dead(id));
                assert_eq!(scanned.results, want, "scan: dead {dead}, k {k}");
                assert_eq!(scanned.stats.evals as usize, n - dead, "dead ids skipped");
                let walked = tomb.search_live(k, 16, |k, _| flat.scan(&mut d, k, |_| true));
                assert_eq!(walked.results, want, "search_live: dead {dead}, k {k}");
                assert_eq!(want.len(), k.min(n - dead));
            }
        }
    }

    #[test]
    fn snapshot_cell_publishes_epochs() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let g0 = cell.load();
        assert_eq!(g0.epoch(), 0);
        assert_eq!(*g0, vec![1, 2, 3]);
        let e1 = cell.publish(vec![4]);
        assert_eq!(e1, 1);
        assert_eq!(cell.epoch(), 1);
        // The old guard still sees its generation.
        assert_eq!(*g0, vec![1, 2, 3]);
        let g1 = cell.load();
        assert_eq!(g1.epoch(), 1);
        assert_eq!(*g1, vec![4]);
    }

    #[test]
    fn concurrent_loads_see_monotone_epochs() {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let stop = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut last = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let g = cell.load();
                    assert!(g.epoch() >= last, "epoch went backwards");
                    // The value is the epoch it was published at: the
                    // (snapshot, epoch) pair must be mutually consistent
                    // modulo a concurrent publish between slot clone and
                    // epoch read (epoch can only be newer, never older).
                    assert!(*g.snapshot().as_ref() <= g.epoch());
                    last = g.epoch();
                }
            }));
        }
        for i in 1..=100u64 {
            let e = cell.publish(i);
            assert_eq!(e, i);
        }
        stop.store(1, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.epoch(), 100);
    }

    #[test]
    fn mutation_errors_render() {
        for e in [
            MutationError::EmptyBatch,
            MutationError::IdOutOfRange { id: 9, n: 3 },
            MutationError::ArityMismatch { got: 1, want: 2 },
            MutationError::IncompleteObject { modality: 1 },
            MutationError::DimensionMismatch {
                modality: 0,
                got: 3,
                want: 4,
            },
            MutationError::NonFinite { modality: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn tombstones_serde_round_trip() {
        let mut t = Tombstones::new(90);
        t.kill(10);
        t.mark_all_compacted();
        t.kill(20);
        let j = serde_json::to_string(&t).unwrap();
        let back: Tombstones = serde_json::from_str(&j).unwrap();
        assert_eq!(t, back);
    }
}
