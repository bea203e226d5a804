//! Reusable per-query search state: the allocation-free hot path.
//!
//! Every beam search needs a visited set over the whole vertex population,
//! the sorted candidate pool with its tie list, a buffer the walk gathers
//! each vertex's unvisited neighbours into, and (for construction) the list
//! of every candidate evaluated. Allocating those per query puts an O(n)
//! `vec![false; n]` on the hot path; under concurrent serving that
//! allocation traffic dominates. This module centralizes the state:
//!
//! * [`VisitedSet`] — an epoch-stamped `u32` array. "Clearing" is bumping
//!   the epoch (O(1)); the backing array is only ever zeroed on epoch
//!   wraparound, once every `u32::MAX - 1` queries.
//! * [`SearchScratch`] — one visited set for vertices, one for pages
//!   (Starling), the candidate pool (`crate::pool`), the gather buffer,
//!   and construction's candidate list and re-prune buffers.
//! * [`with_pooled`] — a thread-local scratch pool so the pooled entry
//!   points (`VectorIndex::search`, `UnifiedIndex::search`) stay
//!   allocation-free without threading a scratch through every caller.
//!   Every thread borrows its scratch here, engine workers included; a
//!   search that unwinds drops the scratch it borrowed, so the next one on
//!   that thread starts on a fresh scratch, never on a half-finished walk.
//!
//! Determinism guarantee: a search driven through a reused scratch visits
//! vertices in exactly the order a fresh allocation would — the epoch trick
//! changes how "unvisited" is represented, never what it means. The
//! property tests in `tests/scratch_reuse.rs` pin this bit-for-bit across
//! every index algorithm, including across an epoch wraparound.

use crate::pool::Pool;
use crate::prune::Reprune;
use mqa_vector::{Candidate, VecId};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Epoch-stamped visited set: membership is `stamp[v] == epoch`, so
/// resetting between queries is one epoch increment instead of an O(n)
/// clear or a fresh allocation.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// An empty set over a population of `n` vertices. Call
    /// [`VisitedSet::next_epoch`] before first use.
    pub fn new(n: usize) -> Self {
        Self {
            // ALLOC: one stamp array per scratch, sized to the population;
            // reused across every query the scratch serves.
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Sets the population to exactly `n` vertices: ids from `n` up are
    /// outside the set. Shrinking keeps the buffer; regrown slots start
    /// unvisited.
    pub fn resize(&mut self, n: usize) {
        self.stamp.resize(n, 0);
    }

    /// Starts a new query: everything becomes unvisited in O(1). On epoch
    /// wraparound the backing array is re-zeroed — the one O(n) cost,
    /// amortized over ~4 billion queries.
    pub fn next_epoch(&mut self) {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` visited; returns whether it was newly inserted. The
    /// stamp is written unconditionally, so the only branch is the range
    /// check: an id outside the population (a forged edge of a restored
    /// graph) is never "new", which makes every walk skip it.
    #[inline]
    pub fn insert(&mut self, v: VecId) -> bool {
        match self.stamp.get_mut(v as usize) {
            Some(s) => {
                let fresh = *s != self.epoch;
                *s = self.epoch;
                fresh
            }
            None => false,
        }
    }

    /// Whether `v` is visited in the current epoch (ids outside the
    /// population never are).
    #[inline]
    pub fn contains(&self, v: VecId) -> bool {
        self.stamp.get(v as usize) == Some(&self.epoch)
    }

    /// Current epoch (diagnostic / test hook).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Jumps the epoch counter to `epoch`, stamping nothing. Test hook for
    /// exercising wraparound (`force_epoch(u32::MAX - 2)` puts the next
    /// few queries across the wrap) without running 4 billion searches.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// All per-query mutable state of a beam search, reusable across queries
/// and owned by exactly one thread at a time: a caller that keeps its own
/// across a query loop, or else the thread-local pool ([`with_pooled`]).
#[derive(Debug)]
pub struct SearchScratch {
    /// Visited vertices of the current walk.
    pub(crate) visited: VisitedSet,
    /// Pages read by the current query (Starling's I/O accounting).
    pub(crate) pages: VisitedSet,
    /// The best `ef` candidates of the current walk, sorted, with the
    /// expansion cursor and the tie list.
    pub(crate) pool: Pool,
    /// The not-yet-visited neighbours of the vertex being expanded, in
    /// list order.
    pub(crate) gather: Vec<VecId>,
    /// Every candidate evaluated (construction's selection pool).
    pub(crate) evaluated: Vec<Candidate>,
    /// Construction's re-prune of an overflowing list.
    pub(crate) reprune: Reprune,
}

impl SearchScratch {
    /// Fresh scratch with empty buffers; grows lazily to the population
    /// it is first used on.
    pub fn new() -> Self {
        Self {
            visited: VisitedSet::new(0),
            pages: VisitedSet::new(0),
            pool: Pool::new(),
            // ALLOC: `Vec::new` is capacity-0 and touches the heap only
            // once buffers grow on first use; the scratch is pooled, so
            // growth amortizes to zero per query.
            gather: Vec::new(),
            evaluated: Vec::new(),
            reprune: Reprune::default(),
        }
    }

    /// Prepares for one walk over `n` vertices keeping the best `ef`:
    /// visited set sized to the population and cleared (by epoch bump),
    /// candidate pool and evaluated list emptied. Buffer capacity is kept.
    pub(crate) fn begin(&mut self, n: usize, ef: usize) {
        self.visited.resize(n);
        self.visited.next_epoch();
        self.pool.begin(ef, n);
        self.evaluated.clear();
    }

    /// Prepares the page-visited set for one query over `pages` pages.
    pub(crate) fn begin_pages(&mut self, pages: usize) {
        self.pages.resize(pages);
        self.pages.next_epoch();
    }

    /// `(pointer, capacity)` of every buffer a walk writes, for the
    /// no-reallocation tests.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        let of = |v: &Vec<u32>| (v.as_ptr() as usize, v.capacity());
        let mut out = vec![
            of(&self.visited.stamp),
            of(&self.gather),
            (self.evaluated.as_ptr() as usize, self.evaluated.capacity()),
        ];
        out.extend(self.pool.buffers());
        out
    }

    /// Jumps both epoch counters to `epoch` — test hook for pinning that
    /// searches spanning an epoch wraparound stay bit-identical.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.visited.force_epoch(epoch);
        self.pages.force_epoch(epoch);
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// One pooled scratch per thread, handed out by [`with_pooled`]. The
    /// slot is *taken* (not borrowed) for the duration of the closure, so
    /// reentrant searches — a searcher calling another searcher — fall
    /// back to a fresh scratch instead of aborting on a double borrow.
    static POOL: RefCell<Option<Box<SearchScratch>>> = const { RefCell::new(None) };
}

/// The counters [`with_pooled`] writes, resolved once per process (the
/// `search.rs` idiom): a borrow is one relaxed add, with no registry
/// lookup on the search path.
struct ScratchCounters {
    reuses: mqa_obs::Counter,
    allocs: mqa_obs::Counter,
}

impl ScratchCounters {
    fn get() -> &'static Self {
        static COUNTERS: OnceLock<ScratchCounters> = OnceLock::new();
        COUNTERS.get_or_init(|| ScratchCounters {
            reuses: mqa_obs::counter("graph.scratch.reuses"),
            allocs: mqa_obs::counter("graph.scratch.allocs"),
        })
    }
}

/// Runs `f` with this thread's pooled [`SearchScratch`], allocating one
/// only on the first (or a reentrant) use. Steady-state searches through
/// the pooled `search` entry points therefore perform zero O(n)
/// allocations. The scratch goes back to the pool only when `f` returns:
/// if `f` unwinds, the scratch is dropped with it and the thread's next
/// call starts on a fresh one.
pub fn with_pooled<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let taken = POOL.with(|p| p.borrow_mut().take());
    let counters = ScratchCounters::get();
    let mut scratch = match taken {
        Some(s) => {
            counters.reuses.inc();
            s
        }
        None => {
            counters.allocs.inc();
            // ALLOC: one scratch per thread (or per reentrant search);
            // every later query on this thread reuses it.
            Box::new(SearchScratch::new())
        }
    };
    let out = f(&mut scratch);
    POOL.with(|p| {
        let mut slot = p.borrow_mut();
        if slot.is_none() {
            *slot = Some(scratch);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_epoch_reset() {
        let mut v = VisitedSet::new(3);
        v.next_epoch();
        assert!(v.insert(0));
        assert!(!v.insert(0));
        assert!(v.contains(0));
        assert!(!v.contains(1));
        v.next_epoch();
        assert!(!v.contains(0));
        assert!(v.insert(0));
    }

    #[test]
    fn epoch_wraparound_rezeroes() {
        let mut v = VisitedSet::new(4);
        v.force_epoch(u32::MAX - 1);
        assert!(v.insert(2));
        // The next epoch is u32::MAX, which triggers the re-zero + reset
        // to 1; the stale MAX-1 stamp at vertex 2 must not read as
        // visited.
        v.next_epoch();
        assert_eq!(v.epoch(), 1);
        assert!(!v.contains(2));
        assert!(v.insert(2));
        assert!(!v.insert(2));
    }

    #[test]
    fn resize_preserves_membership_and_forgets_what_it_cut() {
        let mut v = VisitedSet::new(2);
        v.next_epoch();
        assert!(v.insert(1));
        v.resize(5);
        assert!(v.contains(1));
        assert!(v.insert(4));
        v.resize(3);
        v.resize(5);
        assert!(v.contains(1));
        assert!(!v.contains(4), "a regrown slot starts unvisited");
    }

    #[test]
    fn ids_outside_the_population_are_never_new() {
        let mut v = VisitedSet::new(3);
        v.next_epoch();
        assert!(!v.insert(3));
        assert!(!v.insert(u32::MAX));
        assert!(!v.contains(3));
    }

    #[test]
    fn with_pooled_reuses_across_calls() {
        let allocs = mqa_obs::counter("graph.scratch.allocs");
        let reuses = mqa_obs::counter("graph.scratch.reuses");
        let before_allocs = allocs.get();
        let before_reuses = reuses.get();
        with_pooled(|s| s.begin(10, 1));
        with_pooled(|s| {
            s.begin(10, 1);
            assert!(s.visited.epoch() >= 2, "pooled scratch kept its epochs");
        });
        assert!(allocs.get() >= before_allocs);
        assert!(
            reuses.get() > before_reuses,
            "second call must reuse the pooled scratch"
        );
    }

    #[test]
    fn a_panic_inside_with_pooled_leaves_the_next_call_a_fresh_scratch() {
        let allocs = mqa_obs::counter("graph.scratch.allocs");
        with_pooled(|s| s.begin(8, 1));
        let unwound = std::panic::catch_unwind(|| {
            with_pooled(|s| {
                s.begin(8, 1);
                s.visited.insert(5);
                panic!("deliberate mid-search panic");
            })
        });
        assert!(unwound.is_err());
        let before = allocs.get();
        with_pooled(|s| {
            s.begin(8, 1);
            assert_eq!(s.visited.epoch(), 1, "a fresh scratch");
            assert!(!s.visited.contains(5));
        });
        assert!(allocs.get() > before, "the call after the panic allocates");
    }

    #[test]
    fn with_pooled_survives_reentrancy() {
        let out = with_pooled(|outer| {
            outer.begin(4, 1);
            outer.visited.insert(3);
            // A nested search takes a *fresh* scratch; the outer one keeps
            // its state untouched.
            let inner = with_pooled(|inner| {
                inner.begin(4, 1);
                inner.visited.insert(1);
                inner.visited.contains(3)
            });
            assert!(!inner, "inner scratch must not see outer state");
            outer.visited.contains(3)
        });
        assert!(out);
    }
}
