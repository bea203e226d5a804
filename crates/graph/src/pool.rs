//! The walk's candidate pool: the best `ef` candidates of one search in a
//! single array sorted by an integer key.
//!
//! A best-first walk needs two things of its candidates: the closest one
//! not yet expanded, and the worst one retained (the pruning bound). One
//! ascending array answers both — the bound is its last entry, the next
//! vertex to expand sits at a cursor — and inserting by binary search plus
//! a short shift has no data-dependent branch per level the way a heap
//! sift does.
//!
//! * **Key.** [`key_of`] maps `(dist, id)` to a `u64` whose integer order
//!   is exactly [`Candidate`]'s `Ord` (`f32::total_cmp` on the distance,
//!   then the id), so NaN and signed zeros keep the total order the rest
//!   of the workspace sorts by, and [`candidate_of`] recovers the
//!   candidate bit for bit.
//! * **Cursor.** Every slot carries an *expanded* flag; the cursor names
//!   the first slot without it. An insert below the cursor pulls it back.
//! * **Tie list.** The walk stops when the closest unexpanded candidate is
//!   *strictly* farther than the bound, so a candidate pushed out of a
//!   full pool (or refused by it while seeding) whose distance still
//!   *equals* the bound must be expanded once the pool itself has nothing
//!   left. Those candidates wait in `ties` — empty unless distances
//!   collide exactly — and are handed out closest first, only after the
//!   pool, until one lies beyond the bound. Candidates strictly beyond
//!   the bound when they leave are dropped: the bound never grows, so the
//!   walk would stop on reaching them. (That argument needs ordered
//!   distances: with NaNs in play the pool proper is unaffected, but which
//!   discarded candidates get this late expansion is not pinned.)

use mqa_vector::{Candidate, VecId};

/// Maps the bits of an `f32` to a `u32` that orders like
/// [`f32::total_cmp`]: negative floats have every bit flipped, the rest
/// only the sign bit.
#[inline]
fn order_bits(dist: f32) -> u32 {
    let bits = dist.to_bits();
    // All ones for a set sign bit, else none; the sign bit always.
    bits ^ ((bits >> 31).wrapping_neg() | 0x8000_0000)
}

/// Inverse of [`order_bits`].
#[inline]
fn dist_of_bits(ordered: u32) -> f32 {
    // A clear top bit marks the image of a negative float.
    let negative = (ordered >> 31) ^ 1;
    f32::from_bits(ordered ^ (negative.wrapping_neg() | 0x8000_0000))
}

/// The candidate's order-preserving integer key: distance image in the
/// high half, id in the low half.
#[inline]
pub(crate) fn key_of(c: Candidate) -> u64 {
    (u64::from(order_bits(c.dist)) << 32) | u64::from(c.id)
}

/// The candidate a key was made from, bit for bit.
#[inline]
pub(crate) fn candidate_of(key: u64) -> Candidate {
    // INVARIANT: a key is two u32 halves glued together by `key_of`; each
    // cast takes one half back out whole.
    let (id, ordered) = (key as VecId, (key >> 32) as u32);
    Candidate::new(id, dist_of_bits(ordered))
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    expanded: bool,
}

/// The sorted pool plus its tie list (see the module docs). Reused across
/// walks: [`Pool::begin`] empties it and keeps the buffers.
#[derive(Debug)]
pub(crate) struct Pool {
    /// The best candidates so far, ascending by key, at most `cap`.
    slots: Vec<Slot>,
    /// Index of the first unexpanded slot (`slots.len()` when none).
    cursor: usize,
    cap: usize,
    /// Distance of the last slot once the pool is full, else infinity.
    bound: f32,
    /// Unexpanded candidates outside the pool that tied its bound when
    /// they left, descending by key (closest last).
    ties: Vec<u64>,
}

impl Pool {
    pub(crate) fn new() -> Self {
        Self {
            // ALLOC: capacity-0; `begin` sizes it once per scratch and
            // every later walk reuses it.
            slots: Vec::new(),
            cursor: 0,
            cap: 1,
            bound: f32::INFINITY,
            // ALLOC: capacity-0; touches the heap only when a walk first
            // meets an exact tie at its bound.
            ties: Vec::new(),
        }
    }

    /// Empties the pool for a walk keeping the best `cap` candidates of a
    /// graph with `population` vertices.
    pub(crate) fn begin(&mut self, cap: usize, population: usize) {
        self.slots.clear();
        // ALLOC: grows to the largest beam seen, then sticks; a walk
        // cannot retain more candidates than the graph has vertices.
        self.slots.reserve(cap.min(population));
        self.cursor = 0;
        self.cap = cap;
        self.bound = f32::INFINITY;
        self.ties.clear();
    }

    /// The pruning bound: the worst retained distance once `cap`
    /// candidates are held, infinity before.
    #[inline]
    pub(crate) fn bound(&self) -> f32 {
        self.bound
    }

    /// Offers an evaluated candidate; returns whether the pool kept it
    /// (unexpanded). A full pool keeps it only if it sorts before the
    /// current worst, which then leaves.
    #[inline]
    pub(crate) fn offer(&mut self, c: Candidate) -> bool {
        let key = key_of(c);
        let full = self.slots.len() == self.cap;
        if full && self.slots.last().is_some_and(|worst| key > worst.key) {
            return false;
        }
        let at = self.slots.partition_point(|s| s.key < key);
        let evicted = if full { self.slots.pop() } else { None };
        // ALLOC: within the capacity `begin` reserved.
        self.slots.insert(
            at,
            Slot {
                key,
                expanded: false,
            },
        );
        self.cursor = self.cursor.min(at);
        if self.slots.len() == self.cap {
            if let Some(worst) = self.slots.last() {
                self.bound = candidate_of(worst.key).dist;
            }
        }
        if let Some(out) = evicted {
            if !out.expanded {
                self.retire(out.key);
            }
        }
        true
    }

    /// Offers a start vertex. Unlike a neighbour, a seed the pool refuses
    /// is still a candidate for expansion while it ties the bound.
    pub(crate) fn seed(&mut self, c: Candidate) {
        if !self.offer(c) {
            self.retire(key_of(c));
        }
    }

    /// An unexpanded candidate has left (or never entered) the full pool:
    /// it can only be expanded while its distance does not exceed the
    /// bound, and the bound never grows.
    fn retire(&mut self, key: u64) {
        if candidate_of(key).dist > self.bound {
            return;
        }
        let at = self.ties.partition_point(|&t| t > key);
        // ALLOC: only when distances collide exactly at the bound; the
        // buffer is kept across walks.
        self.ties.insert(at, key);
    }

    /// The closest candidate not yet expanded, marked expanded — or
    /// `None` when the walk is over: nothing is left, or the closest one
    /// left is strictly beyond the bound.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<Candidate> {
        if let Some(slot) = self.slots.get_mut(self.cursor) {
            // A retained candidate is never beyond the bound.
            slot.expanded = true;
            let c = candidate_of(slot.key);
            self.cursor += 1;
            while self.slots.get(self.cursor).is_some_and(|s| s.expanded) {
                self.cursor += 1;
            }
            return Some(c);
        }
        let c = candidate_of(self.ties.pop()?);
        if c.dist > self.bound {
            None
        } else {
            Some(c)
        }
    }

    /// The retained candidates, closest first.
    pub(crate) fn best(&self) -> impl ExactSizeIterator<Item = Candidate> + '_ {
        self.slots.iter().map(|s| candidate_of(s.key))
    }

    /// The retained candidates not yet expanded, closest first: the order
    /// [`Pool::next`] would hand them out in if nothing else arrived. The
    /// tie list is not included.
    pub(crate) fn upcoming(&self) -> impl Iterator<Item = Candidate> + '_ {
        let rest = self.slots.get(self.cursor..).unwrap_or_default();
        rest.iter()
            .filter(|s| !s.expanded)
            .map(|s| candidate_of(s.key))
    }

    /// `(pointer, capacity)` of both buffers, for the no-reallocation
    /// tests.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 2] {
        [
            (self.slots.as_ptr() as usize, self.slots.capacity()),
            (self.ties.as_ptr() as usize, self.ties.capacity()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;

    /// Distances that stress the key: both zeros, both infinities, NaNs of
    /// either sign and several payloads, subnormals, and ordinary values.
    fn awkward_dists() -> Vec<f32> {
        let mut out = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFFC0_0001),
            f32::from_bits(0x7F80_0001),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
            2.5,
        ];
        let mut rng = StdRng::seed_from_u64(0x4B45_5953);
        for _ in 0..200 {
            out.push(rng.gen_range(-1000.0f32..1000.0));
            out.push(f32::from_bits(rng.gen_range(0..u32::MAX)));
        }
        out
    }

    #[test]
    fn key_order_is_candidate_order() {
        let dists = awkward_dists();
        let ids: [VecId; 5] = [0, 1, 7, u32::MAX - 1, u32::MAX];
        let mut rng = StdRng::seed_from_u64(0x4F52_4445);
        for (i, &da) in dists.iter().enumerate() {
            // Every pair would be 50 k comparisons per id pair; a seeded
            // partner per value plus the equal-distance case covers the
            // classes.
            let partners = [
                da,
                dists[(i + 1) % dists.len()],
                dists[rng.gen_range(0..dists.len())],
            ];
            for db in partners {
                for &ia in &ids {
                    for &ib in &ids {
                        let (a, b) = (Candidate::new(ia, da), Candidate::new(ib, db));
                        assert_eq!(
                            key_of(a).cmp(&key_of(b)),
                            a.cmp(&b),
                            "{a:?} vs {b:?} ({:#x} vs {:#x})",
                            da.to_bits(),
                            db.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn key_round_trips_bit_exactly() {
        for d in awkward_dists() {
            for id in [0, 3, u32::MAX] {
                let back = candidate_of(key_of(Candidate::new(id, d)));
                assert_eq!(back.id, id);
                assert_eq!(back.dist.to_bits(), d.to_bits(), "{d:?}");
            }
        }
    }

    fn drain_ids(pool: &mut Pool) -> Vec<VecId> {
        std::iter::from_fn(|| pool.next()).map(|c| c.id).collect()
    }

    #[test]
    fn hands_out_closest_first_and_keeps_the_best() {
        let mut pool = Pool::new();
        pool.begin(3, 10);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            pool.offer(Candidate::new(id, d));
        }
        assert_eq!(pool.bound(), 3.0);
        let kept: Vec<VecId> = pool.best().map(|c| c.id).collect();
        assert_eq!(kept, vec![3, 1, 2]);
        // 0 (5.0) was pushed out unexpanded, strictly beyond the bound.
        assert_eq!(drain_ids(&mut pool), vec![3, 1, 2]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut pool = Pool::new();
        pool.begin(2, 10);
        assert_eq!(pool.bound(), f32::INFINITY);
        pool.offer(Candidate::new(0, 1.0));
        assert_eq!(pool.bound(), f32::INFINITY);
        pool.offer(Candidate::new(1, 2.0));
        assert_eq!(pool.bound(), 2.0);
        assert!(!pool.offer(Candidate::new(2, 2.0)), "ties by id lose");
        assert!(pool.offer(Candidate::new(3, 0.5)));
        assert_eq!(pool.bound(), 1.0);
    }

    #[test]
    fn an_insert_below_the_cursor_pulls_it_back() {
        let mut pool = Pool::new();
        pool.begin(4, 10);
        pool.offer(Candidate::new(0, 2.0));
        pool.offer(Candidate::new(1, 4.0));
        assert_eq!(pool.next().map(|c| c.id), Some(0));
        pool.offer(Candidate::new(2, 1.0));
        pool.offer(Candidate::new(3, 3.0));
        assert_eq!(drain_ids(&mut pool), vec![2, 3, 1]);
    }

    #[test]
    fn upcoming_lists_the_unexpanded_closest_first() {
        let mut pool = Pool::new();
        pool.begin(4, 10);
        for (id, d) in [(0, 2.0), (1, 4.0), (2, 1.0)] {
            pool.offer(Candidate::new(id, d));
        }
        let upcoming = |pool: &Pool| pool.upcoming().map(|c| c.id).collect::<Vec<_>>();
        assert_eq!(pool.next().map(|c| c.id), Some(2));
        assert_eq!(upcoming(&pool), vec![0, 1]);
        // In below the cursor, past the expanded 2.
        pool.offer(Candidate::new(3, 0.5));
        assert_eq!(upcoming(&pool), vec![3, 0, 1]);
        // A full pool: 1 leaves beyond the new bound.
        pool.offer(Candidate::new(4, 3.0));
        let ahead = upcoming(&pool);
        assert_eq!(ahead, vec![3, 0, 4]);
        assert_eq!(drain_ids(&mut pool), ahead, "the order `next` hands out");
        assert_eq!(upcoming(&pool), Vec::<VecId>::new());
    }

    #[test]
    fn an_evicted_tie_is_expanded_after_the_pool() {
        let mut pool = Pool::new();
        pool.begin(2, 10);
        pool.offer(Candidate::new(5, 1.0));
        pool.offer(Candidate::new(9, 2.0));
        // Same distance as the worst, smaller id: 9 leaves, still tied.
        assert!(pool.offer(Candidate::new(7, 2.0)));
        assert_eq!(pool.bound(), 2.0);
        assert_eq!(drain_ids(&mut pool), vec![5, 7, 9]);
    }

    #[test]
    fn a_tie_dies_when_the_bound_drops() {
        let mut pool = Pool::new();
        pool.begin(2, 10);
        pool.offer(Candidate::new(5, 1.0));
        pool.offer(Candidate::new(9, 2.0));
        pool.offer(Candidate::new(7, 2.0));
        pool.offer(Candidate::new(1, 0.5)); // bound 2.0 -> 1.0, 7 leaves for good
        assert_eq!(drain_ids(&mut pool), vec![1, 5]);
    }

    #[test]
    fn refused_seeds_wait_in_id_order_while_tied() {
        let mut pool = Pool::new();
        pool.begin(1, 10);
        for id in [4, 8, 6] {
            pool.seed(Candidate::new(id, 3.0));
        }
        pool.seed(Candidate::new(2, 7.0));
        assert_eq!(drain_ids(&mut pool), vec![4, 6, 8]);
    }
}
