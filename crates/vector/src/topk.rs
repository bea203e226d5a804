//! Bounded top-k collection and the candidate ordering shared by all search
//! routines in the workspace.
//!
//! Every search orders `(id, distance)` pairs by [`Candidate`], whose `Ord`
//! implementation is *total* (via [`f32::total_cmp`]) so NaN distances
//! cannot poison a heap's or a sorted pool's invariants. [`TopK`] is the
//! bounded max-heap of current results the scans collect into; the graph
//! walk keeps its candidates in a sorted pool of its own (`mqa-graph`).

use crate::VecId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search candidate: an object id plus its distance to the query.
///
/// Ordering is by distance (then id, for determinism); `Candidate` is a
/// *max*-first element in `BinaryHeap`, i.e. `heap.pop()` yields the
/// farthest candidate — exactly what a bounded result set needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Object identifier.
    pub id: VecId,
    /// Distance to the query (lower is better).
    pub dist: f32,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(id: VecId, dist: f32) -> Self {
        Self { id, dist }
    }
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector keeping the `k` nearest candidates seen so far.
///
/// Backed by a max-heap so insertion is `O(log k)` and the current worst
/// retained distance — the *pruning bound* used by incremental scanning —
/// is available in `O(1)` via [`TopK::bound`].
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl TopK {
    /// Creates a collector for the `k` nearest candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k requires k >= 1");
        Self {
            k,
            // ALLOC: one result buffer per collector.
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collector holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Current pruning bound: the distance of the worst retained candidate
    /// if full, otherwise `f32::INFINITY` (everything is accepted).
    #[inline]
    pub fn bound(&self) -> f32 {
        if self.is_full() {
            self.heap.peek().map(|c| c.dist).unwrap_or(f32::INFINITY)
        } else {
            f32::INFINITY
        }
    }

    /// Offers a candidate; returns `true` if it was retained.
    pub fn offer(&mut self, c: Candidate) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(c);
            return true;
        }
        match self.heap.peek() {
            Some(top) if c < *top => {
                self.heap.pop();
                self.heap.push(c);
                true
            }
            _ => false,
        }
    }

    /// Consumes the collector, returning candidates sorted by ascending
    /// distance (ties broken by id).
    pub fn into_sorted(self) -> Vec<Candidate> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_ordering_by_distance_then_id() {
        let a = Candidate::new(1, 0.5);
        let b = Candidate::new(2, 0.5);
        let c = Candidate::new(0, 0.7);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn nan_distance_does_not_panic() {
        let a = Candidate::new(1, f32::NAN);
        let b = Candidate::new(2, 1.0);
        // total_cmp orders NaN above all normal floats
        assert!(a > b);
    }

    #[test]
    fn topk_keeps_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            t.offer(Candidate::new(id, d));
        }
        let out = t.into_sorted();
        let ids: Vec<_> = out.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f32::INFINITY);
        t.offer(Candidate::new(0, 1.0));
        assert_eq!(t.bound(), f32::INFINITY);
        t.offer(Candidate::new(1, 2.0));
        assert_eq!(t.bound(), 2.0);
        t.offer(Candidate::new(2, 0.5));
        assert_eq!(t.bound(), 1.0);
    }

    #[test]
    fn offer_rejects_worse_when_full() {
        let mut t = TopK::new(1);
        assert!(t.offer(Candidate::new(0, 1.0)));
        assert!(!t.offer(Candidate::new(1, 2.0)));
        assert!(t.offer(Candidate::new(2, 0.1)));
        assert_eq!(t.into_sorted()[0].id, 2);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        TopK::new(0);
    }
}
