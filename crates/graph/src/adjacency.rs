//! Compact adjacency storage for navigation graphs.

use mqa_vector::VecId;
use serde::{Deserialize, Serialize};

/// Out-neighbour lists for a fixed vertex population.
///
/// Navigation graphs are directed (pruning keeps out-degree bounded while
/// in-degree floats); vertices are the dense object ids of the backing
/// vector store.
///
/// Beside each list sits its *clean-prefix length*: how many leading
/// entries are the unmodified output of a neighbour-selection prune
/// ([`Adjacency::set_pruned`]) and therefore already sorted by distance to
/// the vertex and pairwise undominated under the rule that produced them.
/// [`Adjacency::add_edge`] appends behind that prefix (a *dirty* tail), so
/// re-pruning an over-full list only has to test pairs that involve a
/// dirty entry (see [`crate::prune::robust_reprune`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    lists: Vec<Vec<VecId>>,
    clean: Vec<u32>,
}

impl Adjacency {
    /// An edgeless graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            lists: vec![Vec::new(); n],
            clean: vec![0; n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VecId) -> &[VecId] {
        // An out-of-range id reads as "no neighbours" — traversal simply
        // dead-ends instead of panicking mid-search.
        self.lists.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Recorded length of `v`'s clean prefix (see the type docs). At most
    /// the degree in a sound graph; deserialized state may claim more, so
    /// consumers clamp and [`crate::validate::check_clean_prefixes`] flags
    /// it. Ids without a record read as zero.
    #[inline]
    pub fn clean_len(&self, v: VecId) -> usize {
        self.clean.get(v as usize).map_or(0, |&c| c as usize)
    }

    /// Replaces the out-neighbour list of `v` with an arbitrary list (no
    /// clean prefix).
    ///
    /// # Panics
    /// Panics (debug) if the list contains `v` itself or an out-of-range id.
    pub fn set_neighbors(&mut self, v: VecId, neighbors: Vec<VecId>) {
        self.install(v, neighbors, 0);
    }

    /// Replaces the out-neighbour list of `v` with the output of a
    /// neighbour-selection prune around `v`: the whole list is clean.
    ///
    /// # Panics
    /// Panics (debug) if the list contains `v` itself or an out-of-range id.
    pub fn set_pruned(&mut self, v: VecId, selected: Vec<VecId>) {
        let clean = mqa_vector::cast::vec_id(selected.len());
        self.install(v, selected, clean);
    }

    fn install(&mut self, v: VecId, neighbors: Vec<VecId>, clean: u32) {
        debug_assert!(
            neighbors
                .iter()
                .all(|&u| u != v && (u as usize) < self.lists.len()),
            "invalid neighbour list for {v}"
        );
        // INVARIANT: builders only pass vertex ids < n minted by new(n).
        self.lists[v as usize] = neighbors;
        // A deserialized graph may carry too few records; a missing one
        // reads as "nothing clean", which is always safe.
        if let Some(slot) = self.clean.get_mut(v as usize) {
            *slot = clean;
        }
    }

    /// Extends the vertex population to `n` (new vertices are edgeless).
    /// Shrinking is a no-op — vertex ids are never reclaimed.
    pub fn grow(&mut self, n: usize) {
        if n > self.lists.len() {
            self.lists.resize(n, Vec::new());
            self.clean.resize(n, 0);
        }
    }

    /// Iterates every directed edge `(v, u)`.
    pub fn edges(&self) -> impl Iterator<Item = (VecId, VecId)> + '_ {
        self.lists
            .iter()
            .enumerate()
            .flat_map(|(v, nb)| nb.iter().map(move |&u| (v as VecId, u)))
    }

    /// Test-only raw list access for building deliberately corrupted
    /// graphs in validator tests (the public mutators debug-reject
    /// malformed lists, but corrupted data can still arrive through
    /// deserialization).
    #[cfg(test)]
    pub(crate) fn lists_mut(&mut self) -> &mut Vec<Vec<VecId>> {
        &mut self.lists
    }

    /// Test-only raw access to the clean-prefix records, for forging a
    /// clean length the way corrupted bytes could.
    #[cfg(test)]
    pub(crate) fn clean_mut(&mut self) -> &mut Vec<u32> {
        &mut self.clean
    }

    /// Adds edge `v → u` unless already present. Returns whether it was
    /// added.
    pub fn add_edge(&mut self, v: VecId, u: VecId) -> bool {
        debug_assert_ne!(v, u, "self loop");
        // INVARIANT: builders only pass vertex ids < n minted by new(n).
        let list = &mut self.lists[v as usize];
        if list.contains(&u) {
            false
        } else {
            list.push(u);
            true
        }
    }

    /// Out-degree of `v`. Out-of-range ids have degree zero.
    pub fn degree(&self, v: VecId) -> usize {
        self.lists.get(v as usize).map_or(0, Vec::len)
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.lists.is_empty() {
            return 0.0;
        }
        let total: usize = self.lists.iter().map(Vec::len).sum();
        total as f64 / self.lists.len() as f64
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.lists.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Vertices reachable from `start` (BFS), as a boolean mask.
    pub fn reachable_from(&self, start: VecId) -> Vec<bool> {
        let n = self.lists.len();
        if n == 0 {
            return Vec::new();
        }
        let mut seen = crate::scratch::VisitedSet::new(n);
        seen.next_epoch();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if seen.insert(u) {
                    queue.push_back(u);
                }
            }
        }
        (0..n as VecId).map(|v| seen.contains(v)).collect()
    }

    /// Number of vertices reachable from `start` (including `start`).
    pub fn reachable_count(&self, start: VecId) -> usize {
        self.reachable_from(start).iter().filter(|&&b| b).count()
    }

    /// Approximate resident bytes of the adjacency lists.
    pub fn bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|l| l.len() * std::mem::size_of::<VecId>())
            .sum::<usize>()
            + self.lists.len() * std::mem::size_of::<Vec<VecId>>()
            + self.clean.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_deduplicates() {
        let mut g = Adjacency::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn set_neighbors_replaces() {
        let mut g = Adjacency::new(4);
        g.set_neighbors(2, vec![0, 1]);
        g.set_neighbors(2, vec![3]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn clean_prefix_follows_the_mutators() {
        let mut g = Adjacency::new(5);
        g.set_pruned(0, vec![1, 2, 3]);
        assert_eq!(g.clean_len(0), 3);
        // add_edge appends behind the prefix (and a refused duplicate
        // changes nothing).
        assert!(g.add_edge(0, 4));
        assert!(!g.add_edge(0, 2));
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.clean_len(0), 3);
        // An arbitrary list has no clean prefix.
        g.set_neighbors(0, vec![4, 1]);
        assert_eq!(g.clean_len(0), 0);
        // Clone and grow carry the records; new vertices start dirty.
        g.set_pruned(1, vec![0, 2]);
        let mut h = g.clone();
        h.grow(8);
        assert_eq!(h.clean_len(1), 2);
        assert_eq!(h.clean_len(7), 0);
        assert_eq!(h.clean_len(99), 0, "out of range reads as zero");
        assert_ne!(g, h);
    }

    #[test]
    fn degree_statistics() {
        let mut g = Adjacency::new(3);
        g.set_neighbors(0, vec![1, 2]);
        g.set_neighbors(1, vec![0]);
        assert!((g.avg_degree() - 1.0).abs() < 1e-9);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn reachability_on_chain() {
        let mut g = Adjacency::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        // 3 is isolated
        assert_eq!(g.reachable_count(0), 3);
        assert_eq!(g.reachable_count(3), 1);
        let mask = g.reachable_from(0);
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn empty_graph() {
        let g = Adjacency::new(0);
        assert!(g.is_empty());
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn grow_adds_edgeless_vertices() {
        let mut g = Adjacency::new(2);
        g.add_edge(0, 1);
        g.grow(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(4), &[] as &[VecId]);
        g.grow(1); // shrink is a no-op
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn edges_iterates_all() {
        let mut g = Adjacency::new(3);
        g.set_neighbors(0, vec![1, 2]);
        g.set_neighbors(2, vec![0]);
        let e: Vec<(VecId, VecId)> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (2, 0)]);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = Adjacency::new(2);
        g.add_edge(0, 1);
        g.set_pruned(1, vec![0]);
        let j = serde_json::to_string(&g).unwrap();
        let back: Adjacency = serde_json::from_str(&j).unwrap();
        assert_eq!(g, back);
    }
}
