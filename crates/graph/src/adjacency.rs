//! Compact adjacency storage for navigation graphs.

use mqa_vector::{ops, Candidate, VecId, VectorStore};
use serde::{Deserialize, Serialize, Value};

/// Out-neighbour lists for a fixed vertex population.
///
/// Navigation graphs are directed (pruning keeps out-degree bounded while
/// in-degree floats); vertices are the dense object ids of the backing
/// vector store.
///
/// Beside each list sits the distance of each of its edges from the
/// vertex — the exact bits `ops::l2_sq` gives for the pair, written by
/// whoever made the edge (it already held the distance), so construction
/// ranks a held list without evaluating it again. Search reads only the
/// ids ([`Adjacency::neighbors`]). The distances are derived state: the
/// JSON form leaves them out, and a graph read back carries NaN until
/// [`Adjacency::restore_distances`] recomputes them from its store.
///
/// Beside each list also sit two records of the neighbour-selection prune
/// that installed it ([`Adjacency::set_pruned`]): its *clean-prefix
/// length*, how many leading entries the rule *kept* — sorted by distance
/// to the vertex and pairwise undominated under that rule — and its
/// *filler count*, how many entries follow them that HNSW's heuristic
/// back-filled — each dominated by a kept entry ranked before it (the α
/// rule never fills). [`Adjacency::add_edge`] appends behind both (a
/// *dirty* tail), so re-pruning an over-full list only has to test what
/// the records do not settle (see [`crate::prune::Reprune`]).
///
/// Two graphs are equal when their lists and records are: the distances
/// are a function of those and the store, so a graph read back equals the
/// one written (validation, not equality, catches a stored distance that
/// disagrees with its store).
#[derive(Debug, Clone)]
pub struct Adjacency {
    lists: Vec<Vec<VecId>>,
    dists: Vec<Vec<f32>>,
    clean: Vec<u32>,
    fillers: Vec<u32>,
}

impl Adjacency {
    /// An edgeless graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            lists: vec![Vec::new(); n],
            dists: vec![Vec::new(); n],
            clean: vec![0; n],
            fillers: vec![0; n],
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

    /// The stored distance of each of `v`'s out-edges, in
    /// [`Adjacency::neighbors`] order (see the type docs).
    pub fn distances(&self, v: VecId) -> &[f32] {
        self.dists.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `v`'s out-neighbours tagged with their stored distances.
    pub fn edges_of(&self, v: VecId) -> impl Iterator<Item = Candidate> + '_ {
        self.neighbors(v)
            .iter()
            .zip(self.distances(v))
            .map(|(&u, &d)| Candidate::new(u, d))
    }

    /// Recorded length of `v`'s clean prefix (see the type docs). At most
    /// the degree in a sound graph; deserialized state may claim more, so
    /// consumers clamp and [`crate::validate::check_clean_prefixes`] flags
    /// it. Ids without a record read as zero.
    #[inline]
    pub fn clean_len(&self, v: VecId) -> usize {
        self.clean.get(v as usize).map_or(0, |&c| c as usize)
    }

    /// Recorded number of fillers behind `v`'s clean prefix (see the type
    /// docs), read like [`Adjacency::clean_len`]: deserialized state may
    /// claim more than the list holds, and ids without a record read as
    /// zero.
    #[inline]
    pub fn filler_len(&self, v: VecId) -> usize {
        self.fillers.get(v as usize).map_or(0, |&c| c as usize)
    }

    /// Replaces the out-edges of `v` with an arbitrary list of neighbours
    /// and their distances from `v` (no clean prefix, no fillers).
    ///
    /// # Panics
    /// Panics (debug) if the list contains `v` itself or an out-of-range id.
    pub fn set_neighbors(&mut self, v: VecId, edges: &[Candidate]) {
        self.install(v, edges, 0, 0);
    }

    /// Replaces the out-edges of `v` with the output of a
    /// neighbour-selection prune around `v`: the first `kept` picks are its
    /// clean prefix, the rest fillers (none under the α rule).
    ///
    /// # Panics
    /// Panics (debug) if the list contains `v` itself or an out-of-range
    /// id, or if `kept` exceeds the list.
    pub fn set_pruned(&mut self, v: VecId, picks: &[Candidate], kept: usize) {
        debug_assert!(kept <= picks.len(), "{kept} kept of {}", picks.len());
        let fillers = picks.len().saturating_sub(kept);
        let (kept, fillers) = (
            mqa_vector::cast::vec_id(kept),
            mqa_vector::cast::vec_id(fillers),
        );
        self.install(v, picks, kept, fillers);
    }

    fn install(&mut self, v: VecId, edges: &[Candidate], clean: u32, fillers: u32) {
        debug_assert!(
            edges
                .iter()
                .all(|c| c.id != v && (c.id as usize) < self.lists.len()),
            "invalid neighbour list for {v}"
        );
        // INVARIANT: builders only pass vertex ids < n minted by new(n).
        let (list, dists) = (&mut self.lists[v as usize], &mut self.dists[v as usize]);
        list.clear();
        list.extend(edges.iter().map(|c| c.id));
        dists.clear();
        dists.extend(edges.iter().map(|c| c.dist));
        // A deserialized graph may carry too few records; a missing one
        // reads as "nothing known", which is always safe.
        if let Some(slot) = self.clean.get_mut(v as usize) {
            *slot = clean;
        }
        if let Some(slot) = self.fillers.get_mut(v as usize) {
            *slot = fillers;
        }
    }

    /// Extends the vertex population to `n` (new vertices are edgeless).
    /// Shrinking is a no-op — vertex ids are never reclaimed.
    pub fn grow(&mut self, n: usize) {
        if n > self.lists.len() {
            self.lists.resize(n, Vec::new());
            self.dists.resize(n, Vec::new());
            self.clean.resize(n, 0);
            self.fillers.resize(n, 0);
        }
    }

    /// Recomputes every stored edge distance from `store`, the vectors the
    /// graph indexes — what a graph read back from JSON needs before it
    /// grows, compacts or is validated. An edge naming an id outside the
    /// store keeps NaN, which [`crate::validate::check_edge_distances`]
    /// never accepts.
    pub fn restore_distances(&mut self, store: &VectorStore) {
        let row = |id: VecId| ((id as usize) < store.len()).then(|| store.get(id));
        for (v, (list, dists)) in self.lists.iter().zip(&mut self.dists).enumerate() {
            let from = row(mqa_vector::cast::vec_id(v));
            dists.clear();
            dists.extend(list.iter().map(|&u| match (from, row(u)) {
                (Some(a), Some(b)) => ops::l2_sq(a, b),
                _ => f32::NAN,
            }));
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

    /// Test-only edges to `ids` at distance zero, for hand-built graphs
    /// whose stored distances no check reads.
    #[cfg(test)]
    pub(crate) fn edges_to(ids: &[VecId]) -> Vec<Candidate> {
        ids.iter().map(|&u| Candidate::new(u, 0.0)).collect()
    }

    /// Test-only raw access to the stored distances, for forging one.
    #[cfg(test)]
    pub(crate) fn dists_mut(&mut self) -> &mut Vec<Vec<f32>> {
        &mut self.dists
    }

    /// Test-only raw access to the clean-prefix records, for forging a
    /// clean length the way corrupted bytes could.
    #[cfg(test)]
    pub(crate) fn clean_mut(&mut self) -> &mut Vec<u32> {
        &mut self.clean
    }

    /// Test-only raw access to the filler records, for forging one.
    #[cfg(test)]
    pub(crate) fn fillers_mut(&mut self) -> &mut Vec<u32> {
        &mut self.fillers
    }

    /// Adds edge `v → u`, whose distance from `v` is `dist`, unless already
    /// present. Returns whether it was added.
    pub fn add_edge(&mut self, v: VecId, u: VecId, dist: f32) -> bool {
        debug_assert_ne!(v, u, "self loop");
        // INVARIANT: builders only pass vertex ids < n minted by new(n),
        // and `lists` and `dists` always hold n entries.
        let (list, dists) = (&mut self.lists[v as usize], &mut self.dists[v as usize]);
        if list.contains(&u) {
            false
        } else {
            list.push(u);
            dists.push(dist);
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

    /// Approximate resident bytes of the adjacency lists, their stored
    /// distances and the two records.
    pub fn bytes(&self) -> usize {
        let edge = std::mem::size_of::<VecId>() + std::mem::size_of::<f32>();
        let vertex = std::mem::size_of::<Vec<VecId>>()
            + std::mem::size_of::<Vec<f32>>()
            + 2 * std::mem::size_of::<u32>();
        self.edge_count() * edge + self.lists.len() * vertex
    }
}

impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.lists == other.lists && self.clean == other.clean && self.fillers == other.fillers
    }
}

impl Eq for Adjacency {}

/// The JSON form holds the lists and the two records only: the distances
/// are a function of the store, recomputed on restore, so a snapshot's
/// bytes do not depend on them. A snapshot written before the filler
/// records existed reads as holding no fillers, which only makes the first
/// re-prune of each list test more.
impl Serialize for Adjacency {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("lists".to_string(), self.lists.to_value()),
            ("clean".to_string(), self.clean.to_value()),
            ("fillers".to_string(), self.fillers.to_value()),
        ])
    }
}

impl Deserialize for Adjacency {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value.as_object_for("Adjacency")?;
        let lists: Vec<Vec<VecId>> = serde::field(entries, "lists")?;
        let dists = lists.iter().map(|l| vec![f32::NAN; l.len()]).collect();
        let fillers = match entries.iter().any(|(k, _)| k == "fillers") {
            true => serde::field(entries, "fillers")?,
            false => vec![0; lists.len()],
        };
        Ok(Self {
            lists,
            dists,
            clean: serde::field(entries, "clean")?,
            fillers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Edges to `ids`, each at a distance equal to its id.
    fn to(ids: &[VecId]) -> Vec<Candidate> {
        ids.iter().map(|&u| Candidate::new(u, u as f32)).collect()
    }

    #[test]
    fn add_edge_deduplicates() {
        let mut g = Adjacency::new(3);
        assert!(g.add_edge(0, 1, 1.0));
        assert!(!g.add_edge(0, 1, 7.0));
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.distances(0), &[1.0]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn set_neighbors_replaces() {
        let mut g = Adjacency::new(4);
        g.set_neighbors(2, &to(&[0, 1]));
        g.set_neighbors(2, &to(&[3]));
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.edges_of(2).collect::<Vec<_>>(), to(&[3]));
    }

    #[test]
    fn clean_prefix_follows_the_mutators() {
        let mut g = Adjacency::new(5);
        g.set_pruned(0, &to(&[1, 3, 2]), 2);
        assert_eq!((g.clean_len(0), g.filler_len(0)), (2, 1));
        // add_edge appends behind the records (and a refused duplicate
        // changes nothing).
        assert!(g.add_edge(0, 4, 4.0));
        assert!(!g.add_edge(0, 2, 2.0));
        assert_eq!(g.neighbors(0), &[1, 3, 2, 4]);
        assert_eq!(g.distances(0), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!((g.clean_len(0), g.filler_len(0)), (2, 1));
        // An arbitrary list has neither record.
        g.set_neighbors(0, &to(&[4, 1]));
        assert_eq!((g.clean_len(0), g.filler_len(0)), (0, 0));
        // Clone and grow carry the records; new vertices start dirty.
        g.set_pruned(1, &to(&[0, 2]), 2);
        g.set_pruned(2, &to(&[0, 1]), 1);
        let mut h = g.clone();
        h.grow(8);
        assert_eq!((h.clean_len(1), h.filler_len(1)), (2, 0));
        assert_eq!((h.clean_len(2), h.filler_len(2)), (1, 1));
        assert_eq!((h.clean_len(7), h.filler_len(7)), (0, 0));
        assert_eq!(h.clean_len(99), 0, "out of range reads as zero");
        assert_eq!(h.filler_len(99), 0, "out of range reads as zero");
        assert_ne!(g, h);
        // Equality reads the filler records too.
        let mut f = g.clone();
        f.fillers_mut()[2] = 0;
        assert_ne!(f, g);
    }

    #[test]
    fn degree_statistics() {
        let mut g = Adjacency::new(3);
        g.set_neighbors(0, &to(&[1, 2]));
        g.set_neighbors(1, &to(&[0]));
        assert!((g.avg_degree() - 1.0).abs() < 1e-9);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn reachability_on_chain() {
        let mut g = Adjacency::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
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
        g.add_edge(0, 1, 1.0);
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
        g.set_neighbors(0, &to(&[1, 2]));
        g.set_neighbors(2, &to(&[0]));
        let e: Vec<(VecId, VecId)> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (2, 0)]);
    }

    /// The JSON form is the lists and the two records alone; what comes
    /// back equals the original but holds NaN distances until they are
    /// recomputed from the store. JSON without filler records reads as
    /// holding none.
    #[test]
    fn serde_round_trip() {
        let mut store = VectorStore::new(1);
        for x in [0.0f32, 3.0, -1.0] {
            store.push(&[x]);
        }
        let d = |a: VecId, b: VecId| ops::l2_sq(store.get(a), store.get(b));
        let mut g = Adjacency::new(3);
        g.add_edge(0, 1, d(0, 1));
        g.set_pruned(
            1,
            &[Candidate::new(0, d(1, 0)), Candidate::new(2, d(1, 2))],
            1,
        );
        let j = serde_json::to_string(&g).unwrap();
        assert_eq!(
            j,
            r#"{"lists":[[1],[0,2],[]],"clean":[0,1,0],"fillers":[0,1,0]}"#
        );
        let older: Adjacency =
            serde_json::from_str(r#"{"lists":[[1],[0,2],[]],"clean":[0,1,0]}"#).unwrap();
        assert_eq!(older.filler_len(1), 0);
        assert_ne!(older, g);
        let mut back: Adjacency = serde_json::from_str(&j).unwrap();
        assert_eq!(g, back);
        assert!(back.distances(1).iter().all(|x| x.is_nan()));
        back.restore_distances(&store);
        for v in 0..3 {
            assert_eq!(back.distances(v), g.distances(v));
        }
        assert_eq!(back.distances(1), &[9.0, 16.0]);
    }

    #[test]
    fn bytes_count_ids_and_distances() {
        let mut g = Adjacency::new(2);
        let empty = g.bytes();
        g.add_edge(0, 1, 1.0);
        assert_eq!(g.bytes() - empty, 8, "4 B of id and 4 B of distance");
    }
}
