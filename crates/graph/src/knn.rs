//! Approximate k-nearest-neighbour graph construction.
//!
//! NSG's pipeline starts from a kNN graph. For small stores an exact
//! `O(n²)` computation is fine; at scale we run **NN-descent-style
//! neighbour expansion**: initialize each vertex with random neighbours,
//! then repeatedly propose *neighbours of neighbours* as better candidates,
//! keeping the best `k`. Locality makes the proposals increasingly accurate
//! and the graph converges in a handful of rounds.

use crate::adjacency::Adjacency;
use crate::util::parallel_map;
use mqa_rng::StdRng;
use mqa_vector::{ops, Candidate, TopK, VecId, VectorStore};

/// Below this population the exact kNN graph is computed directly.
const EXACT_THRESHOLD: usize = 2_000;

/// Expansion rounds of the approximate construction.
const ITERS: usize = 5;

/// Maximum candidates examined per vertex per round.
const SAMPLE: usize = 60;

/// Builds a (possibly approximate) kNN graph over `store` with `k`
/// neighbours per vertex; `seed` drives the approximate construction's
/// random initialization.
///
/// # Panics
/// Panics if the store is empty or `k == 0`.
pub fn knn_graph(store: &VectorStore, k: usize, seed: u64) -> Adjacency {
    assert!(!store.is_empty(), "kNN graph over an empty store");
    assert!(k > 0, "kNN graph requires k >= 1");
    let n = store.len();
    if n <= EXACT_THRESHOLD {
        exact_knn(store, k)
    } else {
        nn_expansion(store, k, seed)
    }
}

/// Exact kNN graph by full pairwise scan (small stores only).
pub fn exact_knn(store: &VectorStore, k: usize) -> Adjacency {
    let n = store.len();
    let lists = parallel_map(n, |v| {
        let mut top = TopK::new(k.min(n.saturating_sub(1)).max(1));
        let qv = store.get(v);
        for (u, uv) in store.iter() {
            if u == v {
                continue;
            }
            top.offer(Candidate::new(u, ops::l2_sq(qv, uv)));
        }
        top.into_sorted()
    });
    let mut g = Adjacency::new(n);
    for (v, list) in lists.into_iter().enumerate() {
        g.set_neighbors(v as VecId, &list);
    }
    g
}

/// NN-descent-style neighbour expansion.
fn nn_expansion(store: &VectorStore, k: usize, seed: u64) -> Adjacency {
    let n = store.len();
    let k = k.min(n - 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E6E);

    // Random initialization.
    let mut g = Adjacency::new(n);
    for v in 0..n as VecId {
        let mut nb: Vec<Candidate> = Vec::with_capacity(k);
        while nb.len() < k {
            let u = rng.gen_range(0..n) as VecId;
            if u != v && !nb.iter().any(|c| c.id == u) {
                nb.push(Candidate::new(u, ops::l2_sq(store.get(v), store.get(u))));
            }
        }
        g.set_neighbors(v, &nb);
    }

    for round in 0..ITERS {
        let lists = parallel_map(n, |v| {
            let qv = store.get(v);
            let mut top = TopK::new(k);
            let mut seen: Vec<VecId> = Vec::with_capacity(SAMPLE + k);
            // current neighbours
            for &u in g.neighbors(v) {
                seen.push(u);
            }
            // neighbours of neighbours, bounded by `sample`
            'outer: for &u in g.neighbors(v) {
                for &w in g.neighbors(u) {
                    if w != v && !seen.contains(&w) {
                        seen.push(w);
                        if seen.len() >= SAMPLE + k {
                            break 'outer;
                        }
                    }
                }
            }
            // a pinch of random restarts keeps disconnected clumps merging;
            // derive per-vertex randomness from the round and vertex id.
            let mut local = StdRng::seed_from_u64(seed ^ (round as u64) << 32 ^ v as u64);
            for _ in 0..4 {
                let u = local.gen_range(0..n) as VecId;
                if u != v && !seen.contains(&u) {
                    seen.push(u);
                }
            }
            for u in seen {
                top.offer(Candidate::new(u, ops::l2_sq(qv, store.get(u))));
            }
            top.into_sorted()
        });
        for (v, list) in lists.into_iter().enumerate() {
            g.set_neighbors(v as VecId, &list);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn exact_knn_on_line() {
        let mut store = VectorStore::new(1);
        for i in 0..6 {
            store.push(&[i as f32]);
        }
        let g = exact_knn(&store, 2);
        // vertex 0's nearest are 1 and 2
        assert_eq!(g.neighbors(0), &[1, 2]);
        // vertex 3's nearest are 2 and 4 (either order by distance ties)
        let nb3: Vec<_> = g.neighbors(3).to_vec();
        assert!(nb3.contains(&2) && nb3.contains(&4));
    }

    #[test]
    fn knn_graph_has_requested_degree() {
        let store = random_store(300, 8, 1);
        let g = knn_graph(&store, 10, 0);
        for v in 0..300u32 {
            assert_eq!(g.degree(v), 10);
        }
    }

    #[test]
    fn no_self_loops() {
        let store = random_store(100, 4, 2);
        let g = knn_graph(&store, 5, 0);
        for v in 0..100u32 {
            assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn approximate_recall_is_high() {
        // Force the approximate path by exceeding the threshold.
        let store = random_store(EXACT_THRESHOLD + 500, 8, 3);
        let k = 10;
        let approx = nn_expansion(&store, k, 0);
        let exact = exact_knn(&store, k);
        // measure recall on a sample of vertices
        let mut hit = 0usize;
        let mut total = 0usize;
        for v in (0..store.len() as u32).step_by(50) {
            let truth = exact.neighbors(v);
            for u in approx.neighbors(v) {
                if truth.contains(u) {
                    hit += 1;
                }
            }
            total += truth.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.8, "kNN expansion recall too low: {recall}");
    }

    #[test]
    fn k_capped_by_population() {
        let store = random_store(3, 2, 4);
        let g = knn_graph(&store, 10, 0);
        for v in 0..3u32 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn empty_store_panics() {
        knn_graph(&VectorStore::new(2), 20, 0);
    }
}
