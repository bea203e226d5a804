//! Small shared utilities for index construction.

use mqa_vector::{ops, VecId, VectorStore};

/// Runs `f(id)` for every id in `0..n` across scoped worker threads and
/// collects the results in id order. `f` must be pure with respect to the
/// shared captured state (construction passes read-only snapshots).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(VecId) -> T + Send + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if threads <= 1 || n < 256 {
        return (0..mqa_vector::cast::vec_id(n)).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<T> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                scope.spawn(move || (start..end).map(|i| f(i as VecId)).collect::<Vec<T>>())
            })
            .collect();
        // Joining in spawn order preserves id order; a worker panic is
        // re-raised on the caller thread once every sibling has finished.
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// The medoid of a store: the vector closest (under L2) to the
/// elementwise mean. Standard entry-point choice of NSG/Vamana.
///
/// # Panics
/// Panics if the store is empty.
pub fn medoid(store: &VectorStore) -> VecId {
    assert!(!store.is_empty(), "medoid of an empty store");
    let dim = store.dim();
    let mut mean = vec![0.0f32; dim];
    for (_, v) in store.iter() {
        ops::axpy(1.0, v, &mut mean);
    }
    ops::scale(1.0 / mqa_vector::cast::count_f32(store.len()), &mut mean);
    let mut best = 0 as VecId;
    let mut best_d = f32::INFINITY;
    for (id, v) in store.iter() {
        let d = ops::l2_sq(&mean, v);
        if d < best_d {
            best_d = d;
            best = id;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(1000, |id| id * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u32) * 2);
        }
    }

    #[test]
    fn parallel_map_small_input() {
        assert_eq!(parallel_map(3, |id| id + 1), vec![1, 2, 3]);
        assert!(parallel_map(0, |id| id).is_empty());
    }

    #[test]
    fn medoid_of_cluster() {
        let mut store = VectorStore::new(1);
        for x in [0.0f32, 1.0, 2.0, 10.0] {
            store.push(&[x]);
        }
        // mean = 3.25; closest point is 2.0 (id 2)
        assert_eq!(medoid(&store), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn medoid_empty_panics() {
        medoid(&VectorStore::new(2));
    }
}
