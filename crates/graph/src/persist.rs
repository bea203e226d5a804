//! Index persistence: snapshot a built [`UnifiedIndex`] to JSON and restore
//! it without rebuilding the graph.
//!
//! The paper's Flexibility feature includes index *deployment*: once a
//! navigation graph is built over a knowledge base it should be reusable
//! across sessions. A [`UnifiedSnapshot`] captures everything search needs
//! — the multi-vector store, the weights, the algorithm
//! configuration, and the built navigation structure
//! ([`crate::pipeline::BuiltGraph`]) — so a restored index answers queries
//! identically to the original, with none of the build cost.

use crate::live::Tombstones;
use crate::pipeline::{BuiltGraph, IndexAlgorithm};
use crate::unified::UnifiedIndex;
use mqa_vector::{MultiVectorStore, Weights};
use serde::{Deserialize, Serialize};

/// A complete persisted unified index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnifiedSnapshot {
    /// The multi-vector object store.
    pub store: MultiVectorStore,
    /// The build-time modality weights.
    pub weights: Weights,
    /// The algorithm configuration (for provenance / re-builds).
    pub algorithm: IndexAlgorithm,
    /// The built navigation structure.
    pub graph: BuiltGraph,
    /// The deletion state at snapshot time (all-live for an index that
    /// was never mutated).
    pub tombstones: Tombstones,
}

impl UnifiedSnapshot {
    /// Serializes to JSON.
    ///
    /// Validates the snapshot first: the serializer emits `null` for
    /// non-finite floats, which parses back but fails to restore into an
    /// `f32` — a snapshot that *looks* saved and then silently refuses to
    /// load. (The previous implementation went further and swallowed any
    /// serialization failure into an empty string.)
    ///
    /// # Errors
    /// Names the offending field when the snapshot holds a non-finite
    /// value; propagates the serializer message otherwise.
    pub fn to_json(&self) -> Result<String, String> {
        for (m, &w) in self.weights.as_slice().iter().enumerate() {
            if !w.is_finite() {
                return Err(format!("snapshot weight for modality {m} is {w}"));
            }
        }
        for id in 0..mqa_vector::cast::vec_id(self.store.len()) {
            if let Some(x) = self.store.concat_of(id).iter().find(|x| !x.is_finite()) {
                return Err(format!("snapshot vector {id} holds non-finite {x}"));
            }
        }
        serde_json::to_string(self).map_err(|e| e.to_string())
    }

    /// Restores from JSON.
    ///
    /// # Errors
    /// Returns the serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Reconstructs the live index, deletion state included: a restored
    /// index keeps filtering the same tombstoned ids as the original.
    pub fn restore(self) -> UnifiedIndex {
        UnifiedIndex::from_parts(
            self.store,
            self.weights,
            self.graph,
            self.algorithm,
            self.tombstones,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;
    use mqa_vector::{Metric, MultiVector, Schema};

    fn store(n: usize, seed: u64) -> MultiVectorStore {
        let schema = Schema::text_image(6, 6);
        let mut s = MultiVectorStore::new(schema.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let parts: Vec<Vec<f32>> = (0..2)
                .map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            s.push(&MultiVector::complete(&schema, parts));
        }
        s
    }

    fn query(seed: u64) -> MultiVector {
        let schema = Schema::text_image(6, 6);
        let mut rng = StdRng::seed_from_u64(seed);
        MultiVector::complete(
            &schema,
            (0..2)
                .map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
        )
    }

    #[test]
    fn snapshot_round_trip_preserves_search_results() {
        for algo in [
            IndexAlgorithm::Flat,
            IndexAlgorithm::hnsw(),
            IndexAlgorithm::nsg(),
            IndexAlgorithm::vamana(),
            IndexAlgorithm::mqa_graph(),
        ] {
            let idx = UnifiedIndex::build(
                store(300, 1),
                Weights::normalized(&[1.3, 0.7]),
                Metric::L2,
                &algo,
            );
            let q = query(9);
            let before = idx.search(&q, None, 10, 48).ids();
            let snapshot = idx.snapshot();
            let json = snapshot.to_json().expect("finite snapshot serializes");
            let restored = UnifiedSnapshot::from_json(&json)
                .expect("round trips")
                .restore();
            let after = restored.search(&q, None, 10, 48).ids();
            assert_eq!(before, after, "algorithm {}", algo.name());
            assert_eq!(restored.algorithm(), &algo);
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_tombstones() {
        let idx = UnifiedIndex::build(
            store(200, 8),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::hnsw(),
        );
        idx.remove_objects(&[3, 64, 127]).expect("in range");
        let q = query(10);
        let before = idx.search(&q, None, 10, 48).ids();
        let json = idx.snapshot().to_json().expect("finite snapshot");
        let restored = UnifiedSnapshot::from_json(&json)
            .expect("round trips")
            .restore();
        assert_eq!(restored.live_len(), 197);
        let snap = restored.current();
        for id in [3u32, 64, 127] {
            assert!(snap.tombstones().is_dead(id), "id {id} lost its tombstone");
        }
        let after = restored.search(&q, None, 10, 48).ids();
        assert_eq!(before, after, "restored search must keep filtering");
    }

    /// A grown-and-compacted index saved and restored is the same index:
    /// equal graph (clean-prefix records included), and it keeps growing
    /// into exactly the graph the never-saved original grows into — the
    /// restored vectors and records drive the same re-prunes to the bit.
    #[test]
    fn restored_index_keeps_growing_like_the_original() {
        let donors = store(120, 12);
        let batch = |from: u32, to: u32| -> Vec<MultiVector> {
            (from..to)
                .map(|id| {
                    let parts = (0..2)
                        .map(|m| donors.part_of(id, m).expect("complete").to_vec())
                        .collect();
                    MultiVector::complete(donors.schema(), parts)
                })
                .collect()
        };
        for algo in [IndexAlgorithm::vamana(), IndexAlgorithm::mqa_graph()] {
            let idx = UnifiedIndex::build(
                store(300, 11),
                Weights::normalized(&[1.3, 0.7]),
                Metric::L2,
                &algo,
            );
            idx.add_objects(&batch(0, 40)).expect("first growth");
            // A quarter of the ids crosses the 20% compaction threshold.
            let doomed: Vec<u32> = (0..340).step_by(4).collect();
            assert!(idx.remove_objects(&doomed).expect("in range").compacted);
            idx.add_objects(&batch(40, 80))
                .expect("growth after compaction");

            let json = idx.snapshot().to_json().expect("finite snapshot");
            let restored = UnifiedSnapshot::from_json(&json)
                .expect("round trips")
                .restore();
            assert_eq!(restored.snapshot().graph, idx.snapshot().graph);
            idx.add_objects(&batch(80, 120)).expect("original grows");
            restored
                .add_objects(&batch(80, 120))
                .expect("restored grows");
            assert_eq!(
                restored.snapshot().graph,
                idx.snapshot().graph,
                "{}: growth diverged after the round trip",
                algo.name()
            );
            let violations = restored.current().validate(restored.weights());
            assert!(violations.is_empty(), "{}: {violations:?}", algo.name());
        }
    }

    /// Regression: `from_parts` checks lengths only, so a snapshot file
    /// can carry edge and entry ids beyond the population; the walk used
    /// to index its visited stamps with them and panic on the serving
    /// path. They must dead-end (the documented behaviour of
    /// `Adjacency::neighbors`) and change no answer, while validation
    /// still reports them.
    #[test]
    fn forged_out_of_range_ids_dead_end_instead_of_panicking() {
        const FORGED: u32 = 4_000_000_000;
        let idx = UnifiedIndex::build(
            store(150, 21),
            Weights::normalized(&[1.3, 0.7]),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        );
        let json = idx.snapshot().to_json().expect("finite snapshot");
        // One forged edge at the end of every adjacency list but the last,
        // and a forged first entry vertex.
        let start = json.find("\"lists\":[[").expect("navgraph lists");
        let end = start + json[start..].find("]]").expect("end of lists");
        let lists = json[start..end].replace("],[", &format!(",{FORGED}],["));
        assert_ne!(lists, json[start..end]);
        let forged = format!("{}{}{}", &json[..start], lists, &json[end..]).replacen(
            "\"entries\":[",
            &format!("\"entries\":[{FORGED},"),
            1,
        );
        let restored = UnifiedSnapshot::from_json(&forged)
            .expect("forged ids are well-formed JSON")
            .restore();
        for seed in 30..40 {
            let q = query(seed);
            let want = idx.search(&q, None, 10, 48);
            let got = restored.search(&q, None, 10, 48);
            assert_eq!(got.ids(), want.ids(), "query {seed}");
            assert_eq!(got.output.stats, want.output.stats, "query {seed}");
        }
        let violations = restored.current().validate(restored.weights());
        assert!(
            violations.iter().any(|v| matches!(
                v,
                crate::validate::InvariantViolation::IdOutOfRange { id: FORGED, .. }
            )),
            "validation must still report the forged ids: {violations:?}"
        );
    }

    #[test]
    fn restored_index_has_zero_build_time() {
        let idx = UnifiedIndex::build(
            store(100, 2),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
        let restored = idx.snapshot().restore();
        assert_eq!(restored.build_time(), std::time::Duration::ZERO);
        assert_eq!(restored.len(), 100);
    }

    #[test]
    #[should_panic(expected = "does not match the store")]
    fn mismatched_parts_rejected() {
        let idx = UnifiedIndex::build(
            store(50, 3),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
        let mut snap = idx.snapshot();
        snap.store = store(10, 4); // wrong population
        snap.restore();
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(UnifiedSnapshot::from_json("{nope").is_err());
    }

    /// A snapshot whose graph is of the removed IVF family fails to load
    /// with an error that names the family.
    #[test]
    fn removed_ivf_graph_rejected() {
        let idx = UnifiedIndex::build(
            store(20, 7),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
        let json = idx.snapshot().to_json().expect("finite snapshot");
        let ivf = json.replacen("\"graph\":{\"Flat\":", "\"graph\":{\"Ivf\":", 1);
        assert_ne!(ivf, json);
        let err = UnifiedSnapshot::from_json(&ivf).expect_err("IVF must not load");
        assert!(err.contains("IVF index family was removed"), "{err}");
    }

    /// Regression: a snapshot holding a non-finite value used to
    /// serialize "successfully" (the value became JSON `null`, or any
    /// failure became `""`), producing a snapshot that silently refused
    /// to restore later. It must fail loudly at save time instead.
    #[test]
    fn non_finite_store_value_fails_at_save_time() {
        let idx = UnifiedIndex::build(
            store(20, 5),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
        let mut snap = idx.snapshot();
        let schema = Schema::text_image(6, 6);
        snap.store.push(&MultiVector::complete(
            &schema,
            vec![vec![f32::NAN; 6], vec![0.0; 6]],
        ));
        let err = snap.to_json().expect_err("NaN must not serialize");
        assert!(err.contains("non-finite"), "uninformative error: {err}");
        assert!(err.contains("20"), "error must name the vector: {err}");
    }

    /// And a healthy snapshot keeps round-tripping — the validation pass
    /// rejects nothing finite.
    #[test]
    fn finite_snapshot_serializes_ok() {
        let idx = UnifiedIndex::build(
            store(20, 6),
            Weights::normalized(&[0.4, 1.6]),
            Metric::L2,
            &IndexAlgorithm::Flat,
        );
        let json = idx.snapshot().to_json().expect("finite snapshot");
        assert!(UnifiedSnapshot::from_json(&json).is_ok());
    }
}
