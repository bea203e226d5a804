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
use crate::validate::InvariantViolation;
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
    ///
    /// # Errors
    /// Returns what is wrong with a snapshot whose graph does not cover
    /// exactly the store population, or which assembles into an index that
    /// fails [`crate::unified::IndexSnapshot::validate`] (weights of the
    /// wrong arity included).
    pub fn restore(self) -> Result<UnifiedIndex, Vec<InvariantViolation>> {
        if self.graph.len() != self.store.len() {
            return Err(vec![InvariantViolation::SizeMismatch {
                context: "snapshot graph population".to_string(),
                expected: self.store.len(),
                got: self.graph.len(),
            }]);
        }
        let index = UnifiedIndex::from_parts(
            self.store,
            self.weights,
            self.graph,
            self.algorithm,
            self.tombstones,
        );
        let violations = index.current().validate(index.weights());
        if violations.is_empty() {
            Ok(index)
        } else {
            Err(violations)
        }
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
                .restore()
                .expect("sound snapshot");
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
            .restore()
            .expect("sound snapshot");
        assert_eq!(restored.live_len(), 197);
        let snap = restored.current();
        for id in [3u32, 64, 127] {
            assert!(snap.tombstones().is_dead(id), "id {id} lost its tombstone");
        }
        let after = restored.search(&q, None, 10, 48).ids();
        assert_eq!(before, after, "restored search must keep filtering");
    }

    /// Every edge of every layer with the bits of its stored distance.
    fn stored_edges(graph: &BuiltGraph) -> Vec<(usize, u32, u32, u32)> {
        let layers = match graph {
            BuiltGraph::Nav(nav) => std::slice::from_ref(nav.graph()),
            BuiltGraph::Hnsw(h) => h.layers(),
            _ => &[],
        };
        let mut out = Vec::new();
        for (level, layer) in layers.iter().enumerate() {
            for v in 0..layer.len() as u32 {
                for c in layer.edges_of(v) {
                    out.push((level, v, c.id, c.dist.to_bits()));
                }
            }
        }
        out
    }

    /// A grown-and-compacted index saved and restored is the same index:
    /// equal graph (clean-prefix records included, and — compared bit for
    /// bit, since graph equality does not look at them — the stored edge
    /// distances the JSON leaves out, recomputed), and it keeps growing
    /// into exactly the graph the never-saved original grows into — the
    /// restored vectors, records and distances drive the same re-prunes to
    /// the bit.
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
        for algo in [
            IndexAlgorithm::vamana(),
            IndexAlgorithm::mqa_graph(),
            IndexAlgorithm::hnsw(),
        ] {
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
                .restore()
                .expect("sound snapshot");
            let saved = stored_edges(&idx.snapshot().graph);
            assert!(saved.len() > 1_000, "{}: a real graph", algo.name());
            assert_eq!(stored_edges(&restored.snapshot().graph), saved);
            assert_eq!(restored.snapshot().graph, idx.snapshot().graph);
            idx.add_objects(&batch(80, 120)).expect("original grows");
            restored
                .add_objects(&batch(80, 120))
                .expect("restored grows");
            assert_eq!(
                stored_edges(&restored.snapshot().graph),
                stored_edges(&idx.snapshot().graph),
                "{}: growth diverged after the round trip",
                algo.name()
            );
            assert_eq!(restored.snapshot().graph, idx.snapshot().graph);
            let violations = restored.current().validate(restored.weights());
            assert!(violations.is_empty(), "{}: {violations:?}", algo.name());
        }
    }

    /// The first adjacency object (the one with a `clean` record) in a
    /// parsed snapshot: a navgraph's graph, or an HNSW index's base layer.
    fn first_adjacency(value: &mut serde::Value) -> Option<&mut Vec<(String, serde::Value)>> {
        match value {
            serde::Value::Object(entries) => {
                if entries.iter().any(|(k, _)| k == "clean") {
                    return Some(entries);
                }
                entries.iter_mut().find_map(|(_, v)| first_adjacency(v))
            }
            serde::Value::Array(items) => items.iter_mut().find_map(first_adjacency),
            _ => None,
        }
    }

    /// The `u32` records `name` of a parsed adjacency object.
    fn records(adjacency: &mut [(String, serde::Value)], name: &str) -> Vec<u32> {
        let (_, v) = adjacency.iter().find(|(k, _)| k == name).expect(name);
        <Vec<u32> as serde::Deserialize>::from_value(v).expect("a record array")
    }

    /// Replaces the `u32` records `name` of a parsed adjacency object.
    fn set_records(adjacency: &mut [(String, serde::Value)], name: &str, to: &[u32]) {
        if let Some((_, v)) = adjacency.iter_mut().find(|(k, _)| k == name) {
            *v = serde::Serialize::to_value(&to.to_vec());
        }
    }

    /// `json` as an HNSW snapshot was written before its lists recorded
    /// what the heuristic kept and filled: every `clean` record zero and
    /// no `fillers` record.
    fn without_records(json: &str) -> String {
        fn strip(value: &mut serde::Value) {
            match value {
                serde::Value::Object(entries) => {
                    entries.retain(|(k, _)| k != "fillers");
                    for (k, v) in entries.iter_mut() {
                        match (k.as_str(), v) {
                            ("clean", serde::Value::Array(items)) => items
                                .iter_mut()
                                .for_each(|c| *c = serde::Value::Number(serde::Number::UInt(0))),
                            (_, v) => strip(v),
                        }
                    }
                }
                serde::Value::Array(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let mut value = serde_json::parse_value_str(json).expect("snapshot JSON");
        strip(&mut value);
        serde_json::to_string(&value).expect("serializes")
    }

    /// An HNSW snapshot in the format written before the kept and filler
    /// records — `clean` all zero, no `fillers` — still restores, validates
    /// clean and grows into the same lists as the original: a list without
    /// records is re-pruned testing everything, and records itself from
    /// then on.
    #[test]
    fn hnsw_snapshot_without_records_grows_like_the_original() {
        let donors = store(60, 14);
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
        let idx = UnifiedIndex::build(
            store(300, 13),
            Weights::normalized(&[1.3, 0.7]),
            Metric::L2,
            &IndexAlgorithm::hnsw(),
        );
        idx.add_objects(&batch(0, 30)).expect("growth");
        let doomed: Vec<u32> = (0..330).step_by(4).collect();
        assert!(idx.remove_objects(&doomed).expect("in range").compacted);
        let json = idx.snapshot().to_json().expect("finite snapshot");
        let older = without_records(&json);
        assert!(!older.contains("fillers") && json.contains("fillers"));
        let restored = UnifiedSnapshot::from_json(&older)
            .expect("the older format parses")
            .restore()
            .expect("the older format restores");
        assert_ne!(
            restored.snapshot().graph,
            idx.snapshot().graph,
            "no records"
        );
        assert_eq!(
            stored_edges(&restored.snapshot().graph),
            stored_edges(&idx.snapshot().graph)
        );
        idx.add_objects(&batch(30, 60)).expect("original grows");
        restored
            .add_objects(&batch(30, 60))
            .expect("restored grows");
        assert_eq!(
            stored_edges(&restored.snapshot().graph),
            stored_edges(&idx.snapshot().graph),
            "growth diverged without the records"
        );
        let violations = restored.current().validate(restored.weights());
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Red path: a restored HNSW snapshot whose base layer claims one more
    /// kept entry for a vertex — its first filler, relabelled — is refused
    /// with exactly one violation, for that vertex, whether or not the
    /// index has compacted (the two generations are validated by
    /// different paths).
    #[test]
    fn forged_hnsw_kept_count_is_refused() {
        for compacted in [false, true] {
            let idx = UnifiedIndex::build(
                store(300, 15),
                Weights::normalized(&[1.3, 0.7]),
                Metric::L2,
                &IndexAlgorithm::hnsw(),
            );
            if compacted {
                let doomed: Vec<u32> = (1..300).step_by(4).collect();
                assert!(idx.remove_objects(&doomed).expect("in range").compacted);
            }
            let json = idx.snapshot().to_json().expect("finite snapshot");
            let restored = UnifiedSnapshot::from_json(&json)
                .expect("round trips")
                .restore()
                .expect("sound snapshot");
            let json = restored.snapshot().to_json().expect("finite snapshot");
            let mut value = serde_json::parse_value_str(&json).expect("snapshot JSON");
            let base = first_adjacency(&mut value).expect("an HNSW base layer");
            let (mut clean, mut fillers) = (records(base, "clean"), records(base, "fillers"));
            let v = (0..clean.len())
                .find(|&v| clean[v] > 0 && fillers[v] > 0)
                .expect("some list holds kept entries and fillers");
            clean[v] += 1;
            fillers[v] -= 1;
            set_records(base, "clean", &clean);
            set_records(base, "fillers", &fillers);
            let forged = serde_json::to_string(&value).expect("serializes");
            let violations = refused(UnifiedSnapshot::from_json(&forged).expect("well-formed"));
            let forged_clean = clean[v] as usize;
            assert!(
                matches!(
                    violations.as_slice(),
                    [InvariantViolation::FalseCleanPrefix { id, clean, .. }]
                        if *id as usize == v && *clean == forged_clean
                ),
                "compacted {compacted}: {violations:?}"
            );
        }
    }

    /// The `layers` array of a parsed HNSW snapshot.
    fn hnsw_layers(value: &mut serde::Value) -> Option<&mut Vec<serde::Value>> {
        match value {
            serde::Value::Object(entries) => entries.iter_mut().find_map(|(k, v)| {
                if k != "layers" {
                    return hnsw_layers(v);
                }
                match v {
                    serde::Value::Array(layers) => Some(layers),
                    _ => None,
                }
            }),
            serde::Value::Array(items) => items.iter_mut().find_map(hnsw_layers),
            _ => None,
        }
    }

    /// Red path: an HNSW upper layer one vertex longer than the store,
    /// with records that name that vertex — as the list holding a kept
    /// entry, or as a kept entry of another list — is refused with
    /// violations instead of panicking on a read of the missing row. Both
    /// used to panic in the compacted path of
    /// [`crate::unified::IndexSnapshot::validate`], which checked the
    /// records of a layer it had not checked the length of.
    #[test]
    fn over_long_hnsw_layer_is_refused_without_reading_past_the_store() {
        const N: u32 = 300;
        for (compacted, kept_id_past_the_store) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let idx = UnifiedIndex::build(
                store(N as usize, 15),
                Weights::normalized(&[1.3, 0.7]),
                Metric::L2,
                &IndexAlgorithm::hnsw(),
            );
            if compacted {
                let doomed: Vec<u32> = (1..N).step_by(4).collect();
                assert!(idx.remove_objects(&doomed).expect("in range").compacted);
            }
            let json = idx.snapshot().to_json().expect("finite snapshot");
            let mut value = serde_json::parse_value_str(&json).expect("snapshot JSON");
            let Some(serde::Value::Object(layer)) =
                hnsw_layers(&mut value).and_then(|layers| layers.get_mut(1))
            else {
                panic!("an HNSW layer above the base");
            };
            let (_, lists) = layer.iter().find(|(k, _)| k == "lists").expect("lists");
            let mut lists =
                <Vec<Vec<u32>> as serde::Deserialize>::from_value(lists).expect("adjacency lists");
            let (mut clean, mut fillers) = (records(layer, "clean"), records(layer, "fillers"));
            if kept_id_past_the_store {
                let v = lists
                    .iter()
                    .position(|l| !l.is_empty())
                    .expect("an upper list");
                lists[v].insert(0, N);
                clean[v] += 1;
                lists.push(Vec::new());
                clean.push(0);
            } else {
                let u = lists
                    .iter()
                    .position(|l| !l.is_empty())
                    .expect("an upper vertex");
                lists.push(vec![u as u32]);
                clean.push(1);
            }
            fillers.push(0);
            if let Some((_, v)) = layer.iter_mut().find(|(k, _)| k == "lists") {
                *v = serde::Serialize::to_value(&lists);
            }
            set_records(layer, "clean", &clean);
            set_records(layer, "fillers", &fillers);
            let forged = serde_json::to_string(&value).expect("serializes");
            let violations = refused(UnifiedSnapshot::from_json(&forged).expect("well-formed"));
            let context = match compacted {
                true => "unified snapshot hnsw layer 1 population",
                false => "hnsw layer 1 population",
            };
            assert!(
                violations.contains(&InvariantViolation::SizeMismatch {
                    context: context.to_string(),
                    expected: N as usize,
                    got: N as usize + 1,
                }),
                "compacted {compacted}: {violations:?}"
            );
            assert!(
                !violations
                    .iter()
                    .any(|v| matches!(v, InvariantViolation::FalseCleanPrefix { .. })),
                "compacted {compacted}: records read past the store: {violations:?}"
            );
        }
    }

    /// Regression: `from_parts` checks lengths only, so a snapshot file
    /// can carry edge and entry ids beyond the population; the walk used
    /// to index its visited stamps with them and panic on the serving
    /// path. `restore` refuses such a snapshot; an index assembled from it
    /// anyway dead-ends on them (the documented behaviour of
    /// `Adjacency::neighbors`) and changes no answer, while validation
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
        let forged = UnifiedSnapshot::from_json(&forged).expect("forged ids are well-formed JSON");
        let refused = forged.clone().restore().err().expect("forged ids");
        assert!(refused.iter().any(|v| matches!(
            v,
            crate::validate::InvariantViolation::IdOutOfRange { id: FORGED, .. }
        )));
        let restored = UnifiedIndex::from_parts(
            forged.store,
            forged.weights,
            forged.graph,
            forged.algorithm,
            forged.tombstones,
        );
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

    /// Regression: a compacted generation skipped the adjacency check and
    /// went straight to the clean-prefix check, which read the vector of a
    /// forged neighbour id and panicked. The forgery is reported instead,
    /// as it is in a generation that never compacted.
    #[test]
    fn forged_id_in_a_compacted_snapshot_is_reported() {
        const FORGED: u32 = 4_000_000;
        let idx = UnifiedIndex::build(
            store(300, 23),
            Weights::normalized(&[1.3, 0.7]),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        );
        let doomed: Vec<u32> = (0..300).step_by(3).collect();
        assert!(idx.remove_objects(&doomed).expect("in range").compacted);
        let json = idx.snapshot().to_json().expect("finite snapshot");
        // Vertex 1's list is the second one; the forged id goes in front,
        // inside its clean prefix.
        let start = json.find("\"lists\":[[").expect("navgraph lists");
        let second = start + json[start..].find("],[").expect("a second list") + 3;
        let forged = format!("{}{FORGED},{}", &json[..second], &json[second..]);
        let violations = UnifiedSnapshot::from_json(&forged)
            .expect("a forged id is well-formed JSON")
            .restore()
            .err()
            .expect("a forged id does not restore");
        assert!(
            violations.iter().any(|v| matches!(
                v,
                crate::validate::InvariantViolation::IdOutOfRange { id: FORGED, .. }
            )),
            "{violations:?}"
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
        let restored = idx.snapshot().restore().expect("sound snapshot");
        assert_eq!(restored.build_time(), std::time::Duration::ZERO);
        assert_eq!(restored.len(), 100);
    }

    /// What `restore` reports for a snapshot it must refuse.
    fn refused(snap: UnifiedSnapshot) -> Vec<InvariantViolation> {
        snap.restore()
            .err()
            .expect("a broken snapshot must not restore")
    }

    /// A graph that does not cover exactly the store population — more
    /// objects than the store holds, or 60 of its 100 — is refused; both
    /// used to panic inside `restore`.
    #[test]
    fn mismatched_parts_rejected() {
        let snapshot = |n| {
            let idx = UnifiedIndex::build(
                store(n, 3),
                Weights::uniform(2),
                Metric::L2,
                &IndexAlgorithm::mqa_graph(),
            );
            idx.snapshot()
        };
        for (objects, vertices) in [(10, 50), (100, 60)] {
            let mut snap = snapshot(objects);
            snap.graph = snapshot(vertices).graph;
            assert_eq!(
                refused(snap),
                vec![InvariantViolation::SizeMismatch {
                    context: "snapshot graph population".to_string(),
                    expected: objects,
                    got: vertices,
                }]
            );
        }
    }

    /// Weights of arity 3 over a 2-modality schema used to restore and
    /// validate clean, and the first search then panicked in the scanner.
    #[test]
    fn weights_of_the_wrong_arity_are_refused() {
        let idx = UnifiedIndex::build(
            store(100, 14),
            Weights::uniform(2),
            Metric::L2,
            &IndexAlgorithm::mqa_graph(),
        );
        let mut snap = idx.snapshot();
        snap.weights = Weights::uniform(3);
        let violations = refused(snap);
        assert!(
            violations.contains(&InvariantViolation::SizeMismatch {
                context: "unified snapshot weights arity".to_string(),
                expected: 2,
                got: 3,
            }),
            "{violations:?}"
        );
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
