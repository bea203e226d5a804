//! Contiguous vector storage.
//!
//! [`VectorStore`] keeps fixed-dimension vectors in one flat `Vec<f32>`
//! buffer: dense ids, cache-friendly scans, trivial serialization. It is the
//! backing store of every graph index in `mqa-graph`.
//!
//! [`MultiVectorStore`] layers the multi-modal schema on top: each object's
//! modalities are stored *concatenated* (the unified-index layout of the
//! paper), with per-modality views for the MR baseline's per-modality
//! indexes.

use crate::multivec::{MultiVector, Schema};
use crate::{Dim, VecId};
use serde::{Deserialize, Serialize};

/// A growable collection of fixed-dimension `f32` vectors in contiguous
/// memory. Ids are dense and assigned in insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorStore {
    dim: Dim,
    data: Vec<f32>,
}

impl VectorStore {
    /// Creates an empty store for vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: Dim) -> Self {
        assert!(dim > 0, "vector store requires non-zero dimension");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty store with capacity for `n` vectors.
    pub fn with_capacity(dim: Dim, n: usize) -> Self {
        assert!(dim > 0, "vector store requires non-zero dimension");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        // INVARIANT: dim >= 1 is enforced at construction.
        self.data.len() / self.dim
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a vector, returning its id.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`, or if the store would exceed `u32::MAX`
    /// vectors.
    pub fn push(&mut self, v: &[f32]) -> VecId {
        assert_eq!(v.len(), self.dim, "push: dimension mismatch");
        let id = self.len();
        assert!(id <= u32::MAX as usize, "vector store overflow");
        self.data.extend_from_slice(v);
        id as VecId
    }

    /// Borrow of vector `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: VecId) -> &[f32] {
        let start = id as usize * self.dim;
        // INVARIANT: ids are handed out by push (id < len()) and data.len()
        // is an exact multiple of dim.
        &self.data[start..start + self.dim]
    }

    /// Mutable borrow of vector `id`.
    pub fn get_mut(&mut self, id: VecId) -> &mut [f32] {
        let start = id as usize * self.dim;
        // INVARIANT: ids are handed out by push (id < len()) and
        // data.len() is an exact multiple of dim.
        &mut self.data[start..start + self.dim]
    }

    /// Iterator over `(id, vector)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VecId, &[f32])> {
        self.data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(i, v)| (i as VecId, v))
    }

    /// Raw flat buffer (length `len() * dim()`).
    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    /// Approximate resident size in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Multi-modal object storage: concatenated layout plus per-modality views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVectorStore {
    schema: Schema,
    /// Concatenated (schema.total_dim) representation per object.
    concat: VectorStore,
    /// Presence mask per object per modality (missing modalities are stored
    /// as zero blocks in `concat`).
    present: Vec<Vec<bool>>,
}

impl MultiVectorStore {
    /// Creates an empty store for objects of the given schema.
    pub fn new(schema: Schema) -> Self {
        let dim = schema.total_dim();
        Self {
            schema,
            concat: VectorStore::new(dim),
            present: Vec::new(),
        }
    }

    /// The schema shared by all stored objects.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.concat.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.concat.is_empty()
    }

    /// Appends an object, returning its id.
    pub fn push(&mut self, mv: &MultiVector) -> VecId {
        assert_eq!(
            mv.arity(),
            self.schema.arity(),
            "push: modality arity mismatch"
        );
        let flat = mv.concat(&self.schema);
        // ALLOC: per-inserted-object presence mask (build/mutation path).
        let mask = (0..mv.arity()).map(|m| mv.part(m).is_some()).collect();
        self.present.push(mask);
        self.concat.push(&flat)
    }

    /// The concatenated vector of object `id` (missing modalities are zero
    /// blocks).
    #[inline]
    pub fn concat_of(&self, id: VecId) -> &[f32] {
        self.concat.get(id)
    }

    /// View of modality `m` of object `id`, or `None` if that modality was
    /// missing at insertion.
    pub fn part_of(&self, id: VecId, m: usize) -> Option<&[f32]> {
        // An unknown id or modality index reads as a missing part rather
        // than panicking mid-retrieval.
        if !*self
            .present
            .get(id as usize)
            .and_then(|mask| mask.get(m))
            .unwrap_or(&false)
        {
            return None;
        }
        let off = self.schema.offset(m);
        // INVARIANT: the presence mask above proves id and m valid, and
        // schema offsets/dims partition each concatenated vector.
        Some(&self.concat.get(id)[off..off + self.schema.dim(m)])
    }

    /// Reconstructs the full [`MultiVector`] of object `id`.
    pub fn multivector_of(&self, id: VecId) -> MultiVector {
        let parts = (0..self.schema.arity())
            // ALLOC: an owned copy of the object's parts, bounded by the modality arity.
            .map(|m| self.part_of(id, m).map(|v| v.to_vec()))
            .collect();
        MultiVector::partial(&self.schema, parts)
    }

    /// Extracts a single-modality [`VectorStore`] (copy) for the MR
    /// baseline's per-modality indexes. Missing modalities contribute their
    /// zero block.
    pub fn modality_store(&self, m: usize) -> VectorStore {
        let d = self.schema.dim(m);
        let off = self.schema.offset(m);
        let mut out = VectorStore::with_capacity(d, self.len());
        for id in 0..self.len() {
            let flat = self.concat.get(crate::cast::vec_id(id));
            // INVARIANT: off + d <= total_dim = flat.len() by the schema.
            out.push(&flat[off..off + d]);
        }
        out
    }

    /// Builds a weighted-concatenation [`VectorStore`]: each modality block
    /// scaled by `sqrt(w_m)` so plain L2 equals the fused weighted distance
    /// (see [`crate::multivec::Weights::scale_concat`]).
    pub fn weighted_store(&self, weights: &crate::multivec::Weights) -> VectorStore {
        let mut out = VectorStore::with_capacity(self.schema.total_dim(), self.len());
        for id in 0..self.len() {
            let mut flat = self.concat.get(id as VecId).to_vec();
            weights.scale_concat(&self.schema, &mut flat);
            out.push(&flat);
        }
        out
    }

    /// Approximate resident size in bytes.
    pub fn bytes(&self) -> usize {
        self.concat.bytes() + self.present.len() * self.schema.arity()
    }

    /// Audits the store's structural invariants and returns every
    /// violation found (empty = sound).
    ///
    /// Checked invariants:
    /// - the flat buffer's dimension equals the schema's total dimension;
    /// - there is exactly one presence mask per object, each with one flag
    ///   per modality;
    /// - every stored component is finite;
    /// - a modality flagged absent is stored as an all-zero block (the
    ///   layout contract `push` establishes and distance kernels rely on).
    pub fn validate(&self) -> Vec<StoreViolation> {
        let mut out = Vec::new();
        if self.concat.dim() != self.schema.total_dim() {
            out.push(StoreViolation::DimensionMismatch {
                expected: self.schema.total_dim(),
                got: self.concat.dim(),
            });
            return out; // block offsets below would be meaningless
        }
        if self.present.len() != self.concat.len() {
            out.push(StoreViolation::MaskCount {
                expected: self.concat.len(),
                got: self.present.len(),
            });
        }
        let arity = self.schema.arity();
        for (id, mask) in self.present.iter().enumerate().take(self.concat.len()) {
            let id = id as VecId;
            if mask.len() != arity {
                out.push(StoreViolation::MaskArity {
                    id,
                    expected: arity,
                    got: mask.len(),
                });
                continue;
            }
            let flat = self.concat.get(id);
            if flat.iter().any(|x| !x.is_finite()) {
                out.push(StoreViolation::NonFinite { id });
            }
            for (m, &present) in mask.iter().enumerate() {
                let off = self.schema.offset(m);
                // INVARIANT: modality blocks partition each concat row.
                let block = &flat[off..off + self.schema.dim(m)];
                if !present && block.iter().any(|&x| x != 0.0) {
                    out.push(StoreViolation::GhostBlock { id, modality: m });
                }
            }
        }
        out
    }
}

/// A structural defect in a [`MultiVectorStore`], reported by
/// [`MultiVectorStore::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreViolation {
    /// The flat buffer's dimension disagrees with the schema.
    DimensionMismatch {
        /// The schema's total dimension.
        expected: usize,
        /// The buffer's dimension.
        got: usize,
    },
    /// Presence-mask count differs from the object count.
    MaskCount {
        /// The object count.
        expected: usize,
        /// The mask count.
        got: usize,
    },
    /// A presence mask with the wrong number of modality flags.
    MaskArity {
        /// The affected object.
        id: VecId,
        /// The schema arity.
        expected: usize,
        /// The mask's flag count.
        got: usize,
    },
    /// A NaN or infinite component in an object's stored data.
    NonFinite {
        /// The affected object.
        id: VecId,
    },
    /// Non-zero data stored in a modality block flagged absent.
    GhostBlock {
        /// The affected object.
        id: VecId,
        /// The modality whose block should be zero.
        modality: usize,
    },
}

impl std::fmt::Display for StoreViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "store dimension {got} != schema total dimension {expected}"
                )
            }
            Self::MaskCount { expected, got } => {
                write!(f, "{got} presence masks for {expected} objects")
            }
            Self::MaskArity { id, expected, got } => {
                write!(
                    f,
                    "object {id}: mask has {got} flags, schema arity is {expected}"
                )
            }
            Self::NonFinite { id } => write!(f, "object {id}: non-finite component"),
            Self::GhostBlock { id, modality } => {
                write!(
                    f,
                    "object {id}: absent modality {modality} has non-zero data"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multivec::Weights;
    use crate::ops;

    #[test]
    fn push_get_round_trip() {
        let mut s = VectorStore::new(3);
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(b), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dim_panics() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut s = VectorStore::new(1);
        for i in 0..5 {
            s.push(&[i as f32]);
        }
        let ids: Vec<VecId> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn get_mut_modifies_in_place() {
        let mut s = VectorStore::new(2);
        let id = s.push(&[1.0, 1.0]);
        s.get_mut(id)[0] = 9.0;
        assert_eq!(s.get(id), &[9.0, 1.0]);
    }

    #[test]
    fn bytes_tracks_size() {
        let mut s = VectorStore::new(4);
        s.push(&[0.0; 4]);
        assert_eq!(s.bytes(), 16);
    }

    fn mv_store() -> (Schema, MultiVectorStore) {
        let schema = Schema::text_image(2, 3);
        let store = MultiVectorStore::new(schema.clone());
        (schema, store)
    }

    #[test]
    fn multivector_round_trip() {
        let (schema, mut store) = mv_store();
        let mv = MultiVector::complete(&schema, vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        let id = store.push(&mv);
        assert_eq!(store.multivector_of(id), mv);
        assert_eq!(store.part_of(id, 0).unwrap(), &[1.0, 2.0]);
        assert_eq!(store.part_of(id, 1).unwrap(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn missing_modality_round_trip() {
        let (schema, mut store) = mv_store();
        let mv = MultiVector::partial(&schema, vec![None, Some(vec![1.0, 1.0, 1.0])]);
        let id = store.push(&mv);
        assert!(store.part_of(id, 0).is_none());
        assert_eq!(store.multivector_of(id), mv);
        // concat layout imputes zeros for the missing text block
        assert_eq!(&store.concat_of(id)[..2], &[0.0, 0.0]);
    }

    #[test]
    fn modality_store_extracts_blocks() {
        let (schema, mut store) = mv_store();
        store.push(&MultiVector::complete(
            &schema,
            vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]],
        ));
        store.push(&MultiVector::complete(
            &schema,
            vec![vec![6.0, 7.0], vec![8.0, 9.0, 10.0]],
        ));
        let text = store.modality_store(0);
        assert_eq!(text.dim(), 2);
        assert_eq!(text.get(1), &[6.0, 7.0]);
        let image = store.modality_store(1);
        assert_eq!(image.get(0), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn weighted_store_reproduces_fused_distance() {
        let (schema, mut store) = mv_store();
        let a = MultiVector::complete(&schema, vec![vec![1.0, 0.0], vec![0.0, 1.0, 0.5]]);
        let b = MultiVector::complete(&schema, vec![vec![0.0, 1.0], vec![1.0, 0.0, -0.5]]);
        store.push(&a);
        store.push(&b);
        let w = Weights::normalized(&[3.0, 1.0]);
        let ws = store.weighted_store(&w);
        let flat_dist = ops::l2_sq(ws.get(0), ws.get(1));
        let fused = a.fused_distance(&b, &w);
        assert!((flat_dist - fused).abs() < 1e-5);
    }

    #[test]
    fn serde_round_trip() {
        let (schema, mut store) = mv_store();
        store.push(&MultiVector::complete(
            &schema,
            vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]],
        ));
        let j = serde_json::to_string(&store).unwrap();
        let back: MultiVectorStore = serde_json::from_str(&j).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn validate_accepts_sound_store() {
        let (schema, mut store) = mv_store();
        store.push(&MultiVector::complete(
            &schema,
            vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]],
        ));
        store.push(&MultiVector::partial(
            &schema,
            vec![Some(vec![6.0, 7.0]), None],
        ));
        let violations = store.validate();
        assert!(violations.is_empty(), "sound store flagged: {violations:?}");
        assert!(MultiVectorStore::new(schema).validate().is_empty());
    }

    #[test]
    fn validate_detects_corruption() {
        let (schema, mut sound) = mv_store();
        sound.push(&MultiVector::complete(
            &schema,
            vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]],
        ));
        sound.push(&MultiVector::partial(
            &schema,
            vec![Some(vec![6.0, 7.0]), None],
        ));

        // A NaN smuggled into the flat buffer.
        let mut store = sound.clone();
        store.concat.get_mut(0)[1] = f32::NAN;
        assert!(store
            .validate()
            .iter()
            .any(|v| matches!(v, StoreViolation::NonFinite { id: 0 })));

        // Data written into an absent modality's zero block.
        let mut store = sound.clone();
        store.concat.get_mut(1)[2] = 0.5; // modality 1 of object 1 is absent
        assert!(store
            .validate()
            .iter()
            .any(|v| matches!(v, StoreViolation::GhostBlock { id: 1, modality: 1 })));

        // A lost presence mask.
        let mut store = sound.clone();
        store.present.pop();
        assert!(store.validate().iter().any(|v| matches!(
            v,
            StoreViolation::MaskCount {
                expected: 2,
                got: 1
            }
        )));

        // A mask with the wrong arity.
        let mut store = sound;
        store.present[0].push(true);
        let v = store.validate();
        assert!(v
            .iter()
            .any(|x| matches!(x, StoreViolation::MaskArity { id: 0, .. })));
        for x in &v {
            assert!(!x.to_string().is_empty());
        }
    }
}
