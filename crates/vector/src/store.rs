//! Segmented, copy-on-write vector storage.
//!
//! [`VectorStore`] keeps fixed-dimension vectors in fixed segments of
//! [`SEGMENT_ROWS`] rows, each one shared `Arc<[f32]>`: dense ids, rows
//! contiguous within a segment, and a clone that shares every segment. A
//! generation that appends to a clone copies only the tail segment it
//! writes into, and only while another generation still holds it, so an
//! insert costs the rows it adds plus at most one segment — not the
//! store. It is the backing store of every graph index in `mqa-graph`.
//!
//! [`MultiVectorStore`] layers the multi-modal schema on top: each object's
//! modalities are stored *concatenated* (the unified-index layout of the
//! paper), with per-modality views for the MR baseline's per-modality
//! indexes.

use crate::multivec::{MultiVector, Schema};
use crate::{Dim, VecId};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Rows per segment of a [`VectorStore`] (a power of two, so a row's
/// segment and slot are a shift and a mask).
pub const SEGMENT_ROWS: usize = 1 << SEGMENT_SHIFT;
const SEGMENT_SHIFT: u32 = 8;

/// A growable collection of fixed-dimension `f32` vectors. Ids are dense
/// and assigned in insertion order.
///
/// Rows live in segments: every segment but the last holds exactly
/// [`SEGMENT_ROWS`] rows; the last holds the rest, in a buffer that grows
/// by doubling up to [`SEGMENT_ROWS`] rows and is zero past them. A clone
/// shares every segment; a write copies the one segment it lands in when
/// another clone still holds it.
#[derive(Clone)]
pub struct VectorStore {
    dim: Dim,
    len: usize,
    segments: Vec<Arc<[f32]>>,
}

impl VectorStore {
    /// Creates an empty store for vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: Dim) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// Creates an empty store sized for `n` vectors: the segment table for
    /// all of them, and the first segment for up to [`SEGMENT_ROWS`] of
    /// them.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn with_capacity(dim: Dim, n: usize) -> Self {
        assert!(dim > 0, "vector store requires non-zero dimension");
        let mut segments = Vec::with_capacity(n.div_ceil(SEGMENT_ROWS));
        if n > 0 {
            segments.push(zeroed(n.min(SEGMENT_ROWS) * dim));
        }
        Self {
            dim,
            len: 0,
            segments,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a vector, returning its id. Copies the tail segment first
    /// when another clone still holds it (or, below [`SEGMENT_ROWS`] rows,
    /// into a buffer twice its size when it is full); starts a new segment
    /// after [`SEGMENT_ROWS`] rows.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`, or if the store would exceed `u32::MAX`
    /// vectors.
    pub fn push(&mut self, v: &[f32]) -> VecId {
        assert_eq!(v.len(), self.dim, "push: dimension mismatch");
        let id = self.len;
        assert!(id <= u32::MAX as usize, "vector store overflow");
        let (seg, dim) = (id >> SEGMENT_SHIFT, self.dim);
        if seg == self.segments.len() {
            // The first segment grows from one row; later ones start full.
            let rows = if seg == 0 { 1 } else { SEGMENT_ROWS };
            // ALLOC: a new segment, once per SEGMENT_ROWS rows pushed.
            self.segments.push(zeroed(rows * dim));
        }
        let end = ((id & (SEGMENT_ROWS - 1)) + 1) * dim;
        // INVARIANT: segment `seg` holds the rows before `id` or was pushed
        // above.
        let tail = &mut self.segments[seg];
        if end > tail.len() {
            let grown = (2 * tail.len()).min(SEGMENT_ROWS * dim);
            let zeros = std::iter::repeat_n(0.0, grown - tail.len());
            // ALLOC: a part-filled first segment doubles, at most
            // log2(SEGMENT_ROWS) times.
            *tail = tail.iter().copied().chain(zeros).collect();
        }
        // ALLOC: copy-on-write of a tail segment another clone still holds.
        // INVARIANT: the tail was sized above to hold row `id`.
        Arc::make_mut(tail)[end - dim..end].copy_from_slice(v);
        self.len += 1;
        id as VecId
    }

    /// Borrow of vector `id`: one segment-table load and a slice.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    #[inline]
    pub fn get(&self, id: VecId) -> &[f32] {
        let (seg, start) = self.locate(id);
        // INVARIANT: for id < len, `locate` names a segment that holds the
        // row; for any other id, no segment (a designed out-of-range panic).
        &self.segments[seg][start..start + self.dim]
    }

    /// Mutable borrow of vector `id`; copies its segment first when another
    /// clone still holds it.
    ///
    /// # Panics
    /// Panics if `id >= len()`.
    pub fn get_mut(&mut self, id: VecId) -> &mut [f32] {
        let (seg, start) = self.locate(id);
        // ALLOC: copy-on-write of a segment another clone still holds.
        // INVARIANT: for id < len, `locate` names a segment that holds the
        // row; for any other id, no segment (a designed out-of-range panic).
        &mut Arc::make_mut(&mut self.segments[seg])[start..start + self.dim]
    }

    /// The segment of row `id` and the row's offset in it. An id past
    /// `len()` maps to the segment one past the table, so the caller's
    /// table load panics on it: the tail segment's buffer extends past
    /// `len()`, and the row slice alone would not.
    #[inline]
    fn locate(&self, id: VecId) -> (usize, usize) {
        let i = id as usize;
        let seg = if i < self.len {
            i >> SEGMENT_SHIFT
        } else {
            self.segments.len()
        };
        (seg, (i & (SEGMENT_ROWS - 1)) * self.dim)
    }

    /// The stored rows as contiguous runs in id order, one per segment:
    /// [`SEGMENT_ROWS`] rows each, the last holding the rest.
    pub fn blocks(&self) -> impl Iterator<Item = &[f32]> {
        let mut left = self.len * self.dim;
        self.segments.iter().map(move |seg| {
            let take = left.min(seg.len());
            left -= take;
            // INVARIANT: take <= seg.len().
            &seg[..take]
        })
    }

    /// Iterator over `(id, vector)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VecId, &[f32])> {
        self.blocks()
            .flat_map(|block| block.chunks_exact(self.dim))
            .enumerate()
            .map(|(i, v)| (i as VecId, v))
    }

    /// The segments themselves, in id order (the last one's buffer may
    /// extend past the stored rows). Two stores that share a segment hold
    /// the same allocation: `Arc::ptr_eq` tells what a clone still shares.
    pub fn segments(&self) -> &[Arc<[f32]>] {
        &self.segments
    }

    /// Resident size of the stored rows in bytes.
    pub fn bytes(&self) -> usize {
        self.len * self.dim * std::mem::size_of::<f32>()
    }
}

/// A buffer of `n` zeros behind one allocation.
fn zeroed(n: usize) -> Arc<[f32]> {
    // ALLOC: a new segment; its callers own how often one is made.
    std::iter::repeat_n(0.0, n).collect()
}

/// Equal when the dimensions and the stored rows are (however the rows
/// are segmented and whatever the tail buffer holds past them).
impl PartialEq for VectorStore {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.len == other.len
            && self.blocks().flatten().eq(other.blocks().flatten())
    }
}

impl std::fmt::Debug for VectorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorStore")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .field("segments", &self.segments.len())
            .finish()
    }
}

/// The JSON form is the flat one, `{"dim", "data"}`, whatever the
/// segmentation: every row in id order, `dim` floats each.
impl Serialize for VectorStore {
    fn to_value(&self) -> Value {
        let data = self.blocks().flatten().map(Serialize::to_value).collect();
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("data".to_string(), Value::Array(data)),
        ])
    }
}

/// Reading the flat form refuses a zero dimension and a buffer that is
/// not a whole number of rows.
impl Deserialize for VectorStore {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value.as_object_for("VectorStore")?;
        let dim: Dim = serde::field(entries, "dim")?;
        let data: Vec<f32> = serde::field(entries, "data")?;
        if data.len().checked_rem(dim) != Some(0) {
            return Err(serde::Error::new(format!(
                "{} floats are not whole rows of dimension {dim}",
                data.len()
            )));
        }
        let rows = data.chunks_exact(dim);
        let mut store = Self::with_capacity(dim, rows.len());
        for row in rows {
            store.push(row);
        }
        Ok(store)
    }
}

/// Multi-modal object storage: concatenated layout plus per-modality views.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVectorStore {
    schema: Schema,
    /// Concatenated (schema.total_dim) representation per object.
    concat: VectorStore,
    /// One presence flag per object per modality, `arity` flags per object
    /// in id order (missing modalities are stored as zero blocks in
    /// `concat`). One flat buffer, so a clone is one copy.
    present: Vec<bool>,
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
        self.present
            .extend((0..mv.arity()).map(|m| mv.part(m).is_some()));
        self.concat.push(&flat)
    }

    /// The concatenated rows, one per object in id order (what
    /// [`MultiVectorStore::concat_of`] reads).
    pub fn rows(&self) -> &VectorStore {
        &self.concat
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
        let arity = self.schema.arity();
        let flag = (m < arity)
            .then(|| (id as usize).checked_mul(arity))
            .flatten()
            .and_then(|row| self.present.get(row + m));
        if flag != Some(&true) {
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
        for id in 0..crate::cast::vec_id(self.len()) {
            self.push_weighted(id, weights, &mut out);
        }
        out
    }

    /// Appends object `id`'s weighted row to `out` — the row
    /// [`MultiVectorStore::weighted_store`] holds for it — scaled in place
    /// in `out`. Returns the row's id in `out`.
    pub fn push_weighted(
        &self,
        id: VecId,
        weights: &crate::multivec::Weights,
        out: &mut VectorStore,
    ) -> VecId {
        let row = out.push(self.concat.get(id));
        weights.scale_concat(&self.schema, out.get_mut(row));
        row
    }

    /// Approximate resident size in bytes.
    pub fn bytes(&self) -> usize {
        self.concat.bytes() + self.present.len()
    }

    /// Audits the store's structural invariants and returns every
    /// violation found (empty = sound).
    ///
    /// Checked invariants:
    /// - the rows' dimension equals the schema's total dimension;
    /// - there is exactly one presence flag per object per modality;
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
        let arity = self.schema.arity();
        if self.present.len() != self.concat.len() * arity {
            out.push(StoreViolation::MaskCount {
                expected: self.concat.len() * arity,
                got: self.present.len(),
            });
        }
        // A short mask leaves its last objects unchecked; the count above
        // already reports it.
        let masks = self.present.chunks_exact(arity.max(1));
        for (id, mask) in masks.take(self.concat.len()).enumerate() {
            let id = id as VecId;
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
    /// The rows' dimension disagrees with the schema.
    DimensionMismatch {
        /// The schema's total dimension.
        expected: usize,
        /// The rows' dimension.
        got: usize,
    },
    /// Presence-flag count differs from objects × modalities.
    MaskCount {
        /// The object count times the schema arity.
        expected: usize,
        /// The flag count.
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
                write!(
                    f,
                    "{got} presence flags where objects × modalities is {expected}"
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

/// The JSON form keeps one presence array per object (the layout the
/// store has always been written in); reading it back flattens them, and
/// refuses an array whose length is not the schema's arity.
impl Serialize for MultiVectorStore {
    fn to_value(&self) -> Value {
        let masks = self
            .present
            .chunks(self.schema.arity().max(1))
            .map(|mask| Value::Array(mask.iter().map(Serialize::to_value).collect()))
            .collect();
        Value::Object(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("concat".to_string(), self.concat.to_value()),
            ("present".to_string(), Value::Array(masks)),
        ])
    }
}

impl Deserialize for MultiVectorStore {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value.as_object_for("MultiVectorStore")?;
        let schema: Schema = serde::field(entries, "schema")?;
        let masks: Vec<Vec<bool>> = serde::field(entries, "present")?;
        let arity = schema.arity();
        if let Some((id, mask)) = masks.iter().enumerate().find(|(_, m)| m.len() != arity) {
            return Err(serde::Error::new(format!(
                "object {id}: presence mask has {} flags, schema arity is {arity}",
                mask.len()
            )));
        }
        Ok(Self {
            concat: serde::field(entries, "concat")?,
            present: masks.concat(),
            schema,
        })
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
    #[should_panic(expected = "index out of bounds")]
    fn get_past_len_panics_inside_the_tail_buffer() {
        let mut s = VectorStore::with_capacity(2, 8);
        s.push(&[1.0, 2.0]);
        // Row 1 lies inside the tail segment's buffer but was never pushed.
        s.get(1);
    }

    /// A store of `n` rows of dimension 2: row `i` is `[i, -i]`.
    fn ramp(n: usize) -> VectorStore {
        let mut s = VectorStore::new(2);
        for i in 0..n {
            s.push(&[i as f32, -(i as f32)]);
        }
        s
    }

    #[test]
    fn rows_span_segments_in_id_order() {
        let s = ramp(2 * SEGMENT_ROWS + 3);
        assert_eq!(s.segments().len(), 3);
        assert_eq!(s.get(SEGMENT_ROWS as VecId), &[256.0, -256.0]);
        let blocks: Vec<usize> = s.blocks().map(<[f32]>::len).collect();
        assert_eq!(blocks, [2 * SEGMENT_ROWS, 2 * SEGMENT_ROWS, 6]);
        for (i, row) in s.iter() {
            assert_eq!(row, &[i as f32, -(i as f32)]);
        }
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn a_clone_copies_only_the_tail_it_writes() {
        let parent = ramp(SEGMENT_ROWS + 10);
        let mut child = parent.clone();
        let shared = |a: &VectorStore, b: &VectorStore| -> Vec<bool> {
            let pairs = a.segments().iter().zip(b.segments());
            pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        assert_eq!(shared(&parent, &child), [true, true]);
        child.push(&[7.0, 7.0]);
        assert_eq!(shared(&parent, &child), [true, false]);
        // The parent's rows are untouched, and its tail buffer too.
        assert_eq!(parent.len(), SEGMENT_ROWS + 10);
        assert_eq!(parent, ramp(SEGMENT_ROWS + 10));
        assert!(parent.segments()[1][20..].iter().all(|&x| x == 0.0));
        // A tail the child alone holds is written in place.
        let tail = Arc::as_ptr(&child.segments()[1]);
        child.push(&[8.0, 8.0]);
        assert_eq!(Arc::as_ptr(&child.segments()[1]), tail);
        // A write into a shared full segment copies that segment alone.
        let mut edited = child.clone();
        edited.get_mut(3)[0] = 0.5;
        assert_eq!(shared(&child, &edited), [false, true]);
        assert_eq!(child.get(3), &[3.0, -3.0]);
    }

    #[test]
    fn the_json_form_is_flat_whatever_the_segments() {
        let mut s = VectorStore::new(1);
        s.push(&[0.25]);
        for _ in 1..SEGMENT_ROWS {
            s.push(&[0.0]);
        }
        s.push(&[1.5]);
        s.push(&[-2.0]);
        assert_eq!(s.segments().len(), 2);
        let j = serde_json::to_string(&s).unwrap();
        let zeros = "0.0,".repeat(SEGMENT_ROWS - 1);
        assert_eq!(j, format!(r#"{{"dim":1,"data":[0.25,{zeros}1.5,-2.0]}}"#));
        let back: VectorStore = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.segments().len(), 2);
        // A ragged buffer or a zero dimension does not load.
        for forged in [
            r#"{"dim":2,"data":[1.0,2.0,3.0]}"#,
            r#"{"dim":0,"data":[]}"#,
        ] {
            let err = serde_json::from_str::<VectorStore>(forged).unwrap_err();
            assert!(err.to_string().contains("not whole rows"), "{err}");
        }
    }

    #[test]
    fn equality_ignores_segmentation_and_spare_capacity() {
        let mut sized = VectorStore::with_capacity(2, 300);
        for (_, row) in ramp(5).iter() {
            sized.push(row);
        }
        assert_eq!(sized, ramp(5));
        assert_ne!(sized, ramp(4));
        assert_eq!(VectorStore::with_capacity(2, 9), VectorStore::new(2));
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
        store.push(&MultiVector::partial(
            &schema,
            vec![None, Some(vec![6.0, 7.0, 8.0])],
        ));
        let j = serde_json::to_string(&store).unwrap();
        assert!(
            j.ends_with(r#""present":[[true,true],[false,true]]}"#),
            "{j}"
        );
        let back: MultiVectorStore = serde_json::from_str(&j).unwrap();
        assert_eq!(store, back);
        // A mask of the wrong arity does not load.
        let forged = j.replace("[false,true]", "[false,true,true]");
        let err = serde_json::from_str::<MultiVectorStore>(&forged).unwrap_err();
        assert!(err.to_string().contains("schema arity is 2"), "{err}");
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

        // A NaN smuggled into the rows.
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

        // A lost presence flag.
        let mut store = sound;
        store.present.pop();
        let v = store.validate();
        assert!(v.iter().any(|v| matches!(
            v,
            StoreViolation::MaskCount {
                expected: 4,
                got: 3
            }
        )));
        for x in &v {
            assert!(!x.to_string().is_empty());
        }
    }
}
