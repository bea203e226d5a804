//! Multi-vector (multi-modal) object representation.
//!
//! The MQA paper represents every object in the knowledge base — and every
//! query — as *one vector per modality* (text, image, …), rather than a
//! single jointly-encoded vector. The fused similarity between a query and
//! an object is a **weighted sum of per-modality distances**, with the
//! weights produced by the vector weight learning model (`mqa-weights`) or
//! supplied directly by the user through the configuration panel.
//!
//! This module defines:
//!
//! * [`Schema`] — the ordered list of modalities of a knowledge base
//!   (names, kinds, and dimensionalities);
//! * [`MultiVector`] — one vector per modality, with optional (missing)
//!   modalities so that e.g. a text-only query can still be scored;
//! * [`Weights`] — non-negative per-modality weights with the normalization
//!   used by MUST.

use crate::Dim;
use serde::{Deserialize, Serialize};

/// The kind of data a modality carries. Purely descriptive — the numeric
/// pipeline treats all modalities identically — but surfaced by the status
/// monitoring panel and used by answer generation to phrase replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModalityKind {
    /// Natural-language text (queries, synopses, captions).
    Text,
    /// Still images (posters, product photos).
    Image,
    /// Audio clips (the paper's voice-input example).
    Audio,
    /// Video/film content.
    Video,
}

impl ModalityKind {
    /// Display name used in panels and prompts.
    pub fn name(self) -> &'static str {
        match self {
            ModalityKind::Text => "text",
            ModalityKind::Image => "image",
            ModalityKind::Audio => "audio",
            ModalityKind::Video => "video",
        }
    }
}

/// A single modality declaration inside a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Modality {
    /// Human-readable modality name (e.g. `"caption"`, `"poster"`).
    pub name: String,
    /// Data kind of the modality.
    pub kind: ModalityKind,
    /// Dimensionality of the modality's embedding space.
    pub dim: Dim,
}

/// Ordered multi-modal schema shared by all objects of a knowledge base.
///
/// Modality indices into this schema are used everywhere (weights, stores,
/// fused scans), so the order is significant and immutable once built.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    modalities: Vec<Modality>,
}

impl Schema {
    /// Builds a schema from a list of modalities.
    ///
    /// # Panics
    /// Panics if `modalities` is empty or any dimension is zero — a
    /// knowledge base without modalities cannot be indexed.
    pub fn new(modalities: Vec<Modality>) -> Self {
        assert!(
            !modalities.is_empty(),
            "schema requires at least one modality"
        );
        assert!(
            modalities.iter().all(|m| m.dim > 0),
            "modalities must have non-zero dimensionality"
        );
        Self { modalities }
    }

    /// Convenience constructor: a text+image schema, the configuration used
    /// in all of the paper's interaction scenarios.
    pub fn text_image(text_dim: Dim, image_dim: Dim) -> Self {
        Self::new(vec![
            Modality {
                name: "text".into(),
                kind: ModalityKind::Text,
                dim: text_dim,
            },
            Modality {
                name: "image".into(),
                kind: ModalityKind::Image,
                dim: image_dim,
            },
        ])
    }

    /// Number of modalities.
    pub fn arity(&self) -> usize {
        self.modalities.len()
    }

    /// The modality declarations, in schema order.
    pub fn modalities(&self) -> &[Modality] {
        &self.modalities
    }

    /// Dimensionality of modality `m`, or 0 for an unknown modality index.
    pub fn dim(&self, m: usize) -> Dim {
        self.modalities.get(m).map_or(0, |x| x.dim)
    }

    /// Total dimensionality of the concatenated representation.
    pub fn total_dim(&self) -> Dim {
        self.modalities.iter().map(|m| m.dim).sum()
    }

    /// Index of the modality with the given name, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.modalities.iter().position(|m| m.name == name)
    }

    /// Offset of modality `m` inside the concatenated representation.
    pub fn offset(&self, m: usize) -> usize {
        // An unknown modality index clamps to the arity, yielding the total
        // dimension rather than a panic.
        let m = m.min(self.modalities.len());
        // INVARIANT: m <= modalities.len() after the clamp above.
        self.modalities[..m].iter().map(|x| x.dim).sum()
    }
}

/// One vector per modality. `None` marks a *missing* modality (e.g. the
/// image slot of a text-only query); fused scoring simply skips missing
/// modalities, which is how MQA supports partial queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiVector {
    parts: Vec<Option<Vec<f32>>>,
}

impl MultiVector {
    /// A multi-vector with every modality present.
    ///
    /// # Panics
    /// Panics if `parts` does not match `schema` in arity or dimensions.
    pub fn complete(schema: &Schema, parts: Vec<Vec<f32>>) -> Self {
        assert_eq!(parts.len(), schema.arity(), "modality count mismatch");
        for (m, p) in parts.iter().enumerate() {
            assert_eq!(p.len(), schema.dim(m), "dimension mismatch in modality {m}");
        }
        Self {
            parts: parts.into_iter().map(Some).collect(),
        }
    }

    /// A multi-vector with possibly missing modalities.
    ///
    /// # Panics
    /// Panics on arity/dimension mismatch, or if *all* modalities are
    /// missing (such an object/query is unscorable).
    pub fn partial(schema: &Schema, parts: Vec<Option<Vec<f32>>>) -> Self {
        assert_eq!(parts.len(), schema.arity(), "modality count mismatch");
        assert!(
            parts.iter().any(Option::is_some),
            "at least one modality must be present"
        );
        for (m, p) in parts.iter().enumerate() {
            if let Some(p) = p {
                assert_eq!(p.len(), schema.dim(m), "dimension mismatch in modality {m}");
            }
        }
        Self { parts }
    }

    /// Number of modality slots (present or missing).
    pub fn arity(&self) -> usize {
        self.parts.len()
    }

    /// The vector of modality `m`, or `None` if missing (or `m` is out of
    /// range).
    pub fn part(&self, m: usize) -> Option<&[f32]> {
        self.parts.get(m).and_then(Option::as_deref)
    }

    /// Iterator over `(modality, vector)` pairs for the present modalities.
    pub fn present(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.parts
            .iter()
            .enumerate()
            .filter_map(|(m, p)| p.as_deref().map(|v| (m, v)))
    }

    /// Whether every modality is present.
    pub fn is_complete(&self) -> bool {
        self.parts.iter().all(Option::is_some)
    }

    /// Concatenates the modalities into one flat vector, imputing zeros for
    /// missing modalities. This is the representation the JE baseline and
    /// the unified navigation graph store.
    pub fn concat(&self, schema: &Schema) -> Vec<f32> {
        // ALLOC: one fused vector per pushed object (build/mutation path).
        let mut out = Vec::with_capacity(schema.total_dim());
        for (m, p) in self.parts.iter().enumerate() {
            match p {
                Some(v) => out.extend_from_slice(v),
                None => out.extend(std::iter::repeat_n(0.0, schema.dim(m))),
            }
        }
        out
    }

    /// Splits a flat concatenated vector back into a complete multi-vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != schema.total_dim()`.
    pub fn from_concat(schema: &Schema, flat: &[f32]) -> Self {
        assert_eq!(
            flat.len(),
            schema.total_dim(),
            "flat vector length mismatch"
        );
        let mut parts = Vec::with_capacity(schema.arity());
        let mut off = 0;
        for m in 0..schema.arity() {
            // INVARIANT: per-modality dims partition flat.len(), which is
            // asserted equal to total_dim above.
            let d = schema.dim(m);
            parts.push(Some(flat[off..off + d].to_vec()));
            off += d;
        }
        Self { parts }
    }

    /// Fused weighted L2 distance to another multi-vector, skipping modalities
    /// missing on *either* side.
    ///
    /// This is the reference (non-pruned) implementation; the production
    /// search path uses [`crate::scan::FusedScanner`].
    pub fn fused_distance(&self, other: &MultiVector, weights: &Weights) -> f32 {
        let mut total = 0.0;
        for (m, q) in self.present() {
            if let Some(o) = other.part(m) {
                total += weights.get(m) * crate::ops::l2_sq(q, o);
            }
        }
        total
    }
}

/// Non-negative per-modality weights used in fused distance computation.
///
/// MUST normalizes weights so they sum to the modality count (uniform
/// weights are all `1.0`), which keeps fused distances on a comparable
/// scale across weight configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    w: Vec<f32>,
}

impl Weights {
    /// Uniform weights (`1.0` per modality) — the setting the JE/MR
    /// baselines implicitly use.
    pub fn uniform(arity: usize) -> Self {
        assert!(arity > 0, "weights require at least one modality");
        Self {
            w: vec![1.0; arity],
        }
    }

    /// Builds weights from raw values, clamping negatives to zero and
    /// normalizing so that the sum equals the arity.
    ///
    /// # Panics
    /// Panics if `raw` is empty or sums to zero after clamping (no modality
    /// would contribute to similarity).
    pub fn normalized(raw: &[f32]) -> Self {
        assert!(!raw.is_empty(), "weights require at least one modality");
        // ALLOC: per-query weight normalization, bounded by the modality arity.
        let clamped: Vec<f32> = raw.iter().map(|&x| x.max(0.0)).collect();
        let sum: f32 = clamped.iter().sum();
        assert!(sum > 0.0, "at least one weight must be positive");
        let scale = crate::cast::count_f32(raw.len()) / sum;
        Self {
            // ALLOC: per-query weight normalization, bounded by the modality arity.
            w: clamped.into_iter().map(|x| x * scale).collect(),
        }
    }

    /// Weight of modality `m`, or 0 for an unknown modality index (a zero
    /// weight excludes the modality from fused scoring).
    #[inline]
    pub fn get(&self, m: usize) -> f32 {
        self.w.get(m).copied().unwrap_or(0.0)
    }

    /// All weights, in schema order.
    pub fn as_slice(&self) -> &[f32] {
        &self.w
    }

    /// Number of modalities covered.
    pub fn arity(&self) -> usize {
        self.w.len()
    }

    /// Applies the weights to a concatenated representation: scales each
    /// modality block by `sqrt(w_m)` so that plain L2 distance on the scaled
    /// concatenation equals the fused weighted L2 distance.
    ///
    /// This identity — `Σ_m w_m ‖q_m − o_m‖² = ‖ŝq − ŝo‖²` with
    /// `ŝx_m = sqrt(w_m)·x_m` — is what lets MUST reuse *any* single-vector
    /// navigation graph on weighted multi-modal data.
    pub fn scale_concat(&self, schema: &Schema, flat: &mut [f32]) {
        assert_eq!(
            flat.len(),
            schema.total_dim(),
            "flat vector length mismatch"
        );
        let mut off = 0;
        for m in 0..schema.arity() {
            let d = schema.dim(m);
            // INVARIANT: arity agreement is asserted at construction and
            // the per-modality dims partition flat (asserted above).
            let s = self.w.get(m).copied().unwrap_or(0.0).sqrt();
            for x in &mut flat[off..off + d] {
                *x *= s;
            }
            off += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::text_image(4, 3)
    }

    #[test]
    fn schema_accessors() {
        let s = schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.dim(0), 4);
        assert_eq!(s.dim(1), 3);
        assert_eq!(s.total_dim(), 7);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 4);
        assert_eq!(s.index_of("image"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "at least one modality")]
    fn empty_schema_panics() {
        Schema::new(vec![]);
    }

    #[test]
    fn complete_multivector_round_trips_concat() {
        let s = schema();
        let mv = MultiVector::complete(&s, vec![vec![1.0; 4], vec![2.0; 3]]);
        let flat = mv.concat(&s);
        assert_eq!(flat.len(), 7);
        let back = MultiVector::from_concat(&s, &flat);
        assert_eq!(mv, back);
    }

    #[test]
    fn partial_concat_imputes_zeros() {
        let s = schema();
        let mv = MultiVector::partial(&s, vec![Some(vec![1.0; 4]), None]);
        let flat = mv.concat(&s);
        assert_eq!(&flat[4..], &[0.0, 0.0, 0.0]);
        assert!(!mv.is_complete());
    }

    #[test]
    #[should_panic(expected = "at least one modality must be present")]
    fn all_missing_panics() {
        let s = schema();
        MultiVector::partial(&s, vec![None, None]);
    }

    #[test]
    fn fused_distance_weights_modalities() {
        let s = Schema::text_image(2, 2);
        let q = MultiVector::complete(&s, vec![vec![0.0, 0.0], vec![0.0, 0.0]]);
        let o = MultiVector::complete(&s, vec![vec![1.0, 0.0], vec![0.0, 2.0]]);
        let uniform = Weights::uniform(2);
        assert!((q.fused_distance(&o, &uniform) - 5.0).abs() < 1e-6);
        let text_only = Weights::normalized(&[1.0, 0.0]);
        // text weight normalized to 2.0, image to 0.0
        assert!((q.fused_distance(&o, &text_only) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fused_distance_skips_missing() {
        let s = Schema::text_image(2, 2);
        let q = MultiVector::partial(&s, vec![Some(vec![0.0, 0.0]), None]);
        let o = MultiVector::complete(&s, vec![vec![3.0, 4.0], vec![9.0, 9.0]]);
        let w = Weights::uniform(2);
        assert!((q.fused_distance(&o, &w) - 25.0).abs() < 1e-6);
    }

    #[test]
    fn weights_normalization() {
        let w = Weights::normalized(&[3.0, 1.0]);
        let sum: f32 = w.as_slice().iter().sum();
        assert!((sum - 2.0).abs() < 1e-6);
        assert!((w.get(0) - 1.5).abs() < 1e-6);
        assert!((w.get(1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn weights_clamp_negatives() {
        let w = Weights::normalized(&[-5.0, 1.0]);
        assert_eq!(w.get(0), 0.0);
        assert!((w.get(1) - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_panic() {
        Weights::normalized(&[0.0, -1.0]);
    }

    #[test]
    fn scale_concat_reproduces_fused_l2() {
        let s = Schema::text_image(3, 2);
        let q = MultiVector::complete(&s, vec![vec![0.1, 0.2, 0.3], vec![0.9, -0.4]]);
        let o = MultiVector::complete(&s, vec![vec![-0.5, 0.0, 1.0], vec![0.2, 0.7]]);
        let w = Weights::normalized(&[2.0, 0.5]);
        let fused = q.fused_distance(&o, &w);
        let mut qf = q.concat(&s);
        let mut of = o.concat(&s);
        w.scale_concat(&s, &mut qf);
        w.scale_concat(&s, &mut of);
        let flat = crate::ops::l2_sq(&qf, &of);
        assert!((fused - flat).abs() < 1e-5, "fused={fused} flat={flat}");
    }

    #[test]
    fn serde_round_trip() {
        let s = schema();
        let mv = MultiVector::partial(&s, vec![Some(vec![1.0; 4]), None]);
        let j = serde_json::to_string(&mv).unwrap();
        let back: MultiVector = serde_json::from_str(&j).unwrap();
        assert_eq!(mv, back);
        let js = serde_json::to_string(&s).unwrap();
        let back_s: Schema = serde_json::from_str(&js).unwrap();
        assert_eq!(s, back_s);
    }
}
