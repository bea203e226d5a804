//! Image content and the visual encoder (ResNet stand-in).

use crate::project::ProjectionMatrix;
use crate::traits::{Encoder, RawContent};
use mqa_vector::{ops, Dim, ModalityKind};
use serde::{Deserialize, Serialize};

/// A synthetic image: a dense raw visual descriptor, standing in for pixel
/// content after standard preprocessing.
///
/// The knowledge-base generators (`mqa-kb`) synthesize these descriptors
/// from latent concepts, and the generative baseline (`mqa-llm`) produces
/// them from text — both only need "a dense vector a visual encoder can
/// consume", which is exactly what real preprocessing pipelines hand to a
/// CNN backbone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageData {
    features: Vec<f32>,
}

impl ImageData {
    /// Wraps a raw descriptor.
    ///
    /// # Panics
    /// Panics if the descriptor is empty.
    pub fn new(features: Vec<f32>) -> Self {
        assert!(!features.is_empty(), "image descriptor must be non-empty");
        Self { features }
    }

    /// The raw descriptor.
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Descriptor length.
    pub fn raw_dim(&self) -> usize {
        self.features.len()
    }
}

/// Dense visual encoder: random projection of the raw descriptor followed
/// by a `tanh` nonlinearity and unit normalization. Stands in for a ResNet
/// image tower.
#[derive(Debug, Clone)]
pub struct VisualEncoder {
    name: String,
    proj: ProjectionMatrix,
    raw_dim: usize,
}

impl VisualEncoder {
    /// Creates an encoder mapping `raw_dim`-length descriptors to `dim`
    /// dimensional embeddings, deterministic in `seed`.
    pub fn new(raw_dim: usize, dim: Dim, seed: u64) -> Self {
        Self {
            name: "visual-resnet".to_string(),
            proj: ProjectionMatrix::new(seed ^ 0xD1E5_EAB1, dim, raw_dim),
            raw_dim,
        }
    }

    /// Renames the encoder (for the CLIP image tower).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The raw descriptor length this encoder accepts.
    pub fn raw_dim(&self) -> usize {
        self.raw_dim
    }
}

impl Encoder for VisualEncoder {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModalityKind {
        ModalityKind::Image
    }

    fn dim(&self) -> Dim {
        self.proj.rows()
    }

    fn encode(&self, input: &RawContent) -> Vec<f32> {
        #[expect(
            clippy::panic,
            reason = "modality mis-dispatch is a caller wiring bug; fabricating a vector would silently corrupt the index"
        )]
        let img = match input {
            RawContent::Image(img) => img,
            other => panic!("visual encoder fed {:?} content", other.kind()),
        };
        assert_eq!(
            img.raw_dim(),
            self.raw_dim,
            "descriptor length {} does not match encoder raw_dim {}",
            img.raw_dim(),
            self.raw_dim
        );
        // ALLOC: per-query embedding buffer, bounded by the schema's modality dim.
        let mut out = vec![0.0f32; self.dim()];
        self.proj.project_dense(img.features(), &mut out);
        for x in &mut out {
            *x = x.tanh();
        }
        ops::normalize(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_rng::StdRng;
    use mqa_vector::ops;

    fn random_image(rng: &mut StdRng, dim: usize) -> ImageData {
        ImageData::new((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn deterministic() {
        let e = VisualEncoder::new(16, 8, 1);
        let img = ImageData::new(vec![0.5; 16]);
        assert_eq!(
            e.encode(&RawContent::Image(img.clone())),
            e.encode(&RawContent::Image(img))
        );
    }

    #[test]
    fn similar_descriptors_stay_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = VisualEncoder::new(32, 16, 1);
        let base = random_image(&mut rng, 32);
        let mut near_feats = base.features().to_vec();
        near_feats[0] += 0.01;
        let near = ImageData::new(near_feats);
        let far = random_image(&mut rng, 32);
        let vb = e.encode(&RawContent::Image(base));
        let vn = e.encode(&RawContent::Image(near));
        let vf = e.encode(&RawContent::Image(far));
        assert!(ops::l2_sq(&vb, &vn) < ops::l2_sq(&vb, &vf));
    }

    #[test]
    fn output_unit_norm() {
        let e = VisualEncoder::new(8, 4, 9);
        let v = e.encode(&RawContent::Image(ImageData::new(vec![1.0; 8])));
        assert!((mqa_vector::ops::norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "descriptor length")]
    fn wrong_raw_dim_panics() {
        let e = VisualEncoder::new(8, 4, 9);
        e.encode(&RawContent::Image(ImageData::new(vec![1.0; 7])));
    }

    #[test]
    #[should_panic(expected = "visual encoder fed")]
    fn text_input_panics() {
        let e = VisualEncoder::new(8, 4, 9);
        e.encode(&RawContent::text("not an image"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_descriptor_panics() {
        ImageData::new(vec![]);
    }

    #[test]
    fn serde_round_trip() {
        let img = ImageData::new(vec![1.0, -0.5]);
        let j = serde_json::to_string(&img).unwrap();
        let back: ImageData = serde_json::from_str(&j).unwrap();
        assert_eq!(img, back);
    }
}
