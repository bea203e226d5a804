//! Text encoders: feature-hashing bag-of-n-grams and an order-sensitive
//! LSTM stand-in.

use crate::project::ProjectionMatrix;
use crate::traits::{Encoder, RawContent};
use mqa_rng::SplitMix64;
use mqa_vector::{ops, Dim, ModalityKind};

/// Size of the virtual hashed feature space for bag-of-n-grams.
const HASH_SPACE: usize = 1 << 20;

/// Function words carrying no retrieval signal. Real text encoders learn
/// to ignore these; the synthetic ones filter them so a conversational
/// request ("could you assist me in finding images of …") embeds near the
/// content words it shares with a caption.
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "at", "to", "for", "with", "and", "or", "is", "are", "be",
    "it", "its", "this", "that", "these", "those", "i", "you", "me", "my", "your", "we", "would",
    "could", "can", "will", "shall", "please", "like", "want", "need", "some", "any", "more",
    "most", "one", "ones", "do", "does", "did", "have", "has", "had", "find", "finding", "show",
    "locate", "assist", "help", "provide", "get", "give", "images", "image", "pictures", "picture",
    "photos", "photo", "similar", "type", "so", "very", "such", "as", "by", "from", "about",
];

/// Lowercases, splits into alphanumeric tokens, and drops stopwords.
pub(crate) fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && !STOPWORDS.contains(t))
        .map(str::to_string)
        // ALLOC: per-query token list, bounded by the query text length.
        .collect()
}

fn token_hash(seed: u64, token: &str) -> u64 {
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    for b in token.as_bytes() {
        h = SplitMix64::new(h ^ *b as u64).next_u64();
    }
    h
}

/// Bag-of-1–2-grams text encoder with feature hashing and random projection.
///
/// Stands in for bag-of-words / sentence-embedding text models: texts that
/// share vocabulary encode to nearby vectors; the 2-grams add mild phrase
/// sensitivity. Output is unit-normalized.
#[derive(Debug, Clone)]
pub struct HashingTextEncoder {
    name: String,
    proj: ProjectionMatrix,
    seed: u64,
}

impl HashingTextEncoder {
    /// Creates an encoder with output dimensionality `dim`, deterministic in
    /// `seed`.
    pub fn new(dim: Dim, seed: u64) -> Self {
        Self {
            name: "hashing-text".to_string(),
            proj: ProjectionMatrix::new(SplitMix64::new(seed).next_u64(), dim, HASH_SPACE),
            seed,
        }
    }

    /// Renames the encoder (used when registering aligned CLIP-side text
    /// towers under distinct panel names).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    fn sparse_features(&self, text: &str) -> Vec<(u32, f32)> {
        let tokens = tokenize(text);
        // ALLOC: per-query sparse-feature list, bounded by the token count.
        let mut feats = Vec::with_capacity(tokens.len() * 2);
        for t in &tokens {
            feats.push(((token_hash(self.seed, t) as usize % HASH_SPACE) as u32, 1.0));
        }
        for pair in tokens.windows(2) {
            // INVARIANT: windows(2) yields exactly-2-element slices, and
            // HASH_SPACE is a non-zero const.
            // ALLOC: per-query bigram key, bounded by the token count.
            let bigram = format!("{} {}", pair[0], pair[1]);
            feats.push((
                (token_hash(self.seed, &bigram) as usize % HASH_SPACE) as u32,
                0.5,
            ));
        }
        feats
    }
}

impl Encoder for HashingTextEncoder {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModalityKind {
        ModalityKind::Text
    }

    fn dim(&self) -> Dim {
        self.proj.rows()
    }

    fn encode(&self, input: &RawContent) -> Vec<f32> {
        let text = match input {
            RawContent::Text(t) | RawContent::Audio(t) => t,
            other => panic!("text encoder fed {:?} content", other.kind()),
        };
        // ALLOC: per-query embedding buffer, bounded by the schema's modality dim.
        let mut out = vec![0.0f32; self.dim()];
        self.proj
            .project_sparse(&self.sparse_features(text), &mut out);
        ops::normalize(&mut out);
        out
    }
}

/// Order-sensitive recurrent text encoder (LSTM stand-in).
///
/// Maintains a hidden state updated per token:
/// `h ← tanh(0.8·h + e(token))` where `e(token)` is a seeded pseudo-random
/// token embedding. Unlike [`HashingTextEncoder`] the result depends on
/// token *order*, matching the characteristic the paper cites LSTM for.
#[derive(Debug, Clone)]
pub struct LstmTextEncoder {
    dim: Dim,
    seed: u64,
}

impl LstmTextEncoder {
    /// Creates the encoder with output dimensionality `dim`.
    pub fn new(dim: Dim, seed: u64) -> Self {
        assert!(dim > 0, "encoder dimension must be non-zero");
        Self { dim, seed }
    }

    fn token_embedding(&self, token: &str, out: &mut [f32]) {
        let h0 = token_hash(self.seed ^ 0x5151, token);
        for (i, o) in out.iter_mut().enumerate() {
            let h = SplitMix64::new(h0 ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64();
            *o = ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
        }
    }
}

impl Encoder for LstmTextEncoder {
    fn name(&self) -> &str {
        "lstm-text"
    }

    fn kind(&self) -> ModalityKind {
        ModalityKind::Text
    }

    fn dim(&self) -> Dim {
        self.dim
    }

    fn encode(&self, input: &RawContent) -> Vec<f32> {
        let text = match input {
            RawContent::Text(t) | RawContent::Audio(t) => t,
            other => panic!("text encoder fed {:?} content", other.kind()),
        };
        // ALLOC: per-query recurrent state buffers, bounded by the schema's modality dim.
        let mut state = vec![0.0f32; self.dim];
        let mut embed = vec![0.0f32; self.dim];
        for token in tokenize(text) {
            self.token_embedding(&token, &mut embed);
            for (s, e) in state.iter_mut().zip(&embed) {
                *s = (0.8 * *s + e).tanh();
            }
        }
        ops::normalize(&mut state);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_vector::ops;

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World! 42"), vec!["hello", "world", "42"]);
        assert!(tokenize("  ...  ").is_empty());
    }

    #[test]
    fn hashing_encoder_is_deterministic() {
        let e = HashingTextEncoder::new(32, 3);
        let a = e.encode(&RawContent::text("foggy clouds over hills"));
        let b = e.encode(&RawContent::text("foggy clouds over hills"));
        assert_eq!(a, b);
        // Pinned value: a change to the token hash moves every embedding.
        assert_eq!(a[0].to_bits(), 0x3e30_c77b);
    }

    #[test]
    fn shared_vocabulary_is_closer_than_disjoint() {
        let e = HashingTextEncoder::new(64, 3);
        let q = e.encode(&RawContent::text("moldy blue cheese wheel"));
        let near = e.encode(&RawContent::text("a wheel of moldy cheese"));
        let far = e.encode(&RawContent::text("red racing car engine"));
        assert!(ops::l2_sq(&q, &near) < ops::l2_sq(&q, &far));
    }

    #[test]
    fn hashing_output_is_unit_norm() {
        let e = HashingTextEncoder::new(48, 9);
        let v = e.encode(&RawContent::text("some words"));
        assert!((ops::norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_text_encodes_to_zero() {
        let e = HashingTextEncoder::new(16, 1);
        let v = e.encode(&RawContent::text(""));
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn audio_is_accepted_as_transcript() {
        let e = HashingTextEncoder::new(16, 1);
        let t = e.encode(&RawContent::text("long sleeved top"));
        let a = e.encode(&RawContent::Audio("long sleeved top".into()));
        assert_eq!(t, a);
    }

    #[test]
    #[should_panic(expected = "text encoder fed")]
    fn image_input_panics() {
        let e = HashingTextEncoder::new(16, 1);
        e.encode(&RawContent::Image(crate::image::ImageData::new(vec![
            0.0;
            4
        ])));
    }

    #[test]
    fn lstm_is_order_sensitive() {
        let e = LstmTextEncoder::new(32, 5);
        let ab = e.encode(&RawContent::text("dog bites man"));
        let ba = e.encode(&RawContent::text("man bites dog"));
        assert!(ops::l2_sq(&ab, &ba) > 1e-4);
    }

    #[test]
    fn lstm_still_reflects_content_overlap() {
        let e = LstmTextEncoder::new(64, 5);
        // The recurrent state weights recent tokens most, so the "near"
        // text shares its suffix with the query and differs at the front.
        let q = e.encode(&RawContent::text("dawn foggy clouds"));
        let near = e.encode(&RawContent::text("dusk foggy clouds"));
        let far = e.encode(&RawContent::text("spreadsheet quarterly revenue"));
        assert!(ops::l2_sq(&q, &near) < ops::l2_sq(&q, &far));
    }

    #[test]
    fn different_seeds_give_different_spaces() {
        let a = HashingTextEncoder::new(32, 1).encode(&RawContent::text("cheese"));
        let b = HashingTextEncoder::new(32, 2).encode(&RawContent::text("cheese"));
        assert_ne!(a, b);
    }
}
