//! Synthetic multi-modal corpus generators with latent-concept ground truth.
//!
//! Each generated object is sampled from a hidden **concept** (a tuple of
//! domain attribute words, e.g. *floral · cotton · top*) and, within the
//! concept, from a **style** sub-cluster (the visual variation the paper's
//! second dialogue round refines on — "similar degree of mold", "similar
//! material"). The generator controls, per modality, how much *information*
//! about the concept survives:
//!
//! * captions are built from the concept's keywords, but each keyword is
//!   replaced by an unrelated vocabulary word with probability
//!   [`DatasetSpec::caption_noise`];
//! * image descriptors sit at `anchor(concept) + offset(style)` plus
//!   gaussian noise of magnitude [`DatasetSpec::image_noise`].
//!
//! Asymmetric noise between the modalities is what makes modality
//! *weighting* matter (experiment E6), and the style sub-structure is what
//! separates MUST from the MR/JE baselines on multi-modal rounds (F5).

use crate::base::KnowledgeBase;
use crate::object::ObjectRecord;
use crate::schema::{ContentSchema, FieldSpec};
use mqa_encoders::{ImageData, RawContent};
use mqa_rng::StdRng;
use mqa_vector::ModalityKind;
use serde::{Deserialize, Serialize};

/// Draws a standard normal sample via Box–Muller.
pub(crate) fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draws a random unit vector.
pub(crate) fn unit_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| gaussian(rng)).collect();
    mqa_vector::ops::normalize(&mut v);
    v
}

/// The three demonstration domains of the paper's scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetDomain {
    /// Clothing products (Figure 1: "long-sleeved top … floral pattern").
    Fashion,
    /// Weather / nature photographs (Figures 4–5: "foggy clouds",
    /// "moldy cheese" food photography is folded in here as well).
    Weather,
    /// Movies: synopsis + poster + film still — a three-modality schema.
    Movies,
}

impl DatasetDomain {
    /// Attribute axes of the domain; a concept is one word from each axis.
    fn axes(self) -> &'static [&'static [&'static str]] {
        match self {
            DatasetDomain::Fashion => &[
                &[
                    "top", "coat", "dress", "skirt", "sweater", "jacket", "blouse", "cardigan",
                ],
                &[
                    "floral",
                    "striped",
                    "plain",
                    "checked",
                    "dotted",
                    "embroidered",
                ],
                &["cotton", "wool", "silk", "linen", "denim"],
            ],
            DatasetDomain::Weather => &[
                &[
                    "clouds", "fog", "storm", "sunset", "frost", "rainbow", "mist", "snowfall",
                ],
                &["foggy", "golden", "heavy", "thin", "dramatic", "soft"],
                &["mountain", "coast", "valley", "city", "forest"],
            ],
            DatasetDomain::Movies => &[
                &[
                    "thriller",
                    "comedy",
                    "drama",
                    "western",
                    "noir",
                    "musical",
                    "documentary",
                ],
                &[
                    "gritty",
                    "whimsical",
                    "melancholic",
                    "epic",
                    "quiet",
                    "frantic",
                ],
                &["seventies", "eighties", "nineties", "modern", "silent"],
            ],
        }
    }

    /// Generic filler vocabulary mixed into captions.
    fn fillers(self) -> &'static [&'static str] {
        &[
            "photo", "picture", "view", "style", "lovely", "fine", "quality", "classic", "modern",
            "simple", "detail", "scene", "shot", "piece", "look",
        ]
    }

    /// Content schema of the domain.
    pub fn schema(self, raw_image_dim: usize) -> ContentSchema {
        match self {
            DatasetDomain::Fashion | DatasetDomain::Weather => {
                ContentSchema::caption_image(raw_image_dim)
            }
            DatasetDomain::Movies => ContentSchema::new(
                vec![
                    FieldSpec {
                        name: "synopsis".into(),
                        kind: ModalityKind::Text,
                    },
                    FieldSpec {
                        name: "poster".into(),
                        kind: ModalityKind::Image,
                    },
                    FieldSpec {
                        name: "still".into(),
                        kind: ModalityKind::Video,
                    },
                ],
                raw_image_dim,
            ),
        }
    }

    /// Knowledge-base display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetDomain::Fashion => "fashion",
            DatasetDomain::Weather => "weather",
            DatasetDomain::Movies => "movies",
        }
    }
}

/// One latent concept: its keyword tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConceptInfo {
    /// Concept id (the ground-truth label stored on objects).
    pub id: u32,
    /// One keyword per attribute axis.
    pub keywords: Vec<String>,
}

impl ConceptInfo {
    /// Canonical phrase naming the concept (keyword order is axis order).
    pub fn phrase(&self) -> String {
        self.keywords.join(" ")
    }
}

/// Everything the workload generator needs beyond the knowledge base
/// itself: the hidden concept vocabulary and the generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// The concepts objects were drawn from.
    pub concepts: Vec<ConceptInfo>,
    /// Styles per concept.
    pub styles_per_concept: u32,
    /// The generating spec (for provenance in experiment reports).
    pub spec: DatasetSpec,
}

/// Declarative description of a synthetic corpus. Build with the domain
/// constructors, adjust with the chained setters, then call
/// [`DatasetSpec::generate`].
///
/// ```
/// use mqa_kb::{DatasetSpec, GroundTruth};
///
/// let (kb, info) = DatasetSpec::fashion()
///     .objects(120)
///     .concepts(12)
///     .styles(3)
///     .seed(7)
///     .generate_with_info();
/// assert_eq!(kb.len(), 120);
/// assert_eq!(info.concepts.len(), 12);
///
/// // Every object carries its hidden concept/style labels — the relevance
/// // ground truth the experiment harness scores against.
/// let gt = GroundTruth::build(&kb);
/// assert_eq!(gt.members(0).len(), 10); // 120 objects round-robin over 12 concepts
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Domain (vocabulary + schema).
    pub domain: DatasetDomain,
    /// Number of objects to generate.
    pub n_objects: usize,
    /// Number of distinct concepts (capped by the domain's combinatorics).
    pub n_concepts: usize,
    /// Style sub-clusters per concept.
    pub n_styles: u32,
    /// RNG seed; everything is deterministic in it.
    pub rng_seed: u64,
    /// Raw image descriptor length.
    pub raw_image_dim: usize,
    /// Probability that a caption keyword is replaced by a random
    /// vocabulary word (text-modality noise).
    pub caption_noise: f64,
    /// Gaussian noise magnitude added to image descriptors
    /// (image-modality noise, relative to the unit-norm concept anchor).
    pub image_noise: f32,
    /// Magnitude of the style offset relative to the concept anchor.
    pub style_spread: f32,
}

impl DatasetSpec {
    fn with_domain(domain: DatasetDomain) -> Self {
        Self {
            domain,
            n_objects: 10_000,
            n_concepts: 100,
            n_styles: 4,
            rng_seed: 0,
            raw_image_dim: 64,
            caption_noise: 0.15,
            image_noise: 0.25,
            style_spread: 0.6,
        }
    }

    /// Fashion products corpus.
    pub fn fashion() -> Self {
        Self::with_domain(DatasetDomain::Fashion)
    }

    /// Weather / nature photo corpus.
    pub fn weather() -> Self {
        Self::with_domain(DatasetDomain::Weather)
    }

    /// Movies corpus (three modalities).
    pub fn movies() -> Self {
        Self::with_domain(DatasetDomain::Movies)
    }

    /// Sets the object count.
    pub fn objects(mut self, n: usize) -> Self {
        self.n_objects = n;
        self
    }

    /// Sets the concept count.
    pub fn concepts(mut self, n: usize) -> Self {
        self.n_concepts = n;
        self
    }

    /// Sets the styles-per-concept count.
    pub fn styles(mut self, n: u32) -> Self {
        self.n_styles = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.rng_seed = s;
        self
    }

    /// Sets the raw image descriptor length.
    pub fn raw_image_dim(mut self, d: usize) -> Self {
        self.raw_image_dim = d;
        self
    }

    /// Sets the caption keyword corruption probability.
    pub fn caption_noise(mut self, p: f64) -> Self {
        self.caption_noise = p;
        self
    }

    /// Sets the image descriptor noise magnitude.
    pub fn image_noise(mut self, sigma: f32) -> Self {
        self.image_noise = sigma;
        self
    }

    /// Sets the style offset magnitude.
    pub fn style_spread(mut self, s: f32) -> Self {
        self.style_spread = s;
        self
    }

    /// Generates the knowledge base (discarding generator metadata).
    pub fn generate(&self) -> KnowledgeBase {
        self.generate_with_info().0
    }

    /// Generates the knowledge base together with the [`DatasetInfo`] the
    /// query-workload generator needs.
    ///
    /// # Panics
    /// Panics if `n_objects == 0`, `n_concepts == 0` or `n_styles == 0`.
    pub fn generate_with_info(&self) -> (KnowledgeBase, DatasetInfo) {
        assert!(self.n_objects > 0, "dataset requires at least one object");
        assert!(self.n_concepts > 0, "dataset requires at least one concept");
        assert!(
            self.n_styles > 0,
            "dataset requires at least one style per concept"
        );
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let axes = self.domain.axes();
        let schema = self.domain.schema(self.raw_image_dim);

        // Enumerate all keyword tuples, shuffle deterministically, keep the
        // first n_concepts.
        let mut combos: Vec<Vec<&str>> = vec![vec![]];
        for axis in axes {
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    axis.iter().map(move |w| {
                        let mut c = prefix.clone();
                        c.push(w);
                        c
                    })
                })
                .collect();
        }
        for i in (1..combos.len()).rev() {
            combos.swap(i, rng.gen_range(0..=i));
        }
        let n_concepts = self.n_concepts.min(combos.len());
        let concepts: Vec<ConceptInfo> = combos
            .into_iter()
            .take(n_concepts)
            .enumerate()
            .map(|(id, kw)| ConceptInfo {
                id: id as u32,
                keywords: kw.into_iter().map(str::to_string).collect(),
            })
            .collect();

        // Per-concept anchor and per-style offsets in raw image space.
        let anchors: Vec<Vec<f32>> = (0..n_concepts)
            .map(|_| unit_vector(&mut rng, self.raw_image_dim))
            .collect();
        let style_centers: Vec<Vec<Vec<f32>>> = anchors
            .iter()
            .map(|anchor| {
                (0..self.n_styles)
                    .map(|_| {
                        let off = unit_vector(&mut rng, self.raw_image_dim);
                        anchor
                            .iter()
                            .zip(&off)
                            .map(|(a, o)| a + self.style_spread * o)
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Full vocabulary (for caption corruption).
        let mut vocab: Vec<&str> = axes.iter().flat_map(|a| a.iter().copied()).collect();
        vocab.extend_from_slice(self.domain.fillers());

        let mut kb = KnowledgeBase::new(self.domain.name(), schema.clone());
        for i in 0..self.n_objects {
            let concept = (i % n_concepts) as u32;
            let style = rng.gen_range(0..self.n_styles);
            let info = &concepts[concept as usize];

            // Caption: corrupted concept keywords + filler.
            let mut words: Vec<String> = info
                .keywords
                .iter()
                .map(|kw| {
                    if rng.gen_bool(self.caption_noise) {
                        vocab[rng.gen_range(0..vocab.len())].to_string()
                    } else {
                        kw.clone()
                    }
                })
                .collect();
            let fillers = self.domain.fillers();
            for _ in 0..rng.gen_range(1..=3usize) {
                let pos = rng.gen_range(0..=words.len());
                words.insert(pos, fillers[rng.gen_range(0..fillers.len())].to_string());
            }
            let caption = words.join(" ");

            // Image descriptor(s): style center + gaussian noise. The
            // noise vector is scaled to total energy `image_noise²`
            // (per-dim σ = image_noise/√dim) so that noise, style offsets
            // (‖·‖ = style_spread) and concept anchors (unit norm) live on
            // one comparable scale regardless of dimensionality.
            let noise_scale = self.image_noise / (self.raw_image_dim as f32).sqrt();
            let descriptor = |rng: &mut StdRng| {
                let center = &style_centers[concept as usize][style as usize];
                let feats: Vec<f32> = center
                    .iter()
                    .map(|c| c + noise_scale * gaussian(rng))
                    .collect();
                ImageData::new(feats)
            };

            let contents: Vec<Option<RawContent>> = schema
                .fields()
                .iter()
                .map(|f| match f.kind {
                    ModalityKind::Text | ModalityKind::Audio => {
                        Some(RawContent::Text(caption.clone()))
                    }
                    ModalityKind::Image | ModalityKind::Video => {
                        Some(RawContent::Image(descriptor(&mut rng)))
                    }
                })
                .collect();

            let mut record = ObjectRecord::new(format!("{} #{i}", info.phrase()), contents);
            record.concept = Some(concept);
            record.style = Some(style);
            #[expect(
                clippy::expect_used,
                reason = "the generator builds records from the schema the knowledge base enforces; a rejection is a generator bug"
            )]
            kb.ingest(record)
                .expect("generated record satisfies schema");
        }

        let info = DatasetInfo {
            concepts,
            styles_per_concept: self.n_styles,
            spec: self.clone(),
        };
        (kb, info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let kb = DatasetSpec::fashion()
            .objects(120)
            .concepts(10)
            .seed(1)
            .generate();
        assert_eq!(kb.len(), 120);
        assert_eq!(kb.name(), "fashion");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = DatasetSpec::weather().objects(50).seed(9).generate();
        let b = DatasetSpec::weather().objects(50).seed(9).generate();
        assert_eq!(a, b);
        let c = DatasetSpec::weather().objects(50).seed(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn objects_carry_ground_truth() {
        let (kb, info) = DatasetSpec::fashion()
            .objects(40)
            .concepts(8)
            .styles(3)
            .seed(2)
            .generate_with_info();
        for (_, r) in kb.iter() {
            let c = r.concept.expect("generated objects are labelled");
            assert!((c as usize) < info.concepts.len());
            assert!(r.style.expect("style labelled") < 3);
        }
    }

    #[test]
    fn concepts_are_balanced_round_robin() {
        let (kb, _) = DatasetSpec::weather()
            .objects(100)
            .concepts(10)
            .seed(3)
            .generate_with_info();
        let mut counts = [0usize; 10];
        for (_, r) in kb.iter() {
            counts[r.concept.unwrap() as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn movies_have_three_modalities() {
        let kb = DatasetSpec::movies()
            .objects(6)
            .concepts(3)
            .seed(4)
            .generate();
        assert_eq!(kb.schema().arity(), 3);
        for (_, r) in kb.iter() {
            assert_eq!(r.present_count(), 3);
        }
    }

    #[test]
    fn zero_caption_noise_keeps_keywords() {
        let (kb, info) = DatasetSpec::fashion()
            .objects(20)
            .concepts(5)
            .caption_noise(0.0)
            .seed(5)
            .generate_with_info();
        for (_, r) in kb.iter() {
            let caption = match r.content(0).unwrap() {
                RawContent::Text(t) => t.clone(),
                _ => panic!("caption is text"),
            };
            let concept = &info.concepts[r.concept.unwrap() as usize];
            for kw in &concept.keywords {
                assert!(
                    caption.contains(kw.as_str()),
                    "caption {caption:?} lacks {kw}"
                );
            }
        }
    }

    #[test]
    fn concept_cap_respects_combinatorics() {
        let (_, info) = DatasetSpec::fashion()
            .objects(10)
            .concepts(100_000)
            .seed(6)
            .generate_with_info();
        // fashion has 8*6*5 = 240 combinations
        assert_eq!(info.concepts.len(), 240);
    }

    #[test]
    fn same_style_images_cluster_tighter_than_cross_concept() {
        let (kb, _) = DatasetSpec::weather()
            .objects(200)
            .concepts(10)
            .styles(2)
            .image_noise(0.1)
            .seed(7)
            .generate_with_info();
        let img = |r: &ObjectRecord| match r.content(1).unwrap() {
            RawContent::Image(i) => i.features().to_vec(),
            _ => panic!(),
        };
        let recs: Vec<_> = kb.iter().map(|(_, r)| r.clone()).collect();
        let a = &recs[0];
        let same: Vec<f32> = recs
            .iter()
            .skip(1)
            .filter(|r| r.concept == a.concept && r.style == a.style)
            .map(|r| mqa_vector::ops::l2_sq(&img(a), &img(r)))
            .collect();
        let diff: Vec<f32> = recs
            .iter()
            .filter(|r| r.concept != a.concept)
            .map(|r| mqa_vector::ops::l2_sq(&img(a), &img(r)))
            .collect();
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(!same.is_empty() && !diff.is_empty());
        assert!(mean(&same) < mean(&diff));
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn zero_objects_panics() {
        DatasetSpec::fashion().objects(0).generate();
    }

    #[test]
    fn gaussian_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
