//! Figure 5 in miniature: one two-round dialogue answered by all four
//! systems — MUST, MR, JE, and the generative (DALL·E-style) baseline —
//! under identical query conditions.
//!
//! The full, statistically aggregated version of this comparison is the
//! `fig5_comparative` bench harness; this example walks a single dialogue
//! so the qualitative difference is visible result-by-result.
//!
//! ```bash
//! cargo run --release --example framework_comparison
//! ```

use mqa::encoders::{EncoderRegistry, RawContent};
use mqa::graph::IndexAlgorithm;
use mqa::kb::{DatasetSpec, GroundTruth};
use mqa::llm::GenerativeImageModel;
use mqa::retrieval::{
    EncodedCorpus, EncoderSet, JeFramework, MrFramework, MultiModalQuery, MustFramework,
    RetrievalFramework,
};
use mqa::vector::ops;
use mqa::weights::WeightLearner;
use std::sync::Arc;

const K: usize = 3;
const EF: usize = 64;

fn main() {
    // One shared encoded corpus so every framework sees identical vectors.
    let (kb, info) = DatasetSpec::weather()
        .objects(3_000)
        .concepts(80)
        .styles(3)
        .caption_noise(0.25)
        .image_noise(0.2)
        .seed(5)
        .generate_with_info();
    let gt = GroundTruth::build(&kb);
    let registry = EncoderRegistry::new(0);
    let schema = kb.schema().clone();
    let encoders = EncoderSet::default_for(&registry, &schema, 64);
    let corpus = Arc::new(EncodedCorpus::encode(kb, encoders));

    // MUST uses learned weights; the baselines have no weighting hook.
    let labels = corpus
        .concept_labels()
        .expect("generated corpus is labelled");
    let learned = WeightLearner::default().learn(corpus.store(), &labels);
    println!(
        "learned modality weights: {:?} (triplet accuracy {:.2})\n",
        learned.weights.as_slice(),
        learned.triplet_accuracy
    );

    let algo = IndexAlgorithm::mqa_graph();
    let must = MustFramework::build(Arc::clone(&corpus), learned.weights.clone(), &algo);
    let mr = MrFramework::build(Arc::clone(&corpus), &algo);
    let je = JeFramework::build(Arc::clone(&corpus), &algo);
    let frameworks: Vec<&dyn RetrievalFramework> = vec![&must, &mr, &je];

    // The scripted dialogue: Figure 5's "foggy clouds" request, mapped to
    // a concept that exists in the generated vocabulary.
    let concept = &info.concepts[3];
    let round1_text = format!(
        "could you assist me in finding images of {}",
        concept.phrase()
    );
    println!("round 1 ▸ \"{round1_text}\"\n");

    let mut selections = Vec::new();
    for fw in &frameworks {
        let out = fw.search(&MultiModalQuery::text(&round1_text), K, EF);
        let marks: Vec<String> = out
            .ids()
            .iter()
            .map(|&id| {
                let rel = if gt.is_relevant(id, concept.id) {
                    "✓"
                } else {
                    "✗"
                };
                format!("{} {}", rel, corpus.kb().get(id).title)
            })
            .collect();
        println!("{:<4} | {}", fw.kind().name(), marks.join(" | "));
        // The user clicks the first relevant image (or the top result).
        let pick = out
            .ids()
            .iter()
            .copied()
            .find(|&id| gt.is_relevant(id, concept.id))
            .unwrap_or(out.ids()[0]);
        selections.push(pick);
    }

    println!(
        "\nround 2 ▸ \"i like this one, could you provide more similar images of {}\"\n",
        concept.phrase()
    );
    let round2_text = format!(
        "i like this one, could you provide more similar images of {}",
        concept.phrase()
    );
    for (fw, &pick) in frameworks.iter().zip(&selections) {
        let style = corpus.kb().get(pick).style.expect("labelled");
        let img = match corpus.kb().get(pick).content(1) {
            Some(RawContent::Image(i)) => i.clone(),
            _ => unreachable!(),
        };
        let out = fw.search(&MultiModalQuery::text_and_image(&round2_text, img), K, EF);
        let marks: Vec<String> = out
            .ids()
            .iter()
            .map(|&id| {
                let rel = if id != pick && gt.is_style_relevant(id, concept.id, style) {
                    "✓"
                } else if gt.is_relevant(id, concept.id) {
                    "~"
                } else {
                    "✗"
                };
                format!("{} {}", rel, corpus.kb().get(id).title)
            })
            .collect();
        println!("{:<4} | {}", fw.kind().name(), marks.join(" | "));
    }

    // The generative baseline: synthesizes images instead of retrieving.
    println!("\nGPT-4/DALL·E-style baseline (generates, does not retrieve):");
    let generator = GenerativeImageModel::new(0, corpus.kb().schema().raw_image_dim(), 0.3);
    let generated = generator.generate_batch(&round1_text, K);
    for (i, g) in generated.iter().enumerate() {
        // Realism gap: distance from the generated descriptor to its
        // nearest corpus image, vs the corpus's own internal spacing.
        let mut nearest = f32::INFINITY;
        for (_, r) in corpus.kb().iter() {
            if let Some(RawContent::Image(img)) = r.content(1) {
                nearest = nearest.min(ops::l2_sq(g.features(), img.features()));
            }
        }
        println!(
            "  gen[{i}]: not a knowledge-base member; nearest corpus image at d²={nearest:.2}"
        );
    }
    println!("(compare: retrieved results are corpus members at d²=0 from themselves)");
}
