//! The two-round interaction protocol of Figures 4/5, as a measurable
//! procedure.
//!
//! Round 1: text-only request naming a concept. The simulated user then
//! clicks the first on-concept result (the red-marked choice of Figure 5;
//! if none is on concept the top result is clicked — a bad pick the
//! framework earned). Round 2: refinement text plus the clicked image;
//! scored against the (concept, style) sub-cluster of the click.

use crate::setup::Encoded;
use mqa_encoders::RawContent;
use mqa_kb::{recall_at_k, round2_recall_at_k, WorkloadSpec};
use mqa_retrieval::{MultiModalQuery, RetrievalFramework};
use std::time::Duration;

/// Aggregated scores of one framework over a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundScores {
    /// Mean concept recall@k of round 1.
    pub round1: f64,
    /// Mean style recall@k of round 2 (excluding the clicked object).
    pub round2: f64,
    /// Fraction of dialogues whose click was on-concept.
    pub good_picks: f64,
    /// Total retrieval wall-clock across both rounds.
    pub elapsed: Duration,
    /// Total completed distance evaluations.
    pub evals: u64,
}

/// Runs `queries` two-round dialogues against `fw`.
pub fn two_round(
    enc: &Encoded,
    fw: &dyn RetrievalFramework,
    queries: usize,
    k: usize,
    ef: usize,
    workload_seed: u64,
) -> RoundScores {
    let workload = WorkloadSpec::new(queries, workload_seed).generate(&enc.info);
    let mut s = RoundScores::default();
    let t0 = std::time::Instant::now();
    for case in &workload.cases {
        let out1 = fw.search(&MultiModalQuery::text(&case.round1_text), k, ef);
        s.evals += out1.stats.evals;
        s.round1 += recall_at_k(&enc.gt, &out1.ids(), case.concept, k);

        let pick = out1
            .ids()
            .iter()
            .copied()
            .find(|&id| enc.gt.is_relevant(id, case.concept))
            .unwrap_or(out1.ids()[0]);
        if enc.gt.is_relevant(pick, case.concept) {
            s.good_picks += 1.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "interaction protocol only runs on harness-generated corpora, which always stamp style labels"
        )]
        let style = enc.corpus.kb().get(pick).style.expect("labelled corpus");
        let img = match enc.corpus.kb().get(pick).content(1) {
            Some(RawContent::Image(i)) => i.clone(),
            _ => unreachable!("image modality present"),
        };
        let out2 = fw.search(
            &MultiModalQuery::text_and_image(&case.round2_text, img),
            k,
            ef,
        );
        s.evals += out2.stats.evals;
        s.round2 += round2_recall_at_k(&enc.gt, &out2.ids(), pick, case.concept, style, k);
    }
    s.elapsed = t0.elapsed();
    let n = queries as f64;
    s.round1 /= n;
    s.round2 /= n;
    s.good_picks /= n;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_frameworks, encode, SetupParams};
    use mqa_graph::IndexAlgorithm;
    use mqa_kb::DatasetSpec;

    #[test]
    fn protocol_produces_sane_scores() {
        let params = SetupParams {
            spec: DatasetSpec::weather()
                .objects(300)
                .concepts(15)
                .caption_noise(0.1)
                .seed(3),
            dim: 24,
            ..SetupParams::default()
        };
        let enc = encode(&params);
        let fws = build_frameworks(&enc, &IndexAlgorithm::Flat);
        let s = two_round(&enc, &fws.must, 10, 5, 32, 9);
        assert!(s.round1 > 0.5, "round1 {}", s.round1);
        assert!((0.0..=1.0).contains(&s.round2));
        assert!(s.good_picks > 0.8);
        assert!(s.evals > 0);
    }
}
