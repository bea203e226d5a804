//! **F4 — Figure 4 (interaction scenarios).**
//!
//! (a) *Text-only input*: a vague text request, then two iterative
//!     refinement rounds, each clicking a result and asking for "more of
//!     this type". Measures how recall sharpens round over round.
//! (b) *Image-assisted input*: the user uploads a reference image with a
//!     textual requirement in the first turn.
//!
//! Runs on the full MQA system (coordinator + dialogue sessions), not the
//! bare frameworks, so the query-augmentation path of Figure 2's dotted
//! arrow is what is being measured.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin fig4_interaction [-- --quick]
//! ```

// A fail-fast driver: aborting with the message is the designed behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqa_bench::Table;
use mqa_core::{Config, MqaSystem, Turn};
use mqa_encoders::RawContent;
use mqa_kb::{recall_at_k, round2_recall_at_k, DatasetSpec, GroundTruth, WorkloadSpec};
use mqa_rng::StdRng;

const K: usize = 5;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, dialogues) = if quick { (2_000, 40) } else { (10_000, 200) };
    let (kb, info) = DatasetSpec::weather()
        .objects(objects)
        .concepts(80)
        .styles(4)
        .caption_noise(0.35)
        .image_noise(0.15)
        .seed(11)
        .generate_with_info();
    let gt = GroundTruth::build(&kb);
    println!("F4: {objects} objects, {dialogues} dialogues per scenario, k={K}\n");
    let system = MqaSystem::build(
        Config {
            k: K,
            ..Config::default()
        },
        kb,
    )
    .expect("builds");
    let workload = WorkloadSpec::new(dialogues, 4242).generate(&info);

    // ── Scenario (a): text-only input, three rounds ──
    let (mut r1, mut r2, mut r3) = (0.0f64, 0.0f64, 0.0f64);
    for case in &workload.cases {
        let mut session = system.open_session();
        let reply1 = session.ask(Turn::text(&case.round1_text)).expect("round 1");
        let ids1: Vec<u32> = reply1.results.iter().map(|r| r.id).collect();
        r1 += recall_at_k(&gt, &ids1, case.concept, K);

        let pick = ids1
            .iter()
            .position(|&id| gt.is_relevant(id, case.concept))
            .unwrap_or(0);
        let picked_id = ids1[pick];
        let style = system.corpus().kb().get(picked_id).style.unwrap();

        let reply2 = session
            .ask(Turn::select_and_text(pick, &case.round2_text))
            .expect("round 2");
        let ids2: Vec<u32> = reply2.results.iter().map(|r| r.id).collect();
        r2 += round2_recall_at_k(&gt, &ids2, picked_id, case.concept, style, K);

        // Round 3: click the best same-style result of round 2 and refine
        // again — recall should not degrade.
        let pick3 = ids2
            .iter()
            .position(|&id| id != picked_id && gt.is_style_relevant(id, case.concept, style))
            .unwrap_or(0);
        let reply3 = session
            .ask(Turn::select_and_text(pick3, &case.round2_text))
            .expect("round 3");
        let ids3: Vec<u32> = reply3.results.iter().map(|r| r.id).collect();
        r3 += round2_recall_at_k(&gt, &ids3, ids2[pick3], case.concept, style, K);
    }
    let n = dialogues as f64;
    let mut ta = Table::new(&["scenario (a) text-only", "metric", "value"]);
    ta.row(vec![
        "round 1".into(),
        "concept recall@5".into(),
        format!("{:.3}", r1 / n),
    ]);
    ta.row(vec![
        "round 2 (click + refine)".into(),
        "style recall@5".into(),
        format!("{:.3}", r2 / n),
    ]);
    ta.row(vec![
        "round 3 (click + refine)".into(),
        "style recall@5".into(),
        format!("{:.3}", r3 / n),
    ]);
    ta.print();

    // ── Scenario (b): image-assisted input ──
    let mut rng = StdRng::seed_from_u64(7);
    let mut rb_style = 0.0f64;
    let mut rb_concept = 0.0f64;
    for case in &workload.cases {
        // The "upload": a random corpus member of the target concept (its
        // photo is what the user happens to have).
        let members = gt.members(case.concept);
        let upload_id = members[rng.gen_range(0..members.len())];
        let style = system.corpus().kb().get(upload_id).style.unwrap();
        let img = match system.corpus().kb().get(upload_id).content(1) {
            Some(RawContent::Image(i)) => i.clone(),
            _ => unreachable!(),
        };
        let mut session = system.open_session();
        let reply = session
            .ask(Turn::text_and_image(&case.round1_text, img))
            .expect("image-assisted turn");
        let ids: Vec<u32> = reply.results.iter().map(|r| r.id).collect();
        rb_concept += recall_at_k(&gt, &ids, case.concept, K);
        rb_style += round2_recall_at_k(&gt, &ids, upload_id, case.concept, style, K);
    }
    let mut tb = Table::new(&["scenario (b) image-assisted", "metric", "value"]);
    tb.row(vec![
        "single round".into(),
        "concept recall@5".into(),
        format!("{:.3}", rb_concept / n),
    ]);
    tb.row(vec![
        "single round".into(),
        "style recall@5 (vs upload)".into(),
        format!("{:.3}", rb_style / n),
    ]);
    println!();
    tb.print();
}
