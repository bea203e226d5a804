//! The coordinator: the system's central nexus.
//!
//! "The coordinator serves as the system's central nexus, supervising all
//! component operations and facilitating smooth data transition across the
//! system. Both the frontend and backend exclusively interact with the
//! coordinator." [`MqaSystem`] is that single reference point: building it
//! calls the three build-time components in order, each under one span,
//! and every frontend surface (config import/export, status panel,
//! dialogue sessions) goes through it.

use crate::components::{answer, execute, index, preprocess, represent};
use crate::config::Config;
use crate::dialogue::{DialogueSession, Reply, Turn};
use crate::error::MqaError;
use crate::status::{Milestone, StatusMonitor};
use mqa_cache::{Fingerprint, ResultCache};
use mqa_retrieval::{EncodedCorpus, RetrievalFramework, RetrievalOutput};
use mqa_vector::Weights;
use std::sync::Arc;

/// Index Construction under its span — the one call path
/// [`MqaSystem::build`] and [`MqaSystem::relearn_weights`] share, so the
/// panel row always describes the framework in force and how long it took
/// to build.
fn construct_index(
    rep: &represent::Represented,
    config: &Config,
    status: &mut StatusMonitor,
) -> Result<Arc<dyn RetrievalFramework>, MqaError> {
    let span = mqa_obs::span("core.build.index_construction");
    let built = index::run(rep, config)?;
    status.complete(Milestone::IndexConstruction, span.finish());
    status.detail(Milestone::IndexConstruction, built.description);
    Ok(built.framework)
}

/// The built MQA system.
pub struct MqaSystem {
    config: Config,
    corpus: Arc<EncodedCorpus>,
    weights: Weights,
    executor: execute::QueryExecutor,
    answerer: answer::AnswerGenerator,
    status: StatusMonitor,
    engine_options: Option<mqa_engine::EngineOptions>,
}

impl MqaSystem {
    /// Validates `config`, then runs Data Preprocessing → Vector
    /// Representation → Index Construction, each under one span whose
    /// duration is the milestone's time on the status panel, and wires the
    /// query-time components.
    ///
    /// # Errors
    /// Whatever the failing component returned, unchanged: configuration
    /// errors ([`MqaError::InvalidConfig`]) or an empty base
    /// ([`MqaError::EmptyKnowledgeBase`]).
    pub fn build(config: Config, kb: mqa_kb::KnowledgeBase) -> Result<Self, MqaError> {
        let _build_span = mqa_obs::span("core.build");
        config.validate()?;
        let mut status = StatusMonitor::new();

        let span = mqa_obs::span("core.build.data_preprocessing");
        let pre = preprocess::run(kb)?;
        status.complete(Milestone::DataPreprocessing, span.finish());
        status.detail(
            Milestone::DataPreprocessing,
            format!(
                "knowledge base `{}`: {} objects, {} modalities ({} partial)",
                pre.kb.name(),
                pre.object_count,
                pre.modality_count,
                pre.partial_objects
            ),
        );
        status.detail(Milestone::DataPreprocessing, pre.stats.summary());

        let span = mqa_obs::span("core.build.vector_representation");
        let rep = represent::run(&pre, &config)?;
        status.complete(Milestone::VectorRepresentation, span.finish());
        let choices: Vec<String> = rep
            .corpus
            .encoders()
            .choices()
            .iter()
            .map(|c| format!("{} ({}d)", c.display_name(), c.dim()))
            .collect();
        status.detail(
            Milestone::VectorRepresentation,
            format!("encoders: {}", choices.join(" + ")),
        );
        status.detail(
            Milestone::VectorRepresentation,
            format!(
                "total vector dim: {}",
                rep.corpus.store().schema().total_dim()
            ),
        );
        status.detail(Milestone::VectorRepresentation, rep.weight_note.clone());

        let framework = construct_index(&rep, &config, &mut status)?;

        let executor = execute::QueryExecutor::new(framework, config.k, config.ef);
        let answerer = answer::AnswerGenerator::from_choice(&config.llm, config.temperature);
        status.detail(
            Milestone::QueryExecution,
            format!(
                "framework: {} (k={}, ef={})",
                config.framework.name(),
                config.k,
                config.ef
            ),
        );
        status.complete(Milestone::QueryExecution, std::time::Duration::ZERO);
        status.detail(
            Milestone::AnswerGeneration,
            format!(
                "llm: {} (temperature {})",
                answerer.model_name(),
                config.temperature
            ),
        );
        status.complete(Milestone::AnswerGeneration, std::time::Duration::ZERO);

        Ok(Self {
            config,
            corpus: rep.corpus,
            weights: rep.weights,
            executor,
            answerer,
            status,
            engine_options: None,
        })
    }

    /// Opens a multi-round dialogue session (the QA panel, ③ in Figure 3).
    pub fn open_session(&self) -> DialogueSession<'_> {
        DialogueSession::new(self)
    }

    /// One-shot question answering without session state.
    ///
    /// # Errors
    /// Propagates dialogue errors (e.g. [`MqaError::EmptyTurn`]).
    pub fn ask_once(&self, turn: Turn) -> Result<Reply, MqaError> {
        self.open_session().ask(turn)
    }

    /// The live status panel.
    pub fn status(&self) -> &StatusMonitor {
        &self.status
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The encoded corpus.
    pub fn corpus(&self) -> &Arc<EncodedCorpus> {
        &self.corpus
    }

    /// The modality weights in force.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The retrieval framework.
    pub fn framework(&self) -> &Arc<dyn RetrievalFramework> {
        self.executor.framework()
    }

    /// Spawns a concurrent [`mqa_engine::QueryEngine`] over the framework
    /// and routes every subsequent turn through its worker pool. Answers
    /// are identical to the serial path; only the thread doing the search
    /// changes. Returns the engine for direct (batch) submission.
    pub fn enable_engine(
        &mut self,
        options: mqa_engine::EngineOptions,
    ) -> Arc<mqa_engine::QueryEngine> {
        let engine = Arc::new(mqa_engine::QueryEngine::new(
            Arc::clone(self.framework()),
            options,
        ));
        self.executor.set_engine(Arc::clone(&engine));
        self.engine_options = Some(options);
        engine
    }

    /// The engine turns are routed through, if [`MqaSystem::enable_engine`]
    /// was called.
    pub fn engine(&self) -> Option<&Arc<mqa_engine::QueryEngine>> {
        self.executor.engine()
    }

    /// Fingerprints everything cached answers depend on besides the query
    /// itself: the full configuration and the weights in force.
    fn context_fingerprint(&self) -> u64 {
        Fingerprint::new()
            .str(&self.config.to_json())
            .f32_slice(self.weights.as_slice())
            .finish()
    }

    /// Attaches a turn-level result cache of `capacity` entries: repeated
    /// turns (same query content, weights, and result-set parameters) are
    /// answered from the cache without touching the framework or engine.
    /// The cache is invalidated automatically when the context changes
    /// (see [`MqaSystem::relearn_weights`]). Returns the cache for metric
    /// inspection; calling again replaces the cache.
    pub fn enable_result_cache(&mut self, capacity: usize) -> Arc<ResultCache<RetrievalOutput>> {
        let cache = Arc::new(ResultCache::new(capacity));
        self.executor
            .set_cache(Arc::clone(&cache), self.context_fingerprint());
        cache
    }

    /// Re-learns the modality weights with `trainer`, rebuilds the
    /// framework (and engine, when one is enabled) over the same corpus,
    /// and invalidates the result cache — cached answers were computed
    /// under the old weights and must not survive the change.
    ///
    /// # Errors
    /// [`MqaError::InvalidConfig`] when the corpus is unlabelled (weight
    /// learning needs concept labels); build errors propagate from index
    /// construction.
    pub fn relearn_weights(&mut self, trainer: mqa_weights::TrainerConfig) -> Result<(), MqaError> {
        let _span = mqa_obs::span("core.relearn_weights");
        let labels = self.corpus.concept_labels().ok_or_else(|| {
            MqaError::InvalidConfig(
                "weight re-learning requires a corpus with concept labels".to_string(),
            )
        })?;
        let out = mqa_weights::WeightLearner::new(trainer).learn(self.corpus.store(), &labels);
        self.weights = out.weights.clone();
        self.config.trainer = trainer;
        let note = format!(
            "re-learned weights {:?} (triplet accuracy {:.2})",
            out.weights
                .as_slice()
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            out.triplet_accuracy
        );
        let rep = represent::Represented {
            corpus: Arc::clone(&self.corpus),
            weights: self.weights.clone(),
            learned: Some(out),
            weight_note: note.clone(),
        };
        let framework = construct_index(&rep, &self.config, &mut self.status)?;
        self.executor
            .set_framework(framework, self.context_fingerprint());
        if let Some(options) = self.engine_options {
            self.enable_engine(options);
        }
        self.status.detail(Milestone::VectorRepresentation, note);
        Ok(())
    }

    /// Adds objects to the live system without a rebuild: each record is
    /// validated against the knowledge-base schema, re-encoded through the
    /// corpus's encoder set, and inserted into the framework's index,
    /// which publishes a new snapshot while concurrent queries (including
    /// engine workers mid-drain) keep reading the generation they pinned.
    /// The result cache is invalidated — cached answers predate the new
    /// objects.
    ///
    /// # Errors
    /// [`MqaError::Mutation`] when the knowledge base rejects a record,
    /// the framework does not support mutation (only MUST does), or the
    /// index rejects the batch; nothing is modified on error.
    pub fn add_objects(
        &mut self,
        records: &[mqa_kb::ObjectRecord],
    ) -> Result<mqa_graph::MutationReport, MqaError> {
        let _span = mqa_obs::span("core.mutate.add");
        let grown = self
            .corpus
            .with_records(records)
            .map_err(|(i, e)| MqaError::Mutation(format!("record {i}: {e}")))?;
        // The index receives the rows `with_records` just encoded into the
        // grown store, so each record is encoded exactly once.
        let vec_id = mqa_vector::cast::vec_id;
        let encoded: Vec<mqa_vector::MultiVector> = (vec_id(self.corpus.store().len())
            ..vec_id(grown.store().len()))
            .map(|id| grown.store().multivector_of(id))
            .collect();
        let report = self
            .framework()
            .add_objects(&encoded)
            .map_err(|e| MqaError::Mutation(e.to_string()))?;
        self.corpus = Arc::new(grown);
        self.note_mutation(&format!(
            "added {} objects (epoch {}, {} live)",
            report.applied, report.epoch, report.live
        ));
        Ok(report)
    }

    /// Removes objects from the live system: their index entries are
    /// tombstoned (never surfacing in results again, with graph compaction
    /// once enough deletes accumulate) and the result cache is
    /// invalidated. Knowledge-base records are retained so ids stay dense
    /// and earlier replies keep resolving.
    ///
    /// # Errors
    /// [`MqaError::Mutation`] when the framework does not support
    /// mutation or an id is out of range; nothing is modified on error.
    pub fn remove_objects(
        &mut self,
        ids: &[mqa_vector::VecId],
    ) -> Result<mqa_graph::MutationReport, MqaError> {
        let _span = mqa_obs::span("core.mutate.remove");
        let report = self
            .framework()
            .remove_objects(ids)
            .map_err(|e| MqaError::Mutation(e.to_string()))?;
        self.note_mutation(&format!(
            "removed {} objects (epoch {}, {} live{})",
            report.applied,
            report.epoch,
            report.live,
            if report.compacted { ", compacted" } else { "" }
        ));
        Ok(report)
    }

    /// Post-mutation bookkeeping shared by add and remove: one result-cache
    /// generation bump per mutation batch, plus a status-panel note.
    fn note_mutation(&mut self, note: &str) {
        if let Some(cache) = self.executor.cache() {
            cache.invalidate_all();
        }
        self.status
            .detail(Milestone::IndexConstruction, note.to_string());
    }

    pub(crate) fn executor(&self) -> &execute::QueryExecutor {
        &self.executor
    }

    pub(crate) fn answerer(&self) -> &answer::AnswerGenerator {
        &self.answerer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_kb::DatasetSpec;

    fn kb() -> mqa_kb::KnowledgeBase {
        DatasetSpec::weather()
            .objects(80)
            .concepts(8)
            .seed(1)
            .generate()
    }

    #[test]
    fn build_completes_and_ticks_milestones() {
        let sys = MqaSystem::build(Config::default(), kb()).unwrap();
        for m in Milestone::ALL {
            assert!(sys.status().is_done(m), "{m:?} not ticked");
        }
        let panel = sys.status().render();
        assert!(panel.contains("knowledge base `weather`"));
        assert!(panel.contains("encoders:"));
    }

    #[test]
    fn invalid_config_rejected_before_any_work() {
        let cfg = Config {
            k: 0,
            ..Config::default()
        };
        assert!(matches!(
            MqaSystem::build(cfg, kb()),
            Err(MqaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_base_surfaces_typed_error() {
        let empty = mqa_kb::KnowledgeBase::new("empty", mqa_kb::ContentSchema::caption_image(64));
        let err = match MqaSystem::build(Config::default(), empty) {
            Err(e) => e,
            Ok(_) => panic!("empty base must fail"),
        };
        assert_eq!(err, MqaError::EmptyKnowledgeBase);
    }

    #[test]
    fn component_failure_reaches_the_caller_as_the_component_returned_it() {
        // Wrong encoder-choice count fails inside Vector Representation.
        let cfg = Config {
            encoders: Some(vec![mqa_encoders::EncoderChoice::HashingText { dim: 8 }]),
            ..Config::default()
        };
        let from_component = match represent::run(&preprocess::run(kb()).unwrap(), &cfg) {
            Err(e) => e,
            Ok(_) => panic!("mismatched encoder count must fail"),
        };
        assert!(matches!(from_component, MqaError::InvalidConfig(_)));
        let from_build = match MqaSystem::build(cfg, kb()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched encoder count must fail"),
        };
        assert_eq!(from_build, from_component);
    }

    #[test]
    fn ask_once_returns_results_and_message() {
        let sys = MqaSystem::build(Config::default(), kb()).unwrap();
        let title = sys.corpus().kb().get(0).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let reply = sys.ask_once(Turn::text(phrase)).unwrap();
        assert_eq!(reply.results.len(), sys.config().k);
        assert!(reply.message.is_some());
    }

    #[test]
    fn weights_are_learned_by_default() {
        let sys = MqaSystem::build(Config::default(), kb()).unwrap();
        assert_eq!(sys.weights().arity(), 2);
    }

    #[test]
    fn result_cache_serves_repeated_turns() {
        let mut sys = MqaSystem::build(Config::default(), kb()).unwrap();
        let title = sys.corpus().kb().get(0).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let cold = sys.ask_once(Turn::text(phrase.clone())).unwrap();
        let cache = sys.enable_result_cache(64);
        assert_eq!(cache.len(), 0);
        let miss = sys.ask_once(Turn::text(phrase.clone())).unwrap();
        let hit = sys.ask_once(Turn::text(phrase)).unwrap();
        let ids = |r: &Reply| r.results.iter().map(|x| x.id).collect::<Vec<_>>();
        assert_eq!(ids(&cold), ids(&miss));
        assert_eq!(ids(&miss), ids(&hit));
        assert_eq!(cache.len(), 1, "one distinct turn cached");
        // A different turn is a different key.
        let other_title = sys.corpus().kb().get(1).title.clone();
        let other = other_title
            .rsplit_once(" #")
            .map(|(p, _)| p.to_string())
            .unwrap();
        sys.ask_once(Turn::text(other)).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn relearn_invalidates_cache_and_keeps_answers_consistent() {
        let mut sys = MqaSystem::build(Config::default(), kb()).unwrap();
        let cache = sys.enable_result_cache(64);
        let title = sys.corpus().kb().get(0).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        sys.ask_once(Turn::text(phrase.clone())).unwrap();
        let gen_before = cache.generation();
        sys.relearn_weights(mqa_weights::TrainerConfig {
            epochs: 3,
            ..sys.config().trainer
        })
        .unwrap();
        assert!(
            cache.generation() > gen_before,
            "relearn must invalidate the result cache"
        );
        // Post-relearn turns answer from the rebuilt framework and match a
        // freshly built system with the same trainer.
        let after = sys.ask_once(Turn::text(phrase.clone())).unwrap();
        let fresh_cfg = Config {
            trainer: sys.config().trainer,
            ..Config::default()
        };
        let fresh = MqaSystem::build(fresh_cfg, kb()).unwrap();
        let expect = fresh.ask_once(Turn::text(phrase)).unwrap();
        let ids = |r: &Reply| r.results.iter().map(|x| x.id).collect::<Vec<_>>();
        assert_eq!(ids(&after), ids(&expect));
    }

    #[test]
    fn relearn_updates_the_index_construction_row() {
        // Noisy images so re-learning moves the weights the MUST
        // description embeds.
        let noisy = DatasetSpec::weather()
            .objects(120)
            .concepts(6)
            .caption_noise(0.02)
            .image_noise(0.9)
            .seed(1)
            .generate();
        let cfg = Config {
            weight_learning: false,
            ..Config::default()
        };
        let mut sys = MqaSystem::build(cfg, noisy).unwrap();
        let before = sys.framework().describe();
        assert_eq!(
            sys.status().details(Milestone::IndexConstruction),
            std::slice::from_ref(&before)
        );
        sys.relearn_weights(sys.config().trainer).unwrap();
        let after = sys.framework().describe();
        assert_ne!(before, after, "re-learning must change the description");
        assert_eq!(
            sys.status().details(Milestone::IndexConstruction).last(),
            Some(&after),
            "{}",
            sys.status().render()
        );
    }

    #[test]
    fn relearn_on_unlabelled_corpus_is_typed_error() {
        use mqa_encoders::RawContent;
        use mqa_kb::{ContentSchema, FieldSpec, KnowledgeBase, ObjectRecord};
        use mqa_vector::ModalityKind;
        let mut unlabelled = KnowledgeBase::new(
            "texts",
            ContentSchema::new(
                vec![FieldSpec {
                    name: "body".into(),
                    kind: ModalityKind::Text,
                }],
                0,
            ),
        );
        for i in 0..8 {
            unlabelled
                .ingest(ObjectRecord::new(
                    format!("t{i}"),
                    vec![Some(RawContent::text(format!("object number {i}")))],
                ))
                .unwrap();
        }
        let mut sys = MqaSystem::build(Config::default(), unlabelled).unwrap();
        assert!(matches!(
            sys.relearn_weights(mqa_weights::TrainerConfig::default()),
            Err(MqaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn add_objects_extends_kb_and_answers_from_new_objects() {
        let mut sys = MqaSystem::build(Config::default(), kb()).unwrap();
        let cache = sys.enable_result_cache(64);
        let gen_before = cache.generation();
        // Re-ingest a copy of object 0, then retire the original: the
        // copy (id 80) must take over its answers.
        let record = sys.corpus().kb().get(0).clone();
        let original = Arc::downgrade(sys.corpus());
        let report = sys.add_objects(std::slice::from_ref(&record)).unwrap();
        assert_eq!((report.epoch, report.applied), (1, 1));
        assert_eq!(sys.corpus().kb().len(), 81);
        // The grown corpus took its place: nothing may pin the old one.
        assert!(original.upgrade().is_none(), "pre-mutation corpus leaked");
        // The index row is the corpus row bit for bit: the record's own
        // contents, encoded as a query, sit at distance exactly 0 from it.
        let probe = match (record.content(0), record.content(1)) {
            (Some(mqa_encoders::RawContent::Text(t)), Some(mqa_encoders::RawContent::Image(i))) => {
                mqa_retrieval::MultiModalQuery::text_and_image(t.clone(), i.clone())
            }
            other => panic!("caption + image expected, got {other:?}"),
        };
        let hits = sys.framework().search(&probe, 2, 64).results;
        assert!(
            hits.iter().any(|c| c.id == 80 && c.dist == 0.0),
            "index row 80 differs from corpus row 80: {hits:?}"
        );
        assert!(
            cache.generation() > gen_before,
            "each mutation batch must bump the result-cache generation"
        );
        let gen_mid = cache.generation();
        sys.remove_objects(&[0]).unwrap();
        assert!(cache.generation() > gen_mid);
        let title = sys.corpus().kb().get(0).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let reply = sys.ask_once(Turn::text(phrase)).unwrap();
        let ids: Vec<u32> = reply.results.iter().map(|x| x.id).collect();
        assert!(!ids.contains(&0), "retired object surfaced: {ids:?}");
        assert!(ids.contains(&80), "replacement object missing: {ids:?}");
        // The status panel records both batches.
        let panel = sys.status().render();
        assert!(panel.contains("added 1 objects"), "{panel}");
        assert!(panel.contains("removed 1 objects"), "{panel}");
    }

    #[test]
    fn mutation_rejections_are_typed_and_modify_nothing() {
        let mut sys = MqaSystem::build(Config::default(), kb()).unwrap();
        // A schema-violating record is rejected by the knowledge base.
        let bad = mqa_kb::ObjectRecord::new("bad".to_string(), vec![None, None]);
        let err = match sys.add_objects(&[bad]) {
            Err(e) => e,
            Ok(_) => panic!("empty record must be rejected"),
        };
        assert!(matches!(err, MqaError::Mutation(_)));
        assert_eq!(sys.corpus().kb().len(), 80, "rejected batch must not land");
        // An out-of-range delete is rejected by the index.
        assert!(matches!(
            sys.remove_objects(&[80]),
            Err(MqaError::Mutation(_))
        ));
        // A non-MUST framework refuses mutation outright.
        let cfg = Config {
            framework: mqa_retrieval::FrameworkKind::Je,
            ..Config::default()
        };
        let mut je = MqaSystem::build(cfg, kb()).unwrap();
        let record = je.corpus().kb().get(0).clone();
        let err = match je.add_objects(std::slice::from_ref(&record)) {
            Err(e) => e,
            Ok(_) => panic!("JE must refuse mutation"),
        };
        match err {
            MqaError::Mutation(msg) => assert!(msg.contains("JE"), "{msg}"),
            other => panic!("expected Mutation, got {other:?}"),
        }
        assert_eq!(je.corpus().kb().len(), 80, "refused batch must not land");
    }

    #[test]
    fn engine_turns_match_serial_turns() {
        let mut sys = MqaSystem::build(Config::default(), kb()).unwrap();
        let title = sys.corpus().kb().get(0).title.clone();
        let phrase = title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap();
        let serial = sys.ask_once(Turn::text(phrase.clone())).unwrap();
        assert!(sys.engine().is_none());
        let engine = sys.enable_engine(mqa_engine::EngineOptions::with_workers(2));
        assert_eq!(engine.workers(), 2);
        assert!(sys.engine().is_some());
        let concurrent = sys.ask_once(Turn::text(phrase)).unwrap();
        let ids = |r: &Reply| r.results.iter().map(|x| x.id).collect::<Vec<_>>();
        assert_eq!(ids(&serial), ids(&concurrent));
    }
}
