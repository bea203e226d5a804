//! Query Execution: query augmentation with a selected prior result, then
//! framework search.
//!
//! "Notably, any previous outcome can be chosen to augment the current
//! user query input (as indicated by the dotted arrow in the backend of
//! Figure 2), promoting an intelligent multi-modal search procedure."

use mqa_cache::{Fingerprint, ResultCache};
use mqa_encoders::RawContent;
use mqa_engine::{Deadline, QueryEngine, Ticket, TicketError};
use mqa_kb::{KnowledgeBase, ObjectId};
use mqa_retrieval::{MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::ModalityKind;
use std::sync::Arc;

/// The per-turn execution unit and the one owner of turn state: the
/// framework, the engine, the result cache and the result-set parameters.
pub struct QueryExecutor {
    framework: Arc<dyn RetrievalFramework>,
    engine: Option<Arc<QueryEngine>>,
    cache: Option<Arc<ResultCache<RetrievalOutput>>>,
    context_fp: u64,
    k: usize,
    ef: usize,
}

impl QueryExecutor {
    /// Creates the executor.
    ///
    /// # Panics
    /// Panics if `k == 0` (config validation happens earlier; this is the
    /// last line of defence).
    pub fn new(framework: Arc<dyn RetrievalFramework>, k: usize, ef: usize) -> Self {
        assert!(k > 0, "result count must be >= 1");
        Self {
            framework,
            engine: None,
            cache: None,
            context_fp: 0,
            k,
            ef: ef.max(k),
        }
    }

    /// The framework turns search.
    pub(crate) fn framework(&self) -> &Arc<dyn RetrievalFramework> {
        &self.framework
    }

    /// Routes subsequent turns through `engine`'s worker pool instead of
    /// searching on the calling thread.
    pub fn set_engine(&mut self, engine: Arc<QueryEngine>) {
        self.engine = Some(engine);
    }

    /// The engine in use, if any.
    pub fn engine(&self) -> Option<&Arc<QueryEngine>> {
        self.engine.as_ref()
    }

    /// Attaches a turn-level result cache. `context_fp` fingerprints the
    /// context cached answers are valid under (index configuration +
    /// modality weights); it keys every entry, so a refreshed fingerprint
    /// makes stale answers unreachable even without invalidation.
    pub fn set_cache(&mut self, cache: Arc<ResultCache<RetrievalOutput>>, context_fp: u64) {
        self.cache = Some(cache);
        self.context_fp = context_fp;
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache<RetrievalOutput>>> {
        self.cache.as_ref()
    }

    /// Swaps the framework searches go to (weight re-learning rebuilds
    /// the index over the same corpus) under the new context `context_fp`,
    /// and invalidates the result cache: its answers were computed under
    /// the old context.
    pub(crate) fn set_framework(
        &mut self,
        framework: Arc<dyn RetrievalFramework>,
        context_fp: u64,
    ) {
        self.framework = framework;
        self.context_fp = context_fp;
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
    }

    /// Fingerprints everything that determines a turn's retrieval answer:
    /// the executor's context (index config + weights) plus the query
    /// content and result-set parameters.
    fn turn_fingerprint(&self, query: &MultiModalQuery, k: usize, ef: usize) -> u64 {
        Fingerprint::new()
            .u64(self.context_fp)
            .opt_str(query.text.as_deref())
            .opt_f32_slice(query.image.as_ref().map(|i| i.features()))
            .opt_f32_slice(query.weight_override.as_deref())
            .usize(k)
            .usize(ef)
            .finish()
    }

    /// Searches for `k` results (`ef` widens along with `k`: exclusion
    /// filtering and diversification over-fetch), through the engine when
    /// one is attached and serially otherwise. A repeated turn is served
    /// from the result cache when one is attached (the replay carries the
    /// original call's stats and latency) and answers within any budget.
    ///
    /// With a per-turn latency budget a load shed is a *typed outcome*,
    /// not a silent serial retry: `Rejected` / `Expired` propagate to the
    /// caller, who chose the budget. Without one a turn the engine's
    /// admission control rejects is answered on the calling thread. A job
    /// that was abandoned (it panicked on a worker) resolves `Canceled`
    /// and is not re-run here, so the pool keeps the panic isolated.
    ///
    /// # Errors
    /// [`TicketError::Rejected`] or [`TicketError::Expired`] when the
    /// engine sheds a budgeted query; [`TicketError::Canceled`] when the
    /// engine abandoned the job.
    pub fn run_turn(
        &self,
        query: &MultiModalQuery,
        k: usize,
        budget_us: Option<u64>,
    ) -> Result<RetrievalOutput, TicketError> {
        let ef = self.ef.max(k);
        let deadline = budget_us.map(|budget_us| {
            mqa_obs::trace::note_deadline_budget(budget_us);
            Deadline::in_us(budget_us)
        });
        let keyed = self
            .cache
            .as_ref()
            .map(|cache| (cache, self.turn_fingerprint(query, k, ef)));
        if let Some((cache, key)) = &keyed {
            if let Some(out) = cache.get(*key) {
                mqa_obs::trace::note_cache(true);
                return Ok(out);
            }
        }
        let served = self.engine.as_ref().map(|engine| {
            engine
                .submit_with_deadline(query.clone(), k, ef, deadline)
                .and_then(Ticket::wait)
        });
        let out = match served {
            Some(Ok(out)) => out,
            // Without a budget the turn still deserves an answer, so a
            // full queue degrades to the serial path.
            Some(Err(TicketError::Rejected)) if deadline.is_none() => {
                mqa_obs::trace::note_serial_fallback();
                self.framework.search(query, k, ef)
            }
            Some(Err(err)) => return Err(err),
            // No engine: the serial path cannot be overloaded by other
            // sessions, so the turn is simply served.
            None => self.framework.search(query, k, ef),
        };
        if let Some((cache, key)) = keyed {
            mqa_obs::trace::note_cache(false);
            cache.insert(key, out.clone());
        }
        Ok(out)
    }

    /// Augments `query` with the image content of a selected prior result:
    /// the selected object's first image/video-kind content becomes the
    /// query's reference image (unless the user supplied one explicitly).
    pub fn augment_with_selection(
        query: &mut MultiModalQuery,
        kb: &KnowledgeBase,
        selected: ObjectId,
    ) {
        if query.image.is_some() {
            return;
        }
        // A stale selection id (e.g. after corpus invalidation) degrades to
        // "no reference image" instead of panicking mid-dialogue.
        let Some(record) = kb.try_get(selected) else {
            return;
        };
        for (m, field) in kb.schema().fields().iter().enumerate() {
            if matches!(field.kind, ModalityKind::Image | ModalityKind::Video) {
                if let Some(RawContent::Image(img)) = record.content(m) {
                    query.image = Some(img.clone());
                    return;
                }
            }
        }
    }

    /// Result-set size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Search effort.
    pub fn ef(&self) -> usize {
        self.ef
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_engine::EngineOptions;
    use mqa_kb::DatasetSpec;
    use mqa_retrieval::FrameworkKind;

    /// A framework that panics on the query text `"boom"` and otherwise
    /// returns nothing.
    struct PanicsOnMarker;

    impl RetrievalFramework for PanicsOnMarker {
        fn kind(&self) -> FrameworkKind {
            FrameworkKind::Must
        }

        fn search(&self, query: &MultiModalQuery, _k: usize, _ef: usize) -> RetrievalOutput {
            assert_ne!(query.text.as_deref(), Some("boom"), "marker query");
            RetrievalOutput::default()
        }

        fn describe(&self) -> String {
            "panics on marker".into()
        }
    }

    #[test]
    fn a_panicked_engine_job_is_canceled_not_rerun() {
        let framework: Arc<dyn RetrievalFramework> = Arc::new(PanicsOnMarker);
        let mut exec = QueryExecutor::new(Arc::clone(&framework), 5, 16);
        exec.set_engine(Arc::new(QueryEngine::new(
            framework,
            EngineOptions::with_workers(1),
        )));
        let boom = MultiModalQuery::text("boom");
        assert_eq!(
            exec.run_turn(&boom, 5, None).map(|o| o.results),
            Err(TicketError::Canceled)
        );
        // The worker survived the panic and serves the next turn.
        let calm = MultiModalQuery::text("calm");
        assert!(exec.run_turn(&calm, 5, None).is_ok());
    }

    #[test]
    fn augmentation_grafts_selected_image() {
        let kb = DatasetSpec::weather()
            .objects(10)
            .concepts(2)
            .seed(1)
            .generate();
        let mut q = MultiModalQuery::text("more like this");
        QueryExecutor::augment_with_selection(&mut q, &kb, 3);
        let grafted = q.image.expect("image grafted");
        match kb.get(3).content(1).unwrap() {
            RawContent::Image(img) => assert_eq!(&grafted, img),
            _ => panic!("image field expected"),
        }
    }

    #[test]
    fn explicit_image_wins_over_selection() {
        let kb = DatasetSpec::weather()
            .objects(10)
            .concepts(2)
            .seed(1)
            .generate();
        let user_img = mqa_encoders::ImageData::new(vec![9.0; 64]);
        let mut q = MultiModalQuery::text_and_image("x", user_img.clone());
        QueryExecutor::augment_with_selection(&mut q, &kb, 3);
        assert_eq!(q.image, Some(user_img));
    }

    #[test]
    fn text_only_base_leaves_query_unchanged() {
        use mqa_encoders::RawContent;
        use mqa_kb::{ContentSchema, FieldSpec, KnowledgeBase, ObjectRecord};
        let mut kb = KnowledgeBase::new(
            "texts",
            ContentSchema::new(
                vec![FieldSpec {
                    name: "body".into(),
                    kind: ModalityKind::Text,
                }],
                0,
            ),
        );
        kb.ingest(ObjectRecord::new(
            "t",
            vec![Some(RawContent::text("hello"))],
        ))
        .unwrap();
        let mut q = MultiModalQuery::text("more");
        QueryExecutor::augment_with_selection(&mut q, &kb, 0);
        assert!(q.image.is_none());
    }
}
