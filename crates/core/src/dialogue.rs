//! The QA panel (③ in Figure 3): multi-round dialogue sessions.
//!
//! A session scripts the interaction loop of Figures 1 and 4: submit text
//! (and optionally an image), receive ranked multi-modal results plus a
//! conversational reply, *select* a result by clicking it, refine, repeat
//! until satisfied.

use crate::components::{answer::AnswerGenerator, execute::QueryExecutor};
use crate::coordinator::MqaSystem;
use crate::error::MqaError;
use mqa_encoders::ImageData;
use mqa_graph::SearchStats;
use mqa_kb::ObjectId;
use mqa_retrieval::MultiModalQuery;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One user turn: any combination of text, an uploaded image, a click on a
/// previous result, and a weight override.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Turn {
    /// Request text.
    pub text: Option<String>,
    /// Uploaded reference image.
    pub image: Option<ImageData>,
    /// Click on result `select` (0-based rank) of the *previous* reply.
    pub select: Option<usize>,
    /// Negative feedback: result `reject` (0-based rank) of the previous
    /// reply is excluded from this session's future replies.
    pub reject: Option<usize>,
    /// Raw per-modality weight override for this turn.
    pub weights: Option<Vec<f32>>,
    /// Per-turn latency budget in microseconds. When set (and an engine
    /// is attached), the turn's search runs under a [`mqa_engine::Deadline`]
    /// and may be shed with a typed [`MqaError::Shed`] outcome instead of
    /// queueing unboundedly under load.
    pub deadline_us: Option<u64>,
}

impl Turn {
    /// A text-only turn.
    pub fn text(text: impl Into<String>) -> Self {
        Self {
            text: Some(text.into()),
            ..Self::default()
        }
    }

    /// A voice turn (Figure 1's "text or audio form"): the transcript of
    /// the user's spoken request, handled identically to typed text.
    pub fn voice(transcript: impl Into<String>) -> Self {
        Self::text(transcript)
    }

    /// A turn with text and an uploaded image (Figure 4b).
    pub fn text_and_image(text: impl Into<String>, image: ImageData) -> Self {
        Self {
            text: Some(text.into()),
            image: Some(image),
            ..Self::default()
        }
    }

    /// A refinement turn: click result `rank`, then ask for more
    /// (Figure 4a round 2).
    pub fn select_and_text(rank: usize, text: impl Into<String>) -> Self {
        Self {
            text: Some(text.into()),
            select: Some(rank),
            ..Self::default()
        }
    }

    /// A negative-feedback turn: "not this one" on result `rank`, plus a
    /// re-request. The rejected object never reappears in this session.
    pub fn reject_and_text(rank: usize, text: impl Into<String>) -> Self {
        Self {
            text: Some(text.into()),
            reject: Some(rank),
            ..Self::default()
        }
    }

    /// Attaches a weight override.
    pub fn with_weights(mut self, raw: Vec<f32>) -> Self {
        self.weights = Some(raw);
        self
    }

    /// Attaches a per-turn latency budget (microseconds).
    pub fn with_deadline_us(mut self, budget_us: u64) -> Self {
        self.deadline_us = Some(budget_us);
        self
    }
}

/// One retrieved object as shown in the QA panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievedItem {
    /// Knowledge-base object id.
    pub id: ObjectId,
    /// Object title.
    pub title: String,
    /// Caption snippet.
    pub snippet: String,
    /// Framework distance (lower = better).
    pub distance: f32,
}

/// The system's reply to one turn.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Ranked results.
    pub results: Vec<RetrievedItem>,
    /// Conversational summary (absent when no LLM is configured).
    pub message: Option<String>,
    /// Retrieval latency of the turn.
    pub latency: Duration,
    /// Graph-walk counters of the turn's search.
    pub stats: SearchStats,
    /// The dialogue round this reply belongs to (1-based).
    pub round: usize,
}

/// A live dialogue session bound to a built system.
pub struct DialogueSession<'a> {
    system: &'a MqaSystem,
    last_results: Vec<ObjectId>,
    selected: Option<ObjectId>,
    excluded: Vec<ObjectId>,
    history: Vec<String>,
    round: usize,
}

impl<'a> DialogueSession<'a> {
    pub(crate) fn new(system: &'a MqaSystem) -> Self {
        Self {
            system,
            last_results: Vec::new(),
            selected: None,
            excluded: Vec::new(),
            history: Vec::new(),
            round: 0,
        }
    }

    /// The object the user last selected, if any.
    pub fn selected(&self) -> Option<ObjectId> {
        self.selected
    }

    /// Objects the user rejected ("not this one") in this session.
    pub fn excluded(&self) -> &[ObjectId] {
        &self.excluded
    }

    /// Result ids of the previous reply.
    pub fn last_results(&self) -> &[ObjectId] {
        &self.last_results
    }

    /// Completed rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Texts of earlier turns, oldest first.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Processes one turn: resolve the selection, augment the query with
    /// the selected result's image, search, and generate the reply.
    ///
    /// # Errors
    /// [`MqaError::EmptyTurn`] if the turn carries nothing;
    /// [`MqaError::NothingToSelect`] / [`MqaError::BadSelection`] for
    /// invalid clicks.
    pub fn ask(&mut self, turn: Turn) -> Result<Reply, MqaError> {
        // The turn's trace is declared before the span so it drops last:
        // the closing `core.turn` span records its stage into the trace
        // before the handle finalizes. Turns that error out finalize as
        // canceled (complete() is only reached on the success path).
        let trace = mqa_obs::trace::begin("core.turn");
        let _turn_span = mqa_obs::span("core.turn");
        mqa_obs::counter("core.session.turns").inc();
        // 1. Resolve the clicks (positive select, negative reject) into
        //    locals: a turn that fails below must leave the session as it
        //    was, so they are committed with the rest of the state in 5.
        let clicked = |rank: usize| -> Result<ObjectId, MqaError> {
            if self.last_results.is_empty() {
                return Err(MqaError::NothingToSelect);
            }
            self.last_results
                .get(rank)
                .copied()
                .ok_or(MqaError::BadSelection {
                    index: rank,
                    available: self.last_results.len(),
                })
        };
        let mut selected = match turn.select {
            Some(rank) => Some(clicked(rank)?),
            None => self.selected,
        };
        let rejected = turn.reject.map(clicked).transpose()?;
        if rejected.is_some() && selected == rejected {
            selected = None;
        }
        let newly_excluded = rejected.filter(|id| !self.excluded.contains(id));
        if turn.text.is_none() && turn.image.is_none() && turn.select.is_none() {
            return Err(MqaError::EmptyTurn);
        }

        // 2. Assemble the query, grafting the selected result's image.
        // With context carry-over on, terse refinements inherit the
        // previous turn's wording.
        let retrieval_text = match (&turn.text, self.history.last()) {
            (Some(t), Some(prev)) if self.system.config().carry_history => {
                Some(format!("{prev} {t}"))
            }
            (t, _) => t.clone(),
        };
        let mut query = MultiModalQuery {
            text: retrieval_text,
            image: turn.image.clone(),
            weight_override: turn.weights.clone(),
        };
        if let Some(sel) = selected {
            QueryExecutor::augment_with_selection(&mut query, self.system.corpus().kb(), sel);
        }
        if !query.has_content() {
            // A bare click on a text-only base resolves to nothing to
            // search with.
            return Err(MqaError::EmptyTurn);
        }

        // 3. Search, over-fetching for exclusions and diversification,
        //    then filter and (optionally) MMR-rerank back down to k.
        let k = self.system.executor().k();
        let diversify = self.system.config().diversify;
        let excluded = self.excluded.len() + usize::from(newly_excluded.is_some());
        let fetch = k + excluded + if diversify.is_some() { k } else { 0 };
        // A deadline turn can be shed under load — the typed outcome
        // surfaces to the caller instead of queueing past the budget.
        let mut out = self
            .system
            .executor()
            .run_turn(&query, fetch, turn.deadline_us)
            .map_err(MqaError::Shed)?;
        out.results
            .retain(|c| !self.excluded.contains(&c.id) && newly_excluded != Some(c.id));
        if let Some(lambda) = diversify {
            // Config::validate already rejects lambda outside [0, 1]; this
            // mapping is the last line of defence for hand-built configs.
            out.results = mqa_retrieval::mmr_diversify(
                self.system.corpus().store(),
                self.system.weights(),
                self.system.config().metric,
                &out.results,
                k,
                lambda,
            )
            .map_err(|e| MqaError::InvalidConfig(e.to_string()))?;
        } else {
            out.results.truncate(k);
        }

        // 4. Generate the conversational reply.
        let query_text = turn
            .text
            .clone()
            .unwrap_or_else(|| "(image query)".to_string());
        let entries =
            AnswerGenerator::context_entries(self.system.corpus().kb(), &out.results, selected);
        let gen_span = mqa_obs::span("core.turn.generate");
        let message = self
            .system
            .answerer()
            .generate(&query_text, entries.clone(), &self.history)
            .map(|c| c.text);
        let _ = gen_span.finish();

        // 5. Update the session state.
        self.selected = selected;
        self.excluded.extend(newly_excluded);
        self.round += 1;
        self.history.push(query_text);
        self.last_results = out.ids();
        let results = entries
            .into_iter()
            .map(|e| RetrievedItem {
                id: e.id,
                title: e.title,
                snippet: e.snippet,
                distance: e.distance,
            })
            .collect();
        if let Some(t) = &trace {
            t.complete();
        }
        Ok(Reply {
            results,
            message,
            latency: out.latency,
            stats: out.stats,
            round: self.round,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use mqa_kb::{DatasetSpec, GroundTruth};

    fn system() -> MqaSystem {
        let kb = DatasetSpec::weather()
            .objects(120)
            .concepts(6)
            .caption_noise(0.05)
            .seed(3)
            .generate();
        MqaSystem::build(Config::default(), kb).unwrap()
    }

    fn concept_phrase(sys: &MqaSystem, concept: u32) -> String {
        let gt = GroundTruth::build(sys.corpus().kb());
        let member = gt.members(concept)[0];
        let title = sys.corpus().kb().get(member).title.clone();
        title.rsplit_once(" #").map(|(p, _)| p.to_string()).unwrap()
    }

    #[test]
    fn two_round_refinement_flow() {
        let sys = system();
        let mut session = sys.open_session();
        let phrase = concept_phrase(&sys, 0);
        let r1 = session
            .ask(Turn::text(format!("show me {phrase}")))
            .unwrap();
        assert_eq!(r1.round, 1);
        assert_eq!(r1.results.len(), 5);
        let r2 = session
            .ask(Turn::select_and_text(
                0,
                format!("more {phrase} like this one"),
            ))
            .unwrap();
        assert_eq!(r2.round, 2);
        assert_eq!(session.selected(), Some(r1.results[0].id));
        assert!(session.history().len() == 2);
        // the reply message marks the earlier pick
        assert!(r2.message.unwrap().contains("★"));
    }

    #[test]
    fn select_without_results_errors() {
        let sys = system();
        let mut session = sys.open_session();
        assert_eq!(
            session.ask(Turn::select_and_text(0, "more")).unwrap_err(),
            MqaError::NothingToSelect
        );
    }

    #[test]
    fn out_of_range_selection_errors() {
        let sys = system();
        let mut session = sys.open_session();
        session.ask(Turn::text(concept_phrase(&sys, 1))).unwrap();
        assert_eq!(
            session.ask(Turn::select_and_text(99, "more")).unwrap_err(),
            MqaError::BadSelection {
                index: 99,
                available: 5
            }
        );
    }

    #[test]
    fn empty_turn_errors() {
        let sys = system();
        let mut session = sys.open_session();
        assert_eq!(
            session.ask(Turn::default()).unwrap_err(),
            MqaError::EmptyTurn
        );
    }

    #[test]
    fn bare_click_turn_searches_by_selected_image() {
        let sys = system();
        let mut session = sys.open_session();
        let r1 = session.ask(Turn::text(concept_phrase(&sys, 2))).unwrap();
        let picked = r1.results[1].id;
        // A click alone (no text) searches with the selected image.
        let r2 = session
            .ask(Turn {
                select: Some(1),
                ..Turn::default()
            })
            .unwrap();
        // the picked object itself tops the ranking (identical descriptor)
        assert_eq!(r2.results[0].id, picked);
    }

    #[test]
    fn rejected_results_never_reappear() {
        let sys = system();
        let mut session = sys.open_session();
        let phrase = concept_phrase(&sys, 0);
        let r1 = session
            .ask(Turn::text(format!("show me {phrase}")))
            .unwrap();
        let rejected = r1.results[0].id;
        let r2 = session
            .ask(Turn::reject_and_text(
                0,
                format!("not that one, other {phrase}"),
            ))
            .unwrap();
        assert!(session.excluded().contains(&rejected));
        assert!(
            r2.results.iter().all(|i| i.id != rejected),
            "rejected object returned"
        );
        assert_eq!(r2.results.len(), 5, "result count must not shrink");
        // ...and it stays excluded in later rounds too
        let r3 = session.ask(Turn::text(format!("more {phrase}"))).unwrap();
        assert!(r3.results.iter().all(|i| i.id != rejected));
    }

    /// A turn that errors — during click validation, as an empty turn, or
    /// shed by the engine after both clicks resolved — commits nothing.
    #[test]
    fn failed_turns_leave_the_session_unchanged() {
        let mut sys = system();
        sys.enable_engine(mqa_engine::EngineOptions::with_workers(1));
        let mut session = sys.open_session();
        let phrase = concept_phrase(&sys, 0);
        session
            .ask(Turn::text(format!("show me {phrase}")))
            .unwrap();
        session
            .ask(Turn::reject_and_text(1, format!("other {phrase}")))
            .unwrap();
        let state = |s: &DialogueSession<'_>| {
            (
                s.selected(),
                s.excluded().to_vec(),
                s.round(),
                s.last_results().to_vec(),
            )
        };
        let before = state(&session);
        assert_eq!((before.0, before.1.len(), before.2), (None, 1, 2));

        let failing = [
            (
                Turn {
                    select: Some(0),
                    reject: Some(99),
                    ..Turn::default()
                },
                MqaError::BadSelection {
                    index: 99,
                    available: 5,
                },
            ),
            (
                Turn {
                    reject: Some(0),
                    ..Turn::default()
                },
                MqaError::EmptyTurn,
            ),
            (
                // A zero budget has expired by the time it is submitted.
                Turn {
                    select: Some(0),
                    reject: Some(2),
                    ..Turn::text(format!("more {phrase}")).with_deadline_us(0)
                },
                MqaError::Shed(mqa_engine::TicketError::Expired),
            ),
        ];
        for (turn, expected) in failing {
            assert_eq!(session.ask(turn).unwrap_err(), expected);
            assert_eq!(state(&session), before, "after {expected:?}");
        }
    }

    #[test]
    fn rejecting_the_selected_object_clears_the_selection() {
        let sys = system();
        let mut session = sys.open_session();
        let phrase = concept_phrase(&sys, 1);
        session.ask(Turn::text(phrase.clone())).unwrap();
        session
            .ask(Turn::select_and_text(0, format!("more {phrase}")))
            .unwrap();
        let picked = session.selected().unwrap();
        // The pick appears in the new results at some rank; reject it there.
        let rank = session.last_results().iter().position(|&id| id == picked);
        if let Some(rank) = rank {
            session
                .ask(Turn::reject_and_text(
                    rank,
                    format!("actually no, {phrase}"),
                ))
                .unwrap();
            assert_eq!(session.selected(), None);
        }
    }

    #[test]
    fn diversification_spreads_results_across_styles() {
        let kb = DatasetSpec::weather()
            .objects(240)
            .concepts(6)
            .styles(4)
            .caption_noise(0.05)
            .image_noise(0.05)
            .seed(8)
            .generate();
        let gt = GroundTruth::build(&kb);
        let styles_of = |sys: &MqaSystem, ids: &[ObjectId]| {
            let mut styles: Vec<u32> = ids
                .iter()
                .map(|&id| sys.corpus().kb().get(id).style.unwrap())
                .collect();
            styles.sort_unstable();
            styles.dedup();
            styles.len()
        };
        // Plain ranking on a near-noiseless corpus returns one tight style
        // cluster; MMR spreads the k slots across styles.
        let plain_sys = MqaSystem::build(
            Config {
                k: 4,
                ..Config::default()
            },
            kb.clone(),
        )
        .unwrap();
        let mmr_sys = MqaSystem::build(
            Config {
                k: 4,
                diversify: Some(0.4),
                ..Config::default()
            },
            kb,
        )
        .unwrap();
        let member = gt.members(2)[0];
        let phrase = concept_phrase(&plain_sys, 2);
        let img = match plain_sys.corpus().kb().get(member).content(1) {
            Some(mqa_encoders::RawContent::Image(i)) => i.clone(),
            _ => unreachable!(),
        };
        let turn = || Turn::text_and_image(phrase.clone(), img.clone());
        let plain = plain_sys.ask_once(turn()).unwrap();
        let diverse = mmr_sys.ask_once(turn()).unwrap();
        let plain_ids: Vec<u32> = plain.results.iter().map(|r| r.id).collect();
        let mmr_ids: Vec<u32> = diverse.results.iter().map(|r| r.id).collect();
        assert!(
            styles_of(&mmr_sys, &mmr_ids) >= styles_of(&plain_sys, &plain_ids),
            "MMR produced no extra style spread: plain {plain_ids:?} vs mmr {mmr_ids:?}"
        );
    }

    #[test]
    fn carry_history_inherits_previous_topic() {
        let kb = DatasetSpec::weather()
            .objects(120)
            .concepts(6)
            .caption_noise(0.05)
            .seed(3)
            .generate();
        let gt = GroundTruth::build(&kb);
        let cfg = Config {
            carry_history: true,
            ..Config::default()
        };
        let sys = MqaSystem::build(cfg, kb).unwrap();
        let mut session = sys.open_session();
        let phrase = concept_phrase(&sys, 0);
        session
            .ask(Turn::text(format!("show me {phrase}")))
            .unwrap();
        // A terse follow-up with no concept words and no click still stays
        // on topic thanks to the carried context.
        let r2 = session.ask(Turn::text("even more of those")).unwrap();
        let hits = r2
            .results
            .iter()
            .filter(|i| gt.is_relevant(i.id, 0))
            .count();
        assert!(hits >= 3, "carried context found only {hits}/5 on-topic");
    }

    #[test]
    fn no_llm_config_gives_results_without_message() {
        let kb = DatasetSpec::weather()
            .objects(60)
            .concepts(6)
            .seed(4)
            .generate();
        let cfg = Config {
            llm: mqa_llm::LlmChoice::None,
            ..Config::default()
        };
        let sys = MqaSystem::build(cfg, kb).unwrap();
        let title = sys.corpus().kb().get(0).title.clone();
        let reply = sys.ask_once(Turn::text(title)).unwrap();
        assert!(reply.message.is_none());
        assert!(!reply.results.is_empty());
    }
}
