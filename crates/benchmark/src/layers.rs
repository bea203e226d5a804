//! The traced run: per-layer timings taken from outside, around public
//! calls, with the same best-round estimator as the end-to-end metrics.
//!
//! A turn is *replayed* stage by stage on the staged index with the
//! inputs `DialogueSession::ask` saw — `EncoderSet::encode_query` →
//! `UnifiedIndex::search_scratch` → `mmr_diversify` → the `mqa-llm`
//! generate call — and the replay must return the ids `ask` returned.
//! What `ask` costs beyond the replayed stages is `core.self_us`;
//! `bench.conservation_gap_share` is that remainder as a share of the
//! turn.

use crate::blocks::{
    next_click, paged_round, same_results, Click, DialogueRound, Tally, OUTSTANDING,
};
use crate::inputs::{corpus_spec, Inputs, ADD_BATCH, REMOVE_BATCH};
use crate::manifest::PER_LAYER;
use crate::span::Spans;
use crate::stats::{Better, Rounds};
use crate::system::{build_paged, build_staged, micros_since, StageTimes, Staged, DEVICE_READ};
use crate::workload::{Exact, MetricValue, Plan, Series};
use mqa_cache::PageCache;
use mqa_core::components::{AnswerGenerator, QueryExecutor};
use mqa_core::{MqaSystem, Turn};
use mqa_engine::{Deadline, QueryEngine, TicketError};
use mqa_graph::SearchScratch;
use mqa_kb::{ObjectId, ObjectRecord};
use mqa_llm::{LanguageModel, LlmChoice, MockChatModel, Prompt};
use mqa_retrieval::{mmr_diversify, MultiModalQuery};
use mqa_vector::{Candidate, FusedScanner, MultiVector};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(count, sum)` of the scheduler's batch-size histogram so far.
pub fn sched_batches() -> (u64, u64) {
    let h = mqa_obs::histogram("engine.sched.batch_size");
    (h.count(), h.sum())
}

/// Page-cache evictions so far (process-wide counter).
pub fn page_evictions() -> u64 {
    mqa_obs::counter("cache.page.evictions").get()
}

fn result_cache_hits() -> u64 {
    mqa_obs::counter("cache.result.hits").get()
}

/// Tickets of the burst probe, submitted at once under one deadline.
const BURST: usize = 256;
/// Deadline of the burst probe.
const BURST_DEADLINE_US: u64 = 5_000;
/// Calls per kernel round.
const KERNEL_CALLS: usize = 4_096;

/// Per-layer sample series and exact counts of a traced run.
#[derive(Default)]
pub struct Layers {
    /// `MqaSystem::build` alone, one sample per cycle.
    pub system_build_s: Rounds,
    /// Pipelined rate with the scheduler stage off.
    pub direct_qps: Rounds,
    /// The `ask` round of each cycle that the replay is compared with (as
    /// many tries per turn as the replayed stages get).
    pub asked: Rounds,
    /// Page-cache evictions during the timed paged rounds of a cycle.
    pub paged_evictions: u64,
    encode_all: Rounds,
    encode_text: Rounds,
    encode_mm: Rounds,
    graph_search: Rounds,
    retrieval_search: Rounds,
    diversify: Rounds,
    generate: Rounds,
    stage_sum: Rounds,
    replay_turns: u64,
    replay_evals: u64,
    replay_work: u64,
    replay_hops: u64,
    prompt_tokens: u64,
    l2_ns: Rounds,
    fused_ns: Rounds,
    cache_hit_us: Rounds,
    cache_miss_us: Rounds,
    cache_plain_us: Rounds,
    cache_hits: u64,
    cache_lookups: u64,
    roundtrip: Rounds,
    burst_served: u64,
    burst_rejected: u64,
    burst_expired: u64,
    burst_total: u64,
    batch_count: u64,
    batch_sum: u64,
    encode_record: Rounds,
    graph_add: Rounds,
    graph_remove: Rounds,
    build_us_per_object_half: f64,
    build_us_per_object_double: f64,
    add_us_double: f64,
    remove_us_double: f64,
    paged_cpu: Rounds,
    fit_query: Rounds,
    probe_ns: Rounds,
}

fn ids_of(results: &[Candidate]) -> Vec<ObjectId> {
    results.iter().map(|c| c.id).collect()
}

impl Layers {
    /// Replays every scripted turn stage by stage and checks each replay
    /// against the ids `ask` returned in `expected`.
    pub fn replay_round(
        &mut self,
        sys: &MqaSystem,
        st: &Staged,
        inputs: &Inputs,
        expected: &DialogueRound,
        tally: &mut Tally,
        mut spans: Option<&mut Spans>,
    ) {
        let cfg = sys.config();
        let k = cfg.k;
        let fetch = k + if cfg.diversify.is_some() { k } else { 0 };
        let ef = cfg.ef.max(fetch);
        let kb = sys.corpus().kb();
        let model = match cfg.llm {
            LlmChoice::Mock { seed } => Some(MockChatModel::new(seed)),
            LlmChoice::None => None,
        };
        let fw = sys.framework();
        let mut scratch = SearchScratch::new();
        let mut r = ReplaySamples::default();
        let first = self.replay_turns == 0;
        let mut expected_ids = expected.results.iter();
        let mut asked_queries: Vec<(MultiModalQuery, Vec<Candidate>)> = Vec::new();
        for d in &inputs.dialogues {
            let mut click: Option<Click> = None;
            let mut history: Vec<String> = Vec::new();
            for (pos, text) in [&d.round1, &d.round2, &d.round3].into_iter().enumerate() {
                let mut query = MultiModalQuery {
                    text: Some(text.clone()),
                    image: if pos == 0 { d.image.clone() } else { None },
                    weight_override: None,
                };
                if let Some(c) = click {
                    QueryExecutor::augment_with_selection(&mut query, kb, c.picked);
                }
                let multimodal = query.image.is_some();

                let t0 = Instant::now();
                let qv = st.corpus.encoders().encode_query(&query);
                let t1 = Instant::now();
                let found = st.index.search_scratch(&qv, None, fetch, ef, &mut scratch);
                let t2 = Instant::now();
                let results = match cfg.diversify {
                    Some(lambda) => mmr_diversify(
                        st.corpus.store(),
                        &st.weights,
                        cfg.metric,
                        &found.output.results,
                        k,
                        lambda,
                    )
                    .unwrap_or_default(),
                    None => found.output.results.iter().take(k).copied().collect(),
                };
                let t3 = Instant::now();
                // Prompt assembly is mqa-core glue; only the model call
                // is charged to the LLM layer.
                let entries =
                    AnswerGenerator::context_entries(kb, &results, click.map(|c| c.picked));
                let mut prompt = Prompt::with_context(text.clone(), entries);
                for h in &history {
                    prompt.push_history(h.clone());
                }
                let t4 = Instant::now();
                let completion = model.as_ref().map(|m| m.generate(&prompt, cfg.temperature));
                let t5 = Instant::now();
                black_box(&completion);

                let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
                let encode = us(t0, t1);
                r.encode_all.push(encode);
                if multimodal {
                    r.encode_mm.push(encode);
                } else {
                    r.encode_text.push(encode);
                }
                r.graph_search.push(us(t1, t2));
                r.diversify.push(us(t2, t3));
                r.generate.push(us(t4, t5));
                r.stage_sum
                    .push(encode + us(t1, t2) + us(t2, t3) + us(t4, t5));
                if let Some(s) = spans.as_deref_mut() {
                    let op = s.next_op();
                    let root = s.record("bench.replay", t0, t5, 0, op);
                    s.record("encoders.encode_query", t0, t1, root, op);
                    s.record("graph.search", t1, t2, root, op);
                    s.record("retrieval.diversify", t2, t3, root, op);
                    s.record("core.prompt", t3, t4, root, op);
                    s.record("llm.generate", t4, t5, root, op);
                }
                if first {
                    self.replay_turns += 1;
                    self.replay_evals += found.output.stats.evals;
                    self.replay_work += found.output.stats.total_distance_work();
                    self.replay_hops += found.output.stats.hops;
                    self.prompt_tokens += prompt.token_count() as u64;
                }

                let ids = ids_of(&results);
                let asked = expected_ids.next();
                tally.op(asked == Some(&ids), || {
                    format!(
                        "replayed turn {} returned {ids:?}, ask returned {asked:?}",
                        pos + 1
                    )
                });
                click = Some(next_click(inputs, d, &ids, click));
                history.push(text.clone());
                asked_queries.push((query, found.output.results));
            }
        }
        // The same retrievals through the framework trait, for the
        // retrieval layer's own share (encode + search + glue). A pass of
        // its own: alternating the staged index with the system's copy
        // would charge every stage for a doubled working set.
        for (query, staged_results) in &asked_queries {
            let t = Instant::now();
            let via_fw = fw.search(query, fetch, ef);
            let end = Instant::now();
            r.retrieval_search
                .push(end.duration_since(t).as_secs_f64() * 1e6);
            if let Some(s) = spans.as_deref_mut() {
                let op = s.next_op();
                s.record("retrieval.search", t, end, 0, op);
            }
            tally.op(same_results(&via_fw.results, staged_results), || {
                "staged index and system framework disagree".into()
            });
        }
        self.encode_all.push(r.encode_all);
        self.encode_text.push(r.encode_text);
        self.encode_mm.push(r.encode_mm);
        self.graph_search.push(r.graph_search);
        self.diversify.push(r.diversify);
        self.generate.push(r.generate);
        self.retrieval_search.push(r.retrieval_search);
        self.stage_sum.push(r.stage_sum);
    }

    /// One round of the two distance kernels on corpus rows: plain
    /// `l2_sq` and the early-abandoning fused scanner (no bound, so every
    /// call runs to completion).
    pub fn kernel_round(&mut self, st: &Staged, queries: &[MultiModalQuery]) {
        let store = st.corpus.store();
        let n = store.len();
        let Some(q) = queries.first() else { return };
        if n < 2 {
            return;
        }
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for i in 0..KERNEL_CALLS {
            let a = store.concat_of((i % n) as u32);
            let b = store.concat_of(((i + 1) % n) as u32);
            acc += mqa_vector::ops::l2_sq(black_box(a), black_box(b));
        }
        black_box(acc);
        self.l2_ns
            .push_one(t0.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64);

        let qv = st.corpus.encoders().encode_query(q);
        let mut scanner = FusedScanner::new(store.schema(), &qv, &st.weights, st.index.metric());
        let t1 = Instant::now();
        let mut acc = 0.0f32;
        for i in 0..KERNEL_CALLS {
            let row = store.concat_of((i % n) as u32);
            acc += scanner
                .distance(black_box(row), f32::INFINITY)
                .unwrap_or(0.0);
        }
        black_box(acc);
        self.fused_ns
            .push_one(t1.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64);
    }

    /// The repeat-turn block: the opening texts drawn 80/20 hot/cold, once
    /// with the result cache off and once with a cache smaller than the
    /// distinct texts. Leaves the cache enabled (the mutation script that
    /// follows invalidates it, as it would in service).
    pub fn result_cache_block(&mut self, sys: &mut MqaSystem, inputs: &Inputs, tally: &mut Tally) {
        let texts: Vec<&String> = inputs.dialogues.iter().map(|d| &d.round1).collect();
        if texts.is_empty() {
            return;
        }
        let hot = (texts.len() / 10).max(1);
        // A fixed 80/20 sequence (no clock, no seed: position decides).
        let sequence: Vec<&String> = (0..texts.len() * 2)
            .filter_map(|i| {
                let slot = if i % 5 == 4 {
                    hot + (i * 7) % texts.len().saturating_sub(hot).max(1)
                } else {
                    (i * 3) % hot
                };
                texts.get(slot % texts.len()).copied()
            })
            .collect();
        let pass = |sys: &MqaSystem, tally: &mut Tally| -> Vec<(f64, bool)> {
            sequence
                .iter()
                .filter_map(|text| {
                    let hits = result_cache_hits();
                    let t = Instant::now();
                    let reply = sys.ask_once(Turn::text(text.as_str()));
                    let us = micros_since(t);
                    tally.op(reply.is_ok(), || "repeat turn failed".into());
                    reply.ok().map(|_| (us, result_cache_hits() > hits))
                })
                .collect()
        };
        let plain = pass(sys, tally);
        self.cache_plain_us
            .push(plain.iter().map(|s| s.0).collect());
        let cache = sys.enable_result_cache((hot * 2).max(4));
        let cached = pass(sys, tally);
        black_box(cache.len());
        self.cache_hit_us
            .push(cached.iter().filter(|s| s.1).map(|s| s.0).collect());
        self.cache_miss_us
            .push(cached.iter().filter(|s| !s.1).map(|s| s.0).collect());
        if self.cache_lookups == 0 {
            self.cache_lookups = cached.len() as u64;
            self.cache_hits = cached.iter().filter(|s| s.1).count() as u64;
        }
    }

    /// Engine probes that are reported and never gated: the scheduler's
    /// mean batch size over the pipelined rounds that just ran, the idle
    /// round trip (one ticket outstanding: dominated by thread wake-up),
    /// and a burst of [`BURST`] tickets under one 5 ms deadline.
    pub fn engine_probes(
        &mut self,
        engine: &QueryEngine,
        batches_before: (u64, u64),
        queries: &[MultiModalQuery],
        k: usize,
        ef: usize,
    ) {
        let (count, sum) = sched_batches();
        self.batch_count += count.saturating_sub(batches_before.0);
        self.batch_sum += sum.saturating_sub(batches_before.1);

        let mut samples = Vec::new();
        for q in queries.iter().take(2 * OUTSTANDING) {
            let q = q.clone();
            let t = Instant::now();
            let out = engine.retrieve(q, k, ef);
            samples.push(micros_since(t));
            black_box(&out);
        }
        self.roundtrip.push(samples);

        let deadline = Some(Deadline::in_us(BURST_DEADLINE_US));
        let tickets: Vec<_> = (0..BURST)
            .filter_map(|i| queries.get(i % queries.len().max(1)).cloned())
            .map(|q| engine.submit_with_deadline(q, k, ef, deadline))
            .collect();
        for outcome in tickets.into_iter().map(|t| t.and_then(|t| t.wait())) {
            self.burst_total += 1;
            match outcome {
                Ok(_) => self.burst_served += 1,
                Err(TicketError::Rejected) => self.burst_rejected += 1,
                Err(TicketError::Expired) => self.burst_expired += 1,
                Err(TicketError::Canceled) => {}
            }
        }
    }

    /// The system's add batches repeated on the staged index: record
    /// encoding and the graph layer's insert, each timed alone.
    pub fn shadow_adds(
        &mut self,
        st: &Staged,
        batches: &[Vec<ObjectRecord>],
        live: &mut usize,
        tally: &mut Tally,
    ) {
        let mut encode = Vec::new();
        let mut add = Vec::new();
        for batch in batches {
            let encoded: Vec<MultiVector> = batch
                .iter()
                .map(|r| {
                    let t = Instant::now();
                    let v = st.corpus.encoders().encode_record(r);
                    encode.push(micros_since(t));
                    v
                })
                .collect();
            let t = Instant::now();
            let report = st.index.add_objects(&encoded);
            add.push(micros_since(t));
            match report {
                Ok(r) => {
                    *live += r.applied;
                    tally.op(r.live == *live, || "staged add lost count".into());
                }
                Err(e) => tally.op(false, || format!("staged add failed: {e}")),
            }
        }
        self.encode_record.push(encode);
        self.graph_add.push(add);
    }

    /// The system's removal batches repeated on the staged index.
    pub fn shadow_removes(
        &mut self,
        st: &Staged,
        batches: &[Vec<ObjectId>],
        live: &mut usize,
        tally: &mut Tally,
    ) {
        let mut samples = Vec::new();
        for batch in batches {
            let t = Instant::now();
            let report = st.index.remove_objects(batch);
            let us = micros_since(t);
            match report {
                Ok(r) => {
                    *live = live.saturating_sub(r.applied);
                    if !r.compacted {
                        samples.push(us);
                    }
                    tally.op(r.live == *live, || "staged remove lost count".into());
                }
                Err(e) => tally.op(false, || format!("staged remove failed: {e}")),
            }
        }
        self.graph_remove.push(samples);
    }

    /// Single-shot cost curve: the staged build at half and at double the
    /// workload's corpus, and one add and one remove round on the double
    /// index (what `*_growth_ratio` divides by the base size's numbers).
    ///
    /// # Errors
    /// A build error, rendered.
    pub fn scaling_probe(&mut self, plan: &Plan, quick: bool) -> Result<(), String> {
        let n = plan.sizes.objects;
        for (objects, double) in [(n / 2, false), (n * 2, true)] {
            let kb = corpus_spec(objects, (objects / 25).max(4)).generate();
            let mut times = StageTimes::default();
            let st = build_staged(&plan.config, kb, &mut times)?;
            let per_object = times.graph_s.floor(Better::Lower) * 1e6 / objects.max(1) as f64;
            if !double {
                self.build_us_per_object_half = per_object;
                continue;
            }
            self.build_us_per_object_double = per_object;
            let batches = if quick { 1 } else { 4 };
            let donors = corpus_spec(batches * ADD_BATCH, (objects / 25).max(4))
                .seed(97)
                .generate();
            let records: Vec<ObjectRecord> = donors.iter().map(|(_, r)| r.clone()).collect();
            let mut add = Vec::new();
            for batch in records.chunks(ADD_BATCH) {
                let encoded: Vec<MultiVector> = batch
                    .iter()
                    .map(|r| st.corpus.encoders().encode_record(r))
                    .collect();
                let t = Instant::now();
                let report = st.index.add_objects(&encoded);
                add.push(micros_since(t));
                report.map_err(|e| format!("scaling probe add: {e}"))?;
            }
            let mut remove = Vec::new();
            for b in 0..(2 * batches) {
                let ids: Vec<ObjectId> = (0..REMOVE_BATCH)
                    .map(|i| ((b * REMOVE_BATCH + i) * 7 % objects) as ObjectId)
                    .collect();
                let t = Instant::now();
                let report = st.index.remove_objects(&ids);
                remove.push(micros_since(t));
                report.map_err(|e| format!("scaling probe remove: {e}"))?;
            }
            self.add_us_double = crate::stats::median(&add).unwrap_or(0.0);
            self.remove_us_double = crate::stats::median(&remove).unwrap_or(0.0);
        }
        Ok(())
    }

    /// Paged probes on twins of the workload's paged index: the same
    /// draws with a free device (the CPU share of a paged query), with a
    /// cache that fits every page, and the bare cost of a cache probe.
    ///
    /// # Errors
    /// A message when the staged index is not a flat navigation graph.
    pub fn paged_probes(
        &mut self,
        st: &Staged,
        encoded: &[MultiVector],
        draws: &[usize],
        k: usize,
        ef: usize,
        pages: usize,
    ) -> Result<(), String> {
        let mut scratch = SearchScratch::new();
        let cpu = build_paged(st, None, Duration::ZERO)?;
        let _ = paged_round(&cpu, st, encoded, draws, k, ef, &mut scratch, false);
        let round = paged_round(&cpu, st, encoded, draws, k, ef, &mut scratch, false);
        self.paged_cpu.push(round.samples);

        let fit = build_paged(st, Some(pages + 8), DEVICE_READ)?;
        let _ = paged_round(&fit, st, encoded, draws, k, ef, &mut scratch, false);
        let round = paged_round(&fit, st, encoded, draws, k, ef, &mut scratch, false);
        self.fit_query.push(round.samples);

        let cache = PageCache::new((pages / 4).max(1));
        let t = Instant::now();
        let mut hits = 0u32;
        for i in 0..KERNEL_CALLS {
            // 80/20 over the page ids, like the query draws.
            let page = if i % 5 == 4 {
                i % pages.max(1)
            } else {
                i % (pages / 10).max(1)
            };
            hits += u32::from(cache.probe(page as u32));
        }
        black_box(hits);
        self.probe_ns
            .push_one(t.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64);
        Ok(())
    }

    /// Every per-layer metric, in manifest order, from this run's layer
    /// series plus the end-to-end `series` and first-cycle counts.
    pub(crate) fn metrics(
        &self,
        plan: &Plan,
        cycles: usize,
        series: &Series,
        exact: &Exact,
        spans: usize,
    ) -> Vec<MetricValue> {
        let c = series;
        let counts = &exact.counts;
        let low = |r: &Rounds| (r.floor(Better::Lower), r.samples(), r.len());
        let exact_value = |v: f64| (v, 1usize, 1usize);
        let per =
            |total: u64, n: u64| exact_value(if n == 0 { 0.0 } else { total as f64 / n as f64 });
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let turn = c.turn.floor(Better::Lower);
        let asked = self.asked.floor(Better::Lower);
        let sched_us = inverse_us(c.engine_qps.best(Better::Higher));
        let direct_us = inverse_us(self.direct_qps.best(Better::Higher));
        let encode = self.encode_all.floor(Better::Lower);
        let search = self.graph_search.floor(Better::Lower);
        let retrieval = self.retrieval_search.floor(Better::Lower);
        let diversify = self.diversify.floor(Better::Lower);
        let generate = self.generate.floor(Better::Lower);
        let graph_add = self.graph_add.floor(Better::Lower);
        let graph_remove = self.graph_remove.floor(Better::Lower);
        let objects = plan.sizes.objects.max(1) as f64;
        let pages = counts.pages_read + counts.pages_cached;
        let bursts = self.burst_total / BURST as u64;
        let work_per_turn = if self.replay_turns == 0 {
            0.0
        } else {
            self.replay_work as f64 / self.replay_turns as f64
        };

        PER_LAYER
            .iter()
            .map(|spec| {
                let (value, samples, rounds) = match spec.name {
                    "core.turn_r1_us" => low(&c.turn_by_pos[0]),
                    "core.turn_r2_us" => low(&c.turn_by_pos[1]),
                    "core.turn_r3_us" => low(&c.turn_by_pos[2]),
                    "core.self_us" => exact_value(asked - retrieval - diversify - generate),
                    "core.build.preprocess_s" => low(&c.stages.preprocess_s),
                    "core.mutate.add_self_us" => exact_value(
                        c.add.floor(Better::Lower)
                            - ADD_BATCH as f64 * self.encode_record.floor(Better::Lower)
                            - graph_add,
                    ),
                    "encoders.encode_corpus_s" => low(&c.stages.encode_s),
                    "encoders.encode_query_text_us" => low(&self.encode_text),
                    "encoders.encode_query_mm_us" => low(&self.encode_mm),
                    "encoders.encode_record_us" => low(&self.encode_record),
                    "weights.learn_s" => low(&c.stages.learn_s),
                    "vector.l2_sq_ns" => low(&self.l2_ns),
                    "vector.fused_scan_ns" => low(&self.fused_ns),
                    "vector.scan_saved_share" => exact_value(exact.scan_saved_share),
                    "graph.build_s" => low(&c.stages.graph_s),
                    "graph.build_us_per_object" => {
                        exact_value(c.stages.graph_s.floor(Better::Lower) * 1e6 / objects)
                    }
                    "graph.build_us_per_object.n_half" => {
                        exact_value(self.build_us_per_object_half)
                    }
                    "graph.build_us_per_object.n_double" => {
                        exact_value(self.build_us_per_object_double)
                    }
                    "graph.search_us" => low(&self.graph_search),
                    "graph.ns_per_eval" => exact_value(share(search * 1e3, work_per_turn)),
                    "graph.evals_per_query" => per(self.replay_evals, self.replay_turns),
                    "graph.hops_per_query" => per(self.replay_hops, self.replay_turns),
                    "graph.mutate.add_batch_us" => low(&self.graph_add),
                    "graph.mutate.add_growth_ratio" => {
                        exact_value(share(self.add_us_double, graph_add))
                    }
                    "graph.mutate.remove_batch_us" => low(&self.graph_remove),
                    "graph.mutate.remove_growth_ratio" => {
                        exact_value(share(self.remove_us_double, graph_remove))
                    }
                    "graph.mutate.dirty_evals_per_query" => {
                        per(counts.dirty_evals, exact.dirty_queries)
                    }
                    "graph.mutate.clean_query_us" => low(&c.clean),
                    "graph.mutate.compaction_ms" => low(&c.compaction_ms),
                    "graph.mutate.compactions" => exact_value(counts.compactions as f64),
                    "graph.paged.layout_build_s" => low(&c.stages.layout_s),
                    "graph.paged.pages_read_per_query" => {
                        per(counts.pages_read, exact.paged_queries)
                    }
                    "graph.paged.pages_cached_per_query" => {
                        per(counts.pages_cached, exact.paged_queries)
                    }
                    "graph.paged.cpu_us" => low(&self.paged_cpu),
                    "retrieval.search_us" => low(&self.retrieval_search),
                    "retrieval.self_us" => exact_value(retrieval - encode - search),
                    "retrieval.diversify_us" => low(&self.diversify),
                    "llm.generate_us" => low(&self.generate),
                    "llm.prompt_tokens_per_turn" => per(self.prompt_tokens, self.replay_turns),
                    "cache.result.hit_us" => low(&self.cache_hit_us),
                    "cache.result.hit_share" => per(self.cache_hits, self.cache_lookups),
                    "cache.result.miss_overhead_us" => exact_value(
                        self.cache_miss_us.floor(Better::Lower)
                            - self.cache_plain_us.floor(Better::Lower),
                    ),
                    "cache.page.hit_share" => per(counts.pages_cached, pages),
                    "cache.page.evictions_per_query" => {
                        per(self.paged_evictions, exact.paged_queries)
                    }
                    "cache.page.probe_ns" => low(&self.probe_ns),
                    "cache.page.fit_query_us" => low(&self.fit_query),
                    "engine.sched_us_per_query" => {
                        (sched_us, c.engine_qps.samples(), c.engine_qps.len())
                    }
                    "engine.direct_us_per_query" => {
                        (direct_us, self.direct_qps.samples(), self.direct_qps.len())
                    }
                    "engine.sched_overhead_us" => exact_value(sched_us - direct_us),
                    "engine.overhead_us" => exact_value(direct_us - c.mm.floor(Better::Lower)),
                    "engine.batch_mean" => per(self.batch_sum, self.batch_count),
                    "engine.roundtrip_p50_us" => low(&self.roundtrip),
                    "engine.burst.goodput_share" => per(self.burst_served, self.burst_total),
                    "engine.burst.shed_rejected" => per(self.burst_rejected, bursts),
                    "engine.burst.shed_expired" => per(self.burst_expired, bursts),
                    "bench.trace_overhead_share" => {
                        exact_value(share(c.turn_traced.floor(Better::Lower) - turn, turn))
                    }
                    "bench.conservation_gap_share" => {
                        exact_value(share(asked - self.stage_sum.floor(Better::Lower), asked))
                    }
                    "bench.host_noise_ratio" => exact_value(share(c.turn.typical(), turn)),
                    "bench.rounds" => exact_value(c.turn.len() as f64),
                    "bench.cycles" => exact_value(cycles as f64),
                    "bench.setup_conservation_gap_share" => {
                        let built = self.system_build_s.floor(Better::Lower);
                        exact_value(share(built - c.stages.total_s.floor(Better::Lower), built))
                    }
                    "bench.spans" => exact_value(spans as f64),
                    _ => (0.0, 0, 0),
                };
                MetricValue::new(spec, value, samples, rounds)
            })
            .collect()
    }
}

/// Microseconds per query of a rate in queries per second.
fn inverse_us(qps: f64) -> f64 {
    if qps > 0.0 {
        1e6 / qps
    } else {
        0.0
    }
}

#[derive(Default)]
struct ReplaySamples {
    encode_all: Vec<f64>,
    encode_text: Vec<f64>,
    encode_mm: Vec<f64>,
    graph_search: Vec<f64>,
    retrieval_search: Vec<f64>,
    diversify: Vec<f64>,
    generate: Vec<f64>,
    stage_sum: Vec<f64>,
}
