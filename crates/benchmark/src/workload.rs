//! The four workloads and the cycle that runs them.
//!
//! A run is a sequence of identical **cycles**: cold build of the
//! workload's system from the generated knowledge base (one `setup_s`
//! sample) → untimed warm-up → timed **rounds** (a round = one fixed block
//! of one operation type) → correctness checks → drop. Every cycle starts
//! from the same freshly built state, so rounds are identically
//! distributed even for mutation, and every operation type is sampled
//! across the whole run window. The work of a cycle is fixed by the plan;
//! `--seconds` only decides how many whole cycles fit.

use crate::blocks::{
    add_round, dialogue_round, engine_round, paged_round, peak_rss_mb, query_round, remove_round,
    same_results, DialogueRound, Tally,
};
use crate::inputs::{InputSizes, Inputs};
use crate::layers::{self, Layers};
use crate::manifest::{MetricSpec, END_TO_END};
use crate::span::Spans;
use crate::stats::{Better, Rounds};
use crate::system::{
    build_paged, build_staged, build_system, secs_since, PagedSide, StageTimes, Staged,
    DEVICE_READ, PAGED_DEGREE,
};
use mqa_cache::Fingerprint;
use mqa_core::{Config, MqaSystem};
use mqa_engine::{EngineOptions, QueryEngine, SchedOptions};
use mqa_graph::{IndexAlgorithm, SearchScratch, UnifiedIndex};
use mqa_kb::ObjectId;
use mqa_retrieval::{MultiModalQuery, RetrievalOutput};
use mqa_vector::{Candidate, MultiVector};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Leading chunks of the paged draw sequence that only warm the page
/// cache (untimed); the chunk after them is what every timed round runs.
const PAGED_WARM_ROUNDS: usize = 1;

/// Which block feeds a workload's `query_p50_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySource {
    /// `framework().search` on the opening-turn texts, clean index.
    Text,
    /// `framework().search` on the text-and-image queries (the serial
    /// reference the engine answers are compared with).
    Multimodal,
    /// `framework().search` with tombstones pending.
    Dirty,
    /// `PagedIndex::search_paged_into`.
    Paged,
}

/// A workload: the system it builds and the fixed work of one cycle.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// System configuration.
    pub config: Config,
    /// Input sizes.
    pub sizes: InputSizes,
    /// Which block feeds `query_p50_us`.
    pub query_source: QuerySource,
    /// Dialogue rounds per cycle (a round = every scripted dialogue).
    pub turn_rounds: usize,
    /// Serial text-query rounds per cycle.
    pub text_rounds: usize,
    /// Serial text-and-image query rounds per cycle.
    pub mm_rounds: usize,
    /// Pipelined engine rounds per cycle.
    pub engine_rounds: usize,
    /// Queries per engine round.
    pub engine_round_len: usize,
    /// `add_objects` rounds per cycle (the donor batches split evenly).
    pub add_rounds: usize,
    /// `remove_objects` rounds per cycle that stay under the compaction
    /// threshold (the non-crossing batches split evenly).
    pub remove_rounds: usize,
    /// Trailing removal batches that cross the compaction threshold.
    pub crossing_batches: usize,
    /// Dirty-read rounds per cycle (text queries, tombstones pending).
    pub dirty_rounds: usize,
    /// Paged-search rounds per cycle (each runs the same draws, so the
    /// rounds line up position by position).
    pub paged_rounds: usize,
    /// Queries per paged round.
    pub paged_round_len: usize,
    /// Least acceptable `recall_at_k`.
    pub recall_floor: f64,
}

fn sizes(objects: usize, dialogues: usize, mm: usize, adds: usize, removes: usize) -> InputSizes {
    InputSizes {
        objects,
        concepts: (objects / 25).max(4),
        dialogues,
        recall_dialogues: 0,
        mm_queries: mm,
        add_batches: adds,
        remove_batches: removes,
        skewed_draws: 0,
    }
}

impl Plan {
    /// Whether the cycle also builds and queries the paged side.
    pub fn paged(&self) -> bool {
        self.query_source == QuerySource::Paged
    }

    /// The plan of workload `name`; `quick` shrinks it to test size.
    pub fn named(name: &str, quick: bool) -> Option<Self> {
        let base = Config::default();
        let plan = match name {
            "dialogue" => Self {
                name: "dialogue",
                config: Config {
                    diversify: Some(0.7),
                    ..base
                },
                sizes: InputSizes {
                    // Recall rests on 1 000 dialogues; 200 of them are timed.
                    recall_dialogues: if quick { 4 } else { 800 },
                    ..if quick {
                        sizes(64, 4, 8, 1, 1)
                    } else {
                        sizes(1000, 200, 256, 6, 12)
                    }
                },
                query_source: QuerySource::Text,
                turn_rounds: 2,
                text_rounds: 2,
                mm_rounds: 1,
                engine_rounds: if quick { 1 } else { 4 },
                engine_round_len: if quick { 32 } else { 256 },
                add_rounds: 1,
                remove_rounds: 1,
                crossing_batches: 0,
                dirty_rounds: 0,
                paged_rounds: 0,
                paged_round_len: 0,
                recall_floor: 0.6,
            },
            "engine_pipelined" => Self {
                name: "engine_pipelined",
                config: Config {
                    index: IndexAlgorithm::hnsw(),
                    k: 10,
                    ef: 64,
                    ..base
                },
                sizes: if quick {
                    sizes(64, 4, 8, 1, 1)
                } else {
                    sizes(2000, 70, 512, 6, 12)
                },
                query_source: QuerySource::Multimodal,
                turn_rounds: 3,
                text_rounds: 3,
                mm_rounds: 1,
                engine_rounds: if quick { 2 } else { 12 },
                engine_round_len: if quick { 32 } else { 1024 },
                add_rounds: 1,
                remove_rounds: 1,
                crossing_batches: 0,
                dirty_rounds: 0,
                paged_rounds: 0,
                paged_round_len: 0,
                recall_floor: 0.9,
            },
            "mutate" => Self {
                name: "mutate",
                config: base,
                sizes: if quick {
                    // 64 + 32 objects; one batch of 16 leaves 17 % dead,
                    // the second crosses the 20 % threshold.
                    sizes(64, 4, 8, 1, 2)
                } else {
                    // 1000 + 192 objects; 12 batches of 16 leave 16 % dead,
                    // the 15th crosses the 20 % threshold.
                    sizes(1000, 70, 256, 6, 16)
                },
                query_source: QuerySource::Dirty,
                turn_rounds: 3,
                text_rounds: 3,
                mm_rounds: 1,
                engine_rounds: if quick { 1 } else { 4 },
                engine_round_len: if quick { 32 } else { 256 },
                add_rounds: 1,
                remove_rounds: 1,
                crossing_batches: if quick { 1 } else { 4 },
                dirty_rounds: 1,
                paged_rounds: 0,
                paged_round_len: 0,
                recall_floor: 0.9,
            },
            "paged_spill" => Self {
                name: "paged_spill",
                config: Config {
                    index: IndexAlgorithm::Vamana {
                        r: PAGED_DEGREE,
                        l: 48,
                        alpha: 1.2,
                        seed: 0,
                    },
                    k: 10,
                    ef: 32,
                    ..base
                },
                sizes: if quick {
                    sizes(64, 4, 8, 1, 1)
                } else {
                    sizes(1000, 70, 400, 6, 12)
                },
                query_source: QuerySource::Paged,
                turn_rounds: 3,
                text_rounds: 3,
                mm_rounds: 1,
                engine_rounds: if quick { 1 } else { 4 },
                engine_round_len: if quick { 32 } else { 256 },
                add_rounds: 1,
                remove_rounds: 1,
                crossing_batches: 0,
                dirty_rounds: 0,
                paged_rounds: 2,
                paged_round_len: if quick { 6 } else { 16 },
                recall_floor: 1.0,
            },
            _ => return None,
        };
        let mut plan = plan;
        if quick {
            // Test size: the default learner alone would outweigh the rest.
            plan.config.trainer.epochs = 2;
            plan.config.trainer.n_triplets = 200;
        }
        plan.sizes.skewed_draws = (PAGED_WARM_ROUNDS + 1) * plan.paged_round_len;
        Some(plan)
    }
}

/// How a run is sized and seeded.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of queries, scripts, donors and removal order.
    pub seed: u64,
    /// Wall-clock budget: whole cycles are started while they fit.
    pub seconds: f64,
    /// Fixed cycle count (overrides `seconds`).
    pub cycles: Option<usize>,
    /// Traced run: per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Test-size plan.
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Rounds behind the value.
    pub rounds: usize,
}

impl MetricValue {
    /// The value of declared metric `spec` (a non-finite value reads 0).
    pub fn new(spec: &MetricSpec, value: f64, samples: usize, rounds: usize) -> Self {
        Self {
            name: spec.name.to_string(),
            unit: spec.unit.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            rounds,
        }
    }
}

/// The outcome of one run of one workload.
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub traced: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The first failure notes.
    pub notes: Vec<String>,
    /// Cycles completed.
    pub cycles: usize,
    /// The gated metrics of the mode: every end-to-end metric (untraced)
    /// or every per-layer metric (traced).
    pub metrics: Vec<MetricValue>,
    /// Reported-not-gated companions (`.typical`, `.p99`).
    pub extras: Vec<MetricValue>,
    /// The spans of a traced run.
    pub spans: Option<Spans>,
}

/// Everything that must repeat exactly from cycle to cycle and from run
/// to run under one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleCounts {
    /// Distance evaluations of the first dialogue round.
    pub turn_evals: u64,
    /// Graph hops of the first dialogue round.
    pub turn_hops: u64,
    /// Hash of every turn's result ids.
    pub turn_ids: u64,
    /// Recall sum of the first dialogue round, as bits.
    pub turn_recall_bits: u64,
    /// Evaluations of the first text-query round.
    pub text_evals: u64,
    /// Hash of the serial text-and-image answers.
    pub mm_ids: u64,
    /// Hash of the engine answers.
    pub engine_ids: u64,
    /// Hash of the dirty-read answers.
    pub dirty_ids: u64,
    /// Evaluations of the first dirty-read round.
    pub dirty_evals: u64,
    /// Device page reads of the paged rounds.
    pub pages_read: u64,
    /// Cached page touches of the paged rounds.
    pub pages_cached: u64,
    /// Hash of the paged answers.
    pub paged_ids: u64,
    /// Live objects after the mutation script.
    pub live_after: u64,
    /// Compactions the script triggered.
    pub compactions: u64,
}

/// Order-sensitive fingerprint of ranked answers (ids and distance bits),
/// stable across runs.
fn hash_answers<'a>(lists: impl Iterator<Item = &'a [Candidate]>) -> u64 {
    lists
        .fold(Fingerprint::new(), |fp, list| {
            list.iter().fold(fp.usize(list.len()), |fp, c| {
                fp.u64(u64::from(c.id)).f32(c.dist)
            })
        })
        .finish()
}

fn hash_outputs(outs: &[RetrievalOutput]) -> u64 {
    hash_answers(outs.iter().map(|o| o.results.as_slice()))
}

/// Overlap of `got` with `truth` over `k` (both ranked lists).
fn overlap_recall(got: &[Candidate], truth: &[Candidate], k: usize) -> f64 {
    let want: HashSet<u32> = truth.iter().take(k).map(|c| c.id).collect();
    if want.is_empty() {
        return 0.0;
    }
    let hits = got.iter().take(k).filter(|c| want.contains(&c.id)).count();
    hits as f64 / want.len() as f64
}

/// Mean recall@k of `answers` against exact fused search over the system's
/// current corpus minus `dead`: the oracle for engine answers and dirty
/// reads.
fn exact_recall<'a>(
    sys: &MqaSystem,
    dead: &HashSet<ObjectId>,
    answered: impl Iterator<Item = (&'a MultiModalQuery, &'a [Candidate])>,
) -> Result<f64, String> {
    let cfg = sys.config();
    let oracle = UnifiedIndex::build(
        sys.corpus().store().clone(),
        sys.weights().clone(),
        cfg.metric,
        &IndexAlgorithm::Flat,
    );
    if !dead.is_empty() {
        let ids: Vec<ObjectId> = dead.iter().copied().collect();
        oracle
            .remove_objects(&ids)
            .map_err(|e| format!("oracle removal: {e}"))?;
    }
    let (mut sum, mut n) = (0.0, 0usize);
    for (query, got) in answered {
        let qv = sys.corpus().encoders().encode_query(query);
        let truth = oracle.search_exact(&qv, None, cfg.k);
        sum += overlap_recall(got, &truth.output.results, cfg.k);
        n += 1;
    }
    Ok(sum / n.max(1) as f64)
}

/// Answers that contain a tombstoned id.
fn surfaced(outs: &[RetrievalOutput], dead: &HashSet<ObjectId>) -> usize {
    outs.iter()
        .flat_map(|o| &o.results)
        .filter(|c| dead.contains(&c.id))
        .count()
}

/// The sample series of a run, by operation type.
#[derive(Default)]
pub(crate) struct Series {
    pub(crate) setup: Rounds,
    pub(crate) turn: Rounds,
    pub(crate) turn_traced: Rounds,
    pub(crate) turn_by_pos: [Rounds; 3],
    pub(crate) text: Rounds,
    pub(crate) mm: Rounds,
    pub(crate) dirty: Rounds,
    pub(crate) clean: Rounds,
    pub(crate) paged: Rounds,
    pub(crate) engine_qps: Rounds,
    pub(crate) add: Rounds,
    pub(crate) remove: Rounds,
    pub(crate) compaction_ms: Rounds,
    pub(crate) stages: StageTimes,
}

/// Values fixed by the first cycle (every later cycle must reproduce
/// `counts`).
#[derive(Default)]
pub(crate) struct Exact {
    pub(crate) counts: CycleCounts,
    pub(crate) recall: f64,
    pub(crate) dirty_queries: u64,
    pub(crate) paged_queries: u64,
    pub(crate) scan_saved_share: f64,
}

/// What a cold build leaves behind: the system, and — for the paged
/// workload and the traced run — the staged index and the paged side.
struct Built {
    sys: MqaSystem,
    staged: Option<Staged>,
    side: Option<PagedSide>,
}

struct Cycle<'a> {
    plan: &'a Plan,
    inputs: &'a Inputs,
    /// Whether this is the run's first cycle (it carries the oracles).
    first: bool,
    series: &'a mut Series,
    layers: &'a mut Option<Layers>,
    spans: &'a mut Option<Spans>,
    tally: &'a mut Tally,
    exact: &'a mut Exact,
    counts: CycleCounts,
}

fn split_rounds<T>(items: &[T], rounds: usize) -> Vec<&[T]> {
    if rounds == 0 || items.is_empty() {
        return Vec::new();
    }
    let per = items.len().div_ceil(rounds).max(1);
    items.chunks(per).collect()
}

impl Cycle<'_> {
    /// Runs one cycle: cold build, warm-up, the read blocks, the engine,
    /// the paged searches, the traced replays, the mutation script, and
    /// last the recall floor (first cycle) or the repeat check (later
    /// cycles).
    fn run(mut self) -> Result<(), String> {
        let mut built = self.cold_build()?;
        let (first_round, dialogue_recall) = self.dialogue_rounds(&built.sys);
        let reference = self.serial_rounds(&built.sys);
        let engine_recall = self.engine_rounds(&built.sys, &reference)?;
        let paged_recall = self.paged_rounds(&built)?;
        if let (Some(l), Some(st)) = (self.layers.as_mut(), &built.staged) {
            if let Some(expected) = &first_round {
                let spans = self.spans.as_mut();
                l.replay_round(&built.sys, st, self.inputs, expected, self.tally, spans);
            }
            l.kernel_round(st, &self.inputs.mm_queries);
            l.result_cache_block(&mut built.sys, self.inputs, self.tally);
        }
        let dirty_recall = self.mutation_script(&mut built)?;

        if self.first {
            let recall = match self.plan.query_source {
                QuerySource::Text => dialogue_recall,
                QuerySource::Multimodal => engine_recall,
                QuerySource::Dirty => dirty_recall,
                QuerySource::Paged => paged_recall,
            };
            let floor = self.plan.recall_floor;
            self.tally.op(recall >= floor, || {
                format!("recall {recall:.4} under the floor {floor}")
            });
            self.exact.recall = recall;
            self.exact.counts = self.counts;
        } else {
            let (counts, expected) = (&self.counts, &self.exact.counts);
            self.tally.op(counts == expected, || {
                format!("cycle counts drifted: {counts:?} vs first cycle {expected:?}")
            });
        }
        Ok(())
    }

    /// Cold build (one `setup_s` sample) and untimed warm-up.
    fn cold_build(&mut self) -> Result<Built, String> {
        let plan = self.plan;
        let cfg = &plan.config;
        let kb = self.inputs.kb.clone();
        let side_kb = (plan.paged() || self.layers.is_some()).then(|| self.inputs.kb.clone());
        let t0 = Instant::now();
        let sys = build_system(cfg, kb)?;
        let mut setup_s = secs_since(t0);
        if let Some(l) = self.layers.as_mut() {
            l.system_build_s.push_one(setup_s);
        }
        let mut built = Built {
            sys,
            staged: None,
            side: None,
        };
        if let Some(kb) = side_kb {
            let t1 = Instant::now();
            let st = build_staged(cfg, kb, &mut self.series.stages)?;
            if plan.paged() {
                let t2 = Instant::now();
                built.side = Some(build_paged(&st, None, DEVICE_READ)?);
                self.series.stages.layout_s.push_one(secs_since(t2));
                // The paged side is part of what must be ready to serve.
                setup_s += secs_since(t1);
            }
            built.staged = Some(st);
        }
        self.series.setup.push_one(setup_s);

        let mut unchecked = Tally::default();
        let _ = dialogue_round(
            &built.sys,
            self.inputs,
            &self.inputs.dialogues,
            &mut unchecked,
            None,
        );
        let fw = built.sys.framework().as_ref();
        let _ = query_round(fw, self.inputs.text_queries.iter(), cfg.k, cfg.ef);
        Ok(built)
    }

    /// Dialogue rounds through `DialogueSession::ask`; returns the first
    /// round (for the replay check) and the dialogue recall.
    fn dialogue_rounds(&mut self, sys: &MqaSystem) -> (Option<DialogueRound>, f64) {
        let inputs = self.inputs;
        let mut first_round = None;
        for r in 0..self.plan.turn_rounds {
            let mut round = dialogue_round(sys, inputs, &inputs.dialogues, self.tally, None);
            self.series.turn.push(round.all_turns());
            if let (0, Some(l)) = (r, self.layers.as_mut()) {
                // The round the replay is held against, one per cycle.
                l.asked.push(round.all_turns());
            }
            for (series, samples) in self.series.turn_by_pos.iter_mut().zip(&mut round.by_turn) {
                series.push(std::mem::take(samples));
            }
            if let Some(spans) = self.spans.as_mut() {
                // Traced twin of the same round, interleaved so both see
                // the same host.
                let traced =
                    dialogue_round(sys, inputs, &inputs.dialogues, self.tally, Some(spans));
                self.series.turn_traced.push(traced.all_turns());
            }
            if r == 0 {
                first_round = Some(round);
            }
        }
        let Some(round) = &first_round else {
            return (None, 0.0);
        };
        self.counts.turn_evals = round.evals;
        self.counts.turn_hops = round.hops;
        self.counts.turn_ids = round
            .results
            .iter()
            .fold(Fingerprint::new(), |fp, ids| {
                ids.iter()
                    .fold(fp.usize(ids.len()), |fp, &id| fp.u64(u64::from(id)))
            })
            .finish();
        self.counts.turn_recall_bits = round.recall_sum.to_bits();
        let (mut sum, mut n) = (round.recall_sum, round.recall_n);
        if self.first && !inputs.recall_dialogues.is_empty() {
            // Untimed: more scripted turns, so recall repeats across seeds.
            let more = dialogue_round(sys, inputs, &inputs.recall_dialogues, self.tally, None);
            sum += more.recall_sum;
            n += more.recall_n;
        }
        let recall = sum / n.max(1) as f64;
        (first_round, recall)
    }

    /// Serial `framework().search` rounds over the text queries and the
    /// text-and-image queries; returns the latter's answers, the reference
    /// the engine must reproduce.
    fn serial_rounds(&mut self, sys: &MqaSystem) -> Vec<RetrievalOutput> {
        let (k, ef) = (self.plan.config.k, self.plan.config.ef);
        let fw = sys.framework().as_ref();
        for r in 0..self.plan.text_rounds {
            let (samples, outs) = query_round(fw, self.inputs.text_queries.iter(), k, ef);
            self.series.text.push(samples);
            if r == 0 {
                self.counts.text_evals = outs.iter().map(|o| o.stats.evals).sum();
                let mut scan = mqa_vector::ScanStats::default();
                outs.iter()
                    .filter_map(|o| o.scan.as_ref())
                    .for_each(|s| scan.merge(s));
                self.exact.scan_saved_share = scan.savings();
            }
        }
        let mut reference = Vec::new();
        for r in 0..self.plan.mm_rounds {
            let (samples, outs) = query_round(fw, self.inputs.mm_queries.iter(), k, ef);
            self.series.mm.push(samples);
            if r == 0 {
                reference = outs;
            }
        }
        self.counts.mm_ids = hash_outputs(&reference);
        reference
    }

    /// Pipelined rounds through a one-worker `QueryEngine` with the
    /// scheduler stage on (and, traced, interleaved rounds with it off);
    /// every answer must equal the serial `reference`. Returns the recall
    /// of the engine's answers against exact search.
    fn engine_rounds(
        &mut self,
        sys: &MqaSystem,
        reference: &[RetrievalOutput],
    ) -> Result<f64, String> {
        let plan = self.plan;
        let (k, ef) = (plan.config.k, plan.config.ef);
        let queries = &self.inputs.mm_queries;
        let n = queries.len();
        if plan.engine_rounds == 0 || n == 0 {
            return Ok(0.0);
        }
        let fw = sys.framework();
        let options = EngineOptions::with_workers(1).with_sched(SchedOptions::default());
        let engine = QueryEngine::new(Arc::clone(fw), options);
        let direct = self
            .layers
            .is_some()
            .then(|| QueryEngine::new(Arc::clone(fw), EngineOptions::with_workers(1)));
        let batch = || -> Vec<MultiModalQuery> {
            (0..plan.engine_round_len)
                .filter_map(|i| queries.get(i % n).cloned())
                .collect()
        };
        let mut answers: Vec<Option<RetrievalOutput>> = vec![None; n];
        let batches_before = layers::sched_batches();
        for _ in 0..plan.engine_rounds {
            let mut mismatches = 0u64;
            let qps = engine_round(&engine, batch(), k, ef, self.tally, |i, out| {
                let slot = i % n;
                let same = reference
                    .get(slot)
                    .is_some_and(|serial| same_results(&out.results, &serial.results));
                mismatches += u64::from(!same);
                if let Some(cell) = answers.get_mut(slot) {
                    *cell = Some(out);
                }
            });
            self.series.engine_qps.push_one(qps);
            self.tally.op(mismatches == 0, || {
                format!("{mismatches} engine answers differ from the serial search")
            });
            if let (Some(direct), Some(l)) = (&direct, self.layers.as_mut()) {
                let qps = engine_round(direct, batch(), k, ef, self.tally, |_, _| {});
                l.direct_qps.push_one(qps);
            }
        }
        if let Some(l) = self.layers.as_mut() {
            l.engine_probes(&engine, batches_before, queries, k, ef);
        }
        let answered = || {
            queries
                .iter()
                .zip(&answers)
                .filter_map(|(q, a)| Some((q, a.as_ref()?.results.as_slice())))
        };
        self.counts.engine_ids = hash_answers(answered().map(|(_, a)| a));
        if self.first && plan.query_source == QuerySource::Multimodal {
            exact_recall(sys, &HashSet::new(), answered())
        } else {
            Ok(0.0)
        }
    }

    /// Paged rounds (paged workload only): one warming chunk of the draw
    /// sequence, then every timed round runs the same draws. Returns the
    /// recall against the in-memory search of the same graph.
    fn paged_rounds(&mut self, built: &Built) -> Result<f64, String> {
        let (Some(side), Some(st)) = (&built.side, &built.staged) else {
            return Ok(0.0);
        };
        let plan = self.plan;
        let (k, ef) = (plan.config.k, plan.config.ef);
        let encoded: Vec<MultiVector> = self
            .inputs
            .mm_queries
            .iter()
            .map(|q| st.corpus.encoders().encode_query(q))
            .collect();
        let mut scratch = SearchScratch::new();
        let warm = (PAGED_WARM_ROUNDS * plan.paged_round_len).min(self.inputs.skewed.len());
        let (warm_draws, draws) = self.inputs.skewed.split_at(warm);
        let _ = paged_round(side, st, &encoded, warm_draws, k, ef, &mut scratch, false);
        let evictions_before = layers::page_evictions();
        let mut hits: Vec<Vec<Candidate>> = Vec::new();
        for r in 0..plan.paged_rounds {
            let round = paged_round(side, st, &encoded, draws, k, ef, &mut scratch, r == 0);
            self.counts.pages_read += round.stats.pages_read;
            self.counts.pages_cached += round.stats.pages_cached;
            self.series.paged.push(round.samples);
            hits.extend(round.hits);
        }
        let evictions = layers::page_evictions().saturating_sub(evictions_before);
        self.counts.paged_ids = hash_answers(hits.iter().map(Vec::as_slice));
        self.exact.paged_queries = (draws.len() * plan.paged_rounds) as u64;
        // Paged answers must equal the in-memory search of the same graph:
        // the cache and the device decide cost, never results.
        let mut sum = 0.0;
        let mut identical = true;
        for (got, &qi) in hits.iter().zip(draws) {
            let Some(q) = encoded.get(qi) else { continue };
            let mem = st.index.search_scratch(q, None, k, ef, &mut scratch);
            sum += overlap_recall(got, &mem.output.results, k);
            identical &= same_results(got, &mem.output.results);
        }
        self.tally.op(identical, || {
            "paged results differ from the in-memory search".into()
        });
        if let Some(l) = self.layers.as_mut() {
            l.paged_evictions = evictions;
            l.paged_probes(st, &encoded, draws, k, ef, side.pages)?;
        }
        Ok(sum / hits.len().max(1) as f64)
    }

    /// The mutation script: add rounds, removal rounds under the
    /// compaction threshold, dirty reads, then the removals that cross it.
    /// Traced, every batch is mirrored on the staged index. Returns the
    /// recall of the dirty reads against exact search over the live set.
    fn mutation_script(&mut self, built: &mut Built) -> Result<f64, String> {
        let plan = self.plan;
        let (k, ef) = (plan.config.k, plan.config.ef);
        let inputs = self.inputs;
        let sys = &mut built.sys;
        let mut live = inputs.kb.len();
        let mut staged_live = live;
        for batches in split_rounds(&inputs.donors, plan.add_rounds) {
            let samples = add_round(sys, batches, &mut live, self.tally);
            self.series.add.push(samples);
            if let (Some(l), Some(st)) = (self.layers.as_mut(), &built.staged) {
                l.shadow_adds(st, batches, &mut staged_live, self.tally);
            }
        }
        let plain = inputs.removals.len().saturating_sub(plan.crossing_batches);
        let (plain_batches, crossing) = inputs.removals.split_at(plain);
        for batches in split_rounds(plain_batches, plan.remove_rounds) {
            let round = remove_round(sys, batches, &mut live, self.tally);
            self.tally.op(round.compaction_ms.is_empty(), || {
                "a removal under the threshold compacted".into()
            });
            self.series.remove.push(round.plain_us);
            if let (Some(l), Some(st)) = (self.layers.as_mut(), &built.staged) {
                l.shadow_removes(st, batches, &mut staged_live, self.tally);
            }
        }

        let mut dead: HashSet<ObjectId> = plain_batches.iter().flatten().copied().collect();
        let mut dirty: Vec<RetrievalOutput> = Vec::new();
        for r in 0..plan.dirty_rounds {
            let fw = sys.framework().as_ref();
            let (samples, outs) = query_round(fw, inputs.text_queries.iter(), k, ef);
            self.series.dirty.push(samples);
            if r == 0 {
                dirty = outs;
            }
        }
        let mut recall = 0.0;
        if !dirty.is_empty() {
            self.counts.dirty_ids = hash_outputs(&dirty);
            self.counts.dirty_evals = dirty.iter().map(|o| o.stats.evals).sum();
            self.exact.dirty_queries = dirty.len() as u64;
            let n = surfaced(&dirty, &dead);
            self.tally.op(n == 0, || {
                format!("{n} tombstoned ids surfaced in dirty reads")
            });
            if self.first {
                let answered = inputs
                    .text_queries
                    .iter()
                    .zip(dirty.iter().map(|o| o.results.as_slice()));
                recall = exact_recall(sys, &dead, answered)?;
            }
        }

        if !crossing.is_empty() {
            let round = remove_round(sys, crossing, &mut live, self.tally);
            self.counts.compactions = round.compaction_ms.len() as u64;
            self.tally.op(!round.compaction_ms.is_empty(), || {
                "the crossing removals never compacted".into()
            });
            for ms in round.compaction_ms {
                self.series.compaction_ms.push_one(ms);
            }
            dead.extend(crossing.iter().flatten().copied());
            if self.layers.is_some() {
                let fw = sys.framework().as_ref();
                let (samples, outs) = query_round(fw, inputs.text_queries.iter(), k, ef);
                self.series.clean.push(samples);
                let n = surfaced(&outs, &dead);
                self.tally.op(n == 0, || {
                    format!("{n} tombstoned ids surfaced after compaction")
                });
            }
        }
        self.counts.live_after = live as u64;
        Ok(recall)
    }
}

fn value(spec: &MetricSpec, value: f64, samples: usize, rounds: usize) -> MetricValue {
    MetricValue {
        name: spec.name.to_string(),
        unit: spec.unit.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        samples,
        rounds,
    }
}

fn from_rounds(spec: &MetricSpec, rounds: &Rounds) -> MetricValue {
    value(
        spec,
        rounds.floor(spec.better),
        rounds.samples(),
        rounds.len(),
    )
}

/// Companions of a gated timing: the best whole round, the typical
/// round and the tail.
fn companions(spec: &MetricSpec, rounds: &Rounds, out: &mut Vec<MetricValue>) {
    for (suffix, value) in [
        ("best_round", rounds.best(spec.better)),
        ("typical", rounds.typical()),
    ] {
        out.push(MetricValue {
            name: format!("{}.{suffix}", spec.name),
            unit: spec.unit.to_string(),
            value,
            samples: rounds.samples(),
            rounds: rounds.len(),
        });
    }
    if let Some(t) = rounds.tail() {
        out.push(MetricValue {
            name: format!("{}.p{:.1}", spec.name, t.percentile),
            unit: spec.unit.to_string(),
            value: t.value,
            samples: t.samples,
            rounds: rounds.len(),
        });
    }
}

fn query_series<'s>(plan: &Plan, series: &'s Series) -> &'s Rounds {
    match plan.query_source {
        QuerySource::Text => &series.text,
        QuerySource::Multimodal => &series.mm,
        QuerySource::Dirty => &series.dirty,
        QuerySource::Paged => &series.paged,
    }
}

fn end_to_end_metrics(
    plan: &Plan,
    series: &Series,
    exact: &Exact,
) -> (Vec<MetricValue>, Vec<MetricValue>) {
    let mut metrics = Vec::new();
    let mut extras = Vec::new();
    for spec in &END_TO_END {
        let rounds = match spec.name {
            "setup_s" => Some(&series.setup),
            "turn_p50_us" => Some(&series.turn),
            "query_p50_us" => Some(query_series(plan, series)),
            "engine_qps" => Some(&series.engine_qps),
            "add_batch_p50_us" => Some(&series.add),
            "remove_batch_p50_us" => Some(&series.remove),
            _ => None,
        };
        match (rounds, spec.name) {
            (Some(r), _) => {
                metrics.push(from_rounds(spec, r));
                companions(spec, r, &mut extras);
            }
            (None, "recall_at_k") => metrics.push(MetricValue::new(spec, exact.recall, 1, 1)),
            (None, "peak_rss_mb") => metrics.push(MetricValue::new(spec, peak_rss_mb(), 1, 1)),
            (None, _) => metrics.push(MetricValue::new(spec, 0.0, 0, 0)),
        }
    }
    // Every workload runs dialogue rounds, so they are the common noise
    // reading: typical round over best round.
    let (best, typical) = (series.turn.best(Better::Lower), series.turn.typical());
    extras.push(MetricValue {
        name: "bench.host_noise_ratio".into(),
        unit: "ratio".into(),
        value: if best > 0.0 { typical / best } else { 0.0 },
        samples: series.turn.samples(),
        rounds: series.turn.len(),
    });
    (metrics, extras)
}

/// Runs workload `plan` under `opts`.
///
/// # Errors
/// A message when the inputs cannot be generated or a build fails; failed
/// *operations* are counted in the report instead.
pub fn run(plan: &Plan, opts: &RunOptions) -> Result<Report, String> {
    let started = Instant::now();
    let inputs = Inputs::from_seed(&plan.sizes, opts.seed)?;
    let mut series = Series::default();
    let mut layers = opts.trace.then(Layers::default);
    let mut spans = opts.trace.then(Spans::new);
    let mut tally = Tally::default();
    let mut exact = Exact::default();

    if let Some(l) = layers.as_mut() {
        l.scaling_probe(plan, opts.quick)?;
    }

    let mut cycles = 0usize;
    loop {
        let cycle_start = Instant::now();
        Cycle {
            plan,
            inputs: &inputs,
            first: cycles == 0,
            series: &mut series,
            layers: &mut layers,
            spans: &mut spans,
            tally: &mut tally,
            exact: &mut exact,
            counts: CycleCounts::default(),
        }
        .run()?;
        cycles += 1;
        let done = match opts.cycles {
            Some(n) => cycles >= n,
            // Start another cycle only while a whole one still fits.
            None => cycles >= 2 && secs_since(started) + secs_since(cycle_start) > opts.seconds,
        };
        if done {
            break;
        }
    }

    let (metrics, extras) = match &layers {
        Some(l) => {
            let recorded = spans.as_ref().map_or(0, Spans::len);
            (
                l.metrics(plan, cycles, &series, &exact, recorded),
                Vec::new(),
            )
        }
        None => end_to_end_metrics(plan, &series, &exact),
    };

    Ok(Report {
        workload: plan.name.to_string(),
        traced: opts.trace,
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        cycles,
        metrics,
        extras,
        spans,
    })
}
