//! The timed operation blocks every workload is assembled from. A block
//! runs one **round** of one operation type on the driver thread, times
//! each operation from outside its public call, and counts what it
//! attempted and what failed.

use crate::inputs::{Dialogue, Inputs};
use crate::span::Spans;
use crate::system::{micros_since, PagedSide, Staged};
use mqa_core::{MqaSystem, Reply, Turn};
use mqa_engine::{QueryEngine, Ticket};
use mqa_graph::unified::FusedDistance;
use mqa_graph::{SearchScratch, SearchStats};
use mqa_kb::{recall_at_k, round2_recall_at_k, GroundTruth, ObjectId, ObjectRecord};
use mqa_retrieval::{MultiModalQuery, RetrievalFramework, RetrievalOutput};
use mqa_vector::{Candidate, MultiVector};
use std::collections::VecDeque;
use std::time::Instant;

/// Tickets the pipelined driver keeps in flight: a closed loop of this
/// many clients run from one thread.
pub const OUTSTANDING: usize = 32;

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations (and checks) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `note` is rendered only on failure.
    pub fn op(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 12 {
                self.notes.push(note());
            }
        }
    }
}

/// What one round of scripted dialogues produced.
#[derive(Debug, Default, Clone)]
pub struct DialogueRound {
    /// `ask` latencies (µs) by turn position.
    pub by_turn: [Vec<f64>; 3],
    /// Sum of per-turn recall (concept recall for the opening turn, style
    /// recall for the refinements).
    pub recall_sum: f64,
    /// Turns that contributed to `recall_sum`.
    pub recall_n: u64,
    /// Completed distance evaluations over all turns.
    pub evals: u64,
    /// Graph hops over all turns.
    pub hops: u64,
    /// Result ids of every turn, dialogue-major (replay check).
    pub results: Vec<Vec<ObjectId>>,
}

impl DialogueRound {
    /// All `ask` latencies of the round, in issue order by position.
    pub fn all_turns(&self) -> Vec<f64> {
        self.by_turn.iter().flatten().copied().collect()
    }
}

/// The simulated user's click carried by the next turn.
#[derive(Debug, Clone, Copy)]
pub struct Click {
    /// Rank of the clicked result in the previous reply.
    pub rank: usize,
    /// The clicked object.
    pub picked: ObjectId,
    /// Its style sub-cluster (what "more like this one" must resolve).
    pub style: u32,
}

/// Decides the click on a reply: the first on-concept result after the
/// opening turn, afterwards the first other result of the clicked style;
/// the top result when none qualifies (a bad pick the system earned).
pub fn next_click(inputs: &Inputs, d: &Dialogue, ids: &[ObjectId], prev: Option<Click>) -> Click {
    let gt = &inputs.gt;
    let rank = match prev {
        None => ids.iter().position(|&id| gt.is_relevant(id, d.concept)),
        Some(c) => ids
            .iter()
            .position(|&id| id != c.picked && gt.is_style_relevant(id, d.concept, c.style)),
    }
    .unwrap_or(0);
    let picked = ids.get(rank).copied().unwrap_or(0);
    let style = inputs.kb.try_get(picked).and_then(|r| r.style).unwrap_or(0);
    Click {
        rank,
        picked,
        style,
    }
}

/// Recall of one reply: concept recall for the opening turn, style recall
/// against the clicked object's sub-cluster for a refinement.
pub fn turn_recall(
    gt: &GroundTruth,
    d: &Dialogue,
    ids: &[ObjectId],
    prev: Option<Click>,
    k: usize,
) -> f64 {
    match prev {
        None => recall_at_k(gt, ids, d.concept, k),
        Some(c) => round2_recall_at_k(gt, ids, c.picked, d.concept, c.style, k),
    }
}

fn opening_turn(d: &Dialogue) -> Turn {
    match &d.image {
        Some(img) => Turn::text_and_image(&d.round1, img.clone()),
        None => Turn::text(&d.round1),
    }
}

fn reply_ids(reply: &Reply) -> Vec<ObjectId> {
    reply.results.iter().map(|r| r.id).collect()
}

/// One timed `ask`. With a span recorder the span bookkeeping sits inside
/// the sample, which is what makes the traced/untraced difference the
/// tracing overhead.
fn timed_ask(
    session: &mut mqa_core::DialogueSession<'_>,
    turn: Turn,
    spans: &mut Option<&mut Spans>,
    name: &'static str,
) -> (Result<Reply, mqa_core::MqaError>, f64) {
    let start = Instant::now();
    let reply = session.ask(turn);
    if let Some(s) = spans.as_deref_mut() {
        let op = s.next_op();
        s.record(name, start, Instant::now(), 0, op);
    }
    (reply, micros_since(start))
}

/// Runs `dialogues` once each through `DialogueSession::ask`
/// (serial path) and scores each reply against the ground truth: concept
/// recall for the opening turn, style recall (against the clicked
/// object's sub-cluster) for the two refinements.
pub fn dialogue_round(
    sys: &MqaSystem,
    inputs: &Inputs,
    dialogues: &[Dialogue],
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> DialogueRound {
    const SPAN_NAMES: [&str; 3] = ["core.ask.r1", "core.ask.r2", "core.ask.r3"];
    let k = sys.config().k;
    let mut round = DialogueRound::default();
    for d in dialogues {
        let mut session = sys.open_session();
        let mut click: Option<Click> = None;
        let texts = [&d.round1, &d.round2, &d.round3];
        for (pos, (text, name)) in texts.into_iter().zip(SPAN_NAMES).enumerate() {
            let turn = match click {
                None => opening_turn(d),
                Some(c) => Turn::select_and_text(c.rank, text),
            };
            let (reply, us) = timed_ask(&mut session, turn, &mut spans, name);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    tally.op(false, || format!("turn {} failed: {e}", pos + 1));
                    break;
                }
            };
            tally.op(reply.results.len() == k, || {
                format!("turn {} returned {} of {k}", pos + 1, reply.results.len())
            });
            let ids = reply_ids(&reply);
            round.recall_sum += turn_recall(&inputs.gt, d, &ids, click, k);
            round.recall_n += 1;
            round.evals += reply.stats.evals;
            round.hops += reply.stats.hops;
            if let Some(samples) = round.by_turn.get_mut(pos) {
                samples.push(us);
            }
            click = Some(next_click(inputs, d, &ids, click));
            round.results.push(ids);
        }
    }
    round
}

/// One round of serial retrievals without answer generation:
/// `RetrievalFramework::search` per query, each timed.
pub fn query_round<'q>(
    fw: &dyn RetrievalFramework,
    queries: impl Iterator<Item = &'q MultiModalQuery>,
    k: usize,
    ef: usize,
) -> (Vec<f64>, Vec<RetrievalOutput>) {
    let mut samples = Vec::new();
    let mut outputs = Vec::new();
    for q in queries {
        let start = Instant::now();
        let out = fw.search(q, k, ef);
        samples.push(micros_since(start));
        outputs.push(out);
    }
    (samples, outputs)
}

/// Whether two ranked result lists are bit-identical (ids and distances).
pub fn same_results(a: &[Candidate], b: &[Candidate]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// One pipelined round through the engine: submit until [`OUTSTANDING`]
/// tickets are in flight, wait the oldest, submit the next. Returns the
/// round's rate in queries per second; each answer goes to `sink` with
/// its position in `batch`.
pub fn engine_round(
    engine: &QueryEngine,
    batch: Vec<MultiModalQuery>,
    k: usize,
    ef: usize,
    tally: &mut Tally,
    mut sink: impl FnMut(usize, RetrievalOutput),
) -> f64 {
    let n = batch.len();
    let mut inflight: VecDeque<(usize, Ticket<RetrievalOutput>)> =
        VecDeque::with_capacity(OUTSTANDING);
    let mut settle = |slot: (usize, Ticket<RetrievalOutput>), tally: &mut Tally| {
        let (i, ticket) = slot;
        match ticket.wait() {
            Ok(out) => {
                tally.op(true, String::new);
                sink(i, out);
            }
            // Rejected, Expired and Canceled are all failed operations
            // here: the closed loop never exceeds the admission watermark.
            Err(e) => tally.op(false, || format!("ticket {i} resolved {e:?}")),
        }
    };
    let start = Instant::now();
    for (i, q) in batch.into_iter().enumerate() {
        if inflight.len() == OUTSTANDING {
            if let Some(slot) = inflight.pop_front() {
                settle(slot, tally);
            }
        }
        match engine.submit(q, k, ef) {
            Ok(ticket) => inflight.push_back((i, ticket)),
            Err(e) => tally.op(false, || format!("submit {i} refused: {e}")),
        }
    }
    while let Some(slot) = inflight.pop_front() {
        settle(slot, tally);
    }
    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// One round of `MqaSystem::add_objects`, one timed call per batch.
/// `expect_live` is advanced by every applied batch.
pub fn add_round(
    sys: &mut MqaSystem,
    batches: &[Vec<ObjectRecord>],
    expect_live: &mut usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut samples = Vec::with_capacity(batches.len());
    for batch in batches {
        let start = Instant::now();
        let report = sys.add_objects(batch);
        let us = micros_since(start);
        match report {
            Ok(r) => {
                *expect_live += r.applied;
                samples.push(us);
                tally.op(r.applied == batch.len() && r.live == *expect_live, || {
                    format!(
                        "add applied {} live {} (expected {})",
                        r.applied, r.live, *expect_live
                    )
                });
            }
            Err(e) => tally.op(false, || format!("add_objects failed: {e}")),
        }
    }
    samples
}

/// What one round of removals produced.
#[derive(Debug, Default)]
pub struct RemoveRound {
    /// Latencies (µs) of the calls that only published tombstones.
    pub plain_us: Vec<f64>,
    /// Latencies (ms) of the calls that also compacted the graph.
    pub compaction_ms: Vec<f64>,
}

/// One round of `MqaSystem::remove_objects`, one timed call per batch. A
/// call that crosses the compaction threshold is timed separately.
pub fn remove_round(
    sys: &mut MqaSystem,
    batches: &[Vec<ObjectId>],
    expect_live: &mut usize,
    tally: &mut Tally,
) -> RemoveRound {
    let mut round = RemoveRound::default();
    for batch in batches {
        let start = Instant::now();
        let report = sys.remove_objects(batch);
        let us = micros_since(start);
        match report {
            Ok(r) => {
                *expect_live = expect_live.saturating_sub(r.applied);
                if r.compacted {
                    round.compaction_ms.push(us / 1e3);
                } else {
                    round.plain_us.push(us);
                }
                tally.op(r.applied == batch.len() && r.live == *expect_live, || {
                    format!(
                        "remove applied {} live {} (expected {})",
                        r.applied, r.live, *expect_live
                    )
                });
            }
            Err(e) => tally.op(false, || format!("remove_objects failed: {e}")),
        }
    }
    round
}

/// What one round of paged searches produced.
#[derive(Debug, Default)]
pub struct PagedRound {
    /// Per-query latency (µs).
    pub samples: Vec<f64>,
    /// Work counters summed over the round.
    pub stats: SearchStats,
    /// Ranked hits per query, when asked for.
    pub hits: Vec<Vec<Candidate>>,
}

/// One round of serial `PagedIndex::search_paged_into` over pre-encoded
/// queries (`draws` index into `queries`), on a reused scratch and hit
/// buffer.
#[allow(clippy::too_many_arguments)]
pub fn paged_round(
    side: &PagedSide,
    staged: &Staged,
    queries: &[MultiVector],
    draws: &[usize],
    k: usize,
    ef: usize,
    scratch: &mut SearchScratch,
    keep_hits: bool,
) -> PagedRound {
    let mut round = PagedRound::default();
    let mut hits: Vec<Candidate> = Vec::with_capacity(k);
    let store = staged.index.store();
    let metric = staged.index.metric();
    for &qi in draws {
        let Some(q) = queries.get(qi) else { continue };
        let start = Instant::now();
        let mut dist = FusedDistance::new(&store, q, &staged.weights, metric);
        let stats = side
            .paged
            .search_paged_into(&mut dist, k, ef, scratch, &mut hits);
        round.samples.push(micros_since(start));
        round.stats.merge(&stats);
        if keep_hits {
            round.hits.push(hits.clone());
        }
    }
    round
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
