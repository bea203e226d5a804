//! Neighbour-selection (edge pruning) strategies.
//!
//! This is the pipeline's third stage and where the navigation-graph family
//! members differ most: given a candidate pool around a vertex, choose a
//! bounded, *diverse* out-neighbour set. Diversity (not keeping two
//! candidates that cover the same direction) is what lets greedy routing
//! escape local neighbourhoods with few hops.
//!
//! Selection is where construction spends its distance evaluations, so
//! both rules — the α rule of [`robust_prune`] and HNSW's
//! [`hnsw_heuristic`] — and both of their re-prunes are one routine,
//! [`Reprune::run`], written in *pull* form: each candidate, best first,
//! is tested against the neighbours already selected, and the pass stops
//! at the degree bound: nothing ranked after the last pick is ever looked
//! at. The candidates are ranked on the walk pool's order-preserving
//! integer keys (`pool::key_of`). A prune from scratch is the routine with no
//! records: every candidate is tested. A re-prune of a held list reads
//! what the list's records say of its entries
//! ([`crate::Adjacency::clean_len`], [`crate::Adjacency::filler_len`]),
//! copies the stretches whose fate they decide and tests only where a test
//! is due. Every routine returns its picks with their distances from the
//! vertex, which [`crate::Adjacency`] stores beside the edges, so a list
//! re-pruned later is ranked without evaluating a distance.
//! `Reprune::add_edge` is construction's one way to add a reverse edge
//! under a degree cap: a full list is re-pruned together with the new
//! edge, so it never grows past the cap.

use crate::adjacency::Adjacency;
use crate::pool::{candidate_of, key_of};
use mqa_vector::{ops, Candidate, VecId, VectorStore};
use std::cell::Cell;

thread_local! {
    /// Selection and ranking distances this thread computed since its last
    /// [`record_construction`] — what the work-pinning tests read.
    static DISTANCE_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Overflow re-prunes ([`Reprune::add_edge`]) this thread ran since its
    /// last [`record_construction`].
    static REPRUNES: Cell<u64> = const { Cell::new(0) };
}

/// The one distance call site of selection and ranking (counted): vertex
/// `a` against `row`, a vertex's row the caller loads once for a loop that
/// measures that vertex against many.
#[inline]
pub(crate) fn distance(store: &VectorStore, a: VecId, row: &[f32]) -> f32 {
    DISTANCE_CALLS.with(|c| c.set(c.get() + 1));
    ops::l2_sq(store.get(a), row)
}

/// Adds one construction step's work to the construction counters:
/// `walk_evals` from its searches plus this thread's selection and ranking
/// distances since the last step to `graph.construct.distance_evals`, and
/// the overflow re-prunes it ran to `graph.construct.reprunes`. Called once
/// per link, repair attachment or rewired vertex, never once per distance.
pub(crate) fn record_construction(walk_evals: u64) {
    let counters = ConstructionCounters::get();
    counters
        .evals
        .add(walk_evals + DISTANCE_CALLS.with(|c| c.replace(0)));
    counters.reprunes.add(REPRUNES.with(|c| c.replace(0)));
}

/// The counters [`record_construction`] writes, resolved once per process
/// (the `search.rs` idiom): a step is two relaxed adds, with no registry
/// lookup.
struct ConstructionCounters {
    evals: mqa_obs::Counter,
    reprunes: mqa_obs::Counter,
}

impl ConstructionCounters {
    fn get() -> &'static Self {
        static COUNTERS: std::sync::OnceLock<ConstructionCounters> = std::sync::OnceLock::new();
        COUNTERS.get_or_init(|| ConstructionCounters {
            evals: mqa_obs::counter("graph.construct.distance_evals"),
            reprunes: mqa_obs::counter("graph.construct.reprunes"),
        })
    }
}

/// A neighbour-selection rule: when an already selected `p` *dominates* a
/// candidate `q` around the vertex `v` — `q` is reachable through `p`, so
/// the direct edge is redundant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The α rule of Vamana/DiskANN (MRNG's with `alpha = 1.0`): `p`
    /// dominates `q` when `alpha · d(p, q) <= d(v, q)`. Keeps only what no
    /// pick dominates.
    Alpha(f32),
    /// HNSW's `SELECT-NEIGHBORS-HEURISTIC`: `p` dominates `q` when
    /// `d(q, p) < d(v, q)`, strictly. Back-fills the list to the degree
    /// bound with the nearest dominated candidates.
    Hnsw,
}

impl Rule {
    /// Whether a pick at distance `d_pq` from the candidate `q` dominates
    /// it, `q` being at `d_vq` from the vertex.
    #[inline]
    pub fn dominates(self, d_pq: f32, d_vq: f32) -> bool {
        match self {
            Rule::Alpha(alpha) => alpha * d_pq <= d_vq,
            Rule::Hnsw => d_pq < d_vq,
        }
    }

    /// Whether one of `picks` dominates `q`: under [`Rule::Alpha`] the
    /// picks are tried latest first (whether `q` survives does not depend
    /// on the order, only what it costs, and on clustered data the pick
    /// nearest `q` in rank is the likeliest dominator); under
    /// [`Rule::Hnsw`] in selection order, which costs that strict rule
    /// fewer tests. The first dominator ends the test.
    fn any_dominates(self, store: &VectorStore, picks: &[Candidate], q: Candidate) -> bool {
        let row = store.get(q.id);
        let test = |p: &Candidate| self.dominates(distance(store, p.id, row), q.dist);
        match self {
            Rule::Alpha(_) => picks.iter().rev().any(test),
            Rule::Hnsw => picks.iter().any(test),
        }
    }
}

/// What a held list's records say about one of its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// Kept by the prune that installed the list: no other kept entry
    /// dominates it.
    Kept,
    /// Back-filled by that prune: a kept entry ranked before it dominates
    /// it.
    Filler,
    /// Appended since, or unrecorded: nothing is known.
    Dirty,
}

/// The α-robust pruning rule of Vamana/DiskANN; with `alpha = 1.0` it is
/// the MRNG rule NSG uses.
///
/// Walks the candidates by increasing distance and keeps one unless a
/// closer, already kept `p` has `alpha · d(p, q) <= d(v, q)`, until `r` are
/// kept. Larger `alpha` keeps more long edges (denser graph, easier
/// routing, more memory). The result — the picks with their distances —
/// is sorted by distance to `v` and pairwise undominated: a *clean* list
/// in [`crate::Adjacency`]'s terms. Repeated ids and `v` itself are
/// dropped. Runs [`Reprune::run`] with no records on the thread's pooled
/// buffers.
///
/// # Panics
/// Panics if `alpha < 1.0` (would prune the closest candidate's own
/// certificate) or `r == 0`.
pub fn robust_prune(
    store: &VectorStore,
    v: VecId,
    candidates: &[Candidate],
    alpha: f32,
    r: usize,
) -> Vec<Candidate> {
    assert!(alpha >= 1.0, "robust prune requires alpha >= 1.0");
    assert!(r > 0, "robust prune requires r >= 1");
    from_scratch(store, v, candidates, Rule::Alpha(alpha), r).0
}

/// HNSW's `SELECT-NEIGHBORS-HEURISTIC`: scan candidates by increasing
/// distance; keep one only if it is closer to `v` than to every neighbour
/// already kept ([`Rule::Hnsw`]), then, if fewer than `m` were kept, fill
/// up to `m` with the nearest of the rest. Returns the picks with their
/// distances — the kept ones ascending, then the fillers ascending — and
/// how many were kept: the two records [`crate::Adjacency::set_pruned`]
/// stores, which let [`Reprune`] re-prune the list incrementally when it
/// overflows. Repeated ids and `v` itself are dropped. Runs
/// [`Reprune::run`] with no records on the thread's pooled buffers.
///
/// # Panics
/// Panics if `m == 0`.
pub fn hnsw_heuristic(
    store: &VectorStore,
    v: VecId,
    candidates: &[Candidate],
    m: usize,
) -> (Vec<Candidate>, usize) {
    assert!(m > 0, "heuristic selection requires m >= 1");
    from_scratch(store, v, candidates, Rule::Hnsw, m)
}

/// The prune from scratch of `candidates` under `rule` to `r`, on this
/// thread's pooled [`Reprune`], copied out.
fn from_scratch(
    store: &VectorStore,
    v: VecId,
    candidates: &[Candidate],
    rule: Rule,
    r: usize,
) -> (Vec<Candidate>, usize) {
    crate::scratch::with_pooled(|s| {
        let (picks, kept) = s
            .reprune
            .run(store, v, candidates.iter().copied(), (0, 0), rule, r);
        (picks.to_vec(), kept)
    })
}

/// The one selection routine of both rules, from scratch and as a
/// re-prune, with buffers that are reused from one call to the next
/// (construction keeps one on its pooled [`crate::SearchScratch`]): once
/// they have grown to the list length, a call allocates nothing.
///
/// A list installed by a prune records how many leading entries it *kept*
/// and how many *fillers* follow them ([`crate::Adjacency::clean_len`],
/// [`crate::Adjacency::filler_len`]); entries appended since are dirty. No
/// kept entry dominates another, and each filler is dominated by a kept
/// entry ranked before it, which stays picked unless a kept entry is itself
/// dominated in the pass (a *demotion*). [`Reprune::run`] finds each dirty
/// entry's rank in the kept run and in the filler run by key, copies what
/// the records decide between them — kept entries to the picks, fillers to
/// the back-fill — and steps entry by entry only where a test is due: at a
/// dirty entry, at a kept entry after a dirty pick, and at a filler after
/// a demotion. So a full recorded list meeting one reverse edge costs the
/// edge's own tests, plus one per kept entry ranked after it when it is
/// picked. With no records every entry is dirty: the prune from scratch.
///
/// Under valid records — each run ascending, each id once, `v` absent, as
/// a graph holds its lists — the result equals the from-scratch prune,
/// order included (the unit tests assert it at every overflow of both
/// rules). Records that claim more than the list holds, or a kept or
/// filler run out of order, are ignored: the whole list is then dirty
/// ([`crate::validate::check_clean_prefixes`] reports such a record).
#[derive(Debug, Default)]
pub struct Reprune {
    /// The list's keys ([`key_of`]): the kept run, the filler run, then the
    /// dirty entries, sorted.
    held: Vec<u64>,
    /// The picks: the undominated candidates, then under [`Rule::Hnsw`]
    /// the back-fill.
    picks: Vec<Candidate>,
    /// The picks not recorded kept: all a kept entry is tested against.
    unrecorded: Vec<Candidate>,
    /// Under [`Rule::Hnsw`], the first `r` dominated candidates in rank
    /// order, each id once: the back-fill.
    dominated: Vec<Candidate>,
}

impl Reprune {
    /// Re-prunes `v`'s out-edges — `edges` in list order with their stored
    /// distances, the first `records.0` kept and the next `records.1`
    /// fillers — under `rule` to at most `r`. Returns the picks and how
    /// many of them were kept (the rest are fillers). In rank order a
    /// recorded entry goes before a dirty one of equal key; a dirty entry
    /// whose id repeats the one before it is dropped, and so is `v`.
    pub fn run(
        &mut self,
        store: &VectorStore,
        v: VecId,
        edges: impl IntoIterator<Item = Candidate>,
        records: (usize, usize),
        rule: Rule,
        r: usize,
    ) -> (&[Candidate], usize) {
        self.held.clear();
        self.held.extend(edges.into_iter().map(key_of));
        let (kept, fillers) = match records.0.checked_add(records.1) {
            Some(recorded) if recorded <= self.held.len() => records,
            _ => (0, 0),
        };
        let (kept_run, rest) = self.held.split_at_mut(kept);
        let (filler_run, dirty_run) = rest.split_at_mut(fillers);
        let [kept, fillers, dirty]: [&[u64]; 3] = if kept_run.is_sorted() && filler_run.is_sorted()
        {
            dirty_run.sort_unstable();
            [kept_run, filler_run, dirty_run]
        } else {
            self.held.sort_unstable();
            [&[], &[], &self.held]
        };
        let mut pass = Pass {
            store,
            rule,
            r,
            picks: &mut self.picks,
            unrecorded: &mut self.unrecorded,
            dominated: &mut self.dominated,
            kept,
            fillers,
            at: (0, 0),
            demoted: false,
            passed: [0; 4],
        };
        pass.picks.clear();
        pass.unrecorded.clear();
        pass.dominated.clear();
        let mut prev = None;
        for &key in dirty {
            pass.recorded_through(key);
            if pass.picks.len() == r {
                break;
            }
            let q = candidate_of(key);
            if prev.replace(q.id) != Some(q.id) && q.id != v {
                pass.step(q, Tag::Dirty);
            }
        }
        pass.recorded_through(u64::MAX);
        let kept = self.picks.len();
        self.picks.extend(self.dominated.iter().take(r - kept));
        (&self.picks, kept)
    }

    /// Adds the edge `p → edge.id` at distance `edge.dist` to `graph`
    /// without letting `p`'s list pass `cap`: a list with room takes it as
    /// a dirty entry; a full one is re-pruned ([`Reprune::run`] under
    /// `rule`) over its entries plus the new edge, and the result is
    /// installed with its records. An edge already present changes
    /// nothing. Returns whether the edge is in the list and was not
    /// before.
    ///
    /// Every overflow of every graph the unit tests build is checked
    /// against the prune from scratch over evaluated distances, order and
    /// records included, so a stored distance off by a bit fails here too.
    pub(crate) fn add_edge(
        &mut self,
        store: &VectorStore,
        graph: &mut Adjacency,
        p: VecId,
        edge: Candidate,
        rule: Rule,
        cap: usize,
    ) -> bool {
        if graph.degree(p) < cap {
            return graph.add_edge(p, edge.id, edge.dist);
        }
        if graph.neighbors(p).contains(&edge.id) {
            return false;
        }
        let records = (graph.clean_len(p), graph.filler_len(p));
        let edges = graph.edges_of(p).chain(std::iter::once(edge));
        let (picks, kept) = self.run(store, p, edges, records, rule, cap);
        #[cfg(test)]
        tests::check_overflow(store, graph, p, edge.id, (rule, cap), (picks, kept));
        REPRUNES.with(|c| c.set(c.get() + 1));
        let linked = picks.iter().any(|c| c.id == edge.id);
        graph.set_pruned(p, picks, kept);
        linked
    }
}

/// One pass of [`Reprune::run`]: its rule and bound, its buffers, the
/// recorded runs with how far it has gone in each, and what it has learnt.
struct Pass<'a> {
    store: &'a VectorStore,
    rule: Rule,
    r: usize,
    picks: &'a mut Vec<Candidate>,
    unrecorded: &'a mut Vec<Candidate>,
    dominated: &'a mut Vec<Candidate>,
    kept: &'a [u64],
    fillers: &'a [u64],
    /// How many entries of `kept` and of `fillers` the pass has gone past.
    at: (usize, usize),
    /// Whether a kept entry was dominated: fillers are tested from then on.
    demoted: bool,
    /// A 256-bit filter of the dirty ids passed: the back-fill checks for a
    /// repeated id (only a pool holding one id under two distances has
    /// one) only when the id's bit is already set.
    passed: [u64; 4],
}

impl Pass<'_> {
    /// Tests `q`, tagged `tag`, against the picks a test is due with — the
    /// unrecorded ones for a kept entry, all of them otherwise — and picks
    /// it or sets it aside for the back-fill.
    fn step(&mut self, q: Candidate, tag: Tag) {
        let against = if tag == Tag::Kept {
            &*self.unrecorded
        } else {
            &*self.picks
        };
        if self.rule.any_dominates(self.store, against, q) {
            self.demoted |= tag == Tag::Kept;
            self.set_aside(q);
        } else {
            self.picks.push(q);
            if tag != Tag::Kept {
                self.unrecorded.push(q);
            }
        }
        if let (Tag::Dirty, Some(w)) = (tag, self.passed.get_mut((q.id >> 6) as usize & 3)) {
            *w |= 1 << (q.id & 63);
        }
    }

    /// Sets `q` aside for the back-fill under [`Rule::Hnsw`] while it has
    /// room, unless its id was picked or set aside before.
    fn set_aside(&mut self, q: Candidate) {
        let (word, bit) = ((q.id >> 6) as usize & 3, 1u64 << (q.id & 63));
        let seen = |c: &Candidate| c.id == q.id;
        let repeat = || {
            self.passed.get(word).is_some_and(|w| w & bit != 0)
                && (self.picks.iter().any(seen) || self.dominated.iter().any(seen))
        };
        if self.rule == Rule::Hnsw && self.dominated.len() < self.r && !repeat() {
            self.dominated.push(q);
        }
    }

    /// Sets aside the fillers before index `to` for the back-fill, untested.
    fn set_aside_fillers(&mut self, to: usize) {
        let run = self.fillers.get(self.at.1..to).unwrap_or_default();
        self.at.1 = to;
        if self.rule == Rule::Hnsw {
            let room = self.r.saturating_sub(self.dominated.len());
            self.dominated
                .extend(run.iter().take(room).map(|&key| candidate_of(key)));
        }
    }

    /// Passes the recorded entries that rank at or before `bound`, in rank
    /// order (a kept entry before a filler of equal key), until the picks
    /// are full. While no dirty entry is picked and no kept entry demoted,
    /// the records decide them all: the kept entries are copied to the
    /// picks, the fillers set aside. After a dirty pick each kept entry is
    /// tested, and the fillers still wait, known dominated, until one is
    /// demoted; after a demotion every entry is tested.
    fn recorded_through(&mut self, bound: u64) {
        let (kept, fillers) = (self.kept, self.fillers);
        if self.at == (kept.len(), fillers.len()) {
            return;
        }
        let through = |run: &[u64], at: usize| {
            let ahead = run.get(at..).unwrap_or_default();
            at + ahead.partition_point(|&key| key <= bound)
        };
        let (kept_end, fillers_end) = (through(kept, self.at.0), through(fillers, self.at.1));
        while self.picks.len() < self.r {
            let (k, f) = self.at;
            let next_kept = kept.get(k).filter(|_| k < kept_end).copied();
            if self.demoted {
                let (key, tag) = match (next_kept, fillers.get(f).filter(|_| f < fillers_end)) {
                    (Some(key), Some(&filler)) if filler < key => (filler, Tag::Filler),
                    (Some(key), _) => (key, Tag::Kept),
                    (None, Some(&filler)) => (filler, Tag::Filler),
                    (None, None) => return,
                };
                if tag == Tag::Kept {
                    self.at.0 += 1;
                } else {
                    self.at.1 += 1;
                }
                self.step(candidate_of(key), tag);
            } else if self.unrecorded.is_empty() {
                let take = (kept_end - k).min(self.r - self.picks.len());
                let run = kept.get(k..k + take).unwrap_or_default();
                self.picks.extend(run.iter().map(|&key| candidate_of(key)));
                self.at.0 = k + take;
                return self.set_aside_fillers(fillers_end);
            } else {
                let Some(key) = next_kept else {
                    return self.set_aside_fillers(fillers_end);
                };
                self.at.0 += 1;
                let q = candidate_of(key);
                if self.rule.any_dominates(self.store, self.unrecorded, q) {
                    // A demotion: the fillers ranked before it go first.
                    let ahead = fillers.get(f..fillers_end).unwrap_or_default();
                    self.set_aside_fillers(f + ahead.partition_point(|&fk| fk < key));
                    self.demoted = true;
                    self.set_aside(q);
                } else {
                    self.picks.push(q);
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Overflow re-prunes this thread compared against the prune from
    /// scratch (see [`Reprune::add_edge`]).
    pub(crate) static REPRUNES_CHECKED: Cell<u64> = const { Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids of `list` tagged with their distance to `v`, each evaluated —
    /// the from-scratch ranking the stored distances replace.
    pub(super) fn candidates_of<'a>(
        store: &'a VectorStore,
        v: VecId,
        list: &'a [VecId],
    ) -> impl Iterator<Item = Candidate> + 'a {
        list.iter()
            .map(move |&w| Candidate::new(w, distance(store, w, store.get(v))))
    }

    /// The prune from scratch under `rule` to `r` — [`hnsw_heuristic`] or
    /// [`robust_prune`] — with how many of its picks were kept: what every
    /// re-prune is checked against.
    fn prune_from_scratch(
        store: &VectorStore,
        v: VecId,
        candidates: &[Candidate],
        rule: Rule,
        r: usize,
    ) -> (Vec<Candidate>, usize) {
        match rule {
            Rule::Hnsw => hnsw_heuristic(store, v, candidates, r),
            Rule::Alpha(alpha) => {
                let picks = robust_prune(store, v, candidates, alpha, r);
                let kept = picks.len();
                (picks, kept)
            }
        }
    }

    /// Checks the overflow re-prune `got` of `p`'s list in `graph` plus the
    /// edge to `edge` against the prune from scratch over evaluated
    /// distances, order and records included, and counts the check.
    pub(super) fn check_overflow(
        store: &VectorStore,
        graph: &Adjacency,
        p: VecId,
        edge: VecId,
        (rule, cap): (Rule, usize),
        got: (&[Candidate], usize),
    ) {
        let ids: Vec<VecId> = graph.neighbors(p).iter().copied().chain([edge]).collect();
        let all: Vec<Candidate> = candidates_of(store, p, &ids).collect();
        let mut oracle = Reprune::default();
        let want = oracle.run(store, p, all, (0, 0), rule, cap);
        assert_eq!(got, want, "incremental re-prune diverged at vertex {p}");
        REPRUNES_CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Points on a line: 0,1,2,...; candidate distances from v=0.
    fn line_store(n: usize) -> VectorStore {
        let mut s = VectorStore::new(1);
        for i in 0..n {
            s.push(&[i as f32]);
        }
        s
    }

    fn cands(store: &VectorStore, v: VecId, ids: &[VecId]) -> Vec<Candidate> {
        candidates_of(store, v, ids).collect()
    }

    fn ids(picks: &[Candidate]) -> Vec<VecId> {
        picks.iter().map(|c| c.id).collect()
    }

    /// The α re-prune of `list` (ids with their distances from `v`, in list
    /// order) whose first `clean` entries are recorded kept.
    fn alpha_reprune(
        store: &VectorStore,
        v: VecId,
        list: impl IntoIterator<Item = Candidate>,
        clean: usize,
        alpha: f32,
        r: usize,
    ) -> Vec<Candidate> {
        let rule = Rule::Alpha(alpha);
        Reprune::default()
            .run(store, v, list, (clean, 0), rule, r)
            .0
            .to_vec()
    }

    #[test]
    fn robust_prune_drops_collinear() {
        // On a line from v=0: candidates 1,2,3. 1 covers 2 and 3
        // (d(1,2)=1 <= d(0,2)=4), so only 1 survives with alpha=1.
        let store = line_store(4);
        let c = cands(&store, 0, &[1, 2, 3]);
        let picks = robust_prune(&store, 0, &c, 1.0, 3);
        assert_eq!(
            picks,
            vec![Candidate::new(1, 1.0)],
            "the pick keeps its distance"
        );
    }

    #[test]
    fn robust_prune_keeps_diverse_directions() {
        // v at origin; candidates at +1 and -1 cannot cover each other.
        let mut store = VectorStore::new(1);
        store.push(&[0.0]); // v = 0
        store.push(&[1.0]);
        store.push(&[-1.0]);
        let c = cands(&store, 0, &[1, 2]);
        let sel = robust_prune(&store, 0, &c, 1.0, 4);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn higher_alpha_keeps_more_edges() {
        let store = line_store(6);
        let c = cands(&store, 0, &[1, 2, 3, 4, 5]);
        let strict = robust_prune(&store, 0, &c, 1.0, 5);
        let loose = robust_prune(&store, 0, &c, 2.0, 5);
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn robust_prune_respects_degree_cap() {
        let mut store = VectorStore::new(2);
        store.push(&[0.0, 0.0]);
        // diverse directions so nothing is pruned by the rule itself
        store.push(&[1.0, 0.0]);
        store.push(&[-1.0, 0.0]);
        store.push(&[0.0, 1.0]);
        store.push(&[0.0, -1.0]);
        let c = cands(&store, 0, &[1, 2, 3, 4]);
        assert_eq!(robust_prune(&store, 0, &c, 1.0, 2).len(), 2);
    }

    #[test]
    fn robust_prune_excludes_self() {
        let store = line_store(3);
        let c = cands(&store, 0, &[0, 1]);
        assert_eq!(ids(&robust_prune(&store, 0, &c, 1.0, 3)), vec![1]);
    }

    #[test]
    #[should_panic(expected = "alpha >= 1.0")]
    fn alpha_below_one_panics() {
        let store = line_store(2);
        robust_prune(&store, 0, &[], 0.5, 1);
    }

    /// The selection routine as it stood before the pull-form rewrite,
    /// kept as the oracle: every committed neighbour scans the whole
    /// remaining pool and marks what it dominates. Its distance calls go
    /// through the same counted [`distance`] so work can be compared.
    fn robust_prune_push_form(
        store: &VectorStore,
        v: VecId,
        mut candidates: Vec<Candidate>,
        alpha: f32,
        r: usize,
    ) -> Vec<VecId> {
        candidates.sort_unstable();
        candidates.dedup_by_key(|c| c.id);
        candidates.retain(|c| c.id != v);
        let mut selected: Vec<VecId> = Vec::with_capacity(r);
        let mut alive = vec![true; candidates.len()];
        for i in 0..candidates.len() {
            let p = candidates[i];
            if !alive[i] {
                continue;
            }
            selected.push(p.id);
            if selected.len() == r {
                break;
            }
            for (j, q) in candidates.iter().enumerate().skip(i + 1) {
                if alive[j] && alpha * distance(store, p.id, store.get(q.id)) <= q.dist {
                    alive[j] = false;
                }
            }
        }
        selected
    }

    /// The pull form as it stood before the latest-pick-first order: each
    /// candidate is tested against the picks in selection order. Kept as
    /// the work reference the reversed order is measured against.
    fn robust_prune_in_selection_order(
        store: &VectorStore,
        v: VecId,
        mut candidates: Vec<Candidate>,
        alpha: f32,
        r: usize,
    ) -> Vec<Candidate> {
        candidates.sort_unstable();
        candidates.dedup_by_key(|c| c.id);
        candidates.retain(|c| c.id != v);
        let mut selected: Vec<Candidate> = Vec::with_capacity(r);
        for q in candidates {
            if selected.len() == r {
                break;
            }
            if !selected
                .iter()
                .any(|p| alpha * distance(store, p.id, store.get(q.id)) <= q.dist)
            {
                selected.push(q);
            }
        }
        selected
    }

    /// Runs `f` and returns its result with the distance calls it made.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = DISTANCE_CALLS.with(std::cell::Cell::get);
        let out = f();
        (out, DISTANCE_CALLS.with(std::cell::Cell::get) - before)
    }

    /// A store whose coordinates sit on a coarse integer grid (so distance
    /// ties and coincident points are common) when `grid`, else in general
    /// position.
    fn seeded_store(rng: &mut mqa_rng::StdRng, n: usize, dim: usize, grid: bool) -> VectorStore {
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    if grid {
                        rng.gen_range(0..4) as f32
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect();
            s.push(&v);
        }
        s
    }

    /// `n` points in `dim` dimensions around `clusters` seeded centres.
    fn clustered_store(
        rng: &mut mqa_rng::StdRng,
        n: usize,
        dim: usize,
        clusters: usize,
    ) -> VectorStore {
        let centres = seeded_store(rng, clusters, dim, false);
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let centre = centres.get((i % clusters) as VecId);
            let v: Vec<f32> = centre
                .iter()
                .map(|&c| 4.0 * c + rng.gen_range(-1.0f32..1.0))
                .collect();
            s.push(&v);
        }
        s
    }

    /// A pool around `v` drawn with replacement (duplicate ids), sometimes
    /// holding `v` itself, sometimes one id under two different distances
    /// (so the copies are not adjacent after the sort).
    fn seeded_pool(rng: &mut mqa_rng::StdRng, store: &VectorStore, v: VecId) -> Vec<Candidate> {
        let n = store.len();
        let len = rng.gen_range(0..3 * n);
        let mut ids: Vec<VecId> = (0..len).map(|_| rng.gen_range(0..n) as VecId).collect();
        if rng.gen_range(0..2) == 0 {
            ids.push(v);
        }
        let mut pool = cands(store, v, &ids);
        if let (true, Some(first)) = (rng.gen_range(0..4) == 0, pool.first().copied()) {
            pool.push(Candidate::new(first.id, first.dist + 1.0));
        }
        pool
    }

    /// Equal picks on every pool, and less work in aggregate. The bound is
    /// not per pool: testing the latest pick first can cost a pool a few
    /// tests more than the push form spends on it (134 of these 1 080
    /// pools), while the total falls well below it.
    #[test]
    fn pull_form_equals_push_form_with_no_more_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9011);
        let (mut pools, mut pull_total, mut push_total) = (0usize, 0u64, 0u64);
        for case in 0..90 {
            let n = rng.gen_range(2usize..60);
            let store = seeded_store(&mut rng, n, 1 + case % 5, case % 2 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let pool = seeded_pool(&mut rng, &store, v);
            for alpha in [1.0f32, 1.2, 2.0] {
                for r in [1usize, 4, 24, pool.len() + 1] {
                    let (want, push) =
                        counted(|| robust_prune_push_form(&store, v, pool.clone(), alpha, r));
                    let (got, pull) = counted(|| robust_prune(&store, v, &pool, alpha, r));
                    assert_eq!(ids(&got), want, "case {case}, alpha {alpha}, r {r}");
                    pools += 1;
                    pull_total += pull;
                    push_total += push;
                }
            }
        }
        assert!(pools >= 1000, "only {pools} pools compared");
        // Nothing ranked after the last pick is looked at, so whenever the
        // bound is reached early the total is lower (the line that fails
        // if the push form comes back).
        assert!(
            pull_total < push_total,
            "pull form made {pull_total} calls, push form {push_total}"
        );
    }

    /// A construction-shaped pool: ~450 candidates around a vertex in 16
    /// dimensions pruned to 24 — the case the refinement loop runs 2 000
    /// times per build. On these uniform points the latest-first order
    /// costs a few tests more than selection order would (663 against
    /// 624); on clustered ones it saves a third (below).
    #[test]
    fn pull_form_halves_the_work_on_a_construction_sized_pool() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9012);
        let store = seeded_store(&mut rng, 451, 16, false);
        let others: Vec<VecId> = (1..451).collect();
        let pool = cands(&store, 0, &others);
        let (want, push) = counted(|| robust_prune_push_form(&store, 0, pool.clone(), 1.2, 24));
        let (got, pull) = counted(|| robust_prune(&store, 0, &pool, 1.2, 24));
        assert_eq!(ids(&got), want);
        assert_eq!(got.len(), 24);
        assert!(pull * 2 <= push, "pull {pull} vs push {push} calls");
    }

    /// The case the latest-pick-first order is for: a construction-sized
    /// pool on clustered points, where the pick nearest in rank is the
    /// likeliest dominator. Same picks, at most three quarters of the
    /// tests selection order makes.
    #[test]
    fn latest_pick_first_saves_a_quarter_on_a_clustered_pool() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9016);
        let store = clustered_store(&mut rng, 451, 32, 20);
        let (mut latest, mut in_order) = (0u64, 0u64);
        for v in 0..20 as VecId {
            let others: Vec<VecId> = (0..451).filter(|&u| u != v).collect();
            let pool = cands(&store, v, &others);
            let (want, slow) =
                counted(|| robust_prune_in_selection_order(&store, v, pool.clone(), 1.2, 24));
            let (got, fast) = counted(|| robust_prune(&store, v, &pool, 1.2, 24));
            assert_eq!(got, want, "vertex {v}");
            latest += fast;
            in_order += slow;
        }
        assert!(
            latest * 4 <= in_order * 3,
            "latest first {latest} vs selection order {in_order} calls"
        );
    }

    /// The common reverse-edge overflow: a full clean list plus one new
    /// edge. The stored distances rank the list, so the only evaluations
    /// are tests of pairs that involve the new entry — at most one per
    /// clean entry.
    #[test]
    fn one_dirty_entry_reprunes_in_linear_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9013);
        let store = seeded_store(&mut rng, 400, 16, false);
        let mut checked = 0usize;
        for v in 0..100 as VecId {
            let others: Vec<VecId> = (0..300).filter(|&u| u != v).collect();
            let mut list = robust_prune(&store, v, &cands(&store, v, &others), 1.2, 24);
            if list.len() < 24 {
                continue;
            }
            for extra in 300..310 as VecId {
                list.extend(cands(&store, v, &[extra]));
                let (got, calls) = counted(|| alpha_reprune(&store, v, list.clone(), 24, 1.2, 24));
                assert!(calls <= 24, "24 clean + 1 dirty cost {calls} calls");
                let (want, scratch_calls) =
                    counted(|| robust_prune(&store, v, &cands(&store, v, &ids(&list)), 1.2, 24));
                assert_eq!(got, want, "vertex {v}, extra {extra}");
                assert!(scratch_calls > 24, "from scratch is the dearer route");
                list.pop();
                checked += 1;
            }
        }
        assert!(checked >= 100, "only {checked} full lists exercised");
    }

    #[test]
    fn reprune_equals_from_scratch_for_any_dirty_tail() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9014);
        for case in 0..300 {
            let n = rng.gen_range(8usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let alpha = [1.0f32, 1.2, 2.0][case % 3];
            let r = [1usize, 4, 24][case % 3];
            let first = seeded_pool(&mut rng, &store, v);
            let mut list = robust_prune(&store, v, &first, alpha, r);
            let clean = list.len();
            for _ in 0..rng.gen_range(0..6) {
                let u = rng.gen_range(0..n) as VecId;
                if u != v && !list.iter().any(|c| c.id == u) {
                    list.extend(cands(&store, v, &[u]));
                }
            }
            let got = alpha_reprune(&store, v, list.clone(), clean, alpha, r);
            let want = robust_prune(&store, v, &cands(&store, v, &ids(&list)), alpha, r);
            assert_eq!(got, want, "case {case}");
        }
    }

    /// A clean length that lies (longer than the list, or covering dirty
    /// entries) can cost the diversity guarantee but must not panic or
    /// break the shape of the result.
    #[test]
    fn forged_clean_length_cannot_panic_the_reprune() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9015);
        let store = seeded_store(&mut rng, 30, 3, true);
        let list = cands(&store, 0, &(1..30).collect::<Vec<_>>());
        for clean in [0usize, 7, 29, 30, usize::MAX] {
            let got = alpha_reprune(&store, 0, list.clone(), clean, 1.2, 8);
            assert!(!got.is_empty() && got.len() <= 8);
            assert!(got.iter().all(|c| list.contains(c)));
        }
        assert!(alpha_reprune(&store, 0, [], 5, 1.2, 8).is_empty());
    }

    /// A list as HNSW holds it: the heuristic's picks over `first` with
    /// their records, then `extra` ids appended behind them (dirty).
    fn hnsw_list(
        store: &VectorStore,
        v: VecId,
        first: &[Candidate],
        extra: &[VecId],
        m: usize,
    ) -> (Vec<Candidate>, (usize, usize)) {
        let (mut list, kept) = hnsw_heuristic(store, v, first, m);
        let records = (kept, list.len() - kept);
        for &u in extra {
            if u != v && !list.iter().any(|c| c.id == u) {
                list.extend(cands(store, v, &[u]));
            }
        }
        (list, records)
    }

    /// The incremental HNSW re-prune equals the heuristic from scratch —
    /// picks, order and kept count — for any dirty tail behind any list the
    /// heuristic installed, on grids full of ties and in general position,
    /// and again on the list it returns with a further tail.
    #[test]
    fn hnsw_reprune_equals_from_scratch_for_any_dirty_tail() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9017);
        let mut reprune = Reprune::default();
        let mut fillers_seen = 0usize;
        for case in 0..400 {
            let n = rng.gen_range(8usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let m = [1usize, 2, 4, 8, 32][case % 5];
            let first = seeded_pool(&mut rng, &store, v);
            let extra: Vec<VecId> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..n) as VecId)
                .collect();
            let (mut list, mut records) = hnsw_list(&store, v, &first, &extra, m);
            fillers_seen += records.1;
            for round in 0..2 {
                let (got, kept) = reprune.run(&store, v, list.clone(), records, Rule::Hnsw, m);
                let all = cands(&store, v, &ids(&list));
                let want = hnsw_heuristic(&store, v, &all, m);
                assert_eq!((got.to_vec(), kept), want, "case {case}, round {round}");
                records = (kept, got.len() - kept);
                list = got.to_vec();
                for _ in 0..rng.gen_range(0..4) {
                    let u = rng.gen_range(0..n) as VecId;
                    if u != v && !list.iter().any(|c| c.id == u) {
                        list.extend(cands(&store, v, &[u]));
                    }
                }
            }
        }
        assert!(fillers_seen > 100, "only {fillers_seen} fillers exercised");
    }

    /// The HNSW overflow a build runs tens of thousands of times: a full
    /// base-layer list (cap 32) on clustered points plus one reverse edge.
    /// The records settle every test between two kept entries and every
    /// filler's fate unless a kept entry falls, so the re-prune makes at
    /// most a tenth of the tests the heuristic from scratch makes (1 741
    /// against 35 691 over these 600 overflows) — and evaluates no
    /// distance to rank the list.
    #[test]
    fn one_reverse_edge_reprunes_an_hnsw_list_in_a_tenth_of_the_work() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9018);
        let store = clustered_store(&mut rng, 400, 32, 12);
        let mut reprune = Reprune::default();
        let (mut incremental, mut scratch, mut checked) = (0u64, 0u64, 0usize);
        for v in 0..60 as VecId {
            let near: Vec<VecId> = (0..300).filter(|&u| u != v).collect();
            let mut first = cands(&store, v, &near);
            first.sort_unstable();
            first.truncate(100);
            for extra in (300..400 as VecId).step_by(10) {
                let (list, records) = hnsw_list(&store, v, &first, &[extra], 32);
                if list.len() <= 32 {
                    continue;
                }
                let ((got, kept), fast) = counted(|| {
                    let (got, kept) = reprune.run(&store, v, list.clone(), records, Rule::Hnsw, 32);
                    (got.to_vec(), kept)
                });
                let (want, slow) =
                    counted(|| hnsw_heuristic(&store, v, &cands(&store, v, &ids(&list)), 32));
                assert_eq!((got, kept), want, "vertex {v}, extra {extra}");
                incremental += fast;
                // The from-scratch route ranks the list too: one
                // evaluation per entry that the stored distances save.
                scratch += slow - list.len() as u64;
                checked += 1;
            }
        }
        assert!(checked >= 300, "only {checked} overflows exercised");
        assert!(
            incremental * 10 <= scratch,
            "incremental {incremental} vs from-scratch {scratch} tests"
        );
    }

    /// Records that lie — longer than the list, fillers claimed kept, kept
    /// entries claimed fillers — can cost the result its equality with the
    /// heuristic but must not panic or break its shape.
    #[test]
    fn forged_records_cannot_panic_the_hnsw_reprune() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x9019);
        let store = seeded_store(&mut rng, 30, 3, true);
        let list = cands(&store, 0, &(1..30).collect::<Vec<_>>());
        let mut reprune = Reprune::default();
        for records in [
            (0, 0),
            (7, 3),
            (0, 29),
            (29, 29),
            (usize::MAX, usize::MAX),
            (3, usize::MAX),
        ] {
            let (got, kept) = reprune.run(&store, 0, list.clone(), records, Rule::Hnsw, 8);
            assert_eq!(got.len(), 8);
            assert!(kept <= got.len());
            assert!(got.iter().all(|c| list.contains(c)));
        }
        let (got, kept) = reprune.run(&store, 0, [], (5, 5), Rule::Hnsw, 8);
        assert!(got.is_empty() && kept == 0);
    }

    /// A prune's output over a seeded pool with its records, then up to
    /// `tail` distinct dirty ids appended: a list as a graph holds it.
    fn seeded_list(
        rng: &mut mqa_rng::StdRng,
        store: &VectorStore,
        v: VecId,
        rule: Rule,
        r: usize,
        tail: usize,
    ) -> (Vec<Candidate>, (usize, usize)) {
        let first = seeded_pool(rng, store, v);
        let (mut list, kept) = prune_from_scratch(store, v, &first, rule, r);
        let records = (kept, list.len() - kept);
        for _ in 0..tail {
            let u = rng.gen_range(0..store.len()) as VecId;
            if u != v && !list.iter().any(|c| c.id == u) {
                list.extend(cands(store, v, &[u]));
            }
        }
        (list, records)
    }

    /// Records the re-prune cannot trust — a kept or a filler run out of
    /// order, or a claim past the list's end — are dropped, not clamped:
    /// the re-prune is then exactly the prune from scratch, under both
    /// rules and behind any dirty tail.
    #[test]
    fn untrustworthy_records_give_the_prune_from_scratch() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x901A);
        let mut reprune = Reprune::default();
        let mut forged = [0usize; 3];
        for case in 0..600 {
            let n = rng.gen_range(8usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let rule = [Rule::Hnsw, Rule::Alpha(1.0), Rule::Alpha(1.2)][case % 3];
            let r = [2usize, 4, 8, 32][case % 4];
            let tail = rng.gen_range(0..6);
            let (list, (kept, fillers)) = seeded_list(&mut rng, &store, v, rule, r, tail);
            let len = list.len();
            let mut cases: Vec<(Vec<Candidate>, (usize, usize), usize)> = vec![
                (list.clone(), (len + 1, 0), 2),
                (list.clone(), (0, len + 1), 2),
                (list.clone(), (kept, len + 1 - kept), 2),
                (list.clone(), (usize::MAX, 1), 2),
                (list.clone(), (1, usize::MAX), 2),
            ];
            if kept >= 2 {
                let mut out_of_order = list.clone();
                out_of_order[..kept].reverse();
                cases.push((out_of_order, (kept, fillers), 0));
            }
            if fillers >= 2 {
                let mut out_of_order = list.clone();
                out_of_order[kept..kept + fillers].reverse();
                cases.push((out_of_order, (kept, fillers), 1));
            }
            let want = prune_from_scratch(&store, v, &cands(&store, v, &ids(&list)), rule, r);
            for (held, records, kind) in cases {
                let (got, got_kept) = reprune.run(&store, v, held, records, rule, r);
                assert_eq!(
                    (got.to_vec(), got_kept),
                    want,
                    "case {case}, {rule:?}, records {records:?}"
                );
                forged[kind] += 1;
            }
        }
        // Every kind of lie was told, the filler kind only under HNSW.
        assert!(forged.iter().all(|&k| k >= 50), "forged {forged:?}");
    }

    /// The add-or-re-prune step leaves every list at most `cap` long and
    /// equal — edges, order and records — to pushing the edge and then
    /// re-pruning the over-full list, under both rules, from a list with
    /// room through a run of overflows.
    #[test]
    fn add_edge_within_the_cap_equals_push_then_reprune() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x901B);
        let mut reprune = Reprune::default();
        let checked = || REPRUNES_CHECKED.with(Cell::get);
        let at = checked();
        for case in 0..200 {
            let n = rng.gen_range(12usize..80);
            let store = seeded_store(&mut rng, n, 2 + case % 4, case % 3 == 0);
            let v = rng.gen_range(0..n) as VecId;
            let rule = [Rule::Hnsw, Rule::Alpha(1.2)][case % 2];
            let cap = [1usize, 3, 8][case % 3];
            let (list, (kept, _)) = seeded_list(&mut rng, &store, v, rule, cap, 0);
            let mut graph = Adjacency::new(n);
            graph.set_pruned(v, &list, kept);
            let mut pushed = graph.clone();
            for _ in 0..12 {
                let u = rng.gen_range(0..n) as VecId;
                if u == v {
                    continue;
                }
                let edge = cands(&store, v, &[u])[0];
                let before = graph.neighbors(v).contains(&u);
                let added = reprune.add_edge(&store, &mut graph, v, edge, rule, cap);
                if pushed.add_edge(v, u, edge.dist) && pushed.degree(v) > cap {
                    let records = (pushed.clean_len(v), pushed.filler_len(v));
                    let (picks, kept) =
                        reprune.run(&store, v, pushed.edges_of(v), records, rule, cap);
                    let picks = picks.to_vec();
                    pushed.set_pruned(v, &picks, kept);
                }
                assert!(graph.degree(v) <= cap, "case {case}: {}", graph.degree(v));
                assert_eq!(graph, pushed, "case {case}, edge to {u}");
                assert_eq!(graph.distances(v), pushed.distances(v), "case {case}");
                assert_eq!(
                    added,
                    !before && graph.neighbors(v).contains(&u),
                    "case {case}"
                );
            }
        }
        assert!(checked() - at >= 500, "only {} overflows", checked() - at);
    }

    /// A full list whose records decide every held entry, plus one new
    /// edge, around the origin `v` on axis-aligned points: the kept
    /// entries lie on distinct axes (no pair dominates), each filler on a
    /// kept entry's axis behind it. The edge goes first, in the middle or
    /// last, on a fresh axis (undominated) or behind one kept entry
    /// (dominated by that entry alone). The re-prune equals the prune from
    /// scratch, and its distance calls are exactly the edge's own tests
    /// plus, when it is picked, one per kept entry ranked after it that
    /// the pass reaches before the list is full: a stretch the records
    /// decide costs no test.
    #[test]
    fn a_decided_stretch_costs_no_test() {
        const FRESH: usize = 8;
        let point = |axis: usize, at: f32| {
            let mut x = [0.0f32; FRESH + 1];
            x[axis] = at;
            x
        };
        let mut store = VectorStore::new(FRESH + 1);
        store.push(&[0.0; FRESH + 1]);
        // Kept entries at 1..=8 on axes 0..8 (ids 1..=8), fillers 2.5
        // behind the first four (ids 9..=12).
        for axis in 0..8 {
            store.push(&point(axis, axis as f32 + 1.0));
        }
        for axis in 0..4 {
            store.push(&point(axis, axis as f32 + 3.5));
        }
        // (placement, axis, distance along it): the fresh axis is
        // undominated, axes 2 and 5 lie behind kept entries.
        let edges = [
            ("first", FRESH, 0.5f32),
            ("middle", FRESH, 4.25),
            ("last", FRESH, 9.0),
            ("middle", 2, 4.75),
            ("last", 5, 9.0),
        ];
        let mut reprune = Reprune::default();
        for (rule, held, r) in [(Rule::Hnsw, 12, 12), (Rule::Alpha(1.2), 8, 8)] {
            let list = cands(&store, 0, &(1..=held).collect::<Vec<_>>());
            let records = (8, held as usize - 8);
            let want = prune_from_scratch(&store, 0, &list, rule, r);
            assert_eq!(want, (list.clone(), 8), "{rule:?}: the records are valid");
            for (at, (place, axis, along)) in edges.into_iter().enumerate() {
                let id = store.len() as VecId;
                store.push(&point(axis, along));
                let mut all = list.clone();
                all.extend(cands(&store, 0, &[id]));
                let ((got, kept), calls) = counted(|| {
                    let (got, kept) = reprune.run(&store, 0, all.clone(), records, rule, r);
                    (got.to_vec(), kept)
                });
                let want = prune_from_scratch(&store, 0, &cands(&store, 0, &ids(&all)), rule, r);
                let case = format!("{rule:?}, edge {at} ({place}, axis {axis})");
                assert_eq!((got, kept), want, "{case}");
                // The kept entries ranked before the edge; the one behind
                // which it lies is the `axis`-th.
                let before = (0..8).filter(|&k| (k as f32 + 1.0) < along).count();
                let dominator = (axis < FRESH).then_some(axis);
                let own = match (before < r, dominator, rule) {
                    (false, _, _) => 0,
                    (true, None, _) => before,
                    (true, Some(j), Rule::Hnsw) => j + 1,
                    (true, Some(j), Rule::Alpha(_)) => before - j,
                };
                let picked = before < r && dominator.is_none();
                let after = if picked {
                    (8 - before).min(r - before - 1)
                } else {
                    0
                };
                assert_eq!(calls, (own + after) as u64, "{case}");
            }
        }
    }

    /// Once a re-prune's buffers have grown to a list's length, overflows
    /// of that length allocate nothing: every buffer stays where it was.
    #[test]
    fn a_warm_reprune_allocates_nothing() {
        let mut rng = mqa_rng::StdRng::seed_from_u64(0x901C);
        let store = clustered_store(&mut rng, 300, 16, 8);
        let buffers = |r: &Reprune| {
            let of = |v: &Vec<Candidate>| (v.as_ptr() as usize, v.capacity());
            let held = (r.held.as_ptr() as usize, r.held.capacity());
            [held, of(&r.picks), of(&r.unrecorded), of(&r.dominated)]
        };
        for rule in [Rule::Hnsw, Rule::Alpha(1.2)] {
            let mut reprune = Reprune::default();
            let all: Vec<VecId> = (1..300).collect();
            reprune.run(&store, 0, cands(&store, 0, &all), (0, 0), rule, 32);
            let warm = buffers(&reprune);
            for v in 0..40 as VecId {
                let near: Vec<VecId> = (0..200).filter(|&u| u != v).collect();
                let (list, kept) =
                    prune_from_scratch(&store, v, &cands(&store, v, &near), rule, 32);
                let records = (kept, list.len() - kept);
                for extra in 200..205 as VecId {
                    let edges = list.iter().copied().chain(cands(&store, v, &[extra]));
                    reprune.run(&store, v, edges, records, rule, 32);
                    assert_eq!(buffers(&reprune), warm, "{rule:?}, vertex {v}");
                }
            }
        }
    }

    #[test]
    fn heuristic_prefers_diversity_then_fills() {
        // v=0; candidates 1 (near), 2 (collinear behind 1), -1 direction.
        let mut store = VectorStore::new(1);
        store.push(&[0.0]);
        store.push(&[1.0]);
        store.push(&[2.0]);
        store.push(&[-1.5]);
        let c = cands(&store, 0, &[1, 2, 3]);
        let (sel, kept) = hnsw_heuristic(&store, 0, &c, 3);
        // 1 kept; 3 kept (diverse); 2 dominated by 1 but filled in behind
        // the kept ones.
        assert_eq!((ids(&sel), kept), (vec![1, 3, 2], 2));
    }

    #[test]
    fn heuristic_cap() {
        let store = line_store(10);
        let c = cands(&store, 0, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(hnsw_heuristic(&store, 0, &c, 2).0.len(), 2);
    }
}
