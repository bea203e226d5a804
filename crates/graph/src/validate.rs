//! Structural invariant auditing for the navigation indexes.
//!
//! Every index variant carries a `validate` method returning the list of
//! [`InvariantViolation`]s it found (empty = structurally sound). The
//! structural audit (the `mqa-xtask` test `audit::tests::full_audit_is_clean`)
//! builds each variant over a synthetic corpus and fails if any validator
//! reports a violation; the owning modules unit-test
//! the validators against deliberately corrupted structures.

use crate::adjacency::Adjacency;
use crate::live::Tombstones;
use crate::prune::Rule;
use mqa_vector::{ops, Candidate, MultiVectorStore, VecId, VectorStore, Weights};
use std::fmt;

/// One structural invariant violation found by an index auditor.
///
/// Violations carry enough context to locate the broken structure without
/// re-running the audit under a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// An edge endpoint (or entry) outside `0..n`.
    IdOutOfRange {
        /// Which structure reported it (e.g. `"hnsw layer 2"`).
        context: String,
        /// The offending id.
        id: VecId,
        /// The valid id count.
        n: usize,
    },
    /// A vertex linking to itself.
    SelfLoop {
        /// Which structure reported it.
        context: String,
        /// The self-linking vertex.
        id: VecId,
    },
    /// The same neighbour listed twice in one adjacency list.
    DuplicateNeighbor {
        /// Which structure reported it.
        context: String,
        /// The vertex whose list is duplicated.
        id: VecId,
        /// The repeated neighbour.
        neighbor: VecId,
    },
    /// An adjacency list longer than the structure's degree cap.
    DegreeOverflow {
        /// Which structure reported it.
        context: String,
        /// The over-full vertex.
        id: VecId,
        /// Its actual degree.
        degree: usize,
        /// The structure's cap.
        cap: usize,
    },
    /// An HNSW layer-`level` edge pointing at a vertex absent from that
    /// layer (the neighbour has fewer populated layers).
    CrossLevelEdge {
        /// The vertex carrying the edge.
        vertex: VecId,
        /// The layer of the edge.
        level: usize,
        /// The target vertex.
        neighbor: VecId,
        /// How many layers the target actually has.
        neighbor_levels: usize,
    },
    /// A malformed entry point (out of range, missing layers, or empty).
    BadEntry {
        /// What is wrong with the entry.
        detail: String,
    },
    /// Reachability from the entry set below the structure's floor.
    LowReachability {
        /// Which structure reported it.
        context: String,
        /// Vertices reachable from the entry set.
        reached: usize,
        /// Total vertices.
        n: usize,
        /// The minimum acceptable fraction.
        floor: f64,
    },
    /// A stored or derived size disagreeing with its authority.
    SizeMismatch {
        /// Which quantity disagrees.
        context: String,
        /// The authoritative value.
        expected: usize,
        /// The stored value.
        got: usize,
    },
    /// A tombstone count disagreeing with its bitmap (corrupted or forged
    /// deletion state).
    DeadCountMismatch {
        /// Which count disagrees.
        context: String,
        /// The recorded count.
        recorded: usize,
        /// The count recomputed from the bitmap.
        actual: usize,
    },
    /// An id marked compacted without being dead (`compacted ⊆ dead` is
    /// the tombstone lifecycle invariant).
    RetiredNotDead {
        /// Which structure reported it.
        context: String,
        /// The offending id.
        id: VecId,
    },
    /// An edge into an id that compaction already rewired around. Edges
    /// into merely-dead ids are legal routing; edges into *compacted* ids
    /// mean the rewiring missed one or the graph was mutated afterwards.
    EdgeIntoRetired {
        /// Which structure reported it.
        context: String,
        /// The edge source.
        from: VecId,
        /// The compacted-away target.
        to: VecId,
    },
    /// A list's records (see [`Adjacency`]) that it does not honour: a
    /// clean prefix and fillers longer than the list, a clean prefix not
    /// sorted by distance to the vertex or holding a pair where one entry
    /// dominates the other under the graph's rule, or a filler no clean
    /// entry ranked before it dominates. The incremental re-prune trusts
    /// the records, so a false one makes it keep edges a full prune would
    /// drop.
    FalseCleanPrefix {
        /// Which structure reported it.
        context: String,
        /// The vertex whose list is mislabelled.
        id: VecId,
        /// The recorded clean length.
        clean: usize,
        /// What the prefix fails.
        detail: String,
    },
    /// A stored edge distance (see [`Adjacency`]) that is not, bit for bit,
    /// the distance between the edge's endpoints. Construction ranks held
    /// lists by these, so a wrong one steers every later re-prune of the
    /// list.
    WrongEdgeDistance {
        /// Which structure reported it.
        context: String,
        /// The edge source.
        from: VecId,
        /// The edge target.
        to: VecId,
        /// The stored distance (NaN when none is stored).
        stored: f32,
        /// The distance the endpoints' vectors give.
        actual: f32,
    },
    /// A held weighted row that is not `Weights::scale_concat` of its
    /// store row, bit for bit. The graph's edges were selected over the
    /// held rows, so growth and compaction would prune against vectors
    /// the queries never see.
    StaleWeightedRow {
        /// The object whose weighted row disagrees.
        id: VecId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IdOutOfRange { context, id, n } => {
                write!(f, "{context}: id {id} out of range (n = {n})")
            }
            Self::SelfLoop { context, id } => write!(f, "{context}: vertex {id} links to itself"),
            Self::DuplicateNeighbor {
                context,
                id,
                neighbor,
            } => {
                write!(f, "{context}: vertex {id} lists neighbour {neighbor} twice")
            }
            Self::DegreeOverflow {
                context,
                id,
                degree,
                cap,
            } => {
                write!(f, "{context}: vertex {id} has degree {degree} > cap {cap}")
            }
            Self::CrossLevelEdge {
                vertex,
                level,
                neighbor,
                neighbor_levels,
            } => write!(
                f,
                "hnsw: layer-{level} edge {vertex} -> {neighbor}, but {neighbor} \
                 only has {neighbor_levels} layer(s)"
            ),
            Self::BadEntry { detail } => write!(f, "bad entry point: {detail}"),
            Self::LowReachability {
                context,
                reached,
                n,
                floor,
            } => write!(
                f,
                "{context}: only {reached}/{n} vertices reachable from the entry \
                 set (floor {floor:.2})"
            ),
            Self::SizeMismatch {
                context,
                expected,
                got,
            } => {
                write!(f, "{context}: expected {expected}, got {got}")
            }
            Self::DeadCountMismatch {
                context,
                recorded,
                actual,
            } => write!(
                f,
                "{context}: recorded {recorded} dead, bitmap holds {actual}"
            ),
            Self::RetiredNotDead { context, id } => {
                write!(f, "{context}: id {id} marked compacted but not dead")
            }
            Self::EdgeIntoRetired { context, from, to } => {
                write!(f, "{context}: edge {from} -> {to} into compacted-away id")
            }
            Self::FalseCleanPrefix {
                context,
                id,
                clean,
                detail,
            } => write!(
                f,
                "{context}: vertex {id} records a clean prefix of {clean}, but {detail}"
            ),
            Self::WrongEdgeDistance {
                context,
                from,
                to,
                stored,
                actual,
            } => write!(
                f,
                "{context}: edge {from} -> {to} stores distance {stored}, its endpoints give {actual}"
            ),
            Self::StaleWeightedRow { id } => {
                write!(f, "weighted row {id} is not the scaled store row")
            }
        }
    }
}

/// Audits held weighted rows against their authority: one row per object
/// of `store`, each `Weights::scale_concat` of the store row bit for bit.
/// A row-count mismatch is reported alone (the rows cannot be paired).
pub(crate) fn check_weighted_rows(
    store: &MultiVectorStore,
    weighted: &VectorStore,
    weights: &Weights,
) -> Vec<InvariantViolation> {
    if weighted.len() != store.len() {
        return vec![InvariantViolation::SizeMismatch {
            context: "unified snapshot weighted rows".to_string(),
            expected: store.len(),
            got: weighted.len(),
        }];
    }
    let mut out = Vec::new();
    let mut row = vec![0.0f32; store.schema().total_dim()];
    for (id, held) in weighted.iter() {
        row.copy_from_slice(store.concat_of(id));
        weights.scale_concat(store.schema(), &mut row);
        if row
            .iter()
            .zip(held)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            out.push(InvariantViolation::StaleWeightedRow { id });
        }
    }
    out
}

/// Shared adjacency-list checks: every endpoint in range, no self-loops, no
/// duplicate neighbours. Every graph validator runs it: `NavGraph`, the
/// Starling base layer, each HNSW layer, and a compacted snapshot's graph
/// before anything reads vectors by neighbour id.
pub fn check_adjacency(context: &str, graph: &Adjacency) -> Vec<InvariantViolation> {
    let n = graph.len();
    let mut out = Vec::new();
    for v in 0..n as VecId {
        let mut seen = std::collections::HashSet::new();
        for &u in graph.neighbors(v) {
            if u as usize >= n {
                out.push(InvariantViolation::IdOutOfRange {
                    context: context.to_string(),
                    id: u,
                    n,
                });
            }
            if u == v {
                out.push(InvariantViolation::SelfLoop {
                    context: context.to_string(),
                    id: v,
                });
            }
            if !seen.insert(u) {
                out.push(InvariantViolation::DuplicateNeighbor {
                    context: context.to_string(),
                    id: v,
                    neighbor: u,
                });
            }
        }
    }
    out
}

/// Stored-distance check (see [`Adjacency`]): every edge's stored distance
/// is `ops::l2_sq` of its endpoints, bit for bit. Reports the first wrong
/// edge of each vertex.
///
/// Reads vectors by neighbour id: call it on a graph
/// [`check_adjacency`] accepted, over the store the graph indexes.
pub fn check_edge_distances(
    context: &str,
    graph: &Adjacency,
    store: &VectorStore,
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for v in 0..graph.len() as VecId {
        let stored = graph.distances(v);
        let wrong = graph.neighbors(v).iter().enumerate().find_map(|(i, &u)| {
            let stored = stored.get(i).copied().unwrap_or(f32::NAN);
            let actual = ops::l2_sq(store.get(v), store.get(u));
            (stored.to_bits() != actual.to_bits()).then_some((u, stored, actual))
        });
        if let Some((to, stored, actual)) = wrong {
            out.push(InvariantViolation::WrongEdgeDistance {
                context: context.to_string(),
                from: v,
                to,
                stored,
                actual,
            });
        }
    }
    out
}

/// Record checks (see [`Adjacency`]), under the `rule` the graph prunes
/// with: the clean prefix and the fillers behind it fit in the list, the
/// prefix is sorted by ascending distance to its vertex, no prefix entry
/// dominates a later one, and a prefix entry ranked before each filler
/// dominates it. Reports the first defect of each vertex.
///
/// Reads vectors by neighbour id: call it on a graph
/// [`check_adjacency`] accepted, over the store the graph indexes.
pub fn check_clean_prefixes(
    context: &str,
    graph: &Adjacency,
    store: &VectorStore,
    rule: Rule,
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for v in 0..graph.len() as VecId {
        let (list, clean) = (graph.neighbors(v), graph.clean_len(v));
        let recorded = clean.saturating_add(graph.filler_len(v));
        let defect = match (list.get(..clean), list.get(clean..recorded)) {
            (Some(prefix), Some(fillers)) => records_defect(store, v, prefix, fillers, rule),
            _ => Some(format!(
                "{} fillers follow it and the list holds {}",
                graph.filler_len(v),
                list.len()
            )),
        };
        if let Some(detail) = defect {
            out.push(InvariantViolation::FalseCleanPrefix {
                context: context.to_string(),
                id: v,
                clean,
                detail,
            });
        }
    }
    out
}

/// The first way `prefix` fails to be what a prune around `v` kept, or
/// `fillers` what it back-filled, if any.
fn records_defect(
    store: &VectorStore,
    v: VecId,
    prefix: &[VecId],
    fillers: &[VecId],
    rule: Rule,
) -> Option<String> {
    let rank = |u: VecId| Candidate::new(u, ops::l2_sq(store.get(v), store.get(u)));
    let ranked: Vec<Candidate> = prefix.iter().map(|&u| rank(u)).collect();
    if let Some((a, b)) = ranked
        .iter()
        .zip(ranked.iter().skip(1))
        .find(|(a, b)| a >= b)
    {
        return Some(format!("{} is listed before the closer {}", a.id, b.id));
    }
    let dominates = |p: &Candidate, q: &Candidate| {
        rule.dominates(ops::l2_sq(store.get(p.id), store.get(q.id)), q.dist)
    };
    for (j, q) in ranked.iter().enumerate() {
        if let Some(p) = ranked.iter().take(j).find(|p| dominates(p, q)) {
            return Some(format!("{} dominates {}", p.id, q.id));
        }
    }
    fillers.iter().map(|&u| rank(u)).find_map(|f| {
        let covered = ranked
            .iter()
            .take_while(|p| **p < f)
            .any(|p| dominates(p, &f));
        (!covered).then(|| format!("no clean entry before filler {} dominates it", f.id))
    })
}

/// Tombstone lifecycle checks: the population matches the structure it
/// annotates, the recorded counts match the bitmaps, every compacted id is
/// dead, and no bitmap bit falls outside the population. Used by the
/// snapshot validator against (possibly deserialized) deletion state.
pub fn check_tombstones(context: &str, n: usize, tomb: &Tombstones) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if tomb.len() != n {
        out.push(InvariantViolation::SizeMismatch {
            context: format!("{context} tombstone population"),
            expected: n,
            got: tomb.len(),
        });
    }
    let mut dead = 0usize;
    let mut compacted = 0usize;
    for id in 0..tomb.len() as VecId {
        if tomb.is_dead(id) {
            dead += 1;
        }
        if tomb.is_compacted(id) {
            compacted += 1;
            if !tomb.is_dead(id) {
                out.push(InvariantViolation::RetiredNotDead {
                    context: context.to_string(),
                    id,
                });
            }
        }
    }
    if dead != tomb.dead_count() {
        out.push(InvariantViolation::DeadCountMismatch {
            context: format!("{context} dead count"),
            recorded: tomb.dead_count(),
            actual: dead,
        });
    }
    if compacted != tomb.compacted_count() {
        out.push(InvariantViolation::DeadCountMismatch {
            context: format!("{context} compacted count"),
            recorded: tomb.compacted_count(),
            actual: compacted,
        });
    }
    // Bits past the population are invisible to is_dead/is_compacted;
    // recount() sees the raw words.
    if out.is_empty() && tomb.recount().is_none() {
        out.push(InvariantViolation::DeadCountMismatch {
            context: format!("{context} tombstone bitmap"),
            recorded: tomb.dead_count(),
            actual: dead,
        });
    }
    out
}

/// Flags every edge pointing into an id compaction already rewired around.
/// Edges into merely-dead (uncompacted) ids are legal — they keep routing
/// until the next compaction pass.
pub fn check_edges_live(
    context: &str,
    edges: impl Iterator<Item = (VecId, VecId)>,
    tomb: &Tombstones,
) -> Vec<InvariantViolation> {
    edges
        .filter(|&(_, to)| tomb.is_compacted(to))
        .map(|(from, to)| InvariantViolation::EdgeIntoRetired {
            context: context.to_string(),
            from,
            to,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_adjacency_accepts_sound_graph() {
        let mut g = Adjacency::new(3);
        g.set_neighbors(0, &Adjacency::edges_to(&[1, 2]));
        g.set_neighbors(1, &Adjacency::edges_to(&[0]));
        g.set_neighbors(2, &Adjacency::edges_to(&[0, 1]));
        assert!(check_adjacency("test", &g).is_empty());
    }

    #[test]
    fn check_adjacency_flags_each_defect() {
        let mut g = Adjacency::new(3);
        g.lists_mut()[0] = vec![0]; // self-loop
        g.lists_mut()[1] = vec![2, 2]; // duplicate
        g.lists_mut()[2] = vec![9]; // out of range
        let v = check_adjacency("test", &g);
        assert!(v
            .iter()
            .any(|x| matches!(x, InvariantViolation::SelfLoop { id: 0, .. })));
        assert!(v.iter().any(|x| matches!(
            x,
            InvariantViolation::DuplicateNeighbor {
                id: 1,
                neighbor: 2,
                ..
            }
        )));
        assert!(v
            .iter()
            .any(|x| matches!(x, InvariantViolation::IdOutOfRange { id: 9, .. })));
        assert_eq!(v.len(), 3);
        // Every violation renders a human-readable line.
        for x in &v {
            assert!(!x.to_string().is_empty());
        }
    }

    /// Deserializes a `Tombstones` from raw parts — the only way
    /// corrupted deletion state can arise in practice (fields are
    /// private; deserialization is the trust boundary).
    fn tombstones_from_parts(
        dead: &[u64],
        compacted: &[u64],
        dead_count: usize,
        compacted_count: usize,
        n: usize,
    ) -> Tombstones {
        let arr = |a: &[u64]| {
            let items: Vec<String> = a.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        let j = format!(
            "{{\"dead\":{},\"compacted\":{},\"dead_count\":{dead_count},\
             \"compacted_count\":{compacted_count},\"n\":{n}}}",
            arr(dead),
            arr(compacted),
        );
        serde_json::from_str(&j).unwrap()
    }

    fn sound_tombstones() -> Tombstones {
        let mut t = Tombstones::new(100);
        t.kill(3);
        t.kill(64);
        t.mark_all_compacted();
        t.kill(70);
        t
    }

    // The serialized words of `sound_tombstones`: dead = {3, 64, 70},
    // compacted = {3, 64}.
    const DEAD_W0: u64 = 1 << 3;
    const DEAD_W1: u64 = (1 << 0) | (1 << 6);
    const COMP_W0: u64 = 1 << 3;
    const COMP_W1: u64 = 1 << 0;

    #[test]
    fn check_tombstones_accepts_sound_state() {
        let t = sound_tombstones();
        assert!(check_tombstones("test", 100, &t).is_empty());
        // The round-tripped raw parts reproduce the same sound state.
        let same = tombstones_from_parts(&[DEAD_W0, DEAD_W1], &[COMP_W0, COMP_W1], 3, 2, 100);
        assert_eq!(same, t);
    }

    #[test]
    fn check_tombstones_flags_each_defect() {
        use InvariantViolation as V;
        let t = sound_tombstones();

        // Population mismatch against the annotated structure.
        assert!(check_tombstones("test", 90, &t)
            .iter()
            .any(|x| matches!(x, V::SizeMismatch { .. })));

        // Forged dead count.
        let bad = tombstones_from_parts(&[DEAD_W0, DEAD_W1], &[COMP_W0, COMP_W1], 7, 2, 100);
        assert!(check_tombstones("test", 100, &bad).iter().any(|x| matches!(
            x,
            V::DeadCountMismatch {
                recorded: 7,
                actual: 3,
                ..
            }
        )));

        // Forged compacted count.
        let bad = tombstones_from_parts(&[DEAD_W0, DEAD_W1], &[COMP_W0, COMP_W1], 3, 9, 100);
        assert!(check_tombstones("test", 100, &bad)
            .iter()
            .any(|x| matches!(x, V::DeadCountMismatch { recorded: 9, .. })));

        // Compacted bit without the dead bit: clear id 3 from the dead
        // bitmap (leaving {64, 70}) while compacted still holds {3, 64}.
        // Counts desynchronize too, but the subset violation must surface
        // specifically.
        let bad = tombstones_from_parts(&[0, DEAD_W1], &[COMP_W0, COMP_W1], 2, 2, 100);
        assert!(check_tombstones("test", 100, &bad)
            .iter()
            .any(|x| matches!(x, V::RetiredNotDead { id: 3, .. })));

        // A dead bit past the population (id 120 >= 100) is invisible to
        // per-id reads but recount() sees the raw word.
        let bad = tombstones_from_parts(
            &[DEAD_W0, DEAD_W1 | (1 << 56)],
            &[COMP_W0, COMP_W1],
            3,
            2,
            100,
        );
        assert!(!check_tombstones("test", 100, &bad).is_empty());
    }

    #[test]
    fn check_edges_live_flags_only_compacted_targets() {
        use InvariantViolation as V;
        let mut t = Tombstones::new(10);
        t.kill(2);
        t.mark_all_compacted();
        t.kill(5); // dead but not compacted — edges into it are legal
        let edges = vec![(0u32, 1u32), (0, 2), (3, 5), (4, 2)];
        let v = check_edges_live("test", edges.into_iter(), &t);
        assert_eq!(v.len(), 2);
        assert!(v
            .iter()
            .any(|x| matches!(x, V::EdgeIntoRetired { from: 0, to: 2, .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, V::EdgeIntoRetired { from: 4, to: 2, .. })));
    }
}
