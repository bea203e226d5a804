//! Pins what graph construction costs and what it builds: one clustered
//! store goes through build, one 32-vertex growth, a 20 % tombstone and a
//! compaction under the MQA-graph recipe, under HNSW's defaults and under
//! HNSW at m = 2 (whose compaction re-prunes full lists), and
//! the `graph.construct.distance_evals` and `graph.construct.reprunes`
//! counters must read the exact count of each phase while the final edge
//! lists hash to a fixed value.
//!
//! The counters are process-wide, so this file holds one test: no other
//! test's construction can land in the reading.

use mqa_graph::hnsw::HnswParams;
use mqa_graph::{BuiltGraph, IndexAlgorithm, Tombstones};
use mqa_rng::StdRng;
use mqa_vector::{VecId, VectorStore};
use std::sync::Arc;

const DIM: usize = 64;
const CLUSTERS: usize = 20;
const N: usize = 1_000;
const GROWN: usize = N + 32;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `GROWN` points around `CLUSTERS` seeded centres; the first `n` of them.
fn store(n: usize) -> Arc<VectorStore> {
    let mut rng = StdRng::seed_from_u64(0xC0_57);
    let centres: Vec<Vec<f32>> = (0..CLUSTERS)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-4.0f32..4.0)).collect())
        .collect();
    let mut s = VectorStore::new(DIM);
    for i in 0..n {
        let centre = &centres[i % CLUSTERS];
        let v: Vec<f32> = centre
            .iter()
            .map(|&c| c + rng.gen_range(-1.0f32..1.0))
            .collect();
        s.push(&v);
    }
    Arc::new(s)
}

/// Hash of the structure's edge lists (and entry points).
fn edge_hash(built: &BuiltGraph) -> u64 {
    let mut h = Fnv::new();
    match built {
        BuiltGraph::Nav(nav) => {
            for &e in nav.entries() {
                h.word(u64::from(e));
            }
            for (v, u) in nav.graph().edges() {
                h.word(u64::from(v) << 32 | u64::from(u));
            }
        }
        BuiltGraph::Hnsw(hnsw) => {
            h.word(u64::from(hnsw.entry()));
            h.word(hnsw.max_level() as u64);
            hnsw.for_each_edge(|level, v, u| {
                h.word(level as u64);
                h.word(u64::from(v) << 32 | u64::from(u));
            });
        }
        _ => {}
    }
    h.0
}

#[test]
fn construction_work_and_edges_are_pinned() {
    let evals = mqa_obs::counter("graph.construct.distance_evals");
    let reprunes = mqa_obs::counter("graph.construct.reprunes");
    let (base, grown) = (store(N), store(GROWN));
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut tomb = Tombstones::new(GROWN);
    while tomb.dead_count() < GROWN / 5 {
        tomb.kill(rng.gen_range(0..GROWN) as VecId);
    }
    // (build, grow, compact) evaluations, the overflow re-prunes of the
    // same phases, then the final edge hash.
    let golden: [(IndexAlgorithm, [u64; 3], [u64; 3], u64); 3] = [
        (
            IndexAlgorithm::mqa_graph(),
            [1_843_106, 35_123, 351_741],
            [13_895, 554, 0],
            0xd2d9_e776_cc4d_bccb,
        ),
        (
            IndexAlgorithm::hnsw(),
            [673_875, 24_235, 124_962],
            [31_536, 1_056, 0],
            0x8c63_7f83_61d2_ef4f,
        ),
        // At m = 2 compaction's repair meets full lists and re-prunes them:
        // those re-prunes count in the compaction.
        (
            IndexAlgorithm::Hnsw(HnswParams {
                m: 2,
                ef_construction: 40,
                seed: 2,
            }),
            [134_613, 4_306, 10_249],
            [6_054, 178, 154],
            0x5a07_fe7a_bd98_3c00,
        ),
    ];
    for (algo, want_evals, want_reprunes, want_hash) in golden {
        let (mut spent, mut repruned) = ([0u64; 3], [0u64; 3]);
        let mut at = (evals.get(), reprunes.get());
        let mut phase = |i: usize| {
            spent[i] = evals.get() - at.0;
            repruned[i] = reprunes.get() - at.1;
            at = (evals.get(), reprunes.get());
        };
        let mut built = algo.build_graph(&base);
        phase(0);
        built.grow_to(&grown, &Tombstones::new(0));
        phase(1);
        built.compact_live(&grown, &tomb);
        phase(2);
        let hash = edge_hash(&built);
        assert_eq!(
            (spent, repruned, hash),
            (want_evals, want_reprunes, want_hash),
            "{}: evaluations {spent:?}, re-prunes {repruned:?}, edges {hash:#018x}",
            algo.name()
        );
    }
}
