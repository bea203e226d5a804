//! Pins what graph construction costs and what it builds: one clustered
//! store goes through build, one 32-vertex growth, a 20 % tombstone and a
//! compaction under the MQA-graph recipe and under HNSW's defaults, and
//! the `graph.construct.distance_evals` counter must read the exact count
//! of each phase while the final edge lists hash to a fixed value.
//!
//! The counter is process-wide, so this file holds one test: no other
//! test's construction can land in the reading.

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
    let (base, grown) = (store(N), store(GROWN));
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut tomb = Tombstones::new(GROWN);
    while tomb.dead_count() < GROWN / 5 {
        tomb.kill(rng.gen_range(0..GROWN) as VecId);
    }
    // (build, grow, compact) evaluations, then the final edge hash.
    let golden: [(IndexAlgorithm, [u64; 3], u64); 2] = [
        (
            IndexAlgorithm::mqa_graph(),
            [1_843_106, 35_123, 351_741],
            0xd2d9_e776_cc4d_bccb,
        ),
        (
            IndexAlgorithm::hnsw(),
            [2_604_691, 94_736, 124_962],
            0x8c63_7f83_61d2_ef4f,
        ),
    ];
    for (algo, want_evals, want_hash) in golden {
        let mut spent = [0u64; 3];
        let mut at = evals.get();
        let mut phase = |i: usize| {
            spent[i] = evals.get() - at;
            at = evals.get();
        };
        let mut built = algo.build_graph(&base);
        phase(0);
        built.grow_to(&grown, &Tombstones::new(0));
        phase(1);
        built.compact_live(&grown, &tomb);
        phase(2);
        let hash = edge_hash(&built);
        assert_eq!(
            (spent, hash),
            (want_evals, want_hash),
            "{}: evaluations {spent:?}, edges {hash:#018x}",
            algo.name()
        );
    }
}
