//! Randomized property tests over the core invariants of the vector, graph,
//! and weighting substrates. Each property draws a few hundred seeded cases
//! from the in-tree [`mqa_rng`] PRNG, so runs are deterministic and the
//! suite needs no external dependencies.

use mqa::graph::{Adjacency, PageLayout};
use mqa::vector::{ops, Candidate, FusedScanner, Metric, MultiVector, Schema, TopK, Weights};
use mqa_rng::StdRng;

const CASES: usize = 200;

fn rand_vec(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect()
}

// ── L2 axioms ────────────────────────────────────────────────────────────

#[test]
fn l2_symmetry() {
    let mut rng = StdRng::seed_from_u64(0xA001);
    for _ in 0..CASES {
        let (a, b) = (rand_vec(&mut rng, 16), rand_vec(&mut rng, 16));
        let d1 = ops::l2_sq(&a, &b);
        let d2 = ops::l2_sq(&b, &a);
        assert!((d1 - d2).abs() <= 1e-3 * (1.0 + d1.abs()));
    }
}

#[test]
fn l2_identity_and_nonnegativity() {
    let mut rng = StdRng::seed_from_u64(0xA002);
    for _ in 0..CASES {
        let a = rand_vec(&mut rng, 16);
        assert_eq!(ops::l2_sq(&a, &a), 0.0);
        assert!(ops::l2_sq(&a, &[0.0; 16]) >= 0.0);
    }
}

#[test]
fn l2_triangle_inequality_on_sqrt() {
    let mut rng = StdRng::seed_from_u64(0xA003);
    for _ in 0..CASES {
        let a = rand_vec(&mut rng, 8);
        let b = rand_vec(&mut rng, 8);
        let c = rand_vec(&mut rng, 8);
        // L2 is squared; the triangle inequality holds for its square root.
        let ab = ops::l2_sq(&a, &b).sqrt();
        let bc = ops::l2_sq(&b, &c).sqrt();
        let ac = ops::l2_sq(&a, &c).sqrt();
        assert!(ac <= ab + bc + 1e-3);
    }
}

// ── top-k collection ─────────────────────────────────────────────────────

#[test]
fn topk_equals_sorted_prefix() {
    let mut rng = StdRng::seed_from_u64(0xA005);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..60);
        let dists: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0f32..100.0)).collect();
        let k = rng.gen_range(1usize..20);
        let mut top = TopK::new(k);
        for (i, &d) in dists.iter().enumerate() {
            top.offer(Candidate::new(i as u32, d));
        }
        let got: Vec<u32> = top.into_sorted().into_iter().map(|c| c.id).collect();
        let mut expect: Vec<Candidate> = dists
            .iter()
            .enumerate()
            .map(|(i, &d)| Candidate::new(i as u32, d))
            .collect();
        expect.sort_unstable();
        expect.truncate(k);
        let expect_ids: Vec<u32> = expect.into_iter().map(|c| c.id).collect();
        assert_eq!(got, expect_ids);
    }
}

// ── weights ──────────────────────────────────────────────────────────────

#[test]
fn weights_normalized_sum_equals_arity() {
    let mut rng = StdRng::seed_from_u64(0xA006);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..6);
        let raw: Vec<f32> = (0..len).map(|_| rng.gen_range(0.01f32..10.0)).collect();
        let w = Weights::normalized(&raw);
        let sum: f32 = w.as_slice().iter().sum();
        assert!((sum - raw.len() as f32).abs() < 1e-3);
        assert!(w.as_slice().iter().all(|&x| x >= 0.0));
    }
}

#[test]
fn weighted_concat_identity() {
    let mut rng = StdRng::seed_from_u64(0xA007);
    for _ in 0..CASES {
        // Fused weighted L2 == plain L2 on sqrt(w)-scaled concatenation.
        let schema = Schema::text_image(6, 10);
        let a = MultiVector::complete(&schema, vec![rand_vec(&mut rng, 6), rand_vec(&mut rng, 10)]);
        let b = MultiVector::complete(&schema, vec![rand_vec(&mut rng, 6), rand_vec(&mut rng, 10)]);
        let wt = rng.gen_range(0.1f32..4.0);
        let wi = rng.gen_range(0.1f32..4.0);
        let w = Weights::normalized(&[wt, wi]);
        let fused = a.fused_distance(&b, &w);
        let mut fa = a.concat(&schema);
        let mut fb = b.concat(&schema);
        w.scale_concat(&schema, &mut fa);
        w.scale_concat(&schema, &mut fb);
        let flat = ops::l2_sq(&fa, &fb);
        assert!(
            (fused - flat).abs() <= 1e-2 * (1.0 + fused.abs()),
            "fused {fused} flat {flat}"
        );
    }
}

// ── incremental scanning soundness ───────────────────────────────────────

#[test]
fn scan_decision_matches_exact_comparison() {
    let mut rng = StdRng::seed_from_u64(0xA008);
    for _ in 0..CASES {
        let schema = Schema::text_image(8, 8);
        let q = MultiVector::complete(&schema, vec![rand_vec(&mut rng, 8), rand_vec(&mut rng, 8)]);
        let o = MultiVector::complete(&schema, vec![rand_vec(&mut rng, 8), rand_vec(&mut rng, 8)]);
        let bound = rng.gen_range(0.0f32..500.0);
        let wt = rng.gen_range(0.1f32..3.0);
        let w = Weights::normalized(&[wt, 2.0 - wt.min(1.9)]);
        let exact = q.fused_distance(&o, &w);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        match scanner.distance(&o.concat(&schema), bound) {
            Some(d) => assert!((d - exact).abs() <= 1e-2 * (1.0 + exact)),
            None => assert!(
                exact >= bound - 1e-2 * (1.0 + bound),
                "abandoned but exact {exact} < bound {bound}"
            ),
        }
    }
}

/// One summation: whatever the bound, an evaluation that completes returns
/// the bits of the unbounded one, on blocks of one to several chunks.
#[test]
fn completed_scan_is_bit_identical_to_unbounded() {
    let mut rng = StdRng::seed_from_u64(0xA00B);
    let mut completed = 0;
    for _ in 0..CASES {
        let (dt, di) = (rng.gen_range(1usize..130), rng.gen_range(1usize..130));
        let schema = Schema::text_image(dt, di);
        let q = MultiVector::complete(
            &schema,
            vec![rand_vec(&mut rng, dt), rand_vec(&mut rng, di)],
        );
        let o = MultiVector::complete(
            &schema,
            vec![rand_vec(&mut rng, dt), rand_vec(&mut rng, di)],
        );
        let wt = rng.gen_range(0.1f32..3.0);
        let w = Weights::normalized(&[wt, 2.0 - wt.min(1.9)]);
        let flat = o.concat(&schema);
        let mut scanner = FusedScanner::new(&schema, &q, &w, Metric::L2);
        let unbounded = scanner.exact(&flat);
        let bound = unbounded * rng.gen_range(0.5f32..2.0);
        if let Some(d) = scanner.distance(&flat, bound) {
            assert_eq!(d.to_bits(), unbounded.to_bits(), "dims {dt}+{di}");
            completed += 1;
        }
    }
    assert!(
        completed >= CASES / 3,
        "only {completed} evaluations completed"
    );
}

// ── vector ops ───────────────────────────────────────────────────────────

#[test]
fn normalize_gives_unit_norm_or_zero() {
    let mut rng = StdRng::seed_from_u64(0xA009);
    for _ in 0..CASES {
        let v = rand_vec(&mut rng, 12);
        let n = ops::normalized(&v);
        let norm = ops::norm(&n);
        assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-3);
    }
}

#[test]
fn multivector_concat_split_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA00A);
    for _ in 0..CASES {
        let schema = Schema::text_image(5, 7);
        let mv = MultiVector::complete(&schema, vec![rand_vec(&mut rng, 5), rand_vec(&mut rng, 7)]);
        let back = MultiVector::from_concat(&schema, &mv.concat(&schema));
        assert_eq!(mv, back);
    }
}

// ── graph invariants ─────────────────────────────────────────────────────

#[test]
fn adjacency_edges_are_deduplicated() {
    let mut rng = StdRng::seed_from_u64(0xA00B);
    for _ in 0..CASES {
        let mut g = Adjacency::new(20);
        for _ in 0..rng.gen_range(0usize..100) {
            let a = rng.gen_range(0u32..20);
            let b = rng.gen_range(0u32..20);
            if a != b {
                g.add_edge(a, b, 0.0);
            }
        }
        for v in 0..20u32 {
            let nb = g.neighbors(v);
            let mut dedup = nb.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(nb.len(), dedup.len(), "duplicates at {v}");
            assert!(!nb.contains(&v), "self loop at {v}");
        }
    }
}

#[test]
fn page_layout_partitions_vertices() {
    let mut rng = StdRng::seed_from_u64(0xA00C);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let per_page = rng.gen_range(1usize..10);
        // Several components, some of them single isolated vertices: a
        // run of ids is chained and given random directed edges of its
        // own, and a new run starts at every fifth vertex or so.
        let mut g = Adjacency::new(n);
        let mut run_start = 0u32;
        for v in 1..n as u32 {
            if rng.gen_bool(0.2) {
                run_start = v;
                continue;
            }
            g.add_edge(v - 1, v, 0.0);
            g.add_edge(v, rng.gen_range(run_start..v), 0.0);
        }
        for strategy in [
            mqa::graph::starling::LayoutStrategy::InsertionOrder,
            mqa::graph::starling::LayoutStrategy::BfsCluster,
        ] {
            let layout = PageLayout::build(&g, per_page, strategy);
            assert_eq!(layout.pages(), n.div_ceil(per_page), "{strategy:?}");
            let mut counts = vec![0usize; layout.pages()];
            for v in 0..n as u32 {
                counts[layout.page(v) as usize] += 1;
            }
            let (last, full) = counts.split_last().expect("n >= 1 gives a page");
            assert!(
                full.iter().all(|&c| c == per_page),
                "{strategy:?}: {counts:?}"
            );
            assert_eq!(full.len() * per_page + last, n, "{strategy:?}: {counts:?}");
            assert!((1..=per_page).contains(last), "{strategy:?}: {counts:?}");
        }
    }
}

// ── neighbour selection invariants ───────────────────────────────────────

#[test]
fn robust_prune_output_well_formed() {
    use mqa::graph::prune::robust_prune;
    use mqa::vector::VectorStore;
    let mut rng = StdRng::seed_from_u64(0xA00D);
    for _ in 0..64 {
        let n = rng.gen_range(3usize..40);
        let alpha = rng.gen_range(1.0f32..2.0);
        let r = rng.gen_range(1usize..10);
        let mut store = VectorStore::new(4);
        for _ in 0..n {
            store.push(&rand_vec(&mut rng, 4));
        }
        let v = 0u32;
        let cands: Vec<Candidate> = (1..n as u32)
            .map(|u| Candidate::new(u, ops::l2_sq(store.get(v), store.get(u))))
            .collect();
        let nearest = cands.iter().min().map(|c| c.id);
        let selected: Vec<u32> = robust_prune(&store, v, &cands, alpha, r)
            .iter()
            .map(|c| c.id)
            .collect();
        assert!(selected.len() <= r);
        assert!(!selected.contains(&v), "self loop");
        let mut dedup = selected.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), selected.len(), "duplicate selection");
        // The nearest candidate always survives pruning.
        if let (Some(first), Some(nearest)) = (selected.first(), nearest) {
            assert_eq!(*first, nearest, "nearest candidate pruned");
        }
    }
}

// ── beam search structure ────────────────────────────────────────────────

#[test]
fn beam_search_output_well_formed() {
    use mqa::graph::{beam_search, FlatDistance, SearchScratch};
    use mqa::vector::VectorStore;
    let mut rng = StdRng::seed_from_u64(0xA00E);
    for case in 0..64 {
        let n = rng.gen_range(2usize..50);
        let query = rand_vec(&mut rng, 3);
        let k = rng.gen_range(1usize..8);
        // Force the ef >= n branch on a fraction of cases.
        let ef = if case % 4 == 0 {
            n + rng.gen_range(0usize..8)
        } else {
            rng.gen_range(1usize..16)
        };
        let mut store = VectorStore::new(3);
        for _ in 0..n {
            store.push(&rand_vec(&mut rng, 3));
        }
        // Ring graph: always connected.
        let mut g = Adjacency::new(n);
        for v in 0..n as u32 {
            g.add_edge(v, ((v as usize + 1) % n) as u32, 0.0);
            g.add_edge(v, ((v as usize + n - 1) % n) as u32, 0.0);
        }
        let mut dist = FlatDistance::new(&store, &query).expect("dims match");
        let out = beam_search(&g, &[0], &mut dist, k, ef, &mut SearchScratch::new());
        assert!(out.results.len() <= k);
        assert!(!out.results.is_empty());
        // sorted ascending, unique ids
        for w in out.results.windows(2) {
            assert!(w[0].dist <= w[1].dist);
            assert!(w[0].id != w[1].id);
        }
        // every reported distance is the true distance
        for c in &out.results {
            let true_d = ops::l2_sq(&query, store.get(c.id));
            assert!((c.dist - true_d).abs() < 1e-3);
        }
        // with ef >= n on a connected graph the true nearest is found
        if ef >= n {
            let best = (0..n as u32).min_by(|&a, &b| {
                ops::l2_sq(&query, store.get(a)).total_cmp(&ops::l2_sq(&query, store.get(b)))
            });
            assert_eq!(Some(out.results[0].id), best);
        }
    }
}

// ── seeded-randomized structural properties ──────────────────────────────

#[test]
fn repaired_graphs_reach_every_vertex() {
    use mqa::vector::VectorStore;
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(31);
    for trial in 0..3 {
        let n = 150 + trial * 80;
        let mut store = VectorStore::new(6);
        for _ in 0..n {
            let v: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            store.push(&v);
        }
        let store = Arc::new(store);
        let nav = mqa::graph::vamana::build(&store, 10, 24, 1.2, trial as u64);
        assert_eq!(
            nav.graph().reachable_count(nav.entries()[0]),
            n,
            "trial {trial}: unreachable vertices remain"
        );
    }
}

/// HNSW growth is insertion, so an index built over a prefix and grown,
/// compacted and grown again is, list for list and record for record, the
/// index built over the larger prefix at once and put through the same
/// compaction and growth — across degree bounds small enough that nearly
/// every link overflows a list and the heuristic back-fills most of them.
/// Every record and every degree cap holds: the validator finds nothing
/// but the reachability a compaction's repair may cost.
#[test]
fn hnsw_grow_compact_grow_equals_one_build_and_the_same_mutations() {
    use mqa::graph::hnsw::{Hnsw, HnswParams};
    use mqa::graph::{InvariantViolation, Tombstones};
    use mqa::vector::VectorStore;
    let mut rng = StdRng::seed_from_u64(0xA00F);
    for case in 0..40 {
        let m = [2usize, 3, 4, 8][case % 4];
        let dim = 2 + case % 3;
        let n2 = rng.gen_range(40usize..120);
        let n1 = rng.gen_range(n2 / 2..n2);
        let n0 = rng.gen_range(1..n1);
        let mut full = VectorStore::new(dim);
        for _ in 0..n2 {
            // Every other case on a coarse grid: ties and coincident points.
            let v: Vec<f32> = (0..dim)
                .map(|_| match case % 2 {
                    0 => rng.gen_range(0..4) as f32,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            full.push(&v);
        }
        let prefix = |n: usize| {
            let mut s = VectorStore::new(dim);
            for id in 0..n as u32 {
                s.push(full.get(id));
            }
            s
        };
        let params = HnswParams {
            m,
            ef_construction: rng.gen_range(4usize..48),
            seed: case as u64,
        };
        let mut grown = Hnsw::build(&prefix(n0), &params);
        grown.extend_from(&prefix(n1), &Tombstones::new(0));
        let mut once = Hnsw::build(&prefix(n1), &params);
        assert_eq!(grown, once, "case {case}: growth");
        let mut tomb = Tombstones::new(n1);
        while tomb.dead_count() < n1 / 5 {
            tomb.kill(rng.gen_range(0..n1) as u32);
        }
        for h in [&mut grown, &mut once] {
            h.compact(&prefix(n1), &tomb);
        }
        tomb.mark_all_compacted();
        tomb.grow(n2);
        for h in [&mut grown, &mut once] {
            h.extend_from(&full, &tomb);
        }
        assert_eq!(grown, once, "case {case}: compaction and growth");
        let violations = grown.validate(&full, &Tombstones::new(0));
        assert!(
            violations
                .iter()
                .all(|v| matches!(v, InvariantViolation::LowReachability { .. })),
            "case {case}, m {m}: {violations:?}"
        );
    }
}
