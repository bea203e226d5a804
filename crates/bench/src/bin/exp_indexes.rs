//! **E7 — Pluggable navigation-graph comparison + Starling layout.**
//!
//! The configuration panel lets users swap NSG, HNSW, DiskANN (Vamana),
//! the combined MQA-graph, or no index at all; Starling adds a
//! disk-resident page layout. This experiment builds each over the same
//! weighted multi-vector corpus and reports build time, degree, memory,
//! recall@10 against exact search, and QPS. For Starling it additionally
//! reports 4 KiB page reads per query for the BFS-clustered layout vs the
//! naive insertion-order layout at identical search parameters.
//!
//! ```bash
//! cargo run --release -p mqa-bench --bin exp_indexes [-- --quick]
//! ```

use mqa_bench::{encode, SetupParams, Table};
use mqa_graph::{
    starling::{LayoutStrategy, PageLayout, PagedIndex},
    FlatDistance, IndexAlgorithm, SearchScratch, VectorIndex,
};
use mqa_kb::DatasetSpec;
use mqa_rng::StdRng;

const K: usize = 10;
const EF: usize = 64;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (objects, n_queries) = if quick { (2_000, 50) } else { (20_000, 200) };
    let params = SetupParams {
        spec: DatasetSpec::weather()
            .objects(objects)
            .concepts(100)
            .caption_noise(0.35)
            .image_noise(0.15)
            .seed(2024),
        ..SetupParams::default()
    };
    println!("E7: {objects} objects, {n_queries} queries, k={K}, ef={EF}\n");
    let enc = encode(&params);
    // The store every index sees: the weighted concatenation (so graph L2
    // equals the fused weighted distance MUST uses).
    let store = enc.corpus.store().weighted_store(&enc.learned.weights);
    let dim = store.dim();

    // Query vectors: perturbed corpus members (realistic near-data load).
    let mut rng = StdRng::seed_from_u64(42);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| {
            let id = rng.gen_range(0..store.len()) as u32;
            store
                .get(id)
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect()
        })
        .collect();

    // Exact ground truth from the flat index.
    let flat = VectorIndex::build(store.clone(), mqa_vector::Metric::L2, &IndexAlgorithm::Flat);
    let truth: Vec<Vec<u32>> = queries.iter().map(|q| flat.search(q, K, K).ids()).collect();

    let mut table = Table::new(&[
        "index",
        "build (s)",
        "avg degree",
        "graph+vec MiB",
        "recall@10",
        "QPS",
        "evals/query",
    ]);
    let algos = [
        IndexAlgorithm::Flat,
        IndexAlgorithm::ivf(),
        IndexAlgorithm::hnsw(),
        IndexAlgorithm::nsg(),
        IndexAlgorithm::vamana(),
        IndexAlgorithm::mqa_graph(),
    ];
    for algo in &algos {
        let idx = VectorIndex::build(store.clone(), mqa_vector::Metric::L2, algo);
        let t0 = std::time::Instant::now();
        let mut hits = 0usize;
        let mut evals = 0u64;
        for (q, t) in queries.iter().zip(&truth) {
            let out = idx.search(q, K, EF);
            evals += out.stats.evals;
            hits += out.ids().iter().filter(|id| t.contains(id)).count();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let mem_mib = (store.bytes() as f64 + idx.avg_degree() * store.len() as f64 * 4.0)
            / (1024.0 * 1024.0);
        table.row(vec![
            algo.name().to_string(),
            format!("{:.2}", idx.build_time().as_secs_f64()),
            format!("{:.1}", idx.avg_degree()),
            format!("{:.1}", mem_mib),
            format!("{:.3}", hits as f64 / (n_queries * K) as f64),
            format!("{:.0}", n_queries as f64 / elapsed),
            format!("{:.0}", evals as f64 / n_queries as f64),
        ]);
    }
    table.print();

    // ── Starling layout ablation on the Vamana graph ──
    println!("\nStarling page-layout ablation (4 KiB pages):");
    let store_arc = std::sync::Arc::new(store.clone());
    let nav = mqa_graph::vamana::build(&store_arc, mqa_vector::Metric::L2, 24, 64, 1.2, 0);
    let per_page = PageLayout::vertices_per_page(dim, 24);
    let mut st = Table::new(&[
        "variant",
        "pages",
        "recall@10",
        "page reads/query",
        "RAM codes",
    ]);
    for strategy in [LayoutStrategy::InsertionOrder, LayoutStrategy::BfsCluster] {
        let layout = PageLayout::build(nav.graph(), per_page, strategy);
        let paged = PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout);
        let mut reads = 0u64;
        let mut hits = 0usize;
        let (mut scratch, mut found) = (SearchScratch::new(), Vec::new());
        for (q, t) in queries.iter().zip(&truth) {
            let mut dist = match FlatDistance::new(&store, q, mqa_vector::Metric::L2) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("query construction failed: {e}");
                    std::process::exit(1);
                }
            };
            let stats = paged.search_paged_into(&mut dist, K, EF, &mut scratch, &mut found);
            reads += stats.pages_read;
            hits += found.iter().filter(|c| t.contains(&c.id)).count();
        }
        st.row(vec![
            format!("one-phase, {strategy:?}"),
            paged.layout().pages().to_string(),
            format!("{:.3}", hits as f64 / (n_queries * K) as f64),
            format!("{:.1}", reads as f64 / n_queries as f64),
            "—".to_string(),
        ]);
    }
    // Two-phase PQ-routed search: route on in-RAM codes (no I/O), read
    // pages only for the beam's survivors, rerank exactly.
    let layout = PageLayout::build(nav.graph(), per_page, LayoutStrategy::BfsCluster);
    let pq = mqa_graph::PqPagedIndex::build(
        PagedIndex::new(nav.graph().clone(), nav.entries().to_vec(), layout),
        &store,
        &mqa_vector::PqParams::default(),
    );
    let mut reads = 0u64;
    let mut hits = 0usize;
    let mut scratch = SearchScratch::new();
    for (q, t) in queries.iter().zip(&truth) {
        let out = pq.search_two_phase(q, &store, K, EF, &mut scratch);
        reads += out.stats.pages_read;
        hits += out.ids().iter().filter(|id| t.contains(id)).count();
    }
    st.row(vec![
        "two-phase PQ, BfsCluster".to_string(),
        pq.layout().pages().to_string(),
        format!("{:.3}", hits as f64 / (n_queries * K) as f64),
        format!("{:.1}", reads as f64 / n_queries as f64),
        format!("{:.2} MiB", pq.code_bytes() as f64 / 1048576.0),
    ]);
    st.print();
    println!("\nshape check: graph indexes trade small recall loss for large QPS gains over");
    println!("flat; the clustered layout cuts page reads at identical recall; PQ-routed");
    println!("two-phase search cuts them by an order of magnitude at a small recall cost.");
}
