//! Cold builds: the system under test, the staged build that attributes
//! set-up time to layers, and the paged side structure.

use crate::stats::Rounds;
use mqa_cache::PageCache;
use mqa_core::components::preprocess;
use mqa_core::{Config, MqaSystem};
use mqa_encoders::EncoderRegistry;
use mqa_graph::starling::{DeviceProfile, LayoutStrategy, PageLayout, PagedIndex};
use mqa_graph::{BuiltGraph, UnifiedIndex};
use mqa_kb::KnowledgeBase;
use mqa_retrieval::{EncodedCorpus, EncoderSet};
use mqa_vector::Weights;
use mqa_weights::WeightLearner;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Microseconds since `t0`, fractional.
pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Builds the system exactly as a user would: `MqaSystem::build`.
///
/// # Errors
/// The build error, rendered.
pub fn build_system(config: &Config, kb: KnowledgeBase) -> Result<MqaSystem, String> {
    MqaSystem::build(config.clone(), kb).map_err(|e| format!("MqaSystem::build: {e}"))
}

/// The same build taken apart into its public stages, each timed from
/// outside. `MqaSystem` keeps its index behind `dyn RetrievalFramework`,
/// so this is also the only way to reach `UnifiedIndex` for stage replays
/// and exact-search oracles; every constructor is seeded, so the staged
/// index equals the system's own (the workloads check that it answers
/// identically).
pub struct Staged {
    /// The encoded corpus.
    pub corpus: Arc<EncodedCorpus>,
    /// The learned weights.
    pub weights: Weights,
    /// The unified index.
    pub index: UnifiedIndex,
}

/// Per-stage set-up samples, one round per cold build.
#[derive(Default)]
pub struct StageTimes {
    /// `mqa-core` preprocessing (validation, corpus statistics).
    pub preprocess_s: Rounds,
    /// `EncodedCorpus::encode`.
    pub encode_s: Rounds,
    /// `WeightLearner::learn`.
    pub learn_s: Rounds,
    /// `UnifiedIndex::build`.
    pub graph_s: Rounds,
    /// Page layout and paged-index assembly (paged workload only).
    pub layout_s: Rounds,
    /// Sum of the stages above, per build.
    pub total_s: Rounds,
}

/// Runs the staged build and records one sample per stage.
///
/// # Errors
/// A message when a stage rejects the corpus (empty or unlabelled).
pub fn build_staged(
    config: &Config,
    kb: KnowledgeBase,
    times: &mut StageTimes,
) -> Result<Staged, String> {
    let t0 = Instant::now();
    let pre = preprocess::run(kb).map_err(|e| format!("preprocess: {e}"))?;
    let pre_s = secs_since(t0);

    let t1 = Instant::now();
    let registry = EncoderRegistry::new(config.encoder_seed);
    let encoders = EncoderSet::default_for(&registry, pre.kb.schema(), config.embedding_dim);
    let corpus = Arc::new(EncodedCorpus::encode(pre.kb.as_ref().clone(), encoders));
    let encode_s = secs_since(t1);

    let t2 = Instant::now();
    let labels = corpus
        .concept_labels()
        .ok_or("generated corpus lost its concept labels")?;
    let weights = WeightLearner::new(config.trainer)
        .learn(corpus.store(), &labels)
        .weights;
    let learn_s = secs_since(t2);

    let t3 = Instant::now();
    let index = UnifiedIndex::build(
        corpus.store().clone(),
        weights.clone(),
        config.metric,
        &config.index,
    );
    let graph_s = secs_since(t3);

    times.preprocess_s.push_one(pre_s);
    times.encode_s.push_one(encode_s);
    times.learn_s.push_one(learn_s);
    times.graph_s.push_one(graph_s);
    times.total_s.push_one(pre_s + encode_s + learn_s + graph_s);
    Ok(Staged {
        corpus,
        weights,
        index,
    })
}

/// Degree bound of the paged workload's Vamana graph.
pub const PAGED_DEGREE: usize = 16;
/// Simulated device latency per distinct page read.
pub const DEVICE_READ: Duration = Duration::from_micros(50);

/// The paged side structure: the staged index's navigation graph laid out
/// on 4 KiB pages behind a device profile and a shared page cache.
pub struct PagedSide {
    /// The paged index the workload queries.
    pub paged: PagedIndex,
    /// Its page cache (a quarter of the pages).
    pub cache: Arc<PageCache>,
    /// Total pages of the layout.
    pub pages: usize,
}

fn nav_parts(staged: &Staged) -> Result<(mqa_graph::Adjacency, Vec<u32>), String> {
    let snap = staged.index.current();
    match snap.searcher() {
        BuiltGraph::Nav(nav) => Ok((nav.graph().clone(), nav.entries().to_vec())),
        BuiltGraph::Flat(_) | BuiltGraph::Hnsw(_) | BuiltGraph::Ivf(_) => {
            Err("paged layout needs a flat navigation graph (NSG, Vamana or MQA-graph)".into())
        }
    }
}

/// Lays the staged graph out on pages (`BfsCluster`) with `capacity` cache
/// pages (`None` = a quarter of the pages) and the given device latency.
///
/// # Errors
/// A message when the staged index is not a flat navigation graph.
pub fn build_paged(
    staged: &Staged,
    capacity: Option<usize>,
    read_latency: Duration,
) -> Result<PagedSide, String> {
    let (graph, entries) = nav_parts(staged)?;
    let dim = staged.corpus.store().schema().total_dim();
    let per_page = PageLayout::vertices_per_page(dim, PAGED_DEGREE);
    let layout = PageLayout::build(&graph, per_page, LayoutStrategy::BfsCluster);
    let pages = layout.pages();
    let cache = Arc::new(PageCache::new(capacity.unwrap_or(pages / 4)));
    let paged = PagedIndex::new(graph, entries, layout)
        .with_device(DeviceProfile::with_read_latency(read_latency))
        .with_page_cache(Arc::clone(&cache));
    Ok(PagedSide {
        paged,
        cache,
        pages,
    })
}
