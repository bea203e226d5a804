//! # mqa
//!
//! Facade crate for the MQA workspace: a from-scratch Rust reproduction of
//! *An Interactive Multi-modal Query Answering System with
//! Retrieval-Augmented Large Language Models* (PVLDB'24) together with all
//! of the substrates the system depends on — the MUST multi-modal retrieval
//! framework, a pluggable navigation-graph index family (HNSW, NSG, Vamana,
//! Starling-style disk layout), the five-stage graph-construction pipeline
//! the paper hosts on CGraph, contrastive vector weight learning, synthetic
//! embedding encoders, and a retrieval-augmented answer-generation layer.
//!
//! Each subsystem lives in its own crate and is re-exported here under a
//! stable module name, so downstream users can depend on `mqa` alone:
//!
//! ```
//! use mqa::prelude::*;
//!
//! let corpus = DatasetSpec::fashion().objects(300).seed(7).generate();
//! let mut system = MqaSystem::build(Config::default(), corpus).unwrap();
//! let mut session = system.open_session();
//! let reply = session.ask(Turn::text("long-sleeved top for older women")).unwrap();
//! assert!(!reply.results.is_empty());
//! ```

pub use mqa_core as core;
pub use mqa_encoders as encoders;
pub use mqa_engine as engine;
pub use mqa_graph as graph;
pub use mqa_kb as kb;
pub use mqa_llm as llm;
pub use mqa_obs as obs;
pub use mqa_retrieval as retrieval;
pub use mqa_vector as vector;
pub use mqa_weights as weights;

/// One-stop imports for the common workflow: generate/ingest a corpus,
/// build the system, open a dialogue session, ask multi-modal questions.
pub mod prelude {
    pub use mqa_core::{Config, DialogueSession, MqaSystem, Reply, Turn};
    pub use mqa_kb::{DatasetSpec, KnowledgeBase, ObjectId};
    pub use mqa_retrieval::{FrameworkKind, MultiModalQuery};
    pub use mqa_vector::{Metric, MultiVector, Schema, Weights};
}
