//! # mqa-core
//!
//! The MQA system itself: the five backend components of the paper's
//! Figure 2 — Data Preprocessing, Vector Representation, Index
//! Construction, Query Execution, Answer Generation — orchestrated by a
//! [`coordinator::MqaSystem`] ("the coordinator serves as the system's
//! central nexus"), plus the three frontend working panels of Figure 3
//! modelled as APIs: configuration ([`config::Config`]), status monitoring
//! ([`status::StatusMonitor`]) and QA engagement
//! ([`dialogue::DialogueSession`]).
//!
//! Build-time data flow (three function calls, each under one
//! `core.build.*` span whose duration is the status panel's timing):
//!
//! ```text
//! KnowledgeBase ──▶ DataPreprocessing ──▶ VectorRepresentation ──▶ IndexConstruction
//!                     (validate, count)     (encode, learn weights)   (framework + graph)
//! ```
//!
//! Query-time flow, per dialogue turn:
//!
//! ```text
//! Turn ──▶ QueryExecution (augment with selected result, search) ──┐
//!   └────▶ AnswerGeneration (prompt = query + results, LLM) ◀──────┘──▶ Reply
//! ```

pub mod components;
pub mod config;
pub mod coordinator;
pub mod dialogue;
pub mod error;
pub mod panels;
pub mod status;

pub use config::Config;
pub use coordinator::MqaSystem;
pub use dialogue::{DialogueSession, Reply, RetrievedItem, Turn};
pub use error::MqaError;
pub use status::{Milestone, StatusMonitor};
