//! The framework trait and its configuration-panel enum.

use crate::error::RetrievalError;
use crate::query::MultiModalQuery;
use crate::result::RetrievalOutput;
use mqa_graph::MutationReport;
use mqa_vector::{MultiVector, VecId};
use serde::{Deserialize, Serialize};

/// The retrieval-framework options of the configuration panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// The paper's framework (multi-vector, learned weights, unified graph,
    /// merging-free search).
    #[default]
    Must,
    /// Multi-streamed Retrieval: per-modality indexes + merge + rerank.
    Mr,
    /// Joint Embedding: one jointly encoded vector per object.
    Je,
}

impl FrameworkKind {
    /// Panel display name.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::Must => "MUST",
            FrameworkKind::Mr => "MR",
            FrameworkKind::Je => "JE",
        }
    }
}

/// A retrieval framework over one encoded corpus.
pub trait RetrievalFramework: Send + Sync {
    /// Which framework this is.
    fn kind(&self) -> FrameworkKind;

    /// Retrieves the `k` objects most relevant to `query`, with search
    /// effort `ef` (beam width; frameworks clamp to `>= k`). Graph searches
    /// borrow the calling thread's pooled scratch
    /// ([`mqa_graph::with_pooled`]), so every caller, an engine worker
    /// included, searches through this one method.
    ///
    /// # Panics
    /// Implementations panic on an empty query (`query.has_content()` is
    /// the caller's guard) and on `k == 0`.
    fn search(&self, query: &MultiModalQuery, k: usize, ef: usize) -> RetrievalOutput;

    /// Inserts a batch of already-encoded objects into the live index,
    /// publishing a new snapshot for subsequent searches; in-flight
    /// searches keep reading the generation they pinned. The default
    /// refuses: only frameworks with a mutable index (MUST) override.
    ///
    /// # Errors
    /// [`RetrievalError::MutationUnsupported`] by default;
    /// [`RetrievalError::Mutation`] when the index rejects the batch.
    fn add_objects(&self, objects: &[MultiVector]) -> Result<MutationReport, RetrievalError> {
        let _ = objects;
        Err(RetrievalError::MutationUnsupported {
            framework: self.kind(),
        })
    }

    /// Tombstones a batch of objects in the live index; dead objects never
    /// surface in results again. The default refuses, like
    /// [`RetrievalFramework::add_objects`].
    ///
    /// # Errors
    /// [`RetrievalError::MutationUnsupported`] by default;
    /// [`RetrievalError::Mutation`] when the index rejects the batch.
    fn remove_objects(&self, ids: &[VecId]) -> Result<MutationReport, RetrievalError> {
        let _ = ids;
        Err(RetrievalError::MutationUnsupported {
            framework: self.kind(),
        })
    }

    /// Status-panel description (index type, weights, modality count).
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(FrameworkKind::Must.name(), "MUST");
        assert_eq!(FrameworkKind::Mr.name(), "MR");
        assert_eq!(FrameworkKind::Je.name(), "JE");
        assert_eq!(FrameworkKind::default(), FrameworkKind::Must);
    }

    #[test]
    fn serde_round_trip() {
        for k in [FrameworkKind::Must, FrameworkKind::Mr, FrameworkKind::Je] {
            let j = serde_json::to_string(&k).unwrap();
            assert_eq!(serde_json::from_str::<FrameworkKind>(&j).unwrap(), k);
        }
    }
}
