//! The knowledge base: schema + object collection + ingestion.

use crate::object::{ObjectId, ObjectRecord};
use crate::schema::ContentSchema;
use mqa_encoders::RawContent;
use mqa_vector::ModalityKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A named multi-modal object collection with a fixed content schema.
///
/// This is the paper's Data Preprocessing target: "data is stored as an
/// object collection with unique IDs for indexing". Ids are dense and equal
/// to the ids the vector stores and graph indexes use downstream.
///
/// Records are immutable once ingested and shared: cloning the base (as
/// every online insert does, to draft the next generation) copies one
/// pointer per record, not the record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeBase {
    name: String,
    schema: ContentSchema,
    records: Vec<Arc<ObjectRecord>>,
}

/// Ingestion failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The record's content slots don't match the schema arity.
    ArityMismatch {
        /// Slots supplied.
        got: usize,
        /// Slots required by the schema.
        want: usize,
    },
    /// A content slot holds the wrong modality kind.
    KindMismatch {
        /// Field index.
        field: usize,
        /// Kind found in the record.
        got: ModalityKind,
        /// Kind the schema requires.
        want: ModalityKind,
    },
    /// An image descriptor has the wrong raw length.
    BadImageDescriptor {
        /// Field index.
        field: usize,
        /// Length found.
        got: usize,
        /// Length required.
        want: usize,
    },
    /// The record has no present modality at all.
    EmptyRecord,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::ArityMismatch { got, want } => {
                write!(f, "record has {got} content slots, schema requires {want}")
            }
            IngestError::KindMismatch { field, got, want } => write!(
                f,
                "field {field} holds {} content but the schema requires {}",
                got.name(),
                want.name()
            ),
            IngestError::BadImageDescriptor { field, got, want } => write!(
                f,
                "field {field} descriptor length {got} does not match schema raw dim {want}"
            ),
            IngestError::EmptyRecord => write!(f, "record has no present modality"),
        }
    }
}

impl std::error::Error for IngestError {}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new(name: impl Into<String>, schema: ContentSchema) -> Self {
        Self {
            name: name.into(),
            schema,
            records: Vec::new(),
        }
    }

    /// Knowledge base name (shown in the configuration panel).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content schema.
    pub fn schema(&self) -> &ContentSchema {
        &self.schema
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the base holds no objects.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Validates and ingests a record, returning its assigned id.
    ///
    /// # Errors
    /// Returns an [`IngestError`] describing the first schema violation.
    pub fn ingest(&mut self, record: ObjectRecord) -> Result<ObjectId, IngestError> {
        if record.contents.len() != self.schema.arity() {
            return Err(IngestError::ArityMismatch {
                got: record.contents.len(),
                want: self.schema.arity(),
            });
        }
        if record.present_count() == 0 {
            return Err(IngestError::EmptyRecord);
        }
        for (i, (slot, field)) in record.contents.iter().zip(self.schema.fields()).enumerate() {
            let Some(content) = slot else { continue };
            // Audio is accepted where text is expected (transcripts), and
            // image descriptors satisfy video fields (frame features) —
            // mirroring how the real system feeds transcoded content to
            // whatever encoder the field is configured with.
            let compatible = match (content.kind(), field.kind) {
                (a, b) if a == b => true,
                (ModalityKind::Audio, ModalityKind::Text) => true,
                (ModalityKind::Image, ModalityKind::Video) => true,
                _ => false,
            };
            if !compatible {
                return Err(IngestError::KindMismatch {
                    field: i,
                    got: content.kind(),
                    want: field.kind,
                });
            }
            if let RawContent::Image(img) = content {
                if img.raw_dim() != self.schema.raw_image_dim() {
                    return Err(IngestError::BadImageDescriptor {
                        field: i,
                        got: img.raw_dim(),
                        want: self.schema.raw_image_dim(),
                    });
                }
            }
        }
        let id = self.records.len() as ObjectId;
        self.records.push(Arc::new(record));
        Ok(id)
    }

    /// Ingests a batch of records, rolling back nothing: records before the
    /// first invalid one are kept (matching incremental frontend uploads),
    /// and the error reports the failing position.
    ///
    /// # Errors
    /// Returns `(index, error)` of the first rejected record.
    pub fn ingest_all<I>(&mut self, records: I) -> Result<Vec<ObjectId>, (usize, IngestError)>
    where
        I: IntoIterator<Item = ObjectRecord>,
    {
        let mut ids = Vec::new();
        for (i, r) in records.into_iter().enumerate() {
            match self.ingest(r) {
                Ok(id) => ids.push(id),
                Err(e) => return Err((i, e)),
            }
        }
        Ok(ids)
    }

    /// The record with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ObjectId) -> &ObjectRecord {
        &self.records[id as usize]
    }

    /// The record with id `id`, if it exists.
    pub fn try_get(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.records.get(id as usize).map(|r| &**r)
    }

    /// Iterator over `(id, record)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectRecord)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (i as ObjectId, &**r))
    }

    /// Serializes the whole base to JSON (export path of the configuration
    /// panel).
    pub fn to_json(&self) -> String {
        // The in-tree serializer writes to a String and cannot fail.
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Loads a base from JSON produced by [`KnowledgeBase::to_json`].
    ///
    /// # Errors
    /// Returns the underlying serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_encoders::ImageData;

    fn base() -> KnowledgeBase {
        KnowledgeBase::new("test", ContentSchema::caption_image(4))
    }

    fn ok_record() -> ObjectRecord {
        ObjectRecord::new(
            "obj",
            vec![
                Some(RawContent::text("a caption")),
                Some(RawContent::Image(ImageData::new(vec![0.0; 4]))),
            ],
        )
    }

    #[test]
    fn ingest_assigns_dense_ids() {
        let mut kb = base();
        assert_eq!(kb.ingest(ok_record()).unwrap(), 0);
        assert_eq!(kb.ingest(ok_record()).unwrap(), 1);
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.get(1).title, "obj");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut kb = base();
        let r = ObjectRecord::new("x", vec![Some(RawContent::text("only text"))]);
        assert_eq!(
            kb.ingest(r).unwrap_err(),
            IngestError::ArityMismatch { got: 1, want: 2 }
        );
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut kb = base();
        let r = ObjectRecord::new(
            "x",
            vec![
                Some(RawContent::Image(ImageData::new(vec![0.0; 4]))),
                Some(RawContent::Image(ImageData::new(vec![0.0; 4]))),
            ],
        );
        assert!(matches!(
            kb.ingest(r).unwrap_err(),
            IngestError::KindMismatch { field: 0, .. }
        ));
    }

    #[test]
    fn audio_accepted_as_text() {
        let mut kb = base();
        let r = ObjectRecord::new(
            "spoken",
            vec![Some(RawContent::Audio("voice query".into())), None],
        );
        assert!(kb.ingest(r).is_ok());
    }

    #[test]
    fn bad_descriptor_rejected() {
        let mut kb = base();
        let r = ObjectRecord::new(
            "x",
            vec![
                Some(RawContent::text("caption")),
                Some(RawContent::Image(ImageData::new(vec![0.0; 7]))),
            ],
        );
        assert!(matches!(
            kb.ingest(r).unwrap_err(),
            IngestError::BadImageDescriptor {
                got: 7,
                want: 4,
                ..
            }
        ));
    }

    #[test]
    fn empty_record_rejected() {
        let mut kb = base();
        let r = ObjectRecord::new("x", vec![None, None]);
        assert_eq!(kb.ingest(r).unwrap_err(), IngestError::EmptyRecord);
    }

    #[test]
    fn partial_record_accepted() {
        let mut kb = base();
        let r = ObjectRecord::new("x", vec![Some(RawContent::text("caption only")), None]);
        assert!(kb.ingest(r).is_ok());
    }

    #[test]
    fn ingest_all_reports_failing_index() {
        let mut kb = base();
        let records = vec![
            ok_record(),
            ok_record(),
            ObjectRecord::new("bad", vec![None, None]),
            ok_record(),
        ];
        let (idx, err) = kb.ingest_all(records).unwrap_err();
        assert_eq!(idx, 2);
        assert_eq!(err, IngestError::EmptyRecord);
        // records before the failure were kept
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn ingest_all_success_returns_dense_ids() {
        let mut kb = base();
        let ids = kb
            .ingest_all(vec![ok_record(), ok_record(), ok_record()])
            .unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn json_round_trip() {
        let mut kb = base();
        kb.ingest(ok_record()).unwrap();
        let back = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert_eq!(kb, back);
    }

    /// A clone shares the records, and the JSON is the records' own.
    #[test]
    fn clones_share_records_and_json_is_unchanged() {
        let mut kb = base();
        kb.ingest(ok_record()).unwrap();
        let copy = kb.clone();
        assert!(Arc::ptr_eq(&kb.records[0], &copy.records[0]));
        let plain = serde_json::to_string(&*kb.records[0]).unwrap();
        assert!(kb.to_json().contains(&format!(r#""records":[{plain}]"#)));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(KnowledgeBase::from_json("not json").is_err());
    }

    #[test]
    fn try_get_out_of_range() {
        let kb = base();
        assert!(kb.try_get(0).is_none());
    }
}
