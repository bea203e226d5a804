//! The binding between a knowledge base's content schema and the vector
//! schema induced by the configured encoders (the paper's Vector
//! Representation component does exactly this mapping).

use crate::query::MultiModalQuery;
use mqa_encoders::{Encoder, EncoderChoice, EncoderRegistry};
use mqa_kb::{ContentSchema, KnowledgeBase, ObjectRecord};
use mqa_vector::{Modality, MultiVector, MultiVectorStore, Schema};
use std::sync::Arc;

/// One encoder per content field, plus the induced vector [`Schema`].
/// Cloning shares the encoder instances (they are `Arc`ed and stateless),
/// so a clone encodes identically to the original.
#[derive(Clone)]
pub struct EncoderSet {
    encoders: Vec<Arc<dyn Encoder>>,
    content_schema: ContentSchema,
    vector_schema: Schema,
    choices: Vec<EncoderChoice>,
}

impl EncoderSet {
    /// Instantiates encoders for every field of `schema` from the given
    /// configuration choices.
    ///
    /// # Panics
    /// Panics if the choice count mismatches the schema arity, or a choice's
    /// modality kind is incompatible with its field.
    pub fn build(
        registry: &EncoderRegistry,
        schema: &ContentSchema,
        choices: &[EncoderChoice],
    ) -> Self {
        assert_eq!(
            choices.len(),
            schema.arity(),
            "one encoder choice per schema field required"
        );
        let mut encoders = Vec::with_capacity(choices.len());
        let mut modalities = Vec::with_capacity(choices.len());
        for (field, choice) in schema.fields().iter().zip(choices) {
            let compatible = match (choice.kind(), field.kind) {
                (a, b) if a == b => true,
                // Text encoders accept audio transcripts; visual encoders
                // accept video frame descriptors.
                (mqa_vector::ModalityKind::Text, mqa_vector::ModalityKind::Audio) => true,
                (mqa_vector::ModalityKind::Image, mqa_vector::ModalityKind::Video) => true,
                _ => false,
            };
            assert!(
                compatible,
                "encoder {} cannot embed field `{}` ({})",
                choice.display_name(),
                field.name,
                field.kind.name()
            );
            encoders.push(registry.instantiate(choice));
            modalities.push(Modality {
                name: field.name.clone(),
                kind: field.kind,
                dim: choice.dim(),
            });
        }
        Self {
            encoders,
            content_schema: schema.clone(),
            vector_schema: Schema::new(modalities),
            choices: choices.to_vec(),
        }
    }

    /// A sensible default: hashing text encoders for text/audio fields and
    /// visual encoders (matching the base's raw descriptor length) for
    /// image/video fields, all at dimensionality `dim`.
    pub fn default_for(registry: &EncoderRegistry, schema: &ContentSchema, dim: usize) -> Self {
        let choices: Vec<EncoderChoice> = schema
            .fields()
            .iter()
            .map(|f| match f.kind {
                mqa_vector::ModalityKind::Text | mqa_vector::ModalityKind::Audio => {
                    EncoderChoice::HashingText { dim }
                }
                mqa_vector::ModalityKind::Image | mqa_vector::ModalityKind::Video => {
                    EncoderChoice::VisualResnet {
                        raw_dim: schema.raw_image_dim(),
                        dim,
                    }
                }
            })
            .collect();
        Self::build(registry, schema, &choices)
    }

    /// The induced vector schema.
    pub fn vector_schema(&self) -> &Schema {
        &self.vector_schema
    }

    /// The content schema being encoded.
    pub fn content_schema(&self) -> &ContentSchema {
        &self.content_schema
    }

    /// The configured choices (status-panel display).
    pub fn choices(&self) -> &[EncoderChoice] {
        &self.choices
    }

    /// Encodes one object record into its multi-vector.
    pub fn encode_record(&self, record: &ObjectRecord) -> MultiVector {
        let parts = record
            .contents
            .iter()
            .zip(&self.encoders)
            .map(|(content, enc)| content.as_ref().map(|c| enc.encode(c)))
            .collect();
        MultiVector::partial(&self.vector_schema, parts)
    }

    /// Encodes a user query into a (possibly partial) multi-vector.
    pub fn encode_query(&self, query: &MultiModalQuery) -> MultiVector {
        let contents = query.to_contents(&self.content_schema);
        let parts = contents
            .iter()
            .zip(&self.encoders)
            .map(|(content, enc)| content.as_ref().map(|c| enc.encode(c)))
            // ALLOC: per-query encoded-legs list, one entry per modality.
            .collect();
        MultiVector::partial(&self.vector_schema, parts)
    }
}

/// A fully encoded corpus: the knowledge base plus its multi-vector store
/// and encoder set. Shared (via `Arc`) by every framework in a comparison
/// so encoding happens once.
pub struct EncodedCorpus {
    kb: KnowledgeBase,
    store: MultiVectorStore,
    encoders: EncoderSet,
}

impl EncodedCorpus {
    /// Encodes every object of `kb` with `encoders`.
    ///
    /// # Panics
    /// Panics if the base is empty.
    pub fn encode(kb: KnowledgeBase, encoders: EncoderSet) -> Self {
        assert!(!kb.is_empty(), "cannot encode an empty knowledge base");
        let mut store = MultiVectorStore::new(encoders.vector_schema().clone());
        for (_, record) in kb.iter() {
            store.push(&encoders.encode_record(record));
        }
        Self {
            kb,
            store,
            encoders,
        }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The encoded multi-vector store (ids match knowledge-base ids).
    pub fn store(&self) -> &MultiVectorStore {
        &self.store
    }

    /// The encoder set.
    pub fn encoders(&self) -> &EncoderSet {
        &self.encoders
    }

    /// Ground-truth concept labels, for weight learning on generated
    /// corpora. `None` if any object is unlabelled.
    pub fn concept_labels(&self) -> Option<Vec<u32>> {
        self.kb.iter().map(|(_, r)| r.concept).collect()
    }

    /// A new corpus extending this one with `records`, validated and
    /// encoded through the same encoder set — the re-encoding path online
    /// object insertion rides: ids of existing objects are unchanged and
    /// the new records take the next dense ids, matching what the live
    /// index assigns.
    ///
    /// # Errors
    /// Returns `(index, error)` of the first record the knowledge base
    /// rejects; nothing of this corpus is modified either way.
    pub fn with_records(
        &self,
        records: &[ObjectRecord],
    ) -> Result<Self, (usize, mqa_kb::IngestError)> {
        let mut kb = self.kb.clone();
        kb.ingest_all(records.iter().cloned())?;
        let mut store = self.store.clone();
        for record in records {
            store.push(&self.encoders.encode_record(record));
        }
        Ok(Self {
            kb,
            store,
            encoders: self.encoders.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqa_kb::DatasetSpec;

    fn corpus() -> EncodedCorpus {
        let kb = DatasetSpec::weather()
            .objects(30)
            .concepts(5)
            .seed(1)
            .generate();
        let registry = EncoderRegistry::new(7);
        let encoders = EncoderSet::default_for(&registry, &kb.schema().clone(), 32);
        EncodedCorpus::encode(kb, encoders)
    }

    #[test]
    fn corpus_encodes_every_object() {
        let c = corpus();
        assert_eq!(c.store().len(), c.kb().len());
        assert_eq!(c.store().schema().arity(), 2);
        assert_eq!(c.store().schema().total_dim(), 64);
    }

    #[test]
    fn labels_present_for_generated_corpora() {
        let c = corpus();
        let labels = c.concept_labels().expect("generated corpus is labelled");
        assert_eq!(labels.len(), 30);
    }

    #[test]
    fn query_encoding_matches_record_encoding() {
        // A text query identical to an object's caption must encode to the
        // same text vector.
        let c = corpus();
        let (id, record) = c.kb().iter().next().unwrap();
        let caption = match record.content(0).unwrap() {
            mqa_encoders::RawContent::Text(t) => t.clone(),
            _ => panic!("caption expected"),
        };
        let q = MultiModalQuery::text(caption);
        let qv = c.encoders().encode_query(&q);
        assert_eq!(qv.part(0).unwrap(), c.store().part_of(id, 0).unwrap());
        assert!(qv.part(1).is_none());
    }

    #[test]
    fn movies_default_encoders_cover_three_fields() {
        let kb = DatasetSpec::movies()
            .objects(10)
            .concepts(3)
            .seed(2)
            .generate();
        let registry = EncoderRegistry::new(1);
        let encoders = EncoderSet::default_for(&registry, &kb.schema().clone(), 16);
        assert_eq!(encoders.vector_schema().arity(), 3);
        let c = EncodedCorpus::encode(kb, encoders);
        assert_eq!(c.store().schema().total_dim(), 48);
    }

    #[test]
    fn with_records_extends_without_touching_existing_ids() {
        let c = corpus();
        let record = c.kb().get(4).clone();
        let grown = c.with_records(std::slice::from_ref(&record)).unwrap();
        assert_eq!(grown.kb().len(), 31);
        assert_eq!(grown.store().len(), 31);
        // Existing ids unchanged; the new record encodes like its twin.
        assert_eq!(grown.store().concat_of(4), c.store().concat_of(4));
        assert_eq!(grown.store().concat_of(30), c.store().concat_of(4));
        // The new row, read back for the index, is the record's encoding
        // bit for bit — online insertion never encodes a second time.
        assert_eq!(
            grown.store().multivector_of(30),
            c.encoders().encode_record(&record)
        );
        // The source corpus is untouched.
        assert_eq!(c.kb().len(), 30);
        // A schema-violating record is rejected with its position.
        let bad = ObjectRecord::new("bad".to_string(), vec![None, None]);
        let err = match c.with_records(&[record, bad]) {
            Err(e) => e,
            Ok(_) => panic!("empty record must be rejected"),
        };
        assert_eq!(err.0, 1);
    }

    #[test]
    #[should_panic(expected = "cannot embed field")]
    fn incompatible_choice_panics() {
        let registry = EncoderRegistry::new(1);
        let schema = ContentSchema::caption_image(8);
        EncoderSet::build(
            &registry,
            &schema,
            &[
                EncoderChoice::VisualResnet { raw_dim: 8, dim: 8 },
                EncoderChoice::VisualResnet { raw_dim: 8, dim: 8 },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "empty knowledge base")]
    fn empty_base_panics() {
        let kb = KnowledgeBase::new("empty", ContentSchema::caption_image(8));
        let registry = EncoderRegistry::new(1);
        let schema = kb.schema().clone();
        let encoders = EncoderSet::default_for(&registry, &schema, 8);
        EncodedCorpus::encode(kb, encoders);
    }
}
