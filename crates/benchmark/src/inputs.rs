//! Seeded inputs: everything the program under test sees is generated
//! here. The corpus is fixed per workload (so set-up time and graph shape
//! repeat across seeds); `--seed` draws the dialogue scripts, the query
//! sets, the donor records and the removal order.

use mqa_encoders::{ImageData, RawContent};
use mqa_kb::{
    DatasetInfo, DatasetSpec, GroundTruth, KnowledgeBase, ObjectId, ObjectRecord, WorkloadSpec,
};
use mqa_retrieval::MultiModalQuery;
use mqa_rng::StdRng;

/// Seed of every workload's corpus (never derived from `--seed`).
pub const CORPUS_SEED: u64 = 2024;
/// Records per `add_objects` batch.
pub const ADD_BATCH: usize = 32;
/// Ids per `remove_objects` batch.
pub const REMOVE_BATCH: usize = 16;

/// The weather corpus of the paper's Figure 5 profile at `objects`
/// objects: noisy captions, clean images, four visually separable styles.
pub fn corpus_spec(objects: usize, concepts: usize) -> DatasetSpec {
    DatasetSpec::weather()
        .objects(objects)
        .concepts(concepts)
        .styles(4)
        .caption_noise(0.35)
        .image_noise(0.15)
        .seed(CORPUS_SEED)
}

/// One scripted three-turn dialogue (Figure 4a; `image` set makes the
/// opening turn image-assisted as in Figure 4b).
#[derive(Debug, Clone)]
pub struct Dialogue {
    /// Target concept.
    pub concept: u32,
    /// Opening request.
    pub round1: String,
    /// First refinement (sent with a click).
    pub round2: String,
    /// Second refinement (sent with a click).
    pub round3: String,
    /// Uploaded reference image of the opening turn, if any.
    pub image: Option<ImageData>,
}

/// How many of each input a workload needs.
#[derive(Debug, Clone, Copy)]
pub struct InputSizes {
    /// Corpus objects.
    pub objects: usize,
    /// Corpus concepts.
    pub concepts: usize,
    /// Scripted dialogues (timed every round).
    pub dialogues: usize,
    /// Further scripted dialogues run once, untimed, so that recall rests
    /// on enough turns to repeat across seeds.
    pub recall_dialogues: usize,
    /// Distinct text-and-image queries.
    pub mm_queries: usize,
    /// Donor batches of [`ADD_BATCH`] records.
    pub add_batches: usize,
    /// Removal batches of [`REMOVE_BATCH`] base ids.
    pub remove_batches: usize,
    /// Hot/cold draws over the text-and-image query set.
    pub skewed_draws: usize,
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// The corpus.
    pub kb: KnowledgeBase,
    /// Relevance ground truth of the corpus.
    pub gt: GroundTruth,
    /// Dialogue scripts of the timed rounds.
    pub dialogues: Vec<Dialogue>,
    /// Dialogue scripts that only feed recall.
    pub recall_dialogues: Vec<Dialogue>,
    /// The opening texts of `dialogues` as bare retrievals.
    pub text_queries: Vec<MultiModalQuery>,
    /// Text-and-image queries.
    pub mm_queries: Vec<MultiModalQuery>,
    /// Donor batches for `add_objects`.
    pub donors: Vec<Vec<ObjectRecord>>,
    /// Removal batches (distinct base ids).
    pub removals: Vec<Vec<ObjectId>>,
    /// Indices into `mm_queries`: 80 % from the hot first tenth.
    pub skewed: Vec<usize>,
}

/// The first image content of `record`.
fn image_of(record: &ObjectRecord) -> Option<ImageData> {
    record.contents.iter().find_map(|c| match c {
        Some(RawContent::Image(img)) => Some(img.clone()),
        _ => None,
    })
}

fn member_image(
    kb: &KnowledgeBase,
    gt: &GroundTruth,
    concept: u32,
    rng: &mut StdRng,
) -> Option<ImageData> {
    let members = gt.members(concept);
    let id = *rng.choose(members)?;
    image_of(kb.try_get(id)?)
}

impl Inputs {
    /// Generates the inputs of one run.
    ///
    /// # Errors
    /// A message when the requested sizes cannot be met (more removals
    /// than base objects, a corpus without images).
    pub fn from_seed(sizes: &InputSizes, seed: u64) -> Result<Self, String> {
        let (kb, info): (KnowledgeBase, DatasetInfo) =
            corpus_spec(sizes.objects, sizes.concepts).generate_with_info();
        let gt = GroundTruth::build(&kb);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d71_615f_6265_6e63);

        let scripted = sizes.dialogues.max(1) + sizes.recall_dialogues;
        let cases = WorkloadSpec::new(scripted, seed).generate(&info);
        let mut dialogues = Vec::with_capacity(cases.cases.len());
        for (i, case) in cases.cases.iter().enumerate() {
            let phrase = info
                .concepts
                .get(case.concept as usize)
                .map(mqa_kb::ConceptInfo::phrase)
                .ok_or("scripted concept outside the corpus vocabulary")?;
            let image = if i % 4 == 3 {
                member_image(&kb, &gt, case.concept, &mut rng)
            } else {
                None
            };
            dialogues.push(Dialogue {
                concept: case.concept,
                round1: case.round1_text.clone(),
                round2: case.round2_text.clone(),
                round3: format!("even more {phrase} like the one i picked"),
                image,
            });
        }

        let mm_cases =
            WorkloadSpec::new(sizes.mm_queries.max(1), seed.wrapping_add(1)).generate(&info);
        let mut mm_queries = Vec::with_capacity(mm_cases.cases.len());
        for case in &mm_cases.cases {
            let image = member_image(&kb, &gt, case.concept, &mut rng)
                .ok_or("corpus object without an image")?;
            mm_queries.push(MultiModalQuery::text_and_image(&case.round1_text, image));
        }

        // Donors come from the same generator under another seed: new
        // objects of the same schema that belong to no base concept.
        let donors = if sizes.add_batches == 0 {
            Vec::new()
        } else {
            let donor_kb = corpus_spec(sizes.add_batches * ADD_BATCH, sizes.concepts)
                .seed(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7))
                .generate();
            let records: Vec<ObjectRecord> = donor_kb.iter().map(|(_, r)| r.clone()).collect();
            records.chunks(ADD_BATCH).map(<[_]>::to_vec).collect()
        };

        let wanted = sizes.remove_batches * REMOVE_BATCH;
        if wanted > sizes.objects {
            return Err(format!(
                "{wanted} removals asked of a {}-object corpus",
                sizes.objects
            ));
        }
        let mut ids: Vec<ObjectId> = (0..sizes.objects as ObjectId).collect();
        rng.shuffle(&mut ids);
        ids.truncate(wanted);
        let removals = ids.chunks(REMOVE_BATCH).map(<[_]>::to_vec).collect();

        let hot = (mm_queries.len() / 10).max(1);
        let skewed = (0..sizes.skewed_draws)
            .map(|_| {
                if rng.gen_bool(0.8) || hot >= mm_queries.len() {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(hot..mm_queries.len())
                }
            })
            .collect();

        let recall_dialogues = dialogues.split_off(sizes.dialogues.max(1));
        let text_queries = dialogues
            .iter()
            .map(|d| MultiModalQuery::text(&d.round1))
            .collect();
        Ok(Self {
            kb,
            gt,
            dialogues,
            recall_dialogues,
            text_queries,
            mm_queries,
            donors,
            removals,
            skewed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> InputSizes {
        InputSizes {
            objects: 120,
            concepts: 10,
            dialogues: 8,
            recall_dialogues: 4,
            mm_queries: 20,
            add_batches: 2,
            remove_batches: 3,
            skewed_draws: 200,
        }
    }

    #[test]
    fn same_seed_same_inputs_and_the_corpus_ignores_the_seed() {
        let a = Inputs::from_seed(&sizes(), 5).unwrap();
        let b = Inputs::from_seed(&sizes(), 5).unwrap();
        let c = Inputs::from_seed(&sizes(), 6).unwrap();
        let texts = |i: &Inputs| {
            i.dialogues
                .iter()
                .map(|d| d.round1.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.removals, b.removals);
        assert_eq!(a.skewed, b.skewed);
        assert_ne!(a.removals, c.removals);
        assert_eq!(a.kb.to_json(), c.kb.to_json());
    }

    #[test]
    fn shapes_follow_the_sizes() {
        let i = Inputs::from_seed(&sizes(), 1).unwrap();
        assert_eq!((i.dialogues.len(), i.recall_dialogues.len()), (8, 4));
        assert_eq!(i.dialogues.iter().filter(|d| d.image.is_some()).count(), 2);
        assert_eq!(i.mm_queries.len(), 20);
        assert!(i.donors.iter().all(|b| b.len() == ADD_BATCH) && i.donors.len() == 2);
        assert!(i.removals.iter().all(|b| b.len() == REMOVE_BATCH) && i.removals.len() == 3);
        let mut flat: Vec<_> = i.removals.concat();
        flat.sort_unstable();
        flat.dedup();
        assert_eq!(flat.len(), 3 * REMOVE_BATCH, "removal ids are distinct");
        let hot = i.skewed.iter().filter(|&&q| q < 2).count();
        assert!(hot > 130, "hot tenth drew {hot} of 200");
    }

    #[test]
    fn too_many_removals_is_an_error() {
        let s = InputSizes {
            remove_batches: 100,
            ..sizes()
        };
        assert!(Inputs::from_seed(&s, 1).is_err());
    }
}
