//! Quickstart: build an MQA system over a generated fashion corpus, ask one
//! multi-modal question, and inspect the five-component pipeline of the
//! paper's Figure 2 through the status panel.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use mqa::prelude::*;

fn main() {
    // 1. Data: a synthetic fashion knowledge base (captions + image
    //    descriptors drawn from latent concepts — see DESIGN.md §2).
    let kb = DatasetSpec::fashion()
        .objects(2_000)
        .concepts(60)
        .seed(7)
        .generate();
    println!(
        "knowledge base: {} objects, {} modalities\n",
        kb.len(),
        kb.schema().arity()
    );

    // 2. Build: Data Preprocessing → Vector Representation (with weight
    //    learning) → Index Construction run in that order inside.
    let config = Config::default();
    println!("{}", mqa::core::panels::render_config_panel(&config));
    let system = MqaSystem::build(config, kb).expect("system builds");

    // 3. The status-monitoring panel shows what each component did.
    println!("{}", system.status().render());

    // 4. Ask: one-shot text query through Query Execution + Answer
    //    Generation.
    let reply = system
        .ask_once(Turn::text(
            "a long-sleeved floral cotton top for older women",
        ))
        .expect("query succeeds");
    println!(
        "{}",
        mqa::core::panels::render_qa_exchange(
            "a long-sleeved floral cotton top for older women",
            &reply
        )
    );

    // 5. Refine in a session: click the best result, ask for more like it.
    let mut session = system.open_session();
    session
        .ask(Turn::text("floral cotton top"))
        .expect("round 1");
    let refined = session
        .ask(Turn::select_and_text(
            0,
            "more floral cotton tops like this one",
        ))
        .expect("round 2");
    println!(
        "{}",
        mqa::core::panels::render_qa_exchange("more floral cotton tops like this one", &refined)
    );
}
