//! Index Construction: builds the configured retrieval framework (and
//! thereby its navigation graph(s)) over the encoded corpus.

use crate::components::represent::Represented;
use crate::config::Config;
use crate::error::MqaError;
use mqa_retrieval::{FrameworkKind, JeFramework, MrFramework, MustFramework, RetrievalFramework};
use std::sync::Arc;

/// The ready-to-query framework.
pub struct BuiltFramework {
    /// The framework behind the panel's retrieval selection.
    pub framework: Arc<dyn RetrievalFramework>,
    /// Panel description (index type, weights, modality count).
    pub description: String,
}

/// Runs the component.
///
/// # Errors
/// Currently infallible beyond configuration validation (done by the
/// coordinator before any component runs); the `Result` keeps the stage
/// signature uniform for future index persistence errors.
pub fn run(rep: &Represented, config: &Config) -> Result<BuiltFramework, MqaError> {
    let framework: Arc<dyn RetrievalFramework> = match config.framework {
        FrameworkKind::Must => Arc::new(MustFramework::build(
            Arc::clone(&rep.corpus),
            rep.weights.clone(),
            config.metric,
            &config.index,
        )),
        FrameworkKind::Mr => Arc::new(MrFramework::build(
            Arc::clone(&rep.corpus),
            config.metric,
            &config.index,
        )),
        FrameworkKind::Je => Arc::new(JeFramework::build(
            Arc::clone(&rep.corpus),
            config.metric,
            &config.index,
        )),
    };
    let description = framework.describe();
    Ok(BuiltFramework {
        framework,
        description,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{preprocess, represent};
    use mqa_kb::DatasetSpec;

    fn rep() -> Represented {
        let kb = DatasetSpec::weather()
            .objects(60)
            .concepts(6)
            .seed(1)
            .generate();
        let pre = preprocess::run(kb).unwrap();
        represent::run(&pre, &Config::default()).unwrap()
    }

    #[test]
    fn builds_each_framework_kind() {
        let rep = rep();
        for kind in [FrameworkKind::Must, FrameworkKind::Mr, FrameworkKind::Je] {
            let cfg = Config {
                framework: kind,
                ..Config::default()
            };
            let built = run(&rep, &cfg).unwrap();
            assert_eq!(built.framework.kind(), kind);
            assert!(!built.description.is_empty());
        }
    }
}
