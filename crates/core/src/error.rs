//! System-level error type.

use std::fmt;

/// Everything the coordinator can report to the frontend's feedback
/// pop-up (bottom-right of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqaError {
    /// The selected knowledge base holds no objects.
    EmptyKnowledgeBase,
    /// Configuration rejected (message explains which knob).
    InvalidConfig(String),
    /// A dialogue turn carried no content at all.
    EmptyTurn,
    /// A turn selected a result index that the previous reply didn't have.
    BadSelection {
        /// The requested index.
        index: usize,
        /// How many results the previous reply offered.
        available: usize,
    },
    /// A turn tried to select a result before any search ran.
    NothingToSelect,
    /// An online index mutation (add/remove objects) was rejected — by
    /// the knowledge base (schema violation), the framework (no mutation
    /// support), or the index (bad batch shape).
    Mutation(String),
    /// The engine shed the turn's query under load: the typed admission /
    /// deadline outcome ([`mqa_engine::TicketError`]) names why.
    Shed(mqa_engine::TicketError),
}

impl fmt::Display for MqaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqaError::EmptyKnowledgeBase => write!(f, "the knowledge base holds no objects"),
            MqaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MqaError::EmptyTurn => {
                write!(
                    f,
                    "the turn carries neither text, nor an image, nor a selection"
                )
            }
            MqaError::BadSelection { index, available } => write!(
                f,
                "selection index {index} out of range: the previous reply had {available} results"
            ),
            MqaError::NothingToSelect => {
                write!(f, "cannot select a result before the first search")
            }
            MqaError::Mutation(msg) => write!(f, "index mutation rejected: {msg}"),
            MqaError::Shed(err) => write!(f, "query shed under load: {err}"),
        }
    }
}

impl std::error::Error for MqaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(MqaError::EmptyKnowledgeBase
            .to_string()
            .contains("no objects"));
        assert!(MqaError::BadSelection {
            index: 7,
            available: 3
        }
        .to_string()
        .contains("7"));
        assert!(MqaError::InvalidConfig("k = 0".into())
            .to_string()
            .contains("k = 0"));
        assert!(MqaError::Shed(mqa_engine::TicketError::Expired)
            .to_string()
            .contains("deadline"));
    }
}
