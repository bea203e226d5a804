//! The five backend components of Figure 2.
//!
//! Each component is an independently testable unit; the coordinator calls
//! the build-time ones in order (preprocessing → representation →
//! indexing), passing each one's output to the next and its error to the
//! caller unchanged, and drives the query-time ones (execution →
//! answering) per dialogue turn.

pub mod answer;
pub mod execute;
pub mod index;
pub mod preprocess;
pub mod represent;

pub use answer::AnswerGenerator;
pub use execute::QueryExecutor;
pub use index::BuiltFramework;
pub use preprocess::Preprocessed;
pub use represent::Represented;
