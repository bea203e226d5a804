//! # mqa-encoders
//!
//! Embedding encoders for multi-modal content, with the *universal vector
//! support* the MQA configuration panel exposes: any encoder that turns raw
//! content into a fixed-dimension `f32` vector can be plugged into the
//! Vector Representation component.
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! The paper wires real pretrained models (CLIP, ResNet, LSTM) through this
//! interface. In this reproduction the encoders are **deterministic
//! synthetic models** built on feature hashing and seeded random
//! projections. They preserve the two geometric properties the downstream
//! techniques rely on:
//!
//! 1. *Semantic locality* — content about the same latent concept encodes to
//!    nearby vectors (token overlap for text, shared raw features for
//!    images);
//! 2. *Cross-modal alignment* (the CLIP pair) — text and image encoders can
//!    share a projection target so that matching captions and pictures land
//!    close in a common space.
//!
//! ## Encoders
//!
//! | name | stands in for | input | mechanism |
//! |---|---|---|---|
//! | [`HashingTextEncoder`] | bag-of-words text models | text | hashed 1–2-grams → random projection |
//! | [`LstmTextEncoder`] | LSTM sentence encoders | text | token-chained state updates (order-sensitive) |
//! | [`VisualEncoder`] | ResNet | image | dense random projection + tanh of raw descriptors |
//! | [`ClipPair`] | CLIP | text+image | aligned text/image projections into one space |
//!
//! All encoders are pure functions of `(seed, input)` — two processes with
//! the same configuration produce bit-identical embeddings, which keeps the
//! experiment harness reproducible.

pub mod clip;
pub mod image;
pub mod project;
pub mod registry;
pub mod text;
pub mod traits;

pub use clip::ClipPair;
pub use image::{ImageData, VisualEncoder};
pub use project::ProjectionMatrix;
pub use registry::{EncoderChoice, EncoderRegistry};
pub use text::{HashingTextEncoder, LstmTextEncoder};
pub use traits::{Encoder, RawContent};
