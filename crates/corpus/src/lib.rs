//! Corpus substrate for the SaberLDA reproduction.
//!
//! LDA training consumes a *token list* `L`: every occurrence of word `v` in
//! document `d` is one token `(d, v, k)` carrying a topic assignment `k`
//! (§2.1 of the paper). This crate provides:
//!
//! * the in-memory corpus representation ([`Corpus`], [`Document`],
//!   [`Vocabulary`]);
//! * a parser for the UCI "bag of words" format ([`uci`]) used by the paper's
//!   NYTimes and PubMed datasets;
//! * synthetic corpus generators ([`synthetic`]) that reproduce the statistical
//!   shape of the paper's datasets — Zipf-distributed word frequencies and an
//!   LDA generative model with planted topics — at configurable scale;
//! * dataset presets matching Table 3 of the paper ([`presets`]);
//! * train / held-out splitting ([`split`]) for the partially-observed-document
//!   likelihood evaluation, and corpus statistics ([`stats`]).
//!
//! # Examples
//!
//! ```
//! use saber_corpus::{synthetic::SyntheticSpec, stats::CorpusStats};
//!
//! let corpus = SyntheticSpec::small_test().generate(42);
//! let stats = CorpusStats::of(&corpus);
//! assert!(stats.n_tokens > 0);
//! assert_eq!(stats.n_docs, corpus.n_docs());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod corpus;
mod error;
pub mod presets;
pub mod split;
pub mod stats;
pub mod synthetic;
pub mod uci;
mod vocab;

pub use corpus::{Corpus, Document};
pub use error::CorpusError;
pub use vocab::{EncodedDocument, OovPolicy, Vocabulary};

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CorpusError>;
