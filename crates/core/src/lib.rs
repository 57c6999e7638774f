//! SaberLDA core: sparsity-aware LDA training on a simulated GPU.
//!
//! This crate implements the primary contribution of *SaberLDA: Sparsity-Aware
//! Learning of Topic Models on GPUs* (Li et al., ASPLOS 2017):
//!
//! * the **ESCA** expectation/maximisation sampler with the sparsity-aware
//!   decomposition of Alg. 2 — per-token cost `O(K_d)` instead of `O(K)`
//!   ([`sampling`]);
//! * the **PDOW** data layout — partition the token list by document into
//!   streamable chunks, order each chunk by word ([`layout`]);
//! * the **warp-based sampling kernel** of Fig. 5, executed against the GPU
//!   model in `saber-gpu-sim` ([`kernel`]);
//! * the **W-ary sampling tree** of Fig. 6/7, plus the alias-table and
//!   Fenwick-tree alternatives it is compared against ([`trees`]);
//! * the **shuffle-and-segmented-count** rebuild of the sparse document–topic
//!   matrix ([`count`]);
//! * the **streaming trainer** that ties the above together with multi-worker
//!   transfer/compute overlap ([`trainer`]), per-phase time accounting
//!   ([`report`]), held-out likelihood evaluation ([`eval`]), shared fold-in
//!   inference for unseen documents ([`infer`]) and the memory estimator
//!   behind Tables 1 and 2 ([`memory`]);
//! * a small dependency-free **JSON codec** ([`json`]) backing the
//!   `saber-serve` HTTP wire protocol (the build has no crates.io access).
//!
//! # Quick start
//!
//! ```
//! use saber_core::{SaberLda, SaberLdaConfig};
//! use saber_corpus::synthetic::SyntheticSpec;
//!
//! let corpus = SyntheticSpec::small_test().generate(1);
//! let config = SaberLdaConfig::builder()
//!     .n_topics(8)
//!     .n_iterations(5)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let mut lda = SaberLda::new(config, &corpus).unwrap();
//! let report = lda.train();
//! assert_eq!(report.iterations.len(), 5);
//! let model = lda.model();
//! assert_eq!(model.n_topics(), 8);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Determinism (bit-identical replay) is `clippy.toml`'s disallowed types and
// methods. Every suppression is an `#[expect(lint, reason = "..")]`, which
// fails the build once it suppresses nothing.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod config;
pub mod count;
pub mod eval;
pub mod infer;
pub mod json;
pub mod kernel;
pub mod layout;
pub mod memory;
pub mod model;
pub mod model_io;
pub mod report;
pub mod sampling;
pub mod trainer;
pub mod traits;
pub mod trees;

pub use config::{CountRebuild, OptLevel, PreprocessKind, SaberLdaConfig, TokenOrder};
pub use eval::HeldOutEvaluator;
pub use model::LdaModel;
pub use report::{IterationStats, PhaseTimes, PhaseWall, TrainingReport};
pub use trainer::SaberLda;
pub use traits::{IterationOutcome, LdaTrainer};

/// Errors produced by the SaberLDA core.
#[derive(Debug)]
pub enum SaberError {
    /// The configuration is inconsistent or out of supported range.
    InvalidConfig {
        /// Human readable description.
        detail: String,
    },
    /// The corpus cannot be trained on (e.g. empty).
    InvalidCorpus {
        /// Human readable description.
        detail: String,
    },
    /// Propagated corpus error.
    Corpus(saber_corpus::CorpusError),
    /// Propagated sparse-matrix error.
    Sparse(saber_sparse::SparseError),
    /// Model (de)serialisation failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SaberError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaberError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            SaberError::InvalidCorpus { detail } => write!(f, "invalid corpus: {detail}"),
            SaberError::Corpus(e) => write!(f, "corpus error: {e}"),
            SaberError::Sparse(e) => write!(f, "sparse matrix error: {e}"),
            SaberError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SaberError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SaberError::Corpus(e) => Some(e),
            SaberError::Sparse(e) => Some(e),
            SaberError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<saber_corpus::CorpusError> for SaberError {
    fn from(e: saber_corpus::CorpusError) -> Self {
        SaberError::Corpus(e)
    }
}

impl From<saber_sparse::SparseError> for SaberError {
    fn from(e: saber_sparse::SparseError) -> Self {
        SaberError::Sparse(e)
    }
}

impl From<std::io::Error> for SaberError {
    fn from(e: std::io::Error) -> Self {
        SaberError::Io(e)
    }
}

/// Runs `side` on a scoped thread named `name` while `main` runs on the
/// caller's thread, and returns both results. A panic on the side thread is
/// re-raised on the caller's.
pub(crate) fn beside<S: Send, M>(
    name: &str,
    side: impl FnOnce() -> S + Send,
    main: impl FnOnce() -> M,
) -> (S, M) {
    std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn_scoped(scope, side)
            .unwrap_or_else(|e| panic!("failed to spawn the {name} thread: {e}"));
        let main = main();
        let side = handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (side, main)
    })
}

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SaberError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = SaberError::InvalidConfig {
            detail: "zero topics".into(),
        };
        assert!(e.to_string().contains("zero topics"));
        assert!(e.source().is_none());
        let e: SaberError = std::io::Error::other("x").into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SaberError>();
    }
}
