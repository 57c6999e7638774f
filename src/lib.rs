//! # SaberLDA — a Rust reproduction
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! *SaberLDA: Sparsity-Aware Learning of Topic Models on GPUs* (Li, Chen,
//! Chen, Zhu — ASPLOS 2017). It re-exports the public API of the workspace
//! crates so downstream users need a single dependency:
//!
//! * [`corpus`] — corpora, synthetic dataset generators, the UCI
//!   bag-of-words reader, train/held-out splitting ([`saber_corpus`]);
//! * [`sparse`] — CSR/dense matrix substrate, prefix-sum search, radix sort
//!   ([`saber_sparse`]);
//! * [`gpu`] — the deterministic GPU execution model: warp vote, memory
//!   accounting, block scheduling, cost model ([`saber_gpu_sim`]);
//! * [`core`] — the SaberLDA trainer, kernels, W-ary tree, SSC, evaluation
//!   ([`saber_core`]);
//! * [`baselines`] — the comparison systems of the paper's Fig. 11
//!   ([`saber_baselines`]);
//! * [`serve`] — online topic inference with hot-swappable model
//!   snapshots and an HTTP/1.1 network front-end ([`saber_serve`]);
//! * [`trace`] — dependency-free distributed request tracing
//!   ([`saber_trace`]).
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quick start
//!
//! ```
//! use saberlda::{SaberLda, SaberLdaConfig};
//! use saberlda::corpus::synthetic::SyntheticSpec;
//!
//! // A small synthetic corpus with planted topics.
//! let corpus = SyntheticSpec::small_test().generate(42);
//!
//! // Train 5 iterations of 8-topic LDA with the paper's defaults.
//! let config = SaberLdaConfig::builder()
//!     .n_topics(8)
//!     .n_iterations(5)
//!     .seed(0)
//!     .build()?;
//! let mut lda = SaberLda::new(config, &corpus)?;
//! let report = lda.train();
//!
//! println!(
//!     "throughput: {:.1} Mtoken/s (simulated GTX 1080)",
//!     report.mean_throughput_mtokens_per_s()
//! );
//! let top = lda.model().top_words(0, 5);
//! assert_eq!(top.len(), 5);
//! # Ok::<(), saberlda::core::SaberError>(())
//! ```

#![deny(missing_docs)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

/// Corpus handling: [`saber_corpus`] re-exported.
pub use saber_corpus as corpus;

/// Sparse/dense matrix substrate: [`saber_sparse`] re-exported.
pub use saber_sparse as sparse;

/// GPU execution model: [`saber_gpu_sim`] re-exported.
pub use saber_gpu_sim as gpu;

/// SaberLDA core: [`saber_core`] re-exported.
pub use saber_core as core;

/// Baseline systems: [`saber_baselines`] re-exported.
pub use saber_baselines as baselines;

/// Online serving: [`saber_serve`] re-exported.
pub use saber_serve as serve;

/// Distributed request tracing: [`saber_trace`] re-exported.
pub use saber_trace as trace;

pub use saber_baselines::{DenseGibbsLda, EscaCpuLda, FTreeLda, WarpLdaMh};
pub use saber_core::{
    HeldOutEvaluator, IterationStats, LdaModel, LdaTrainer, OptLevel, PhaseTimes, SaberLda,
    SaberLdaConfig, TrainingReport,
};
pub use saber_corpus::{Corpus, Document, OovPolicy, Vocabulary};
pub use saber_gpu_sim::DeviceSpec;
pub use saber_serve::{
    FoldInKind, HttpConfig, HttpServer, InferResponse, InferenceBackend, InferenceSnapshot,
    ServeConfig, ShardPlan, ShardRouter, SnapshotSampler, TopicServer,
};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let spec = crate::corpus::synthetic::SyntheticSpec::small_test();
        assert!(spec.n_docs > 0);
        let device = crate::DeviceSpec::gtx_1080();
        assert_eq!(device.warp_size, 32);
    }
}
