//! Training configuration.
//!
//! The configuration exposes the design dimensions the paper evaluates so the
//! ablation of Fig. 9 can be expressed as plain configuration changes:
//!
//! * [`TokenOrder`] — PDOW word-major ordering vs. the document-major ordering
//!   of earlier systems (§3.1.3/§3.1.4);
//! * [`PreprocessKind`] — the W-ary sampling tree vs. alias table vs. Fenwick
//!   tree for the dense sub-problem (§3.2.4);
//! * [`CountRebuild`] — shuffle-and-segmented-count vs. naive global sort for
//!   rebuilding the document–topic matrix (§3.3);
//! * chunk and worker counts (§3.1.2, §3.4).
//!
//! The sampling kernel is always the paper's warp-based one (§3.2): one warp
//! per token. The thread-based port it is measured against is not modelled.

use saber_gpu_sim::DeviceSpec;

use crate::model::valid_smoothing;
use crate::{Result, SaberError};

/// Order of tokens inside a streamed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenOrder {
    /// Tokens sorted by document id (the layout of prior GPU systems; the
    /// `G0` baseline of Fig. 9).
    DocMajor,
    /// Tokens sorted by word id within each document-partitioned chunk — the
    /// "partition-by-document, order-by-word" layout (PDOW, §3.1.4).
    WordMajor,
}

/// Data structure used for the pre-processed word sub-problem `p₂(k) ∝ B̂_vk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreprocessKind {
    /// The paper's W-ary (32-ary) sampling tree: warp-parallel construction,
    /// `O(log_32 K)` queries.
    WaryTree,
    /// Walker's alias table: `O(1)` queries but sequential construction.
    AliasTable,
    /// A Fenwick (binary-indexed) tree as used by F+LDA: `O(log₂ K)` queries,
    /// branching factor 2.
    FenwickTree,
}

/// Algorithm used to rebuild the sparse document–topic matrix each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountRebuild {
    /// Shuffle-and-segmented-count (§3.3, Fig. 8).
    Ssc,
    /// Naive rebuild: globally sort all tokens by (document, topic) and scan.
    NaiveSort,
}

/// The cumulative optimisation levels of the ablation study (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// Baseline: sparsity-aware sampler, doc-sorted tokens, alias table,
    /// naive count rebuild, synchronous single worker.
    G0,
    /// G0 + the PDOW layout.
    G1,
    /// G1 + the W-ary sampling tree.
    G2,
    /// G2 + shuffle-and-segmented-count.
    G3,
    /// G3 + asynchronous multi-worker streaming.
    G4,
}

impl OptLevel {
    /// All levels in ablation order.
    pub const ALL: [OptLevel; 5] = [
        OptLevel::G0,
        OptLevel::G1,
        OptLevel::G2,
        OptLevel::G3,
        OptLevel::G4,
    ];

    /// The label used in Fig. 9.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::G0 => "G0",
            OptLevel::G1 => "G1",
            OptLevel::G2 => "G2",
            OptLevel::G3 => "G3",
            OptLevel::G4 => "G4",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Complete configuration of a SaberLDA training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaberLdaConfig {
    /// Number of topics `K`.
    pub n_topics: usize,
    /// Document–topic smoothing `α`. The paper uses `50 / K`.
    pub alpha: f32,
    /// Topic–word smoothing `β`. The paper uses `0.01`.
    pub beta: f32,
    /// Number of training iterations.
    pub n_iterations: usize,
    /// Number of chunks the token list is partitioned into (`P`).
    pub n_chunks: usize,
    /// Number of streaming workers; with one, transfers do not overlap
    /// compute.
    pub n_workers: usize,
    /// Token ordering inside each chunk.
    pub token_order: TokenOrder,
    /// Pre-processed structure for the dense sub-problem.
    pub preprocess: PreprocessKind,
    /// Document–topic rebuild algorithm.
    pub count_rebuild: CountRebuild,
    /// Whether to sort each chunk's words by descending token count for
    /// block-level load balance (§3.4).
    pub sort_words_by_frequency: bool,
    /// The simulated device.
    pub device: DeviceSpec,
    /// RNG seed (training is deterministic given the seed).
    pub seed: u64,
}

impl SaberLdaConfig {
    /// Starts building a configuration.
    pub fn builder() -> SaberLdaConfigBuilder {
        SaberLdaConfigBuilder::default()
    }

    /// The configuration corresponding to one of the ablation levels of
    /// Fig. 9, on top of this configuration's corpus-independent settings
    /// (topics, iterations, device, seed).
    pub(crate) fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.token_order = if level >= OptLevel::G1 {
            TokenOrder::WordMajor
        } else {
            TokenOrder::DocMajor
        };
        self.preprocess = if level >= OptLevel::G2 {
            PreprocessKind::WaryTree
        } else {
            PreprocessKind::AliasTable
        };
        self.count_rebuild = if level >= OptLevel::G3 {
            CountRebuild::Ssc
        } else {
            CountRebuild::NaiveSort
        };
        self.n_workers = if level >= OptLevel::G4 { 4 } else { 1 };
        self
    }

    /// α as the paper sets it for a given `K` (`50 / K`).
    pub(crate) fn paper_alpha(n_topics: usize) -> f32 {
        50.0 / n_topics as f32
    }

    /// Validates cross-field consistency.
    pub fn validate(&self) -> Result<()> {
        if self.n_topics == 0 {
            return Err(SaberError::InvalidConfig {
                detail: "n_topics must be at least 1".into(),
            });
        }
        if self.n_topics > 32 * 32 * 32 {
            return Err(SaberError::InvalidConfig {
                detail: format!(
                    "n_topics {} exceeds the W-ary tree limit of W^3 = 32768 topics",
                    self.n_topics
                ),
            });
        }
        if !valid_smoothing(self.alpha) || !valid_smoothing(self.beta) {
            return Err(SaberError::InvalidConfig {
                detail: "alpha and beta must be finite and positive".into(),
            });
        }
        if self.n_chunks == 0 || self.n_workers == 0 {
            return Err(SaberError::InvalidConfig {
                detail: "n_chunks and n_workers must be at least 1".into(),
            });
        }
        Ok(())
    }
}

impl Default for SaberLdaConfig {
    fn default() -> Self {
        SaberLdaConfig {
            n_topics: 1000,
            alpha: SaberLdaConfig::paper_alpha(1000),
            beta: 0.01,
            n_iterations: 100,
            n_chunks: 1,
            n_workers: 4,
            token_order: TokenOrder::WordMajor,
            preprocess: PreprocessKind::WaryTree,
            count_rebuild: CountRebuild::Ssc,
            sort_words_by_frequency: true,
            device: DeviceSpec::gtx_1080(),
            seed: 0,
        }
    }
}

/// Builder for [`SaberLdaConfig`].
///
/// # Examples
///
/// ```
/// use saber_core::{SaberLdaConfig, OptLevel};
///
/// let config = SaberLdaConfig::builder()
///     .n_topics(1000)
///     .n_iterations(10)
///     .n_chunks(3)
///     .opt_level(OptLevel::G2)
///     .build()
///     .unwrap();
/// assert_eq!(config.n_workers, 1); // G2 is still synchronous
/// ```
#[derive(Debug, Clone, Default)]
pub struct SaberLdaConfigBuilder {
    config: SaberLdaConfig,
    alpha_overridden: bool,
    opt_level: Option<OptLevel>,
}

impl SaberLdaConfigBuilder {
    /// Sets the number of topics `K`. Unless [`Self::alpha`] is called, α is
    /// re-derived as `50 / K` per the paper.
    pub fn n_topics(mut self, k: usize) -> Self {
        self.config.n_topics = k;
        if !self.alpha_overridden && k > 0 {
            self.config.alpha = SaberLdaConfig::paper_alpha(k);
        }
        self
    }

    /// Sets the document–topic smoothing α explicitly.
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.config.alpha = alpha;
        self.alpha_overridden = true;
        self
    }

    /// Sets the topic–word smoothing β.
    pub fn beta(mut self, beta: f32) -> Self {
        self.config.beta = beta;
        self
    }

    /// Sets the number of training iterations.
    pub fn n_iterations(mut self, n: usize) -> Self {
        self.config.n_iterations = n;
        self
    }

    /// Sets the number of streamed chunks.
    pub fn n_chunks(mut self, n: usize) -> Self {
        self.config.n_chunks = n;
        self
    }

    /// Sets the token ordering.
    pub fn token_order(mut self, order: TokenOrder) -> Self {
        self.config.token_order = order;
        self
    }

    /// Sets the pre-processed sampling structure.
    pub fn preprocess(mut self, kind: PreprocessKind) -> Self {
        self.config.preprocess = kind;
        self
    }

    /// Sets the count-rebuild algorithm.
    pub fn count_rebuild(mut self, kind: CountRebuild) -> Self {
        self.config.count_rebuild = kind;
        self
    }

    /// Sets the simulated device.
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.config.device = device;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Applies a whole ablation level (overrides layout/tree/count/worker
    /// fields at [`Self::build`] time).
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = Some(level);
        self
    }

    /// Finalises and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] for inconsistent settings (zero
    /// topics, zero chunks, non-finite smoothing, …).
    pub fn build(self) -> Result<SaberLdaConfig> {
        let mut config = self.config;
        if let Some(level) = self.opt_level {
            config = config.with_opt_level(level);
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_hyperparameters() {
        let c = SaberLdaConfig::default();
        assert_eq!(c.n_topics, 1000);
        assert!((c.alpha - 0.05).abs() < 1e-6);
        assert!((c.beta - 0.01).abs() < 1e-6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_rederives_alpha_from_topics() {
        let c = SaberLdaConfig::builder().n_topics(100).build().unwrap();
        assert!((c.alpha - 0.5).abs() < 1e-6);
        let c = SaberLdaConfig::builder()
            .alpha(0.2)
            .n_topics(100)
            .build()
            .unwrap();
        assert!((c.alpha - 0.2).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_settings() {
        assert!(SaberLdaConfig::builder().n_topics(0).build().is_err());
        assert!(SaberLdaConfig::builder().n_topics(40_000).build().is_err());
        assert!(SaberLdaConfig::builder().beta(0.0).build().is_err());
        assert!(SaberLdaConfig::builder().alpha(f32::NAN).build().is_err());
        assert!(SaberLdaConfig::builder().beta(f32::NAN).build().is_err());
        assert!(SaberLdaConfig::builder()
            .alpha(f32::INFINITY)
            .build()
            .is_err());
        assert!(SaberLdaConfig::builder().n_chunks(0).build().is_err());
    }

    #[test]
    fn opt_levels_accumulate_optimisations() {
        let base = SaberLdaConfig::builder().n_topics(64);
        let g0 = base.clone().opt_level(OptLevel::G0).build().unwrap();
        assert_eq!(g0.token_order, TokenOrder::DocMajor);
        assert_eq!(g0.preprocess, PreprocessKind::AliasTable);
        assert_eq!(g0.count_rebuild, CountRebuild::NaiveSort);
        assert_eq!(g0.n_workers, 1);

        let g1 = base.clone().opt_level(OptLevel::G1).build().unwrap();
        assert_eq!(g1.token_order, TokenOrder::WordMajor);
        assert_eq!(g1.preprocess, PreprocessKind::AliasTable);

        let g2 = base.clone().opt_level(OptLevel::G2).build().unwrap();
        assert_eq!(g2.preprocess, PreprocessKind::WaryTree);
        assert_eq!(g2.count_rebuild, CountRebuild::NaiveSort);

        let g3 = base.clone().opt_level(OptLevel::G3).build().unwrap();
        assert_eq!(g3.count_rebuild, CountRebuild::Ssc);
        assert_eq!(g3.n_workers, 1);

        let g4 = base.opt_level(OptLevel::G4).build().unwrap();
        assert_eq!(g4.n_workers, 4);
    }

    #[test]
    fn opt_level_ordering_and_labels() {
        assert!(OptLevel::G0 < OptLevel::G4);
        assert_eq!(OptLevel::G3.label(), "G3");
        assert_eq!(OptLevel::ALL.len(), 5);
        assert_eq!(OptLevel::G1.to_string(), "G1");
    }

    #[test]
    fn wary_tree_topic_limit_is_enforced() {
        // 32^3 topics is fine, one more is not.
        assert!(SaberLdaConfig::builder().n_topics(32_768).build().is_ok());
        assert!(SaberLdaConfig::builder().n_topics(32_769).build().is_err());
    }
}
