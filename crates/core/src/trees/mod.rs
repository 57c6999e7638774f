//! Pre-processed sampling structures for the dense sub-problem.
//!
//! The sparsity-aware decomposition (§2.3) leaves one sub-problem that cannot
//! use the sparsity of the document–topic row: sampling `p₂(k) ∝ B̂_vk` over
//! all `K` topics. Because there are only `V` distinct such distributions, one
//! per word, they are pre-processed once per iteration. The paper compares
//! three data structures (§3.2.4):
//!
//! * the [`WaryTree`] — its contribution: built warp-parallel in `O(K)` work,
//!   queried in `O(log₃₂ K)`;
//! * the [`AliasTable`] — `O(1)` queries, but construction is inherently
//!   sequential (the G1→G2 ablation shows this dominating);
//! * the [`FenwickTree`] — `O(log₂ K)` queries with branching factor 2, which
//!   under-utilises a 32-lane warp.
//!
//! All three implement [`TopicSampler`], which draws a topic from a *unit*
//! uniform random number so that sampling is deterministic and testable.

mod alias;
mod fenwick;
mod wary;

pub use alias::AliasTable;
pub use fenwick::FenwickTree;
pub use wary::WaryTree;

use crate::config::PreprocessKind;

/// A pre-processed discrete distribution over topics.
///
/// Implementations are built from a slice of non-negative weights (one per
/// topic, typically a row of `B̂`) and sample a topic index given a uniform
/// random number in `[0, 1)`.
pub trait TopicSampler: std::fmt::Debug {
    /// Sum of the weights the structure was built from.
    fn total(&self) -> f32;

    /// Number of topics (weights) the structure covers.
    fn len(&self) -> usize;

    /// Returns `true` when the structure covers no topics.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws a topic given a uniform random number `u ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the structure is empty or `u` is outside
    /// `[0, 1)`.
    fn sample_with(&self, u: f32) -> usize;

    /// Warp instructions charged for building the structure (cost-model
    /// input; see the module documentation of `saber_gpu_sim::cost`).
    fn build_instructions(&self) -> u64;

    /// Warp instructions charged per query.
    fn query_instructions(&self) -> u64;

    /// Shared-memory bytes read per query (two 128-byte lines for the W-ary
    /// tree, `log₂ K` scattered reads for the Fenwick tree, one line for the
    /// alias table).
    fn query_shared_bytes(&self) -> u64;
}

/// A [`TopicSampler`] chosen at runtime from a [`PreprocessKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum WordSampler {
    /// W-ary tree variant.
    Wary(WaryTree),
    /// Alias-table variant.
    Alias(AliasTable),
    /// Fenwick-tree variant.
    Fenwick(FenwickTree),
}

impl WordSampler {
    /// Builds the structure selected by `kind` from `weights`.
    pub fn build(kind: PreprocessKind, weights: &[f32]) -> Self {
        match kind {
            PreprocessKind::WaryTree => WordSampler::Wary(WaryTree::new(weights)),
            PreprocessKind::AliasTable => WordSampler::Alias(AliasTable::new(weights)),
            PreprocessKind::FenwickTree => WordSampler::Fenwick(FenwickTree::new(weights)),
        }
    }

    /// Rebuilds this structure from `weights` as `kind`, equal to
    /// [`WordSampler::build`] on the same arguments. A W-ary tree refills its
    /// own allocation (`WaryTree::refill`); the other kinds are rebuilt.
    pub fn rebuild(&mut self, kind: PreprocessKind, weights: &[f32]) {
        match (self, kind) {
            (WordSampler::Wary(tree), PreprocessKind::WaryTree) => tree.refill(weights),
            (sampler, kind) => *sampler = WordSampler::build(kind, weights),
        }
    }

    fn inner(&self) -> &dyn TopicSampler {
        match self {
            WordSampler::Wary(t) => t,
            WordSampler::Alias(t) => t,
            WordSampler::Fenwick(t) => t,
        }
    }
}

impl TopicSampler for WordSampler {
    fn total(&self) -> f32 {
        self.inner().total()
    }

    fn len(&self) -> usize {
        self.inner().len()
    }

    fn sample_with(&self, u: f32) -> usize {
        self.inner().sample_with(u)
    }

    fn build_instructions(&self) -> u64 {
        self.inner().build_instructions()
    }

    fn query_instructions(&self) -> u64 {
        self.inner().query_instructions()
    }

    fn query_shared_bytes(&self) -> u64 {
        self.inner().query_shared_bytes()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::TopicSampler;

    /// Checks that drawing many samples from `sampler` reproduces the
    /// normalised `weights` within `tolerance` (absolute, per topic).
    pub(crate) fn assert_matches_distribution<S: TopicSampler>(
        sampler: &S,
        weights: &[f32],
        draws: usize,
        tolerance: f64,
        seed: u64,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        assert!(total > 0.0, "test distribution must have positive mass");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            let u: f32 = rng.gen_range(0.0..1.0);
            let k = sampler.sample_with(u);
            assert!(k < weights.len(), "sampled index {k} out of range");
            assert!(weights[k] > 0.0, "sampled a zero-weight topic {k}");
            counts[k] += 1;
        }
        for (k, &w) in weights.iter().enumerate() {
            let expected = w as f64 / total;
            let observed = counts[k] as f64 / draws as f64;
            assert!(
                (expected - observed).abs() <= tolerance,
                "topic {k}: expected {expected:.4}, observed {observed:.4}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreprocessKind;

    #[test]
    fn word_sampler_dispatches_to_all_kinds() {
        let weights = [0.25f32, 0.125, 0.375, 0.25];
        for kind in [
            PreprocessKind::WaryTree,
            PreprocessKind::AliasTable,
            PreprocessKind::FenwickTree,
        ] {
            let s = WordSampler::build(kind, &weights);
            assert_eq!(s.len(), 4);
            assert!((s.total() - 1.0).abs() < 1e-6);
            let k = s.sample_with(0.9);
            assert!(k < 4);
            assert!(s.build_instructions() > 0);
            assert!(s.query_instructions() > 0);
            assert!(s.query_shared_bytes() > 0);
        }
    }

    #[test]
    fn wary_tree_builds_far_cheaper_than_alias_for_large_k() {
        let weights = vec![1.0f32; 10_000];
        let wary = WordSampler::build(PreprocessKind::WaryTree, &weights);
        let alias = WordSampler::build(PreprocessKind::AliasTable, &weights);
        // The paper reports a 98% reduction in pre-processing time when the
        // alias table is replaced by the W-ary tree (Fig. 9, G1→G2).
        assert!(
            (wary.build_instructions() as f64) < 0.05 * alias.build_instructions() as f64,
            "wary {} vs alias {}",
            wary.build_instructions(),
            alias.build_instructions()
        );
    }

    #[test]
    fn all_samplers_agree_on_distribution() {
        let weights = [0.1f32, 0.0, 0.4, 0.2, 0.3];
        for kind in [
            PreprocessKind::WaryTree,
            PreprocessKind::AliasTable,
            PreprocessKind::FenwickTree,
        ] {
            let s = WordSampler::build(kind, &weights);
            test_util::assert_matches_distribution(&s, &weights, 40_000, 0.02, 17);
        }
    }
}
