//! A dense `O(K)`-per-token GPU sampler (the BIDMach class of systems).
//!
//! Prior GPU LDA systems \[Yan et al. 2009; BIDMach; Steele & Tristan 2015\]
//! keep every matrix dense and touch all `K` topics for every token, which is
//! why Table 1 caps them at a few hundred topics. This baseline reproduces
//! that behaviour: it samples each token from the exact conditional by
//! scanning the full dense document-topic row, keeps `A` dense and resident,
//! and charges `O(K)` memory traffic per token to the GTX 1080 cost model.

use saber_core::sampling::sample_token_dense;
use saber_core::traits::{IterationOutcome, LdaTrainer};
use saber_corpus::Corpus;
use saber_gpu_sim::cost::CostModel;
use saber_gpu_sim::{DeviceSpec, KernelStats};
use saber_sparse::DenseMatrix;

use crate::common::BaselineState;

/// Dense GPU-style LDA trainer ("BIDMach-like").
#[derive(Debug)]
pub struct DenseGibbsLda {
    state: BaselineState,
    cost: CostModel,
    device: DeviceSpec,
}

impl DenseGibbsLda {
    /// Creates the trainer on the given simulated device.
    ///
    /// # Panics
    ///
    /// Panics if `n_topics == 0` or the corpus is empty.
    pub fn new(
        corpus: &Corpus,
        n_topics: usize,
        alpha: f32,
        beta: f32,
        seed: u64,
        device: DeviceSpec,
    ) -> Self {
        DenseGibbsLda {
            state: BaselineState::new(corpus, n_topics, alpha, beta, seed),
            cost: CostModel::new(device.clone()),
            device,
        }
    }

    /// Analytic per-iteration counters: every token reads its document's full
    /// dense row and the word's full `B̂` row, and the dense matrices are
    /// rebuilt.
    fn iteration_stats(&self) -> KernelStats {
        let t = self.state.n_tokens();
        let k = self.state.n_topics() as u64;
        let d = self.state.doc_topic.rows() as u64;
        let v = self.state.model.vocab_size() as u64;
        KernelStats {
            // B̂ rows are gathered per token (doc-sorted layout cannot stage
            // them); A rows are staged once per document.
            global_read_bytes: t * k * 4 + d * k * 4 + t * 8,
            global_write_bytes: d * k * 4 + v * k * 4 + t * 4,
            warp_instructions: t * k / 8,
            ..KernelStats::default()
        }
    }
}

impl LdaTrainer for DenseGibbsLda {
    fn name(&self) -> String {
        format!("Dense O(K) GPU (BIDMach-like, {})", self.device.name)
    }

    fn n_topics(&self) -> usize {
        self.state.n_topics()
    }

    fn alpha(&self) -> f32 {
        self.state.alpha
    }

    fn step(&mut self) -> IterationOutcome {
        let k = self.state.n_topics();
        // E-step: exact O(K) sampling per token against the dense counts.
        let mut doc_row = vec![0.0f32; k];
        let mut current_doc = u32::MAX;
        for i in 0..self.state.topics.len() {
            let d = self.state.doc_ids[i];
            if d != current_doc {
                for (kk, slot) in doc_row.iter_mut().enumerate() {
                    *slot = self.state.doc_topic[(d as usize, kk)] as f32;
                }
                current_doc = d;
            }
            let v = self.state.word_ids[i] as usize;
            let bhat_row = self.state.model.word_topic_prob().row(v);
            self.state.topics[i] =
                sample_token_dense(&doc_row, bhat_row, self.state.alpha, &mut self.state.rng);
        }
        // M-step.
        self.state.m_step();

        IterationOutcome {
            seconds: self.cost.kernel_time(&self.iteration_stats()).total_seconds,
            tokens: self.state.n_tokens(),
        }
    }

    fn word_topic_prob(&self) -> &DenseMatrix<f32> {
        self.state.model.word_topic_prob()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_corpus::synthetic::SyntheticSpec;

    fn trainer(k: usize) -> DenseGibbsLda {
        let corpus = SyntheticSpec::small_test().generate(2);
        DenseGibbsLda::new(&corpus, k, 0.1, 0.01, 1, DeviceSpec::gtx_1080())
    }

    #[test]
    fn step_samples_all_tokens_and_keeps_counts_consistent() {
        let mut t = trainer(6);
        let tokens = t.state.n_tokens();
        let out = t.step();
        assert_eq!(out.tokens, tokens);
        assert!(out.seconds > 0.0);
        assert_eq!(t.state.model.word_topic().total(), tokens);
        assert_eq!(t.state.doc_topic.total(), tokens);
    }

    #[test]
    fn iteration_time_scales_linearly_with_topics() {
        let mut small = trainer(32);
        let mut large = trainer(512);
        let t_small = small.step().seconds;
        let t_large = large.step().seconds;
        // O(K) behaviour: 16x more topics → at least 8x more time.
        assert!(
            t_large > 8.0 * t_small,
            "dense sampler not O(K): {t_small} vs {t_large}"
        );
    }

    #[test]
    fn name_and_trait_accessors() {
        let t = trainer(4);
        assert!(t.name().contains("BIDMach"));
        assert_eq!(t.n_topics(), 4);
        assert!((t.alpha() - 0.1).abs() < 1e-7);
        assert_eq!(t.word_topic_prob().rows(), 200);
    }
}
