//! A WarpLDA-style Metropolis–Hastings baseline.
//!
//! WarpLDA \[Chen et al. 2016\] replaces exact sampling from the conditional
//! with `O(1)` Metropolis–Hastings proposals drawn alternately from a
//! document proposal and a word proposal, making the per-token cost constant
//! at the price of an inexact (but asymptotically correct) step. The paper
//! observes that WarpLDA reaches a *worse* likelihood plateau under its
//! evaluation metric (§4.4, Fig. 11), which is the behaviour this baseline is
//! expected to reproduce qualitatively: fast iterations, weaker final model.
//!
//! The implementation keeps the BSP structure of the other baselines (counts
//! rebuilt once per iteration) and performs, for each token, one word-proposal
//! MH step and one doc-proposal MH step against the previous iteration's
//! counts.

use rand::Rng;
use saber_core::config::PreprocessKind;
use saber_core::traits::{IterationOutcome, LdaTrainer};
use saber_core::trees::{TopicSampler, WordSampler};
use saber_corpus::Corpus;
use saber_gpu_sim::cost::CostModel;
use saber_gpu_sim::KernelStats;
use saber_sparse::DenseMatrix;

use crate::common::{cpu_host_spec, BaselineState};

/// Metropolis–Hastings LDA with word and document proposals (WarpLDA-style).
#[derive(Debug)]
pub struct WarpLdaMh {
    state: BaselineState,
    cost: CostModel,
}

impl WarpLdaMh {
    /// Creates the baseline with one word+doc proposal pair per token.
    ///
    /// # Panics
    ///
    /// Panics if `n_topics == 0` or the corpus is empty.
    pub fn new(corpus: &Corpus, n_topics: usize, alpha: f32, beta: f32, seed: u64) -> Self {
        WarpLdaMh {
            state: BaselineState::new(corpus, n_topics, alpha, beta, seed),
            cost: CostModel::new(cpu_host_spec()),
        }
    }

    fn iteration_stats(&self) -> KernelStats {
        let t = self.state.n_tokens();
        let v = self.state.model.vocab_size() as u64;
        let k = self.state.n_topics() as u64;
        // O(1) work per token: a handful of reads and an acceptance test;
        // plus the per-iteration count rebuild.
        KernelStats {
            global_read_bytes: t * 32 + t * 8,
            global_write_bytes: t * 4 + v * k * 4,
            warp_instructions: t * 12 + v * k / 4,
            ..KernelStats::default()
        }
    }
}

impl LdaTrainer for WarpLdaMh {
    fn name(&self) -> String {
        "WarpLDA-style MH (CPU)".to_string()
    }

    fn n_topics(&self) -> usize {
        self.state.n_topics()
    }

    fn alpha(&self) -> f32 {
        self.state.alpha
    }

    fn step(&mut self) -> IterationOutcome {
        let n_topics = self.state.n_topics();
        // Word proposals are drawn from B̂_v via per-word alias tables.
        let word_proposals: Vec<WordSampler> = (0..self.state.model.vocab_size())
            .map(|v| {
                WordSampler::build(
                    PreprocessKind::AliasTable,
                    self.state.model.word_topic_prob().row(v),
                )
            })
            .collect();

        // Doc-proposal pool: the previous iteration's token assignments,
        // grouped by document (sampling one uniformly is exactly the
        // count-proportional doc proposal).
        let doc_offsets = {
            let mut lens = vec![0usize; self.state.doc_topic.rows() + 1];
            for &d in &self.state.doc_ids {
                lens[d as usize + 1] += 1;
            }
            for i in 1..lens.len() {
                lens[i] += lens[i - 1];
            }
            lens
        };
        let prev_topics = self.state.topics.clone();

        for i in 0..self.state.topics.len() {
            let d = self.state.doc_ids[i] as usize;
            let v = self.state.word_ids[i] as usize;
            let mut current = self.state.topics[i] as usize;
            // Word proposal: q(k) ∝ B̂_vk; acceptance uses the document
            // factor only (the word factors cancel).
            let u: f32 = self.state.rng.gen_range(0.0..1.0);
            let proposal = word_proposals[v].sample_with(u);
            let accept = (self.state.doc_topic[(d, proposal)] as f32 + self.state.alpha)
                / (self.state.doc_topic[(d, current)] as f32 + self.state.alpha);
            if self.state.rng.gen_range(0.0f32..1.0) < accept.min(1.0) {
                current = proposal;
            }

            // Doc proposal: pick the topic of a random token of the same
            // document (∝ A_dk plus an α-smoothing escape to uniform);
            // acceptance uses the word factor only.
            let doc_len = doc_offsets[d + 1] - doc_offsets[d];
            let proposal = if doc_len == 0
                || self.state.rng.gen_range(0.0f32..1.0)
                    < self.state.alpha * n_topics as f32
                        / (doc_len as f32 + self.state.alpha * n_topics as f32)
            {
                self.state.rng.gen_range(0..n_topics)
            } else {
                let j = self.state.rng.gen_range(doc_offsets[d]..doc_offsets[d + 1]);
                prev_topics[j] as usize
            };
            let accept = self.state.model.word_topic_prob()[(v, proposal)]
                / self.state.model.word_topic_prob()[(v, current)].max(f32::MIN_POSITIVE);
            if self.state.rng.gen_range(0.0f32..1.0) < accept.min(1.0) {
                current = proposal;
            }
            self.state.topics[i] = current as u32;
        }
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

    #[test]
    fn step_is_fast_and_consistent() {
        let corpus = SyntheticSpec::small_test().generate(8);
        let mut mh = WarpLdaMh::new(&corpus, 16, 0.1, 0.01, 3);
        let out = mh.step();
        assert_eq!(out.tokens, corpus.n_tokens());
        assert!(out.seconds > 0.0);
        assert!(mh.state.topics.iter().all(|&t| t < 16));
        assert_eq!(mh.state.model.word_topic().total(), corpus.n_tokens());
    }

    #[test]
    fn mh_sampling_is_much_cheaper_than_dense_at_large_k() {
        use crate::{common::cpu_host_spec, DenseGibbsLda};
        // O(1) proposals per token vs O(K) scans: at K = 2048 the MH baseline
        // must be at least several times cheaper per iteration than the dense
        // sampler priced on the same host model.
        let corpus = SyntheticSpec::small_test().generate(9);
        let mut mh = WarpLdaMh::new(&corpus, 2048, 0.1, 0.01, 1);
        let mut dense = DenseGibbsLda::new(&corpus, 2048, 0.1, 0.01, 1, cpu_host_spec());
        let t_mh = mh.step().seconds;
        let t_dense = dense.step().seconds;
        assert!(t_mh * 5.0 < t_dense, "MH {t_mh} vs dense {t_dense}");
    }

    #[test]
    fn mh_sampler_improves_likelihood() {
        use saber_core::eval::HeldOutEvaluator;
        let corpus = SyntheticSpec {
            n_docs: 120,
            vocab_size: 250,
            mean_doc_len: 40.0,
            n_topics: 5,
            ..SyntheticSpec::default()
        }
        .generate(10);
        let evaluator = HeldOutEvaluator::new(&corpus, 4).unwrap();
        let mut mh = WarpLdaMh::new(&corpus, 5, 0.1, 0.01, 7);
        let before = evaluator.log_likelihood(mh.word_topic_prob(), mh.alpha());
        for _ in 0..10 {
            mh.step();
        }
        let after = evaluator.log_likelihood(mh.word_topic_prob(), mh.alpha());
        assert!(after > before, "MH did not improve LL: {before} -> {after}");
        assert!(mh.name().contains("WarpLDA"));
    }
}
