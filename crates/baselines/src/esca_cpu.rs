//! The CPU ESCA baseline.
//!
//! "ESCA (CPU) is a carefully optimized CPU version of the ESCA algorithm
//! which SaberLDA also adopts" (§4.4). Because the algorithm is identical, it
//! needs the same number of iterations as SaberLDA; the comparison is purely a
//! hardware/implementation one, which the paper reports as a ≈4× advantage for
//! the GPU. This baseline runs the same sparsity-aware sampler
//! ([`saber_core::sampling::sample_token`]) with per-word alias tables and
//! charges its traffic to the dual-Xeon host model.

use saber_core::config::PreprocessKind;
use saber_core::sampling::{sample_token, SampleScratch};
use saber_core::traits::{IterationOutcome, LdaTrainer};
use saber_core::trees::WordSampler;
use saber_corpus::Corpus;
use saber_gpu_sim::cost::CostModel;
use saber_gpu_sim::KernelStats;
use saber_sparse::{DenseMatrix, SparseVec};

use crate::common::{cpu_host_spec, BaselineState};

/// Sparsity-aware ESCA running on the host CPU model.
#[derive(Debug)]
pub struct EscaCpuLda {
    state: BaselineState,
    cost: CostModel,
    preprocess: PreprocessKind,
    /// Extra per-token instruction overhead relative to ESCA (used by the
    /// F+LDA wrapper, which shares this implementation).
    extra_instructions_per_token: u64,
    name: String,
}

impl EscaCpuLda {
    /// Creates the CPU ESCA baseline.
    ///
    /// # Panics
    ///
    /// Panics if `n_topics == 0` or the corpus is empty.
    pub fn new(corpus: &Corpus, n_topics: usize, alpha: f32, beta: f32, seed: u64) -> Self {
        EscaCpuLda {
            state: BaselineState::new(corpus, n_topics, alpha, beta, seed),
            cost: CostModel::new(cpu_host_spec()),
            preprocess: PreprocessKind::AliasTable,
            extra_instructions_per_token: 0,
            name: "ESCA (CPU)".to_string(),
        }
    }

    /// Internal constructor shared with the F+LDA baseline.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is a knob that tells one baseline from another"
    )]
    pub(crate) fn with_structure(
        corpus: &Corpus,
        n_topics: usize,
        alpha: f32,
        beta: f32,
        seed: u64,
        preprocess: PreprocessKind,
        extra_instructions_per_token: u64,
        name: &str,
    ) -> Self {
        EscaCpuLda {
            state: BaselineState::new(corpus, n_topics, alpha, beta, seed),
            cost: CostModel::new(cpu_host_spec()),
            preprocess,
            extra_instructions_per_token,
            name: name.to_string(),
        }
    }

    fn iteration_stats(&self, mean_kd: f64) -> KernelStats {
        let t = self.state.n_tokens();
        let k = self.state.n_topics() as u64;
        let v = self.state.model.vocab_size() as u64;
        let kd_bytes = (mean_kd.ceil() as u64).max(1) * 12; // A_d entry + B̂ element per non-zero
        KernelStats {
            global_read_bytes: t * kd_bytes + t * 8,
            global_write_bytes: t * 4 + v * k * 4,
            warp_instructions: t
                * ((mean_kd.ceil() as u64).max(1) + self.extra_instructions_per_token)
                + v * k,
            ..KernelStats::default()
        }
    }
}

impl LdaTrainer for EscaCpuLda {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn n_topics(&self) -> usize {
        self.state.n_topics()
    }

    fn alpha(&self) -> f32 {
        self.state.alpha
    }

    fn step(&mut self) -> IterationOutcome {
        let k = self.state.n_topics();
        // Pre-processing: one sampling structure per word.
        let samplers: Vec<WordSampler> = (0..self.state.model.vocab_size())
            .map(|v| WordSampler::build(self.preprocess, self.state.model.word_topic_prob().row(v)))
            .collect();

        // E-step: sparsity-aware sampling, documents visited in order so the
        // sparse row of A_d is extracted once per document.
        let mean_kd = self.state.mean_doc_topics();
        let mut scratch = SampleScratch::new();
        let mut sparse_row: SparseVec<u32> = SparseVec::new();
        let mut current_doc = u32::MAX;
        for i in 0..self.state.topics.len() {
            let d = self.state.doc_ids[i];
            if d != current_doc {
                sparse_row.clear();
                for kk in 0..k {
                    let c = self.state.doc_topic[(d as usize, kk)];
                    if c > 0 {
                        sparse_row.push(kk as u32, c);
                    }
                }
                current_doc = d;
            }
            let v = self.state.word_ids[i] as usize;
            let bhat_row = self.state.model.word_topic_prob().row(v);
            self.state.topics[i] = sample_token(
                sparse_row.as_view(),
                bhat_row,
                self.state.alpha,
                &samplers[v],
                &mut scratch,
                &mut self.state.rng,
            );
        }
        self.state.m_step();

        IterationOutcome {
            seconds: self
                .cost
                .kernel_time(&self.iteration_stats(mean_kd))
                .total_seconds,
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
    fn step_keeps_counts_consistent() {
        let corpus = SyntheticSpec::small_test().generate(3);
        let mut t = EscaCpuLda::new(&corpus, 8, 0.1, 0.01, 5);
        let out = t.step();
        assert_eq!(out.tokens, corpus.n_tokens());
        assert!(out.seconds > 0.0);
        assert_eq!(t.state.model.word_topic().total(), corpus.n_tokens());
    }

    #[test]
    fn per_iteration_time_is_insensitive_to_k() {
        // The sparsity-aware property: per-token cost depends on K_d, not K.
        let corpus = SyntheticSpec::small_test().generate(4);
        let mut small = EscaCpuLda::new(&corpus, 64, 0.1, 0.01, 1);
        let mut large = EscaCpuLda::new(&corpus, 1024, 0.1, 0.01, 1);
        let t_small = small.step().seconds;
        let t_large = large.step().seconds;
        assert!(
            t_large < 8.0 * t_small,
            "ESCA CPU should be sub-linear in K: {t_small} vs {t_large}"
        );
    }

    #[test]
    fn likelihood_improves_over_iterations() {
        use saber_core::eval::HeldOutEvaluator;
        let corpus = SyntheticSpec {
            n_docs: 120,
            vocab_size: 250,
            mean_doc_len: 40.0,
            n_topics: 5,
            ..SyntheticSpec::default()
        }
        .generate(5);
        let evaluator = HeldOutEvaluator::new(&corpus, 1).unwrap();
        let mut t = EscaCpuLda::new(&corpus, 5, 0.1, 0.01, 2);
        let before = evaluator.log_likelihood(t.word_topic_prob(), t.alpha());
        for _ in 0..8 {
            t.step();
        }
        let after = evaluator.log_likelihood(t.word_topic_prob(), t.alpha());
        assert!(after > before, "LL did not improve: {before} -> {after}");
    }

    #[test]
    fn name_reports_cpu() {
        let corpus = SyntheticSpec::small_test().generate(0);
        let t = EscaCpuLda::new(&corpus, 4, 0.1, 0.01, 0);
        assert!(t.name().contains("CPU"));
    }
}
