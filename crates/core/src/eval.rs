//! Model-quality evaluation: held-out log-likelihood per token.
//!
//! The paper assesses model quality with "hold-out log-likelihood per token,
//! using the partially-observed document approach" (§4, citing Wallach et al.
//! 2009). Each held-out document is split into an observed half and an
//! evaluation half; the observed half is folded in against the trained
//! topic–word distributions to estimate the document's topic proportions
//! `θ_d`, and the reported quantity is
//!
//! ```text
//! (1/N) Σ_{evaluation tokens (d,v)} log Σ_k θ_dk · B̂_vk
//! ```
//!
//! Higher is better; the paper's convergence targets are −8.0 (NYTimes) and
//! −7.3 (PubMed) at K = 1000.

use saber_corpus::split::{held_out_split, HeldOutSplit};
use saber_corpus::Corpus;
use saber_sparse::DenseMatrix;

use crate::Result;

/// Fold-in EM iterations per held-out document.
const FOLD_IN_ITERATIONS: usize = 10;

/// Evaluates held-out log-likelihood for any trainer exposing `B̂`.
#[derive(Debug, Clone)]
pub struct HeldOutEvaluator {
    split: HeldOutSplit,
}

impl HeldOutEvaluator {
    /// Builds an evaluator by splitting `held_out` documents into observed and
    /// evaluation halves (token-wise, 50/50).
    ///
    /// # Errors
    ///
    /// Propagates corpus-splitting errors.
    pub fn new(held_out: &Corpus, seed: u64) -> Result<Self> {
        Ok(HeldOutEvaluator {
            split: held_out_split(held_out, 0.5, seed)?,
        })
    }

    /// Computes the held-out log-likelihood per token under the topic–word
    /// distributions `bhat` (`V × K`, columns normalised) with document–topic
    /// smoothing `alpha`.
    ///
    /// Returns 0.0 when there are no evaluation tokens.
    ///
    /// # Panics
    ///
    /// Panics if `bhat` has fewer rows than the held-out vocabulary requires.
    pub fn log_likelihood(&self, bhat: &DenseMatrix<f32>, alpha: f32) -> f64 {
        let k = bhat.cols();
        assert!(k > 0, "model must have at least one topic");
        let mut total_ll = 0.0f64;
        let mut total_tokens = 0u64;

        for (doc_idx, observed) in self.split.observed.documents().iter().enumerate() {
            let evaluation = self.split.evaluation.document(doc_idx);
            if evaluation.is_empty() {
                continue;
            }
            let theta = fold_in_document(observed.words(), bhat, alpha, FOLD_IN_ITERATIONS);
            for &v in evaluation.words() {
                let row = bhat.row(v as usize);
                let mut p = 0.0f64;
                for (t, &b) in theta.iter().zip(row.iter()) {
                    p += t * b as f64;
                }
                total_ll += p.max(1e-300).ln();
                total_tokens += 1;
            }
        }
        if total_tokens == 0 {
            0.0
        } else {
            total_ll / total_tokens as f64
        }
    }
}

/// Estimates a document's topic proportions `θ_d` from its observed tokens by
/// a few soft-EM iterations against fixed topic–word distributions.
///
/// Thin wrapper over the shared implementation in [`crate::infer`], which
/// the serving subsystem uses as well.
fn fold_in_document(
    words: &[u32],
    bhat: &DenseMatrix<f32>,
    alpha: f32,
    iterations: usize,
) -> Vec<f64> {
    crate::infer::fold_in_em(words, bhat, alpha, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_corpus::Document;

    /// Builds a B̂ whose columns are (almost) point masses on disjoint words.
    fn planted_bhat(vocab: usize, k: usize) -> DenseMatrix<f32> {
        let mut b = DenseMatrix::<f32>::zeros(vocab, k);
        for topic in 0..k {
            for v in 0..vocab {
                b[(v, topic)] = if v % k == topic {
                    0.9 / (vocab / k) as f32
                } else {
                    0.1 / (vocab - vocab / k) as f32
                };
            }
        }
        b
    }

    #[test]
    fn likelihood_is_higher_for_the_true_model_than_for_uniform() {
        // Documents drawn from topic 0 words only.
        let docs: Vec<Document> = (0..20)
            .map(|i| Document::new(vec![(i % 5) as u32 * 2, 0, 2, 4, 6, 8]))
            .collect();
        let corpus = Corpus::from_documents(10, docs).unwrap();
        let eval = HeldOutEvaluator::new(&corpus, 1).unwrap();

        let good = planted_bhat(10, 2);
        let mut uniform = DenseMatrix::<f32>::zeros(10, 2);
        for v in 0..10 {
            for k in 0..2 {
                uniform[(v, k)] = 0.1;
            }
        }
        let ll_good = eval.log_likelihood(&good, 0.1);
        let ll_uniform = eval.log_likelihood(&uniform, 0.1);
        assert!(
            ll_good > ll_uniform,
            "true model {ll_good} not better than uniform {ll_uniform}"
        );
    }

    #[test]
    fn likelihood_is_per_token_and_negative() {
        let corpus = SyntheticSpec::small_test().generate(0);
        let eval = HeldOutEvaluator::new(&corpus, 2).unwrap();
        let mut bhat = DenseMatrix::<f32>::zeros(corpus.vocab_size(), 4);
        let uniform = 1.0 / corpus.vocab_size() as f32;
        for v in 0..corpus.vocab_size() {
            for k in 0..4 {
                bhat[(v, k)] = uniform;
            }
        }
        let ll = eval.log_likelihood(&bhat, 0.1);
        // A uniform model scores exactly log(1/V) per token.
        assert!((ll - (uniform as f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn fold_in_recovers_dominant_topic() {
        let bhat = planted_bhat(10, 2);
        // Document using only even words (topic 0).
        let theta = fold_in_document(&[0, 2, 4, 6, 8, 0, 2], &bhat, 0.05, 10);
        assert!(theta[0] > 0.8, "theta = {theta:?}");
        let s: f64 = theta.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_observed_half_yields_uniform_theta() {
        let bhat = planted_bhat(10, 2);
        let theta = fold_in_document(&[], &bhat, 0.1, 5);
        assert!((theta[0] - 0.5).abs() < 1e-12);
    }
}
