//! Synthetic corpus generation.
//!
//! The paper evaluates on NYTimes, PubMed and a ClueWeb12 subset, none of
//! which can be redistributed here. The generator in this module produces
//! corpora with the same *shape*: the number of documents, tokens-per-document
//! and vocabulary size of Table 3 (optionally scaled down), Zipf-skewed word
//! frequencies, and a genuine LDA generative process with planted topics so
//! that learning has structure to recover. The planted model is returned
//! alongside the corpus so tests can verify topic recovery and likelihood
//! improvements.

mod gamma;
mod zipf;

use gamma::{sample_dirichlet, sample_symmetric_dirichlet, standard_normal};
use zipf::ZipfLaw;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Corpus, Document, Vocabulary};

/// Specification of a synthetic corpus.
///
/// The defaults are chosen so that `SyntheticSpec::default().generate(seed)`
/// produces a corpus that trains in well under a second, suitable for unit
/// tests; the presets in [`crate::presets`] scale the paper's datasets.
///
/// # Examples
///
/// ```
/// use saber_corpus::synthetic::SyntheticSpec;
///
/// let corpus = SyntheticSpec {
///     n_docs: 100,
///     vocab_size: 500,
///     mean_doc_len: 40.0,
///     n_topics: 10,
///     ..SyntheticSpec::default()
/// }
/// .generate(7);
/// assert_eq!(corpus.n_docs(), 100);
/// assert!(corpus.n_tokens() > 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of documents `D`.
    pub n_docs: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Mean document length `T/D`.
    pub mean_doc_len: f64,
    /// Number of planted topics used by the generative model (independent of
    /// the `K` a user later trains with).
    pub n_topics: usize,
    /// Dirichlet concentration for document–topic proportions θ_d.
    pub doc_topic_alpha: f64,
    /// Dirichlet concentration for topic–word distributions φ_k (applied on
    /// top of the Zipf base measure).
    pub topic_word_beta: f64,
    /// Zipf exponent of the word-frequency base measure (≈1 for natural text).
    pub zipf_exponent: f64,
    /// Document lengths are drawn log-normally around `mean_doc_len` with this
    /// multiplicative dispersion (1.0 = every document has the mean length).
    pub doc_len_dispersion: f64,
    /// Whether to attach a synthetic vocabulary (word strings `w00000`…) to
    /// the generated corpus.
    pub attach_vocabulary: bool,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            n_docs: 200,
            vocab_size: 1_000,
            mean_doc_len: 64.0,
            n_topics: 20,
            doc_topic_alpha: 0.1,
            topic_word_beta: 0.05,
            zipf_exponent: 1.05,
            doc_len_dispersion: 1.4,
            attach_vocabulary: false,
        }
    }
}

/// The planted LDA model a synthetic corpus was generated from.
#[derive(Debug, Clone)]
pub struct PlantedModel {
    /// Topic–word distributions, `n_topics` rows of length `vocab_size`.
    pub topic_word: Vec<Vec<f64>>,
    /// Document–topic proportions, `n_docs` rows of length `n_topics`.
    pub doc_topic: Vec<Vec<f64>>,
    /// True topic assignment of every generated token, in corpus order.
    pub token_topics: Vec<u32>,
}

impl SyntheticSpec {
    /// A tiny corpus for unit tests (fast to generate and to train on).
    pub fn small_test() -> Self {
        SyntheticSpec {
            n_docs: 60,
            vocab_size: 200,
            mean_doc_len: 30.0,
            n_topics: 5,
            ..SyntheticSpec::default()
        }
    }

    /// Generates a corpus with the given random seed.
    pub fn generate(&self, seed: u64) -> Corpus {
        self.generate_with_model(seed).0
    }

    /// Generates a corpus and returns the planted model alongside it.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero documents, topics or vocabulary).
    pub fn generate_with_model(&self, seed: u64) -> (Corpus, PlantedModel) {
        assert!(self.n_docs > 0, "n_docs must be positive");
        assert!(self.vocab_size > 0, "vocab_size must be positive");
        assert!(self.n_topics > 0, "n_topics must be positive");
        assert!(self.mean_doc_len > 0.0, "mean_doc_len must be positive");

        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = ZipfLaw::new(self.vocab_size, self.zipf_exponent);
        let base = zipf.probabilities();

        // Topic–word distributions: Dirichlet with a Zipf-proportional base
        // measure, so word marginals stay power-law distributed.
        let topic_word: Vec<Vec<f64>> = (0..self.n_topics)
            .map(|_| {
                let alphas: Vec<f64> = base
                    .iter()
                    .map(|&p| (self.topic_word_beta * self.vocab_size as f64 * p).max(1e-6))
                    .collect();
                sample_dirichlet(&mut rng, &alphas)
            })
            .collect();
        let topic_word_cdf: Vec<Vec<f64>> = topic_word.iter().map(|p| cdf(p)).collect();

        let mut docs = Vec::with_capacity(self.n_docs);
        let mut doc_topic = Vec::with_capacity(self.n_docs);
        let mut token_topics = Vec::new();

        for _ in 0..self.n_docs {
            let theta = sample_symmetric_dirichlet(&mut rng, self.n_topics, self.doc_topic_alpha);
            let theta_cdf = cdf(&theta);
            let len = self.sample_doc_len(&mut rng);
            let mut words = Vec::with_capacity(len);
            for _ in 0..len {
                let k = sample_cdf(&theta_cdf, &mut rng);
                let w = sample_cdf(&topic_word_cdf[k], &mut rng);
                words.push(w as u32);
                token_topics.push(k as u32);
            }
            doc_topic.push(theta);
            docs.push(Document::new(words));
        }

        let corpus = Corpus::from_documents(self.vocab_size, docs)
            .expect("generated word ids are in range by construction");
        let corpus = if self.attach_vocabulary {
            corpus
                .with_vocabulary(Vocabulary::synthetic(self.vocab_size))
                .expect("synthetic vocabulary matches vocab_size")
        } else {
            corpus
        };
        (
            corpus,
            PlantedModel {
                topic_word,
                doc_topic,
                token_topics,
            },
        )
    }

    fn sample_doc_len<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.doc_len_dispersion <= 1.0 {
            return self.mean_doc_len.round().max(1.0) as usize;
        }
        let sigma = self.doc_len_dispersion.ln();
        let mu = self.mean_doc_len.ln() - sigma * sigma / 2.0;
        let len = (mu + sigma * standard_normal(rng)).exp();
        len.round().max(1.0) as usize
    }
}

fn cdf(p: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    p.iter()
        .map(|&x| {
            acc += x;
            acc
        })
        .collect()
}

fn sample_cdf<R: Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    let u = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::small_test();
        let a = spec.generate(9);
        let b = spec.generate(9);
        assert_eq!(a.n_tokens(), b.n_tokens());
        assert_eq!(a.document(0).words(), b.document(0).words());
        let c = spec.generate(10);
        assert_ne!(a.document(0).words(), c.document(0).words());
    }

    #[test]
    fn shape_matches_spec() {
        let spec = SyntheticSpec {
            n_docs: 300,
            vocab_size: 800,
            mean_doc_len: 50.0,
            ..SyntheticSpec::default()
        };
        let corpus = spec.generate(3);
        assert_eq!(corpus.n_docs(), 300);
        assert_eq!(corpus.vocab_size(), 800);
        let mean = corpus.mean_doc_len();
        assert!(
            (mean - 50.0).abs() < 10.0,
            "mean doc length {mean} too far from 50"
        );
    }

    #[test]
    fn word_frequencies_are_skewed() {
        let spec = SyntheticSpec {
            n_docs: 400,
            vocab_size: 2_000,
            mean_doc_len: 80.0,
            zipf_exponent: 1.05,
            ..SyntheticSpec::default()
        };
        let corpus = spec.generate(5);
        let mut freq = corpus.word_frequencies();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freq.iter().sum();
        let top100: u64 = freq.iter().take(100).sum();
        // With a Zipf-ish law the top 5% of words should dominate.
        assert!(
            top100 as f64 > 0.3 * total as f64,
            "top-100 words carry only {top100}/{total} tokens"
        );
    }

    #[test]
    fn planted_model_is_consistent() {
        let spec = SyntheticSpec::small_test();
        let (corpus, model) = spec.generate_with_model(1);
        assert_eq!(model.doc_topic.len(), corpus.n_docs());
        assert_eq!(model.topic_word.len(), spec.n_topics);
        assert_eq!(model.token_topics.len() as u64, corpus.n_tokens());
        for theta in &model.doc_topic {
            let s: f64 = theta.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        for phi in &model.topic_word {
            let s: f64 = phi.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert_eq!(phi.len(), spec.vocab_size);
        }
    }

    #[test]
    fn fixed_length_documents_when_dispersion_is_one() {
        let spec = SyntheticSpec {
            n_docs: 20,
            mean_doc_len: 17.0,
            doc_len_dispersion: 1.0,
            ..SyntheticSpec::small_test()
        };
        let corpus = spec.generate(2);
        assert!(corpus.documents().iter().all(|d| d.len() == 17));
    }

    #[test]
    fn attach_vocabulary_flag() {
        let spec = SyntheticSpec {
            attach_vocabulary: true,
            ..SyntheticSpec::small_test()
        };
        assert!(spec.generate(0).vocabulary().is_some());
        let spec = SyntheticSpec {
            attach_vocabulary: false,
            ..SyntheticSpec::small_test()
        };
        assert!(spec.generate(0).vocabulary().is_none());
    }

    #[test]
    #[should_panic(expected = "n_docs must be positive")]
    fn degenerate_spec_panics() {
        SyntheticSpec {
            n_docs: 0,
            ..SyntheticSpec::default()
        }
        .generate(0);
    }
}
