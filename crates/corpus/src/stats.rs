//! Corpus statistics (Table 3 of the paper).

use std::fmt;

use crate::Corpus;

/// Statistics of an in-memory corpus, in the shape of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusStats {
    /// Number of documents `D`.
    pub n_docs: usize,
    /// Number of tokens `T`.
    pub n_tokens: u64,
    /// Vocabulary size `V` (declared).
    pub vocab_size: usize,
    /// Number of distinct words actually used.
    pub used_vocab: usize,
    /// Mean tokens per document `T/D`.
    pub tokens_per_doc: f64,
    /// Longest document.
    pub max_doc_len: usize,
    /// Fraction of tokens carried by the 1% most frequent words — a crude
    /// skew measure used to sanity-check the Zipf behaviour of synthetic data.
    pub top1pct_token_share: f64,
}

impl CorpusStats {
    /// Computes statistics for `corpus`.
    pub fn of(corpus: &Corpus) -> Self {
        let freq = corpus.word_frequencies();
        let used_vocab = freq.iter().filter(|&&f| f > 0).count();
        let mut sorted = freq.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top = (corpus.vocab_size() / 100).max(1);
        let top_share: u64 = sorted.iter().take(top).sum();
        let total: u64 = sorted.iter().sum();
        CorpusStats {
            n_docs: corpus.n_docs(),
            n_tokens: corpus.n_tokens(),
            vocab_size: corpus.vocab_size(),
            used_vocab,
            tokens_per_doc: corpus.mean_doc_len(),
            max_doc_len: corpus
                .documents()
                .iter()
                .map(|d| d.len())
                .max()
                .unwrap_or(0),
            top1pct_token_share: if total == 0 {
                0.0
            } else {
                top_share as f64 / total as f64
            },
        }
    }
}

impl fmt::Display for CorpusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "D={} T={} V={} T/D={:.1}",
            self.n_docs, self.n_tokens, self.vocab_size, self.tokens_per_doc
        )
    }
}

/// The published statistics of a paper dataset (Table 3), for side-by-side
/// reporting with a synthetic stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperDatasetStats {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Number of documents.
    pub n_docs: u64,
    /// Number of tokens.
    pub n_tokens: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Average tokens per document.
    pub tokens_per_doc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;
    use crate::Document;

    #[test]
    fn stats_of_small_corpus() {
        let corpus = Corpus::from_documents(
            4,
            vec![Document::new(vec![0, 0, 1]), Document::new(vec![2])],
        )
        .unwrap();
        let s = CorpusStats::of(&corpus);
        assert_eq!(s.n_docs, 2);
        assert_eq!(s.n_tokens, 4);
        assert_eq!(s.used_vocab, 3);
        assert_eq!(s.max_doc_len, 3);
        assert!((s.tokens_per_doc - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_corpus() {
        let corpus = Corpus::from_documents(10, vec![]).unwrap();
        let s = CorpusStats::of(&corpus);
        assert_eq!(s.n_tokens, 0);
        assert_eq!(s.max_doc_len, 0);
        assert_eq!(s.top1pct_token_share, 0.0);
    }

    #[test]
    fn synthetic_corpus_is_skewed() {
        let corpus = SyntheticSpec {
            n_docs: 300,
            vocab_size: 2000,
            mean_doc_len: 60.0,
            ..SyntheticSpec::default()
        }
        .generate(4);
        let s = CorpusStats::of(&corpus);
        assert!(s.top1pct_token_share > 0.05);
        assert!(s.used_vocab <= s.vocab_size);
    }

    #[test]
    fn display_contains_scale_numbers() {
        let corpus = SyntheticSpec::small_test().generate(0);
        let s = CorpusStats::of(&corpus);
        let text = s.to_string();
        assert!(text.contains("D=60"));
        assert!(text.contains("V=200"));
    }
}
