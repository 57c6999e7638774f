use std::fmt;

use crate::{CorpusError, Result, Vocabulary};

/// One document: the sequence of word ids of its tokens.
///
/// LDA is a bag-of-words model, so the order of tokens within a document does
/// not matter statistically; it is kept because the token-list layouts studied
/// in the paper (§3.1.3) reorder tokens explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    words: Vec<u32>,
}

impl Document {
    /// Creates a document from word ids.
    pub fn new(words: Vec<u32>) -> Self {
        Document { words }
    }

    /// The word ids of the document's tokens.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Number of tokens in the document.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` for a document with no tokens.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl From<Vec<u32>> for Document {
    fn from(words: Vec<u32>) -> Self {
        Document::new(words)
    }
}

/// An in-memory corpus: a list of documents over a fixed vocabulary size.
///
/// The learning-task scale is characterised by the four numbers of §2.1:
/// `D` ([`Corpus::n_docs`]), `T` ([`Corpus::n_tokens`]), `V`
/// ([`Corpus::vocab_size`]) and the user-chosen number of topics `K`.
///
/// # Examples
///
/// ```
/// use saber_corpus::{Corpus, Document};
///
/// // The toy corpus of Fig. 1: vocabulary {iOS, Android, apple, iPhone, orange}.
/// let corpus = Corpus::from_documents(
///     5,
///     vec![
///         Document::new(vec![0, 1]),
///         Document::new(vec![2, 3, 2, 0]),
///         Document::new(vec![2, 4]),
///     ],
/// )
/// .unwrap();
/// assert_eq!(corpus.n_docs(), 3);
/// assert_eq!(corpus.n_tokens(), 8);
/// assert_eq!(corpus.vocab_size(), 5);
/// ```
#[derive(Clone, Default)]
pub struct Corpus {
    vocab_size: usize,
    docs: Vec<Document>,
    n_tokens: u64,
    vocab: Option<Vocabulary>,
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("n_docs", &self.docs.len())
            .field("vocab_size", &self.vocab_size)
            .field("n_tokens", &self.n_tokens)
            .field("has_vocab", &self.vocab.is_some())
            .finish()
    }
}

impl Corpus {
    /// Creates a corpus from documents over a vocabulary of `vocab_size` words.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::WordOutOfRange`] if any document references a
    /// word id `>= vocab_size`.
    pub fn from_documents(vocab_size: usize, docs: Vec<Document>) -> Result<Self> {
        let mut n_tokens = 0u64;
        for d in &docs {
            for &w in d.words() {
                if w as usize >= vocab_size {
                    return Err(CorpusError::WordOutOfRange {
                        word: w,
                        vocab_size,
                    });
                }
            }
            n_tokens += d.len() as u64;
        }
        Ok(Corpus {
            vocab_size,
            docs,
            n_tokens,
            vocab: None,
        })
    }

    /// Attaches a [`Vocabulary`] (id → word string mapping) to the corpus.
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::InvalidConfig`] if the vocabulary is smaller than
    /// the corpus's declared vocabulary size.
    pub(crate) fn with_vocabulary(mut self, vocab: Vocabulary) -> Result<Self> {
        if vocab.len() < self.vocab_size {
            return Err(CorpusError::InvalidConfig {
                detail: format!(
                    "vocabulary has {} words but corpus declares {}",
                    vocab.len(),
                    self.vocab_size
                ),
            });
        }
        self.vocab = Some(vocab);
        Ok(self)
    }

    /// Number of documents (`D`).
    pub fn n_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of tokens (`T`).
    pub fn n_tokens(&self) -> u64 {
        self.n_tokens
    }

    /// Vocabulary size (`V`).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Average document length (`T/D`), 0 for an empty corpus.
    pub fn mean_doc_len(&self) -> f64 {
        if self.docs.is_empty() {
            0.0
        } else {
            self.n_tokens as f64 / self.docs.len() as f64
        }
    }

    /// The documents.
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// A specific document.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn document(&self, d: usize) -> &Document {
        &self.docs[d]
    }

    /// The attached vocabulary, if any.
    pub fn vocabulary(&self) -> Option<&Vocabulary> {
        self.vocab.as_ref()
    }

    /// Per-word token frequencies (length `vocab_size`).
    pub fn word_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.vocab_size];
        for d in &self.docs {
            for &w in d.words() {
                freq[w as usize] += 1;
            }
        }
        freq
    }

    /// Keeps only the documents selected by `keep`, returning a new corpus.
    /// Used by the train/held-out splitter.
    pub fn select_documents(&self, keep: impl Iterator<Item = usize>) -> Corpus {
        let docs: Vec<Document> = keep.map(|i| self.docs[i].clone()).collect();
        let n_tokens = docs.iter().map(|d| d.len() as u64).sum();
        Corpus {
            vocab_size: self.vocab_size,
            docs,
            n_tokens,
            vocab: self.vocab.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_corpus() -> Corpus {
        Corpus::from_documents(
            5,
            vec![
                Document::new(vec![0, 1]),
                Document::new(vec![2, 3, 2, 0]),
                Document::new(vec![2, 4]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scale_numbers() {
        let c = fig1_corpus();
        assert_eq!(c.n_docs(), 3);
        assert_eq!(c.n_tokens(), 8);
        assert_eq!(c.vocab_size(), 5);
        assert!((c.mean_doc_len() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn word_out_of_range_is_rejected() {
        let err = Corpus::from_documents(3, vec![Document::new(vec![0, 3])]);
        assert!(err.is_err());
    }

    #[test]
    fn word_frequencies_count_tokens() {
        let c = fig1_corpus();
        assert_eq!(c.word_frequencies(), vec![2, 1, 3, 1, 1]);
    }

    #[test]
    fn word_frequency_histogram() {
        let c = Corpus::from_documents(
            6,
            vec![
                Document::new(vec![0, 1]),
                Document::new(vec![2, 3, 2]),
                Document::new(vec![4]),
            ],
        )
        .unwrap();
        assert_eq!(c.word_frequencies(), vec![1, 1, 2, 1, 1, 0]);
    }

    #[test]
    fn vocabulary_attachment_checks_size() {
        let c = fig1_corpus();
        assert!(c.clone().with_vocabulary(Vocabulary::synthetic(4)).is_err());
        let c = c.with_vocabulary(Vocabulary::synthetic(5)).unwrap();
        assert_eq!(c.vocabulary().unwrap().len(), 5);
    }

    #[test]
    fn select_documents_subsets() {
        let c = fig1_corpus();
        let sub = c.select_documents([0usize, 2].into_iter());
        assert_eq!(sub.n_docs(), 2);
        assert_eq!(sub.n_tokens(), 4);
        assert_eq!(sub.vocab_size(), 5);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::from_documents(10, vec![]).unwrap();
        assert_eq!(c.n_docs(), 0);
        assert_eq!(c.mean_doc_len(), 0.0);
    }
}
