use rand::Rng;

use crate::{CorpusError, Result};

/// One token `(d, v, k)`: an occurrence of word `v` in document `d`, currently
/// assigned to topic `k` (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    /// Document id.
    pub doc: u32,
    /// Word id.
    pub word: u32,
    /// Topic assignment.
    pub topic: u32,
}

/// The flattened token list `L` as a structure of arrays.
///
/// The paper stores the token list as a flat array and streams it through the
/// GPU in chunks; the structure-of-arrays layout here mirrors what the CUDA
/// kernels consume (a 32-bit word id and a 32-bit topic per token, with the
/// document id implicit in the chunk partitioning).
///
/// # Examples
///
/// ```
/// use saber_corpus::{Corpus, Document};
///
/// let corpus = Corpus::from_documents(3, vec![Document::new(vec![0, 1, 1])]).unwrap();
/// let mut tokens = corpus.to_token_list();
/// tokens.randomize_topics(4, &mut rand::thread_rng());
/// assert!(tokens.topics().iter().all(|&k| k < 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenList {
    n_docs: usize,
    vocab_size: usize,
    doc_ids: Vec<u32>,
    word_ids: Vec<u32>,
    topics: Vec<u32>,
}

impl TokenList {
    /// Builds a token list from parallel arrays.
    ///
    /// # Errors
    ///
    /// * [`CorpusError::InvalidConfig`] if the arrays have different lengths;
    /// * [`CorpusError::DocOutOfRange`] / [`CorpusError::WordOutOfRange`] if an
    ///   id exceeds the declared bounds.
    pub fn from_parts(
        n_docs: usize,
        vocab_size: usize,
        doc_ids: Vec<u32>,
        word_ids: Vec<u32>,
        topics: Vec<u32>,
    ) -> Result<Self> {
        if doc_ids.len() != word_ids.len() || doc_ids.len() != topics.len() {
            return Err(CorpusError::InvalidConfig {
                detail: format!(
                    "token arrays have mismatched lengths: {} docs, {} words, {} topics",
                    doc_ids.len(),
                    word_ids.len(),
                    topics.len()
                ),
            });
        }
        for &d in &doc_ids {
            if d as usize >= n_docs {
                return Err(CorpusError::DocOutOfRange { doc: d, n_docs });
            }
        }
        for &w in &word_ids {
            if w as usize >= vocab_size {
                return Err(CorpusError::WordOutOfRange {
                    word: w,
                    vocab_size,
                });
            }
        }
        Ok(TokenList {
            n_docs,
            vocab_size,
            doc_ids,
            word_ids,
            topics,
        })
    }

    /// Number of tokens (`T`).
    pub fn len(&self) -> usize {
        self.doc_ids.len()
    }

    /// Returns `true` when the list holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.doc_ids.is_empty()
    }

    /// Number of documents (`D`).
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Vocabulary size (`V`).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Document id of every token.
    pub fn doc_ids(&self) -> &[u32] {
        &self.doc_ids
    }

    /// Word id of every token.
    pub fn word_ids(&self) -> &[u32] {
        &self.word_ids
    }

    /// Topic assignment of every token.
    pub fn topics(&self) -> &[u32] {
        &self.topics
    }

    /// The `i`-th token as a [`Token`] triple.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn token(&self, i: usize) -> Token {
        Token {
            doc: self.doc_ids[i],
            word: self.word_ids[i],
            topic: self.topics[i],
        }
    }

    /// Iterator over all tokens as [`Token`] triples.
    pub fn iter(&self) -> impl Iterator<Item = Token> + '_ {
        (0..self.len()).map(move |i| self.token(i))
    }

    /// Assigns every token a uniformly random topic in `[0, n_topics)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_topics == 0`.
    pub fn randomize_topics<R: Rng + ?Sized>(&mut self, n_topics: usize, rng: &mut R) {
        assert!(n_topics > 0, "n_topics must be positive");
        for k in &mut self.topics {
            *k = rng.gen_range(0..n_topics) as u32;
        }
    }

    /// Bytes needed to hold the token list on the device: the paper stores one
    /// 32-bit word id and one 32-bit topic per token plus per-chunk document
    /// offsets, i.e. ~8 bytes per token (Table 2 lists the PubMed token list at
    /// 3.2 GB for 738 M tokens, not counting the document-id stream kept on
    /// the host).
    pub fn memory_bytes(&self) -> usize {
        self.word_ids.len() * 4 + self.topics.len() * 4
    }

    /// Per-word token count histogram (length `vocab_size`).
    pub fn word_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.vocab_size];
        for &w in &self.word_ids {
            freq[w as usize] += 1;
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_list() -> TokenList {
        TokenList::from_parts(
            3,
            5,
            vec![0, 0, 1, 1, 1, 2],
            vec![0, 1, 2, 3, 2, 4],
            vec![0; 6],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_ids() {
        assert!(TokenList::from_parts(2, 5, vec![0, 2], vec![0, 0], vec![0, 0]).is_err());
        assert!(TokenList::from_parts(2, 5, vec![0, 1], vec![0, 5], vec![0, 0]).is_err());
        assert!(TokenList::from_parts(2, 5, vec![0], vec![0, 1], vec![0, 0]).is_err());
        assert!(TokenList::from_parts(2, 5, vec![0, 1], vec![0, 1], vec![0, 0]).is_ok());
    }

    #[test]
    fn accessors_and_token_view() {
        let tl = sample_list();
        assert_eq!(tl.len(), 6);
        assert!(!tl.is_empty());
        let t = tl.token(3);
        assert_eq!(
            t,
            Token {
                doc: 1,
                word: 3,
                topic: 0
            }
        );
        assert_eq!(tl.iter().count(), 6);
    }

    #[test]
    fn randomize_topics_in_range_and_deterministic() {
        let mut a = sample_list();
        let mut b = sample_list();
        a.randomize_topics(7, &mut StdRng::seed_from_u64(1));
        b.randomize_topics(7, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.topics(), b.topics());
        assert!(a.topics().iter().all(|&k| k < 7));
        let mut c = sample_list();
        c.randomize_topics(7, &mut StdRng::seed_from_u64(2));
        // Overwhelmingly likely to differ with 6 tokens and 7 topics.
        assert_ne!(a.topics(), c.topics());
    }

    #[test]
    fn histograms() {
        let tl = sample_list();
        assert_eq!(tl.word_frequencies(), vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn memory_accounting() {
        let tl = sample_list();
        assert_eq!(tl.memory_bytes(), 6 * 8);
    }

    #[test]
    #[should_panic(expected = "n_topics must be positive")]
    fn zero_topics_panics() {
        sample_list().randomize_topics(0, &mut rand::thread_rng());
    }
}
