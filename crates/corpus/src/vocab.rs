use std::collections::HashMap;
use std::fmt;

use crate::CorpusError;

/// What to do with words a trained model's vocabulary does not contain.
///
/// Serving sees raw text, and raw text contains words that were not in the
/// training corpus; inference can only reason about in-vocabulary tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OovPolicy {
    /// Drop unknown words and report how many were dropped (the usual
    /// serving behaviour).
    #[default]
    Skip,
    /// Fail the whole document on the first unknown word (strict ingestion
    /// pipelines).
    Fail,
}

/// A raw-token document mapped onto vocabulary ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EncodedDocument {
    /// In-vocabulary word ids, in input order.
    pub ids: Vec<u32>,
    /// Number of input tokens dropped as out-of-vocabulary.
    pub n_oov: usize,
}

impl EncodedDocument {}

/// A bidirectional mapping between word strings and dense word ids.
///
/// Word ids are assigned in insertion order, starting at 0. The paper's
/// datasets (NYTimes, PubMed) ship a `vocab.*.txt` file whose line number is
/// the word id; [`crate::uci::read_vocab`] builds one of these from such a
/// file.
///
/// # Examples
///
/// ```
/// use saber_corpus::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let apple = vocab.intern("apple");
/// let ios = vocab.intern("iOS");
/// assert_eq!(vocab.intern("apple"), apple);
/// assert_eq!(vocab.word(ios), Some("iOS"));
/// assert_eq!(vocab.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
    ids: HashMap<String, u32>,
}

impl fmt::Debug for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vocabulary")
            .field("len", &self.words.len())
            .finish()
    }
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Builds a vocabulary from an iterator of words, in order.
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut v = Vocabulary::new();
        for w in words {
            v.intern(&w.into());
        }
        v
    }

    /// Returns the id of `word`, inserting it if it is not present.
    pub fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = self.words.len() as u32;
        self.words.push(word.to_string());
        self.ids.insert(word.to_string(), id);
        id
    }

    /// Returns the id of `word` if it is in the vocabulary.
    pub fn id(&self, word: &str) -> Option<u32> {
        self.ids.get(word).copied()
    }

    /// Returns the word string for `id` if it exists.
    pub fn word(&self, id: u32) -> Option<&str> {
        self.words.get(id as usize).map(String::as_str)
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterator over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (i as u32, w.as_str()))
    }

    /// Generates a placeholder vocabulary `w0000 … w(n-1)` for synthetic
    /// corpora, so that top-word reports are still human readable.
    pub fn synthetic(n: usize) -> Self {
        Vocabulary::from_words((0..n).map(|i| format!("w{i:05}")))
    }

    /// Maps a raw-token document onto word ids without mutating the
    /// vocabulary, applying `policy` to unknown words. This is the ingestion
    /// path of the serving subsystem: a trained model's vocabulary is fixed,
    /// so unseen words can only be skipped or rejected.
    ///
    /// # Errors
    ///
    /// With [`OovPolicy::Fail`], returns [`CorpusError::OutOfVocabulary`]
    /// naming the first unknown word.
    ///
    /// # Examples
    ///
    /// ```
    /// use saber_corpus::{OovPolicy, Vocabulary};
    ///
    /// let vocab = Vocabulary::from_words(["topic", "model"]);
    /// let doc = vocab.encode(["topic", "zebra", "model"], OovPolicy::Skip).unwrap();
    /// assert_eq!(doc.ids, vec![0, 1]);
    /// assert_eq!(doc.n_oov, 1);
    /// assert!(vocab.encode(["zebra"], OovPolicy::Fail).is_err());
    /// ```
    pub fn encode<I, S>(&self, tokens: I, policy: OovPolicy) -> crate::Result<EncodedDocument>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut doc = EncodedDocument::default();
        for token in tokens {
            let token = token.as_ref();
            match self.ids.get(token) {
                Some(&id) => doc.ids.push(id),
                None => match policy {
                    OovPolicy::Skip => doc.n_oov += 1,
                    OovPolicy::Fail => {
                        return Err(CorpusError::OutOfVocabulary {
                            word: token.to_string(),
                        })
                    }
                },
            }
        }
        Ok(doc)
    }
}

impl FromIterator<String> for Vocabulary {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Vocabulary::from_words(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lookup_both_directions() {
        let v = Vocabulary::from_words(["apple", "orange", "iPhone"]);
        assert_eq!(v.id("orange"), Some(1));
        assert_eq!(v.id("missing"), None);
        assert_eq!(v.word(2), Some("iPhone"));
        assert_eq!(v.word(9), None);
    }

    #[test]
    fn synthetic_names_are_unique() {
        let v = Vocabulary::synthetic(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.word(7), Some("w00007"));
        assert_eq!(v.id("w00099"), Some(99));
    }

    #[test]
    fn iteration_in_id_order() {
        let v = Vocabulary::from_words(["x", "y"]);
        let pairs: Vec<(u32, &str)> = v.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn encode_skips_or_fails_on_oov() {
        let v = Vocabulary::from_words(["a", "b", "c"]);
        let doc = v.encode(["c", "x", "a", "y"], OovPolicy::Skip).unwrap();
        assert_eq!(doc.ids, vec![2, 0]);
        assert_eq!(doc.n_oov, 2);

        let err = v.encode(["a", "zebra"], OovPolicy::Fail).unwrap_err();
        assert!(err.to_string().contains("zebra"), "error was: {err}");
        assert!(v.encode(["b", "a"], OovPolicy::Fail).is_ok());
    }

    #[test]
    fn encode_empty_document() {
        let v = Vocabulary::from_words(["a"]);
        let doc = v
            .encode(std::iter::empty::<&str>(), OovPolicy::Skip)
            .unwrap();
        assert!(doc.ids.is_empty());
        assert_eq!(doc.n_oov, 0);
    }

    #[test]
    fn from_iterator_of_strings() {
        let v: Vocabulary = vec!["a".to_string(), "b".to_string()].into_iter().collect();
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }
}
