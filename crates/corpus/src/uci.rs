//! Parser for the UCI "bag of words" corpus format.
//!
//! The NYTimes and PubMed datasets used in the paper's evaluation (Table 3)
//! are distributed in this format by the UCI Machine Learning Repository
//! \[Asuncion & Newman 2007\]:
//!
//! ```text
//! D            <- number of documents
//! W            <- vocabulary size
//! NNZ          <- number of (doc, word) pairs that follow
//! docID wordID count
//! docID wordID count
//! ...
//! ```
//!
//! `docID` and `wordID` are **1-based**. The companion `vocab.*.txt` file lists
//! one word per line, where the line number (1-based) is the word id.
//!
//! The reproduction's default experiments run on synthetic corpora with the
//! same shape statistics (see [`crate::presets`]); these parsers exist so the
//! real datasets can be dropped in when available. They take any reader, so a
//! file is read with `read_bag_of_words(File::open(path)?)`.

use std::io::{BufRead, BufReader, Read};

use crate::{Corpus, CorpusError, Document, Result, Vocabulary};

/// Reads a UCI bag-of-words corpus from a reader.
///
/// # Errors
///
/// Returns [`CorpusError::ParseError`] for malformed input, or
/// [`CorpusError::Io`] for I/O failures.
pub fn read_bag_of_words<R: Read>(reader: R) -> Result<Corpus> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    let n_docs = parse_header_line(&mut lines, "document count")?;
    let vocab_size = parse_header_line(&mut lines, "vocabulary size")?;
    let _nnz = parse_header_line(&mut lines, "nnz count")?;

    let mut docs: Vec<Vec<u32>> = vec![Vec::new(); n_docs];
    for (idx, line) in lines {
        let line = line.map_err(CorpusError::Io)?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let doc: usize = next_field(&mut parts, idx, "docID")?;
        let word: usize = next_field(&mut parts, idx, "wordID")?;
        let count: usize = next_field(&mut parts, idx, "count")?;
        if doc == 0 || doc > n_docs {
            return Err(CorpusError::ParseError {
                line: idx + 1,
                detail: format!("docID {doc} out of range 1..={n_docs}"),
            });
        }
        if word == 0 || word > vocab_size {
            return Err(CorpusError::ParseError {
                line: idx + 1,
                detail: format!("wordID {word} out of range 1..={vocab_size}"),
            });
        }
        let w = (word - 1) as u32;
        docs[doc - 1].extend(std::iter::repeat_n(w, count));
    }

    Corpus::from_documents(vocab_size, docs.into_iter().map(Document::new).collect())
}

/// Reads a vocabulary file (one word per line, line number = 1-based word id).
///
/// # Errors
///
/// Returns [`CorpusError::Io`] on read failures.
pub fn read_vocab<R: Read>(reader: R) -> Result<Vocabulary> {
    let reader = BufReader::new(reader);
    let mut vocab = Vocabulary::new();
    for line in reader.lines() {
        let line = line.map_err(CorpusError::Io)?;
        vocab.intern(line.trim());
    }
    Ok(vocab)
}

fn parse_header_line<I>(lines: &mut I, what: &str) -> Result<usize>
where
    I: Iterator<Item = (usize, std::io::Result<String>)>,
{
    match lines.next() {
        Some((idx, Ok(line))) => line.trim().parse().map_err(|_| CorpusError::ParseError {
            line: idx + 1,
            detail: format!("expected {what}, got {line:?}"),
        }),
        Some((_, Err(e))) => Err(CorpusError::Io(e)),
        None => Err(CorpusError::ParseError {
            line: 0,
            detail: format!("missing header line for {what}"),
        }),
    }
}

fn next_field<'a, I>(parts: &mut I, line_idx: usize, what: &str) -> Result<usize>
where
    I: Iterator<Item = &'a str>,
{
    parts
        .next()
        .ok_or_else(|| CorpusError::ParseError {
            line: line_idx + 1,
            detail: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| CorpusError::ParseError {
            line: line_idx + 1,
            detail: format!("invalid {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "3\n5\n6\n1 1 1\n1 2 1\n2 3 2\n2 4 1\n2 1 1\n3 5 2\n";

    #[test]
    fn parses_valid_corpus() {
        let corpus = read_bag_of_words(SAMPLE.as_bytes()).unwrap();
        assert_eq!(corpus.n_docs(), 3);
        assert_eq!(corpus.vocab_size(), 5);
        assert_eq!(corpus.n_tokens(), 8);
        assert_eq!(corpus.document(1).len(), 4);
        // Doc 3 has two tokens of word id 4 (0-based).
        assert_eq!(corpus.document(2).words(), &[4, 4]);
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let bad_doc = "1\n5\n1\n2 1 1\n";
        assert!(read_bag_of_words(bad_doc.as_bytes()).is_err());
        let bad_word = "1\n5\n1\n1 6 1\n";
        assert!(read_bag_of_words(bad_word.as_bytes()).is_err());
        let bad_header = "x\n5\n1\n";
        assert!(read_bag_of_words(bad_header.as_bytes()).is_err());
        let missing_field = "1\n5\n1\n1 1\n";
        assert!(read_bag_of_words(missing_field.as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let with_blank = "1\n2\n1\n\n1 1 3\n\n";
        let corpus = read_bag_of_words(with_blank.as_bytes()).unwrap();
        assert_eq!(corpus.n_tokens(), 3);
    }

    #[test]
    fn vocab_roundtrip() {
        let vocab = read_vocab("apple\norange\niPhone\n".as_bytes()).unwrap();
        assert_eq!(vocab.len(), 3);
        assert_eq!(vocab.id("orange"), Some(1));
    }

    #[test]
    fn empty_input_fails_gracefully() {
        assert!(read_bag_of_words("".as_bytes()).is_err());
    }
}
