//! Token-list layout: chunking and ordering (PDOW, §3.1).
//!
//! The token list and the document–topic matrix grow with the corpus and
//! cannot be assumed to fit in GPU memory, so they are partitioned **by
//! document** into chunks that stream through the device (§3.1.2). Within a
//! chunk, the paper orders tokens **by word** so a block can stage the current
//! word's `B̂_v` row in shared memory and reuse it for every token of that word
//! (§3.1.3) — the combination is the PDOW layout (§3.1.4). The doc-major
//! ordering used by earlier GPU systems is retained as the `G0` baseline.
//!
//! Because a chunk's document ids never change between iterations, the
//! permutation that groups its tokens back by document (needed by the SSC
//! count rebuild, §3.3) is precomputed here once.

use rand::Rng;
use saber_corpus::Corpus;
use saber_sparse::radix::stable_sort_permutation;

use crate::config::TokenOrder;

/// A contiguous run of tokens within a chunk sharing the same key
/// (word id for word-major order, local document id for doc-major order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The shared key (word id or local document id).
    pub key: u32,
    /// First token index of the run.
    pub start: usize,
    /// One past the last token index of the run.
    pub end: usize,
}

impl Segment {
    /// Number of tokens in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` for an empty segment.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One streamed chunk: all tokens of a contiguous range of documents, stored
/// in the configured order, plus the precomputed structures the kernels need.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Global id of the first document in the chunk.
    pub doc_start: usize,
    /// Number of documents covered by the chunk.
    pub n_docs: usize,
    /// Token ordering of this chunk.
    pub order: TokenOrder,
    /// Word id per token.
    pub word_ids: Vec<u32>,
    /// Local document id (0-based within the chunk) per token.
    pub local_doc_ids: Vec<u32>,
    /// Current topic assignment per token.
    pub topics: Vec<u32>,
    /// Contiguous same-key runs (words for word-major, documents for
    /// doc-major), in processing order.
    pub segments: Vec<Segment>,
    /// For every token, its destination position when the chunk is stably
    /// regrouped by document (the SSC "pre-processed pointer array").
    pub doc_shuffle: Vec<usize>,
    /// Number of tokens per local document.
    pub doc_token_counts: Vec<u32>,
}

impl Chunk {
    /// Number of tokens in the chunk.
    pub fn n_tokens(&self) -> usize {
        self.word_ids.len()
    }

    /// Host↔device bytes for the token payload (word id + topic per token, as
    /// in Table 2's 8-bytes-per-token accounting).
    pub(crate) fn token_bytes(&self) -> u64 {
        self.n_tokens() as u64 * 8
    }

    /// Assigns every token a uniformly random topic in `[0, n_topics)`.
    pub fn randomize_topics<R: Rng + ?Sized>(&mut self, n_topics: usize, rng: &mut R) {
        assert!(n_topics > 0, "n_topics must be positive");
        for t in &mut self.topics {
            *t = rng.gen_range(0..n_topics) as u32;
        }
    }

    /// Iterator over `(word, local_doc, topic)` triples in storage order.
    pub fn iter_tokens(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.n_tokens()).map(move |i| (self.word_ids[i], self.local_doc_ids[i], self.topics[i]))
    }

    /// Exclusive prefix offsets of [`Chunk::doc_token_counts`]: token ranges of
    /// each local document after the doc shuffle.
    pub fn doc_offsets(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_docs + 1);
        let mut acc = 0usize;
        out.push(0);
        for &c in &self.doc_token_counts {
            acc += c as usize;
            out.push(acc);
        }
        out
    }
}

/// Partitions the corpus into `n_chunks` document ranges with roughly equal
/// token counts and lays each range out in the requested order.
///
/// With [`TokenOrder::WordMajor`] and `sort_words_by_frequency = true` the
/// segments of each chunk are ordered by decreasing token count, the paper's
/// block-level load-balancing heuristic (§3.4).
///
/// # Panics
///
/// Panics if `n_chunks == 0`.
pub fn build_chunks(
    corpus: &Corpus,
    n_chunks: usize,
    order: TokenOrder,
    sort_words_by_frequency: bool,
) -> Vec<Chunk> {
    assert!(n_chunks > 0, "n_chunks must be positive");
    let ranges = partition_documents(corpus, n_chunks);
    ranges
        .into_iter()
        .map(|(start, end)| build_chunk(corpus, start, end, order, sort_words_by_frequency))
        .collect()
}

/// Splits documents into at most `n_chunks` contiguous ranges with roughly
/// equal token counts. Returns `(start, end)` document-id pairs; empty ranges
/// are dropped, so fewer chunks may be returned for tiny corpora.
pub(crate) fn partition_documents(corpus: &Corpus, n_chunks: usize) -> Vec<(usize, usize)> {
    assert!(n_chunks > 0, "n_chunks must be positive");
    let total = corpus.n_tokens();
    if corpus.n_docs() == 0 || total == 0 {
        return vec![];
    }
    let target = (total as f64 / n_chunks as f64).max(1.0);
    let mut ranges = Vec::with_capacity(n_chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (d, doc) in corpus.documents().iter().enumerate() {
        acc += doc.len() as u64;
        let chunks_done = ranges.len();
        // Close the range once it reaches its share, unless it is the last
        // allowed chunk (which absorbs the remainder).
        if acc as f64 >= target && chunks_done + 1 < n_chunks {
            ranges.push((start, d + 1));
            start = d + 1;
            acc = 0;
        }
    }
    if start < corpus.n_docs() {
        ranges.push((start, corpus.n_docs()));
    }
    ranges.retain(|(s, e)| e > s);
    ranges
}

fn build_chunk(
    corpus: &Corpus,
    doc_start: usize,
    doc_end: usize,
    order: TokenOrder,
    sort_words_by_frequency: bool,
) -> Chunk {
    let n_docs = doc_end - doc_start;
    // Gather tokens (word, local doc).
    let mut tokens: Vec<(u32, u32)> = Vec::new();
    for d in doc_start..doc_end {
        for &w in corpus.document(d).words() {
            tokens.push((w, (d - doc_start) as u32));
        }
    }

    match order {
        TokenOrder::DocMajor => {
            // Already grouped by document because we gathered doc by doc.
        }
        TokenOrder::WordMajor => {
            tokens.sort_by_key(|&(w, d)| (w, d));
        }
    }

    let mut word_ids: Vec<u32> = tokens.iter().map(|&(w, _)| w).collect();
    let mut local_doc_ids: Vec<u32> = tokens.iter().map(|&(_, d)| d).collect();

    // Build segments over the ordering key.
    let key_of = |i: usize| match order {
        TokenOrder::DocMajor => local_doc_ids[i],
        TokenOrder::WordMajor => word_ids[i],
    };
    let mut segments = Vec::new();
    let mut i = 0usize;
    while i < word_ids.len() {
        let key = key_of(i);
        let mut j = i + 1;
        while j < word_ids.len() && key_of(j) == key {
            j += 1;
        }
        segments.push(Segment {
            key,
            start: i,
            end: j,
        });
        i = j;
    }

    if order == TokenOrder::WordMajor && sort_words_by_frequency {
        // Process heavy words first (§3.4). Reorder the tokens segment by
        // segment so that storage order matches processing order.
        segments.sort_by_key(|s| std::cmp::Reverse(s.len()));
        let mut new_word_ids = Vec::with_capacity(word_ids.len());
        let mut new_local_docs = Vec::with_capacity(local_doc_ids.len());
        let mut new_segments = Vec::with_capacity(segments.len());
        for seg in &segments {
            let start = new_word_ids.len();
            new_word_ids.extend_from_slice(&word_ids[seg.start..seg.end]);
            new_local_docs.extend_from_slice(&local_doc_ids[seg.start..seg.end]);
            new_segments.push(Segment {
                key: seg.key,
                start,
                end: new_word_ids.len(),
            });
        }
        word_ids = new_word_ids;
        local_doc_ids = new_local_docs;
        segments = new_segments;
    }

    // Precompute the doc-regrouping permutation and per-document counts.
    let doc_shuffle = stable_sort_permutation(&local_doc_ids);
    let mut doc_token_counts = vec![0u32; n_docs];
    for &d in &local_doc_ids {
        doc_token_counts[d as usize] += 1;
    }

    let n_tokens = word_ids.len();
    Chunk {
        doc_start,
        n_docs,
        order,
        word_ids,
        local_doc_ids,
        topics: vec![0; n_tokens],
        segments,
        doc_shuffle,
        doc_token_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_corpus::Document;

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
    fn partition_covers_all_documents_without_overlap() {
        let corpus = SyntheticSpec::small_test().generate(0);
        for n in [1, 2, 3, 7, 100] {
            let ranges = partition_documents(&corpus, n);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= n);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, corpus.n_docs());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
        }
    }

    #[test]
    fn partition_balances_tokens() {
        let corpus = SyntheticSpec {
            n_docs: 400,
            ..SyntheticSpec::small_test()
        }
        .generate(1);
        let ranges = partition_documents(&corpus, 4);
        assert_eq!(ranges.len(), 4);
        let sizes: Vec<u64> = ranges
            .iter()
            .map(|&(s, e)| (s..e).map(|d| corpus.document(d).len() as u64).sum())
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.6,
            "chunk token counts too imbalanced: {sizes:?}"
        );
    }

    #[test]
    fn chunks_preserve_token_multisets() {
        let corpus = SyntheticSpec::small_test().generate(2);
        for order in [TokenOrder::DocMajor, TokenOrder::WordMajor] {
            let chunks = build_chunks(&corpus, 3, order, true);
            let total: usize = chunks.iter().map(|c| c.n_tokens()).sum();
            assert_eq!(total as u64, corpus.n_tokens());
            // Per-word frequencies across all chunks must match the corpus.
            let mut freq = vec![0u64; corpus.vocab_size()];
            for c in &chunks {
                for &w in &c.word_ids {
                    freq[w as usize] += 1;
                }
            }
            assert_eq!(freq, corpus.word_frequencies());
        }
    }

    #[test]
    fn word_major_chunks_group_tokens_by_word() {
        let chunks = build_chunks(&fig1_corpus(), 1, TokenOrder::WordMajor, false);
        assert_eq!(chunks.len(), 1);
        let c = &chunks[0];
        // Each segment holds exactly one word's tokens.
        for seg in &c.segments {
            for i in seg.start..seg.end {
                assert_eq!(c.word_ids[i], seg.key);
            }
        }
        // Without frequency sorting, words appear in increasing id order.
        let keys: Vec<u32> = c.segments.iter().map(|s| s.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(c.segments.len(), 5);
    }

    #[test]
    fn frequency_sorting_puts_heavy_words_first() {
        let chunks = build_chunks(&fig1_corpus(), 1, TokenOrder::WordMajor, true);
        let c = &chunks[0];
        let lens: Vec<usize> = c.segments.iter().map(|s| s.len()).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(lens, sorted, "segments must be in decreasing size order");
        // Word 2 ("apple") has 3 tokens and must come first.
        assert_eq!(c.segments[0].key, 2);
        assert_eq!(c.segments[0].len(), 3);
    }

    #[test]
    fn doc_major_chunks_group_tokens_by_document() {
        let chunks = build_chunks(&fig1_corpus(), 1, TokenOrder::DocMajor, true);
        let c = &chunks[0];
        assert_eq!(c.segments.len(), 3);
        assert_eq!(c.segments[1].len(), 4);
        for seg in &c.segments {
            for i in seg.start..seg.end {
                assert_eq!(c.local_doc_ids[i], seg.key);
            }
        }
    }

    #[test]
    fn doc_shuffle_regroups_by_document() {
        let chunks = build_chunks(&fig1_corpus(), 1, TokenOrder::WordMajor, true);
        let c = &chunks[0];
        let mut regrouped = vec![u32::MAX; c.n_tokens()];
        for (i, &dest) in c.doc_shuffle.iter().enumerate() {
            regrouped[dest] = c.local_doc_ids[i];
        }
        // After the shuffle, local doc ids are non-decreasing.
        for w in regrouped.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(c.doc_token_counts, vec![2, 4, 2]);
        assert_eq!(c.doc_offsets(), vec![0, 2, 6, 8]);
    }

    #[test]
    fn multi_chunk_local_doc_ids_are_local() {
        let corpus = SyntheticSpec::small_test().generate(3);
        let chunks = build_chunks(&corpus, 4, TokenOrder::WordMajor, true);
        assert!(chunks.len() > 1);
        for c in &chunks {
            assert!(c.local_doc_ids.iter().all(|&d| (d as usize) < c.n_docs));
            assert_eq!(c.doc_token_counts.len(), c.n_docs);
        }
        // Chunks cover disjoint, contiguous document ranges.
        for w in chunks.windows(2) {
            assert_eq!(w[0].doc_start + w[0].n_docs, w[1].doc_start);
        }
    }

    #[test]
    fn randomize_topics_is_seeded() {
        let mut a = build_chunks(&fig1_corpus(), 1, TokenOrder::WordMajor, true);
        let mut b = a.clone();
        a[0].randomize_topics(10, &mut StdRng::seed_from_u64(5));
        b[0].randomize_topics(10, &mut StdRng::seed_from_u64(5));
        assert_eq!(a[0].topics, b[0].topics);
        assert!(a[0].topics.iter().all(|&k| k < 10));
    }

    #[test]
    fn empty_corpus_produces_no_chunks() {
        let corpus = Corpus::from_documents(4, vec![]).unwrap();
        assert!(build_chunks(&corpus, 3, TokenOrder::WordMajor, true).is_empty());
    }
}
