//! Count-matrix rebuilds (the M-step, §3.3).
//!
//! After every token of a chunk has been re-sampled, the sparse document–topic
//! matrix `A` is *rebuilt* rather than updated in place, because locating an
//! entry of a sparse matrix is hard to vectorise. The paper proposes
//! **shuffle-and-segmented-count (SSC)**: use a pre-computed pointer array to
//! regroup tokens by document (the document ids never change), then count each
//! document's topics with an in-shared-memory radix sort (Fig. 8). The naive
//! alternative — globally sorting every token by (document, topic) — is kept
//! as the `G0`–`G2` baseline of the ablation.
//!
//! The dense word–topic matrix `B` is updated with atomic adds
//! ([`accumulate_word_topic`]), which is cheap because the update volume is a
//! single counter per token.

use saber_gpu_sim::memory::AddressMap;
use saber_gpu_sim::MemoryTracker;
use saber_sparse::segcount::count_segment;
use saber_sparse::{CsrBuilder, CsrMatrix, DenseMatrix};

use crate::config::CountRebuild;
use crate::layout::Chunk;

/// Rebuilds the chunk's document–topic matrix from its current topic
/// assignments using the selected algorithm, charging the corresponding
/// memory traffic to `tracker`.
///
/// Both algorithms produce the same matrix; the property tests in this module
/// and the ablation benchmark rely on that.
pub fn rebuild_doc_topic(
    chunk: &Chunk,
    n_topics: usize,
    method: CountRebuild,
    tracker: &mut MemoryTracker,
) -> CsrMatrix<u32> {
    match method {
        CountRebuild::Ssc => rebuild_ssc(chunk, n_topics, tracker),
        CountRebuild::NaiveSort => rebuild_naive(chunk, n_topics, tracker),
    }
}

/// Shuffle-and-segmented-count (Fig. 8).
fn rebuild_ssc(chunk: &Chunk, n_topics: usize, tracker: &mut MemoryTracker) -> CsrMatrix<u32> {
    let map = AddressMap::default();
    let n = chunk.n_tokens();

    // Step 1: shuffle — place each token's topic at its precomputed position.
    // One streaming read of the topic array and one (scattered but
    // line-amortised, because destinations within a document are contiguous)
    // write per token.
    let mut grouped = vec![0u32; n];
    for (i, &dest) in chunk.doc_shuffle.iter().enumerate() {
        grouped[dest] = chunk.topics[i];
    }
    tracker.global_read(map.token_list, 4 * n as u64);
    tracker.global_write(map.token_list + (4 * n) as u64, 4 * n as u64);

    // Step 2+3: per-document segmented count in shared memory.
    let offsets = chunk.doc_offsets();
    let mut builder = CsrBuilder::with_capacity(n_topics, chunk.n_docs, chunk.n_docs * 8);
    for d in 0..chunk.n_docs {
        let seg = &grouped[offsets[d]..offsets[d + 1]];
        // Radix sort + adjacent difference + scatter, all in shared memory:
        // ~4 passes over the segment (Fig. 8), 4 bytes per token per pass.
        tracker.shared_read(4 * 4 * seg.len() as u64);
        tracker.shared_write(4 * 4 * seg.len() as u64);
        tracker.instructions(6 * seg.len().div_ceil(32) as u64 * 4);
        let counts = count_segment(seg);
        // Write the document's sparse row back to global memory.
        tracker.global_write(
            map.doc_topic + (offsets[d] * 8) as u64,
            8 * counts.len() as u64,
        );
        builder.push_row_unchecked(
            counts
                .keys
                .iter()
                .copied()
                .zip(counts.counts.iter().copied()),
        );
    }
    builder.build()
}

/// Naive rebuild: globally sort all (document, topic) pairs, then scan.
fn rebuild_naive(chunk: &Chunk, n_topics: usize, tracker: &mut MemoryTracker) -> CsrMatrix<u32> {
    let map = AddressMap::default();
    let n = chunk.n_tokens();

    // The global radix sort makes 4 passes (8-bit digits over the 32-bit
    // combined key), each reading and writing the full 8-byte (doc, topic)
    // pair array in global memory — this is what makes it expensive.
    let passes = 4u64;
    for p in 0..passes {
        tracker.global_read(map.token_list + p * 8 * n as u64, 8 * n as u64);
        tracker.global_write(map.token_list + (p + 1) * 8 * n as u64, 8 * n as u64);
    }
    tracker.instructions(8 * n as u64);

    let mut pairs: Vec<(u32, u32)> = chunk
        .local_doc_ids
        .iter()
        .copied()
        .zip(chunk.topics.iter().copied())
        .collect();
    pairs.sort_unstable();

    // Linear scan producing the CSR rows.
    tracker.global_read(map.token_list, 8 * n as u64);
    let mut builder = CsrBuilder::with_capacity(n_topics, chunk.n_docs, chunk.n_docs * 8);
    let mut idx = 0usize;
    for d in 0..chunk.n_docs as u32 {
        let mut entries: Vec<(u32, u32)> = Vec::new();
        while idx < pairs.len() && pairs[idx].0 == d {
            let topic = pairs[idx].1;
            let mut count = 0u32;
            while idx < pairs.len() && pairs[idx].0 == d && pairs[idx].1 == topic {
                count += 1;
                idx += 1;
            }
            entries.push((topic, count));
        }
        tracker.global_write(map.doc_topic, 8 * entries.len() as u64);
        builder.push_row_unchecked(entries);
    }
    builder.build()
}

/// Adds every token of the chunk into the dense word–topic count matrix `B`
/// with atomic adds (the per-word update of §3.3). `B` must be `V × K`.
///
/// # Panics
///
/// Panics if a word or topic id exceeds the matrix dimensions.
pub fn accumulate_word_topic(
    chunk: &Chunk,
    word_topic: &mut DenseMatrix<u32>,
    tracker: &mut MemoryTracker,
) {
    let map = AddressMap::default();
    let k = word_topic.cols() as u64;
    // Runs of one word (whole segments in word-major order) share a row of B.
    let mut start = 0;
    for run in chunk.word_ids.chunk_by(|a, b| a == b) {
        let word = run[0];
        let row = word_topic.row_mut(word as usize);
        let row_addr = map.word_topic + u64::from(word) * k * 4;
        for &topic in &chunk.topics[start..start + run.len()] {
            row[topic as usize] += 1;
            tracker.atomic_add(row_addr + u64::from(topic) * 4, 4);
        }
        start += run.len();
    }
}

/// Reference rebuild used by tests: a dense histogram per document, converted
/// to CSR.
pub fn rebuild_reference(chunk: &Chunk, n_topics: usize) -> CsrMatrix<u32> {
    let mut dense = DenseMatrix::<u32>::zeros(chunk.n_docs, n_topics);
    for (_, d, topic) in chunk.iter_tokens() {
        dense[(d as usize, topic as usize)] += 1;
    }
    CsrMatrix::from_dense(&dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TokenOrder;
    use crate::layout::build_chunks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saber_corpus::synthetic::SyntheticSpec;

    fn test_chunks(order: TokenOrder, seed: u64) -> Vec<Chunk> {
        let corpus = SyntheticSpec::small_test().generate(seed);
        let mut chunks = build_chunks(&corpus, 3, order, true);
        let mut rng = StdRng::seed_from_u64(seed);
        for c in &mut chunks {
            c.randomize_topics(12, &mut rng);
        }
        chunks
    }

    #[test]
    fn ssc_matches_reference_for_word_major() {
        for chunk in test_chunks(TokenOrder::WordMajor, 1) {
            let mut tracker = MemoryTracker::new(1 << 20);
            let a = rebuild_doc_topic(&chunk, 12, CountRebuild::Ssc, &mut tracker);
            assert_eq!(a, rebuild_reference(&chunk, 12));
            assert!(tracker.stats().dram_bytes() > 0);
        }
    }

    #[test]
    fn naive_matches_reference_for_both_orders() {
        for order in [TokenOrder::DocMajor, TokenOrder::WordMajor] {
            for chunk in test_chunks(order, 2) {
                let mut tracker = MemoryTracker::new(1 << 20);
                let a = rebuild_doc_topic(&chunk, 12, CountRebuild::NaiveSort, &mut tracker);
                assert_eq!(a, rebuild_reference(&chunk, 12));
            }
        }
    }

    #[test]
    fn ssc_and_naive_agree() {
        for chunk in test_chunks(TokenOrder::WordMajor, 3) {
            let mut t1 = MemoryTracker::new(1 << 20);
            let mut t2 = MemoryTracker::new(1 << 20);
            let ssc = rebuild_doc_topic(&chunk, 12, CountRebuild::Ssc, &mut t1);
            let naive = rebuild_doc_topic(&chunk, 12, CountRebuild::NaiveSort, &mut t2);
            assert_eq!(ssc, naive);
        }
    }

    #[test]
    fn ssc_moves_far_less_global_data_than_naive() {
        let corpus = SyntheticSpec {
            n_docs: 200,
            mean_doc_len: 120.0,
            ..SyntheticSpec::small_test()
        }
        .generate(4);
        let mut chunks = build_chunks(&corpus, 1, TokenOrder::WordMajor, true);
        chunks[0].randomize_topics(32, &mut StdRng::seed_from_u64(4));
        let chunk = &chunks[0];

        let mut t_ssc = MemoryTracker::new(1 << 22);
        rebuild_doc_topic(chunk, 32, CountRebuild::Ssc, &mut t_ssc);
        let mut t_naive = MemoryTracker::new(1 << 22);
        rebuild_doc_topic(chunk, 32, CountRebuild::NaiveSort, &mut t_naive);

        // The paper reports an 89% reduction in A-update time from SSC
        // (Fig. 9, G2→G3); the DRAM traffic ratio is the driver.
        let ratio = t_ssc.stats().dram_bytes() as f64 / t_naive.stats().dram_bytes() as f64;
        assert!(
            ratio < 0.35,
            "SSC/naive DRAM ratio {ratio} not small enough"
        );
    }

    #[test]
    fn row_totals_match_document_lengths() {
        for chunk in test_chunks(TokenOrder::WordMajor, 5) {
            let mut tracker = MemoryTracker::new(1 << 20);
            let a = rebuild_doc_topic(&chunk, 12, CountRebuild::Ssc, &mut tracker);
            assert_eq!(a.rows(), chunk.n_docs);
            for d in 0..chunk.n_docs {
                assert_eq!(
                    a.row(d).sum(),
                    chunk.doc_token_counts[d] as u64,
                    "document {d} row total mismatch"
                );
            }
        }
    }

    #[test]
    fn word_topic_accumulation_counts_every_token() {
        let chunks = test_chunks(TokenOrder::WordMajor, 6);
        let mut b = DenseMatrix::<u32>::zeros(200, 12);
        let mut tracker = MemoryTracker::new(1 << 20);
        let mut total = 0u64;
        for c in &chunks {
            accumulate_word_topic(c, &mut b, &mut tracker);
            total += c.n_tokens() as u64;
        }
        assert_eq!(b.total(), total);
        assert_eq!(tracker.stats().atomic_adds, total);
    }

    #[test]
    fn empty_documents_get_empty_rows() {
        use saber_corpus::{Corpus, Document};
        let corpus = Corpus::from_documents(
            4,
            vec![
                Document::new(vec![]),
                Document::new(vec![1, 2]),
                Document::new(vec![]),
            ],
        )
        .unwrap();
        let mut chunks = build_chunks(&corpus, 1, TokenOrder::WordMajor, true);
        chunks[0].randomize_topics(3, &mut StdRng::seed_from_u64(0));
        let mut tracker = MemoryTracker::new(1 << 20);
        let a = rebuild_doc_topic(&chunks[0], 3, CountRebuild::Ssc, &mut tracker);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row_nnz(0), 0);
        assert_eq!(a.row_nnz(2), 0);
        assert_eq!(a.row(1).sum(), 2);
    }
}
