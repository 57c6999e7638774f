//! Memory estimation (Tables 1 and 2 of the paper).
//!
//! Table 2 lists the footprint of each data structure on the PubMed dataset
//! for K = 100, 1 000 and 10 000 topics, motivating the design: the dense
//! word–topic matrices must live on the device, the token list and the
//! document–topic matrix must stream, and the CSR representation of the
//! document–topic matrix saves an order of magnitude over dense storage once
//! K reaches the thousands. Table 1 compares the maximum problem sizes of
//! prior GPU systems, which kept *everything* dense and resident.

use saber_gpu_sim::DeviceSpec;

/// Byte sizes of every LDA data structure for a corpus/model shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Dense word–topic count matrix `B` plus probability matrix `B̂`
    /// (`2 · V · K · 4` bytes).
    pub word_topic_dense_bytes: u64,
    /// Token list `L` (8 bytes per token: word id + topic).
    pub token_list_bytes: u64,
    /// Document–topic matrix stored dense (`D · K · 4` bytes).
    pub doc_topic_dense_bytes: u64,
    /// Document–topic matrix stored CSR (≈ 8 bytes per non-zero plus row
    /// pointers).
    pub doc_topic_sparse_bytes: u64,
}

/// Estimates data-structure sizes for a corpus of `n_docs` documents,
/// `n_tokens` tokens and `vocab_size` words trained with `n_topics` topics.
///
/// `mean_doc_topics` is the expected number of distinct topics per document
/// (`K_d`); the paper's corpora have `K_d ≈ min(doc length, K)` but far
/// smaller than `K` once `K` is in the thousands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimator {
    /// Number of documents `D`.
    pub n_docs: u64,
    /// Number of tokens `T`.
    pub n_tokens: u64,
    /// Vocabulary size `V`.
    pub vocab_size: u64,
    /// Expected distinct topics per document `K_d`.
    pub mean_doc_topics: f64,
}

impl MemoryEstimator {
    /// Estimator for a corpus shape, deriving `K_d` as
    /// `min(tokens-per-document, K) / 2` (documents rarely use every topic
    /// their length would allow).
    pub fn for_corpus_shape(n_docs: u64, n_tokens: u64, vocab_size: u64, n_topics: usize) -> Self {
        let tokens_per_doc = if n_docs == 0 {
            0.0
        } else {
            n_tokens as f64 / n_docs as f64
        };
        MemoryEstimator {
            n_docs,
            n_tokens,
            vocab_size,
            mean_doc_topics: (tokens_per_doc.min(n_topics as f64) / 2.0).max(1.0),
        }
    }

    /// Computes the estimate for `n_topics` topics.
    pub fn estimate(&self, n_topics: usize) -> MemoryEstimate {
        let k = n_topics as u64;
        let nnz = (self.n_docs as f64 * self.mean_doc_topics).ceil() as u64;
        MemoryEstimate {
            word_topic_dense_bytes: 2 * self.vocab_size * k * 4,
            token_list_bytes: self.n_tokens * 8,
            doc_topic_dense_bytes: self.n_docs * k * 4,
            doc_topic_sparse_bytes: nnz * 8 + self.n_docs * 8,
        }
    }

    /// The smallest number of chunks that fits on `device`, if any number up
    /// to `max_chunks` does (the paper minimises the chunk count subject to
    /// the memory budget, §3.1.4). A chunking fits when the *resident*
    /// working set of SaberLDA — the dense word–topic matrices plus one
    /// chunk's share of the token list and sparse document–topic matrix —
    /// does.
    pub fn min_chunks_for_device(
        &self,
        n_topics: usize,
        device: &DeviceSpec,
        max_chunks: usize,
    ) -> Option<usize> {
        let e = self.estimate(n_topics);
        let streamed = e.token_list_bytes + e.doc_topic_sparse_bytes;
        (1..=max_chunks)
            .find(|&p| e.word_topic_dense_bytes + streamed / p as u64 <= device.global_mem_bytes)
    }

    /// The largest number of topics (searched over powers of two times 1 000)
    /// a *dense* resident system — one that keeps `B`, `B̂`, the token list and
    /// a dense document–topic matrix on the device — can support. Used for the
    /// Table 1 comparison.
    pub fn max_topics_dense_resident(&self, device: &DeviceSpec) -> usize {
        let mut best = 0usize;
        for k in [
            16, 32, 64, 100, 128, 200, 256, 500, 512, 1000, 2000, 3000, 5000, 10_000, 20_000,
            32_768,
        ] {
            let e = self.estimate(k);
            let total = e.word_topic_dense_bytes + e.token_list_bytes + e.doc_topic_dense_bytes;
            if total <= device.global_mem_bytes {
                best = k;
            }
        }
        best
    }

    /// The largest number of topics SaberLDA can support on `device` when
    /// streaming in up to `max_chunks` chunks (bounded by the W-ary tree's
    /// `32³` topic limit).
    pub fn max_topics_streaming(&self, device: &DeviceSpec, max_chunks: usize) -> usize {
        let mut best = 0usize;
        for k in [
            100, 256, 500, 1000, 2000, 3000, 5000, 10_000, 16_384, 20_000, 32_768,
        ] {
            if self.min_chunks_for_device(k, device, max_chunks).is_some() {
                best = k;
            }
        }
        best
    }
}

/// Estimated resident footprint of a *serving* snapshot: the normalised `B̂`
/// (`V · K · 4` bytes, counts are not needed at inference time) plus the
/// per-word pre-processed sampling structures of [`crate::trees`]:
///
/// * W-ary tree — interior prefix levels of branching 32 on top of the `K`
///   leaf weights, `≈ K · 32/31` floats per word;
/// * alias table — one probability and one alias index per topic,
///   8 bytes per `(word, topic)` pair;
/// * Fenwick tree — `K` partial sums, 4 bytes per pair.
///
/// `saber-serve` uses this to size snapshots before publication, the same
/// way the Table 2 estimator sizes training structures.
pub fn snapshot_bytes(
    vocab_size: u64,
    n_topics: usize,
    preprocess: crate::config::PreprocessKind,
) -> u64 {
    use crate::config::PreprocessKind;
    let k = n_topics as u64;
    let bhat = vocab_size * k * 4;
    let per_word = match preprocess {
        PreprocessKind::WaryTree => k * 4 + (k * 4) / 31,
        PreprocessKind::AliasTable => k * 8,
        PreprocessKind::FenwickTree => k * 4,
    };
    bhat + vocab_size * per_word
}

/// Formats a byte count the way Table 2 does: decimal GB (10⁹ bytes) with
/// two decimals, or decimal MB for small values.
pub fn format_bytes(bytes: u64) -> String {
    let gb = bytes as f64 / 1e9;
    if gb >= 0.1 {
        format!("{gb:.2} GB")
    } else {
        format!("{:.1} MB", bytes as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_corpus::presets::DatasetPreset;

    /// The PubMed shape of Table 2: V = 141k, T = 738M, D = 8.2M.
    fn pubmed() -> MemoryEstimator {
        let stats = DatasetPreset::PubMed.paper_stats();
        MemoryEstimator {
            n_docs: stats.n_docs,
            n_tokens: stats.n_tokens,
            vocab_size: stats.vocab_size,
            mean_doc_topics: 88.0, // T/D = 90, nearly all distinct at K >= 1000
        }
    }

    #[test]
    fn min_chunks_grows_with_topics() {
        let est = pubmed();
        let gpu = DeviceSpec::gtx_1080();
        let p1k = est.min_chunks_for_device(1000, &gpu, 64).unwrap();
        let p5k = est.min_chunks_for_device(5_000, &gpu, 64).unwrap();
        assert!(p5k >= p1k);
        // A toy device cannot hold the dense matrices at all.
        assert!(est
            .min_chunks_for_device(10_000, &DeviceSpec::toy(1 << 30), 64)
            .is_none());
    }

    #[test]
    fn corpus_shape_constructor_derives_doc_topics() {
        let est = MemoryEstimator::for_corpus_shape(1000, 50_000, 5_000, 100);
        assert!(est.mean_doc_topics > 1.0 && est.mean_doc_topics <= 50.0);
        let est_small_k = MemoryEstimator::for_corpus_shape(1000, 50_000, 5_000, 4);
        assert!(est_small_k.mean_doc_topics <= 2.0);
    }

    #[test]
    fn snapshot_bytes_orders_sampler_kinds_sensibly() {
        use crate::config::PreprocessKind;
        let v = 141_000u64;
        let k = 1000usize;
        let wary = snapshot_bytes(v, k, PreprocessKind::WaryTree);
        let alias = snapshot_bytes(v, k, PreprocessKind::AliasTable);
        let fenwick = snapshot_bytes(v, k, PreprocessKind::FenwickTree);
        // All are B̂ plus at least one f32 per (word, topic).
        let bhat = v * k as u64 * 4;
        assert!(fenwick >= 2 * bhat);
        // Alias tables store 8 bytes per pair, the W-ary tree ~4.13.
        assert!(alias > wary && wary > fenwick);
        // The whole snapshot stays within a small multiple of B̂.
        assert!(alias <= 3 * bhat);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(1_000_000_000), "1.00 GB");
        assert_eq!(format_bytes(3_280_000_000), "3.28 GB");
        assert_eq!(format_bytes(10_000_000), "10.0 MB");
    }
}
