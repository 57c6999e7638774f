//! Table 2: memory consumption of the PubMed data structures for
//! K = 100 / 1 000 / 10 000.
//!
//! [`memory`] sizes every data structure with the memory model on the
//! paper's PubMed shape, and asks how many chunks a streamed run needs on
//! the GTX 1080.

use std::fmt;

use saber_core::memory::{format_bytes, MemoryEstimate, MemoryEstimator};
use saber_corpus::presets::DatasetPreset;
use saber_gpu_sim::DeviceSpec;

use crate::table_header;

/// Distinct topics per PubMed document: T/D = 90, nearly all distinct once
/// K is in the thousands.
const MEAN_DOC_TOPICS: f64 = 88.0;

/// The most chunks a streamed run may use.
const MAX_CHUNKS: usize = 64;

/// The Table 2 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    /// One estimate per topic count, K = 100 first.
    pub rows: Vec<(usize, MemoryEstimate)>,
    /// The device the chunk counts are for.
    pub device: String,
    /// The fewest chunks a streamed run needs on the device, per topic count
    /// (`None`: no chunking fits).
    pub min_chunks: Vec<(usize, Option<usize>)>,
}

/// Sizes the PubMed data structures at K = 100, 1 000 and 10 000, and the
/// chunking K = 1 000 and 5 000 need on the GTX 1080.
pub fn memory() -> Memory {
    let stats = DatasetPreset::PubMed.paper_stats();
    let est = MemoryEstimator {
        n_docs: stats.n_docs,
        n_tokens: stats.n_tokens,
        vocab_size: stats.vocab_size,
        mean_doc_topics: MEAN_DOC_TOPICS,
    };
    let gpu = DeviceSpec::gtx_1080();
    Memory {
        rows: [100, 1_000, 10_000]
            .into_iter()
            .map(|k| (k, est.estimate(k)))
            .collect(),
        min_chunks: [1_000, 5_000]
            .into_iter()
            .map(|k| (k, est.min_chunks_for_device(k, &gpu, MAX_CHUNKS)))
            .collect(),
        device: gpu.name,
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Table 2 — memory consumption, PubMed shape (V=141k, T=738M, D=8.2M)\n"
        )?;
        writeln!(f, "Paper's values: B,B̂ = 0.108/1.08/10.8 GB; L = 8.65 GB; A dense = 3.2/32/320 GB; A sparse = 5.8 GB\n")?;
        f.write_str(&table_header(
            "K | word-topic B,B̂ (dense) | token list L | doc-topic A (dense) | doc-topic A (CSR)",
        ))?;
        for (k, e) in &self.rows {
            writeln!(
                f,
                "| {k} | {} | {} | {} | {} |",
                format_bytes(e.word_topic_dense_bytes),
                format_bytes(e.token_list_bytes),
                format_bytes(e.doc_topic_dense_bytes),
                format_bytes(e.doc_topic_sparse_bytes),
            )?;
        }
        writeln!(f)?;
        let gpu = &self.device;
        for (k, chunks) in &self.min_chunks {
            match chunks {
                Some(p) => writeln!(
                    f,
                    "K = {k}: fits on the {gpu} when streamed in >= {p} chunks"
                )?,
                None => writeln!(f, "K = {k}: does not fit on the {gpu} at any chunking")?,
            }
        }
        writeln!(
            f,
            "\nReading: the CSR document-topic matrix is independent of K, which is what makes\n\
             thousands of topics feasible; the dense alternative grows to hundreds of GB."
        )
    }
}
