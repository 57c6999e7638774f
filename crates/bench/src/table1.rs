//! Table 1: maximum problem sizes of GPU-based LDA systems.
//!
//! The paper's Table 1 contrasts the corpus/model sizes prior GPU systems
//! handled (K ≤ 256, T ≤ 100M) with SaberLDA (K = 10 000, T = 7.1B).
//! [`capacity`] recomputes the capacity limits from the memory model on the
//! paper's corpus shapes: prior systems keep everything dense and resident,
//! SaberLDA streams the token list and the CSR document–topic matrix.

use std::fmt;

use saber_core::memory::MemoryEstimator;
use saber_corpus::presets::DatasetPreset;
use saber_corpus::stats::PaperDatasetStats;
use saber_gpu_sim::DeviceSpec;

use crate::table_header;

/// Topics the estimators derive `K_d` for.
const TOPICS: usize = 10_000;

/// The most chunks a streamed run may use.
const MAX_CHUNKS: usize = 64;

/// One dataset's capacity on the GTX 1080.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityRow {
    /// The dataset's full-scale shape (Table 3).
    pub stats: PaperDatasetStats,
    /// The most topics a dense-resident design fits.
    pub dense_max_k: usize,
    /// The most topics SaberLDA's streaming design fits.
    pub streaming_max_k: usize,
}

/// The Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// One row per paper dataset, NYTimes first, all on the 8 GB GTX 1080.
    pub rows: Vec<CapacityRow>,
    /// The most topics SaberLDA streams for the ClueWeb subset on the 12 GB
    /// Titan X (the Fig. 12 configuration).
    pub clueweb_titan_x_max_k: usize,
}

fn estimator(stats: &PaperDatasetStats) -> MemoryEstimator {
    MemoryEstimator::for_corpus_shape(stats.n_docs, stats.n_tokens, stats.vocab_size, TOPICS)
}

/// Computes both capacity limits for every paper dataset on the GTX 1080,
/// and the streaming limit of the ClueWeb subset on the Titan X.
pub fn capacity() -> Capacity {
    let gpu = DeviceSpec::gtx_1080();
    let rows = DatasetPreset::ALL
        .into_iter()
        .map(|preset| {
            let stats = preset.paper_stats();
            let est = estimator(&stats);
            CapacityRow {
                stats,
                dense_max_k: est.max_topics_dense_resident(&gpu),
                streaming_max_k: est.max_topics_streaming(&gpu, MAX_CHUNKS),
            }
        })
        .collect();
    let clueweb = estimator(&DatasetPreset::ClueWeb.paper_stats());
    Capacity {
        rows,
        clueweb_titan_x_max_k: clueweb
            .max_topics_streaming(&DeviceSpec::titan_x_maxwell(), MAX_CHUNKS),
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Table 1 — problem sizes supported by GPU LDA systems\n"
        )?;
        writeln!(f, "Paper's reported rows (for reference):")?;
        writeln!(f, "  Yan et al.          D=300K  K=128  V=100K  T=100M")?;
        writeln!(f, "  BIDMach             D=300K  K=256  V=100K  T=100M")?;
        writeln!(f, "  Steele & Tristan    D=50K   K=20   V=40K   T=3M")?;
        writeln!(f, "  SaberLDA            D=19.4M K=10K  V=100K  T=7.1B\n")?;
        writeln!(
            f,
            "Recomputed capacity on an 8 GB GTX 1080 (dense-resident vs. streaming):\n"
        )?;
        f.write_str(&table_header(
            "dataset | D | T | V | max K (dense resident) | max K (SaberLDA streaming)",
        ))?;
        for row in &self.rows {
            let s = &row.stats;
            writeln!(
                f,
                "| {} | {} | {} | {} | {} | {} |",
                s.name, s.n_docs, s.n_tokens, s.vocab_size, row.dense_max_k, row.streaming_max_k
            )?;
        }
        writeln!(
            f,
            "\nClueWeb subset on the 12 GB Titan X (Fig. 12 configuration): max streaming K = {}",
            self.clueweb_titan_x_max_k
        )?;
        let dense: Vec<String> = self
            .rows
            .iter()
            .map(|row| format!("{} {}", row.stats.name, row.dense_max_k))
            .collect();
        let streaming = self.rows.iter().map(|row| row.streaming_max_k).min();
        writeln!(
            f,
            "\nReading: a dense-resident design (prior GPU systems) holds the D x K document-topic\n\
             matrix on the card, so its cap falls as D grows ({}).\n\
             SaberLDA's CSR + streaming design reaches at least {} topics on every dataset on the\n\
             same card, and {} for the ClueWeb subset on the Titan X.",
            dense.join(", "),
            streaming.unwrap_or(0),
            self.clueweb_titan_x_max_k
        )
    }
}
