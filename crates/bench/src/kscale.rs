//! The paper's K-scaling claim: throughput from K = 1 000 to K = 10 000.
//!
//! The paper reports that SaberLDA loses only ≈ 17 % of its throughput when
//! the number of topics grows from 1 000 to 10 000, because the sampler's
//! per-token cost is `O(K_d)`, not `O(K)`. [`scaling`] trains the
//! NYTimes-like corpus at each K of [`TOPICS`] and returns one [`KScaleRow`]
//! per K: the modelled and measured phases (Fig. 9's [`PhaseRow`], labelled
//! by K), the modelled throughput, and the `B̂` elements the M-step's
//! preprocessing writes per sweep. The last is the last iteration's
//! [`IterationStats::preprocessed_elements`](saber_core::IterationStats::preprocessed_elements):
//! `V·K` for the dense `B̂` the trainer rebuilds, the one per-sweep cost
//! that grows with K whatever the corpus.

use std::fmt;

use saber_core::{SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;

use crate::{bench_corpus, write_phases, BenchArgs, PhaseRow};

/// The topic counts of the table, smallest first.
pub const TOPICS: [usize; 4] = [1000, 2000, 4000, 10_000];

/// One topic count's training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KScaleRow {
    /// The run's phases, labelled by its topic count.
    pub phases: PhaseRow<usize>,
    /// Tokens over modelled seconds, in Mtoken/s.
    pub mtokens_per_s: f64,
    /// `B̂` elements one sweep's preprocessing writes.
    pub preprocessed_elements: usize,
}

/// The K-scaling table: one row per K of [`TOPICS`], in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct KScale {
    /// Vocabulary size of the corpus.
    pub vocab_size: usize,
    /// Iterations of every run.
    pub iters: usize,
    /// One row per topic count.
    pub rows: Vec<KScaleRow>,
}

impl KScale {
    /// The last row's modelled throughput as a share of the first's.
    pub fn retained(&self) -> f64 {
        let rate = |row: Option<&KScaleRow>| row.map_or(0.0, |row| row.mtokens_per_s);
        rate(self.rows.last()) / rate(self.rows.first())
    }
}

/// Trains the NYTimes-like corpus (`--scale` honoured, 10 iterations unless
/// `--iters` says otherwise) at every K of [`TOPICS`].
pub fn scaling(args: &BenchArgs) -> KScale {
    let corpus = bench_corpus(DatasetPreset::NyTimes, args, 3);
    let iters = args.iters.unwrap_or(10);
    let rows = TOPICS
        .into_iter()
        .map(|k| {
            let config = SaberLdaConfig::builder()
                .n_topics(k)
                .n_iterations(iters)
                .n_chunks(2)
                .seed(1)
                .build()
                .expect("valid config");
            let mut lda = SaberLda::new(config, &corpus).expect("non-empty corpus");
            let report = lda.train();
            let last = report.iterations.last();
            let preprocessed_elements = last.map_or(0, |i| i.preprocessed_elements);
            KScaleRow {
                phases: PhaseRow::of_run(k, &report),
                mtokens_per_s: report.mean_throughput_mtokens_per_s(),
                preprocessed_elements,
            }
        })
        .collect();
    KScale {
        vocab_size: corpus.vocab_size(),
        iters,
        rows,
    }
}

impl fmt::Display for KScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (v, iters) = (self.vocab_size, self.iters);
        writeln!(
            f,
            "# K-scaling — throughput against topics (NYTimes-like, V = {v}, {iters} iterations)\n\n\
             The paper retains 83 % of its throughput at K = 10 000; an O(K) sampler retains 10 %.\n"
        )?;
        let first = self.rows.first().map_or(0.0, |row| row.mtokens_per_s);
        let cells = |row: &KScaleRow| {
            let (rate, elements) = (row.mtokens_per_s, row.preprocessed_elements);
            format!("{rate:.1} | {:.0} % | {elements}", 100.0 * rate / first)
        };
        let rows: Vec<_> = self
            .rows
            .iter()
            .map(|row| (&row.phases, cells(row)))
            .collect();
        let extra = "Mtoken/s | retained | B̂ elements per sweep";
        write_phases(f, ("K", extra), &rows)
    }
}
