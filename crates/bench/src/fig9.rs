//! Fig. 9: impact of the optimisations G0 → G4.
//!
//! Trains the NYTimes-like corpus at K = 1000 for a fixed number of
//! iterations under each cumulative optimisation level. [`ablation`] returns
//! one [`PhaseRow`] per level: the per-phase modelled device time
//! (sampling, A update, preprocessing, transfer), i.e. the stacked bars of
//! Fig. 9, and beside it the wall-clock this CPU measured in each phase of
//! the same run. [`Ablation`]'s `Display` prints both tables, then the two
//! rankings side by side: per step G0→G1 … G3→G4, whether the simulator and
//! the CPU agree on which level is faster.

use std::fmt;

use saber_core::{OptLevel, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;

use crate::{bench_corpus, table_header, write_phases, BenchArgs, PhaseRow};

/// Topics of every level's run.
const TOPICS: usize = 1000;

/// The Fig. 9 table: one row per level, G0 first.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Topics of every run.
    pub k: usize,
    /// Iterations of every run.
    pub iters: usize,
    /// One row per level of [`OptLevel::ALL`], in that order.
    pub rows: Vec<PhaseRow<OptLevel>>,
}

/// Runs every optimisation level on the NYTimes-like corpus (`--scale`
/// honoured, 10 iterations unless `--iters` says otherwise).
pub fn ablation(args: &BenchArgs) -> Ablation {
    let corpus = bench_corpus(DatasetPreset::NyTimes, args, 5);
    let iters = args.iters.unwrap_or(10);
    let rows = OptLevel::ALL
        .into_iter()
        .map(|level| {
            let config = SaberLdaConfig::builder()
                .n_topics(TOPICS)
                .n_iterations(iters)
                .n_chunks(3)
                .seed(7)
                .opt_level(level)
                .build()
                .expect("valid config");
            let mut lda = SaberLda::new(config, &corpus).expect("non-empty corpus");
            PhaseRow::of_run(level, &lda.train())
        })
        .collect();
    Ablation {
        k: TOPICS,
        iters,
        rows,
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (k, iters) = (self.k, self.iters);
        writeln!(
            f,
            "# Fig. 9 — impact of optimisations (NYTimes-like, K = {k}, {iters} iterations)\n"
        )?;
        writeln!(f, "G0: doc-sorted + alias table + naive count, synchronous")?;
        writeln!(
            f,
            "G1: + PDOW   G2: + W-ary tree   G3: + SSC   G4: + async workers\n"
        )?;
        let g0 = self.rows.first().map_or(0.0, |row| row.simulated.total());
        let speedup = |total: f64| format!("{:.2}x", g0 / total);
        let rows: Vec<_> = (self.rows.iter())
            .map(|row| (row, speedup(row.simulated.total())))
            .collect();
        write_phases(f, ("level", "speedup vs G0"), &rows)?;

        writeln!(
            f,
            "\nSimulated against measured, step by step (speed-up of a whole iteration):\n"
        )?;
        f.write_str(&table_header(
            "step | simulated | measured iterate() | agreement",
        ))?;
        for (from, to) in self.rows.iter().zip(self.rows.iter().skip(1)) {
            let simulated = from.simulated.total() / to.simulated.total();
            let on_cpu = from.wall_s / to.wall_s;
            // Within 5 % of 1 is this CPU's run-to-run noise, not a direction.
            let direction = |ratio: f64| i32::from(ratio > 1.05) - i32::from(ratio < 0.95);
            let verdict = match direction(simulated) * direction(on_cpu) {
                -1 => "inversion",
                _ => "",
            };
            writeln!(
                f,
                "| {} -> {} | {simulated:.2}x | {on_cpu:.2}x | {verdict} |",
                from.label, to.label
            )?;
        }
        writeln!(
            f,
            "\nThe modelled totals must not rise from G0 to G4 (saber-bench's paper_claims test);\n\
             no measured number is judged. The measured sampling column overlaps the simulator's\n\
             accounting, which runs on a second thread beside the sampling loop, and the counting\n\
             of every chunk but the last, which runs beside the next chunk's sampling: the\n\
             measured rebuild-A and accumulate-B columns show the last chunk only. The simulated\n\
             columns are unchanged by either. The CPU loop computes one product chain per run of\n\
             adjacent tokens sharing (document, word), and such tokens are adjacent only in\n\
             word-major order: the measured G0 -> G1 gap is wider than the layouts alone would\n\
             make it, in the simulated direction. The simulated kernel shares nothing between\n\
             tokens at any level."
        )?;
        writeln!(
            f,
            "\nPaper's observations to compare against: PDOW cuts sampling ~40%; the W-ary tree removes\n\
             ~98% of preprocessing; SSC removes ~89% of the A-update; async removes ~12% of total;\n\
             G0 -> G4 overall speedup ~2.9x."
        )
    }
}
