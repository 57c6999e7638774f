//! Shared helpers for the binaries that regenerate the SaberLDA paper's
//! tables and figures.
//!
//! Each table/figure has a dedicated binary under `src/bin/` that prints the
//! table a function of this crate returns: [`fig9::ablation`] (the G0 → G4
//! design-choice ablation, measured CPU wall-clock beside simulated GPU time
//! per phase and level), [`fig11::convergence`] (SaberLDA against the four
//! baselines), [`fig12::clueweb`] (the ClueWeb subset on two devices),
//! [`table1::capacity`] and [`table2::memory`] (the memory model on the
//! paper's corpus shapes), [`table4::bandwidth`] (the sampling kernel's
//! memory-level throughput) and [`kscale::scaling`] (throughput from
//! K = 1 000 to 10 000). `tests/paper_claims.rs` checks the rows of every
//! one against the paper's claims. Fig. 9 and the K-scaling table share one
//! row type, [`PhaseRow`], and print it through the same two tables.
//!
//! The binaries that train accept `--scale <N>` and `--iters <N>`: the
//! synthetic corpora are the paper's datasets scaled down by `N` (default: a
//! per-dataset value small enough to run in minutes on a laptop CPU).
//! `docs/BENCHMARKING.md` records the scale and machine behind every number
//! it quotes.

#![deny(missing_docs)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod fig11;
pub mod fig12;
pub mod fig9;
pub mod kscale;
pub mod table1;
pub mod table2;
pub mod table4;

use std::fmt;

use saber_core::{HeldOutEvaluator, LdaTrainer, PhaseTimes, PhaseWall, TrainingReport};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::Corpus;

/// `--scale N` and `--iters N` overrides for a reproduction binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Corpus scale-down factor override (`None` = per-dataset default).
    pub scale: Option<u64>,
    /// Iteration-count override.
    pub iters: Option<usize>,
}

impl BenchArgs {
    /// Parses the current process's arguments.
    pub fn from_env() -> Self {
        Self::parse(&std::env::args().collect::<Vec<_>>())
    }

    /// Parses `args`, ignoring unknown flags; a flag whose value is missing
    /// or does not parse is left at `None`.
    pub fn parse(args: &[String]) -> Self {
        let find = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        BenchArgs {
            scale: find("--scale").and_then(|s| s.parse().ok()),
            iters: find("--iters").and_then(|s| s.parse().ok()),
        }
    }
}

/// Generates the benchmark corpus for a dataset preset, honouring `--scale`.
pub fn bench_corpus(preset: DatasetPreset, args: &BenchArgs, seed: u64) -> Corpus {
    match args.scale {
        Some(scale) => preset.synthetic_spec(scale).generate(seed),
        None => preset.bench_spec().generate(seed),
    }
}

/// One system's convergence run: the held-out likelihood at each evaluated
/// iteration against the modelled seconds spent so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// The system's name.
    pub system: String,
    /// `(cumulative modelled seconds, held-out log-likelihood per token)` at
    /// every evaluated iteration.
    pub points: Vec<(f64, f64)>,
    /// Tokens sampled over the run.
    pub tokens: u64,
    /// Modelled seconds of the whole run.
    pub seconds: f64,
}

impl Curve {
    /// The likelihood of the last evaluation (−∞ for an empty curve).
    pub fn final_ll(&self) -> f64 {
        self.points.last().map_or(f64::NEG_INFINITY, |&(_, ll)| ll)
    }

    /// The modelled seconds at the first evaluation whose likelihood reaches
    /// `target`, if any does.
    pub fn time_to(&self, target: f64) -> Option<f64> {
        let reached = self.points.iter().find(|&&(_, ll)| ll >= target);
        reached.map(|&(t, _)| t)
    }

    /// Tokens over modelled seconds, in Mtoken/s (0 for a run that took no
    /// time).
    pub fn throughput_mtokens_per_s(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.tokens as f64 / self.seconds / 1e6
        }
    }
}

/// Steps `trainer` `iters` times and evaluates the held-out likelihood after
/// iteration 0, every `eval_every`-th iteration after it and the last one.
pub(crate) fn converge(
    trainer: &mut dyn LdaTrainer,
    evaluator: &HeldOutEvaluator,
    iters: usize,
    eval_every: usize,
) -> Curve {
    let mut curve = Curve {
        system: trainer.name(),
        points: Vec::new(),
        tokens: 0,
        seconds: 0.0,
    };
    for i in 0..iters {
        let step = trainer.step();
        curve.seconds += step.seconds;
        curve.tokens += step.tokens;
        if i % eval_every == 0 || i + 1 == iters {
            let ll = evaluator.log_likelihood(trainer.word_topic_prob(), trainer.alpha());
            curve.points.push((curve.seconds, ll));
        }
    }
    curve
}

/// One training run of a table that varies one setting, labelled by it
/// (the optimisation level in Fig. 9, the topic count in the K-scaling
/// table): the modelled and the measured time of each phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow<L> {
    /// The setting the run varies.
    pub label: L,
    /// Modelled device time per phase, summed over the iterations.
    pub simulated: PhaseTimes,
    /// Measured CPU wall-clock per phase, summed over the iterations.
    pub measured: PhaseWall,
    /// Measured CPU wall-clock of the whole `iterate()` calls.
    pub wall_s: f64,
}

impl<L> PhaseRow<L> {
    /// The row of a finished run.
    pub(crate) fn of_run(label: L, report: &TrainingReport) -> Self {
        PhaseRow {
            label,
            simulated: report.phase_totals(),
            measured: report.measured_totals(),
            wall_s: report.wall_seconds(),
        }
    }
}

/// Writes the modelled table of `rows` (the label, the four phases, their
/// total, then each row's extra cells) and below it the measured table of
/// the same runs. `label` and `extra` name the label column and the extra
/// ones, joined by `" | "`.
pub(crate) fn write_phases<L: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    (label, extra): (&str, &str),
    rows: &[(&PhaseRow<L>, String)],
) -> fmt::Result {
    f.write_str(&table_header(&format!(
        "{label} | sampling (s) | A update (s) | preprocessing (s) | transfer (s) | total (s) | \
         {extra}"
    )))?;
    for (row, extra) in rows {
        let (s, total) = (&row.simulated, row.simulated.total());
        let seconds = [s.sampling, s.a_update, s.preprocessing, s.transfer, total];
        let seconds: Vec<String> = seconds.iter().map(|x| format!("{x:.6}")).collect();
        writeln!(f, "| {} | {} | {extra} |", row.label, seconds.join(" | "))?;
    }
    writeln!(
        f,
        "\nMeasured on this CPU (wall-clock seconds, same runs):\n"
    )?;
    f.write_str(&table_header(&format!(
        "{label} | sampling | rebuild A | accumulate B | refresh B̂ | trees | iterate() total"
    )))?;
    for (row, _) in rows {
        let m = &row.measured;
        writeln!(
            f,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            row.label,
            m.sampling_s,
            m.rebuild_doc_topic_s,
            m.accumulate_word_topic_s,
            m.refresh_s,
            m.trees_s,
            row.wall_s
        )?;
    }
    Ok(())
}

/// A Markdown-style table header for `cells`, the column names joined by
/// `" | "`, and its separator line, each ending in a newline.
pub(crate) fn table_header(cells: &str) -> String {
    let separator = vec!["---"; cells.split(" | ").count()].join("|");
    format!("| {cells} |\n|{separator}|\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_core::{SaberLda, SaberLdaConfig};

    #[test]
    fn bench_corpus_is_generated_at_default_scale() {
        let args = BenchArgs {
            scale: None,
            iters: None,
        };
        let corpus = bench_corpus(DatasetPreset::NyTimes, &args, 1);
        assert!(corpus.n_tokens() > 0);
    }

    #[test]
    fn converge_evaluates_the_first_every_nth_and_the_last_iteration() {
        let args = BenchArgs {
            scale: Some(20_000),
            iters: None,
        };
        let corpus = bench_corpus(DatasetPreset::NyTimes, &args, 1);
        let evaluator = HeldOutEvaluator::new(&corpus, 2).unwrap();
        let config = SaberLdaConfig::builder().n_topics(16).build().unwrap();
        let mut lda = SaberLda::new(config, &corpus).unwrap();
        let curve = converge(&mut lda, &evaluator, 6, 2);
        // Iterations 0, 2, 4 and the last one, 5.
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.points[3].0, curve.seconds);
        assert!(curve.points.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(curve.tokens, 6 * corpus.n_tokens());
        assert!(curve.throughput_mtokens_per_s() > 0.0);
    }

    #[test]
    fn args_parse_overrides() {
        let parse =
            |line: &str| BenchArgs::parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
        let none = BenchArgs {
            scale: None,
            iters: None,
        };
        assert_eq!(
            parse("fig11_convergence --scale 7 --iters 3"),
            BenchArgs {
                scale: Some(7),
                iters: Some(3),
            }
        );
        // A flag with its value missing, and a value that is not a number.
        assert_eq!(parse("fig9_ablation --scale"), none);
        assert_eq!(
            parse("fig9_ablation --scale many --iters 2"),
            BenchArgs {
                iters: Some(2),
                ..none
            }
        );
        // Unknown flags are ignored, not rejected.
        assert_eq!(
            parse("fig9_ablation --verbose --iters 4 --colour no"),
            BenchArgs {
                iters: Some(4),
                ..none
            }
        );
    }
}
