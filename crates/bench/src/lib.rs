//! Shared helpers for the binaries that regenerate the SaberLDA paper's
//! tables and figures.
//!
//! Each table/figure has a dedicated binary under `src/bin/` that prints the
//! table a function of this crate returns: [`fig9::ablation`] (the G0 → G4
//! design-choice ablation, measured CPU wall-clock beside simulated GPU time
//! per phase and level), [`fig11::convergence`] (SaberLDA against the four
//! baselines), [`fig12::clueweb`] (the ClueWeb subset on two devices),
//! [`table1::capacity`] and [`table2::memory`] (the memory model on the
//! paper's corpus shapes) and [`table4::bandwidth`] (the sampling kernel's
//! memory-level throughput). `tests/paper_claims.rs` checks the rows of
//! every one against the paper's claims.
//!
//! The binaries that train accept `--scale <N>` and `--iters <N>`: the
//! synthetic corpora are the paper's datasets scaled down by `N` (default: a
//! per-dataset value small enough to run in minutes on a laptop CPU).
//! `docs/BENCHMARKING.md` records the scale and machine behind every number
//! it quotes.

#![deny(missing_docs)]

pub mod fig11;
pub mod fig12;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table4;

use saber_core::{HeldOutEvaluator, LdaTrainer};
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
