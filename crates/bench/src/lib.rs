//! Shared helpers for the binaries that regenerate every table and figure of
//! the SaberLDA paper.
//!
//! Each table/figure has a dedicated binary under `src/bin/`. The
//! design-choice ablation (doc-major vs. PDOW layout, alias vs. W-ary tree,
//! naive vs. SSC count) is `fig9_ablation`, which prints measured CPU
//! wall-clock beside simulated GPU time per phase and level; its table is
//! computed by [`fig9::ablation`]. Table 4's bandwidth utilisation is
//! computed by [`table4::bandwidth`]. `tests/paper_claims.rs` checks the rows
//! of both against the paper's claims.
//!
//! All binaries accept `--scale <N>`: the synthetic corpora are the paper's
//! datasets scaled down by `N` (default: a per-dataset value small enough to
//! run in minutes on a laptop CPU). `docs/BENCHMARKING.md` records the scale
//! and machine behind every number it quotes.

#![deny(missing_docs)]

pub mod fig9;
pub mod table4;

use saber_core::{SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::Corpus;

/// `--scale N`, `--iters N` and `--part C` overrides for a reproduction binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Corpus scale-down factor override (`None` = per-dataset default).
    pub scale: Option<u64>,
    /// Iteration-count override.
    pub iters: Option<usize>,
    /// Free-form part selector (e.g. `--part a` for Fig. 10).
    pub part: Option<char>,
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
            part: find("--part").and_then(|s| s.chars().next()),
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

/// Builds a SaberLDA trainer with the paper's hyper-parameters for `k` topics.
///
/// # Panics
///
/// Panics if the configuration is invalid (only possible for out-of-range
/// `k`).
pub(crate) fn saber_trainer(
    corpus: &Corpus,
    k: usize,
    iterations: usize,
    chunks: usize,
) -> SaberLda {
    let config = SaberLdaConfig::builder()
        .n_topics(k)
        .n_iterations(iterations)
        .n_chunks(chunks)
        .seed(42)
        .build()
        .expect("valid benchmark configuration");
    SaberLda::new(config, corpus).expect("benchmark corpus is non-empty")
}

/// Prints a Markdown-style table header with a separator line.
pub fn print_header(cells: &[&str]) {
    print!("{}", table_header(cells));
}

/// A Markdown-style table header and its separator line, each ending in a
/// newline.
pub(crate) fn table_header(cells: &[&str]) -> String {
    format!(
        "| {} |\n|{}|\n",
        cells.join(" | "),
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_corpus_is_generated_at_default_scale() {
        let args = BenchArgs {
            scale: None,
            iters: None,
            part: None,
        };
        let corpus = bench_corpus(DatasetPreset::NyTimes, &args, 1);
        assert!(corpus.n_tokens() > 0);
        let mut lda = saber_trainer(&corpus, 16, 1, 2);
        let report = lda.train();
        assert_eq!(report.iterations.len(), 1);
    }

    #[test]
    fn args_parse_overrides() {
        let parse =
            |line: &str| BenchArgs::parse(&line.split(' ').map(String::from).collect::<Vec<_>>());
        let none = BenchArgs {
            scale: None,
            iters: None,
            part: None,
        };
        assert_eq!(
            parse("fig10_tuning --scale 7 --iters 3 --part b"),
            BenchArgs {
                scale: Some(7),
                iters: Some(3),
                part: Some('b'),
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
            parse("fig9_ablation --verbose --part a --colour no"),
            BenchArgs {
                part: Some('a'),
                ..none
            }
        );
    }
}
