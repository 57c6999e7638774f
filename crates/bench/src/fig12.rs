//! Fig. 12: SaberLDA on the ClueWeb subset — convergence at K = 5000 on the
//! GTX 1080 and the Titan X, and at K = 10 000 on the Titan X.
//!
//! [`clueweb`] trains the ClueWeb-like corpus once per configuration and
//! returns each run's [`Curve`], whose modelled throughput is the figure's
//! comparison.

use std::fmt;

use saber_core::{HeldOutEvaluator, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::stats::CorpusStats;
use saber_gpu_sim::DeviceSpec;

use crate::{bench_corpus, converge, BenchArgs, Curve};

/// Iterations between two held-out evaluations.
const EVAL_EVERY: usize = 3;

/// One configuration's run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClueWebRun {
    /// The configuration, as the figure labels it.
    pub label: &'static str,
    /// Topics of the run.
    pub k: usize,
    /// The run's likelihood curve and modelled time.
    pub curve: Curve,
}

/// The Fig. 12 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ClueWeb {
    /// The scaled corpus.
    pub corpus: CorpusStats,
    /// GTX 1080 at K = 5000, Titan X at K = 5000, Titan X at K = 10 000.
    pub runs: Vec<ClueWebRun>,
}

/// Trains the ClueWeb-like corpus (`--scale` honoured, 12 iterations unless
/// `--iters` says otherwise) in each of the figure's three configurations.
pub fn clueweb(args: &BenchArgs) -> ClueWeb {
    let corpus = bench_corpus(DatasetPreset::ClueWeb, args, 23);
    let iters = args.iters.unwrap_or(12);
    let evaluator = HeldOutEvaluator::new(&corpus, 3).expect("split");
    let configurations: [(&str, DeviceSpec, usize); 3] = [
        ("GTX 1080, K=5000", DeviceSpec::gtx_1080(), 5000),
        ("Titan X,  K=5000", DeviceSpec::titan_x_maxwell(), 5000),
        ("Titan X,  K=10000", DeviceSpec::titan_x_maxwell(), 10_000),
    ];
    let runs = configurations
        .into_iter()
        .map(|(label, device, k)| {
            let config = SaberLdaConfig::builder()
                .n_topics(k)
                .n_iterations(iters)
                .n_chunks(4)
                .device(device)
                .seed(2)
                .build()
                .expect("config");
            let mut lda = SaberLda::new(config, &corpus).expect("corpus");
            let curve = converge(&mut lda, &evaluator, iters, EVAL_EVERY);
            ClueWebRun { label, k, curve }
        })
        .collect();
    ClueWeb {
        corpus: CorpusStats::of(&corpus),
        runs,
    }
}

impl fmt::Display for ClueWeb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Fig. 12 — ClueWeb-subset convergence (scaled corpus)")?;
        let c = &self.corpus;
        writeln!(
            f,
            "corpus: D={} T={} V={}\n",
            c.n_docs, c.n_tokens, c.vocab_size
        )?;
        writeln!(
            f,
            "Paper's result: convergence in ~5 hours on both cards at K=5000 (135 Mtoken/s on the\n\
             GTX 1080, 116 Mtoken/s on the Titan X) and at K=10000 on the Titan X (92 Mtoken/s).\n"
        )?;
        for run in &self.runs {
            writeln!(f, "## {}", run.label)?;
            for (t, ll) in &run.curve.points {
                writeln!(f, "  t = {t:>10.3}s   LL/token = {ll:.4}")?;
            }
            let rate = run.curve.throughput_mtokens_per_s();
            writeln!(f, "  throughput: {rate:.1} Mtoken/s (modelled)\n")?;
        }
        writeln!(
            f,
            "Expected shape: the GTX 1080 is modestly faster than the Titan X at equal K; doubling\n\
             K to 10,000 costs well under 2x throughput because the sampler is O(K_d)."
        )
    }
}
