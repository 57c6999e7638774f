//! Fig. 11: convergence over time, NYTimes and PubMed shapes at K = 1000,
//! SaberLDA vs. the dense GPU baseline and the three CPU baselines.
//!
//! [`convergence`] trains every system on each dataset and returns one
//! [`Curve`] per system: `(cumulative modelled seconds, held-out
//! log-likelihood/token)` points. [`Convergence`]'s `Display` prints the
//! curves and the time each system needs to reach the target likelihood
//! (the paper's −8.0 / −7.3 thresholds do not transfer to scaled synthetic
//! corpora, so the target is set relative to the best likelihood observed,
//! [`DatasetConvergence::target`]).

use std::fmt;

use saber_baselines::{DenseGibbsLda, EscaCpuLda, FTreeLda, WarpLdaMh};
use saber_core::{HeldOutEvaluator, LdaTrainer, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::stats::CorpusStats;
use saber_gpu_sim::DeviceSpec;

use crate::{bench_corpus, converge, BenchArgs, Curve};

/// Topics of every run.
const TOPICS: usize = 1000;

/// Iterations between two held-out evaluations.
const EVAL_EVERY: usize = 4;

/// How far below the best final likelihood the target sits, so every system
/// that gets close is credited.
const TARGET_MARGIN: f64 = 0.02;

/// Every system's run on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConvergence {
    /// The paper dataset the corpus stands in for.
    pub preset: DatasetPreset,
    /// The scaled corpus.
    pub corpus: CorpusStats,
    /// SaberLDA first, then the dense GPU baseline, ESCA, F+LDA and WarpLDA.
    pub curves: Vec<Curve>,
}

impl DatasetConvergence {
    /// The target likelihood: the best final likelihood of any system,
    /// minus a small margin.
    pub fn target(&self) -> f64 {
        let finals = self.curves.iter().map(Curve::final_ll);
        finals.fold(f64::NEG_INFINITY, f64::max) - TARGET_MARGIN
    }
}

/// The Fig. 11 reproduction: NYTimes first, then PubMed.
#[derive(Debug, Clone, PartialEq)]
pub struct Convergence {
    /// Topics of every run.
    pub k: usize,
    /// Iterations of every run.
    pub iters: usize,
    /// One entry per dataset.
    pub datasets: Vec<DatasetConvergence>,
}

/// Trains SaberLDA and the four baselines on the NYTimes- and PubMed-like
/// corpora (`--scale` honoured, 20 iterations unless `--iters` says
/// otherwise).
pub fn convergence(args: &BenchArgs) -> Convergence {
    let iters = args.iters.unwrap_or(20);
    let datasets = [DatasetPreset::NyTimes, DatasetPreset::PubMed]
        .into_iter()
        .map(|preset| run_dataset(preset, args, iters))
        .collect();
    Convergence {
        k: TOPICS,
        iters,
        datasets,
    }
}

fn run_dataset(preset: DatasetPreset, args: &BenchArgs, iters: usize) -> DatasetConvergence {
    let corpus = bench_corpus(preset, args, 13);
    let (k, gpu) = (TOPICS, DeviceSpec::gtx_1080());
    let (alpha, beta) = (50.0 / k as f32, 0.01f32);
    let evaluator = HeldOutEvaluator::new(&corpus, 5).expect("split");
    let saber_config = SaberLdaConfig::builder()
        .n_topics(k)
        .n_iterations(iters)
        .n_chunks(3)
        .seed(1)
        .build()
        .expect("config");
    let systems: Vec<Box<dyn LdaTrainer>> = vec![
        Box::new(SaberLda::new(saber_config, &corpus).expect("corpus")),
        Box::new(DenseGibbsLda::new(&corpus, k, alpha, beta, 1, gpu)),
        Box::new(EscaCpuLda::new(&corpus, k, alpha, beta, 1)),
        Box::new(FTreeLda::new(&corpus, k, alpha, beta, 1)),
        Box::new(WarpLdaMh::new(&corpus, k, alpha, beta, 1)),
    ];
    DatasetConvergence {
        preset,
        corpus: CorpusStats::of(&corpus),
        curves: systems
            .into_iter()
            .map(|mut system| converge(system.as_mut(), &evaluator, iters, EVAL_EVERY))
            .collect(),
    }
}

impl fmt::Display for Convergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (k, iters) = (self.k, self.iters);
        writeln!(f, "# Fig. 11 — convergence over time (K = {k})")?;
        writeln!(
            f,
            "Paper's result: SaberLDA ~5.6x faster than BIDMach, ~4x faster than ESCA (CPU), ~5.4x\n\
             faster than DMLC F+LDA; WarpLDA converges to a worse likelihood plateau."
        )?;
        for dataset in &self.datasets {
            let (preset, c) = (dataset.preset, &dataset.corpus);
            let (d, t, v) = (c.n_docs, c.n_tokens, c.vocab_size);
            writeln!(
                f,
                "\n## {preset} (scaled): D={d} T={t} V={v}  K={k}, {iters} iterations\n"
            )?;
            for curve in &dataset.curves {
                writeln!(f, "### {}", curve.system)?;
                for (t, ll) in &curve.points {
                    writeln!(f, "  t = {t:>10.3}s   LL/token = {ll:.4}")?;
                }
            }
            let target = dataset.target();
            writeln!(f, "\ntime to reach LL >= {target:.4}:")?;
            let saber_time = dataset.curves.first().and_then(|c| c.time_to(target));
            for curve in &dataset.curves {
                let name = &curve.system;
                match curve.time_to(target) {
                    Some(t) => {
                        let rel = saber_time.map(|s| t / s).unwrap_or(f64::NAN);
                        writeln!(f, "  {name:<34} {t:>10.3}s  ({rel:.1}x SaberLDA)")?;
                    }
                    None => writeln!(f, "  {name:<34} did not reach the target")?,
                }
            }
        }
        Ok(())
    }
}
