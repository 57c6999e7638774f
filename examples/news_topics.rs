//! News-archive topic modelling: the paper's motivating text-analysis
//! scenario (§1) on a scaled NYTimes-shaped corpus.
//!
//! Demonstrates the workflow a downstream user of a real corpus would follow:
//! load (or here, synthesise) the corpus, split train/held-out, train with a
//! larger topic count, inspect convergence and topic quality, and report the
//! per-phase time breakdown that Fig. 9 is made of.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example news_topics
//! ```

use saberlda::corpus::presets::DatasetPreset;
use saberlda::corpus::split::train_test_split;
use saberlda::{HeldOutEvaluator, SaberLda, SaberLdaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // NYTimes-shaped synthetic corpus, scaled ~3000x down from Table 3 so the
    // example finishes in seconds. Use `DatasetPreset::synthetic_spec(scale)`
    // with a smaller scale (or the UCI parser) for bigger runs.
    let spec = DatasetPreset::NyTimes.synthetic_spec(3_000);
    let corpus = spec.generate(11);
    println!(
        "NYTimes-like corpus: {}",
        saberlda::corpus::stats::CorpusStats::of(&corpus)
    );

    let split = train_test_split(&corpus, 0.1, 3)?;
    println!(
        "train: {} docs / {} tokens, held-out: {} docs",
        split.train.n_docs(),
        split.train.n_tokens(),
        split.test.n_docs()
    );

    let k = 200;
    let config = SaberLdaConfig::builder()
        .n_topics(k)
        .n_iterations(20)
        .n_chunks(3)
        .seed(1)
        .build()?;
    let evaluator = HeldOutEvaluator::new(&split.test, 5)?;
    let mut lda = SaberLda::new(config, &split.train)?;
    let report = lda.train_with_eval(&evaluator, 4);

    println!("\nconvergence (held-out log-likelihood per token):");
    for (t, ll) in report.convergence_curve() {
        println!("  {t:>8.3}s  {ll:.4}");
    }

    let phases = report.phase_totals();
    println!(
        "\nper-phase device time over {} iterations (cf. Fig. 9):",
        report.iterations.len()
    );
    println!("  sampling       {:>9.4}s", phases.sampling);
    println!("  A update       {:>9.4}s", phases.a_update);
    println!("  preprocessing  {:>9.4}s", phases.preprocessing);
    println!("  transfer       {:>9.4}s", phases.transfer);
    println!(
        "\nthroughput: {:.1} Mtoken/s on a simulated {}",
        report.mean_throughput_mtokens_per_s(),
        lda.config().device.name
    );

    // Topic coherence proxy: top words should concentrate probability.
    let mass: f32 = (0..k.min(5))
        .map(|topic| {
            lda.model()
                .top_words(topic, 10)
                .iter()
                .map(|&(_, p)| p)
                .sum::<f32>()
        })
        .sum::<f32>()
        / k.min(5) as f32;
    println!("mean probability mass of the top-10 words of the first 5 topics: {mass:.3}");
    Ok(())
}
