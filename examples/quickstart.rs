//! Quickstart: train SaberLDA on a small synthetic corpus, track its
//! held-out likelihood, and print the per-phase time and the discovered
//! topics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use saberlda::corpus::split::train_test_split;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::corpus::Vocabulary;
use saberlda::{HeldOutEvaluator, SaberLda, SaberLdaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic corpus with planted topic structure (stand-in for a real
    //    bag-of-words file; see `saberlda::corpus::uci` to load NYTimes/PubMed).
    let spec = SyntheticSpec {
        n_docs: 400,
        vocab_size: 1_000,
        mean_doc_len: 80.0,
        n_topics: 10,
        attach_vocabulary: true,
        ..SyntheticSpec::default()
    };
    let corpus = spec.generate(2024);
    // Hold out a tenth of the documents: the likelihood below is measured on
    // documents the trainer never sees.
    let split = train_test_split(&corpus, 0.1, 3)?;
    println!(
        "corpus: {} documents, {} tokens, vocabulary {}; {} held out",
        corpus.n_docs(),
        corpus.n_tokens(),
        corpus.vocab_size(),
        split.test.n_docs()
    );

    // 2. Configure SaberLDA: K topics, α, the paper's β = 0.01.
    let config = SaberLdaConfig::builder()
        .n_topics(10)
        .alpha(0.1)
        .n_iterations(30)
        .n_chunks(2)
        .seed(7)
        .build()?;

    // 3. Train, evaluating held-out likelihood every 5 iterations.
    let evaluator = HeldOutEvaluator::new(&split.test, 1)?;
    let mut lda = SaberLda::new(config, &split.train)?;
    let report = lda.train_with_eval(&evaluator, 5);

    println!(
        "\ntrained {} iterations, simulated device time {:.3}s, throughput {:.1} Mtoken/s",
        report.iterations.len(),
        report.total_seconds(),
        report.mean_throughput_mtokens_per_s()
    );
    for (t, ll) in report.convergence_curve() {
        println!("  t = {t:>8.3}s   held-out log-likelihood/token = {ll:.4}");
    }
    // The simulated device time by phase, the breakdown Fig. 9 is made of.
    let phases = report.phase_totals();
    println!(
        "phases: sampling {:.4}s, A update {:.4}s, preprocessing {:.4}s, transfer {:.4}s",
        phases.sampling, phases.a_update, phases.preprocessing, phases.transfer
    );

    // 4. Show the top words of the first few topics.
    let fallback = Vocabulary::synthetic(corpus.vocab_size());
    let vocab = corpus.vocabulary().unwrap_or(&fallback);
    println!("\ntop words per topic:");
    for k in 0..4 {
        let words: Vec<String> = lda
            .model()
            .top_words(k, 8)
            .into_iter()
            .map(|(w, _)| vocab.word(w).unwrap_or("?").to_string())
            .collect();
        println!("  topic {k}: {}", words.join(" "));
    }

    // 5. Persist the model for later reuse.
    let path = std::env::temp_dir().join("saberlda_quickstart_model.bin");
    saberlda::core::model_io::save_model_file(lda.model(), &path)?;
    println!("\nmodel saved to {}", path.display());
    Ok(())
}
