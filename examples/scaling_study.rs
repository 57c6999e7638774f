//! Scaling study: throughput versus the number of topics.
//!
//! The paper's headline systems claim is that SaberLDA's throughput drops by
//! only ~17% when the number of topics grows from 1,000 to 10,000, because the
//! sparsity-aware sampler's per-token cost is `O(K_d)` rather than `O(K)`.
//! This example sweeps K on a fixed corpus for SaberLDA and for the dense
//! `O(K)` baseline, showing the qualitative difference.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use saberlda::corpus::presets::DatasetPreset;
use saberlda::{DenseGibbsLda, DeviceSpec, LdaTrainer, SaberLda, SaberLdaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = DatasetPreset::NyTimes.synthetic_spec(6_000).generate(3);
    println!(
        "corpus: {}",
        saberlda::corpus::stats::CorpusStats::of(&corpus)
    );
    println!(
        "\n{:>8} {:>22} {:>22}",
        "K", "SaberLDA (Mtoken/s)", "dense O(K) (Mtoken/s)"
    );

    let mut saber_tps = Vec::new();
    let mut dense_tps = Vec::new();
    let mut summaries = Vec::new();
    for k in [250usize, 500, 1000, 2000, 4000] {
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .n_iterations(3)
            .n_chunks(2)
            .seed(1)
            .build()?;
        let mut saber = SaberLda::new(config, &corpus)?;
        let report = saber.train();
        let saber_tp = report.mean_throughput_mtokens_per_s();
        summaries.push(format!("K = {k}: {}", report.summary()));

        let mut dense =
            DenseGibbsLda::new(&corpus, k, 50.0 / k as f32, 0.01, 1, DeviceSpec::gtx_1080());
        let mut dense_seconds = 0.0;
        let mut dense_tokens = 0u64;
        for _ in 0..2 {
            let out = dense.step();
            dense_seconds += out.seconds;
            dense_tokens += out.tokens;
        }
        let dense_tp = dense_tokens as f64 / dense_seconds / 1e6;

        saber_tps.push(saber_tp);
        dense_tps.push(dense_tp);
        println!("{k:>8} {saber_tp:>22.1} {dense_tp:>22.1}");
    }

    println!("\nSaberLDA, modelled device time beside wall-clock on this CPU:");
    for line in &summaries {
        println!("  {line}");
    }

    let retained = |tps: &[f64]| 100.0 * tps.last().unwrap() / tps.first().unwrap();
    println!(
        "\nthroughput retained across the 16x topic sweep: SaberLDA {:.0}%, dense baseline {:.0}%",
        retained(&saber_tps),
        retained(&dense_tps)
    );
    println!(
        "The paper reports SaberLDA losing only 17% of its throughput from K = 1,000 to 10,000,\n\
         while O(K) systems slow down roughly in proportion to K."
    );
    Ok(())
}
