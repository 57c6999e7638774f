//! Fig. 9: impact of the optimisations G0 → G4.
//!
//! Trains the NYTimes-like corpus at K = 1000 for a fixed number of
//! iterations under each cumulative optimisation level and prints the
//! per-phase time breakdown (sampling, A update, preprocessing, transfer),
//! i.e. the stacked bars of Fig. 9 — and, beside the modelled device time,
//! the wall-clock this CPU measured in each phase of the same run.

use saber_bench::{bench_corpus, print_header, BenchArgs};
use saber_core::{OptLevel, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;

fn main() {
    let args = BenchArgs::from_env();
    let corpus = bench_corpus(DatasetPreset::NyTimes, &args, 5);
    let iters = args.iters.unwrap_or(10);
    let k = 1000;
    println!("# Fig. 9 — impact of optimisations (NYTimes-like, K = {k}, {iters} iterations)\n");
    println!("G0: doc-sorted + alias table + naive count, synchronous");
    println!("G1: + PDOW   G2: + W-ary tree   G3: + SSC   G4: + async workers\n");
    print_header(&[
        "level",
        "sampling (s)",
        "A update (s)",
        "preprocessing (s)",
        "transfer (s)",
        "total (s)",
        "speedup vs G0",
    ]);

    let mut g0_total = None;
    let mut measured = Vec::new();
    for level in OptLevel::ALL {
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .n_iterations(iters)
            .n_chunks(3)
            .seed(7)
            .opt_level(level)
            .build()
            .expect("valid config");
        let mut lda = SaberLda::new(config, &corpus).expect("non-empty corpus");
        let report = lda.train();
        let p = report.phase_totals();
        let total = p.total();
        let g0 = *g0_total.get_or_insert(total);
        println!(
            "| {level} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.2}x |",
            p.sampling,
            p.a_update,
            p.preprocessing,
            p.transfer,
            total,
            g0 / total
        );
        measured.push((level, report.measured_totals(), report.wall_seconds()));
    }

    println!("\nMeasured on this CPU (wall-clock seconds, same runs):\n");
    print_header(&[
        "level",
        "sampling",
        "rebuild A",
        "accumulate B",
        "refresh B̂",
        "trees",
        "iterate() total",
    ]);
    for (level, m, wall) in measured {
        println!(
            "| {level} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            m.sampling_s,
            m.rebuild_doc_topic_s,
            m.accumulate_word_topic_s,
            m.refresh_s,
            m.trees_s,
            wall
        );
    }
    println!(
        "\nPaper's observations to compare against: PDOW cuts sampling ~40%; the W-ary tree removes\n\
         ~98% of preprocessing; SSC removes ~89% of the A-update; async removes ~12% of total;\n\
         G0 -> G4 overall speedup ~2.9x."
    );
}
