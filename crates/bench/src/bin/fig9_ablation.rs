//! Fig. 9: impact of the optimisations G0 → G4.
//!
//! Trains the NYTimes-like corpus at K = 1000 for a fixed number of
//! iterations under each cumulative optimisation level and prints the
//! per-phase time breakdown (sampling, A update, preprocessing, transfer),
//! i.e. the stacked bars of Fig. 9 — and, beside the modelled device time,
//! the wall-clock this CPU measured in each phase of the same run, then the
//! two rankings side by side: per step G0→G1 … G3→G4, whether the simulator
//! and the CPU agree on which level is faster.

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
        measured.push((
            level,
            total,
            report.measured_totals(),
            report.wall_seconds(),
        ));
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
    for (level, _, m, wall) in &measured {
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

    println!("\nSimulated against measured, step by step (speed-up of a whole iteration):\n");
    print_header(&["step", "simulated", "measured iterate()", "agreement"]);
    for ((from, sim_from, _, wall_from), (to, sim_to, _, wall_to)) in
        measured.iter().zip(&measured[1..])
    {
        let (simulated, on_cpu) = (sim_from / sim_to, wall_from / wall_to);
        // Within 5 % of 1 is this CPU's run-to-run noise, not a direction.
        let direction = |ratio: f64| i32::from(ratio > 1.05) - i32::from(ratio < 0.95);
        let verdict = match direction(simulated) * direction(on_cpu) {
            -1 => "inversion",
            _ => "",
        };
        println!("| {from} -> {to} | {simulated:.2}x | {on_cpu:.2}x | {verdict} |");
    }
    println!(
        "\nNo number here is judged. The CPU loop computes one product chain per run of adjacent\n\
         tokens sharing (document, word), and such tokens are adjacent only in word-major order:\n\
         the measured G0 -> G1 gap is wider than the layouts alone would make it, in the simulated\n\
         direction. The simulated kernel shares nothing between tokens at any level."
    );
    println!(
        "\nPaper's observations to compare against: PDOW cuts sampling ~40%; the W-ary tree removes\n\
         ~98% of preprocessing; SSC removes ~89% of the A-update; async removes ~12% of total;\n\
         G0 -> G4 overall speedup ~2.9x."
    );
}
