//! The paper's claims, asserted on the rows of the reproduction tables at
//! the toy scale CI runs the binaries at. The K-scaling claims assert what
//! the cost model and the element counts fix; no wall-clock is asserted.
//!
//! Fig. 11 and Fig. 12 evaluate the held-out likelihood with the dense
//! fold-in, which takes minutes in a debug build; their tests run in release
//! only (`cargo test --release -p saber-bench --test paper_claims --
//! --include-ignored` runs every test here).

use std::sync::OnceLock;

use saber_bench::{fig11, fig12, fig9, kscale, table1, table2, table4, BenchArgs};

/// `--scale 2000 --iters 2`, the CI smoke scale.
const CI_SCALE: BenchArgs = BenchArgs {
    scale: Some(2000),
    iters: Some(2),
};

/// Fig. 11 at `--scale 20000 --iters 2`, computed once for all its tests.
fn fig11() -> &'static fig11::Convergence {
    static TABLE: OnceLock<fig11::Convergence> = OnceLock::new();
    TABLE.get_or_init(|| {
        fig11::convergence(&BenchArgs {
            scale: Some(20_000),
            iters: Some(2),
        })
    })
}

/// Fig. 12 at `--scale 1000000 --iters 2`, computed once for all its tests.
fn fig12() -> &'static fig12::ClueWeb {
    static TABLE: OnceLock<fig12::ClueWeb> = OnceLock::new();
    TABLE.get_or_init(|| {
        fig12::clueweb(&BenchArgs {
            scale: Some(1_000_000),
            iters: Some(2),
        })
    })
}

/// The K-scaling table at the CI scale, computed once for all its tests.
fn kscale() -> &'static kscale::KScale {
    static TABLE: OnceLock<kscale::KScale> = OnceLock::new();
    TABLE.get_or_init(|| kscale::scaling(&CI_SCALE))
}

/// Fig. 12's three runs: GTX 1080 at K = 5000, Titan X at K = 5000, Titan X
/// at K = 10 000.
fn fig12_runs() -> [&'static fig12::ClueWebRun; 3] {
    let table = fig12();
    match &table.runs[..] {
        [gtx, titan, titan_10k] => [gtx, titan, titan_10k],
        runs => panic!("{} runs\n{table}", runs.len()),
    }
}

/// Table 2's estimate at `k` topics.
fn table2_row(table: &table2::Memory, k: usize) -> saber_core::memory::MemoryEstimate {
    let row = table.rows.iter().find(|(row_k, _)| *row_k == k);
    row.unwrap_or_else(|| panic!("no K = {k} row\n{table}")).1
}

fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Fig. 9: each optimisation level G0 → G4 models a run no slower than the
/// level before it.
#[test]
fn fig9_modelled_totals_do_not_rise_from_g0_to_g4() {
    let table = fig9::ablation(&CI_SCALE);
    assert_eq!(table.rows.len(), 5);
    for (from, to) in table.rows.iter().zip(table.rows.iter().skip(1)) {
        let (before, after) = (from.simulated.total(), to.simulated.total());
        assert!(
            after <= before,
            "{} -> {}: modelled total {before} s -> {after} s\n{table}",
            from.label,
            to.label
        );
    }
}

/// K-scaling: one sweep's preprocessing rewrites the whole dense `B̂`, V·K
/// elements, at every K.
#[test]
fn kscale_preprocessing_writes_v_times_k_elements() {
    let table = kscale();
    let ks: Vec<usize> = table.rows.iter().map(|row| row.phases.label).collect();
    assert_eq!(ks, kscale::TOPICS, "{table}");
    for row in &table.rows {
        let k = row.phases.label;
        assert_eq!(row.preprocessed_elements, table.vocab_size * k, "{table}");
    }
}

/// K-scaling: more topics never model a cheaper sweep.
#[test]
fn kscale_modelled_total_does_not_fall_as_k_grows() {
    let table = kscale();
    for (from, to) in table.rows.iter().zip(table.rows.iter().skip(1)) {
        let (before, after) = (from.phases.simulated.total(), to.phases.simulated.total());
        assert!(
            after >= before,
            "K = {} -> {}: modelled total {before} s -> {after} s\n{table}",
            from.phases.label,
            to.phases.label
        );
    }
}

/// K-scaling: ten times the topics costs the sampling kernel less than
/// twice the modelled time, where an O(K) sampler would take ten times it.
#[test]
fn kscale_modelled_sampling_grows_less_than_2x_from_1000_to_10000_topics() {
    let table = kscale();
    let (first, last) = (&table.rows[0].phases, &table.rows[3].phases);
    let growth = last.simulated.sampling / first.simulated.sampling;
    assert!(growth < 2.0, "sampling grows {growth:.2}x\n{table}");
}

/// K-scaling: the modelled throughput at K = 10 000 keeps more than the
/// 10 % of K = 1 000's an O(K) sampler would keep. The paper keeps 83 %;
/// this scale does not (`docs/BENCHMARKING.md` has the numbers).
#[test]
fn kscale_keeps_more_throughput_than_an_o_k_sampler() {
    let table = kscale();
    assert!(table.retained() > 0.10, "{table}");
}

/// Fig. 11: on both datasets SaberLDA reaches the target likelihood, and
/// every baseline either reaches it later (modelled seconds) or never.
#[test]
#[cfg_attr(debug_assertions, ignore = "dense held-out fold-in: 115 s in debug")]
fn fig11_saberlda_reaches_the_target_before_every_baseline() {
    let table = fig11();
    assert_eq!(table.datasets.len(), 2);
    for dataset in &table.datasets {
        let target = dataset.target();
        let (saber, baselines) = dataset.curves.split_first().expect("five systems");
        let Some(saber_time) = saber.time_to(target) else {
            panic!("{}: SaberLDA misses {target}\n{table}", dataset.preset);
        };
        for baseline in baselines {
            if let Some(time) = baseline.time_to(target) {
                assert!(
                    time > saber_time,
                    "{}: {} reaches {target} in {time} s, SaberLDA in {saber_time} s\n{table}",
                    dataset.preset,
                    baseline.system
                );
            }
        }
    }
}

/// Fig. 11: WarpLDA converges to a worse likelihood than SaberLDA.
#[test]
#[cfg_attr(debug_assertions, ignore = "dense held-out fold-in: 115 s in debug")]
fn fig11_warplda_ends_below_saberlda() {
    let table = fig11();
    for dataset in &table.datasets {
        let saber = &dataset.curves[0];
        let warp = dataset
            .curves
            .iter()
            .find(|c| c.system.starts_with("WarpLDA"));
        let warp = warp.unwrap_or_else(|| panic!("no WarpLDA curve\n{table}"));
        assert!(
            warp.final_ll() < saber.final_ll(),
            "{}: WarpLDA ends at {}, SaberLDA at {}\n{table}",
            dataset.preset,
            warp.final_ll(),
            saber.final_ll()
        );
    }
}

/// Fig. 12: at equal K the GTX 1080 models a higher throughput than the
/// Titan X.
#[test]
#[cfg_attr(debug_assertions, ignore = "dense held-out fold-in: 143 s in debug")]
fn fig12_gtx_1080_is_ahead_of_the_titan_x_at_equal_k() {
    let [gtx, titan, _] = fig12_runs();
    assert_eq!(gtx.k, titan.k);
    let (gtx_rate, titan_rate) = (
        gtx.curve.throughput_mtokens_per_s(),
        titan.curve.throughput_mtokens_per_s(),
    );
    assert!(
        gtx_rate > titan_rate,
        "GTX 1080 {gtx_rate} Mtoken/s, Titan X {titan_rate} Mtoken/s\n{}",
        fig12()
    );
}

/// Fig. 12: doubling K from 5 000 to 10 000 on the Titan X costs less than
/// half of the throughput.
#[test]
#[cfg_attr(debug_assertions, ignore = "dense held-out fold-in: 143 s in debug")]
fn fig12_doubling_k_costs_less_than_2x() {
    let [_, titan, titan_10k] = fig12_runs();
    assert_eq!(titan_10k.k, 2 * titan.k);
    let (rate, rate_10k) = (
        titan.curve.throughput_mtokens_per_s(),
        titan_10k.curve.throughput_mtokens_per_s(),
    );
    assert!(
        rate < 2.0 * rate_10k,
        "K = {}: {rate} Mtoken/s, K = {}: {rate_10k} Mtoken/s\n{}",
        titan.k,
        titan_10k.k,
        fig12()
    );
}

/// Table 1: SaberLDA streams K = 10 000 for the ClueWeb subset on the 12 GB
/// Titan X.
#[test]
fn table1_clueweb_on_the_titan_x_streams_10k_topics() {
    let table = table1::capacity();
    assert!(table.clueweb_titan_x_max_k >= 10_000, "{table}");
}

/// Table 1: on PubMed a dense-resident design stays below a thousand topics
/// on the GTX 1080, where SaberLDA's streaming reaches thousands.
#[test]
fn streaming_supports_large_k_where_dense_does_not() {
    let table = table1::capacity();
    let pubmed = table.rows.iter().find(|row| row.stats.name == "PubMed");
    let pubmed = pubmed.unwrap_or_else(|| panic!("no PubMed row\n{table}"));
    assert!(pubmed.dense_max_k < 1000, "{table}");
    assert!(pubmed.streaming_max_k >= 5_000, "{table}");
}

/// Table 2: `B, B̂` take 8 bytes per (word, topic) pair, the paper's
/// 0.108 / 1.08 / 10.8 GB.
#[test]
fn table2_word_topic_sizes_match_paper() {
    let table = table2::memory();
    for (k, paper_gb, bound) in [(100, 0.108, 0.015), (1000, 1.08, 0.15), (10_000, 10.8, 1.5)] {
        let ours = gb(table2_row(&table, k).word_topic_dense_bytes);
        assert!((ours - paper_gb).abs() < bound, "K = {k}\n{table}");
    }
}

/// Table 2: the token list has the paper's order of magnitude (8.65 GB with
/// document ids; ours keeps the document id implicit in the chunk, 8 bytes
/// per token), and the dense `A` is the paper's 3.2 / 32 / 320 GB.
#[test]
fn table2_token_list_and_dense_a_match_paper() {
    let table = table2::memory();
    let tokens = table2_row(&table, 1000).token_list_bytes;
    assert!(tokens > 5_000_000_000 && tokens < 9_000_000_000, "{table}");
    for (k, paper_gb, bound) in [(100, 3.28, 0.2), (1000, 32.8, 1.0), (10_000, 328.0, 10.0)] {
        let ours = gb(table2_row(&table, k).doc_topic_dense_bytes);
        assert!((ours - paper_gb).abs() < bound, "K = {k}\n{table}");
    }
}

/// Table 2: the CSR document–topic matrix is the same size at every K, and
/// far smaller than the dense one at K = 1000 (the paper's 5.8 GB against
/// 32 GB).
#[test]
fn sparse_a_is_independent_of_k_and_much_smaller() {
    let table = table2::memory();
    let row = table2_row(&table, 1000);
    for (k, other) in &table.rows {
        assert_eq!(
            other.doc_topic_sparse_bytes, row.doc_topic_sparse_bytes,
            "K = {k}\n{table}"
        );
    }
    assert!(
        row.doc_topic_sparse_bytes < row.doc_topic_dense_bytes / 4,
        "{table}"
    );
    let sparse_gb = gb(row.doc_topic_sparse_bytes);
    assert!(sparse_gb > 4.0 && sparse_gb < 8.0, "{table}");
}

/// Table 4: no memory level's throughput exceeds the peak the cost model
/// charges its traffic against.
#[test]
fn table4_utilisation_stays_within_the_modelled_peaks() {
    let table = table4::bandwidth(&CI_SCALE);
    assert_eq!(table.rows.len(), 3);
    for row in &table.rows {
        assert!(
            row.utilisation() <= 1.0,
            "{}: {:.1} GB/s of a {:.1} GB/s peak\n{table}",
            row.level,
            row.gb_s,
            row.peak_gb_s
        );
    }
}
