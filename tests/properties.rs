//! Cross-crate property-based tests on the public API.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saberlda::core::config::TokenOrder;
use saberlda::core::count::{rebuild_doc_topic, rebuild_reference};
use saberlda::core::kernel::sample_chunk;
use saberlda::core::layout::{build_chunks, Chunk};
use saberlda::core::sampling::{product_chain, sample_token, SampleScratch};
use saberlda::core::trees::{TopicSampler, WordSampler};
use saberlda::core::{CountRebuild, PreprocessKind};
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::gpu::MemoryTracker;
use saberlda::sparse::prefix::find_in_prefix_sum;
use saberlda::sparse::{CsrMatrix, DenseMatrix};
use saberlda::{Corpus, Document, LdaModel, SaberLda, SaberLdaConfig};

/// The differential that licenses `sample_chunk`'s shared chains, lanes and
/// bisection: on the chunks of `docs`, under both token orders, it must leave
/// the topics **and the RNG state** of one scalar `sample_token` per token in
/// storage order. Document `empty_row` (if any) gets an empty row of `A`, so
/// its tokens see `S = 0` and always take the dense branch.
fn assert_sample_chunk_equals_one_sample_token_per_token(
    docs: &[Vec<u32>],
    n_chunks: usize,
    vocab_size: usize,
    n_topics: usize,
    empty_row: Option<usize>,
    seed: u64,
) {
    let documents = docs.iter().cloned().map(Document::new).collect();
    let corpus = Corpus::from_documents(vocab_size, documents).unwrap();
    let kinds = [
        PreprocessKind::WaryTree,
        PreprocessKind::AliasTable,
        PreprocessKind::FenwickTree,
    ];
    for order in [TokenOrder::WordMajor, TokenOrder::DocMajor] {
        let case =
            format!("{order:?}, K = {n_topics}, seed {seed}, empty row {empty_row:?}: {docs:?}");
        let config = SaberLdaConfig::builder()
            .n_topics(n_topics)
            .token_order(order)
            .preprocess(kinds[seed as usize % 3])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chunks = build_chunks(&corpus, n_chunks, order, seed.is_multiple_of(2));
        for chunk in &mut chunks {
            chunk.randomize_topics(n_topics, &mut rng);
        }
        let mut model = LdaModel::new(vocab_size, n_topics, config.alpha, config.beta).unwrap();
        model.rebuild_from_assignments(
            chunks
                .iter()
                .flat_map(|c| c.iter_tokens().map(|(w, _, t)| (w, t)))
                .collect::<Vec<_>>(),
        );
        let bhat = model.word_topic_prob();
        let samplers: Vec<WordSampler> = bhat
            .iter_rows()
            .map(|row| WordSampler::build(config.preprocess, row))
            .collect();
        for mut chunk in chunks {
            let mut counts = DenseMatrix::<u32>::zeros(chunk.n_docs, n_topics);
            for (_, d, topic) in chunk.iter_tokens() {
                if Some(chunk.doc_start + d as usize) != empty_row {
                    counts[(d as usize, topic as usize)] += 1;
                }
            }
            let a = CsrMatrix::from_dense(&counts);

            let mut reference_rng = rng.clone();
            let mut scratch = SampleScratch::new();
            let expected: Vec<u32> = chunk
                .iter_tokens()
                .map(|(w, d, _)| {
                    let (row, w) = (a.row(d as usize), w as usize);
                    let alpha = config.alpha;
                    sample_token(
                        row,
                        bhat.row(w),
                        alpha,
                        &samplers[w],
                        &mut scratch,
                        &mut reference_rng,
                    )
                })
                .collect();

            let mut tracker = MemoryTracker::disabled();
            let n = sample_chunk(
                &mut chunk,
                &a,
                &model,
                &samplers,
                &config,
                &mut tracker,
                &mut rng,
            );
            assert_eq!(n, expected.len() as u64, "{case}");
            assert_eq!(chunk.topics, expected, "{case}");
            assert_eq!(rng, reference_rng, "RNG state after {case}");
        }
    }
}

/// Hand-built layouts at the edges of the lane batches: in word-major order
/// word `w` is one segment with one run per document that uses it.
#[test]
fn sample_chunk_equals_the_scalar_reference_at_lane_and_segment_edges() {
    // Segments of 1, 3, 4 and 5 runs, run lengths 1 to 9 (word 3 nine times
    // in document 4, the last run of its segment), a document without tokens.
    let mut docs: Vec<Vec<u32>> = vec![vec![]; 6];
    for (word, users) in [(0u32, 1usize), (1, 3), (2, 4), (3, 5)] {
        for (d, doc) in docs.iter_mut().enumerate().take(users) {
            let repeats = match (word, d) {
                (3, 4) => 9,
                _ => 1 + (word as usize + 2 * d) % 8,
            };
            doc.extend(std::iter::repeat_n(word, repeats));
        }
    }
    for n_topics in [1, 7, 300] {
        for empty_row in [None, Some(0), Some(4)] {
            for seed in [3, 4] {
                assert_sample_chunk_equals_one_sample_token_per_token(
                    &docs, 1, 4, n_topics, empty_row, seed,
                );
            }
        }
    }
    // One to nine runs in the whole chunk: every fill of the last batch.
    for n_runs in 1..=9u32 {
        let doc: Vec<u32> = (0..n_runs)
            .flat_map(|w| vec![w % 5; 1 + w as usize % 3])
            .collect();
        let seed = u64::from(n_runs);
        assert_sample_chunk_equals_one_sample_token_per_token(&[doc], 1, 5, 7, None, seed);
    }

    // A chunk without tokens draws nothing and leaves the RNG alone.
    let order = TokenOrder::WordMajor;
    let mut empty = Chunk {
        doc_start: 0,
        n_docs: 1,
        order,
        word_ids: vec![],
        local_doc_ids: vec![],
        topics: vec![],
        segments: vec![],
        doc_shuffle: vec![],
        doc_token_counts: vec![0],
    };
    let config = SaberLdaConfig::builder().n_topics(7).build().unwrap();
    let model = LdaModel::new(4, 7, config.alpha, config.beta).unwrap();
    let a = CsrMatrix::from_dense(&DenseMatrix::<u32>::zeros(1, 7));
    let mut rng = StdRng::seed_from_u64(1);
    let mut tracker = MemoryTracker::new(1 << 12);
    assert_eq!(
        sample_chunk(&mut empty, &a, &model, &[], &config, &mut tracker, &mut rng),
        0
    );
    assert_eq!(rng, StdRng::seed_from_u64(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The PDOW layout is a permutation of the corpus: token multisets per
    /// document are preserved no matter how many chunks are used.
    #[test]
    fn pdow_layout_preserves_per_document_word_multisets(
        n_docs in 5usize..40,
        n_chunks in 1usize..6,
        seed in 0u64..1000,
    ) {
        let corpus = SyntheticSpec {
            n_docs,
            vocab_size: 60,
            mean_doc_len: 12.0,
            n_topics: 4,
            ..SyntheticSpec::default()
        }
        .generate(seed);
        let chunks = build_chunks(&corpus, n_chunks, TokenOrder::WordMajor, true);
        for chunk in &chunks {
            for local_d in 0..chunk.n_docs {
                let global_d = chunk.doc_start + local_d;
                let mut expected: Vec<u32> = corpus.document(global_d).words().to_vec();
                expected.sort_unstable();
                let mut got: Vec<u32> = chunk
                    .word_ids
                    .iter()
                    .zip(chunk.local_doc_ids.iter())
                    .filter(|(_, &d)| d as usize == local_d)
                    .map(|(&w, _)| w)
                    .collect();
                got.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// SSC and the naive sort produce identical document-topic matrices, and
    /// both match the dense reference, for random corpora and topic counts.
    #[test]
    fn count_rebuilds_agree(seed in 0u64..500, k in 2usize..24) {
        let corpus = SyntheticSpec {
            n_docs: 25,
            vocab_size: 50,
            mean_doc_len: 15.0,
            n_topics: 3,
            ..SyntheticSpec::default()
        }
        .generate(seed);
        let mut chunks = build_chunks(&corpus, 2, TokenOrder::WordMajor, true);
        let mut rng = rand::thread_rng();
        for chunk in &mut chunks {
            chunk.randomize_topics(k, &mut rng);
            let mut t1 = MemoryTracker::new(1 << 18);
            let mut t2 = MemoryTracker::new(1 << 18);
            let ssc = rebuild_doc_topic(chunk, k, CountRebuild::Ssc, &mut t1);
            let naive = rebuild_doc_topic(chunk, k, CountRebuild::NaiveSort, &mut t2);
            let reference = rebuild_reference(chunk, k);
            prop_assert_eq!(&ssc, &naive);
            prop_assert_eq!(&ssc, &reference);
        }
    }

    /// Every pre-processed sampling structure samples only positive-weight
    /// topics and agrees with the weights' support.
    #[test]
    fn samplers_never_select_zero_weight_topics(
        weights in proptest::collection::vec(0.0f32..3.0, 2..120),
        u in 0.0f32..1.0,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        for kind in [PreprocessKind::WaryTree, PreprocessKind::AliasTable, PreprocessKind::FenwickTree] {
            let sampler = WordSampler::build(kind, &weights);
            let k = sampler.sample_with(u);
            prop_assert!(k < weights.len());
            prop_assert!(weights[k] > 0.0, "{kind:?} sampled zero-weight topic {k}");
        }
    }

    /// Training never loses or duplicates tokens, for any chunking, ordering
    /// and small topic count.
    #[test]
    fn training_conserves_tokens(
        n_chunks in 1usize..4,
        k in 2usize..12,
        seed in 0u64..100,
    ) {
        let corpus = SyntheticSpec {
            n_docs: 30,
            vocab_size: 80,
            mean_doc_len: 20.0,
            n_topics: 4,
            ..SyntheticSpec::default()
        }
        .generate(seed);
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .n_iterations(2)
            .n_chunks(n_chunks)
            .seed(seed)
            .build()
            .unwrap();
        let mut lda = SaberLda::new(config, &corpus).unwrap();
        lda.train();
        prop_assert_eq!(lda.model().word_topic().total(), corpus.n_tokens());
        // Column sums of B equal per-topic token counts, and their total is T.
        let totals: u64 = lda.model().topic_totals().iter().sum();
        prop_assert_eq!(totals, corpus.n_tokens());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random documents of runs of 1 to 9 equal words over a small
    /// vocabulary: words repeat inside documents (word-major runs), in a row
    /// (doc-major runs), rows of `A` reach ≈ 60 non-zeros at K = 300 and
    /// differ in length.
    #[test]
    fn sample_chunk_equals_one_sample_token_per_token(
        blocks in proptest::collection::vec(proptest::collection::vec(any::<u16>(), 1..9), 1..7),
        vocab_size in 1usize..7,
        k_choice in 0usize..3,
        empty_row in 0usize..12,
        seed in 0u64..1000,
    ) {
        let docs: Vec<Vec<u32>> = blocks
            .iter()
            .map(|doc| {
                doc.iter()
                    .flat_map(|&raw| {
                        let word = u32::from(raw) % vocab_size as u32;
                        std::iter::repeat_n(word, 1 + usize::from(raw >> 8) % 9)
                    })
                    .collect()
            })
            .collect();
        // Half of the cases blank one document's row of `A`.
        let empty_row = Some(empty_row).filter(|&d| d < docs.len());
        let n_topics = [1, 7, 300][k_choice];
        let n_chunks = 1 + blocks.len() % 2;
        assert_sample_chunk_equals_one_sample_token_per_token(
            &docs, n_chunks, vocab_size, n_topics, empty_row, seed,
        );
    }

    /// The chain's running sums never decrease — zero terms and terms too
    /// small to move the sum make ties — so bisecting them answers what the
    /// linear scan it replaced answered, for every kind of `x` a draw makes.
    #[test]
    fn bisecting_the_chain_equals_scanning_it(
        raw in proptest::collection::vec(any::<u32>(), 1..300),
        x_choice in any::<u32>(),
        fraction in 0.0f32..1.0,
    ) {
        let bhat_row = [0.0f32, 1e-12, 3e-4, 0.01, 0.25, 1.0, 7.5e3, 2e7];
        let indices: Vec<u32> = raw.iter().map(|r| r % 8).collect();
        let counts: Vec<u32> = raw.iter().map(|r| (r >> 3) % 5).collect();
        let mut sums = vec![0.0f32; raw.len()];
        product_chain(&indices, &counts, &bhat_row, 0.0, &mut sums);
        prop_assert!(sums.windows(2).all(|w| w[0] <= w[1]), "{sums:?}");

        let s = sums[sums.len() - 1];
        let x = match x_choice % 4 {
            0 => f32::MIN_POSITIVE,
            1 => sums[(x_choice >> 2) as usize % sums.len()],
            2 => (fraction * s).max(f32::MIN_POSITIVE),
            _ => s * 1.5 + 1.0,
        };
        let scanned = sums.iter().position(|&acc| acc >= x).unwrap_or(sums.len() - 1);
        prop_assert_eq!(find_in_prefix_sum(&sums, x), scanned);
    }
}
