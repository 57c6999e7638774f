//! The E-step sampling kernel (§3.2, Fig. 5).
//!
//! The kernel is the paper's warp-based one: all 32 lanes of a warp
//! collaborate on one token — lane-parallel element-wise product over the
//! non-zeros of `A_d`, a warp reduction for `S`, warp prefix-sum +
//! ballot/ffs search for the sparse branch, and a W-ary tree descent for the
//! dense branch. There is no waiting and no divergence, and the accesses to
//! `A_d` are coalesced. The thread-based port the paper measures it against
//! (one thread per token) is not modelled.
//!
//! The topics are drawn by one statistical sampler
//! ([`crate::sampling::sample_token`]); a separate *execution accounting*
//! pass charges the kernel's memory traffic and instructions.
//!
//! The token ordering of the chunk determines the memory-access pattern
//! (Fig. 4): with word-major order the current `B̂_v` row is staged in shared
//! memory and reused; with doc-major order every token gathers scattered
//! elements of `B̂` from global memory.

use std::ops::Range;

use rand::rngs::StdRng;
use saber_gpu_sim::memory::AddressMap;
use saber_gpu_sim::warp::{
    PREFIX_SUM_INSTRUCTIONS, REDUCE_INSTRUCTIONS, VOTE_INSTRUCTIONS, WARP_SIZE,
};
use saber_gpu_sim::MemoryTracker;
use saber_sparse::{CsrMatrix, SparseRowView};

use crate::config::{SaberLdaConfig, TokenOrder};
use crate::layout::Chunk;
use crate::model::LdaModel;
use crate::sampling::{draw_topic, product_chains, SampleScratch, LANES};
use crate::trees::{TopicSampler, WordSampler};

/// Instructions charged per 32-lane element-wise-product iteration
/// (load index, load value, multiply, accumulate).
const PRODUCT_INSTRUCTIONS: u64 = 4;

/// Instructions charged for the branch selection (RNG + compare).
const BRANCH_INSTRUCTIONS: u64 = 2;

/// Runs the E-step over one chunk: re-samples every token's topic in place.
///
/// * `doc_topic` — the chunk's document–topic matrix from the previous M-step
///   (row `d` corresponds to local document `d`);
/// * `model` — provides `B̂`;
/// * `samplers` — one pre-processed structure per word id;
/// * `tracker` — receives the execution accounting.
///
/// The accounting is a pass of its own (`account_*`) beside the sampling
/// loop (`sample_tokens`): what the simulated kernel moves and executes depends
/// on the chunk's layout and on the row lengths (for doc-major order, the
/// row indices) of `doc_topic` only, never on the topics being drawn. So the
/// two share nothing mutable: the sampler alone writes the topics and
/// consumes `rng`, the accounting alone fills `tracker`. Under an enabled
/// tracker the accounting runs on a scoped thread named `saber-gpu-sim`
/// while this thread samples; topics, RNG stream and every counter are
/// exactly those of the two passes run one after the other. Under
/// [`MemoryTracker::disabled`] the pass is skipped and no thread is spawned.
///
/// Returns the number of tokens processed.
///
/// # Panics
///
/// Panics if `doc_topic` has fewer rows than the chunk has documents, or if a
/// word id has no sampler (a panic of the accounting thread is re-raised
/// here).
pub fn sample_chunk(
    chunk: &mut Chunk,
    doc_topic: &CsrMatrix<u32>,
    model: &LdaModel,
    samplers: &[WordSampler],
    config: &SaberLdaConfig,
    tracker: &mut MemoryTracker,
    rng: &mut StdRng,
) -> u64 {
    assert!(
        doc_topic.rows() >= chunk.n_docs,
        "document-topic matrix has {} rows but the chunk has {} documents",
        doc_topic.rows(),
        chunk.n_docs
    );
    let sample = |docs: &[u32], words: &[u32], topics: &mut [u32], rng: &mut StdRng| {
        sample_tokens(
            docs,
            words,
            topics,
            doc_topic,
            model,
            samplers,
            config.alpha,
            rng,
        )
    };
    if !tracker.is_enabled() {
        return sample(
            &chunk.local_doc_ids,
            &chunk.word_ids,
            &mut chunk.topics,
            rng,
        );
    }
    let k = model.n_topics();
    // The accounting reads the layout only: the topics leave the chunk for
    // the sampler while the rest of it is shared with the accounting thread.
    let mut topics = std::mem::take(&mut chunk.topics);
    let layout = &*chunk;
    let ((), tokens) = crate::beside(
        "saber-gpu-sim",
        || match layout.order {
            TokenOrder::WordMajor => account_word_major(layout, doc_topic, k, samplers, tracker),
            TokenOrder::DocMajor => account_doc_major(layout, doc_topic, k, samplers, tracker),
        },
        || sample(&layout.local_doc_ids, &layout.word_ids, &mut topics, rng),
    );
    chunk.topics = topics;
    tokens
}

/// The sampling loop: every token draws its topic from its document's row
/// of `A` and its word's row of `B̂`. Both token orders draw from exactly
/// this distribution; what they change is the order of the tokens and the
/// execution accounting.
///
/// `A` and `B̂` are frozen for the whole E-step, so a run of adjacent tokens
/// with one `(document, word)` pair shares one product chain, and the chains
/// of [`LANES`] runs — they use no random number — advance together. The
/// draws follow run by run: the RNG is consumed in storage order, exactly as
/// by one [`crate::sampling::sample_token`] per token.
#[expect(
    clippy::too_many_arguments,
    reason = "the frozen E-step state is passed as borrowed slices, not bundled"
)]
fn sample_tokens(
    docs: &[u32],
    words: &[u32],
    topics: &mut [u32],
    doc_topic: &CsrMatrix<u32>,
    model: &LdaModel,
    samplers: &[WordSampler],
    alpha: f32,
    rng: &mut StdRng,
) -> u64 {
    let bhat = model.word_topic_prob();
    let absent = (SparseRowView::new(&[], &[]), &[][..]);
    let mut scratch = SampleScratch::new();
    let mut runs = pair_runs(docs, words).peekable();
    while runs.peek().is_some() {
        let batch: [Option<Range<usize>>; LANES] = std::array::from_fn(|_| runs.next());
        let rows = batch.each_ref().map(|run| {
            let first = run.as_ref().map(|run| (docs[run.start], words[run.start]));
            first.map_or(absent, |(d, v)| {
                (doc_topic.row(d as usize), bhat.row(v as usize))
            })
        });
        let sums = product_chains(&rows, &mut scratch);
        for ((run, (row, _)), sums) in batch.into_iter().flatten().zip(&rows).zip(sums) {
            let sampler = &samplers[words[run.start] as usize];
            for topic in &mut topics[run] {
                *topic = draw_topic(sums, row.indices(), alpha, sampler, rng);
            }
        }
    }
    topics.len() as u64
}

/// Token ranges of the maximal runs of adjacent tokens sharing both document
/// and word: whole same-document stretches of a word-major segment, repeats
/// of a word in a row in doc-major order.
fn pair_runs<'a>(docs: &'a [u32], words: &'a [u32]) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut start = 0;
    std::iter::from_fn(move || {
        let pair = (*docs.get(start)?, words[start]);
        let end = (start + 1..docs.len())
            .find(|&i| (docs[i], words[i]) != pair)
            .unwrap_or(docs.len());
        Some(std::mem::replace(&mut start, end)..end)
    })
}

/// Execution accounting of the word-major (PDOW) kernel: `B̂_v` staged in
/// shared memory once per word, every token reading its document's row of
/// `A` from global memory.
fn account_word_major(
    chunk: &Chunk,
    doc_topic: &CsrMatrix<u32>,
    n_topics: usize,
    samplers: &[WordSampler],
    tracker: &mut MemoryTracker,
) {
    let map = AddressMap::default();
    let row_ptr = doc_topic.row_ptr();
    let bhat_row_bytes = (n_topics * 4) as u64;

    for seg in &chunk.segments {
        let word = seg.key as usize;
        let sampler = &samplers[word];
        let (query_shared_bytes, query_instructions) =
            (sampler.query_shared_bytes(), sampler.query_instructions());
        let docs = &chunk.local_doc_ids[seg.start..seg.end];
        let row_of = |d: u32| (row_ptr[d as usize], row_ptr[d as usize + 1]);

        // Stage B̂_v (and, for the write-back path, B_v) in shared memory.
        tracker.global_read(
            map.word_topic_prob + word as u64 * bhat_row_bytes,
            bhat_row_bytes,
        );
        tracker.shared_write(bhat_row_bytes);

        let (mut shared_read_bytes, mut instructions) = (0u64, 0u64);
        // The simulated kernel shares nothing between tokens: those of one
        // document each read its row, one read after the other.
        for run in docs.chunk_by(|a, b| a == b) {
            let (start, end) = row_of(run[0]);
            let (nnz, tokens) = (end - start, run.len() as u64);
            // Read the document's sparse row from global memory (coalesced:
            // the row is contiguous and 128-byte aligned per §3.4).
            let row_addr = map.doc_topic + (start * 8) as u64;
            tracker.global_read_repeated(row_addr, (nnz * 8) as u64, tokens);
            // The element-wise product reads B̂ from shared memory; so does
            // the query of the word's pre-processed structure.
            shared_read_bytes += tokens * ((nnz * 4) as u64 + query_shared_bytes);
            instructions += tokens * (token_instructions(nnz) + query_instructions);
        }
        tracker.shared_read(shared_read_bytes);
        tracker.instructions(instructions);

        // Write the segment's updated topics back (contiguous, coalesced).
        tracker.global_write(
            map.token_list + (seg.start * 4) as u64,
            (seg.len() * 4) as u64,
        );
    }
}

/// Execution accounting of the doc-major kernel: `A_d` staged in shared
/// memory once per document and `B̂` gathered element-by-element from global
/// memory (Fig. 4b) — the layout of previous GPU systems and of the G0
/// ablation level.
fn account_doc_major(
    chunk: &Chunk,
    doc_topic: &CsrMatrix<u32>,
    n_topics: usize,
    samplers: &[WordSampler],
    tracker: &mut MemoryTracker,
) {
    let map = AddressMap::default();
    let row_ptr = doc_topic.row_ptr();

    for seg in &chunk.segments {
        let d = seg.key as usize;
        let topics = &doc_topic.col_indices()[row_ptr[d]..row_ptr[d + 1]];
        let row_bytes = (topics.len() * 8) as u64;
        let n_tokens = seg.len() as u64;

        // Stage A_d in shared memory once per document.
        tracker.global_read(map.doc_topic + (row_ptr[d] * 8) as u64, row_bytes);
        tracker.shared_write(row_bytes);

        let mut query_instructions = 0u64;
        for &word in &chunk.word_ids[seg.start..seg.end] {
            let sampler = &samplers[word as usize];
            // Gather B̂[word][k] for every non-zero topic of the document:
            // random single-element accesses, each pulling a 128-byte line.
            let row_base = map.word_topic_prob + (word as usize * n_topics * 4) as u64;
            for &topic in topics {
                tracker.global_read(row_base + u64::from(topic) * 4, 4);
            }
            // The pre-processed structure lives in global memory here (there is
            // no per-word staging in doc-major order).
            tracker.global_read(
                map.trees + u64::from(word) * 64,
                sampler.query_shared_bytes(),
            );
            query_instructions += sampler.query_instructions();
        }
        tracker.shared_read(row_bytes * n_tokens);
        tracker.instructions(token_instructions(topics.len()) * n_tokens + query_instructions);

        tracker.global_write(
            map.token_list + (seg.start * 4) as u64,
            (seg.len() * 4) as u64,
        );
    }
}

/// Warp instructions one token costs besides the query of its word's
/// pre-processed structure, given the `nnz` non-zeros of its document's row.
fn token_instructions(nnz: usize) -> u64 {
    let product_iters = nnz.div_ceil(WARP_SIZE).max(1) as u64;
    let product_and_branch =
        product_iters * PRODUCT_INSTRUCTIONS + REDUCE_INSTRUCTIONS + BRANCH_INSTRUCTIONS;
    // The search of P's prefix sums (sparse branch) runs with probability
    // S/(S+Q) and the tree query otherwise; charging it whenever the row is
    // non-empty, beside the query, keeps the model deterministic.
    if nnz > 0 {
        product_and_branch + product_iters * (PREFIX_SUM_INSTRUCTIONS + VOTE_INSTRUCTIONS)
    } else {
        product_and_branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CountRebuild, PreprocessKind, SaberLdaConfig};
    use crate::count::{accumulate_word_topic, rebuild_doc_topic, rebuild_reference};
    use crate::layout::build_chunks;
    use rand::SeedableRng;
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_gpu_sim::KernelStats;

    fn setup(order: TokenOrder) -> (Vec<Chunk>, LdaModel, Vec<WordSampler>, SaberLdaConfig) {
        setup_on(&SyntheticSpec::small_test(), order)
    }

    /// Twelve words over documents of ≈ 30 tokens: every document repeats
    /// words, so most `(document, word)` pairs cover several tokens.
    fn repeated_words() -> SyntheticSpec {
        SyntheticSpec {
            vocab_size: 12,
            ..SyntheticSpec::small_test()
        }
    }

    fn setup_on(
        spec: &SyntheticSpec,
        order: TokenOrder,
    ) -> (Vec<Chunk>, LdaModel, Vec<WordSampler>, SaberLdaConfig) {
        let corpus = spec.generate(11);
        let k = 8usize;
        let config = SaberLdaConfig::builder()
            .n_topics(k)
            .alpha(0.1)
            .n_iterations(1)
            .token_order(order)
            .count_rebuild(CountRebuild::Ssc)
            .build()
            .unwrap();
        let mut chunks = build_chunks(&corpus, 2, order, true);
        let mut rng = StdRng::seed_from_u64(1);
        for c in &mut chunks {
            c.randomize_topics(k, &mut rng);
        }
        let mut model = LdaModel::new(corpus.vocab_size(), k, config.alpha, config.beta).unwrap();
        model.rebuild_from_assignments(
            chunks
                .iter()
                .flat_map(|c| c.iter_tokens().map(|(w, _, t)| (w, t)))
                .collect::<Vec<_>>(),
        );
        let samplers: Vec<WordSampler> = (0..corpus.vocab_size())
            .map(|v| WordSampler::build(PreprocessKind::WaryTree, model.word_topic_prob().row(v)))
            .collect();
        (chunks, model, samplers, config)
    }

    #[test]
    fn sampling_keeps_topics_in_range_and_processes_every_token() {
        for order in [TokenOrder::WordMajor, TokenOrder::DocMajor] {
            let (mut chunks, model, samplers, config) = setup(order);
            let mut rng = StdRng::seed_from_u64(2);
            let mut total = 0u64;
            for chunk in &mut chunks {
                let a = rebuild_reference(chunk, model.n_topics());
                let mut tracker = MemoryTracker::new(1 << 20);
                total += sample_chunk(
                    chunk,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut tracker,
                    &mut rng,
                );
                assert!(chunk
                    .topics
                    .iter()
                    .all(|&t| (t as usize) < model.n_topics()));
                assert!(tracker.stats().dram_bytes() > 0);
            }
            let expected: u64 = chunks.iter().map(|c| c.n_tokens() as u64).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn accounting_does_not_depend_on_the_topics_being_drawn() {
        let orders = [TokenOrder::WordMajor, TokenOrder::DocMajor];
        let specs = [SyntheticSpec::small_test(), repeated_words()];
        for (spec, order) in specs.iter().flat_map(|s| orders.map(|o| (s, o))) {
            let (mut chunks, model, samplers, config) = setup_on(spec, order);
            if *spec == repeated_words() && order == TokenOrder::WordMajor {
                let repeats: usize = chunks
                    .iter()
                    .map(|c| c.n_tokens() - pair_runs(&c.local_doc_ids, &c.word_ids).count())
                    .sum();
                assert!(repeats > 500, "only {repeats} tokens repeat their pair");
            }
            let k = model.n_topics();
            let mut rng = StdRng::seed_from_u64(5);
            for chunk in &mut chunks {
                let a = rebuild_reference(chunk, k);
                // Two 16-way sets: the pass has to evict, not only count.
                let account = |chunk: &Chunk| {
                    let mut tracker = MemoryTracker::new(4096);
                    match order {
                        TokenOrder::WordMajor => {
                            account_word_major(chunk, &a, k, &samplers, &mut tracker)
                        }
                        TokenOrder::DocMajor => {
                            account_doc_major(chunk, &a, k, &samplers, &mut tracker)
                        }
                    }
                    *tracker.stats()
                };
                let before = account(chunk);
                let old_topics = chunk.topics.clone();
                let mut tracker = MemoryTracker::new(4096);
                sample_chunk(
                    chunk,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut tracker,
                    &mut rng,
                );
                assert_ne!(chunk.topics, old_topics, "sampling moved no topic");
                assert_eq!(account(chunk), before, "{order:?}");
                assert_eq!(*tracker.stats(), before, "{order:?}");
            }
        }
    }

    #[test]
    fn disabled_tracker_stays_empty_and_changes_no_draw() {
        for order in [TokenOrder::WordMajor, TokenOrder::DocMajor] {
            let (chunks, mut model, samplers, config) = setup_on(&repeated_words(), order);
            let (mut enabled_rng, mut disabled_rng) =
                (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
            for chunk in &chunks {
                let a = rebuild_reference(chunk, model.n_topics());
                let (mut under_enabled, mut under_disabled) = (chunk.clone(), chunk.clone());
                let mut enabled = MemoryTracker::new(1 << 20);
                sample_chunk(
                    &mut under_enabled,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut enabled,
                    &mut enabled_rng,
                );
                let mut disabled = MemoryTracker::disabled();
                sample_chunk(
                    &mut under_disabled,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut disabled,
                    &mut disabled_rng,
                );
                assert_ne!(
                    under_enabled.topics, chunk.topics,
                    "sampling moved no topic"
                );
                assert_eq!(under_disabled.topics, under_enabled.topics, "{order:?}");
                assert_eq!(disabled_rng, enabled_rng, "{order:?}");

                // The M-step's two kernels under the same tracker.
                for method in [CountRebuild::Ssc, CountRebuild::NaiveSort] {
                    let rebuilt = rebuild_doc_topic(chunk, model.n_topics(), method, &mut disabled);
                    assert_eq!(rebuilt, a);
                }
                accumulate_word_topic(chunk, model.word_topic_mut(), &mut disabled);
                assert_eq!(disabled.stats(), &KernelStats::default());
                assert_ne!(enabled.stats(), &KernelStats::default());
            }
        }
    }

    #[test]
    fn threaded_accounting_equals_the_two_passes_in_turn() {
        for order in [TokenOrder::WordMajor, TokenOrder::DocMajor] {
            let (chunks, model, samplers, config) = setup_on(&repeated_words(), order);
            let k = model.n_topics();
            let (mut threaded_rng, mut serial_rng) =
                (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
            for chunk in &chunks {
                let a = rebuild_reference(chunk, k);
                // Two 16-way sets: the pass has to evict, not only count.
                let mut threaded = chunk.clone();
                let mut threaded_tracker = MemoryTracker::new(4096);
                let threaded_tokens = sample_chunk(
                    &mut threaded,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut threaded_tracker,
                    &mut threaded_rng,
                );

                let mut serial = chunk.clone();
                let mut serial_tracker = MemoryTracker::new(4096);
                match order {
                    TokenOrder::WordMajor => {
                        account_word_major(&serial, &a, k, &samplers, &mut serial_tracker)
                    }
                    TokenOrder::DocMajor => {
                        account_doc_major(&serial, &a, k, &samplers, &mut serial_tracker)
                    }
                }
                let serial_tokens = sample_tokens(
                    &serial.local_doc_ids,
                    &serial.word_ids,
                    &mut serial.topics,
                    &a,
                    &model,
                    &samplers,
                    config.alpha,
                    &mut serial_rng,
                );

                assert_ne!(threaded.topics, chunk.topics, "sampling moved no topic");
                assert_eq!(threaded.topics, serial.topics, "{order:?}");
                assert_eq!(threaded_tokens, serial_tokens, "{order:?}");
                assert_eq!(threaded_rng, serial_rng, "{order:?}");
                assert_eq!(
                    threaded_tracker.stats(),
                    serial_tracker.stats(),
                    "{order:?}"
                );
            }
        }
    }

    /// Samples the first chunk of `repeated_words` with the last word's
    /// sampler missing.
    fn sample_without_the_last_sampler(mut tracker: MemoryTracker) {
        let (mut chunks, model, samplers, config) =
            setup_on(&repeated_words(), TokenOrder::WordMajor);
        let chunk = &mut chunks[0];
        let last = *chunk.word_ids.iter().max().unwrap() as usize;
        let a = rebuild_reference(chunk, model.n_topics());
        sample_chunk(
            chunk,
            &a,
            &model,
            &samplers[..last],
            &config,
            &mut tracker,
            &mut StdRng::seed_from_u64(1),
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn missing_sampler_panics_in_the_caller_under_an_enabled_tracker() {
        sample_without_the_last_sampler(MemoryTracker::new(4096));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn missing_sampler_panics_in_the_caller_under_a_disabled_tracker() {
        sample_without_the_last_sampler(MemoryTracker::disabled());
    }

    #[test]
    fn word_major_moves_less_dram_than_doc_major() {
        // The PDOW advantage (Fig. 9 G0→G1): staging B̂_v in shared memory
        // beats gathering random elements of B̂ from global memory.
        let (mut wm_chunks, model, samplers, wm_config) = setup(TokenOrder::WordMajor);
        let (mut dm_chunks, dm_model, dm_samplers, dm_config) = setup(TokenOrder::DocMajor);

        let mut rng = StdRng::seed_from_u64(3);
        let mut wm_tracker = MemoryTracker::new(1 << 21);
        for chunk in &mut wm_chunks {
            let a = rebuild_reference(chunk, model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &model,
                &samplers,
                &wm_config,
                &mut wm_tracker,
                &mut rng,
            );
        }
        let mut dm_tracker = MemoryTracker::new(1 << 21);
        for chunk in &mut dm_chunks {
            let a = rebuild_reference(chunk, dm_model.n_topics());
            sample_chunk(
                chunk,
                &a,
                &dm_model,
                &dm_samplers,
                &dm_config,
                &mut dm_tracker,
                &mut rng,
            );
        }
        let wm = wm_tracker.stats().dram_bytes() + wm_tracker.stats().l2_hit_bytes;
        let dm = dm_tracker.stats().dram_bytes() + dm_tracker.stats().l2_hit_bytes;
        assert!(
            (wm as f64) < 0.9 * dm as f64,
            "word-major traffic {wm} not clearly below doc-major {dm}"
        );
    }

    #[test]
    fn sampling_moves_distribution_towards_cooccurrence() {
        // After a few E/M rounds on a tiny planted corpus the fraction of
        // tokens agreeing with their document's majority topic should rise
        // (the sampler is pulling topics together within documents).
        let (mut chunks, mut model, _, config) = setup(TokenOrder::WordMajor);
        let mut rng = StdRng::seed_from_u64(9);
        let n_topics = model.n_topics();
        let purity = move |chunks: &[Chunk]| -> f64 {
            let mut agree = 0usize;
            let mut total = 0usize;
            for c in chunks {
                let mut per_doc: Vec<Vec<u32>> = vec![Vec::new(); c.n_docs];
                for (_, d, t) in c.iter_tokens() {
                    per_doc[d as usize].push(t);
                }
                for topics in per_doc {
                    if topics.is_empty() {
                        continue;
                    }
                    let mut hist = vec![0usize; n_topics];
                    for &t in &topics {
                        hist[t as usize] += 1;
                    }
                    agree += hist.iter().max().copied().unwrap_or(0);
                    total += topics.len();
                }
            }
            agree as f64 / total as f64
        };
        let before = purity(&chunks);
        for _ in 0..5 {
            let samplers: Vec<WordSampler> = (0..model.vocab_size())
                .map(|v| {
                    WordSampler::build(PreprocessKind::WaryTree, model.word_topic_prob().row(v))
                })
                .collect();
            for chunk in &mut chunks {
                let a = rebuild_reference(chunk, model.n_topics());
                let mut tracker = MemoryTracker::new(1 << 20);
                sample_chunk(
                    chunk,
                    &a,
                    &model,
                    &samplers,
                    &config,
                    &mut tracker,
                    &mut rng,
                );
            }
            model.rebuild_from_assignments(
                chunks
                    .iter()
                    .flat_map(|c| c.iter_tokens().map(|(w, _, t)| (w, t)))
                    .collect::<Vec<_>>(),
            );
        }
        let after = purity(&chunks);
        assert!(
            after > before + 0.05,
            "document topic purity did not improve: before {before:.3}, after {after:.3}"
        );
    }
}
