//! Golden values of the training chain.
//!
//! The trainer's hot loops are free to get faster but not to change one
//! output bit: every line of [`GOLDEN`] was captured at commit `c8e83a3`
//! (the last one before the sampling loop and its execution accounting were
//! split and the L2 model was flattened) by running this same file there;
//! the `k256/…` lines at `b4b58f1` (the last one before equal
//! `(document, word)` tokens shared a product chain, four chains ran
//! interleaved and the draw bisected) the same way. Those run K = 256 on
//! documents of ≥ 150 tokens over 200 words, so rows of `A` are longer than
//! a lane batch, unequal, and most pairs repeat. The `incremental/3x2` line
//! was captured at `3e7b0b0`, the last commit before the incremental pass
//! marked its changed words in a per-word vector and refilled their
//! samplers in place.
//! A line pins, for one configuration on `SyntheticSpec::small_test()`:
//! the FNV-1a hash of the word–topic counts `B` and of every token's topic
//! after three sweeps, and per sweep the sampling kernel's DRAM bytes, the
//! bits of `PhaseTimes::total()` and a hash of every `KernelStats` counter
//! of the sampling kernels and the M-step — so the RNG draws, the chosen
//! topics, the simulated counters and the cost model all have to agree.
//!
//! Token topics are private to `SaberLda`, so each configuration is also
//! replayed from the trainer's public parts on the same RNG stream (which
//! is also where the full counter sets come from); the replay must end on
//! the trainer's `B` and see the trainer's DRAM bytes, which ties the hashed
//! topics and counters to the real `iterate()`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saberlda::core::config::{PreprocessKind, TokenOrder};
use saberlda::core::count::{accumulate_word_topic, rebuild_doc_topic};
use saberlda::core::kernel::sample_chunk;
use saberlda::core::layout::{build_chunks, Chunk};
use saberlda::core::trees::WordSampler;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::gpu::{KernelStats, MemoryTracker};
use saberlda::sparse::CsrMatrix;
use saberlda::{Corpus, DeviceSpec, LdaModel, SaberLda, SaberLdaConfig};

const N_TOPICS: usize = 16;
const LONG_ROW_TOPICS: usize = 256;
const SWEEPS: usize = 3;

const GOLDEN: &[&str] = &[
    "word/warp/wary b=0x0f7814feb4994466 topics=0x2e89e8fdd9f81d1b sweeps=41472:0x3ed53c95db086c5a:0x82d396ef7dc04092,41216:0x3ed53c95db086c5a:0x57ced44deed6d233,41216:0x3ed53c95db086c5a:0x2b4d5d28157057c9",
    "word/warp/alias b=0x3f9a39d0ddc77050 topics=0xbe0461c7128e2e0d sweeps=41472:0x3ef841a3e773bac4:0xeb21e52f55561387,41216:0x3ef841a3e773bac4:0x45ec322e6acad62f,41088:0x3ef841a3e773bac4:0x2c936db8499737f7",
    "word/warp/fenwick b=0x0f7814feb4994466 topics=0x2e89e8fdd9f81d1b sweeps=41472:0x3ee0671da5ab31ea:0x83543a9dce748328,41216:0x3ee0671da5ab31ea:0x7402b1e1f663e442,41216:0x3ee0671da5ab31ea:0x6f0cd86861fdd3a0",
    "doc/warp/wary b=0x52d0e6c9b30882c0 topics=0xa79e0fea20c45f58 sweeps=47488:0x3ee3336f988fc014:0xac4aa0bbc609c69a,47232:0x3ee2d46b0c752647:0xae2b96700489137b,47232:0x3ee2d9ab5f98dc27:0xe8eab772a1f64e28",
    "doc/warp/alias b=0x7be7d4aa3718ce74 topics=0xf3a8e7284439bbac sweeps=45312:0x3efc5b1692edb0aa:0x4a737292dae483b2,45056:0x3efc37a5749d638a:0x8171b1852f76e42d,44928:0x3efc2148439d6efc:0x5d2fb32f241d5ff9",
    "doc/warp/fenwick b=0x52d0e6c9b30882c0 topics=0xa79e0fea20c45f58 sweeps=45312:0x3ee74da8b6344167:0x471d5e665f04e30f,45056:0x3ee6eea42a19a799:0xe2a378f59ef6bcac,45056:0x3ee6f3e47d3d5d78:0xd55ba4f1e4c24678",
    "word/warp/wary/l2=4096 b=0x0f7814feb4994466 topics=0x2e89e8fdd9f81d1b sweeps=60800:0x3ed53c95db086c5a:0xf233b3c736711787,58240:0x3ed53c95db086c5a:0xe4f586926a94abba,57216:0x3ed53c95db086c5a:0x57c6e86e2c41771b",
    "doc/warp/wary/l2=4096 b=0x52d0e6c9b30882c0 topics=0xa79e0fea20c45f58 sweeps=135680:0x3ee2d6f5bc781f05:0x83f50a70d32752e9,134656:0x3ee278bf58ec6709:0x08aecf48f2a197b8,134400:0x3ee27e44643fbd84:0x83cd1d2a35e3b8ab",
    "incremental ingested=229 resampled=458 b=0x50acea3873086371 bhat=0xab15bb9d76e67738 touched=0x40d0f1d3d90d9325",
    "incremental/3x2 wary ingested=671 resampled=2730 rows=377 b=0x3ecad90d6f2b9727 bhat=0x21faabf8a762d7cb touched=0x752b5f69ee173481 alias ingested=671 resampled=2730 rows=377 b=0xe1800eae574cca49 bhat=0x58147d7b61965c67 touched=0x752b5f69ee173481",
    "k256/word/warp/wary b=0xdb9ed0d57fbe033a topics=0x8573269be8c28f84 sweeps=255360:0x3f0a4f027591b719:0x82a47054902020c2,248832:0x3f06f7a3788f3b89:0x6128ae44004f4fb9,245376:0x3f051877efca27a2:0x1d5b6cfc3b5e591f",
    "k256/doc/warp/wary b=0x15d6ae4f5d56c756 topics=0x550dc6f13e7abef9 sweeps=256512:0x3f3515827e94e88c:0xa23ff81d138eafda,250240:0x3f31282cfb2abb46:0x510fa61b247f4c37,246400:0x3f2d789fa981cd1c:0x3e80e82cbe088230",
    "k256/word/warp/wary/l2=4096 b=0xdb9ed0d57fbe033a topics=0x8573269be8c28f84 sweeps=1206144:0x3f0a4f027591b719:0x41175775f8555b7a,1006720:0x3f06f7a3788f3b89:0x09bf91b7d20466cb,906240:0x3f051877efca27a2:0x4a1770a05487d5bc",
];

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fnv1a_u32(words: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a(words.into_iter().flat_map(u32::to_le_bytes))
}

/// Every counter of every set, in declaration order. The two zeros stand
/// in the slots of the retired `wait_iterations` and `divergent_branches`
/// counters, which only the thread-based kernel wrote, so the lines
/// captured before their removal still hash the same.
fn fnv1a_counters(sets: &[KernelStats]) -> u64 {
    fnv1a(sets.iter().flat_map(|s| {
        [
            s.global_read_bytes,
            s.global_write_bytes,
            s.l2_hit_bytes,
            s.shared_read_bytes,
            s.shared_write_bytes,
            s.warp_instructions,
            s.atomic_adds,
            0u64,
            0u64,
            s.global_transactions,
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

fn config(
    n_topics: usize,
    order: TokenOrder,
    preprocess: PreprocessKind,
    l2_cache_bytes: Option<u64>,
) -> SaberLdaConfig {
    let mut device = DeviceSpec::gtx_1080();
    if let Some(bytes) = l2_cache_bytes {
        device.l2_cache_bytes = bytes;
    }
    SaberLdaConfig::builder()
        .n_topics(n_topics)
        .n_iterations(SWEEPS)
        .n_chunks(2)
        .seed(7)
        .token_order(order)
        .preprocess(preprocess)
        .device(device)
        .build()
        .unwrap()
}

/// `SaberLda`'s state rebuilt from its public parts, call for call.
struct Replay {
    config: SaberLdaConfig,
    chunks: Vec<Chunk>,
    doc_topics: Vec<CsrMatrix<u32>>,
    model: LdaModel,
    samplers: Vec<WordSampler>,
    rng: StdRng,
}

impl Replay {
    fn new(config: SaberLdaConfig, corpus: &Corpus) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut chunks = build_chunks(
            corpus,
            config.n_chunks,
            config.token_order,
            config.sort_words_by_frequency,
        );
        for chunk in &mut chunks {
            chunk.randomize_topics(config.n_topics, &mut rng);
        }
        let model = LdaModel::new(
            corpus.vocab_size(),
            config.n_topics,
            config.alpha,
            config.beta,
        )
        .unwrap();
        let mut replay = Replay {
            config,
            chunks,
            doc_topics: Vec::new(),
            model,
            samplers: Vec::new(),
            rng,
        };
        replay.m_step();
        replay
    }

    fn tracker(&self) -> MemoryTracker {
        MemoryTracker::new(self.config.device.l2_cache_bytes)
    }

    /// Returns everything the M-step charged to its tracker.
    fn m_step(&mut self) -> KernelStats {
        let mut tracker = self.tracker();
        self.doc_topics.clear();
        self.model.word_topic_mut().clear();
        for chunk in &self.chunks {
            let a = rebuild_doc_topic(
                chunk,
                self.config.n_topics,
                self.config.count_rebuild,
                &mut tracker,
            );
            accumulate_word_topic(chunk, self.model.word_topic_mut(), &mut tracker);
            self.doc_topics.push(a);
        }
        self.model.refresh_probabilities();
        self.samplers = (0..self.model.vocab_size())
            .map(|v| {
                WordSampler::build(self.config.preprocess, self.model.word_topic_prob().row(v))
            })
            .collect();
        *tracker.stats()
    }

    /// One sweep; returns the counters of the sampling kernels (summed over
    /// the chunks) and of the M-step.
    fn sweep(&mut self) -> (KernelStats, KernelStats) {
        let mut sampling = KernelStats::default();
        for ci in 0..self.chunks.len() {
            let mut tracker = self.tracker();
            sample_chunk(
                &mut self.chunks[ci],
                &self.doc_topics[ci],
                &self.model,
                &self.samplers,
                &self.config,
                &mut tracker,
                &mut self.rng,
            );
            sampling.merge(tracker.stats());
        }
        (sampling, self.m_step())
    }
}

fn observe_sweeps(label: &str, config: SaberLdaConfig, corpus: &Corpus) -> String {
    let mut trainer = SaberLda::new(config.clone(), corpus).unwrap();
    let mut replay = Replay::new(config, corpus);
    let mut sweeps = Vec::new();
    for _ in 0..SWEEPS {
        let stats = trainer.iterate();
        assert_eq!(stats.tokens, corpus.n_tokens(), "{label}");
        let (sampling, m_step) = replay.sweep();
        assert_eq!(sampling.dram_bytes(), stats.sampling_dram_bytes, "{label}");
        sweeps.push(format!(
            "{}:{:#018x}:{:#018x}",
            stats.sampling_dram_bytes,
            stats.phases.total().to_bits(),
            fnv1a_counters(&[sampling, m_step]),
        ));
    }
    let counts = trainer.model().word_topic().as_slice();
    assert_eq!(replay.model.word_topic().as_slice(), counts, "{label}");
    format!(
        "{label} b={:#018x} topics={:#018x} sweeps={}",
        fnv1a_u32(counts.iter().copied()),
        fnv1a_u32(replay.chunks.iter().flat_map(|c| c.topics.iter().copied())),
        sweeps.join(",")
    )
}

/// One full sweep, then an ingested batch re-sampled twice by the
/// incremental path.
fn observe_incremental(corpus: &Corpus) -> String {
    let config = config(
        N_TOPICS,
        TokenOrder::WordMajor,
        PreprocessKind::WaryTree,
        None,
    );
    let mut trainer = SaberLda::new(config, corpus).unwrap();
    trainer.iterate();
    let batch: Vec<Vec<u32>> = SyntheticSpec::small_test()
        .generate(99)
        .documents()
        .iter()
        .take(8)
        .map(|d| d.words().to_vec())
        .collect();
    let ingested = trainer.ingest(batch).unwrap();
    let resampled = trainer.iterate_incremental() + trainer.iterate_incremental();
    let model = trainer.model();
    format!(
        "incremental ingested={ingested} resampled={resampled} b={:#018x} bhat={:#018x} touched={:#018x}",
        fnv1a_u32(model.word_topic().as_slice().iter().copied()),
        fnv1a_u32(model.word_topic_prob().as_slice().iter().map(|p| p.to_bits())),
        fnv1a_u32(trainer.take_touched_rows()),
    )
}

/// Three ingested batches, each re-sampled by two incremental passes, so
/// the dirty set holds one, two and then three chunks; once for the W-ary
/// tree and once for the alias table.
fn observe_incremental_batches(corpus: &Corpus) -> String {
    let stream = SyntheticSpec::small_test().generate(99);
    let docs: Vec<Vec<u32>> = stream
        .documents()
        .iter()
        .take(24)
        .map(|d| d.words().to_vec())
        .collect();
    let mut parts = Vec::new();
    for (preprocess, name) in [
        (PreprocessKind::WaryTree, "wary"),
        (PreprocessKind::AliasTable, "alias"),
    ] {
        let config = config(N_TOPICS, TokenOrder::WordMajor, preprocess, None);
        let mut trainer = SaberLda::new(config, corpus).unwrap();
        trainer.take_touched_rows();
        let (mut ingested, mut resampled, mut touched) = (0, 0, Vec::new());
        for batch in docs.chunks(8) {
            ingested += trainer.ingest(batch.to_vec()).unwrap();
            resampled += trainer.iterate_incremental() + trainer.iterate_incremental();
            touched.extend(trainer.take_touched_rows());
        }
        let model = trainer.model();
        parts.push(format!(
            "{name} ingested={ingested} resampled={resampled} rows={} b={:#018x} bhat={:#018x} touched={:#018x}",
            trainer.rows_rebuilt(),
            fnv1a_u32(model.word_topic().as_slice().iter().copied()),
            fnv1a_u32(model.word_topic_prob().as_slice().iter().map(|p| p.to_bits())),
            fnv1a_u32(touched),
        ));
    }
    format!("incremental/3x2 {}", parts.join(" "))
}

#[test]
fn training_chain_matches_the_values_captured_before_the_split() {
    let corpus = SyntheticSpec::small_test().generate(5);
    let mut lines = Vec::new();
    for (order, order_name) in [
        (TokenOrder::WordMajor, "word"),
        (TokenOrder::DocMajor, "doc"),
    ] {
        for (preprocess, preprocess_name) in [
            (PreprocessKind::WaryTree, "wary"),
            (PreprocessKind::AliasTable, "alias"),
            (PreprocessKind::FenwickTree, "fenwick"),
        ] {
            let label = format!("{order_name}/warp/{preprocess_name}");
            let config = config(N_TOPICS, order, preprocess, None);
            lines.push(observe_sweeps(&label, config, &corpus));
        }
    }
    // An L2 of two 16-way sets: evictions and set aliasing inside the real
    // kernels, which the 2 MB default never reaches on this corpus.
    for (order, label) in [
        (TokenOrder::WordMajor, "word/warp/wary/l2=4096"),
        (TokenOrder::DocMajor, "doc/warp/wary/l2=4096"),
    ] {
        let config = config(N_TOPICS, order, PreprocessKind::WaryTree, Some(4096));
        lines.push(observe_sweeps(label, config, &corpus));
    }
    lines.push(observe_incremental(&corpus));
    lines.push(observe_incremental_batches(&corpus));

    // Rows of ≈ 150 non-zeros; under the 4 KiB L2 a row spans more lines
    // than the cache has sets.
    let long_docs = SyntheticSpec {
        n_docs: 24,
        mean_doc_len: 320.0,
        doc_len_dispersion: 1.25,
        ..SyntheticSpec::small_test()
    }
    .generate(6);
    assert!(long_docs.documents().iter().all(|d| d.len() >= 150));
    for (order, l2_cache_bytes, label) in [
        (TokenOrder::WordMajor, None, "k256/word/warp/wary"),
        (TokenOrder::DocMajor, None, "k256/doc/warp/wary"),
        (
            TokenOrder::WordMajor,
            Some(4096),
            "k256/word/warp/wary/l2=4096",
        ),
    ] {
        let config = config(
            LONG_ROW_TOPICS,
            order,
            PreprocessKind::WaryTree,
            l2_cache_bytes,
        );
        lines.push(observe_sweeps(label, config, &long_docs));
    }

    let observed = lines.join("\n");
    assert!(
        lines == GOLDEN,
        "the training chain moved; observed:\n{observed}\nexpected:\n{}",
        GOLDEN.join("\n")
    );
}
