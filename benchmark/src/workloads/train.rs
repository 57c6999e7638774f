//! `train_longdoc_k1000`: full `iterate()` sweeps from random init.
//!
//! The paper's regime — K = 1000, long documents, sparsity growing as the
//! chain converges — and the only workload in which no serving code runs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_core::count::{accumulate_word_topic, rebuild_doc_topic};
use saber_core::kernel::sample_chunk;
use saber_core::layout::{build_chunks, Chunk};
use saber_core::trees::WordSampler;
use saber_core::{IterationStats, LdaModel, SaberLda};
use saber_corpus::Corpus;
use saber_gpu_sim::MemoryTracker;
use saber_sparse::CsrMatrix;

use super::{sample_with_ns, Report, RunArgs, Traced};
use crate::inputs::{generate_inputs, heldout_perplexity, trainer_config};
use crate::machine::{Machine, Seconds};
use crate::result::{peak_rss_mb, RunResult};
use crate::spans::SpanLog;
use crate::stats;

/// Timed `iterate()` calls per second of `--seconds`: the first sweeps
/// take ≈1.15 s and later ones ≈0.65 s at the commit that added the
/// benchmark, so 1.2/s fills the run.
const ITERATIONS_PER_SECOND: f64 = 1.2;
const SETUP_REPEATS: usize = 3;
/// The traced run does every sweep twice (`iterate()` and its replay).
const TRACED_ITERATIONS_PER_SECOND: f64 = 0.5;

#[derive(Default)]
struct TimedSweeps {
    walls_s: Vec<f64>,
    stats: Vec<IterationStats>,
}

impl TimedSweeps {
    fn time_one(&mut self, trainer: &mut SaberLda) {
        let start = Instant::now();
        let stats = trainer.iterate();
        self.walls_s.push(start.elapsed().as_secs_f64());
        self.stats.push(stats);
    }
}

fn check_token_conservation(
    report: &mut Report,
    corpus: &Corpus,
    trainer: &SaberLda,
    sweeps: &[IterationStats],
) {
    let n = corpus.n_tokens();
    let every_sweep_full = sweeps.iter().all(|s| s.tokens == n);
    let counted = trainer.model().word_topic().total();
    report.check(
        "tokens_conserved",
        every_sweep_full && counted == n,
        format!("corpus {n} tokens, word-topic counts {counted}, every sweep sampled all: {every_sweep_full}"),
    );
}

pub fn run(args: &RunArgs, machine: &mut Machine) -> RunResult {
    let mut report = Report::new();
    // Set-up here is half a second, so a few milliseconds of jitter are a
    // few percent of it: set up three times and report the median.
    let mut setups = Vec::new();
    let (inputs, mut trainer) = loop {
        let (built, seconds) = machine.timed(|| {
            let inputs = generate_inputs(args.seed);
            let trainer = SaberLda::new(trainer_config(), &inputs.corpus)
                .expect("the generated corpus is trainable");
            (inputs, trainer)
        });
        setups.push(seconds);
        if setups.len() == SETUP_REPEATS {
            break built;
        }
    };
    let corpus = &inputs.corpus;
    let n = args.scaled(ITERATIONS_PER_SECOND, 2);
    let median_of = |pick: fn(&Seconds) -> f64, all: &[Seconds]| {
        stats::median(&all.iter().map(pick).collect::<Vec<_>>())
    };
    report.set_corrected(
        "setup_s",
        median_of(|s| s.corrected, &setups),
        median_of(|s| s.raw, &setups),
    );

    // Each sweep sits between two probes of the machine.
    let mut sweeps = Vec::with_capacity(n);
    let mut walls = Vec::with_capacity(n);
    for _ in 0..n {
        let (stats, seconds) = machine.timed(|| trainer.iterate());
        sweeps.push(stats);
        walls.push(seconds);
    }

    let perplexity = heldout_perplexity(trainer.model(), &inputs.held_out, args.seed);
    report.phase("iterate", n as u64, 0);
    check_token_conservation(&mut report, corpus, &trainer, &sweeps);
    report.check(
        "perplexity_finite",
        perplexity.is_finite(),
        format!("held-out perplexity {perplexity}"),
    );

    let tokens: u64 = sweeps.iter().map(|s| s.tokens).sum();
    let mut total = Seconds::default();
    for wall in &walls {
        total += *wall;
    }
    let corrected_us: Vec<f64> = walls.iter().map(|s| s.corrected * 1e6).collect();
    report.set_corrected(
        "tokens_per_s",
        tokens as f64 / total.corrected,
        tokens as f64 / total.raw,
    );
    report.set_corrected(
        "op_p50_us",
        stats::median(&corrected_us),
        median_of(|s| s.raw, &walls) * 1e6,
    );
    report.diagnostic(
        "op_p95_us",
        stats::percentile(&stats::sorted(&corrected_us), 0.95),
        "us",
    );
    report.set("heldout_perplexity", perplexity);
    report.set("peak_rss_mb", peak_rss_mb());
    report.diagnostic("first_iterate_s", walls[0].corrected, "s");
    report.diagnostic("last_iterate_s", walls[n - 1].corrected, "s");
    report.diagnostic("corpus_tokens", corpus.n_tokens() as f64, "count");
    report.machine(machine);
    report.finish_end_to_end(args)
}

/// The trainer's state, rebuilt from the public parts `SaberLda` is made
/// of so that each part can be timed on its own. `new` and `sweep` follow
/// `SaberLda::new` and `SaberLda::iterate` call for call, drawing from the
/// same `StdRng::seed_from_u64(config.seed)` stream, so the word–topic
/// counts must come out bit-identical — which the traced run checks.
struct Replay {
    config: saber_core::SaberLdaConfig,
    chunks: Vec<Chunk>,
    doc_topics: Vec<CsrMatrix<u32>>,
    model: LdaModel,
    samplers: Vec<WordSampler>,
    rng: StdRng,
}

impl Replay {
    fn new(corpus: &Corpus, log: &mut SpanLog) -> Self {
        let config = trainer_config();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut chunks = log.time("core.layout.build_chunks", None, 0, || {
            build_chunks(
                corpus,
                config.n_chunks,
                config.token_order,
                config.sort_words_by_frequency,
            )
        });
        for chunk in &mut chunks {
            chunk.randomize_topics(config.n_topics, &mut rng);
        }
        let model = LdaModel::new(
            corpus.vocab_size(),
            config.n_topics,
            config.alpha,
            config.beta,
        )
        .expect("the trainer configuration is valid");
        let mut replay = Replay {
            config,
            chunks,
            doc_topics: Vec::new(),
            model,
            samplers: Vec::new(),
            rng,
        };
        // The initial M-step, outside any iteration span.
        replay.m_step(&mut SpanLog::new(), None, 0);
        replay
    }

    fn tracker(&self) -> MemoryTracker {
        MemoryTracker::new(self.config.device.l2_cache_bytes)
    }

    /// The body of the trainer's private `m_step`.
    fn m_step(&mut self, log: &mut SpanLog, parent: Option<usize>, id: u64) {
        let mut tracker = self.tracker();
        self.doc_topics.clear();
        self.model.word_topic_mut().clear();
        for chunk in &self.chunks {
            let a = log.time("core.count.rebuild_doc_topic", parent, id, || {
                rebuild_doc_topic(
                    chunk,
                    self.config.n_topics,
                    self.config.count_rebuild,
                    &mut tracker,
                )
            });
            log.time("core.count.accumulate_word_topic", parent, id, || {
                accumulate_word_topic(chunk, self.model.word_topic_mut(), &mut tracker)
            });
            self.doc_topics.push(a);
        }
        log.time("core.model.refresh_probabilities", parent, id, || {
            self.model.refresh_probabilities()
        });
        self.samplers = log.time("core.trees.build", parent, id, || {
            (0..self.model.vocab_size())
                .map(|v| {
                    WordSampler::build(self.config.preprocess, self.model.word_topic_prob().row(v))
                })
                .collect()
        });
    }

    /// One iteration: the E-step over every chunk, then the M-step.
    fn sweep(&mut self, log: &mut SpanLog, id: u64) {
        let root = log.begin("core.trainer.iterate", None, id);
        for ci in 0..self.chunks.len() {
            let mut tracker = self.tracker();
            log.time("core.kernel.sample_chunk", Some(root), id, || {
                sample_chunk(
                    &mut self.chunks[ci],
                    &self.doc_topics[ci],
                    &self.model,
                    &self.samplers,
                    &self.config,
                    &mut tracker,
                    &mut self.rng,
                )
            });
        }
        self.m_step(log, Some(root), id);
        log.end(root);
    }

    /// Mean distinct topics per document (CSR non-zeros ÷ rows).
    fn mean_kd(&self) -> f64 {
        let nnz: usize = self.doc_topics.iter().map(CsrMatrix::nnz).sum();
        let docs: usize = self.doc_topics.iter().map(CsrMatrix::rows).sum();
        nnz as f64 / docs as f64
    }
}

/// Layer names in the span log and the per-layer metric each feeds.
const CHILD_LAYERS: [(&str, &str); 5] = [
    ("core.kernel.sample_chunk", "core.kernel.sample_chunk_s"),
    (
        "core.count.rebuild_doc_topic",
        "core.count.rebuild_doc_topic_s",
    ),
    (
        "core.count.accumulate_word_topic",
        "core.count.accumulate_word_topic_s",
    ),
    (
        "core.model.refresh_probabilities",
        "core.model.refresh_probabilities_s",
    ),
    ("core.trees.build", "core.trees.build_s"),
];

pub fn trace(args: &RunArgs) -> Traced {
    let mut report = Report::new();
    let mut log = SpanLog::new();
    let inputs = log.time("corpus.generate", None, 0, || generate_inputs(args.seed));
    let corpus = &inputs.corpus;
    let n = args.scaled(TRACED_ITERATIONS_PER_SECOND, 2);

    // Sweep by sweep, the real trainer (timed per call, the untraced
    // reference) and then the same sweep from its public parts: taking
    // turns keeps a drift of the machine from landing on one of the two.
    let mut trainer =
        SaberLda::new(trainer_config(), corpus).expect("the generated corpus is trainable");
    let mut replay = Replay::new(corpus, &mut log);
    let mut sweeps = TimedSweeps::default();
    for id in 0..n as u64 {
        sweeps.time_one(&mut trainer);
        replay.sweep(&mut log, id);
    }
    report.phase("iterate", n as u64, 0);
    check_token_conservation(&mut report, corpus, &trainer, &sweeps.stats);
    report.phase("replayed_iterate", n as u64, 0);
    let identical = replay.model.word_topic().as_slice() == trainer.model().word_topic().as_slice();
    report.check(
        "decomposed_iteration_equals_iterate",
        identical,
        format!("word-topic counts after {n} sweeps bit-identical: {identical}"),
    );

    let by_name = log.self_seconds_by_name_and_id();
    let per_sweep = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let iterate_s = stats::median(&sweeps.walls_s);
    let tokens = corpus.n_tokens() as f64;
    let mut attributed_s = vec![0.0; n];
    for (span_name, metric) in CHILD_LAYERS {
        let values = per_sweep(span_name);
        report.set(metric, stats::median(&values));
        for (sum, v) in attributed_s.iter_mut().zip(&values) {
            *sum += v;
        }
    }
    let sample_s = stats::median(&per_sweep("core.kernel.sample_chunk"));
    // Sweep i does the same work in both runs (the chains are
    // bit-identical), so the shares pair up sweep by sweep.
    let unattributed: Vec<f64> = attributed_s
        .iter()
        .zip(&sweeps.walls_s)
        .map(|(attributed, wall)| 1.0 - attributed / wall)
        .collect();
    let replay_wall: f64 = log.durations_s("core.trainer.iterate").iter().sum();
    let real_wall: f64 = sweeps.walls_s.iter().sum();
    let sim_s = stats::median(
        &sweeps
            .stats
            .iter()
            .map(|s| s.phases.total())
            .collect::<Vec<_>>(),
    );
    let dram: u64 = sweeps.stats.iter().map(|s| s.sampling_dram_bytes).sum();
    let sampled: u64 = sweeps.stats.iter().map(|s| s.tokens).sum();

    report.set(
        "corpus.generate_s",
        per_sweep("corpus.generate").iter().sum(),
    );
    report.set(
        "core.layout.build_chunks_s",
        per_sweep("core.layout.build_chunks").iter().sum(),
    );
    report.set("core.kernel.ns_per_token", sample_s * 1e9 / tokens);
    report.set("core.kernel.share", sample_s / iterate_s);
    report.set("core.count.mean_kd", replay.mean_kd());
    report.set("core.trees.sample_ns", sample_with_ns(&replay.samplers));
    report.set("core.trainer.iterate_s", iterate_s);
    report.set(
        "core.trainer.unattributed_share",
        stats::median(&unattributed),
    );
    report.set("gpu_sim.sim_seconds_per_iter", sim_s);
    report.set(
        "gpu_sim.sampling_dram_bytes_per_token",
        dram as f64 / sampled as f64,
    );
    report.set("gpu_sim.wall_over_sim", iterate_s / sim_s);
    report.set("trace_overhead_share", replay_wall / real_wall - 1.0);
    Traced {
        result: report.finish_per_layer(args),
        spans: log,
    }
}
