//! The SaberLDA streaming trainer (Alg. 1 on the architecture of §3).
//!
//! One training iteration:
//!
//! 1. **E-step** — every chunk streams to the (simulated) device and its
//!    tokens are re-sampled by the configured kernel ([`crate::kernel`]);
//! 2. **M-step** — each chunk's document–topic matrix is rebuilt
//!    ([`crate::count`]), the word–topic counts are accumulated with atomic
//!    adds, `B̂` is recomputed (Eq. 2) and the per-word sampling structures are
//!    rebuilt ([`crate::trees`]);
//! 3. **Accounting** — the kernels' memory/instruction counters are converted
//!    to estimated device time by the roofline cost model, block-level load
//!    balance is simulated for blocks of `THREADS_PER_BLOCK` threads, and
//!    the streaming pipeline model decides how much transfer time is hidden
//!    by multi-worker overlap.
//!
//! Steps 1 and 2 overlap on the host: each chunk is counted on a second
//! thread while the next one is sampled (see [`SaberLda::iterate`]).
//!
//! The resulting per-phase times are what the Fig. 9 and Table 4 harnesses
//! report; convergence experiments additionally evaluate held-out likelihood
//! between iterations.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_corpus::Corpus;
use saber_gpu_sim::cost::CostModel;
use saber_gpu_sim::scheduler::dynamic_schedule;
use saber_gpu_sim::shared::sampling_kernel_working_set;
use saber_gpu_sim::stream::{simulate_pipeline, ChunkCost};
use saber_gpu_sim::{KernelStats, MemoryTracker};
use saber_sparse::{CsrMatrix, DenseMatrix};

use crate::config::SaberLdaConfig;
use crate::count::{accumulate_word_topic, rebuild_doc_topic};
use crate::eval::HeldOutEvaluator;
use crate::kernel::sample_chunk;
use crate::layout::{build_chunks, Chunk};
use crate::model::LdaModel;
use crate::report::{IterationStats, PhaseTimes, PhaseWall, TrainingReport};
use crate::traits::{IterationOutcome, LdaTrainer};
use crate::trees::{TopicSampler, WordSampler};
use crate::{Result, SaberError};

/// Threads per block of the modelled sampling kernel: the paper's Fig. 10c
/// finds a broad optimum around this size.
const THREADS_PER_BLOCK: u32 = 256;

/// The SaberLDA trainer.
///
/// See the [crate-level documentation](crate) for a quick-start example.
#[derive(Debug)]
pub struct SaberLda {
    config: SaberLdaConfig,
    chunks: Vec<Chunk>,
    doc_topics: Vec<CsrMatrix<u32>>,
    model: LdaModel,
    samplers: Vec<WordSampler>,
    cost: CostModel,
    rng: StdRng,
    iteration: usize,
    /// One mark per word id whose `B̂` row (and sampler) changed since the
    /// last [`SaberLda::take_touched_rows`], read back in id order so the
    /// exported row list is sorted and deduplicated.
    touched: Vec<bool>,
    /// The first chunk needing incremental re-sampling: every chunk from it
    /// on was ingested since the last full iteration.
    first_dirty: usize,
    /// `B̂` rows recomputed one at a time by the incremental path.
    rows_rebuilt: u64,
    /// Full `O(V·K)` refresh + sampler rebuilds.
    full_rebuilds: u64,
}

/// The one place the trainer reads the clock.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock time is reported in IterationStats for operators, never fed back into sampling"
)]
fn now() -> Instant {
    Instant::now()
}

/// Runs `f`, adding the wall-clock seconds it took to `seconds`.
fn timed<T>(seconds: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = now();
    let out = f();
    *seconds += start.elapsed().as_secs_f64();
    out
}

/// The per-chunk M-step: rebuilds `chunk`'s document–topic matrix `A` and
/// adds its tokens to `word_topic` (`B`), charging both to `tracker` and
/// timing them into `wall`.
fn count_chunk(
    chunk: &Chunk,
    config: &SaberLdaConfig,
    word_topic: &mut DenseMatrix<u32>,
    tracker: &mut MemoryTracker,
    wall: &mut PhaseWall,
) -> CsrMatrix<u32> {
    let a = timed(&mut wall.rebuild_doc_topic_s, || {
        rebuild_doc_topic(chunk, config.n_topics, config.count_rebuild, tracker)
    });
    timed(&mut wall.accumulate_word_topic_s, || {
        accumulate_word_topic(chunk, word_topic, tracker)
    });
    a
}

/// The word ids marked in `marks`, in id order.
fn marked(marks: &[bool]) -> Vec<u32> {
    (0u32..)
        .zip(marks)
        .filter_map(|(v, &m)| m.then_some(v))
        .collect()
}

/// What the E-step and M-step of one [`SaberLda::iterate`] produced, before
/// the cost model.
#[derive(Debug)]
struct Sweep {
    tokens: u64,
    /// The sampling kernel's counters, one entry per chunk.
    sampling: Vec<KernelStats>,
    /// The M-step's counters (`A` rebuilds and `B` accumulation).
    update: KernelStats,
    measured: PhaseWall,
    /// `B̂` elements the M-step's refresh wrote.
    preprocessed_elements: usize,
}

impl SaberLda {
    /// Prepares a trainer: partitions the corpus into chunks (PDOW layout),
    /// initialises topic assignments uniformly at random and runs the initial
    /// M-step so the first E-step sees consistent counts.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] for inconsistent configurations
    /// and [`SaberError::InvalidCorpus`] for corpora with no tokens.
    pub fn new(config: SaberLdaConfig, corpus: &Corpus) -> Result<Self> {
        config.validate()?;
        if corpus.n_tokens() == 0 {
            return Err(SaberError::InvalidCorpus {
                detail: "corpus has no tokens".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut chunks = build_chunks(
            corpus,
            config.n_chunks,
            config.token_order,
            config.sort_words_by_frequency,
        );
        for c in &mut chunks {
            c.randomize_topics(config.n_topics, &mut rng);
        }
        let model = LdaModel::new(
            corpus.vocab_size(),
            config.n_topics,
            config.alpha,
            config.beta,
        )?;
        let mut trainer = SaberLda {
            first_dirty: chunks.len(),
            cost: CostModel::new(config.device.clone()),
            config,
            chunks,
            doc_topics: Vec::new(),
            model,
            samplers: Vec::new(),
            rng,
            iteration: 0,
            touched: vec![false; corpus.vocab_size()],
            rows_rebuilt: 0,
            full_rebuilds: 0,
        };
        // Initial M-step (not timed as an iteration).
        let (mut tracker, mut wall) = (MemoryTracker::disabled(), PhaseWall::default());
        trainer.doc_topics = trainer
            .chunks
            .iter()
            .map(|chunk| {
                let word_topic = trainer.model.word_topic_mut();
                count_chunk(chunk, &trainer.config, word_topic, &mut tracker, &mut wall)
            })
            .collect();
        trainer.refresh_all(&mut wall);
        Ok(trainer)
    }

    /// The trained (or in-training) model.
    pub fn model(&self) -> &LdaModel {
        &self.model
    }

    /// The configuration this trainer was built with.
    pub fn config(&self) -> &SaberLdaConfig {
        &self.config
    }

    /// Number of chunks the corpus was partitioned into.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Runs one full iteration and returns its statistics.
    ///
    /// The sweep samples the chunks in order and counts each one (rebuilds
    /// its `A`, adds its tokens to `B`) on a scoped thread named
    /// `saber-count` while the next chunk is sampled; the caller counts the
    /// last chunk. Then `B̂` is refreshed and the per-word samplers are
    /// rebuilt, the two halves of the vocabulary on two threads. Topics, RNG
    /// stream, `A`, `B`, `B̂` and every counter are those of the E-step and
    /// the M-step run one after the other: the E-step reads neither `B` nor
    /// a new `A`, and the M-step's tracker sees the chunks in chunk order.
    pub fn iterate(&mut self) -> IterationStats {
        let wall_start = now();
        let sweep = self.sweep();
        self.account(&sweep, wall_start)
    }

    /// The statistics of the iteration that began at `wall_start` and ran
    /// `sweep`; advances the iteration count.
    fn account(&mut self, sweep: &Sweep, wall_start: Instant) -> IterationStats {
        let phases = self.modelled_phases(sweep);
        let mut sampling_stats = KernelStats::default();
        for chunk in &sweep.sampling {
            sampling_stats.merge(chunk);
        }
        let stats = IterationStats {
            iteration: self.iteration,
            phases,
            tokens: sweep.tokens,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            measured: sweep.measured,
            sampling_dram_bytes: sampling_stats.dram_bytes(),
            sampling_stats,
            preprocessed_elements: sweep.preprocessed_elements,
            log_likelihood: None,
        };
        self.iteration += 1;
        stats
    }

    /// The E-step and M-step of [`SaberLda::iterate`]: every kernel's
    /// counters and the measured wall-clock of each phase.
    fn sweep(&mut self) -> Sweep {
        let start = now();
        let device_l2 = self.config.device.l2_cache_bytes;
        let mut update = MemoryTracker::new(device_l2);
        // `B` leaves the model for the sweep: the E-step reads only `B̂`.
        let mut word_topic = std::mem::take(self.model.word_topic_mut());
        let mut sampling = Vec::with_capacity(self.chunks.len());
        let mut doc_topics = Vec::with_capacity(self.chunks.len());
        let mut tokens = 0u64;
        let sampled_against = std::mem::take(&mut self.doc_topics);
        let SaberLda {
            chunks,
            model,
            samplers,
            config,
            rng,
            ..
        } = self;
        // Chunk `c`'s old `A` is read by its own sampling only and dropped
        // right after it.
        for (c, doc_topic) in sampled_against.into_iter().enumerate() {
            let (counted, rest) = chunks.split_at_mut(c);
            let mut tracker = MemoryTracker::new(device_l2);
            let (a, n) = crate::beside(
                "saber-count",
                || match counted.last() {
                    // Beside the first chunk: `B` is counted from zero.
                    None => {
                        word_topic.clear();
                        None
                    }
                    Some(previous) => Some(count_chunk(
                        previous,
                        config,
                        &mut word_topic,
                        &mut update,
                        &mut PhaseWall::default(),
                    )),
                },
                || {
                    sample_chunk(
                        &mut rest[0],
                        &doc_topic,
                        model,
                        samplers,
                        config,
                        &mut tracker,
                        rng,
                    )
                },
            );
            doc_topics.extend(a);
            tokens += n;
            sampling.push(tracker.take_stats());
        }
        let mut measured = PhaseWall {
            sampling_s: start.elapsed().as_secs_f64(),
            ..PhaseWall::default()
        };
        let last = chunks.last().expect("a trainer has at least one chunk");
        doc_topics.push(count_chunk(
            last,
            config,
            &mut word_topic,
            &mut update,
            &mut measured,
        ));
        *self.model.word_topic_mut() = word_topic;
        self.doc_topics = doc_topics;
        // Every chunk is now freshly sampled against consistent counts.
        self.first_dirty = self.chunks.len();
        let preprocessed_elements = self.refresh_all(&mut measured);
        Sweep {
            tokens,
            sampling,
            update: update.take_stats(),
            measured,
            preprocessed_elements,
        }
    }

    /// Converts a sweep's counters to estimated device time per phase.
    fn modelled_phases(&self, sweep: &Sweep) -> PhaseTimes {
        let balance = self.block_balance_factor();
        let per_chunk_sampling: Vec<f64> = sweep
            .sampling
            .iter()
            .map(|s| self.cost.kernel_time(s).total_seconds * balance)
            .collect();
        let sampling_time: f64 = per_chunk_sampling.iter().sum();

        let a_update_time = self.cost.kernel_time(&sweep.update).total_seconds;
        let preprocessing_time = self
            .cost
            .kernel_time(&self.preprocessing_stats())
            .total_seconds;

        // ---- Streaming pipeline: how much transfer is exposed? ----
        let chunk_costs: Vec<ChunkCost> = self
            .chunks
            .iter()
            .zip(per_chunk_sampling.iter())
            .map(|(c, &compute)| {
                let a_bytes = 8 * c.n_tokens() as u64 / 4; // CSR rows ≈ K_d per doc
                ChunkCost {
                    h2d_seconds: self.cost.transfer_time(c.token_bytes() + a_bytes),
                    compute_seconds: compute + a_update_time / self.chunks.len() as f64,
                    d2h_seconds: self.cost.transfer_time(c.token_bytes() / 2 + a_bytes),
                }
            })
            .collect();
        let pipeline = simulate_pipeline(&chunk_costs, self.config.n_workers.max(1));
        let exposed_transfer = (pipeline.elapsed_seconds - pipeline.compute_seconds).max(0.0);

        PhaseTimes {
            sampling: sampling_time,
            a_update: a_update_time,
            preprocessing: preprocessing_time,
            transfer: exposed_transfer,
        }
    }

    /// Trains for the configured number of iterations.
    pub fn train(&mut self) -> TrainingReport {
        let mut report = TrainingReport::new();
        for _ in 0..self.config.n_iterations {
            report.iterations.push(self.iterate());
        }
        report
    }

    /// Trains for the configured number of iterations, evaluating held-out
    /// log-likelihood every `eval_every` iterations (and on the last one).
    pub fn train_with_eval(
        &mut self,
        evaluator: &HeldOutEvaluator,
        eval_every: usize,
    ) -> TrainingReport {
        let every = eval_every.max(1);
        let mut report = TrainingReport::new();
        for i in 0..self.config.n_iterations {
            let mut stats = self.iterate();
            if i % every == 0 || i + 1 == self.config.n_iterations {
                stats.log_likelihood =
                    Some(evaluator.log_likelihood(self.model.word_topic_prob(), self.config.alpha));
            }
            report.iterations.push(stats);
        }
        report
    }

    /// The M-step's tail once every chunk is counted, and the pipeline's
    /// rebase: refreshes `B̂` and rebuilds the per-word sampling structures,
    /// timing both into `wall`. Returns the `B̂` elements written.
    fn refresh_all(&mut self, wall: &mut PhaseWall) -> usize {
        let elements = timed(&mut wall.refresh_s, || self.model.refresh_probabilities());
        timed(&mut wall.trees_s, || self.rebuild_samplers());
        // A full refresh rewrites every B̂ row (the per-topic denominators
        // change), so every row is dirty for the next snapshot export.
        self.touched.fill(true);
        self.full_rebuilds += 1;
        elements
    }

    /// Rebuilds every word's sampling structure from its `B̂` row, each in
    /// its own allocation ([`WordSampler::rebuild`]) instead of a second set
    /// of `V` growing beside the first, the two halves of the vocabulary on
    /// two threads.
    fn rebuild_samplers(&mut self) {
        let kind = self.config.preprocess;
        let bhat = self.model.word_topic_prob();
        if self.samplers.is_empty() {
            // The first M-step starts from no samplers at all.
            self.samplers = bhat
                .iter_rows()
                .map(|row| WordSampler::build(kind, row))
                .collect();
            return;
        }
        let half = self.samplers.len() / 2;
        let (front, back) = self.samplers.split_at_mut(half);
        let rebuild = |samplers: &mut [WordSampler], first: usize| {
            for (sampler, v) in samplers.iter_mut().zip(first..) {
                sampler.rebuild(kind, bhat.row(v));
            }
        };
        crate::beside("saber-trees", || rebuild(back, half), || rebuild(front, 0));
    }

    /// Ingests `docs` (word-id documents) as one new streamed chunk:
    /// topics are randomised from the trainer's RNG stream, the tokens are
    /// added to `B`, and only the `B̂` rows (and per-word samplers) of the
    /// words the new documents actually use are recomputed — `O(changed·K)`
    /// instead of the `O(V·K)` full preprocess, using the cached per-topic
    /// denominators ([`LdaModel::refresh_probability_rows`]) and refilling
    /// each word's sampler in place, as [`SaberLda::iterate_incremental`]
    /// does. The chunk is marked for incremental re-sampling by
    /// [`SaberLda::iterate_incremental`]. Returns the number of tokens
    /// ingested.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidCorpus`] when `docs` carries no tokens
    /// or a word id outside the trainer's vocabulary.
    pub fn ingest(&mut self, docs: Vec<Vec<u32>>) -> Result<u64> {
        let documents = docs.into_iter().map(saber_corpus::Document::new).collect();
        let corpus = Corpus::from_documents(self.model.vocab_size(), documents).map_err(|e| {
            SaberError::InvalidCorpus {
                detail: format!("ingested documents are invalid: {e}"),
            }
        })?;
        if corpus.n_tokens() == 0 {
            return Err(SaberError::InvalidCorpus {
                detail: "ingested documents carry no tokens".into(),
            });
        }
        let mut chunks = build_chunks(
            &corpus,
            1,
            self.config.token_order,
            self.config.sort_words_by_frequency,
        );
        let mut chunk = chunks.remove(0);
        chunk.randomize_topics(self.config.n_topics, &mut self.rng);
        let tokens = chunk.n_tokens() as u64;
        let (mut tracker, mut wall) = (MemoryTracker::disabled(), PhaseWall::default());
        let word_topic = self.model.word_topic_mut();
        let a = count_chunk(&chunk, &self.config, word_topic, &mut tracker, &mut wall);
        self.doc_topics.push(a);
        self.chunks.push(chunk);
        self.refresh_rows(&self.changed_words(self.chunks.len() - 1));
        Ok(tokens)
    }

    /// One incremental E/M pass over only the chunks ingested since the
    /// last full iteration: each dirty chunk's tokens are re-sampled, `B`
    /// is updated by subtracting the chunk's old assignments and adding the
    /// new ones (no full rebuild), the chunk's document–topic matrix is
    /// rebuilt, and only the `B̂` rows and samplers of words appearing in
    /// dirty chunks are recomputed. Returns the number of tokens sampled
    /// (0 when nothing is dirty). The chunks stay dirty — call again for
    /// further passes, or [`SaberLda::iterate`] for a full sweep.
    pub fn iterate_incremental(&mut self) -> u64 {
        let mut tokens = 0u64;
        for ci in self.first_dirty..self.chunks.len() {
            {
                let chunk = &self.chunks[ci];
                for (word, _, topic) in chunk.iter_tokens() {
                    self.model.word_topic_mut()[(word as usize, topic as usize)] -= 1;
                }
            }
            let mut tracker = MemoryTracker::disabled();
            tokens += sample_chunk(
                &mut self.chunks[ci],
                &self.doc_topics[ci],
                &self.model,
                &self.samplers,
                &self.config,
                &mut tracker,
                &mut self.rng,
            );
            let (chunk, wall) = (&self.chunks[ci], &mut PhaseWall::default());
            let word_topic = self.model.word_topic_mut();
            self.doc_topics[ci] = count_chunk(chunk, &self.config, word_topic, &mut tracker, wall);
        }
        self.refresh_rows(&self.changed_words(self.first_dirty));
        tokens
    }

    /// The distinct word ids of the tokens of the chunks from `first` on, in
    /// id order: each token marks its word in a `V`-length vector that is
    /// read back once.
    fn changed_words(&self, first: usize) -> Vec<u32> {
        let mut marks = vec![false; self.model.vocab_size()];
        for &w in self.chunks[first..].iter().flat_map(|c| &c.word_ids) {
            marks[w as usize] = true;
        }
        marked(&marks)
    }

    /// Recomputes `B̂` rows for exactly `rows` (sorted, deduplicated) with
    /// cached denominators, refills their samplers in place with
    /// [`WordSampler::rebuild`], as a full sweep does, and marks them
    /// touched for the next export.
    fn refresh_rows(&mut self, rows: &[u32]) {
        self.model.refresh_probability_rows(rows);
        let (kind, bhat) = (self.config.preprocess, self.model.word_topic_prob());
        for &v in rows {
            self.samplers[v as usize].rebuild(kind, bhat.row(v as usize));
            self.touched[v as usize] = true;
        }
        self.rows_rebuilt += rows.len() as u64;
    }

    /// Rebases the lazily-stale per-topic denominators: a full `B̂` refresh
    /// and sampler rebuild (every row becomes touched). The continuous
    /// pipeline calls this on a cadence so incremental drift stays bounded.
    pub fn full_refresh(&mut self) {
        self.refresh_all(&mut PhaseWall::default());
    }

    /// The word ids whose `B̂` rows changed since the last call (sorted,
    /// deduplicated), clearing the set — the changed-row list a snapshot
    /// export turns into a `SABRDELTA`.
    pub fn take_touched_rows(&mut self) -> Vec<u32> {
        let rows = marked(&self.touched);
        self.touched.fill(false);
        rows
    }

    /// Re-marks `rows` as touched — the inverse of
    /// [`Self::take_touched_rows`] for a caller whose publication failed
    /// *after* draining the set. Merging the drained list back in (rows
    /// touched since the drain stay touched) keeps the invariant that the
    /// next export covers every row changed since the last *successful*
    /// publication, so a retried delta is never missing rows. Each row must
    /// be a word id of the vocabulary, as every drained row is.
    pub fn restore_touched_rows(&mut self, rows: &[u32]) {
        rows.iter().for_each(|&v| self.touched[v as usize] = true);
    }

    /// `B̂` rows recomputed individually by the incremental path (ingest and
    /// incremental iterations) since construction.
    pub fn rows_rebuilt(&self) -> u64 {
        self.rows_rebuilt
    }

    /// Full `O(V·K)` preprocess passes since construction (initial M-step
    /// included).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Counters attributed to pre-processing: recomputing `B̂` (one read of `B`
    /// and one write of `B̂`) plus building the per-word sampling structures.
    fn preprocessing_stats(&self) -> KernelStats {
        let v = self.model.vocab_size() as u64;
        let k = self.model.n_topics() as u64;
        let build_instructions: u64 = self.samplers.iter().map(|s| s.build_instructions()).sum();
        KernelStats {
            global_read_bytes: v * k * 4,
            global_write_bytes: v * k * 4,
            warp_instructions: v * k / 8 + build_instructions,
            ..KernelStats::default()
        }
    }

    /// Block-level efficiency factor for blocks of `THREADS_PER_BLOCK`
    /// threads: dynamic scheduling of words onto concurrently-resident
    /// blocks, in-block synchronisation overhead, and an occupancy term for
    /// latency hiding. Returns a multiplier ≥ 1 applied to the roofline time.
    fn block_balance_factor(&self) -> f64 {
        let t = u64::from(THREADS_PER_BLOCK);
        let warps_per_block = (t / 32).max(1);
        let device = &self.config.device;

        // Occupancy: how many blocks fit per SM, limited by threads and by the
        // kernel's shared-memory working set.
        let max_threads_per_sm = 2048u64;
        let shared_per_sm = 2 * device.shared_mem_per_block as u64;
        let working_set = sampling_kernel_working_set(self.config.n_topics).max(1);
        let blocks_by_threads = (max_threads_per_sm / t).max(1);
        let blocks_by_shared = (shared_per_sm / working_set).max(1);
        let blocks_per_sm = blocks_by_threads.min(blocks_by_shared).min(16);
        let concurrent_blocks = (device.sm_count as u64 * blocks_per_sm).max(1) as usize;

        // Latency hiding: resident warps per SM relative to a full complement.
        let resident_warps = blocks_per_sm * warps_per_block;
        let occupancy = (resident_warps as f64 / 48.0).min(1.0);
        let latency_factor = 1.0 + 0.35 * (1.0 - occupancy);

        // Load balance: schedule the words of the largest chunk onto the
        // concurrent blocks; per-word work is its warp-iterations plus an
        // in-block synchronisation term that grows with the warp count. The
        // efficiency is floored at 0.4 because warp-level dynamic token
        // fetching inside a block (§3.4) smooths most of the tail that a pure
        // one-word-per-block makespan would show; without the floor, scaled
        // test corpora (whose distinct-word count is comparable to the number
        // of concurrent blocks) exaggerate an imbalance that the paper's
        // corpora, with V ≈ 100k ≫ resident blocks, do not exhibit.
        let sync = (warps_per_block as f64).log2().ceil() as u64 + 1;
        let balance_eff = self
            .chunks
            .iter()
            .map(|chunk| {
                let work: Vec<u64> = chunk
                    .segments
                    .iter()
                    .map(|s| (s.len() as u64).div_ceil(warps_per_block) + sync)
                    .collect();
                dynamic_schedule(&work, concurrent_blocks).efficiency()
            })
            .fold(1.0f64, f64::min)
            .max(0.4);

        latency_factor / balance_eff
    }
}

impl LdaTrainer for SaberLda {
    fn name(&self) -> String {
        format!("SaberLDA ({})", self.config.device.name)
    }

    fn n_topics(&self) -> usize {
        self.config.n_topics
    }

    fn alpha(&self) -> f32 {
        self.config.alpha
    }

    fn step(&mut self) -> IterationOutcome {
        let stats = self.iterate();
        IterationOutcome {
            seconds: stats.phases.total(),
            tokens: stats.tokens,
        }
    }

    fn word_topic_prob(&self) -> &saber_sparse::DenseMatrix<f32> {
        self.model.word_topic_prob()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptLevel, SaberLdaConfig};
    use saber_corpus::synthetic::SyntheticSpec;
    use std::collections::BTreeSet;

    fn small_config(k: usize, iterations: usize) -> SaberLdaConfig {
        SaberLdaConfig::builder()
            .n_topics(k)
            .n_iterations(iterations)
            .n_chunks(2)
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn training_runs_and_counts_every_token() {
        let corpus = SyntheticSpec::small_test().generate(1);
        let mut lda = SaberLda::new(small_config(8, 3), &corpus).unwrap();
        let report = lda.train();
        assert_eq!(report.iterations.len(), 3);
        for it in &report.iterations {
            assert_eq!(it.tokens, corpus.n_tokens());
            assert!(it.phases.sampling > 0.0);
            assert!(it.phases.a_update > 0.0);
            assert!(it.phases.preprocessing > 0.0);
            assert!(it.phases.total() > 0.0);
        }
        // Word-topic counts must account for every token after training.
        assert_eq!(lda.model().word_topic().total(), corpus.n_tokens());
    }

    #[test]
    fn measured_phases_account_for_the_iteration_wall_clock() {
        // Large enough that the sweep dwarfs the cost model that follows it.
        let corpus = SyntheticSpec {
            n_docs: 400,
            vocab_size: 1_000,
            mean_doc_len: 120.0,
            ..SyntheticSpec::small_test()
        }
        .generate(9);
        let mut lda = SaberLda::new(small_config(64, 3), &corpus).unwrap();
        let report = lda.train();
        for it in &report.iterations {
            let m = it.measured;
            for phase in [
                m.sampling_s,
                m.rebuild_doc_topic_s,
                m.accumulate_word_topic_s,
                m.refresh_s,
                m.trees_s,
            ] {
                assert!(phase > 0.0, "{m:?}");
            }
            // The phases are disjoint stretches of the iteration.
            assert!(m.total() <= it.wall_seconds, "{m:?} > {}", it.wall_seconds);
        }
        let (phases, wall) = (report.measured_totals().total(), report.wall_seconds());
        assert!(
            phases >= 0.9 * wall,
            "phases cover only {phases} s of {wall} s"
        );
    }

    /// One sweep of `lda` from the public parts, one after the other: every
    /// chunk sampled, then every chunk counted on one tracker, then `B̂`
    /// refreshed and every sampler built afresh.
    fn serial_sweep(lda: &mut SaberLda) -> Sweep {
        let l2 = lda.config.device.l2_cache_bytes;
        let (mut tokens, mut sampling) = (0, Vec::new());
        for (chunk, a) in lda.chunks.iter_mut().zip(&lda.doc_topics) {
            let mut tracker = MemoryTracker::new(l2);
            tokens += sample_chunk(
                chunk,
                a,
                &lda.model,
                &lda.samplers,
                &lda.config,
                &mut tracker,
                &mut lda.rng,
            );
            sampling.push(tracker.take_stats());
        }
        let mut update = MemoryTracker::new(l2);
        lda.model.word_topic_mut().clear();
        lda.doc_topics = lda
            .chunks
            .iter()
            .map(|chunk| {
                let (k, method) = (lda.config.n_topics, lda.config.count_rebuild);
                let a = rebuild_doc_topic(chunk, k, method, &mut update);
                accumulate_word_topic(chunk, lda.model.word_topic_mut(), &mut update);
                a
            })
            .collect();
        let preprocessed_elements = lda.model.refresh_probabilities();
        let kind = lda.config.preprocess;
        lda.samplers = (0..lda.model.vocab_size())
            .map(|v| WordSampler::build(kind, lda.model.word_topic_prob().row(v)))
            .collect();
        Sweep {
            tokens,
            sampling,
            update: update.take_stats(),
            measured: PhaseWall::default(),
            preprocessed_elements,
        }
    }

    #[test]
    fn iterate_equals_its_e_step_and_m_step_run_one_after_the_other() {
        use crate::config::{CountRebuild, TokenOrder};
        let corpus = SyntheticSpec {
            n_docs: 60,
            vocab_size: 150,
            mean_doc_len: 30.0,
            ..SyntheticSpec::small_test()
        }
        .generate(21);
        // One chunk overlaps nothing; with three, the middle one is counted
        // beside the sampling of the last.
        for n_chunks in [1, 3] {
            for order in [TokenOrder::DocMajor, TokenOrder::WordMajor] {
                for count in [CountRebuild::Ssc, CountRebuild::NaiveSort] {
                    let config = SaberLdaConfig::builder()
                        .n_topics(12)
                        .n_chunks(n_chunks)
                        .token_order(order)
                        .count_rebuild(count)
                        .seed(5)
                        .build()
                        .unwrap();
                    let mut lda = SaberLda::new(config.clone(), &corpus).unwrap();
                    let mut replay = SaberLda::new(config, &corpus).unwrap();
                    for i in 0..3 {
                        let case = format!("{n_chunks} chunks, {order:?}, {count:?}, sweep {i}");
                        // `iterate()` is `sweep()` then `account()`.
                        let (overlapped, start) = (lda.sweep(), now());
                        let stats = lda.account(&overlapped, start);
                        let serial = serial_sweep(&mut replay);
                        let expected = replay.account(&serial, start);

                        assert_eq!(lda.model.word_topic(), replay.model.word_topic(), "{case}");
                        for (a, b) in lda.chunks.iter().zip(&replay.chunks) {
                            assert_eq!(a.topics, b.topics, "{case}");
                        }
                        assert_eq!(lda.doc_topics, replay.doc_topics, "{case}");
                        assert_eq!(lda.rng, replay.rng, "{case}");
                        assert_eq!(stats.tokens, expected.tokens, "{case}");
                        assert_eq!(stats.sampling_stats, expected.sampling_stats, "{case}");
                        assert_eq!(overlapped.update, serial.update, "{case}");
                        assert_eq!(
                            stats.preprocessed_elements, expected.preprocessed_elements,
                            "{case}"
                        );
                        assert_eq!(
                            stats.phases.total().to_bits(),
                            expected.phases.total().to_bits(),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let corpus = SyntheticSpec::small_test().generate(2);
        let mut a = SaberLda::new(small_config(6, 2), &corpus).unwrap();
        let mut b = SaberLda::new(small_config(6, 2), &corpus).unwrap();
        a.train();
        b.train();
        for v in 0..corpus.vocab_size() {
            assert_eq!(a.model().word_topic().row(v), b.model().word_topic().row(v));
        }
    }

    #[test]
    fn held_out_likelihood_improves_with_training() {
        let spec = SyntheticSpec {
            n_docs: 150,
            vocab_size: 300,
            mean_doc_len: 40.0,
            n_topics: 6,
            ..SyntheticSpec::default()
        };
        let corpus = spec.generate(7);
        let evaluator = HeldOutEvaluator::new(&corpus, 9).unwrap();
        let mut lda = SaberLda::new(small_config(6, 12), &corpus).unwrap();
        let report = lda.train_with_eval(&evaluator, 1);
        let curve = report.convergence_curve();
        assert!(curve.len() >= 10);
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        // Margin is sensitive to the exact RNG stream (the vendored `rand`
        // stub is xoshiro256**, not upstream's ChaCha); require a clear
        // improvement without pinning the stream.
        assert!(
            last > first + 0.02,
            "held-out log-likelihood did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn opt_levels_monotonically_reduce_iteration_time() {
        let corpus = SyntheticSpec {
            n_docs: 120,
            vocab_size: 400,
            mean_doc_len: 60.0,
            ..SyntheticSpec::small_test()
        }
        .generate(4);
        let mut times = Vec::new();
        for level in OptLevel::ALL {
            let config = SaberLdaConfig::builder()
                .n_topics(64)
                .n_iterations(2)
                .n_chunks(3)
                .seed(1)
                .opt_level(level)
                .build()
                .unwrap();
            let mut lda = SaberLda::new(config, &corpus).unwrap();
            let report = lda.train();
            times.push((level, report.total_seconds()));
        }
        // Each optimisation level should not be slower than the previous one
        // (allowing 5% noise), and G4 should be meaningfully faster than G0.
        for w in times.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.05,
                "{} ({:.6}s) slower than {} ({:.6}s)",
                w[1].0,
                w[1].1,
                w[0].0,
                w[0].1
            );
        }
        assert!(
            times.last().unwrap().1 < 0.8 * times.first().unwrap().1,
            "G4 {:.6}s not clearly faster than G0 {:.6}s",
            times.last().unwrap().1,
            times.first().unwrap().1
        );
    }

    #[test]
    fn ingest_rebuilds_only_touched_rows_and_conserves_tokens() {
        let corpus = SyntheticSpec::small_test().generate(11);
        let mut lda = SaberLda::new(small_config(6, 1), &corpus).unwrap();
        // Construction runs the initial (full) M-step: every row is touched,
        // nothing has gone through the incremental path yet.
        assert_eq!(lda.full_rebuilds(), 1);
        assert_eq!(lda.rows_rebuilt(), 0);
        let initial = lda.take_touched_rows();
        assert_eq!(initial.len(), corpus.vocab_size());
        assert!(lda.take_touched_rows().is_empty());

        let docs = vec![vec![0u32, 1, 2, 1], vec![2u32, 3, 3]];
        let distinct: BTreeSet<u32> = docs.iter().flatten().copied().collect();
        let n_new: u64 = docs.iter().map(|d| d.len() as u64).sum();
        let before = lda.model().word_topic().total();
        assert_eq!(lda.ingest(docs).unwrap(), n_new);
        // Exactly the distinct ingested words were rebuilt — not O(V).
        assert_eq!(lda.rows_rebuilt(), distinct.len() as u64);
        assert!((distinct.len() as u64) < corpus.vocab_size() as u64);
        let touched = lda.take_touched_rows();
        assert_eq!(touched, distinct.iter().copied().collect::<Vec<u32>>());
        assert_eq!(lda.model().word_topic().total(), before + n_new);
        assert_eq!(lda.full_rebuilds(), 1);
    }

    #[test]
    fn incremental_iteration_touches_only_dirty_words_and_keeps_other_rows_bit_identical() {
        let corpus = SyntheticSpec::small_test().generate(12);
        let mut lda = SaberLda::new(small_config(6, 1), &corpus).unwrap();
        lda.take_touched_rows();
        let frozen: Vec<Vec<f32>> = (0..corpus.vocab_size())
            .map(|v| lda.model().word_topic_prob().row(v).to_vec())
            .collect();

        let docs = vec![vec![0u32, 1, 2], vec![1u32, 4, 4, 0]];
        let distinct: BTreeSet<u32> = docs.iter().flatten().copied().collect();
        let n_new: u64 = docs.iter().map(|d| d.len() as u64).sum();
        lda.ingest(docs).unwrap();
        let total_after_ingest = lda.model().word_topic().total();
        // Re-sampling the dirty chunk moves counts between topics but never
        // creates or destroys tokens, and only re-touches the dirty words.
        assert_eq!(lda.iterate_incremental(), n_new);
        assert_eq!(lda.model().word_topic().total(), total_after_ingest);
        assert_eq!(lda.rows_rebuilt(), 2 * distinct.len() as u64);
        assert_eq!(
            lda.take_touched_rows(),
            distinct.iter().copied().collect::<Vec<u32>>()
        );
        for (v, frozen_row) in frozen.iter().enumerate() {
            if !distinct.contains(&(v as u32)) {
                assert_eq!(
                    lda.model().word_topic_prob().row(v),
                    frozen_row.as_slice(),
                    "untouched B̂ row {v} changed bits"
                );
            }
        }
        // With nothing newly ingested the dirty chunk is still re-sampled.
        assert_eq!(lda.iterate_incremental(), n_new);
        // A full iteration clears the dirty set; afterwards the incremental
        // pass is a no-op.
        lda.iterate();
        assert_eq!(lda.iterate_incremental(), 0);
    }

    #[test]
    fn restore_touched_rows_merges_back_into_later_touches() {
        let corpus = SyntheticSpec::small_test().generate(15);
        let mut lda = SaberLda::new(small_config(6, 1), &corpus).unwrap();
        lda.take_touched_rows();

        // A drain whose publication failed: the drained rows go back in…
        lda.ingest(vec![vec![0u32, 1, 2]]).unwrap();
        let drained = lda.take_touched_rows();
        assert_eq!(drained, vec![0, 1, 2]);
        lda.restore_touched_rows(&drained);

        // …and the next drain is the union with everything touched since,
        // still sorted and deduplicated (row 2 overlaps both batches).
        lda.ingest(vec![vec![2u32, 7]]).unwrap();
        assert_eq!(lda.take_touched_rows(), vec![0, 1, 2, 7]);
        assert!(lda.take_touched_rows().is_empty());
    }

    /// The incremental path as it stood before words were marked per id: a
    /// `BTreeSet` of the changed words, a freshly built sampler for each of
    /// their rows, and a `BTreeSet` of touched rows beside the trainer.
    struct SetOracle {
        lda: SaberLda,
        touched: BTreeSet<u32>,
    }

    impl SetOracle {
        fn new(config: SaberLdaConfig, corpus: &Corpus) -> Self {
            let lda = SaberLda::new(config, corpus).unwrap();
            let touched = (0..lda.model.vocab_size() as u32).collect();
            SetOracle { lda, touched }
        }

        fn ingest(&mut self, docs: Vec<Vec<u32>>) -> u64 {
            let lda = &mut self.lda;
            let documents = docs.into_iter().map(saber_corpus::Document::new).collect();
            let corpus = Corpus::from_documents(lda.model.vocab_size(), documents).unwrap();
            let (order, sort) = (lda.config.token_order, lda.config.sort_words_by_frequency);
            let mut chunk = build_chunks(&corpus, 1, order, sort).remove(0);
            chunk.randomize_topics(lda.config.n_topics, &mut lda.rng);
            let (mut tracker, mut wall) = (MemoryTracker::disabled(), PhaseWall::default());
            let word_topic = lda.model.word_topic_mut();
            let a = count_chunk(&chunk, &lda.config, word_topic, &mut tracker, &mut wall);
            lda.doc_topics.push(a);
            let changed: BTreeSet<u32> = chunk.word_ids.iter().copied().collect();
            let tokens = chunk.n_tokens() as u64;
            lda.chunks.push(chunk);
            assert!(lda.first_dirty < lda.chunks.len(), "the new chunk is dirty");
            self.refresh_rows(&changed);
            tokens
        }

        fn iterate_incremental(&mut self) -> u64 {
            let (lda, mut tokens) = (&mut self.lda, 0);
            let mut changed = BTreeSet::new();
            for ci in lda.first_dirty..lda.chunks.len() {
                for (word, _, topic) in lda.chunks[ci].iter_tokens() {
                    lda.model.word_topic_mut()[(word as usize, topic as usize)] -= 1;
                }
                let mut tracker = MemoryTracker::disabled();
                tokens += sample_chunk(
                    &mut lda.chunks[ci],
                    &lda.doc_topics[ci],
                    &lda.model,
                    &lda.samplers,
                    &lda.config,
                    &mut tracker,
                    &mut lda.rng,
                );
                let (chunk, wall) = (&lda.chunks[ci], &mut PhaseWall::default());
                let word_topic = lda.model.word_topic_mut();
                lda.doc_topics[ci] =
                    count_chunk(chunk, &lda.config, word_topic, &mut tracker, wall);
                changed.extend(lda.chunks[ci].word_ids.iter().copied());
            }
            self.refresh_rows(&changed);
            tokens
        }

        fn refresh_rows(&mut self, rows: &BTreeSet<u32>) {
            let lda = &mut self.lda;
            let sorted: Vec<u32> = rows.iter().copied().collect();
            lda.model.refresh_probability_rows(&sorted);
            for &v in &sorted {
                let row = lda.model.word_topic_prob().row(v as usize);
                lda.samplers[v as usize] = WordSampler::build(lda.config.preprocess, row);
            }
            lda.rows_rebuilt += sorted.len() as u64;
            self.touched.extend(sorted);
        }

        fn take_touched_rows(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.touched).into_iter().collect()
        }
    }

    #[test]
    fn incremental_passes_equal_the_set_and_fresh_build_oracle() {
        use crate::config::{PreprocessKind, TokenOrder};
        let corpus = SyntheticSpec::small_test().generate(16);
        let stream = SyntheticSpec::small_test().generate(17);
        let docs: Vec<Vec<u32>> = stream
            .documents()
            .iter()
            .take(18)
            .map(|d| d.words().to_vec())
            .collect();
        for kind in [
            PreprocessKind::WaryTree,
            PreprocessKind::AliasTable,
            PreprocessKind::FenwickTree,
        ] {
            for order in [TokenOrder::DocMajor, TokenOrder::WordMajor] {
                let config = SaberLdaConfig::builder()
                    .n_topics(12)
                    .n_chunks(2)
                    .token_order(order)
                    .preprocess(kind)
                    .seed(9)
                    .build()
                    .unwrap();
                let mut lda = SaberLda::new(config.clone(), &corpus).unwrap();
                let mut oracle = SetOracle::new(config, &corpus);
                // Batch `b` leaves `b + 1` chunks in the dirty set.
                for (b, batch) in docs.chunks(6).enumerate() {
                    let ingested = lda.ingest(batch.to_vec()).unwrap();
                    assert_eq!(ingested, oracle.ingest(batch.to_vec()));
                    let case = format!("{kind:?}, {order:?}, batch {b}, ingest");
                    assert_agree(&mut lda, &mut oracle, &case);
                    for pass in 0..2 {
                        let case = format!("{kind:?}, {order:?}, batch {b}, pass {pass}");
                        let tokens = lda.iterate_incremental();
                        assert_eq!(tokens, oracle.iterate_incremental(), "{case}");
                        let touched = assert_agree(&mut lda, &mut oracle, &case);
                        // A failed publication of the middle batch's last
                        // drain: its rows merge into the last batch's ingest.
                        if (b, pass) == (1, 1) {
                            lda.restore_touched_rows(&touched);
                            oracle.touched.extend(touched);
                        }
                    }
                }
            }
        }
    }

    /// Asserts that `lda` and `oracle` hold the same state, then drains both
    /// touched sets, asserts they agree and returns the drained rows.
    fn assert_agree(lda: &mut SaberLda, oracle: &mut SetOracle, case: &str) -> Vec<u32> {
        let expected = &oracle.lda;
        assert_eq!(
            lda.model.word_topic(),
            expected.model.word_topic(),
            "{case}"
        );
        let bits = |m: &LdaModel| -> Vec<u32> {
            let bhat = m.word_topic_prob().as_slice();
            bhat.iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&lda.model), bits(&expected.model), "{case}");
        for (a, b) in lda.chunks.iter().zip(&expected.chunks) {
            assert_eq!(a.topics, b.topics, "{case}");
        }
        assert_eq!(lda.doc_topics, expected.doc_topics, "{case}");
        assert_eq!(lda.rng, expected.rng, "{case}");
        assert!(lda.samplers == expected.samplers, "{case}: samplers differ");
        assert_eq!(lda.rows_rebuilt, expected.rows_rebuilt, "{case}");
        let touched = lda.take_touched_rows();
        assert_eq!(touched, oracle.take_touched_rows(), "{case}");
        touched
    }

    #[test]
    fn incremental_training_is_deterministic_for_a_seed() {
        let corpus = SyntheticSpec::small_test().generate(13);
        let mut a = SaberLda::new(small_config(5, 1), &corpus).unwrap();
        let mut b = SaberLda::new(small_config(5, 1), &corpus).unwrap();
        for lda in [&mut a, &mut b] {
            lda.ingest(vec![vec![1u32, 2, 3], vec![0u32, 0, 5]])
                .unwrap();
            lda.iterate_incremental();
            lda.full_refresh();
        }
        for v in 0..corpus.vocab_size() {
            assert_eq!(
                a.model().word_topic_prob().row(v),
                b.model().word_topic_prob().row(v)
            );
        }
        assert_eq!(a.take_touched_rows(), b.take_touched_rows());
    }

    #[test]
    fn ingest_rejects_out_of_vocab_and_empty_batches() {
        let corpus = SyntheticSpec::small_test().generate(14);
        let v = corpus.vocab_size() as u32;
        let mut lda = SaberLda::new(small_config(4, 1), &corpus).unwrap();
        assert!(lda.ingest(vec![vec![v]]).is_err());
        assert!(lda.ingest(vec![]).is_err());
        assert!(lda.ingest(vec![vec![]]).is_err());
    }

    #[test]
    fn trainer_rejects_empty_corpus() {
        let corpus = saber_corpus::Corpus::from_documents(5, vec![]).unwrap();
        assert!(SaberLda::new(small_config(4, 1), &corpus).is_err());
    }

    #[test]
    fn lda_trainer_trait_is_usable() {
        let corpus = SyntheticSpec::small_test().generate(8);
        let mut lda = SaberLda::new(small_config(5, 1), &corpus).unwrap();
        let trainer: &mut dyn LdaTrainer = &mut lda;
        assert!(trainer.name().contains("SaberLDA"));
        assert_eq!(trainer.n_topics(), 5);
        let out = trainer.step();
        assert_eq!(out.tokens, corpus.n_tokens());
        assert!(out.seconds > 0.0);
        assert_eq!(trainer.word_topic_prob().rows(), corpus.vocab_size());
    }
}
