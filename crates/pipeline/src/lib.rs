//! # saber-pipeline — continuous training→serving for SaberLDA
//!
//! The serving stack ([`saber_serve`]) swaps whole epochs atomically; the
//! trainer ([`saber_core::SaberLda`]) now learns incrementally. This crate
//! closes the loop: a [`TrainingPipeline`] ingests a document stream in
//! batches, runs incremental Gibbs passes over the new material, and on a
//! configurable cadence exports an [`InferenceSnapshot`] and pushes it to
//! a live fleet through [`ShardRouter::publish_incremental`] — the delta
//! fast path that ships only the `B̂` rows the trainer actually touched.
//!
//! The cheapness of a publish rests on one invariant, maintained jointly
//! with the trainer: between two published epochs, every `B̂` row the
//! trainer did **not** report as touched is bit-identical in both. The
//! trainer's lazy row refresh (`refresh_probability_rows` against cached
//! topic totals) guarantees this, so a `SABRDELTA` of the touched rows
//! applied server-side reconstructs the next epoch exactly — replicas
//! refreshed by delta answer bit-for-bit like replicas handed the full
//! snapshot. The same invariant lets the pipeline derive each export from
//! the last one by rebuilding only the touched rows
//! ([`InferenceSnapshot::refreshed`]). See `docs/PIPELINE.md` for the daemon
//! lifecycle, the delta format and the fallback rules.
//!
//! # Example
//!
//! ```
//! use saber_corpus::synthetic::SyntheticSpec;
//! use saber_pipeline::{DocumentFeed, PipelineConfig, TrainingPipeline};
//! use saber_core::SaberLdaConfig;
//! use saber_serve::ServeConfig;
//!
//! let spec = SyntheticSpec::small_test();
//! let warmup = spec.generate(11);
//! let trainer_config = SaberLdaConfig::builder()
//!     .n_topics(8)
//!     .n_iterations(3)
//!     .seed(5)
//!     .build()?;
//! let mut trainer = saber_core::SaberLda::new(trainer_config, &warmup)?;
//! trainer.train();
//! let mut pipeline = TrainingPipeline::bootstrap_local(
//!     trainer,
//!     2,
//!     ServeConfig::default(),
//!     PipelineConfig::default(),
//! )?;
//! let mut feed = DocumentFeed::synthetic(&spec, 77);
//! let report = pipeline.run(&mut feed)?;
//! assert!(report.epochs_published >= 1);
//! assert_eq!(pipeline.served_epoch(), report.final_epoch);
//! pipeline.shutdown();
//! # Ok::<(), saber_pipeline::PipelineError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use std::collections::VecDeque;
use std::io::BufRead;
use std::sync::Arc;

use saber_core::{SaberError, SaberLda};
use saber_corpus::synthetic::SyntheticSpec;
use saber_serve::{
    InferenceSnapshot, LocalTransport, ServeConfig, ServeError, ShardPlan, ShardRouter,
    ShardTransport,
};

/// Any failure along the training→serving path.
#[derive(Debug)]
pub enum PipelineError {
    /// The trainer rejected a batch or configuration.
    Train(SaberError),
    /// The fleet rejected a publication or probe.
    Serve(ServeError),
    /// The document feed produced unreadable input.
    Feed(String),
    /// The pipeline configuration is inconsistent.
    InvalidConfig(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Train(e) => write!(f, "training error: {e}"),
            PipelineError::Serve(e) => write!(f, "serving error: {e}"),
            PipelineError::Feed(detail) => write!(f, "feed error: {detail}"),
            PipelineError::InvalidConfig(detail) => write!(f, "invalid pipeline config: {detail}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SaberError> for PipelineError {
    fn from(e: SaberError) -> Self {
        PipelineError::Train(e)
    }
}

impl From<ServeError> for PipelineError {
    fn from(e: ServeError) -> Self {
        PipelineError::Serve(e)
    }
}

/// Cadence knobs for a [`TrainingPipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Documents pulled from the feed per tick (≥ 1).
    pub batch_docs: usize,
    /// Incremental Gibbs passes over the dirty chunks after each ingest
    /// (≥ 1 — a batch that is never resampled would publish its random
    /// initial topics).
    pub iterations_per_batch: usize,
    /// Publish after every this-many ticks (≥ 1). `1` publishes an epoch
    /// per batch — the continuous-serving setting.
    pub publish_every: usize,
    /// Every Nth publication is preceded by a full `O(V·K)` refresh that
    /// rebases `B̂` on the current topic totals (the lazy row refresh
    /// reuses cached denominators, so periodic rebasing bounds drift).
    /// `0` disables periodic rebasing. A full refresh touches every row,
    /// so that publication ships full slices.
    pub full_refresh_every: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            batch_docs: 32,
            iterations_per_batch: 2,
            publish_every: 1,
            full_refresh_every: 0,
        }
    }
}

impl PipelineConfig {
    /// Checks the cadence knobs.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] when `batch_docs`,
    /// `iterations_per_batch` or `publish_every` is zero.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.batch_docs == 0 || self.iterations_per_batch == 0 || self.publish_every == 0 {
            return Err(PipelineError::InvalidConfig(
                "batch_docs, iterations_per_batch and publish_every must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A stream of documents (vectors of word ids) consumed in batches.
///
/// Either an in-memory queue (synthetic presets, tests) or a lazily read
/// line-delimited feed: one document per line, word ids separated by
/// whitespace; blank lines and lines starting with `#` are skipped.
pub struct DocumentFeed {
    source: FeedSource,
}

enum FeedSource {
    Queue(VecDeque<Vec<u32>>),
    Lines(Box<dyn BufRead + Send>),
}

impl std::fmt::Debug for DocumentFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.source {
            FeedSource::Queue(q) => f
                .debug_struct("DocumentFeed")
                .field("queued_docs", &q.len())
                .finish(),
            FeedSource::Lines(_) => f
                .debug_struct("DocumentFeed")
                .field("source", &"lines")
                .finish(),
        }
    }
}

impl DocumentFeed {
    /// A feed over documents already in memory.
    pub fn from_documents(docs: Vec<Vec<u32>>) -> Self {
        DocumentFeed {
            source: FeedSource::Queue(docs.into()),
        }
    }

    /// A deterministic synthetic feed: `spec.n_docs` documents generated
    /// with `seed` (same spec and seed → same documents everywhere).
    pub fn synthetic(spec: &SyntheticSpec, seed: u64) -> Self {
        let corpus = spec.generate(seed);
        DocumentFeed::from_documents(
            corpus
                .documents()
                .iter()
                .map(|d| d.words().to_vec())
                .collect(),
        )
    }

    /// A lazily parsed line-delimited feed.
    pub fn lines(reader: impl BufRead + Send + 'static) -> Self {
        DocumentFeed {
            source: FeedSource::Lines(Box::new(reader)),
        }
    }

    /// Opens `path` as a line-delimited feed.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Feed`] when the file cannot be opened.
    pub fn open(path: &std::path::Path) -> Result<Self, PipelineError> {
        let file = std::fs::File::open(path)
            .map_err(|e| PipelineError::Feed(format!("opening {}: {e}", path.display())))?;
        Ok(DocumentFeed::lines(std::io::BufReader::new(file)))
    }

    /// The next batch of at most `n` documents, or `None` when the feed
    /// is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Feed`] on I/O failures or unparsable
    /// word ids; the feed is left positioned after the bad line.
    pub fn next_batch(&mut self, n: usize) -> Result<Option<Vec<Vec<u32>>>, PipelineError> {
        let mut batch = Vec::new();
        match &mut self.source {
            FeedSource::Queue(queue) => {
                while batch.len() < n {
                    match queue.pop_front() {
                        Some(doc) => batch.push(doc),
                        None => break,
                    }
                }
            }
            FeedSource::Lines(reader) => {
                let mut line = String::new();
                while batch.len() < n {
                    line.clear();
                    let read = reader
                        .read_line(&mut line)
                        .map_err(|e| PipelineError::Feed(format!("reading feed: {e}")))?;
                    if read == 0 {
                        break;
                    }
                    let text = line.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    let doc: Result<Vec<u32>, _> =
                        text.split_whitespace().map(str::parse).collect();
                    batch.push(doc.map_err(|_| {
                        PipelineError::Feed(format!("unparsable word id in line {text:?}"))
                    })?);
                }
            }
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

/// What one publication shipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// The epoch the fleet now serves.
    pub epoch: u64,
    /// Touched `B̂` rows offered as a delta (the router may still fall
    /// back per replica; see [`saber_serve::PipelineStats`]).
    pub changed_rows: u64,
    /// Whether this publication was preceded by a full refresh.
    pub full_refresh: bool,
}

/// What one [`TrainingPipeline::tick`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// Documents ingested this tick.
    pub batch_docs: u64,
    /// Tokens those documents carried.
    pub tokens_ingested: u64,
    /// Tokens re-sampled by the incremental passes.
    pub tokens_resampled: u64,
    /// The publication this tick triggered, if the cadence fired.
    pub published: Option<EpochReport>,
}

/// Totals for a whole [`TrainingPipeline::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Ticks executed (batches ingested).
    pub ticks: u64,
    /// Documents ingested.
    pub docs_ingested: u64,
    /// Tokens ingested.
    pub tokens_ingested: u64,
    /// Tokens re-sampled by incremental passes.
    pub tokens_resampled: u64,
    /// Epochs pushed to the fleet (including the final flush).
    pub epochs_published: u64,
    /// The epoch the fleet serves after the run.
    pub final_epoch: u64,
}

/// The continuous training→serving loop: ingest, resample, publish.
///
/// The pipeline owns the trainer and shares the fleet's router; requests
/// keep flowing through the router while the pipeline trains, and every
/// publication goes through the router's two-phase stage-then-commit, so
/// in-flight requests never see a mixed-version fan-out.
///
/// # Invariant
///
/// At construction the fleet must serve exactly the trainer's current
/// model (as [`TrainingPipeline::bootstrap_local`] arranges), so the
/// constructor drains the rows the trainer has touched so far: the fleet
/// already holds them, and the first publication is a delta of the rows
/// the stream changed. From then on the trainer's touched-row tracking
/// keeps untouched rows bit-identical across epochs, which is what lets
/// [`ShardRouter::publish_incremental`] ship only changed rows.
#[derive(Debug)]
pub struct TrainingPipeline<T: ShardTransport = LocalTransport> {
    trainer: SaberLda,
    router: Arc<ShardRouter<T>>,
    config: PipelineConfig,
    /// The epoch the fleet served after our last publication — the base
    /// every delta is built against.
    served_epoch: u64,
    /// The snapshot the last push exported, from which the next is derived
    /// by rebuilding the touched rows; `None` until the first push.
    export: Option<InferenceSnapshot>,
    ticks_since_epoch_push: u64,
    epochs_pushed: u64,
}

impl TrainingPipeline<LocalTransport> {
    /// Builds an in-process fleet of `n_shards` shards serving exactly
    /// `trainer`'s current model, and a pipeline driving it.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Serve`] when the fleet cannot be built
    /// and [`PipelineError::InvalidConfig`] for bad cadence knobs.
    pub fn bootstrap_local(
        trainer: SaberLda,
        n_shards: usize,
        serve: ServeConfig,
        config: PipelineConfig,
    ) -> Result<Self, PipelineError> {
        let plan = ShardPlan::uniform(trainer.model().vocab_size(), n_shards)?;
        let router = Arc::new(ShardRouter::from_model(trainer.model(), plan, serve)?);
        TrainingPipeline::new(trainer, router, config)
    }

    /// Stops the in-process fleet. Only meaningful for pipelines that own
    /// their fleet (remote fleets outlive the pipeline by design).
    pub fn shutdown(self) {
        if let Ok(router) = Arc::try_unwrap(self.router) {
            router.shutdown();
        }
    }
}

impl<T: ShardTransport> TrainingPipeline<T> {
    /// Drives an existing fleet. The fleet must currently serve the
    /// trainer's model — see the type-level invariant; the trainer's
    /// touched rows are drained.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] for bad cadence knobs or
    /// a trainer/fleet shape mismatch, and [`PipelineError::Serve`] when
    /// the fleet's epoch cannot be observed.
    pub fn new(
        mut trainer: SaberLda,
        router: Arc<ShardRouter<T>>,
        config: PipelineConfig,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        let model = trainer.model();
        let fit = router.check_fit(model.vocab_size(), model.n_topics(), model.alpha());
        fit.map_err(|e| PipelineError::InvalidConfig(e.to_string()))?;
        trainer.take_touched_rows();
        let served_epoch = router.epoch();
        Ok(TrainingPipeline {
            trainer,
            router,
            config,
            served_epoch,
            export: None,
            ticks_since_epoch_push: 0,
            epochs_pushed: 0,
        })
    }

    /// The trainer (read-only; mutation goes through [`Self::tick`]).
    pub fn trainer(&self) -> &SaberLda {
        &self.trainer
    }

    /// The fleet this pipeline publishes to.
    pub fn router(&self) -> &Arc<ShardRouter<T>> {
        &self.router
    }

    /// The cadence configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The epoch the fleet served after our last publication.
    pub fn served_epoch(&self) -> u64 {
        self.served_epoch
    }

    /// One pipeline step: ingest `docs`, run the configured incremental
    /// passes, and publish if the cadence fires. An empty `docs` still
    /// runs the passes (dirty chunks keep resampling) and still counts
    /// toward the publish cadence.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Train`] for rejected batches (word id out
    /// of vocabulary, empty documents) and [`PipelineError::Serve`] when
    /// publication fails. The trainer state stays consistent either way;
    /// a failed publication may be retried by the next tick.
    pub fn tick(&mut self, docs: Vec<Vec<u32>>) -> Result<TickReport, PipelineError> {
        let batch_docs = docs.len() as u64;
        let tokens_ingested = if docs.is_empty() {
            0
        } else {
            self.trainer.ingest(docs)?
        };
        let mut tokens_resampled = 0;
        for _ in 0..self.config.iterations_per_batch {
            tokens_resampled += self.trainer.iterate_incremental();
        }
        self.ticks_since_epoch_push += 1;
        let published = if self.ticks_since_epoch_push >= self.config.publish_every as u64 {
            Some(self.push_epoch()?)
        } else {
            None
        };
        Ok(TickReport {
            batch_docs,
            tokens_ingested,
            tokens_resampled,
            published,
        })
    }

    /// Publishes the trainer's current model immediately, regardless of
    /// cadence: drains the touched rows and offers them to the fleet as
    /// a delta against the last served epoch. The snapshot is the last
    /// push's with the touched rows rebuilt (only the first push exports
    /// the whole model), and it is kept for the next push whether or not
    /// the fleet takes it: it equals a fresh export of the model either way.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Serve`] when the fleet refuses the
    /// publication. The touched-row drain is rolled back on failure
    /// ([`SaberLda::restore_touched_rows`]), so the next attempt's delta
    /// again covers every row changed since the last *successful*
    /// publication. If a shard committed the failed epoch anyway, the
    /// fleet no longer serves this base and the whole retry goes full.
    pub fn push_epoch(&mut self) -> Result<EpochReport, PipelineError> {
        let full_refresh = self.config.full_refresh_every > 0
            && (self.epochs_pushed + 1).is_multiple_of(self.config.full_refresh_every as u64);
        if full_refresh {
            self.trainer.full_refresh();
        }
        let changed = self.trainer.take_touched_rows();
        let model = self.trainer.model();
        let exported = match &self.export {
            Some(last) => last.refreshed(model, &changed).map_err(PipelineError::from),
            None => Ok(InferenceSnapshot::from_model(
                model,
                self.router.config().sampler,
            )),
        };
        let published = exported.and_then(|snapshot| {
            self.export = Some(snapshot.clone());
            self.router
                .publish_incremental(snapshot, &changed, self.served_epoch)
                .map_err(PipelineError::from)
        });
        let epoch = match published {
            Ok(epoch) => epoch,
            Err(e) => {
                // Nothing was committed under our base epoch; without this
                // restore the drained rows would vanish, and a retry with
                // no training in between would publish an *empty* delta the
                // fleet accepts (the base still matches) — silently serving
                // bits that diverge from the trainer.
                self.trainer.restore_touched_rows(&changed);
                return Err(e);
            }
        };
        self.served_epoch = epoch;
        self.epochs_pushed += 1;
        self.ticks_since_epoch_push = 0;
        Ok(EpochReport {
            epoch,
            changed_rows: changed.len() as u64,
            full_refresh,
        })
    }

    /// Drains `feed` to exhaustion, then flushes any unpublished work so
    /// the fleet ends on the trainer's final state.
    ///
    /// # Errors
    ///
    /// As [`Self::tick`] and [`Self::push_epoch`]; the run stops at the
    /// first error.
    pub fn run(&mut self, feed: &mut DocumentFeed) -> Result<RunReport, PipelineError> {
        self.run_with(feed, |_| {})
    }

    /// [`Self::run`], handing each tick's report to `on_tick` as it
    /// finishes (the final flush is not a tick: it shows in the returned
    /// [`RunReport::epochs_published`]).
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_with(
        &mut self,
        feed: &mut DocumentFeed,
        mut on_tick: impl FnMut(&TickReport),
    ) -> Result<RunReport, PipelineError> {
        let mut report = RunReport::default();
        while let Some(batch) = feed.next_batch(self.config.batch_docs)? {
            let tick = self.tick(batch)?;
            on_tick(&tick);
            report.ticks += 1;
            report.docs_ingested += tick.batch_docs;
            report.tokens_ingested += tick.tokens_ingested;
            report.tokens_resampled += tick.tokens_resampled;
            if tick.published.is_some() {
                report.epochs_published += 1;
            }
        }
        if self.ticks_since_epoch_push > 0 {
            self.push_epoch()?;
            report.epochs_published += 1;
        }
        report.final_epoch = self.served_epoch;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_core::SaberLdaConfig;
    use saber_serve::{FoldInParams, PartialRequest, Publication, ShardInfo, TopicServer};
    use saber_trace::TraceContext;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    fn warm_trainer(seed: u64) -> SaberLda {
        let spec = SyntheticSpec::small_test();
        let corpus = spec.generate(3);
        let config = SaberLdaConfig::builder()
            .n_topics(8)
            .n_iterations(3)
            .n_chunks(2)
            .seed(seed)
            .build()
            .unwrap();
        let mut trainer = SaberLda::new(config, &corpus).unwrap();
        trainer.train();
        trainer
    }

    fn serve_config() -> ServeConfig {
        ServeConfig {
            n_workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn ticks_follow_the_publish_cadence() {
        let mut pipeline = TrainingPipeline::bootstrap_local(
            warm_trainer(1),
            2,
            serve_config(),
            PipelineConfig {
                batch_docs: 8,
                iterations_per_batch: 1,
                publish_every: 2,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        assert_eq!(pipeline.served_epoch(), 1);
        let docs = |seed| {
            SyntheticSpec {
                n_docs: 8,
                ..SyntheticSpec::small_test()
            }
            .generate(seed)
            .documents()
            .iter()
            .map(|d| d.words().to_vec())
            .collect::<Vec<_>>()
        };
        let first = pipeline.tick(docs(10)).unwrap();
        assert!(first.published.is_none(), "cadence is every 2 ticks");
        assert!(first.tokens_ingested > 0);
        assert!(first.tokens_resampled >= first.tokens_ingested);
        let second = pipeline.tick(docs(11)).unwrap();
        let epoch = second.published.expect("second tick publishes");
        assert_eq!(epoch.epoch, 2);
        assert_eq!(pipeline.served_epoch(), 2);
        assert_eq!(pipeline.router().epoch(), 2);
        pipeline.shutdown();
    }

    #[test]
    fn the_first_epoch_ships_a_delta_of_the_rows_the_stream_changed() {
        let mut pipeline = TrainingPipeline::bootstrap_local(
            warm_trainer(8),
            2,
            serve_config(),
            PipelineConfig {
                batch_docs: 8,
                iterations_per_batch: 1,
                publish_every: 1,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        let docs = SyntheticSpec {
            n_docs: 8,
            ..SyntheticSpec::small_test()
        }
        .generate(12)
        .documents()
        .iter()
        .map(|d| d.words().to_vec())
        .collect();
        let epoch = pipeline.tick(docs).unwrap().published.unwrap();
        let vocab = pipeline.trainer().model().vocab_size() as u64;
        assert!(
            epoch.changed_rows < vocab,
            "{} of {vocab} rows offered: the warm-up's rows were re-shipped",
            epoch.changed_rows
        );
        let stats = pipeline.router().router_stats().pipeline.unwrap();
        assert_eq!((stats.delta_epochs, stats.fallbacks), (1, 0));
        pipeline.shutdown();
    }

    #[test]
    fn run_drains_the_feed_and_flushes_the_tail() {
        let mut pipeline = TrainingPipeline::bootstrap_local(
            warm_trainer(2),
            2,
            serve_config(),
            PipelineConfig {
                batch_docs: 16,
                iterations_per_batch: 1,
                publish_every: 3,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        let spec = SyntheticSpec {
            n_docs: 64,
            ..SyntheticSpec::small_test()
        };
        let mut feed = DocumentFeed::synthetic(&spec, 9);
        let report = pipeline.run(&mut feed).unwrap();
        // 64 docs / 16 per batch = 4 ticks; publishes at tick 3, flush at end.
        assert_eq!(report.ticks, 4);
        assert_eq!(report.docs_ingested, 64);
        assert_eq!(report.epochs_published, 2);
        assert_eq!(report.final_epoch, 3);
        assert_eq!(pipeline.router().epoch(), 3);
        // The fleet saw every publication through the pipeline stats.
        let stats = pipeline.router().router_stats().pipeline.unwrap();
        assert_eq!(stats.epochs_published, 2);
        assert!(stats.rows_shipped <= stats.rows_total);
        pipeline.shutdown();
    }

    #[test]
    fn continuously_published_fleet_matches_a_cold_boot_bit_for_bit() {
        // Train incrementally, publishing deltas as we go; then boot a
        // fresh fleet from the final model. Same questions, same bits.
        let mut pipeline = TrainingPipeline::bootstrap_local(
            warm_trainer(3),
            2,
            serve_config(),
            PipelineConfig {
                batch_docs: 12,
                iterations_per_batch: 2,
                publish_every: 1,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        let spec = SyntheticSpec {
            n_docs: 36,
            ..SyntheticSpec::small_test()
        };
        let mut feed = DocumentFeed::synthetic(&spec, 21);
        let report = pipeline.run(&mut feed).unwrap();
        assert_eq!(report.epochs_published, 3);

        let reference = ShardRouter::from_model(
            pipeline.trainer().model(),
            ShardPlan::uniform(pipeline.trainer().model().vocab_size(), 2).unwrap(),
            serve_config(),
        )
        .unwrap();
        for seed in [0u64, 7, 130] {
            let words = vec![1u32, 40, 7, 199, 40, 3];
            let a = pipeline
                .router()
                .infer_with_deadline(words.clone(), seed, Duration::MAX)
                .unwrap();
            let b = reference
                .infer_with_deadline(words, seed, Duration::MAX)
                .unwrap();
            assert_eq!(
                a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: continuously published fleet diverged from cold boot"
            );
        }
        reference.shutdown();
        pipeline.shutdown();
    }

    #[test]
    fn full_refresh_cadence_rebases_and_ships_full_slices() {
        let mut pipeline = TrainingPipeline::bootstrap_local(
            warm_trainer(4),
            1,
            serve_config(),
            PipelineConfig {
                batch_docs: 8,
                iterations_per_batch: 1,
                publish_every: 1,
                full_refresh_every: 2,
            },
        )
        .unwrap();
        let docs: Vec<Vec<u32>> = SyntheticSpec {
            n_docs: 8,
            ..SyntheticSpec::small_test()
        }
        .generate(33)
        .documents()
        .iter()
        .map(|d| d.words().to_vec())
        .collect();
        let first = pipeline.tick(docs.clone()).unwrap().published.unwrap();
        assert!(!first.full_refresh);
        let second = pipeline.tick(docs).unwrap().published.unwrap();
        assert!(second.full_refresh, "every 2nd publication rebases");
        assert_eq!(
            second.changed_rows,
            pipeline.trainer().model().vocab_size() as u64,
            "a rebase touches every row"
        );
        pipeline.shutdown();
    }

    /// A [`LocalTransport`] whose next staging fails while `fail` is set
    /// (and clears it): one failed publication on demand.
    #[derive(Debug)]
    struct FailNextStage {
        inner: LocalTransport,
        fail: AtomicBool,
    }

    impl FailNextStage {
        fn refuse(&self) -> Result<(), ServeError> {
            match self.fail.swap(false, Ordering::SeqCst) {
                true => Err(ServeError::transport("injected staging failure")),
                false => Ok(()),
            }
        }
    }

    impl ShardTransport for FailNextStage {
        type Pending = <LocalTransport as ShardTransport>::Pending;

        fn submit_partial_pinned(
            &self,
            words: Vec<u32>,
            request: PartialRequest,
            epoch: Option<u64>,
            deadline: Option<Instant>,
            trace: TraceContext,
        ) -> Result<Self::Pending, ServeError> {
            self.inner
                .submit_partial_pinned(words, request, epoch, deadline, trace)
        }

        fn shard_info(&self) -> Result<ShardInfo, ServeError> {
            self.inner.shard_info()
        }

        fn observe_epoch(&self) -> Result<u64, ServeError> {
            self.inner.observe_epoch()
        }

        fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
            self.refuse()?;
            self.inner.stage(epoch, publication)
        }

        fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
            self.inner.commit_publish(epoch)
        }
    }

    fn snapshot_bytes(snapshot: &InferenceSnapshot) -> Vec<u8> {
        let mut bytes = Vec::new();
        snapshot.save(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn the_kept_export_equals_a_fresh_export_after_every_push() {
        for full_refresh_every in [0, 2] {
            let trainer = warm_trainer(7);
            let config = serve_config();
            let snapshot = InferenceSnapshot::from_model(trainer.model(), config.sampler);
            let plan = ShardPlan::uniform(trainer.model().vocab_size(), 2).unwrap();
            let transports = plan
                .ranges()
                .map(|range| FailNextStage {
                    inner: LocalTransport::new(
                        TopicServer::start(snapshot.shard(range), config).unwrap(),
                    ),
                    fail: AtomicBool::new(false),
                })
                .collect();
            let router = Arc::new(ShardRouter::with_transports(plan, transports, config).unwrap());
            let mut pipeline = TrainingPipeline::new(
                trainer,
                Arc::clone(&router),
                PipelineConfig {
                    batch_docs: 8,
                    iterations_per_batch: 1,
                    publish_every: 1,
                    full_refresh_every,
                },
            )
            .unwrap();
            let kept_equals_fresh = |pipeline: &TrainingPipeline<FailNextStage>| {
                let fresh =
                    InferenceSnapshot::from_model(pipeline.trainer().model(), config.sampler);
                let kept = pipeline.export.as_ref().expect("a push keeps its export");
                snapshot_bytes(kept) == snapshot_bytes(&fresh)
            };
            for tick in 0..6u64 {
                let docs = SyntheticSpec {
                    n_docs: 8,
                    ..SyntheticSpec::small_test()
                }
                .generate(40 + tick)
                .documents()
                .iter()
                .map(|d| d.words().to_vec())
                .collect();
                if tick == 3 {
                    // The last shard refuses this tick's staging; the next
                    // push re-patches the restored rows.
                    router.replica_sets()[1].replicas()[0]
                        .fail
                        .store(true, Ordering::SeqCst);
                    assert!(pipeline.tick(docs).is_err());
                } else {
                    pipeline.tick(docs).unwrap();
                }
                assert!(
                    kept_equals_fresh(&pipeline),
                    "full_refresh_every {full_refresh_every}, tick {tick}"
                );
            }
            assert_eq!(pipeline.served_epoch(), 6, "five of six pushes landed");
            drop(pipeline);
            Arc::try_unwrap(router).unwrap().shutdown();
        }
    }

    #[test]
    fn config_and_shape_mismatches_are_rejected() {
        let bad = PipelineConfig {
            publish_every: 0,
            ..PipelineConfig::default()
        };
        assert!(matches!(
            TrainingPipeline::bootstrap_local(warm_trainer(5), 1, serve_config(), bad),
            Err(PipelineError::InvalidConfig(_))
        ));

        // A fleet with a different shape than the trainer.
        let other = warm_trainer(6);
        let plan = ShardPlan::uniform(other.model().vocab_size(), 1).unwrap();
        let router = Arc::new(
            ShardRouter::from_model(
                other.model(),
                plan,
                ServeConfig {
                    fold_in: FoldInParams::default(),
                    ..serve_config()
                },
            )
            .unwrap(),
        );
        let mismatched_trainer = {
            let corpus = SyntheticSpec {
                vocab_size: 50,
                ..SyntheticSpec::small_test()
            }
            .generate(1);
            let config = SaberLdaConfig::builder()
                .n_topics(8)
                .n_iterations(1)
                .seed(1)
                .build()
                .unwrap();
            SaberLda::new(config, &corpus).unwrap()
        };
        assert!(matches!(
            TrainingPipeline::new(
                mismatched_trainer,
                Arc::clone(&router),
                PipelineConfig::default()
            ),
            Err(PipelineError::InvalidConfig(_))
        ));
        Arc::try_unwrap(router).unwrap().shutdown();
    }

    #[test]
    fn a_trainer_at_another_alpha_is_refused() {
        let trainer_at = |alpha: f32| {
            let config = SaberLdaConfig::builder()
                .n_topics(8)
                .alpha(alpha)
                .n_iterations(1)
                .seed(1)
                .build()
                .unwrap();
            SaberLda::new(config, &SyntheticSpec::small_test().generate(3)).unwrap()
        };
        let fleet = trainer_at(0.05);
        let plan = ShardPlan::uniform(fleet.model().vocab_size(), 2).unwrap();
        let router =
            Arc::new(ShardRouter::from_model(fleet.model(), plan, serve_config()).unwrap());
        // Same V and K: only α differs, and every push would fail on it.
        let refused = TrainingPipeline::new(
            trainer_at(0.1),
            Arc::clone(&router),
            PipelineConfig::default(),
        );
        match refused {
            Err(PipelineError::InvalidConfig(detail)) => {
                assert!(detail.contains("at alpha 0.1"), "{detail}")
            }
            other => panic!("a trainer at alpha 0.1 was not refused: {:?}", other.err()),
        }
        Arc::try_unwrap(router).unwrap().shutdown();
    }

    #[test]
    fn line_feed_parses_skips_comments_and_reports_bad_ids() {
        let text = "1 2 3\n# comment\n\n4 5\nnot-a-number\n";
        let mut feed = DocumentFeed::lines(std::io::Cursor::new(text.to_string()));
        let batch = feed.next_batch(2).unwrap().unwrap();
        assert_eq!(batch, vec![vec![1, 2, 3], vec![4, 5]]);
        assert!(matches!(feed.next_batch(2), Err(PipelineError::Feed(_))));
        assert!(feed.next_batch(2).unwrap().is_none(), "feed is exhausted");
    }
}
