//! The batched, multi-threaded topic-inference server.
//!
//! [`TopicServer`] is the crate's execution engine: a bounded request queue
//! drained by `n_workers` threads that coalesce waiting requests into
//! micro-batches (one snapshot load per batch). Every entry point is a thin
//! wrapper over one `submit` (the only place a job is minted and enqueued)
//! and one `await_reply`, in one of two admission modes — blocking
//! ([`TopicServer::infer_topics`], [`TopicServer::infer_partial`],
//! [`TopicServer::infer_batch`]) or fail-fast with a reply deadline
//! ([`TopicServer::infer_with_deadline`] and its traced form
//! [`TopicServer::infer_with_trace`], the ones the HTTP front-end maps to
//! `429`/`503`). Workers time every request (queue wait + fold-in) into the
//! lock-free histogram surfaced by [`ServeStats`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saber_core::infer::PartialFoldIn;
use saber_core::model::LdaModel;
use saber_core::model_io::DeltaPayload;
use saber_corpus::{OovPolicy, Vocabulary};
use saber_trace::{SpanRecord, TraceBuilder, TraceContext};

use crate::snapshot::{FoldInParams, InferenceSnapshot, SnapshotSampler};
use crate::stats::{HistogramSnapshot, LatencyHistogram};
use crate::swap::SnapshotCell;
use crate::ServeError;

/// Configuration of a [`TopicServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads draining the request queue (≥ 1).
    pub n_workers: usize,
    /// Upper bound on the number of requests a worker coalesces into one
    /// micro-batch (≥ 1). A batch loads the snapshot once and amortises
    /// queue synchronisation across its requests.
    pub max_batch: usize,
    /// Capacity of the bounded request queue; submissions block (or fail
    /// with [`ServeError::Overloaded`], for the deadline-bounded entry
    /// points) when it is full.
    pub queue_depth: usize,
    /// Fold-in quality knobs applied to every request.
    pub fold_in: FoldInParams,
    /// Sampling structure used by [`TopicServer::publish_model`].
    pub sampler: SnapshotSampler,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_workers: 4,
            max_batch: 16,
            queue_depth: 256,
            fold_in: FoldInParams::default(),
            sampler: SnapshotSampler::default(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.n_workers == 0 || self.max_batch == 0 || self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig {
                detail: "n_workers, max_batch and queue_depth must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One inference request: a document as vocabulary word ids plus the seed
/// that makes its answer reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferRequest {
    /// Word ids of the document (unordered bag of words).
    pub words: Vec<u32>,
    /// Per-request RNG seed. Equal seeds on equal words against an equal
    /// snapshot give bit-identical responses, regardless of batching or
    /// which worker serves them.
    pub seed: u64,
}

/// The answer to an [`InferRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Topic distribution `θ` of the document (length `K`, sums to 1).
    pub theta: Vec<f32>,
    /// Version of the snapshot that served the request.
    pub snapshot_version: u64,
    /// Input tokens dropped as out-of-vocabulary: unknown raw tokens on the
    /// [`TopicServer::infer_raw`] path, plus word ids a snapshot swap made
    /// unservable between admission and execution (only possible when a
    /// published snapshot shrank the vocabulary).
    pub n_oov: usize,
}

impl InferResponse {
    /// The most probable topic.
    pub fn dominant_topic(&self) -> usize {
        self.theta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(k, _)| k)
            .unwrap_or(0)
    }
}

/// Cumulative serving counters (all monotonic).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    tokens: AtomicU64,
    batches: AtomicU64,
    swaps_observed: AtomicU64,
    /// Queue wait + fold-in time per request, recorded by workers.
    latency: LatencyHistogram,
    /// Admission-to-dequeue time alone: how long requests sat in the queue.
    queue_wait: LatencyHistogram,
    /// Dequeue-to-reply time alone: the fold-in compute itself.
    handler: LatencyHistogram,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests completed.
    pub requests: u64,
    /// Tokens folded in across all requests.
    pub tokens: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Times a worker observed a newer snapshot at batch start.
    pub swaps_observed: u64,
    /// End-to-end request latency (submission to reply, i.e. queue wait plus
    /// fold-in) as a log-bucketed histogram; see
    /// [`HistogramSnapshot::p50`]/[`p95`](HistogramSnapshot::p95)/
    /// [`p99`](HistogramSnapshot::p99) for tail-latency estimates in
    /// microseconds.
    pub latency: HistogramSnapshot,
    /// The queue-wait component of `latency` alone (admission to dequeue),
    /// so overload (queue grows) is distinguishable from slow compute.
    pub queue_wait: HistogramSnapshot,
    /// The compute component of `latency` alone (dequeue to reply).
    pub handler: HistogramSnapshot,
}

impl ServeStats {
    /// Mean requests per micro-batch (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Folds another server's counters into this one: counter-wise sums
    /// plus a bucket-wise latency-histogram merge
    /// ([`HistogramSnapshot::merge`]). This is how a sharded router reports
    /// a fleet-wide view instead of just shard 0's.
    ///
    /// `swaps_observed` merges by **max**, not sum: one fleet-wide
    /// publication is observed once per shard, and summing would multiply
    /// every swap by the shard count.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.tokens += other.tokens;
        self.batches += other.batches;
        self.swaps_observed = self.swaps_observed.max(other.swaps_observed);
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.handler.merge(&other.handler);
    }
}

/// The work a queued job asks of a worker.
pub(crate) enum JobKind {
    /// Full fold-in: answer with θ ([`JobReply::Infer`]).
    Infer { seed: u64 },
    /// One shard's half of a sharded fold-in: answer with raw counts
    /// ([`JobReply::Partial`]) from the snapshot of `epoch`, or from the
    /// live one when `None`.
    Partial {
        request: PartialRequest,
        epoch: Option<u64>,
    },
}

/// What a worker sends back; the variant always matches the [`JobKind`].
/// A partial is refused with [`ServeError::ShardVersionSkew`] when the
/// server holds no snapshot of its epoch.
pub(crate) enum JobReply {
    Infer(InferResponse),
    Partial(Result<PartialResponse, ServeError>),
}

/// The answer to a partial fold-in request ([`TopicServer::infer_partial`]):
/// raw per-topic counts a router merges across shards before finishing θ.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResponse {
    /// Partial sufficient statistics (ESCA measured counts or one EM
    /// round's responsibility counts; length `K`).
    pub partial: PartialFoldIn,
    /// Version of the snapshot that served the request — the router checks
    /// these match across shards before trusting a merge.
    pub snapshot_version: u64,
    /// Word ids dropped because a snapshot swap made them unservable
    /// between admission and execution.
    pub n_oov: usize,
    /// Spans recorded while serving the request, empty unless the caller
    /// passed an enabled [`TraceContext`]. For remote shards these ride the
    /// wire inline in the `/infer-partial` response; the router re-bases and
    /// re-numbers them under its own fan-out span
    /// ([`saber_trace::TraceBuilder::attach`]), so no collector is needed.
    pub spans: Vec<SpanRecord>,
}

/// A partial-computation request, fanned out by a sharding router.
#[derive(Debug, Clone)]
pub enum PartialRequest {
    /// Run the ESCA Gibbs chain over the words with this (shard-derived)
    /// seed and return the raw measured counts.
    FoldIn {
        /// Chain seed (derive per shard; see `shard::derive_shard_seed`).
        seed: u64,
    },
    /// Run one EM round against this θ and return responsibility counts.
    EmRound {
        /// Zero-based index of the EM iteration this round belongs to. The
        /// computation itself depends only on `theta`; the index rides the
        /// wire so a remote shard's logs (and the golden wire fixtures) can
        /// attribute a request to its round.
        round: usize,
        /// The router's current θ estimate (length `K`), shared across the
        /// round's fan-out.
        theta: Arc<Vec<f64>>,
    },
}

/// Per-job wall-clock attribution a worker fills in for traced requests,
/// read back by the submitter to turn into spans. Written once by the
/// worker, read once by the requester — relaxed atomics suffice.
#[derive(Debug, Default)]
pub(crate) struct JobTimings {
    /// Admission-to-dequeue, microseconds.
    queue_wait_us: AtomicU64,
    /// Dequeue-to-reply (the fold-in compute), microseconds.
    handler_us: AtomicU64,
}

impl JobTimings {
    /// `(queue_wait_us, handler_us)` as stamped by the worker.
    fn load(&self) -> (u64, u64) {
        (
            self.queue_wait_us.load(Ordering::Relaxed),
            self.handler_us.load(Ordering::Relaxed),
        )
    }
}

struct Job {
    words: Vec<u32>,
    kind: JobKind,
    reply: SyncSender<JobReply>,
    /// When the request was admitted, so workers can attribute queue wait to
    /// the latency histogram.
    enqueued: Instant,
    /// Distributed-tracing context; disabled for untraced callers. Carried
    /// by every job so workers can attach the trace id as a latency-bucket
    /// exemplar.
    trace: TraceContext,
    /// Present only when `trace` is enabled: where the worker deposits this
    /// job's queue-wait/handler split for the submitter's spans.
    timings: Option<Arc<JobTimings>>,
}

/// A multi-threaded topic-inference server over hot-swappable snapshots.
///
/// Requests enter a bounded queue; each of the `n_workers` threads pops one
/// request, opportunistically drains up to `max_batch - 1` more, loads the
/// current [`InferenceSnapshot`] once for the whole micro-batch and answers
/// every request with the sparsity-aware fold-in sampler. Because each
/// request carries its own seed, results are reproducible no matter how
/// requests were batched.
///
/// A trainer (or anything holding the server handle) can
/// [`TopicServer::publish`] a refreshed snapshot at any time; workers pick
/// it up at their next batch without pausing the queue.
///
/// Dropping the server joins all workers after in-flight requests drain.
pub struct TopicServer {
    cell: Arc<SnapshotCell>,
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    config: ServeConfig,
    /// Vocabulary size of the latest published snapshot, cached so request
    /// admission never touches the snapshot cell's lock. All snapshots of
    /// one server come from the same model family, so the bound is stable;
    /// the worker tolerates a stale bound by dropping unservable ids.
    vocab_bound: AtomicUsize,
    /// The epoch-tagged snapshot staged for its [`TopicServer::commit`].
    /// The mutex also serialises every publication, so `vocab_bound` and
    /// the cell swap cannot interleave across concurrent publishers.
    publish_lock: Mutex<Option<(u64, InferenceSnapshot)>>,
}

impl std::fmt::Debug for TopicServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicServer")
            .field("config", &self.config)
            .field("snapshot_version", &self.cell.version())
            .field("n_workers", &self.workers.len())
            .finish()
    }
}

impl TopicServer {
    /// Starts a server over `initial` (published as version 1).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers, batch size or
    /// queue depth.
    pub fn start(initial: InferenceSnapshot, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let cell = Arc::new(SnapshotCell::new(initial));
        let (tx, rx) = sync_channel::<Job>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let counters = Arc::new(Counters::default());
        let workers = (0..config.n_workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cell = Arc::clone(&cell);
                let counters = Arc::clone(&counters);
                let fold_in = config.fold_in;
                let max_batch = config.max_batch;
                std::thread::Builder::new()
                    .name(format!("saber-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &cell, &counters, fold_in, max_batch))
                    .map_err(|e| ServeError::Internal {
                        detail: format!("failed to spawn serving worker: {e}"),
                    })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        let vocab_bound = AtomicUsize::new(cell.load().vocab_size());
        Ok(TopicServer {
            cell,
            queue: Some(tx),
            workers,
            counters,
            config,
            vocab_bound,
            publish_lock: Mutex::new(None),
        })
    }

    /// Trains nothing, serves everything: shorthand for
    /// [`InferenceSnapshot::from_model`] + [`TopicServer::start`].
    pub fn from_model(model: &LdaModel, config: ServeConfig) -> Result<Self, ServeError> {
        TopicServer::start(InferenceSnapshot::from_model(model, config.sampler), config)
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Publishes a new snapshot; returns its version. In-flight batches
    /// finish on the snapshot they started with.
    pub fn publish(&self, snapshot: InferenceSnapshot) -> u64 {
        let _staged = self.publish_guard();
        self.cell.release_previous();
        self.vocab_bound
            .store(snapshot.vocab_size(), Ordering::Relaxed);
        self.cell.publish(snapshot)
    }

    /// Stages `slice` to be served as `epoch` from its
    /// [`TopicServer::commit`], the shard half of a fleet's all-or-nothing
    /// publication on either transport. Serving is untouched until the
    /// commit; a stage replaces any earlier, aborted one.
    ///
    /// Accepting a stage releases the snapshot the last commit replaced (a
    /// router stages only once its reads in flight finished), so peak
    /// memory stays at live + staged.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when `epoch` is not ahead of the served one
    /// (its commit would be a silent no-op), [`ServeError::BadRequest`]
    /// when the slice is not the served `V × K` (it would fail every
    /// request at the router's merge).
    pub fn stage(&self, epoch: u64, slice: InferenceSnapshot) -> Result<(), ServeError> {
        let mut staged = self.publish_guard();
        let served = self.snapshot();
        let version = served.version();
        if epoch <= version {
            return Err(ServeError::Conflict {
                detail: format!("epoch {epoch} is not ahead of the served epoch {version}"),
            });
        }
        let (vocab_size, n_topics) = (served.vocab_size(), served.n_topics());
        if (slice.vocab_size(), slice.n_topics()) != (vocab_size, n_topics) {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "published snapshot is {}x{} but this shard serves {vocab_size}x{n_topics}",
                    slice.vocab_size(),
                    slice.n_topics()
                ),
            });
        }
        self.cell.release_previous();
        *staged = Some((epoch, slice));
        Ok(())
    }

    /// [`TopicServer::stage`]s `delta`'s rows applied over the served
    /// snapshot for the delta's target epoch, releasing the previous one
    /// first. Returns `false` (declines, so the publisher falls back to a
    /// full slice) when the served epoch is not the delta's base or the
    /// target is not ahead of it.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the delta does not apply to the
    /// served snapshot (another shape, sampler or α).
    pub fn stage_delta(&self, delta: &DeltaPayload) -> Result<bool, ServeError> {
        let mut staged = self.publish_guard();
        let served = self.snapshot();
        if served.version() != delta.base_version || delta.target_version <= served.version() {
            return Ok(false);
        }
        self.cell.release_previous();
        let patched = served
            .apply_delta(delta)
            .map_err(|e| ServeError::BadRequest {
                detail: format!("delta does not apply to the served snapshot: {e}"),
            })?;
        *staged = Some((delta.target_version, patched));
        Ok(true)
    }

    /// Swaps in the snapshot staged for `epoch` and returns `epoch`.
    /// Idempotent for the epoch already served, and then leaves the stage
    /// alone: a stale duplicate commit must never discard a newer stage.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when nothing is staged for `epoch`.
    pub fn commit(&self, epoch: u64) -> Result<u64, ServeError> {
        let mut staged = self.publish_guard();
        if self.cell.version() == epoch {
            return Ok(epoch);
        }
        match staged.take_if(|(staged_epoch, _)| *staged_epoch == epoch) {
            Some((_, slice)) => self.publish_at(slice, epoch),
            None => Err(ServeError::Conflict {
                detail: format!("no staged snapshot for epoch {epoch}"),
            }),
        }
    }

    /// Publishes `snapshot` at the router's epoch, whatever the server's own
    /// counter says (a restarted process starts back at 1). Only
    /// [`TopicServer::commit`] calls this, under the publish lock.
    fn publish_at(&self, snapshot: InferenceSnapshot, epoch: u64) -> Result<u64, ServeError> {
        let current = self.cell.version();
        if epoch <= current {
            return Err(ServeError::Conflict {
                detail: format!("cannot publish epoch {epoch} over current epoch {current}"),
            });
        }
        self.vocab_bound
            .store(snapshot.vocab_size(), Ordering::Relaxed);
        Ok(self.cell.publish_with_version(snapshot, epoch))
    }

    /// The publish lock over the staged snapshot. Every critical section
    /// replaces or takes the whole `Option` and the cell swaps atomically,
    /// so a poisoned lock never exposes a torn value: recover.
    fn publish_guard(&self) -> MutexGuard<'_, Option<(u64, InferenceSnapshot)>> {
        self.publish_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Exports and publishes the current state of `model` using the
    /// configured sampler kind; returns the new version. This is the hook a
    /// training loop calls between iterations.
    pub fn publish_model(&self, model: &LdaModel) -> u64 {
        self.publish(InferenceSnapshot::from_model(model, self.config.sampler))
    }

    /// The currently served snapshot.
    pub fn snapshot(&self) -> Arc<InferenceSnapshot> {
        self.cell.load()
    }

    /// Current snapshot version (increments on every publish).
    pub fn snapshot_version(&self) -> u64 {
        self.cell.version()
    }

    /// Blockingly infers the topic distribution of one document.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for word ids outside the served
    /// vocabulary and [`ServeError::Closed`] if the worker pool has shut
    /// down.
    pub fn infer_topics(&self, words: Vec<u32>, seed: u64) -> Result<InferResponse, ServeError> {
        let trace = TraceContext::disabled();
        let (rx, _) = self.submit(words, JobKind::Infer { seed }, false, trace)?;
        Self::await_reply(&rx, None).and_then(expect_infer)
    }

    /// Blockingly computes the partial sufficient statistics of `request`
    /// over `words` — the per-shard half of a sharded fold-in (see
    /// [`crate::ShardRouter`]). Goes through the same queue, batching and
    /// latency accounting as full requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for word ids outside the served
    /// vocabulary and [`ServeError::Closed`] after shutdown.
    pub fn infer_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
    ) -> Result<PartialResponse, ServeError> {
        self.partial(words, request, None, None, TraceContext::disabled())
    }

    /// One partial job answered from the snapshot of `epoch` (the live one
    /// when `None`): fail-fast and bounded by `deadline` when one is given,
    /// blocking otherwise. The `/infer-partial` handler's path.
    pub(crate) fn partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Duration>,
        trace: TraceContext,
    ) -> Result<PartialResponse, ServeError> {
        let kind = JobKind::Partial { request, epoch };
        let (rx, timings) = self.submit(words, kind, deadline.is_some(), trace)?;
        finish_partial(Self::await_reply(&rx, deadline)?, timings.as_deref())
    }

    /// Fail-fast inference with a response deadline: rejects immediately
    /// with [`ServeError::Overloaded`] when the queue is full, and gives up
    /// with [`ServeError::DeadlineExceeded`] if no answer arrives within
    /// `deadline`. This is the admission path the HTTP front-end uses to
    /// turn overload into `429`/`503` instead of an unbounded hang.
    ///
    /// An abandoned request still completes on its worker (its reply channel
    /// has capacity for the answer, so the worker never blocks on it) — the
    /// deadline bounds the *caller's* wait, not the server's work.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for out-of-range word ids,
    /// [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::DeadlineExceeded`] on timeout and
    /// [`ServeError::Closed`] after shutdown.
    pub fn infer_with_deadline(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: Duration,
    ) -> Result<InferResponse, ServeError> {
        self.infer_with_trace(words, seed, deadline, &mut TraceBuilder::disabled(), 0)
    }

    /// [`TopicServer::infer_with_deadline`] that additionally records
    /// `queue-wait` and `handler` child spans under `parent` in `trace`
    /// (nothing, for a disabled builder) — the request path the HTTP
    /// front-end's `/infer` handler uses. Tracing never perturbs the
    /// answer: the seed, the words and the fold-in all ignore it.
    ///
    /// # Errors
    ///
    /// Exactly as [`TopicServer::infer_with_deadline`].
    pub fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: Duration,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let base_us = trace.elapsed_us();
        let ctx = trace.context(parent);
        let (rx, timings) = self.submit(words, JobKind::Infer { seed }, true, ctx)?;
        let response = Self::await_reply(&rx, Some(deadline)).and_then(expect_infer)?;
        if let Some(timings) = timings {
            let (queue_wait_us, handler_us) = timings.load();
            trace.push_span(Some(parent), "queue-wait", base_us, queue_wait_us);
            trace.push_span(Some(parent), "handler", base_us + queue_wait_us, handler_us);
        }
        Ok(response)
    }

    /// Submits a whole batch and waits for every answer, preserving order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the worker pool has shut down.
    pub fn infer_batch(
        &self,
        requests: Vec<InferRequest>,
    ) -> Result<Vec<InferResponse>, ServeError> {
        let trace = TraceContext::disabled();
        let receivers: Vec<_> = requests
            .into_iter()
            .map(|r| self.submit(r.words, JobKind::Infer { seed: r.seed }, false, trace))
            .collect::<Result<_, _>>()?;
        receivers
            .into_iter()
            .map(|(rx, _)| Self::await_reply(&rx, None).and_then(expect_infer))
            .collect()
    }

    /// Encodes a raw-token document against `vocab` and infers its topics;
    /// the response carries the out-of-vocabulary count.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures ([`OovPolicy::Fail`]) and
    /// [`ServeError::Closed`].
    pub fn infer_raw<S: AsRef<str>>(
        &self,
        tokens: &[S],
        vocab: &Vocabulary,
        policy: OovPolicy,
        seed: u64,
    ) -> Result<InferResponse, ServeError> {
        let encoded = vocab.encode(tokens.iter().map(AsRef::as_ref), policy)?;
        let mut response = self.infer_topics(encoded.ids, seed)?;
        response.n_oov += encoded.n_oov;
        Ok(response)
    }

    /// The `n` highest-probability words of topic `k` under the current
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn top_words(&self, k: usize, n: usize) -> Vec<(u32, f32)> {
        self.snapshot().top_words(k, n)
    }

    /// A point-in-time copy of the serving counters and latency histogram.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            tokens: self.counters.tokens.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            swaps_observed: self.counters.swaps_observed.load(Ordering::Relaxed),
            latency: self.counters.latency.snapshot(),
            queue_wait: self.counters.queue_wait.snapshot(),
            handler: self.counters.handler.snapshot(),
        }
    }

    /// Drains the queue and joins all workers. Called automatically on drop;
    /// explicit shutdown lets callers observe completion.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Rejects word ids the served vocabulary cannot contain. Checked at
    /// submission so a malformed request surfaces as an error to its caller
    /// instead of panicking a worker. Reads the cached bound — admission
    /// must not contend on the snapshot cell.
    fn validate_words(&self, words: &[u32]) -> Result<(), ServeError> {
        let vocab_size = self.vocab_bound.load(Ordering::Relaxed);
        match words.iter().find(|&&w| w as usize >= vocab_size) {
            None => Ok(()),
            Some(&w) => Err(ServeError::BadRequest {
                detail: format!("word id {w} out of vocabulary range (V = {vocab_size})"),
            }),
        }
    }

    /// The request half of every entry point, and the only place a [`Job`]
    /// is minted: validates `words`, pairs the job with its capacity-1
    /// reply channel and enqueues it — failing fast with
    /// [`ServeError::Overloaded`] on a full queue when `fail_fast`, parking
    /// until there is room otherwise. A timings cell is allocated only for
    /// traced jobs (`trace` enabled), so untraced requests pay nothing
    /// beyond copying the disabled context.
    pub(crate) fn submit(
        &self,
        words: Vec<u32>,
        kind: JobKind,
        fail_fast: bool,
        trace: TraceContext,
    ) -> Result<(Receiver<JobReply>, Option<Arc<JobTimings>>), ServeError> {
        self.validate_words(&words)?;
        let (reply, reply_rx) = sync_channel(1);
        let timings = trace.enabled().then(|| Arc::new(JobTimings::default()));
        let job = Job {
            words,
            kind,
            reply,
            enqueued: Instant::now(),
            trace,
            timings: timings.clone(),
        };
        let queue = self.queue.as_ref().ok_or(ServeError::Closed)?;
        if fail_fast {
            queue.try_send(job).map_err(|e| match e {
                TrySendError::Full(_) => ServeError::Overloaded,
                TrySendError::Disconnected(_) => ServeError::Closed,
            })?;
        } else {
            queue.send(job).map_err(|_| ServeError::Closed)?;
        }
        Ok((reply_rx, timings))
    }

    /// The reply half of every entry point: waits for the worker's answer
    /// to a [`TopicServer::submit`]ted job — at most `deadline` when one
    /// is given ([`ServeError::DeadlineExceeded`] past it), indefinitely
    /// otherwise.
    pub(crate) fn await_reply(
        rx: &Receiver<JobReply>,
        deadline: Option<Duration>,
    ) -> Result<JobReply, ServeError> {
        match deadline {
            None => rx.recv().map_err(|_| ServeError::Closed),
            Some(deadline) => rx.recv_timeout(deadline).map_err(|e| match e {
                RecvTimeoutError::Timeout => ServeError::DeadlineExceeded,
                RecvTimeoutError::Disconnected => ServeError::Closed,
            }),
        }
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the sender ends `recv` with an error once the queue is
        // empty; workers then exit their loops.
        self.queue = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for TopicServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    cell: &SnapshotCell,
    counters: &Counters,
    fold_in: FoldInParams,
    max_batch: usize,
) {
    let mut snapshot = cell.load();
    let mut batch = Vec::with_capacity(max_batch);
    loop {
        // Take one job (blocking), then opportunistically drain more up to
        // the batch cap. Holding the queue lock while blocked parks this
        // worker and lets siblings wake in turn; submissions never take it.
        {
            // Sibling workers never panic while holding this lock (the loop
            // body below catches every per-job hazard), but recover from
            // poison anyway: a wedged queue would strand all requesters.
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            match guard.recv() {
                Ok(job) => batch.push(job),
                Err(_) => return,
            }
            while batch.len() < max_batch {
                match guard.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
        }

        // One snapshot load per micro-batch: requests in a batch see a
        // consistent model, swaps are picked up at the next batch.
        if cell.load_if_newer(&mut snapshot) {
            counters.swaps_observed.fetch_add(1, Ordering::Relaxed);
        }
        counters.batches.fetch_add(1, Ordering::Relaxed);
        for mut job in batch.drain(..) {
            let dequeued = Instant::now();
            let queue_wait = dequeued.duration_since(job.enqueued);
            // A commit may have landed between a pinned partial's admission
            // and this batch: serve it from the snapshot of its epoch.
            let served = match job.kind {
                JobKind::Partial { epoch: Some(e), .. } if e != snapshot.version() => {
                    cell.load_at(e)
                }
                _ => Some(Arc::clone(&snapshot)),
            };
            // Submission validated against the then-current snapshot; if a
            // swap shrank the vocabulary since, drop the now-unservable ids
            // (reported as OOV) rather than panicking the worker.
            let vocab_size = served.as_ref().map_or(0, |s| s.vocab_size()) as u32;
            let submitted = job.words.len();
            job.words.retain(|&w| w < vocab_size);
            let n_oov = submitted - job.words.len();

            let reply = match (&job.kind, served) {
                (JobKind::Infer { seed }, _) => JobReply::Infer(InferResponse {
                    theta: snapshot.infer_topics(&job.words, *seed, fold_in),
                    snapshot_version: snapshot.version(),
                    n_oov,
                }),
                (JobKind::Partial { .. }, None) => {
                    JobReply::Partial(Err(ServeError::ShardVersionSkew))
                }
                (JobKind::Partial { request, .. }, Some(served)) => {
                    JobReply::Partial(Ok(PartialResponse {
                        partial: match request {
                            PartialRequest::FoldIn { seed } => {
                                served.partial_fold_in(&job.words, *seed, fold_in)
                            }
                            PartialRequest::EmRound { theta, .. } => {
                                served.em_round(&job.words, theta)
                            }
                        },
                        snapshot_version: served.version(),
                        n_oov,
                        spans: Vec::new(),
                    }))
                }
            };
            let handler = dequeued.elapsed();
            counters.requests.fetch_add(1, Ordering::Relaxed);
            counters
                .tokens
                .fetch_add(job.words.len() as u64, Ordering::Relaxed);
            counters.queue_wait.record(queue_wait);
            counters.handler.record(handler);
            counters.latency.record_with_exemplar(
                job.enqueued.elapsed(),
                job.trace.trace_id().map_or(0, |id| id.raw()),
            );
            if let Some(timings) = &job.timings {
                timings.queue_wait_us.store(
                    queue_wait.as_micros().min(u128::from(u64::MAX)) as u64,
                    Ordering::Relaxed,
                );
                timings.handler_us.store(
                    handler.as_micros().min(u128::from(u64::MAX)) as u64,
                    Ordering::Relaxed,
                );
            }
            // A send only fails if the requester's receiver is gone (its
            // thread panicked between submit and reply); nothing to do.
            let _ = job.reply.send(reply);
        }
    }
}

/// Workers answer every [`JobKind`] with its matching [`JobReply`] variant,
/// so a mismatch is a serving-crate bug, not a caller error — but a bug in
/// one code path must degrade that request to [`ServeError::Internal`], not
/// kill the calling thread.
fn expect_infer(reply: JobReply) -> Result<InferResponse, ServeError> {
    match reply {
        JobReply::Infer(response) => Ok(response),
        JobReply::Partial(_) => Err(ServeError::Internal {
            detail: "worker answered an infer job with a partial response".to_string(),
        }),
    }
}

/// Unwraps a partial job's reply and, for a traced job, fills in the
/// self-contained span subtree a shard reports: an `infer-partial` root
/// with `queue-wait` and `handler` children, ids dense from 1 and offsets
/// relative to the request's admission. The `/infer-partial` handler and
/// the local transport's wait path both finish through here, so local and
/// remote shards produce identical subtrees for a router to attach.
pub(crate) fn finish_partial(
    reply: JobReply,
    timings: Option<&JobTimings>,
) -> Result<PartialResponse, ServeError> {
    let JobReply::Partial(response) = reply else {
        return Err(ServeError::Internal {
            detail: "worker answered a partial job with a full response".to_string(),
        });
    };
    let mut response = response?;
    if let Some(timings) = timings {
        let (queue_wait_us, handler_us) = timings.load();
        let span = |id, parent, name: &str, start_us, duration_us| SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us,
            duration_us,
            events: Vec::new(),
        };
        response.spans = vec![
            span(1, None, "infer-partial", 0, queue_wait_us + handler_us),
            span(2, Some(1), "queue-wait", 0, queue_wait_us),
            span(3, Some(1), "handler", queue_wait_us, handler_us),
        ];
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::planted_model;
    use saber_core::model::LdaModel;

    fn small_server(n_workers: usize) -> TopicServer {
        TopicServer::from_model(
            &planted_model(12, 3),
            ServeConfig {
                n_workers,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn rejects_degenerate_configuration() {
        let snap = InferenceSnapshot::from_model(&planted_model(6, 2), SnapshotSampler::WaryTree);
        let bad = ServeConfig {
            n_workers: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            TopicServer::start(snap, bad),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn serves_single_requests() {
        let server = small_server(2);
        let response = server.infer_topics(vec![0, 3, 6, 9, 0, 3], 42).unwrap();
        assert_eq!(response.dominant_topic(), 0);
        assert_eq!(response.snapshot_version, 1);
        assert_eq!(response.n_oov, 0);
        let sum: f32 = response.theta.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3);
        server.shutdown();
    }

    #[test]
    fn batch_answers_preserve_order_and_seeds() {
        let server = small_server(3);
        let requests: Vec<InferRequest> = (0..20)
            .map(|i| InferRequest {
                words: vec![(i % 12) as u32; 6],
                seed: i as u64,
            })
            .collect();
        let a = server.infer_batch(requests.clone()).unwrap();
        let b = server.infer_batch(requests).unwrap();
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.theta, y.theta, "same seed must give same answer");
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 40);
        assert!(stats.batches >= 1);
        assert!(stats.mean_batch_size() >= 1.0);
        assert_eq!(stats.latency.count(), 40, "every request must be timed");
        let (p50, p99) = (stats.latency.p50().unwrap(), stats.latency.p99().unwrap());
        assert!(p50 <= p99);
        server.shutdown();
    }

    #[test]
    fn raw_token_path_reports_oov() {
        let server = small_server(2);
        let vocab = saber_corpus::Vocabulary::synthetic(12);
        let response = server
            .infer_raw(
                &["w00000", "nope", "w00003", "w00006"],
                &vocab,
                OovPolicy::Skip,
                1,
            )
            .unwrap();
        assert_eq!(response.n_oov, 1);
        assert_eq!(response.dominant_topic(), 0);
        assert!(matches!(
            server.infer_raw(&["nope"], &vocab, OovPolicy::Fail, 1),
            Err(ServeError::Corpus(_))
        ));
        server.shutdown();
    }

    #[test]
    fn publish_model_is_visible_to_later_requests() {
        let server = small_server(2);
        assert_eq!(server.snapshot_version(), 1);
        // New model: words planted shifted by one topic.
        let mut model = LdaModel::new(12, 3, 0.05, 0.01).unwrap();
        for v in 0..12 {
            model.word_topic_mut()[(v, (v + 1) % 3)] = 50;
        }
        model.refresh_probabilities();
        let v2 = server.publish_model(&model);
        assert_eq!(v2, 2);
        let response = server.infer_topics(vec![0, 3, 6, 9, 0, 3], 42).unwrap();
        assert_eq!(response.snapshot_version, 2);
        assert_eq!(response.dominant_topic(), 1, "swap must retarget topic");
        server.shutdown();
    }

    #[test]
    fn publish_at_pins_the_epoch_and_rejects_regressions() {
        let server = small_server(1);
        assert_eq!(server.snapshot_version(), 1);
        let snap =
            || InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        assert_eq!(server.publish_at(snap(), 5).unwrap(), 5);
        assert_eq!(server.snapshot_version(), 5);
        let response = server.infer_topics(vec![0, 3], 1).unwrap();
        assert_eq!(response.snapshot_version, 5);
        // Equal or backwards epochs are refused, leaving the server as-is.
        assert!(matches!(
            server.publish_at(snap(), 5),
            Err(ServeError::Conflict { .. })
        ));
        assert!(matches!(
            server.publish_at(snap(), 2),
            Err(ServeError::Conflict { .. })
        ));
        assert_eq!(server.snapshot_version(), 5);
        // A regular publish continues from the pinned epoch.
        assert_eq!(server.publish(snap()), 6);
        server.shutdown();
    }

    /// The planted model with every word moved one topic over: a next epoch
    /// whose answers differ from the first one's.
    fn shifted_snapshot() -> InferenceSnapshot {
        let mut model = LdaModel::new(12, 3, 0.05, 0.01).unwrap();
        for v in 0..12 {
            model.word_topic_mut()[(v, (v + 1) % 3)] = 50;
        }
        model.refresh_probabilities();
        InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree)
    }

    fn count_bits(response: &PartialResponse) -> Vec<u64> {
        response
            .partial
            .counts
            .iter()
            .map(|c| c.to_bits())
            .collect()
    }

    #[test]
    fn a_commit_keeps_the_replaced_epoch_readable_until_the_next_stage() {
        use crate::transport::{LocalTransport, PendingPartial, ShardTransport};
        let shard = LocalTransport::new(small_server(1));
        let server = shard.server();
        let pinned = |epoch| {
            let request = PartialRequest::FoldIn { seed: 5 };
            let (words, off) = (vec![0, 3, 6, 1], TraceContext::disabled());
            let pending = shard.submit_partial_pinned(words, request, Some(epoch), None, off)?;
            pending.wait(None)
        };
        let first = pinned(1).unwrap();
        server.stage(2, shifted_snapshot()).unwrap();
        assert_eq!(server.commit(2).unwrap(), 2);
        assert!(server.cell.load_at(1).is_some());
        let replaced = pinned(1).unwrap();
        assert_eq!(replaced.snapshot_version, 1);
        assert_eq!(count_bits(&replaced), count_bits(&first));
        let live = pinned(2).unwrap();
        assert_ne!(count_bits(&live), count_bits(&first));
        // An accepted stage releases epoch 1; epoch 2 still answers.
        server.stage(3, shifted_snapshot()).unwrap();
        assert!(server.cell.load_at(1).is_none());
        assert!(matches!(pinned(1), Err(ServeError::ShardVersionSkew)));
        assert_eq!(count_bits(&pinned(2).unwrap()), count_bits(&live));
    }

    #[test]
    fn a_job_pinned_to_e_is_answered_from_e_when_its_batch_loads_e_plus_1() {
        let first = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        let (words, seed, fold_in) = (vec![0u32, 3, 6, 1], 5, FoldInParams::default());
        let expected = first.partial_fold_in(&words, seed, fold_in);
        let cell = SnapshotCell::new(first);
        cell.publish_with_version(shifted_snapshot(), 2);
        // One batch, loaded after the commit, holding jobs pinned to the
        // replaced epoch, the live one and one the cell never held.
        let (queue, rx) = sync_channel(3);
        let replies: Vec<_> = [1, 2, 7]
            .into_iter()
            .map(|epoch| {
                let (reply, reply_rx) = sync_channel(1);
                let request = PartialRequest::FoldIn { seed };
                let job = Job {
                    words: words.clone(),
                    kind: JobKind::Partial {
                        request,
                        epoch: Some(epoch),
                    },
                    reply,
                    enqueued: Instant::now(),
                    trace: TraceContext::disabled(),
                    timings: None,
                };
                queue.send(job).unwrap();
                reply_rx
            })
            .collect();
        drop(queue);
        worker_loop(&Mutex::new(rx), &cell, &Counters::default(), fold_in, 3);
        let answer = |rx: &Receiver<JobReply>| finish_partial(rx.recv().unwrap(), None);
        let pinned = answer(&replies[0]).unwrap();
        assert_eq!(pinned.snapshot_version, 1);
        let bits = |counts: &[f64]| counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pinned.partial.counts), bits(&expected.counts));
        assert_eq!(answer(&replies[1]).unwrap().snapshot_version, 2);
        assert!(matches!(
            answer(&replies[2]),
            Err(ServeError::ShardVersionSkew)
        ));
    }

    #[test]
    fn out_of_range_word_ids_are_rejected_not_fatal() {
        let server = small_server(2);
        // A poison request must error out without killing a worker…
        match server.infer_topics(vec![0, 99_999], 1) {
            Err(ServeError::BadRequest { detail }) => {
                assert!(detail.contains("99999"), "detail was: {detail}")
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert!(matches!(
            server.infer_with_deadline(vec![12], 1, Duration::from_secs(5)),
            Err(ServeError::BadRequest { .. })
        ));
        // …and the pool keeps serving afterwards.
        for seed in 0..8 {
            let response = server.infer_topics(vec![0, 3, 6, 9], seed).unwrap();
            assert_eq!(response.dominant_topic(), 0);
        }
        server.shutdown();
    }

    #[test]
    fn a_pinned_partial_drops_words_its_epoch_never_held() {
        // Word 15 is valid once a 20-word model replaced the 12-word one,
        // but a read pinned to the replaced epoch must count it as OOV
        // rather than index past that snapshot.
        let server = small_server(1);
        let grown = InferenceSnapshot::from_model(&planted_model(20, 3), SnapshotSampler::WaryTree);
        assert_eq!(server.publish(grown), 2);
        let off = TraceContext::disabled();
        let fold_in = PartialRequest::FoldIn { seed: 5 };
        let pinned = server.partial(vec![0, 15, 3], fold_in, Some(1), None, off);
        let pinned = pinned.unwrap();
        assert_eq!((pinned.snapshot_version, pinned.n_oov), (1, 1));
        let live = server.partial(
            vec![0, 15, 3],
            PartialRequest::FoldIn { seed: 5 },
            None,
            None,
            off,
        );
        assert_eq!(live.unwrap().n_oov, 0);
        server.shutdown();
    }

    /// The admission table: every entry point, grouped by the admission
    /// mode it must have, driven against a single worker wedged on a heavy
    /// request. Fail-fast entry points must time out once admitted and be
    /// refused at once when the queue is full; blocking ones must park on
    /// the full queue and answer once the worker is released.
    #[test]
    fn deadline_and_overload_fail_fast_while_worker_is_busy() {
        use crate::transport::{LocalTransport, PendingPartial, ShardTransport};
        type Call<'a> = (&'a str, Box<dyn Fn() -> Result<(), ServeError> + Send + 'a>);

        let shard = LocalTransport::new(
            TopicServer::from_model(
                &planted_model(12, 3),
                ServeConfig {
                    n_workers: 1,
                    max_batch: 1,
                    queue_depth: 4,
                    fold_in: FoldInParams {
                        burn_in: 100,
                        samples: 100,
                        ..FoldInParams::default()
                    },
                    ..ServeConfig::default()
                },
            )
            .unwrap(),
        );
        let server = shard.server();
        let brief = Duration::from_millis(1);
        let off = TraceContext::disabled;
        let fold_in = || PartialRequest::FoldIn { seed: 2 };
        let fail_fast: Vec<Call> = vec![
            (
                "infer_with_deadline",
                Box::new(|| server.infer_with_deadline(vec![3], 2, brief).map(drop)),
            ),
            (
                "infer_with_trace",
                Box::new(|| {
                    let mut trace = TraceBuilder::new(saber_trace::TraceId::mint());
                    server
                        .infer_with_trace(vec![3], 2, brief, &mut trace, 0)
                        .map(drop)
                }),
            ),
            (
                "submit_partial_pinned(.., Some(1), Some(deadline), ..)",
                Box::new(|| {
                    let at = Some(Instant::now() + brief);
                    let pending =
                        shard.submit_partial_pinned(vec![3], fold_in(), Some(1), at, off())?;
                    pending.wait(at).map(drop)
                }),
            ),
            (
                "submit_partial(.., Some(deadline), ..)",
                Box::new(|| {
                    let at = Some(Instant::now() + brief);
                    let pending = shard.submit_partial(vec![3], fold_in(), at, off())?;
                    pending.wait(at).map(drop)
                }),
            ),
        ];
        let blocking: Vec<Call> = vec![
            (
                "infer_topics",
                Box::new(|| server.infer_topics(vec![3], 2).map(drop)),
            ),
            (
                "infer_partial",
                Box::new(|| server.infer_partial(vec![3], fold_in()).map(drop)),
            ),
            (
                "infer_batch",
                Box::new(|| {
                    let request = InferRequest {
                        words: vec![3],
                        seed: 2,
                    };
                    server.infer_batch(vec![request]).map(drop)
                }),
            ),
            (
                "submit_partial(.., None, ..)",
                Box::new(|| {
                    let pending = shard.submit_partial(vec![3], fold_in(), None, off())?;
                    pending.wait(None).map(drop)
                }),
            ),
        ];

        std::thread::scope(|scope| {
            // Wedge the single worker on a heavy request (40k tokens × 200
            // sweeps) and wait until it has dequeued it: the queue is empty
            // but the pool is busy.
            let heavy = scope.spawn(|| server.infer_topics(vec![0; 40_000], 1));
            while server.stats().batches == 0 {
                std::thread::yield_now();
            }
            // Each fail-fast call takes one of the four free queue slots
            // and goes unanswered within its deadline…
            for (name, call) in &fail_fast {
                assert!(
                    matches!(call(), Err(ServeError::DeadlineExceeded)),
                    "{name}: admitted but unanswered must be DeadlineExceeded"
                );
            }
            // …and the four abandoned jobs now fill the queue: fail fast.
            for (name, call) in &fail_fast {
                assert!(
                    matches!(call(), Err(ServeError::Overloaded)),
                    "{name}: a full queue must be Overloaded"
                );
            }
            // Blocking calls park on the full queue instead, and answer
            // once the worker works through the heavy request.
            let parked: Vec<_> = blocking
                .into_iter()
                .map(|(name, call)| (name, scope.spawn(call)))
                .collect();
            heavy.join().unwrap().unwrap();
            for (name, handle) in parked {
                let outcome = handle.join().unwrap();
                assert!(outcome.is_ok(), "{name}: blocking admission: {outcome:?}");
            }
        });
    }

    #[test]
    fn partial_requests_reproduce_the_full_fold_in() {
        // A single-server "router" with the whole vocabulary: the partial
        // chain plus the esca_theta finish must equal infer_topics exactly.
        let server = small_server(2);
        let words = vec![0u32, 3, 6, 9, 0, 3];
        let full = server.infer_topics(words.clone(), 11).unwrap();
        let partial = server
            .infer_partial(words.clone(), PartialRequest::FoldIn { seed: 11 })
            .unwrap();
        assert_eq!(partial.snapshot_version, 1);
        assert_eq!(partial.n_oov, 0);
        assert_eq!(partial.partial.n_words, words.len());
        let finished: Vec<f32> = saber_core::infer::esca_theta(
            partial.partial.counts,
            partial.partial.n_words,
            server.config().fold_in.samples,
            server.snapshot().alpha(),
        )
        .into_iter()
        .map(|p| p as f32)
        .collect();
        assert_eq!(
            full.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            finished.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );

        // An EM round over a uniform θ reports responsibility counts that
        // sum to the document length (every word's responsibilities sum
        // to 1).
        let theta = Arc::new(vec![1.0f64 / 3.0; 3]);
        let round = server
            .infer_partial(words.clone(), PartialRequest::EmRound { round: 0, theta })
            .unwrap();
        let total: f64 = round.partial.counts.iter().sum();
        assert!((total - words.len() as f64).abs() < 1e-9, "total = {total}");
        // Partial requests share the validation path with full ones.
        assert!(matches!(
            server.infer_partial(vec![99], PartialRequest::FoldIn { seed: 0 }),
            Err(ServeError::BadRequest { .. })
        ));
        server.shutdown();
    }

    #[test]
    fn serve_stats_merge_sums_counters_and_histograms() {
        let a = small_server(1);
        let b = small_server(1);
        for seed in 0..4 {
            a.infer_topics(vec![0, 3, 6], seed).unwrap();
        }
        for seed in 0..3 {
            b.infer_topics(vec![1, 4], seed).unwrap();
        }
        let mut merged = a.stats();
        let b_stats = b.stats();
        merged.merge(&b_stats);
        assert_eq!(merged.requests, 7);
        assert_eq!(merged.tokens, 4 * 3 + 3 * 2);
        assert_eq!(merged.latency.count(), 7);
        // The queue-wait/compute split is recorded for every request and
        // merges alongside the end-to-end histogram.
        assert_eq!(merged.queue_wait.count(), 7);
        assert_eq!(merged.handler.count(), 7);
        assert!(merged.batches >= a.stats().batches.max(b_stats.batches));
        a.shutdown();
        b.shutdown();

        // Fleet-wide events must not multiply by the shard count: swaps
        // merge by max (every shard observes the same publications).
        let mut x = ServeStats {
            requests: 1,
            tokens: 2,
            batches: 1,
            swaps_observed: 2,
            latency: HistogramSnapshot::default(),
            queue_wait: HistogramSnapshot::default(),
            handler: HistogramSnapshot::default(),
        };
        let y = ServeStats {
            swaps_observed: 3,
            ..x.clone()
        };
        x.merge(&y);
        assert_eq!(x.swaps_observed, 3, "swaps merge by max, not sum");
        assert_eq!(x.requests, 2, "throughput counters still sum");
    }

    #[test]
    fn traced_requests_report_queue_and_handler_spans() {
        let server = small_server(1);
        let id = saber_trace::TraceId::mint();
        let mut trace = TraceBuilder::new(id);
        let root = trace.begin(None, "test-root");
        let traced = server
            .infer_with_trace(vec![0, 3, 6], 7, Duration::from_secs(5), &mut trace, root)
            .unwrap();
        // Tracing is invisible to the answer itself.
        let untraced = server.infer_topics(vec![0, 3, 6], 7).unwrap();
        assert_eq!(
            traced.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            untraced
                .theta
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
        );
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"queue-wait"), "spans were: {names:?}");
        assert!(names.contains(&"handler"), "spans were: {names:?}");

        // The partial path reports a self-contained subtree in the response
        // (what a remote shard ships inline for the router to attach)…
        let (fold_in, deadline) = (PartialRequest::FoldIn { seed: 1 }, Duration::from_secs(5));
        let partial = server
            .partial(
                vec![0, 3],
                fold_in,
                None,
                Some(deadline),
                TraceContext::root(id),
            )
            .unwrap();
        assert_eq!(partial.spans.len(), 3);
        assert_eq!(partial.spans[0].name, "infer-partial");
        assert_eq!(partial.spans[0].parent, None);
        assert_eq!(partial.spans[1].parent, Some(1));
        // …while untraced partials carry no spans at all, keeping the wire
        // encoding of existing deployments byte-identical.
        let untraced_partial = server
            .infer_partial(vec![0, 3], PartialRequest::FoldIn { seed: 1 })
            .unwrap();
        assert!(untraced_partial.spans.is_empty());
        server.shutdown();
    }

    #[test]
    fn empty_document_gets_uniform_theta() {
        let server = small_server(1);
        let response = server.infer_topics(vec![], 0).unwrap();
        for &t in &response.theta {
            assert!((t - 1.0 / 3.0).abs() < 1e-6);
        }
        server.shutdown();
    }

    #[test]
    fn drop_joins_workers() {
        let server = small_server(4);
        let _ = server.infer_topics(vec![1, 4, 7], 3).unwrap();
        drop(server); // must not hang or panic
    }
}
