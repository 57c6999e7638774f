//! The multi-threaded topic-inference server.
//!
//! [`TopicServer`] is the crate's execution engine: a bounded request queue
//! drained by `n_workers` threads, each taking one job per turn (one
//! snapshot load per job), so an idle worker never waits while a sibling
//! holds queued work. Every read is one `submit` (the only place a job is
//! minted and enqueued) and one `await_reply`. A job carries a reply channel
//! typed by its kind, on which the worker sends the answer with the job's
//! measured (queue-wait, handler) split, so a traced caller turns that split
//! into spans. Admission is fail-fast under a deadline — full inference
//! through [`InferenceBackend`], the path the HTTP front-end maps to
//! `429`/`503` — and blocking without one ([`TopicServer::infer_partial`], a
//! [`LocalTransport`](crate::LocalTransport) leg submitted without a
//! deadline). The one exception is a partial (`/infer-partial`) that
//! arrives while fewer than `n_workers` jobs are admitted and unfinished:
//! the calling thread claims the free slot and answers it itself, through
//! the same job body as a worker, with no queue wait, saving the two thread
//! hand-offs of the queue. Every request (queue wait + fold-in) is timed
//! into the lock-free histogram surfaced by [`ServeStats`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saber_core::infer::PartialFoldIn;
use saber_core::model::LdaModel;
use saber_core::model_io::DeltaPayload;
use saber_trace::{SpanRecord, TraceBuilder, TraceContext};

use crate::snapshot::{check_fit, FoldInParams, InferenceSnapshot, Shape, SnapshotSampler};
use crate::stats::{HistogramSnapshot, LatencyHistogram};
use crate::swap::{Epoch, SnapshotCell};
use crate::transport::ShardInfo;
use crate::{InferenceBackend, ServeError};

/// Configuration of a [`TopicServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads draining the request queue (≥ 1), each
    /// answering one job at a time.
    pub n_workers: usize,
    /// Capacity of the bounded request queue; submissions block (or fail
    /// with [`ServeError::Overloaded`], for the deadline-bounded entry
    /// points) when it is full.
    pub queue_depth: usize,
    /// Fold-in quality knobs applied to every request.
    pub fold_in: FoldInParams,
    /// Sampling structure used by [`TopicServer::from_model`] and
    /// [`ShardRouter::from_model`](crate::ShardRouter::from_model).
    pub sampler: SnapshotSampler,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_workers: 4,
            queue_depth: 256,
            fold_in: FoldInParams::default(),
            sampler: SnapshotSampler::default(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.n_workers == 0 || self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig {
                detail: "n_workers and queue_depth must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// The answer to one inference request. Equal seeds on equal words
/// against an equal snapshot give bit-identical responses, whichever
/// worker serves them.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Topic distribution `θ` of the document (length `K`, sums to 1).
    pub theta: Vec<f32>,
    /// Version of the snapshot that served the request.
    pub snapshot_version: u64,
    /// Raw tokens dropped as out-of-vocabulary. Word-id requests never
    /// drop any; the HTTP front-end adds the unknown tokens of a raw-token
    /// body after encoding it against its vocabulary.
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
    swaps_observed: AtomicU64,
    /// The newest live snapshot version a job has loaded, so each
    /// publication counts one swap however many jobs observe it.
    seen_version: AtomicU64,
    /// Queue wait + fold-in time per request.
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
    /// Batches executed. Every job is answered alone, so this equals
    /// `requests`; it is kept for the `/stats`, `/metrics` and
    /// `/shard-info` bytes that carry it.
    pub batches: u64,
    /// Publications observed: a job that loads a newer live snapshot than
    /// every job before it counts one.
    pub swaps_observed: u64,
    /// End-to-end request latency (submission to reply, i.e. queue wait plus
    /// fold-in) as a log-bucketed histogram; see
    /// [`HistogramSnapshot::p50`]/[`p95`](HistogramSnapshot::p95)/
    /// [`p99`](HistogramSnapshot::p99) for tail-latency estimates in
    /// microseconds.
    pub latency: HistogramSnapshot,
    /// The queue-wait component of `latency` alone (admission to dequeue),
    /// so overload (queue grows) is distinguishable from slow compute. A
    /// partial answered on its caller's thread records 0 µs here.
    pub queue_wait: HistogramSnapshot,
    /// The compute component of `latency` alone (dequeue to reply).
    pub handler: HistogramSnapshot,
}

impl ServeStats {
    /// Mean requests per batch: 1 once anything ran, 0 before.
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
    /// every swap by the shard count. The sums saturate at `u64::MAX`: the
    /// counters may come decoded from a remote shard's `/shard-info`.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests = self.requests.saturating_add(other.requests);
        self.tokens = self.tokens.saturating_add(other.tokens);
        self.batches = self.batches.saturating_add(other.batches);
        self.swaps_observed = self.swaps_observed.max(other.swaps_observed);
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.handler.merge(&other.handler);
    }
}

/// What a worker sends on a job's reply channel: the answer and the job's
/// measured (queue-wait, handler) split.
pub(crate) type Reply<T> = (T, (Duration, Duration));

/// A partial job's reply: refused with [`ServeError::ShardVersionSkew`]
/// when the server holds no snapshot of its epoch.
pub(crate) type PartialReply = Reply<Result<PartialResponse, ServeError>>;

/// The work a queued job asks of a worker, and the channel its answer goes
/// back on.
pub(crate) enum JobKind {
    /// Full fold-in: answer with θ.
    Infer {
        seed: u64,
        reply: SyncSender<Reply<InferResponse>>,
    },
    /// One shard's half of a sharded fold-in: answer with raw counts from
    /// the snapshot of `epoch`, or from the live one when `None`.
    Partial {
        request: PartialRequest,
        epoch: Option<u64>,
        reply: SyncSender<PartialReply>,
    },
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
    /// Always 0 from a shard: every snapshot a server holds has the `V` it
    /// started with, so no admitted word id is ever dropped. Kept for the
    /// pinned `/infer-partial` bytes, which carry it.
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

/// An admitted, unfinished job's claim on its server's in-flight count,
/// given back when dropped.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// Claims a slot whatever the count: a job bound for the queue.
    fn take(in_flight: &Arc<AtomicUsize>) -> Slot {
        in_flight.fetch_add(1, Ordering::AcqRel);
        Slot(Arc::clone(in_flight))
    }

    /// Claims a slot only while fewer than `bound` are claimed.
    fn claim_below(in_flight: &Arc<AtomicUsize>, bound: usize) -> Option<Slot> {
        in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < bound).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(Arc::clone(in_flight)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Job {
    words: Vec<u32>,
    kind: JobKind,
    /// Held from admission until the answer is computed.
    slot: Slot,
    /// When the request was admitted, so workers can attribute queue wait to
    /// the latency histogram.
    enqueued: Instant,
}

/// A multi-threaded topic-inference server over hot-swappable snapshots.
///
/// Requests enter a bounded queue; each of the `n_workers` threads pops one
/// request, loads the current [`InferenceSnapshot`] for it and answers it
/// with the sparsity-aware fold-in sampler, so a burst spreads over every
/// idle worker. Because each request carries its own seed, results are
/// reproducible whichever worker answers.
///
/// A partial ([`TopicServer::infer_partial`], the `/infer-partial`
/// handler) skips the queue when fewer than `n_workers` jobs are admitted
/// and unfinished: its calling thread answers it through the same job body,
/// and the same counters, as a worker. A saturated server queues it like
/// every other request, keeping its `429`.
///
/// A trainer (or anything holding the server handle) can
/// [`TopicServer::stage`] a refreshed snapshot of the same `V × K` and
/// [`TopicServer::commit`] it at any time; workers pick it up at their next
/// job without pausing the queue.
///
/// Dropping the server joins all workers after in-flight requests drain.
pub struct TopicServer {
    cell: Arc<SnapshotCell>,
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    /// Jobs admitted and not yet answered, queued or computing: the
    /// partial path answers inline only while this is below `n_workers`.
    in_flight: Arc<AtomicUsize>,
    config: ServeConfig,
    /// Vocabulary size of every snapshot this server holds: `stage` refuses
    /// any other shape and a delta keeps it, so admission checks word ids
    /// without touching the snapshot cell's lock.
    vocab_bound: usize,
}

impl std::fmt::Debug for TopicServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicServer")
            .field("config", &self.config)
            .field("snapshot_version", &self.snapshot_version())
            .field("n_workers", &self.workers.len())
            .finish()
    }
}

impl TopicServer {
    /// Starts a server over `initial` (published as version 1).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers or queue
    /// depth.
    pub fn start(initial: InferenceSnapshot, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let cell = Arc::new(SnapshotCell::new(initial));
        let (tx, rx) = sync_channel::<Job>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let counters = Arc::new(Counters {
            seen_version: AtomicU64::new(cell.load().0),
            ..Counters::default()
        });
        let workers = (0..config.n_workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cell = Arc::clone(&cell);
                let counters = Arc::clone(&counters);
                let fold_in = config.fold_in;
                std::thread::Builder::new()
                    .name(format!("saber-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &cell, &counters, fold_in))
                    .map_err(|e| ServeError::Internal {
                        detail: format!("failed to spawn serving worker: {e}"),
                    })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        let vocab_bound = cell.load().1.vocab_size();
        Ok(TopicServer {
            cell,
            queue: Some(tx),
            workers,
            counters,
            in_flight: Arc::new(AtomicUsize::new(0)),
            config,
            vocab_bound,
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

    /// Stages `publication` to be served as `epoch` from its
    /// [`TopicServer::commit`], the shard half of a fleet's all-or-nothing
    /// publication on either transport. Serving is untouched until the
    /// commit; a stage replaces any earlier, aborted one. Returns `false`
    /// only for a declined delta: the served epoch is not its base, or
    /// `epoch` is not ahead of it (the publisher then stages the slice).
    ///
    /// Accepting a stage releases the snapshot the last commit replaced (a
    /// router stages only once its reads in flight finished), so peak
    /// memory stays at live + staged.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when a slice's `epoch` is not ahead of the
    /// served one (its commit would be a silent no-op).
    /// [`ServeError::BadRequest`] when a slice is not the served `V × K`
    /// (it would fail every request at the router's merge) or carries
    /// another α (the shard would sample with a prior the router does not
    /// finish θ with), and when a delta targets another epoch than `epoch`
    /// or was cut for another shape, α or sampler.
    pub fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
        match publication {
            Publication::Slice(slice) => {
                let declared = (slice.shape(), slice.sampler_kind().code());
                self.stage_with((None, epoch), declared, |_| Ok(slice))
            }
            Publication::Delta(delta) => {
                check_target(epoch, delta.target_version)?;
                let shape = (delta.vocab_size, delta.n_topics, delta.alpha);
                let declared = (shape, delta.sampler_code);
                let build =
                    |served: &InferenceSnapshot| served.apply_delta(delta).map_err(delta_refused);
                self.stage_with((Some(delta.base_version), epoch), declared, build)
            }
        }
    }

    /// This server's self-description as one shard of a fleet: the served
    /// snapshot's epoch, shape and α, the fold-in parameters and the
    /// serving counters. `range` is the global word-id range `[start, end)`
    /// it serves, when known; `None` reports the local `[0, V)`.
    pub fn shard_info(&self, range: Option<(u32, u32)>) -> ShardInfo {
        let (epoch, snapshot) = self.cell.load();
        let vocab_size = snapshot.vocab_size();
        ShardInfo {
            epoch,
            vocab_size,
            n_topics: snapshot.n_topics(),
            alpha: snapshot.alpha(),
            shard_range: range.unwrap_or((0, vocab_size as u32)),
            fold_in: self.config.fold_in,
            stats: self.stats(),
        }
    }

    /// The one stage path, for a whole slice and a delta alike: the cell
    /// ([`SnapshotCell::stage`]) judges the epoch `target` it stages and the
    /// live epoch `base` a delta patches (`None` for a whole slice), and
    /// this judges what it declares, its `shape` and sampler `code`, against
    /// the served snapshot. Then the cell releases the snapshot the last
    /// commit replaced and any earlier stage, builds the new snapshot with
    /// `build` (handed the served one) and stages it for `target`. A stage
    /// refused from its declaration touches nothing; one whose build fails
    /// leaves nothing staged. Returns `false` when a delta is declined: the
    /// served epoch is not its base, or its target is not ahead of it (the
    /// publisher falls back to a full slice).
    ///
    /// # Errors
    ///
    /// For a slice, [`TopicServer::stage`]'s refusals, and an unknown
    /// sampler code as [`ServeError::BadRequest`]. For a delta, a
    /// [`ServeError::BadRequest`] when it was cut for another shape, α or
    /// sampler. Then whatever `build` returns.
    pub(crate) fn stage_with(
        &self,
        (base, target): (Option<u64>, u64),
        (shape, code): (Shape, u8),
        build: impl FnOnce(&InferenceSnapshot) -> Result<InferenceSnapshot, ServeError>,
    ) -> Result<bool, ServeError> {
        let check = |served: &InferenceSnapshot| {
            if base.is_some() {
                return served.check_delta(shape, code).map_err(delta_refused);
            }
            check_fit("published snapshot", shape, "this shard", served.shape())
                .map_err(|detail| ServeError::BadRequest { detail })?;
            match SnapshotSampler::from_code(code) {
                Some(_) => Ok(()),
                None => Err(ServeError::BadRequest {
                    detail: format!("unknown snapshot sampler code {code}"),
                }),
            }
        };
        self.cell.stage((base, target), check, build)
    }

    /// Swaps in the snapshot staged for `epoch` and returns `epoch`: the
    /// only place the served snapshot changes. In-flight jobs finish on
    /// the snapshot they started with. Idempotent for the epoch already
    /// served, and then leaves the stage alone: a stale duplicate commit
    /// must never discard a newer stage.
    ///
    /// # Errors
    ///
    /// [`ServeError::Conflict`] when nothing is staged for `epoch`.
    pub fn commit(&self, epoch: u64) -> Result<u64, ServeError> {
        self.cell.commit(epoch)
    }

    /// The currently served snapshot.
    pub fn snapshot(&self) -> Arc<InferenceSnapshot> {
        self.cell.load().1
    }

    /// Current snapshot version: the epoch of the last commit, 1 before
    /// any.
    pub fn snapshot_version(&self) -> u64 {
        self.cell.load().0
    }

    /// Blockingly computes the partial sufficient statistics of `request`
    /// over `words` — the per-shard half of a sharded fold-in (see
    /// [`crate::ShardRouter`]). Answered on the calling thread when a worker
    /// slot is free, through the queue otherwise; the answer, the counters
    /// and the spans are the same either way.
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
    ///
    /// While fewer than `n_workers` jobs are admitted and unfinished, the
    /// calling thread claims a slot and runs the job body itself, with 0 µs
    /// of queue wait, returned as [`ServeError::DeadlineExceeded`] if it
    /// took longer than `deadline`.
    pub(crate) fn partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Duration>,
        trace: TraceContext,
    ) -> Result<PartialResponse, ServeError> {
        let Some(slot) = Slot::claim_below(&self.in_flight, self.config.n_workers) else {
            let kind = |reply| JobKind::Partial {
                request,
                epoch,
                reply,
            };
            let rx = self.submit(words, kind, deadline)?;
            return finish_partial(Self::await_reply(&rx, deadline)?, trace.enabled());
        };
        self.validate_words(&words)?;
        let fold_in = self.config.fold_in;
        let (answer, split) = run_job(
            &self.cell,
            &self.counters,
            words.len(),
            slot,
            Instant::now(),
            |live| answer_partial(&words, &request, epoch, live, &self.cell, fold_in),
        );
        if deadline.is_some_and(|deadline| split.1 > deadline) {
            return Err(ServeError::DeadlineExceeded);
        }
        finish_partial((answer, split), trace.enabled())
    }

    /// A point-in-time copy of the serving counters and latency histogram.
    pub fn stats(&self) -> ServeStats {
        let requests = self.counters.requests.load(Ordering::Relaxed);
        ServeStats {
            requests,
            tokens: self.counters.tokens.load(Ordering::Relaxed),
            batches: requests,
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
    /// instead of panicking a worker. Reads the fixed bound — admission
    /// must not contend on the snapshot cell.
    fn validate_words(&self, words: &[u32]) -> Result<(), ServeError> {
        let vocab_size = self.vocab_bound;
        match words.iter().find(|&&w| w as usize >= vocab_size) {
            None => Ok(()),
            Some(&w) => Err(ServeError::BadRequest {
                detail: format!("word id {w} out of vocabulary range (V = {vocab_size})"),
            }),
        }
    }

    /// The request half of every read, and the only place a [`Job`] is
    /// minted: validates `words`, hands `kind` the job's capacity-1 reply
    /// channel and enqueues the job — failing fast with
    /// [`ServeError::Overloaded`] on a full queue when a `deadline` is
    /// given, parking until there is room otherwise.
    pub(crate) fn submit<T>(
        &self,
        words: Vec<u32>,
        kind: impl FnOnce(SyncSender<Reply<T>>) -> JobKind,
        deadline: Option<Duration>,
    ) -> Result<Receiver<Reply<T>>, ServeError> {
        self.validate_words(&words)?;
        let (reply, reply_rx) = sync_channel(1);
        let job = Job {
            words,
            kind: kind(reply),
            slot: Slot::take(&self.in_flight),
            enqueued: Instant::now(),
        };
        let queue = self.queue.as_ref().ok_or(ServeError::Closed)?;
        if deadline.is_some() {
            queue.try_send(job).map_err(|e| match e {
                TrySendError::Full(_) => ServeError::Overloaded,
                TrySendError::Disconnected(_) => ServeError::Closed,
            })?;
        } else {
            queue.send(job).map_err(|_| ServeError::Closed)?;
        }
        Ok(reply_rx)
    }

    /// The reply half of every read: waits for the worker's answer to a
    /// [`TopicServer::submit`]ted job — at most `deadline` when one is
    /// given ([`ServeError::DeadlineExceeded`] past it), indefinitely
    /// otherwise.
    pub(crate) fn await_reply<T>(
        rx: &Receiver<Reply<T>>,
        deadline: Option<Duration>,
    ) -> Result<Reply<T>, ServeError> {
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

impl InferenceBackend for TopicServer {
    /// Fail-fast inference under `deadline`: refused at once with
    /// [`ServeError::Overloaded`] when the queue is full, given up with
    /// [`ServeError::DeadlineExceeded`] when no answer arrives in time, so
    /// the HTTP front-end answers overload with `429`/`503` instead of an
    /// unbounded hang. An abandoned request still completes on its worker
    /// (its reply channel has room for the answer): the deadline bounds the
    /// caller's wait, not the server's work. Records `queue-wait` and
    /// `handler` spans under `parent` from the split the worker replies
    /// with.
    fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: Duration,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let base_us = trace.elapsed_us();
        let deadline = Some(deadline);
        let rx = self.submit(words, |reply| JobKind::Infer { seed, reply }, deadline)?;
        let (response, (queue_wait, handler)) = Self::await_reply(&rx, deadline)?;
        let (queue_wait_us, handler_us) = (micros(queue_wait), micros(handler));
        trace.push_span(Some(parent), "queue-wait", base_us, queue_wait_us);
        trace.push_span(Some(parent), "handler", base_us + queue_wait_us, handler_us);
        Ok(response)
    }

    fn n_topics(&self) -> usize {
        self.snapshot().n_topics()
    }

    fn vocab_size(&self) -> usize {
        self.snapshot().vocab_size()
    }

    fn snapshot_version(&self) -> u64 {
        TopicServer::snapshot_version(self)
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn serve_stats(&self) -> ServeStats {
        self.stats()
    }

    fn shard(&self) -> Option<&TopicServer> {
        Some(self)
    }
}

/// A span duration in whole microseconds.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// What a publisher stages on a shard ([`TopicServer::stage`],
/// [`ShardTransport::stage`](crate::ShardTransport::stage)): a whole slice
/// of the fleet's snapshot, or the rows that changed since the epoch the
/// shard serves.
#[derive(Debug)]
pub enum Publication<'a> {
    /// The shard's whole slice (a `SABRSNAP` body on the wire).
    Slice(InferenceSnapshot),
    /// The changed rows over the served epoch `base_version` (a `SABRDELTA`
    /// body on the wire). A shard that does not serve that base declines it.
    Delta(&'a DeltaPayload),
}

/// Refuses a delta staged for another epoch than the one it targets.
pub(crate) fn check_target(epoch: u64, target: u64) -> Result<(), ServeError> {
    if target == epoch {
        return Ok(());
    }
    Err(ServeError::BadRequest {
        detail: format!("epoch {epoch} does not match the delta's target epoch {target}"),
    })
}

/// A delta that does not apply to the served snapshot, as a `400`.
pub(crate) fn delta_refused(e: saber_core::SaberError) -> ServeError {
    ServeError::BadRequest {
        detail: format!("delta does not apply to the served snapshot: {e}"),
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    cell: &SnapshotCell,
    counters: &Counters,
    fold_in: FoldInParams,
) {
    loop {
        // Take one job. Holding the queue lock while blocked parks this
        // worker and lets siblings wake in turn; submissions never take it.
        // Sibling workers never panic while holding this lock (it guards the
        // `recv` alone), but recover from poison anyway: a wedged queue
        // would strand all requesters.
        let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(Job {
            words,
            kind,
            slot,
            enqueued,
        }) = job
        else {
            return;
        };
        // A send only fails if the requester's receiver is gone (it gave up
        // at its deadline, or its thread panicked); nothing to do.
        let tokens = words.len();
        match kind {
            JobKind::Infer { seed, reply } => {
                let answer = run_job(cell, counters, tokens, slot, enqueued, |(epoch, live)| {
                    InferResponse {
                        theta: live.infer_topics(&words, seed, fold_in),
                        snapshot_version: *epoch,
                        n_oov: 0,
                    }
                });
                let _ = reply.send(answer);
            }
            JobKind::Partial {
                request,
                epoch,
                reply,
            } => {
                let answer = run_job(cell, counters, tokens, slot, enqueued, |live| {
                    answer_partial(&words, &request, epoch, live, cell, fold_in)
                });
                let _ = reply.send(answer);
            }
        }
    }
}

/// One job's body, run by a worker for a queued job and by the caller of
/// [`TopicServer::partial`] for one answered inline: loads the live
/// snapshot, counts a swap when it is newer than any loaded before,
/// computes `work` from it and records the job's `tokens` and its
/// (queue-wait, handler) split since `enqueued`. Frees `slot` before
/// returning, so the requester the reply wakes finds it free, and drops
/// the snapshot, so an idle worker keeps no released epoch alive.
fn run_job<T>(
    cell: &SnapshotCell,
    counters: &Counters,
    tokens: usize,
    slot: Slot,
    enqueued: Instant,
    work: impl FnOnce(&Epoch) -> T,
) -> Reply<T> {
    let dequeued = Instant::now();
    let live = cell.load();
    let version = live.0;
    if counters.seen_version.fetch_max(version, Ordering::Relaxed) < version {
        counters.swaps_observed.fetch_add(1, Ordering::Relaxed);
    }
    let answer = work(&live);
    let (queue_wait, handler) = (dequeued.duration_since(enqueued), dequeued.elapsed());
    drop(slot);
    counters.requests.fetch_add(1, Ordering::Relaxed);
    counters.tokens.fetch_add(tokens as u64, Ordering::Relaxed);
    counters.queue_wait.record(queue_wait);
    counters.handler.record(handler);
    counters.latency.record(enqueued.elapsed());
    (answer, (queue_wait, handler))
}

/// Answers one partial from `live`, the snapshot its job loaded. A partial
/// pinned to another epoch (a commit landed between its admission and its
/// load) is answered from the cell's snapshot of that epoch, and refused
/// with [`ServeError::ShardVersionSkew`] when the cell holds none.
fn answer_partial(
    words: &[u32],
    request: &PartialRequest,
    epoch: Option<u64>,
    (live_epoch, live): &Epoch,
    cell: &SnapshotCell,
    fold_in: FoldInParams,
) -> Result<PartialResponse, ServeError> {
    let (served_epoch, served) = match epoch {
        Some(e) if e != *live_epoch => (e, cell.load_at(e).ok_or(ServeError::ShardVersionSkew)?),
        _ => (*live_epoch, Arc::clone(live)),
    };
    Ok(PartialResponse {
        partial: match request {
            PartialRequest::FoldIn { seed } => served.partial_fold_in(words, *seed, fold_in),
            PartialRequest::EmRound { theta, .. } => served.em_round(words, theta),
        },
        snapshot_version: served_epoch,
        n_oov: 0,
        spans: Vec::new(),
    })
}

/// Unwraps a partial job's reply and, when `traced`, fills in the
/// self-contained span subtree a shard reports from the reply's split: an
/// `infer-partial` root with `queue-wait` and `handler` children, ids dense
/// from 1 and offsets relative to the request's admission. The
/// `/infer-partial` handler and the local transport's wait path both
/// finish through here, so local and remote shards produce identical
/// subtrees for a router to attach.
pub(crate) fn finish_partial(
    (response, (queue_wait, handler)): PartialReply,
    traced: bool,
) -> Result<PartialResponse, ServeError> {
    let mut response = response?;
    if traced {
        let (queue_wait_us, handler_us) = (micros(queue_wait), micros(handler));
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
    use std::sync::mpsc::TryRecvError;

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
    fn merge_saturates_instead_of_overflowing() {
        let near_max = u64::MAX - 1;
        let histogram =
            |count| HistogramSnapshot::from_sparse_buckets([(3, count)], count, count).unwrap();
        let stats = |n| ServeStats {
            requests: n,
            tokens: n,
            batches: n,
            swaps_observed: 0,
            latency: histogram(n),
            queue_wait: histogram(n),
            handler: histogram(n),
        };
        let mut merged = stats(near_max);
        merged.merge(&stats(2));
        assert_eq!(
            [merged.requests, merged.tokens, merged.batches],
            [u64::MAX; 3]
        );
        for h in [&merged.latency, &merged.queue_wait, &merged.handler] {
            assert_eq!(h.count(), u64::MAX);
            assert_eq!(h.bucket_count(3), u64::MAX);
            assert_eq!(h.sum_micros(), u64::MAX);
            assert_eq!(h.overflow(), u64::MAX);
            assert!(h.p99().is_some());
        }
        // Decoding a shard's repeated buckets saturates the same way.
        let decoded = HistogramSnapshot::from_sparse_buckets([(3, near_max), (3, 2)], 0, 0);
        assert_eq!(decoded.unwrap().count(), u64::MAX);
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
        let response = server
            .infer_with_deadline(vec![0, 3, 6, 9, 0, 3], 42, Duration::MAX)
            .unwrap();
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
        // Twenty requests in flight at once, spread over the workers.
        let answers = || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..20u32)
                    .map(|i| {
                        let server = &server;
                        scope.spawn(move || {
                            server.infer_with_deadline(vec![i % 12; 6], u64::from(i), Duration::MAX)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap().unwrap())
                    .collect::<Vec<_>>()
            })
        };
        let (a, b) = (answers(), answers());
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
    fn a_committed_snapshot_is_visible_to_later_requests() {
        let server = small_server(2);
        assert_eq!(server.snapshot_version(), 1);
        // New model: words planted shifted by one topic.
        server
            .stage(2, Publication::Slice(shifted_snapshot()))
            .unwrap();
        assert_eq!(server.snapshot_version(), 1, "a stage serves nothing yet");
        assert_eq!(server.commit(2).unwrap(), 2);
        let response = server
            .infer_with_deadline(vec![0, 3, 6, 9, 0, 3], 42, Duration::MAX)
            .unwrap();
        assert_eq!(response.snapshot_version, 2);
        assert_eq!(response.dominant_topic(), 1, "swap must retarget topic");
        server.shutdown();
    }

    #[test]
    fn a_commit_pins_the_routers_epoch_and_a_stage_refuses_regressions() {
        let server = small_server(1);
        assert_eq!(server.snapshot_version(), 1);
        let snap =
            || InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        server.stage(5, Publication::Slice(snap())).unwrap();
        assert_eq!(server.commit(5).unwrap(), 5);
        assert_eq!(server.snapshot_version(), 5);
        let response = server
            .infer_with_deadline(vec![0, 3], 1, Duration::MAX)
            .unwrap();
        assert_eq!(response.snapshot_version, 5);
        // Equal or backwards epochs are refused, leaving the server as-is.
        for epoch in [5, 2] {
            assert!(matches!(
                server.stage(epoch, Publication::Slice(snap())),
                Err(ServeError::Conflict { .. })
            ));
        }
        assert!(matches!(server.commit(2), Err(ServeError::Conflict { .. })));
        assert_eq!(server.snapshot_version(), 5);
        // The next publication continues from the pinned epoch.
        server.stage(6, Publication::Slice(snap())).unwrap();
        assert_eq!(server.commit(6).unwrap(), 6);
        assert_eq!(server.snapshot_version(), 6);
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
        server
            .stage(2, Publication::Slice(shifted_snapshot()))
            .unwrap();
        assert_eq!(server.commit(2).unwrap(), 2);
        assert!(server.cell.load_at(1).is_some());
        let replaced = pinned(1).unwrap();
        assert_eq!(replaced.snapshot_version, 1);
        assert_eq!(count_bits(&replaced), count_bits(&first));
        let live = pinned(2).unwrap();
        assert_ne!(count_bits(&live), count_bits(&first));
        // A stage refused or declined from what it declares builds nothing
        // and releases nothing: epoch 1 still answers.
        let (v, k, alpha) = server.snapshot().shape();
        let code = SnapshotSampler::WaryTree.code();
        let alias = SnapshotSampler::AliasTable.code();
        for (epochs, declared, declined) in [
            ((None, 2), ((v, k, alpha), code), false),
            ((None, 3), ((v + 1, k, alpha), code), false),
            ((None, 3), ((v, k, 0.5), code), false),
            ((None, 3), ((v, k, alpha), 7), false),
            ((Some(1), 3), ((v, k, alpha), code), true),
            ((Some(2), 2), ((v, k, alpha), code), true),
            ((Some(2), 3), ((v, k + 1, alpha), code), false),
            ((Some(2), 3), ((v, k, alpha), alias), false),
        ] {
            let case = format!("{epochs:?} {declared:?}");
            let outcome = server.stage_with(epochs, declared, |_| unreachable!("{case} was built"));
            assert_eq!(outcome.ok(), declined.then_some(false), "{case}");
            assert_eq!(pinned(1).unwrap().snapshot_version, 1, "{case}");
        }
        // An accepted stage releases epoch 1; epoch 2 still answers.
        server
            .stage(3, Publication::Slice(shifted_snapshot()))
            .unwrap();
        assert!(server.cell.load_at(1).is_none());
        assert!(matches!(pinned(1), Err(ServeError::ShardVersionSkew)));
        assert_eq!(count_bits(&pinned(2).unwrap()), count_bits(&live));
        // A stage whose build fails leaves nothing staged, not even the
        // stage it replaced: its epoch's commit is a conflict.
        let cut = || ServeError::BadRequest {
            detail: "cut".into(),
        };
        let failed = server.stage_with((None, 3), ((v, k, alpha), code), |_| Err(cut()));
        assert!(matches!(failed, Err(ServeError::BadRequest { .. })));
        assert!(matches!(server.commit(3), Err(ServeError::Conflict { .. })));
        assert_eq!(server.snapshot_version(), 2);
    }

    #[test]
    fn an_idle_worker_keeps_no_released_epoch_alive() {
        let server = small_server(1);
        server
            .infer_with_deadline(vec![0, 3, 6], 1, Duration::MAX)
            .unwrap();
        let first = Arc::downgrade(&server.snapshot());
        server
            .stage(2, Publication::Slice(shifted_snapshot()))
            .unwrap();
        assert_eq!(server.commit(2).unwrap(), 2);
        server
            .stage(3, Publication::Slice(shifted_snapshot()))
            .unwrap();
        // The worker dropped its snapshot before it replied.
        assert_eq!(first.strong_count(), 0, "epoch 1 outlived its release");
        server.shutdown();
    }

    #[test]
    fn an_inline_partial_is_answered_like_a_queued_one() {
        let server = small_server(1);
        let counts = |s: &ServeStats| {
            let histograms = [&s.latency, &s.queue_wait, &s.handler].map(|h| h.count());
            [s.requests, s.tokens, s.batches]
                .into_iter()
                .chain(histograms)
        };
        let shape = |r: &PartialResponse| {
            let spans = r.spans.iter().map(|s| (s.id, s.parent, s.name.clone()));
            spans.collect::<Vec<_>>()
        };
        // One answer and the counters it moved. While `busy` holds the
        // only slot the partial queues; otherwise it is answered inline.
        let answer = |epoch, busy: bool| {
            let held = busy.then(|| Slot::take(&server.in_flight));
            let before = server.stats();
            let trace = TraceContext::root(saber_trace::TraceId::mint());
            let request = PartialRequest::FoldIn { seed: 5 };
            let response = server.partial(vec![0, 3, 6, 1], request, Some(epoch), None, trace);
            drop(held);
            let after = server.stats();
            let moved: Vec<u64> = counts(&after)
                .zip(counts(&before))
                .map(|(a, b)| a - b)
                .collect();
            response.map(|response| (response, moved))
        };
        let (inline, inline_moved) = answer(1, false).unwrap();
        let (queued, queued_moved) = answer(1, true).unwrap();
        assert_eq!(inline.spans[1].name, "queue-wait");
        assert_eq!(inline.spans[1].duration_us, 0, "answered inline");
        assert_eq!(count_bits(&inline), count_bits(&queued));
        assert_eq!(inline.snapshot_version, queued.snapshot_version);
        assert_eq!(inline_moved, queued_moved);
        assert_eq!(inline_moved, [1, 4, 1, 1, 1, 1]);
        assert_eq!(shape(&inline), shape(&queued));
        // A read pinned to a released epoch is refused on both paths.
        server
            .stage(2, Publication::Slice(shifted_snapshot()))
            .unwrap();
        assert_eq!(server.commit(2).unwrap(), 2);
        server
            .stage(3, Publication::Slice(shifted_snapshot()))
            .unwrap();
        for busy in [false, true] {
            assert!(matches!(answer(1, busy), Err(ServeError::ShardVersionSkew)));
        }
        server.shutdown();
    }

    #[test]
    fn a_job_pinned_to_e_is_answered_from_e_when_it_loads_e_plus_1() {
        let first = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        let (words, seed, fold_in) = (vec![0u32, 3, 6, 1], 5, FoldInParams::default());
        let expected = first.partial_fold_in(&words, seed, fold_in);
        let cell = SnapshotCell::new(first);
        cell.stage((None, 2), |_| Ok(()), |_| Ok(shifted_snapshot()))
            .unwrap();
        cell.commit(2).unwrap();
        // Three jobs, each loading the live epoch 2 after the commit: pinned
        // to the replaced epoch, the live one and one the cell never held.
        let answer = |epoch| {
            let request = PartialRequest::FoldIn { seed };
            let (answer, _) = run_job(
                &cell,
                &Counters::default(),
                words.len(),
                Slot::take(&Arc::default()),
                Instant::now(),
                |live| answer_partial(&words, &request, Some(epoch), live, &cell, fold_in),
            );
            answer
        };
        let pinned = answer(1).unwrap();
        assert_eq!(pinned.snapshot_version, 1);
        let bits = |counts: &[f64]| counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pinned.partial.counts), bits(&expected.counts));
        assert_eq!(answer(2).unwrap().snapshot_version, 2);
        assert!(matches!(answer(7), Err(ServeError::ShardVersionSkew)));
    }

    #[test]
    fn a_light_job_behind_a_heavy_one_is_answered_by_the_idle_worker() {
        let server = TopicServer::from_model(
            &planted_model(12, 3),
            ServeConfig {
                n_workers: 2,
                fold_in: FoldInParams {
                    burn_in: 100,
                    samples: 100,
                    ..FoldInParams::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // 40k tokens × 200 sweeps: hundreds of milliseconds on one worker.
        let infer = |words, seed| {
            let kind = |reply| JobKind::Infer { seed, reply };
            server.submit(words, kind, None).unwrap()
        };
        let heavy = infer(vec![0; 40_000], 1);
        let light = infer(vec![3], 2);
        let (answer, _) = light.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(answer.snapshot_version, 1);
        assert!(
            matches!(heavy.try_recv(), Err(TryRecvError::Empty)),
            "the light job waited for the heavy one"
        );
        heavy.recv().unwrap();
        server.shutdown();
    }

    #[test]
    fn out_of_range_word_ids_are_rejected_not_fatal() {
        let server = small_server(2);
        // A poison request must error out without killing a worker…
        match server.infer_with_deadline(vec![0, 99_999], 1, Duration::MAX) {
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
            let response = server
                .infer_with_deadline(vec![0, 3, 6, 9], seed, Duration::MAX)
                .unwrap();
            assert_eq!(response.dominant_topic(), 0);
        }
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
                    queue_depth: 5,
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
            (
                "partial(.., Some(deadline), ..)",
                Box::new(|| {
                    let deadline = Some(brief);
                    server
                        .partial(vec![3], fold_in(), None, deadline, off())
                        .map(drop)
                }),
            ),
        ];
        let blocking: Vec<Call> = vec![
            (
                "infer_partial",
                Box::new(|| server.infer_partial(vec![3], fold_in()).map(drop)),
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
            // but the pool is busy. The cell and this probe hold two
            // references to the live snapshot; the computing worker a third.
            let heavy =
                scope.spawn(|| server.infer_with_deadline(vec![0; 40_000], 1, Duration::MAX));
            while Arc::strong_count(&server.snapshot()) < 3 {
                std::thread::yield_now();
            }
            // Each fail-fast call takes one of the five free queue slots
            // and goes unanswered within its deadline (the busy worker holds
            // the only slot, so no partial is answered inline)…
            for (name, call) in &fail_fast {
                assert!(
                    matches!(call(), Err(ServeError::DeadlineExceeded)),
                    "{name}: admitted but unanswered must be DeadlineExceeded"
                );
            }
            // …and the five abandoned jobs now fill the queue: fail fast.
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
        // chain plus the esca_theta finish must equal the full fold-in exactly.
        let server = small_server(2);
        let words = vec![0u32, 3, 6, 9, 0, 3];
        let full = server
            .infer_with_deadline(words.clone(), 11, Duration::MAX)
            .unwrap();
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
            a.infer_with_deadline(vec![0, 3, 6], seed, Duration::MAX)
                .unwrap();
        }
        for seed in 0..3 {
            b.infer_with_deadline(vec![1, 4], seed, Duration::MAX)
                .unwrap();
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
        let untraced = server
            .infer_with_deadline(vec![0, 3, 6], 7, Duration::MAX)
            .unwrap();
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
        let response = server
            .infer_with_deadline(vec![], 0, Duration::MAX)
            .unwrap();
        for &t in &response.theta {
            assert!((t - 1.0 / 3.0).abs() < 1e-6);
        }
        server.shutdown();
    }

    #[test]
    fn drop_joins_workers() {
        let server = small_server(4);
        let _ = server
            .infer_with_deadline(vec![1, 4, 7], 3, Duration::MAX)
            .unwrap();
        drop(server); // must not hang or panic
    }
}
