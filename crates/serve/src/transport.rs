//! The transport seam between a [`ShardRouter`](crate::ShardRouter) and its
//! shards.
//!
//! PR 4's router assumed its shards were function calls away: it held
//! [`TopicServer`] handles and pushed jobs straight into their queues. The
//! [`ShardTransport`] trait re-cuts that seam so the router only speaks a
//! small protocol — submit a partial fold-in, fetch top-words rows, read
//! shard stats/health, observe the snapshot epoch, and stage/commit an
//! epoch publication — and *where* the shard lives becomes an
//! implementation detail:
//!
//! * [`LocalTransport`] wraps an in-process [`TopicServer`], preserving PR
//!   4's behaviour bit for bit (same queues, same seeds, same float
//!   sequences — the differential suite in `tests/sharded_serving.rs` runs
//!   unchanged against it).
//! * [`HttpTransport`] speaks the crate's existing HTTP/1.1 wire format
//!   (`POST /infer-partial`, `GET /shard-info`, `POST /publish-shard`,
//!   `POST /commit-epoch`; see [`crate::wire`]) to a shard process on
//!   another machine. Because the JSON codec round-trips `f64`s exactly,
//!   a remote EM fan-out reproduces the local one bit for bit, and the
//!   router's epoch-skew detection works identically: every partial
//!   response carries the snapshot version that produced it.
//!
//! Publication is where the two transports genuinely differ, so the trait
//! splits it into the two phases a fleet-wide all-or-nothing swap needs:
//! [`ShardTransport::prepare_publish`] stages an epoch-tagged snapshot
//! slice on every shard (local: a stash behind a mutex; remote: an upload),
//! and only when *every* stage succeeded does the router run the cheap
//! [`ShardTransport::commit_publish`] loop that actually swaps — keeping
//! the mixed-version window as tight as a single in-process Arc swap.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saber_core::model_io::{save_delta, DeltaPayload};
use saber_trace::TraceContext;

use crate::server::{
    finish_partial, JobKind, JobReply, JobTimings, PartialRequest, PartialResponse,
};
use crate::snapshot::{FoldInParams, InferenceSnapshot};
use crate::wire;
use crate::{ServeError, ServeStats, TopicServer};

/// A shard's self-description, as reported by [`ShardTransport::shard_info`]
/// (and served remotely as `GET /shard-info`). The router validates a fleet
/// against this before fanning anything out, and reads the embedded
/// [`ServeStats`] for its fleet-wide observability view.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// The snapshot version the shard currently serves.
    pub epoch: u64,
    /// Number of vocabulary words the shard holds (its local id space is
    /// `0..vocab_size`).
    pub vocab_size: usize,
    /// Topic count `K` — must agree across the fleet.
    pub n_topics: usize,
    /// Document–topic smoothing α — must agree across the fleet (it enters
    /// the router-side merge).
    pub alpha: f32,
    /// The global word-id range `[start, end)` the shard was configured to
    /// serve, when known; defaults to the local `[0, vocab_size)`.
    pub shard_range: (u32, u32),
    /// The fold-in parameters the shard applies to partial requests — must
    /// agree with the router's, or merged answers silently change meaning.
    pub fold_in: FoldInParams,
    /// The shard's serving counters, histogram included (lossless over the
    /// wire; see [`crate::wire::encode_shard_info`]).
    pub stats: ServeStats,
}

/// The outcome of a bounded [`PendingPartial::wait_until`] poll: either a
/// settled reply, or the still-pending handle so the caller can resume the
/// wait later. Handing the handle back (instead of erroring at the bound)
/// is what lets the router race two replicas of the same shard — the
/// mechanism behind hedged requests — and interleave deadline checks
/// without dedicating a thread per in-flight leg.
#[derive(Debug)]
pub enum PollOutcome<P> {
    /// The shard answered (or failed terminally) within the bound.
    Ready(Result<PartialResponse, ServeError>),
    /// No reply yet; resume with another `wait_until` or a final `wait`.
    Pending(P),
}

/// A submitted-but-not-yet-answered partial request; the other half of
/// [`ShardTransport::submit_partial`]. Splitting submission from the wait
/// is what lets the router land every shard's request before blocking on
/// any reply, so shards execute concurrently.
///
/// Dropping a pending handle cancels the wait: the shard's eventual reply
/// is discarded at the channel (both transports tolerate a vanished
/// receiver), which is how the router abandons the losing leg of a hedged
/// request.
pub trait PendingPartial {
    /// Awaits the shard's reply, honouring the request deadline the router
    /// passed at submission.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] past the deadline,
    /// [`ServeError::Closed`] when the shard (or its transport) has shut
    /// down, and transport- or shard-reported errors otherwise.
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError>;

    /// Waits until `until` at the latest. Unlike [`PendingPartial::wait`],
    /// reaching the bound is not an error: the handle comes back as
    /// [`PollOutcome::Pending`] so the caller can hedge, check its own
    /// deadline, or resume waiting. A bound already in the past still
    /// checks for an already-arrived reply before yielding the handle.
    fn wait_until(self, until: Instant) -> PollOutcome<Self>
    where
        Self: Sized;
}

/// How a [`ShardRouter`](crate::ShardRouter) reaches one shard.
///
/// Implementations must be usable from many router threads at once (the
/// router fans out concurrently), and every operation must report the
/// shard's snapshot version faithfully — the router's mixed-epoch
/// detection depends on it.
pub trait ShardTransport: Send + Sync + std::fmt::Debug {
    /// The in-flight handle [`ShardTransport::submit_partial`] returns.
    type Pending: PendingPartial;

    /// Submits one partial fold-in (ESCA chain or EM round) over
    /// shard-local word ids. With a deadline the submission must be
    /// fail-fast ([`ServeError::Overloaded`] instead of blocking on a full
    /// queue); without one it may block.
    ///
    /// `trace` is the router's distributed-tracing context for this
    /// fan-out; when enabled the shard answers with its span subtree in
    /// [`PartialResponse::spans`] (remote transports forward the context as
    /// the `X-Saber-Trace` header). Pass
    /// [`TraceContext::disabled()`] for untraced requests — tracing must
    /// never change the bytes of an answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] on fail-fast admission, transport errors
    /// for unreachable shards, [`ServeError::Closed`] after shutdown.
    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError>;

    /// The `n` highest-probability words of topic `k`, in *shard-local* ids
    /// (the router re-bases them to global ids).
    ///
    /// # Errors
    ///
    /// Transport errors, or the shard's own rejection of `k`.
    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError>;

    /// The shard's self-description and full serving counters.
    ///
    /// # Errors
    ///
    /// Transport errors for unreachable shards.
    fn shard_info(&self) -> Result<ShardInfo, ServeError>;

    /// The snapshot version the shard currently serves — the cheap epoch
    /// probe (`GET /healthz` remotely; an atomic load locally).
    ///
    /// # Errors
    ///
    /// Transport errors for unreachable shards.
    fn observe_epoch(&self) -> Result<u64, ServeError>;

    /// Stages `slice` as the shard's next snapshot, tagged with the fleet
    /// epoch it will serve as. Staging does **not** change what the shard
    /// serves; the router stages every shard before committing any, so a
    /// failure here aborts the publication with the old epoch intact
    /// everywhere.
    ///
    /// # Errors
    ///
    /// Transport errors, or shard-side rejection (shape mismatch, epoch
    /// not ahead of the current one).
    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError>;

    /// Stages an incremental publication: a `SABRDELTA` of the rows that
    /// changed between `delta.base_version` (what the shard should be
    /// serving) and `delta.target_version` (the epoch being staged).
    /// Returns `Ok(true)` when the shard applied and staged the patched
    /// snapshot, and `Ok(false)` when it *declined* — its served version
    /// does not match the delta's base, or the transport/shard predates
    /// delta support — in which case the caller falls back to a full
    /// [`ShardTransport::prepare_publish`] of the same epoch. Both paths
    /// stage bit-identical snapshots, so the fallback is invisible to
    /// correctness.
    ///
    /// The default declines, so third-party transports stay correct
    /// without opting in.
    ///
    /// # Errors
    ///
    /// Transport errors, or shard-side rejection of a *malformed* delta
    /// (shape mismatch, bad encoding) — distinct from the clean
    /// `Ok(false)` decline.
    fn prepare_publish_delta(&self, delta: &DeltaPayload) -> Result<bool, ServeError> {
        let _ = delta;
        Ok(false)
    }

    /// Commits the staged snapshot: the shard swaps to `epoch` and serves
    /// it from its next batch. Idempotent when the shard already serves
    /// `epoch` (a retried commit must not fail the publication).
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServeError::InvalidConfig`] when nothing is
    /// staged for `epoch`.
    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError>;
}

/// The staged-epoch slot shared by [`LocalTransport`] and the HTTP shard
/// endpoints, so the subtle commit rule lives in exactly one place:
/// staging replaces any previous stage (the router serialises
/// publications, so a leftover stage is an aborted one); a commit is
/// idempotent for the epoch already served and consumes the stage only
/// when it matches — in particular, a stale duplicate commit must never
/// discard a snapshot staged for a newer epoch.
#[derive(Debug, Default)]
pub(crate) struct StagedEpoch(Mutex<Option<(u64, InferenceSnapshot)>>);

/// What a commit request should do, per the rule in [`StagedEpoch`].
pub(crate) enum CommitAction {
    /// The shard already serves this epoch; acknowledge without touching
    /// anything (including any newer staged snapshot).
    AlreadyServed,
    /// Publish this snapshot at the committed epoch.
    Publish(InferenceSnapshot),
    /// Nothing is staged for this epoch.
    Missing,
}

impl StagedEpoch {
    pub(crate) fn stage(&self, epoch: u64, snapshot: InferenceSnapshot) {
        // Both critical sections replace or take the whole Option, so a
        // poisoned lock never exposes a torn value — recover from poison.
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some((epoch, snapshot));
    }

    pub(crate) fn take_for_commit(&self, epoch: u64, served_epoch: u64) -> CommitAction {
        if served_epoch == epoch {
            return CommitAction::AlreadyServed;
        }
        let mut staged = self.0.lock().unwrap_or_else(|e| e.into_inner());
        match staged.take_if(|(staged_epoch, _)| *staged_epoch == epoch) {
            Some((_, snapshot)) => CommitAction::Publish(snapshot),
            None => CommitAction::Missing,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-replica circuit breaker.
// ---------------------------------------------------------------------------

/// Breaker state: traffic flows normally.
const STATE_CLOSED: u8 = 0;
/// Breaker state: the replica is ejected from routing until its cooldown
/// elapses (then a single probe may half-open it).
const STATE_OPEN: u8 = 1;
/// Breaker state: one probe request is in flight; its outcome closes or
/// re-opens the breaker.
const STATE_HALF_OPEN: u8 = 2;

/// Replica-set tuning for a [`ShardRouter`](crate::ShardRouter): how its
/// per-replica circuit breakers trip and recover, and whether fan-out legs
/// are hedged. The default — no hedging, trip after 3 consecutive
/// transport failures, probe again after 1 s — leaves a single-replica
/// fleet behaving exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Hedge a fan-out leg by submitting to a second replica after this
    /// long without a reply (derive it from the leg's p99; see
    /// `docs/SERVING.md`). `None` disables hedging. Hedging is inert on
    /// single-replica sets.
    pub hedge_delay: Option<Duration>,
    /// Consecutive transport failures that trip a replica's breaker.
    pub failure_threshold: u32,
    /// How long a tripped replica sits out before a single request (or
    /// health probe) may half-open the breaker.
    pub cooldown: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            hedge_delay: None,
            failure_threshold: 3,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// One replica's circuit breaker: consecutive transport failures trip it
/// `STATE_CLOSED` → `STATE_OPEN`; after the cooldown a single request
/// half-opens it (`STATE_HALF_OPEN`) as the probe whose outcome closes
/// or re-trips it. Success from *any* path (traffic, a health probe via
/// the `/healthz` seam) re-admits immediately.
///
/// All state is atomics — no locks — so breaker checks on the fan-out hot
/// path never contend, and every transition bumps a counter (trips,
/// re-admissions, probes) surfaced through `/stats` and `/metrics`; the
/// `breaker-instrumentation` lint rule enforces the latter.
#[derive(Debug)]
pub struct ReplicaBreaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// When the breaker last opened, in µs since `birth` (an `Instant`
    /// cannot live in an atomic).
    opened_at_us: AtomicU64,
    birth: Instant,
    threshold: u32,
    cooldown: Duration,
    trips: AtomicU64,
    readmits: AtomicU64,
    probes: AtomicU64,
}

impl ReplicaBreaker {
    /// A closed breaker with the given trip threshold and cooldown.
    pub fn new(config: &ReplicaConfig) -> Self {
        ReplicaBreaker {
            state: AtomicU8::new(STATE_CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_us: AtomicU64::new(0),
            birth: Instant::now(),
            threshold: config.failure_threshold.max(1),
            cooldown: config.cooldown,
            trips: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// Whether routing currently admits this replica: closed or half-open,
    /// or open with the cooldown elapsed — in which case the breaker
    /// transitions to half-open and this call admits the probe request.
    pub fn admit(&self) -> bool {
        if self.state.load(Ordering::Acquire) != STATE_OPEN {
            return true;
        }
        let opened = Duration::from_micros(self.opened_at_us.load(Ordering::Acquire));
        if self.birth.elapsed().saturating_sub(opened) < self.cooldown {
            return false;
        }
        let probing = self
            .state
            .compare_exchange(
                STATE_OPEN,
                STATE_HALF_OPEN,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if probing {
            self.probes.fetch_add(1, Ordering::Relaxed);
        }
        // Losing the race means another request became the probe; it is
        // already on its way, so this one stays away until its outcome.
        probing
    }

    /// Whether the breaker is not open (ignoring cooldown) — the
    /// admission flag reported in stats, with no side effects.
    pub fn is_admitted(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_OPEN
    }

    /// Records a successful exchange with the replica: resets the failure
    /// run and closes the breaker, counting a re-admission when it was
    /// open or half-open.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if self.state.swap(STATE_CLOSED, Ordering::AcqRel) != STATE_CLOSED {
            self.readmits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a transport failure against the replica; trips the breaker
    /// once the consecutive-failure run reaches the threshold (a half-open
    /// probe failure re-trips immediately).
    pub fn record_failure(&self) {
        let run = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let was = self.state.load(Ordering::Acquire);
        let trip = run >= self.threshold || was == STATE_HALF_OPEN;
        if trip && was != STATE_OPEN {
            self.opened_at_us
                .store(self.birth.elapsed().as_micros() as u64, Ordering::Release);
            if self.state.swap(STATE_OPEN, Ordering::AcqRel) != STATE_OPEN {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
        } else if trip {
            // Already open: refresh the cooldown clock so a dead replica
            // is probed once per cooldown, not hammered.
            self.opened_at_us
                .store(self.birth.elapsed().as_micros() as u64, Ordering::Release);
        }
    }

    /// Lifetime trip count.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Lifetime re-admission count (open/half-open → closed).
    pub fn readmits(&self) -> u64 {
        self.readmits.load(Ordering::Relaxed)
    }

    /// Lifetime half-open probe count.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Local transport: in-process TopicServer, PR 4 behaviour bit for bit.
// ---------------------------------------------------------------------------

/// [`ShardTransport`] over an in-process [`TopicServer`] — the fan-out path
/// PR 4 hard-wired, now behind the trait. Submission pushes into the
/// server's bounded queue exactly as before, so sharded answers remain
/// bit-identical to the pre-trait router.
#[derive(Debug)]
pub struct LocalTransport {
    server: TopicServer,
    /// The global word-id range this shard serves, when the builder knows
    /// it (the router's own fleets always do).
    range: Option<Range<u32>>,
    /// The epoch-tagged snapshot staged by [`ShardTransport::prepare_publish`],
    /// waiting for its commit.
    staged: StagedEpoch,
}

impl LocalTransport {
    /// Wraps `server` as a shard transport.
    pub fn new(server: TopicServer) -> Self {
        LocalTransport {
            server,
            range: None,
            staged: StagedEpoch::default(),
        }
    }

    /// Wraps `server` and records the global word-id range it serves
    /// (reported through [`ShardInfo::shard_range`]).
    pub fn with_range(server: TopicServer, range: Range<u32>) -> Self {
        LocalTransport {
            server,
            range: Some(range),
            staged: StagedEpoch::default(),
        }
    }

    /// The wrapped server.
    pub fn server(&self) -> &TopicServer {
        &self.server
    }
}

/// The pending handle of a [`LocalTransport`] submission: the reply channel
/// of the job sitting in the server's queue, plus the timings cell the
/// worker fills for traced requests.
#[derive(Debug)]
pub struct LocalPending {
    rx: Receiver<JobReply>,
    timings: Option<Arc<JobTimings>>,
}

impl PendingPartial for LocalPending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        let remaining = match deadline {
            None => None,
            Some(at) => Some(
                at.checked_duration_since(Instant::now())
                    .ok_or(ServeError::DeadlineExceeded)?,
            ),
        };
        let reply = TopicServer::await_reply(&self.rx, remaining)?;
        finish_partial(reply, self.timings.as_deref())
    }

    fn wait_until(self, until: Instant) -> PollOutcome<LocalPending> {
        // A zero-duration recv_timeout still drains an already-arrived
        // reply, so a bound in the past degrades to a non-blocking poll.
        let bound = until.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(bound) {
            Ok(reply) => PollOutcome::Ready(finish_partial(reply, self.timings.as_deref())),
            Err(RecvTimeoutError::Timeout) => PollOutcome::Pending(self),
            Err(RecvTimeoutError::Disconnected) => PollOutcome::Ready(Err(ServeError::Closed)),
        }
    }
}

impl ShardTransport for LocalTransport {
    type Pending = LocalPending;

    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<LocalPending, ServeError> {
        let (rx, timings) =
            self.server
                .submit(words, JobKind::Partial(request), deadline.is_some(), trace)?;
        Ok(LocalPending { rx, timings })
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        let snapshot = self.server.snapshot();
        if k >= snapshot.n_topics() {
            return Err(ServeError::BadRequest {
                detail: format!("topic {k} out of range (K = {})", snapshot.n_topics()),
            });
        }
        Ok(snapshot.top_words(k, n))
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        let snapshot = self.server.snapshot();
        let vocab_size = snapshot.vocab_size();
        let shard_range = match &self.range {
            Some(range) => (range.start, range.end),
            None => (0, vocab_size as u32),
        };
        Ok(ShardInfo {
            epoch: snapshot.version(),
            vocab_size,
            n_topics: snapshot.n_topics(),
            alpha: snapshot.alpha(),
            shard_range,
            fold_in: self.server.config().fold_in,
            stats: self.server.stats(),
        })
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        Ok(self.server.snapshot_version())
    }

    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError> {
        self.staged.stage(epoch, slice);
        Ok(())
    }

    fn prepare_publish_delta(&self, delta: &DeltaPayload) -> Result<bool, ServeError> {
        if self.server.snapshot_version() != delta.base_version {
            return Ok(false);
        }
        let patched =
            self.server
                .snapshot()
                .apply_delta(delta)
                .map_err(|e| ServeError::InvalidConfig {
                    detail: format!("delta does not apply to the served snapshot: {e}"),
                })?;
        self.staged.stage(delta.target_version, patched);
        Ok(true)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        match self
            .staged
            .take_for_commit(epoch, self.server.snapshot_version())
        {
            CommitAction::AlreadyServed => Ok(epoch),
            CommitAction::Publish(slice) => self.server.publish_at(slice, epoch),
            CommitAction::Missing => Err(ServeError::InvalidConfig {
                detail: format!("no staged snapshot for epoch {epoch}"),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP transport: a shard process on the other end of a TCP connection.
// ---------------------------------------------------------------------------

/// Tuning knobs of an [`HttpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpTransportConfig {
    /// Persistent keep-alive connections to the shard (each owned by one
    /// sender thread); bounds the transport's request concurrency.
    pub connections: usize,
    /// Budget for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per I/O operation; a shard that stops
    /// responding mid-exchange surfaces as a transport error after this
    /// long instead of hanging a router thread.
    pub io_timeout: Duration,
    /// Capacity of the transport's job queue. Deadline-bounded submissions
    /// fail fast with [`ServeError::Overloaded`] when it is full, exactly
    /// like a local server's bounded queue.
    pub queue_depth: usize,
    /// How long control calls (`shard_info`, `top_words`, epoch probes,
    /// commits) wait for their reply before giving up.
    pub control_wait: Duration,
    /// How long a staged-snapshot upload may take; snapshots are the
    /// largest messages on this protocol.
    pub publish_wait: Duration,
}

impl Default for HttpTransportConfig {
    fn default() -> Self {
        HttpTransportConfig {
            connections: 4,
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            queue_depth: 128,
            control_wait: Duration::from_secs(5),
            publish_wait: Duration::from_secs(30),
        }
    }
}

/// Largest HTTP response body the client accepts (a defensive bound; real
/// responses are a few KB).
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// The outcome of one raw HTTP exchange: status + body, or the transport
/// error that prevented it.
type HttpOutcome = Result<(u16, Vec<u8>), ServeError>;

struct HttpJob {
    request: Vec<u8>,
    reply: SyncSender<HttpOutcome>,
}

/// [`ShardTransport`] over the crate's own HTTP/1.1 wire format — the
/// remote half of cross-machine sharding. A small pool of sender threads
/// holds persistent connections to the shard process; requests are
/// serialised by [`crate::wire`] codecs whose `f64` round trip is exact,
/// so remote merges match local ones bit for bit.
///
/// The shard on the other end is any [`crate::HttpServer`] fronting a
/// [`TopicServer`] — typically one started by the `saber_shardd` example
/// or your own process that loads an [`InferenceSnapshot`] from disk.
pub struct HttpTransport {
    addr: SocketAddr,
    queue: Option<SyncSender<HttpJob>>,
    senders: Vec<JoinHandle<()>>,
    config: HttpTransportConfig,
}

impl std::fmt::Debug for HttpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpTransport")
            .field("addr", &self.addr)
            .field("connections", &self.config.connections)
            .finish()
    }
}

impl HttpTransport {
    /// Creates a transport to the shard at `addr` with default tuning.
    /// Connections are established lazily (and re-established after
    /// errors), so this does not require the shard to be up yet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `addr` does not resolve.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        HttpTransport::connect_with(addr, HttpTransportConfig::default())
    }

    /// [`HttpTransport::connect`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `addr` does not resolve
    /// or `config.connections`/`queue_depth` is zero.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: HttpTransportConfig,
    ) -> Result<Self, ServeError> {
        if config.connections == 0 || config.queue_depth == 0 {
            return Err(ServeError::InvalidConfig {
                detail: "transport connections and queue_depth must be at least 1".into(),
            });
        }
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::InvalidConfig {
                detail: format!("shard address does not resolve: {e}"),
            })?
            .next()
            .ok_or_else(|| ServeError::InvalidConfig {
                detail: "shard address resolves to nothing".into(),
            })?;
        let (tx, rx) = sync_channel::<HttpJob>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let senders = (0..config.connections)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("saber-shard-tx-{i}"))
                    .spawn(move || sender_loop(&rx, addr, config))
                    .map_err(|e| ServeError::Internal {
                        detail: format!("failed to spawn shard transport sender: {e}"),
                    })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(HttpTransport {
            addr,
            queue: Some(tx),
            senders,
            config,
        })
    }

    /// The resolved shard address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Builds one HTTP/1.1 request as bytes (keep-alive implied). An
    /// enabled `trace` context rides along as the `X-Saber-Trace` header
    /// (`<trace-id>-<parent-span-id>`, both 16 hex digits), which is how a
    /// trace crosses the machine boundary to a shard process.
    fn request_bytes(
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
        epoch: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Vec<u8> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: shard\r\nContent-Length: {}\r\n",
            body.len()
        );
        if !body.is_empty() {
            head.push_str(&format!("Content-Type: {content_type}\r\n"));
        }
        if let Some(epoch) = epoch {
            head.push_str(&format!("X-Saber-Epoch: {epoch}\r\n"));
        }
        if let Some(value) = trace.and_then(TraceContext::header_value) {
            head.push_str(&format!("X-Saber-Trace: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        request
    }

    /// Enqueues a request without waiting (the fan-out path).
    fn enqueue(
        &self,
        request: Vec<u8>,
        fail_fast: bool,
    ) -> Result<Receiver<HttpOutcome>, ServeError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = HttpJob {
            request,
            reply: reply_tx,
        };
        let queue = self.queue.as_ref().ok_or(ServeError::Closed)?;
        if fail_fast {
            match queue.try_send(job) {
                Ok(()) => Ok(reply_rx),
                Err(TrySendError::Full(_)) => Err(ServeError::Overloaded),
                Err(TrySendError::Disconnected(_)) => Err(ServeError::Closed),
            }
        } else {
            queue.send(job).map_err(|_| ServeError::Closed)?;
            Ok(reply_rx)
        }
    }

    /// Round-trips one request synchronously with a bounded wait (the
    /// control path: info, stats, publication).
    fn call(&self, request: Vec<u8>, wait: Duration) -> Result<(u16, Vec<u8>), ServeError> {
        let rx = self.enqueue(request, false)?;
        match rx.recv_timeout(wait) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }
}

impl Drop for HttpTransport {
    fn drop(&mut self) {
        self.queue = None;
        for sender in self.senders.drain(..) {
            let _ = sender.join();
        }
    }
}

/// The pending handle of an [`HttpTransport`] submission.
#[derive(Debug)]
pub struct HttpPending(Receiver<HttpOutcome>);

impl PendingPartial for HttpPending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        let outcome = match deadline {
            None => self.0.recv().map_err(|_| ServeError::Closed)?,
            Some(at) => {
                let remaining = at
                    .checked_duration_since(Instant::now())
                    .ok_or(ServeError::DeadlineExceeded)?;
                self.0.recv_timeout(remaining).map_err(|e| match e {
                    RecvTimeoutError::Timeout => ServeError::DeadlineExceeded,
                    RecvTimeoutError::Disconnected => ServeError::Closed,
                })?
            }
        };
        let (status, body) = outcome?;
        decode_body(status, &body, wire::decode_partial_response)
    }

    fn wait_until(self, until: Instant) -> PollOutcome<HttpPending> {
        let bound = until.saturating_duration_since(Instant::now());
        match self.0.recv_timeout(bound) {
            Ok(outcome) => PollOutcome::Ready(outcome.and_then(|(status, body)| {
                decode_body(status, &body, wire::decode_partial_response)
            })),
            Err(RecvTimeoutError::Timeout) => PollOutcome::Pending(self),
            Err(RecvTimeoutError::Disconnected) => PollOutcome::Ready(Err(ServeError::Closed)),
        }
    }
}

/// Parses a 200 body with `decode`, or maps the shard's error status onto
/// the [`ServeError`] it encodes.
fn decode_body<T>(
    status: u16,
    body: &[u8],
    decode: impl FnOnce(&str) -> Result<T, wire::WireError>,
) -> Result<T, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::transport("shard response is not valid UTF-8"))?;
    if status == 200 {
        decode(text).map_err(|e| ServeError::transport(format!("malformed shard response: {e}")))
    } else {
        Err(wire::decode_serve_error(status, text))
    }
}

impl ShardTransport for HttpTransport {
    type Pending = HttpPending;

    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<HttpPending, ServeError> {
        let body = wire::encode_partial_request(&words, &request).to_string();
        let request = Self::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            body.as_bytes(),
            None,
            Some(&trace),
        );
        Ok(HttpPending(self.enqueue(request, deadline.is_some())?))
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        let request = Self::request_bytes(
            "GET",
            &format!("/top-words?topic={k}&n={n}"),
            "application/json",
            &[],
            None,
            None,
        );
        let (status, body) = self.call(request, self.config.control_wait)?;
        decode_body(status, &body, wire::decode_top_words)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        let request =
            Self::request_bytes("GET", "/shard-info", "application/json", &[], None, None);
        let (status, body) = self.call(request, self.config.control_wait)?;
        decode_body(status, &body, wire::decode_shard_info)
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        let request = Self::request_bytes("GET", "/healthz", "application/json", &[], None, None);
        let (status, body) = self.call(request, self.config.control_wait)?;
        decode_body(status, &body, wire::decode_healthz_version)
    }

    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError> {
        let mut body = Vec::new();
        slice.save(&mut body).map_err(|e| {
            ServeError::transport(format!("failed to serialise snapshot slice: {e}"))
        })?;
        let request = Self::request_bytes(
            "POST",
            "/publish-shard",
            "application/octet-stream",
            &body,
            Some(epoch),
            None,
        );
        let (status, body) = self.call(request, self.config.publish_wait)?;
        decode_body(status, &body, |_| Ok(()))
    }

    fn prepare_publish_delta(&self, delta: &DeltaPayload) -> Result<bool, ServeError> {
        let mut body = Vec::new();
        save_delta(delta, &mut body).map_err(|e| {
            ServeError::transport(format!("failed to serialise snapshot delta: {e}"))
        })?;
        let request = Self::request_bytes(
            "POST",
            "/publish-delta",
            "application/octet-stream",
            &body,
            Some(delta.target_version),
            None,
        );
        let (status, body) = self.call(request, self.config.publish_wait)?;
        if status == 409 {
            // The shard declined — its served version is not the delta's
            // base (or the target is behind). Not an error: the caller
            // falls back to a full publication of the same epoch.
            return Ok(false);
        }
        decode_body(status, &body, |_| Ok(()))?;
        Ok(true)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        let body = format!("{{\"epoch\":{epoch}}}");
        // The epoch also rides the X-Saber-Epoch header so the shard can
        // verify the commit names the epoch it actually has staged.
        let request = Self::request_bytes(
            "POST",
            "/commit-epoch",
            "application/json",
            body.as_bytes(),
            Some(epoch),
            None,
        );
        let (status, body) = self.call(request, self.config.control_wait)?;
        decode_body(status, &body, wire::decode_healthz_version)?;
        Ok(epoch)
    }
}

/// One sender thread: owns (at most) one keep-alive connection, drains the
/// shared job queue, and reconnects on I/O failure — retrying the in-hand
/// request once on a fresh connection, since every message on this
/// protocol is safe to replay (partials are pure computation, staging and
/// commits are idempotent).
fn sender_loop(rx: &Mutex<Receiver<HttpJob>>, addr: SocketAddr, config: HttpTransportConfig) {
    let mut connection: Option<BufReader<TcpStream>> = None;
    loop {
        let job = {
            // Sender threads never panic holding this lock; recover from
            // poison rather than wedging every remaining sender.
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        let mut result = exchange(&mut connection, addr, &config, &job.request);
        if result.is_err() {
            // The keep-alive connection may simply have been closed by the
            // shard between requests; one fresh-connection retry
            // distinguishes that from a shard that is actually down.
            connection = None;
            result = exchange(&mut connection, addr, &config, &job.request);
            if result.is_err() {
                connection = None;
            }
        }
        // A send fails only when the requester stopped waiting; fine.
        let _ = job.reply.send(result);
    }
}

/// Writes one request and reads one response over the (re)used connection.
fn exchange(
    connection: &mut Option<BufReader<TcpStream>>,
    addr: SocketAddr,
    config: &HttpTransportConfig,
    request: &[u8],
) -> Result<(u16, Vec<u8>), ServeError> {
    // Every I/O failure names the peer it happened against, so a router's
    // 502 can attribute the fan-out leg that broke.
    let transport_err = |detail: String| ServeError::Transport {
        detail,
        shard: None,
        addr: Some(addr.to_string()),
    };
    let reader = match connection {
        Some(reader) => reader,
        None => {
            let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)
                .map_err(|e| transport_err(format!("cannot connect to shard: {e}")))?;
            let _ = stream.set_read_timeout(Some(config.io_timeout));
            let _ = stream.set_write_timeout(Some(config.io_timeout));
            let _ = stream.set_nodelay(true);
            connection.insert(BufReader::new(stream))
        }
    };
    reader
        .get_mut()
        .write_all(request)
        .and_then(|_| reader.get_mut().flush())
        .map_err(|e| transport_err(format!("write to shard failed: {e}")))?;
    read_response(reader).map_err(|e| transport_err(format!("read from shard failed: {e}")))
}

/// Reads one `Content-Length`-framed HTTP/1.1 response.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    use std::io::{Error, ErrorKind};
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "EOF in headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Error::new(ErrorKind::InvalidData, "bad content-length"))?;
            }
        }
    }
    if content_length > MAX_RESPONSE_BYTES {
        return Err(Error::new(ErrorKind::InvalidData, "response too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::planted_model;
    use crate::snapshot::SnapshotSampler;
    use crate::ServeConfig;

    fn transport() -> LocalTransport {
        let server =
            TopicServer::from_model(&planted_model(12, 3), ServeConfig::default()).unwrap();
        LocalTransport::with_range(server, 0..12)
    }

    #[test]
    fn local_transport_reports_shard_info() {
        let transport = transport();
        let info = transport.shard_info().unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.vocab_size, 12);
        assert_eq!(info.n_topics, 3);
        assert_eq!(info.shard_range, (0, 12));
        assert_eq!(info.fold_in, ServeConfig::default().fold_in);
        assert_eq!(info.stats.requests, 0);
        assert_eq!(transport.observe_epoch().unwrap(), 1);
    }

    #[test]
    fn local_submit_and_wait_round_trip() {
        let transport = transport();
        let pending = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap();
        let response = pending.wait(None).unwrap();
        assert_eq!(response.snapshot_version, 1);
        assert_eq!(response.partial.n_words, 3);
        assert!(
            response.spans.is_empty(),
            "untraced requests carry no spans"
        );
    }

    #[test]
    fn local_traced_submission_yields_the_shard_span_subtree() {
        let transport = transport();
        let id = saber_trace::TraceId::mint();
        let pending = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::root(id),
            )
            .unwrap();
        let traced = pending.wait(None).unwrap();
        assert_eq!(traced.spans.len(), 3);
        assert_eq!(traced.spans[0].name, "infer-partial");
        assert_eq!(traced.spans[0].parent, None);
        // Tracing must not perturb the computation itself.
        let untraced = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap()
            .wait(None)
            .unwrap();
        assert_eq!(traced.partial, untraced.partial);
    }

    #[test]
    fn request_bytes_carry_the_trace_header_only_when_enabled() {
        let id = saber_trace::TraceId::from_raw(0xABCD).unwrap();
        let ctx = TraceContext::child(id, 7);
        let with = HttpTransport::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            b"{}",
            None,
            Some(&ctx),
        );
        let text = String::from_utf8(with).unwrap();
        assert!(
            text.contains("X-Saber-Trace: 000000000000abcd-0000000000000007\r\n"),
            "request was: {text}"
        );
        let without = HttpTransport::request_bytes(
            "POST",
            "/infer-partial",
            "application/json",
            b"{}",
            None,
            Some(&TraceContext::disabled()),
        );
        assert!(!String::from_utf8(without)
            .unwrap()
            .contains("X-Saber-Trace"));
    }

    #[test]
    fn local_prepare_commit_swaps_on_commit_only() {
        let transport = transport();
        let slice = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        transport.prepare_publish(slice, 2).unwrap();
        assert_eq!(
            transport.observe_epoch().unwrap(),
            1,
            "staging must not swap"
        );
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        assert_eq!(transport.observe_epoch().unwrap(), 2);
        // Re-committing the served epoch is idempotent…
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        // …but committing an epoch that was never staged fails.
        assert!(matches!(
            transport.commit_publish(5),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A delayed duplicate commit of the served epoch must NOT consume
        // a snapshot already staged for the next one.
        let next = InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        transport.prepare_publish(next, 3).unwrap();
        assert_eq!(transport.commit_publish(2).unwrap(), 2, "stale duplicate");
        assert_eq!(
            transport.commit_publish(3).unwrap(),
            3,
            "the staged epoch-3 snapshot must survive the stale commit"
        );
        assert_eq!(transport.observe_epoch().unwrap(), 3);
    }

    #[test]
    fn local_delta_staging_applies_over_a_matching_base_and_declines_otherwise() {
        let transport = transport();
        let mut model = planted_model(12, 3);
        model.word_topic_mut()[(4, 1)] += 6;
        model.refresh_probabilities();
        let next = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let changed: Vec<u32> = (0..12).collect();
        // Base 1 matches the freshly-started server's version.
        let delta = next.shard_delta(0..12, &changed, 1, 2);
        assert!(transport.prepare_publish_delta(&delta).unwrap());
        assert_eq!(
            transport.observe_epoch().unwrap(),
            1,
            "staging must not swap"
        );
        assert_eq!(transport.commit_publish(2).unwrap(), 2);
        assert_eq!(transport.observe_epoch().unwrap(), 2);
        // The patched snapshot serves the new model's bits.
        let info = transport.shard_info().unwrap();
        assert_eq!(info.epoch, 2);
        // A delta whose base is no longer served is declined, not applied.
        let stale = next.shard_delta(0..12, &changed, 1, 3);
        assert!(!transport.prepare_publish_delta(&stale).unwrap());
        // A delta with the wrong shape is a hard error.
        let misshapen =
            InferenceSnapshot::from_model(&planted_model(6, 3), SnapshotSampler::WaryTree)
                .shard_delta(0..6, &[0, 2], 2, 3);
        assert!(transport.prepare_publish_delta(&misshapen).is_err());
    }

    #[test]
    fn commit_request_carries_the_epoch_header() {
        let request = HttpTransport::request_bytes(
            "POST",
            "/commit-epoch",
            "application/json",
            b"{\"epoch\":7}",
            Some(7),
            None,
        );
        let text = String::from_utf8(request).unwrap();
        assert!(text.contains("X-Saber-Epoch: 7\r\n"), "request was: {text}");
    }

    #[test]
    fn breaker_trips_after_threshold_and_readmits_on_success() {
        let config = ReplicaConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(0),
            ..ReplicaConfig::default()
        };
        let breaker = ReplicaBreaker::new(&config);
        assert!(breaker.admit() && breaker.is_admitted());
        breaker.record_failure();
        breaker.record_failure();
        assert!(breaker.is_admitted(), "below threshold");
        breaker.record_failure();
        assert!(!breaker.is_admitted());
        assert_eq!(breaker.trips(), 1);
        // Zero cooldown: the next admission is the half-open probe.
        assert!(breaker.admit());
        assert_eq!(breaker.probes(), 1);
        // A failed probe re-trips immediately…
        breaker.record_failure();
        assert!(!breaker.is_admitted());
        assert_eq!(breaker.trips(), 2);
        // …and a successful one re-admits.
        assert!(breaker.admit());
        breaker.record_success();
        assert!(breaker.is_admitted());
        assert_eq!(breaker.readmits(), 1);
    }

    #[test]
    fn open_breaker_rejects_until_cooldown() {
        let config = ReplicaConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
            ..ReplicaConfig::default()
        };
        let breaker = ReplicaBreaker::new(&config);
        breaker.record_failure();
        assert!(!breaker.is_admitted());
        assert!(!breaker.admit(), "cooldown is far in the future");
        assert_eq!(breaker.probes(), 0);
    }

    #[test]
    fn wait_until_hands_the_pending_handle_back() {
        let transport = transport();
        let mut pending = transport
            .submit_partial(
                vec![0, 3, 6],
                PartialRequest::FoldIn { seed: 4 },
                None,
                TraceContext::disabled(),
            )
            .unwrap();
        let give_up = Instant::now() + Duration::from_secs(5);
        let response = loop {
            match pending.wait_until(Instant::now() + Duration::from_millis(1)) {
                PollOutcome::Ready(r) => break r.unwrap(),
                PollOutcome::Pending(p) => {
                    assert!(Instant::now() < give_up, "shard never answered");
                    pending = p;
                }
            }
        };
        assert_eq!(response.partial.n_words, 3);
        assert_eq!(response.snapshot_version, 1);
    }

    #[test]
    fn http_transport_rejects_unresolvable_addresses() {
        assert!(matches!(
            HttpTransport::connect("definitely-not-a-host.invalid:80"),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            HttpTransport::connect_with(
                "127.0.0.1:1",
                HttpTransportConfig {
                    connections: 0,
                    ..HttpTransportConfig::default()
                }
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn http_transport_surfaces_unreachable_shards_as_transport_errors() {
        // Port 1 on loopback is essentially never listening; the control
        // call must fail with a transport error, not hang.
        let transport = HttpTransport::connect_with(
            "127.0.0.1:1",
            HttpTransportConfig {
                connections: 1,
                connect_timeout: Duration::from_millis(200),
                control_wait: Duration::from_secs(2),
                ..HttpTransportConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            transport.observe_epoch(),
            Err(ServeError::Transport { .. })
        ));
    }
}
