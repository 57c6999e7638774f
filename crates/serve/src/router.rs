//! The merging router in front of a vocabulary-sharded server fleet.
//!
//! A model whose [`InferenceSnapshot`] exceeds one worker pool's memory
//! budget is split by a [`ShardPlan`] into contiguous word-id ranges, each
//! served by its own shard. [`ShardRouter`] owns the fleet and makes it
//! look like a single server — and since PR 5 it is **generic over how it
//! reaches its shards**: every shard sits behind a
//! [`ShardTransport`], so the same router code fans out over in-process
//! [`TopicServer`]s ([`LocalTransport`], the default) or over shard
//! *processes* on other machines ([`HttpTransport`](crate::HttpTransport)
//! speaking the crate's HTTP wire format).
//!
//! * **Fan-out / merge** — an incoming document's word ids are split by
//!   shard ([`ShardPlan::split`]), each shard computes its words' partial
//!   sufficient statistics ([`ShardTransport::submit_partial`]), and the
//!   router merges them into one θ. Under [`FoldInKind::Em`] the merge is
//!   *exact*: each EM iteration's count vector is a sum over words, so the
//!   router synchronises θ once per iteration and reproduces unsharded
//!   inference to floating-point summation order (the differential suite
//!   pins this at 1e-5 L∞; a single shard is bit-identical — and because
//!   the wire codec round-trips `f64` exactly, a remote fleet reproduces a
//!   local one bit for bit). Under [`FoldInKind::Esca`] each shard runs an
//!   independent Gibbs chain seeded by [`derive_shard_seed`] — one round
//!   trip instead of one per iteration, at the cost of approximating
//!   cross-shard coupling.
//! * **Epoch publication** (`router/publish.rs`) — [`ShardRouter::publish`]
//!   moves the fleet from epoch `e` to `e + 1` all or nothing: every shard
//!   first *stages* its slice ([`TopicServer::stage`], in process or across
//!   the network), and only when every stage succeeded does the cheap
//!   commit loop swap them. A failed publication is not resumed; the next
//!   one restarts every shard past the highest epoch served.
//! * **Epoch-pinned reads** — a request reads the router's epoch once and
//!   names it on every leg of every round (`X-Saber-Epoch` on the wire).
//!   Each shard answers from the live snapshot or the one its last commit
//!   replaced ([`SnapshotCell::load_at`](crate::SnapshotCell::load_at)),
//!   kept until its next stage, and a publication stages only once the
//!   router's reads in flight have finished. So no *answer* mixes epochs,
//!   a read that straddles a commit needs no retry, and a fleet
//!   half-committed by a failed publication keeps serving the old epoch. A
//!   replica holding neither refuses with [`ServeError::ShardVersionSkew`];
//!   the leg fails over to a sibling replica once, and a request still
//!   refused fails and re-pins the router to the fleet's epoch.
//! * **Determinism** — per-shard seeds derive from the request seed, so
//!   equal requests against an equal epoch replay bit-identically, exactly
//!   as on a single [`TopicServer`] — whichever transport carries them.
//! * **Replication & self-healing** — since PR 9 a plan range can be
//!   served by a [`ReplicaSet`] of ≥ 2 transports holding identical
//!   snapshot slices. Each replica has a
//!   [`ReplicaBreaker`]: consecutive transport
//!   failures eject it from routing, a cooldown later a single request (or
//!   a [`ShardRouter::fleet_health`] probe over the `/healthz` seam)
//!   half-opens the breaker, and any success re-admits. A fan-out leg
//!   that fails with a transport error gets one bounded retry against the
//!   next replica. Neither can change an answer: replicas serve the same
//!   slice with the same shard-derived seed, so their responses are
//!   bit-identical, and every leg is pinned to the same epoch — retried or
//!   not. Replica *selection* is seed-deterministic on a healthy fleet
//!   ([`derive_replica_choice`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use saber_core::infer::{em_update, esca_theta, PartialFoldIn};
use saber_core::model::LdaModel;
use saber_corpus::{OovPolicy, Vocabulary};
use saber_trace::{TraceBuilder, TraceContext};

use crate::server::{PartialRequest, PartialResponse};
use crate::shard::{derive_replica_choice, derive_shard_seed, ShardPlan};
use crate::snapshot::{FoldInKind, InferenceSnapshot};
use crate::transport::{LocalTransport, PendingPartial, ReplicaBreaker, ShardInfo, ShardTransport};
use crate::{InferResponse, ServeConfig, ServeError, ServeStats, TopicServer};

mod publish;
pub use publish::PipelineStats;

/// Router-level counters, complementing the per-shard [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Documents routed (each may fan out to many shard requests).
    pub requests: u64,
    /// Always 0: reads are pinned to one epoch, so no request is re-run for
    /// mixed versions. Kept for the frozen benchmark and the pinned
    /// `/stats` and `/metrics` bytes.
    pub skew_retries: u64,
    /// Current publication epoch (every shard serves this snapshot
    /// version).
    pub epoch: u64,
    /// Number of shards behind the router.
    pub n_shards: usize,
    /// Shard requests submitted to each shard, in shard order — one routed
    /// document counts once per shard it touched (per round, under EM),
    /// and a retried leg counts once per submission. Counted router-side,
    /// so it is exact even when a shard is remote.
    pub shard_requests: Vec<u64>,
    /// Fan-out legs resubmitted after a transport error, or to a sibling
    /// replica after one refused the pinned epoch (one bounded retry per
    /// leg; the partial is idempotent pure computation).
    pub transport_retries: u64,
    /// Always 0 since ISSUE 25 deleted hedged requests; kept for the
    /// frozen benchmark and the pinned `/stats` and `/metrics` bytes.
    pub hedges: u64,
    /// Circuit-breaker trips across all replicas (closed/half-open → open).
    pub breaker_trips: u64,
    /// Circuit-breaker re-admissions across all replicas (open/half-open →
    /// closed, on any successful exchange or health probe).
    pub breaker_readmits: u64,
    /// Per-shard, per-replica admission: `replica_health[s][r]` is `false`
    /// while replica `r` of shard `s` has its breaker open.
    pub replica_health: Vec<Vec<bool>>,
    /// Publication-path counters, present once this router has published
    /// at least one epoch (`None` before — a fleet that never publishes
    /// reports exactly the pre-pipeline stats block).
    pub pipeline: Option<PipelineStats>,
}

/// One replica's health as seen by a live [`ShardRouter::fleet_health`]
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// The replica answered this probe (`observe_epoch` over the
    /// `/healthz` seam).
    pub reachable: bool,
    /// The replica's breaker is not open after the probe's outcome was
    /// recorded (probe success re-admits; probe failures count toward the
    /// trip threshold).
    pub admitted: bool,
}

/// A live, probed view of the whole fleet's availability; see
/// [`ShardRouter::fleet_health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetHealth {
    /// Per-shard, per-replica probe results, in plan order.
    pub shards: Vec<Vec<ReplicaHealth>>,
    /// `true` when some plan range has zero replicas that are both
    /// reachable and admitted — the fleet cannot answer every document,
    /// and a router-backed `/healthz` reports 503 so load balancers stop
    /// routing here.
    pub degraded: bool,
}

/// One plan range's replica set: one or more transports serving identical
/// snapshot slices, each with its own [`ReplicaBreaker`]. Selection
/// rotates by the request's seed-derived choice with tripped replicas
/// demoted to last — a healthy fleet routes deterministically, and a
/// fully-tripped set still tries everything (the request itself doubles
/// as the recovery probe).
#[derive(Debug)]
pub struct ReplicaSet<T> {
    replicas: Vec<T>,
    breakers: Vec<ReplicaBreaker>,
}

impl<T: ShardTransport> ReplicaSet<T> {
    fn new(replicas: Vec<T>) -> Self {
        let breakers = replicas.iter().map(|_| ReplicaBreaker::new()).collect();
        ReplicaSet { replicas, breakers }
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set holds no replicas (construction refuses this).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica transports, in replica order.
    pub fn replicas(&self) -> &[T] {
        &self.replicas
    }

    /// Replica `r`'s circuit breaker.
    pub fn breaker(&self, r: usize) -> Option<&ReplicaBreaker> {
        self.breakers.get(r)
    }

    /// Records one exchange with replica `r` on its breaker, `error` being
    /// what it failed with, if it did: a success re-admits (and resets the
    /// failure streak), a transport failure counts toward the trip
    /// threshold, and request-level errors (bad request, deadline,
    /// overload) say nothing about replica health.
    fn note(&self, r: usize, error: Option<&ServeError>) {
        match (self.breakers.get(r), error) {
            (Some(breaker), None) => breaker.record_success(),
            (Some(breaker), Some(ServeError::Transport { .. })) => breaker.record_failure(),
            _ => {}
        }
    }

    /// Calls `call` on the replicas in `order` until one returns `Ok`, and
    /// hands that back with the replica's index: replicas hold identical
    /// slices, so the first answer is authoritative. A transport error is
    /// noted on the replica's breaker and rotates to the next one; any
    /// other error is the request's own fault — failing over would just
    /// repeat it — and returns at once. Only when every replica is
    /// unreachable does the last transport error propagate. A success is
    /// *not* noted here: a fan-out submission that was merely accepted has
    /// proved nothing yet.
    fn first_ok<V>(
        &self,
        order: impl IntoIterator<Item = usize>,
        mut call: impl FnMut(&T) -> Result<V, ServeError>,
    ) -> Result<(usize, V), ServeError> {
        let mut last_err = ServeError::Closed;
        for r in order {
            match self.replicas.get(r).map(&mut call) {
                Some(Ok(value)) => return Ok((r, value)),
                Some(Err(e @ ServeError::Transport { .. })) => {
                    self.note(r, Some(&e));
                    last_err = e;
                }
                Some(Err(e)) => return Err(e),
                None => {}
            }
        }
        Err(last_err)
    }

    /// One whole exchange with the first replica, in replica order, that
    /// answers — [`ReplicaSet::first_ok`] with the success noted too.
    fn ask<V>(&self, call: impl FnMut(&T) -> Result<V, ServeError>) -> Result<V, ServeError> {
        let (r, value) = self.first_ok(0..self.replicas.len(), call)?;
        self.note(r, None);
        Ok(value)
    }

    /// This request's replica preference: rotate the set by the
    /// seed-derived `choice`, then move replicas whose breaker refuses
    /// admission to the back (not out — with every breaker open, traffic
    /// itself is the probe that re-admits a recovered replica).
    fn preference(&self, choice: usize) -> Vec<usize> {
        let n = self.replicas.len();
        let rotated: Vec<usize> = (0..n).map(|i| (choice + i) % n).collect();
        let mut order: Vec<usize> = rotated
            .iter()
            .copied()
            .filter(|&r| self.breakers.get(r).is_some_and(ReplicaBreaker::admit))
            .collect();
        for r in rotated {
            if !order.contains(&r) {
                order.push(r);
            }
        }
        order
    }
}

/// One in-flight fan-out leg: which shard and replica it was submitted
/// to, the `(span id, span start µs)` of its `shard {s}` trace span (both
/// 0 when the request is untraced), the trace context a retry reuses, and
/// the transport's pending reply handle.
struct Leg<T: ShardTransport> {
    shard: usize,
    replica: usize,
    span: (u64, u64),
    ctx: TraceContext,
    pending: T::Pending,
}

/// What every leg of one routed request shares: the request seed (drives
/// shard seeds and replica preference), the epoch every leg is pinned to,
/// and the caller's deadline.
#[derive(Clone, Copy)]
struct Read {
    seed: u64,
    epoch: u64,
    deadline: Option<Instant>,
}

impl Read {
    /// Submits one leg, pinned to the read's epoch, to `transport`.
    fn submit<T: ShardTransport>(
        self,
        transport: &T,
        words: &[u32],
        request: PartialRequest,
        ctx: TraceContext,
    ) -> Result<T::Pending, ServeError> {
        let (epoch, deadline) = (Some(self.epoch), self.deadline);
        transport.submit_partial_pinned(words.to_vec(), request, epoch, deadline, ctx)
    }

    /// Waits for a leg, refusing a partial answered from another epoch
    /// than the pinned one: the guard against a shard that ignored it.
    fn wait<P: PendingPartial>(self, pending: P) -> Result<PartialResponse, ServeError> {
        let response = pending.wait(self.deadline)?;
        if response.snapshot_version == self.epoch {
            Ok(response)
        } else {
            Err(ServeError::ShardVersionSkew)
        }
    }
}

/// A fleet of vocabulary shards behind a single-server interface; see the
/// [module docs](self) for the protocol. Generic over the
/// [`ShardTransport`] that carries the fan-out — [`LocalTransport`] (the
/// default) for an in-process fleet, [`crate::HttpTransport`] for shard
/// processes on other hosts.
pub struct ShardRouter<T: ShardTransport = LocalTransport> {
    plan: ShardPlan,
    shards: Vec<ReplicaSet<T>>,
    config: ServeConfig,
    n_topics: usize,
    alpha: f32,
    requests: AtomicU64,
    transport_retries: AtomicU64,
    shard_requests: Vec<AtomicU64>,
    /// The epoch reads are pinned to: validated at construction, moved by
    /// this router's publications after their last commit and re-probed
    /// after a shard refused it (`publish` live-probes the fleet itself).
    last_epoch: AtomicU64,
    /// Held shared by every read for its whole fan-out, and taken
    /// exclusively by a publication before it stages (which releases the
    /// epoch before the served one on every shard): no read can still be
    /// pinned to that epoch once the exclusive guard is granted.
    reads: RwLock<()>,
    /// Serialises whole-fleet publications so two publishers cannot
    /// interleave shard swaps (which could strand shards on permanently
    /// different versions).
    publish_lock: Mutex<()>,
    /// Publication-path counters, `None` until the first successful
    /// publish. A lock of its own, so a `/stats` scrape never waits for a
    /// publication to finish.
    pipeline: Mutex<Option<PipelineStats>>,
}

impl<T: ShardTransport> std::fmt::Debug for ShardRouter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("n_shards", &self.plan.n_shards())
            .field("vocab_size", &self.plan.vocab_size())
            .field("n_topics", &self.n_topics)
            .field("epoch", &self.epoch())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardRouter<LocalTransport> {
    /// Slices `snapshot` by `plan` and starts one in-process
    /// [`TopicServer`] (with `config`) per shard, all at epoch 1.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the plan does not cover
    /// the snapshot's vocabulary, or for a config a single server would
    /// reject.
    pub fn start(
        snapshot: InferenceSnapshot,
        plan: ShardPlan,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if plan.vocab_size() != snapshot.vocab_size() {
            return Err(ServeError::InvalidConfig {
                detail: format!(
                    "plan covers {} words but the snapshot has {}",
                    plan.vocab_size(),
                    snapshot.vocab_size()
                ),
            });
        }
        let sets = plan
            .ranges()
            .map(|range| {
                TopicServer::start(snapshot.shard(range.clone()), config)
                    .map(|server| vec![LocalTransport::with_range(server, range)])
            })
            .collect::<Result<Vec<_>, _>>()?;
        ShardRouter::with_replica_sets(plan, sets, config)
    }

    /// Exports a snapshot from `model` (using `config.sampler`) and starts
    /// a sharded fleet over it; see [`ShardRouter::start`].
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::start`].
    pub fn from_model(
        model: &LdaModel,
        plan: ShardPlan,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        ShardRouter::start(
            InferenceSnapshot::from_model(model, config.sampler),
            plan,
            config,
        )
    }
}

impl<T: ShardTransport> ShardRouter<T> {
    /// Builds a router over externally provided shard transports — the
    /// constructor behind cross-machine fleets (`transports[s]` must reach
    /// the shard serving `plan.range(s)`). Each shard's
    /// [`shard_info`](ShardTransport::shard_info) is fetched and validated:
    /// vocabulary sizes must match the plan's ranges, and topic count, α,
    /// fold-in parameters and epoch must agree across the fleet (and with
    /// `config.fold_in` — the router finishes merges with those
    /// parameters, so a disagreement would silently change answers).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] on any mismatch, and
    /// propagates transport errors from unreachable shards.
    pub fn with_transports(
        plan: ShardPlan,
        transports: Vec<T>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let sets = transports.into_iter().map(|t| vec![t]).collect();
        ShardRouter::with_replica_sets(plan, sets, config)
    }

    /// [`ShardRouter::with_transports`] generalised to replica sets:
    /// `sets[s]` holds every transport serving `plan.range(s)` (each must
    /// hold an *identical* slice — same shape, same epoch — since replica
    /// answers must be interchangeable bit for bit). Every replica is
    /// validated like a shard in [`ShardRouter::with_transports`] and gets
    /// its own circuit breaker.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] on any mismatch or an empty
    /// replica set, and propagates transport errors from unreachable
    /// shards.
    pub fn with_replica_sets(
        plan: ShardPlan,
        sets: Vec<Vec<T>>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if sets.len() != plan.n_shards() {
            return Err(ServeError::InvalidConfig {
                detail: format!(
                    "plan has {} shards but {} replica sets were provided",
                    plan.n_shards(),
                    sets.len()
                ),
            });
        }
        if let Some(s) = sets.iter().position(Vec::is_empty) {
            return Err(ServeError::InvalidConfig {
                detail: format!("shard {s} has an empty replica set"),
            });
        }
        let infos = sets
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(ShardTransport::shard_info)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reference = &infos[0][0];
        for (s, (shard_infos, range)) in infos.iter().zip(plan.ranges()).enumerate() {
            for (r, info) in shard_infos.iter().enumerate() {
                validate_replica(s, r, info, &range, reference, &config)?;
            }
        }
        let (n_topics, alpha, epoch) = (reference.n_topics, reference.alpha, reference.epoch);
        let shard_requests = sets.iter().map(|_| AtomicU64::new(0)).collect();
        Ok(ShardRouter {
            plan,
            shards: sets.into_iter().map(ReplicaSet::new).collect(),
            config,
            n_topics,
            alpha,
            requests: AtomicU64::new(0),
            transport_retries: AtomicU64::new(0),
            shard_requests,
            last_epoch: AtomicU64::new(epoch),
            reads: RwLock::new(()),
            publish_lock: Mutex::new(()),
            pipeline: Mutex::new(None),
        })
    }

    /// The shard plan the router routes by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards behind the router.
    pub fn n_shards(&self) -> usize {
        self.plan.n_shards()
    }

    /// Number of topics `K`.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Vocabulary size `V` across all shards.
    pub fn vocab_size(&self) -> usize {
        self.plan.vocab_size()
    }

    /// Document–topic smoothing α, fixed at construction and validated
    /// across the fleet (it enters the router-side merge).
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The per-shard serving configuration (fold-in parameters for any
    /// transport; worker/queue settings apply to local fleets).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The replica sets the router fans out over, in shard order.
    pub fn replica_sets(&self) -> &[ReplicaSet<T>] {
        &self.shards
    }

    /// The current publication epoch, the one every request is pinned to:
    /// the snapshot version every shard serves, or still holds while a
    /// publication commits. It moves only once a [`ShardRouter::publish`]
    /// committed on every shard, or after a shard refused it.
    ///
    /// This reads the router's own record rather than probing a shard, so
    /// it costs no network round trip on a remote fleet. Use
    /// [`ShardTransport::observe_epoch`] on a transport for a live probe.
    pub fn epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Acquire)
    }

    /// Blockingly infers the topic distribution of one document across the
    /// fleet; the sharded counterpart of [`TopicServer::infer_topics`],
    /// deterministic for equal `(words, seed, epoch)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for out-of-vocabulary word ids,
    /// [`ServeError::Closed`] after shutdown, [`ServeError::Transport`]
    /// for unreachable remote shards, and
    /// [`ServeError::ShardVersionSkew`] when some shard range holds no
    /// snapshot of the router's epoch.
    pub fn infer_topics(&self, words: Vec<u32>, seed: u64) -> Result<InferResponse, ServeError> {
        self.route(&words, seed, None, &mut TraceBuilder::disabled(), 0)
    }

    /// Fail-fast, deadline-bounded inference; the sharded counterpart of
    /// [`TopicServer::infer_with_deadline`] (the HTTP front-end's path).
    /// The deadline covers the whole fan-out — all shards and, under
    /// [`FoldInKind::Em`], all synchronisation rounds.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::infer_topics`], plus [`ServeError::Overloaded`]
    /// when any shard's queue is full and [`ServeError::DeadlineExceeded`]
    /// when the merged answer cannot be produced in time.
    pub fn infer_with_deadline(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: Duration,
    ) -> Result<InferResponse, ServeError> {
        self.infer_with_trace(words, seed, deadline, &mut TraceBuilder::disabled(), 0)
    }

    /// [`ShardRouter::infer_with_deadline`] that records the whole fan-out
    /// as child spans of `parent` in `trace`: a `fan-out` span per
    /// submission wave (one `em-round {r}` wrapper per EM iteration), a
    /// `shard {s}` span per touched shard — each carrying the shard's own
    /// `infer-partial` subtree, stitched from the response by
    /// [`TraceBuilder::attach`] whether the shard is in-process or on
    /// another machine — and a `merge` span for the router-side finish.
    /// The pinned epoch lands as an event on `parent`. A
    /// disabled builder records none of it. Tracing never changes an
    /// answer: seeds and merge order ignore it.
    ///
    /// # Errors
    ///
    /// As [`ShardRouter::infer_with_deadline`].
    pub fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: Duration,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let deadline = Some(Instant::now() + deadline);
        self.route(&words, seed, deadline, trace, parent)
    }

    /// Encodes a raw-token document against `vocab` (the *full* model
    /// vocabulary — global word ids, which the router then splits by
    /// shard) and infers its topics.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures ([`OovPolicy::Fail`]) plus everything
    /// [`ShardRouter::infer_topics`] can return.
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

    /// The `n` highest-probability words of topic `k` across the whole
    /// vocabulary: each shard reports its local top `n`, the router maps
    /// them back to global word ids and keeps the overall best (ties
    /// broken by ascending word id, so the merged order is deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `k` is outside the served
    /// topic count, and propagates transport errors from remote shards.
    pub fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        if k >= self.n_topics {
            return Err(ServeError::BadRequest {
                detail: format!("topic {k} out of range (K = {})", self.n_topics),
            });
        }
        let mut merged: Vec<(u32, f32)> = Vec::with_capacity(n * self.shards.len());
        for (set, range) in self.shards.iter().zip(self.plan.ranges()) {
            merged.extend(
                set.ask(|transport| transport.top_words(k, n))?
                    .into_iter()
                    .map(|(local, prob)| (local + range.start, prob)),
            );
        }
        merged.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        merged.truncate(n);
        Ok(merged)
    }

    /// Fleet-wide serving counters: every shard's [`ServeStats`] merged
    /// ([`ServeStats::merge`]), histograms included — not just shard 0's
    /// view. Note that one routed document counts as one request *per
    /// shard it touched* (per round, under EM). Unreachable remote shards
    /// contribute nothing (their counters are skipped, not invented).
    pub fn stats(&self) -> ServeStats {
        let mut merged = ServeStats::default();
        for info in self.all_shard_infos().into_iter().flatten() {
            merged.merge(&info.stats);
        }
        merged
    }

    /// Per-shard serving counters, in shard order; an unreachable remote
    /// shard reports zeroed counters.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.all_shard_infos()
            .into_iter()
            .map(|info| info.map(|i| i.stats).unwrap_or_default())
            .collect()
    }

    /// Fetches every shard's info concurrently, in shard order, from the
    /// first replica of each that answers ([`ReplicaSet::ask`]). On a
    /// remote fleet these are network round trips, and one down shard must
    /// not serialise the others behind its connect timeout (a stats scrape
    /// would otherwise stall for `n_shards × timeout`).
    fn all_shard_infos(&self) -> Vec<Option<ShardInfo>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|set| scope.spawn(move || set.ask(ShardTransport::shard_info).ok()))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or(None))
                .collect()
        })
    }

    /// Router-level counters (documents routed, transport retries, breaker
    /// trips/re-admissions, epoch, per-shard request counts, per-replica
    /// admission).
    pub fn router_stats(&self) -> RouterStats {
        let mut breaker_trips = 0;
        let mut breaker_readmits = 0;
        let mut replica_health = Vec::with_capacity(self.shards.len());
        for set in &self.shards {
            let mut admitted = Vec::with_capacity(set.len());
            for r in 0..set.len() {
                if let Some(breaker) = set.breaker(r) {
                    breaker_trips += breaker.trips();
                    breaker_readmits += breaker.readmits();
                    admitted.push(breaker.is_admitted());
                }
            }
            replica_health.push(admitted);
        }
        RouterStats {
            requests: self.requests.load(Ordering::Relaxed),
            skew_retries: 0,
            epoch: self.epoch(),
            n_shards: self.n_shards(),
            shard_requests: self
                .shard_requests
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            transport_retries: self.transport_retries.load(Ordering::Relaxed),
            hedges: 0,
            breaker_trips,
            breaker_readmits,
            replica_health,
            pipeline: self
                .pipeline
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    /// Live-probes every replica's reachability (one
    /// [`ShardTransport::observe_epoch`] each — the `/shard-info`–
    /// `/healthz` seam on a remote fleet), concurrently so one dead
    /// replica cannot stall the sweep behind its connect timeout, and
    /// records each outcome on the replica's breaker: a probe success
    /// re-admits a recovered replica, an unreachable one counts toward the
    /// trip threshold. The router-backed `GET /healthz` serves this view
    /// and answers 503 when [`FleetHealth::degraded`].
    pub fn fleet_health(&self) -> FleetHealth {
        let probes: Vec<Vec<Result<u64, ServeError>>> = std::thread::scope(|scope| {
            let handles: Vec<Vec<_>> = self
                .shards
                .iter()
                .map(|set| {
                    set.replicas()
                        .iter()
                        .map(|transport| scope.spawn(move || transport.observe_epoch()))
                        .collect()
                })
                .collect();
            handles
                .into_iter()
                .map(|set| {
                    set.into_iter()
                        .map(|handle| handle.join().unwrap_or(Err(ServeError::Closed)))
                        .collect()
                })
                .collect()
        });
        let shards: Vec<Vec<ReplicaHealth>> = self
            .shards
            .iter()
            .zip(probes)
            .map(|(set, probed)| {
                let health = |(r, probe): (usize, &Result<u64, ServeError>)| {
                    set.note(r, probe.as_ref().err());
                    ReplicaHealth {
                        reachable: probe.is_ok(),
                        admitted: set.breaker(r).is_some_and(ReplicaBreaker::is_admitted),
                    }
                };
                probed.iter().enumerate().map(health).collect()
            })
            .collect();
        let degraded = shards
            .iter()
            .any(|replicas| !replicas.iter().any(|r| r.reachable && r.admitted));
        FleetHealth { shards, degraded }
    }

    /// Tears the router down (for a local fleet this joins every shard's
    /// worker pool; for a remote fleet it closes the transports — the
    /// shard processes keep running). Also happens on drop.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Routes one document: split by shard, fan out pinned to the router's
    /// epoch, merge. A request some range could not answer at that epoch
    /// fails, and re-pins the router to the fleet's epoch for the next one.
    fn route(
        &self,
        words: &[u32],
        seed: u64,
        deadline: Option<Instant>,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let split = self.plan.split(words)?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        // Poisoning guards nothing here: the lock protects no data.
        let _reading = self.reads.read().unwrap_or_else(|e| e.into_inner());
        let read = Read {
            seed,
            epoch: self.epoch(),
            deadline,
        };
        if words.is_empty() {
            return Ok(self.uniform_response(read.epoch));
        }
        let result = match self.config.fold_in.kind {
            FoldInKind::Esca => self.route_esca(&split, read, trace, parent),
            FoldInKind::Em => self.route_em(&split, read, trace, parent),
        };
        match &result {
            Ok(_) => trace.event(parent, format_args!("epoch observed {}", read.epoch)),
            // Another router published past the pin: follow the fleet.
            Err(ServeError::ShardVersionSkew) => {
                if let Ok(epoch) = self.observe_fleet_epoch() {
                    self.last_epoch.fetch_max(epoch, Ordering::AcqRel);
                }
            }
            Err(_) => {}
        }
        result
    }

    /// Single-round Gibbs fan-out: every touched shard runs its chain with
    /// a seed derived from the request seed, the raw measured counts merge,
    /// and [`esca_theta`] finishes — identical to
    /// [`InferenceSnapshot::infer_topics`] when one shard holds every word.
    fn route_esca(
        &self,
        split: &[Vec<u32>],
        read: Read,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let fanout_span = trace.begin(Some(parent), "fan-out");
        let request_for = |s: usize| PartialRequest::FoldIn {
            seed: derive_shard_seed(read.seed, s),
        };
        let (merged, n_oov) = self.wave(split, read, &request_for, trace, fanout_span)?;
        trace.end(fanout_span);
        let merge_span = trace.begin(Some(parent), "merge");
        let theta = esca_theta(
            merged.counts,
            merged.n_words,
            self.config.fold_in.samples,
            self.alpha,
        );
        trace.end(merge_span);
        Ok(InferResponse {
            theta: theta.into_iter().map(|p| p as f32).collect(),
            snapshot_version: read.epoch,
            n_oov,
        })
    }

    /// Multi-round EM fan-out: the router owns θ and synchronises it once
    /// per iteration; shards only ever compute per-word responsibility
    /// counts, which sum exactly. Every leg of every round is pinned to the
    /// same epoch, so the θ trajectory comes from a single one — on any
    /// transport.
    fn route_em(
        &self,
        split: &[Vec<u32>],
        read: Read,
        trace: &mut TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        let k = self.n_topics;
        // No .max(1): fold_in_em runs exactly total_sweeps() iterations
        // (zero iterations = uniform θ), and the sharded path must match
        // it decision for decision.
        let iterations = self.config.fold_in.total_sweeps();
        if iterations == 0 {
            return Ok(self.uniform_response(read.epoch));
        }
        let mut theta = Arc::new(vec![1.0f64 / k as f64; k]);
        let mut n_oov = 0usize;
        for round in 0..iterations {
            let round_span = trace.begin(Some(parent), format_args!("em-round {round}"));
            let request_for = |_s: usize| PartialRequest::EmRound {
                round,
                theta: Arc::clone(&theta),
            };
            let (merged, round_oov) = self.wave(split, read, &request_for, trace, round_span)?;
            if round == 0 {
                n_oov = round_oov;
            }
            let merge_span = trace.begin(Some(round_span), "merge");
            let mut next = vec![0.0f64; k];
            em_update(&mut next, &merged.counts, merged.n_words, self.alpha);
            trace.end(merge_span);
            trace.end(round_span);
            theta = Arc::new(next);
        }
        Ok(InferResponse {
            theta: theta.iter().map(|&p| p as f32).collect(),
            snapshot_version: read.epoch,
            n_oov,
        })
    }

    /// One fan-out wave: submits `request_for(shard)`, pinned to
    /// `read.epoch`, to every shard with words in `split`, then settles
    /// every leg ([`ShardRouter::settle_leg`]) and merges the partials.
    /// Returns the merged counts and the shards' out-of-vocabulary total.
    ///
    /// All submissions land before any reply is awaited, so shards execute
    /// concurrently — in-process or across the network. Within each shard
    /// the replica is chosen by [`derive_replica_choice`]
    /// (seed-deterministic on a healthy fleet); a replica whose
    /// *submission* fails with a transport error is recorded on its breaker
    /// and the next preferred replica is tried, so the wave only fails when
    /// a whole set is unreachable. Each submission opens a `shard {s}` span
    /// under `wave_span` and forwards a [`TraceContext`] pointing at it, so
    /// the shard's own spans re-attach under the right leg.
    fn wave(
        &self,
        split: &[Vec<u32>],
        read: Read,
        request_for: &impl Fn(usize) -> PartialRequest,
        trace: &mut TraceBuilder,
        wave_span: u64,
    ) -> Result<(PartialFoldIn, usize), ServeError> {
        let mut legs = Vec::new();
        for (s, words) in split.iter().enumerate() {
            if words.is_empty() {
                continue;
            }
            let begin_us = trace.elapsed_us();
            let span_id = trace.begin(Some(wave_span), ShardPlan::span_name(s));
            let ctx = trace.context(span_id);
            let set = &self.shards[s];
            let order = set.preference(derive_replica_choice(read.seed, s, set.len()));
            let submit = |transport: &T| read.submit(transport, words, request_for(s), ctx);
            let (replica, handle) = set
                .first_ok(order, submit)
                .map_err(|e| attribute_shard(e, s))?;
            self.shard_requests[s].fetch_add(1, Ordering::Relaxed);
            legs.push(Leg {
                shard: s,
                replica,
                span: (span_id, begin_us),
                ctx,
                pending: handle,
            });
        }
        let mut merged = PartialFoldIn::empty(self.n_topics);
        let mut n_oov = 0;
        for leg in legs {
            let (words, request) = (&split[leg.shard], request_for(leg.shard));
            let response = self.settle_leg(leg, words, request, read, wave_span, trace)?;
            merged.merge(&response.partial);
            n_oov += response.n_oov;
        }
        Ok((merged, n_oov))
    }

    /// Finishes one fan-out leg: waits for the reply, notes the outcome on
    /// the replica's breaker and stitches spans via [`collect_shard`]. A
    /// transport failure, or a refused pin a sibling may still hold, gets
    /// one retry (the partial is idempotent) on the next preferred replica
    /// — the same one in a single-replica set, where a fresh connection
    /// heals a dropped keep-alive — resending exactly the primary's
    /// `words`, `request` and pin, or θ would depend on the replica.
    /// Counted in [`RouterStats::transport_retries`]; traced as a `{cause}
    /// retry shard {s}` event on `wave_span`.
    fn settle_leg(
        &self,
        leg: Leg<T>,
        words: &[u32],
        request: PartialRequest,
        read: Read,
        wave_span: u64,
        trace: &mut TraceBuilder,
    ) -> Result<PartialResponse, ServeError> {
        let (s, set) = (leg.shard, &self.shards[leg.shard]);
        let mut outcome = read.wait(leg.pending);
        set.note(leg.replica, outcome.as_ref().err());
        let cause = match &outcome {
            Err(ServeError::Transport { .. }) => Some("transport"),
            Err(ServeError::ShardVersionSkew) if set.len() > 1 => Some("epoch"),
            _ => None,
        };
        if let Some(cause) = cause {
            if read.deadline.is_some_and(|at| Instant::now() >= at) {
                return Err(ServeError::DeadlineExceeded);
            }
            let target = set
                .preference(derive_replica_choice(read.seed, s, set.len()))
                .into_iter()
                .find(|&r| r != leg.replica)
                .unwrap_or(leg.replica);
            self.transport_retries.fetch_add(1, Ordering::Relaxed);
            let name = ShardPlan::span_name(s);
            trace.event(wave_span, format_args!("{cause} retry {name}"));
            outcome = read
                .submit(&set.replicas()[target], words, request, leg.ctx)
                .and_then(|handle| {
                    self.shard_requests[s].fetch_add(1, Ordering::Relaxed);
                    read.wait(handle)
                });
            set.note(target, outcome.as_ref().err());
        }
        collect_shard(s, leg.span, outcome, self.n_topics, wave_span, trace)
    }

    /// The uniform θ an empty document gets, cast through the same `f64 →
    /// f32` path as the single-server code so the answers stay
    /// bit-identical.
    fn uniform_response(&self, epoch: u64) -> InferResponse {
        InferResponse {
            theta: vec![(1.0f64 / self.n_topics as f64) as f32; self.n_topics],
            snapshot_version: epoch,
            n_oov: 0,
        }
    }
}

/// Validates one replica's [`ShardInfo`] against the plan slot it was
/// wired into and the fleet-wide reference (replica 0 of shard 0): the
/// slice width must match the plan's range, topic count, α, fold-in
/// parameters and epoch must agree across the fleet (the router finishes
/// merges with those parameters, so a disagreement would silently change
/// answers), and an explicitly configured global range must sit in the
/// right plan slot.
fn validate_replica(
    s: usize,
    r: usize,
    info: &ShardInfo,
    range: &std::ops::Range<u32>,
    reference: &ShardInfo,
    config: &ServeConfig,
) -> Result<(), ServeError> {
    let expected = (range.end - range.start) as usize;
    if info.vocab_size != expected {
        return Err(ServeError::InvalidConfig {
            detail: format!(
                "shard {s} replica {r} holds {} words but the plan assigns it {expected}",
                info.vocab_size
            ),
        });
    }
    if info.n_topics != reference.n_topics || info.alpha.to_bits() != reference.alpha.to_bits() {
        return Err(ServeError::InvalidConfig {
            detail: format!("shard {s} replica {r} disagrees with shard 0 on K or alpha"),
        });
    }
    if info.epoch != reference.epoch {
        return Err(ServeError::InvalidConfig {
            detail: format!(
                "shard {s} replica {r} serves epoch {} but shard 0 serves {}",
                info.epoch, reference.epoch
            ),
        });
    }
    // A shard that knows its global range must sit in the plan slot that
    // serves it — this is what catches a transport vector wired up in the
    // wrong order (equal widths would slip past the size check and
    // silently produce wrong answers). A shard reporting the local
    // default `[0, vocab_size)` cannot be distinguished from an
    // unconfigured one, so only an explicit global range is enforced.
    let local_default = (0, info.vocab_size as u32);
    if info.shard_range != local_default && info.shard_range != (range.start, range.end) {
        return Err(ServeError::InvalidConfig {
            detail: format!(
                "shard {s} replica {r} serves global words {}..{} but the plan assigns it {}..{}",
                info.shard_range.0, info.shard_range.1, range.start, range.end
            ),
        });
    }
    if info.fold_in != config.fold_in {
        return Err(ServeError::InvalidConfig {
            detail: format!(
                "shard {s} replica {r} applies fold-in {:?} but the router expects {:?}",
                info.fold_in, config.fold_in
            ),
        });
    }
    Ok(())
}

/// Fills in the shard index on an unattributed transport error, so a
/// router-level failure names the fan-out leg that broke.
fn attribute_shard(err: ServeError, s: usize) -> ServeError {
    match err {
        ServeError::Transport {
            detail,
            shard: None,
            addr,
        } => ServeError::Transport {
            detail,
            shard: Some(s),
            addr,
        },
        other => other,
    }
}

/// Finishes one leg of a fan-out: a partial over another topic count than
/// the fleet's becomes a transport error; on success, stitches the shard's
/// reported span subtree under its `shard {s}` span and closes it; on
/// failure, attributes the error to the shard and records a trace event
/// naming the culprit on the wave's parent span.
fn collect_shard(
    s: usize,
    (span_id, begin_us): (u64, u64),
    outcome: Result<PartialResponse, ServeError>,
    n_topics: usize,
    wave_span: u64,
    trace: &mut TraceBuilder,
) -> Result<PartialResponse, ServeError> {
    // A shard republished with another K after validation (or running
    // another build) must fail this request, not the merge's length assert.
    let outcome = outcome.and_then(|response| match response.partial.counts.len() {
        k if k == n_topics => Ok(response),
        k => Err(ServeError::transport(format!(
            "shard answered a partial over {k} topics, the fleet serves {n_topics}"
        ))),
    });
    match outcome {
        Ok(response) => {
            trace.attach(span_id, &response.spans, begin_us);
            trace.end(span_id);
            Ok(response)
        }
        Err(e) => {
            let e = attribute_shard(e, s);
            if matches!(e, ServeError::Transport { .. }) {
                let name = ShardPlan::span_name(s);
                trace.event(wave_span, format_args!("{name} failed: {e}"));
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::planted_model;
    use crate::snapshot::{FoldInParams, SnapshotSampler};

    fn router(n_shards: usize, kind: FoldInKind) -> ShardRouter {
        let model = planted_model(12, 3);
        let plan = ShardPlan::uniform(12, n_shards).unwrap();
        ShardRouter::from_model(
            &model,
            plan,
            ServeConfig {
                n_workers: 2,
                fold_in: FoldInParams {
                    kind,
                    ..FoldInParams::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn plan_and_snapshot_must_agree_on_vocabulary() {
        let model = planted_model(12, 3);
        let plan = ShardPlan::uniform(10, 2).unwrap();
        assert!(matches!(
            ShardRouter::from_model(&model, plan, ServeConfig::default()),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn routed_inference_recovers_planted_topics() {
        for kind in [FoldInKind::Esca, FoldInKind::Em] {
            for n_shards in [1, 2, 3] {
                let router = router(n_shards, kind);
                let response = router.infer_topics(vec![1, 4, 7, 10, 1, 4], 9).unwrap();
                assert_eq!(
                    response.dominant_topic(),
                    1,
                    "{kind:?}/{n_shards}: theta = {:?}",
                    response.theta
                );
                assert_eq!(response.snapshot_version, 1);
                assert_eq!(response.n_oov, 0);
                let sum: f32 = response.theta.iter().sum();
                assert!((sum - 1.0).abs() < 1e-3);
                router.shutdown();
            }
        }
    }

    #[test]
    fn routed_inference_replays_bit_identically() {
        let router = router(3, FoldInKind::Esca);
        let words = vec![0u32, 5, 7, 11, 2, 0];
        let a = router.infer_topics(words.clone(), 77).unwrap();
        let b = router.infer_topics(words, 77).unwrap();
        assert_eq!(
            a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        router.shutdown();
    }

    #[test]
    fn traced_routing_builds_a_fan_out_span_tree() {
        use saber_trace::TraceId;
        use std::time::Duration;

        let router = router(2, FoldInKind::Esca);
        let words = vec![0u32, 5, 7, 11];
        let plain = router.infer_topics(words.clone(), 13).unwrap();

        let mut trace = TraceBuilder::new(TraceId::mint());
        let root = trace.begin(None, "ingress");
        let traced = router
            .infer_with_trace(words, 13, Duration::from_secs(5), &mut trace, root)
            .unwrap();
        trace.end(root);
        let done = trace.finish();

        // Tracing must never perturb the answer.
        assert_eq!(
            plain.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            traced.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );

        let names: Vec<&str> = done.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"fan-out"), "spans: {names:?}");
        assert!(names.contains(&"merge"), "spans: {names:?}");
        assert!(names.contains(&"shard 0") && names.contains(&"shard 1"));
        let partials = names.iter().filter(|n| **n == "infer-partial").count();
        assert!(partials >= 2, "expected a subtree per shard: {names:?}");

        // The routing span carries the epoch observation event.
        let ingress = done.spans.iter().find(|s| s.name == "ingress").unwrap();
        assert!(
            ingress
                .events
                .iter()
                .any(|e| e.message == "epoch observed 1"),
            "events: {:?}",
            ingress.events
        );
        router.shutdown();
    }

    #[test]
    fn zero_iteration_em_matches_the_direct_server() {
        // total_sweeps() == 0 means "no refinement": fold_in_em returns
        // uniform θ, and the router must do exactly the same rather than
        // sneaking in one round.
        let zero = ServeConfig {
            fold_in: FoldInParams {
                burn_in: 0,
                samples: 0,
                kind: FoldInKind::Em,
            },
            ..ServeConfig::default()
        };
        let model = planted_model(12, 3);
        let direct = TopicServer::from_model(&model, zero).unwrap();
        let routed =
            ShardRouter::from_model(&model, ShardPlan::uniform(12, 3).unwrap(), zero).unwrap();
        let a = direct.infer_topics(vec![1, 4, 7], 5).unwrap();
        let b = routed.infer_topics(vec![1, 4, 7], 5).unwrap();
        assert_eq!(
            a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        direct.shutdown();
        routed.shutdown();
    }

    #[test]
    fn empty_documents_and_bad_ids_behave_like_a_single_server() {
        let router = router(2, FoldInKind::Esca);
        let response = router.infer_topics(vec![], 0).unwrap();
        for &t in &response.theta {
            assert!((t - 1.0 / 3.0).abs() < 1e-6);
        }
        assert!(matches!(
            router.infer_topics(vec![12], 0),
            Err(ServeError::BadRequest { .. })
        ));
        router.shutdown();
    }

    #[test]
    fn publish_moves_every_shard_to_the_next_epoch() {
        let router = router(3, FoldInKind::Esca);
        assert_eq!(router.epoch(), 1);
        let snapshot =
            InferenceSnapshot::from_model(&planted_model(12, 3), SnapshotSampler::WaryTree);
        assert_eq!(router.publish(snapshot).unwrap(), 2);
        assert_eq!(router.epoch(), 2);
        let stats = router.router_stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.n_shards, 3);
        // Shape mismatches are refused before any shard is touched.
        let wrong = InferenceSnapshot::from_model(&planted_model(8, 3), SnapshotSampler::WaryTree);
        assert!(matches!(
            router.publish(wrong),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert_eq!(router.epoch(), 2);
        router.shutdown();
    }

    #[test]
    fn incremental_publish_ships_only_changed_rows_and_falls_back_on_stale_base() {
        let fleet = router(2, FoldInKind::Esca);
        assert!(
            fleet.router_stats().pipeline.is_none(),
            "a fleet that never published has no pipeline block"
        );

        // Next epoch: perturb three rows and refresh only those against the
        // cached topic totals, so untouched B̂ rows stay bit-identical —
        // the contract the delta path depends on.
        let mut model = planted_model(12, 3);
        for v in [2usize, 7, 11] {
            model.word_topic_mut()[(v, (v + 1) % 3)] += 6;
        }
        model.refresh_probability_rows(&[2, 7, 11]);
        let next = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        assert_eq!(
            fleet
                .publish_incremental(next.clone(), &[2, 7, 11], 1)
                .unwrap(),
            2
        );
        let stats = fleet.router_stats().pipeline.unwrap();
        assert_eq!(stats.epochs_published, 1);
        assert_eq!(
            stats.delta_epochs, 1,
            "both ranges must take the delta path"
        );
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.rows_total, 12);
        assert_eq!(
            stats.rows_shipped, 3,
            "only the changed rows cross the seam"
        );

        // The delta-refreshed fleet answers exactly as one bootstrapped
        // from the full next-epoch model.
        let reference =
            ShardRouter::from_model(&model, ShardPlan::uniform(12, 2).unwrap(), *fleet.config())
                .unwrap();
        for seed in [0u64, 9, 41] {
            let a = fleet.infer_topics(vec![1, 2, 7, 11, 4, 2], seed).unwrap();
            let b = reference
                .infer_topics(vec![1, 2, 7, 11, 4, 2], seed)
                .unwrap();
            assert_eq!(
                a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: delta-published fleet diverged from a full boot"
            );
        }
        reference.shutdown();

        // A stale base epoch falls back to full slices — the publication
        // still lands, but ships every row and counts the fallback.
        assert_eq!(fleet.publish_incremental(next, &[2, 7, 11], 1).unwrap(), 3);
        let stats = fleet.router_stats().pipeline.unwrap();
        assert_eq!(stats.epochs_published, 2);
        assert_eq!(
            stats.delta_epochs, 1,
            "the stale-base epoch is not a delta epoch"
        );
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.rows_total, 24);
        assert_eq!(
            stats.rows_shipped, 15,
            "3 delta rows, then 12 full-slice rows"
        );
        fleet.shutdown();
    }

    #[test]
    fn top_words_merge_matches_the_unsharded_snapshot() {
        // Distinct per-word counts so the global ranking has no ties.
        let mut model = LdaModel::new(12, 3, 0.05, 0.01).unwrap();
        for v in 0..12 {
            model.word_topic_mut()[(v, v % 3)] = 10 + v as u32;
        }
        model.refresh_probabilities();
        let snapshot = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let direct = snapshot.top_words(2, 4);
        let router = ShardRouter::start(
            snapshot,
            ShardPlan::uniform(12, 4).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        assert_eq!(router.top_words(2, 4).unwrap(), direct);
        assert!(matches!(
            router.top_words(3, 4),
            Err(ServeError::BadRequest { .. })
        ));
        router.shutdown();
    }

    #[test]
    fn merged_stats_cover_every_shard() {
        let router = router(3, FoldInKind::Esca);
        for seed in 0..6 {
            // Words 0, 5 and 9 live on shards 0, 1 and 2 of the 12-word
            // plan, so every shard sees traffic.
            router.infer_topics(vec![0, 5, 9], seed).unwrap();
        }
        let merged = router.stats();
        assert_eq!(merged.requests, 18, "3 shard requests per document");
        assert_eq!(merged.tokens, 18);
        assert_eq!(merged.latency.count(), 18);
        let per_shard = router.shard_stats();
        assert_eq!(per_shard.len(), 3);
        assert!(per_shard.iter().all(|s| s.requests == 6));
        let routed = router.router_stats();
        assert_eq!(routed.requests, 6);
        assert_eq!(
            routed.shard_requests,
            vec![6, 6, 6],
            "router-side per-shard request counters"
        );
        router.shutdown();
    }

    #[test]
    fn with_transports_validates_the_fleet_shape() {
        // A hand-built local fleet over mismatched plans is refused.
        let model = planted_model(12, 3);
        let config = ServeConfig::default();
        let build = |range: std::ops::Range<u32>| {
            let snapshot = InferenceSnapshot::from_model(&model, config.sampler);
            LocalTransport::with_range(
                TopicServer::start(snapshot.shard(range.clone()), config).unwrap(),
                range,
            )
        };
        // Wrong transport count.
        assert!(matches!(
            ShardRouter::with_transports(
                ShardPlan::uniform(12, 2).unwrap(),
                vec![build(0..6)],
                config
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Shard width disagrees with the plan.
        assert!(matches!(
            ShardRouter::with_transports(
                ShardPlan::uniform(12, 2).unwrap(),
                vec![build(0..6), build(6..11)],
                config
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Fold-in parameters disagree with the router's.
        let em = ServeConfig {
            fold_in: FoldInParams {
                kind: FoldInKind::Em,
                ..FoldInParams::default()
            },
            ..config
        };
        assert!(matches!(
            ShardRouter::with_transports(
                ShardPlan::uniform(12, 2).unwrap(),
                vec![build(0..6), build(6..12)],
                em
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
        // A well-formed hand-built fleet works and matches ShardRouter::start.
        let hand_built = ShardRouter::with_transports(
            ShardPlan::uniform(12, 2).unwrap(),
            vec![build(0..6), build(6..12)],
            config,
        )
        .unwrap();
        let reference =
            ShardRouter::from_model(&model, ShardPlan::uniform(12, 2).unwrap(), config).unwrap();
        let a = hand_built.infer_topics(vec![1, 4, 7, 10], 3).unwrap();
        let b = reference.infer_topics(vec![1, 4, 7, 10], 3).unwrap();
        assert_eq!(
            a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        hand_built.shutdown();
        reference.shutdown();
    }
}
