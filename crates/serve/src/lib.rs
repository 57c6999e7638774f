//! Batched online topic inference over trained SaberLDA models.
//!
//! Training (the subject of the paper, reproduced in `saber-core`) produces
//! a topic–word matrix; *using* it means answering "what is this document
//! about?" quickly, concurrently, and against a model that keeps improving.
//! This crate turns an [`LdaModel`](saber_core::LdaModel) into that service:
//!
//! * [`InferenceSnapshot`] — an immutable export of the model: normalised
//!   `B̂` plus one pre-processed per-word sampling structure
//!   ([`SnapshotSampler`]: W-ary tree or alias table, the same §3.2.4
//!   trade-off the paper studies for training). Sized ahead of publication
//!   by the core memory estimator.
//! * [`SnapshotCell`] — hot model swap: a trainer publishes refreshed
//!   snapshots between iterations while serving continues; in-flight
//!   requests keep the snapshot they started with, workers pick up the new
//!   one at their next micro-batch with a single atomic check on the fast
//!   path.
//! * [`TopicServer`] — a pool of worker threads behind a bounded queue that
//!   coalesces requests into micro-batches. Inference is the sparsity-aware
//!   ESCA fold-in of [`saber_core::infer`] (`O(K_d)` per token, not
//!   `O(K)`), and every request carries its own seed, so answers are
//!   bit-reproducible regardless of batching, scheduling or concurrency.
//! * Query API: [`TopicServer::infer_topics`] and
//!   [`TopicServer::infer_raw`] (raw tokens +
//!   [`OovPolicy`](saber_corpus::OovPolicy)) block on a full queue;
//!   [`TopicServer::infer_with_trace`] — and
//!   [`TopicServer::infer_with_deadline`], the same call under a disabled
//!   trace builder — fail fast and bound the wait. Every entry point is a
//!   wrapper over one admission core (the request-path table in
//!   `docs/SERVING.md`). Plus [`TopicServer::top_words`] and document
//!   similarity in topic space ([`similarity`]).
//! * [`ShardPlan`] + [`ShardRouter`] — vocabulary-sharded serving for
//!   models whose snapshot exceeds one worker pool's memory budget: the
//!   vocabulary is cut into byte-budgeted contiguous ranges ([`shard`]),
//!   each range served by its own `TopicServer` over an
//!   [`InferenceSnapshot::shard`] slice, and a merging router
//!   ([`router`]) splits documents, fans out partial fold-ins and merges
//!   partial θ — exactly (EM fold-in) or via independent seeded chains
//!   (ESCA), with all-or-nothing epoch publication across the fleet.
//!   Differential tests (`tests/sharded_serving.rs`) pin the equivalence
//!   to unsharded serving.
//! * [`ShardTransport`] ([`transport`]) — the seam that makes the router's
//!   fan-out location-agnostic: [`LocalTransport`] wraps in-process
//!   [`TopicServer`]s bit-identically, [`HttpTransport`] speaks the wire
//!   format to shard *processes* on other hosts (booted from
//!   [`InferenceSnapshot::save`]d slices), with two-phase stage/commit
//!   epoch publication and bit-exact remote EM
//!   (`tests/remote_sharding.rs`).
//! * [`HttpServer`] — a hand-rolled HTTP/1.1 front-end
//!   over `std::net` ([`http`], wire formats in [`wire`]) with read/write
//!   timeouts, per-request deadlines, and queue-full backpressure surfaced
//!   as `429`/`503` instead of unbounded waiting. Serves any
//!   [`InferenceBackend`] — a single server or a sharded router —
//!   transparently.
//! * [`stats`] — lock-free log-bucketed latency histograms behind
//!   [`ServeStats`] and the HTTP `/stats` endpoint's p50/p95/p99, with
//!   cross-shard merging ([`HistogramSnapshot::merge`],
//!   [`ServeStats::merge`]), a queue-wait/compute split per request, and
//!   per-bucket trace-id exemplars.
//! * Distributed tracing (`saber-trace`) — every HTTP inference carries a
//!   [`TraceBuilder`](saber_trace::TraceBuilder) (its id minted at ingress
//!   or parsed from `X-Saber-Trace`) down the one request path, where
//!   untraced in-process callers pass
//!   [`TraceBuilder::disabled`](saber_trace::TraceBuilder::disabled); the
//!   router's fan-out forwards its
//!   [`TraceContext`](saber_trace::TraceContext) to
//!   shard processes, whose span subtrees return inline in
//!   `/infer-partial` responses and are stitched into one cross-machine
//!   tree, browsable at `GET /trace/recent`. See `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use saber_core::LdaModel;
//! use saber_serve::{ServeConfig, TopicServer};
//!
//! // A toy "trained" model: word v belongs to topic v % 2.
//! let mut model = LdaModel::new(10, 2, 0.1, 0.01).unwrap();
//! for v in 0..10 {
//!     model.word_topic_mut()[(v, v % 2)] = 20;
//! }
//! model.refresh_probabilities();
//!
//! let server = TopicServer::from_model(&model, ServeConfig::default()).unwrap();
//! let response = server.infer_topics(vec![0, 2, 4, 6, 0, 2], 7).unwrap();
//! assert_eq!(response.dominant_topic(), 0);
//! assert_eq!(response.snapshot_version, 1);
//! ```
//!
//! `examples/serve_demo.rs` at the workspace root walks through the full
//! train → publish → concurrent-inference → hot-swap loop;
//! `examples/http_serve.rs` stands the same pipeline up behind the HTTP
//! listener. The crate-level architecture notes live in
//! `docs/ARCHITECTURE.md` and the wire protocol in `docs/SERVING.md`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod http;
pub mod router;
pub mod server;
pub mod shard;
pub mod similarity;
pub mod snapshot;
pub mod stats;
pub mod swap;
pub mod transport;
pub mod wire;

pub use http::{EndpointStats, HttpConfig, HttpServer, HttpStats};
pub use router::{FleetHealth, PipelineStats, ReplicaHealth, ReplicaSet, RouterStats, ShardRouter};
pub use server::{
    InferRequest, InferResponse, PartialRequest, PartialResponse, ServeConfig, ServeStats,
    TopicServer,
};
pub use shard::{derive_replica_choice, derive_shard_seed, ShardPlan};
pub use snapshot::{FoldInKind, FoldInParams, InferenceSnapshot, SnapshotSampler};
pub use stats::{HistogramSnapshot, LatencyHistogram};
pub use swap::SnapshotCell;
pub use transport::{
    HttpTransport, LocalTransport, PendingPartial, ReplicaBreaker, ShardInfo, ShardTransport,
    FAILURE_THRESHOLD,
};

/// The inference surface the HTTP front-end ([`HttpServer`]) serves.
///
/// Implemented by a single [`TopicServer`] and by a [`ShardRouter`]
/// fronting a vocabulary-sharded fleet, so the listener — and therefore
/// every client — is transparent to sharding: same endpoints, same wire
/// formats, same determinism guarantees. The only observable difference is
/// the `shards` member of `/healthz` and `/stats`.
pub trait InferenceBackend: Send + Sync + std::fmt::Debug {
    /// Fail-fast, deadline-bounded inference over word ids, recording child
    /// spans under `parent` in `trace` — the single inference path, and the
    /// one `POST /infer` drives. [`TopicServer`] records
    /// `queue-wait`/`handler` spans and [`ShardRouter`] a full fan-out
    /// subtree; a [disabled](saber_trace::TraceBuilder::disabled) builder
    /// records nothing. Implementations must never let tracing perturb the
    /// answer.
    ///
    /// # Errors
    ///
    /// Backend-dependent; see [`TopicServer::infer_with_deadline`] and
    /// [`ShardRouter::infer_with_deadline`].
    fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: std::time::Duration,
        trace: &mut saber_trace::TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError>;

    /// [`InferenceBackend::infer_with_trace`], untraced.
    ///
    /// # Errors
    ///
    /// As [`InferenceBackend::infer_with_trace`].
    fn infer_with_deadline(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: std::time::Duration,
    ) -> Result<InferResponse, ServeError> {
        let mut trace = saber_trace::TraceBuilder::disabled();
        self.infer_with_trace(words, seed, deadline, &mut trace, 0)
    }

    /// The `n` highest-probability words of topic `k` (global word ids).
    ///
    /// Range-checks and fetches against **one** snapshot load, so a
    /// concurrent publish can never panic the caller between a check and
    /// the fetch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `k` is outside the served
    /// topic count.
    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError>;

    /// Number of topics `K`.
    fn n_topics(&self) -> usize;

    /// Total served vocabulary size `V`.
    fn vocab_size(&self) -> usize;

    /// Version of the currently served snapshot (the epoch, for a sharded
    /// fleet).
    fn snapshot_version(&self) -> u64;

    /// Number of shards serving the model (1 for a plain [`TopicServer`]).
    fn n_shards(&self) -> usize;

    /// Serving counters, aggregated across shards.
    fn serve_stats(&self) -> ServeStats;

    /// Document–topic smoothing α of the served model (reported by
    /// `GET /shard-info` so a remote router can validate and merge).
    fn alpha(&self) -> f32;

    /// The fold-in parameters applied to every request (reported by
    /// `GET /shard-info`; a remote router refuses a shard whose parameters
    /// disagree with its own).
    fn fold_in_params(&self) -> FoldInParams;

    /// Router-level counters, when this backend *is* a router (`None` for
    /// a plain [`TopicServer`]); surfaced in `GET /stats` and `/metrics`.
    fn router_stats(&self) -> Option<RouterStats> {
        None
    }

    /// A live probe of the fleet's per-replica availability, when this
    /// backend *is* a router (`None` for a plain [`TopicServer`], whose
    /// reachability is the connection itself). `GET /healthz` serves this
    /// and answers 503 when the fleet is [degraded](FleetHealth::degraded),
    /// so load balancers stop routing to a router that cannot answer.
    fn fleet_health(&self) -> Option<FleetHealth> {
        None
    }

    /// The server behind the shard endpoints (`POST /infer-partial`,
    /// `/publish-shard`, `/publish-delta` and `/commit-epoch`), when this
    /// backend *is* a shard: a [`TopicServer`] returns itself. The default
    /// `None`, a router's answer, makes those endpoints refuse with `400`.
    fn shard(&self) -> Option<&TopicServer> {
        None
    }
}

impl InferenceBackend for TopicServer {
    fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: std::time::Duration,
        trace: &mut saber_trace::TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        TopicServer::infer_with_trace(self, words, seed, deadline, trace, parent)
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        // One snapshot load for both the range check and the fetch: a
        // publish between two separate loads could shrink K and panic.
        let snapshot = self.snapshot();
        if k >= snapshot.n_topics() {
            return Err(ServeError::BadRequest {
                detail: format!("topic {k} out of range (K = {})", snapshot.n_topics()),
            });
        }
        Ok(snapshot.top_words(k, n))
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

    fn alpha(&self) -> f32 {
        self.snapshot().alpha()
    }

    fn fold_in_params(&self) -> FoldInParams {
        self.config().fold_in
    }

    fn shard(&self) -> Option<&TopicServer> {
        Some(self)
    }
}

impl<T: ShardTransport> InferenceBackend for ShardRouter<T> {
    fn infer_with_trace(
        &self,
        words: Vec<u32>,
        seed: u64,
        deadline: std::time::Duration,
        trace: &mut saber_trace::TraceBuilder,
        parent: u64,
    ) -> Result<InferResponse, ServeError> {
        ShardRouter::infer_with_trace(self, words, seed, deadline, trace, parent)
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        // The router's K is fixed at construction (publish validates the
        // shape), so the check cannot race a publication.
        ShardRouter::top_words(self, k, n)
    }

    fn n_topics(&self) -> usize {
        ShardRouter::n_topics(self)
    }

    fn vocab_size(&self) -> usize {
        ShardRouter::vocab_size(self)
    }

    fn snapshot_version(&self) -> u64 {
        self.epoch()
    }

    fn n_shards(&self) -> usize {
        ShardRouter::n_shards(self)
    }

    fn serve_stats(&self) -> ServeStats {
        self.stats()
    }

    fn alpha(&self) -> f32 {
        ShardRouter::alpha(self)
    }

    fn fold_in_params(&self) -> FoldInParams {
        self.config().fold_in
    }

    fn router_stats(&self) -> Option<RouterStats> {
        Some(ShardRouter::router_stats(self))
    }

    fn fleet_health(&self) -> Option<FleetHealth> {
        Some(ShardRouter::fleet_health(self))
    }
}

/// Errors produced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration is inconsistent or out of supported range.
    InvalidConfig {
        /// Human readable description.
        detail: String,
    },
    /// The worker pool has shut down; no further requests are accepted.
    Closed,
    /// The bounded request queue is full (fail-fast admission control).
    Overloaded,
    /// The request was admitted but no answer arrived within the caller's
    /// deadline (see [`TopicServer::infer_with_deadline`]).
    DeadlineExceeded,
    /// A request carried a word id outside the served vocabulary, or a
    /// shape this server can never serve.
    BadRequest {
        /// Human readable description.
        detail: String,
    },
    /// A publication step disagrees with the epoch the shard serves or has
    /// staged: a stage for an epoch not ahead of the served one, a commit
    /// with nothing matching staged, or an `X-Saber-Epoch` that contradicts
    /// the body. The publisher's view of the fleet is stale (HTTP `409`).
    Conflict {
        /// Human readable description.
        detail: String,
    },
    /// A shard holds no snapshot of the epoch a read was pinned to: it
    /// staged past it, or another router published past it (see
    /// [`ShardRouter`]'s epoch protocol). HTTP `503`.
    ShardVersionSkew,
    /// A remote shard could not be reached, or answered something that is
    /// not the wire protocol (see [`HttpTransport`]). Distinct from
    /// [`ServeError::Closed`]: the local fleet is fine, the network or the
    /// shard process is not.
    Transport {
        /// Human readable description of the cause.
        detail: String,
        /// Index of the shard whose exchange failed, when the failure can
        /// be attributed (a router fills this in during fan-out so a 502
        /// names its culprit).
        shard: Option<usize>,
        /// Address of the peer whose exchange failed, when known.
        addr: Option<String>,
    },
    /// Raw-token encoding failed (e.g. out-of-vocabulary word under
    /// [`saber_corpus::OovPolicy::Fail`]).
    Corpus(saber_corpus::CorpusError),
    /// A broken internal invariant that would previously have panicked a
    /// serving thread: a worker answered with the wrong reply kind, the OS
    /// refused to spawn a thread, a router observed an impossible state.
    /// Serving degrades to a 500 on the one request instead of killing the
    /// shard for everyone.
    Internal {
        /// Human readable description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            ServeError::Closed => write!(f, "serving worker pool has shut down"),
            ServeError::Overloaded => write!(f, "request queue is full"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Conflict { detail } => write!(f, "publication conflict: {detail}"),
            ServeError::ShardVersionSkew => {
                write!(f, "shard snapshot versions diverged during the request")
            }
            ServeError::Transport {
                detail,
                shard,
                addr,
            } => {
                write!(f, "shard transport error")?;
                if let Some(shard) = shard {
                    write!(f, " (shard {shard})")?;
                }
                if let Some(addr) = addr {
                    write!(f, " at {addr}")?;
                }
                write!(f, ": {detail}")
            }
            ServeError::Corpus(e) => write!(f, "corpus error: {e}"),
            ServeError::Internal { detail } => write!(f, "internal serving error: {detail}"),
        }
    }
}

impl ServeError {
    /// A [`ServeError::Transport`] with no culprit attribution — the shape
    /// the wire decoder uses for errors relayed verbatim from a remote peer
    /// (whose own detail string already names itself). Transports and
    /// routers that *can* attribute the failure fill in the
    /// [`shard`](ServeError::Transport::shard) and
    /// [`addr`](ServeError::Transport::addr) fields instead.
    pub fn transport(detail: impl Into<String>) -> Self {
        ServeError::Transport {
            detail: detail.into(),
            shard: None,
            addr: None,
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Corpus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<saber_corpus::CorpusError> for ServeError {
    fn from(e: saber_corpus::CorpusError) -> Self {
        ServeError::Corpus(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = ServeError::InvalidConfig {
            detail: "zero workers".into(),
        };
        assert!(e.to_string().contains("zero workers"));
        assert!(e.source().is_none());
        assert!(ServeError::Closed.to_string().contains("shut down"));
        assert!(ServeError::Overloaded.to_string().contains("full"));
        // A transport failure names its culprit when the caller could
        // attribute it, and degrades gracefully when it could not.
        let e = ServeError::Transport {
            detail: "connection refused".into(),
            shard: Some(2),
            addr: Some("10.0.0.7:4242".into()),
        };
        assert_eq!(
            e.to_string(),
            "shard transport error (shard 2) at 10.0.0.7:4242: connection refused"
        );
        assert_eq!(
            ServeError::transport("timed out").to_string(),
            "shard transport error: timed out"
        );
        let e: ServeError = saber_corpus::CorpusError::ParseError {
            line: 0,
            detail: "oov".into(),
        }
        .into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        assert_send_sync::<TopicServer>();
    }
}
