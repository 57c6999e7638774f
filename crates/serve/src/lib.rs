//! Online topic inference over trained SaberLDA models.
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
//! * Hot model swap — a trainer stages and commits refreshed snapshots
//!   between iterations ([`TopicServer::stage`] + [`TopicServer::commit`],
//!   the only way a server's snapshot changes) while serving continues.
//!   Each server keeps one record of its epochs, the staged, the live and
//!   the last-replaced snapshot, each paired once with its epoch; a
//!   snapshot itself carries none. In-flight requests keep the snapshot
//!   they started with, workers pick up the new one at their next job.
//! * [`TopicServer`] — a pool of worker threads behind a bounded queue,
//!   each answering one job per turn; a shard's partial is answered on its
//!   caller's thread instead while a worker slot is free. Inference is the
//!   sparsity-aware ESCA fold-in of [`saber_core::infer`] (`O(K_d)` per
//!   token, not `O(K)`), and every request carries its own seed, so answers
//!   are bit-reproducible regardless of scheduling or concurrency.
//! * Query API: one read call per serving type,
//!   [`InferenceBackend::infer_with_trace`] — and
//!   [`InferenceBackend::infer_with_deadline`], the same call under a
//!   disabled trace builder — which bounds the wait by its deadline (raw
//!   tokens are encoded by the caller with
//!   [`Vocabulary::encode`](saber_corpus::Vocabulary::encode), as the HTTP
//!   `/infer` handler does). A shard's partial is
//!   [`TopicServer::infer_partial`]; the request-path table in
//!   `docs/SERVING.md` lists every entry. A topic's highest-probability
//!   words are read from the trainer's
//!   [`LdaModel`](saber_core::LdaModel), whose `B̂` the snapshot copies bit
//!   for bit.
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
//!   [`ServeStats::merge`]) and a queue-wait/compute split per request.
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
//! use std::time::Duration;
//!
//! use saber_core::LdaModel;
//! use saber_serve::{InferenceBackend, ServeConfig, TopicServer};
//!
//! // A toy "trained" model: word v belongs to topic v % 2.
//! let mut model = LdaModel::new(10, 2, 0.1, 0.01).unwrap();
//! for v in 0..10 {
//!     model.word_topic_mut()[(v, v % 2)] = 20;
//! }
//! model.refresh_probabilities();
//!
//! let server = TopicServer::from_model(&model, ServeConfig::default()).unwrap();
//! let words = vec![0, 2, 4, 6, 0, 2];
//! let response = server.infer_with_deadline(words, 7, Duration::from_secs(1)).unwrap();
//! assert_eq!(response.dominant_topic(), 0);
//! assert_eq!(response.snapshot_version, 1);
//! ```
//!
//! `examples/http_serve.rs` at the workspace root trains a model and stands
//! it up behind the HTTP listener; `examples/saber_shardd.rs` runs a
//! fleet of shard processes behind a router and publishes an epoch to it.
//! The crate-level architecture notes live in
//! `docs/ARCHITECTURE.md` and the wire protocol in `docs/SERVING.md`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// Panic-freedom: a shard must degrade (return an error), not die. Test code
// may unwrap.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]
// Bounded allocation is `clippy.toml`'s disallowed methods; test code may
// size its buffers freely.
#![cfg_attr(
    test,
    expect(clippy::disallowed_methods, reason = "test inputs have fixed sizes")
)]
// Every suppression is an `#[expect(lint, reason = "..")]`, which fails the
// build once it suppresses nothing.
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod breaker;
pub mod http;
pub mod router;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod stats;
mod swap;
pub mod transport;
pub mod wire;

pub use breaker::{ReplicaBreaker, FAILURE_THRESHOLD};
pub use http::{EndpointStats, HttpConfig, HttpServer, HttpStats};
pub use router::{FleetHealth, PipelineStats, ReplicaHealth, ReplicaSet, RouterStats, ShardRouter};
pub use server::{
    InferResponse, PartialRequest, PartialResponse, Publication, ServeConfig, ServeStats,
    TopicServer,
};
pub use shard::{derive_replica_choice, derive_shard_seed, ShardPlan};
pub use snapshot::{FoldInKind, FoldInParams, InferenceSnapshot, SnapshotSampler};
pub use stats::{HistogramSnapshot, LatencyHistogram};
pub use transport::{HttpTransport, LocalTransport, PendingPartial, ShardInfo, ShardTransport};

/// The inference surface the HTTP front-end ([`HttpServer`]) serves.
///
/// Implemented by a single [`TopicServer`] and by a [`ShardRouter`]
/// fronting a vocabulary-sharded fleet, so the listener — and therefore
/// every client — is transparent to sharding: same endpoints, same wire
/// formats, same determinism guarantees. The only observable difference is
/// the `shards` member of `/healthz` and `/stats`.
pub trait InferenceBackend: Send + Sync + std::fmt::Debug {
    /// Deadline-bounded inference over word ids, recording child spans
    /// under `parent` in `trace` — each backend's one read body, and the
    /// one `POST /infer` drives. [`TopicServer`] records
    /// `queue-wait`/`handler` spans and [`ShardRouter`] a full fan-out
    /// subtree; a [disabled](saber_trace::TraceBuilder::disabled) builder
    /// records nothing. Implementations must never let tracing perturb the
    /// answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for out-of-vocabulary word ids,
    /// [`ServeError::Overloaded`] when a queue is full,
    /// [`ServeError::DeadlineExceeded`] when no answer arrives in time and
    /// [`ServeError::Closed`] after shutdown; a router also reports
    /// [`ServeError::Transport`] for unreachable remote shards and
    /// [`ServeError::ShardVersionSkew`] when some shard range holds no
    /// snapshot of its epoch.
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

    /// The server behind the shard endpoints (`GET /shard-info`,
    /// `POST /infer-partial`, `/publish-shard`, `/publish-delta` and
    /// `/commit-epoch`), when this
    /// backend *is* a shard: a [`TopicServer`] returns itself. The default
    /// `None`, a router's answer, makes those endpoints refuse with `400`.
    fn shard(&self) -> Option<&TopicServer> {
        None
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
    /// deadline (see [`InferenceBackend::infer_with_deadline`]).
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
    /// serving thread: the OS refused to spawn a thread, a router observed
    /// an impossible state.
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
