//! A hand-rolled HTTP/1.1 front-end for any [`InferenceBackend`], over
//! `std::net`.
//!
//! The build environment has no crates.io access, so there is no tokio or
//! hyper here: a blocking [`std::net::TcpListener`], one OS thread per live
//! connection (capped by [`HttpConfig::max_connections`]), persistent
//! connections with explicit read/write timeouts, and a small HTTP/1.1
//! parser that understands exactly what this service needs. What makes it
//! production-shaped is the *failure* behaviour, which maps the serving
//! layer's fail-fast admission control onto HTTP status codes:
//!
//! | Condition | Response |
//! |---|---|
//! | request queue full ([`ServeError::Overloaded`]) | `429 Too Many Requests` |
//! | reply missed [`HttpConfig::request_deadline`] | `503 Service Unavailable` |
//! | connection cap reached | `503 Service Unavailable` |
//! | worker pool shut down | `503 Service Unavailable` |
//! | malformed body / unknown word id / OOV under `fail` | `400 Bad Request` |
//! | publication at a stale epoch ([`ServeError::Conflict`]) | `409 Conflict` |
//! | socket idle past the read timeout | connection closed (`408` mid-request) |
//!
//! Under overload the listener therefore *degrades* — some requests are
//! refused quickly with a retryable status — instead of queueing without
//! bound and taking every client's latency with it.
//!
//! Every endpoint's service time is recorded into a lock-free
//! [`LatencyHistogram`], and `GET /stats` reports p50/p95/p99 per endpoint
//! alongside the [`crate::TopicServer`] counters. The wire formats live in
//! [`crate::wire`] and are documented in `docs/SERVING.md`; the endpoints:
//!
//! * `POST /infer` — topic inference for word-id or raw-token documents,
//!   deterministic per seed (`X-Saber-Seed` header or `"seed"` body member).
//! * `GET /stats` — counters plus latency percentiles (including
//!   router-level epoch/retry/per-shard counters when the backend is a
//!   [`ShardRouter`](crate::ShardRouter)).
//! * `GET /metrics` — the same counters in Prometheus text exposition
//!   format, with cumulative latency histogram buckets.
//! * `GET /healthz` — liveness plus the served snapshot version.
//! * `GET /trace/recent` — recently completed request traces (every
//!   `/infer` is traced end to end, fan-out and shard spans included) plus
//!   the slow-request capture; see `docs/OBSERVABILITY.md`.
//!
//! When the backend is a single [`TopicServer`] the listener additionally
//! speaks the *shard protocol* that lets a
//! [`ShardRouter`](crate::ShardRouter) on another machine fan out to it
//! (see [`crate::transport::HttpTransport`] and `docs/SERVING.md`); a
//! router-backed listener answers `400` to all five endpoints, so no router
//! can be built over another router's front:
//!
//! * `POST /infer-partial` — one shard's half of a fan-out (ESCA chain
//!   seed or EM round + θ in, partial counts + snapshot version out),
//!   from the snapshot of its `X-Saber-Epoch` pin (`503` if not held).
//! * `GET /shard-info` — shape, α, fold-in parameters, epoch and full
//!   serving counters ([`TopicServer::shard_info`]), for fleet validation
//!   and stats aggregation.
//! * `POST /publish-shard` and `/publish-delta` — stage an epoch-tagged
//!   `SABRSNAP` slice or a `SABRDELTA` patch over the served snapshot
//!   without serving it, by the rules of [`TopicServer::stage`]; one
//!   handler judges either body's header under the publish lock before
//!   decoding a row.
//! * `POST /commit-epoch` — swaps to the staged epoch
//!   ([`TopicServer::commit`]).
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use std::sync::Arc;
//! use saber_core::LdaModel;
//! use saber_serve::http::{HttpConfig, HttpServer};
//! use saber_serve::{ServeConfig, TopicServer};
//!
//! let mut model = LdaModel::new(10, 2, 0.1, 0.01).unwrap();
//! for v in 0..10 {
//!     model.word_topic_mut()[(v, v % 2)] = 20;
//! }
//! model.refresh_probabilities();
//! let server = Arc::new(TopicServer::from_model(&model, ServeConfig::default()).unwrap());
//!
//! // Port 0 = OS-assigned; `local_addr` reports what was bound.
//! let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(http.local_addr()).unwrap();
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
//! http.shutdown();
//! ```

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use saber_core::json::JsonValue;
use saber_core::{model_io, SaberError};
use saber_corpus::Vocabulary;
use saber_trace::{SlowCapture, Trace, TraceBuilder, TraceContext, TraceId, TraceRing};

use crate::server::{check_target, delta_refused};
use crate::snapshot::InferenceSnapshot;
use crate::stats::{HistogramSnapshot, LatencyHistogram};
use crate::wire::{self, InferBody};
use crate::{InferenceBackend, RouterStats, ServeError, ServeStats, TopicServer};

/// Transport configuration of an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Read patience, applied twice: as the per-`read` socket timeout (an
    /// idle keep-alive connection closes after this much silence) and as
    /// the total budget for reading one request, started at its first byte
    /// (a client trickling bytes to hold the connection — slowloris — is
    /// cut off with `408` once the budget is spent, instead of resetting
    /// the clock on every byte).
    pub read_timeout: Duration,
    /// End-to-end deadline for one `/infer` inference: the request is
    /// admitted fail-fast and its reply awaited at most this long before
    /// answering `503`.
    pub request_deadline: Duration,
    /// Maximum concurrently served connections; excess connections receive
    /// an immediate `503` and are closed.
    pub max_connections: usize,
    /// Largest accepted request body (`413` above it), except on a shard's
    /// two publication endpoints, whose bodies are bounded by the served shape
    /// instead: `POST /publish-shard` by the encoded size of a `V × K`
    /// `SABRSNAP`, `POST /publish-delta` by that of a `SABRDELTA` touching
    /// all `V` rows.
    pub max_body_bytes: usize,
    /// The global word-id range `[start, end)` this server serves when it
    /// is one shard of a cross-machine fleet (reported by `GET
    /// /shard-info`). `None` — the default — reports the local
    /// `[0, vocab_size)`, which is also correct for unsharded servers.
    pub shard_range: Option<(u32, u32)>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(2),
            max_connections: 64,
            max_body_bytes: 1 << 20,
            shard_range: None,
        }
    }
}

/// Socket write timeout: a client that stops draining its receive window
/// has its connection dropped after this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Seed used when a request carries neither an `X-Saber-Seed` header nor
/// a `"seed"` body member: a fixed default keeps even seedless traffic
/// deterministic.
const DEFAULT_SEED: u64 = 0;
/// Capacity of the ring of recently completed request traces served by
/// `GET /trace/recent`.
const TRACE_RING: usize = 64;
/// Latency at or above which a finished trace qualifies for the
/// slow-request capture.
const SLOW_TRACE_THRESHOLD: Duration = Duration::from_millis(250);
/// How many worst-case traces the slow-request capture retains.
const SLOW_TRACE_KEEP: usize = 8;

/// Point-in-time latency split of one endpoint: the end-to-end service
/// time plus the queue-wait/handler decomposition recovered from request
/// traces — one sample per answered `/infer`. The endpoints that never
/// queue on the worker pool (`/stats`, `/healthz`) report empty
/// `queue_wait`/`handler` histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Parse → response written.
    pub total: HistogramSnapshot,
    /// Time requests spent queued before a worker dequeued them.
    pub queue_wait: HistogramSnapshot,
    /// Worker compute time alone (dequeue → reply).
    pub handler: HistogramSnapshot,
}

/// Point-in-time HTTP-layer statistics (the transport-side complement of
/// [`crate::ServeStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpStats {
    /// Requests parsed and routed (any status).
    pub requests: u64,
    /// Responses with a 4xx/5xx status.
    pub errors: u64,
    /// Connections currently being served.
    pub active_connections: usize,
    /// Latency of `POST /infer`, split into queue wait and handler time.
    pub infer: EndpointStats,
    /// Latency of `GET /stats`.
    pub stats: EndpointStats,
    /// Latency of `GET /healthz`.
    pub healthz: EndpointStats,
}

/// One endpoint's live histograms behind [`EndpointStats`].
#[derive(Debug, Default)]
struct EndpointTimers {
    total: LatencyHistogram,
    queue_wait: LatencyHistogram,
    handler: LatencyHistogram,
}

impl EndpointTimers {
    fn snapshot(&self) -> EndpointStats {
        EndpointStats {
            total: self.total.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            handler: self.handler.snapshot(),
        }
    }
}

#[derive(Debug, Default)]
struct EndpointHistograms {
    infer: EndpointTimers,
    stats: EndpointTimers,
    healthz: EndpointTimers,
}

#[derive(Debug)]
struct HttpState {
    backend: Arc<dyn InferenceBackend>,
    vocab: Option<Vocabulary>,
    config: HttpConfig,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    requests: AtomicU64,
    errors: AtomicU64,
    endpoints: EndpointHistograms,
    /// Recently completed request traces, served by `GET /trace/recent`.
    ring: TraceRing,
    /// The worst traces above [`SLOW_TRACE_THRESHOLD`].
    slow: SlowCapture,
}

/// The HTTP front-end: an accept loop plus one thread per live connection.
///
/// Binding takes an `Arc` of any [`InferenceBackend`] — a single
/// [`TopicServer`] or a sharded
/// [`ShardRouter`](crate::ShardRouter) — rather than owning it, so the
/// same worker pool can simultaneously serve in-process callers (and a
/// training loop can keep publishing snapshots through its own handle).
/// Dropping the `HttpServer` — or calling [`HttpServer::shutdown`] for an
/// observable join — stops accepting, wakes the accept loop, and joins all
/// connection threads.
#[derive(Debug)]
pub struct HttpServer {
    state: Arc<HttpState>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections for `backend` — a
    /// [`TopicServer`] or a
    /// [`ShardRouter`](crate::ShardRouter); the listener (and therefore
    /// every client) is agnostic to which. A `vocab` enables the raw-token
    /// `/infer` path.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn bind<B: InferenceBackend + 'static>(
        addr: impl ToSocketAddrs,
        backend: Arc<B>,
        vocab: Option<Vocabulary>,
        config: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let ring = TraceRing::new(TRACE_RING);
        let slow = SlowCapture::new(SLOW_TRACE_THRESHOLD, SLOW_TRACE_KEEP);
        let state = Arc::new(HttpState {
            backend,
            vocab,
            config,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            endpoints: EndpointHistograms::default(),
            ring,
            slow,
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("saber-http-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(HttpServer {
            state,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the HTTP-layer statistics.
    pub fn stats(&self) -> HttpStats {
        http_stats(&self.state)
    }

    /// Stops accepting, closes listening, and joins every connection
    /// thread. In-flight requests finish (their responses are written);
    /// idle keep-alive connections close within the read timeout. Called
    /// automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection so it observes
        // the flag without waiting for external traffic — but only while
        // there is still a thread to wake (`shutdown` followed by `Drop`
        // must not poke the released port, which another process may have
        // rebound by then). A wildcard bind (0.0.0.0 / ::) is not
        // connectable on every platform; aim the wake-up at loopback on
        // the bound port instead.
        if let Some(handle) = self.accept_thread.take() {
            let mut wake_addr = self.local_addr;
            if wake_addr.ip().is_unspecified() {
                wake_addr.set_ip(match wake_addr {
                    SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<HttpState>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => {
                // Transient (ECONNABORTED) and persistent (EMFILE) accept
                // errors alike: back off instead of spinning a core, giving
                // connection threads a chance to finish and free fds.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        connections.retain(|handle| !handle.is_finished());
        // Admission control at the transport layer: over the cap, answer
        // 503 inline (cheap) instead of spawning a thread.
        if state.active_connections.load(Ordering::Relaxed) >= state.config.max_connections {
            state.errors.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let body = wire::encode_error(503, "connection limit reached").to_string();
            let _ = write_response(&stream, 503, &body, false, &[], JSON_CONTENT_TYPE);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        state.active_connections.fetch_add(1, Ordering::Relaxed);
        let conn_state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("saber-http-conn".into())
            .spawn(move || {
                // Decrement from a drop guard so a panicking handler can't
                // leak its slot and creep the pool toward the connection
                // cap.
                let _slot = ConnectionSlot(&conn_state);
                serve_connection(stream, &conn_state);
            });
        match spawned {
            Ok(handle) => connections.push(handle),
            Err(_) => {
                state.active_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Releases a connection's `active_connections` slot on drop — panic-safe,
/// unlike decrementing after the serve call returns.
struct ConnectionSlot<'a>(&'a HttpState);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One parsed HTTP request.
struct Request {
    method: String,
    /// The request target up to any `?`.
    path: String,
    /// Header names lowercased at parse time.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why reading a request off the socket stopped.
enum ReadOutcome {
    Request(Request),
    /// Clean close (EOF before any request byte) or idle timeout: close
    /// silently.
    Closed,
    /// A malformed or over-limit request: answer `status` and close.
    Reject(u16, String),
}

fn serve_connection(stream: TcpStream, state: &Arc<HttpState>) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader, &stream, state) {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::Reject(status, detail) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                state.errors.fetch_add(1, Ordering::Relaxed);
                let body = wire::encode_error(status, &detail).to_string();
                let _ = write_response(&stream, status, &body, false, &[], JSON_CONTENT_TYPE);
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        let started = Instant::now();
        let (status, body, endpoint, content_type) = route(&request, state);
        if status >= 400 {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
        let extra: &[(&str, &str)] = if status == 429 {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        let write_ok =
            write_response(&stream, status, &body, keep_alive, extra, content_type).is_ok();
        if let Some(endpoint) = endpoint {
            endpoint_timers(state, endpoint)
                .total
                .record(started.elapsed());
        }
        if !keep_alive || !write_ok {
            return;
        }
    }
}

/// The service endpoints with per-endpoint latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Infer,
    Stats,
    Healthz,
}

fn endpoint_timers(state: &HttpState, endpoint: Endpoint) -> &EndpointTimers {
    match endpoint {
        Endpoint::Infer => &state.endpoints.infer,
        Endpoint::Stats => &state.endpoints.stats,
        Endpoint::Healthz => &state.endpoints.healthz,
    }
}

/// The `Content-Type` of every JSON endpoint.
const JSON_CONTENT_TYPE: &str = "application/json";
/// The `Content-Type` of the Prometheus text exposition format.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Dispatches one request; returns `(status, response body, endpoint for
/// latency accounting, content type)`.
fn route(request: &Request, state: &HttpState) -> (u16, String, Option<Endpoint>, &'static str) {
    let mut content_type = JSON_CONTENT_TYPE;
    let ((status, body), endpoint) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (handle_healthz(state), Some(Endpoint::Healthz)),
        ("GET", "/stats") => (
            handle_stats(state, wire::encode_stats_body),
            Some(Endpoint::Stats),
        ),
        ("POST", "/infer") => trace_request(request, state),
        // Fleet-internal endpoints (shard fan-out, epoch publication,
        // scrapes, trace retrieval): routed but not part of the
        // per-endpoint latency histograms, which stay focused on
        // client-facing traffic.
        ("GET", "/metrics") => {
            content_type = METRICS_CONTENT_TYPE;
            (handle_stats(state, wire::encode_prometheus), None)
        }
        ("GET", "/trace/recent") => (handle_trace_recent(state), None),
        ("GET", "/shard-info")
        | ("POST", "/infer-partial" | "/publish-shard" | "/publish-delta" | "/commit-epoch") => {
            (handle_shard_protocol(request, state), None)
        }
        (_, "/healthz" | "/stats" | "/metrics" | "/shard-info" | "/trace/recent") => {
            (error(405, "use GET for this endpoint"), None)
        }
        (
            _,
            "/infer" | "/infer-partial" | "/publish-shard" | "/publish-delta" | "/commit-epoch",
        ) => (error(405, "use POST for this endpoint"), None),
        _ => (error(404, "unknown path"), None),
    };
    (status, body, endpoint, content_type)
}

fn handle_healthz(state: &HttpState) -> (u16, String) {
    let backend = &state.backend;
    // A router-backed listener live-probes its fleet: health answered
    // purely from local state would keep a load balancer routing to a
    // router whose entire fleet is down. Direct servers have no fleet —
    // their reachability *is* the connection — so their body (and the
    // remote `observe_epoch` seam that parses it) stays unchanged.
    let fleet = backend.fleet_health();
    let degraded = fleet.as_ref().is_some_and(|f| f.degraded);
    let mut members = vec![
        (
            "status",
            JsonValue::from(if degraded { "degraded" } else { "ok" }),
        ),
        (
            "snapshot_version",
            JsonValue::from(backend.snapshot_version()),
        ),
        ("n_topics", JsonValue::from(backend.n_topics())),
        ("vocab_size", JsonValue::from(backend.vocab_size())),
        ("shards", JsonValue::from(backend.n_shards())),
    ];
    if let Some(fleet) = &fleet {
        members.push((
            "fleet",
            JsonValue::Array(
                fleet
                    .shards
                    .iter()
                    .map(|replicas| {
                        JsonValue::Array(
                            replicas
                                .iter()
                                .map(|r| {
                                    JsonValue::object([
                                        ("reachable", JsonValue::Bool(r.reachable)),
                                        ("admitted", JsonValue::Bool(r.admitted)),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    let body = JsonValue::object(members);
    (if degraded { 503 } else { 200 }, body.to_string())
}

/// Collects the HTTP-layer counters; shared by [`HttpServer::stats`] and
/// the `/stats` handler so both report the same view.
fn http_stats(state: &HttpState) -> HttpStats {
    HttpStats {
        requests: state.requests.load(Ordering::Relaxed),
        errors: state.errors.load(Ordering::Relaxed),
        active_connections: state.active_connections.load(Ordering::Relaxed),
        infer: state.endpoints.infer.snapshot(),
        stats: state.endpoints.stats.snapshot(),
        healthz: state.endpoints.healthz.snapshot(),
    }
}

fn handle_trace_recent(state: &HttpState) -> (u16, String) {
    let body = wire::encode_trace_recent(
        &state.ring.recent(),
        &state.slow.worst(),
        state.slow.threshold_us(),
    )
    .to_string();
    (200, body)
}

/// `GET /stats` and `GET /metrics`: one point-in-time view of the serving,
/// router and HTTP counters, rendered by `encode`
/// ([`wire::encode_stats_body`] or [`wire::encode_prometheus`]).
fn handle_stats<B: ToString>(
    state: &HttpState,
    encode: fn(&ServeStats, u64, usize, &HttpStats, Option<&RouterStats>) -> B,
) -> (u16, String) {
    let router = state.backend.router_stats();
    let body = encode(
        &state.backend.serve_stats(),
        state.backend.snapshot_version(),
        state.backend.n_shards(),
        &http_stats(state),
        router.as_ref(),
    );
    (200, body.to_string())
}

/// The effective shard range reported to routers: the configured global
/// range, or the local id space for servers not told otherwise.
fn effective_shard_range(state: &HttpState) -> (u32, u32) {
    state
        .config
        .shard_range
        .unwrap_or((0, state.backend.vocab_size() as u32))
}

/// The shard protocol, answered by the server behind this listener. A
/// router-backed front has none (it is no one shard to describe, holds no
/// one snapshot to stage over, and could never commit one), so every shard
/// endpoint refuses it with `400` before its body is even parsed: a router
/// pointed at another router's front fails at construction.
fn handle_shard_protocol(request: &Request, state: &HttpState) -> (u16, String) {
    let Some(server) = state.backend.shard() else {
        let detail = match request.path.as_str() {
            "/infer-partial" => "this backend does not serve shard partials",
            "/shard-info" => "this backend does not describe a shard",
            _ => "this backend does not accept epoch publications",
        };
        return serve_error(&ServeError::BadRequest {
            detail: detail.into(),
        });
    };
    match request.path.as_str() {
        "/infer-partial" => handle_infer_partial(request, state, server),
        "/shard-info" => {
            let info = server.shard_info(state.config.shard_range);
            (200, wire::encode_shard_info(&info).to_string())
        }
        "/publish-shard" => handle_publish(request, server, Format::Snapshot),
        "/publish-delta" => handle_publish(request, server, Format::Delta),
        _ => handle_commit_epoch(request, server),
    }
}

fn handle_infer_partial(
    request: &Request,
    state: &HttpState,
    server: &TopicServer,
) -> (u16, String) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error(400, "request body is not valid UTF-8"),
    };
    let (words, partial) = match wire::decode_partial_request(text) {
        Ok(decoded) => decoded,
        Err(e) => return error(400, &e.detail),
    };
    // The epoch a router pins its read to; none means the live snapshot.
    let epoch = match saber_epoch(request) {
        Ok(epoch) => epoch,
        Err(refused) => return refused,
    };
    // A router that traces its fan-out forwards the trace id and the
    // shard's parent span in X-Saber-Trace; the shard then measures its
    // local subtree and ships the spans back inline in the response.
    let ctx = request
        .header("x-saber-trace")
        .and_then(TraceContext::parse)
        .unwrap_or_else(TraceContext::disabled);
    let deadline = Some(state.config.request_deadline);
    match server.partial(words, partial, epoch, deadline, ctx) {
        Ok(response) => {
            if let (Some(id), Some(root)) = (ctx.trace_id(), response.spans.first()) {
                // Also record the shard-local subtree in this process's
                // ring, so one shard can be inspected in isolation.
                state.ring.push(Trace {
                    trace_id: id,
                    total_us: root.start_us + root.duration_us,
                    spans: response.spans.clone(),
                });
            }
            (
                200,
                wire::encode_partial_response(&response, effective_shard_range(state)).to_string(),
            )
        }
        Err(e) => serve_error(&e),
    }
}

/// The body format of a publication: a whole `SABRSNAP` slice
/// (`/publish-shard`) or a `SABRDELTA` patch over the served snapshot
/// (`/publish-delta`).
#[derive(Debug, Clone, Copy)]
enum Format {
    Snapshot,
    Delta,
}

/// Stages a publication for the `X-Saber-Epoch` it names, by the rules of
/// [`TopicServer::stage`]. Its header is judged once, under
/// the publish lock, before a row is decoded: the rows of a body cut for
/// another shape cost up to dozens of times their bytes to build. A
/// declined delta is a `409`, on which the publisher falls back to a full
/// `/publish-shard`.
fn handle_publish(request: &Request, server: &TopicServer, body: Format) -> (u16, String) {
    let epoch = match saber_epoch(request) {
        Ok(Some(epoch)) => epoch,
        Ok(None) => return error(400, "publication requires an X-Saber-Epoch header"),
        Err(refused) => return refused,
    };
    let bytes = &request.body[..];
    let (what, header) = match body {
        Format::Snapshot => {
            let header = model_io::read_snapshot_header(&mut &bytes[..]);
            ("snapshot", header.map(|h| (None, epoch, h)))
        }
        Format::Delta => {
            let header = model_io::read_delta_header(&mut &bytes[..]);
            (
                "delta",
                header.map(|h| (Some(h.base_version), h.target_version, h.shape)),
            )
        }
    };
    let malformed = |e: SaberError| ServeError::BadRequest {
        detail: format!("malformed {what} body: {e}"),
    };
    let (base, target, h) = match header {
        Ok(header) => header,
        Err(e) => return serve_error(&malformed(e)),
    };
    if let Err(e) = check_target(epoch, target) {
        return serve_error(&e);
    }
    let declared = ((h.vocab_size, h.n_topics, h.alpha), h.sampler_code);
    let outcome = server.stage_with((base, target), declared, |served| match body {
        Format::Snapshot => InferenceSnapshot::load(bytes).map_err(malformed),
        Format::Delta => {
            let delta = model_io::load_delta(bytes).map_err(malformed)?;
            let rows = delta.rows.into_iter().map(|(v, row)| (v as usize, row));
            served.with_rows(rows).map_err(delta_refused)
        }
    });
    match outcome {
        Ok(true) => {
            let body = JsonValue::object([("staged_epoch", JsonValue::from(epoch))]);
            (200, body.to_string())
        }
        Ok(false) => serve_error(&ServeError::Conflict {
            detail: format!(
                "declined a delta from epoch {} to {target}: this shard serves epoch {}",
                base.unwrap_or_default(),
                server.snapshot_version()
            ),
        }),
        Err(e) => serve_error(&e),
    }
}

/// The epoch a shard request names in `X-Saber-Epoch`, if any; an
/// unparsable one is a `400`.
fn saber_epoch(request: &Request) -> Result<Option<u64>, (u16, String)> {
    let header = request.header("x-saber-epoch").map(str::parse);
    header
        .transpose()
        .map_err(|_| error(400, "unparsable X-Saber-Epoch header"))
}

fn handle_commit_epoch(request: &Request, server: &TopicServer) -> (u16, String) {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error(400, "request body is not valid UTF-8"),
    };
    let epoch = match saber_core::json::parse(text)
        .ok()
        .and_then(|v| v.get("epoch").and_then(|e| e.as_u64()))
    {
        Some(epoch) => epoch,
        None => return error(400, "commit requires an 'epoch' member"),
    };
    // When the committer names its target epoch in the header too, both
    // must agree — a commit that would swap in whatever happened to be
    // staged last is exactly the stale-stage race a continuous publisher
    // hits.
    match saber_epoch(request) {
        Ok(Some(h)) if h != epoch => {
            return serve_error(&ServeError::Conflict {
                detail: format!("X-Saber-Epoch {h} does not match the commit body epoch {epoch}"),
            })
        }
        Ok(_) => {}
        Err(refused) => return refused,
    }
    match server.commit(epoch) {
        // `{"snapshot_version": N}`, as `decode_healthz_version` reads it.
        Ok(epoch) => {
            let body = JsonValue::object([("snapshot_version", JsonValue::from(epoch))]);
            (200, body.to_string())
        }
        Err(e) => serve_error(&e),
    }
}

/// Parses an `/infer` body and resolves its seed. Split out of
/// [`trace_request`] so the whole parse sits under one trace span.
fn parse_infer(request: &Request) -> Result<(InferBody, u64), (u16, String)> {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Err(error(400, "request body is not valid UTF-8")),
    };
    let decoded = match wire::decode_infer(text) {
        Ok(decoded) => decoded,
        Err(e) => return Err(error(400, &e.detail)),
    };
    // Replay rule: the X-Saber-Seed header wins over the body member, and
    // the configured default keeps seedless traffic deterministic.
    let seed = match request.header("x-saber-seed") {
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => {
                return Err(error(
                    400,
                    "X-Saber-Seed must be an unsigned 64-bit integer",
                ))
            }
        },
        None => decoded.seed.unwrap_or(DEFAULT_SEED),
    };
    Ok((decoded.body, seed))
}

/// Answers `POST /infer` under a request trace. Every inference is traced
/// end to end: a client-supplied X-Saber-Trace header joins an existing
/// distributed trace (and makes this server's spans a child subtree of it);
/// otherwise a fresh trace id is minted at ingress. An answered request
/// records the queue-wait/handler decomposition for `/stats` from the spans
/// the backend (or its shards) reported; the finished trace lands in the
/// ring behind `GET /trace/recent` and is offered to the slow capture.
/// Returns [`route`]'s `(response, endpoint)`.
fn trace_request(request: &Request, state: &HttpState) -> ((u16, String), Option<Endpoint>) {
    let inbound = request
        .header("x-saber-trace")
        .and_then(TraceContext::parse);
    let trace_id = inbound
        .and_then(|ctx| ctx.trace_id())
        .unwrap_or_else(TraceId::mint);
    let mut trace = TraceBuilder::new(trace_id);
    let root = trace.begin(None, "ingress");
    let response = 'infer: {
        let parse_span = trace.begin(Some(root), "parse");
        let parsed = parse_infer(request);
        trace.end(parse_span);
        let (body, seed) = match parsed {
            Ok(parsed) => parsed,
            Err(response) => break 'infer response,
        };
        // Raw tokens are encoded here — the one place that holds a
        // vocabulary — and then take the same call as word ids.
        let (words, n_oov) = match body {
            InferBody::Words(words) => (words, 0),
            InferBody::Tokens { tokens, policy } => {
                let Some(vocab) = state.vocab.as_ref() else {
                    break 'infer error(400, "server has no vocabulary; send 'words' ids instead");
                };
                match vocab.encode(tokens.iter().map(String::as_str), policy) {
                    Ok(encoded) => (encoded.ids, encoded.n_oov),
                    Err(e) => break 'infer serve_error(&e.into()),
                }
            }
        };
        let deadline = state.config.request_deadline;
        match state
            .backend
            .infer_with_trace(words, seed, deadline, &mut trace, root)
        {
            Ok(mut response) => {
                response.n_oov += n_oov;
                let encode_span = trace.begin(Some(root), "encode");
                // Sized once: a θ element prints as at most 24 bytes with
                // its comma, the other members as fewer than 96.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "θ has the served model's K entries"
                )]
                let mut body = String::with_capacity(24 * response.theta.len() + 96);
                let _ = write!(body, "{}", wire::encode_infer_response(&response, seed));
                trace.end(encode_span);
                (200, body)
            }
            Err(e) => serve_error(&e),
        }
    };
    trace.end(root);
    if response.0 == 200 {
        let timers = endpoint_timers(state, Endpoint::Infer);
        timers
            .queue_wait
            .record(Duration::from_micros(trace.named_total_us("queue-wait")));
        timers
            .handler
            .record(Duration::from_micros(trace.named_total_us("handler")));
    }
    let done = trace.finish();
    state.slow.offer(&done);
    state.ring.push(done);
    (response, Some(Endpoint::Infer))
}

fn error(status: u16, detail: &str) -> (u16, String) {
    (status, wire::encode_error(status, detail).to_string())
}

/// Maps a [`ServeError`] onto the HTTP status table in the module docs.
fn serve_error(e: &ServeError) -> (u16, String) {
    let status = match e {
        ServeError::Overloaded => 429,
        ServeError::DeadlineExceeded | ServeError::Closed | ServeError::ShardVersionSkew => 503,
        ServeError::BadRequest { .. } | ServeError::Corpus(_) => 400,
        ServeError::Conflict { .. } => 409,
        ServeError::Transport { .. } => 502,
        ServeError::InvalidConfig { .. } | ServeError::Internal { .. } => 500,
    };
    error(status, &e.to_string())
}

const MAX_HEADER_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;

/// The largest body accepted for `method path`: a publication to a shard is
/// bounded by the exact encoded size of the shape it serves (staging
/// refuses any other shape anyway, and a full slice dwarfs the default
/// `max_body_bytes`); every other request, and any publication to a
/// router-backed front, by [`HttpConfig::max_body_bytes`].
fn body_limit(state: &HttpState, method: &str, path: &str) -> usize {
    use saber_core::model_io::{delta_encoded_bytes, snapshot_encoded_bytes};
    let encoded: fn(u64, u64) -> Option<u64> = match (method, path) {
        ("POST", "/publish-shard") => snapshot_encoded_bytes,
        // A delta may touch every served row.
        ("POST", "/publish-delta") => delta_encoded_bytes,
        _ => return state.config.max_body_bytes,
    };
    let Some(server) = state.backend.shard() else {
        return state.config.max_body_bytes;
    };
    let served = server.snapshot();
    encoded(served.vocab_size() as u64, served.n_topics() as u64)
        .and_then(|bytes| usize::try_from(bytes).ok())
        .unwrap_or(state.config.max_body_bytes)
}

fn read_request(
    reader: &mut BufReader<TcpStream>,
    stream: &TcpStream,
    state: &HttpState,
) -> ReadOutcome {
    let config = &state.config;
    // The whole-request read budget starts at the request's first byte
    // (`None` until then, so an idle keep-alive connection is governed
    // only by the per-read socket timeout).
    let mut deadline: Option<Instant> = None;
    let mut line = String::new();
    match read_line_bounded(reader, &mut line, config.read_timeout, &mut deadline) {
        LineOutcome::Line => {}
        LineOutcome::Eof => return ReadOutcome::Closed,
        // Idle keep-alive connections time out *between* requests; that is
        // a silent close, not a protocol error. Silence (or budget expiry)
        // after the first byte is.
        LineOutcome::Timeout | LineOutcome::Expired if deadline.is_some() => {
            return ReadOutcome::Reject(408, "timed out reading request line".into())
        }
        LineOutcome::Timeout | LineOutcome::Expired => return ReadOutcome::Closed,
        LineOutcome::TooLong => return ReadOutcome::Reject(431, "request line too long".into()),
        LineOutcome::Error => return ReadOutcome::Closed,
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => return ReadOutcome::Reject(400, "malformed request line".into()),
    };
    let http11 = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return ReadOutcome::Reject(505, format!("unsupported version {version}")),
    };

    let mut headers = Vec::new();
    loop {
        line.clear();
        match read_line_bounded(reader, &mut line, config.read_timeout, &mut deadline) {
            LineOutcome::Line => {}
            LineOutcome::TooLong => return ReadOutcome::Reject(431, "header line too long".into()),
            // EOF, per-read timeout or a spent request budget mid-request
            // is a protocol failure, answer 408.
            LineOutcome::Eof | LineOutcome::Timeout | LineOutcome::Expired => {
                return ReadOutcome::Reject(408, "timed out reading headers".into())
            }
            LineOutcome::Error => return ReadOutcome::Closed,
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return ReadOutcome::Reject(431, "too many headers".into());
        }
        match trimmed.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => return ReadOutcome::Reject(400, "malformed header line".into()),
        }
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return ReadOutcome::Reject(501, "transfer-encoding is not supported".into());
    }
    let content_length = match header("content-length") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ReadOutcome::Reject(400, "invalid content-length".into()),
        },
    };
    if method == "POST" && header("content-length").is_none() {
        return ReadOutcome::Reject(411, "POST requires content-length".into());
    }
    let path = target_path(target);
    let max_body = body_limit(state, &method, &path);
    if content_length > max_body {
        return ReadOutcome::Reject(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        );
    }
    // Clients (curl among them, for bodies over ~1 KB) may wait for the
    // interim go-ahead before sending the body; without it they stall
    // until their expect timer fires.
    if content_length > 0
        && header("expect").is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
    {
        let mut out = stream;
        if out.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err() {
            return ReadOutcome::Closed;
        }
    }
    // Read the body in bounded steps so a trickling client is cut off when
    // the request budget expires (a single `read_exact` would reset the
    // clock on every byte).
    #[expect(
        clippy::disallowed_methods,
        reason = "content_length is within body_limit, max_body_bytes by default, above"
    )]
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return ReadOutcome::Reject(408, "timed out reading request body".into());
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return ReadOutcome::Reject(400, "connection closed mid-body".into()),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                return ReadOutcome::Reject(408, "timed out reading request body".into())
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }

    // Persistent by default on 1.1; opt-in via the header on 1.0.
    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => http11,
    };

    ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    })
}

enum LineOutcome {
    Line,
    Eof,
    Timeout,
    /// The whole-request read budget ran out (slowloris defence).
    Expired,
    TooLong,
    Error,
}

/// Reads one CRLF-terminated line with a length bound, classifying the
/// failure modes the connection loop treats differently.
///
/// `deadline` is the shared whole-request budget: armed (`budget` from now)
/// at the first byte read, checked before every socket read after that so a
/// client cannot hold the connection by trickling within the per-read
/// timeout. Bytes already buffered are scanned without touching the socket
/// or the clock, so a request that arrived whole pays for neither.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    budget: Duration,
    deadline: &mut Option<Instant>,
) -> LineOutcome {
    let mut bytes = Vec::new();
    loop {
        if reader.buffer().is_empty() && deadline.is_some_and(|d| Instant::now() >= d) {
            return LineOutcome::Expired;
        }
        let buffered = match reader.fill_buf() {
            Ok([]) if bytes.is_empty() => return LineOutcome::Eof,
            Ok([]) => return LineOutcome::Error,
            Ok(buffered) => buffered,
            Err(e) if is_timeout(&e) => return LineOutcome::Timeout,
            Err(_) => return LineOutcome::Error,
        };
        if deadline.is_none() {
            // A budget too far to represent is no budget.
            *deadline = Instant::now().checked_add(budget);
        }
        let newline = buffered.iter().position(|&b| b == b'\n');
        let content = newline.unwrap_or(buffered.len());
        bytes.extend_from_slice(&buffered[..content]);
        reader.consume(content + usize::from(newline.is_some()));
        if bytes.len() > MAX_HEADER_LINE {
            return LineOutcome::TooLong;
        }
        if newline.is_some() {
            return match String::from_utf8(bytes) {
                Ok(text) => {
                    line.push_str(&text);
                    LineOutcome::Line
                }
                Err(_) => LineOutcome::Error,
            };
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The path of a request target: everything before a `?`. No endpoint
/// reads a query string, and no endpoint path has a byte to percent-decode.
fn target_path(mut target: String) -> String {
    if let Some(query) = target.find('?') {
        target.truncate(query);
    }
    target
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

fn write_response(
    mut stream: &TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
    content_type: &str,
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    // One gathered write: head and body leave together (no second segment
    // for the client to wake on) without the body being copied behind the
    // head first.
    let mut slices = [
        IoSlice::new(response.as_bytes()),
        IoSlice::new(body.as_bytes()),
    ];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match stream.write_vectored(pending) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::planted_model;
    use crate::{ServeConfig, SnapshotSampler};

    #[test]
    fn a_slice_of_another_shape_is_refused_from_its_header() {
        let model = planted_model(12, 3);
        let server = TopicServer::from_model(&model, ServeConfig::default()).unwrap();
        let mut body = Vec::new();
        InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree)
            .save(&mut body)
            .unwrap();
        let publish = |body: Vec<u8>| Request {
            method: "POST".into(),
            path: "/publish-shard".into(),
            headers: vec![("x-saber-epoch".into(), "2".into())],
            body,
            keep_alive: true,
        };
        // The header claims 2^20 one-topic rows over the 36 floats of a
        // 12 x 3 slice: refused for its shape, not decoded and found short.
        let mut foreign = body.clone();
        foreign[12..20].copy_from_slice(&(1u64 << 20).to_le_bytes());
        foreign[20..28].copy_from_slice(&1u64.to_le_bytes());
        let (status, reply) = handle_publish(&publish(foreign), &server, Format::Snapshot);
        assert_eq!(status, 400);
        assert!(
            reply.contains("published snapshot is 1048576x1"),
            "reply was: {reply}"
        );
        // The served shape still stages.
        let (status, reply) = handle_publish(&publish(body), &server, Format::Snapshot);
        assert_eq!(status, 200, "reply was: {reply}");
    }

    #[test]
    fn target_parsing() {
        assert_eq!(target_path("/healthz?probe=1".into()), "/healthz");
        assert_eq!(target_path("/healthz".into()), "/healthz");
        assert_eq!(target_path("/stats?".into()), "/stats");
        // The path is taken as sent: an escape is not decoded.
        assert_eq!(target_path("/heal%74hz".into()), "/heal%74hz");
    }

    #[test]
    fn status_texts_cover_the_mapped_codes() {
        for status in [
            200, 400, 404, 405, 408, 409, 411, 413, 429, 431, 500, 501, 502, 503, 505,
        ] {
            assert_ne!(status_text(status), "Unknown", "{status}");
        }
    }

    #[test]
    fn serve_error_mapping() {
        assert_eq!(serve_error(&ServeError::Overloaded).0, 429);
        assert_eq!(serve_error(&ServeError::DeadlineExceeded).0, 503);
        assert_eq!(serve_error(&ServeError::Closed).0, 503);
        assert_eq!(
            serve_error(&ServeError::BadRequest { detail: "x".into() }).0,
            400
        );
        assert_eq!(serve_error(&ServeError::transport("x")).0, 502);
    }

    /// Every [`ServeError`] variant must map to an explicit HTTP status:
    /// the `match` below has no wildcard arm, so adding a variant without
    /// deciding its status is a compile error, and the assertions pin each
    /// decision. This is the contract `wire::decode_serve_error` inverts.
    #[test]
    fn serve_error_mapping_is_exhaustive() {
        let corpus_error = saber_corpus::Vocabulary::synthetic(1)
            .encode(["not-in-vocab"], saber_corpus::OovPolicy::Fail)
            .expect_err("encoding an unknown token under Fail must fail");
        let every_variant = [
            ServeError::InvalidConfig { detail: "x".into() },
            ServeError::Closed,
            ServeError::Overloaded,
            ServeError::DeadlineExceeded,
            ServeError::BadRequest { detail: "x".into() },
            ServeError::Conflict { detail: "x".into() },
            ServeError::ShardVersionSkew,
            ServeError::transport("x"),
            ServeError::Corpus(corpus_error),
            ServeError::Internal { detail: "x".into() },
        ];
        for e in &every_variant {
            let expected = match e {
                ServeError::Overloaded => 429,
                ServeError::Closed => 503,
                ServeError::DeadlineExceeded => 503,
                ServeError::ShardVersionSkew => 503,
                ServeError::BadRequest { .. } => 400,
                ServeError::Corpus(_) => 400,
                ServeError::Conflict { .. } => 409,
                ServeError::Transport { .. } => 502,
                ServeError::InvalidConfig { .. } => 500,
                ServeError::Internal { .. } => 500,
            };
            let (status, body) = serve_error(e);
            assert_eq!(status, expected, "{e}");
            // The body is the canonical error JSON, carrying the same
            // status and the variant's Display text.
            assert!(body.contains(&format!("\"status\":{status}")), "{body}");
            assert!(status_text(status) != "Unknown", "{status}");
            if let ServeError::Conflict { .. } = e {
                // A refused publication reads the same on both transports.
                let decoded = wire::decode_serve_error(status, &body);
                assert!(
                    matches!(decoded, ServeError::Conflict { .. }),
                    "{decoded:?}"
                );
            }
        }
    }
}
