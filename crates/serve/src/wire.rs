//! The JSON wire protocol spoken by the HTTP front-end.
//!
//! This module is the pure codec layer between [`crate::http`] and the rest
//! of the crate: request bodies in, response bodies out, no sockets. Keeping
//! it free of I/O makes every message shape unit-testable and keeps
//! `http.rs` focused on transport concerns (framing, timeouts,
//! backpressure). The JSON values themselves come from the dependency-free
//! [`saber_core::json`] codec; the bodies on the per-request path (`/infer`
//! responses, both `/infer-partial` messages, trace spans) are written
//! straight into the output as `impl Display`, byte for byte what the value
//! tree would print: no tree is built, and a number that repeats is
//! formatted once.
//!
//! The full request/response reference, with `curl` examples, lives in
//! `docs/SERVING.md`.
//!
//! # Example
//!
//! ```
//! use saber_serve::wire::{decode_infer, InferBody};
//!
//! let wire = decode_infer(r#"{"words": [0, 2, 4], "seed": 7}"#).unwrap();
//! assert_eq!(wire.seed, Some(7));
//! assert!(matches!(wire.body, InferBody::Words(ref w) if w == &[0, 2, 4]));
//!
//! let raw = decode_infer(r#"{"tokens": ["dog", "cat"], "oov": "skip"}"#).unwrap();
//! assert_eq!(raw.seed, None);
//! assert!(matches!(raw.body, InferBody::Tokens { .. }));
//! ```

use std::fmt;
use std::sync::Arc;

use saber_core::infer::PartialFoldIn;
use saber_core::json::{self, Escaped, JsonValue};
use saber_corpus::{OovPolicy, Vocabulary};
use saber_trace::{SpanEvent, SpanRecord, Trace, TraceId};

use crate::http::{EndpointStats, HttpStats};
use crate::router::RouterStats;
use crate::server::{InferResponse, PartialRequest, PartialResponse, ServeStats};
use crate::snapshot::{FoldInKind, FoldInParams};
use crate::stats::{HistogramSnapshot, N_BUCKETS};
use crate::transport::ShardInfo;
use crate::ServeError;

/// A malformed request body or query string; the HTTP layer answers `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description, echoed to the client.
    pub detail: String,
}

impl WireError {
    fn new(detail: impl Into<String>) -> Self {
        WireError {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for WireError {}

impl From<json::JsonError> for WireError {
    fn from(e: json::JsonError) -> Self {
        WireError::new(e.to_string())
    }
}

/// The document payload of a `POST /infer` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferBody {
    /// Pre-encoded vocabulary word ids (`"words": [0, 2, 4]`).
    Words(Vec<u32>),
    /// Raw tokens to encode server-side (`"tokens": ["dog", "cat"]`), with
    /// the out-of-vocabulary policy from the `"oov"` member
    /// (`"skip"`, the default, or `"fail"`).
    Tokens {
        /// The raw tokens.
        tokens: Vec<String>,
        /// How to treat tokens outside the served vocabulary.
        policy: OovPolicy,
    },
}

/// A decoded `POST /infer` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferWire {
    /// The document.
    pub body: InferBody,
    /// The `"seed"` member, if present (the `X-Saber-Seed` header, handled
    /// by the HTTP layer, takes precedence).
    pub seed: Option<u64>,
}

/// Decodes a `POST /infer` JSON body.
///
/// # Errors
///
/// Returns [`WireError`] for invalid JSON, a body that has neither `words`
/// nor `tokens` (or both), word ids outside `u32`, or an unknown `oov`
/// policy.
pub fn decode_infer(body: &str) -> Result<InferWire, WireError> {
    let value = json::parse(body)?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(WireError::new("request body must be a JSON object"));
    }
    let seed = match value.get("seed") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| WireError::new("'seed' must be an unsigned 64-bit integer"))?,
        ),
    };
    let body = match (value.get("words"), value.get("tokens")) {
        (Some(words), None) => InferBody::Words(decode_word_ids(words)?),
        (None, Some(tokens)) => {
            let tokens = tokens
                .as_array()
                .ok_or_else(|| WireError::new("'tokens' must be an array of strings"))?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| WireError::new("'tokens' must be an array of strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let policy = match value.get("oov") {
                None | Some(JsonValue::Null) => OovPolicy::Skip,
                Some(v) => match v.as_str() {
                    Some("skip") => OovPolicy::Skip,
                    Some("fail") => OovPolicy::Fail,
                    _ => return Err(WireError::new("'oov' must be \"skip\" or \"fail\"")),
                },
            };
            InferBody::Tokens { tokens, policy }
        }
        (Some(_), Some(_)) => {
            return Err(WireError::new(
                "request must carry 'words' or 'tokens', not both",
            ))
        }
        (None, None) => {
            return Err(WireError::new(
                "request must carry a 'words' (word ids) or 'tokens' (raw strings) array",
            ))
        }
    };
    Ok(InferWire { body, seed })
}

fn decode_word_ids(value: &JsonValue) -> Result<Vec<u32>, WireError> {
    value
        .as_array()
        .ok_or_else(|| WireError::new("'words' must be an array of word ids"))?
        .iter()
        .map(|w| {
            w.as_u64()
                .filter(|&id| id <= u64::from(u32::MAX))
                .map(|id| id as u32)
                .ok_or_else(|| WireError::new("word ids must be unsigned 32-bit integers"))
        })
        .collect()
}

/// Parses a comma-separated word-id list from a query-string value
/// (`a=1,2,3` on `GET /similar`).
///
/// # Errors
///
/// Returns [`WireError`] when any element is not an unsigned 32-bit integer.
pub fn parse_id_list(raw: &str) -> Result<Vec<u32>, WireError> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|part| {
            part.trim()
                .parse::<u32>()
                .map_err(|_| WireError::new(format!("'{part}' is not an unsigned word id")))
        })
        .collect()
}

/// A JSON array of numbers exactly as [`JsonValue`] prints one
/// (shortest-round-trip `f64`, non-finite → `null`), written without a value
/// tree. Each distinct bit pattern is formatted once and every repeat is a
/// copy of those bytes: the θ of a short document is a handful of distinct
/// values, most of it the one value `α / denom`, so the float formatting
/// follows `K_d`, not `K`.
struct Numbers<I>(I);

impl<I: Iterator<Item = f64> + Clone> fmt::Display for Numbers<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write as _;
        let values = self.0.clone();
        // The elements, each as `,<value>`; a direct-mapped memo takes a
        // value's bits to the `start..end` of its latest rendering in there
        // (an empty range is a free slot; a collision formats again).
        let mut out = String::new();
        let mut memo = [(0u64, 0usize, 0usize); 64];
        for x in values {
            let bits = x.to_bits();
            let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
            let Some(entry) = memo.get_mut(slot) else {
                return Err(fmt::Error);
            };
            if entry.0 == bits && entry.1 < entry.2 {
                out.extend_from_within(entry.1..entry.2);
            } else {
                let start = out.len();
                if x.is_finite() {
                    write!(out, ",{x}")?;
                } else {
                    out.push_str(",null");
                }
                *entry = (bits, start, out.len());
            }
        }
        // The first element's comma is not part of the array.
        write!(f, "[{}]", out.get(1..).unwrap_or_default())
    }
}

/// A JSON array of `items`, each printed by `each` (the signature of
/// `Display::fmt`), written without a value tree.
fn write_array<T>(
    f: &mut fmt::Formatter<'_>,
    items: impl IntoIterator<Item = T>,
    each: impl Fn(T, &mut fmt::Formatter<'_>) -> fmt::Result,
) -> fmt::Result {
    f.write_str("[")?;
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        each(item, f)?;
    }
    f.write_str("]")
}

/// Encodes an [`InferResponse`], echoing the seed that produced it so the
/// client can replay the request bit-identically. The body is written
/// straight into the caller's buffer (`write!` or `to_string`), byte for
/// byte what the [`JsonValue`] tree of the same members would print.
pub fn encode_infer_response(response: &InferResponse, seed: u64) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        write!(
            f,
            "{{\"theta\":{},\"dominant_topic\":{},\"snapshot_version\":{},\"n_oov\":{},\"seed\":{seed}}}",
            Numbers(response.theta.iter().map(|&p| f64::from(p))),
            response.dominant_topic(),
            response.snapshot_version,
            response.n_oov,
        )
    })
}

/// Encodes a `GET /top-words` response; word ids are resolved to strings
/// when the server has a vocabulary attached.
pub fn encode_top_words(topic: usize, top: &[(u32, f32)], vocab: Option<&Vocabulary>) -> JsonValue {
    let words = top
        .iter()
        .map(|&(word, prob)| {
            let mut pairs = vec![
                ("word", JsonValue::from(u64::from(word))),
                ("prob", JsonValue::Number(f64::from(prob))),
            ];
            if let Some(token) = vocab.and_then(|v| v.word(word)) {
                pairs.push(("token", JsonValue::from(token)));
            }
            JsonValue::object(pairs)
        })
        .collect();
    JsonValue::object([
        ("topic", JsonValue::from(topic)),
        ("words", JsonValue::Array(words)),
    ])
}

/// Encodes a `GET /similar` response: both distance measures plus the
/// per-document θ metadata needed to interpret them.
pub fn encode_similar(
    a: &InferResponse,
    b: &InferResponse,
    hellinger: f32,
    cosine: f32,
    seed: u64,
) -> JsonValue {
    JsonValue::object([
        ("hellinger", JsonValue::Number(f64::from(hellinger))),
        ("cosine", JsonValue::Number(f64::from(cosine))),
        ("dominant_topic_a", JsonValue::from(a.dominant_topic())),
        ("dominant_topic_b", JsonValue::from(b.dominant_topic())),
        ("snapshot_version", JsonValue::from(a.snapshot_version)),
        ("seed", JsonValue::from(seed)),
    ])
}

/// Encodes a latency histogram as `{count, mean_us, p50_us, p95_us, p99_us}`
/// (quantiles are `null` until the first sample). Histograms whose top
/// bucket clamped at least one sample additionally carry an `overflow`
/// member — omitted when zero, so the common-case bytes are unchanged and
/// a nonzero overflow is impossible to miss.
pub fn encode_histogram(h: &HistogramSnapshot) -> JsonValue {
    fn quantile(v: Option<f64>) -> JsonValue {
        v.map(JsonValue::Number).unwrap_or(JsonValue::Null)
    }
    let mut members = vec![
        ("count", JsonValue::from(h.count())),
        ("mean_us", quantile(h.mean_micros())),
        ("p50_us", quantile(h.p50())),
        ("p95_us", quantile(h.p95())),
        ("p99_us", quantile(h.p99())),
    ];
    if h.overflow() > 0 {
        members.push(("overflow", JsonValue::from(h.overflow())));
    }
    JsonValue::object(members)
}

/// Encodes the full `GET /stats` response body: the (shard-aggregated)
/// serving counters plus the HTTP layer's per-endpoint histograms.
///
/// Pure — all inputs are point-in-time copies — so the exact bytes are
/// pinned by the golden wire-format tests: reordering or renaming members
/// is a breaking protocol change and fails `tests/wire_golden.rs`.
pub fn encode_stats_body(
    server: &ServeStats,
    snapshot_version: u64,
    n_shards: usize,
    http: &HttpStats,
    router: Option<&RouterStats>,
) -> JsonValue {
    let mut members = vec![(
        "server",
        JsonValue::object([
            ("requests", JsonValue::from(server.requests)),
            ("tokens", JsonValue::from(server.tokens)),
            ("batches", JsonValue::from(server.batches)),
            ("swaps_observed", JsonValue::from(server.swaps_observed)),
            (
                "mean_batch_size",
                JsonValue::Number(server.mean_batch_size()),
            ),
            ("snapshot_version", JsonValue::from(snapshot_version)),
            ("shards", JsonValue::from(n_shards)),
            ("latency", encode_histogram(&server.latency)),
            ("queue_wait", encode_histogram(&server.queue_wait)),
            ("handler", encode_histogram(&server.handler)),
        ]),
    )];
    if let Some(router) = router {
        members.push(("router", encode_router_stats(router)));
    }
    members.push((
        "http",
        JsonValue::object([
            ("requests", JsonValue::from(http.requests)),
            ("errors", JsonValue::from(http.errors)),
            (
                "active_connections",
                JsonValue::from(http.active_connections),
            ),
            (
                "endpoints",
                JsonValue::object([
                    ("infer", encode_endpoint_stats(&http.infer)),
                    ("top_words", encode_endpoint_stats(&http.top_words)),
                    ("similar", encode_endpoint_stats(&http.similar)),
                    ("stats", encode_endpoint_stats(&http.stats)),
                    ("healthz", encode_endpoint_stats(&http.healthz)),
                ]),
            ),
        ]),
    ));
    JsonValue::object(members)
}

/// Encodes one endpoint's latency split: the end-to-end quantiles plus
/// the queue-wait/handler decomposition recovered from request traces.
fn encode_endpoint_stats(endpoint: &EndpointStats) -> JsonValue {
    JsonValue::object([
        ("total", encode_histogram(&endpoint.total)),
        ("queue_wait", encode_histogram(&endpoint.queue_wait)),
        ("handler", encode_histogram(&endpoint.handler)),
    ])
}

/// Encodes the router-level counters complementing the shard-aggregated
/// `server` block of `GET /stats`: the fleet epoch, skew retries, documents
/// routed, how many shard requests each shard received, plus the
/// self-healing counters (transport retries, breaker trips/re-admissions,
/// and `hedges`, always 0 since ISSUE 25) and per-replica admission.
/// Absent from direct (unsharded) servers.
fn encode_router_stats(router: &RouterStats) -> JsonValue {
    let mut members = vec![
        ("requests", JsonValue::from(router.requests)),
        ("skew_retries", JsonValue::from(router.skew_retries)),
        ("epoch", JsonValue::from(router.epoch)),
        ("shards", JsonValue::from(router.n_shards)),
        (
            "shard_requests",
            JsonValue::Array(
                router
                    .shard_requests
                    .iter()
                    .map(|&n| JsonValue::from(n))
                    .collect(),
            ),
        ),
        (
            "transport_retries",
            JsonValue::from(router.transport_retries),
        ),
        ("hedges", JsonValue::from(router.hedges)),
        ("breaker_trips", JsonValue::from(router.breaker_trips)),
        ("breaker_readmits", JsonValue::from(router.breaker_readmits)),
        (
            "replica_health",
            JsonValue::Array(
                router
                    .replica_health
                    .iter()
                    .map(|set| {
                        JsonValue::Array(set.iter().map(|&ok| JsonValue::Bool(ok)).collect())
                    })
                    .collect(),
            ),
        ),
    ];
    // Present only after a first publication, so the stats bytes of a
    // fleet that never publishes stay pinned to the pre-pipeline golden.
    if let Some(pipeline) = &router.pipeline {
        members.push((
            "pipeline",
            JsonValue::object([
                (
                    "epochs_published",
                    JsonValue::from(pipeline.epochs_published),
                ),
                ("delta_epochs", JsonValue::from(pipeline.delta_epochs)),
                ("rows_shipped", JsonValue::from(pipeline.rows_shipped)),
                ("rows_total", JsonValue::from(pipeline.rows_total)),
                ("fallbacks", JsonValue::from(pipeline.fallbacks)),
                (
                    "last_publish_micros",
                    JsonValue::from(pipeline.last_publish_micros),
                ),
                (
                    "publish_micros_total",
                    JsonValue::from(pipeline.publish_micros_total),
                ),
            ]),
        ));
    }
    JsonValue::object(members)
}

/// Encodes an error body: `{"error": detail, "status": status}`.
pub fn encode_error(status: u16, detail: &str) -> JsonValue {
    JsonValue::object([
        ("error", JsonValue::from(detail)),
        ("status", JsonValue::from(u64::from(status))),
    ])
}

/// Upper bucket bounds (microseconds) of the Prometheus latency
/// histograms: 100 µs to 10 s in decades, plus the implicit `+Inf`. The
/// internal log₂ buckets are folded into these (a log₂ bucket counts
/// toward every exposition bound at or above its upper edge), trading the
/// 40-bucket fidelity for a stable, dashboard-friendly bound set.
const PROMETHEUS_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

fn prometheus_histogram(
    out: &mut String,
    name: &str,
    label: Option<(&str, &str)>,
    h: &HistogramSnapshot,
) {
    use std::fmt::Write as _;
    let mut cumulative = [0u64; PROMETHEUS_BOUNDS_US.len()];
    for i in 0..N_BUCKETS {
        let count = h.bucket_count(i);
        if count == 0 {
            continue;
        }
        let (_, high) = crate::stats::LatencyHistogram::bucket_bounds(i);
        for (slot, &bound) in cumulative.iter_mut().zip(PROMETHEUS_BOUNDS_US.iter()) {
            if high <= bound {
                *slot += count;
            }
        }
    }
    let plain = match label {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    };
    let with_le = |le: &str| match label {
        Some((k, v)) => format!("{{{k}=\"{v}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    for (&bound, &cum) in PROMETHEUS_BOUNDS_US.iter().zip(cumulative.iter()) {
        let le = format!("{}", bound as f64 / 1e6);
        let _ = writeln!(out, "{name}_bucket{} {}", with_le(&le), cum);
    }
    let _ = writeln!(out, "{name}_bucket{} {}", with_le("+Inf"), h.count());
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum_micros() as f64 / 1e6);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count());
}

/// Encodes the `GET /metrics` body in Prometheus text exposition format:
/// the serving and HTTP counters of [`encode_stats_body`] as
/// `saber_*`-prefixed counters and gauges, plus per-endpoint latency
/// histograms with cumulative buckets over fixed decade bounds (100 µs to
/// 10 s; internal log₂ buckets fold conservatively into the first bound
/// at or above their upper edge).
/// Router-backed servers additionally expose the fleet epoch, skew retries
/// and per-shard request counters.
pub fn encode_prometheus(
    server: &ServeStats,
    snapshot_version: u64,
    n_shards: usize,
    http: &HttpStats,
    router: Option<&RouterStats>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut counter = |name: &str, value: u64| {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    };
    counter("saber_http_requests_total", http.requests);
    counter("saber_http_errors_total", http.errors);
    counter("saber_serve_requests_total", server.requests);
    counter("saber_serve_tokens_total", server.tokens);
    counter("saber_serve_batches_total", server.batches);
    counter("saber_serve_swaps_observed_total", server.swaps_observed);
    // Explicit top-bucket clamp counters: nonzero means the matching
    // histogram's tail quantiles understate reality (samples ≥ 2^40 µs
    // were folded into the last bucket).
    counter(
        "saber_serve_latency_overflow_total",
        server.latency.overflow(),
    );
    counter(
        "saber_serve_queue_wait_overflow_total",
        server.queue_wait.overflow(),
    );
    counter(
        "saber_serve_handler_overflow_total",
        server.handler.overflow(),
    );
    let mut gauge = |name: &str, value: u64| {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    };
    gauge(
        "saber_http_active_connections",
        http.active_connections as u64,
    );
    gauge("saber_snapshot_epoch", snapshot_version);
    gauge("saber_shards", n_shards as u64);
    if let Some(router) = router {
        let mut counter = |name: &str, value: u64| {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        };
        counter("saber_router_requests_total", router.requests);
        counter("saber_router_skew_retries_total", router.skew_retries);
        counter(
            "saber_router_transport_retries_total",
            router.transport_retries,
        );
        counter("saber_router_hedges_total", router.hedges);
        counter("saber_router_breaker_trips_total", router.breaker_trips);
        counter(
            "saber_router_breaker_readmits_total",
            router.breaker_readmits,
        );
        let _ = writeln!(out, "# TYPE saber_router_shard_requests_total counter");
        for (s, &n) in router.shard_requests.iter().enumerate() {
            let _ = writeln!(
                out,
                "saber_router_shard_requests_total{{shard=\"{s}\"}} {n}"
            );
        }
        let _ = writeln!(out, "# TYPE saber_router_replica_admitted gauge");
        for (s, set) in router.replica_health.iter().enumerate() {
            for (r, &admitted) in set.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "saber_router_replica_admitted{{shard=\"{s}\",replica=\"{r}\"}} {}",
                    u64::from(admitted)
                );
            }
        }
        // Publication-path metrics appear only once an epoch has been
        // published, so a never-publishing fleet's exposition matches the
        // pre-pipeline golden byte for byte.
        if let Some(pipeline) = &router.pipeline {
            let mut counter = |name: &str, value: u64| {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
            };
            counter(
                "saber_pipeline_epochs_published_total",
                pipeline.epochs_published,
            );
            counter("saber_pipeline_delta_epochs_total", pipeline.delta_epochs);
            counter("saber_pipeline_rows_shipped_total", pipeline.rows_shipped);
            counter("saber_pipeline_rows_total", pipeline.rows_total);
            counter("saber_pipeline_fallbacks_total", pipeline.fallbacks);
            counter(
                "saber_pipeline_publish_micros_total",
                pipeline.publish_micros_total,
            );
            let _ = writeln!(
                out,
                "# TYPE saber_pipeline_last_publish_micros gauge\nsaber_pipeline_last_publish_micros {}",
                pipeline.last_publish_micros
            );
        }
    }
    // Exactly one TYPE line per metric name: the five endpoint series
    // share one histogram declaration (spec-conforming parsers reject a
    // repeated TYPE line for the same name).
    let _ = writeln!(out, "# TYPE saber_serve_latency_seconds histogram");
    prometheus_histogram(
        &mut out,
        "saber_serve_latency_seconds",
        None,
        &server.latency,
    );
    let _ = writeln!(out, "# TYPE saber_serve_queue_wait_seconds histogram");
    prometheus_histogram(
        &mut out,
        "saber_serve_queue_wait_seconds",
        None,
        &server.queue_wait,
    );
    let _ = writeln!(out, "# TYPE saber_serve_handler_seconds histogram");
    prometheus_histogram(
        &mut out,
        "saber_serve_handler_seconds",
        None,
        &server.handler,
    );
    let endpoints = [
        ("infer", &http.infer),
        ("top_words", &http.top_words),
        ("similar", &http.similar),
        ("stats", &http.stats),
        ("healthz", &http.healthz),
    ];
    let _ = writeln!(out, "# TYPE saber_http_request_duration_seconds histogram");
    for (endpoint, stats) in endpoints {
        prometheus_histogram(
            &mut out,
            "saber_http_request_duration_seconds",
            Some(("endpoint", endpoint)),
            &stats.total,
        );
    }
    let _ = writeln!(out, "# TYPE saber_http_queue_wait_seconds histogram");
    for (endpoint, stats) in endpoints {
        prometheus_histogram(
            &mut out,
            "saber_http_queue_wait_seconds",
            Some(("endpoint", endpoint)),
            &stats.queue_wait,
        );
    }
    let _ = writeln!(out, "# TYPE saber_http_handler_seconds histogram");
    for (endpoint, stats) in endpoints {
        prometheus_histogram(
            &mut out,
            "saber_http_handler_seconds",
            Some(("endpoint", endpoint)),
            &stats.handler,
        );
    }
    out
}

/// Maps a non-2xx shard response back onto the [`ServeError`] the shard's
/// HTTP layer encoded, so the router's error handling (and its skew-retry
/// loop) behaves identically whether the shard is a function call or a
/// socket away. The mapping inverts `http::serve_error`: the status picks
/// the family and, where one status covers several errors (503), the
/// canonical `Display` text disambiguates.
pub fn decode_serve_error(status: u16, body: &str) -> ServeError {
    let detail = json::parse(body)
        .ok()
        .and_then(|v| v.get("error").and_then(|e| e.as_str().map(str::to_string)))
        .unwrap_or_else(|| format!("shard answered HTTP {status}"));
    match status {
        429 => ServeError::Overloaded,
        // A body over the shard's bound (413) is as wrong as a misshapen one.
        400 | 413 => ServeError::BadRequest { detail },
        409 => ServeError::Conflict { detail },
        503 if detail.contains("deadline") => ServeError::DeadlineExceeded,
        503 if detail.contains("diverged") => ServeError::ShardVersionSkew,
        // A shard at its connection cap is busy, not gone: retryable.
        503 if detail.contains("connection limit") => ServeError::Overloaded,
        503 => ServeError::Closed,
        _ => ServeError::transport(format!("shard answered HTTP {status}: {detail}")),
    }
}

/// Decodes an array of finite `f64`s (θ or partial counts). Exactness
/// note: the serialiser prints shortest-round-trip representations, so a
/// value decoded here is bit-identical to the one encoded — which is what
/// keeps remote EM merges algebraically exact.
fn decode_f64_array(value: &JsonValue, what: &str) -> Result<Vec<f64>, WireError> {
    value
        .as_array()
        .ok_or_else(|| WireError::new(format!("'{what}' must be an array of numbers")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|v| v.is_finite())
                .ok_or_else(|| WireError::new(format!("'{what}' must hold finite numbers")))
        })
        .collect()
}

/// Encodes a `POST /infer-partial` request body: the shard-local word ids
/// plus either the derived ESCA chain seed or one EM round's index and θ.
pub fn encode_partial_request<'a>(
    words: &'a [u32],
    request: &'a PartialRequest,
) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        f.write_str("{\"words\":")?;
        write_array(f, words, fmt::Display::fmt)?;
        match request {
            PartialRequest::FoldIn { seed } => write!(f, ",\"esca\":{{\"seed\":{seed}}}}}"),
            PartialRequest::EmRound { round, theta } => write!(
                f,
                ",\"em\":{{\"round\":{round},\"theta\":{}}}}}",
                Numbers(theta.iter().copied())
            ),
        }
    })
}

/// Decodes a `POST /infer-partial` body into the word list and request the
/// shard-side server executes.
///
/// # Errors
///
/// Returns [`WireError`] for invalid JSON, a missing/duplicated request
/// member, word ids outside `u32`, or a non-finite θ.
pub fn decode_partial_request(body: &str) -> Result<(Vec<u32>, PartialRequest), WireError> {
    let value = json::parse(body)?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(WireError::new("request body must be a JSON object"));
    }
    let words = decode_word_ids(
        value
            .get("words")
            .ok_or_else(|| WireError::new("request must carry a 'words' array"))?,
    )?;
    let request = match (value.get("esca"), value.get("em")) {
        (Some(esca), None) => {
            let seed = esca
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| WireError::new("'esca.seed' must be an unsigned 64-bit integer"))?;
            PartialRequest::FoldIn { seed }
        }
        (None, Some(em)) => {
            let round = em
                .get("round")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| WireError::new("'em.round' must be an unsigned integer"))?
                as usize;
            let theta = decode_f64_array(
                em.get("theta")
                    .ok_or_else(|| WireError::new("'em' must carry a 'theta' array"))?,
                "em.theta",
            )?;
            PartialRequest::EmRound {
                round,
                theta: Arc::new(theta),
            }
        }
        (Some(_), Some(_)) => {
            return Err(WireError::new(
                "request must carry 'esca' or 'em', not both",
            ))
        }
        (None, None) => {
            return Err(WireError::new(
                "request must carry an 'esca' (chain seed) or 'em' (round + theta) member",
            ))
        }
    };
    Ok((words, request))
}

/// Largest topic count a partial response may declare. The decoder checks
/// `k` against it before allocating the dense accumulator, so a hostile or
/// corrupted shard cannot make a router allocate unbounded memory.
pub const MAX_PARTIAL_TOPICS: usize = 1 << 20;

/// Encodes a `POST /infer-partial` response: the topic count `k`, the
/// strictly increasing `topics` whose count is non-zero and their `counts`
/// (shortest-round-trip `f64`s, so a merge of decoded partials is exact to
/// the bit), then the snapshot version the router's epoch-skew detection
/// keys on and the word-id range this shard serves (informational;
/// `[start, end)`). The body grows with the topics the shard's words
/// touched, not with `K`.
///
/// The `spans` member — the shard-local trace subtree — is appended only
/// when the request was traced.
pub fn encode_partial_response(
    response: &PartialResponse,
    shard: (u32, u32),
) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        let counts = &response.partial.counts;
        // Bit test, not `!= 0.0`: a `-0.0` is carried, so the round trip is
        // exact to the bit for every input.
        let touched = || counts.iter().enumerate().filter(|(_, c)| c.to_bits() != 0);
        write!(f, "{{\"k\":{},\"topics\":", counts.len())?;
        write_array(f, touched(), |(topic, _), f| fmt::Display::fmt(&topic, f))?;
        write!(
            f,
            ",\"counts\":{},\"n_words\":{},\"snapshot_version\":{},\"n_oov\":{},\"shard\":[{},{}]",
            Numbers(touched().map(|(_, &count)| count)),
            response.partial.n_words,
            response.snapshot_version,
            response.n_oov,
            shard.0,
            shard.1,
        )?;
        if !response.spans.is_empty() {
            f.write_str(",\"spans\":")?;
            write_array(f, &response.spans, write_span)?;
        }
        f.write_str("}")
    })
}

/// Decodes a `POST /infer-partial` response body into the dense in-memory
/// partial the router merges.
///
/// # Errors
///
/// Returns [`WireError`] when any member is missing or mistyped, when `k`
/// exceeds [`MAX_PARTIAL_TOPICS`], when `topics` is not strictly increasing
/// below `k` or differs in length from `counts`, and — naming the cause —
/// for the dense `counts` body of the pre-sparse partial protocol.
pub fn decode_partial_response(body: &str) -> Result<PartialResponse, WireError> {
    let value = json::parse(body)?;
    let uint = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::new(format!("'{name}' must be an unsigned integer")))
    };
    let values = decode_f64_array(
        value
            .get("counts")
            .ok_or_else(|| WireError::new("response must carry a 'counts' array"))?,
        "counts",
    )?;
    if value.get("k").is_none() && value.get("topics").is_none() {
        return Err(WireError::new(
            "dense 'counts' without 'k' and 'topics' is the pre-sparse partial protocol: \
             upgrade the router and its shards together",
        ));
    }
    let topics = value
        .get("topics")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| WireError::new("'topics' must be an array of topic ids"))?;
    let k = uint("k")?;
    if k > MAX_PARTIAL_TOPICS as u64 {
        return Err(WireError::new(format!(
            "'k' of {k} exceeds the {MAX_PARTIAL_TOPICS}-topic limit"
        )));
    }
    if topics.len() != values.len() {
        return Err(WireError::new(
            "'topics' and 'counts' must have the same length",
        ));
    }
    let mut counts = vec![0.0f64; k as usize];
    let mut next = 0u64;
    for (topic, count) in topics.iter().zip(values) {
        let slot = topic
            .as_u64()
            .filter(|&t| t >= next)
            .and_then(|t| Some((t, counts.get_mut(usize::try_from(t).ok()?)?)));
        let Some((t, slot)) = slot else {
            return Err(WireError::new(
                "'topics' must be strictly increasing topic ids below 'k'",
            ));
        };
        *slot = count;
        next = t + 1;
    }
    let spans = match value.get("spans") {
        None | Some(JsonValue::Null) => Vec::new(),
        Some(v) => decode_spans(v)?,
    };
    Ok(PartialResponse {
        partial: PartialFoldIn {
            counts,
            n_words: uint("n_words")? as usize,
        },
        snapshot_version: uint("snapshot_version")?,
        n_oov: uint("n_oov")? as usize,
        spans,
    })
}

/// Writes one trace span as a JSON object. The `events` member is omitted
/// when empty to keep the common (event-free) span compact.
fn write_span(span: &SpanRecord, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{\"id\":{},\"parent\":", span.id)?;
    match span.parent {
        Some(parent) => write!(f, "{parent}")?,
        None => f.write_str("null")?,
    }
    write!(
        f,
        ",\"name\":{},\"start_us\":{},\"duration_us\":{}",
        Escaped(&span.name),
        span.start_us,
        span.duration_us
    )?;
    if !span.events.is_empty() {
        f.write_str(",\"events\":")?;
        write_array(f, &span.events, |event, f| {
            write!(
                f,
                "{{\"at_us\":{},\"message\":{}}}",
                event.at_us,
                Escaped(&event.message)
            )
        })?;
    }
    f.write_str("}")
}

/// Decodes an array of trace spans ([`write_span`]'s inverse).
fn decode_spans(value: &JsonValue) -> Result<Vec<SpanRecord>, WireError> {
    value
        .as_array()
        .ok_or_else(|| WireError::new("'spans' must be an array of span objects"))?
        .iter()
        .map(|span| {
            let uint = |name: &str| {
                span.get(name).and_then(JsonValue::as_u64).ok_or_else(|| {
                    WireError::new(format!("span '{name}' must be an unsigned integer"))
                })
            };
            let parent = match span.get("parent") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::new("span 'parent' must be an unsigned integer or null")
                })?),
            };
            let name = span
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| WireError::new("span 'name' must be a string"))?
                .to_string();
            let events = match span.get("events") {
                None | Some(JsonValue::Null) => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| WireError::new("span 'events' must be an array"))?
                    .iter()
                    .map(|e| {
                        let at_us =
                            e.get("at_us").and_then(JsonValue::as_u64).ok_or_else(|| {
                                WireError::new("event 'at_us' must be an unsigned integer")
                            })?;
                        let message = e
                            .get("message")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| WireError::new("event 'message' must be a string"))?
                            .to_string();
                        Ok(SpanEvent { at_us, message })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
            };
            Ok(SpanRecord {
                id: uint("id")?,
                parent,
                name,
                start_us: uint("start_us")?,
                duration_us: uint("duration_us")?,
                events,
            })
        })
        .collect()
}

/// Encodes the `GET /trace/recent` response: the ring buffer of recently
/// completed traces plus the slow-request capture (the worst traces above
/// the configured threshold), newest-first within each list.
pub fn encode_trace_recent<'a>(
    recent: &'a [Trace],
    slow: &'a [Trace],
    threshold_us: u64,
) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        f.write_str("{\"recent\":")?;
        write_array(f, recent, write_trace)?;
        write!(f, ",\"slow\":{{\"threshold_us\":{threshold_us},\"traces\":")?;
        write_array(f, slow, write_trace)?;
        f.write_str("}}")
    })
}

fn write_trace(trace: &Trace, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        "{{\"trace_id\":{},\"total_us\":{},\"spans\":",
        Escaped(&trace.trace_id.to_hex()),
        trace.total_us
    )?;
    write_array(f, &trace.spans, write_span)?;
    f.write_str("}")
}

/// Decodes the `recent` list of a `GET /trace/recent` body — the client
/// half of [`encode_trace_recent`] used by tests and tooling.
///
/// # Errors
///
/// Returns [`WireError`] when the body is not a trace-recent response.
pub fn decode_trace_recent(body: &str) -> Result<Vec<Trace>, WireError> {
    let value = json::parse(body)?;
    value
        .get("recent")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| WireError::new("response must carry a 'recent' array"))?
        .iter()
        .map(decode_trace)
        .collect()
}

fn decode_trace(value: &JsonValue) -> Result<Trace, WireError> {
    let trace_id = value
        .get("trace_id")
        .and_then(JsonValue::as_str)
        .and_then(TraceId::parse_hex)
        .ok_or_else(|| WireError::new("'trace_id' must be a 16-hex-digit string"))?;
    let total_us = value
        .get("total_us")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| WireError::new("'total_us' must be an unsigned integer"))?;
    let spans = decode_spans(
        value
            .get("spans")
            .ok_or_else(|| WireError::new("trace must carry a 'spans' array"))?,
    )?;
    Ok(Trace {
        trace_id,
        total_us,
        spans,
    })
}

fn shard_range_json(shard: (u32, u32)) -> JsonValue {
    JsonValue::Array(vec![
        JsonValue::from(u64::from(shard.0)),
        JsonValue::from(u64::from(shard.1)),
    ])
}

fn decode_shard_range(value: &JsonValue) -> Result<(u32, u32), WireError> {
    let err = || WireError::new("'shard' must be a [start, end) pair of word ids");
    let pair = value.as_array().ok_or_else(err)?;
    match pair {
        [a, b] => {
            let a = a
                .as_u64()
                .filter(|&v| v <= u64::from(u32::MAX))
                .ok_or_else(err)?;
            let b = b
                .as_u64()
                .filter(|&v| v <= u64::from(u32::MAX))
                .ok_or_else(err)?;
            Ok((a as u32, b as u32))
        }
        _ => Err(err()),
    }
}

fn encode_fold_in(params: &FoldInParams) -> JsonValue {
    JsonValue::object([
        (
            "kind",
            JsonValue::from(match params.kind {
                FoldInKind::Esca => "esca",
                FoldInKind::Em => "em",
            }),
        ),
        ("burn_in", JsonValue::from(params.burn_in)),
        ("samples", JsonValue::from(params.samples)),
    ])
}

fn decode_fold_in(value: &JsonValue) -> Result<FoldInParams, WireError> {
    let kind = match value.get("kind").and_then(JsonValue::as_str) {
        Some("esca") => FoldInKind::Esca,
        Some("em") => FoldInKind::Em,
        _ => return Err(WireError::new("'fold_in.kind' must be \"esca\" or \"em\"")),
    };
    let count = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| WireError::new(format!("'fold_in.{name}' must be an unsigned integer")))
    };
    Ok(FoldInParams {
        burn_in: count("burn_in")?,
        samples: count("samples")?,
        kind,
    })
}

/// Encodes one histogram losslessly as `{sum_us, buckets: [[index,
/// count], ...]}`, skipping empty buckets. A nonzero top-bucket overflow
/// count rides along as an `overflow` member (omitted when zero, so
/// pre-overflow peers' bytes — and the golden fixtures — are unchanged).
fn encode_sparse_histogram(h: &HistogramSnapshot) -> JsonValue {
    let buckets: Vec<JsonValue> = (0..N_BUCKETS)
        .filter(|&i| h.bucket_count(i) > 0)
        .map(|i| JsonValue::Array(vec![JsonValue::from(i), JsonValue::from(h.bucket_count(i))]))
        .collect();
    let mut members = vec![
        ("sum_us", JsonValue::from(h.sum_micros())),
        ("buckets", JsonValue::Array(buckets)),
    ];
    if h.overflow() > 0 {
        members.push(("overflow", JsonValue::from(h.overflow())));
    }
    JsonValue::object(members)
}

fn decode_sparse_histogram(value: &JsonValue, what: &str) -> Result<HistogramSnapshot, WireError> {
    let sum_us = value
        .get("sum_us")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| WireError::new(format!("'{what}.sum_us' must be an unsigned integer")))?;
    // Absent ⇒ 0: a peer predating the overflow counter simply never
    // clamped (or never said so), and the merge must still work.
    let overflow = match value.get("overflow") {
        None => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            WireError::new(format!("'{what}.overflow' must be an unsigned integer"))
        })?,
    };
    let pairs = value
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| WireError::new(format!("'{what}.buckets' must be an array")))?
        .iter()
        .map(|pair| {
            let err = || WireError::new(format!("'{what}.buckets' entries must be [index, count]"));
            match pair.as_array().ok_or_else(err)? {
                [i, c] => {
                    let i = i.as_u64().ok_or_else(err)? as usize;
                    let c = c.as_u64().ok_or_else(err)?;
                    Ok((i, c))
                }
                _ => Err(err()),
            }
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    HistogramSnapshot::from_sparse_buckets(pairs, sum_us, overflow)
        .ok_or_else(|| WireError::new(format!("'{what}.buckets' index out of range")))
}

/// Encodes a full [`ServeStats`], histogram buckets included — unlike the
/// human-facing `/stats` body (which only derives quantiles), this is
/// lossless, so a router can merge remote shard histograms (end-to-end
/// latency plus its queue-wait/handler split) exactly.
fn encode_serve_stats(stats: &ServeStats) -> JsonValue {
    JsonValue::object([
        ("requests", JsonValue::from(stats.requests)),
        ("tokens", JsonValue::from(stats.tokens)),
        ("batches", JsonValue::from(stats.batches)),
        ("swaps_observed", JsonValue::from(stats.swaps_observed)),
        ("latency", encode_sparse_histogram(&stats.latency)),
        ("queue_wait", encode_sparse_histogram(&stats.queue_wait)),
        ("handler", encode_sparse_histogram(&stats.handler)),
    ])
}

fn decode_serve_stats(value: &JsonValue) -> Result<ServeStats, WireError> {
    let counter = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::new(format!("'stats.{name}' must be an unsigned integer")))
    };
    let histogram = |name: &str| {
        decode_sparse_histogram(
            value
                .get(name)
                .ok_or_else(|| WireError::new(format!("'stats' must carry a '{name}' member")))?,
            name,
        )
    };
    Ok(ServeStats {
        requests: counter("requests")?,
        tokens: counter("tokens")?,
        batches: counter("batches")?,
        swaps_observed: counter("swaps_observed")?,
        latency: histogram("latency")?,
        queue_wait: histogram("queue_wait")?,
        handler: histogram("handler")?,
    })
}

/// Encodes a `GET /shard-info` response: everything a router needs to
/// validate a shard before fanning out to it, plus the shard's full serving
/// counters (lossless histogram included).
pub fn encode_shard_info(info: &ShardInfo) -> JsonValue {
    JsonValue::object([
        ("epoch", JsonValue::from(info.epoch)),
        ("vocab_size", JsonValue::from(info.vocab_size)),
        ("n_topics", JsonValue::from(info.n_topics)),
        ("alpha", JsonValue::Number(f64::from(info.alpha))),
        ("shard", shard_range_json(info.shard_range)),
        ("fold_in", encode_fold_in(&info.fold_in)),
        ("stats", encode_serve_stats(&info.stats)),
    ])
}

/// Decodes a `GET /shard-info` response body.
///
/// # Errors
///
/// Returns [`WireError`] when any member is missing or mistyped.
pub fn decode_shard_info(body: &str) -> Result<ShardInfo, WireError> {
    let value = json::parse(body)?;
    let uint = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::new(format!("'{name}' must be an unsigned integer")))
    };
    let alpha = value
        .get("alpha")
        .and_then(JsonValue::as_f64)
        .filter(|a| a.is_finite())
        .ok_or_else(|| WireError::new("'alpha' must be a finite number"))? as f32;
    let shard_range = decode_shard_range(
        value
            .get("shard")
            .ok_or_else(|| WireError::new("response must carry a 'shard' range"))?,
    )?;
    let fold_in = decode_fold_in(
        value
            .get("fold_in")
            .ok_or_else(|| WireError::new("response must carry a 'fold_in' member"))?,
    )?;
    let stats = decode_serve_stats(
        value
            .get("stats")
            .ok_or_else(|| WireError::new("response must carry a 'stats' member"))?,
    )?;
    Ok(ShardInfo {
        epoch: uint("epoch")?,
        vocab_size: uint("vocab_size")? as usize,
        n_topics: uint("n_topics")? as usize,
        alpha,
        shard_range,
        fold_in,
        stats,
    })
}

/// Decodes a `GET /top-words` response into `(word id, probability)` pairs
/// — the client half of [`encode_top_words`] a remote transport uses.
///
/// # Errors
///
/// Returns [`WireError`] when the body is not a top-words response.
pub fn decode_top_words(body: &str) -> Result<Vec<(u32, f32)>, WireError> {
    let value = json::parse(body)?;
    value
        .get("words")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| WireError::new("response must carry a 'words' array"))?
        .iter()
        .map(|entry| {
            let word = entry
                .get("word")
                .and_then(JsonValue::as_u64)
                .filter(|&w| w <= u64::from(u32::MAX))
                .ok_or_else(|| WireError::new("'word' must be an unsigned 32-bit integer"))?;
            let prob = entry
                .get("prob")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| WireError::new("'prob' must be a number"))?;
            Ok((word as u32, prob as f32))
        })
        .collect()
}

/// Extracts the served snapshot version from a `GET /healthz` body — the
/// cheap epoch probe a remote transport polls.
///
/// # Errors
///
/// Returns [`WireError`] when the body has no `snapshot_version`.
pub fn decode_healthz_version(body: &str) -> Result<u64, WireError> {
    json::parse(body)?
        .get("snapshot_version")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| WireError::new("response must carry a 'snapshot_version'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_word_id_bodies() {
        let wire = decode_infer(r#"{"words":[1,2,3],"seed":9}"#).unwrap();
        assert_eq!(wire.body, InferBody::Words(vec![1, 2, 3]));
        assert_eq!(wire.seed, Some(9));
        let no_seed = decode_infer(r#"{"words":[]}"#).unwrap();
        assert_eq!(no_seed.seed, None);
        assert_eq!(no_seed.body, InferBody::Words(vec![]));
    }

    #[test]
    fn decodes_raw_token_bodies_with_policy() {
        let wire = decode_infer(r#"{"tokens":["a","b"],"oov":"fail","seed":1}"#).unwrap();
        assert_eq!(
            wire.body,
            InferBody::Tokens {
                tokens: vec!["a".into(), "b".into()],
                policy: OovPolicy::Fail,
            }
        );
        let default_policy = decode_infer(r#"{"tokens":["a"]}"#).unwrap();
        assert!(matches!(
            default_policy.body,
            InferBody::Tokens {
                policy: OovPolicy::Skip,
                ..
            }
        ));
    }

    #[test]
    fn seeds_above_2_pow_53_survive() {
        let seed = u64::MAX - 1;
        let wire = decode_infer(&format!(r#"{{"words":[0],"seed":{seed}}}"#)).unwrap();
        assert_eq!(wire.seed, Some(seed));
    }

    #[test]
    fn rejects_malformed_bodies() {
        for body in [
            "",
            "[]",
            "{}",
            r#"{"words":[1],"tokens":["a"]}"#,
            r#"{"words":"nope"}"#,
            r#"{"words":[-1]}"#,
            r#"{"words":[4294967296]}"#,
            r#"{"words":[0.5]}"#,
            r#"{"tokens":[1]}"#,
            r#"{"tokens":["a"],"oov":"explode"}"#,
            r#"{"words":[1],"seed":-3}"#,
        ] {
            assert!(decode_infer(body).is_err(), "{body:?} must be rejected");
        }
    }

    #[test]
    fn id_list_parsing() {
        assert_eq!(parse_id_list("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_id_list("7").unwrap(), vec![7]);
        assert_eq!(parse_id_list("").unwrap(), Vec::<u32>::new());
        assert!(parse_id_list("1,x").is_err());
        assert!(parse_id_list("-1").is_err());
    }

    #[test]
    fn response_encoding_has_stable_members() {
        let response = InferResponse {
            theta: vec![0.75, 0.25],
            snapshot_version: 3,
            n_oov: 1,
        };
        let encoded = json::parse(&encode_infer_response(&response, 42).to_string()).unwrap();
        assert_eq!(encoded.get("dominant_topic").unwrap().as_u64(), Some(0));
        assert_eq!(encoded.get("snapshot_version").unwrap().as_u64(), Some(3));
        assert_eq!(encoded.get("n_oov").unwrap().as_u64(), Some(1));
        assert_eq!(encoded.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(encoded.get("theta").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn top_words_resolve_tokens_when_vocab_present() {
        let vocab = Vocabulary::synthetic(4);
        let encoded = encode_top_words(1, &[(0, 0.5), (3, 0.25)], Some(&vocab));
        let words = encoded.get("words").unwrap().as_array().unwrap();
        assert_eq!(words[0].get("token").unwrap().as_str(), Some("w00000"));
        let anonymous = encode_top_words(1, &[(0, 0.5)], None);
        let words = anonymous.get("words").unwrap().as_array().unwrap();
        assert!(words[0].get("token").is_none());
    }

    #[test]
    fn error_and_histogram_encoding() {
        let err = encode_error(429, "queue full");
        assert_eq!(err.get("status").unwrap().as_u64(), Some(429));
        assert_eq!(err.get("error").unwrap().as_str(), Some("queue full"));
        let empty = encode_histogram(&HistogramSnapshot::default());
        assert_eq!(empty.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(empty.get("p99_us"), Some(&JsonValue::Null));
    }
}
