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

// The decoders read untrusted bytes: a hostile length must not panic a
// shard through an index or a slice.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::sync::Arc;

use saber_core::infer::PartialFoldIn;
use saber_core::json::{self, Escaped, JsonValue};
use saber_corpus::OovPolicy;
use saber_trace::{SpanEvent, SpanRecord, Trace, TraceId};

use crate::http::{EndpointStats, HttpStats};
use crate::router::{PipelineStats, RouterStats};
use crate::server::{InferResponse, PartialRequest, PartialResponse, ServeStats};
use crate::snapshot::{FoldInKind, FoldInParams};
use crate::stats::{HistogramSnapshot, N_BUCKETS};
use crate::transport::ShardInfo;
use crate::ServeError;

/// A malformed request body; the HTTP layer answers `400`.
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

// ------------------------------------------------------------ metric table
//
// Each serving stat is one row: its `/stats` key, its `/metrics` series
// and its getter. `/stats`, `/metrics` and the lossless `ServeStats` copy
// of `/shard-info` are rendered from the rows; `encode_stats_body` and
// `write_exposition` only say how the groups nest and in what order each
// document visits them.

/// What `/metrics` shows of one stats member.
#[derive(Clone, Copy)]
enum Series {
    /// One counter sample.
    Counter(&'static str),
    /// One gauge sample.
    Gauge(&'static str),
    /// A counter with one sample per shard (`{shard="S"}`).
    LabelledCounter(&'static str),
    /// A gauge with one sample per replica (`{shard="S",replica="R"}`).
    LabelledGauge(&'static str),
    /// A histogram over [`PROMETHEUS_BOUNDS_US`], then the counter of the
    /// samples its top log₂ bucket clamped: nonzero means the tail
    /// quantiles understate reality.
    Histogram(&'static str, &'static str),
    /// A histogram family with one series per endpoint
    /// (`{endpoint="E"}`) under one `TYPE` line.
    EndpointFamily(&'static str),
}

impl Series {
    /// The counter or gauge the member shows among its group's, if any:
    /// its place there (plain counters, then the histograms' clamp
    /// counters, gauges, and labelled series last), name and `TYPE`.
    fn scalar(self) -> Option<(u8, &'static str, &'static str)> {
        match self {
            Series::Counter(name) => Some((0, name, "counter")),
            Series::Histogram(_, overflow) => Some((1, overflow, "counter")),
            Series::Gauge(name) => Some((2, name, "gauge")),
            Series::LabelledCounter(name) => Some((3, name, "counter")),
            Series::LabelledGauge(name) => Some((3, name, "gauge")),
            Series::EndpointFamily(_) => None,
        }
    }
}

/// One stats member as its row reads it.
#[derive(Clone, Copy)]
enum Value<'a> {
    Uint(u64),
    Float(f64),
    Latency(&'a HistogramSnapshot),
    /// One count per shard, in shard order.
    PerShard(&'a [u64]),
    /// One admitted flag per replica of each shard.
    PerReplica(&'a [Vec<bool>]),
}

impl Value<'_> {
    /// The member's `/stats` form; a histogram shows its quantiles.
    fn json(self) -> JsonValue {
        let flags =
            |set: &Vec<bool>| JsonValue::Array(set.iter().map(|&ok| JsonValue::Bool(ok)).collect());
        match self {
            Value::Uint(n) => JsonValue::from(n),
            Value::Float(x) => JsonValue::Number(x),
            Value::Latency(h) => encode_histogram(h),
            Value::PerShard(counts) => JsonValue::Array(counts.iter().map(|&n| n.into()).collect()),
            Value::PerReplica(sets) => JsonValue::Array(sets.iter().map(flags).collect()),
        }
    }

    /// The member's `/metrics` samples as `(labels, value)`; a histogram's
    /// one counter sample is its clamp count.
    fn samples(self) -> Vec<(String, u64)> {
        match self {
            Value::Uint(n) => vec![(String::new(), n)],
            Value::Latency(h) => vec![(String::new(), h.overflow())],
            Value::Float(_) => Vec::new(),
            Value::PerShard(counts) => (counts.iter().enumerate())
                .map(|(s, &n)| (format!("{{shard=\"{s}\"}}"), n))
                .collect(),
            Value::PerReplica(sets) => (sets.iter().enumerate())
                .flat_map(|(s, set)| set.iter().enumerate().map(move |(r, &ok)| (s, r, ok)))
                .map(|(s, r, ok)| (format!("{{shard=\"{s}\",replica=\"{r}\"}}"), u64::from(ok)))
                .collect(),
        }
    }
}

/// A [`ServeStats`] field, as the shard-info decoder fills it.
enum Field<'a> {
    Uint(&'a mut u64),
    Latency(&'a mut HistogramSnapshot),
}

/// One stats member: its `/stats` key, its `/metrics` series (`None` for
/// the members only `/stats` shows) and its getter. The server rows that
/// read a [`ServeStats`] field also name it in `field`: those rows make up
/// the lossless shard-info copy a router merges.
struct Row<T> {
    key: &'static str,
    series: Option<Series>,
    get: fn(&T) -> Value<'_>,
    field: Option<fn(&mut ServeStats) -> Field<'_>>,
}

impl<T> Row<T> {
    const fn new(key: &'static str, series: Option<Series>, get: fn(&T) -> Value<'_>) -> Self {
        Row {
            key,
            series,
            get,
            field: None,
        }
    }

    const fn lossless(mut self, field: fn(&mut ServeStats) -> Field<'_>) -> Self {
        self.field = Some(field);
        self
    }
}

/// What the `server` block describes: the serving counters (merged over
/// the shards behind a router), then the snapshot version and the shard
/// count read with them.
type ServerView<'a> = (&'a ServeStats, u64, usize);

/// The `server` rows; a function rather than a constant because the view
/// they read borrows its counters.
#[rustfmt::skip]
fn server_rows<'a>() -> [Row<ServerView<'a>>; 10] {
    use {Series::*, Value::*};
    type Server<'a> = Row<ServerView<'a>>;
    [
        Server::new("requests", Some(Counter("saber_serve_requests_total")), |v| Uint(v.0.requests))
            .lossless(|s| Field::Uint(&mut s.requests)),
        Server::new("tokens", Some(Counter("saber_serve_tokens_total")), |v| Uint(v.0.tokens))
            .lossless(|s| Field::Uint(&mut s.tokens)),
        Server::new("batches", Some(Counter("saber_serve_batches_total")), |v| Uint(v.0.batches))
            .lossless(|s| Field::Uint(&mut s.batches)),
        Server::new("swaps_observed", Some(Counter("saber_serve_swaps_observed_total")), |v| Uint(v.0.swaps_observed))
            .lossless(|s| Field::Uint(&mut s.swaps_observed)),
        Server::new("mean_batch_size", None, |v| Float(v.0.mean_batch_size())),
        Server::new("snapshot_version", Some(Gauge("saber_snapshot_epoch")), |v| Uint(v.1)),
        Server::new("shards", Some(Gauge("saber_shards")), |v| Uint(v.2 as u64)),
        Server::new("latency", Some(Histogram("saber_serve_latency_seconds", "saber_serve_latency_overflow_total")),
            |v| Latency(&v.0.latency)).lossless(|s| Field::Latency(&mut s.latency)),
        Server::new("queue_wait", Some(Histogram("saber_serve_queue_wait_seconds", "saber_serve_queue_wait_overflow_total")),
            |v| Latency(&v.0.queue_wait)).lossless(|s| Field::Latency(&mut s.queue_wait)),
        Server::new("handler", Some(Histogram("saber_serve_handler_seconds", "saber_serve_handler_overflow_total")),
            |v| Latency(&v.0.handler)).lossless(|s| Field::Latency(&mut s.handler)),
    ]
}

/// The router's own counters, beside the shard-merged `server` block;
/// absent from direct (unsharded) servers. `skew_retries` and `hedges`
/// always read 0: reads are pinned to one epoch and hedging is gone, but
/// the members stay in the bytes.
#[rustfmt::skip]
const ROUTER: [Row<RouterStats>; 10] = {
    use {Series::*, Value::*};
    [
        Row::new("requests", Some(Counter("saber_router_requests_total")), |r| Uint(r.requests)),
        Row::new("skew_retries", Some(Counter("saber_router_skew_retries_total")), |r| Uint(r.skew_retries)),
        Row::new("epoch", None, |r| Uint(r.epoch)),
        Row::new("shards", None, |r| Uint(r.n_shards as u64)),
        Row::new("shard_requests", Some(LabelledCounter("saber_router_shard_requests_total")), |r| PerShard(&r.shard_requests)),
        Row::new("transport_retries", Some(Counter("saber_router_transport_retries_total")), |r| Uint(r.transport_retries)),
        Row::new("hedges", Some(Counter("saber_router_hedges_total")), |r| Uint(r.hedges)),
        Row::new("breaker_trips", Some(Counter("saber_router_breaker_trips_total")), |r| Uint(r.breaker_trips)),
        Row::new("breaker_readmits", Some(Counter("saber_router_breaker_readmits_total")), |r| Uint(r.breaker_readmits)),
        Row::new("replica_health", Some(LabelledGauge("saber_router_replica_admitted")), |r| PerReplica(&r.replica_health)),
    ]
};

/// The publication counters, present only once a router has published an
/// epoch, so a fleet that never publishes keeps its pre-pipeline bytes.
#[rustfmt::skip]
const PIPELINE: [Row<PipelineStats>; 7] = {
    use {Series::*, Value::*};
    [
        Row::new("epochs_published", Some(Counter("saber_pipeline_epochs_published_total")), |p| Uint(p.epochs_published)),
        Row::new("delta_epochs", Some(Counter("saber_pipeline_delta_epochs_total")), |p| Uint(p.delta_epochs)),
        Row::new("rows_shipped", Some(Counter("saber_pipeline_rows_shipped_total")), |p| Uint(p.rows_shipped)),
        Row::new("rows_total", Some(Counter("saber_pipeline_rows_total")), |p| Uint(p.rows_total)),
        Row::new("fallbacks", Some(Counter("saber_pipeline_fallbacks_total")), |p| Uint(p.fallbacks)),
        Row::new("last_publish_micros", Some(Gauge("saber_pipeline_last_publish_micros")), |p| Uint(p.last_publish_micros)),
        Row::new("publish_micros_total", Some(Counter("saber_pipeline_publish_micros_total")), |p| Uint(p.publish_micros_total)),
    ]
};

/// The HTTP layer's counters; its per-endpoint latencies are
/// [`ENDPOINTS`] × [`ENDPOINT`].
#[rustfmt::skip]
const HTTP: [Row<HttpStats>; 3] = {
    use {Series::*, Value::*};
    [
        Row::new("requests", Some(Counter("saber_http_requests_total")), |h| Uint(h.requests)),
        Row::new("errors", Some(Counter("saber_http_errors_total")), |h| Uint(h.errors)),
        Row::new("active_connections", Some(Gauge("saber_http_active_connections")), |h| Uint(h.active_connections as u64)),
    ]
};

/// Picks one endpoint's latencies out of [`HttpStats`].
type EndpointOf = fn(&HttpStats) -> &EndpointStats;

/// The timed endpoints, in the order both documents list them.
const ENDPOINTS: [(&str, EndpointOf); 3] = [
    ("infer", |h| &h.infer),
    ("stats", |h| &h.stats),
    ("healthz", |h| &h.healthz),
];

/// One endpoint's latency split: the end-to-end histogram plus the
/// queue-wait/handler decomposition recovered from request traces.
#[rustfmt::skip]
const ENDPOINT: [Row<EndpointStats>; 3] = {
    use {Series::*, Value::*};
    [
        Row::new("total", Some(EndpointFamily("saber_http_request_duration_seconds")), |e| Latency(&e.total)),
        Row::new("queue_wait", Some(EndpointFamily("saber_http_queue_wait_seconds")), |e| Latency(&e.queue_wait)),
        Row::new("handler", Some(EndpointFamily("saber_http_handler_seconds")), |e| Latency(&e.handler)),
    ]
};

/// `rows` read off `stats` as `/stats` members, in row order.
fn json_members<T>(rows: &[Row<T>], stats: &T) -> Vec<(&'static str, JsonValue)> {
    rows.iter()
        .map(|row| (row.key, (row.get)(stats).json()))
        .collect()
}

/// `rows` read off `stats` as `/metrics` series, in row order.
fn series_values<'a, T>(rows: &[Row<T>], stats: &'a T) -> Vec<(Series, Value<'a>)> {
    rows.iter()
        .filter_map(|row| Some((row.series?, (row.get)(stats))))
        .collect()
}

/// Encodes the full `GET /stats` response body: the (shard-aggregated)
/// serving counters, on router-backed servers the router's (with the
/// publication counters once it has published), and the HTTP layer's
/// per-endpoint histograms.
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
    let view = (server, snapshot_version, n_shards);
    let mut members = vec![(
        "server",
        JsonValue::object(json_members(&server_rows(), &view)),
    )];
    if let Some(router) = router {
        let mut block = json_members(&ROUTER, router);
        if let Some(pipeline) = &router.pipeline {
            block.push((
                "pipeline",
                JsonValue::object(json_members(&PIPELINE, pipeline)),
            ));
        }
        members.push(("router", JsonValue::object(block)));
    }
    let mut block = json_members(&HTTP, http);
    let endpoints =
        ENDPOINTS.map(|(name, of)| (name, JsonValue::object(json_members(&ENDPOINT, of(http)))));
    block.push(("endpoints", JsonValue::object(endpoints)));
    members.push(("http", JsonValue::object(block)));
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
) -> fmt::Result {
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
        writeln!(out, "{name}_bucket{} {}", with_le(&le), cum)?;
    }
    writeln!(out, "{name}_bucket{} {}", with_le("+Inf"), h.count())?;
    writeln!(out, "{name}_sum{plain} {}", h.sum_micros() as f64 / 1e6)?;
    writeln!(out, "{name}_count{plain} {}", h.count())
}

/// The `/metrics` layout. Each group in turn — `[http, server]`, then
/// `[router]` and `[pipeline]` when present — writes its counters and
/// gauges in [`Series::scalar`] order (a stable sort keeps row order among
/// equals). Every group's histograms follow, and last the per-endpoint
/// families, each under one `TYPE` line (spec-conforming parsers reject a
/// repeated `TYPE` line for the same name).
fn write_exposition(
    out: &mut String,
    server: &ServerView<'_>,
    http: &HttpStats,
    router: Option<&RouterStats>,
) -> fmt::Result {
    use std::fmt::Write as _;
    let mut groups = vec![[
        series_values(&HTTP, http),
        series_values(&server_rows(), server),
    ]
    .concat()];
    if let Some(router) = router {
        groups.push(series_values(&ROUTER, router));
        if let Some(pipeline) = &router.pipeline {
            groups.push(series_values(&PIPELINE, pipeline));
        }
    }
    for group in &groups {
        let mut scalars: Vec<_> = (group.iter())
            .filter_map(|&(series, value)| Some((series.scalar()?, value)))
            .collect();
        scalars.sort_by_key(|&((place, ..), _)| place);
        for ((_, name, kind), value) in scalars {
            writeln!(out, "# TYPE {name} {kind}")?;
            for (labels, n) in value.samples() {
                writeln!(out, "{name}{labels} {n}")?;
            }
        }
    }
    for &(series, value) in groups.iter().flatten() {
        if let (Series::Histogram(name, _), Value::Latency(h)) = (series, value) {
            writeln!(out, "# TYPE {name} histogram")?;
            prometheus_histogram(out, name, None, h)?;
        }
    }
    for row in &ENDPOINT {
        let Some(Series::EndpointFamily(name)) = row.series else {
            continue;
        };
        writeln!(out, "# TYPE {name} histogram")?;
        for (endpoint, of) in ENDPOINTS {
            if let Value::Latency(h) = (row.get)(of(http)) {
                prometheus_histogram(out, name, Some(("endpoint", endpoint)), h)?;
            }
        }
    }
    Ok(())
}

/// Encodes the `GET /metrics` body in Prometheus text exposition format:
/// the members of [`encode_stats_body`] as `saber_*` counters, gauges and
/// histograms (all but the JSON-only `mean_batch_size`, `router.epoch`
/// and `router.shards`), with cumulative buckets over fixed decade bounds
/// (100 µs to 10 s; internal log₂ buckets fold conservatively into the
/// first bound at or above their upper edge). Router-backed servers
/// additionally expose the router's counters, per-shard requests and
/// per-replica admission and, once they have published, the publication
/// counters.
pub fn encode_prometheus(
    server: &ServeStats,
    snapshot_version: u64,
    n_shards: usize,
    http: &HttpStats,
    router: Option<&RouterStats>,
) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_exposition(
        &mut out,
        &(server, snapshot_version, n_shards),
        http,
        router,
    );
    out
}

/// Maps a non-2xx shard response back onto the [`ServeError`] the shard's
/// HTTP layer encoded, so the router's error handling (and its refusal of
/// an unheld pinned epoch) behaves identically whether the shard is a function call or a
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
/// the bit), then the snapshot version the router checks against the
/// epoch it pinned and the word-id range this shard serves (informational;
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
    decode_partial_response_over(body, None)
}

/// [`decode_partial_response`] for a router whose fleet serves `n_topics`
/// topics (`None`: any `k` up to [`MAX_PARTIAL_TOPICS`]). A partial over
/// another `k` is refused before its dense counts are allocated, so a
/// short body cannot size them.
///
/// # Errors
///
/// As [`decode_partial_response`], and when `k` is not `n_topics`.
pub fn decode_partial_response_over(
    body: &str,
    n_topics: Option<usize>,
) -> Result<PartialResponse, WireError> {
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
    if let Some(n) = n_topics.filter(|&n| k != n as u64) {
        return Err(WireError::new(format!(
            "a partial over {k} topics, the fleet serves {n}"
        )));
    }
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
    #[expect(
        clippy::disallowed_methods,
        reason = "k is checked against MAX_PARTIAL_TOPICS above"
    )]
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
    // The snapshot keeps its total count in a `u64`; a body whose counts
    // sum past it is refused before any bucket is added up.
    let total = pairs
        .iter()
        .try_fold(0u64, |total, &(_, c)| total.checked_add(c));
    total.ok_or_else(|| WireError::new(format!("'{what}.buckets' counts overflow a u64")))?;
    HistogramSnapshot::from_sparse_buckets(pairs, sum_us, overflow)
        .ok_or_else(|| WireError::new(format!("'{what}.buckets' index out of range")))
}

/// Encodes a full [`ServeStats`] — the server rows that name a field,
/// histogram buckets included. Unlike the human-facing `/stats` body
/// (which only derives quantiles), this is lossless, so a router can merge
/// remote shard histograms (end-to-end latency plus its queue-wait/handler
/// split) exactly.
fn encode_serve_stats(stats: &ServeStats) -> JsonValue {
    // The snapshot version and shard count of the view are not copied.
    let lossless = server_rows().into_iter().filter(|row| row.field.is_some());
    JsonValue::object(lossless.map(|row| match (row.get)(&(stats, 0, 0)) {
        Value::Latency(h) => (row.key, encode_sparse_histogram(h)),
        value => (row.key, value.json()),
    }))
}

/// Decodes [`encode_serve_stats`]' copy, field by field in row order.
fn decode_serve_stats(value: &JsonValue) -> Result<ServeStats, WireError> {
    let mut stats = ServeStats::default();
    for (name, field) in server_rows()
        .into_iter()
        .filter_map(|row| Some((row.key, row.field?)))
    {
        let member = value.get(name);
        let missing = || WireError::new(format!("'stats' must carry a '{name}' member"));
        let not_uint = || WireError::new(format!("'stats.{name}' must be an unsigned integer"));
        match field(&mut stats) {
            Field::Uint(n) => *n = member.and_then(JsonValue::as_u64).ok_or_else(not_uint)?,
            Field::Latency(h) => *h = decode_sparse_histogram(member.ok_or_else(missing)?, name)?,
        }
    }
    Ok(stats)
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
    // Checked after the cast: `1e39` is a finite `f64` but an infinite `f32`.
    let alpha = value
        .get("alpha")
        .and_then(JsonValue::as_f64)
        .map(|a| a as f32)
        .filter(|a| a.is_finite() && *a > 0.0)
        .ok_or_else(|| WireError::new("'alpha' must be a finite positive number"))?;
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
    use proptest::collection::vec;
    use proptest::prelude::*;
    use saber_core::infer::PartialFoldIn;

    /// The `JsonValue` tree `encode_infer_response` built before it wrote θ
    /// itself: the oracle the tree-free writer must match byte for byte.
    fn infer_response_tree(response: &InferResponse, seed: u64) -> String {
        JsonValue::object([
            ("theta", JsonValue::f32_array(&response.theta)),
            ("dominant_topic", JsonValue::from(response.dominant_topic())),
            (
                "snapshot_version",
                JsonValue::from(response.snapshot_version),
            ),
            ("n_oov", JsonValue::from(response.n_oov)),
            ("seed", JsonValue::from(seed)),
        ])
        .to_string()
    }

    fn assert_theta_bytes(theta: Vec<f32>) {
        let response = InferResponse {
            theta,
            snapshot_version: 3,
            n_oov: 1,
        };
        assert_eq!(
            encode_infer_response(&response, u64::MAX).to_string(),
            infer_response_tree(&response, u64::MAX),
            "θ = {:?}",
            response.theta
        );
    }

    #[test]
    fn theta_writer_matches_the_tree_on_edge_cases() {
        let base = 0.05f32 / 74.0;
        for theta in [
            vec![],
            vec![0.5],
            vec![0.0, -0.0, 0.0, 0.0, -0.0, -0.0],
            vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN, 1.0],
            vec![
                f32::MIN_POSITIVE,
                1e-40,
                -1e-45,
                f32::MAX,
                f32::MIN,
                f32::EPSILON,
            ],
            // The shape of a short document: one value almost everywhere.
            [
                vec![base; 700],
                vec![0.25, base, base, 0.125],
                vec![base; 300],
            ]
            .concat(),
            vec![base; 4096],
            // More distinct values than any memo holds, each repeated later.
            (0..600).map(|i| (i % 300) as f32 / 7.0).collect(),
        ] {
            assert_theta_bytes(theta);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary `f32` bit patterns (NaNs, infinities, subnormals and both
        /// zeros included) in runs of arbitrary length, K from 0 upwards.
        #[test]
        fn theta_writer_matches_the_tree(
            palette in vec(any::<u32>(), 1..6usize),
            picks in vec(any::<u8>(), 0..40usize),
            runs in vec(1usize..50, 0..40usize),
        ) {
            let theta: Vec<f32> = picks
                .iter()
                .zip(&runs)
                .flat_map(|(&pick, &run)| {
                    // Half the picks come from the shared palette (repeats far
                    // apart), the rest are the IEEE corner cases.
                    let corner = [0.0, -0.0, f32::NAN, f32::INFINITY, 1e-40, 1.0];
                    let value = match pick % 12 {
                        c @ 0..=5 => corner[c as usize],
                        p => f32::from_bits(palette[p as usize % palette.len()]),
                    };
                    std::iter::repeat_n(value, run)
                })
                .collect();
            let response = InferResponse { theta, snapshot_version: 9, n_oov: 0 };
            prop_assert_eq!(
                encode_infer_response(&response, 7).to_string(),
                infer_response_tree(&response, 7)
            );
        }
    }

    #[test]
    fn partial_response_size_follows_the_touched_topics_not_k() {
        // One 24-token document under the default 8 measured sweeps: 192
        // assignments, here over 60 topics.
        let partial = |k: usize| {
            let mut counts = vec![0.0f64; k];
            for draw in 0..192usize {
                counts[(draw % 60) * 16 + 5] += 1.0;
            }
            PartialResponse {
                partial: PartialFoldIn {
                    counts,
                    n_words: 24,
                },
                snapshot_version: 41,
                n_oov: 0,
                spans: Vec::new(),
            }
        };
        let small = encode_partial_response(&partial(1000), (0, 5100)).to_string();
        let large = encode_partial_response(&partial(4000), (0, 5100)).to_string();
        assert!(small.len() < 1024, "{} bytes: {small}", small.len());
        assert!(
            large.len().abs_diff(small.len()) < 16,
            "{} vs {}",
            small.len(),
            large.len()
        );
        assert_eq!(decode_partial_response(&large).unwrap(), partial(4000));

        // An EM round's responsibilities touch every topic: sparse in form
        // only, and still the exact inverse.
        let dense = PartialResponse {
            partial: PartialFoldIn {
                counts: (1..=500).map(|t| 1.0 / f64::from(t)).collect(),
                n_words: 24,
            },
            snapshot_version: 41,
            n_oov: 2,
            spans: Vec::new(),
        };
        let body = encode_partial_response(&dense, (0, 5100)).to_string();
        assert_eq!(decode_partial_response(&body).unwrap(), dense);
    }

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
    fn error_and_histogram_encoding() {
        let err = encode_error(429, "queue full");
        assert_eq!(err.get("status").unwrap().as_u64(), Some(429));
        assert_eq!(err.get("error").unwrap().as_str(), Some("queue full"));
        let empty = encode_histogram(&HistogramSnapshot::default());
        assert_eq!(empty.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(empty.get("p99_us"), Some(&JsonValue::Null));
    }

    #[test]
    fn shard_info_bucket_counts_past_u64_are_refused() {
        let body = concat!(
            r#"{"epoch":2,"vocab_size":12,"n_topics":3,"alpha":0.05000000074505806,"#,
            r#""shard":[0,12],"fold_in":{"kind":"esca","burn_in":5,"samples":8},"#,
            r#""stats":{"requests":3,"tokens":9,"batches":2,"swaps_observed":1,"#,
            r#""latency":{"sum_us":91700,"buckets":[[9,18446744073709551615],[16,1]]},"#,
            r#""queue_wait":{"sum_us":0,"buckets":[]},"handler":{"sum_us":0,"buckets":[]}}}"#,
        );
        let err = decode_shard_info(body).expect_err("the counts sum past u64::MAX");
        assert!(err.detail.contains("'latency.buckets'"), "{err}");
    }

    #[test]
    fn shard_info_alpha_must_be_finite_and_positive() {
        let body = |alpha: &str| {
            format!(
                concat!(
                    r#"{{"epoch":2,"vocab_size":12,"n_topics":3,"alpha":{},"#,
                    r#""shard":[0,12],"fold_in":{{"kind":"esca","burn_in":5,"samples":8}},"#,
                    r#""stats":{{"requests":0,"tokens":0,"batches":0,"swaps_observed":0,"#,
                    r#""latency":{{"sum_us":0,"buckets":[]}},"#,
                    r#""queue_wait":{{"sum_us":0,"buckets":[]}},"handler":{{"sum_us":0,"buckets":[]}}}}}}"#,
                ),
                alpha
            )
        };
        assert_eq!(decode_shard_info(&body("0.05")).unwrap().alpha, 0.05);
        // `1e39` is a finite f64 that overflows to an infinite f32.
        for alpha in ["1e39", "0", "-0.05", "null"] {
            let err = decode_shard_info(&body(alpha)).expect_err(alpha);
            assert!(err.detail.contains("'alpha'"), "{alpha}: {err}");
        }
    }

    /// Every `/metrics` series name of a row.
    fn series_names(series: Option<Series>) -> Vec<&'static str> {
        match series {
            None => Vec::new(),
            Some(Series::Histogram(seconds, overflow)) => vec![seconds, overflow],
            Some(
                Series::Counter(name)
                | Series::Gauge(name)
                | Series::LabelledCounter(name)
                | Series::LabelledGauge(name)
                | Series::EndpointFamily(name),
            ) => vec![name],
        }
    }

    #[test]
    fn the_observability_doc_lists_every_series_of_the_table() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let table = doc
            .split("\n## Metric table\n")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("docs/OBSERVABILITY.md has a '## Metric table' section");
        // Code spans of the table rows that name a series; labels dropped.
        let documented: std::collections::BTreeSet<&str> = table
            .lines()
            .filter(|line| line.starts_with('|'))
            .flat_map(|line| line.split('`').skip(1).step_by(2))
            .filter(|span| span.starts_with("saber_"))
            .map(|span| span.split('{').next().unwrap_or(span))
            .collect();
        let mut declared = std::collections::BTreeSet::new();
        let all_series = (server_rows().into_iter().map(|row| row.series))
            .chain(ROUTER.iter().map(|row| row.series))
            .chain(PIPELINE.iter().map(|row| row.series))
            .chain(HTTP.iter().map(|row| row.series))
            .chain(ENDPOINT.iter().map(|row| row.series));
        for series in all_series {
            for name in series_names(series) {
                assert!(declared.insert(name), "{name} is declared twice");
            }
        }
        assert_eq!(documented, declared);
    }

    #[test]
    fn the_golden_suite_names_every_wire_codec() {
        let wire = include_str!("wire.rs");
        let golden = include_str!("../../../tests/wire_golden.rs");
        let non_test = wire.split("\n#[cfg(test)]\nmod tests").next().unwrap();
        let codecs: Vec<&str> = non_test
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
            .map(|rest| rest.split(['(', '<']).next().unwrap())
            .filter(|name| name.starts_with("encode_") || name.starts_with("decode_"))
            .collect();
        assert!(!codecs.is_empty(), "no codec found in wire.rs");
        // A word: not part of a longer identifier on either side.
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        for name in codecs {
            let named = golden.match_indices(name).any(|(at, _)| {
                !golden[..at].ends_with(is_ident)
                    && !golden[at + name.len()..].starts_with(is_ident)
            });
            assert!(
                named,
                "wire codec `{name}` has no fixture in tests/wire_golden.rs"
            );
        }
    }
}
