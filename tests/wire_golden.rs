//! Golden wire-format tests: the exact bytes of the JSON protocol.
//!
//! The serving wire formats ride on `saber_core::json`, whose serialiser
//! is deterministic (ordered members, shortest-round-trip floats, exact
//! `u64`). These tests commit fixture strings for the client-visible
//! bodies and assert **byte-for-byte** stability, so a codec or encoder
//! refactor that silently changes the protocol — member order, float
//! formatting, integer width — fails here instead of breaking clients.
//!
//! If one of these assertions fails, the change is a wire-protocol break:
//! either revert it or treat it as one (bump the protocol, update
//! `docs/SERVING.md`, and only then update the fixture).

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use saberlda::serve::stats::LatencyHistogram;
use saberlda::serve::wire;
use saberlda::serve::{
    EndpointStats, FoldInParams, HttpConfig, HttpServer, HttpStats, InferResponse, PartialRequest,
    PartialResponse, PipelineStats, RouterStats, ServeConfig, ServeStats, ShardInfo, ShardPlan,
    ShardRouter, TopicServer,
};
use saberlda::trace::{SpanEvent, SpanRecord, Trace, TraceId};
use saberlda::LdaModel;

#[test]
fn infer_response_bytes_are_stable() {
    let response = InferResponse {
        theta: vec![0.75, 0.25],
        snapshot_version: 3,
        n_oov: 1,
    };
    assert_eq!(
        wire::encode_infer_response(&response, 42).to_string(),
        r#"{"theta":[0.75,0.25],"dominant_topic":0,"snapshot_version":3,"n_oov":1,"seed":42}"#,
    );
    // Seeds above 2^53 must survive exactly (u64-exact JSON integers).
    let max_seed = wire::encode_infer_response(&response, u64::MAX).to_string();
    assert!(
        max_seed.ends_with(r#""seed":18446744073709551615}"#),
        "{max_seed}"
    );
}

#[test]
fn error_body_bytes_are_stable() {
    assert_eq!(
        wire::encode_error(429, "queue full").to_string(),
        r#"{"error":"queue full","status":429}"#,
    );
}

/// The `/stats` bytes of an endpoint no request has hit yet: all three
/// sub-histograms (total, queue-wait, handler) empty.
const EMPTY_ENDPOINT: &str = concat!(
    r#"{"total":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null},"#,
    r#""queue_wait":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null},"#,
    r#""handler":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null}}"#,
);

/// The `/stats` bytes of a histogram with no sample.
const EMPTY_HISTOGRAM: &str =
    r#"{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null}"#;

/// The `http` member of `/stats` for one request over one connection
/// and no timed endpoint request yet, closing the whole body.
fn idle_http_block() -> String {
    [
        r#""http":{"requests":1,"errors":0,"active_connections":1,"endpoints":{"#,
        r#""infer":"#,
        EMPTY_ENDPOINT,
        r#","stats":"#,
        EMPTY_ENDPOINT,
        r#","healthz":"#,
        EMPTY_ENDPOINT,
        "}}}",
    ]
    .concat()
}

/// The serve queue-wait and handler histograms of `/metrics` before their
/// first sample.
const EMPTY_SERVE_SPLIT: &str = r#"# TYPE saber_serve_queue_wait_seconds histogram
saber_serve_queue_wait_seconds_bucket{le="0.0001"} 0
saber_serve_queue_wait_seconds_bucket{le="0.001"} 0
saber_serve_queue_wait_seconds_bucket{le="0.01"} 0
saber_serve_queue_wait_seconds_bucket{le="0.1"} 0
saber_serve_queue_wait_seconds_bucket{le="1"} 0
saber_serve_queue_wait_seconds_bucket{le="10"} 0
saber_serve_queue_wait_seconds_bucket{le="+Inf"} 0
saber_serve_queue_wait_seconds_sum 0
saber_serve_queue_wait_seconds_count 0
# TYPE saber_serve_handler_seconds histogram
saber_serve_handler_seconds_bucket{le="0.0001"} 0
saber_serve_handler_seconds_bucket{le="0.001"} 0
saber_serve_handler_seconds_bucket{le="0.01"} 0
saber_serve_handler_seconds_bucket{le="0.1"} 0
saber_serve_handler_seconds_bucket{le="1"} 0
saber_serve_handler_seconds_bucket{le="10"} 0
saber_serve_handler_seconds_bucket{le="+Inf"} 0
saber_serve_handler_seconds_sum 0
saber_serve_handler_seconds_count 0
"#;

/// The per-endpoint queue-wait and handler histogram families of `/metrics`
/// before any endpoint queued a request.
const EMPTY_HTTP_SPLIT: &str = r#"# TYPE saber_http_queue_wait_seconds histogram
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="0.0001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="0.001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="0.01"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="0.1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="10"} 0
saber_http_queue_wait_seconds_bucket{endpoint="infer",le="+Inf"} 0
saber_http_queue_wait_seconds_sum{endpoint="infer"} 0
saber_http_queue_wait_seconds_count{endpoint="infer"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="0.0001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="0.001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="0.01"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="0.1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="10"} 0
saber_http_queue_wait_seconds_bucket{endpoint="stats",le="+Inf"} 0
saber_http_queue_wait_seconds_sum{endpoint="stats"} 0
saber_http_queue_wait_seconds_count{endpoint="stats"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="0.0001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="0.001"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="0.01"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="0.1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="1"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="10"} 0
saber_http_queue_wait_seconds_bucket{endpoint="healthz",le="+Inf"} 0
saber_http_queue_wait_seconds_sum{endpoint="healthz"} 0
saber_http_queue_wait_seconds_count{endpoint="healthz"} 0
# TYPE saber_http_handler_seconds histogram
saber_http_handler_seconds_bucket{endpoint="infer",le="0.0001"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="0.001"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="0.01"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="0.1"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="1"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="10"} 0
saber_http_handler_seconds_bucket{endpoint="infer",le="+Inf"} 0
saber_http_handler_seconds_sum{endpoint="infer"} 0
saber_http_handler_seconds_count{endpoint="infer"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="0.0001"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="0.001"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="0.01"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="0.1"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="1"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="10"} 0
saber_http_handler_seconds_bucket{endpoint="stats",le="+Inf"} 0
saber_http_handler_seconds_sum{endpoint="stats"} 0
saber_http_handler_seconds_count{endpoint="stats"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="0.0001"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="0.001"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="0.01"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="0.1"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="1"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="10"} 0
saber_http_handler_seconds_bucket{endpoint="healthz",le="+Inf"} 0
saber_http_handler_seconds_sum{endpoint="healthz"} 0
saber_http_handler_seconds_count{endpoint="healthz"} 0
"#;

#[test]
fn stats_body_bytes_are_stable() {
    // Histograms built from fixed durations are fully deterministic:
    // fixed bucket counts, sums and therefore quantile midpoints.
    let latency = LatencyHistogram::new();
    latency.record(Duration::from_micros(800));
    latency.record(Duration::from_micros(1500));
    latency.record(Duration::from_millis(90));
    let serve = ServeStats {
        requests: 3,
        tokens: 42,
        batches: 2,
        swaps_observed: 1,
        latency: latency.snapshot(),
        queue_wait: LatencyHistogram::new().snapshot(),
        handler: LatencyHistogram::new().snapshot(),
    };
    let endpoint = LatencyHistogram::new();
    endpoint.record(Duration::from_micros(900));
    endpoint.record(Duration::from_micros(1100));
    let http = HttpStats {
        requests: 5,
        errors: 1,
        active_connections: 2,
        infer: EndpointStats {
            total: endpoint.snapshot(),
            queue_wait: LatencyHistogram::new().snapshot(),
            handler: LatencyHistogram::new().snapshot(),
        },
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    assert_eq!(
        wire::encode_stats_body(&serve, 4, 3, &http, None).to_string(),
        [
            r#"{"server":{"requests":3,"tokens":42,"batches":2,"swaps_observed":1,"#,
            r#""mean_batch_size":1.5,"snapshot_version":4,"shards":3,"#,
            r#""latency":{"count":3,"mean_us":30766.666666666668,"p50_us":1448.1546878700494,"#,
            r#""p95_us":92681.90002368316,"p99_us":92681.90002368316},"#,
            r#""queue_wait":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null},"#,
            r#""handler":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null}},"#,
            r#""http":{"requests":5,"errors":1,"active_connections":2,"endpoints":{"#,
            r#""infer":{"total":{"count":2,"mean_us":1000,"p50_us":724.0773439350247,"#,
            r#""p95_us":1448.1546878700494,"p99_us":1448.1546878700494},"#,
            r#""queue_wait":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null},"#,
            r#""handler":{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null}},"#,
            r#""stats":"#,
            EMPTY_ENDPOINT,
            r#","#,
            r#""healthz":"#,
            EMPTY_ENDPOINT,
            r#"}}}"#,
        ]
        .concat(),
    );
}

#[test]
fn partial_request_bytes_are_stable() {
    // The shard fan-out protocol (ISSUE 5): both request kinds, pinned.
    assert_eq!(
        wire::encode_partial_request(&[0, 3], &PartialRequest::FoldIn { seed: 7 }).to_string(),
        r#"{"words":[0,3],"esca":{"seed":7}}"#,
    );
    let em = PartialRequest::EmRound {
        round: 1,
        theta: std::sync::Arc::new(vec![0.5, 1.0 / 3.0, 0.1]),
    };
    assert_eq!(
        wire::encode_partial_request(&[2], &em).to_string(),
        r#"{"words":[2],"em":{"round":1,"theta":[0.5,0.3333333333333333,0.1]}}"#,
    );
    // Decode is the exact inverse — bit-for-bit on θ, which is what keeps
    // remote EM merges algebraically exact.
    let (words, decoded) = wire::decode_partial_request(
        r#"{"words":[2],"em":{"round":1,"theta":[0.5,0.3333333333333333,0.1]}}"#,
    )
    .unwrap();
    assert_eq!(words, vec![2]);
    match decoded {
        PartialRequest::EmRound { round, theta } => {
            assert_eq!(round, 1);
            let expect = [0.5f64, 1.0 / 3.0, 0.1];
            assert_eq!(
                theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
        other => panic!("decoded the wrong request kind: {other:?}"),
    }
}

#[test]
fn partial_response_bytes_are_stable() {
    let response = PartialResponse {
        partial: saberlda::core::infer::PartialFoldIn {
            counts: vec![4.5, 1.5, 0.0],
            n_words: 6,
        },
        snapshot_version: 3,
        n_oov: 1,
        spans: Vec::new(),
    };
    // The sparse partial protocol (ISSUE 19, a fleet-internal protocol
    // bump: docs/SERVING.md §Exactness over the wire): `k`, the non-zero
    // topics and their counts. An untraced response carries no `spans`
    // member, so tracing is invisible to peers that never opt in.
    let encoded = wire::encode_partial_response(&response, (12, 24)).to_string();
    assert_eq!(
        encoded,
        r#"{"k":3,"topics":[0,1],"counts":[4.5,1.5],"n_words":6,"snapshot_version":3,"n_oov":1,"shard":[12,24]}"#,
    );
    let decoded = wire::decode_partial_response(&encoded).unwrap();
    assert_eq!(decoded, response);
}

#[test]
fn partial_response_bytes_decode_against_the_fleets_k() {
    // A router decodes a shard's partial against its fleet's K: the golden
    // bytes above are a K = 3 fleet's partial, and any other K refuses them.
    let encoded = r#"{"k":3,"topics":[0,1],"counts":[4.5,1.5],"n_words":6,"snapshot_version":3,"n_oov":1,"shard":[12,24]}"#;
    let decoded = wire::decode_partial_response_over(encoded, Some(3)).unwrap();
    assert_eq!(decoded, wire::decode_partial_response(encoded).unwrap());
    for k in [2, 4] {
        let refused = wire::decode_partial_response_over(encoded, Some(k)).unwrap_err();
        assert!(
            refused.to_string().contains("the fleet serves"),
            "{refused}"
        );
    }
}

#[test]
fn traced_partial_response_bytes_are_stable() {
    // When the router forwards an `X-Saber-Trace` header, the shard's
    // spans ride home inline in the `/infer-partial` response. `parent`
    // is null on the subtree root; `events` is omitted when empty.
    let response = PartialResponse {
        partial: saberlda::core::infer::PartialFoldIn {
            counts: vec![4.5, 1.5, 0.0],
            n_words: 6,
        },
        snapshot_version: 3,
        n_oov: 1,
        spans: vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "infer-partial".to_string(),
                start_us: 0,
                duration_us: 180,
                events: vec![SpanEvent {
                    at_us: 90,
                    message: "queued".to_string(),
                }],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "handler".to_string(),
                start_us: 40,
                duration_us: 120,
                events: Vec::new(),
            },
        ],
    };
    let encoded = wire::encode_partial_response(&response, (12, 24)).to_string();
    assert_eq!(
        encoded,
        concat!(
            r#"{"k":3,"topics":[0,1],"counts":[4.5,1.5],"n_words":6,"snapshot_version":3,"n_oov":1,"#,
            r#""shard":[12,24],"spans":[{"id":1,"parent":null,"name":"infer-partial","start_us":0,"#,
            r#""duration_us":180,"events":[{"at_us":90,"message":"queued"}]},"#,
            r#"{"id":2,"parent":1,"name":"handler","start_us":40,"duration_us":120}]}"#,
        ),
    );
    // Spans survive the wire exactly, so the router can attach the shard
    // subtree without loss.
    let decoded = wire::decode_partial_response(&encoded).unwrap();
    assert_eq!(decoded, response);
}

#[test]
fn shard_info_bytes_are_stable() {
    let latency = LatencyHistogram::new();
    latency.record(Duration::from_micros(800));
    latency.record(Duration::from_micros(900));
    latency.record(Duration::from_millis(90));
    let info = ShardInfo {
        epoch: 2,
        vocab_size: 12,
        n_topics: 3,
        alpha: 0.05,
        shard_range: (0, 12),
        fold_in: FoldInParams::default(),
        stats: ServeStats {
            requests: 3,
            tokens: 9,
            batches: 2,
            swaps_observed: 1,
            latency: latency.snapshot(),
            queue_wait: LatencyHistogram::new().snapshot(),
            handler: LatencyHistogram::new().snapshot(),
        },
    };
    let encoded = wire::encode_shard_info(&info).to_string();
    assert_eq!(
        encoded,
        concat!(
            r#"{"epoch":2,"vocab_size":12,"n_topics":3,"alpha":0.05000000074505806,"#,
            r#""shard":[0,12],"fold_in":{"kind":"esca","burn_in":5,"samples":8},"#,
            r#""stats":{"requests":3,"tokens":9,"batches":2,"swaps_observed":1,"#,
            r#""latency":{"sum_us":91700,"buckets":[[9,2],[16,1]]},"#,
            r#""queue_wait":{"sum_us":0,"buckets":[]},"handler":{"sum_us":0,"buckets":[]}}}"#,
        ),
    );
    // The histogram survives the wire losslessly: same buckets, same sum,
    // same quantiles.
    let decoded = wire::decode_shard_info(&encoded).unwrap();
    assert_eq!(decoded, info);
    assert_eq!(decoded.stats.latency.p99(), info.stats.latency.p99());
}

#[test]
fn prometheus_bytes_are_stable() {
    let latency = LatencyHistogram::new();
    latency.record(Duration::from_micros(800));
    latency.record(Duration::from_millis(90));
    let serve = ServeStats {
        requests: 2,
        tokens: 10,
        batches: 1,
        swaps_observed: 0,
        latency: latency.snapshot(),
        queue_wait: LatencyHistogram::new().snapshot(),
        handler: LatencyHistogram::new().snapshot(),
    };
    let infer = LatencyHistogram::new();
    infer.record(Duration::from_micros(900));
    let http = HttpStats {
        requests: 5,
        errors: 1,
        active_connections: 2,
        infer: EndpointStats {
            total: infer.snapshot(),
            queue_wait: LatencyHistogram::new().snapshot(),
            handler: LatencyHistogram::new().snapshot(),
        },
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    let router = RouterStats {
        requests: 4,
        skew_retries: 1,
        epoch: 2,
        n_shards: 2,
        shard_requests: vec![3, 1],
        transport_retries: 2,
        hedges: 5,
        breaker_trips: 1,
        breaker_readmits: 1,
        replica_health: vec![vec![true, false], vec![true]],
        pipeline: None,
    };
    let text = wire::encode_prometheus(&serve, 2, 2, &http, Some(&router));
    // The whole exposition, every endpoint of every family included. The
    // 900 µs sample's log₂ bucket spans [512 µs, 1024 µs); its upper edge
    // exceeds the 1 ms bound, so it folds conservatively upward.
    let expected = [
        r#"# TYPE saber_http_requests_total counter
saber_http_requests_total 5
# TYPE saber_http_errors_total counter
saber_http_errors_total 1
# TYPE saber_serve_requests_total counter
saber_serve_requests_total 2
# TYPE saber_serve_tokens_total counter
saber_serve_tokens_total 10
# TYPE saber_serve_batches_total counter
saber_serve_batches_total 1
# TYPE saber_serve_swaps_observed_total counter
saber_serve_swaps_observed_total 0
# TYPE saber_serve_latency_overflow_total counter
saber_serve_latency_overflow_total 0
# TYPE saber_serve_queue_wait_overflow_total counter
saber_serve_queue_wait_overflow_total 0
# TYPE saber_serve_handler_overflow_total counter
saber_serve_handler_overflow_total 0
# TYPE saber_http_active_connections gauge
saber_http_active_connections 2
# TYPE saber_snapshot_epoch gauge
saber_snapshot_epoch 2
# TYPE saber_shards gauge
saber_shards 2
# TYPE saber_router_requests_total counter
saber_router_requests_total 4
# TYPE saber_router_skew_retries_total counter
saber_router_skew_retries_total 1
# TYPE saber_router_transport_retries_total counter
saber_router_transport_retries_total 2
# TYPE saber_router_hedges_total counter
saber_router_hedges_total 5
# TYPE saber_router_breaker_trips_total counter
saber_router_breaker_trips_total 1
# TYPE saber_router_breaker_readmits_total counter
saber_router_breaker_readmits_total 1
# TYPE saber_router_shard_requests_total counter
saber_router_shard_requests_total{shard="0"} 3
saber_router_shard_requests_total{shard="1"} 1
# TYPE saber_router_replica_admitted gauge
saber_router_replica_admitted{shard="0",replica="0"} 1
saber_router_replica_admitted{shard="0",replica="1"} 0
saber_router_replica_admitted{shard="1",replica="0"} 1
# TYPE saber_serve_latency_seconds histogram
saber_serve_latency_seconds_bucket{le="0.0001"} 0
saber_serve_latency_seconds_bucket{le="0.001"} 0
saber_serve_latency_seconds_bucket{le="0.01"} 1
saber_serve_latency_seconds_bucket{le="0.1"} 1
saber_serve_latency_seconds_bucket{le="1"} 2
saber_serve_latency_seconds_bucket{le="10"} 2
saber_serve_latency_seconds_bucket{le="+Inf"} 2
saber_serve_latency_seconds_sum 0.0908
saber_serve_latency_seconds_count 2
"#,
        EMPTY_SERVE_SPLIT,
        r#"# TYPE saber_http_request_duration_seconds histogram
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.01"} 1
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.1"} 1
saber_http_request_duration_seconds_bucket{endpoint="infer",le="1"} 1
saber_http_request_duration_seconds_bucket{endpoint="infer",le="10"} 1
saber_http_request_duration_seconds_bucket{endpoint="infer",le="+Inf"} 1
saber_http_request_duration_seconds_sum{endpoint="infer"} 0.0009
saber_http_request_duration_seconds_count{endpoint="infer"} 1
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.01"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.1"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="1"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="10"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="+Inf"} 0
saber_http_request_duration_seconds_sum{endpoint="stats"} 0
saber_http_request_duration_seconds_count{endpoint="stats"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.01"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.1"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="1"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="10"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="+Inf"} 0
saber_http_request_duration_seconds_sum{endpoint="healthz"} 0
saber_http_request_duration_seconds_count{endpoint="healthz"} 0
"#,
        EMPTY_HTTP_SPLIT,
    ]
    .concat();
    assert_eq!(text, expected, "prometheus exposition diverged:\n{text}");
    // Every line is a comment or `name{labels} value` — no stray output.
    for line in text.lines() {
        assert!(
            line.starts_with("# TYPE ") || line.contains(' '),
            "malformed exposition line: {line}"
        );
    }
    // Exactly one TYPE line per metric name: spec-conforming Prometheus
    // parsers reject a repeated declaration, so the five endpoint series
    // must share one.
    assert_eq!(
        text.matches("# TYPE saber_http_request_duration_seconds histogram")
            .count(),
        1
    );
    assert_eq!(
        text.matches("# TYPE saber_serve_latency_seconds histogram")
            .count(),
        1
    );
    for family in [
        "saber_serve_queue_wait_seconds",
        "saber_serve_handler_seconds",
        "saber_http_queue_wait_seconds",
        "saber_http_handler_seconds",
    ] {
        assert_eq!(
            text.matches(&format!("# TYPE {family} histogram")).count(),
            1,
            "{family} must declare its TYPE exactly once"
        );
        assert!(
            text.contains(&format!("{family}_count{{endpoint=\"infer\"}} 0\n"))
                || text.contains(&format!("{family}_count 0\n")),
            "{family} series missing:\n{text}"
        );
    }
}

#[test]
fn stats_body_with_router_member_is_stable() {
    // Satellite bugfix of ISSUE 5: router-backed /stats now carries the
    // RouterStats block between "server" and "http".
    let serve = ServeStats::default();
    let http = HttpStats {
        requests: 1,
        errors: 0,
        active_connections: 1,
        infer: EndpointStats::default(),
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    let router = RouterStats {
        requests: 6,
        skew_retries: 1,
        epoch: 2,
        n_shards: 3,
        shard_requests: vec![6, 5, 4],
        transport_retries: 2,
        hedges: 0,
        breaker_trips: 1,
        breaker_readmits: 1,
        replica_health: vec![vec![true], vec![false], vec![true]],
        pipeline: None,
    };
    let body = wire::encode_stats_body(&serve, 2, 3, &http, Some(&router)).to_string();
    assert_eq!(
        body,
        [
            r#"{"server":{"requests":0,"tokens":0,"batches":0,"swaps_observed":0,"#,
            r#""mean_batch_size":0,"snapshot_version":2,"shards":3,"#,
            r#""latency":"#,
            EMPTY_HISTOGRAM,
            r#","queue_wait":"#,
            EMPTY_HISTOGRAM,
            r#","handler":"#,
            EMPTY_HISTOGRAM,
            r#"},"#,
            r#""router":{"requests":6,"skew_retries":1,"epoch":2,"shards":3,"#,
            r#""shard_requests":[6,5,4],"transport_retries":2,"hedges":0,"#,
            r#""breaker_trips":1,"breaker_readmits":1,"#,
            r#""replica_health":[[true],[false],[true]]},"#,
            &idle_http_block(),
        ]
        .concat(),
        "stats body with the router block diverged",
    );
    // Direct servers (router = None) keep the PR 4 bytes exactly — pinned
    // by `stats_body_bytes_are_stable` above.
    assert!(!wire::encode_stats_body(&serve, 2, 1, &http, None)
        .to_string()
        .contains("router"));
}

#[test]
fn pipeline_stats_bytes_are_stable() {
    // PR 10: once a router has published at least one epoch, its stats
    // carry a `pipeline` block; fleets that never published keep the old
    // bytes exactly (pinned by the two tests above).
    let serve = ServeStats::default();
    let http = HttpStats {
        requests: 1,
        errors: 0,
        active_connections: 1,
        infer: EndpointStats::default(),
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    let router = RouterStats {
        requests: 0,
        skew_retries: 0,
        epoch: 4,
        n_shards: 2,
        shard_requests: vec![0, 0],
        transport_retries: 0,
        hedges: 0,
        breaker_trips: 0,
        breaker_readmits: 0,
        replica_health: vec![vec![true], vec![true]],
        pipeline: Some(PipelineStats {
            epochs_published: 3,
            delta_epochs: 2,
            rows_shipped: 40,
            rows_total: 96,
            fallbacks: 1,
            last_publish_micros: 1500,
            publish_micros_total: 5200,
        }),
    };
    let body = wire::encode_stats_body(&serve, 4, 2, &http, Some(&router)).to_string();
    assert_eq!(
        body,
        [
            r#"{"server":{"requests":0,"tokens":0,"batches":0,"swaps_observed":0,"#,
            r#""mean_batch_size":0,"snapshot_version":4,"shards":2,"#,
            r#""latency":"#,
            EMPTY_HISTOGRAM,
            r#","queue_wait":"#,
            EMPTY_HISTOGRAM,
            r#","handler":"#,
            EMPTY_HISTOGRAM,
            r#"},"#,
            r#""router":{"requests":0,"skew_retries":0,"epoch":4,"shards":2,"#,
            r#""shard_requests":[0,0],"transport_retries":0,"hedges":0,"#,
            r#""breaker_trips":0,"breaker_readmits":0,"replica_health":[[true],[true]],"#,
            r#""pipeline":{"epochs_published":3,"delta_epochs":2,"#,
            r#""rows_shipped":40,"rows_total":96,"fallbacks":1,"#,
            r#""last_publish_micros":1500,"publish_micros_total":5200}},"#,
            &idle_http_block(),
        ]
        .concat(),
        "stats body with the pipeline block diverged",
    );
    // The publication block slots in directly after the replica-admitted
    // gauges, before the serve histograms.
    let text = wire::encode_prometheus(&serve, 4, 2, &http, Some(&router));
    let expected = [
        r#"# TYPE saber_http_requests_total counter
saber_http_requests_total 1
# TYPE saber_http_errors_total counter
saber_http_errors_total 0
# TYPE saber_serve_requests_total counter
saber_serve_requests_total 0
# TYPE saber_serve_tokens_total counter
saber_serve_tokens_total 0
# TYPE saber_serve_batches_total counter
saber_serve_batches_total 0
# TYPE saber_serve_swaps_observed_total counter
saber_serve_swaps_observed_total 0
# TYPE saber_serve_latency_overflow_total counter
saber_serve_latency_overflow_total 0
# TYPE saber_serve_queue_wait_overflow_total counter
saber_serve_queue_wait_overflow_total 0
# TYPE saber_serve_handler_overflow_total counter
saber_serve_handler_overflow_total 0
# TYPE saber_http_active_connections gauge
saber_http_active_connections 1
# TYPE saber_snapshot_epoch gauge
saber_snapshot_epoch 4
# TYPE saber_shards gauge
saber_shards 2
# TYPE saber_router_requests_total counter
saber_router_requests_total 0
# TYPE saber_router_skew_retries_total counter
saber_router_skew_retries_total 0
# TYPE saber_router_transport_retries_total counter
saber_router_transport_retries_total 0
# TYPE saber_router_hedges_total counter
saber_router_hedges_total 0
# TYPE saber_router_breaker_trips_total counter
saber_router_breaker_trips_total 0
# TYPE saber_router_breaker_readmits_total counter
saber_router_breaker_readmits_total 0
# TYPE saber_router_shard_requests_total counter
saber_router_shard_requests_total{shard="0"} 0
saber_router_shard_requests_total{shard="1"} 0
# TYPE saber_router_replica_admitted gauge
saber_router_replica_admitted{shard="0",replica="0"} 1
saber_router_replica_admitted{shard="1",replica="0"} 1
# TYPE saber_pipeline_epochs_published_total counter
saber_pipeline_epochs_published_total 3
# TYPE saber_pipeline_delta_epochs_total counter
saber_pipeline_delta_epochs_total 2
# TYPE saber_pipeline_rows_shipped_total counter
saber_pipeline_rows_shipped_total 40
# TYPE saber_pipeline_rows_total counter
saber_pipeline_rows_total 96
# TYPE saber_pipeline_fallbacks_total counter
saber_pipeline_fallbacks_total 1
# TYPE saber_pipeline_publish_micros_total counter
saber_pipeline_publish_micros_total 5200
# TYPE saber_pipeline_last_publish_micros gauge
saber_pipeline_last_publish_micros 1500
# TYPE saber_serve_latency_seconds histogram
saber_serve_latency_seconds_bucket{le="0.0001"} 0
saber_serve_latency_seconds_bucket{le="0.001"} 0
saber_serve_latency_seconds_bucket{le="0.01"} 0
saber_serve_latency_seconds_bucket{le="0.1"} 0
saber_serve_latency_seconds_bucket{le="1"} 0
saber_serve_latency_seconds_bucket{le="10"} 0
saber_serve_latency_seconds_bucket{le="+Inf"} 0
saber_serve_latency_seconds_sum 0
saber_serve_latency_seconds_count 0
"#,
        EMPTY_SERVE_SPLIT,
        r#"# TYPE saber_http_request_duration_seconds histogram
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.01"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="0.1"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="1"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="10"} 0
saber_http_request_duration_seconds_bucket{endpoint="infer",le="+Inf"} 0
saber_http_request_duration_seconds_sum{endpoint="infer"} 0
saber_http_request_duration_seconds_count{endpoint="infer"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.01"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="0.1"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="1"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="10"} 0
saber_http_request_duration_seconds_bucket{endpoint="stats",le="+Inf"} 0
saber_http_request_duration_seconds_sum{endpoint="stats"} 0
saber_http_request_duration_seconds_count{endpoint="stats"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.0001"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.001"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.01"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="0.1"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="1"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="10"} 0
saber_http_request_duration_seconds_bucket{endpoint="healthz",le="+Inf"} 0
saber_http_request_duration_seconds_sum{endpoint="healthz"} 0
saber_http_request_duration_seconds_count{endpoint="healthz"} 0
"#,
        EMPTY_HTTP_SPLIT,
    ]
    .concat();
    assert_eq!(text, expected, "prometheus exposition diverged:\n{text}");
}

/// The deterministic planted model behind the full-stack fixtures.
fn model() -> LdaModel {
    let mut model = LdaModel::new(12, 3, 0.05, 0.01).unwrap();
    for v in 0..12 {
        model.word_topic_mut()[(v, v % 3)] = 50;
    }
    model.refresh_probabilities();
    model
}

/// One request over a real socket; returns the response body.
fn http_body(addr: std::net::SocketAddr, request: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    reply
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body")
        .to_string()
}

const INFER_REQUEST_BODY: &str = r#"{"words":[0,3,6,9,0,3],"seed":7}"#;
const INFER_EXPECTED: &str = concat!(
    r#"{"theta":[0.9837398529052734,0.008130080997943878,0.008130080997943878],"#,
    r#""dominant_topic":0,"snapshot_version":1,"n_oov":0,"seed":7}"#,
);

#[test]
fn http_bodies_are_stable_end_to_end_for_a_direct_server() {
    let server = Arc::new(TopicServer::from_model(&model(), ServeConfig::default()).unwrap());
    let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
    assert_eq!(
        http_body(
            http.local_addr(),
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ),
        r#"{"status":"ok","snapshot_version":1,"n_topics":3,"vocab_size":12,"shards":1}"#,
    );
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        INFER_REQUEST_BODY.len(),
        INFER_REQUEST_BODY
    );
    assert_eq!(http_body(http.local_addr(), &request), INFER_EXPECTED);
    http.shutdown();
}

#[test]
fn http_bodies_are_stable_end_to_end_for_a_sharded_router() {
    // Same endpoints through a 3-shard router: only the `shards` member
    // may differ — and on this fully pinned model even θ's bytes match
    // the direct server's.
    let router = Arc::new(
        ShardRouter::from_model(
            &model(),
            ShardPlan::uniform(12, 3).unwrap(),
            ServeConfig::default(),
        )
        .unwrap(),
    );
    let http = HttpServer::bind("127.0.0.1:0", router, None, HttpConfig::default()).unwrap();
    assert_eq!(
        http_body(
            http.local_addr(),
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ),
        concat!(
            r#"{"status":"ok","snapshot_version":1,"n_topics":3,"vocab_size":12,"shards":3,"#,
            r#""fleet":[[{"reachable":true,"admitted":true}],[{"reachable":true,"admitted":true}],[{"reachable":true,"admitted":true}]]}"#,
        ),
    );
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        INFER_REQUEST_BODY.len(),
        INFER_REQUEST_BODY
    );
    assert_eq!(http_body(http.local_addr(), &request), INFER_EXPECTED);
    http.shutdown();
}

/// One request over a real socket; returns the full raw reply (headers
/// included), for tests that also pin transport-level framing.
fn http_reply(addr: std::net::SocketAddr, request: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn shard_endpoints_are_stable_end_to_end_over_tcp() {
    // A shard process as the router sees it: a direct server whose HTTP
    // config declares the global range it serves.
    let server = Arc::new(TopicServer::from_model(&model(), ServeConfig::default()).unwrap());
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        None,
        HttpConfig {
            shard_range: Some((24, 36)),
            ..HttpConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        http_body(
            http.local_addr(),
            "GET /shard-info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ),
        concat!(
            r#"{"epoch":1,"vocab_size":12,"n_topics":3,"alpha":0.05000000074505806,"#,
            r#""shard":[24,36],"fold_in":{"kind":"esca","burn_in":5,"samples":8},"#,
            r#""stats":{"requests":0,"tokens":0,"batches":0,"swaps_observed":0,"#,
            r#""latency":{"sum_us":0,"buckets":[]},"#,
            r#""queue_wait":{"sum_us":0,"buckets":[]},"handler":{"sum_us":0,"buckets":[]}}}"#,
        ),
    );
    // The fan-out request itself: same planted document and seed as the
    // full /infer fixture, as the partial protocol carries it.
    let body = r#"{"words":[0,3,6,9,0,3],"esca":{"seed":7}}"#;
    let request = format!(
        "POST /infer-partial HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    assert_eq!(
        http_body(http.local_addr(), &request),
        r#"{"k":3,"topics":[0],"counts":[48],"n_words":6,"snapshot_version":1,"n_oov":0,"shard":[24,36]}"#,
    );
    // An EM round over a uniform θ: responsibility counts sum to the
    // document length, deterministically.
    let body = r#"{"words":[0,3,6],"em":{"round":0,"theta":[0.3333333333333333,0.3333333333333333,0.3333333333333333]}}"#;
    let request = format!(
        "POST /infer-partial HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    assert_eq!(
        http_body(http.local_addr(), &request),
        concat!(
            r#"{"k":3,"topics":[0,1,2],"#,
            r#""counts":[2.9988007195544726,0.0005996402227639496,0.0005996402227639496],"#,
            r#""n_words":3,"snapshot_version":1,"n_oov":0,"shard":[24,36]}"#,
        ),
    );
    http.shutdown();
}

#[test]
fn pinned_partial_endpoint_is_stable_end_to_end_over_tcp() {
    // A router pins its read to an epoch in X-Saber-Epoch. The epoch the
    // shard serves answers exactly the headerless bytes; one it holds no
    // snapshot of is refused with 503, and a malformed header with 400.
    let server = Arc::new(TopicServer::from_model(&model(), ServeConfig::default()).unwrap());
    let config = HttpConfig {
        shard_range: Some((24, 36)),
        ..HttpConfig::default()
    };
    let http = HttpServer::bind("127.0.0.1:0", server, None, config).unwrap();
    let body = r#"{"words":[0,3,6,9,0,3],"esca":{"seed":7}}"#;
    let pinned = |epoch: &str| {
        let request = format!(
            "POST /infer-partial HTTP/1.1\r\nHost: x\r\nX-Saber-Epoch: {epoch}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        http_reply(http.local_addr(), &request)
    };
    for (epoch, status, expected) in [
        (
            "1",
            "200",
            r#"{"k":3,"topics":[0],"counts":[48],"n_words":6,"snapshot_version":1,"n_oov":0,"shard":[24,36]}"#,
        ),
        (
            "2",
            "503",
            r#"{"error":"shard snapshot versions diverged during the request","status":503}"#,
        ),
        (
            "one",
            "400",
            r#"{"error":"unparsable X-Saber-Epoch header","status":400}"#,
        ),
    ] {
        let reply = pinned(epoch);
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status} ")),
            "epoch {epoch}: {reply}"
        );
        assert_eq!(
            reply.split("\r\n\r\n").nth(1),
            Some(expected),
            "epoch {epoch}"
        );
    }
    http.shutdown();
}

#[test]
fn metrics_exposition_is_stable_end_to_end_over_tcp() {
    // The very first request a fresh server handles is a /metrics scrape:
    // every counter is deterministic (requests=1 — the scrape itself —
    // one live connection, everything else zero).
    let server = Arc::new(TopicServer::from_model(&model(), ServeConfig::default()).unwrap());
    let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
    let reply = http_reply(
        http.local_addr(),
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(
        reply.contains("Content-Type: text/plain; version=0.0.4\r\n"),
        "{reply}"
    );
    let observed = reply.split("\r\n\r\n").nth(1).unwrap();
    let scrape_time_http = HttpStats {
        requests: 1,
        errors: 0,
        active_connections: 1,
        infer: EndpointStats::default(),
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    let expected = wire::encode_prometheus(&ServeStats::default(), 1, 1, &scrape_time_http, None);
    assert_eq!(observed, expected, "live /metrics diverged from the codec");
    http.shutdown();
}

#[test]
fn router_backed_stats_carry_the_router_block_over_tcp() {
    let router = Arc::new(
        ShardRouter::from_model(
            &model(),
            ShardPlan::uniform(12, 3).unwrap(),
            ServeConfig::default(),
        )
        .unwrap(),
    );
    let http = HttpServer::bind("127.0.0.1:0", router, None, HttpConfig::default()).unwrap();
    let stats_body = http_body(
        http.local_addr(),
        "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(
        stats_body.contains(concat!(
            r#""router":{"requests":0,"skew_retries":0,"epoch":1,"shards":3,"shard_requests":[0,0,0],"#,
            r#""transport_retries":0,"hedges":0,"breaker_trips":0,"breaker_readmits":0,"#,
            r#""replica_health":[[true],[true],[true]]}"#,
        )),
        "router-backed /stats lost its RouterStats: {stats_body}"
    );
    let metrics_body = http_body(
        http.local_addr(),
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    for line in [
        "saber_router_requests_total 0\n",
        "saber_router_skew_retries_total 0\n",
        "saber_router_transport_retries_total 0\n",
        "saber_router_hedges_total 0\n",
        "saber_router_breaker_trips_total 0\n",
        "saber_router_breaker_readmits_total 0\n",
        "saber_router_shard_requests_total{shard=\"2\"} 0\n",
        "saber_router_replica_admitted{shard=\"2\",replica=\"0\"} 1\n",
        "saber_shards 3\n",
    ] {
        assert!(
            metrics_body.contains(line),
            "missing {line:?}:\n{metrics_body}"
        );
    }
    http.shutdown();
}

#[test]
fn infer_request_decoding_is_stable() {
    use saberlda::serve::wire::InferBody;
    use saberlda::OovPolicy;
    // The id form, the token form, and the guard rails — pinned, since a
    // request decoder that drifts breaks every deployed client at once.
    let ids = wire::decode_infer(r#"{"words":[0,3,6],"seed":7}"#).unwrap();
    assert_eq!(ids.body, InferBody::Words(vec![0, 3, 6]));
    assert_eq!(ids.seed, Some(7));
    let raw = wire::decode_infer(r#"{"tokens":["dog","cat"],"oov":"fail"}"#).unwrap();
    assert_eq!(
        raw.body,
        InferBody::Tokens {
            tokens: vec!["dog".into(), "cat".into()],
            policy: OovPolicy::Fail,
        }
    );
    assert_eq!(raw.seed, None);
    // `oov` defaults to skip; `words` and `tokens` are mutually exclusive.
    let skip = wire::decode_infer(r#"{"tokens":[]}"#).unwrap();
    assert!(matches!(
        skip.body,
        InferBody::Tokens {
            policy: OovPolicy::Skip,
            ..
        }
    ));
    assert!(wire::decode_infer(r#"[0,3]"#).is_err());
    assert!(wire::decode_infer(r#"{"words":[0],"tokens":["x"]}"#).is_err());
    assert!(wire::decode_infer(r#"{"words":[4294967296]}"#).is_err());
}

#[test]
fn histogram_bytes_are_stable() {
    let h = LatencyHistogram::new();
    h.record(Duration::from_micros(800));
    h.record(Duration::from_micros(1500));
    assert_eq!(
        wire::encode_histogram(&h.snapshot()).to_string(),
        concat!(
            r#"{"count":2,"mean_us":1150,"p50_us":724.0773439350247,"#,
            r#""p95_us":1448.1546878700494,"p99_us":1448.1546878700494}"#,
        ),
    );
    // Quantiles are null (not 0, not NaN) until the first sample.
    assert_eq!(
        wire::encode_histogram(&LatencyHistogram::new().snapshot()).to_string(),
        r#"{"count":0,"mean_us":null,"p50_us":null,"p95_us":null,"p99_us":null}"#,
    );
}

#[test]
fn histogram_overflow_member_appears_only_when_clamped() {
    // ISSUE 8 satellite: a sample at or above the top bucket bound (2^40
    // µs) no longer folds in silently — the JSON grows an `overflow`
    // member. Overflow-free histograms keep the exact PR 4 bytes (pinned
    // above), so clients never see the member until it means something.
    let h = LatencyHistogram::new();
    h.record(Duration::from_micros(800));
    h.record(Duration::from_micros(1 << 40));
    let encoded = wire::encode_histogram(&h.snapshot()).to_string();
    assert!(
        encoded.ends_with(r#","overflow":1}"#),
        "overflow member missing: {encoded}"
    );
    // The lossless shard-info codec round-trips the overflow count too.
    let stats = ServeStats {
        requests: 2,
        tokens: 4,
        batches: 1,
        swaps_observed: 0,
        latency: h.snapshot(),
        queue_wait: LatencyHistogram::new().snapshot(),
        handler: LatencyHistogram::new().snapshot(),
    };
    let info = ShardInfo {
        epoch: 1,
        vocab_size: 12,
        n_topics: 3,
        alpha: 0.05,
        shard_range: (0, 12),
        fold_in: FoldInParams::default(),
        stats,
    };
    let encoded = wire::encode_shard_info(&info).to_string();
    assert!(
        encoded.contains(r#""overflow":1"#),
        "sparse histogram lost the overflow count: {encoded}"
    );
    let decoded = wire::decode_shard_info(&encoded).unwrap();
    assert_eq!(decoded.stats.latency.overflow(), 1);
    assert_eq!(decoded, info);
    // Peers predating the counter (no `overflow` member) decode as zero.
    let legacy = encoded.replace(r#","overflow":1"#, "");
    assert_eq!(
        wire::decode_shard_info(&legacy)
            .unwrap()
            .stats
            .latency
            .overflow(),
        0
    );
    // And /metrics reports the clamp as an explicit counter.
    let http = HttpStats {
        requests: 0,
        errors: 0,
        active_connections: 0,
        infer: EndpointStats::default(),
        stats: EndpointStats::default(),
        healthz: EndpointStats::default(),
    };
    let text = wire::encode_prometheus(&info.stats, 1, 1, &http, None);
    assert!(
        text.contains("saber_serve_latency_overflow_total 1\n"),
        "{text}"
    );
    assert!(text.contains("saber_serve_handler_overflow_total 0\n"));
}

#[test]
fn serve_error_decoding_inverts_the_status_table() {
    use saberlda::serve::ServeError;
    // The router's retry logic keys on these variants, so the mapping from
    // (status, canonical Display text) back to ServeError is wire contract.
    assert!(matches!(
        wire::decode_serve_error(429, r#"{"error":"queue full","status":429}"#),
        ServeError::Overloaded
    ));
    assert!(matches!(
        wire::decode_serve_error(503, r#"{"error":"request deadline exceeded","status":503}"#),
        ServeError::DeadlineExceeded
    ));
    assert!(matches!(
        wire::decode_serve_error(
            503,
            r#"{"error":"shard snapshot versions diverged during the request","status":503}"#
        ),
        ServeError::ShardVersionSkew
    ));
    assert!(matches!(
        wire::decode_serve_error(503, r#"{"error":"connection limit reached","status":503}"#),
        ServeError::Overloaded
    ));
    assert!(matches!(
        wire::decode_serve_error(
            503,
            r#"{"error":"serving worker pool has shut down","status":503}"#
        ),
        ServeError::Closed
    ));
    match wire::decode_serve_error(400, r#"{"error":"bad request: word id 99","status":400}"#) {
        ServeError::BadRequest { detail } => assert_eq!(detail, "bad request: word id 99"),
        other => panic!("400 decoded as {other:?}"),
    }
    // An unparseable body still yields a useful transport error.
    match wire::decode_serve_error(418, "not json") {
        ServeError::Transport {
            detail,
            shard,
            addr,
        } => {
            assert!(detail.contains("418"), "{detail}");
            // Attribution (which shard, which address) is stamped by the
            // transport, not the decoder: it starts out unattributed.
            assert_eq!(shard, None);
            assert_eq!(addr, None);
        }
        other => panic!("unknown status decoded as {other:?}"),
    }
}

#[test]
fn trace_recent_bytes_are_stable() {
    // The `GET /trace/recent` body: the recent ring plus the slow-request
    // capture, each trace a flat span list keyed by id/parent.
    let trace = Trace {
        trace_id: TraceId::from_raw(0xabc).unwrap(),
        total_us: 1500,
        spans: vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "ingress".to_string(),
                start_us: 0,
                duration_us: 1500,
                events: vec![SpanEvent {
                    at_us: 700,
                    message: "epoch observed 3".to_string(),
                }],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "handler".to_string(),
                start_us: 10,
                duration_us: 1400,
                events: Vec::new(),
            },
        ],
    };
    let encoded = wire::encode_trace_recent(std::slice::from_ref(&trace), &[], 250_000).to_string();
    assert_eq!(
        encoded,
        concat!(
            r#"{"recent":[{"trace_id":"0000000000000abc","total_us":1500,"spans":["#,
            r#"{"id":1,"parent":null,"name":"ingress","start_us":0,"duration_us":1500,"#,
            r#""events":[{"at_us":700,"message":"epoch observed 3"}]},"#,
            r#"{"id":2,"parent":1,"name":"handler","start_us":10,"duration_us":1400}]}],"#,
            r#""slow":{"threshold_us":250000,"traces":[]}}"#,
        ),
    );
    // The client half: `decode_trace_recent` recovers the ring exactly
    // (ids, parents, events and all), which is what lets the distributed
    // tracing tests assert on assembled cross-process trees.
    let decoded = wire::decode_trace_recent(&encoded).unwrap();
    assert_eq!(decoded, vec![trace]);
    // A trace that lands in the slow capture also appears under `slow`
    // with the configured threshold; `decode_trace_recent` reads only the
    // ring, so the slow list never double-counts in clients.
    let slow = wire::encode_trace_recent(&[], &decoded, 250_000).to_string();
    assert!(
        slow.starts_with(r#"{"recent":[],"slow":{"threshold_us":250000,"traces":[{"trace_id""#),
        "{slow}"
    );
    assert_eq!(wire::decode_trace_recent(&slow).unwrap(), Vec::new());
}

#[test]
fn healthz_version_decoding_is_stable() {
    // The epoch probe decodes against the healthz fixture pinned by the
    // end-to-end tests above.
    assert_eq!(
        wire::decode_healthz_version(
            r#"{"status":"ok","snapshot_version":3,"n_topics":3,"vocab_size":12,"shards":1}"#
        )
        .unwrap(),
        3
    );
    assert!(wire::decode_healthz_version(r#"{"status":"ok"}"#).is_err());
}

#[test]
fn json_codec_primitives_are_stable() {
    use saberlda::core::json::{parse, JsonValue};
    // The formatting rules everything above relies on, pinned directly.
    for (value, expected) in [
        (JsonValue::from(u64::MAX), "18446744073709551615"),
        (JsonValue::Number(1.5), "1.5"),
        (JsonValue::Number(1.0), "1"),
        (JsonValue::Number(f64::NAN), "null"),
        (JsonValue::Number(0.1), "0.1"),
        (JsonValue::from("a\"b\\c\nd"), r#""a\"b\\c\nd""#),
        (JsonValue::f32_array(&[0.1f32]), "[0.10000000149011612]"),
    ] {
        assert_eq!(value.to_string(), expected);
    }
    // Round trip: parse(serialise(x)) == x for a nested document.
    let doc = r#"{"a":[1,2.5,null,true,"x"],"b":{"c":18446744073709551615}}"#;
    assert_eq!(parse(doc).unwrap().to_string(), doc);
}
